"""The repository benchmark: one workload per run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-resnet20-cold --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics; ``--trace 1`` wraps each layer's entry points (see
``tracing.py``) and prints the per-layer metrics instead.  Either way
the last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it holds the environment, the error rate and the
output digest.  Every run also writes ``perfbench/out/<workload>-
seed<n>-trace<t>.json``; a traced run adds a Chrome trace-event file
(``*.trace.json``) that opens offline in Perfetto.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"

#: Set-ups per run; ``setup_s`` is their median and the last one is used.
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.
E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _pin_blas_threads() -> dict:
    """Run BLAS/OpenMP pools on one thread (set before numpy loads).

    One thread is at most the core count, and steady: on a shared
    2-core machine a two-thread OpenBLAS pool stalled 15x on some
    matrix products while one thread stayed within 5%.
    """
    threads = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = threads[var] = "1"
    return threads


def _environment(blas_threads: dict) -> dict:
    import importlib.util
    import platform

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads,
        "numba_absent": importlib.util.find_spec("numba") is None,
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def _reset_peak_rss() -> None:
    """Restart the process's peak resident memory (``VmHWM``) from now."""
    import gc

    gc.collect()
    Path("/proc/self/clear_refs").write_text("5")


def _peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`_reset_peak_rss`."""
    status = Path("/proc/self/status").read_text()
    kib = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)
    return int(kib) / 1024.0


def end_to_end(setups, peak_rss_mb, rec) -> dict:
    import statistics

    computed = [op for op in rec.ops if op.kind == "computed"]
    # Means over the passes, not medians over the window: the machine's
    # speed moves between a fast and a slow level in steps of several
    # seconds, and a median over a run's passes or jobs lands on
    # whichever level held most of them.  A pass is short enough to sit
    # on one level, so its median job is taken first.
    pass_p50 = [_percentile([op.latency_s for op in computed
                             if start <= op.end <= end], 50)
                for start, end in rec.passes]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(end - start
                                  for start, end in rec.passes),
        "peak_rss_mb": peak_rss_mb,
        "job_latency_p50_s": statistics.mean(pass_p50),
        "job_latency_p90_s": _percentile(
            [op.latency_s for op in computed], 90),
    }


def result_line(correct: bool, attempted: int, failed: int,
                values: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })


def run(workload_cls, seed: int, seconds: float, traced: bool,
        work: Path) -> dict:
    from tracing import Tracer
    from workloads import Record

    workload = workload_cls(seed, SRC)
    rec = Record()
    tracer = Tracer() if traced else None
    setups = []
    try:
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.release()
            if tracer is not None and attempt == SETUP_REPEATS - 1:
                tracer.install()
            directory = work / f"setup-{attempt}"
            directory.mkdir()
            start = perf_counter()
            workload.set_up(directory)
            setups.append(perf_counter() - start)
        _reset_peak_rss()
        begin = perf_counter()
        while True:
            start = perf_counter()
            workload.run_pass(rec, directory)
            rec.passes.append((start, perf_counter()))
            if perf_counter() - begin >= seconds:
                break
        peak_rss_mb = _peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        workload.check(rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    return {"setups": setups, "peak_rss_mb": peak_rss_mb, "record": rec,
            "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check metric names and the output shape, "
                             "then exit")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    if args.self_test:
        return self_test()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    blas_threads = _pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import tempfile

    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    try:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), work)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    rec = outcome["record"]
    e2e = end_to_end(outcome["setups"], outcome["peak_rss_mb"], rec)
    attempted = len(rec.ops)
    failures = [op.failure for op in rec.ops if op.failure is not None]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": _environment(blas_threads),
        "error_rate": len(failures) / attempted,
        "ops": {kind: sum(1 for op in rec.ops if op.kind == kind)
                for kind in ("computed", "cached")},
        "passes": len(rec.passes),
        "pass_s": [end - start for start, end in rec.passes],
        "cached_latency_p50_s": _percentile(
            [op.latency_s for op in rec.ops if op.kind == "cached"], 50),
        "setup_runs_s": outcome["setups"],
        "failures": failures[:10],
        **rec.notes,
    }
    report = {**info, "end_to_end": e2e}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = outcome["tracer"]
        layers = tracer.metrics(rec.passes, rec.layer_extra, e2e["wall_s"])
        values = {name: layers[name] for name in LAYER_METRICS}
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        report["per_layer"] = layers
        report["layer_map"] = {
            name: {"unit": spec[0], "better": spec[1], "moves": spec[2],
                   "on": spec[3]}
            for name, spec in LAYER_METRICS.items()}
        stem = f"{args.workload}-seed{args.seed}"
        (OUT / f"{stem}.trace.json").write_text(json.dumps(
            tracer.chrome_trace({"workload": args.workload,
                                 "seed": args.seed})))
    else:
        values, units = e2e, E2E_METRICS
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=1, default=repr))
    print(json.dumps(info, default=repr))
    print(result_line(not failures, attempted, len(failures), values,
                      units))
    return 0


# ----------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------
def self_test() -> int:
    """Check BENCHMARK.json against the harness and the output shape."""
    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_keys = {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}
    if set(bench) != expected_keys:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
    names = [w["name"] for w in bench["workloads"]]
    problems += [f"no workload {n!r}" for n in names if n not in WORKLOADS]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    problems += [f"bad unit {m['unit']!r}"
                 for m in bench["end_to_end"] + bench["per_layer"]
                 if not UNIT_RE.match(m["unit"])]
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared_e2e != E2E_METRICS:
        problems.append("end_to_end differs from the harness metrics")
    declared_layers = {m["name"]: (m["unit"], m["better"])
                       for m in bench["per_layer"]}
    if declared_layers != {name: spec[:2]
                           for name, spec in LAYER_METRICS.items()}:
        problems.append("per_layer differs from tracing.LAYER_METRICS")

    for units in (E2E_METRICS,
                  {name: spec[0] for name, spec in LAYER_METRICS.items()}):
        line = result_line(True, 3, 0, {name: 1.5 for name in units},
                           units)
        problems += _result_shape_problems(json.loads(line), set(units))

    # Two passes, [0, 4] and [5, 9], plus set-up work after them that
    # must not count.
    tracer = Tracer()
    tracer.span("stage.baseline", "core.stages", 0.0, 4.0, {"self_s": 3.0})
    tracer.span("stage.dataset", "core.stages", 1.0, 2.0, {"self_s": 1.0})
    for start in (1.0, 6.0, 10.0):
        tracer.span("nn.fit", "nn", start, start + 1.0)
        tracer.count("nn.samples", 10, at=start + 0.5)
    layers = tracer.metrics([(0.0, 4.0), (5.0, 9.0)], {}, 4.0)
    if (layers["stage.self_share"], layers["stage.baseline.self_s"],
            layers["nn.fit_s"], layers["nn.samples_per_s"]) \
            != (0.5, 1.5, 1.0, 10.0):
        problems.append(f"tracer arithmetic: {layers}")

    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def _result_shape_problems(result: dict, names: set) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key],
                                                          bool):
            problems.append(f"{key} is not a whole number")
    if set(result["metrics"]) != names:
        problems.append("metrics differ from the declared names")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} \
                or not isinstance(metric["value"], (int, float)) \
                or not math.isfinite(metric["value"]):
            problems.append(f"metric {name} malformed: {metric}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
