"""Accelerator design-space exploration (beyond-paper experiment).

The paper evaluates PowerPruning on one fixed 64x64 systolic array;
the ``accel_*`` pipeline stages generalize that to any
:class:`~repro.systolic.spec.AcceleratorSpec` design point — array
geometry x hardware variant (Standard vs Optimized HW) x streaming
batch.  This module is a thin adapter over the declarative sweep
engine (:mod:`repro.experiments.sweep`): the design space is just the
``accel`` sweep grid, so every point of one (backend, network, seed)
shares the whole training/characterization prefix and the
``accel_layers`` trace of the pruned model through the
content-addressed artifact store, and Standard vs Optimized HW of one
geometry additionally share the tile counts in ``accel_schedule``.

CLI::

    python -m repro accel --scale smoke --shape 16x16 --shape hw
    python -m repro accel --spec design_space.toml --jobs 2 \
        --cache-dir .repro-cache --csv points.csv
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.experiments.sweep import (
    SweepResult,
    format_sweep,
    load_spec_mapping,
    make_sweep_spec,
    run_sweep,
    sweep_spec_from_mapping,
)
from repro.hw import DEFAULT_BACKEND_ID, get_backend

__all__ = ["run", "cli_main"]


def run(scale: str = "ci",
        array_shapes: Optional[Sequence] = None,
        hw_variants: Optional[Sequence[str]] = None,
        stream_batch: int = 1,
        backends: Optional[Sequence] = None,
        networks: Optional[Sequence] = None,
        seeds: Optional[Sequence[int]] = None,
        jobs: Optional[int] = 1, char_jobs: int = 1,
        cache_dir=None, verbose: bool = False,
        progress: bool = False) -> SweepResult:
    """Evaluate every accelerator design point of the grid.

    Args:
        scale: Experiment scale (``smoke``/``ci``/``paper``).
        array_shapes: Array geometries in any spelling
            :func:`~repro.systolic.spec.parse_array_shape` accepts
            (``"32x32"``, ``(32, 32)``, ``None``/``"hw"`` = the
            backend's own geometry).  Default: the backend geometry.
        hw_variants: Hardware variants (``standard``/``optimized``).
            Default: both — the paper's comparison.
        stream_batch: Inferences streamed per stationary tile load,
            applied to every design point.
        backends: Registry ids and/or backend specs.
        networks: Network names, labels or specs.
        seeds: Pipeline seeds (multi-seed grids aggregate mean±std).
        jobs: Processes for independent grid points (0 = all cores).
        char_jobs: Processes each point spends sharding per-weight
            characterization.
        cache_dir: Shared on-disk artifact cache; design points
            invalidate only the ``accel_*`` stage keys, so the
            training/characterization prefix is reused across the
            whole design space.
        verbose: Log stage execution.
        progress: Stream per-point progress to stderr.
    """
    sweep = make_sweep_spec("accel", backends=backends,
                            networks=networks, seeds=seeds, scale=scale,
                            array_shapes=array_shapes,
                            hw_variants=hw_variants,
                            stream_batch=stream_batch)
    return run_sweep(sweep, jobs=jobs, cache_dir=cache_dir,
                     char_jobs=char_jobs, verbose=verbose,
                     progress=progress)


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro accel ...`` — the design-space CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro accel",
        description="Evaluate PowerPruning accelerator design points: "
                    "array shapes x hardware variants on the pruned "
                    "network, sharing one training/characterization "
                    "prefix",
        epilog="Example: python -m repro accel --scale smoke "
               "--shape 16x16 --shape 32x32 --shape hw --jobs 2 "
               "--cache-dir .repro-cache",
    )
    parser.add_argument("--spec", metavar="FILE",
                        help="JSON/TOML design-space spec (sweep spec "
                             "schema; 'experiment' defaults to "
                             "'accel'); explicit flags override its "
                             "entries")
    parser.add_argument("--shape", action="append", metavar="RxC",
                        help="systolic array geometry ('32x32', '32', "
                             "or 'hw' = the backend's own); repeatable "
                             "(default: the backend geometry)")
    parser.add_argument("--variant", action="append", metavar="NAME",
                        choices=("standard", "optimized"),
                        help="hardware variant; repeatable (default: "
                             "both)")
    parser.add_argument("--stream-batch", type=int, default=None,
                        metavar="N",
                        help="inferences streamed per stationary tile "
                             "load (default: 1)")
    parser.add_argument("--backend", action="append", metavar="ID",
                        help="hardware backend; repeatable "
                             f"(default: {DEFAULT_BACKEND_ID})")
    parser.add_argument("--network", action="append", metavar="NAME",
                        help="network name or Table I label; repeatable "
                             "(default: lenet5)")
    parser.add_argument("--seed", action="append", type=int, metavar="N",
                        help="pipeline seed; repeatable (default: 0)")
    parser.add_argument("--scale", default=None,
                        choices=("smoke", "ci", "paper"),
                        help="experiment scale (default: ci)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="processes for independent grid points "
                             "(0 = all cores; default: 1)")
    parser.add_argument("--char-jobs", type=int, default=1, metavar="N",
                        help="processes each point spends sharding "
                             "per-weight characterization (default: 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk artifact cache shared across "
                             "points, runs and workers")
    parser.add_argument("--csv", default=None, metavar="FILE",
                        help="also write the tidy per-point table as "
                             "CSV")
    parser.add_argument("--aggregate-csv", default=None, metavar="FILE",
                        help="also write the seed-aggregated table as "
                             "CSV")
    args = parser.parse_args(argv)

    try:
        if args.spec is not None:
            data = load_spec_mapping(args.spec)
            data.setdefault("experiment", "accel")
            if data["experiment"] != "accel":
                raise ValueError(
                    f"spec file {args.spec!r} declares experiment "
                    f"{data['experiment']!r}; 'python -m repro accel' "
                    f"runs accel sweeps only (use 'python -m repro "
                    f"sweep --spec ...' for the full grid engine)")
            base = sweep_spec_from_mapping(
                data, source=f"design-space spec {args.spec!r}")
            # `is not None` merge, same contract as the sweep CLI.
            sweep = make_sweep_spec(
                "accel",
                backends=(args.backend if args.backend is not None
                          else base.backends),
                networks=(args.network if args.network is not None
                          else base.networks),
                seeds=(args.seed if args.seed is not None
                       else base.seeds),
                scale=(args.scale if args.scale is not None
                       else base.scale),
                array_shapes=(args.shape if args.shape is not None
                              else base.array_shapes),
                hw_variants=(args.variant if args.variant is not None
                             else base.hw_variants),
                stream_batch=(args.stream_batch
                              if args.stream_batch is not None
                              else base.stream_batch),
            )
        else:
            sweep = make_sweep_spec(
                "accel",
                backends=args.backend,
                networks=args.network,
                seeds=args.seed,
                scale=args.scale if args.scale is not None else "ci",
                array_shapes=args.shape,
                hw_variants=args.variant,
                stream_batch=(args.stream_batch
                              if args.stream_batch is not None else 1),
            )
        for backend in sweep.backends:
            if isinstance(backend, str):
                get_backend(backend)  # fail fast on typos
    except ValueError as error:
        parser.error(str(error))

    result = run_sweep(sweep, jobs=args.jobs, cache_dir=args.cache_dir,
                       char_jobs=args.char_jobs, progress=True)
    print(format_sweep(result))
    if args.csv:
        result.write_csv(args.csv)
        print(f"tidy table written to {args.csv}")
    if args.aggregate_csv:
        result.write_csv(args.aggregate_csv, aggregated=True)
        print(f"aggregated table written to {args.aggregate_csv}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(cli_main())
