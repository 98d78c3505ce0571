"""Command-line entry point: run any paper experiment.

Usage::

    python -m repro table1 [--scale ci] [--jobs 4] [--cache-dir .cache]
    python -m repro fig2 [--scale smoke]
    python -m repro fig7 --scale ci --jobs 0 --cache-dir .repro-cache
    python -m repro table1 --backend nangate15-array
    python -m repro backends --scale smoke --jobs 2
    python -m repro sweep --experiment fig8 --backend nangate15-booth \
        --backend nangate15-array --scale smoke --jobs 2
    python -m repro accel --scale smoke --shape 16x16 --shape hw
    python -m repro --list-backends
    ...

``--jobs`` fans independent units (Table I rows, figure panels) out
across processes (``0`` = all cores); experiments with a single unit of
work spend it sharding the per-weight characterization stage instead.
``--cache-dir`` turns on the on-disk content-addressed artifact cache:
every stage of the pipeline graph (training, characterization,
selection, ...) is stored under a key derived from the config *and the
hardware backend*, so repeated runs — and different experiments or
backends sharing a prefix — skip all unchanged work without ever
colliding.  ``--backend`` selects the hardware backend (see
``--list-backends``); the ``backends`` experiment runs the Table I flow
on several backends and compares them side by side.

The ``sweep`` subcommand runs a declarative grid over backends x
networks x thresholds x seeds and renders one combined per-backend
table/chart — see ``python -m repro sweep --help``.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    backends,
    fig2,
    fig3,
    fig4,
    fig7,
    fig8,
    fig9,
    table1,
)
from repro.hw import DEFAULT_BACKEND_ID, describe_backends, get_backend

EXPERIMENTS = {
    "table1": table1.main,
    "fig2": fig2.main,
    "fig3": fig3.main,
    "fig4": fig4.main,
    "fig7": fig7.main,
    "fig8": fig8.main,
    "fig9": fig9.main,
    "backends": backends.main,
}

#: Experiments whose main() accepts a repeatable seed axis; multi-seed
#: runs report variance-aware mean±std aggregates over the seeds.
SEEDED_EXPERIMENTS = frozenset({"table1", "fig8", "fig9", "backends"})


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "sweep":
        # The declarative grid engine carries its own flag set
        # (repeatable --backend/--network/--threshold, --spec files).
        from repro.experiments import sweep

        return sweep.cli_main(argv[1:])
    if argv and argv[0] == "accel":
        # Accelerator design-space exploration: array shapes x
        # hardware variants over the accel sweep grid.
        from repro.experiments import accel

        return accel.cli_main(argv[1:])
    if argv and argv[0] == "serve":
        # The experiment service (HTTP job queue over the sweep
        # engine); needs the optional 'service' extra.
        from repro.service.cli import serve_main

        return serve_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate a table/figure of the PowerPruning "
                    "paper (DAC 2023)",
    )
    parser.add_argument("experiment", nargs="?",
                        choices=sorted(EXPERIMENTS) + ["accel",
                                                       "sweep",
                                                       "serve"],
                        help="which table/figure to regenerate "
                             "('backends' compares hardware backends; "
                             "'accel' sweeps accelerator design points; "
                             "'sweep' runs a declarative grid; 'serve' "
                             "runs the HTTP experiment service, see "
                             "'accel --help' / 'sweep --help' / "
                             "'serve --help')")
    parser.add_argument("--scale", default="ci",
                        choices=("smoke", "ci", "paper"),
                        help="experiment scale (default: ci)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="processes for independent rows/panels, or "
                             "for sharding single-unit characterization "
                             "(0 = all cores; default: 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk artifact cache shared across runs, "
                             "workers and backends (default: memory-only)")
    parser.add_argument("--backend", default=None, metavar="ID",
                        help="hardware backend to characterize against "
                             f"(default: {DEFAULT_BACKEND_ID}; see "
                             "--list-backends); for the 'backends' "
                             "experiment, compare the default against "
                             "this one instead of all registered")
    parser.add_argument("--seed", action="append", type=int,
                        default=None, metavar="N",
                        help="pipeline seed; repeatable — several "
                             "seeds report every row as mean±std over "
                             "the seed axis (table1/fig8/fig9/backends "
                             "only; default: 0)")
    parser.add_argument("--list-backends", action="store_true",
                        help="list registered hardware backends and exit")
    args = parser.parse_args(argv)

    if args.list_backends:
        print(describe_backends())
        return 0
    if args.experiment is None:
        parser.error("an experiment is required "
                     "(or use --list-backends)")
    if args.experiment in ("accel", "sweep", "serve"):
        parser.error(f"'{args.experiment}' must come first: "
                     f"python -m repro {args.experiment} [flags]")
    if args.backend is not None:
        try:
            get_backend(args.backend)
        except ValueError as error:
            parser.error(str(error))

    if args.seed is not None \
            and args.experiment not in SEEDED_EXPERIMENTS:
        parser.error(f"--seed is not supported by "
                     f"{args.experiment!r} (only "
                     f"{', '.join(sorted(SEEDED_EXPERIMENTS))})")

    if args.experiment == "backends":
        backend = args.backend  # None = compare all registered
    else:
        backend = args.backend or DEFAULT_BACKEND_ID
    kwargs = {}
    if args.seed is not None:
        kwargs["seeds"] = tuple(args.seed)
    EXPERIMENTS[args.experiment](scale=args.scale, jobs=args.jobs,
                                 cache_dir=args.cache_dir,
                                 backend=backend, **kwargs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
