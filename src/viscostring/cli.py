"""Command line entry point.

    viscostring <simulate|steer|pair|diagnose|verify> --config FILE
                [--out DIR] [--threads K]

The task on the command line must match the task in the config file;
`--out` overrides the config's output directory.  `--threads` (like the
config's `[run] threads`) is accepted and validated for compatibility but
has no effect: the package runs no thread pool of its own.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .harness import EXIT_CONFIG, TASKS, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscostring",
        description="Boundary-control experiments for a viscoelastic string "
                    "with memory",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a {task} experiment")
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.task != args.task:
        print(f"config error: config file requests task {cfg.task!r} but the "
              f"command line says {args.task!r}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, out_dir=args.out, threads=args.threads)


if __name__ == "__main__":
    code = main()
    gc.freeze()  # the exit's final collection would only walk objects about to be freed
    sys.exit(code)
