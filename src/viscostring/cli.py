"""Command line entry point.

    viscostring <simulate|steer|pair|diagnose|verify> --config FILE [--out DIR] [--threads K]

The task on the command line must match the task in the config file;
`--out` overrides the config's output directory.  `--threads` (like the
config's `[run] threads`) is accepted and validated for compatibility but
has no effect: the package runs no thread pool of its own.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import EXIT_CONFIG, TASKS, load_config, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="viscostring", description="Boundary-control "
                                     "experiments for a viscoelastic string with memory")
    parser.add_argument("task", choices=TASKS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; has no effect")
    args = parser.parse_args(argv)
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


def entry() -> None:
    """Console script and `-m` entry: `main`, then an exit that skips teardown."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)  # every file of the run is closed: only interpreter teardown is skipped


if __name__ == "__main__":
    entry()
