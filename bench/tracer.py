"""Run one CLI task in process with a span around every package layer.

    python3 bench/tracer.py --launch-ns N --run-id R --spans FILE \
        -- <task> --config FILE --out DIR

The tracer imports the package, replaces each traced function by a
wrapper in every `viscostring.*` module namespace that holds it (so each
`from .volterra import solve_mode` import site is covered), checks that
no reference to an original remains, and then calls `cli.main` with the
task arguments.  Spans are kept in memory and written to FILE once, when
the run ends.  The process exits with the CLI's exit code.

`--launch-ns` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process; it lets the tracer report the time from
launch to `cli.main`, less the time spent installing the wrappers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time

# Traced functions per module; `_march` is the mode march inside volterra.
LAYERS = {
    "kernels": ("derive_kernels",),
    "volterra": ("_march", "convolve", "solve_volterra_second_kind", "solve_mode",
                 "solve_moment_kernel", "assemble_moment_kernel"),
    "moments": ("build_family", "gram", "synthesize_control", "finite_pair_control",
                "frame_bounds", "quadratic_closeness"),
    "spectral": ("simulate_coefficients", "reconstruct_field"),
    "verify": ("check_mode_asymptotics", "check_mode_derivative_asymptotics",
               "check_convolution_asymptotics", "check_resolvent_identity",
               "check_stress_deformation_gap", "closed_loop_roundtrip"),
    "harness": ("run", "write_csv", "write_manifest"),
    "cli": ("main",),
}

SPAN_NAMES = {("volterra", "_march"): "volterra.march"}


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Recorder:
    """In-memory span store for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": _now(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "run": self.run_id, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = _now()
        self._stack.pop()


def _march_attrs(args, kwargs) -> dict:
    """Computed history products of one march: K(K-1)/2, x4 when complex."""
    grid = args[0] if args else kwargs["grid"]
    dtype = args[5] if len(args) > 5 else kwargs["dtype"]
    steps = grid.steps
    weight = 4 if dtype is complex else 1
    return {"madds": weight * steps * (steps - 1) // 2}


def _mode_key(args, kwargs) -> dict:
    """Identity of a solved mode: (kernel, grid, n)."""
    n, kernels = args[0], args[1]
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return {"key": repr((kernels.kernel, grid, n))}


def _csv_bytes(args, kwargs) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


ATTRS_BEFORE = {"volterra.march": _march_attrs,
                "volterra.solve_mode": _mode_key,
                "volterra.solve_moment_kernel": _mode_key}
ATTRS_AFTER = {"harness.write_csv": _csv_bytes}


def _wrap(fn, name: str, recorder: Recorder):
    before = ATTRS_BEFORE.get(name)
    after = ATTRS_AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        if before is not None:
            span["attrs"].update(before(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)
            if after is not None:
                span["attrs"].update(after(args, kwargs))
    return wrapper


def _cell_values(fn) -> list:
    values = []
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:  # empty cell
            pass
    return values


def install(recorder: Recorder) -> int:
    """Wrap every traced function at every import site; returns sites patched."""
    namespaces = [mod for name, mod in sorted(sys.modules.items())
                  if name == "viscostring" or name.startswith("viscostring.")]
    originals = {}
    for short, names in LAYERS.items():
        module = sys.modules[f"viscostring.{short}"]
        for fname in names:
            fn = getattr(module, fname)
            span_name = SPAN_NAMES.get((short, fname), f"{short}.{fname}")
            originals[id(fn)] = (fn, _wrap(fn, span_name, recorder))
    patched = 0
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched += 1
    wrappers = {id(w) for _, w in originals.values()}
    left = []
    for mod in namespaces:
        for attr, value in vars(mod).items():
            if id(value) in wrappers:
                continue
            held = [value, *(getattr(value, "__defaults__", None) or ()),
                    *_cell_values(value)]
            if any(id(v) in originals and originals[id(v)][0] is v for v in held):
                left.append(f"{mod.__name__}.{attr}")
    if left:
        raise RuntimeError(f"unwrapped references remain: {', '.join(left)}")
    return patched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    for short in LAYERS:
        importlib.import_module(f"viscostring.{short}")
    from viscostring import cli

    recorder = Recorder(args.run_id)
    t0 = _now()
    patched = install(recorder)
    install_ns = _now() - t0

    main_start = _now()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        doc = {"run": args.run_id, "launch_ns": args.launch_ns,
               "main_start_ns": main_start, "install_ns": install_ns,
               "sites_patched": patched, "spans": recorder.spans}
        with open(args.spans, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
