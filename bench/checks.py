"""Output checks for one CLI run of each task.

Every check returns a list of problems; an empty list means the run
passed.  The thresholds are the acceptance criteria of the package:

* steer: round-trip relative error <= 1e-2 with lambda_min > 0;
* pair: round-trip relative error <= 1e-2;
* verify: every verdict is "bounded";
* diagnose: frame bounds finite, lambda_min <= lambda_max at each size,
  and the extremes widen with the truncation size (Cauchy interlacing);
* simulate: modes 1 and N in trajectories.csv agree with the RK4
  auxiliary-state oracle within ORACLE_FACTOR times the scheme's phase
  error estimate T n^3 h^2 / 12;
* a run that must exit 4 (near-singular Gram) leaves no manifest.json.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ROUNDTRIP_LIMIT = 1e-2
ORACLE_FACTOR = 1.0
INTERLACING_SLACK = 1e-9

EXPECTED_FILES = {
    "simulate": ("manifest.json", "coefficients.csv", "fields.csv",
                 "control.csv", "trajectories.csv"),
    "steer": ("manifest.json", "synthesis.json", "control.csv",
              "coefficients.csv", "fields.csv"),
    "pair": ("manifest.json", "synthesis.json", "control.csv", "coefficients.csv"),
    "diagnose": ("manifest.json", "frame_bounds.csv", "closeness.csv"),
    "verify": ("manifest.json", "reports.json", "mode_asymptotics.csv",
               "mode_derivative_asymptotics.csv", "convolution_asymptotics.csv",
               "resolvent_residuals.csv", "stress_deformation_gap.csv"),
}


def _synthesis_problems(out: Path, need_positive_lambda: bool) -> list[str]:
    doc = json.loads((out / "synthesis.json").read_text())
    problems = []
    err = doc["roundtrip_relative_error"]
    if not (math.isfinite(err) and err <= ROUNDTRIP_LIMIT):
        problems.append(f"round-trip error {err!r} exceeds {ROUNDTRIP_LIMIT}")
    if need_positive_lambda and not doc["lambda_min"] > 0.0:
        problems.append(f"lambda_min {doc['lambda_min']!r} is not positive")
    return problems


def _verify_problems(out: Path) -> list[str]:
    verdicts = json.loads((out / "reports.json").read_text())["verdicts"]
    return [f"verdict {name} is {value!r}" for name, value in sorted(verdicts.items())
            if value != "bounded"]


def _diagnose_problems(out: Path) -> list[str]:
    with (out / "frame_bounds.csv").open() as fh:
        rows = [(int(r["n_max"]), float(r["lambda_min"]), float(r["lambda_max"]))
                for r in csv.DictReader(fh)]
    if not rows:
        return ["frame_bounds.csv has no rows"]
    problems = []
    for size, lo, hi in rows:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            problems.append(f"size {size}: bounds {lo!r}, {hi!r} not finite and ordered")
    for (s0, lo0, hi0), (s1, lo1, hi1) in zip(rows, rows[1:]):
        if s1 <= s0 or lo1 > lo0 + INTERLACING_SLACK or hi1 < hi0 - INTERLACING_SLACK:
            problems.append(f"sizes {s0}->{s1}: bounds do not widen")
    return problems


def oracle_limit(n: int, horizon: float, steps: int) -> float:
    """ORACLE_FACTOR times the phase error estimate T n^3 h^2 / 12."""
    h = horizon / steps
    return ORACLE_FACTOR * horizon * n ** 3 * h * h / 12.0


def _simulate_problems(out: Path, spec) -> list[str]:
    from viscostring import MemoryKernel, TimeGrid, oracle_exponential_mode

    data = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=1)
    if not np.all(np.isfinite(data)):
        return ["trajectories.csv holds non-finite values"]
    kernel = MemoryKernel.exponential_sum(spec.pairs)
    grid = TimeGrid(spec.horizon, spec.steps)
    problems = []
    for n in sorted({1, spec.n_max}):
        rows = data[data[:, 0] == n]
        if rows.shape[0] != spec.steps + 1:
            problems.append(f"mode {n}: {rows.shape[0]} rows, expected {spec.steps + 1}")
            continue
        oracle = oracle_exponential_mode(n, kernel, grid).samples
        err = float(np.max(np.abs(rows[:, 2] - oracle)))
        limit = oracle_limit(n, spec.horizon, spec.steps)
        if not err <= limit:
            problems.append(f"mode {n}: oracle deviation {err:.3e} exceeds {limit:.3e}")
    return problems


def check_run(spec, out: Path, exit_code: int) -> list[str]:
    """Problems with one run's exit code and outputs (empty when it passed)."""
    out = Path(out)
    if exit_code != spec.expect_exit:
        return [f"exit code {exit_code}, expected {spec.expect_exit}"]
    if spec.expect_exit != 0:
        if (out / "manifest.json").exists():
            return ["a failed run left a manifest.json"]
        return []
    missing = [name for name in EXPECTED_FILES[spec.task] if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    try:
        if spec.task == "steer":
            return _synthesis_problems(out, need_positive_lambda=True)
        if spec.task == "pair":
            return _synthesis_problems(out, need_positive_lambda=False)
        if spec.task == "verify":
            return _verify_problems(out)
        if spec.task == "diagnose":
            return _diagnose_problems(out)
        return _simulate_problems(out, spec)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]


def compare_outputs(first: Path, second: Path) -> list[str]:
    """Byte comparison of two output directories, timing.json excepted."""
    names = {p.name for p in Path(first).iterdir()} | {p.name for p in Path(second).iterdir()}
    names.discard("timing.json")
    problems = []
    for name in sorted(names):
        a, b = Path(first) / name, Path(second) / name
        if not (a.is_file() and b.is_file()):
            problems.append(f"{name} is present in only one of the reruns")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{name} differs between reruns")
    return problems
