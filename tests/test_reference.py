"""Reference-output gate: every example config reproduces its checked-in outputs.

`tests/reference/<task>/` holds what `configs/<task>.ini` wrote, all but
`timing.json`, with `control.csv` and `trajectories.csv` kept at every
64th grid node; `exit_codes.json` holds each run's exit code.  The test
reruns each config and compares it file by file:
- exit codes, file names, CSV headers, manifest keys, strings, booleans
  and integers must be equal;
- a float column may drift from the reference by its class's bound,
  relative to the column's largest reference magnitude.  A CSV column is
  a column, and so is one manifest entry: a number, a list of numbers or
  a map of floats;
- a round-off-scale column only has to stay under a ceiling of
  `ROUNDOFF_CEILING` times its largest reference magnitude, as its value
  is round-off and moves by O(1) of itself.

The files change only with a change that is meant to move outputs and
says why.  To rewrite them from the current code:

    PYTHONPATH=src python tests/test_reference.py
"""

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from viscostring.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference"
TASKS = ("simulate", "steer", "pair", "diagnose", "verify")
# long files are kept at every DECIMATION-th node of each grid run
DECIMATED = {"control.csv", "trajectories.csv"}
DECIMATION = 64

# Bounds on float drift relative to the column's largest magnitude, with
# the drift the Toeplitz march caused against the step-by-step march.
# General columns: up to 7.6e-13; the pair task's lambda_min, condition and
# control norm, which carry that problem's conditioning, 4.7e-11.
GENERAL = 1e-10
# Differences of nearly equal quantities: the resolvent identity residuals
# (moved 3.5e-11) and the round-trip errors of verify and steer (4.5e-10).
DIFFERENCES = 1e-8
DIFFERENCE_COLUMNS = {"resolvent_residuals", "max_residual", "relative_error",
                      "roundtrip_relative_error"}
# The pair task's control and achieved coefficients, whose Gram has
# lambda_min = 1.6e-15 (moved 6.6e-10).
ILL_CONDITIONED = 1e-6
PAIR_COLUMNS = {"physical", "reweighted", "deformation_achieved", "stress_achieved"}
# Round-off-scale values (up to 1.04x their largest reference value).
ROUNDOFF_CEILING = 10.0
ROUNDOFF_COLUMNS = {"residuals", "max_relative_residual", "imag_fraction"}


def _float_bound(task, column):
    """("ceiling" or "drift", bound) for a float column of `task`."""
    if column in ROUNDOFF_COLUMNS or (task, column) == ("pair", "roundtrip_relative_error"):
        return "ceiling", ROUNDOFF_CEILING
    if column in DIFFERENCE_COLUMNS:
        return "drift", DIFFERENCES
    if task == "pair" and column in PAIR_COLUMNS:
        return "drift", ILL_CONDITIONED
    return "drift", GENERAL


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare_column(task, where, column, ref, new):
    """Compare one column of numbers (or of CSV cells, as strings)."""
    assert len(new) == len(ref), f"{where}: {len(new)} values, expected {len(ref)}"
    if all(isinstance(v, str) for v in ref):
        try:
            ref_f, new_f = [float(v) for v in ref], [float(v) for v in new]
        except ValueError:  # verdicts, flags
            assert new == ref, f"{where}: {new} != {ref}"
            return
        exact = all(v.lstrip("-").isdigit() for v in ref)
    else:
        ref_f, new_f = ref, new
        exact = not any(isinstance(v, float) for v in ref)
    if exact:  # integers (and inputs copied through, such as targets)
        assert new == ref, f"{where}: {new} != {ref}"
        return
    scale = max(abs(v) for v in ref_f)
    kind, bound = _float_bound(task, column)
    if kind == "ceiling":
        top = max(abs(v) for v in new_f)
        assert top <= bound * scale, f"{where}: {top:.3g} above {bound} x {scale:.3g}"
    else:
        drift = max(abs(a - b) for a, b in zip(new_f, ref_f))
        assert drift <= bound * scale, \
            f"{where}: drift {drift:.3g} above {bound:g} of {scale:.3g}"


def _leaves(value):
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _compare_json(task, where, ref, new):
    if isinstance(ref, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(ref), \
            f"{where}: keys {sorted(new)} != {sorted(ref)}"
        if ref and all(isinstance(v, float) for v in ref.values()):  # a map of floats
            _compare_column(task, where, where.rsplit(".", 1)[-1],
                            list(ref.values()), [new[k] for k in ref])
            return
        for key in ref:
            _compare_json(task, f"{where}.{key}", ref[key], new[key])
        return
    leaves = _leaves(ref)
    if all(_is_number(v) for v in leaves):  # a number or a list of numbers
        new_leaves = _leaves(new)
        assert all(_is_number(v) for v in new_leaves), f"{where}: {new} is not numeric"
        _compare_column(task, where, where.rsplit(".", 1)[-1], leaves, new_leaves)
    else:
        assert new == ref, f"{where}: {new!r} != {ref!r}"


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _decimated(rows, steps):
    """Header and the data rows at every DECIMATION-th node of each run of K+1."""
    return rows[:1] + [row for i, row in enumerate(rows[1:])
                       if i % (steps + 1) % DECIMATION == 0]


def _steps(config):
    return next(int(line.split("=")[1]) for line in config.read_text().splitlines()
                if line.replace(" ", "").startswith("steps="))


def _run(task, out):
    config = ROOT / "configs" / f"{task}.ini"
    return cli_main([task, "--config", str(config), "--out", str(out)])


@pytest.mark.parametrize("task", TASKS)
def test_example_config_reproduces_reference_outputs(task, tmp_path):
    expected = json.loads((REFERENCE / "exit_codes.json").read_text())
    assert _run(task, tmp_path) == expected[task]
    ref_dir = REFERENCE / task
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "timing.json")
    assert written == sorted(p.name for p in ref_dir.iterdir())
    steps = _steps(ROOT / "configs" / f"{task}.ini")
    for name in written:
        where = f"{task}/{name}"
        if name.endswith(".json"):
            ref = json.loads((ref_dir / name).read_text())
            _compare_json(task, where, ref, json.loads((tmp_path / name).read_text()))
            continue
        ref, new = _read_csv(ref_dir / name), _read_csv(tmp_path / name)
        if name in DECIMATED:
            new = _decimated(new, steps)
        assert new[0] == ref[0], f"{where}: header {new[0]} != {ref[0]}"
        assert len(new) == len(ref), f"{where}: {len(new)} rows, expected {len(ref)}"
        for j, column in enumerate(ref[0]):
            _compare_column(task, f"{where}:{column}", column,
                            [row[j] for row in ref[1:]], [row[j] for row in new[1:]])


def _write_reference():
    codes = {}
    for task in TASKS:
        with tempfile.TemporaryDirectory() as tmp:
            codes[task] = _run(task, tmp)
            target = REFERENCE / task
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            steps = _steps(ROOT / "configs" / f"{task}.ini")
            for path in Path(tmp).iterdir():
                if path.name in DECIMATED:
                    with (target / path.name).open("w", newline="") as fh:
                        csv.writer(fh, lineterminator="\r\n").writerows(
                            _decimated(_read_csv(path), steps))
                elif path.name != "timing.json":
                    shutil.copyfile(path, target / path.name)
    (REFERENCE / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(_write_reference())
