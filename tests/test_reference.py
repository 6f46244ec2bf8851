"""Reference-output gate: every example config reproduces its checked-in outputs.

`tests/reference/<task>/` holds what `configs/<task>.ini` wrote, all but
`timing.json`, with `control.csv` and `trajectories.csv` kept at every
64th grid node; `exit_codes.json` holds each run's exit code.
`tests/reference_scale/<task>/` holds the same for the scale runs
(`SCALE_RUNS`): the example config at K = 16384 with its own `n_max`,
where the truncations, transform lengths and row blocks of the larger
sizes are reached.  The tests rerun each config and compare it file by
file:
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

    PYTHONPATH=src python tests/test_reference.py examples   # or: scale
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
SCALE_REFERENCE = ROOT / "tests" / "reference_scale"
SCALE_STEPS = 16384
SCALE_RUNS = {"steer": 32, "diagnose": 64, "verify": 64}  # task: n_max
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
# lambda_min = 1.6e-15 (moved 6.6e-10); and verify's round-trip error at
# the scale sizes, 2.8e-8 against coefficients of order one, so a move in
# their last digits moves it by about 1e-7 of itself (16-step leaves in the
# FFT-history solver moved it 1.6e-8, the state history 1.3e-7).
ILL_CONDITIONED = 1e-6
PAIR_COLUMNS = {"physical", "reweighted", "deformation_achieved", "stress_achieved"}
SCALE_ILL_CONDITIONED = {("scale verify", "relative_error")}
# Round-off-scale values (up to 1.04x their largest reference value).
ROUNDOFF_CEILING = 10.0
ROUNDOFF_COLUMNS = {"residuals", "max_relative_residual"}


def _float_bound(task, column):
    """("ceiling" or "drift", bound) for a float column of `task`.

    `task` names a scale run as "scale <task>".
    """
    if (task, column) in SCALE_ILL_CONDITIONED:
        return "drift", ILL_CONDITIONED
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


def _config_text(task, n_max=None):
    """The example config of `task`, at the scale sizes when `n_max` is given."""
    text = (ROOT / "configs" / f"{task}.ini").read_text()
    if n_max is None:
        return text
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        if key == "steps":
            line = f"steps = {SCALE_STEPS}"
        elif key == "n_max":
            line = f"n_max = {n_max}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _steps(text):
    return next(int(line.split("=")[1]) for line in text.splitlines()
                if line.replace(" ", "").startswith("steps="))


def _run(task, base, text):
    """Run `task` on the config `text`, written into `base`; outputs go to base/out."""
    config = Path(base) / "config.ini"
    config.write_text(text)
    return cli_main([task, "--config", str(config), "--out", str(Path(base) / "out")])


def _compare_outputs(task, ref_dir, out, steps):
    written = sorted(p.name for p in out.iterdir() if p.name != "timing.json")
    assert written == sorted(p.name for p in ref_dir.iterdir())
    for name in written:
        where = f"{task}/{name}"
        if name.endswith(".json"):
            ref = json.loads((ref_dir / name).read_text())
            _compare_json(task, where, ref, json.loads((out / name).read_text()))
            continue
        ref, new = _read_csv(ref_dir / name), _read_csv(out / name)
        if name in DECIMATED:
            new = _decimated(new, steps)
        assert new[0] == ref[0], f"{where}: header {new[0]} != {ref[0]}"
        assert len(new) == len(ref), f"{where}: {len(new)} rows, expected {len(ref)}"
        for j, column in enumerate(ref[0]):
            _compare_column(task, f"{where}:{column}", column,
                            [row[j] for row in ref[1:]], [row[j] for row in new[1:]])


@pytest.mark.parametrize("task", TASKS)
def test_example_config_reproduces_reference_outputs(task, tmp_path):
    expected = json.loads((REFERENCE / "exit_codes.json").read_text())
    text = _config_text(task)
    assert _run(task, tmp_path, text) == expected[task]
    _compare_outputs(task, REFERENCE / task, tmp_path / "out", _steps(text))


@pytest.mark.parametrize("task", list(SCALE_RUNS))
def test_scale_run_reproduces_reference_outputs(task, tmp_path):
    expected = json.loads((SCALE_REFERENCE / "exit_codes.json").read_text())
    text = _config_text(task, SCALE_RUNS[task])
    assert _run(task, tmp_path, text) == expected[task]
    _compare_outputs(f"scale {task}", SCALE_REFERENCE / task, tmp_path / "out",
                     SCALE_STEPS)


def _write(reference, runs):
    """Rewrite `reference` from the runs {task: config text}."""
    codes = {}
    for task, text in runs.items():
        with tempfile.TemporaryDirectory() as tmp:
            codes[task] = _run(task, tmp, text)
            target = reference / task
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for path in (Path(tmp) / "out").iterdir():
                if path.name in DECIMATED:
                    with (target / path.name).open("w", newline="") as fh:
                        csv.writer(fh, lineterminator="\r\n").writerows(
                            _decimated(_read_csv(path), _steps(text)))
                elif path.name != "timing.json":
                    shutil.copyfile(path, target / path.name)
    (reference / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


def _write_reference(which):
    """Rewrite the example references ("examples") or the scale ones ("scale")."""
    if which == "examples":
        _write(REFERENCE, {task: _config_text(task) for task in TASKS})
    elif which == "scale":
        _write(SCALE_REFERENCE, {task: _config_text(task, n_max)
                                 for task, n_max in SCALE_RUNS.items()})
    else:
        raise SystemExit(f"usage: {sys.argv[0]} examples|scale")


if __name__ == "__main__":
    _write_reference(sys.argv[1] if len(sys.argv) > 1 else "")
