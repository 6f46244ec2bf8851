"""Tests of the benchmark itself: inputs, span arithmetic, checks, tracing.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from viscostring import cli  # noqa: E402
from viscostring.harness import load_config  # noqa: E402
from viscostring.volterra import RESOLUTION_LIMIT  # noqa: E402

SEEDS = (0, 1, 7, 12345)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(workload):
    first = workloads.cycle(workload, 3)
    again = workloads.cycle(workload, 3)
    other = workloads.cycle(workload, 4)
    assert first == again
    assert [s.config for s in first] != [s.config for s in other]
    # the seed never changes what a cycle costs: same slots, tasks and sizes
    assert ([(s.slot, s.task, s.steps, s.n_max, s.expect_exit) for s in first]
            == [(s.slot, s.task, s.steps, s.n_max, s.expect_exit) for s in other])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_configs_load_and_resolve(workload, seed, tmp_path):
    for spec in workloads.cycle(workload, seed):
        path = tmp_path / f"{spec.slot}.ini"
        path.write_text(spec.config)
        cfg = load_config(path)
        assert cfg.task == spec.task
        assert cfg.grid.steps == spec.steps and cfg.grid.horizon == spec.horizon
        modes = cfg.n_pair if spec.task == "pair" else cfg.n_max
        assert modes == spec.n_max
        assert cfg.grid.step * modes <= RESOLUTION_LIMIT
        assert cfg.threads == 1


def _span(i, name, start, end, parent, run_id="r"):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "run": run_id, "attrs": {}}


def test_self_time_of_nested_spans():
    trace = [
        _span(0, "cli.main", 0, 100, None),
        _span(1, "a", 10, 40, 0),
        _span(2, "leaf", 20, 30, 1),
        _span(3, "b", 50, 70, 0),
        _span(4, "leaf", 55, 60, 3),
        _span(0, "cli.main", 0, 10, None, run_id="other"),
    ]
    selfs = spans.self_times(trace)
    ns = 1e-9
    assert selfs[("r", 0)] == pytest.approx(50 * ns)
    assert selfs[("r", 1)] == pytest.approx(20 * ns)
    assert selfs[("r", 2)] == pytest.approx(10 * ns)
    assert selfs[("r", 3)] == pytest.approx(15 * ns)
    assert selfs[("other", 0)] == pytest.approx(10 * ns)
    table = spans.aggregate(trace)
    assert table["leaf"]["calls"] == 2
    assert table["leaf"]["self_s"] == pytest.approx(15 * ns)
    assert table["cli.main"]["self_s"] == pytest.approx(60 * ns)
    # self times of one run add up to its root span's duration
    assert sum(v for (r, _), v in selfs.items() if r == "r") == pytest.approx(100 * ns)


def test_self_time_counts_overlapping_children_once():
    trace = [_span(0, "p", 0, 100, None), _span(1, "c", 10, 60, 0),
             _span(2, "c", 40, 120, 0)]
    assert spans.self_times(trace)[("r", 0)] == pytest.approx(10e-9)


def test_unique_counts_are_per_run():
    trace = []
    for run_id in ("r1", "r2"):
        for i, key in enumerate(("n1", "n2", "n1", "n1")):
            s = _span(i, "volterra.solve_mode", i, i + 1, None, run_id)
            s["attrs"]["key"] = key
            trace.append(s)
    assert spans.unique_counts(trace, "volterra.solve_mode") == (4, 8)


def test_tail_percentile_rule():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    values = [float(v) for v in range(1, 26)]          # 25 samples
    value, pct, n = run.tail(values)
    assert (value, n) == (15.0, 25) and pct == pytest.approx(60.0)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    slot_runs = [{"slot": "a", "wall_s": w} for w in (1.0, 1.2)] + \
                [{"slot": "b", "wall_s": w} for w in (5.0, 4.0)]
    assert run.slot_tail(slot_runs) == (5.0, 100.0, 2, "b")


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _small_simulate_spec():
    pairs = ((0.4, 1.0),)
    config = workloads._ini("simulate", pairs, 2.0, 512, 5, {"n_max": "8"},
                            {"control": {"kind": "random"}})
    return workloads.RunSpec(slot="simulate-small", task="simulate", config=config,
                             expect_exit=0, pairs=pairs, horizon=2.0, steps=512,
                             n_max=8)


def _run_in_process(spec, tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(spec.config)
    out = tmp_path / "out"
    return cli.main([spec.task, "--config", str(cfg), "--out", str(out)]), out


def test_simulate_check_catches_a_corrupted_trajectory(tmp_path):
    spec = _small_simulate_spec()
    code, out = _run_in_process(spec, tmp_path)
    assert checks.check_run(spec, out, code) == []

    path = out / "trajectories.csv"
    lines = path.read_text().splitlines()
    n, t, re, im = lines[-1].split(",")                  # last node of mode 8
    lines[-1] = ",".join([n, t, repr(float(re) + 0.05), im])
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_run(spec, out, code)
    assert len(problems) == 1 and "mode 8" in problems[0]


def test_checks_catch_wrong_exit_and_bad_synthesis(tmp_path):
    spec = _small_simulate_spec()
    assert checks.check_run(spec, tmp_path, 2) == ["exit code 2, expected 0"]

    steer = workloads.cycle("synthesis", 0)[0]
    for name in checks.EXPECTED_FILES["steer"]:
        (tmp_path / name).write_text("")
    doc = {"roundtrip_relative_error": 0.5, "lambda_min": 0.1}
    (tmp_path / "synthesis.json").write_text(json.dumps(doc))
    assert checks.check_run(steer, tmp_path, 0) == [
        "round-trip error 0.5 exceeds 0.01"]

    gated = workloads.cycle("synthesis", 0)[2]
    assert gated.expect_exit == workloads.EXIT_NEAR_SINGULAR
    assert checks.check_run(gated, tmp_path, 4) == ["a failed run left a manifest.json"]
    (tmp_path / "manifest.json").unlink()
    assert checks.check_run(gated, tmp_path, 4) == []


def test_rerun_comparison_catches_a_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    (a / "manifest.json").write_text("{}\n")
    (a / "timing.json").write_text("1\n")
    shutil.copytree(a, b)
    (b / "timing.json").write_text("2\n")
    assert checks.compare_outputs(a, b) == []
    (b / "manifest.json").write_text("{ }\n")
    assert checks.compare_outputs(a, b) == ["manifest.json differs between reruns"]


def test_traced_verify_counts_every_solve_and_keeps_outputs(tmp_path):
    n_max = 4
    config = workloads._ini("verify", ((0.4, 1.0),), 2.0 * 3.141592653589793, 256, 3,
                            {"n_max": str(n_max)}, {"control": {"kind": "bump"}})
    cfg = tmp_path / "v.ini"
    cfg.write_text(config)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "viscostring.cli", "verify",
                            "--config", str(cfg), "--out", str(tmp_path / "plain")],
                           env=env, capture_output=True, timeout=120)
    traced = subprocess.run([sys.executable, str(BENCH / "tracer.py"),
                             "--launch-ns", "0", "--run-id", "t",
                             "--spans", str(tmp_path / "spans.json"), "--",
                             "verify", "--config", str(cfg),
                             "--out", str(tmp_path / "traced")],
                            env=env, capture_output=True, timeout=120)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert checks.compare_outputs(tmp_path / "plain", tmp_path / "traced") == []

    doc = json.loads((tmp_path / "spans.json").read_text())
    # three asymptotic checks, the resolvent modes {1, 2, 4}, the simulation
    # and the round trip each solve their own modes
    calls = 3 * n_max + 3 + n_max + min(n_max, 8)
    assert spans.unique_counts(doc["spans"], "volterra.solve_mode") == (n_max, calls)
    roots = [s for s in doc["spans"] if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    marches = [s for s in doc["spans"] if s["name"] == "volterra.march"]
    assert {s["attrs"]["madds"] for s in marches} >= {256 * 255 // 2, 4 * 256 * 255 // 2}
