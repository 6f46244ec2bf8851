import csv
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viscostring
from viscostring import harness, volterra
from viscostring.cli import main as cli_main
from viscostring.harness import (
    EXIT_CONFIG,
    EXIT_ELASTIC_DEGENERACY,
    EXIT_EXCEPTIONAL_INDEX,
    EXIT_FAILURE,
    EXIT_NEAR_SINGULAR,
    EXIT_OK,
    TASKS,
    load_config,
    make_control,
    random_unit_target,
    run,
    splitmix64_stream,
    uniform_stream,
    write_csv,
)

from conftest import TWO_PI

STEER_TEMPLATE = """
[kernel]
family = {family}
coefficients = {coefficients}

[grid]
horizon = {horizon}
steps = {steps}

[modes]
n_max = {n_max}

[task]
kind = steer

[targets]
{targets}

[run]
seed = {seed}
out = {out}
threads = {threads}
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def steer_config(tmp_path, *, family="exponential_sum", coefficients="0.4 1.0",
                 horizon=TWO_PI, steps=4096, n_max=8,
                 targets="random = unit", seed=11, out="out", threads=1,
                 name="exp.ini"):
    return write_config(
        tmp_path,
        STEER_TEMPLATE.format(family=family, coefficients=coefficients,
                              horizon=horizon, steps=steps, n_max=n_max,
                              targets=targets, seed=seed, out=out,
                              threads=threads),
        name=name)


class TestSplitmix:
    def test_known_first_outputs_for_seed_zero(self):
        stream = splitmix64_stream(0)
        assert next(stream) == 0xE220A8397B1DCDAF
        assert next(stream) == 0x6E789E6AA1B965F4
        assert next(stream) == 0x06C45D188009454F

    def test_uniform_range_and_determinism(self):
        a = uniform_stream(123)
        b = uniform_stream(123)
        for _ in range(100):
            x, y = next(a), next(b)
            assert x == y
            assert 0.0 <= x < 1.0

    def test_unit_target_is_normalised(self):
        target = random_unit_target(5, 8)
        norm = math.sqrt(float(np.sum(target.xi ** 2) + np.sum(target.eta ** 2)))
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_indexed_targets_differ(self):
        a = random_unit_target(5, 8, index=0)
        b = random_unit_target(5, 8, index=1)
        assert not np.array_equal(a.xi, b.xi)


class TestConfig:
    def test_load_and_fields(self, tmp_path):
        cfg = load_config(steer_config(tmp_path))
        assert cfg.task == "steer"
        assert cfg.n_max == 8
        assert cfg.random_targets
        assert cfg.kernel.alpha == -0.2
        assert cfg.grid.steps == 4096

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/exp.ini")

    def test_unknown_family(self, tmp_path):
        path = steer_config(tmp_path, family="tabulated")
        with pytest.raises(ValueError):
            load_config(path)

    def test_unknown_task_rejected(self, tmp_path):
        path = write_config(tmp_path, """
[kernel]
family = zero
[grid]
horizon = 1.0
steps = 64
[task]
kind = transmogrify
""")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("section,line,name", [
        ("modes", "n_mx = 2", "n_mx"),
        ("run", "sead = 3", "sead"),
        ("grid", "step = 0.1", "step"),
    ])
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys, section,
                                           line, name):
        text = steer_config(tmp_path).read_text().replace(
            f"[{section}]\n", f"[{section}]\n{line}\n")
        path = write_config(tmp_path, text, name="typo.ini")
        with pytest.raises(ValueError, match=name):
            load_config(path)
        assert cli_main(["steer", "--config", str(path)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err

    def test_unknown_section_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, steer_config(tmp_path).read_text()
                            + "\n[mode]\nn_max = 2\n", name="typo.ini")
        with pytest.raises(ValueError, match=r"\[mode\]"):
            load_config(path)
        assert cli_main(["steer", "--config", str(path)]) == EXIT_CONFIG
        assert "[mode]" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "kind = steer\n",                               # no section header
        "[task]\nkind = steer\nkind = steer\n",         # duplicate option
        "[kernel]\nfamily = zero\n[grid]\nhorizon = 1.0\nsteps = 64\n"
        "[task]\nkind = steer\n[run]\nout = 100%\n",   # bad interpolation
    ], ids=["missing_section_header", "duplicate_option", "interpolation"])
    def test_malformed_ini_is_a_config_error(self, tmp_path, capsys, text):
        path = write_config(tmp_path, text, name="bad.ini")
        assert cli_main(["steer", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config file")
        assert "Traceback" not in err

    def test_seed_must_fit_64_bits(self, tmp_path, capsys):
        too_big = steer_config(tmp_path, seed=2 ** 64, name="big.ini")
        with pytest.raises(ValueError, match=str(2 ** 64)):
            load_config(too_big)
        assert cli_main(["steer", "--config", str(too_big)]) == EXIT_CONFIG
        assert str(2 ** 64) in capsys.readouterr().err
        assert load_config(steer_config(tmp_path, seed=2 ** 64 - 1)).seed == 2 ** 64 - 1

    @pytest.mark.parametrize("key,value", [("n_max", "0"), ("n_max", "-2"),
                                           ("n_pair", "0")])
    @pytest.mark.parametrize("task", TASKS)
    def test_mode_count_below_one_is_a_config_error(self, tmp_path, capsys,
                                                    task, key, value):
        path = task_config(tmp_path, task)
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}",
                               path.read_text(), flags=re.M))
        out = tmp_path / "o"
        assert cli_main([task, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"[modes] {key} must be at least 1, got {value}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_example_configs_parse(self):
        configs = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))
        assert configs
        for path in configs:
            cfg = load_config(path)
            assert cfg.task == path.stem

    def test_threads_resolution_env_fallback(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, """
[kernel]
family = zero
[grid]
horizon = 1.0
steps = 64
[task]
kind = simulate
""")
        cfg = load_config(path)
        cfg.n_max = 4
        # the environment is not a thread-count source: VISCOSTRING_THREADS
        # is ignored, even when it is not an integer
        for value in ("5", "many"):
            monkeypatch.setenv("VISCOSTRING_THREADS", value)
            assert run(cfg, out_dir=tmp_path / f"out_{value}") == EXIT_OK


class TestRun:
    def test_simulate_zero_control(self, tmp_path):
        path = write_config(tmp_path, f"""
[kernel]
family = zero

[grid]
horizon = {TWO_PI}
steps = 512

[modes]
n_max = 4

[task]
kind = simulate

[control]
kind = zero
""")
        cfg = load_config(path)
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == EXIT_OK
        rows = (out / "coefficients.csv").read_text().strip().splitlines()
        assert rows[0] == "n,deformation,velocity,stress,integrated_stress"
        assert len(rows) == 5
        for row in rows[1:]:
            assert [float(v) for v in row.split(",")[1:]] == [0.0] * 4

    def test_steer_elastic_single_mode_control(self, tmp_path):
        path = steer_config(
            tmp_path, family="zero", coefficients="", n_max=3,
            targets="velocity = 1 0 0\nstress = 0 0 0")
        cfg = load_config(path)
        out = tmp_path / "steer_out"
        assert run(cfg, out_dir=out) == EXIT_OK
        rows = (out / "control.csv").read_text().strip().splitlines()[1:]
        times = np.array([float(r.split(",")[0]) for r in rows])
        physical = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(physical - np.cos(times) / math.pi)) < 1e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["synthesis"]["roundtrip_relative_error"] < 1e-3

    def test_steer_reports_the_shared_roundtrip(self, tmp_path):
        cfg = load_config(steer_config(tmp_path, steps=2048))
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == EXIT_OK
        doc = json.loads((out / "synthesis.json").read_text())
        # the tail family steer simulates: modes 1..2*n_max at this step
        kernels = viscostring.derive_kernels(cfg.kernel, cfg.grid)
        modes = volterra.solve_modes(range(1, 17), kernels)
        trip = viscostring.closed_loop_roundtrip(
            kernels, random_unit_target(cfg.seed, 8), modes)
        assert doc["roundtrip_relative_error"] == trip.relative_error
        assert doc["achieved"] == [[z.real, z.imag] for z in trip.achieved.tolist()]
        assert trip.state.n_max == 16
        rows = (out / "coefficients.csv").read_text().splitlines()
        assert len(rows) == 1 + trip.state.n_max

    def test_pair_elastic_mismatch_exits_5(self, tmp_path):
        path = write_config(tmp_path, """
[kernel]
family = zero

[grid]
horizon = 1.0
steps = 512

[modes]
n_pair = 2

[task]
kind = pair

[targets]
deformation = 0 0
stress = 1 0
""")
        assert run(load_config(path), out_dir=tmp_path / "o") \
            == EXIT_ELASTIC_DEGENERACY

    def test_exceptional_kernel_fails_verification_tasks(self, tmp_path):
        path = write_config(tmp_path, f"""
[kernel]
family = exponential_sum
coefficients = 2.0 1.0

[grid]
horizon = {TWO_PI}
steps = 1024

[modes]
n_max = 4

[task]
kind = verify
""")
        assert run(load_config(path), out_dir=tmp_path / "o") \
            == EXIT_EXCEPTIONAL_INDEX

    def test_near_exceptional_kernel_fails_verification_tasks(self, tmp_path):
        # alpha^2 = 1 - 2e-15: mode 1 collides in all but round-off
        path = task_config(tmp_path, "verify", n_max=4,
                           coefficients=f"{2.0 * (1.0 - 1e-15)!r} 1.0")
        assert run(load_config(path), out_dir=tmp_path / "o") \
            == EXIT_EXCEPTIONAL_INDEX

    @pytest.mark.parametrize("task", ["verify", "diagnose"])
    def test_heavy_damping_fails_verification_tasks(self, tmp_path, capsys, task):
        # alpha = -1.5 is not exceptional, but mode 1 has no real frequency
        path = task_config(tmp_path, task, n_max=4, coefficients="3.0 1.0")
        out = tmp_path / "o"
        assert cli_main([task, "--config", str(path),
                         "--out", str(out)]) == EXIT_CONFIG
        assert "n=1" in capsys.readouterr().err
        assert not out.exists()

    def test_exceptional_kernel_still_steers(self, tmp_path):
        # solvers never evaluate the oscillation frequencies, so steering
        # remains well defined at an exceptional index
        path = steer_config(tmp_path, coefficients="2.0 1.0", n_max=4,
                            steps=2048)
        assert run(load_config(path), out_dir=tmp_path / "o") == EXIT_OK

    def test_collapsed_gram_exits_4(self, tmp_path):
        path = steer_config(tmp_path, horizon=math.pi / 2.0, steps=1024,
                            n_max=16)
        with pytest.warns(UserWarning):
            code = run(load_config(path), out_dir=tmp_path / "o")
        assert code == EXIT_NEAR_SINGULAR

    def test_resolution_violation_is_config_error(self, tmp_path):
        path = steer_config(tmp_path, steps=64, n_max=16)
        assert run(load_config(path), out_dir=tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize("task", ["simulate", "steer", "verify", "diagnose"])
    def test_oversized_n_max_is_rejected_before_any_per_mode_work(
            self, tmp_path, monkeypatch, capsys, task):
        # the grid check comes first, so a mistyped n_max costs no loop,
        # list or tuple of n_max entries before it exits 2
        calls = Counter()

        def counting(*args, _fn=harness.mode_params):
            calls["mode_params"] += 1
            return _fn(*args)

        monkeypatch.setattr(harness, "mode_params", counting)
        path = task_config(tmp_path, task, steps=512, n_max=10 ** 6)
        out = tmp_path / "o"
        assert run(load_config(path), out_dir=out) == EXIT_CONFIG
        assert "mode 1000000" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not calls

    def test_pair_ignores_an_oversized_n_max(self, tmp_path):
        # pair resolves n_pair modes only
        path = task_config(tmp_path, "pair", steps=512, n_max=10 ** 6)
        assert run(load_config(path), out_dir=tmp_path / "o") == EXIT_OK

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_result_fails_without_a_manifest(self, tmp_path, capsys):
        # alpha = 25 overflows the coefficient convolutions: the overflow
        # stops the run where it arises, before any file or directory
        path = task_config(tmp_path, "simulate", coefficients="-50 1.0")
        out = tmp_path / "o"
        assert run(load_config(path), out_dir=out) == EXIT_FAILURE
        assert "error: overflow encountered" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coefficients,horizon", [("1e308 1e-308", TWO_PI),
                                                      ("200 1.0", TWO_PI),
                                                      ("0.4 1.0", 1e308)])
    def test_overflowing_damping_is_a_config_error(self, tmp_path, capsys,
                                                   coefficients, horizon):
        # 2|alpha| T beyond log(float max) overflows exp(-2 alpha T), which
        # every kernel and coefficient carries: refused before any output
        path = task_config(tmp_path, "simulate", coefficients=coefficients,
                           horizon=horizon)
        out = tmp_path / "o"
        assert cli_main(["simulate", "--config", str(path),
                         "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[kernel] coefficients" in err and "[grid] horizon" in err
        assert not out.exists()

    @pytest.mark.parametrize("change,code", [({"n_max": 100000}, EXIT_CONFIG),
                                             ({"coefficients": "-2 1"},
                                              EXIT_EXCEPTIONAL_INDEX)])
    def test_refused_run_makes_no_output_directory(self, tmp_path, change, code):
        # n_max beyond the grid's resolution, or alpha = 1 with mode 1
        # exceptional: both are refused before the directory is made
        path = task_config(tmp_path, "diagnose", **change)
        out = tmp_path / "o"
        assert cli_main(["diagnose", "--config", str(path),
                         "--out", str(out)]) == code
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:horizon:UserWarning")
    @pytest.mark.parametrize("task,edits,code", [
        ("diagnose", {"coefficients": "3.0 1.0"}, EXIT_CONFIG),
        ("verify", {"coefficients": "3.0 1.0"}, EXIT_CONFIG),
        ("pair", {"steps": "30"}, EXIT_CONFIG),
        ("pair", {"n_pair": "17", "deformation": "1" + " 0" * 16,
                  "stress": "0 1" + " 0" * 15}, EXIT_CONFIG),
        ("steer", {"horizon": repr(math.pi / 2.0)}, EXIT_NEAR_SINGULAR),
        ("diagnose", {"coefficients": "-4.0 1.0"}, EXIT_EXCEPTIONAL_INDEX),
        ("verify", {"amplitude": "1e308"}, EXIT_FAILURE),
    ], ids=["diagnose-nonreal", "verify-nonreal", "pair-coarse", "pair-17",
            "steer-singular", "diagnose-alpha-2", "verify-overflow"])
    def test_run_failing_before_its_first_file_leaves_no_directory(
            self, tmp_path, task, edits, code):
        # an example config with some lines replaced: mode 1 not real, a grid
        # too coarse for n_pair, n_pair beyond 16, a near-singular Gram;
        # |alpha| = 2, where the downward mode scan meets exceptional mode 2
        # before non-real mode 1, so the run exits 3 rather than 2; and a
        # control that overflows in verify's simulation, after the resolvent
        # check whose CSV comes first: no task writes before it has computed
        text = (Path(__file__).parents[1] / "configs" / f"{task}.ini").read_text()
        for key, value in edits.items():
            text, count = re.subn(f"(?m)^{key} = .*$", f"{key} = {value}", text)
            assert count == 1
        out = tmp_path / "o"
        assert cli_main([task, "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize("task,key,value", [("simulate", "coefficients", "-50 1.0"),
                                                ("simulate", "amplitude", "1e308"),
                                                ("verify", "amplitude", "1e308")],
                             ids=["simulate-alpha-25", "simulate-amplitude", "verify-amplitude"])
    def test_floating_point_failure_names_the_function_it_arose_in(
            self, tmp_path, capsys, task, key, value):
        # numpy names only its loop (multiply, rfft_n_even); the message adds
        # the outermost package function below the task runner
        text = (Path(__file__).parents[1] / "configs" / f"{task}.ini").read_text()
        text, count = re.subn(f"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1
        out = tmp_path / "o"
        assert cli_main([task, "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: overflow encountered in ")
        assert err.rstrip().endswith(" (in spectral.simulate_coefficients)")
        assert not out.exists()

    def test_a_value_error_after_admission_is_a_failure(self, tmp_path, monkeypatch,
                                                         capsys):
        # LinAlgError is a ValueError, but only admission refuses a config
        def failing(family):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(harness, "frame_bounds", failing)
        out = tmp_path / "o"
        assert cli_main(["diagnose", "--config", str(task_config(tmp_path, "diagnose")),
                         "--out", str(out)]) == EXIT_FAILURE
        assert capsys.readouterr().err == "error: SVD did not converge\n"
        assert not out.exists()

    def test_random_targets_other_than_unit_are_a_config_error(self, tmp_path,
                                                               capsys):
        # a misspelt value must not fall back to the target rows silently
        path = steer_config(tmp_path, targets="random = true\n"
                                              "velocity = 1 0\nstress = 0 1")
        out = tmp_path / "o"
        assert cli_main(["steer", "--config", str(path),
                         "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[targets] random" in err and "'true'" in err
        assert not out.exists()

    @pytest.mark.parametrize("task,targets,message", [
        ("steer", "velocity = 1 0 5 7\nstress = 0 0 9 9",
         "[targets] velocity holds 4 values, n_max = 2"),
        ("steer", "velocity = 1 0\nstress = 0 0 9",
         "[targets] stress holds 3 values, n_max = 2"),
        ("steer", "", "steer task needs velocity and stress target rows or random = unit"),
        ("pair", "deformation = 1 0.5 0 0 1 1\nstress = 0 0.5 1 0",
         "[targets] deformation holds 6 values, n_pair = 4"),
        ("pair", "deformation = 1 0.5 0 0\nstress = 0 0.5",
         "[targets] stress holds 2 values, n_pair = 4"),
        ("pair", "deformation = 1 0.5 0 0",
         "pair task needs deformation and stress target rows"),
        ("steer", "random = unit\nvelocity = 1 0",
         "[targets] velocity is not read by a steer run with random = unit"),
        ("steer", "velocity = 1 0\nstress = 0 1\ndeformation = 1 0",
         "[targets] deformation is not read by a steer run"),
        ("pair", "deformation = 1 0.5 0 0\nstress = 0 0.5 1 0\nvelocity = 1 0",
         "[targets] velocity is not read by a pair run"),
        ("pair", "random = unit\ndeformation = 1 0.5 0 0\nstress = 0 0.5 1 0",
         "[targets] random is not read by a pair run"),
        ("simulate", "velocity = 1 0", "[targets] velocity is not read by a simulate run"),
        ("diagnose", "stress = 0 1", "[targets] stress is not read by a diagnose run"),
        ("verify", "deformation = 1 0", "[targets] deformation is not read by a verify run"),
    ], ids=["steer-long", "steer-long-stress", "steer-none", "pair-long", "pair-short",
            "pair-missing", "steer-rows-beside-random", "steer-deformation", "pair-velocity",
            "pair-random", "simulate-row", "diagnose-row", "verify-row"])
    def test_unusable_target_rows_are_refused_before_any_output(self, tmp_path, capsys,
                                                                task, targets, message):
        # rows longer than the mode count used to be cut without a word, and
        # missing or short rows were refused after the directory was made;
        # rows the task does not read were dropped without a word
        path = write_config(tmp_path, TASK_TEMPLATE.format(
            task=task, coefficients="0.4 1.0", horizon=TWO_PI, steps=512, n_max=2,
            targets=targets, control=TASK_CONTROL.get(task, "")))
        out = tmp_path / "o"
        assert cli_main([task, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task,old,new,message", [
        ("steer", "[run]", "[control]\nkind = cosine\n\n[run]",
         "[control] kind is not read by a steer run"),
        ("pair", "[run]", "[control]\nkind = cosine\n\n[run]",
         "[control] kind is not read by a pair run"),
        ("diagnose", "[run]", "[control]\nkind = cosine\n\n[run]",
         "[control] kind is not read by a diagnose run"),
        ("simulate", "frequency = 1.0", "frequency = 1.0\ncenter = 3.0",
         "[control] center is not read by a simulate run with kind = cosine"),
        ("verify", "amplitude = 1.0", "amplitude = 1.0\nfrequency = 2.0",
         "[control] frequency is not read by a verify run with kind = bump"),
        ("simulate", "kind = cosine", "kind = zero",
         "[control] amplitude is not read by a simulate run with kind = zero"),
        ("steer", "family = exponential_sum", "family = zero",
         "[kernel] family = zero, coefficients [0.4, 1.0]: zero kernel takes no parameters"),
        ("simulate", "frequency = 1.0", "frequency = 1.0\nwidth = 1.0\ncenter = 3.0",
         "[control] width is not read by a simulate run with kind = cosine"),
    ], ids=["steer-control", "pair-control", "diagnose-control", "simulate-cosine-center",
            "verify-bump-frequency", "simulate-zero-amplitude", "steer-zero-kernel",
            "simulate-two-faults"])
    def test_unread_config_values_are_refused_before_any_output(self, tmp_path, capsys,
                                                                task, old, new, message):
        # an example config with one line replaced: each value here used to be
        # parsed and dropped without a word; of two unread keys the first in
        # the file is named (width before center, against their sorted order)
        text = (Path(__file__).parents[1] / "configs" / f"{task}.ini").read_text()
        assert text.count(old) == 1
        out = tmp_path / "o"
        assert cli_main([task, "--config", str(write_config(tmp_path, text.replace(old, new))),
                         "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        assert not out.exists()

    def test_short_steer_rows_target_zero_for_the_other_modes(self, tmp_path):
        path = steer_config(tmp_path, steps=512, n_max=3,
                            targets="velocity = 1 0\nstress = 0 0.5")
        out = tmp_path / "o"
        assert run(load_config(path), out_dir=out) == EXIT_OK
        doc = json.loads((out / "synthesis.json").read_text())
        assert doc["targets_velocity"] == [1.0, 0.0, 0.0]
        assert doc["targets_stress"] == [0.0, 0.5, 0.0]

    def test_large_damping_within_float64_still_loads(self, tmp_path):
        # alpha = 25 at T = 2 pi: 2|alpha| T = 314 < 709.78; the run fails
        # later, where it overflows (see above), not on the config
        path = task_config(tmp_path, "simulate", coefficients="-50 1.0")
        assert load_config(path).kernel.alpha == 25.0

    def test_manifest_reconstructs_run(self, tmp_path):
        path = steer_config(tmp_path, seed=3)
        out = tmp_path / "out"
        assert run(load_config(path), out_dir=out) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["kernel"]["family"] == "exponential_sum"
        assert manifest["config"]["run"]["seed"] == "3"
        assert manifest["config"]["grid"]["steps"] == "4096"


class TestDeterminism:
    def test_thread_count_does_not_change_outputs(self, tmp_path):
        outputs = {}
        for threads in (1, 4):
            path = steer_config(tmp_path, seed=17, threads=threads,
                                name=f"exp_{threads}.ini")
            out = tmp_path / f"out_{threads}"
            assert run(load_config(path), out_dir=out) == EXIT_OK
            outputs[threads] = {
                name: (out / name).read_bytes()
                for name in ("synthesis.json", "control.csv",
                             "coefficients.csv", "fields.csv")
            }
        assert outputs[1] == outputs[4]

    def test_rerun_with_same_seed_is_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            path = steer_config(tmp_path, seed=9, name=f"exp_{tag}.ini")
            out = tmp_path / f"out_{tag}"
            assert run(load_config(path), out_dir=out) == EXIT_OK
            blobs.append((out / "manifest.json").read_bytes())
        assert blobs[0] == blobs[1]


TASK_TEMPLATE = """
[kernel]
family = exponential_sum
coefficients = {coefficients}

[grid]
horizon = {horizon}
steps = {steps}

[modes]
n_max = {n_max}
n_pair = 4

[task]
kind = {task}

[targets]
{targets}

{control}
[run]
seed = 5
"""

TASK_TARGETS = {
    "steer": "random = unit",
    "pair": "deformation = 1 0.5 0 0\nstress = 0 0.5 1 0",
}

# only simulate and verify read [control]; the other tasks refuse it
TASK_CONTROL = {task: "[control]\nkind = bump\n" for task in ("simulate", "verify")}


def task_config(tmp_path, task, *, coefficients="0.4 1.0", horizon=TWO_PI,
                steps=1024, n_max=8):
    return write_config(
        tmp_path,
        TASK_TEMPLATE.format(task=task, coefficients=coefficients,
                             horizon=horizon, steps=steps, n_max=n_max,
                             targets=TASK_TARGETS.get(task, ""),
                             control=TASK_CONTROL.get(task, "")),
        name=f"{task}.ini")


class TestSolveOnce:
    """Each run marches its mode responses and moment kernels once."""

    @pytest.mark.parametrize("task,batches", [
        ("simulate", {"mode": 1}),
        ("pair", {"mode": 1}),
        ("steer", {"mode": 1, "moment": 1}),
        ("diagnose", {"mode": 1, "moment": 1}),
        ("verify", {"mode": 1, "moment": 1}),
    ])
    def test_one_batch_per_family(self, tmp_path, monkeypatch, task, batches):
        calls = Counter()
        march = volterra._march

        def counting(grid, kernel, local, weights, start, forcing):
            calls["moment" if forcing else "mode"] += 1
            return march(grid, kernel, local, weights, start, forcing)

        monkeypatch.setattr(volterra, "_march", counting)
        path = task_config(tmp_path, task)
        assert run(load_config(path), out_dir=tmp_path / "o") == EXIT_OK
        assert dict(calls) == batches

    def test_pair_beyond_the_mode_limit_is_refused_before_any_march(
            self, tmp_path, monkeypatch, capsys):
        # and every other refusal: each comes at admission, before any kernel
        # or mode, and a floating-point fault there names where it arose
        calls = Counter()
        march = volterra._march

        def counting(*args):
            calls["march"] += 1
            return march(*args)

        monkeypatch.setattr(volterra, "_march", counting)
        cases = [("pair", {"n_pair": "17", "deformation": "1" + " 0" * 16,
                           "stress": "0 1" + " 0" * 15}, "[modes] n_pair = 17"),
                 ("verify", {"amplitude": "1.0\ncenter = 100.0"}, "holds no grid node"),
                 ("pair", {"deformation": "nan 0 0 0"}, "stress targets must be finite"),
                 ("verify", {"n_max": "1"}, "[modes] n_max = 1"),
                 ("simulate", {"frequency": "1e308"},
                  "overflow encountered in multiply (in harness.make_control)")]
        for case, (task, edits, message) in enumerate(cases):
            text = (Path(__file__).parents[1] / "configs" / f"{task}.ini").read_text()
            for key, value in edits.items():
                text, count = re.subn(f"(?m)^{key} = .*$", f"{key} = {value}", text)
                assert count == 1
            out = tmp_path / f"o{case}"
            assert run(load_config(write_config(tmp_path, text)), out_dir=out) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and message in err, (task, err)
            assert not out.exists() and not calls, (task, calls)

    @pytest.mark.parametrize("task,solves", [("simulate", 0), ("pair", 0),
                                             ("steer", 0), ("diagnose", 0),
                                             ("verify", 1)])
    def test_only_verify_solves_the_resolvent(self, tmp_path, monkeypatch, task,
                                              solves):
        # verify checks modes 1, 2, 4, 8 (n_max = 8) against one resolvent
        calls = Counter()
        solve = volterra.solve_volterra_second_kind

        def counting(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        # every namespace that imported it, not only its home module
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "viscostring" and \
                    getattr(module, "solve_volterra_second_kind", None) is solve:
                monkeypatch.setattr(module, "solve_volterra_second_kind", counting)
        path = task_config(tmp_path, task)
        assert run(load_config(path), out_dir=tmp_path / "o") == EXIT_OK
        assert calls["solve"] == solves


def _cli_outputs(tmp_path, task, path, blas_threads):
    out = tmp_path / f"{task}_{blas_threads}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(Path(viscostring.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "viscostring.cli", task, "--config", str(path),
         "--out", str(out)], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())
            if f.name != "timing.json"}


class TestBlasThreads:
    @pytest.mark.parametrize("task,n_max", [("steer", 8), ("simulate", 16),
                                            ("pair", 8), ("diagnose", 16),
                                            ("simulate", 64), ("steer", 64),
                                            ("diagnose", 128)])
    def test_blas_thread_count_does_not_change_outputs(self, tmp_path, task,
                                                       n_max):
        # the moment solves factor a 2N x (K+1) matrix; at n_max = 64 and
        # 4096 steps a BLAS product over the time axis, or a complex LAPACK
        # call at Gram size (128 x 128), would be threaded and would move
        # the last digits; so would LAPACK eigvalsh on the 256 x 256 frame
        # Gram of diagnose at n_max = 128
        steps = {64: 4096, 128: 8192}.get(n_max, 2048)
        path = task_config(tmp_path, task, steps=steps, n_max=n_max)
        single = _cli_outputs(tmp_path, task, path, 1)
        double = _cli_outputs(tmp_path, task, path, 2)
        assert "manifest.json" in single
        assert single == double


def _reference_write_csv(path, header, rows):
    """The row-at-a-time writer the column writer replaced."""
    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return str(value)

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


# one value per row and column type; every float column covers the largest
# floats, the edges of the integer-digit range, -0.0, subnormals and values
# that need all 17 significant digits (nan and inf are never written)
_SPECIAL_FLOATS = [0.1 + 0.2, -1.0 / 3.0, -1.7976931348623157e308, 1e15,
                   -9.999999999999998e-08, -0.0, 5e-324, 2.2250738585072009e-308,
                   1.7976931348623157e308, 123456789.01234567, 2.0 ** 53 + 2.0, 1e-7]
_PY_INTS = [0, -1, 7, 2 ** 62, -(2 ** 63), 42, 3, 100, -5, 9, 11, 12]
_NP_INTS = np.array([5, -9, 0, 2 ** 40, 1, 2, 3, 4, 5, 6, 7, -8], dtype=np.int64)
_BOOLS = [True, False, True, True, False, False, True, False, True, False,
          True, True]


class TestExports:
    def test_empty_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["n", "t", "re", "im"], [])
        assert path.read_text().strip() == "n,t,re,im"

    def test_three_samples_give_four_lines(self, tmp_path):
        from viscostring.harness import _trajectory_blocks
        from viscostring import ModeFamily, TimeGrid, TrajectoryKind
        grid = TimeGrid(1.0, 2)
        family = ModeFamily((1,), TrajectoryKind.MODE,
                            np.array([[1.0, 0.5, 0.1]]), grid)
        path = tmp_path / "traj.csv"
        write_csv(path, ["n", "t", "re", "im"], _trajectory_blocks(family))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[3].split(",")[2:] == ["0.10000000000000001", "0"]

    def test_floats_carry_17_significant_digits(self, tmp_path):
        path = tmp_path / "f.csv"
        write_csv(path, ["x"], [([1.0 / 3.0],)])
        assert path.read_text().splitlines()[1] == "0.33333333333333331"

    def test_matches_row_writer_byte_for_byte(self, tmp_path):
        header = ["py_int", "np_int", "py_float", "np_float", "py_bool",
                  "np_bool"]
        np_floats = np.array(_SPECIAL_FLOATS[::-1])
        np_bools = np.array(_BOOLS[::-1])
        rows = list(zip(_PY_INTS, _NP_INTS, _SPECIAL_FLOATS, np_floats,
                        _BOOLS, np_bools))
        _reference_write_csv(tmp_path / "rows.csv", header, rows)
        # the same table as two blocks of columns
        columns = (_PY_INTS, _NP_INTS, _SPECIAL_FLOATS, np_floats, _BOOLS,
                   np_bools)
        blocks = [tuple(col[:5] for col in columns),
                  tuple(col[5:] for col in columns)]
        write_csv(tmp_path / "columns.csv", header, blocks)
        expected = (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "columns.csv").read_bytes() == expected
        assert expected.count(b"\r\n") == len(rows) + 1
        assert expected.count(b"\n") == len(rows) + 1
        for text in (b"e+308", b",-0,", b"e-324", b"e-08", b"true", b"false"):
            assert text in expected

    def test_header_only_matches_row_writer(self, tmp_path):
        _reference_write_csv(tmp_path / "rows.csv", ["n", "x"], [])
        write_csv(tmp_path / "columns.csv", ["n", "x"], [])
        assert (tmp_path / "columns.csv").read_bytes() \
            == (tmp_path / "rows.csv").read_bytes() == b"n,x\r\n"

    def test_rejects_ragged_or_unsupported_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "a.csv", ["a", "b"], [([1.0, 2.0], [1.0])])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "b.csv", ["a", "b"], [([1.0],)])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "c.csv", ["z"], [(np.array([1j]),)])

    def test_later_block_of_other_kinds_is_refused_before_its_rows(self, tmp_path):
        # ints then floats would truncate 2.5 and spell 1e300 as an integer
        path = tmp_path / "ints.csv"
        with pytest.raises(ValueError, match="ints.csv"):
            write_csv(path, ["x"], [([1, 2],), ([2.5, 1e300],)])
        assert not path.exists()
        # floats then bools would fail inside the row template
        path = tmp_path / "flags.csv"
        with pytest.raises(ValueError, match="flags.csv"):
            write_csv(path, ["x", "y"], [([0.5], [1.5]), ([True], [2.5])])
        assert not path.exists()

    def test_repeated_columns_keep_their_bytes(self, tmp_path):
        # a column repeats only byte for byte: 0 and -0 are equal as numbers
        zeros = np.array([0.0, -0.0, 0.0])
        negative = np.array([-0.0, -0.0, -0.0])
        times = np.array([0.0, 0.5, 1.0 / 3.0])
        blocks = [(np.array([1, 1, 1]), times, zeros),
                  (np.array([2, 2, 2]), times.copy(), negative),
                  (np.array([2, 2, 3]), times, negative),
                  (np.array([4, 4, 4]), times[::-1], np.full(3, 1e300)),
                  (np.array([5]), times[:1], np.array([-5e-324]))]
        rows = [row for block in blocks for row in zip(*(col.tolist() for col in block))]
        _reference_write_csv(tmp_path / "rows.csv", ["n", "t", "x"], rows)
        write_csv(tmp_path / "columns.csv", ["n", "t", "x"], blocks)
        assert (tmp_path / "columns.csv").read_bytes() \
            == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("blocks", [[([1.0],), ([2.0, math.nan],)],
                                        [([math.nan, 1.0],)],
                                        [([1, 2], [0.5, 1.0]), ([3], [-math.inf])]],
                             ids=["nan-second-block", "nan-first-block", "inf"])
    def test_non_finite_float_leaves_no_file(self, tmp_path, blocks):
        # every block is checked before the file is made: neither the file
        # nor a directory for it is left
        header = ["x", "y"][: len(blocks[0])]
        path = tmp_path / "new" / "deeper" / "bad.csv"
        with pytest.raises(viscostring.ViscostringError,
                           match="bad.csv: non-finite result"):
            write_csv(path, header, blocks)
        assert not path.exists()
        assert not (tmp_path / "new").exists()
        assert tmp_path.is_dir()

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    @pytest.mark.parametrize("offset", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["1", "chunk-1", "chunk", "chunk+1", "2chunk+1"])
    def test_trajectory_file_matches_row_writer_byte_for_byte(self, tmp_path,
                                                              dtype, offset):
        from types import SimpleNamespace
        from viscostring.harness import _trajectory_blocks
        rows = offset[0] * 1024 + offset[1]
        rng = np.random.default_rng(rows)
        samples = rng.standard_normal((3, rows)).astype(dtype)
        samples.real.reshape(-1)[: len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS[:3 * rows]
        times = np.linspace(0.0, 2.0 * math.pi, rows)
        # a solved family is real: the complex case hands it strided rows,
        # the real parts of complex samples; a grid has two nodes or more,
        # and the stand-in also covers one-row blocks
        family = SimpleNamespace(ns=(1, 2, 3), samples=samples.real,
                                 grid=SimpleNamespace(times=lambda: times))
        header = ["n", "t", "re", "im"]
        write_csv(tmp_path / "columns.csv", header, _trajectory_blocks(family))
        _reference_write_csv(tmp_path / "rows.csv", header,
                             [(n, t, v, 0.0) for n, row in zip(family.ns, family.samples)
                              for t, v in zip(times.tolist(), row.tolist())])
        expected = (tmp_path / "rows.csv").read_bytes()
        assert expected.count(b"\r\n") == 3 * rows + 1
        assert b"e+308" in expected
        assert (tmp_path / "columns.csv").read_bytes() == expected


def _spelt(values):
    """The CSV writer's float text of `values`, one value per line."""
    values = np.asarray(values, dtype=np.float64)
    parts = [harness._float_text(values[lo:lo + 65536])
             for lo in range(0, len(values), 65536)]
    return b"".join(np.concatenate([part, np.full((len(part), 1), 10, np.uint8)], 1)
                    .tobytes() for part in parts).translate(None, b"\0")


def _percent_g(values):
    values = np.asarray(values, dtype=np.float64).tolist()
    return b"%.17g\n" * len(values) % tuple(values)


def _first_mismatches(values):
    got, want = _spelt(values), _percent_g(values)
    if got == want:
        return []
    return [(v, g, w) for v, g, w in zip(np.asarray(values).tolist(), got.split(b"\n"),
                                          want.split(b"\n")) if g != w][:5] or ["lengths"]


class TestFloatText:
    """The writer spells floats from integer digits with the bytes of '%.17g'."""

    def test_seeded_sweep_matches_percent_format(self):
        # random bit patterns (most of them outside the integer route's
        # range), bit patterns with exponents around that range (2^-25 ..
        # 2^51) and log-uniform magnitudes 1e-12 .. 1e17 of either sign
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2 ** 64, 530_000, dtype=np.uint64)
        exponents = rng.integers(1023 - 25, 1023 + 52, 470_000).astype(np.uint64)
        near = bits[60_000:] & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponents << np.uint64(52)
        magnitudes = np.exp(rng.uniform(math.log(1e-12), math.log(1e17), 470_000))
        values = np.concatenate([bits[:60_000].view(np.float64), near.view(np.float64),
                                 magnitudes * rng.choice([-1.0, 1.0], 470_000)])
        assert len(values) >= 10 ** 6
        assert _first_mismatches(values) == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_any_float_matches_percent_format(self, values):
        assert _first_mismatches(values) == []

    def test_powers_of_ten_range_edges_and_extremes(self):
        powers = [10.0 ** k for k in range(-20, 23)]
        edges = [1e-7, 1e15, 2.0 ** -24, 2.0 ** 50]
        values = [np.nextafter(v, side) for v in powers + edges
                  for side in (-math.inf, 0.0, math.inf)]
        values += [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 1.0, 100.0, 12345.0]
        values += [-v for v in values]
        assert _first_mismatches(values) == []

    @pytest.mark.parametrize("shift", [-1, 1], ids=["low", "high"])
    def test_an_exponent_estimate_one_off_is_left_to_percent(self, monkeypatch, shift):
        # log10 next to a power of ten may land on either side of it: a
        # value whose estimate misses must be spelt by '%.17g', not misspelt
        log10 = np.log10
        monkeypatch.setattr(harness.np, "log10", lambda values: log10(values) + shift)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(1100) * 10.0 ** np.arange(-7, 15).repeat(50)
        assert _first_mismatches(values) == []

    def test_halfway_values_round_to_even(self):
        # exact decimals of 18 significant digits ending in 5, halfway
        # between two 17-digit texts: '%.17g' takes the even neighbour
        from decimal import Decimal
        ties = [base + k / 2 ** bits
                for base, bits, odd in ((123456789012345, 3, range(1, 8, 2)),
                                        (98765432109876, 4, range(1, 16, 2)),
                                        (3141592653589, 5, range(1, 32, 2)),
                                        (0, 18, range(2 ** 17 + 1, 2 ** 17 + 64, 2)))
                for k in odd]
        digits = [Decimal(t).as_tuple().digits for t in ties]
        assert all(len(d) == 18 and d[-1] == 5 for d in digits)
        assert {d[-2] % 2 for d in digits} == {0, 1}
        assert _first_mismatches(ties + [-t for t in ties]) == []

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    @pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    def test_every_column_kind_across_chunk_edges(self, tmp_path, dtype, offset):
        rows = offset[0] * harness._CSV_ROWS + offset[1]
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 16, rows)
        floats[: len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS
        values = floats.astype(dtype)
        if dtype is complex:
            values.imag = np.flip(floats)
        times = np.linspace(0.0, 2.0 * math.pi, rows)
        blocks = [(np.full(rows, n), times, rng.random(rows) < 0.5, values.real,
                   values.imag, rng.integers(-2 ** 62, 2 ** 62, rows)) for n in (1, 2)]
        header = ["n", "t", "flag", "re", "im", "big"]
        write_csv(tmp_path / "columns.csv", header, blocks)
        _reference_write_csv(tmp_path / "rows.csv", header,
                             [row for block in blocks
                              for row in zip(*(col.tolist() for col in block))])
        expected = (tmp_path / "rows.csv").read_bytes()
        assert expected.count(b"\r\n") == 2 * rows + 1
        assert (tmp_path / "columns.csv").read_bytes() == expected


class TestControls:
    def test_bump_is_compactly_supported(self, desk_grid):
        from viscostring.harness import bump_control
        control = bump_control(desk_grid, 2.0, math.pi, 1.0)
        t = desk_grid.times()
        outside = (t <= math.pi - 1.0) | (t >= math.pi + 1.0)
        assert np.all(control.samples[outside] == 0.0)
        assert np.max(control.samples) == pytest.approx(2.0, rel=1e-6)

    def test_config_control_kinds(self, tmp_path, desk_grid):
        base = """
[kernel]
family = zero
[grid]
horizon = 6.283185307179586
steps = 4096
[task]
kind = simulate
[control]
kind = {kind}
amplitude = 1.5
frequency = 2.0
"""
        for kind in ("zero", "cosine", "bump", "random"):
            cfg = load_config(write_config(tmp_path, base.format(kind=kind),
                                           name=f"{kind}.ini"))
            control = make_control(cfg, desk_grid)
            assert len(control.samples) == desk_grid.steps + 1
        cosine = make_control(
            load_config(write_config(tmp_path, base.format(kind="cosine"),
                                     name="c2.ini")), desk_grid)
        assert cosine.samples[0] == 1.5

    @staticmethod
    def _bump_config(tmp_path, lines):
        return write_config(tmp_path, f"""
[kernel]
family = exponential_sum
coefficients = 0.4 1.0
[grid]
horizon = {TWO_PI}
steps = 512
[modes]
n_max = 4
[task]
kind = simulate
[control]
kind = bump
{lines}
""")

    @pytest.mark.parametrize("key,value", [("width", "0"), ("center", "nan"),
                                           ("width", "inf")])
    def test_degenerate_bump_is_a_config_error(self, tmp_path, capsys, key, value):
        # each would give an all-zero control
        path = self._bump_config(tmp_path, f"{key} = {value}")
        out = tmp_path / "out"
        assert run(load_config(path), out_dir=out) == EXIT_CONFIG
        assert f"bump control {key}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("lines", ["center = 100.0",
                                       "center = 1.0\nwidth = 1e-6"],
                             ids=["outside-horizon", "between-nodes"])
    def test_bump_missing_every_node_is_a_config_error(self, tmp_path, capsys,
                                                       lines):
        out = tmp_path / "out"
        path = self._bump_config(tmp_path, lines)
        assert run(load_config(path), out_dir=out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "center" in err and "width" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("lines", ["center = -0.5\nwidth = 1.0",
                                       "center = 6.5\nwidth = 1.0",
                                       "amplitude = 0.0"],
                             ids=["left-edge", "right-edge", "zero-amplitude"])
    def test_bump_holding_a_node_runs(self, tmp_path, lines):
        out = tmp_path / "out"
        path = self._bump_config(tmp_path, lines)
        assert run(load_config(path), out_dir=out) == 0
        assert (out / "manifest.json").exists()


class TestCli:
    def test_task_mismatch(self, tmp_path, capsys):
        path = steer_config(tmp_path)
        assert cli_main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert "task" in capsys.readouterr().err

    def test_cli_steer_roundtrip(self, tmp_path):
        path = steer_config(tmp_path, family="zero", coefficients="", n_max=2,
                            targets="velocity = 1 0\nstress = 0 0",
                            steps=2048)
        out = tmp_path / "cli_out"
        assert cli_main(["steer", "--config", str(path),
                         "--out", str(out), "--threads", "2"]) == EXIT_OK
        assert (out / "manifest.json").exists()

    def test_missing_config(self, capsys):
        assert cli_main(["verify", "--config", "/nope.ini"]) == EXIT_CONFIG

    def test_module_entry_exits_with_the_code_and_flushed_stderr(self, tmp_path):
        # the entry point leaves through os._exit, after flushing stderr
        path = steer_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(viscostring.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "viscostring.cli", "simulate", "--config", str(path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error: config file requests task 'steer'")
