"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria whose tolerances outpace the second-order scheme at the default
4096-step grid run on correspondingly finer grids; everything else uses
the desk defaults (horizon 2*pi, 4096 steps, modes up to 32, memory kernel
0.4*exp(-t)).
"""

import math

import numpy as np
import pytest

from viscostring import (
    TimeGrid,
    TrendVerdict,
    assemble_moment_kernel,
    build_family,
    check_mode_asymptotics,
    check_mode_derivative_asymptotics,
    check_stress_deformation_gap,
    derive_kernels,
    finite_pair_control,
    frame_bounds,
    gram,
    mode_params,
    oracle_exponential_mode,
    quadratic_closeness,
    simulate_coefficients,
    solve_mode,
    solve_moment_kernel,
    synthesize_control,
)
from viscostring.errors import ElasticDegeneracyError, NearSingularGramError
from viscostring.harness import load_config, random_control, random_unit_target, run

from conftest import DESK_KERNEL, ELASTIC_KERNEL, TWO_PI


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {verdict}  {description}  {detail}")
    assert passed, f"criterion {number}: {description} ({detail})"


@pytest.fixture(scope="module")
def desk_moment_family(desk_kernels, desk_grid, desk_modes_32):
    """Moment kernels n = 1..32 by quadrature assembly from the responses."""
    return [assemble_moment_kernel(z, desk_kernels) for z in desk_modes_32]


@pytest.fixture(scope="module")
def steer_setup(desk_kernels, desk_modes_32):
    family = build_family(desk_kernels, 8,
                          mode_family=desk_modes_32[:8])
    return gram(family)


def test_criterion_01_elastic_limit_exactness():
    # the uniform phase error of the scheme is horizon*n^3*step^2/12, so
    # 16384 steps are needed for 5e-4 at n = 16 (4096 would give 5e-3)
    grid = TimeGrid(TWO_PI, 16384)
    kernels = derive_kernels(ELASTIC_KERNEL, grid)
    t = grid.times()
    worst = 0.0
    for n in range(1, 17):
        big = solve_moment_kernel(n, kernels)
        worst = max(worst, float(np.max(np.abs(big.samples - np.exp(1j * n * t)))))
    report(1, "elastic moment kernels track the complex exponentials",
           worst <= 5e-4, f"max deviation {worst:.3e} (tol 5e-4)")


def test_criterion_02_oracle_equivalence():
    grid = TimeGrid(TWO_PI, 65536)
    kernels = derive_kernels(DESK_KERNEL, grid)
    worst = 0.0
    for n in (1, 4, 16):
        z = solve_mode(n, kernels)
        ref = oracle_exponential_mode(n, DESK_KERNEL, grid)
        worst = max(worst, float(np.max(np.abs(z.samples - ref.samples))))
    errs = []
    for steps in (2048, 4096):
        g = TimeGrid(TWO_PI, steps)
        dk = derive_kernels(DESK_KERNEL, g)
        z = solve_mode(4, dk)
        ref = oracle_exponential_mode(4, DESK_KERNEL, g)
        errs.append(float(np.max(np.abs(z.samples - ref.samples))))
    order = math.log2(errs[0] / errs[1])
    ok = worst <= 1e-5 and 1.8 <= order <= 2.2
    report(2, "product integration matches the Runge-Kutta oracle",
           ok, f"max deviation {worst:.3e} (tol 1e-5), order {order:.3f}")


def test_criterion_03_dual_construction(desk_kernels, desk_grid, desk_modes_32,
                                        desk_moment_family):
    tolerance = 100.0 * desk_grid.step ** 2
    worst = 0.0
    for n in range(1, 33):
        stepped = solve_moment_kernel(n, desk_kernels)
        assembled = desk_moment_family[n - 1]
        worst = max(worst, float(np.max(np.abs(stepped.samples
                                               - assembled.samples))))
    report(3, "time-stepped and assembled moment kernels agree",
           worst <= tolerance,
           f"max deviation {worst:.3e} (tol {tolerance:.3e})")


def test_criterion_04_mode_asymptotics(desk_kernels):
    mode_rep = check_mode_asymptotics(desk_kernels, range(1, 33))
    deriv_rep = check_mode_derivative_asymptotics(desk_kernels,
                                                  range(1, 33))
    ok = (mode_rep.verdict is TrendVerdict.BOUNDED
          and deriv_rep.verdict is TrendVerdict.BOUNDED)
    report(4, "scaled mode and derivative deviations stay bounded", ok,
           f"mode {mode_rep.upper_max:.3f}/{mode_rep.lower_max:.3f}, "
           f"derivative {deriv_rep.upper_max:.3f}/{deriv_rep.lower_max:.3f}")


def test_criterion_05_quadratic_closeness(desk_kernels,
                                          desk_moment_family):
    params = [mode_params(n, desk_kernels.alpha) for n in range(1, 33)]
    closeness = quadratic_closeness(desk_moment_family, params)
    lower = float(np.max(closeness.scaled[:16]))
    upper = float(np.max(closeness.scaled[16:]))
    report(5, "scaled squared distances to the limit exponentials stay bounded",
           upper <= 2.0 * lower, f"upper {upper:.3f} vs lower {lower:.3f}")


def test_criterion_06_steering_roundtrip(desk_kernels, desk_grid,
                                         desk_modes_32, steer_setup):
    system = steer_setup
    worst = 0.0
    try:
        for index in range(10):
            target = random_unit_target(2718, 8, index=index)
            synthesis = synthesize_control(system, target,
                                           alpha=desk_kernels.alpha)
            state = simulate_coefficients(synthesis.control,
                                          desk_modes_32[:8], desk_kernels)
            achieved = state.velocity + 1j * state.stress
            rel = float(np.linalg.norm(achieved - target.gamma))
            worst = max(worst, rel)  # unit targets: norm is already relative
        triggered = False
    except NearSingularGramError:
        triggered = True
    ok = (not triggered) and worst <= 1e-2 and system.lambda_min > 0.0
    report(6, "ten seeded steering targets round-trip in coefficient space",
           ok, f"worst relative error {worst:.3e} (tol 1e-2), "
               f"lambda_min {system.lambda_min:.3f}")


def test_criterion_07_frame_collapse():
    long_bounds = frame_bounds(DESK_KERNEL, TWO_PI, 16)
    short_bounds = frame_bounds(DESK_KERNEL, math.pi / 2.0, 16)
    ok = short_bounds.lambda_min <= long_bounds.lambda_min / 100.0
    report(7, "normalised frame bound collapses below the critical horizon",
           ok, f"lambda_min {short_bounds.lambda_min:.3e} at T=pi/2 vs "
               f"{long_bounds.lambda_min:.3e} at T=2*pi")


def test_criterion_08_stress_deformation_gap(desk_kernels, desk_grid,
                                             desk_modes_32, steer_setup,
                                             elastic_kernels, elastic_modes_16):
    verdicts = []
    # the synthesised control from the steering setup
    target = random_unit_target(31, 8)
    synthesis = synthesize_control(steer_setup, target,
                                   alpha=desk_kernels.alpha)
    state = simulate_coefficients(synthesis.control, desk_modes_32,
                                  desk_kernels)
    verdicts.append(check_stress_deformation_gap(state).verdict)
    # three seeded arbitrary controls
    for seed in (101, 202, 303):
        control = random_control(seed, desk_grid)
        state = simulate_coefficients(control, desk_modes_32, desk_kernels)
        verdicts.append(check_stress_deformation_gap(state).verdict)
    all_bounded = all(v is TrendVerdict.BOUNDED for v in verdicts)
    # the memory-free string has no gap at all
    control = random_control(404, desk_grid)
    state = simulate_coefficients(control, elastic_modes_16, elastic_kernels)
    zero_gap = bool(np.all(state.stress == state.deformation))
    report(8, "stress/deformation gap stays bounded, vanishes without memory",
           all_bounded and zero_gap,
           f"verdicts {[v.value for v in verdicts]}, elastic gap zero: "
           f"{zero_gap}")


def test_criterion_09_finite_pair_assignment():
    grid = TimeGrid(1.0, 2048)
    kernels = derive_kernels(DESK_KERNEL, grid)
    pair = finite_pair_control(kernels, [1.0, 0.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0, 0.0])
    residual = pair.roundtrip["relative_error"]
    elastic_kernels = derive_kernels(ELASTIC_KERNEL, grid)
    try:
        finite_pair_control(elastic_kernels, [1.0, 0.0, 0.0, 0.0],
                            [0.0, 1.0, 0.0, 0.0])
        degenerate = False
    except ElasticDegeneracyError:
        degenerate = True
    ok = residual <= 1e-2 and degenerate
    report(9, "deformation and stress pairs assign independently at T=1",
           ok, f"round-trip residual {residual:.3e} (tol 1e-2), elastic "
               f"degeneracy raised: {degenerate}")


CRITERION_10_CONFIG = """
[kernel]
family = exponential_sum
coefficients = 0.4 1.0

[grid]
horizon = 6.283185307179586
steps = 4096

[modes]
n_max = 8

[task]
kind = steer

[targets]
random = unit

[run]
seed = 2718
"""


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "steer.ini"
    cfg_path.write_text(CRITERION_10_CONFIG)
    digests = {}
    for threads in (1, 4):
        out = tmp_path / f"out_{threads}"
        code = run(load_config(cfg_path), out_dir=out, threads=threads)
        assert code == 0
        digests[threads] = {
            name: (out / name).read_bytes()
            for name in ("manifest.json", "synthesis.json", "control.csv",
                         "coefficients.csv")
        }
    identical = digests[1] == digests[4]
    report(10, "same seed gives byte-identical manifests for any thread count",
           identical, "thread counts 1 and 4 compared")
