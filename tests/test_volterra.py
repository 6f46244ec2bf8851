import math

import numpy as np
import pytest

from viscostring import (
    MemoryKernel,
    ModeTrajectory,
    TimeGrid,
    TrajectoryKind,
    assemble_moment_kernel,
    convolve,
    derive_kernels,
    mode_derivative,
    oracle_exponential_mode,
    solve_mode,
    solve_modes,
    solve_moment_kernel,
    solve_moment_kernels,
    solve_volterra_second_kind,
)

from conftest import DESK_KERNEL, ELASTIC_KERNEL, TWO_PI


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 16)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_resolution_rule(self):
        grid = TimeGrid(TWO_PI, 64)  # step ~ 0.098
        grid.require_resolution(1)
        with pytest.raises(ValueError):
            grid.require_resolution(2)

    def test_trapezoid_integral(self):
        grid = TimeGrid(TWO_PI, 2048)
        assert grid.integrate(np.sin(grid.times()) ** 2) == pytest.approx(
            math.pi, abs=1e-10)


class TestConvolve:
    def test_running_integral_of_cosine(self):
        grid = TimeGrid(TWO_PI, 4096)
        out = convolve(np.ones(grid.steps + 1), np.cos(grid.times()), grid)
        quarter = grid.steps // 4  # t = pi/2
        assert abs(out[quarter] - 1.0) < 1e-4

    def test_zero_factor(self):
        grid = TimeGrid(1.0, 64)
        out = convolve(np.zeros(65), np.arange(65.0), grid)
        assert np.all(out == 0.0)

    def test_exponential_pair_closed_form(self):
        grid = TimeGrid(1.0, 4096)
        e = np.exp(-grid.times())
        out = convolve(e, e, grid)
        assert abs(out[-1] - math.exp(-1.0)) < 1e-5  # t * exp(-t) at t = 1

    def test_first_sample_is_exactly_zero(self):
        grid = TimeGrid(1.0, 128)
        rng = np.random.default_rng(1)
        out = convolve(rng.standard_normal(129), rng.standard_normal(129), grid)
        assert out[0] == 0.0

    def test_length_mismatch(self):
        grid = TimeGrid(1.0, 64)
        with pytest.raises(ValueError):
            convolve(np.ones(65), np.ones(64), grid)


def test_second_kind_solver_against_exponential():
    # x = 1 + int_0^t x  has solution exp(t)
    grid = TimeGrid(1.0, 1024)
    ones = np.ones(grid.steps + 1)
    x = solve_volterra_second_kind(ones, ones, grid)
    assert np.max(np.abs(x - np.exp(grid.times()))) < 1e-6


class TestSolveMode:
    def test_elastic_limit_is_cosine(self, elastic_kernels, desk_grid):
        z = solve_mode(2, elastic_kernels, desk_grid)
        quarter = desk_grid.steps // 4  # t = pi/2
        assert abs(z.samples[quarter] - math.cos(math.pi)) < 5e-4
        z1 = solve_mode(1, elastic_kernels, desk_grid)
        assert abs(z1.samples[-1] - 1.0) < 5e-4

    def test_matches_oracle(self, desk_kernels, desk_grid):
        z = solve_mode(1, desk_kernels, desk_grid)
        ref = oracle_exponential_mode(1, DESK_KERNEL, desk_grid)
        assert np.max(np.abs(z.samples - ref.samples)) < 1e-5

    def test_even_in_mode_index(self, desk_kernels, desk_grid):
        plus = solve_mode(3, desk_kernels, desk_grid)
        minus = solve_mode(-3, desk_kernels, desk_grid)
        assert np.array_equal(plus.samples, minus.samples)

    def test_resolution_guard(self, desk_kernels, desk_grid):
        with pytest.raises(ValueError):
            solve_mode(4096, desk_kernels, desk_grid)

    def test_grid_mismatch(self, desk_kernels):
        with pytest.raises(ValueError):
            solve_mode(1, desk_kernels, TimeGrid(TWO_PI, 2048))

    def test_convergence_is_second_order(self):
        errs = []
        for steps in (2048, 4096):
            grid = TimeGrid(TWO_PI, steps)
            dk = derive_kernels(DESK_KERNEL, grid)
            z = solve_mode(4, dk, grid)
            ref = oracle_exponential_mode(4, DESK_KERNEL, grid)
            errs.append(np.max(np.abs(z.samples - ref.samples)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_elastic_error_scales_like_step_squared(self):
        errs = []
        for steps in (2048, 4096):
            grid = TimeGrid(TWO_PI, steps)
            dk = derive_kernels(ELASTIC_KERNEL, grid)
            z = solve_mode(8, dk, grid)
            errs.append(np.max(np.abs(z.samples - np.cos(8 * grid.times()))))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestModeDerivative:
    def test_elastic_derivative_is_negative_sine(self, elastic_kernels, desk_grid):
        z = solve_mode(1, elastic_kernels, desk_grid)
        dz = mode_derivative(z, elastic_kernels)
        assert dz.samples[0] == 0.0
        assert np.max(np.abs(dz.samples + np.sin(desk_grid.times()))) < 5e-4

    def test_initial_value_is_twice_alpha(self, desk_kernels, desk_grid):
        z = solve_mode(5, desk_kernels, desk_grid)
        dz = mode_derivative(z, desk_kernels)
        assert dz.samples[0] == 2.0 * desk_kernels.alpha

    def test_consistent_with_centered_differences(self, desk_kernels, desk_grid):
        # the finite-difference oracle itself carries a z''' h^2 / 6
        # truncation term, about 15 h^2 for this mode
        z = solve_mode(4, desk_kernels, desk_grid)
        dz = mode_derivative(z, desk_kernels)
        h = desk_grid.step
        fd = (z.samples[2:] - z.samples[:-2]) / (2.0 * h)
        assert np.max(np.abs(dz.samples[1:-1] - fd)) <= 20.0 * h ** 2

    def test_rejects_wrong_kind(self, desk_kernels, desk_grid):
        z = solve_mode(1, desk_kernels, desk_grid)
        dz = mode_derivative(z, desk_kernels)
        with pytest.raises(ValueError):
            mode_derivative(dz, desk_kernels)


class TestMomentKernel:
    def test_elastic_limit_is_complex_exponential(self, elastic_kernels, desk_grid):
        big = solve_moment_kernel(1, elastic_kernels, desk_grid)
        half = desk_grid.steps // 2  # t = pi
        assert abs(big.samples[half] - (-1.0 + 0.0j)) < 5e-4

    def test_conjugate_symmetry_is_exact(self, desk_kernels, desk_grid):
        plus = solve_moment_kernel(1, desk_kernels, desk_grid)
        minus = solve_moment_kernel(-1, desk_kernels, desk_grid)
        assert np.array_equal(np.conj(plus.samples), minus.samples)

    def test_assembly_starts_at_one(self, desk_kernels, desk_grid):
        z = solve_mode(2, desk_kernels, desk_grid)
        big = assemble_moment_kernel(z, desk_kernels)
        assert big.samples[0] == 1.0 + 0.0j

    def test_elastic_assembly_is_complex_exponential(self, elastic_kernels,
                                                     desk_grid):
        z = solve_mode(1, elastic_kernels, desk_grid)
        big = assemble_moment_kernel(z, elastic_kernels)
        t = desk_grid.times()
        assert np.max(np.abs(big.samples - np.exp(1j * t))) < 5e-4

    @pytest.mark.parametrize("n,factor", [(3, 5.0), (8, 5.0)])
    def test_routes_agree(self, desk_kernels, desk_grid, n, factor):
        stepped = solve_moment_kernel(n, desk_kernels, desk_grid)
        assembled = assemble_moment_kernel(
            solve_mode(n, desk_kernels, desk_grid), desk_kernels)
        dev = np.max(np.abs(stepped.samples - assembled.samples))
        assert dev <= factor * desk_grid.step ** 2

    def test_assembly_rejects_wrong_kind(self, desk_kernels, desk_grid):
        big = solve_moment_kernel(1, desk_kernels, desk_grid)
        with pytest.raises(ValueError):
            assemble_moment_kernel(big, desk_kernels)


class TestOracle:
    def test_elastic_degenerates_to_cosine(self, desk_grid):
        ref = oracle_exponential_mode(2, ELASTIC_KERNEL, desk_grid)
        assert np.max(np.abs(ref.samples - np.cos(2 * desk_grid.times()))) < 1e-9

    def test_self_convergence(self, desk_grid):
        a = oracle_exponential_mode(1, DESK_KERNEL, desk_grid, substeps=8)
        b = oracle_exponential_mode(1, DESK_KERNEL, desk_grid, substeps=16)
        assert abs(a.samples[-1] - b.samples[-1]) <= 1e-9

    def test_damped_envelope_bound(self, desk_grid):
        ref = oracle_exponential_mode(16, DESK_KERNEL, desk_grid)
        envelope = np.exp(DESK_KERNEL.alpha * desk_grid.times())
        assert np.all(np.abs(ref.samples) <= 1.1 * envelope)

    def test_rejects_polynomial_kernels(self, desk_grid):
        with pytest.raises(ValueError):
            oracle_exponential_mode(1, MemoryKernel.polynomial([0.2]), desk_grid)


def test_mode_trajectory_validation(desk_grid):
    with pytest.raises(ValueError):
        ModeTrajectory(0, TrajectoryKind.MODE, np.ones(desk_grid.steps + 1),
                       desk_grid)
    with pytest.raises(ValueError):
        ModeTrajectory(1, TrajectoryKind.MODE, np.ones(7), desk_grid)


def _reference_march(grid, kernel, local, weight, forcing, dtype):
    """One-mode march with scalar updates, as the solver did it before batching."""
    h = grid.step
    steps = grid.steps
    kern = np.ascontiguousarray(kernel, dtype=float)
    y = np.zeros(steps + 1, dtype=dtype)
    rhs = np.zeros(steps + 1, dtype=dtype)
    y[0] = 1.0
    rhs[0] = local * y[0] + (forcing[0] if forcing is not None else 0.0)
    denom = 1.0 - 0.5 * h * local + 0.25 * h * h * weight * kern[0]
    rev = np.ascontiguousarray(kern[::-1])
    buf = np.empty(steps, dtype=dtype)
    for k in range(1, steps + 1):
        m = k - 1
        hist = 0.5 * kern[k] * y[0]
        if m:
            np.multiply(rev[steps - k + 1 : steps], y[1:k], out=buf[:m])
            hist += buf[:m].sum()
        hist *= h
        g = forcing[k] if forcing is not None else 0.0
        ynew = (y[k - 1] + 0.5 * h * (rhs[k - 1] + g - weight * hist)) / denom
        y[k] = ynew
        rhs[k] = local * ynew - weight * (hist + 0.5 * h * kern[0] * ynew) + g
    return y


@pytest.mark.parametrize("kernel", [DESK_KERNEL, ELASTIC_KERNEL],
                         ids=["desk", "elastic"])
def test_batched_engine_matches_per_mode_reference(kernel):
    grid = TimeGrid(TWO_PI, 1024)
    dk = derive_kernels(kernel, grid)
    ns = [3, -1, 16, 1, -3]
    modes = solve_modes(ns, dk, grid)
    kernels_z = solve_moment_kernels(ns, dk, grid)
    for n, y, z in zip(ns, modes, kernels_z):
        assert (y.n, z.n) == (n, n)
        weight = float(n) * float(n)
        ref_y = _reference_march(grid, dk.relaxation_scaled, 2.0 * dk.alpha,
                                 weight, None, float)
        forcing = dk.velocity_kernel + 1j * float(n) * dk.stress_kernel
        ref_z = _reference_march(grid, dk.relaxation_scaled, 2.0 * dk.alpha,
                                 weight, forcing, complex)
        assert np.max(np.abs(y.samples - ref_y)) <= 1e-13 * np.max(np.abs(ref_y))
        assert np.max(np.abs(z.samples - ref_z)) <= 1e-13 * np.max(np.abs(ref_z))
    by_n = {z.n: z.samples for z in kernels_z}
    for n in (1, 3):
        assert np.array_equal(by_n[-n], np.conj(by_n[n]))
    with pytest.raises(ValueError):
        solve_modes([1, 0], dk, grid)
    with pytest.raises(ValueError):
        solve_moment_kernels([0], dk, grid)
    with pytest.raises(ValueError):
        solve_modes([1, 17], dk, grid)  # step * 17 > RESOLUTION_LIMIT
    with pytest.raises(ValueError):
        solve_moment_kernels([-17], dk, grid)


def test_batch_rows_are_read_only_views(desk_kernels, desk_grid):
    modes = solve_modes([1, 2], desk_kernels, desk_grid)
    assert modes[0].samples.base is modes[1].samples.base
    assert not modes[0].samples.flags.writeable
