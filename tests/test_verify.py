import math

import numpy as np
import pytest

from viscostring import (
    ControlSignal,
    MemoryKernel,
    ModeFamily,
    MomentTarget,
    TimeGrid,
    TrajectoryKind,
    TrendVerdict,
    check_convolution_asymptotics,
    check_mode_asymptotics,
    check_mode_derivative_asymptotics,
    check_resolvent_identity,
    check_stress_deformation_gap,
    closed_loop_roundtrip,
    convolve,
    derive_kernels,
    mode_params,
    simulate_coefficients,
    solve_mode,
    solve_modes,
    solve_volterra_second_kind,
)
from viscostring.harness import bump_control, random_unit_target

from conftest import DESK_KERNEL, TWO_PI, moment_family


def _reference_resolvent_residual(kernel, grid, n, y):
    """One mode's residual, from kernels derived as the full kernel set did."""
    t = grid.times()
    alpha = kernel.alpha
    scale = np.exp(2.0 * alpha * t)
    m0, m1, m2 = kernel.memory(t), kernel.memory_d1(t), kernel.memory_d2(t)
    relax = kernel.relaxation(t)
    na_d1 = scale * (2.0 * alpha * relax + m0)
    na_d2 = scale * (4.0 * alpha * alpha * relax + 4.0 * alpha * m0 + m1)
    na_d3 = scale * (8.0 * alpha ** 3 * relax + 12.0 * alpha * alpha * m0
                     + 6.0 * alpha * m1 + m2)
    q0 = na_d2 - alpha * na_d1
    q0_d1 = na_d3 - alpha * na_d2
    q1 = alpha * q0 - q0_d1
    resolvent = solve_volterra_second_kind(-na_d1, -na_d1, grid)

    par = mode_params(n, alpha)
    beta = par.beta.real if isinstance(par.beta, complex) else par.beta
    mu = par.mu.real if isinstance(par.mu, complex) else par.mu
    damped_sin = par.damped_sin(t)
    base = par.profile(t)
    correction = (1.0 - mu) * convolve(na_d1, y, grid)
    ring = float(q0[0]) * (mu / beta) * convolve(damped_sin, y, grid)
    inner = convolve(q1, damped_sin, grid)
    double = (mu / beta) * convolve(inner, y, grid)
    assembled = base + correction + ring - double
    reconstructed = assembled + convolve(resolvent, assembled, grid)
    return float(np.max(np.abs(y - reconstructed)))


class TestModeAsymptotics:
    def test_desk_kernel_is_bounded(self, desk_kernels):
        report = check_mode_asymptotics(desk_kernels,
                                        solve_modes(range(1, 33), desk_kernels))
        assert report.verdict is TrendVerdict.BOUNDED

    def test_elastic_deviations_are_quadrature_level(self, elastic_kernels):
        report = check_mode_asymptotics(elastic_kernels,
                                        solve_modes(range(1, 5), elastic_kernels))
        assert np.max(report.deviations) < 1e-3

    def test_precomputed_modes_give_the_same_reports(self, desk_kernels):
        # one batch against per-mode solves of the same indices
        ns = [1, 4, 8]
        batch = solve_modes(ns, desk_kernels)
        per_mode = ModeFamily(ns, TrajectoryKind.MODE, np.concatenate(
            [solve_mode(n, desk_kernels).samples for n in ns]), desk_kernels.grid)
        checks = [
            lambda modes: check_mode_asymptotics(desk_kernels, modes),
            lambda modes: check_mode_derivative_asymptotics(desk_kernels, modes),
            lambda modes: check_convolution_asymptotics(
                desk_kernels, DESK_KERNEL.memory(desk_kernels.grid.times()), modes),
        ]
        for check in checks:
            np.testing.assert_allclose(check(per_mode).deviations,
                                       check(batch).deviations, rtol=1e-10)
        # residuals are differences of O(1) samples: round-off is absolute
        np.testing.assert_allclose(check_resolvent_identity(desk_kernels, per_mode),
                                   check_resolvent_identity(desk_kernels, batch),
                                   rtol=0, atol=1e-14)

    def test_heavily_damped_kernel_rejected(self, desk_grid):
        kernels = derive_kernels(MemoryKernel.exponential_sum([(3.0, 1.0)]),
                                 desk_grid)
        modes = solve_modes(range(1, 3), kernels)
        with pytest.raises(ValueError):
            check_mode_asymptotics(kernels, modes)

    def test_deviation_converges_under_refinement(self):
        # successive deviation differences shrink at order >= 1.5
        values = []
        for steps in (1024, 2048, 4096):
            grid = TimeGrid(TWO_PI, steps)
            kernels = derive_kernels(DESK_KERNEL, grid)
            rep = check_mode_asymptotics(kernels, solve_modes([4, 5], kernels))
            values.append(rep.deviations[0])
        d1 = abs(values[0] - values[1])
        d2 = abs(values[1] - values[2])
        assert math.log2(d1 / d2) >= 1.5


class TestDerivativeAsymptotics:
    def test_desk_kernel_is_bounded(self, desk_kernels):
        report = check_mode_derivative_asymptotics(
            desk_kernels, solve_modes(range(1, 33), desk_kernels))
        assert report.verdict is TrendVerdict.BOUNDED

    def test_elastic_deviations_small(self, elastic_kernels):
        report = check_mode_derivative_asymptotics(
            elastic_kernels, solve_modes(range(1, 5), elastic_kernels))
        assert np.max(report.deviations) < 1e-3


class TestConvolutionAsymptotics:
    def test_zero_factor_vanishes(self, desk_kernels, desk_grid):
        zeros = np.zeros(desk_grid.steps + 1)
        report = check_convolution_asymptotics(
            desk_kernels, zeros, solve_modes(range(1, 5), desk_kernels))
        assert np.max(report.deviations) == 0.0

    def test_elastic_constant_factor_is_exact(self, elastic_kernels, desk_grid):
        ones = np.ones(desk_grid.steps + 1)
        report = check_convolution_asymptotics(
            elastic_kernels, ones, solve_modes(range(1, 5), elastic_kernels))
        assert np.max(report.deviations) < 5e-4

    def test_stress_kernel_factor_is_bounded(self, desk_kernels):
        report = check_convolution_asymptotics(
            desk_kernels, desk_kernels.stress_kernel,
            solve_modes(range(1, 33), desk_kernels))
        assert report.verdict is TrendVerdict.BOUNDED

    def test_memory_kernel_factor(self, desk_kernels):
        report = check_convolution_asymptotics(
            desk_kernels, DESK_KERNEL.memory(desk_kernels.grid.times()),
            solve_modes(range(1, 17), desk_kernels))
        assert report.verdict is TrendVerdict.BOUNDED


class TestResolventIdentity:
    def test_elastic_residual_is_quadrature_level(self, elastic_kernels):
        (residual,) = check_resolvent_identity(elastic_kernels,
                                               solve_modes([2], elastic_kernels))
        assert residual < 1e-4

    def test_desk_residual_within_budget(self, desk_kernels, desk_grid):
        (residual,) = check_resolvent_identity(desk_kernels,
                                               solve_modes([2], desk_kernels))
        assert residual <= 200.0 * desk_grid.step ** 2

    def test_second_order_in_step(self):
        residuals = []
        for steps in (1024, 2048):
            grid = TimeGrid(TWO_PI, steps)
            kernels = derive_kernels(DESK_KERNEL, grid)
            residuals.extend(check_resolvent_identity(kernels,
                                                      solve_modes([2], kernels)))
        assert residuals[0] / residuals[1] >= 3.0

    @pytest.mark.parametrize("kernel", [
        DESK_KERNEL,
        MemoryKernel.polynomial([0.3, -0.1, 0.02, 0.0, 0.001]),
        MemoryKernel.zero(),
    ], ids=["desk", "polynomial", "zero"])
    def test_matches_the_per_mode_reference(self, desk_grid, kernel):
        kernels = derive_kernels(kernel, desk_grid)
        ns = [1, 2, 4, 8]
        modes = solve_modes(ns, kernels)
        want = [_reference_resolvent_residual(kernel, desk_grid, n, y)
                for n, y in zip(ns, modes.samples)]
        assert check_resolvent_identity(kernels, modes) == want


class TestStressDeformationGap:
    def test_elastic_gap_is_exactly_zero(self, elastic_kernels, desk_grid,
                                         elastic_modes_16):
        control = bump_control(desk_grid, 1.0, math.pi, 2.0)
        state = simulate_coefficients(control, elastic_modes_16,
                                      elastic_kernels)
        report = check_stress_deformation_gap(state)
        assert np.all(report.deviations == 0.0)
        assert report.verdict is TrendVerdict.BOUNDED

    def test_zero_control_gap(self, desk_kernels, desk_grid, desk_modes_32):
        control = ControlSignal(np.zeros(desk_grid.steps + 1), desk_grid)
        state = simulate_coefficients(control, desk_modes_32, desk_kernels)
        report = check_stress_deformation_gap(state)
        assert np.all(report.deviations == 0.0)

    def test_bump_control_is_bounded(self, desk_kernels, desk_grid,
                                     desk_modes_32):
        control = bump_control(desk_grid, 1.0, math.pi, 2.0)
        state = simulate_coefficients(control, desk_modes_32, desk_kernels)
        assert check_stress_deformation_gap(state).verdict \
            is TrendVerdict.BOUNDED

    def test_verdict_is_scale_invariant(self, desk_kernels, desk_grid,
                                        desk_modes_32):
        control = bump_control(desk_grid, 1.0, math.pi, 2.0)
        scaled = ControlSignal(7.25 * control.samples, desk_grid)
        state = simulate_coefficients(control, desk_modes_32, desk_kernels)
        state_scaled = simulate_coefficients(scaled, desk_modes_32,
                                             desk_kernels)
        a = check_stress_deformation_gap(state)
        b = check_stress_deformation_gap(state_scaled)
        assert a.verdict is b.verdict
        assert np.allclose(b.deviations, 7.25 * a.deviations, rtol=1e-10)


@pytest.fixture(scope="module")
def poly_kernels(desk_grid):
    kernel = MemoryKernel.polynomial([0.3, -0.1, 0.02, 0.0, 0.001])
    return derive_kernels(kernel, desk_grid)


class TestPolynomialKernelValidation:
    """Polynomial kernels have no ODE-system oracle; their validation
    rests on the dual moment-kernel construction and the identity checks."""

    def test_dual_construction_accepts(self, poly_kernels):
        family = moment_family(poly_kernels, 8)
        assert len(family) == 8

    def test_mode_asymptotics_bounded(self, poly_kernels):
        report = check_mode_asymptotics(poly_kernels,
                                        solve_modes(range(1, 17), poly_kernels))
        assert report.verdict is TrendVerdict.BOUNDED

    def test_resolvent_identity(self, poly_kernels, desk_grid):
        (residual,) = check_resolvent_identity(poly_kernels,
                                               solve_modes([2], poly_kernels))
        assert residual <= 200.0 * desk_grid.step ** 2


class TestRoundtrip:
    def test_zero_target(self, desk_kernels):
        trip = closed_loop_roundtrip(desk_kernels, MomentTarget.zero(4),
                                     solve_modes(range(1, 5), desk_kernels))
        assert trip.relative_error == 0.0
        assert np.all(trip.synthesis.control.samples == 0.0)

    def test_elastic_single_mode(self, elastic_kernels):
        target = MomentTarget(np.array([1.0, 0.0]), np.zeros(2))
        trip = closed_loop_roundtrip(elastic_kernels, target,
                                     solve_modes(range(1, 3), elastic_kernels))
        assert trip.relative_error <= 1e-3

    def test_desk_seeded_target(self, desk_kernels):
        target = random_unit_target(99, 8)
        trip = closed_loop_roundtrip(desk_kernels, target,
                                     solve_modes(range(1, 9), desk_kernels))
        assert trip.relative_error <= 1e-2
        assert trip.synthesis.lambda_min > 0.0

    def test_state_covers_the_whole_family(self, desk_kernels,
                                           desk_modes_32):
        target = random_unit_target(99, 8)
        own = closed_loop_roundtrip(desk_kernels, target,
                                    solve_modes(range(1, 9), desk_kernels))
        tail = closed_loop_roundtrip(desk_kernels, target, desk_modes_32[:16])
        assert own.state.n_max == 8
        assert tail.state.n_max == 16
        assert len(tail.achieved) == 8
        assert np.array_equal(tail.achieved, tail.state.velocity[:8]
                              + 1j * tail.state.stress[:8])
        # the tail is unconstrained, the steered modes agree with the short run
        np.testing.assert_allclose(tail.achieved, own.achieved, rtol=0, atol=1e-12)
        assert tail.relative_error == pytest.approx(own.relative_error, rel=1e-9)
