import math

import numpy as np
import pytest

from viscostring import (
    ControlSignal,
    MemoryKernel,
    MomentTarget,
    TimeGrid,
    TrendVerdict,
    check_convolution_asymptotics,
    check_mode_asymptotics,
    check_mode_derivative_asymptotics,
    check_resolvent_identity,
    check_stress_deformation_gap,
    closed_loop_roundtrip,
    derive_kernels,
    simulate_coefficients,
)
from viscostring.harness import bump_control, random_unit_target

from conftest import DESK_KERNEL, TWO_PI


class TestModeAsymptotics:
    def test_desk_kernel_is_bounded(self, desk_kernels, desk_grid):
        report = check_mode_asymptotics(desk_kernels, desk_grid, range(1, 33))
        assert report.verdict is TrendVerdict.BOUNDED

    def test_elastic_deviations_are_quadrature_level(self, elastic_kernels,
                                                     desk_grid):
        report = check_mode_asymptotics(elastic_kernels, desk_grid, range(1, 5))
        assert np.max(report.deviations) < 1e-3

    def test_symmetric_in_mode_sign(self, desk_kernels, desk_grid):
        report = check_mode_asymptotics(desk_kernels, desk_grid, [4, -4])
        assert report.deviations[0] == report.deviations[1]

    def test_precomputed_modes_give_the_same_reports(self, desk_kernels,
                                                     desk_grid, desk_modes_32):
        ns = [1, 4, -4, 8]
        checks = [
            lambda **kw: check_mode_asymptotics(desk_kernels, desk_grid, ns, **kw),
            lambda **kw: check_mode_derivative_asymptotics(desk_kernels, desk_grid,
                                                           ns, **kw),
            lambda **kw: check_convolution_asymptotics(
                desk_kernels, desk_grid, DESK_KERNEL, ns, **kw),
        ]
        for check in checks:
            np.testing.assert_allclose(check(mode_family=desk_modes_32).deviations,
                                       check().deviations, rtol=1e-10)
        assert check_resolvent_identity(desk_kernels, desk_grid, -2) \
            == check_resolvent_identity(desk_kernels, desk_grid, 2,
                                        mode_family=desk_modes_32)
        with pytest.raises(ValueError):
            check_mode_asymptotics(desk_kernels, desk_grid, [9],
                                   mode_family=desk_modes_32[:8])

    def test_heavily_damped_kernel_rejected(self, desk_grid):
        kernels = derive_kernels(MemoryKernel.exponential_sum([(3.0, 1.0)]),
                                 desk_grid)
        with pytest.raises(ValueError):
            check_mode_asymptotics(kernels, desk_grid, range(1, 3))

    def test_deviation_converges_under_refinement(self):
        # successive deviation differences shrink at order >= 1.5
        values = []
        for steps in (1024, 2048, 4096):
            grid = TimeGrid(TWO_PI, steps)
            kernels = derive_kernels(DESK_KERNEL, grid)
            rep = check_mode_asymptotics(kernels, grid, [4, 5])
            values.append(rep.deviations[0])
        d1 = abs(values[0] - values[1])
        d2 = abs(values[1] - values[2])
        assert math.log2(d1 / d2) >= 1.5


class TestDerivativeAsymptotics:
    def test_desk_kernel_is_bounded(self, desk_kernels, desk_grid):
        report = check_mode_derivative_asymptotics(desk_kernels, desk_grid,
                                                   range(1, 33))
        assert report.verdict is TrendVerdict.BOUNDED

    def test_elastic_deviations_small(self, elastic_kernels, desk_grid):
        report = check_mode_derivative_asymptotics(elastic_kernels, desk_grid,
                                                   range(1, 5))
        assert np.max(report.deviations) < 1e-3

    def test_symmetric_in_mode_sign(self, desk_kernels, desk_grid):
        report = check_mode_derivative_asymptotics(desk_kernels, desk_grid,
                                                   [3, -3])
        assert report.deviations[0] == report.deviations[1]


class TestConvolutionAsymptotics:
    def test_zero_factor_vanishes(self, desk_kernels, desk_grid):
        zeros = np.zeros(desk_grid.steps + 1)
        report = check_convolution_asymptotics(desk_kernels, desk_grid,
                                               (zeros, 0.0), range(1, 5))
        assert np.max(report.deviations) == 0.0

    def test_elastic_constant_factor_is_exact(self, elastic_kernels, desk_grid):
        ones = np.ones(desk_grid.steps + 1)
        report = check_convolution_asymptotics(elastic_kernels, desk_grid,
                                               (ones, 1.0), range(1, 5))
        assert np.max(report.deviations) < 5e-4

    def test_stress_kernel_factor_is_bounded(self, desk_kernels, desk_grid):
        report = check_convolution_asymptotics(
            desk_kernels, desk_grid, (desk_kernels.stress_kernel, 1.0),
            range(1, 33))
        assert report.verdict is TrendVerdict.BOUNDED

    def test_memory_kernel_factor(self, desk_kernels, desk_grid):
        report = check_convolution_asymptotics(desk_kernels, desk_grid,
                                               DESK_KERNEL, range(1, 17))
        assert report.verdict is TrendVerdict.BOUNDED


class TestResolventIdentity:
    def test_elastic_residual_is_quadrature_level(self, elastic_kernels,
                                                  desk_grid):
        assert check_resolvent_identity(elastic_kernels, desk_grid, 2) < 1e-4

    def test_desk_residual_within_budget(self, desk_kernels, desk_grid):
        residual = check_resolvent_identity(desk_kernels, desk_grid, 2)
        assert residual <= 200.0 * desk_grid.step ** 2

    def test_second_order_in_step(self):
        residuals = []
        for steps in (1024, 2048):
            grid = TimeGrid(TWO_PI, steps)
            kernels = derive_kernels(DESK_KERNEL, grid)
            residuals.append(check_resolvent_identity(kernels, grid, 2))
        assert residuals[0] / residuals[1] >= 3.0

    def test_symmetric_in_mode_sign(self, desk_kernels, desk_grid):
        assert check_resolvent_identity(desk_kernels, desk_grid, 2) \
            == check_resolvent_identity(desk_kernels, desk_grid, -2)


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

    def test_dual_construction_accepts(self, poly_kernels, desk_grid):
        from viscostring import build_family
        family = build_family(poly_kernels, desk_grid, 8)
        assert len(family) == 8

    def test_mode_asymptotics_bounded(self, poly_kernels, desk_grid):
        report = check_mode_asymptotics(poly_kernels, desk_grid, range(1, 17))
        assert report.verdict is TrendVerdict.BOUNDED

    def test_resolvent_identity(self, poly_kernels, desk_grid):
        residual = check_resolvent_identity(poly_kernels, desk_grid, 2)
        assert residual <= 200.0 * desk_grid.step ** 2


class TestRoundtrip:
    def test_zero_target(self, desk_kernels, desk_grid):
        trip = closed_loop_roundtrip(desk_kernels, desk_grid,
                                     MomentTarget.zero(4))
        assert trip.relative_error == 0.0
        assert np.all(trip.synthesis.control.samples == 0.0)

    def test_elastic_single_mode(self, elastic_kernels, desk_grid):
        target = MomentTarget(np.array([1.0, 0.0]), np.zeros(2))
        trip = closed_loop_roundtrip(elastic_kernels, desk_grid, target)
        assert trip.relative_error <= 1e-3

    def test_desk_seeded_target(self, desk_kernels, desk_grid):
        target = random_unit_target(99, 8)
        trip = closed_loop_roundtrip(desk_kernels, desk_grid, target)
        assert trip.relative_error <= 1e-2
        assert trip.synthesis.lambda_min > 0.0
