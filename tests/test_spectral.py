import math

import numpy as np
import pytest

from viscostring import (
    ControlSignal,
    SpectralState,
    TimeGrid,
    coefficient_norms,
    mode_params,
    reconstruct_field,
    simulate_coefficients,
    solve_moment_kernel,
)
from viscostring.errors import ExceptionalIndexError
from viscostring.volterra import convolve

from conftest import TWO_PI


def make_state(w=None, v=None, sigma=None, n_max=8, alpha=0.0, horizon=TWO_PI):
    zeros = np.zeros(n_max)
    return SpectralState(
        horizon=horizon, alpha=alpha,
        deformation=np.array(w) if w is not None else zeros.copy(),
        velocity=np.array(v) if v is not None else zeros.copy(),
        stress=np.array(sigma) if sigma is not None else zeros.copy(),
        integrated_stress=zeros.copy(),
    )


class TestModeParams:
    def test_elastic_values(self):
        par = mode_params(5, 0.0)
        assert par.beta == 5.0
        assert par.mu == 1.0

    def test_desk_values(self):
        par = mode_params(1, -0.2)
        assert par.beta == pytest.approx(math.sqrt(0.96), abs=1e-12)
        assert par.mu == pytest.approx(1.0 / 0.96, rel=1e-14)

    def test_exceptional_index(self):
        with pytest.raises(ExceptionalIndexError):
            mode_params(1, -1.0)

    def test_heavy_damping_gives_imaginary_frequency(self):
        # alpha^2 > n^2 has no real frequency, so the mode is rejected
        with pytest.raises(ValueError, match="n=1"):
            mode_params(1, -1.5)
        assert mode_params(2, -1.5).beta == pytest.approx(math.sqrt(1.75))

    def test_symmetry_in_index(self):
        assert mode_params(-7, -0.2).beta == mode_params(7, -0.2).beta


class TestSimulate:
    def test_zero_control_gives_zero_state(self, desk_kernels, desk_grid,
                                           desk_modes_32):
        control = ControlSignal(np.zeros(desk_grid.steps + 1), desk_grid)
        state = simulate_coefficients(control, desk_modes_32, desk_kernels)
        assert np.all(state.deformation == 0.0)
        assert np.all(state.velocity == 0.0)
        assert np.all(state.stress == 0.0)
        assert np.all(state.integrated_stress == 0.0)

    def test_elastic_stress_equals_deformation_exactly(self, elastic_kernels,
                                                       desk_grid,
                                                       elastic_modes_16):
        rng = np.random.default_rng(5)
        control = ControlSignal(rng.standard_normal(desk_grid.steps + 1),
                                desk_grid)
        state = simulate_coefficients(control, elastic_modes_16, elastic_kernels)
        assert np.array_equal(state.stress, state.deformation)

    def test_elastic_single_mode_moment(self, elastic_kernels, desk_grid,
                                        elastic_modes_16):
        control = ControlSignal(np.cos(desk_grid.times()) / math.pi, desk_grid)
        state = simulate_coefficients(control, elastic_modes_16, elastic_kernels)
        assert abs(state.velocity[0] - 1.0) < 1e-3
        assert abs(state.stress[0]) < 1e-3

    def test_moment_pairing_consistency(self, desk_kernels, desk_grid,
                                        desk_modes_32):
        # v_n + i sigma_n assembled from the two real series must match the
        # complex pairing against the stepped moment kernel
        control = ControlSignal(np.sin(desk_grid.times()), desk_grid)
        state = simulate_coefficients(control, desk_modes_32, desk_kernels)
        pairing = desk_grid.trapezoid_weights() \
            * control.reweighted(desk_kernels.alpha)[::-1]
        for n in (1, 4, 16):
            big = solve_moment_kernel(n, desk_kernels)
            moment = np.sum(pairing * big.samples)
            assembled = state.velocity[n - 1] + 1j * state.stress[n - 1]
            assert abs(moment - assembled) <= 5.0 * desk_grid.step ** 2

    def test_linearity(self, desk_kernels, desk_grid, desk_modes_32):
        rng = np.random.default_rng(11)
        f1 = rng.standard_normal(desk_grid.steps + 1)
        f2 = rng.standard_normal(desk_grid.steps + 1)
        family = desk_modes_32[:8]
        s1 = simulate_coefficients(ControlSignal(f1, desk_grid), family,
                                   desk_kernels)
        s2 = simulate_coefficients(ControlSignal(f2, desk_grid), family,
                                   desk_kernels)
        s12 = simulate_coefficients(ControlSignal(f1 + f2, desk_grid), family,
                                    desk_kernels)
        assert np.allclose(s12.velocity, s1.velocity + s2.velocity,
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(s12.stress, s1.stress + s2.stress,
                           rtol=1e-12, atol=1e-12)

    def test_control_validation(self, desk_grid):
        bad = np.ones(desk_grid.steps + 1)
        bad[3] = math.inf
        with pytest.raises(ValueError):
            ControlSignal(bad, desk_grid)
        with pytest.raises(ValueError):
            ControlSignal(np.ones(12), desk_grid)

    def test_grid_mismatch(self, desk_kernels, desk_grid, desk_modes_32):
        other = TimeGrid(TWO_PI, 2048)
        control = ControlSignal(np.zeros(other.steps + 1), other)
        with pytest.raises(ValueError):
            simulate_coefficients(control, desk_modes_32, desk_kernels)


def _reference_functionals(control, family, kernels):
    """Per-mode convolution series, as the functionals were evaluated before
    they became dot products with precomputed representers."""
    grid = control.grid
    fw = control.reweighted(kernels.alpha)
    pairing = grid.trapezoid_weights() * fw[::-1]
    out = np.empty((len(family), 4))
    for traj in family:
        n = float(traj.n)
        y = traj.samples
        stress = n * convolve(kernels.stress_kernel, y, grid)
        out[traj.n - 1] = (
            np.sum(pairing * n * convolve(kernels.relaxation_scaled, y, grid)),
            np.sum(pairing * (y + convolve(kernels.velocity_kernel, y, grid))),
            np.sum(pairing * stress),
            grid.integrate(convolve(fw, stress, grid)),
        )
    return out


@pytest.mark.parametrize("control_kind", ["cosine", "random"])
@pytest.mark.parametrize("family_name", ["desk", "elastic"])
def test_functionals_match_per_mode_reference(request, desk_grid, family_name,
                                              control_kind):
    kernels = request.getfixturevalue(f"{family_name}_kernels")
    family = request.getfixturevalue(
        "desk_modes_32" if family_name == "desk" else "elastic_modes_16")
    if control_kind == "cosine":
        samples = 0.7 * np.cos(1.3 * desk_grid.times())
    else:
        samples = np.random.default_rng(23).standard_normal(desk_grid.steps + 1)
    control = ControlSignal(samples, desk_grid)
    state = simulate_coefficients(control, family, kernels)
    got = np.stack([state.deformation, state.velocity, state.stress,
                    state.integrated_stress], axis=1)
    ref = _reference_functionals(control, family, kernels)
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-13 * scale)


class TestReconstruct:
    def test_zero_state(self):
        field = reconstruct_field(make_state(), "deformation",
                                  np.linspace(0, math.pi, 11))
        assert np.all(field == 0.0)

    def test_single_deformation_mode(self):
        state = make_state(w=[1.0] + [0.0] * 7)
        val = reconstruct_field(state, "deformation", [math.pi / 2.0])[0]
        assert val == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_velocity_vanishes_at_both_ends(self):
        state = make_state(v=list(np.arange(1.0, 9.0)))
        vals = reconstruct_field(state, "velocity", [0.0, math.pi])
        assert np.max(np.abs(vals)) < 1e-12

    def test_rejects_out_of_range_points(self):
        with pytest.raises(ValueError):
            reconstruct_field(make_state(), "stress", [-0.1])
        with pytest.raises(ValueError):
            reconstruct_field(make_state(), "stress", [math.pi + 0.1])
        with pytest.raises(ValueError):
            reconstruct_field(make_state(), "pressure", [0.5])


class TestNorms:
    def test_zero_state(self):
        norms = coefficient_norms(make_state())
        assert norms.l2_deformation == 0.0
        assert norms.hminus1_velocity == 0.0
        assert norms.hminus1_stress == 0.0

    def test_single_velocity_coefficient(self):
        v = np.zeros(8)
        v[6] = 3.0
        assert coefficient_norms(make_state(v=v)).hminus1_velocity == 3.0

    def test_two_stress_coefficients(self):
        sigma = np.zeros(8)
        sigma[0] = sigma[1] = 1.0
        assert coefficient_norms(make_state(sigma=sigma)).hminus1_stress \
            == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_physical_scale_records_the_prefactor():
    state = make_state(alpha=-0.2, horizon=TWO_PI)
    assert state.physical_scale == pytest.approx(
        math.exp(0.4 * TWO_PI) * 2.0 / math.pi, rel=1e-14)
