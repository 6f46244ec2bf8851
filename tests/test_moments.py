import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viscostring import (
    MomentTarget,
    TimeGrid,
    build_family,
    convolve,
    derive_kernels,
    finite_pair_control,
    frame_bounds,
    gram,
    mode_params,
    quadratic_closeness,
    simulate_coefficients,
    solve_modes,
    synthesize_control,
)
from viscostring import moments
from viscostring.errors import ElasticDegeneracyError, NearSingularGramError

from conftest import DESK_KERNEL, ELASTIC_KERNEL, TWO_PI


@pytest.fixture(scope="module")
def desk_family_8(desk_kernels, desk_modes_32):
    return build_family(desk_kernels, 8,
                        mode_family=desk_modes_32[:8])


@pytest.fixture(scope="module")
def desk_gram_8(desk_family_8):
    return gram(desk_family_8)


class TestTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            MomentTarget(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            MomentTarget(np.array([]), np.array([]))

    def test_conjugate_extension(self):
        target = MomentTarget(np.array([1.0, 0.0]), np.array([0.5, -2.0]))
        values = target.gamma_for([1, 2, -1, -2])
        assert values[0] == 1.0 + 0.5j
        assert values[2] == np.conj(values[0])
        assert values[3] == np.conj(values[1])


class TestFamily:
    def test_elastic_family_matches_exponentials(self, elastic_kernels,
                                                 desk_grid):
        family = build_family(elastic_kernels, 4)
        t = desk_grid.times()
        for n, traj in enumerate(family, start=1):
            assert np.max(np.abs(traj.samples - np.exp(1j * n * t))) < 5e-4

    def test_family_starts_at_one(self, desk_family_8):
        for traj in desk_family_8:
            assert traj.samples[0] == 1.0 + 0.0j

    def test_cross_check_accepts_desk_kernel_at_16(self, desk_kernels,
                                                   desk_modes_32):
        family = build_family(desk_kernels, 16,
                              mode_family=desk_modes_32[:16])
        assert len(family) == 16


class TestGram:
    def test_elastic_full_period_is_diagonal(self, elastic_kernels):
        family = build_family(elastic_kernels, 3)
        system = gram(family)
        assert np.max(np.abs(system.matrix - TWO_PI * np.eye(6))) < 1e-3
        assert system.lambda_min == pytest.approx(TWO_PI, abs=1e-3)

    def test_elastic_half_period_pair(self):
        grid = TimeGrid(math.pi, 2048)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        system = gram(build_family(kernels, 1))
        # indices (1, -1): diagonal pi, off-diagonal integral of e^{2it}
        assert system.matrix[0, 0].real == pytest.approx(math.pi, abs=1e-3)
        assert abs(system.matrix[0, 1]) < 1e-3

    def test_hermitian_by_construction(self, desk_gram_8):
        dev = np.max(np.abs(desk_gram_8.matrix - desk_gram_8.matrix.conj().T))
        assert dev <= 1e-12

    def test_eigen_extremes_match_lapack(self, desk_gram_8):
        ref = np.linalg.eigvalsh(desk_gram_8.matrix)
        assert desk_gram_8.lambda_min == pytest.approx(ref[0], rel=1e-8)
        assert desk_gram_8.lambda_max == pytest.approx(ref[-1], rel=1e-8)

    def test_extremes_are_squared_singular_values(self, desk_family_8,
                                                  desk_gram_8, desk_grid):
        rows = np.vstack([t.samples for t in desk_family_8]
                         + [np.conj(t.samples) for t in desk_family_8])
        _assert_squared_singular_values(desk_gram_8, rows, desk_grid)

    def test_factor_reproduces_weighted_samples(self, desk_family_8,
                                                desk_gram_8, desk_grid):
        q = desk_gram_8.orthonormal
        assert np.max(np.abs(q @ q.conj().T - np.eye(16))) <= 1e-13
        rows = np.vstack([t.samples for t in desk_family_8]
                         + [np.conj(t.samples) for t in desk_family_8])
        weighted = rows * np.sqrt(desk_grid.trapezoid_weights())
        assert np.allclose(desk_gram_8.lower @ q, weighted, rtol=0,
                           atol=1e-13)
        assert np.all(np.triu(desk_gram_8.lower, 1) == 0)


class TestSynthesize:
    def test_elastic_single_mode_recovers_cosine(self, elastic_kernels,
                                                 desk_grid):
        family = build_family(elastic_kernels, 3)
        system = gram(family)
        target = MomentTarget(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        report = synthesize_control(system, target, alpha=0.0)
        expected = np.cos(desk_grid.times()) / math.pi
        assert np.max(np.abs(report.control.samples - expected)) < 1e-3
        assert report.max_relative_residual < 1e-3

    def test_zero_target_gives_zero_control(self, desk_gram_8):
        report = synthesize_control(desk_gram_8, MomentTarget.zero(8),
                                    alpha=-0.2)
        assert np.all(report.control.samples == 0.0)
        assert np.all(report.residuals == 0.0)

    def test_random_target_residual_and_reality(self, desk_gram_8):
        rng = np.random.default_rng(3)
        vec = rng.uniform(-1.0, 1.0, 16)
        vec /= np.linalg.norm(vec)
        target = MomentTarget(vec[:8], vec[8:])
        report = synthesize_control(desk_gram_8, target, alpha=-0.2)
        assert report.max_relative_residual <= 1e-6
        assert report.imag_fraction <= 1e-10

    def test_minimal_norm_identity(self, desk_gram_8):
        target = MomentTarget(np.ones(8) / 4.0, np.zeros(8))
        report = synthesize_control(desk_gram_8, target, alpha=-0.2)
        gamma = target.gamma_for(desk_gram_8.indices)
        quad = np.real(np.vdot(report.coefficients,
                               desk_gram_8.matrix @ report.coefficients))
        assert report.control_norm ** 2 == pytest.approx(quad, rel=1e-8)
        direct = np.real(np.vdot(gamma, np.linalg.solve(desk_gram_8.matrix,
                                                        gamma)))
        assert report.control_norm ** 2 == pytest.approx(direct, rel=1e-8)

    def test_target_size_must_match_family(self, desk_gram_8):
        with pytest.raises(ValueError):
            synthesize_control(desk_gram_8, MomentTarget.zero(5), alpha=-0.2)

    def test_short_horizon_warns_and_collapse_raises(self):
        grid = TimeGrid(math.pi / 2.0, 1024)
        kernels = derive_kernels(DESK_KERNEL, grid)
        family = build_family(kernels, 16)
        system = gram(family)
        with pytest.warns(UserWarning):
            with pytest.raises(NearSingularGramError):
                synthesize_control(system, MomentTarget(np.ones(16),
                                                        np.zeros(16)),
                                   alpha=kernels.alpha)

    def test_duplicated_row_is_near_singular(self, desk_family_8):
        system = gram(list(desk_family_8[:3]) + [desk_family_8[0]])
        with pytest.raises(NearSingularGramError):
            synthesize_control(system, MomentTarget(np.ones(3), np.zeros(3)),
                               alpha=-0.2)

    def test_singular_factor_is_near_singular_not_a_config_error(
            self, desk_family_8, desk_grid):
        # np.linalg.LinAlgError is a ValueError, which the CLI reports as a
        # config error (exit 2); a singular factor must surface as exit 4
        samples = desk_family_8[0].samples
        system = moments._factorise((1, 2), [samples, np.zeros_like(samples)],
                                    desk_grid, conjugated=False)
        assert system.lower[1, 1] == 0.0
        with pytest.raises(NearSingularGramError):
            moments._minimal_norm_report(system, np.ones(2), alpha=0.0)

    def test_roundtrip_through_simulation(self, desk_gram_8, desk_kernels,
                                          desk_grid, desk_modes_32):
        rng = np.random.default_rng(17)
        vec = rng.uniform(-1.0, 1.0, 16)
        vec /= np.linalg.norm(vec)
        target = MomentTarget(vec[:8], vec[8:])
        report = synthesize_control(desk_gram_8, target, alpha=-0.2)
        state = simulate_coefficients(report.control, desk_modes_32[:8],
                                      desk_kernels)
        achieved = state.velocity + 1j * state.stress
        rel = np.linalg.norm(achieved - target.gamma) / np.linalg.norm(
            target.gamma)
        assert rel <= 1e-2


class TestFinitePair:
    def test_desk_kernel_short_horizon(self):
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(DESK_KERNEL, grid)
        report = finite_pair_control(kernels, [1.0, 0.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0, 0.0])
        assert report.roundtrip["relative_error"] <= 1e-2
        assert report.lambda_min > 0.0

    def test_extremes_are_squared_singular_values(self):
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(DESK_KERNEL, grid)
        report = finite_pair_control(kernels, [1.0, 0.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0, 0.0])
        modes = solve_modes(range(1, 5), kernels)
        rows = np.vstack(
            [t.n * convolve(kernels.relaxation_scaled, t.samples, grid)
             for t in modes]
            + [t.n * convolve(kernels.stress_gap, t.samples, grid)
               for t in modes])
        _assert_squared_singular_values(report, rows, grid)
        # the spectrum genuinely reaches the float64 round-off scale
        assert report.lambda_min == pytest.approx(1.6158e-15, rel=5e-5)

    def test_float64_roundtrip_beats_the_extended_precision_path(self):
        # configs/pair.ini.  5.17e-6 is what solving the Gram in 80-bit
        # extended precision reaches; forming the control from Gram
        # coefficients instead of from the orthonormal factor squares the
        # condition number and reaches ~1e-3
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(DESK_KERNEL, grid)
        report = finite_pair_control(kernels, [1.0, 0.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0, 0.0])
        assert report.roundtrip["relative_error"] <= 5.17e-6
        assert report.max_relative_residual <= 1e-6

    def test_duplicated_row_is_near_singular(self, monkeypatch):
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(DESK_KERNEL, grid)
        solve = moments.solve_modes

        def duplicated(ns, kernels):
            modes = solve(ns, kernels)
            return modes[:-1] + [modes[0]]

        monkeypatch.setattr(moments, "solve_modes", duplicated)
        with pytest.raises(NearSingularGramError):
            finite_pair_control(kernels, [1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0])

    def test_elastic_consistent_targets(self):
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        report = finite_pair_control(kernels, [1.0, 0.0, 0.0, 0.0],
                                     [1.0, 0.0, 0.0, 0.0])
        assert report.roundtrip["relative_error"] <= 1e-2
        assert np.max(np.abs(report.roundtrip["stress"]
                             - report.roundtrip["deformation"])) < 1e-12

    def test_elastic_mismatch_is_degenerate(self):
        grid = TimeGrid(1.0, 1024)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        with pytest.raises(ElasticDegeneracyError):
            finite_pair_control(kernels, [0.0], [1.0])

    def test_rejects_oversized_problems(self, desk_kernels):
        with pytest.raises(ValueError):
            finite_pair_control(desk_kernels,
                                np.zeros(17), np.zeros(17))


class TestFrameBounds:
    def test_elastic_normalized_gram_is_identity(self):
        report = frame_bounds(ELASTIC_KERNEL, TWO_PI, 8)
        for lo, hi in zip(report.lambda_min_by_size, report.lambda_max_by_size):
            assert abs(lo - 1.0) < 1e-3
            assert abs(hi - 1.0) < 1e-3

    def test_elastic_identity_persists_at_16_on_finer_grid(self):
        report = frame_bounds(ELASTIC_KERNEL, TWO_PI, 16, steps=8192)
        assert abs(report.lambda_min - 1.0) < 1e-3
        assert abs(report.lambda_max - 1.0) < 1e-3

    def test_prebuilt_family_gives_the_same_bounds(self, desk_kernels):
        family = build_family(desk_kernels, 4)
        reused = frame_bounds(desk_kernels, TWO_PI, 4, family=family)
        assert reused == frame_bounds(desk_kernels, TWO_PI, 4)
        with pytest.raises(ValueError):
            frame_bounds(desk_kernels, TWO_PI, 8, family=family)

    def test_short_horizon_collapse(self):
        report = frame_bounds(ELASTIC_KERNEL, math.pi / 2.0, 16)
        assert report.lambda_min < 1e-2

    def test_desk_stabilization_trend(self):
        report = frame_bounds(DESK_KERNEL, TWO_PI, 32)
        by_size = dict(zip(report.sizes, report.lambda_min_by_size))
        assert by_size[32] >= 0.5 * by_size[16]

    def test_unnormalized_bound_grows_with_horizon(self):
        # the Gram on a longer interval dominates the shorter one in the
        # positive-semidefinite order, so its smallest eigenvalue grows
        previous = -math.inf
        for horizon, steps in ((math.pi / 2, 1024), (math.pi, 2048),
                               (TWO_PI, 4096), (3 * math.pi, 6144)):
            grid = TimeGrid(horizon, steps)
            kernels = derive_kernels(DESK_KERNEL, grid)
            system = gram(build_family(kernels, 4))
            assert system.lambda_min >= previous - 1e-12
            previous = system.lambda_min

    def test_normalized_bound_grows_until_saturation(self):
        # after normalisation strict monotonicity is lost at the saturated
        # end (measured dip under one percent), so allow a 2% slack
        values = [frame_bounds(DESK_KERNEL, horizon, 4).lambda_min
                  for horizon in (math.pi / 2, math.pi, TWO_PI, 3 * math.pi)]
        for earlier, later in zip(values, values[1:]):
            assert later >= 0.98 * earlier


class TestCloseness:
    def test_elastic_distances_vanish(self, elastic_kernels):
        family = build_family(elastic_kernels, 8)
        params = [mode_params(n, 0.0) for n in range(1, 9)]
        report = quadratic_closeness(family, params)
        assert np.max(report.distances) < 1e-6

    def test_mixed_or_foreign_grid_family_is_rejected(self, elastic_kernels,
                                                      desk_grid):
        other = TimeGrid(1.5 * desk_grid.horizon, desk_grid.steps)
        foreign = build_family(derive_kernels(ELASTIC_KERNEL, other), 2)
        mixed = [build_family(elastic_kernels, 2)[0], foreign[1]]
        params = [mode_params(n, 0.0) for n in (1, 2)]
        with pytest.raises(ValueError, match="grid"):
            gram(mixed)
        with pytest.raises(ValueError, match="grid"):
            quadratic_closeness(mixed, params)
        with pytest.raises(ValueError, match="grid"):
            frame_bounds(elastic_kernels, desk_grid.horizon, 2, family=foreign)

    def test_empty_family_is_rejected(self):
        with pytest.raises(ValueError):
            gram([])
        with pytest.raises(ValueError):
            quadratic_closeness([], [])

    def test_conjugate_pair_has_equal_distance(self, desk_kernels,
                                               desk_modes_32):
        family = build_family(desk_kernels, 2,
                              mode_family=desk_modes_32[:2])
        mirrored = [traj.conjugated() for traj in family]
        params = [mode_params(n, desk_kernels.alpha) for n in (1, 2)]
        mirrored_params = [mode_params(-n, desk_kernels.alpha) for n in (1, 2)]
        direct = quadratic_closeness(family, params)
        conj = quadratic_closeness(mirrored, mirrored_params)
        assert np.array_equal(direct.distances, conj.distances)

    def test_scaled_distances_do_not_grow(self, desk_kernels,
                                          desk_modes_32):
        family = build_family(desk_kernels, 32,
                              mode_family=desk_modes_32)
        params = [mode_params(n, desk_kernels.alpha) for n in range(1, 33)]
        report = quadratic_closeness(family, params)
        assert np.max(report.scaled[16:]) <= 2.0 * np.max(report.scaled[:16])


def _assert_squared_singular_values(report, rows, grid):
    """lambda extremes equal the squared singular values of rows * sqrt(w)."""
    sigma = np.linalg.svd(rows * np.sqrt(grid.trapezoid_weights()),
                          compute_uv=False)
    assert report.lambda_min == pytest.approx(sigma[-1] ** 2, rel=1e-6)
    assert report.lambda_max == pytest.approx(sigma[0] ** 2, rel=1e-6)


class TestSteeringProperties:
    """Random unit targets at the critical horizon steer and round-trip."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(arrays(np.float64, 16, elements=st.floats(-1.0, 1.0)))
    def test_random_unit_targets(self, desk_gram_8, desk_kernels, desk_grid,
                                 desk_modes_32, vec):
        norm = np.linalg.norm(vec)
        assume(norm > 1e-3)
        target = MomentTarget(vec[:8] / norm, vec[8:] / norm)
        report = synthesize_control(desk_gram_8, target,
                                    alpha=desk_kernels.alpha)
        assert report.max_relative_residual <= 1e-6
        assert report.imag_fraction <= 1e-10
        state = simulate_coefficients(report.control, desk_modes_32[:8],
                                      desk_kernels)
        achieved = state.velocity + 1j * state.stress
        assert np.linalg.norm(achieved - target.gamma) <= 1e-2
