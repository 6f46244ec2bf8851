import math

import numpy as np
import pytest

from viscostring import (
    MomentTarget,
    TimeGrid,
    build_family,
    derive_kernels,
    finite_pair_control,
    frame_bounds,
    gram,
    mode_params,
    quadratic_closeness,
    simulate_coefficients,
    synthesize_control,
)
from viscostring.errors import ElasticDegeneracyError, NearSingularGramError
from viscostring.moments import _hermitian_eigenvalues

from conftest import DESK_KERNEL, ELASTIC_KERNEL, TWO_PI


@pytest.fixture(scope="module")
def desk_family_8(desk_kernels, desk_grid, desk_modes_32):
    return build_family(desk_kernels, desk_grid, 8,
                        mode_family=desk_modes_32[:8])


@pytest.fixture(scope="module")
def desk_gram_8(desk_family_8, desk_grid):
    return gram(desk_family_8, desk_grid)


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
        family = build_family(elastic_kernels, desk_grid, 4)
        t = desk_grid.times()
        for n, traj in enumerate(family, start=1):
            assert np.max(np.abs(traj.samples - np.exp(1j * n * t))) < 5e-4

    def test_family_starts_at_one(self, desk_family_8):
        for traj in desk_family_8:
            assert traj.samples[0] == 1.0 + 0.0j

    def test_cross_check_accepts_desk_kernel_at_16(self, desk_kernels,
                                                   desk_grid, desk_modes_32):
        family = build_family(desk_kernels, desk_grid, 16,
                              mode_family=desk_modes_32[:16])
        assert len(family) == 16


class TestGram:
    def test_elastic_full_period_is_diagonal(self, elastic_kernels, desk_grid):
        family = build_family(elastic_kernels, desk_grid, 3)
        system = gram(family, desk_grid)
        assert np.max(np.abs(system.matrix - TWO_PI * np.eye(6))) < 1e-3
        assert system.lambda_min == pytest.approx(TWO_PI, abs=1e-3)

    def test_elastic_half_period_pair(self):
        grid = TimeGrid(math.pi, 2048)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        system = gram(build_family(kernels, grid, 1), grid)
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


class TestSynthesize:
    def test_elastic_single_mode_recovers_cosine(self, elastic_kernels,
                                                 desk_grid):
        family = build_family(elastic_kernels, desk_grid, 3)
        system = gram(family, desk_grid)
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
        family = build_family(kernels, grid, 16)
        system = gram(family, grid)
        with pytest.warns(UserWarning):
            with pytest.raises(NearSingularGramError):
                synthesize_control(system, MomentTarget(np.ones(16),
                                                        np.zeros(16)),
                                   alpha=kernels.alpha)

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
        report = finite_pair_control(kernels, grid, [1.0, 0.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0, 0.0])
        assert report.roundtrip["relative_error"] <= 1e-2
        assert report.lambda_min > 0.0

    def test_elastic_consistent_targets(self):
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        report = finite_pair_control(kernels, grid, [1.0, 0.0, 0.0, 0.0],
                                     [1.0, 0.0, 0.0, 0.0])
        assert report.roundtrip["relative_error"] <= 1e-2
        assert np.max(np.abs(report.roundtrip["stress"]
                             - report.roundtrip["deformation"])) < 1e-12

    def test_elastic_mismatch_is_degenerate(self):
        grid = TimeGrid(1.0, 1024)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        with pytest.raises(ElasticDegeneracyError):
            finite_pair_control(kernels, grid, [0.0], [1.0])

    def test_rejects_oversized_problems(self, desk_kernels, desk_grid):
        with pytest.raises(ValueError):
            finite_pair_control(desk_kernels, desk_grid,
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

    def test_prebuilt_family_gives_the_same_bounds(self, desk_kernels,
                                                   desk_grid):
        family = build_family(desk_kernels, desk_grid, 4)
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
            system = gram(build_family(kernels, grid, 4), grid)
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
    def test_elastic_distances_vanish(self, elastic_kernels, desk_grid):
        family = build_family(elastic_kernels, desk_grid, 8)
        params = [mode_params(n, 0.0) for n in range(1, 9)]
        report = quadratic_closeness(family, params, desk_grid)
        assert np.max(report.distances) < 1e-6

    def test_conjugate_pair_has_equal_distance(self, desk_kernels, desk_grid,
                                               desk_modes_32):
        family = build_family(desk_kernels, desk_grid, 2,
                              mode_family=desk_modes_32[:2])
        mirrored = [traj.conjugated() for traj in family]
        params = [mode_params(n, desk_kernels.alpha) for n in (1, 2)]
        mirrored_params = [mode_params(-n, desk_kernels.alpha) for n in (1, 2)]
        direct = quadratic_closeness(family, params, desk_grid)
        conj = quadratic_closeness(mirrored, mirrored_params, desk_grid)
        assert np.array_equal(direct.distances, conj.distances)

    def test_scaled_distances_do_not_grow(self, desk_kernels, desk_grid,
                                          desk_modes_32):
        family = build_family(desk_kernels, desk_grid, 32,
                              mode_family=desk_modes_32)
        params = [mode_params(n, desk_kernels.alpha) for n in range(1, 33)]
        report = quadratic_closeness(family, params, desk_grid)
        assert np.max(report.scaled[16:]) <= 2.0 * np.max(report.scaled[:16])


def test_jacobi_matches_lapack_on_random_hermitian():
    rng = np.random.default_rng(0)
    for size in (5, 24):
        m = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
            (size, size))
        m = m + m.conj().T
        assert np.max(np.abs(_hermitian_eigenvalues(m)
                             - np.linalg.eigvalsh(m))) < 1e-10
