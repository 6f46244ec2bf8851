import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viscostring import (
    ModeFamily,
    MomentTarget,
    TimeGrid,
    TrajectoryKind,
    build_family,
    convolve,
    derive_kernels,
    finite_pair_control,
    frame_bounds,
    gram,
    quadratic_closeness,
    simulate_coefficients,
    solve_mode,
    solve_modes,
    solve_moment_kernels,
    synthesize_control,
)
from viscostring import moments
from viscostring.errors import (
    CrossCheckError,
    ElasticDegeneracyError,
    NearSingularGramError,
)

from conftest import DESK_KERNEL, ELASTIC_KERNEL, TWO_PI, complex_rows, moment_family


@pytest.fixture(scope="module")
def desk_family_8(desk_kernels, desk_modes_32):
    return build_family(desk_kernels, desk_modes_32[:8])


@pytest.fixture(scope="module")
def desk_gram_8(desk_family_8):
    return gram(desk_family_8)


class TestTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            MomentTarget(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            MomentTarget(np.array([]), np.array([]))

    def test_caller_rows_stay_writable(self):
        # the target freezes its own copies, not the rows it was given
        xi, eta = np.zeros(3), np.ones(3)
        target = MomentTarget(xi, eta)
        xi[0] = eta[0] = 2.0
        assert target.xi[0] == 0.0 and target.eta[0] == 1.0
        assert not target.xi.flags.writeable


class TestFamily:
    def test_elastic_family_matches_exponentials(self, elastic_kernels,
                                                 desk_grid):
        family = moment_family(elastic_kernels, 4)
        t = desk_grid.times()
        for n, z in zip(family.ns, complex_rows(family)):
            assert np.max(np.abs(z - np.exp(1j * n * t))) < 5e-4

    def test_family_starts_at_one(self, desk_family_8):
        x, y = desk_family_8.samples
        assert np.all(x[:, 0] == 1.0) and np.all(y[:, 0] == 0.0)

    def test_cross_check_accepts_desk_kernel_at_16(self, desk_kernels,
                                                   desk_modes_32):
        family = build_family(desk_kernels, desk_modes_32[:16])
        assert len(family) == 16

    def test_cross_check_names_the_first_deviating_mode(self, desk_kernels,
                                                        desk_modes_32):
        # n = 11 and 12 sit in the second block of rows the check compares;
        # 1e-2 is far beyond the tolerance 100 h^2 = 2.4e-4
        samples = desk_modes_32[:12].samples.copy()
        samples[10:] += 1e-2 * np.sin(desk_kernels.grid.times())
        modes = ModeFamily(range(1, 13), TrajectoryKind.MODE, samples,
                           desk_kernels.grid)
        with pytest.raises(CrossCheckError, match="n=11: route deviation"):
            build_family(desk_kernels, modes)

    def test_cross_check_refuses_a_nan_deviation(self, desk_kernels, desk_modes_32,
                                                 monkeypatch):
        # NaN > tolerance is False, so a NaN route must fail the check another way
        assemble = moments.assemble_moment_kernel

        def nan_rows(modes, kernels):
            return SimpleNamespace(samples=np.full_like(assemble(modes, kernels).samples,
                                                        np.nan))

        monkeypatch.setattr(moments, "assemble_moment_kernel", nan_rows)
        with pytest.raises(CrossCheckError, match="n=1: route deviation nan"):
            build_family(desk_kernels, desk_modes_32[:4])


def _quadrature_gram(family):
    """G[a, b] = int rows[a] conj(rows[b]) by the trapezoid rule, formed
    directly over the rows Z_n, then conj Z_n (no factor): the Hermitian
    Gram of the complex moment problem, the oracle for the real route."""
    z = complex_rows(family)
    rows = np.vstack([z, np.conj(z)])
    return (rows * family.grid.trapezoid_weights()) @ rows.conj().T


def _real_rows(family):
    """The rows X_n, then Y_n, of Z_n = X_n + i*Y_n, as `gram` factors them."""
    return np.vstack(family.samples)


def _frame_extremes(matrix, size):
    """Extremes of 2 D^-1/2 G D^-1/2 over the rows n <= size of both halves
    of G, where D sums the two halves' diagonals: the normalised bounds of
    the Gram of [Z; conj Z] and of the real Gram of [X; Y] alike."""
    half = len(matrix) // 2
    diag = np.diag(matrix).real
    norms = np.sqrt(np.tile(diag[:half] + diag[half:], 2))
    keep = [i for i in range(2 * half) if i % half < size]
    normalised = (matrix / np.outer(norms, norms))[np.ix_(keep, keep)]
    eigs = 2.0 * np.linalg.eigvalsh(normalised)
    return eigs[0], eigs[-1]


class TestMemory:
    @pytest.mark.parametrize("solver", ["build_family", "solve_moment_kernels"])
    def test_peak_is_at_most_twice_the_family(self, desk_kernels, desk_modes_32,
                                              solver):
        # the march returns its own real batch, and the cross-check holds
        # the assembled kernels of one block of rows at a time
        solve = {"build_family": lambda: build_family(desk_kernels, desk_modes_32),
                 "solve_moment_kernels": lambda: solve_moment_kernels(
                     range(1, 33), desk_kernels)}[solver]
        tracemalloc.start()
        try:
            family = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * family.samples.nbytes


class TestGram:
    def test_elastic_full_period_is_diagonal(self, elastic_kernels):
        family = moment_family(elastic_kernels, 3)
        system = gram(family)
        matrix = _quadrature_gram(family)
        assert np.max(np.abs(matrix - TWO_PI * np.eye(6))) < 1e-3
        assert system.lambda_min == pytest.approx(TWO_PI, abs=1e-3)

    def test_elastic_half_period_pair(self):
        grid = TimeGrid(math.pi, 2048)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        family = moment_family(kernels, 1)
        matrix = _quadrature_gram(family)
        # indices (1, -1): diagonal pi, off-diagonal integral of e^{2it}
        assert matrix[0, 0].real == pytest.approx(math.pi, abs=1e-3)
        assert abs(matrix[0, 1]) < 1e-3
        assert gram(family).lambda_min == pytest.approx(math.pi, abs=1e-3)

    def test_hermitian_by_construction(self, desk_family_8, desk_gram_8,
                                       desk_grid):
        # L L^T of the factor is the real Gram of [X; Y], and T (L L^T) T^H
        # with T = [[I, iI], [I, -iI]] is the Hermitian Gram of [Z; conj Z]
        lower = desk_gram_8.lower
        product = lower @ lower.T
        rows = _real_rows(desk_family_8)
        real = (rows * desk_grid.trapezoid_weights()) @ rows.T
        assert np.max(np.abs(product - real)) <= 1e-12
        eye = np.eye(8)
        t = np.block([[eye, 1j * eye], [eye, -1j * eye]])
        dev = np.max(np.abs(t @ product @ t.conj().T
                            - _quadrature_gram(desk_family_8)))
        assert dev <= 1e-12

    def test_eigen_extremes_match_lapack(self, desk_family_8, desk_gram_8):
        ref = np.linalg.eigvalsh(_quadrature_gram(desk_family_8))
        assert desk_gram_8.lambda_min == pytest.approx(ref[0], rel=1e-8)
        assert desk_gram_8.lambda_max == pytest.approx(ref[-1], rel=1e-8)

    def test_extremes_are_squared_singular_values(self, desk_family_8,
                                                  desk_gram_8, desk_grid):
        z = complex_rows(desk_family_8)
        rows = np.vstack([z, np.conj(z)])
        _assert_squared_singular_values(desk_gram_8, rows, desk_grid)

    def test_factor_reproduces_weighted_samples(self, desk_family_8,
                                                desk_gram_8, desk_grid):
        q = desk_gram_8.orthonormal
        assert np.max(np.abs(q @ q.T - np.eye(16))) <= 1e-13
        weighted = _real_rows(desk_family_8) * np.sqrt(desk_grid.trapezoid_weights())
        assert np.allclose(desk_gram_8.lower @ q, weighted, rtol=0,
                           atol=1e-13)
        assert np.all(np.triu(desk_gram_8.lower, 1) == 0)


class TestSynthesize:
    def test_elastic_single_mode_recovers_cosine(self, elastic_kernels,
                                                 desk_grid):
        family = moment_family(elastic_kernels, 3)
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
        # a real control, and r_-n = conj(r_n) as for the targets
        assert report.control.samples.dtype == np.float64
        assert np.array_equal(report.residuals[8:], report.residuals[:8].conj())

    def test_minimal_norm_identity(self, desk_family_8, desk_gram_8):
        # ||u||^2 = gamma^H G^-1 gamma for the Hermitian Gram of [Z; conj Z]
        target = MomentTarget(np.ones(8) / 4.0, np.zeros(8))
        report = synthesize_control(desk_gram_8, target, alpha=-0.2)
        gamma = np.concatenate([target.gamma, target.gamma.conj()])
        matrix = _quadrature_gram(desk_family_8)
        direct = np.real(np.vdot(gamma, np.linalg.solve(matrix, gamma)))
        assert report.control_norm ** 2 == pytest.approx(direct, rel=1e-8)

    def test_target_size_must_match_family(self, desk_gram_8):
        with pytest.raises(ValueError):
            synthesize_control(desk_gram_8, MomentTarget.zero(5), alpha=-0.2)

    def test_short_horizon_warns_and_collapse_raises(self):
        grid = TimeGrid(math.pi / 2.0, 1024)
        kernels = derive_kernels(DESK_KERNEL, grid)
        family = moment_family(kernels, 16)
        system = gram(family)
        with pytest.warns(UserWarning):
            with pytest.raises(NearSingularGramError):
                synthesize_control(system, MomentTarget(np.ones(16),
                                                        np.zeros(16)),
                                   alpha=kernels.alpha)

    def test_duplicated_row_is_near_singular(self, desk_family_8):
        system = gram(desk_family_8[[0, 1, 2, 0]])
        with pytest.raises(NearSingularGramError):
            synthesize_control(system, MomentTarget(np.ones(3), np.zeros(3)),
                               alpha=-0.2)

    def test_singular_factor_is_near_singular_not_a_config_error(
            self, desk_family_8, desk_grid):
        # np.linalg.LinAlgError is a ValueError, which the CLI reports as a
        # config error (exit 2); a singular factor must surface as exit 4
        samples = desk_family_8.samples[0, 0]
        system = moments._factorise(np.array([samples, np.zeros_like(samples)]),
                                    desk_grid)
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
        trip = finite_pair_control(kernels, solve_modes(range(1, 5), kernels),
                                   [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        assert trip.relative_error <= 1e-2
        assert trip.synthesis.lambda_min > 0.0
        # the assigned pairs, packed w_n + i*sigma_n
        assert np.array_equal(trip.achieved,
                              trip.state.deformation + 1j * trip.state.stress)

    def test_extremes_are_squared_singular_values(self):
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(DESK_KERNEL, grid)
        modes = solve_modes(range(1, 5), kernels)
        trip = finite_pair_control(kernels, modes, [1.0, 0.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0, 0.0])
        rows = np.vstack(
            [n * convolve(kernels.relaxation_scaled, y, grid)
             for n, y in zip(modes.ns, modes.samples)]
            + [n * convolve(kernels.stress_gap, y, grid)
               for n, y in zip(modes.ns, modes.samples)])
        _assert_squared_singular_values(trip.synthesis, rows, grid)
        # the spectrum genuinely reaches the float64 round-off scale
        assert trip.synthesis.lambda_min == pytest.approx(1.6158e-15, rel=5e-5)

    def test_float64_roundtrip_beats_the_extended_precision_path(self):
        # configs/pair.ini.  5.17e-6 is what solving the Gram in 80-bit
        # extended precision reaches; forming the control from Gram
        # coefficients instead of from the orthonormal factor squares the
        # condition number and reaches ~1e-3
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(DESK_KERNEL, grid)
        trip = finite_pair_control(kernels, solve_modes(range(1, 5), kernels),
                                   [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        assert trip.relative_error <= 5.17e-6
        assert trip.synthesis.max_relative_residual <= 1e-6

    def test_duplicated_row_is_near_singular(self):
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(DESK_KERNEL, grid)
        modes = solve_modes(range(1, 4), kernels)
        # the last row repeats row 0 under the last index, so the family
        # still runs 1..3 in order
        duplicated = ModeFamily(modes.ns, TrajectoryKind.MODE,
                                modes.samples[[0, 1, 0]], grid)
        with pytest.raises(NearSingularGramError):
            finite_pair_control(kernels, duplicated, [1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0])

    def test_elastic_consistent_targets(self):
        grid = TimeGrid(1.0, 2048)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        trip = finite_pair_control(kernels, solve_modes(range(1, 5), kernels),
                                   [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        assert trip.relative_error <= 1e-2
        assert np.max(np.abs(trip.state.stress - trip.state.deformation)) < 1e-12

    def test_elastic_mismatch_is_degenerate(self):
        grid = TimeGrid(1.0, 1024)
        kernels = derive_kernels(ELASTIC_KERNEL, grid)
        with pytest.raises(ElasticDegeneracyError):
            finite_pair_control(kernels, solve_mode(1, kernels), [0.0], [1.0])

    def test_rejects_oversized_problems(self, desk_kernels):
        with pytest.raises(ValueError, match="limited to 16 modes"):
            finite_pair_control(desk_kernels, solve_modes(range(1, 18), desk_kernels),
                                np.zeros(17), np.zeros(17))

    @pytest.mark.parametrize("c, d", [(np.zeros(4), np.zeros(3)), ([], []),
                                      ([0.0, math.nan, 0.0, 0.0], np.zeros(4)),
                                      (np.zeros(4), [0.0, 0.0, math.inf, 0.0])],
                             ids=["unequal", "empty", "nan", "inf"])
    def test_rejects_malformed_target_rows(self, desk_kernels, desk_modes_32, c, d):
        # the rows are checked as one MomentTarget, before the family's length
        with pytest.raises(ValueError, match="targets"):
            finite_pair_control(desk_kernels, desk_modes_32[:4], c, d)

    @pytest.mark.parametrize("n_modes", [3, 5])
    def test_rejects_a_family_of_another_length(self, desk_kernels, desk_modes_32,
                                                n_modes):
        with pytest.raises(ValueError, match="4 target pairs but the family covers"):
            finite_pair_control(desk_kernels, desk_modes_32[:n_modes],
                                np.zeros(4), np.zeros(4))


class TestFrameBounds:
    def test_elastic_normalized_gram_is_identity(self, elastic_kernels):
        report = frame_bounds(moment_family(elastic_kernels, 8))
        for lo, hi in zip(report.lambda_min_by_size, report.lambda_max_by_size):
            assert abs(lo - 1.0) < 1e-3
            assert abs(hi - 1.0) < 1e-3

    def test_elastic_identity_persists_at_16_on_finer_grid(self):
        kernels = derive_kernels(ELASTIC_KERNEL, TimeGrid(TWO_PI, 8192))
        report = frame_bounds(moment_family(kernels, 16))
        assert abs(report.lambda_min - 1.0) < 1e-3
        assert abs(report.lambda_max - 1.0) < 1e-3

    def test_prebuilt_family_gives_the_same_bounds(self, desk_kernels,
                                                   desk_modes_32):
        # the moment kernels are stepped by build_family whichever route
        # solved the modes it cross-checks them against
        family = build_family(desk_kernels, desk_modes_32[:4])
        assert frame_bounds(family) == frame_bounds(moment_family(desk_kernels, 4))
        with pytest.raises(ValueError):
            frame_bounds(family[1:])

    @pytest.mark.parametrize("horizon, n_max", [(TWO_PI, 16), (7.5, 32),
                                                (4.6, 16)])
    def test_quadrature_gram_matches_the_factor_route(self, horizon, n_max):
        # per truncation, the bounds are those of the normalised Hermitian
        # Gram of [Z; conj Z] and of L L^T of the control solve's real
        # factor; at T = 4.6 the size-16 lambda_min is of order 1e-9
        kernels = derive_kernels(DESK_KERNEL, TimeGrid(horizon, 4096))
        family = moment_family(kernels, n_max)
        report = frame_bounds(family)
        lower = gram(family).lower
        assert report.sizes[-1] == n_max
        for matrix in (_quadrature_gram(family), lower @ lower.T):
            for size, lo, hi in zip(report.sizes, report.lambda_min_by_size,
                                    report.lambda_max_by_size):
                low, high = _frame_extremes(matrix, size)
                assert abs(lo - low) <= 1e-13
                assert abs(hi - high) <= 1e-13
        if horizon < TWO_PI:
            assert report.lambda_min < 1e-6

    def test_short_horizon_collapse(self):
        kernels = derive_kernels(ELASTIC_KERNEL, TimeGrid(math.pi / 2.0, 1024))
        report = frame_bounds(moment_family(kernels, 16))
        assert report.lambda_min < 1e-2

    def test_desk_stabilization_trend(self, desk_kernels):
        report = frame_bounds(moment_family(desk_kernels, 32))
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
            system = gram(moment_family(kernels, 4))
            assert system.lambda_min >= previous - 1e-12
            previous = system.lambda_min

    def test_normalized_bound_grows_until_saturation(self):
        # after normalisation strict monotonicity is lost at the saturated
        # end (measured dip under one percent), so allow a 2% slack
        values = []
        for horizon, steps in ((math.pi / 2, 1024), (math.pi, 2048),
                               (TWO_PI, 4096), (3 * math.pi, 6144)):
            kernels = derive_kernels(DESK_KERNEL, TimeGrid(horizon, steps))
            values.append(frame_bounds(moment_family(kernels, 4)).lambda_min)
        for earlier, later in zip(values, values[1:]):
            assert later >= 0.98 * earlier


class TestCloseness:
    def test_elastic_distances_vanish(self, elastic_kernels):
        family = moment_family(elastic_kernels, 8)
        report = quadratic_closeness(elastic_kernels, family)
        assert np.max(report.distances) < 1e-6

    def test_empty_family_is_rejected(self, desk_kernels, desk_family_8):
        # an empty family cannot be built, so it never reaches a consumer
        with pytest.raises(ValueError):
            gram(desk_family_8[8:])
        with pytest.raises(ValueError):
            quadratic_closeness(desk_kernels, desk_family_8[8:])

    def test_scaled_distances_do_not_grow(self, desk_kernels,
                                          desk_modes_32):
        family = build_family(desk_kernels, desk_modes_32)
        report = quadratic_closeness(desk_kernels, family)
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
        state = simulate_coefficients(report.control, desk_modes_32[:8],
                                      desk_kernels)
        achieved = state.velocity + 1j * state.stress
        assert np.linalg.norm(achieved - target.gamma) <= 1e-2
