import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from viscostring import (
    MemoryKernel,
    TimeGrid,
    assemble_moment_kernel,
    convolve,
    convolve_transpose,
    derive_kernels,
    mode_derivative,
    oracle_exponential_mode,
    solve_mode,
    solve_modes,
    solve_moment_kernel,
    solve_moment_kernels,
    solve_volterra_second_kind,
)

from viscostring import volterra
from viscostring.volterra import _fft_length

from conftest import DESK_KERNEL, ELASTIC_KERNEL, POLY_KERNEL, TWO_PI, complex_rows

# grid sizes around the Toeplitz solver's leaf and power-of-two boundaries
AWKWARD_STEPS = [1, 2, 31, 32, 33, 64, 65, 97, 1000, 1025]


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 16)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_integral_float_steps_are_stored_as_int(self):
        grid = TimeGrid(1.0, 64.0)
        assert type(grid.steps) is int
        assert grid == TimeGrid(1.0, 64)
        assert len(grid.times()) == len(grid.trapezoid_weights()) == 65
        with pytest.raises(ValueError):
            TimeGrid(1.0, 64.5)

    @pytest.mark.parametrize("steps", [math.inf, -math.inf, math.nan])
    def test_non_finite_steps_raise_value_error(self, steps):
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(1.0, steps)

    def test_resolution_rule(self):
        grid = TimeGrid(TWO_PI, 64)  # step ~ 0.098
        grid.require_resolution(1)
        with pytest.raises(ValueError):
            grid.require_resolution(2)

    def test_trapezoid_integral(self):
        grid = TimeGrid(TWO_PI, 2048)
        assert grid.trapezoid_weights() @ np.sin(grid.times()) ** 2 == pytest.approx(
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
        with pytest.raises(ValueError):
            convolve_transpose(np.ones(65), np.ones(64), grid)

    def test_complex_samples_raise_value_error_naming_the_argument(self):
        grid = TimeGrid(1.0, 64)
        real, cplx = np.ones(65), np.ones(65) + 1j
        with pytest.raises(ValueError, match="^b: complex"):
            convolve(real, cplx, grid)
        with pytest.raises(ValueError, match="^a: complex"):
            convolve(cplx, real, grid)
        with pytest.raises(ValueError, match="^p: complex"):
            convolve_transpose(real, cplx, grid)

    def test_stack_matches_row_by_row_bit_for_bit(self, desk_kernels, desk_grid):
        rows = solve_modes(range(1, 9), desk_kernels).samples
        for kernel in (desk_kernels.relaxation_scaled, desk_kernels.stress_kernel):
            stacked = convolve(kernel, rows, desk_grid)
            assert stacked.shape == rows.shape
            assert np.array_equal(stacked, [convolve(kernel, row, desk_grid)
                                            for row in rows])
        with pytest.raises(ValueError):
            convolve(desk_kernels.stress_kernel, rows[None], desk_grid)


EPS = np.finfo(float).eps


def magnitudes(bound):
    """Zero or a float of modulus in [1e-6, bound], so no norm underflows."""
    return st.one_of(st.just(0.0), st.floats(1e-6, bound),
                     st.floats(-bound, -1e-6))


@st.composite
def grid_and_samples(draw, count):
    """A grid with 1..256 steps and `count` sample sequences on it."""
    steps = draw(st.integers(min_value=1, max_value=256))
    horizon = draw(st.floats(min_value=0.01, max_value=20.0))
    samples = [draw(arrays(float, steps + 1, elements=magnitudes(1e3)))
               for _ in range(count)]
    return TimeGrid(horizon, steps), samples


def _roundoff(grid, *factors):
    """Round-off scale of a convolution quadrature over `factors`."""
    size = grid.steps + 1
    return 8.0 * size ** 1.5 * EPS * grid.step * math.prod(
        float(np.linalg.norm(f)) for f in factors)


class TestConvolveProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_and_samples(3))
    def test_transpose_is_the_representer(self, drawn):
        grid, (a, p, b) = drawn
        u = convolve_transpose(a, p, grid)
        assert abs(u @ b - p @ convolve(a, b, grid)) <= _roundoff(grid, p, a, b)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_and_samples(2))
    def test_commutative(self, drawn):
        grid, (a, b) = drawn
        gap = np.max(np.abs(convolve(a, b, grid) - convolve(b, a, grid)))
        assert gap <= _roundoff(grid, a, b)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_and_samples(3), magnitudes(10.0), magnitudes(10.0))
    def test_bilinear(self, drawn, x, y):
        grid, (a, c, b) = drawn
        left = convolve(x * a + y * c, b, grid)
        right = x * convolve(a, b, grid) + y * convolve(c, b, grid)
        scale = _roundoff(grid, np.abs(x * a) + np.abs(y * c), b)
        assert np.max(np.abs(left - right)) <= scale
        left = convolve(b, x * a + y * c, grid)
        right = x * convolve(b, a, grid) + y * convolve(b, c, grid)
        assert np.max(np.abs(left - right)) <= scale


def _direct_convolve(a, b, grid):
    """The O(K^2) full-length np.convolve form of `convolve`."""
    full = np.convolve(a, b)[: grid.steps + 1]
    return grid.step * (full - 0.5 * (a * b[0] + b * a[0]))


def _direct_convolve_transpose(a, p, grid):
    """The O(K^2) full-length np.convolve form of `convolve_transpose`."""
    h = grid.step
    corr = np.convolve(p[::-1], a)[: grid.steps + 1][::-1]
    u = h * (corr - 0.5 * a[0] * p)
    u[0] -= 0.5 * h * np.dot(p, a)
    return u


def _assert_fft_matches_direct(grid, a, b):
    assert np.max(np.abs(convolve(a, b, grid) - _direct_convolve(a, b, grid))) \
        <= _roundoff(grid, a, b)
    assert np.max(np.abs(convolve_transpose(a, b, grid)
                         - _direct_convolve_transpose(a, b, grid))) \
        <= _roundoff(grid, a, b)


class TestFFTConvolution:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_and_samples(2))
    def test_matches_the_direct_sum(self, drawn):
        grid, (a, b) = drawn
        _assert_fft_matches_direct(grid, a, b)

    @pytest.mark.parametrize("steps", [2048, 4096, 8192])
    def test_matches_the_direct_sum_on_derived_kernels(self, steps):
        grid = TimeGrid(TWO_PI, steps)
        dk = derive_kernels(DESK_KERNEL, grid)
        _assert_fft_matches_direct(grid, dk.relaxation_scaled, dk.velocity_kernel)
        _assert_fft_matches_direct(grid, dk.stress_kernel, grid.trapezoid_weights())

    def test_length_is_the_smallest_5_smooth_that_holds_the_convolution(self):
        smooth = sorted(2 ** i * 3 ** j * 5 ** k for i in range(15)
                        for j in range(10) for k in range(7))
        for steps in range(1, 5001):
            target = 2 * steps + 1
            assert _fft_length(steps) == smooth[bisect.bisect_left(smooth, target)]


def _reference_second_kind(kernel, source, grid):
    """The second-kind solver as a step-by-step loop, as it was before the Toeplitz solve."""
    h = grid.step
    steps = grid.steps
    denom = 1.0 - 0.5 * h * kernel[0]
    x = np.zeros(steps + 1)
    x[0] = source[0]
    rev = np.ascontiguousarray(kernel[::-1])  # rev[j] = kernel[steps - j]
    for k in range(1, steps + 1):
        hist = 0.5 * kernel[k] * x[0] + np.dot(rev[steps - k + 1 : steps], x[1:k])
        x[k] = (source[k] + h * hist) / denom
    return x


def _minus_na(memory, grid):
    """-Na of `memory`, as a system and as samples."""
    gen, b, c, phi = memory.scaled_relaxation_system(grid.step)
    return (gen, b, -c, phi), -derive_kernels(memory, grid).relaxation_scaled


def _minus_na_d1(memory, grid):
    """-Na' of `memory`, as a system and as samples (the resolvent's kernel)."""
    gen, b, c, phi = memory.scaled_relaxation_system(grid.step)
    t = grid.times()
    na_d1 = np.exp(2.0 * memory.alpha * t) * (2.0 * memory.alpha * memory.relaxation(t)
                                              + memory.memory(t))
    return (gen, b, -(c @ gen), phi), -na_d1


@pytest.mark.parametrize("steps,form,memory", [
    *(pytest.param(steps, _minus_na, DESK_KERNEL, id=str(steps)) for steps in AWKWARD_STEPS),
    *(pytest.param(steps, _minus_na_d1, POLY_KERNEL, id=f"polynomial-derivative-{steps}")
      for steps in AWKWARD_STEPS)])
def test_second_kind_solver_matches_the_step_by_step_loop(steps, form, memory):
    grid = TimeGrid(TWO_PI, steps)
    system, samples = form(memory, grid)
    source = np.cos(grid.times())
    x = solve_volterra_second_kind(system, source, grid)
    ref = _reference_second_kind(samples, source, grid)
    assert x[0] == source[0]
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_second_kind_solver_against_exponential():
    # x = 1 + int_0^t x  has solution exp(t); the zero kernel's Na is 1
    grid = TimeGrid(1.0, 1024)
    one = ELASTIC_KERNEL.scaled_relaxation_system(grid.step)
    x = solve_volterra_second_kind(one, np.ones(grid.steps + 1), grid)
    assert np.max(np.abs(x - np.exp(grid.times()))) < 1e-6


class TestSolveMode:
    def test_elastic_limit_is_cosine(self, elastic_kernels, desk_grid):
        z = solve_mode(2, elastic_kernels)
        quarter = desk_grid.steps // 4  # t = pi/2
        assert abs(z.samples[0, quarter] - math.cos(math.pi)) < 5e-4
        z1 = solve_mode(1, elastic_kernels)
        assert abs(z1.samples[0, -1] - 1.0) < 5e-4

    def test_matches_oracle(self, desk_kernels, desk_grid):
        z = solve_mode(1, desk_kernels)
        ref = oracle_exponential_mode(1, DESK_KERNEL, desk_grid)
        assert np.max(np.abs(z.samples - ref.samples)) < 1e-5

    def test_resolution_guard(self, desk_kernels):
        with pytest.raises(ValueError):
            solve_mode(4096, desk_kernels)

    def test_convergence_is_second_order(self):
        errs = []
        for steps in (2048, 4096):
            grid = TimeGrid(TWO_PI, steps)
            dk = derive_kernels(DESK_KERNEL, grid)
            z = solve_mode(4, dk)
            ref = oracle_exponential_mode(4, DESK_KERNEL, grid)
            errs.append(np.max(np.abs(z.samples - ref.samples)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_elastic_error_scales_like_step_squared(self):
        errs = []
        for steps in (2048, 4096):
            grid = TimeGrid(TWO_PI, steps)
            dk = derive_kernels(ELASTIC_KERNEL, grid)
            z = solve_mode(8, dk)
            errs.append(np.max(np.abs(z.samples - np.cos(8 * grid.times()))))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestModeDerivative:
    def test_elastic_derivative_is_negative_sine(self, elastic_kernels, desk_grid):
        z = solve_mode(1, elastic_kernels)
        dz = mode_derivative(z, elastic_kernels)
        assert dz[0, 0] == 0.0
        assert np.max(np.abs(dz + np.sin(desk_grid.times()))) < 5e-4

    def test_initial_value_is_twice_alpha(self, desk_kernels):
        z = solve_mode(5, desk_kernels)
        dz = mode_derivative(z, desk_kernels)
        assert dz[0, 0] == 2.0 * desk_kernels.alpha

    def test_consistent_with_centered_differences(self, desk_kernels, desk_grid):
        # the finite-difference oracle itself carries a z''' h^2 / 6
        # truncation term, about 15 h^2 for this mode
        z = solve_mode(4, desk_kernels)
        dz = mode_derivative(z, desk_kernels)
        h = desk_grid.step
        fd = (z.samples[:, 2:] - z.samples[:, :-2]) / (2.0 * h)
        assert np.max(np.abs(dz[:, 1:-1] - fd)) <= 20.0 * h ** 2

    def test_rejects_wrong_kind(self, desk_kernels):
        big = solve_moment_kernel(1, desk_kernels)
        with pytest.raises(ValueError):
            mode_derivative(big, desk_kernels)


class TestMomentKernel:
    def test_elastic_limit_is_complex_exponential(self, elastic_kernels, desk_grid):
        big = solve_moment_kernel(1, elastic_kernels)
        half = desk_grid.steps // 2  # t = pi
        assert abs(complex_rows(big)[0, half] - (-1.0 + 0.0j)) < 5e-4

    def test_assembly_starts_at_one(self, desk_kernels):
        z = solve_mode(2, desk_kernels)
        big = assemble_moment_kernel(z, desk_kernels)
        assert big.samples[:, 0, 0].tolist() == [1.0, 0.0]

    def test_elastic_assembly_is_complex_exponential(self, elastic_kernels,
                                                     desk_grid):
        z = solve_mode(1, elastic_kernels)
        big = assemble_moment_kernel(z, elastic_kernels)
        t = desk_grid.times()
        assert np.max(np.abs(complex_rows(big) - np.exp(1j * t))) < 5e-4

    @pytest.mark.parametrize("n,factor", [(3, 5.0), (8, 5.0)])
    def test_routes_agree(self, desk_kernels, desk_grid, n, factor):
        stepped = solve_moment_kernel(n, desk_kernels)
        assembled = assemble_moment_kernel(
            solve_mode(n, desk_kernels), desk_kernels)
        dev = np.max(np.abs(complex_rows(stepped) - complex_rows(assembled)))
        assert dev <= factor * desk_grid.step ** 2

    def test_assembly_rejects_wrong_kind(self, desk_kernels):
        big = solve_moment_kernel(1, desk_kernels)
        with pytest.raises(ValueError):
            assemble_moment_kernel(big, desk_kernels)


class TestOracle:
    def test_elastic_degenerates_to_cosine(self, desk_grid):
        ref = oracle_exponential_mode(2, ELASTIC_KERNEL, desk_grid)
        assert np.max(np.abs(ref.samples - np.cos(2 * desk_grid.times()))) < 1e-9

    def test_self_convergence(self, desk_grid):
        a = oracle_exponential_mode(1, DESK_KERNEL, desk_grid, substeps=8)
        b = oracle_exponential_mode(1, DESK_KERNEL, desk_grid, substeps=16)
        assert abs(a.samples[0, -1] - b.samples[0, -1]) <= 1e-9

    def test_damped_envelope_bound(self, desk_grid):
        ref = oracle_exponential_mode(16, DESK_KERNEL, desk_grid)
        envelope = np.exp(DESK_KERNEL.alpha * desk_grid.times())
        assert np.all(np.abs(ref.samples) <= 1.1 * envelope)

    def test_polynomial_kernel_matches_the_march(self, desk_grid):
        # within the phase-error estimate T n^3 h^2 / 12
        n = 4
        ref = oracle_exponential_mode(n, POLY_KERNEL, desk_grid)
        y = solve_mode(n, derive_kernels(POLY_KERNEL, desk_grid))
        assert np.max(np.abs(y.samples - ref.samples)) <= \
            TWO_PI * n ** 3 * desk_grid.step ** 2 / 12


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


def _assert_batch_matches_reference(dk, grid, ns):
    """Batched modes and moment kernels within 1e-13*max|y| of one-mode marches."""
    modes = solve_modes(ns, dk)
    kernels_z = solve_moment_kernels(ns, dk)
    assert modes.ns == kernels_z.ns == tuple(ns)
    for n, y, z in zip(ns, modes.samples, complex_rows(kernels_z)):
        weight = float(n) * float(n)
        ref_y = _reference_march(grid, dk.relaxation_scaled, 2.0 * dk.alpha,
                                 weight, None, float)
        forcing = dk.velocity_kernel + 1j * float(n) * dk.stress_kernel
        ref_z = _reference_march(grid, dk.relaxation_scaled, 2.0 * dk.alpha,
                                 weight, forcing, complex)
        assert np.max(np.abs(y - ref_y)) <= 1e-13 * np.max(np.abs(ref_y))
        assert np.max(np.abs(z - ref_z)) <= 1e-13 * np.max(np.abs(ref_z))


@pytest.mark.parametrize("kernel", [
    DESK_KERNEL,
    ELASTIC_KERNEL,
    POLY_KERNEL,
    MemoryKernel.exponential_sum([(0.1, 0.5), (0.05, 1.0), (0.1, 2.0), (0.05, 4.0),
                                  (0.08, 8.0), (0.02, 16.0)]),
    MemoryKernel.exponential_sum([(0.4, 1.0), (0.2, 2000.0)]),  # |r| h = 12 at K = 1024
], ids=["desk", "elastic", "polynomial", "six-terms", "fast-term"])
def test_batched_engine_matches_per_mode_reference(kernel):
    grid = TimeGrid(TWO_PI, 1024)
    dk = derive_kernels(kernel, grid)
    _assert_batch_matches_reference(dk, grid, [1, 3, 16])
    with pytest.raises(ValueError):
        solve_modes([1, 0], dk)
    with pytest.raises(ValueError):
        solve_moment_kernels([0], dk)
    with pytest.raises(ValueError):
        solve_modes([1, 17], dk)  # step * 17 > RESOLUTION_LIMIT
    with pytest.raises(ValueError):
        solve_moment_kernels([2, 17], dk)


_BAD_INDICES = {"zero": [0], "zero-inside": [1, 0, 2], "negative": [-2],
                "mirrored": [2, -2], "unsorted": [2, 1], "duplicate": [1, 3, 3]}


@pytest.mark.parametrize("family", ["modes", "moment_kernels"])
@pytest.mark.parametrize("name", list(_BAD_INDICES))
def test_solvers_take_positive_increasing_indices(desk_kernels, family, name):
    # the solvers march exactly the indices they are given: Z_-n only
    # enters through the real form of the moment problem
    ns = _BAD_INDICES[name]
    with pytest.raises(ValueError, match="must be positive|must increase"):
        getattr(volterra, f"solve_{family}")(ns, desk_kernels)
    if len(ns) == 1:
        with pytest.raises(ValueError, match="must be positive"):
            getattr(volterra, f"solve_{family[:-1]}")(ns[0], desk_kernels)


@pytest.mark.parametrize("steps", AWKWARD_STEPS)
def test_batched_engine_matches_per_mode_reference_at_awkward_sizes(steps):
    ns = [1, 3]
    grid = TimeGrid(min(TWO_PI, volterra.RESOLUTION_LIMIT * steps / 3), steps)
    dk = derive_kernels(DESK_KERNEL, grid)
    _assert_batch_matches_reference(dk, grid, ns)
    assert np.all(solve_modes(ns, dk).samples[:, 0] == 1.0)
    x, y = solve_moment_kernels(ns, dk).samples
    assert np.all(x[:, 0] == 1.0) and np.all(y[:, 0] == 0.0)


exponential_terms = st.lists(
    st.tuples(st.floats(0.05, 0.6), st.floats(0.5, 5.0)), min_size=1, max_size=2)
increasing_indices = st.sets(st.integers(1, 8), min_size=1, max_size=6).map(sorted)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(exponential_terms, increasing_indices)
def test_batched_engine_matches_per_mode_reference_on_random_kernels(terms, ns):
    grid = TimeGrid(TWO_PI, 512)  # step * 8 < RESOLUTION_LIMIT
    dk = derive_kernels(MemoryKernel.exponential_sum(terms), grid)
    _assert_batch_matches_reference(dk, grid, ns)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(exponential_terms)
def test_modes_converge_to_the_oracle_at_second_order(terms):
    kernel = MemoryKernel.exponential_sum(terms)
    ns = range(1, 9)  # every mode the coarse grid resolves
    errs = []
    for steps in (512, 1024):
        grid = TimeGrid(TWO_PI, steps)
        modes = solve_modes(ns, derive_kernels(kernel, grid))
        errs.append(np.array([
            np.max(np.abs(y - oracle_exponential_mode(n, kernel, grid).samples))
            for n, y in zip(ns, modes.samples)]))
        # within the phase-error estimate T n^3 h^2 / 12
        assert np.all(errs[-1] <= TWO_PI * np.array(ns) ** 3 * grid.step ** 2 / 12)
    assert np.all(np.log2(errs[0] / errs[1]) >= 1.9)


def test_batch_rows_are_read_only_views(desk_kernels, monkeypatch):
    marched = []
    march = volterra._march
    monkeypatch.setattr(volterra, "_march",
                        lambda *args: marched.append(march(*args)) or marched[-1])
    modes = solve_modes([1, 3], desk_kernels)
    assert modes.samples is marched[0]  # the batch itself, no copy
    first, second = modes.samples
    assert first.base is second.base is modes.samples
    assert not first.flags.writeable


def test_moment_kernels_are_the_real_rows_of_the_march(desk_kernels, monkeypatch):
    marched = []
    march = volterra._march
    monkeypatch.setattr(volterra, "_march",
                        lambda *args: marched.append(march(*args)) or marched[-1])
    family = solve_moment_kernels([1, 2, 3], desk_kernels)
    assert family.samples.shape == (2, 3, desk_kernels.grid.steps + 1)
    assert family.samples.dtype == np.float64
    assert family.samples.base is marched[0]  # the (2N, K+1) batch, no copy
    x, y = family.samples
    assert np.all(x[:, 0] == 1.0) and np.all(y[:, 0] == 0.0)
    assert np.array_equal(family[[2, 0]].samples, family.samples[:, [2, 0]])
    with pytest.raises(ValueError, match="grid samples"):
        volterra.ModeFamily((1, 2, 3), family.kind, x, family.grid)
