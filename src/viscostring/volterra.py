"""Product-integration solvers for convolution Volterra equations.

Every time integral in this package has convolution form, and the mode
equations solved here all read

    y'(t) = a*y(t) - w*(k * y)(t) + g(t),    (k * y)(t) = int_0^t k(t-s) y(s) ds

on a uniform grid over [0, T].  The discretisation is implicit trapezoidal
in the local and forcing terms with a product-trapezoidal memory sum,
A-stable in the local part and second-order accurate overall.  The steps
of one row form a lower-triangular Toeplitz system D0 + w*D1 for two fixed
series (Lubich, Numer. Math. 52, 1988), which `_solve_toeplitz` solves for
all rows at once by the divide-and-conquer FFT history of Hairer, Lubich
and Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985): O(K log^2 K) per row,
no Python loop per time step.  The second-kind solver shares it.

Convolutions of known samples (`convolve`, `convolve_transpose`) are
real FFT products, O(K log K) per row, at the smallest 2*3*5-smooth
length that holds the linear convolution.  `convolve` takes a stack of
rows against one fixed factor, which it transforms once per call.  They
take real samples only.  Their round-off is absolute, about
eps*step*|a|*|b| in the 2-norms of the factors.

One march solves a batch of mode indices on the grid of the kernel set
(`DerivedKernelSet.grid`).  A solved family is one `ModeFamily`: indices,
kind and the read-only (N, K+1) array of its rows.  Callers solve each
family once per run (`solve_modes`, `solve_moment_kernels`; `solve_mode`
and `solve_moment_kernel` are one-index batches) and share it; consumers
check it with `ModeFamily.require`.  The solvers call pocketfft and
`np.einsum`, which are single-threaded and deterministic and call no BLAS,
and transform rows in fixed blocks: the bytes depend only on the caller's
index list, under any BLAS thread count.

An independent high-accuracy integrator for exponential-sum kernels
(`oracle_exponential_mode`) rewrites the memory term as auxiliary ODE
states and advances the resulting linear system with classical
fourth-order Runge-Kutta on a refined grid.  It shares no code with the
product-integration route and serves as its oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .kernels import DerivedKernelSet, MemoryKernel

__all__ = [
    "RESOLUTION_LIMIT",
    "TimeGrid",
    "TrajectoryKind",
    "ModeFamily",
    "convolve",
    "convolve_transpose",
    "solve_volterra_second_kind",
    "solve_mode",
    "solve_modes",
    "mode_derivative",
    "solve_moment_kernel",
    "solve_moment_kernels",
    "assemble_moment_kernel",
    "oracle_exponential_mode",
]

#: Largest admissible value of step*n for a mode of index n.  Keeps at
#: least ~60 grid nodes per oscillation period.
RESOLUTION_LIMIT = 0.1
_RESOLUTION_SLACK = 1e-12

#: Unknowns per leaf of the Toeplitz solver, solved by one dense product.
_LEAF = 32
#: Samples per FFT call of the Toeplitz solver: a transform of length L
#: takes a fixed block of max(1, _FFT_SAMPLES // L) rows, as pocketfft
#: rounds a row differently depending on how many rows share a call.
_FFT_SAMPLES = 1 << 14


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with `steps` intervals on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if (not math.isfinite(self.steps) or int(self.steps) != self.steps
                or self.steps < 1):
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def step(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.steps + 1, self.step)
        w[0] = w[-1] = 0.5 * self.step
        return w

    def require_resolution(self, n_max: int) -> None:
        """Reject grids too coarse for modes up to ``n_max``."""
        if self.step * abs(n_max) > RESOLUTION_LIMIT + _RESOLUTION_SLACK:
            raise ValueError(
                f"grid too coarse for mode {n_max}: step*n = "
                f"{self.step * abs(n_max):.4g} exceeds {RESOLUTION_LIMIT}"
            )


class TrajectoryKind(Enum):
    MODE = "mode"                        # real response of one sine mode
    MOMENT_KERNEL = "moment_kernel"      # complex kernel of the moment functionals


@dataclass(frozen=True, eq=False)
class ModeFamily:
    """Samples of one mode quantity for the indices `ns`, one row per index.

    `samples` is read-only, of shape (len(ns), K+1) on `grid`.  Mode
    responses are real; moment kernels are complex, with the row for
    index -n the complex conjugate of the row for n.
    """

    ns: tuple
    kind: TrajectoryKind
    samples: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        ns = _mode_indices(self.ns)
        if self.samples.shape != (len(ns), self.grid.steps + 1):
            raise ValueError(f"samples of shape {self.samples.shape} do not hold "
                             f"{len(ns)} rows of {self.grid.steps + 1} grid samples")
        object.__setattr__(self, "ns", ns)
        self.samples.setflags(write=False)

    __iter__ = None  # not a sequence of rows: iterate over `ns` or `samples`

    def __len__(self) -> int:
        return len(self.ns)

    def __getitem__(self, index) -> "ModeFamily":
        """The rows at a position, a slice or a list of positions."""
        rows = index if isinstance(index, slice) else np.atleast_1d(index)
        return ModeFamily(tuple(np.array(self.ns)[rows].tolist()), self.kind,
                          self.samples[rows], self.grid)

    def require(self, kind: TrajectoryKind, grid: TimeGrid | None = None,
                ordered: bool = False) -> None:
        """Check that the family is of `kind` and on `grid`, when given.

        With `ordered` row i must be mode n = i, for callers that pair the
        rows with 1..N.
        """
        if self.kind is not kind:
            raise ValueError(f"family is a {self.kind.value} family, "
                             f"expected a {kind.value}")
        if grid is not None and self.grid != grid:
            raise ValueError("family is on another grid")
        wrong = [(i, n) for i, n in enumerate(self.ns, start=1) if n != i]
        if ordered and wrong:
            raise ValueError(f"family must cover n = 1..{len(self)} in order, "
                             "entry {} has n={}".format(*wrong[0]))


def _mode_indices(ns) -> tuple:
    ns = tuple(ns)
    if not ns:
        raise ValueError("no mode indices given")
    if 0 in ns:
        raise ValueError("mode index must be a nonzero integer")
    return ns


def _real_samples(seq, grid: TimeGrid, name: str, ndim: int = 1) -> np.ndarray:
    arr = np.asarray(seq)
    if arr.ndim not in (1, ndim) or arr.shape[-1] != grid.steps + 1:
        raise ValueError(f"{name}: expected {grid.steps + 1} samples, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        raise ValueError(f"{name}: complex samples are not supported, pass "
                         "real and imaginary parts separately")
    return arr


@functools.lru_cache(maxsize=32)
def _fft_length(steps: int) -> int:
    """Smallest 2*3*5-smooth integer >= 2*steps + 1.

    At that length a circular convolution of two zero-padded sequences of
    steps + 1 samples equals their linear convolution.  pocketfft is
    fastest at such lengths.  2*steps + 1 itself often has a large prime
    factor, which pocketfft handles far more slowly, and the next power
    of two can be almost twice as long.
    """
    target = 2 * steps + 1
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power-of-two multiple of `odd` that reaches target
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _convolution_head(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first len(a) entries of np.convolve(a, row) for each row of `b`.

    `a` and the rows of `b` are real and of equal length.  Real FFT
    products, `a` transformed once; each row gets its own rfft call, as
    pocketfft rounds rows that share a call differently from a row alone.
    """
    size = len(a)
    n = _fft_length(size - 1)
    fft = np.fft  # numpy loads its fft module on first access
    fa = fft.rfft(a, n)
    out = np.empty(b.shape)
    for dest, row in zip(out.reshape(-1, size), b.reshape(-1, size)):
        dest[:] = fft.irfft(fa * fft.rfft(row, n), n)[:size]
    return out


def convolve(a, b, grid: TimeGrid) -> np.ndarray:
    """Product-trapezoidal convolution of two real sample sequences.

    Returns samples of int_0^t a(t-s) b(s) ds on the grid, with the
    shape of `b`: one sequence or an (N, K+1) stack of rows, each
    convolved with `a`.  The first entry of each row is exactly zero.
    Accuracy is O(step^2) for smooth factors.  Real FFT products give all
    K+1 samples of a row in O(K log K), `a` transformed once per call;
    round-off is absolute, about eps * step * |a| * |b| in the 2-norms of
    the factors.  Complex samples raise ValueError.
    """
    av = _real_samples(a, grid, "a")
    bv = _real_samples(b, grid, "b", ndim=2)
    out = _convolution_head(av, bv)
    for dest, row in zip(out.reshape(-1, len(av)), bv.reshape(-1, len(av))):
        dest -= 0.5 * (av * row[0] + row * av[0])  # end weights, row by row
    out *= grid.step
    out[..., 0] = 0.0
    return out


def convolve_transpose(a, p, grid: TimeGrid) -> np.ndarray:
    """Representer of the functional b -> p . convolve(a, b, grid).

    `convolve` is linear in each factor, so for fixed `a` and weights `p`
    the returned u satisfies

        u @ b == p @ convolve(a, b, grid)      for every b

    up to round-off.  One real FFT product builds it, after which each
    functional costs a dot product.  Real samples only, as for `convolve`.
    """
    av = _real_samples(a, grid, "a")
    pv = _real_samples(p, grid, "p")
    h = grid.step
    corr = _convolution_head(pv[::-1], av)[::-1]
    u = h * (corr - 0.5 * av[0] * pv)
    u[0] -= 0.5 * h * np.einsum("k,k->", pv, av)
    return u


def solve_volterra_second_kind(kernel, source, grid: TimeGrid) -> np.ndarray:
    """Solve x(t) = source(t) + int_0^t kernel(t-s) x(s) ds for real samples.

    Product-trapezoidal discretisation: x(t_1)..x(t_K) solve the Toeplitz
    system with first column [1 - h*kernel_0/2, -h*kernel_1, -h*kernel_2, ...].
    """
    kv = _real_samples(kernel, grid, "kernel")
    sv = _real_samples(source, grid, "source")
    h = grid.step
    denom = 1.0 - 0.5 * h * kv[0]
    if abs(denom) < 1e-12:
        raise ArithmeticError("second-kind equation is singular at this step size")
    memory = np.concatenate([[0.0], -h * kv[1:-1]])
    x = np.concatenate([sv[:1], sv[1:] + 0.5 * h * kv[1:] * sv[0]])
    _solve_toeplitz((denom, 0.0), memory, np.ones(1), x[None, 1:])
    return x


def _solve_toeplitz(d0, d1, weights, x) -> None:
    """Solve (D0 + weights[r]*D1) x_r = b_r in place, b_r the rows of `x`.

    D0 and D1 are lower-triangular Toeplitz with first columns `d0` (two
    entries) and `d1`.  A leaf of `_LEAF` unknowns is one triangular product
    per row (`np.einsum`) with the leading series coefficients of
    1/(d0 + w*d1).  The solved left half of a node, of length L, passes its
    history to the next L unknowns: d0 by its one entry across the boundary,
    D1 by a real FFT product of length 2L, whose wrap-around reaches only
    the solved half.
    """
    rows, size = x.shape
    series = np.zeros(max(_LEAF, 2 * size))
    series[: len(d1)] = d1
    w = np.asarray(weights, dtype=float)[:, None]
    head = w * series[:_LEAF]
    head[:, :2] += d0
    inverse = np.empty((rows, _LEAF))
    inverse[:, 0] = 1.0 / head[:, 0]
    for m in range(1, _LEAF):  # sum_{j=0..m} head_j inverse_{m-j} = 0
        inverse[:, m] = -np.einsum("ij,ij->i", head[:, m:0:-1], inverse[:, :m]) / head[:, 0]
    leaf = np.tril(inverse[:, np.subtract.outer(np.arange(_LEAF), np.arange(_LEAF))])
    spectra = {}
    for lo in range(0, size, _LEAF):
        hi = min(lo + _LEAF, size)
        x[:, lo:hi] = np.einsum("rij,rj->ri", leaf[:, : hi - lo, : hi - lo], x[:, lo:hi])
        if hi == size:
            return
        half = hi & -hi  # [hi - half, hi) is the left half of a node of length 2*half
        end = min(hi + half, size)
        if half not in spectra:
            spectra[half] = np.fft.rfft(series[: 2 * half])
        x[:, hi] -= d0[1] * x[:, hi - 1]
        block = max(1, _FFT_SAMPLES // (2 * half))
        for first in range(0, rows, block):
            part = slice(first, first + block)
            product = np.fft.rfft(x[part, hi - half : hi], 2 * half) * spectra[half]
            history = np.fft.irfft(product, 2 * half)[:, half : half + end - hi]
            x[part, hi:end] -= w[part] * history


def _march(grid: TimeGrid, kernel: np.ndarray, local: float, weights,
           forcing, dtype) -> np.ndarray:
    """March y_i' = local*y_i - weights[i]*(kernel * y_i) + g_i, y_i(0) = 1.

    Solves every row i at once and returns the (N, K+1) batch.  A complex
    batch is solved as 2N real rows, its real parts over its imaginary
    parts (which start at zero), as the kernel and coefficients are real.
    `forcing` is None or, for a complex batch, real rows (re, im) and
    scales s with g_i = re + 1j*s[i]*im, applied one row at a time.
    The steps y_k - y_{k-1} = (h/2)(f_k + f_{k-1}) are the Toeplitz system
    (D0 + weights[i]*D1) y = p_i: D0 = [1 - h*local/2, -(1 + h*local/2)],
    D1_m = (h^2/2)(L_m + L_{m-1}) with L_0 = kernel_0/2 and L_m = kernel_m,
    and p_i holds the start value, its half-weight memory term and g_i.
    """
    h = grid.step
    weights = np.asarray(weights, dtype=float)
    count = len(weights)
    start = np.ones(count)
    if dtype is complex:
        weights = np.concatenate([weights, weights])
        start = np.concatenate([start, np.zeros(count)])
    memory = np.concatenate([[0.0], kernel[:-1]])  # L_{m-1} for m = 0..K
    memory[1] *= 0.5
    d1 = (memory[1:] + memory[:-1]) * (0.5 * h * h)
    start_memory = 0.5 * h * kernel[1:]  # the start value's half weight in each sum
    start_memory[1:] += 0.5 * h * kernel[1:-1]
    # the complex result before the work array: freeing y then leaves no hole below it
    out = np.empty((count, grid.steps + 1), dtype=complex) if dtype is complex else None
    y = np.empty((len(weights), grid.steps + 1))
    y[:, 0] = start
    np.multiply.outer(-0.5 * h * weights * start, start_memory, out=y[:, 1:])
    y[:, 1] += (1.0 + 0.5 * h * local) * start
    if forcing is not None:
        re, im, scales = forcing
        y[:count, 1:] += 0.5 * h * (re[1:] + re[:-1])
        for row, g in zip(y[count:], (scale * im for scale in scales)):
            row[1:] += 0.5 * h * (g[1:] + g[:-1])
    d0 = (1.0 - 0.5 * h * local, -(1.0 + 0.5 * h * local))
    _solve_toeplitz(d0, d1, weights, y[:, 1:])
    if dtype is not complex:
        return y
    out.real, out.imag = y[:count], y[count:]
    return out


def _solve_batch(ns: Iterable[int], kernels: "DerivedKernelSet",
                 kind: TrajectoryKind) -> ModeFamily:
    """March every distinct |n| of `ns` on the grid of `kernels`, in one batch.

    Mode responses are even in n and moment kernels satisfy
    Z_{-n} = conj(Z_n), so both signs share one row and the symmetry is
    exact.  When `ns` lists distinct positive indices in increasing order
    the family holds the marched batch itself; otherwise its rows are a
    reordered copy, conjugated for negative moment-kernel indices.
    """
    ns = _mode_indices(ns)
    grid = kernels.grid
    sizes = sorted({abs(n) for n in ns})
    grid.require_resolution(sizes[-1])
    size = np.array(sizes, dtype=float)
    forcing, dtype = None, float
    if kind is TrajectoryKind.MOMENT_KERNEL:  # Hv + i*n*Ks
        forcing, dtype = (kernels.velocity_kernel, kernels.stress_kernel, size), complex
    batch = _march(grid, kernels.relaxation_scaled, 2.0 * kernels.alpha,
                   size * size, forcing, dtype)
    if list(ns) != sizes:  # conjugating a real mode row changes nothing
        batch = batch[np.searchsorted(sizes, np.abs(ns))]
        np.conjugate(batch, out=batch, where=np.less(ns, 0)[:, None])
    return ModeFamily(ns, kind, batch, grid)


def solve_modes(ns: Iterable[int], kernels: "DerivedKernelSet") -> ModeFamily:
    """Solve the memory oscillators of every mode in `ns` in one batch.

    The mode response y_n satisfies y' = 2*alpha*y - n^2 (Na * y) with
    y(0) = 1, where Na is the scaled relaxation kernel.  The response is
    real and even in the mode index.  The family lives on `kernels.grid`,
    its rows in the order of `ns`.
    """
    return _solve_batch(ns, kernels, TrajectoryKind.MODE)


def solve_mode(n: int, kernels: "DerivedKernelSet") -> ModeFamily:
    """Solve the memory oscillator of mode n (a one-index `solve_modes`)."""
    return solve_modes([n], kernels)


def mode_derivative(modes: ModeFamily, kernels: "DerivedKernelSet") -> np.ndarray:
    """Derivatives of the mode responses, reconstructed from their equation.

    Evaluating 2*alpha*y - n^2 (Na * y) on the solved samples keeps the
    derivative at the same O(step^2) accuracy as the response itself,
    which differencing would not.  Returns one row per mode of `modes`.
    """
    modes.require(TrajectoryKind.MODE, kernels.grid)
    weights = np.square(np.array(modes.ns, dtype=float))[:, None]
    conv = convolve(kernels.relaxation_scaled, modes.samples, modes.grid)
    return 2.0 * kernels.alpha * modes.samples - weights * conv


def solve_moment_kernels(ns: Iterable[int],
                         kernels: "DerivedKernelSet") -> ModeFamily:
    """Solve the complex moment kernels of every mode in `ns` in one batch.

    The kernel Z_n satisfies Z' = 2*alpha*Z - n^2 (Na * Z) + Hv + i*n*Ks
    with Z(0) = 1, where Hv and Ks are the velocity and stress series
    kernels.  Same scheme as `solve_modes`; Z_{-n} = conj(Z_n) exactly.
    """
    return _solve_batch(ns, kernels, TrajectoryKind.MOMENT_KERNEL)


def solve_moment_kernel(n: int, kernels: "DerivedKernelSet") -> ModeFamily:
    """Solve the moment kernel of mode n (a one-index `solve_moment_kernels`)."""
    return solve_moment_kernels([n], kernels)


def assemble_moment_kernel(modes: ModeFamily,
                           kernels: "DerivedKernelSet") -> ModeFamily:
    """Assemble the moment kernels of a family from its mode responses.

    Z_n = y_n + Hv * y_n + i*n*(Ks * y_n), by direct quadrature.
    Independent of the time-stepping route in `solve_moment_kernels`,
    which it cross-checks.
    """
    modes.require(TrajectoryKind.MODE, kernels.grid)
    grid, y = modes.grid, modes.samples
    ns = np.array(modes.ns, dtype=float)[:, None]
    samples = (y + convolve(kernels.velocity_kernel, y, grid)
               + 1j * ns * convolve(kernels.stress_kernel, y, grid))
    return ModeFamily(modes.ns, TrajectoryKind.MOMENT_KERNEL, samples, grid)


def oracle_exponential_mode(n: int, kernel: "MemoryKernel", grid: TimeGrid,
                            substeps: int = 8) -> ModeFamily:
    """High-accuracy mode response for exponential-sum memory kernels.

    When the scaled relaxation kernel is a finite exponential sum
    sum_i c_i exp(r_i t), the memory term is equivalent to auxiliary
    states u_i' = r_i u_i + y, u_i(0) = 0, turning the mode equation into
    the linear ODE system

        y' = 2*alpha*y - n^2 sum_i c_i u_i .

    The system is advanced with classical fourth-order Runge-Kutta at
    step h/substeps.  For a linear autonomous system the four stages
    compose into a constant one-step matrix P, so the state at node k is
    P^(substeps*k) applied to the start; the nodes are covered by doubling.

    Returns a one-row family.  Raises ValueError for kernels whose scaled
    relaxation is not an exponential sum.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    terms = kernel.scaled_relaxation_terms()
    dim = len(terms) + 1
    a = np.zeros((dim, dim))
    a[0, 0] = 2.0 * kernel.alpha
    for i, (coef, rate) in enumerate(terms, start=1):
        a[0, i] = -float(n) * float(n) * coef
        a[i, 0] = 1.0
        a[i, i] = rate
    ha = (grid.step / substeps) * a
    p2 = ha @ ha
    p3 = p2 @ ha
    p4 = p3 @ ha
    one_step = np.eye(dim) + ha + p2 / 2.0 + p3 / 6.0 + p4 / 24.0
    power = np.linalg.matrix_power(one_step, substeps)  # one grid node
    states = np.eye(dim)[:, :1]  # the states at nodes 0..m-1, as columns
    while states.shape[1] <= grid.steps:
        states = np.hstack([states, power @ states])
        power = power @ power
    return ModeFamily((n,), TrajectoryKind.MODE, states[:1, : grid.steps + 1], grid)
