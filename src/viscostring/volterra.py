"""Product-integration solvers for convolution Volterra equations.

The mode equations solved here all read

    y'(t) = a*y(t) - w*(k * y)(t) + g(t),    (k * y)(t) = int_0^t k(t-s) y(s) ds

on a uniform grid over [0, T], implicit trapezoidal in the local and
forcing terms with a product-trapezoidal memory sum: A-stable in the local
part and second order overall.  The steps of one row form a
lower-triangular Toeplitz system D0 + w*D1 (Lubich, Numer. Math. 52,
1988).  Every admitted kernel is a small linear system, Na(t) = c .
exp(gen*t) b (`MemoryKernel.scaled_relaxation_system`), so
`_solve_toeplitz` passes the history of the solved unknowns on through q
states per row, the exact recurrence of fast and oblivious convolution
quadrature (Schaedle, Lopez-Fernandez and Lubich, SIAM J. Sci. Comput. 28,
2006): O(K q) per row, no Python loop per time step.  The second-kind
solver shares it.  Convolutions of known samples (`convolve`,
`convolve_transpose`) are real FFT products, O(K log K) per row.

One march solves a batch of real rows on the grid of the kernel set.  A
solved family is one `ModeFamily`: indices, kind and the read-only real
array of its rows.  Callers solve each family once per run
(`solve_modes`, `solve_moment_kernels`; `solve_mode` and
`solve_moment_kernel` are one-index batches) and share it; consumers
check it with `ModeFamily.require`.  The solvers' products are
`np.einsum`, which calls no BLAS, and each row is solved alone, so the
bytes depend only on the caller's index list, under any BLAS thread
count.  `oracle_exponential_mode` carries the same system as ODE states
through fourth-order Runge-Kutta and shares no scheme with the march.
"""

from __future__ import annotations

import functools
import itertools
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

#: Unknowns per block of the Toeplitz solver, solved by one dense product.
_LEAF = 32


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
    MOMENT_KERNEL = "moment_kernel"      # kernel of the moment functionals, as (X, Y)


@dataclass(frozen=True, eq=False)
class ModeFamily:
    """Samples of one mode quantity for the indices `ns`, one row per index.

    Every n is positive.  `samples` is real and read-only: (len(ns), K+1)
    mode responses on `grid`, or for moment kernels Z_n = X_n + i*Y_n the
    (2, len(ns), K+1) rows X_n, then Y_n; Z_{-n} = conj(Z_n) enters only
    through the real form in `moments.gram`.
    """

    ns: tuple
    kind: TrajectoryKind
    samples: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        ns = _mode_indices(self.ns)
        rows = (2, len(ns)) if self.kind is TrajectoryKind.MOMENT_KERNEL else (len(ns),)
        if self.samples.shape != (*rows, self.grid.steps + 1):
            raise ValueError(f"samples of shape {self.samples.shape} do not hold "
                             f"{rows} rows of {self.grid.steps + 1} grid samples")
        object.__setattr__(self, "ns", ns)
        self.samples.setflags(write=False)

    __iter__ = None  # not a sequence of rows: iterate over `ns` or `samples`

    def __len__(self) -> int:
        return len(self.ns)

    def __getitem__(self, index) -> "ModeFamily":
        """The rows at a position, a slice or a list of positions (row axis)."""
        rows = index if isinstance(index, slice) else np.atleast_1d(index)
        return ModeFamily(tuple(np.array(self.ns)[rows].tolist()), self.kind,
                          self.samples[..., rows, :], self.grid)

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
    if min(ns) < 1:
        raise ValueError(f"mode indices must be positive, got {ns}")
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


def solve_volterra_second_kind(system, source, grid: TimeGrid) -> np.ndarray:
    """Solve x(t) = source(t) + int_0^t k(t-s) x(s) ds for real samples.

    k(t) = c . exp(gen*t) b is the system (gen, b, c, phi = exp(gen*step)),
    as `MemoryKernel.scaled_relaxation_system` gives Na.  Product-trapezoidal
    discretisation: x(t_1)..x(t_K) solve the Toeplitz system with first
    column [1 - h*k_0/2, -h*k_1, -h*k_2, ...], k_m = c . phi^m b.
    """
    _, b, c, phi = system
    sv = _real_samples(source, grid, "source")
    h = grid.step
    kv = np.einsum("i,im->m", c, _orbit(phi, b, grid.steps + 1))
    denom = 1.0 - 0.5 * h * kv[0]
    if abs(denom) < 1e-12:
        raise ArithmeticError("second-kind equation is singular at this step size")
    memory = np.concatenate([[0.0], -h * kv[1:_LEAF]])
    x = np.concatenate([sv[:1], sv[1:] + 0.5 * h * kv[1:] * sv[0]])
    _solve_toeplitz((denom, 0.0), memory, (-h * c, np.einsum("ij,j->i", phi, b), phi),
                    np.ones(1), x[None, 1:])
    return x


def _orbit(phi: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """phi^m v for m = 0..count-1 along a new axis 1, by repeated squaring."""
    out, power = v[:, None], phi
    while out.shape[1] < count:
        out = np.concatenate([out, np.einsum("ij,j...->i...", power, out)], axis=1)
        power = np.einsum("ij,jk->ik", power, power)
    return out[:, :count]


def _solve_toeplitz(d0, d1, history, weights, x) -> None:
    """Solve (D0 + weights[r]*D1) x_r = b_r in place, b_r the rows of `x`.

    D0 and D1 are lower-triangular Toeplitz with first columns `d0` (two
    entries) and `d1`, given up to `_LEAF` entries and continued by
    history = (e, f, phi) as d1_m = e . phi^(m-1) f for m >= 2.  Blocks of
    B = `_LEAF` unknowns are one triangular `np.einsum` product per row
    with the leading series coefficients of 1/(d0 + w*d1).  Before the
    block at lo, unknown lo + t loses w * e . phi^t S for the states S =
    sum_{j<lo} phi^(lo-1-j) f x_j, and unknown lo also the distance-1 term
    the geometric form misses, (d0_1 + w*(d1_1 - e . f)) x_{lo-1}; after
    it, S <- phi^B S + sum_t phi^(B-1-t) f x_{lo+t}.
    """
    rows, size = x.shape
    e, f, phi = history
    w = np.asarray(weights, dtype=float)[:, None]
    head = w * np.pad(d1, (0, _LEAF - len(d1)))
    head[:, :2] += d0
    inverse = np.empty((rows, _LEAF))
    inverse[:, 0] = 1.0 / head[:, 0]
    for m in range(1, _LEAF):  # sum_{j=0..m} head_j inverse_{m-j} = 0
        inverse[:, m] = -np.einsum("ij,ij->i", head[:, m:0:-1], inverse[:, :m]) / head[:, 0]
    leaf = np.tril(inverse[:, np.subtract.outer(np.arange(_LEAF), np.arange(_LEAF))])
    powers = _orbit(phi, np.eye(len(f)), _LEAF + 1)  # phi^m at [:, m, :]
    ahead = np.einsum("i,itj->tj", e, powers[:, :_LEAF])  # e . phi^t
    behind = np.einsum("itj,j->ti", powers[:, _LEAF - 1 :: -1], f)  # phi^(B-1-t) f
    edge = head[:, 1] - w[:, 0] * np.einsum("i,i->", e, f)  # d0_1 + w*(d1_1 - e . f)
    states = np.zeros((rows, len(f)))
    for lo in range(0, size, _LEAF):
        block = x[:, lo : lo + _LEAF]
        width = block.shape[1]
        if lo:
            block -= w * np.einsum("rj,tj->rt", states, ahead[:width])
            block[:, 0] -= edge * x[:, lo - 1]
        block[:] = np.einsum("rij,rj->ri", leaf[:, :width, :width], block)
        if lo + width < size:
            states = (np.einsum("ij,rj->ri", powers[:, _LEAF], states)
                      + np.einsum("ti,rt->ri", behind, block))


def _march(grid: TimeGrid, kernels: "DerivedKernelSet", local: float, weights,
           start, forcing) -> np.ndarray:
    """March y_i' = local*y_i - weights[i]*(Na * y_i) + g_i, y_i(0) = start[i].

    Solves every real row i at once for the Na of `kernels` and returns the
    (rows, K+1) batch; `forcing` yields the g_i in row order (or nothing).
    The steps y_k - y_{k-1} = (h/2)(f_k + f_{k-1}) are the Toeplitz system
    (D0 + weights[i]*D1) y = p_i, D0 = [1 - h*local/2, -(1 + h*local/2)],
    D1_m = (h^2/2)(L_m + L_{m-1}), L_0 = Na_0/2 and L_m = Na_m = c . phi^m b,
    so D1_m = c . phi^(m-1) (h^2/2)(phi b + b) for m >= 2; p_i holds y_i(0),
    its half-weight memory term and g_i.
    """
    h = grid.step
    kernel = kernels.relaxation_scaled
    memory = np.concatenate([[0.0], kernel[:_LEAF]])  # L_{m-1} for m = 0..
    memory[1] *= 0.5
    d1 = (memory[1:] + memory[:-1]) * (0.5 * h * h)
    start_memory = 0.5 * h * kernel[1:]  # the start value's half weight in each sum
    start_memory[1:] += 0.5 * h * kernel[1:-1]
    y = np.empty((len(weights), grid.steps + 1))
    y[:, 0] = start
    np.multiply.outer(-0.5 * h * weights * start, start_memory, out=y[:, 1:])
    y[:, 1] += (1.0 + 0.5 * h * local) * start
    for row, g in zip(y, forcing):
        row[1:] += 0.5 * h * (g[1:] + g[:-1])
    d0 = (1.0 - 0.5 * h * local, -(1.0 + 0.5 * h * local))
    _, b, c, phi = kernels.kernel.scaled_relaxation_system(h)
    f = (0.5 * h * h) * (np.einsum("ij,j->i", phi, b) + b)
    _solve_toeplitz(d0, d1, (c, f, phi), weights, y[:, 1:])
    return y


def _solve_batch(ns: Iterable[int], kernels: "DerivedKernelSet",
                 kind: TrajectoryKind) -> ModeFamily:
    """March the positive, increasing indices `ns` on the grid of `kernels`.

    Moment kernels are the real rows X_n (forcing Hv, start 1), then Y_n
    (forcing n*Ks, start 0), of the marched batch, which the family holds.
    """
    ns = _mode_indices(ns)
    if list(ns) != sorted(set(ns)):
        raise ValueError(f"mode indices must increase, got {ns}")
    grid = kernels.grid
    grid.require_resolution(ns[-1])
    size = np.array(ns, dtype=float)
    weights, start, forcing = size * size, np.ones(len(size)), ()
    moments = kind is TrajectoryKind.MOMENT_KERNEL
    if moments:
        weights, start = np.tile(weights, 2), np.repeat([1.0, 0.0], len(size))
        forcing = itertools.chain(itertools.repeat(kernels.velocity_kernel, len(size)),
                                  (n * kernels.stress_kernel for n in size))
    batch = _march(grid, kernels, 2.0 * kernels.alpha, weights, start, forcing)
    return ModeFamily(ns, kind, batch.reshape(2, len(ns), -1) if moments else batch, grid)


def solve_modes(ns: Iterable[int], kernels: "DerivedKernelSet") -> ModeFamily:
    """Solve the memory oscillators of every mode in `ns` in one batch.

    The mode response y_n satisfies y' = 2*alpha*y - n^2 (Na * y) with
    y(0) = 1, where Na is the scaled relaxation kernel.  `ns` must be
    positive and increasing; the family lives on `kernels.grid`.
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
    """Solve the moment kernels of every mode in `ns` in one batch.

    The kernel Z_n satisfies Z' = 2*alpha*Z - n^2 (Na * Z) + Hv + i*n*Ks
    with Z(0) = 1, where Hv and Ks are the velocity and stress series
    kernels.  Same scheme as `solve_modes`, as real rows X_n, then Y_n, of
    Z_n = X_n + i*Y_n (`ModeFamily`).
    """
    return _solve_batch(ns, kernels, TrajectoryKind.MOMENT_KERNEL)


def solve_moment_kernel(n: int, kernels: "DerivedKernelSet") -> ModeFamily:
    """Solve the moment kernel of mode n (a one-index `solve_moment_kernels`)."""
    return solve_moment_kernels([n], kernels)


def assemble_moment_kernel(modes: ModeFamily,
                           kernels: "DerivedKernelSet") -> ModeFamily:
    """Assemble the moment kernels of a family from its mode responses.

    X_n = y_n + Hv * y_n and Y_n = n*(Ks * y_n), by direct quadrature.
    Independent of the time-stepping route in `solve_moment_kernels`,
    which it cross-checks.
    """
    modes.require(TrajectoryKind.MODE, kernels.grid)
    grid, y = modes.grid, modes.samples
    ns = np.array(modes.ns, dtype=float)[:, None]
    samples = np.empty((2,) + y.shape)  # filled in place: no stacked copy
    np.add(y, convolve(kernels.velocity_kernel, y, grid), out=samples[0])
    np.multiply(ns, convolve(kernels.stress_kernel, y, grid), out=samples[1])
    return ModeFamily(modes.ns, TrajectoryKind.MOMENT_KERNEL, samples, grid)


def oracle_exponential_mode(n: int, kernel: "MemoryKernel", grid: TimeGrid,
                            substeps: int = 8) -> ModeFamily:
    """High-accuracy mode response for any admitted memory kernel.

    With Na(t) = c . exp(gen*t) b (`MemoryKernel.scaled_relaxation_system`)
    the memory term is c . u for the auxiliary states u' = gen u + b y,
    u(0) = 0, so the mode equation is the linear ODE system

        y' = 2*alpha*y - n^2 c . u .

    For a linear autonomous system classical fourth-order Runge-Kutta at
    step h/substeps is one constant matrix P, so the state at node k is
    P^(substeps*k) applied to the start; the nodes are covered by doubling.
    Returns a one-row family.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    gen, b, c, _ = kernel.scaled_relaxation_system(grid.step)
    a = np.block([[np.array([[2.0 * kernel.alpha]]), -float(n) * float(n) * c[None, :]],
                  [b[:, None], gen]])
    ha = (grid.step / substeps) * a
    p2 = ha @ ha
    p3 = p2 @ ha
    one_step = np.eye(len(a)) + ha + p2 / 2.0 + p3 / 6.0 + p3 @ ha / 24.0
    power = np.linalg.matrix_power(one_step, substeps)  # one grid node
    states = _orbit(power, np.eye(len(a))[:, 0], grid.steps + 1)
    return ModeFamily((n,), TrajectoryKind.MODE, states[:1], grid)
