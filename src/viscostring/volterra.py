"""Product-integration solvers for convolution Volterra equations.

Every time integral in this package has convolution form, and the mode
equations solved here all read

    y'(t) = a*y(t) - w*(k * y)(t) + g(t),    (k * y)(t) = int_0^t k(t-s) y(s) ds

on a uniform grid over [0, T].  The discretisation is implicit trapezoidal
in the local and forcing terms with a product-trapezoidal memory sum.  The
newest node enters the step equation through both the local term and the
last quadrature weight; that equation is scalar and linear, so it is solved
in closed form at every step.  The scheme is A-stable in the local part and
second-order accurate overall.  The march costs O(K^2) per trajectory,
which is the accepted price at desk scale.

Convolutions of known samples (`convolve`, `convolve_transpose`) are one
real FFT product each, O(K log K), at the smallest 2*3*5-smooth length
that holds the linear convolution.  They take real samples only.  Their
round-off is absolute, about eps*step*|a|*|b| in the 2-norms of the
factors.  pocketfft is single-threaded and deterministic and calls no
BLAS, so reruns give the same bytes under any BLAS thread count.

One march advances a whole batch of mode indices at once, on the grid the
kernel set was derived on (`DerivedKernelSet.grid`): the state holds
one row per mode, every step's history sums are a single BLAS
matrix-vector product over the batch, and the closed-form step update is
applied to the whole column.  Callers solve each family once per run
(`solve_modes`, `solve_moment_kernels`) and share it; `solve_mode` and
`solve_moment_kernel` are one-index batches of the same engine.  The
product's summation order depends on the batch shape, which the caller's
index list fixes; the tests check that the BLAS thread count does not
change a single byte.

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
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .kernels import DerivedKernelSet, MemoryKernel

__all__ = [
    "RESOLUTION_LIMIT",
    "TimeGrid",
    "TrajectoryKind",
    "ModeTrajectory",
    "validate_family",
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

    def integrate(self, samples: np.ndarray):
        """Trapezoidal integral of grid samples over [0, horizon]."""
        samples = np.asarray(samples)
        if samples.shape[-1] != self.steps + 1:
            raise ValueError("sample length does not match the grid")
        return np.sum(self.trapezoid_weights() * samples, axis=-1)

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
    MODE_DERIVATIVE = "mode_derivative"  # time derivative of a mode response


@dataclass(frozen=True, eq=False)
class ModeTrajectory:
    """Samples of one mode quantity on a uniform grid.

    Mode responses are real; moment kernels are complex, with the kernel
    for index -n equal to the complex conjugate of the kernel for n.
    """

    n: int
    kind: TrajectoryKind
    samples: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("mode index must be a nonzero integer")
        if len(self.samples) != self.grid.steps + 1:
            raise ValueError("sample length does not match the grid")
        self.samples.setflags(write=False)

    def conjugated(self) -> "ModeTrajectory":
        """The trajectory of the opposite mode index."""
        return ModeTrajectory(
            n=-self.n, kind=self.kind, samples=np.conj(self.samples), grid=self.grid
        )


def validate_family(family: Sequence[ModeTrajectory], kind: TrajectoryKind,
                    grid: TimeGrid | None = None, ordered: bool = False) -> TimeGrid:
    """Check a solved family and return its one grid.

    The family must be nonempty, hold trajectories of `kind` only and lie
    on one grid, which is `grid` when given.  With `ordered` entry i must
    be mode n = i, for callers that zip the family with 1..N.
    """
    if not family:
        raise ValueError(f"{kind.value} family is empty")
    grid = family[0].grid if grid is None else grid
    for i, traj in enumerate(family, start=1):
        if traj.kind is not kind:
            raise ValueError(f"family entry {i} is a {traj.kind.value}, "
                             f"expected a {kind.value}")
        if ordered and traj.n != i:
            raise ValueError(f"family must cover n = 1..{len(family)} in order, "
                             f"entry {i} has n={traj.n}")
        if traj.grid != grid:
            raise ValueError(f"family entry {i} is on another grid")
    return grid


def _as_samples(seq, grid: TimeGrid, name: str) -> np.ndarray:
    arr = np.asarray(seq)
    if arr.ndim != 1 or len(arr) != grid.steps + 1:
        raise ValueError(f"{name}: expected {grid.steps + 1} samples, got shape {arr.shape}")
    return arr


def _real_samples(seq, grid: TimeGrid, name: str) -> np.ndarray:
    arr = _as_samples(seq, grid, name)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name}: complex samples are not supported, convolve "
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
    """The first len(a) entries of np.convolve(a, b), by one real FFT product.

    `a` and `b` are real and of equal length.
    """
    size = len(a)
    n = _fft_length(size - 1)
    fft = np.fft  # numpy loads its fft module on first access
    return fft.irfft(fft.rfft(a, n) * fft.rfft(b, n), n)[:size]


def convolve(a, b, grid: TimeGrid) -> np.ndarray:
    """Product-trapezoidal convolution of two real sample sequences.

    Returns samples of int_0^t a(t-s) b(s) ds on the grid.  The first
    entry is exactly zero.  Accuracy is O(step^2) for smooth factors.  One
    real FFT product gives all K+1 samples in O(K log K); its round-off is
    absolute, about eps * step * |a| * |b| in the 2-norms of the factors.
    Complex samples raise ValueError.
    """
    av = _real_samples(a, grid, "a")
    bv = _real_samples(b, grid, "b")
    full = _convolution_head(av, bv)
    out = grid.step * (full - 0.5 * (av * bv[0] + bv * av[0]))
    out[0] = 0.0
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
    u[0] -= 0.5 * h * np.dot(pv, av)
    return u


def solve_volterra_second_kind(kernel, source, grid: TimeGrid) -> np.ndarray:
    """Solve x(t) = source(t) + int_0^t kernel(t-s) x(s) ds.

    Product-trapezoidal discretisation; the implicit weight on the newest
    node is absorbed into a constant denominator.
    """
    kv = _as_samples(kernel, grid, "kernel")
    sv = _as_samples(source, grid, "source")
    h = grid.step
    steps = grid.steps
    denom = 1.0 - 0.5 * h * kv[0]
    if abs(denom) < 1e-12:
        raise ArithmeticError("second-kind equation is singular at this step size")
    x = np.zeros(steps + 1, dtype=np.result_type(kv, sv))
    x[0] = sv[0]
    rev = np.ascontiguousarray(kv[::-1])  # rev[j] = kernel[steps - j]
    buf = np.empty(steps, dtype=x.dtype)
    for k in range(1, steps + 1):
        m = k - 1
        hist = 0.5 * kv[k] * x[0]
        if m:
            np.multiply(rev[steps - k + 1 : steps], x[1:k], out=buf[:m])
            hist += buf[:m].sum()
        x[k] = (sv[k] + h * hist) / denom
    return x


def _march(grid: TimeGrid, kernel: np.ndarray, local: float, weights,
           forcing, dtype) -> np.ndarray:
    """March y_i' = local*y_i - weights[i]*(kernel * y_i) + g_i, y_i(0) = 1.

    Advances every row i at once and returns the (N, K+1) batch.  The
    kernel and coefficients are real, so a complex batch is marched as 2N
    real rows, its real parts over its imaginary parts (which start at
    zero).  `forcing` is None or a real array with one row of g_i per
    marched row.
    """
    h = grid.step
    steps = grid.steps
    kern = np.ascontiguousarray(kernel, dtype=float)
    weights = np.asarray(weights, dtype=float)
    count = len(weights)
    start = np.ones(count)
    if dtype is complex:
        weights = np.concatenate([weights, weights])
        start = np.concatenate([start, np.zeros(count)])
    y = np.zeros((len(weights), steps + 1))
    y[:, 0] = start
    g = forcing[:, 0] if forcing is not None else 0.0
    rhs = local * start + g
    denom = 1.0 - 0.5 * h * local + 0.25 * h * h * weights * kern[0]
    rev = np.ascontiguousarray(kern[::-1])  # rev[j] = kern[steps - j]
    for k in range(1, steps + 1):
        hist = 0.5 * kern[k] * start + y[:, 1:k] @ rev[steps - k + 1 : steps]
        hist *= h
        g = forcing[:, k] if forcing is not None else 0.0
        ynew = (y[:, k - 1] + 0.5 * h * (rhs + g - weights * hist)) / denom
        y[:, k] = ynew
        rhs = local * ynew - weights * (hist + 0.5 * h * kern[0] * ynew) + g
    if dtype is not complex:
        return y
    out = np.empty((count, steps + 1), dtype=complex)
    out.real = y[:count]
    out.imag = y[count:]
    return out


def _solve_batch(ns: Iterable[int], kernels: "DerivedKernelSet",
                 kind: TrajectoryKind) -> list[ModeTrajectory]:
    """March every distinct |n| of `ns` on the grid of `kernels`, in one batch.

    Mode responses are even in n and moment kernels satisfy
    Z_{-n} = conj(Z_n), so both signs share one row and the symmetry is
    exact.  Returned samples are read-only row views of the batch (copies
    only for conjugated moment kernels).
    """
    ns = list(ns)
    if not ns:
        raise ValueError("no mode indices given")
    if 0 in ns:
        raise ValueError("mode index must be a nonzero integer")
    grid = kernels.grid
    sizes = sorted({abs(n) for n in ns})
    grid.require_resolution(sizes[-1])
    size = np.array(sizes, dtype=float)
    if kind is TrajectoryKind.MODE:
        forcing, dtype = None, float
    else:  # Hv + i*n*Ks: real parts over imaginary parts
        forcing = np.empty((2 * len(sizes), grid.steps + 1))
        forcing[: len(sizes)] = kernels.velocity_kernel
        np.multiply(size[:, None], kernels.stress_kernel, out=forcing[len(sizes):])
        dtype = complex
    batch = _march(grid, kernels.relaxation_scaled, 2.0 * kernels.alpha,
                   size * size, forcing, dtype)
    batch.setflags(write=False)
    rows = dict(zip(sizes, batch))
    out = []
    for n in ns:
        samples = rows[abs(n)]
        if n < 0 and dtype is complex:
            samples = np.conj(samples)
        out.append(ModeTrajectory(n=n, kind=kind, samples=samples, grid=grid))
    return out


def solve_modes(ns: Iterable[int], kernels: "DerivedKernelSet") -> list[ModeTrajectory]:
    """Solve the memory oscillators of every mode in `ns` in one batch.

    The mode response y_n satisfies y' = 2*alpha*y - n^2 (Na * y) with
    y(0) = 1, where Na is the scaled relaxation kernel.  The response is
    real and even in the mode index.  Trajectories live on `kernels.grid`
    and come back in the order of `ns`.
    """
    return _solve_batch(ns, kernels, TrajectoryKind.MODE)


def solve_mode(n: int, kernels: "DerivedKernelSet") -> ModeTrajectory:
    """Solve the memory oscillator of mode n (a one-index `solve_modes`)."""
    return solve_modes([n], kernels)[0]


def mode_derivative(trajectory: ModeTrajectory, kernels: "DerivedKernelSet") -> ModeTrajectory:
    """Derivative of a mode response, reconstructed from its own equation.

    Evaluating 2*alpha*y - n^2 (Na * y) on the solved samples keeps the
    derivative at the same O(step^2) accuracy as the response itself,
    which differencing would not.
    """
    if trajectory.kind is not TrajectoryKind.MODE:
        raise ValueError(f"expected a mode response, got {trajectory.kind}")
    if trajectory.grid != kernels.grid:
        raise ValueError("trajectory grid does not match the kernel grid")
    n = trajectory.n
    conv = convolve(kernels.relaxation_scaled, trajectory.samples, trajectory.grid)
    samples = 2.0 * kernels.alpha * trajectory.samples - float(n) * float(n) * conv
    return ModeTrajectory(n=n, kind=TrajectoryKind.MODE_DERIVATIVE,
                          samples=samples, grid=trajectory.grid)


def solve_moment_kernels(ns: Iterable[int],
                         kernels: "DerivedKernelSet") -> list[ModeTrajectory]:
    """Solve the complex moment kernels of every mode in `ns` in one batch.

    The kernel Z_n satisfies Z' = 2*alpha*Z - n^2 (Na * Z) + Hv + i*n*Ks
    with Z(0) = 1, where Hv and Ks are the velocity and stress series
    kernels.  Same scheme as `solve_modes`; Z_{-n} = conj(Z_n) exactly.
    """
    return _solve_batch(ns, kernels, TrajectoryKind.MOMENT_KERNEL)


def solve_moment_kernel(n: int, kernels: "DerivedKernelSet") -> ModeTrajectory:
    """Solve the moment kernel of mode n (a one-index `solve_moment_kernels`)."""
    return solve_moment_kernels([n], kernels)[0]


def assemble_moment_kernel(trajectory: ModeTrajectory,
                           kernels: "DerivedKernelSet") -> ModeTrajectory:
    """Assemble the moment kernel of mode n from its solved mode response.

    Z = y + Hv * y + i*n*(Ks * y), by direct quadrature.  Independent of
    the time-stepping route in `solve_moment_kernel`, which it cross-checks.
    """
    if trajectory.kind is not TrajectoryKind.MODE:
        raise ValueError(f"expected a mode response, got {trajectory.kind}")
    if trajectory.grid != kernels.grid:
        raise ValueError("trajectory grid does not match the kernel grid")
    n = trajectory.n
    grid = trajectory.grid
    y = trajectory.samples
    samples = (y + convolve(kernels.velocity_kernel, y, grid)
               + 1j * float(n) * convolve(kernels.stress_kernel, y, grid))
    return ModeTrajectory(n=n, kind=TrajectoryKind.MOMENT_KERNEL,
                          samples=samples, grid=grid)


def oracle_exponential_mode(n: int, kernel: "MemoryKernel", grid: TimeGrid,
                            substeps: int = 8) -> ModeTrajectory:
    """High-accuracy mode response for exponential-sum memory kernels.

    When the scaled relaxation kernel is a finite exponential sum
    sum_i c_i exp(r_i t), the memory term is equivalent to auxiliary
    states u_i' = r_i u_i + y, u_i(0) = 0, turning the mode equation into
    the linear ODE system

        y' = 2*alpha*y - n^2 sum_i c_i u_i .

    The system is advanced with classical fourth-order Runge-Kutta at
    step h/substeps.  For a linear autonomous system the four stages
    compose into a constant one-step matrix, which is precomputed and
    applied `substeps` times per grid node.

    Raises ValueError for kernels whose scaled relaxation is not an
    exponential sum.
    """
    if n == 0:
        raise ValueError("mode index must be a nonzero integer")
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
    per_node = np.linalg.matrix_power(one_step, substeps)
    samples = np.empty(grid.steps + 1)
    state = np.zeros(dim)
    state[0] = 1.0
    samples[0] = 1.0
    for k in range(1, grid.steps + 1):
        state = per_node @ state
        samples[k] = state[0]
    return ModeTrajectory(n=n, kind=TrajectoryKind.MODE, samples=samples, grid=grid)
