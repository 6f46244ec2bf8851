"""Moment problems over the mode kernel family.

Steering the velocity/stress pair to prescribed coefficients at time T is
a moment problem: find a control u in L^2(0, T) with

    int_0^T Z_n(s) u(s) ds = gamma_n,    n in {+-1, ..., +-n_max},

where Z_n is the complex moment kernel of mode n, Z_{-n} = conj(Z_n), and
gamma_n = xi_n + i*eta_n packs the velocity and stress targets with
gamma_{-n} = conj(gamma_n).  Here u(s) = fw(T - s) is the reweighted
control read backwards.  The minimal-norm solution is sought in the span
of the conjugate kernels,

    u(s) = sum_m a_m conj(Z_m(s)),

which turns the problem into the Hermitian system G a = gamma with
G[m, n] = int_0^T Z_m conj(Z_n).  G is assembled with trapezoidal inner
products, its eigenvalue extremes come from a cyclic Jacobi iteration and
the system is solved by a Hermitian Cholesky factorisation.  Both routines
are written here with fixed-order pairwise reductions, so outputs are
byte-identical from run to run; at the desk scale of at most a 128 x 128
Gram this costs nothing.

The extreme eigenvalues of the normalised Gram are the computable shadow
of the family's Riesz property: bounded away from zero they certify
solvability at this truncation, collapsing they flag a horizon that is too
short.  Synthesis refuses to run when lambda_min <= 1e3 * eps * lambda_max.

A second, finite moment problem assigns deformation and stress pairs for
the first few modes using the real kernel pair (n*(Na * y_n), n*(Fg * y_n));
without memory the gap kernel Fg vanishes and unequal pair targets are
rejected as elastically degenerate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CrossCheckError,
    ElasticDegeneracyError,
    NearSingularGramError,
)
from .kernels import DerivedKernelSet, MemoryKernel, derive_kernels
from .spectral import ControlSignal, ModeParams, simulate_coefficients
from .volterra import (
    RESOLUTION_LIMIT,
    ModeTrajectory,
    TimeGrid,
    TrajectoryKind,
    assemble_moment_kernel,
    convolve,
    solve_modes,
    solve_moment_kernels,
)

__all__ = [
    "MomentTarget",
    "GramSystem",
    "SynthesisReport",
    "build_family",
    "gram",
    "synthesize_control",
    "finite_pair_control",
    "frame_bounds",
    "FrameBoundsReport",
    "quadratic_closeness",
    "ClosenessReport",
    "CROSS_CHECK_FACTOR",
    "NEAR_SINGULAR_FACTOR",
]

#: Dual-construction tolerance: the two moment-kernel routes must agree
#: within this multiple of step^2, uniformly in time.
CROSS_CHECK_FACTOR = 100.0

#: Gram matrices with lambda_min <= NEAR_SINGULAR_FACTOR * eps * lambda_max
#: are treated as singular (loss of the Riesz property at this truncation).
NEAR_SINGULAR_FACTOR = 1e3

RECOMMENDED_HORIZON = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class MomentTarget:
    """Velocity/stress coefficient targets for modes 1..n_max.

    The complex packing is gamma_n = xi_n + i*eta_n; the conjugate
    extension to negative indices is applied automatically wherever the
    full index set is needed.
    """

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if xi.ndim != 1 or xi.shape != eta.shape or len(xi) == 0:
            raise ValueError("xi and eta must be equal-length nonempty vectors")
        if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(eta))):
            raise ValueError("targets must be finite")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)
        xi.setflags(write=False)
        eta.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.xi)

    @property
    def gamma(self) -> np.ndarray:
        """Targets for positive indices."""
        return self.xi + 1j * self.eta

    def gamma_for(self, indices: Sequence[int]) -> np.ndarray:
        """Targets for a signed index list, conjugated for negative n."""
        g = self.gamma
        out = np.empty(len(indices), dtype=complex)
        for i, n in enumerate(indices):
            out[i] = g[n - 1] if n > 0 else np.conj(g[-n - 1])
        return out

    @classmethod
    def zero(cls, n_max: int) -> "MomentTarget":
        return cls(np.zeros(n_max), np.zeros(n_max))


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Gram matrix of the signed moment-kernel family on L^2(0, T)."""

    indices: tuple              # signed mode indices, row order
    rows: np.ndarray            # kernel samples per index, (2N, K+1)
    grid: TimeGrid
    matrix: np.ndarray          # G[a, b] = int rows[a] * conj(rows[b])
    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        self.rows.setflags(write=False)
        self.matrix.setflags(write=False)

    @property
    def condition(self) -> float:
        if self.lambda_min <= 0.0:
            return math.inf
        return self.lambda_max / self.lambda_min

    @property
    def near_singular(self) -> bool:
        eps = np.finfo(float).eps
        return self.lambda_min <= NEAR_SINGULAR_FACTOR * eps * self.lambda_max


@dataclass(frozen=True, eq=False)
class SynthesisReport:
    """Outcome of a minimal-norm control synthesis."""

    control: ControlSignal            # physical boundary input
    control_reweighted: np.ndarray    # exp(2*alpha*t) * control, as synthesised
    coefficients: np.ndarray          # expansion coefficients in the kernel span
    residuals: np.ndarray             # per-target moment residuals (complex)
    max_relative_residual: float
    control_norm: float               # L^2 norm of the reweighted control
    imag_fraction: float              # discarded imaginary content, relative
    lambda_min: float
    lambda_max: float
    condition: float
    roundtrip: dict | None = None     # filled by ops that re-simulate

    def __post_init__(self):
        self.control_reweighted.setflags(write=False)
        self.coefficients.setflags(write=False)
        self.residuals.setflags(write=False)


def _hermitian_eigenvalues(matrix: np.ndarray, tol: float = 1e-13,
                           max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Deterministic and thread-independent by construction, and adequate
    for the desk-scale matrices this package builds (<= 128 x 128).
    Runs in the complex promotion of the input dtype, so extended
    precision inputs keep their accuracy; eigenvalues are accurate to
    about eps * ||A|| in that precision.
    """
    work_dtype = np.promote_types(np.asarray(matrix).dtype, np.complex128)
    a = np.array(matrix, dtype=work_dtype)
    size = a.shape[0]
    if a.shape != (size, size):
        raise ValueError("matrix must be square")
    if size == 1:
        return np.array([a[0, 0].real])
    scale = max(float(np.max(np.abs(a))), 1.0)
    skip = 1e-3 * tol * scale
    for _ in range(max_sweeps):
        strict = a - np.diag(np.diag(a))
        off = float(np.sqrt(np.sum(np.abs(strict) ** 2)))
        if off <= tol * scale * size:
            break
        for p in range(size - 1):
            for q in range(p + 1, size):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                theta = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if abs(theta) > 1e150:  # rotation is essentially identity
                    tt = 0.5 / theta
                elif theta >= 0.0:
                    tt = 1.0 / (theta + np.sqrt(1.0 + theta * theta))
                else:
                    tt = -1.0 / (-theta + np.sqrt(1.0 + theta * theta))
                c = 1.0 / np.sqrt(1.0 + tt * tt)
                s = tt * c
                # unitary plane rotation: columns, then rows
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    return np.sort(np.diag(a).real)


def _cholesky_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a Hermitian positive-definite system via Cholesky.

    Works in the dtype of `matrix`, so callers can run ill-conditioned
    systems in extended precision.
    """
    size = matrix.shape[0]
    dtype = matrix.dtype
    lower = np.zeros((size, size), dtype=dtype)
    for i in range(size):
        diag = matrix[i, i].real - np.sum(np.abs(lower[i, :i]) ** 2)
        if diag <= 0.0:
            raise ArithmeticError("matrix is not numerically positive definite")
        lower[i, i] = np.sqrt(diag)
        for j in range(i + 1, size):
            lower[j, i] = (matrix[j, i]
                           - np.sum(lower[j, :i] * np.conj(lower[i, :i]))) / lower[i, i]
    fwd = np.zeros(size, dtype=dtype)
    for i in range(size):
        fwd[i] = (rhs[i] - np.sum(lower[i, :i] * fwd[:i])) / lower[i, i]
    sol = np.zeros(size, dtype=dtype)
    for i in range(size - 1, -1, -1):
        sol[i] = (fwd[i] - np.sum(np.conj(lower[i + 1:, i]) * sol[i + 1:])) / lower[i, i].real
    return sol


def build_family(kernels: DerivedKernelSet, grid: TimeGrid, n_max: int,
                 mode_family: Sequence[ModeTrajectory] | None = None
                 ) -> list[ModeTrajectory]:
    """Moment kernels for n = 1..n_max, cross-checked between both routes.

    All kernels are time stepped from their own equation in one batch, and
    each is independently assembled by quadrature from its mode response;
    a uniform deviation beyond CROSS_CHECK_FACTOR * step^2 on any mode
    aborts the build.  Pass a precomputed `mode_family` (n = 1, 2, ... in
    order) to reuse mode responses.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    grid.require_resolution(n_max)
    if mode_family is not None and len(mode_family) < n_max:
        raise ValueError("mode_family does not cover n = 1..n_max")
    tolerance = CROSS_CHECK_FACTOR * grid.step ** 2
    ns = range(1, n_max + 1)
    family = solve_moment_kernels(ns, kernels, grid)
    modes = mode_family[:n_max] if mode_family is not None \
        else solve_modes(ns, kernels, grid)
    for n, stepped, base in zip(ns, family, modes):
        assembled = assemble_moment_kernel(base, kernels)
        deviation = float(np.max(np.abs(stepped.samples - assembled.samples)))
        if deviation > tolerance:
            raise CrossCheckError(
                f"moment kernel n={n}: route deviation {deviation:.3e} exceeds "
                f"{tolerance:.3e}"
            )
    return family


def gram(family: Sequence[ModeTrajectory], grid: TimeGrid) -> GramSystem:
    """Hermitian Gram system of the family extended to signed indices.

    Rows for -n are the conjugate kernels.  Entries are trapezoidal inner
    products over [0, T]; eigenvalue extremes come from the cyclic Jacobi
    iteration.
    """
    if not family:
        raise ValueError("moment kernel family is empty")
    for traj in family:
        if traj.kind is not TrajectoryKind.MOMENT_KERNEL:
            raise ValueError("gram expects moment kernels")
        if traj.grid != grid:
            raise ValueError("family grid mismatch")
    indices = tuple(t.n for t in family) + tuple(-t.n for t in family)
    rows = np.vstack([t.samples for t in family]
                     + [np.conj(t.samples) for t in family])
    count = len(indices)
    weights = grid.trapezoid_weights()
    matrix = np.empty((count, count), dtype=complex)
    for a in range(count):
        wa = weights * rows[a]
        for b in range(a, count):
            val = np.sum(wa * np.conj(rows[b]))
            matrix[a, b] = val
            matrix[b, a] = np.conj(val)
    eigs = _hermitian_eigenvalues(matrix)
    return GramSystem(indices=indices, rows=rows, grid=grid, matrix=matrix,
                      lambda_min=float(eigs[0]), lambda_max=float(eigs[-1]))


def _report_from_solution(system: GramSystem, targets: np.ndarray,
                          coefficients: np.ndarray, alpha: float) -> SynthesisReport:
    grid = system.grid
    weights = grid.trapezoid_weights()
    u = np.sum(coefficients[:, None] * np.conj(system.rows), axis=0)
    achieved = np.array([np.sum(weights * system.rows[i] * u)
                         for i in range(len(system.indices))])
    residuals = achieved - targets
    target_scale = float(np.max(np.abs(targets))) if len(targets) else 0.0
    if target_scale > 0.0:
        max_rel = float(np.max(np.abs(residuals))) / target_scale
    else:
        max_rel = float(np.max(np.abs(residuals))) if len(residuals) else 0.0
    norm = math.sqrt(max(float(np.sum(weights * np.abs(u) ** 2)), 0.0))
    imag_norm = math.sqrt(float(np.sum(weights * u.imag ** 2)))
    imag_fraction = imag_norm / norm if norm > 0.0 else 0.0
    reweighted = u.real[::-1].copy()              # fw(t) = u(T - t)
    physical = np.exp(-2.0 * alpha * grid.times()) * reweighted
    return SynthesisReport(
        control=ControlSignal(physical, grid),
        control_reweighted=reweighted,
        coefficients=coefficients,
        residuals=residuals,
        max_relative_residual=max_rel,
        control_norm=norm,
        imag_fraction=imag_fraction,
        lambda_min=system.lambda_min,
        lambda_max=system.lambda_max,
        condition=system.condition,
    )


def synthesize_control(system: GramSystem, target: MomentTarget,
                       alpha: float = 0.0) -> SynthesisReport:
    """Minimal-norm control meeting the velocity/stress moment targets.

    Solves G a = gamma by Hermitian Cholesky, reconstructs the control
    from the conjugate-kernel span, re-verifies every moment by direct
    quadrature and reports the residuals.  `alpha` is the damping rate of
    the kernel set the family was built from; it converts the synthesised
    reweighted control back to the physical one.

    Raises NearSingularGramError when the Gram spectrum indicates loss of
    the Riesz property at this truncation; warns when the horizon is below
    the critical length for solvability of arbitrary targets.
    """
    if system.grid.horizon < RECOMMENDED_HORIZON - 1e-12:
        warnings.warn(
            f"horizon {system.grid.horizon:.6g} is below the critical length "
            f"{RECOMMENDED_HORIZON:.6g}; arbitrary targets may be unreachable",
            stacklevel=2,
        )
    if system.near_singular:
        raise NearSingularGramError(system.lambda_min, system.lambda_max)
    n_max = max(abs(n) for n in system.indices)
    if target.n_max != n_max:
        raise ValueError(
            f"target covers {target.n_max} modes but the family covers {n_max}"
        )
    gamma = target.gamma_for(system.indices)
    try:
        coefficients = _cholesky_solve(system.matrix, gamma)
    except ArithmeticError as exc:
        raise NearSingularGramError(system.lambda_min, system.lambda_max) from exc
    return _report_from_solution(system, gamma, coefficients, alpha)


def finite_pair_control(kernels: DerivedKernelSet, grid: TimeGrid,
                        deformation_targets, stress_targets) -> SynthesisReport:
    """Assign deformation and stress coefficients for modes 1..N at once.

    Works at any positive horizon.  The moment functions are the real
    kernel pair {n*(Na * y_n), n*(Fg * y_n)} and the real targets are
    (c_n, d_n - c_n) for deformation targets c and stress targets d.  The
    minimal-norm real control solves the symmetric Gram system of those
    2N functions.

    Without memory the gap kernel vanishes identically: targets with
    d != c raise ElasticDegeneracyError, while d == c degrades gracefully
    to the N deformation equations alone.

    The report's `roundtrip` entry re-simulates the synthesised control
    and compares the achieved deformation and stress coefficients with
    the requested ones.
    """
    c = np.asarray(deformation_targets, dtype=float)
    d = np.asarray(stress_targets, dtype=float)
    if c.ndim != 1 or c.shape != d.shape or len(c) == 0:
        raise ValueError("deformation and stress targets must be equal-length "
                         "nonempty vectors")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(d))):
        raise ValueError("targets must be finite")
    n_pair = len(c)
    if n_pair > 16:
        raise ValueError(f"finite pair problem limited to 16 modes, got {n_pair}")
    if kernels.grid != grid:
        raise ValueError("kernel grid mismatch")
    grid.require_resolution(n_pair)

    modes = solve_modes(range(1, n_pair + 1), kernels, grid)
    deform_rows = [float(t.n) * convolve(kernels.relaxation_scaled, t.samples, grid)
                   for t in modes]
    gap_rows = [float(t.n) * convolve(kernels.stress_gap, t.samples, grid)
                for t in modes]

    elastic = kernels.is_elastic
    if elastic:
        if not np.array_equal(c, d):
            raise ElasticDegeneracyError(
                "memory-free string: stress coefficients equal deformation "
                "coefficients, unequal pair targets are unreachable"
            )
        rows = np.vstack(deform_rows)
        targets = c.copy()
    else:
        rows = np.vstack(deform_rows + gap_rows)
        targets = np.concatenate([c, d - c])

    # The gap rows are images of the deformation rows under convolution
    # with the scaled memory kernel, so this Gram is intrinsically close
    # to singular (its spectrum reaches the round-off scale of float64
    # even when the functions are independent).  Assembling and solving
    # in extended precision keeps the achievable targets achievable; the
    # near-singular threshold uses the solver's epsilon accordingly.
    weights = grid.trapezoid_weights()
    count = rows.shape[0]
    rows_ld = rows.astype(np.longdouble)
    weights_ld = weights.astype(np.longdouble)
    matrix = np.empty((count, count), dtype=np.longdouble)
    for a in range(count):
        wa = weights_ld * rows_ld[a]
        for b in range(a, count):
            val = np.sum(wa * rows_ld[b])
            matrix[a, b] = val
            matrix[b, a] = val
    eigs = _hermitian_eigenvalues(matrix, tol=1e-18)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min <= NEAR_SINGULAR_FACTOR * float(np.finfo(np.longdouble).eps) * lam_max:
        raise NearSingularGramError(lam_min, lam_max)
    try:
        solution_ld = _cholesky_solve(matrix, targets.astype(np.longdouble))
    except ArithmeticError as exc:
        raise NearSingularGramError(lam_min, lam_max) from exc

    u_ld = np.sum(solution_ld[:, None] * rows_ld, axis=0)
    achieved = np.array([float(np.sum(weights_ld * rows_ld[i] * u_ld))
                         for i in range(count)])
    solution = solution_ld.astype(float)
    u = u_ld.astype(float)
    linear_residuals = achieved - targets
    if elastic:
        residuals = linear_residuals.astype(complex)
    else:
        residuals = linear_residuals[:n_pair] + 1j * linear_residuals[n_pair:]
    target_scale = float(np.max(np.abs(targets))) if np.any(targets) else 0.0
    max_rel = (float(np.max(np.abs(linear_residuals))) / target_scale
               if target_scale > 0.0 else float(np.max(np.abs(linear_residuals))))
    norm = math.sqrt(max(float(np.sum(weights * u ** 2)), 0.0))
    reweighted = u[::-1].copy()
    physical = np.exp(-2.0 * kernels.alpha * grid.times()) * reweighted
    control = ControlSignal(physical, grid)

    state = simulate_coefficients(control, modes, kernels)
    pair_error = np.concatenate([state.deformation - c, state.stress - d])
    denom = math.sqrt(float(np.sum(c ** 2) + np.sum(d ** 2)))
    rel = (math.sqrt(float(np.sum(pair_error ** 2))) / denom if denom > 0.0
           else math.sqrt(float(np.sum(pair_error ** 2))))
    roundtrip = {
        "deformation": state.deformation.copy(),
        "stress": state.stress.copy(),
        "relative_error": rel,
    }

    return SynthesisReport(
        control=control,
        control_reweighted=reweighted,
        coefficients=solution.astype(complex),
        residuals=residuals,
        max_relative_residual=max_rel,
        control_norm=norm,
        imag_fraction=0.0,
        lambda_min=lam_min,
        lambda_max=lam_max,
        condition=(lam_max / lam_min if lam_min > 0.0 else math.inf),
        roundtrip=roundtrip,
    )


@dataclass(frozen=True)
class FrameBoundsReport:
    """Empirical frame bounds of the normalised family per truncation size."""

    horizon: float
    sizes: tuple
    lambda_min_by_size: tuple
    lambda_max_by_size: tuple

    @property
    def lambda_min(self) -> float:
        return self.lambda_min_by_size[-1]

    @property
    def lambda_max(self) -> float:
        return self.lambda_max_by_size[-1]


_FRAME_SIZES = (4, 8, 16, 32)
_DEFAULT_DENSITY = 4096 / (2.0 * math.pi)  # grid nodes per unit time


def frame_bounds(kernel, horizon: float, n_max: int,
                 steps: int | None = None,
                 family: Sequence[ModeTrajectory] | None = None
                 ) -> FrameBoundsReport:
    """Eigenvalue extremes of the normalised Gram at growing truncations.

    Accepts either a memory kernel (derived internally on a grid for the
    requested horizon) or an already derived kernel set whose horizon
    matches.  The family is built once at n_max, or taken from `family`
    (the output of `build_family` for this kernel set), and the smaller
    truncations in {4, 8, 16, 32} are read off principal submatrices of
    the normalised Gram.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if isinstance(kernel, MemoryKernel):
        if steps is None:
            by_resolution = int(math.ceil(horizon * n_max / RESOLUTION_LIMIT))
            by_density = int(math.ceil(horizon * _DEFAULT_DENSITY))
            steps = max(by_resolution, by_density)
        grid = TimeGrid(horizon, steps)
        kernels = derive_kernels(kernel, grid)
    elif isinstance(kernel, DerivedKernelSet):
        kernels = kernel
        grid = kernels.grid
        if abs(grid.horizon - horizon) > 1e-12:
            raise ValueError("derived kernel horizon does not match the request")
    else:
        raise TypeError("kernel must be a MemoryKernel or DerivedKernelSet")

    if family is None:
        family = build_family(kernels, grid, n_max)
    elif len(family) < n_max:
        raise ValueError("family does not cover n = 1..n_max")
    system = gram(family[:n_max], grid)
    norms = np.sqrt(np.diag(system.matrix).real)
    normalised = system.matrix / np.outer(norms, norms)

    sizes = tuple(sorted({s for s in _FRAME_SIZES if s <= n_max} | {n_max}))
    mins, maxs = [], []
    for size in sizes:
        keep = [i for i, n in enumerate(system.indices) if abs(n) <= size]
        sub = normalised[np.ix_(keep, keep)]
        eigs = _hermitian_eigenvalues(sub)
        mins.append(float(eigs[0]))
        maxs.append(float(eigs[-1]))
    return FrameBoundsReport(horizon=grid.horizon, sizes=sizes,
                             lambda_min_by_size=tuple(mins),
                             lambda_max_by_size=tuple(maxs))


@dataclass(frozen=True, eq=False)
class ClosenessReport:
    """L^2 distances of the moment kernels from their limit exponentials."""

    ns: np.ndarray
    distances: np.ndarray      # squared L^2(0, T) distances d_n
    scaled: np.ndarray         # d_n * n^2
    partial_sums: np.ndarray   # cumulative sum of d_n

    def __post_init__(self):
        for arr in (self.ns, self.distances, self.scaled, self.partial_sums):
            arr.setflags(write=False)


def quadratic_closeness(family: Sequence[ModeTrajectory],
                        params: Sequence[ModeParams],
                        grid: TimeGrid) -> ClosenessReport:
    """Squared distances d_n = ||Z_n - exp((alpha + i*beta_n) t)||^2.

    Summability of d_n over the family is what anchors the Riesz property
    of the kernels to that of the limit exponentials; the scaled sequence
    d_n * n^2 staying bounded is the desk-scale check of it.  Requires
    every oscillation frequency to be real and nonzero.
    """
    if len(family) != len(params):
        raise ValueError("family and params must align")
    weights = grid.trapezoid_weights()
    times = grid.times()
    ns, dists = [], []
    for traj, par in zip(family, params):
        if traj.n != par.n:
            raise ValueError("family and params must align index by index")
        if traj.kind is not TrajectoryKind.MOMENT_KERNEL:
            raise ValueError("closeness expects moment kernels")
        if not par.beta_is_real:
            raise ValueError(
                f"mode n={par.n}: closeness requires a real oscillation frequency"
            )
        beta = par.beta.real if isinstance(par.beta, complex) else par.beta
        # negative indices carry conjugate kernels, hence signed frequencies
        freq = beta if par.n > 0 else -beta
        reference = np.exp((par.alpha + 1j * freq) * times)
        dists.append(float(np.sum(weights * np.abs(traj.samples - reference) ** 2)))
        ns.append(traj.n)
    ns_arr = np.asarray(ns)
    d_arr = np.asarray(dists)
    return ClosenessReport(ns=ns_arr, distances=d_arr,
                           scaled=d_arr * ns_arr.astype(float) ** 2,
                           partial_sums=np.cumsum(d_arr))
