"""Moment problems over the mode kernel family.

Steering the velocity/stress pair to prescribed coefficients at time T is
a moment problem: find a control u in L^2(0, T) with

    int_0^T Z_n(s) u(s) ds = gamma_n,    n in {+-1, ..., +-n_max},

where Z_n is the complex moment kernel of mode n, Z_{-n} = conj(Z_n), and
gamma_n = xi_n + i*eta_n packs the velocity and stress targets with
gamma_{-n} = conj(gamma_n).  Here u(s) = fw(T - s) is the reweighted
control read backwards.  With Z_n = X_n + i*Y_n the signed rows are
[Z; conj Z] = T [X; Y] with T T^H = 2I, so the problem is the real one

    int_0^T X_n u = xi_n,    int_0^T Y_n u = eta_n,

whose minimal-norm solution is real and lies in the span of the rows.
Its Gram G[m, n] = int_0^T R_m R_n over the 2N real rows R = [X; Y] is
A A^T for the trapezoid-weighted sample matrix A = R * sqrt(w), and the
Hermitian Gram of the signed complex rows, T G T^H, has exactly twice its
eigenvalues.  A solve never uses G: A = L Q is factored once (Q with
orthonormal rows), the eigenvalues of G are the squared singular values of
L and the control is u = Q^T L^{-1} targets / sqrt(w), so the solve sees
the condition number of A, not its square (least squares rather than
normal equations; Golub & Van Loan).

The extreme eigenvalues of the normalised Gram are the computable shadow
of the family's Riesz property: bounded away from zero they certify
solvability at this truncation, collapsing they flag a horizon that is too
short.  `frame_bounds` forms G by quadrature and builds no factor.
Synthesis refuses to run when lambda_min <= 1e3 * eps * lambda_max.

Solved families are arguments, each one `ModeFamily` array:
`build_family(kernels, modes)` checks the moment kernels n = 1..len(modes)
against the caller's mode responses, and `gram`, `frame_bounds` and
`quadratic_closeness` read the family it returns.  `finite_pair_control`
alone solves its modes, as their only reader.  Every consumer checks its
family with `ModeFamily.require` and works on all its rows at once.

A second, finite moment problem assigns deformation and stress pairs for
the first few modes using the real kernel pair (n*(Na * y_n), n*(Fg * y_n));
it goes through the same factorisation and solve.  Without memory the gap
kernel Fg vanishes and unequal pair targets are rejected as elastically
degenerate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    CrossCheckError,
    ElasticDegeneracyError,
    NearSingularGramError,
)
from .kernels import DerivedKernelSet
from .spectral import ControlSignal, ModeParams, simulate_coefficients
from .volterra import (
    ModeFamily,
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
    "PAIR_NEAR_SINGULAR_RATIO",
]

#: Dual-construction tolerance: the two moment-kernel routes must agree
#: within this multiple of step^2, uniformly in time.
CROSS_CHECK_FACTOR = 100.0

#: Gram matrices with lambda_min <= NEAR_SINGULAR_FACTOR * eps * lambda_max
#: are treated as singular (loss of the Riesz property at this truncation).
NEAR_SINGULAR_FACTOR = 1e3

#: The finite pair Gram is near singular when lambda_min <=
#: PAIR_NEAR_SINGULAR_RATIO * lambda_max (1e3 * 2^-63, below the float64
#: gate because that Gram is intrinsically close to singular).
PAIR_NEAR_SINGULAR_RATIO = 1e3 * 2.0 ** -63

RECOMMENDED_HORIZON = 2.0 * math.pi


def below_critical_horizon(horizon: float) -> bool:
    """True when `horizon` is too short for arbitrary steering targets."""
    return horizon < RECOMMENDED_HORIZON - 1e-12


@dataclass(frozen=True, eq=False)
class MomentTarget:
    """Velocity/stress coefficient targets for modes 1..n_max.

    The complex packing is gamma_n = xi_n + i*eta_n, with
    gamma_{-n} = conj(gamma_n) for the negative indices.
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
        for name, arr in (("xi", xi), ("eta", eta)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.xi)

    @property
    def gamma(self) -> np.ndarray:
        """Targets for positive indices."""
        return self.xi + 1j * self.eta

    @classmethod
    def zero(cls, n_max: int) -> "MomentTarget":
        return cls(np.zeros(n_max), np.zeros(n_max))


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Gram system of a family of real moment functions on L^2(0, T), factored.

    The weighted sample matrix A = rows * sqrt(w) (trapezoid weights w) is
    held as A = lower @ orthonormal, so G = A A^T = lower @ lower^T has the
    squared singular values of `lower` as eigenvalues; G is never formed.
    """

    indices: tuple              # mode index of each row
    functions: np.ndarray       # samples of the rows, (rows, K+1)
    grid: TimeGrid
    lower: np.ndarray           # L, lower triangular, (rows, rows)
    orthonormal: np.ndarray     # Q, orthonormal rows, (rows, K+1)
    lambda_min: float           # extreme eigenvalues of G (times 2 for
    lambda_max: float           # steering, see `gram`)

    def __post_init__(self):
        for arr in (self.functions, self.lower, self.orthonormal):
            arr.setflags(write=False)

    @property
    def condition(self) -> float:
        return self.lambda_max / self.lambda_min if self.lambda_min > 0.0 else math.inf

    @property
    def near_singular(self) -> bool:
        eps = np.finfo(float).eps
        return self.lambda_min <= NEAR_SINGULAR_FACTOR * eps * self.lambda_max


@dataclass(frozen=True, eq=False)
class SynthesisReport:
    """Outcome of a minimal-norm control synthesis."""

    control: ControlSignal            # physical boundary input
    control_reweighted: np.ndarray    # exp(2*alpha*t) * control, as synthesised
    residuals: np.ndarray             # per-target moment residuals (complex)
    max_relative_residual: float
    control_norm: float               # L^2 norm of the reweighted control
    lambda_min: float
    lambda_max: float
    condition: float
    roundtrip: dict | None = None     # filled by ops that re-simulate

    def __post_init__(self):
        self.control_reweighted.setflags(write=False)
        self.residuals.setflags(write=False)


def build_family(kernels: DerivedKernelSet, modes: ModeFamily) -> ModeFamily:
    """Moment kernels for n = 1..len(modes) on `kernels.grid`, cross-checked.

    `modes` holds the mode responses n = 1, 2, ... in order on the kernel
    grid.  All kernels are time stepped from their own equation in one
    batch, and all are independently assembled by quadrature from the mode
    responses; a uniform deviation beyond CROSS_CHECK_FACTOR * step^2 on
    any mode aborts the build.
    """
    modes.require(TrajectoryKind.MODE, kernels.grid, ordered=True)
    tolerance = CROSS_CHECK_FACTOR * kernels.grid.step ** 2
    family = solve_moment_kernels(range(1, len(modes) + 1), kernels)
    assembled = assemble_moment_kernel(modes, kernels)
    for n, stepped, check in zip(modes.ns, family.samples, assembled.samples):
        deviation = float(np.max(np.abs(stepped - check)))
        if deviation > tolerance:
            raise CrossCheckError(
                f"moment kernel n={n}: route deviation {deviation:.3e} "
                f"exceeds {tolerance:.3e}"
            )
    return family


def _factorise(indices: tuple, functions: np.ndarray,
               grid: TimeGrid) -> GramSystem:
    """LQ factor of A = rows * sqrt(w) for real rows, by Gram-Schmidt twice.

    The second pass keeps Q orthonormal to working precision.  Every
    length-K reduction is an `np.einsum`, which does not call BLAS, so the
    factor has the same bits at any BLAS thread count.
    """
    factor = functions * np.sqrt(grid.trapezoid_weights())
    lower = np.zeros((len(factor), len(factor)))
    for i, row in enumerate(factor):
        done = factor[:i]
        for _ in range(2):
            proj = np.einsum("jk,k->j", done, row)
            row -= np.einsum("j,jk->k", proj, done)
            lower[i, :i] += proj
        norm = math.sqrt(np.einsum("k,k->", row, row))
        lower[i, i] = norm
        if norm > 0.0:
            row /= norm
    sigma = np.linalg.svd(lower, compute_uv=False)
    return GramSystem(indices=indices, functions=functions, grid=grid,
                      lower=lower, orthonormal=factor,
                      lambda_min=float(sigma[-1] ** 2),
                      lambda_max=float(sigma[0] ** 2))


def gram(family: ModeFamily) -> GramSystem:
    """Gram system of the real rows X_n, then Y_n, of Z_n = X_n + i*Y_n.

    The extremes reported are twice those of the real Gram: exactly those
    of the Hermitian Gram of the signed rows Z_n, then conj Z_n.  Inner
    products are trapezoidal on the family's grid.
    """
    family.require(TrajectoryKind.MOMENT_KERNEL)
    rows = np.concatenate([family.samples.real, family.samples.imag])
    system = _factorise(family.ns + family.ns, rows, family.grid)
    return replace(system, lambda_min=2.0 * system.lambda_min,
                   lambda_max=2.0 * system.lambda_max)


def _minimal_norm_report(system: GramSystem, targets: np.ndarray,
                         alpha: float) -> SynthesisReport:
    """Minimal-norm control meeting real `targets`, re-verified by quadrature.

    u is formed from Q, not as sum a_m rows[m] with a = G^{-1} targets,
    which would square the condition number again.
    """
    grid = system.grid
    weights = grid.trapezoid_weights()
    try:
        half = np.linalg.solve(system.lower, targets)
    except np.linalg.LinAlgError as exc:
        raise NearSingularGramError(system.lambda_min, system.lambda_max) from exc
    u = np.einsum("m,mk->k", half, system.orthonormal)
    u /= np.sqrt(weights)
    weighted = weights * u
    achieved = [np.einsum("k,k->", f, weighted) for f in system.functions]
    residuals = np.array(achieved) - targets
    worst = float(np.max(np.abs(residuals)))
    target_scale = float(np.max(np.abs(targets)))
    max_rel = worst / target_scale if target_scale > 0.0 else worst
    norm = math.sqrt(float(np.sum(weights * u ** 2)))
    reweighted = u[::-1].copy()                   # fw(t) = u(T - t)
    physical = np.exp(-2.0 * alpha * grid.times()) * reweighted
    return SynthesisReport(
        control=ControlSignal(physical, grid),
        control_reweighted=reweighted,
        residuals=residuals,
        max_relative_residual=max_rel,
        control_norm=norm,
        lambda_min=system.lambda_min,
        lambda_max=system.lambda_max,
        condition=system.condition,
    )


def synthesize_control(system: GramSystem, target: MomentTarget,
                       alpha: float = 0.0) -> SynthesisReport:
    """Minimal-norm control meeting the velocity/stress moment targets.

    Solves the real moment equations for xi, then eta, through the LQ
    factor of the family, re-verifies every moment by direct quadrature
    and reports the residuals r_n = r_xi,n + i*r_eta,n, then their
    conjugates for -n.  `alpha` is the damping rate of the kernel set the
    family was built from; it converts the synthesised reweighted control
    back to the physical one.

    Raises NearSingularGramError when the Gram spectrum indicates loss of
    the Riesz property at this truncation; warns when the horizon is below
    the critical length for solvability of arbitrary targets.
    """
    if below_critical_horizon(system.grid.horizon):
        warnings.warn(
            f"horizon {system.grid.horizon:.6g} is below the critical length "
            f"{RECOMMENDED_HORIZON:.6g}; arbitrary targets may be unreachable",
            stacklevel=2,
        )
    if system.near_singular:
        raise NearSingularGramError(system.lambda_min, system.lambda_max)
    n_max = len(system.indices) // 2
    if target.n_max != n_max:
        raise ValueError(
            f"target covers {target.n_max} modes but the family covers {n_max}"
        )
    report = _minimal_norm_report(system, np.concatenate([target.xi, target.eta]),
                                  alpha)
    r = report.residuals[:n_max] + 1j * report.residuals[n_max:]
    return replace(report, residuals=np.concatenate([r, r.conj()]))


def finite_pair_control(kernels: DerivedKernelSet, deformation_targets,
                        stress_targets) -> SynthesisReport:
    """Assign deformation and stress coefficients for modes 1..N at once.

    Works at any positive horizon.  The moment functions are the real
    kernel pair {n*(Na * y_n), n*(Fg * y_n)} and the real targets are
    (c_n, d_n - c_n) for deformation targets c and stress targets d; the
    minimal-norm real control is solved for like the steering one.  The gap
    rows are smoothed images of the deformation rows, so this Gram reaches
    the round-off scale of float64 (gate: PAIR_NEAR_SINGULAR_RATIO); the
    factor only carries the square root of its condition number.

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

    grid = kernels.grid
    modes = solve_modes(range(1, n_pair + 1), kernels)
    ns = modes.ns
    weights = np.array(ns, dtype=float)[:, None]
    functions = weights * convolve(kernels.relaxation_scaled, modes.samples, grid)
    elastic = kernels.is_elastic
    if elastic:
        if not np.array_equal(c, d):
            raise ElasticDegeneracyError(
                "memory-free string: stress coefficients equal deformation "
                "coefficients, unequal pair targets are unreachable"
            )
        targets = c.copy()
    else:
        gap = weights * convolve(kernels.stress_gap, modes.samples, grid)
        functions = np.concatenate([functions, gap])
        ns += ns
        targets = np.concatenate([c, d - c])

    system = _factorise(ns, functions, grid)
    if system.lambda_min <= PAIR_NEAR_SINGULAR_RATIO * system.lambda_max:
        raise NearSingularGramError(system.lambda_min, system.lambda_max)
    report = _minimal_norm_report(system, targets, kernels.alpha)

    linear = report.residuals
    residuals = (linear.astype(complex) if elastic
                 else linear[:n_pair] + 1j * linear[n_pair:])
    state = simulate_coefficients(report.control, modes, kernels)
    pair_error = np.concatenate([state.deformation - c, state.stress - d])
    err = math.sqrt(float(np.sum(pair_error ** 2)))
    denom = math.sqrt(float(np.sum(c ** 2) + np.sum(d ** 2)))
    rel = err / denom if denom > 0.0 else err
    roundtrip = {
        "deformation": state.deformation.copy(),
        "stress": state.stress.copy(),
        "relative_error": rel,
    }
    return replace(report, residuals=residuals, roundtrip=roundtrip)


@dataclass(frozen=True)
class FrameBoundsReport:
    """Empirical frame bounds of the normalised family per truncation size."""

    horizon: float
    sizes: tuple
    lambda_min_by_size: tuple
    lambda_max_by_size: tuple

    lambda_min = property(lambda self: self.lambda_min_by_size[-1])
    lambda_max = property(lambda self: self.lambda_max_by_size[-1])


_FRAME_SIZES = (4, 8, 16, 32)


def frame_bounds(family: ModeFamily) -> FrameBoundsReport:
    """Eigenvalue extremes of the normalised Gram at growing truncations.

    `family` holds the moment kernels n = 1..n_max in order, as
    `build_family` returns them.  The real Gram of the rows X_n, then Y_n
    of Z_n = X_n + i*Y_n is formed once at n_max by quadrature, with no
    factor, and normalised by ||Z_n||^2; twice its eigenvalues are those of
    the normalised Hermitian Gram of Z_n, then conj Z_n.  The truncations
    in {4, 8, 16, 32} are read off its principal submatrices.
    """
    family.require(TrajectoryKind.MOMENT_KERNEL, ordered=True)
    n_max = len(family)
    re, im = family.samples.real, family.samples.imag
    weights = family.grid.trapezoid_weights()
    # einsum calls no BLAS, so G has the same bits at any BLAS thread count
    xx, xy, yy = (np.einsum("ik,jk,k->ij", a, b, weights)
                  for a, b in ((re, re), (re, im), (im, im)))
    matrix = np.block([[xx, xy], [xy.T, yy]])
    norms = np.sqrt(np.tile(np.diag(xx) + np.diag(yy), 2))
    normalised = matrix / np.outer(norms, norms)

    sizes = tuple(sorted({s for s in _FRAME_SIZES if s <= n_max} | {n_max}))
    mins, maxs = [], []
    for size in sizes:
        # rows are X_1..X_n_max, then Y_1..Y_n_max
        keep = [i for i in range(2 * n_max) if i % n_max < size]
        eigs = 2.0 * np.linalg.eigvalsh(normalised[np.ix_(keep, keep)])
        mins.append(float(eigs[0]))
        maxs.append(float(eigs[-1]))
    return FrameBoundsReport(horizon=family.grid.horizon, sizes=sizes,
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


def quadratic_closeness(family: ModeFamily,
                        params: Sequence[ModeParams]) -> ClosenessReport:
    """Squared distances d_n = ||Z_n - exp((alpha + i*beta_n) t)||^2.

    Summability of d_n over the family is what anchors the Riesz property
    of the kernels to that of the limit exponentials; the scaled sequence
    d_n * n^2 staying bounded is the desk-scale check of it.  The norms
    are taken on the family's grid, which must be one grid.
    """
    if len(family) != len(params):
        raise ValueError("family and params must align")
    family.require(TrajectoryKind.MOMENT_KERNEL)
    weights = family.grid.trapezoid_weights()
    times = family.grid.times()
    dists = []
    for n, samples, par in zip(family.ns, family.samples, params):
        if n != par.n:
            raise ValueError("family and params must align index by index")
        # negative indices carry conjugate kernels, hence signed frequencies
        freq = par.beta if par.n > 0 else -par.beta
        reference = np.exp((par.alpha + 1j * freq) * times)
        dists.append(float(np.sum(weights * np.abs(samples - reference) ** 2)))
    ns_arr = np.asarray(family.ns)
    d_arr = np.asarray(dists)
    return ClosenessReport(ns=ns_arr, distances=d_arr,
                           scaled=d_arr * ns_arr.astype(float) ** 2,
                           partial_sums=np.cumsum(d_arr))
