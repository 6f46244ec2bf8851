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
G[m, n] = int_0^T Z_m conj(Z_n) = A A^H for the trapezoid-weighted sample
matrix A = rows * sqrt(w).  G is never solved with: A = L Q is factored
once (Q with orthonormal rows), the eigenvalues of G are the squared
singular values of L and the control is u = Q^H L^{-1} gamma / sqrt(w),
so the solve sees the condition number of A, not its square (least
squares rather than normal equations; Golub & Van Loan).

The extreme eigenvalues of the normalised Gram are the computable shadow
of the family's Riesz property: bounded away from zero they certify
solvability at this truncation, collapsing they flag a horizon that is too
short.  Synthesis refuses to run when lambda_min <= 1e3 * eps * lambda_max.

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
from functools import cached_property
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
    """Gram system of a family of moment functions on L^2(0, T), factored.

    The weighted sample matrix A = rows * sqrt(w) (trapezoid weights w) is
    held as A = lower @ orthonormal, so G = A A^H = lower @ lower^H.
    """

    indices: tuple              # mode index of each row, signed for steering
    functions: tuple            # sample arrays of the leading rows
    conjugated: bool            # rows are `functions`, then their conjugates
    grid: TimeGrid
    lower: np.ndarray           # L, lower triangular, (rows, rows)
    orthonormal: np.ndarray     # Q, orthonormal rows, (rows, K+1)
    matrix: np.ndarray          # G[a, b] = int rows[a] * conj(rows[b])

    def __post_init__(self):
        for arr in (self.lower, self.orthonormal, self.matrix):
            arr.setflags(write=False)

    @cached_property
    def _extremes(self) -> tuple:
        # on first use: frame bounds need only `matrix` (see there)
        sigma = np.linalg.svd(self.lower, compute_uv=False)
        return float(sigma[-1] ** 2), float(sigma[0] ** 2)

    lambda_min = property(lambda self: self._extremes[0])
    lambda_max = property(lambda self: self._extremes[1])

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


def build_family(kernels: DerivedKernelSet, n_max: int,
                 mode_family: Sequence[ModeTrajectory] | None = None
                 ) -> list[ModeTrajectory]:
    """Moment kernels for n = 1..n_max on `kernels.grid`, cross-checked.

    All kernels are time stepped from their own equation in one batch, and
    each is independently assembled by quadrature from its mode response;
    a uniform deviation beyond CROSS_CHECK_FACTOR * step^2 on any mode
    aborts the build.  Pass a precomputed `mode_family` (n = 1, 2, ... in
    order) to reuse mode responses.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    kernels.grid.require_resolution(n_max)
    if mode_family is not None and len(mode_family) < n_max:
        raise ValueError("mode_family does not cover n = 1..n_max")
    tolerance = CROSS_CHECK_FACTOR * kernels.grid.step ** 2
    ns = range(1, n_max + 1)
    family = solve_moment_kernels(ns, kernels)
    modes = mode_family[:n_max] if mode_family is not None \
        else solve_modes(ns, kernels)
    for n, stepped, base in zip(ns, family, modes):
        assembled = assemble_moment_kernel(base, kernels)
        deviation = float(np.max(np.abs(stepped.samples - assembled.samples)))
        if deviation > tolerance:
            raise CrossCheckError(
                f"moment kernel n={n}: route deviation {deviation:.3e} exceeds "
                f"{tolerance:.3e}"
            )
    return family


def _factorise(indices: tuple, functions: Sequence[np.ndarray], grid: TimeGrid,
               conjugated: bool) -> GramSystem:
    """LQ factor of A = rows * sqrt(w), in place, by Gram-Schmidt twice.

    The second pass keeps Q orthonormal to working precision.  Every
    length-K reduction is an `np.einsum`, which does not call BLAS, so the
    factor has the same bits at any BLAS thread count.
    """
    sqrt_w = np.sqrt(grid.trapezoid_weights())
    count, lead = len(indices), len(functions)
    factor = np.empty((count, len(sqrt_w)), dtype=np.result_type(*functions))
    for row, samples in zip(factor, functions):
        np.multiply(samples, sqrt_w, out=row)
    if conjugated:
        np.conjugate(factor[:lead], out=factor[lead:])
    lower = np.zeros((count, count), dtype=factor.dtype)
    for i, row in enumerate(factor):
        done = factor[:i]
        for _ in range(2):
            proj = np.einsum("jk,k->j", done, row.conj()).conj()
            row -= np.einsum("j,jk->k", proj, done)
            lower[i, :i] += proj
        norm = math.sqrt(np.einsum("k,k->", row, row.conj()).real)
        lower[i, i] = norm
        if norm > 0.0:
            row /= norm
    return GramSystem(indices=indices, functions=tuple(functions),
                      conjugated=conjugated, grid=grid, lower=lower,
                      orthonormal=factor,
                      matrix=np.einsum("ij,kj->ik", lower, lower.conj()))


def _family_grid(family: Sequence[ModeTrajectory]) -> TimeGrid:
    """The one grid of a nonempty moment-kernel family."""
    if not family:
        raise ValueError("moment kernel family is empty")
    grid = family[0].grid
    for traj in family:
        if traj.kind is not TrajectoryKind.MOMENT_KERNEL:
            raise ValueError(f"expected moment kernels, got {traj.kind}")
        if traj.grid != grid:
            raise ValueError("family mixes grids")
    return grid


def gram(family: Sequence[ModeTrajectory]) -> GramSystem:
    """Hermitian Gram system of the family extended to signed indices.

    Rows for -n are the conjugate kernels; inner products are trapezoidal
    on the family's grid.
    """
    indices = tuple(t.n for t in family) + tuple(-t.n for t in family)
    return _factorise(indices, [t.samples for t in family],
                      _family_grid(family), conjugated=True)


def _minimal_norm_report(system: GramSystem, targets: np.ndarray,
                         alpha: float) -> SynthesisReport:
    """Minimal-norm control meeting `targets`, re-verified by quadrature.

    u is formed from Q, not as sum a_m conj(rows[m]) with a = G^{-1}
    targets, which would square the condition number again.
    """
    grid = system.grid
    weights = grid.trapezoid_weights()
    try:
        half = np.linalg.solve(system.lower, targets)
        coefficients = np.linalg.solve(system.lower.conj().T, half)
    except np.linalg.LinAlgError as exc:
        raise NearSingularGramError(system.lambda_min, system.lambda_max) from exc
    u = np.einsum("m,mk->k", half.conj(), system.orthonormal).conj()
    u /= np.sqrt(weights)
    weighted = weights * u
    achieved = [np.einsum("k,k->", f, weighted) for f in system.functions]
    if system.conjugated:
        weighted = weighted.conj()
        achieved += [np.einsum("k,k->", f, weighted).conjugate()
                     for f in system.functions]
    residuals = np.array(achieved) - targets
    worst = float(np.max(np.abs(residuals)))
    target_scale = float(np.max(np.abs(targets)))
    max_rel = worst / target_scale if target_scale > 0.0 else worst
    norm = math.sqrt(float(np.sum(weights * np.abs(u) ** 2)))
    imag_norm = math.sqrt(float(np.sum(weights * u.imag ** 2)))
    imag_fraction = imag_norm / norm if norm > 0.0 else 0.0
    reweighted = u.real[::-1].copy()              # fw(t) = u(T - t)
    physical = np.exp(-2.0 * alpha * grid.times()) * reweighted
    return SynthesisReport(
        control=ControlSignal(physical, grid),
        control_reweighted=reweighted,
        coefficients=coefficients.astype(complex),
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

    Solves the moment equations through the LQ factor of the family,
    re-verifies every moment by direct quadrature against the kernel
    samples and reports the residuals.  `alpha` is the damping rate of the
    kernel set the family was built from; it converts the synthesised
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
    return _minimal_norm_report(system, target.gamma_for(system.indices), alpha)


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
    ns = tuple(t.n for t in modes)
    functions = [float(t.n) * convolve(kernels.relaxation_scaled, t.samples, grid)
                 for t in modes]
    elastic = kernels.is_elastic
    if elastic:
        if not np.array_equal(c, d):
            raise ElasticDegeneracyError(
                "memory-free string: stress coefficients equal deformation "
                "coefficients, unequal pair targets are unreachable"
            )
        targets = c.copy()
    else:
        functions += [float(t.n) * convolve(kernels.stress_gap, t.samples, grid)
                      for t in modes]
        ns += ns
        targets = np.concatenate([c, d - c])

    system = _factorise(ns, functions, grid, conjugated=False)
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
        family = build_family(kernels, n_max)
    elif len(family) < n_max or family[0].grid != grid:
        raise ValueError("family does not cover n = 1..n_max on the kernel grid")
    # only the small Gram is kept: LAPACK's eigensolver is paged in below,
    # and next to the factor that would raise a run's peak RSS
    matrix = gram(family[:n_max]).matrix
    norms = np.sqrt(np.diag(matrix).real)
    normalised = matrix / np.outer(norms, norms)

    sizes = tuple(sorted({s for s in _FRAME_SIZES if s <= n_max} | {n_max}))
    mins, maxs = [], []
    for size in sizes:
        # rows are n = 1..n_max, then -1..-n_max
        keep = [i for i in range(2 * n_max) if i % n_max < size]
        sub = normalised[np.ix_(keep, keep)]
        eigs = np.linalg.eigvalsh(sub)
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
                        params: Sequence[ModeParams]) -> ClosenessReport:
    """Squared distances d_n = ||Z_n - exp((alpha + i*beta_n) t)||^2.

    Summability of d_n over the family is what anchors the Riesz property
    of the kernels to that of the limit exponentials; the scaled sequence
    d_n * n^2 staying bounded is the desk-scale check of it.  The norms
    are taken on the family's grid, which must be one grid.
    """
    if len(family) != len(params):
        raise ValueError("family and params must align")
    grid = _family_grid(family)
    weights = grid.trapezoid_weights()
    times = grid.times()
    ns, dists = [], []
    for traj, par in zip(family, params):
        if traj.n != par.n:
            raise ValueError("family and params must align index by index")
        # negative indices carry conjugate kernels, hence signed frequencies
        freq = par.beta if par.n > 0 else -par.beta
        reference = np.exp((par.alpha + 1j * freq) * times)
        dists.append(float(np.sum(weights * np.abs(traj.samples - reference) ** 2)))
        ns.append(traj.n)
    ns_arr = np.asarray(ns)
    d_arr = np.asarray(dists)
    return ClosenessReport(ns=ns_arr, distances=d_arr,
                           scaled=d_arr * ns_arr.astype(float) ** 2,
                           partial_sums=np.cumsum(d_arr))
