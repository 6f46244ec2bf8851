"""Spectral assembly of the controlled solution.

The controlled string state at time T is expanded in sine modes.  With a
boundary control f and the mode responses y_n from `volterra`, the raw
coefficient functionals are

    w_n     = int_0^T fw(T-r) [ n (Na * y_n)(r) ] dr      (deformation)
    v_n     = int_0^T fw(T-r) [ y_n(r) + (Hv * y_n)(r) ] dr   (velocity)
    sigma_n = int_0^T fw(T-r) [ n (Ks * y_n)(r) ] dr      (stress)

where fw(t) = exp(2*alpha*t) f(t) is the exponentially reweighted control.
The library stores the physical control f and applies the weight inside
the quadratures, so both conventions stay explicit.  "Raw" means the
physical prefactor exp(-2*alpha*T) * (2/pi) is recorded separately and is
only applied when a field is reconstructed on the interval; coefficient
norms and steering targets always live at the raw level.

Physical fields use the bases sin(nx) for deformation, n*sin(nx) for
velocity and n*cos(nx) for stress; coefficient-space norms treat the raw
sequences as coordinates in the orthonormalised bases sqrt(2/pi)*sin(nx)
and sqrt(2/pi)*n*sin(nx) (the n*cos(nx) family gives an equivalent norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExceptionalIndexError
from .kernels import is_exceptional_index
from .volterra import ModeTrajectory, TimeGrid, TrajectoryKind, convolve

__all__ = [
    "ModeParams",
    "mode_params",
    "ControlSignal",
    "SpectralState",
    "simulate_coefficients",
    "reconstruct_field",
    "coefficient_norms",
    "CoefficientNorms",
]

FIELD_KINDS = ("deformation", "velocity", "stress")


@dataclass(frozen=True)
class ModeParams:
    """Oscillator parameters of one mode.

    beta = sqrt(n^2 - alpha^2) is the mode's oscillation frequency (purely
    imaginary with nonnegative real part when alpha^2 > n^2) and
    mu = n^2 / beta^2.  The reference profile is
    exp(alpha t)(cos(beta t) + (alpha/beta) sin(beta t)).
    """

    n: int
    alpha: float
    beta: complex
    mu: complex

    @property
    def beta_is_real(self) -> bool:
        return not isinstance(self.beta, complex) or self.beta.imag == 0.0

    def _real_beta(self) -> float:
        if not self.beta_is_real:
            raise ValueError(
                f"mode n={self.n}: oscillation frequency is not real "
                f"(alpha={self.alpha!r})"
            )
        return float(self.beta.real) if isinstance(self.beta, complex) else self.beta

    def damped_cos(self, times: np.ndarray) -> np.ndarray:
        b = self._real_beta()
        return np.exp(self.alpha * times) * np.cos(b * times)

    def damped_sin(self, times: np.ndarray) -> np.ndarray:
        b = self._real_beta()
        return np.exp(self.alpha * times) * np.sin(b * times)

    def profile(self, times: np.ndarray) -> np.ndarray:
        b = self._real_beta()
        return np.exp(self.alpha * times) * (
            np.cos(b * times) + (self.alpha / b) * np.sin(b * times)
        )


def mode_params(n: int, alpha: float) -> ModeParams:
    """Closed-form oscillator parameters; raises for an exceptional index."""
    if n == 0:
        raise ValueError("mode index must be a nonzero integer")
    if is_exceptional_index(n, alpha):
        raise ExceptionalIndexError(n, alpha)
    disc = float(n) * float(n) - alpha * alpha
    if disc > 0.0:
        beta = math.sqrt(disc)
    else:
        beta = complex(0.0, math.sqrt(-disc))
    return ModeParams(n=n, alpha=alpha, beta=beta, mu=float(n) * float(n) / disc)


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Physical boundary displacement input sampled on a grid."""

    samples: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or len(arr) != self.grid.steps + 1:
            raise ValueError("control sample length does not match the grid")
        if not np.all(np.isfinite(arr)):
            raise ValueError("control contains non-finite samples")
        object.__setattr__(self, "samples", arr)
        arr.setflags(write=False)

    def reweighted(self, alpha: float) -> np.ndarray:
        """exp(2*alpha*t) * f(t), the convention used inside the functionals."""
        return np.exp(2.0 * alpha * self.grid.times()) * self.samples


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Raw coefficient functionals of the controlled solution at time T."""

    horizon: float
    alpha: float
    deformation: np.ndarray       # w_n
    velocity: np.ndarray          # v_n
    stress: np.ndarray            # sigma_n
    integrated_stress: np.ndarray # time integral of the stress functional

    def __post_init__(self):
        for arr in (self.deformation, self.velocity, self.stress,
                    self.integrated_stress):
            arr.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.deformation)

    @property
    def physical_scale(self) -> float:
        """Prefactor exp(-2*alpha*T) * (2/pi) mapping raw coefficients to
        physical fields; recorded here, never folded into the raw arrays."""
        return math.exp(-2.0 * self.alpha * self.horizon) * (2.0 / math.pi)


def _validate_family(family: Sequence[ModeTrajectory], grid: TimeGrid) -> None:
    if not family:
        raise ValueError("mode family is empty")
    for i, traj in enumerate(family, start=1):
        if traj.kind is not TrajectoryKind.MODE:
            raise ValueError(f"family entry {i} is not a mode response")
        if traj.n != i:
            raise ValueError(f"family must cover n = 1..{len(family)} in order, "
                             f"entry {i} has n={traj.n}")
        if traj.grid != grid:
            raise ValueError("family grid does not match the control grid")


def simulate_coefficients(control: ControlSignal,
                          mode_family: Sequence[ModeTrajectory],
                          kernels) -> SpectralState:
    """Evaluate the raw coefficient functionals for a physical control.

    `mode_family` must hold the mode responses for n = 1..n_max on the
    control grid.  All three series brackets are formed by
    product-trapezoidal convolution and paired with the reweighted,
    time-reversed control by trapezoidal quadrature.
    """
    grid = control.grid
    if kernels.grid != grid:
        raise ValueError("kernel grid does not match the control grid")
    _validate_family(mode_family, grid)
    horizon = grid.horizon

    fw = control.reweighted(kernels.alpha)
    pairing = grid.trapezoid_weights() * fw[::-1]  # fw(T - r) at node r

    n_max = len(mode_family)
    w = np.empty(n_max)
    v = np.empty(n_max)
    sigma = np.empty(n_max)
    q = np.empty(n_max)
    for traj in mode_family:
        n = traj.n
        y = traj.samples
        deform_bracket = float(n) * convolve(kernels.relaxation_scaled, y, grid)
        veloc_bracket = y + convolve(kernels.velocity_kernel, y, grid)
        stress_bracket = float(n) * convolve(kernels.stress_kernel, y, grid)
        w[n - 1] = np.sum(pairing * deform_bracket)
        v[n - 1] = np.sum(pairing * veloc_bracket)
        sigma[n - 1] = np.sum(pairing * stress_bracket)
        # stress functional as a function of time, then accumulated to T
        stress_series = convolve(fw, stress_bracket, grid)
        q[n - 1] = grid.integrate(stress_series)

    return SpectralState(horizon=horizon, alpha=kernels.alpha,
                         deformation=w, velocity=v, stress=sigma,
                         integrated_stress=q)


def reconstruct_field(state: SpectralState, which: str, x_grid) -> np.ndarray:
    """Evaluate one physical field on points of [0, pi].

    Deformation sums w_n sin(nx), velocity sums v_n n sin(nx), stress sums
    sigma_n n cos(nx); the recorded physical scale is applied.
    """
    if which not in FIELD_KINDS:
        raise ValueError(f"unknown field {which!r}, expected one of {FIELD_KINDS}")
    x = np.asarray(x_grid, dtype=float)
    if np.any(x < 0.0) or np.any(x > math.pi):
        raise ValueError("x values must lie in [0, pi]")
    ns = np.arange(1, state.n_max + 1)
    nx = np.outer(ns, x)
    if which == "deformation":
        basis = np.sin(nx)
        coeff = state.deformation
    elif which == "velocity":
        basis = ns[:, None] * np.sin(nx)
        coeff = state.velocity
    else:
        basis = ns[:, None] * np.cos(nx)
        coeff = state.stress
    return state.physical_scale * np.sum(coeff[:, None] * basis, axis=0)


@dataclass(frozen=True)
class CoefficientNorms:
    l2_deformation: float
    hminus1_velocity: float
    hminus1_stress: float


def coefficient_norms(state: SpectralState) -> CoefficientNorms:
    """Coefficient-space norms of the raw functionals.

    The raw sequences are coordinates in the orthonormalised mode bases,
    so the norms are plain little-l2 norms: exact for deformation and
    velocity, an equivalent norm for stress (cosine family is a Riesz
    basis rather than orthonormal).
    """
    return CoefficientNorms(
        l2_deformation=float(np.sqrt(np.sum(state.deformation ** 2))),
        hminus1_velocity=float(np.sqrt(np.sum(state.velocity ** 2))),
        hminus1_stress=float(np.sqrt(np.sum(state.stress ** 2))),
    )
