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

import numpy as np

from .errors import ExceptionalIndexError
from .kernels import is_exceptional_index
from .volterra import ModeFamily, TimeGrid, TrajectoryKind, convolve_transpose

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

    beta = sqrt(n^2 - alpha^2) is the mode's real, positive oscillation
    frequency and mu = n^2 / beta^2; `mode_params` admits no other.  The
    reference profile is exp(alpha t)(cos(beta t) + (alpha/beta) sin(beta t)).
    """

    n: int
    alpha: float
    beta: float
    mu: float

    def damped_cos(self, times: np.ndarray) -> np.ndarray:
        return np.exp(self.alpha * times) * np.cos(self.beta * times)

    def damped_sin(self, times: np.ndarray) -> np.ndarray:
        return np.exp(self.alpha * times) * np.sin(self.beta * times)

    def profile(self, times: np.ndarray) -> np.ndarray:
        b = self.beta
        return np.exp(self.alpha * times) * (
            np.cos(b * times) + (self.alpha / b) * np.sin(b * times)
        )


def mode_params(n: int, alpha: float) -> ModeParams:
    """Closed-form oscillator parameters of mode n.

    Raises ExceptionalIndexError when n^2 equals alpha^2 and ValueError
    when alpha^2 > n^2, where the frequency would not be real.
    """
    if n == 0:
        raise ValueError("mode index must be a nonzero integer")
    if is_exceptional_index(n, alpha):
        raise ExceptionalIndexError(n, alpha)
    disc = float(n) * float(n) - alpha * alpha
    if disc < 0.0:
        raise ValueError(f"mode n={n}: oscillation frequency is not real "
                         f"(alpha={alpha!r}, alpha^2 > n^2)")
    return ModeParams(n=n, alpha=alpha, beta=math.sqrt(disc),
                      mu=float(n) * float(n) / disc)


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


def simulate_coefficients(control: ControlSignal, modes: ModeFamily,
                          kernels) -> SpectralState:
    """Evaluate the raw coefficient functionals for a physical control.

    `modes` must hold the mode responses for n = 1..n_max on the
    control grid.  Each functional is linear in the mode response: the
    series brackets are product-trapezoidal convolutions paired with the
    reweighted, time-reversed control by trapezoidal quadrature, so each
    collapses to a dot product of y_n with a representer built once per
    call (`convolve_transpose`).  One (N, K+1) @ (K+1, 4) product then
    evaluates w, v, sigma and the time-integrated stress for every mode.
    """
    grid = control.grid
    if kernels.grid != grid:
        raise ValueError("kernel grid does not match the control grid")
    modes.require(TrajectoryKind.MODE, grid, ordered=True)

    fw = control.reweighted(kernels.alpha)
    weights = grid.trapezoid_weights()
    pairing = weights * fw[::-1]  # fw(T - r) at node r
    # the integral over [0, T] of convolve(fw, s) equals accumulated @ s
    accumulated = convolve_transpose(fw, weights, grid)
    representers = np.stack([
        convolve_transpose(kernels.relaxation_scaled, pairing, grid),
        pairing + convolve_transpose(kernels.velocity_kernel, pairing, grid),
        convolve_transpose(kernels.stress_kernel, pairing, grid),
        convolve_transpose(kernels.stress_kernel, accumulated, grid),
    ], axis=1)
    values = modes.samples @ representers
    ns = np.arange(1, len(modes) + 1, dtype=float)
    values[:, [0, 2, 3]] *= ns[:, None]
    w, v, sigma, q = (np.ascontiguousarray(col) for col in values.T)
    return SpectralState(horizon=grid.horizon, alpha=kernels.alpha,
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
        basis, coeff = np.sin(nx), state.deformation
    elif which == "velocity":
        basis, coeff = ns[:, None] * np.sin(nx), state.velocity
    else:
        basis, coeff = ns[:, None] * np.cos(nx), state.stress
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
