"""Numerical verification of the asymptotic estimates and identities.

The estimates all have the shape "deviation of mode n is at most M/n for
some constant M".  The constant is never quantified, so the checkable
content is the growth rate: the scaled deviations n * e_n must not grow
along the mode range.  Operationally a report's verdict is BOUNDED when
the maximum of the scaled sequence over the upper half of the index range
is at most twice the maximum over the lower half, and GROWING otherwise.
The rule is scale invariant, so rescaling kernels, controls or targets
cannot flip a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .kernels import DerivedKernelSet, MemoryKernel
from .moments import MomentTarget, SynthesisReport, build_family, gram, synthesize_control
from .spectral import SpectralState, mode_params, simulate_coefficients
from .volterra import (
    ModeTrajectory,
    TimeGrid,
    convolve,
    mode_derivative,
    solve_modes,
)

__all__ = [
    "TrendVerdict",
    "AsymptoticReport",
    "check_mode_asymptotics",
    "check_mode_derivative_asymptotics",
    "check_convolution_asymptotics",
    "check_resolvent_identity",
    "check_stress_deformation_gap",
    "closed_loop_roundtrip",
    "RoundtripReport",
]


class TrendVerdict(Enum):
    BOUNDED = "bounded"
    GROWING = "growing"


@dataclass(frozen=True, eq=False)
class AsymptoticReport:
    """Per-mode deviations with a growth-trend verdict."""

    label: str
    ns: np.ndarray
    deviations: np.ndarray
    scaled: np.ndarray           # |n| * deviation
    verdict: TrendVerdict
    lower_max: float
    upper_max: float
    step: float
    horizon: float

    def __post_init__(self):
        for arr in (self.ns, self.deviations, self.scaled):
            arr.setflags(write=False)


def _trend_report(label: str, ns: Sequence[int], deviations: Sequence[float],
                  step: float, horizon: float) -> AsymptoticReport:
    ns_arr = np.asarray(list(ns))
    dev_arr = np.asarray(list(deviations), dtype=float)
    if len(ns_arr) < 2:
        raise ValueError("trend verdict needs at least two modes")
    scaled = np.abs(ns_arr) * dev_arr
    half = len(ns_arr) // 2
    lower = float(np.max(scaled[:half]))
    upper = float(np.max(scaled[half:]))
    verdict = TrendVerdict.BOUNDED if upper <= 2.0 * lower else TrendVerdict.GROWING
    return AsymptoticReport(label=label, ns=ns_arr, deviations=dev_arr,
                            scaled=scaled, verdict=verdict,
                            lower_max=lower, upper_max=upper,
                            step=step, horizon=horizon)


def _params_for(kernels: DerivedKernelSet, n: int):
    par = mode_params(n, kernels.alpha)
    if not par.beta_is_real:
        raise ValueError(
            f"mode n={n}: asymptotic checks need a real oscillation frequency "
            f"(alpha={kernels.alpha!r})"
        )
    return par


def _modes_for(kernels: DerivedKernelSet, grid: TimeGrid, ns: Sequence[int],
               mode_family: Sequence[ModeTrajectory] | None) -> list[ModeTrajectory]:
    """Mode responses for `ns`: one solved batch, or looked up in `mode_family`.

    Responses are even in n, so a family of positive indices serves
    negative ones too.
    """
    if mode_family is None:
        return solve_modes(ns, kernels, grid)
    by_index = {abs(t.n): t for t in mode_family}
    if not {abs(n) for n in ns} <= by_index.keys():
        raise ValueError("mode_family does not cover the requested modes")
    return [by_index[abs(n)] for n in ns]


def _mode_trend(label: str, kernels: DerivedKernelSet, grid: TimeGrid,
                n_range: Iterable[int], mode_family, deviation) -> AsymptoticReport:
    """Trend report of deviation(n, params, y_n) over `n_range`."""
    ns = list(n_range)
    params = [_params_for(kernels, n) for n in ns]
    modes = _modes_for(kernels, grid, ns, mode_family)
    devs = [float(deviation(n, par, y)) for n, par, y in zip(ns, params, modes)]
    return _trend_report(label, ns, devs, grid.step, grid.horizon)


def check_mode_asymptotics(kernels: DerivedKernelSet, grid: TimeGrid,
                           n_range: Iterable[int],
                           mode_family: Sequence[ModeTrajectory] | None = None
                           ) -> AsymptoticReport:
    """Deviation of each mode response from its damped cosine.

    Pass a precomputed `mode_family` to reuse mode responses.
    """
    times = grid.times()
    return _mode_trend("mode vs damped cosine", kernels, grid, n_range, mode_family,
                       lambda n, par, y: np.max(np.abs(y.samples - par.damped_cos(times))))


def check_mode_derivative_asymptotics(kernels: DerivedKernelSet, grid: TimeGrid,
                                      n_range: Iterable[int],
                                      mode_family: Sequence[ModeTrajectory] | None = None
                                      ) -> AsymptoticReport:
    """Deviation of each scaled mode derivative from its damped sine.

    Pass a precomputed `mode_family` to reuse mode responses.
    """
    times = grid.times()

    def deviation(n, par, y):
        dy = mode_derivative(y, kernels)
        beta = par.beta.real if isinstance(par.beta, complex) else par.beta
        return np.max(np.abs(dy.samples / beta + par.damped_sin(times)))

    return _mode_trend("mode derivative vs damped sine", kernels, grid, n_range,
                       mode_family, deviation)


def check_convolution_asymptotics(kernels: DerivedKernelSet, grid: TimeGrid,
                                  smooth_factor, n_range: Iterable[int],
                                  mode_family: Sequence[ModeTrajectory] | None = None
                                  ) -> AsymptoticReport:
    """Deviation of n * (F ⋆ y_n) from F(0) times the damped sine.

    `smooth_factor` is either a MemoryKernel (evaluated in closed form on
    the grid, value at zero exact) or a pair (samples, value_at_zero) for
    derived kernels such as the stress series kernel.  Pass a precomputed
    `mode_family` to reuse mode responses.
    """
    times = grid.times()
    if isinstance(smooth_factor, MemoryKernel):
        samples = smooth_factor.memory(times)
        at_zero = float(smooth_factor.memory(0.0))
    else:
        samples, at_zero = smooth_factor
        samples = np.asarray(samples, dtype=float)
    if len(samples) != grid.steps + 1:
        raise ValueError("factor sample length does not match the grid")
    return _mode_trend(
        "smooth convolution vs damped sine", kernels, grid, n_range, mode_family,
        lambda n, par, y: np.max(np.abs(float(n) * convolve(samples, y.samples, grid)
                                        - at_zero * par.damped_sin(times))))


def check_resolvent_identity(kernels: DerivedKernelSet, grid: TimeGrid, n: int,
                             mode_family: Sequence[ModeTrajectory] | None = None
                             ) -> float:
    """Residual of the oscillator representation of one mode response.

    The mode response y_n should equal G_n + R ⋆ G_n where R is the
    resolvent kernel and G_n collects the damped oscillator profile plus
    three correction convolutions built from y_n itself.  Returns the
    maximum absolute residual over the grid; O(step^2) for smooth kernels.
    Pass a precomputed `mode_family` to reuse the mode response.
    """
    par = _params_for(kernels, n)
    times = grid.times()
    y = _modes_for(kernels, grid, [n], mode_family)[0].samples
    beta = par.beta.real if isinstance(par.beta, complex) else par.beta
    mu = par.mu.real if isinstance(par.mu, complex) else par.mu
    damped_sin = par.damped_sin(times)

    base = par.profile(times)
    correction = (1.0 - mu) * convolve(kernels.relaxation_scaled_d1, y, grid)
    ring = float(kernels.remainder0[0]) * (mu / beta) * convolve(damped_sin, y, grid)
    inner = convolve(kernels.remainder1, damped_sin, grid)
    double = (mu / beta) * convolve(inner, y, grid)
    assembled = base + correction + ring - double

    reconstructed = assembled + convolve(kernels.resolvent, assembled, grid)
    return float(np.max(np.abs(y - reconstructed)))


def check_stress_deformation_gap(state: SpectralState) -> AsymptoticReport:
    """Trend of the gap between raw stress and deformation coefficients."""
    ns = np.arange(1, state.n_max + 1)
    devs = np.abs(state.stress - state.deformation)
    return _trend_report("stress vs deformation coefficients", ns, devs,
                         float("nan"), state.horizon)


@dataclass(frozen=True, eq=False)
class RoundtripReport:
    """Synthesis followed by re-simulation, compared in coefficient space."""

    target: MomentTarget
    achieved: np.ndarray          # v_n + i * sigma_n from the re-simulation
    relative_error: float
    synthesis: SynthesisReport

    def __post_init__(self):
        self.achieved.setflags(write=False)


def closed_loop_roundtrip(kernels: DerivedKernelSet, grid: TimeGrid,
                          target: MomentTarget,
                          mode_family: Sequence[ModeTrajectory] | None = None
                          ) -> RoundtripReport:
    """Synthesise a steering control, re-simulate it, compare coefficients.

    The comparison norm is the coefficient-space distance between the
    achieved velocity/stress pairs and the requested ones, relative to the
    target norm (zero targets compare absolutely).  Pass a precomputed
    `mode_family` to reuse mode responses.
    """
    n_max = target.n_max
    modes = _modes_for(kernels, grid, range(1, n_max + 1), mode_family)
    family = build_family(kernels, grid, n_max, mode_family=modes)
    system = gram(family, grid)
    synthesis = synthesize_control(system, target, alpha=kernels.alpha)
    state = simulate_coefficients(synthesis.control, modes, kernels)
    achieved = state.velocity + 1j * state.stress
    gap = achieved - target.gamma
    target_norm = float(np.sqrt(np.sum(np.abs(target.gamma) ** 2)))
    err = float(np.sqrt(np.sum(np.abs(gap) ** 2)))
    relative = err / target_norm if target_norm > 0.0 else err
    return RoundtripReport(target=target, achieved=achieved,
                           relative_error=relative, synthesis=synthesis)
