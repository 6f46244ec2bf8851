"""Numerical verification of the asymptotic estimates and identities.

The estimates all have the shape "deviation of mode n is at most M/n for
some constant M".  The constant is never quantified, so the checkable
content is the growth rate: the scaled deviations n * e_n must not grow
along the mode range.  Operationally a report's verdict is BOUNDED when
the maximum of the scaled sequence over the upper half of the index range
is at most twice the maximum over the lower half, and GROWING otherwise.
The rule is scale invariant, so rescaling kernels, controls or targets
cannot flip a verdict.

Every check reads its grid from the derived kernel set.  A precomputed
`mode_family` must have been solved on that same grid.

`closed_loop_roundtrip`, shared by the steer and verify tasks, re-simulates
a synthesised control over every mode of the family it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .kernels import DerivedKernelSet
from .moments import MomentTarget, SynthesisReport, build_family, gram, synthesize_control
from .spectral import SpectralState, mode_params, simulate_coefficients
from .volterra import (
    ModeTrajectory,
    convolve,
    mode_derivative,
    solve_modes,
    solve_volterra_second_kind,
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


def _modes_for(kernels: DerivedKernelSet, ns: Sequence[int],
               mode_family: Sequence[ModeTrajectory] | None) -> list[ModeTrajectory]:
    """Mode responses for `ns`: one solved batch, or looked up in `mode_family`.

    Responses are even in n, so a family of positive indices serves
    negative ones too.  A family solved on another grid than the kernels'
    is rejected.
    """
    if mode_family is None:
        return solve_modes(ns, kernels)
    by_index = {abs(t.n): t for t in mode_family}
    if not {abs(n) for n in ns} <= by_index.keys():
        raise ValueError("mode_family does not cover the requested modes")
    modes = [by_index[abs(n)] for n in ns]
    if any(y.grid != kernels.grid for y in modes):
        raise ValueError("mode_family grid does not match the kernel grid")
    return modes


def _mode_trend(label: str, kernels: DerivedKernelSet, n_range: Iterable[int],
                mode_family, deviation) -> AsymptoticReport:
    """Trend report of deviation(n, params, y_n) over `n_range`."""
    ns = list(n_range)
    params = [mode_params(n, kernels.alpha) for n in ns]
    modes = _modes_for(kernels, ns, mode_family)
    devs = [float(deviation(n, par, y)) for n, par, y in zip(ns, params, modes)]
    return _trend_report(label, ns, devs, kernels.grid.step, kernels.grid.horizon)


def check_mode_asymptotics(kernels: DerivedKernelSet, n_range: Iterable[int],
                           mode_family: Sequence[ModeTrajectory] | None = None
                           ) -> AsymptoticReport:
    """Deviation of each mode response from its damped cosine.

    Pass a precomputed `mode_family` to reuse mode responses.
    """
    times = kernels.grid.times()
    return _mode_trend("mode vs damped cosine", kernels, n_range, mode_family,
                       lambda n, par, y: np.max(np.abs(y.samples - par.damped_cos(times))))


def check_mode_derivative_asymptotics(kernels: DerivedKernelSet,
                                      n_range: Iterable[int],
                                      mode_family: Sequence[ModeTrajectory] | None = None
                                      ) -> AsymptoticReport:
    """Deviation of each scaled mode derivative from its damped sine.

    Pass a precomputed `mode_family` to reuse mode responses.
    """
    times = kernels.grid.times()

    def deviation(n, par, y):
        dy = mode_derivative(y, kernels)
        return np.max(np.abs(dy.samples / par.beta + par.damped_sin(times)))

    return _mode_trend("mode derivative vs damped sine", kernels, n_range,
                       mode_family, deviation)


def check_convolution_asymptotics(kernels: DerivedKernelSet, smooth_factor,
                                  n_range: Iterable[int],
                                  mode_family: Sequence[ModeTrajectory] | None = None
                                  ) -> AsymptoticReport:
    """Deviation of n * (F ⋆ y_n) from F(0) times the damped sine.

    `smooth_factor` holds the samples of F on the kernel grid, such as
    the stress series kernel; its first sample is F(0).  Pass a
    precomputed `mode_family` to reuse mode responses.
    """
    grid = kernels.grid
    times = grid.times()
    samples = np.asarray(smooth_factor, dtype=float)
    if len(samples) != grid.steps + 1:
        raise ValueError("factor sample length does not match the grid")
    at_zero = samples[0]
    return _mode_trend(
        "smooth convolution vs damped sine", kernels, n_range, mode_family,
        lambda n, par, y: np.max(np.abs(float(n) * convolve(samples, y.samples, grid)
                                        - at_zero * par.damped_sin(times))))


def _oscillator_kernels(kernels: DerivedKernelSet):
    """Na', Q0(0), Q1 and the resolvent R on the grid of `kernels`.

    Q0 = Na'' - alpha*Na', Q1 = alpha*Q0 - Q0' (closed form, with N' = M)
    and R solves R = -(Na' * R) - Na', so R(0) = 0.
    """
    kernel, grid, alpha = kernels.kernel, kernels.grid, kernels.alpha
    t = grid.times()
    scale = np.exp(2.0 * alpha * t)
    m0, m1, m2 = kernel.memory(t), kernel.memory_d1(t), kernel.memory_d2(t)
    relax = kernel.relaxation(t)
    na_d1 = scale * (2.0 * alpha * relax + m0)
    na_d2 = scale * (4.0 * alpha * alpha * relax + 4.0 * alpha * m0 + m1)
    na_d3 = scale * (8.0 * alpha ** 3 * relax + 12.0 * alpha * alpha * m0
                     + 6.0 * alpha * m1 + m2)
    q0 = na_d2 - alpha * na_d1
    q1 = alpha * q0 - (na_d3 - alpha * na_d2)
    resolvent = solve_volterra_second_kind(-na_d1, -na_d1, grid)
    return na_d1, float(q0[0]), q1, resolvent


def check_resolvent_identity(kernels: DerivedKernelSet, ns: Iterable[int],
                             mode_family: Sequence[ModeTrajectory] | None = None
                             ) -> list[float]:
    """Residual of the oscillator representation of each mode response in `ns`.

    The mode response y_n should equal G_n + R ⋆ G_n where R is the
    resolvent kernel and G_n collects the damped oscillator profile plus
    three correction convolutions built from y_n itself.  Returns the
    maximum absolute residual over the grid for each n; O(step^2) for
    smooth kernels.  The resolvent is solved once per call.  Pass a
    precomputed `mode_family` to reuse the mode responses.
    """
    ns = list(ns)
    params = [mode_params(n, kernels.alpha) for n in ns]
    modes = _modes_for(kernels, ns, mode_family)
    na_d1, q0_at_zero, q1, resolvent = _oscillator_kernels(kernels)
    grid = kernels.grid
    times = grid.times()
    residuals = []
    for par, mode in zip(params, modes):
        y = mode.samples
        damped_sin = par.damped_sin(times)

        base = par.profile(times)
        correction = (1.0 - par.mu) * convolve(na_d1, y, grid)
        ring = q0_at_zero * (par.mu / par.beta) * convolve(damped_sin, y, grid)
        inner = convolve(q1, damped_sin, grid)
        double = (par.mu / par.beta) * convolve(inner, y, grid)
        assembled = base + correction + ring - double

        reconstructed = assembled + convolve(resolvent, assembled, grid)
        residuals.append(float(np.max(np.abs(y - reconstructed))))
    return residuals


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
    achieved: np.ndarray          # v_n + i * sigma_n, n = 1..target.n_max
    relative_error: float
    synthesis: SynthesisReport
    state: SpectralState          # every mode of the re-simulated family

    def __post_init__(self):
        self.achieved.setflags(write=False)


def closed_loop_roundtrip(kernels: DerivedKernelSet, target: MomentTarget,
                          mode_family: Sequence[ModeTrajectory] | None = None
                          ) -> RoundtripReport:
    """Synthesise a steering control, re-simulate it, compare coefficients.

    The control steers modes 1..target.n_max.  The re-simulation covers
    every mode of `mode_family` (n = 1, 2, ... in order, at least n_max of
    them; solved here when omitted), so a longer family also yields the
    unconstrained tail in `state`.  The comparison norm is the
    coefficient-space distance between the achieved velocity/stress pairs
    of modes 1..n_max and the requested ones, relative to the target norm
    (zero targets compare absolutely).
    """
    n_max = target.n_max
    modes = (mode_family if mode_family is not None
             else solve_modes(range(1, n_max + 1), kernels))
    family = build_family(kernels, n_max, mode_family=modes)
    system = gram(family)
    synthesis = synthesize_control(system, target, alpha=kernels.alpha)
    state = simulate_coefficients(synthesis.control, modes, kernels)
    achieved = state.velocity[:n_max] + 1j * state.stress[:n_max]
    gap = achieved - target.gamma
    target_norm = float(np.sqrt(np.sum(np.abs(target.gamma) ** 2)))
    err = float(np.sqrt(np.sum(np.abs(gap) ** 2)))
    relative = err / target_norm if target_norm > 0.0 else err
    return RoundtripReport(target=target, achieved=achieved,
                           relative_error=relative, synthesis=synthesis,
                           state=state)
