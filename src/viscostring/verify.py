"""Numerical verification of the asymptotic estimates and identities.

The estimates all have the shape "deviation of mode n is at most M/n for
some constant M".  The constant is never quantified, so the checkable
content is the growth rate: the scaled deviations n * e_n must not grow
along the mode range.  Operationally a report's verdict is BOUNDED when
the maximum of the scaled sequence over the upper half of the index range
is at most twice the maximum over the lower half, and GROWING otherwise.
The rule is scale invariant, so rescaling kernels, controls or targets
cannot flip a verdict.

Every check takes the solved mode responses it reads, `modes`, one
`ModeFamily`, and reads the mode indices from it; `ModeFamily.require`
rejects a family of another kind or on another grid than the kernel
set's.  Convolutions of the family with one fixed factor are one stacked
`convolve` call.

`closed_loop_roundtrip`, shared by the steer and verify tasks, re-simulates
a synthesised control over every mode of the family it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .kernels import DerivedKernelSet
from .moments import MomentTarget, SynthesisReport, build_family, gram, synthesize_control
from .spectral import SpectralState, mode_params, simulate_coefficients
from .volterra import (
    ModeFamily,
    TrajectoryKind,
    convolve,
    mode_derivative,
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

    ns: np.ndarray
    deviations: np.ndarray
    scaled: np.ndarray           # n * deviation
    verdict: TrendVerdict
    lower_max: float
    upper_max: float

    def __post_init__(self):
        for arr in (self.ns, self.deviations, self.scaled):
            arr.setflags(write=False)


def _trend_report(ns: Sequence[int], deviations: Sequence[float]) -> AsymptoticReport:
    ns_arr = np.asarray(list(ns))
    dev_arr = np.asarray(list(deviations), dtype=float)
    if len(ns_arr) < 2:
        raise ValueError("trend verdict needs at least two modes")
    scaled = ns_arr * dev_arr
    half = len(ns_arr) // 2
    lower = float(np.max(scaled[:half]))
    upper = float(np.max(scaled[half:]))
    verdict = TrendVerdict.BOUNDED if upper <= 2.0 * lower else TrendVerdict.GROWING
    return AsymptoticReport(ns=ns_arr, deviations=dev_arr, scaled=scaled,
                            verdict=verdict, lower_max=lower, upper_max=upper)


def _mode_trend(kernels: DerivedKernelSet, modes: ModeFamily, rows: np.ndarray,
                deviation) -> AsymptoticReport:
    """Trend report of max |deviation(params_n, row_n)| over the family `modes`.

    `rows` holds one row per mode of `modes`, already checked by the caller.
    """
    params = [mode_params(n, kernels.alpha) for n in modes.ns]
    devs = [float(np.max(np.abs(deviation(par, row))))
            for par, row in zip(params, rows)]
    return _trend_report(modes.ns, devs)


def check_mode_asymptotics(kernels: DerivedKernelSet,
                           modes: ModeFamily) -> AsymptoticReport:
    """Deviation of each mode response in `modes` from its damped cosine."""
    modes.require(TrajectoryKind.MODE, kernels.grid)
    times = kernels.grid.times()
    return _mode_trend(kernels, modes, modes.samples,
                       lambda par, y: y - par.damped_cos(times))


def check_mode_derivative_asymptotics(kernels: DerivedKernelSet,
                                      modes: ModeFamily) -> AsymptoticReport:
    """Deviation of each scaled mode derivative from its damped sine."""
    times = kernels.grid.times()
    return _mode_trend(kernels, modes, mode_derivative(modes, kernels),
                       lambda par, dy: dy / par.beta + par.damped_sin(times))


def check_convolution_asymptotics(kernels: DerivedKernelSet, smooth_factor,
                                  modes: ModeFamily) -> AsymptoticReport:
    """Deviation of n * (F ⋆ y_n) from F(0) times the damped sine.

    `smooth_factor` holds the samples of F on the kernel grid, such as
    the stress series kernel; its first sample is F(0).
    """
    modes.require(TrajectoryKind.MODE, kernels.grid)
    grid = kernels.grid
    times = grid.times()
    samples = np.asarray(smooth_factor, dtype=float)
    return _mode_trend(
        kernels, modes, convolve(samples, modes.samples, grid),
        lambda par, conv: float(par.n) * conv - samples[0] * par.damped_sin(times))


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
    gen, b, c, phi = kernel.scaled_relaxation_system(grid.step)
    minus_na_d1 = (gen, b, -np.einsum("i,ij->j", c, gen), phi)  # -Na' = -c gen exp(gen t) b
    resolvent = solve_volterra_second_kind(minus_na_d1, -na_d1, grid)
    return na_d1, float(q0[0]), q1, resolvent


def check_resolvent_identity(kernels: DerivedKernelSet,
                             modes: ModeFamily) -> list[float]:
    """Residual of the oscillator representation of each mode response.

    The mode response y_n should equal G_n + R ⋆ G_n where R is the
    resolvent kernel and G_n collects the damped oscillator profile plus
    three correction convolutions built from y_n itself.  Returns the
    maximum absolute residual over the grid for each entry of `modes`;
    O(step^2) for smooth kernels.  The resolvent is solved once per call.
    """
    modes.require(TrajectoryKind.MODE, kernels.grid)
    params = [mode_params(n, kernels.alpha) for n in modes.ns]
    na_d1, q0_at_zero, q1, resolvent = _oscillator_kernels(kernels)
    grid = kernels.grid
    times = grid.times()
    ys = modes.samples
    sines = np.array([par.damped_sin(times) for par in params])
    inners = convolve(q1, sines, grid)
    corrections = convolve(na_d1, ys, grid)
    assembled = np.array([
        par.profile(times) + (1.0 - par.mu) * correction
        + q0_at_zero * (par.mu / par.beta) * convolve(sine, y, grid)
        - (par.mu / par.beta) * convolve(inner, y, grid)
        for par, y, sine, inner, correction
        in zip(params, ys, sines, inners, corrections)])
    reconstructed = assembled + convolve(resolvent, assembled, grid)
    return np.max(np.abs(ys - reconstructed), axis=1).tolist()


def check_stress_deformation_gap(state: SpectralState) -> AsymptoticReport:
    """Trend of the gap between raw stress and deformation coefficients."""
    ns = np.arange(1, state.n_max + 1)
    devs = np.abs(state.stress - state.deformation)
    return _trend_report(ns, devs)


@dataclass(frozen=True, eq=False)
class RoundtripReport:
    """Synthesis followed by re-simulation, compared in coefficient space."""

    achieved: np.ndarray          # v_n + i * sigma_n, n = 1..n_max of the target
    relative_error: float
    synthesis: SynthesisReport
    state: SpectralState          # every mode of the re-simulated family

    def __post_init__(self):
        self.achieved.setflags(write=False)


def closed_loop_roundtrip(kernels: DerivedKernelSet, target: MomentTarget,
                          modes: ModeFamily) -> RoundtripReport:
    """Synthesise a steering control, re-simulate it, compare coefficients.

    The control steers modes 1..target.n_max.  The re-simulation covers
    every mode of `modes` (n = 1, 2, ... in order, at least n_max of
    them), so a longer family also yields the unconstrained tail in
    `state`.  The comparison norm is the coefficient-space distance
    between the achieved velocity/stress pairs of modes 1..n_max and the
    requested ones, relative to the target norm (zero targets compare
    absolutely).
    """
    modes.require(TrajectoryKind.MODE, kernels.grid, ordered=True)
    n_max = target.n_max
    family = build_family(kernels, modes[:n_max])
    system = gram(family)
    synthesis = synthesize_control(system, target, alpha=kernels.alpha)
    state = simulate_coefficients(synthesis.control, modes, kernels)
    achieved = state.velocity[:n_max] + 1j * state.stress[:n_max]
    gap = achieved - target.gamma
    target_norm = float(np.sqrt(np.sum(np.abs(target.gamma) ** 2)))
    err = float(np.sqrt(np.sum(np.abs(gap) ** 2)))
    relative = err / target_norm if target_norm > 0.0 else err
    return RoundtripReport(achieved=achieved, relative_error=relative,
                           synthesis=synthesis, state=state)
