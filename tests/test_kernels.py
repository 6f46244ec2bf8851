import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from viscostring import (
    DerivedKernelSet,
    KernelFamily,
    MemoryKernel,
    TimeGrid,
    convolve,
    derive_kernels,
    exceptional_index_check,
    mode_params,
)
from viscostring.errors import ExceptionalIndexError
from viscostring.verify import _oscillator_kernels

from conftest import DESK_KERNEL, ELASTIC_KERNEL, TWO_PI

POLY_KERNEL = MemoryKernel.polynomial([0.3, -0.1, 0.02, 0.0, 0.001])
TWO_TERM_KERNEL = MemoryKernel.exponential_sum([(0.5, 0.7), (0.2, 3.0)])

# midpoint Riemann refinement of (Na * Ma)(2*pi) at step h/64, h = 2*pi/8192
GAP_AT_TWO_PI_ORACLE = 0.0451246708146714


def test_zero_kernel_collapses_every_derived_kernel():
    grid = TimeGrid(TWO_PI, 512)
    dk = derive_kernels(ELASTIC_KERNEL, grid)
    assert dk.alpha == 0.0
    assert np.all(ELASTIC_KERNEL.relaxation(grid.times()) == 1.0)
    assert np.all(dk.relaxation_scaled == 1.0)
    assert np.all(dk.velocity_kernel == 0.0)
    assert np.all(dk.stress_kernel == 1.0)
    assert np.all(dk.stress_gap == 0.0)
    assert np.all(_oscillator_kernels(dk)[3] == 0.0)
    assert dk.is_elastic is True


def test_desk_kernel_scaled_relaxation_closed_form(desk_grid, desk_kernels):
    t = desk_grid.times()
    expected = 1.4 * np.exp(-0.4 * t) - 0.4 * np.exp(-1.4 * t)
    assert desk_kernels.alpha == -0.2
    assert np.max(np.abs(desk_kernels.relaxation_scaled - expected)) < 1e-14


def test_gap_kernel_matches_refined_riemann_oracle():
    grid = TimeGrid(TWO_PI, 8192)
    dk = derive_kernels(DESK_KERNEL, grid)
    assert abs(dk.stress_gap[-1] - GAP_AT_TWO_PI_ORACLE) < 1e-6


@pytest.mark.parametrize("kernel", [ELASTIC_KERNEL, DESK_KERNEL, TWO_TERM_KERNEL,
                                    POLY_KERNEL],
                         ids=["zero", "exponential", "two_term", "polynomial"])
def test_derived_kernel_invariants(kernel):
    grid = TimeGrid(TWO_PI, 1024)
    dk = derive_kernels(kernel, grid)
    t = grid.times()
    na_d1, _, _, resolvent = _oscillator_kernels(dk)
    assert kernel.relaxation(t)[0] == 1.0
    assert dk.relaxation_scaled[0] == 1.0
    assert abs(na_d1[0]) <= 1e-12
    assert dk.stress_kernel[0] == 1.0
    assert dk.stress_gap[0] == 0.0
    assert dk.velocity_kernel[0] == pytest.approx(float(kernel.memory(0.0)), abs=1e-14)
    assert resolvent[0] == 0.0
    # the velocity kernel equals the scaled memory kernel identically
    memory_scaled = np.exp(2.0 * dk.alpha * t) * kernel.memory(t)
    assert np.array_equal(dk.velocity_kernel, memory_scaled)
    assert dk.is_elastic is (kernel is ELASTIC_KERNEL)


def test_derived_set_holds_only_the_solver_kernels():
    assert [f.name for f in dataclasses.fields(DerivedKernelSet)] == [
        "kernel", "grid", "alpha", "relaxation_scaled", "velocity_kernel",
        "stress_kernel", "stress_gap", "is_elastic"]


def test_gap_kernel_quadrature_is_second_order():
    errs = []
    for steps in (1024, 2048):
        grid = TimeGrid(TWO_PI, steps)
        dk = derive_kernels(DESK_KERNEL, grid)
        t = grid.times()
        exact = 0.56 * np.exp(-0.4 * t) * (1 - np.exp(-t)) \
            - 0.16 * t * np.exp(-1.4 * t)
        errs.append(np.max(np.abs(dk.stress_gap - exact)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9


@pytest.mark.parametrize("kernel", [DESK_KERNEL, POLY_KERNEL],
                         ids=["exponential", "polynomial"])
def test_resolvent_solves_its_equation_on_the_grid(kernel):
    grid = TimeGrid(TWO_PI, 2048)
    na_d1, _, _, resolvent = _oscillator_kernels(derive_kernels(kernel, grid))
    residual = resolvent + convolve(na_d1, resolvent, grid) + na_d1
    assert np.max(np.abs(residual)) < 1e-12


def test_polynomial_derivatives_match_finite_differences():
    t = np.linspace(0.0, 3.0, 7)
    eps = 1e-5
    d1 = (POLY_KERNEL.memory(t + eps) - POLY_KERNEL.memory(t - eps)) / (2 * eps)
    d2 = (POLY_KERNEL.memory(t + eps) - 2 * POLY_KERNEL.memory(t)
          + POLY_KERNEL.memory(t - eps)) / eps ** 2
    assert np.max(np.abs(POLY_KERNEL.memory_d1(t) - d1)) < 1e-8
    assert np.max(np.abs(POLY_KERNEL.memory_d2(t) - d2)) < 1e-4
    # relaxation is the exact antiderivative of the memory kernel
    grid = TimeGrid(3.0, 3000)
    tt = grid.times()
    numeric = 1.0 + np.concatenate(
        [[0.0], np.cumsum((POLY_KERNEL.memory(tt)[1:] + POLY_KERNEL.memory(tt)[:-1])
                          * 0.5 * grid.step)])
    assert np.max(np.abs(POLY_KERNEL.relaxation(tt) - numeric)) < 1e-6


def test_kernel_validation():
    with pytest.raises(ValueError):
        MemoryKernel.exponential_sum([(0.4, 0.0)])
    with pytest.raises(ValueError):
        MemoryKernel.exponential_sum([(0.4, -1.0)])
    with pytest.raises(ValueError):
        MemoryKernel.exponential_sum([])
    with pytest.raises(ValueError):
        MemoryKernel.polynomial([1.0] * 6)
    with pytest.raises(ValueError):
        MemoryKernel(KernelFamily.ZERO, (1.0,))


def test_exceptional_index_scan():
    assert exceptional_index_check(ELASTIC_KERNEL, 32) is False
    assert exceptional_index_check(DESK_KERNEL, 64) is False
    with pytest.raises(ExceptionalIndexError) as info:
        exceptional_index_check(MemoryKernel.exponential_sum([(2.0, 1.0)]), 32)
    assert info.value.n == 1
    # alpha^2 > 1 without an exact collision only warns
    assert exceptional_index_check(
        MemoryKernel.exponential_sum([(3.0, 1.0)]), 32) is True


def test_near_exceptional_index_is_rejected():
    # alpha^2 = 1 - 2e-15 is a collision in all but round-off: mu ~ 5e14
    near = MemoryKernel.exponential_sum([(2.0 * (1.0 - 1e-15), 1.0)])
    with pytest.raises(ExceptionalIndexError) as info:
        exceptional_index_check(near, 4)
    assert info.value.n == 1
    with pytest.raises(ExceptionalIndexError):
        mode_params(1, near.alpha)
    assert mode_params(2, near.alpha).beta > 0.0
    # a genuine, if small, gap stays a regular mode
    assert exceptional_index_check(
        MemoryKernel.exponential_sum([(2.0 * (1.0 - 1e-9), 1.0)]), 4) is False


def test_derived_kernels_are_read_only(desk_kernels):
    with pytest.raises(ValueError):
        desk_kernels.stress_kernel[0] = 2.0


def _reference_calculus(kernel, t):
    """M, M', M'' and N as the hand-written loops evaluated them."""
    t = np.asarray(t, dtype=float)
    if kernel.family is KernelFamily.ZERO:
        return np.zeros_like(t), np.zeros_like(t), np.zeros_like(t), np.ones_like(t)
    if kernel.family is KernelFamily.EXPONENTIAL_SUM:
        m, m1, m2, n = (np.zeros_like(t), np.zeros_like(t), np.zeros_like(t),
                        np.ones_like(t))
        for a, b in kernel.params:
            m += a * np.exp(-b * t)
            m1 += -a * b * np.exp(-b * t)
            m2 += a * b * b * np.exp(-b * t)
            n += (a / b) * (1.0 - np.exp(-b * t))
        return m, m1, m2, n
    c = kernel.params
    m, m1, m2, n = (np.zeros_like(t) for _ in range(4))
    for coeff in reversed(c):  # Horner
        m = m * t + coeff
    for j in range(len(c) - 1, 0, -1):
        m1 = m1 * t + j * c[j]
    for j in range(len(c) - 1, 1, -1):
        m2 = m2 * t + j * (j - 1) * c[j]
    for j in range(len(c) - 1, -1, -1):
        n = (n + c[j] / (j + 1)) * t
    return m, m1, m2, 1.0 + n


@pytest.mark.parametrize("kernel", [
    ELASTIC_KERNEL,
    MemoryKernel.exponential_sum([(0.37, 1.3), (0.15, 3.7)]),
    MemoryKernel.polynomial([0.35]),
    MemoryKernel.polynomial([0.3, -0.1, 0.02, -0.003, 0.001]),
], ids=["zero", "exponential_sum", "degree0", "degree4"])
def test_calculus_matches_the_hand_written_loops_bit_for_bit(kernel):
    for t in (0.0, np.linspace(0.0, 7.3, 1001)):
        new = (kernel.memory(t), kernel.memory_d1(t), kernel.memory_d2(t),
               kernel.relaxation(t))
        for got, want in zip(new, _reference_calculus(kernel, t)):
            assert np.shape(got) == np.shape(want)
            assert np.all(got == want)
    assert kernel.relaxation(0.0) == 1.0
    if kernel.family is KernelFamily.ZERO:
        assert kernel.scaled_relaxation_terms() == ((1.0, 0.0),)


def _loaded_by_import(module):
    """Whether a fresh `import viscostring` loads `module`."""
    src = str(Path(__file__).parents[1] / "src")
    code = f"import sys, viscostring; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src),
                            check=True)
    return result.stdout.strip() == "True"


def test_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial costs seven more module imports at start-up
    assert not _loaded_by_import("numpy.polynomial")


def test_import_leaves_numpy_fft_unloaded():
    # numpy loads numpy.fft on first use; the convolutions reach it lazily
    assert not _loaded_by_import("numpy.fft")
