"""Memory kernels and every derived kernel the other modules consume.

Model summary.  A string on [0, pi] with memory kernel M(t) carries the
relaxation function

    N(t) = 1 + int_0^t M(s) ds .

With the damping rate alpha = -M(0)/2 the scaled kernels

    Na(t) = exp(2*alpha*t) N(t),     Ma(t) = exp(2*alpha*t) M(t)

satisfy Na(0) = 1 and Na'(0) = 0, which is precisely why alpha is chosen
this way.  The three output series of the controlled solution use

    Hv(t) = Na'(t) - 2*alpha*Na(t)          (velocity series kernel)
    Ks(t) = Na(t) + (Na * Ma)(t)            (stress series kernel)
    Fg(t) = (Na * Ma)(t) = Ks(t) - Na(t)    (stress/deformation gap kernel)

so Ks(0) = 1 and Fg(0) = 0.  The oscillator representation of the mode
responses additionally needs

    Q0(t) = Na''(t) - alpha*Na'(t),   Q1(t) = alpha*Q0(t) - Q0'(t)

and the resolvent R of -Na', solving R = -(Na' * R) - Na', which has
R(0) = 0 and the regularity of Na'.

Kernels are restricted to analytic families (exponential sums and
polynomials of degree at most four) so that M, M' and M'' evaluate in
closed form everywhere; tabulated kernels are rejected because the
verification suite needs exact derivatives.  Convolutions that have no
closed form (the gap kernel and the resolvent) are computed with the
second-order product-trapezoidal machinery from `volterra`, matching the
global accuracy budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ExceptionalIndexError
from .volterra import TimeGrid, convolve, solve_volterra_second_kind

__all__ = [
    "KernelFamily",
    "MemoryKernel",
    "DerivedKernelSet",
    "derive_kernels",
    "exceptional_index_check",
    "is_exceptional_index",
    "EXCEPTIONAL_INDEX_FACTOR",
]

MAX_POLYNOMIAL_DEGREE = 4

#: Mode n counts as exceptional when |n^2 - alpha^2| <= this * eps * n^2:
#: closer than that, mu = n^2 / (n^2 - alpha^2) is round-off.
EXCEPTIONAL_INDEX_FACTOR = 1e3


class KernelFamily(Enum):
    ZERO = "zero"
    EXPONENTIAL_SUM = "exponential_sum"
    POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class MemoryKernel:
    """An analytic memory kernel with exact derivatives up to order two.

    Families:
      * ZERO: M(t) = 0 (the purely elastic string).
      * EXPONENTIAL_SUM: M(t) = sum_i a_i exp(-b_i t), every b_i > 0.
      * POLYNOMIAL: M(t) = c_0 + c_1 t + ... + c_d t^d with d <= 4.

    `params` holds (a_i, b_i) pairs for exponential sums and the
    coefficients c_0..c_d for polynomials.  Use the named constructors.
    """

    family: KernelFamily
    params: tuple

    def __post_init__(self):
        if self.family is KernelFamily.ZERO:
            if self.params:
                raise ValueError("zero kernel takes no parameters")
        elif self.family is KernelFamily.EXPONENTIAL_SUM:
            if not self.params:
                raise ValueError("exponential sum needs at least one (a, b) pair")
            for pair in self.params:
                if len(pair) != 2:
                    raise ValueError(f"expected (a, b) pair, got {pair!r}")
                a, b = pair
                if not (math.isfinite(a) and math.isfinite(b)):
                    raise ValueError(f"non-finite exponential term {pair!r}")
                if b <= 0.0:
                    raise ValueError(f"decay rate must be positive, got b={b!r}")
        elif self.family is KernelFamily.POLYNOMIAL:
            if not self.params:
                raise ValueError("polynomial needs at least one coefficient")
            if len(self.params) > MAX_POLYNOMIAL_DEGREE + 1:
                raise ValueError(
                    f"polynomial degree limited to {MAX_POLYNOMIAL_DEGREE}, "
                    f"got degree {len(self.params) - 1}"
                )
            if not all(math.isfinite(c) for c in self.params):
                raise ValueError("non-finite polynomial coefficient")
        else:  # pragma: no cover
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def zero(cls) -> "MemoryKernel":
        return cls(KernelFamily.ZERO, ())

    @classmethod
    def exponential_sum(cls, pairs) -> "MemoryKernel":
        return cls(KernelFamily.EXPONENTIAL_SUM,
                   tuple((float(a), float(b)) for a, b in pairs))

    @classmethod
    def polynomial(cls, coefficients) -> "MemoryKernel":
        return cls(KernelFamily.POLYNOMIAL, tuple(float(c) for c in coefficients))

    def memory(self, t):
        """M(t), vectorised."""
        t = np.asarray(t, dtype=float)
        if self.family is KernelFamily.ZERO:
            return np.zeros_like(t)
        if self.family is KernelFamily.EXPONENTIAL_SUM:
            out = np.zeros_like(t)
            for a, b in self.params:
                out += a * np.exp(-b * t)
            return out
        out = np.zeros_like(t)
        for c in reversed(self.params):  # Horner
            out = out * t + c
        return out

    def memory_d1(self, t):
        """M'(t), closed form."""
        t = np.asarray(t, dtype=float)
        if self.family is KernelFamily.ZERO:
            return np.zeros_like(t)
        if self.family is KernelFamily.EXPONENTIAL_SUM:
            out = np.zeros_like(t)
            for a, b in self.params:
                out += -a * b * np.exp(-b * t)
            return out
        out = np.zeros_like(t)
        for j in range(len(self.params) - 1, 0, -1):
            out = out * t + j * self.params[j]
        return out

    def memory_d2(self, t):
        """M''(t), closed form."""
        t = np.asarray(t, dtype=float)
        if self.family is KernelFamily.ZERO:
            return np.zeros_like(t)
        if self.family is KernelFamily.EXPONENTIAL_SUM:
            out = np.zeros_like(t)
            for a, b in self.params:
                out += a * b * b * np.exp(-b * t)
            return out
        out = np.zeros_like(t)
        for j in range(len(self.params) - 1, 1, -1):
            out = out * t + j * (j - 1) * self.params[j]
        return out

    def relaxation(self, t):
        """N(t) = 1 + int_0^t M, by exact antiderivative."""
        t = np.asarray(t, dtype=float)
        if self.family is KernelFamily.ZERO:
            return np.ones_like(t)
        if self.family is KernelFamily.EXPONENTIAL_SUM:
            out = np.ones_like(t)
            for a, b in self.params:
                out += (a / b) * (1.0 - np.exp(-b * t))
            return out
        out = np.zeros_like(t)
        for j in range(len(self.params) - 1, -1, -1):
            out = (out + self.params[j] / (j + 1)) * t
        return 1.0 + out

    @property
    def alpha(self) -> float:
        """Damping rate -M(0)/2 that makes Na'(0) vanish."""
        return -0.5 * float(self.memory(0.0)) + 0.0

    def scaled_relaxation_terms(self) -> tuple:
        """Na(t) as an explicit exponential sum: ((coef, rate), ...).

        Available for the zero and exponential-sum families; polynomial
        kernels have no such representation and raise ValueError.  Used by
        the ODE-system oracle in `volterra`.
        """
        if self.family is KernelFamily.ZERO:
            return ((1.0, 0.0),)
        if self.family is not KernelFamily.EXPONENTIAL_SUM:
            raise ValueError(
                "scaled relaxation is an exponential sum only for "
                "exponential-sum memory kernels"
            )
        two_alpha = 2.0 * self.alpha
        lead = 1.0 + sum(a / b for a, b in self.params)
        terms = [(lead, two_alpha)]
        terms.extend((-a / b, two_alpha - b) for a, b in self.params)
        return tuple(terms)


_ARRAY_FIELDS = (
    "relaxation", "relaxation_scaled", "relaxation_scaled_d1", "memory_scaled",
    "velocity_kernel", "stress_kernel", "stress_gap", "remainder0",
    "remainder1", "resolvent",
)


@dataclass(frozen=True, eq=False)
class DerivedKernelSet:
    """All kernels derived from one memory kernel, sampled on one grid.

    Immutable after construction (arrays are marked read-only), so a set
    can be shared freely across threads.
    """

    kernel: MemoryKernel
    grid: TimeGrid
    alpha: float
    relaxation: np.ndarray            # N
    relaxation_scaled: np.ndarray     # Na
    relaxation_scaled_d1: np.ndarray  # Na'
    memory_scaled: np.ndarray         # Ma
    velocity_kernel: np.ndarray       # Hv = Na' - 2*alpha*Na
    stress_kernel: np.ndarray         # Ks = Na + Na*Ma
    stress_gap: np.ndarray            # Fg = Na*Ma
    remainder0: np.ndarray            # Q0 = Na'' - alpha*Na'
    remainder1: np.ndarray            # Q1 = alpha*Q0 - Q0'
    resolvent: np.ndarray             # R = -(Na' * R) - Na'

    def __post_init__(self):
        for name in _ARRAY_FIELDS:
            getattr(self, name).setflags(write=False)

    @property
    def is_elastic(self) -> bool:
        """True when the memory kernel vanishes identically on the grid."""
        return not np.any(self.memory_scaled)


def derive_kernels(kernel: MemoryKernel, grid: TimeGrid) -> DerivedKernelSet:
    """Sample every derived kernel of `kernel` on `grid`.

    Everything with a closed form is evaluated exactly; the gap kernel is
    the product-trapezoidal convolution Na * Ma and the resolvent solves
    its second-kind equation with the same machinery, both O(step^2).
    """
    t = grid.times()
    alpha = kernel.alpha
    scale = np.exp(2.0 * alpha * t)

    m0 = kernel.memory(t)
    m1 = kernel.memory_d1(t)
    m2 = kernel.memory_d2(t)
    relax = kernel.relaxation(t)

    na = scale * relax
    ma = scale * m0
    # d/dt [exp(2 a t) N] and higher orders, using N' = M
    na_d1 = scale * (2.0 * alpha * relax + m0)
    na_d2 = scale * (4.0 * alpha * alpha * relax + 4.0 * alpha * m0 + m1)
    na_d3 = scale * (8.0 * alpha ** 3 * relax + 12.0 * alpha * alpha * m0
                     + 6.0 * alpha * m1 + m2)

    velocity = na_d1 - 2.0 * alpha * na
    gap = convolve(na, ma, grid)
    stress = na + gap

    q0 = na_d2 - alpha * na_d1
    q0_d1 = na_d3 - alpha * na_d2
    q1 = alpha * q0 - q0_d1

    resolvent = solve_volterra_second_kind(-na_d1, -na_d1, grid)

    return DerivedKernelSet(
        kernel=kernel, grid=grid, alpha=alpha,
        relaxation=relax, relaxation_scaled=na, relaxation_scaled_d1=na_d1,
        memory_scaled=ma, velocity_kernel=velocity, stress_kernel=stress,
        stress_gap=gap, remainder0=q0, remainder1=q1, resolvent=resolvent,
    )


def is_exceptional_index(n: int, alpha: float) -> bool:
    """True when n^2 equals alpha^2 to within EXCEPTIONAL_INDEX_FACTOR * eps * n^2."""
    n_sq = float(n) * float(n)
    return abs(n_sq - alpha * alpha) <= \
        EXCEPTIONAL_INDEX_FACTOR * np.finfo(float).eps * n_sq


def exceptional_index_check(kernel: MemoryKernel, n_max: int) -> bool:
    """Scan modes 1..n_max for a collision with the damping rate.

    Raises ExceptionalIndexError if alpha^2 equals n^2 (in the sense of
    `is_exceptional_index`) for some n in range, since that mode has no
    oscillator representation.  Returns True as a warning flag when
    alpha^2 > 1, meaning the lowest modes have non-real oscillation
    frequencies (solvers do not care, but the asymptotic checks reject
    such kernels).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    for n in range(1, n_max + 1):
        if is_exceptional_index(n, kernel.alpha):
            raise ExceptionalIndexError(n, kernel.alpha)
    return kernel.alpha * kernel.alpha > 1.0
