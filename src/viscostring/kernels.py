"""Memory kernels and the derived kernels the solvers consume.

Model summary.  A string on [0, pi] with memory kernel M(t) carries the
relaxation function

    N(t) = 1 + int_0^t M(s) ds .

With the damping rate alpha = -M(0)/2 the scaled kernels

    Na(t) = exp(2*alpha*t) N(t),     Ma(t) = exp(2*alpha*t) M(t)

satisfy Na(0) = 1 and Na'(0) = 0, which is precisely why alpha is chosen
this way.  The three output series of the controlled solution use

    Hv(t) = Na'(t) - 2*alpha*Na(t) = Ma(t)  (velocity series kernel, N' = M)
    Ks(t) = Na(t) + (Na * Ma)(t)            (stress series kernel)
    Fg(t) = (Na * Ma)(t) = Ks(t) - Na(t)    (stress/deformation gap kernel)

so Ks(0) = 1 and Fg(0) = 0.  These four (Na, Hv, Ks, Fg) are all the
solvers read.  The oscillator remainders Q0, Q1 and the resolvent R that
the resolvent-identity check needs are derived in `verify`.

Kernels are restricted to analytic families (exponential sums and
polynomials of degree at most four) so that M, M' and M'' evaluate in
closed form everywhere; tabulated kernels are rejected because the
verification suite needs exact derivatives.  Convolutions that have no
closed form (the gap kernel here, the resolvent in `verify`) are computed
with the second-order product-trapezoidal machinery from `volterra`,
matching the global accuracy budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ExceptionalIndexError
from .volterra import TimeGrid, convolve

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
    The zero kernel is evaluated as the empty exponential sum, polynomials
    through numpy's `polyval`/`polyder`/`polyint`.
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

    def _derivative(self, t, order: int):
        """The order-th derivative of M at t, vectorised, in closed form."""
        t = np.asarray(t, dtype=float)
        if self.family is KernelFamily.POLYNOMIAL:
            return np.polyval(np.polyder(self.params[::-1], order), t)
        out = np.zeros_like(t)
        for a, b in self.params:
            coef = a
            for _ in range(order):
                coef = -(coef * b)
            out += coef * np.exp(-b * t)
        return out

    def memory(self, t):
        """M(t), vectorised."""
        return self._derivative(t, 0)

    def memory_d1(self, t):
        """M'(t), closed form."""
        return self._derivative(t, 1)

    def memory_d2(self, t):
        """M''(t), closed form."""
        return self._derivative(t, 2)

    def relaxation(self, t):
        """N(t) = 1 + int_0^t M, by exact antiderivative; N(0) is exactly 1."""
        t = np.asarray(t, dtype=float)
        if self.family is KernelFamily.POLYNOMIAL:
            return 1.0 + np.polyval(np.polyint(self.params[::-1]), t)
        out = np.ones_like(t)
        for a, b in self.params:
            out += (a / b) * (1.0 - np.exp(-b * t))
        return out

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
        if self.family is KernelFamily.POLYNOMIAL:
            raise ValueError(
                "scaled relaxation is an exponential sum only for "
                "exponential-sum memory kernels"
            )
        two_alpha = 2.0 * self.alpha
        lead = 1.0 + sum(a / b for a, b in self.params)
        terms = [(lead, two_alpha)]
        terms.extend((-a / b, two_alpha - b) for a, b in self.params)
        return tuple(terms)


@dataclass(frozen=True, eq=False)
class DerivedKernelSet:
    """The kernels the solvers read, sampled from one memory kernel on a grid.

    Immutable after construction: the arrays are marked read-only.
    """

    kernel: MemoryKernel
    grid: TimeGrid
    alpha: float
    relaxation_scaled: np.ndarray     # Na
    velocity_kernel: np.ndarray       # Hv = Na' - 2*alpha*Na = Ma
    stress_kernel: np.ndarray         # Ks = Na + Na*Ma
    stress_gap: np.ndarray            # Fg = Na*Ma
    is_elastic: bool                  # M vanishes identically on the grid

    def __post_init__(self):
        for arr in (self.relaxation_scaled, self.velocity_kernel,
                    self.stress_kernel, self.stress_gap):
            arr.setflags(write=False)


def derive_kernels(kernel: MemoryKernel, grid: TimeGrid) -> DerivedKernelSet:
    """Sample the solver kernels of `kernel` on `grid`.

    Everything with a closed form is evaluated exactly; the gap kernel is
    the product-trapezoidal convolution Na * Ma, O(step^2).
    """
    t = grid.times()
    alpha = kernel.alpha
    scale = np.exp(2.0 * alpha * t)

    na = scale * kernel.relaxation(t)
    ma = scale * kernel.memory(t)
    gap = convolve(na, ma, grid)
    stress = na + gap

    return DerivedKernelSet(
        kernel=kernel, grid=grid, alpha=alpha, relaxation_scaled=na,
        velocity_kernel=ma, stress_kernel=stress, stress_gap=gap,
        is_elastic=not np.any(ma),
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
    frequencies (solvers do not care, but `spectral.mode_params` rejects
    those modes).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    for n in range(1, n_max + 1):
        if is_exceptional_index(n, kernel.alpha):
            raise ExceptionalIndexError(n, kernel.alpha)
    return kernel.alpha * kernel.alpha > 1.0
