"""Exact integer-exponent arithmetic for chart sizes.

Chart sizes live on the geometric lattice {e^(-eps*n/3) : n >= 0}.  Billiard
chart sizes routinely sit at e^-40 .. e^-400, where float64 products like
(eta1*eta2)^4 underflow, so every size is stored as its integer lattice
exponent and all size arithmetic (mins, e^(+-eps) steps, delta_eps multiples,
ratio tests) is performed exactly on integers.  Floats appear only when a size
is compared against an analog quantity, and those comparisons run in log
space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["EpsilonConfig", "LatticeSize"]


@dataclass(frozen=True)
class EpsilonConfig:
    """Fixed coarseness parameter and its derived lattice constants.

    delta is the largest power e^(-eps*n) strictly below eps; its exponent on
    the third-lattice is 3n, so multiplying a size by delta is an integer add.
    """

    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must be in (0,1), got {self.eps}")

    @property
    def delta_double_exponent(self) -> int:
        """n with e^(-eps*n) < eps <= e^(-eps*(n-1))."""
        n = math.floor(-math.log(self.eps) / self.eps) + 1
        # integer adjust: guard against float boundary drift
        while math.exp(-self.eps * n) >= self.eps:
            n += 1
        while n >= 1 and math.exp(-self.eps * (n - 1)) < self.eps:
            n -= 1
        return n

    @property
    def delta_exponent(self) -> int:
        """Exponent of delta on the third-lattice (value e^(-eps*expo/3))."""
        return 3 * self.delta_double_exponent

    @property
    def delta(self) -> float:
        return math.exp(-self.eps * self.delta_double_exponent)

    def size(self, expo: int) -> "LatticeSize":
        return LatticeSize(expo, self.eps)

    def floor_log(self, log_value: float) -> "LatticeSize":
        """Largest lattice element <= e^log_value (clamps to 1 above 1).

        Takes the log, so it is safe where the value itself underflows.
        Integer adjust loops pin the boundary behaviour, so float drift in
        the initial estimate can never change the answer.
        """
        if log_value >= 0.0:
            return LatticeSize(0, self.eps)
        eps = self.eps
        n = math.ceil(-3.0 * log_value / eps)
        # exact floor semantics: e^(-eps*n/3) <= value < e^(-eps*(n-1)/3)
        while -eps * n / 3.0 > log_value:
            n += 1
        while n >= 1 and -eps * (n - 1) / 3.0 <= log_value:
            n -= 1
        return LatticeSize(max(n, 0), eps)


@dataclass(frozen=True, order=False)
class LatticeSize:
    """A size e^(-eps*expo/3) held as the exact integer exponent."""

    expo: int
    eps: float

    def __post_init__(self):
        if self.expo < 0:
            raise ValueError("lattice exponents are nonnegative (sizes <= 1)")

    # ---------------------------------------------------------- conversions
    @property
    def value(self) -> float:
        """Float value; underflows to 0.0 for huge exponents (use log_value)."""
        return math.exp(self.log_value)

    @property
    def log_value(self) -> float:
        return -self.eps * self.expo / 3.0

    # ---------------------------------------------------------- arithmetic
    def _check(self, other: "LatticeSize"):
        if abs(other.eps - self.eps) > 0.0:
            raise ValueError("lattice sizes from different eps configs")

    def min_with(self, other: "LatticeSize") -> "LatticeSize":
        self._check(other)
        return LatticeSize(max(self.expo, other.expo), self.eps)

    def step(self, k: int) -> "LatticeSize":
        """Multiply by e^(-eps*k/3) (k may be negative; clamps at exponent 0)."""
        return LatticeSize(max(self.expo + k, 0), self.eps)

    def times_e_eps(self) -> "LatticeSize":
        """Multiply by e^(+eps) exactly (three lattice steps up)."""
        return self.step(-3)

    # ---------------------------------------------------------- comparisons
    def __le__(self, other: "LatticeSize") -> bool:
        self._check(other)
        return self.expo >= other.expo

    def __lt__(self, other: "LatticeSize") -> bool:
        self._check(other)
        return self.expo > other.expo

    def __ge__(self, other: "LatticeSize") -> bool:
        return other.__le__(self)

    def __gt__(self, other: "LatticeSize") -> bool:
        return other.__lt__(self)

    def ratio_within_e_eps(self, other: "LatticeSize") -> bool:
        """True iff self/other = e^(+-eps) exactly on the lattice."""
        self._check(other)
        return abs(self.expo - other.expo) <= 3

    def ratio_within_e_eps_third(self, other: "LatticeSize") -> bool:
        """True iff self/other = e^(+-eps/3) exactly on the lattice."""
        self._check(other)
        return abs(self.expo - other.expo) <= 1

