"""Exact dyadic rationals: sums of powers of two, no floating point.

Halting-probability bounds live here.  Carries near bit boundaries are the
whole point of the exercise, so the denominator is required to be a power
of two and every operation is exact integer arithmetic under the hood.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True, order=True)
class DyadicRational:
    """A nonnegative rational whose denominator is a power of two."""

    fraction: Fraction

    def __post_init__(self):
        if not isinstance(self.fraction, Fraction):
            object.__setattr__(self, "fraction", Fraction(self.fraction))
        f = self.fraction
        if f < 0:
            raise ValueError("dyadic rationals here are nonnegative")
        den = f.denominator
        if den & (den - 1):
            raise ValueError(f"denominator {den} is not a power of two")

    @classmethod
    def zero(cls) -> "DyadicRational":
        return cls(Fraction(0))

    @classmethod
    def half_power(cls, k: int) -> "DyadicRational":
        """2 ** -k, the weight of a k-bit program."""
        return cls(Fraction(1, 2**k))

    @property
    def numerator(self) -> int:
        return self.fraction.numerator

    @property
    def exponent(self) -> int:
        """k such that the value is numerator / 2**k (k >= 0, minimal)."""
        return self.fraction.denominator.bit_length() - 1

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(self.fraction + other.fraction)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(self.fraction - other.fraction)

    def truncate(self, n_bits: int) -> "DyadicRational":
        """Keep the first n_bits binary digits after the point (floor)."""
        if n_bits < 0:
            raise ValueError("n_bits must be >= 0")
        scaled = self.fraction * 2**n_bits
        return DyadicRational(Fraction(scaled.numerator // scaled.denominator, 2**n_bits))

    def binary_expansion(self, n_bits: int | None = None) -> str:
        """Exact base-two rendering, e.g. '0.0101'.

        With n_bits the fractional part is truncated or zero-padded to that
        width; otherwise all (finitely many) digits are shown.
        """
        if n_bits is not None and n_bits < 0:
            raise ValueError("n_bits must be >= 0")
        f = self.fraction
        whole = f.numerator // f.denominator
        frac = f - whole
        k = frac.denominator.bit_length() - 1
        digits = format(frac.numerator, f"0{k}b") if k else ""
        if n_bits is not None:
            digits = digits[:n_bits].ljust(n_bits, "0")
        return f"{whole}.{digits}" if digits else f"{whole}."

    def __str__(self) -> str:
        if self.fraction == 0:
            return "0"
        if self.fraction.denominator == 1:
            return str(self.fraction.numerator)
        return f"{self.numerator}/2^{self.exponent}"
