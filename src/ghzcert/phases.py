"""Exact arithmetic on angles stored as rational fractions of a full turn.

Every amplitude and eigenvalue in this package is a root of unity, so
angles are kept as exact elements of Q/Z (turn fractions) and never as
floats.  A phase ``p`` stands for the complex unit ``exp(2*pi*i*p)``;
floats appear only in :meth:`RationalPhase.to_complex`, the bridge to the
numeric cross-checks.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["PhaseParseError", "RationalPhase", "ZERO_PHASE"]

_CANONICAL_RE = re.compile(r"([0-9]+)/([0-9]+)")


class PhaseParseError(ValueError):
    """Input string is not a canonical ``num/den`` turn fraction."""


@dataclass(frozen=True, init=False)
class RationalPhase:
    """An angle on the unit circle as a reduced fraction of a turn.

    Instances are normalized once, in ``__init__``: ``0 <= num < den``
    and ``gcd(num, den) == 1``.  Equality and hashing are structural on
    the normalized pair, so equal angles are always equal values.
    Arbitrary precision integers keep chained scaling exact (denominators
    like d**2 appear routinely), and sums and differences are taken on
    the integer pairs, then normalized by the same ``__init__``.
    """

    num: int
    den: int

    def __init__(self, num: int = 0, den: int = 1) -> None:
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        # frozen: the fields are set once, past the refusing __setattr__
        vars(self).update(num=num // g, den=den // g)

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "RationalPhase":
        """Wrap an exact rational number of turns, reducing mod 1."""
        f = Fraction(value)
        return cls(f.numerator, f.denominator)

    @classmethod
    def parse(cls, text: str) -> "RationalPhase":
        """Parse the canonical serialization ``"num/den"``.

        Only the text that ``str`` writes is accepted ("2/18", "5/3",
        "-1/3", "01/3" and "1/3\\n" are all rejected), so parsing is the
        exact inverse of ``str``.
        """
        m = _CANONICAL_RE.fullmatch(text)
        if not m:
            raise PhaseParseError(f"not a 'num/den' turn fraction: {text!r}")
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0 or str(phase := cls(num, den)) != text:
            raise PhaseParseError(f"not in canonical form: {text!r}")
        return phase

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "RationalPhase | Fraction | int") -> "RationalPhase":
        num, den = _pair(other)
        return RationalPhase(self.num * den + num * self.den, self.den * den)

    __radd__ = __add__

    def __sub__(self, other: "RationalPhase | Fraction | int") -> "RationalPhase":
        num, den = _pair(other)
        return RationalPhase(self.num * den - num * self.den, self.den * den)

    def __rsub__(self, other: "RationalPhase | Fraction | int") -> "RationalPhase":
        num, den = _pair(other)
        return RationalPhase(num * self.den - self.num * den, self.den * den)

    def __neg__(self) -> "RationalPhase":
        return RationalPhase(-self.num, self.den)

    def __mul__(self, k: int) -> "RationalPhase":
        """The k-fold angle; negative k gives the inverse rotation."""
        if not isinstance(k, int):
            return NotImplemented
        return RationalPhase(self.num * k, self.den)

    __rmul__ = __mul__

    def is_multiple_of_unit(self, d: int) -> bool:
        """True iff the angle is an integer multiple of 1/d of a turn.

        This is the exact orthogonality test for the rotated-state family:
        no cyclotomic zero-testing is ever needed beyond it.
        """
        if d < 2:
            raise ValueError("d must be at least 2")
        return d % self.den == 0  # num/den is reduced

    def to_complex(self) -> complex:
        """Machine-precision exp(2*pi*i*num/den); for oracle comparisons only."""
        return cmath.exp(2j * math.pi * (self.num / self.den))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def as_turns(value: "RationalPhase | Fraction | int") -> Fraction:
    """Coerce an angle-like value to an exact (signed) number of turns.

    RationalPhase inputs contribute their canonical value in [0, 1);
    plain rationals are taken as-is, so callers can express signed
    rotations (e.g. ``Fraction(-1, 9)``) and whole turns, which matter
    for half-integer spin.
    """
    if isinstance(value, RationalPhase):
        return value.as_fraction()
    return Fraction(value)


def _pair(value: "RationalPhase | Fraction | int") -> tuple[int, int]:
    """An angle-like value as an integer pair (num, den), den > 0.

    The same value that ``as_turns`` gives, without building a Fraction
    for a phase or an int.
    """
    if isinstance(value, RationalPhase):
        return value.num, value.den
    if isinstance(value, int):
        return value, 1
    turns = Fraction(value)
    return turns.numerator, turns.denominator


ZERO_PHASE = RationalPhase()
