"""Exact coefficient arithmetic for the ground ring and the weight.

Three ring modes are supported: arbitrary-precision rationals, arbitrary
precision integers, and residues mod m (m >= 2).  Values are immutable and
normalized at construction by ``Ring.reduce``, which term maps also apply to
the bare values they store.  A rational that is whole is stored as an
``int``, any other as a ``fractions.Fraction`` in lowest terms with positive
denominator; nearly every coefficient the laws produce is whole, and ``int``
arithmetic is far cheaper.  Integers are ``int``s and residues ``int``s in
[0, m).  ``int`` and ``Fraction`` compare, hash and print alike, so the form
shows nowhere but in speed.  Mixing ring modes raises ``RingError`` instead
of coercing silently; no value is ever a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union


class RingError(ValueError):
    """Operands live in different ring modes, or the mode lacks the operation."""


_RATIONAL = "q"
_INTEGER = "z"
_RESIDUE = "zmod"


@dataclass(frozen=True)
class Ring:
    """Descriptor of a coefficient ring: rationals, integers, or Z/m."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (_RATIONAL, _INTEGER, _RESIDUE):
            raise RingError(f"unknown ring kind {self.kind!r}")
        if self.kind == _RESIDUE:
            if self.modulus is None or self.modulus < 2:
                raise RingError("residue ring needs a modulus >= 2")
        elif self.modulus is not None:
            raise RingError(f"ring {self.kind!r} takes no modulus")

    @property
    def is_rational(self) -> bool:
        return self.kind == _RATIONAL

    @property
    def is_residue(self) -> bool:
        return self.kind == _RESIDUE

    def zero(self) -> Scalar:
        return self.from_int(0)

    def one(self) -> Scalar:
        return self.from_int(1)

    def reduce(self, v):
        """The canonical form of a bare value v of this ring: reduced mod m
        on Z/m, and on q a whole ``Fraction`` as its ``int``."""
        if self.modulus:
            return v % self.modulus
        if type(v) is Fraction and v.denominator == 1:
            return v.numerator
        return v

    def unwrap(self, c: Scalar):
        """The bare value of c, which must live in this ring."""
        if c.ring is not self and c.ring != self:
            raise RingError(f"ring mismatch: {c.ring} vs {self}")
        return c.value

    def from_int(self, n: int) -> Scalar:
        """The image of n, which must be an ``int``; on q it may also be a
        ``Fraction`` (a bare value).  Anything else raises ``TypeError``."""
        t = type(n)
        if t is int or (t is Fraction and self.kind == _RATIONAL):
            return Scalar(self, self.reduce(n))
        raise TypeError(f"ring {self} takes no {t.__name__} value: {n!r}")

    def from_fraction(self, q: Fraction) -> Scalar:
        """Embed p/q as p times the inverse of q: ``RingError`` where q is no
        unit of the ring (any q > 1 on the integers)."""
        p = self.from_int(q.numerator)
        if q.denominator == 1:
            return p
        return p * self.from_int(q.denominator).inverse()

    def __str__(self) -> str:
        if self.kind == _RESIDUE:
            return f"zmod:{self.modulus}"
        return self.kind


RATIONALS = Ring(_RATIONAL)
INTEGERS = Ring(_INTEGER)


def residues(m: int) -> Ring:
    return Ring(_RESIDUE, m)


@dataclass(frozen=True)
class Scalar:
    """Exact element of a coefficient ring, stored in canonical form."""

    ring: Ring
    value: Union[Fraction, int]

    def _check(self, other: Scalar) -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingError(f"ring mismatch: {self.ring} vs {other.ring}")

    def _wrap(self, v) -> Scalar:
        """The result v of an operation, in canonical form."""
        return Scalar(self.ring, self.ring.reduce(v))

    def __add__(self, other: Scalar) -> Scalar:
        self._check(other)
        return self._wrap(self.value + other.value)

    def __sub__(self, other: Scalar) -> Scalar:
        self._check(other)
        return self._wrap(self.value - other.value)

    def __neg__(self) -> Scalar:
        return self._wrap(-self.value)

    def __mul__(self, other: Scalar) -> Scalar:
        self._check(other)
        return self._wrap(self.value * other.value)

    def __bool__(self) -> bool:
        return self.value != 0

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def inverse(self) -> Scalar:
        if self.is_zero:
            raise ZeroDivisionError("scalar has no inverse: 0")
        if self.ring.is_rational:
            return self._wrap(Fraction(1) / self.value)
        if self.ring.is_residue:
            m = self.ring.modulus
            if gcd(self.value, m) != 1:
                raise RingError(f"{self.value} is not invertible mod {m}")
            return Scalar(self.ring, pow(self.value, -1, m))
        if self.value in (1, -1):
            return self
        raise RingError(f"{self.value} is not invertible in the integer ring")

    def pow_nat(self, k: int) -> Scalar:
        """k-th power for k >= 0, with the convention x**0 = 1."""
        if k < 0:
            raise ValueError("negative exponent")
        return self._wrap(self.value ** k)

    def __str__(self) -> str:
        if self.ring.is_residue:
            return f"{self.value} mod {self.ring.modulus}"
        return str(self.value)

    def render_bare(self) -> str:
        """Digits only, for use inside element syntax where the ring is implied."""
        return str(self.value)


def parse_scalar(text: str, ring: Ring) -> Scalar:
    """Parse "p", "p/q", or "r mod m" in the given ring."""
    text = text.strip()
    if " mod " in text:
        r_part, m_part = text.split(" mod ")
        if not ring.is_residue or int(m_part) != ring.modulus:
            raise RingError(f"residue literal {text!r} does not match ring {ring}")
        return ring.from_int(int(r_part))
    if "/" in text:
        num, den = text.split("/")
        return ring.from_fraction(Fraction(int(num), int(den)))
    return ring.from_int(int(text))


def parse_ring(text: str) -> Ring:
    """Parse a ring spec: "q", "z", or "zmod:M"."""
    text = text.strip().lower()
    if text == _RATIONAL:
        return RATIONALS
    if text == _INTEGER:
        return INTEGERS
    if text.startswith("zmod:"):
        return residues(int(text.split(":", 1)[1]))
    raise RingError(f"unknown ring spec {text!r}")
