"""Weighted Hurwitz series over an algebra, at explicit finite precision.

A series is the prefix (f(0), ..., f(N)) of a sequence with values in the
inner algebra; N is the precision.  The product is the weighted (lambda-)
Hurwitz product in the pair form of Guo and Keigher:

    (fg)(n) = sum_{i, l <= n <= i+l} n! / (k! (n-i)! (n-l)!) w^k f(i) g(l),
    k = i + l - n,

which at weight 0 collapses to the classical binomial convolution
(only i + l = n survives).  ``Series.__mul__`` and ``higher_leibniz`` are
the two callers of one kernel, ``_pair_sums``, over one cached table of
these coefficients.  The kernel sums each output value in bare int or
Fraction coefficients, with the powers of a rational weight brought to one
common denominator D, and builds it once.  Over polynomials and tensors on
polynomials it builds no ``Scalar`` and no element per pair of values;
over other inner algebras each inner product is an element, read back as
bare values.  Every operation records its exact
output precision: products take the minimum, the shift loses one, the
Rota-Baxter lift gains one, comultiplication fills the triangle m+n <= N.
Comparisons are relative to the common precision.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import Sequence

from . import algebra, freerb
from .algebra import (Handle, HandleMismatchError, Hom, HurwitzHandle,
                      PolyHandle, ShaHandle, check_same_handle)
from .coeffs import Scalar


class PrecisionError(ValueError):
    """An operation needs more known values than the operand carries."""


def _lambda_power(lam: Scalar, k: int) -> Scalar:
    """w**k with w**0 = 1, including at weight 0."""
    return lam.pow_nat(k)


@lru_cache(maxsize=None)
def _pair_row(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The pair table's row n: (i, l, k, n! / (k! (n-i)! (n-l)!)) for every
    i, l <= n <= i + l, with k = i + l - n the weight exponent."""
    fact = [factorial(j) for j in range(n + 1)]
    return tuple((i, l, i + l - n, fact[n] // (fact[i + l - n] * fact[n - i] * fact[n - l]))
                 for i in range(n + 1) for l in range(n - i, n + 1))


def _pair_sums(f: Sequence, g: Sequence, inner: Handle, indices: Sequence[int]) -> list:
    """The values (fg)(n), n in indices, of the weighted product of the value
    prefixes f and g over the inner algebra, in pair form.

    Each product f(i)g(l) is formed at most once, only where some row gives
    it a nonzero coefficient, and each row is summed in bare values and
    built once.  A rational weight runs as ints: every power of it is scaled
    by the least common multiple D of their denominators, and each output
    coefficient is divided by D once.  Over a polynomial carrier each
    exponent vector is packed into one int, its base-B digits, with B above
    every exponent a product can reach, so exponent vectors add as ints.
    Over tensors on polynomials one ``freerb._Kernel`` takes every value of
    f and g and sums each row straight from the tail shuffles of its pairs.
    Over other carriers each product is an element, read through
    ``bare_view``; a series row takes the smallest precision entering it.
    """
    ring = inner.ring
    m = ring.modulus
    powers = [_lambda_power(inner.weight, k).value for k in range(max(indices) + 1)]
    den = lcm(*(w.denominator for w in powers))
    powers = [w.numerator * (den // w.denominator) for w in powers]

    # (int coefficient, i, l) for each pair of row n that survives; the
    # coefficient carries the factor D
    rows = [[(c, i, l) for i, l, k, count in _pair_row(n)
             if (c := count * powers[k] % m if m else count * powers[k])] for n in indices]
    if isinstance(inner, ShaHandle) and isinstance(inner.inner, PolyHandle):
        kernel = freerb._Kernel(inner, f[:len(powers)], g[:len(powers)])
        out = []
        for row in rows:
            by_head: dict = {}
            for c, i, l in row:
                kernel.add_product(by_head, kernel.lefts[i], kernel.rights[l], c)
            out.append(freerb.Tensor._trusted(inner, kernel.terms(by_head, den)))
        return out
    unpack = None
    if isinstance(inner, PolyHandle):
        fb = [v.bare_items() for v in f[:len(powers)]]
        gb = [v.bare_items() for v in g[:len(powers)]]
        base = 1 + sum(max([e for items in vb for a, _ in items for e in a], default=0)
                       for vb in (fb, gb))
        places = [base ** j for j in range(len(inner.variables))]
        fb, gb = ([[(sum(map(mul, a, places)), x) for a, x in items] for items in vb]
                  for vb in (fb, gb))

        def product(i: int, l: int) -> list:
            out: dict = {}
            for a, x in fb[i]:
                for b, y in gb[l]:
                    key = a + b
                    s = out.get(key)
                    out[key] = x * y if s is None else s + x * y
            return list(out.items())

        def unpack(key: int) -> tuple:
            return tuple([key // p % base for p in places])
    else:
        def product(i: int, l: int) -> list:
            return algebra.bare_view(f[i] * g[l])
    products = {key: product(*key) for key in dict.fromkeys(
        (i, l) for row in rows for _, i, l in row)}
    return [algebra.bare_sum(inner, [(c, products[i, l]) for c, i, l in row], den, unpack)
            for row in rows]


class Series:
    """Value prefix of a sequence in the inner algebra; immutable."""

    __slots__ = ("handle", "values", "_hash")

    def __init__(self, handle: HurwitzHandle, values: Sequence):
        if not values:
            raise ValueError("a series stores at least the index-0 value")
        inner = handle.inner
        for v in values:
            if v.handle is not inner and v.handle != inner:
                raise HandleMismatchError(f"value over {v.handle}, expected {handle.inner}")
        self.handle = handle
        self.values = tuple(values)
        self._hash = None

    @property
    def precision(self) -> int:
        return len(self.values) - 1

    @classmethod
    def zero(cls, handle: HurwitzHandle) -> Series:
        return cls.constant(algebra.zero(handle.inner), handle)

    @classmethod
    def one(cls, handle: HurwitzHandle) -> Series:
        return cls.constant(algebra.unit(handle.inner), handle)

    @classmethod
    def constant(cls, a, handle: HurwitzHandle) -> Series:
        """Embed an inner element as (a, 0, 0, ...) at the handle's precision."""
        return cls(handle, (a,) + (algebra.zero(handle.inner),) * handle.precision)

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.values)

    def truncate(self, n: int) -> Series:
        if n > self.precision:
            raise PrecisionError(f"cannot extend precision {self.precision} to {n}")
        return Series(self.handle, self.values[: n + 1])

    def __add__(self, other: Series) -> Series:
        check_same_handle(self, other)
        n = min(self.precision, other.precision)
        return Series(self.handle,
                      tuple(a + b for a, b in zip(self.values[: n + 1], other.values[: n + 1])))

    def __neg__(self) -> Series:
        return Series(self.handle, tuple(-v for v in self.values))

    def __sub__(self, other: Series) -> Series:
        return self + (-other)

    def scale(self, c: Scalar) -> Series:
        return Series(self.handle, tuple(v.scale(c) for v in self.values))

    def __mul__(self, other: Series) -> Series:
        check_same_handle(self, other)
        n_out = min(self.precision, other.precision)
        return Series(self.handle, _pair_sums(self.values, other.values,
                                              self.handle.inner, range(n_out + 1)))

    def __eq__(self, other) -> bool:
        # strict: same precision and identical values (hash-compatible);
        # use algebra.alg_eq for precision-relative comparison
        return (isinstance(other, Series) and self.handle == other.handle
                and self.values == other.values)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.handle, self.values))
        return self._hash

    def basis_expansion(self) -> list[tuple[Scalar, Series]]:
        # sequence carriers expose no basis: nonzero factors stay whole,
        # while a zero factor annihilates its tensor
        if self.is_zero:
            return []
        return [(self.handle.ring.one(), self)]

    def __str__(self) -> str:
        return "[" + "; ".join(str(v) for v in self.values) + "]"

    def __repr__(self) -> str:
        return f"Series({self})"

    def to_json(self) -> dict:
        return {"precision": self.precision, "values": [v.to_json() for v in self.values]}


# --------------------------------------------------------------------------
# Shift derivation, counit, comultiplication


def shift(f: Series) -> Series:
    """Drop the index-0 value; the canonical weighted derivation on series."""
    if f.precision < 1:
        raise PrecisionError("cannot shift a precision-0 series")
    return Series(f.handle, f.values[1:])


def shift_derivation(handle: HurwitzHandle) -> Hom:
    return Hom(handle, handle, shift, name="shift")


def counit(f: Series):
    """The index-0 value."""
    return f.values[0]


def counit_hom(handle: HurwitzHandle) -> Hom:
    return Hom(handle, handle.inner, counit, name="counit")


def comult(f: Series) -> Series:
    """Re-index over two coordinates: value (m)(n) = f(m+n).

    The result is a series of series filling the triangle m+n <= precision;
    the inner value at m has precision N-m.
    """
    outer = HurwitzHandle(f.handle, f.handle.precision)
    rows = [Series(f.handle, f.values[m:]) for m in range(f.precision + 1)]
    return Series(outer, rows)


def comult_hom(handle: HurwitzHandle) -> Hom:
    return Hom(handle, HurwitzHandle(handle, handle.precision), comult, name="comult")


# --------------------------------------------------------------------------
# The Rota-Baxter lift


def rb_lift_apply(f: Series, rb: Hom) -> Series:
    """Shift values up one slot and close index 0 with the base operator."""
    if rb.src != f.handle.inner:
        raise HandleMismatchError(f"base operator on {rb.src} cannot lift over {f.handle}")
    return Series(f.handle, (rb(f.values[0]),) + f.values)


def lifted_rb(handle: HurwitzHandle, rb: Hom) -> Hom:
    return Hom(handle, handle, lambda f: rb_lift_apply(f, rb), name=f"lift({rb.name})")


# --------------------------------------------------------------------------
# Pointwise maps


def map_pointwise(h: Hom, f: Series) -> Series:
    """Apply a homomorphism to every value; precision is preserved."""
    if f.handle.inner != h.src:
        raise HandleMismatchError(f"map from {h.src} cannot act on {f.handle}")
    target = HurwitzHandle(h.dst, f.handle.precision)
    return Series(target, tuple(h(v) for v in f.values))


def pointwise_hom(h: Hom, precision: int) -> Hom:
    src = HurwitzHandle(h.src, precision)
    dst = HurwitzHandle(h.dst, precision)
    return Hom(src, dst, lambda f: map_pointwise(h, f), name=f"{h.name}^seq")


# --------------------------------------------------------------------------
# Iterated derivations


def derivation_series(a, d: Hom, n: int) -> Series:
    """(a, d(a), d^2(a), ..., d^n(a)): the series a derivation attaches to a."""
    if a.handle != d.src:
        raise HandleMismatchError(f"derivation on {d.src} cannot act on {a.handle}")
    values = [a]
    for _ in range(n):
        values.append(d(values[-1]))
    return Series(HurwitzHandle(d.src, n), values)


def costructure_hom(d: Hom, n: int) -> Hom:
    """The map a -> (d^k(a))_k into series at precision n."""
    return Hom(d.src, HurwitzHandle(d.src, n),
               lambda a: derivation_series(a, d, n), name=f"iter({d.name})")


def higher_leibniz(x, y, d: Hom, n: int):
    """Closed form for the n-th derivative of a product, in pair form:

        sum_{i, l <= n <= i+l} n! / (k! (n-i)! (n-l)!) w^k d^i(x) d^l(y),
        k = i + l - n,

    the index-n value of the weighted product of the derivation series of x
    and y; it shares the product's kernel and coefficient table.

    Contract: equals d applied n times to x*y.
    """
    dx = derivation_series(x, d, n).values
    dy = derivation_series(y, d, n).values
    return _pair_sums(dx, dy, d.src, (n,))[0]
