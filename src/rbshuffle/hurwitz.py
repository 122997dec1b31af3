"""Weighted Hurwitz series over an algebra, at explicit finite precision.

A series is the prefix (f(0), ..., f(N)) of a sequence with values in the
inner algebra; N is the precision.  The product is the weighted (lambda-)
Hurwitz product in the pair form of Guo and Keigher:

    (fg)(n) = sum_{i, l <= n <= i+l} n! / (k! (n-i)! (n-l)!) w^k f(i) g(l),
    k = i + l - n,

which at weight 0 collapses to the classical binomial convolution
(only i + l = n survives).  ``Series.__mul__`` and ``higher_leibniz``
hand rows of one cached table of these coefficients (``_pair_table``) to
the inner carrier's ``algebra.row_products``: ``algebra`` owns the
polynomial kernel, ``freerb`` the tensor one, and this module the series
branch, which turns each row into rows over the operands' values for its
inner carrier, so a product at any depth is one bare pass of the innermost
kernel.  At a nonzero weight the map a(k) = sum_{i<=k} C(k,i) w^i f(i),
the index-0 value of (1 + w d)^k f for the shift d, takes this product to
the pointwise one (series are the cofree w-differential algebra, Guo and
Keigher), and w^n f(n) = sum_k (-1)^(n-k) C(n,k) a(k) inverts it.  The
table carries this Newton transform's integer data, which
``algebra.row_products`` uses on polynomial values that it packs: N + 1
big-int products per series product, not one per table entry.  Weight 0
keeps the binomial rows, which have only (N+1)(N+2)/2 entries.

Every operation records its exact output precision: products take the
minimum, the shift loses one, the Rota-Baxter lift gains one,
comultiplication fills the triangle m+n <= N.  Comparisons are relative to
the common precision.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, islice
from math import factorial, lcm
from typing import Sequence

from . import algebra
from .algebra import Handle, HandleMismatchError, Hom, HurwitzHandle, check_same_handle
from .coeffs import INTEGERS, Scalar


class PrecisionError(ValueError):
    """An operation needs more known values than the operand carries."""


def _lambda_power(lam: Scalar, k: int) -> Scalar:
    """w**k with w**0 = 1, including at weight 0."""
    return lam.pow_nat(k)


@lru_cache(maxsize=64)
def _weighted_table(power, lam: Scalar, top: int) -> tuple[tuple, int, tuple | None]:
    """Rows 0..top of the pair table at weight lam, with power(lam, k) the
    weight powers, D, and the Newton transform's data.  Row n holds (c, i, l)
    for every i, l <= n <= i + l with nonzero c = D * n! / (k! (n-i)! (n-l)!)
    * lam^k, k = i + l - n; a rational weight runs as ints, each power scaled
    by the lcm D of their denominators.  The transform's data is (P, S):
    P_k = D * lam^k as ints and S[n][i] the sum of |c| over row n's pairs
    (i, l), both before reduction, on Z/m from the weight's lift to [0, m);
    None where some P_k is zero, as at weight 0."""
    ring = lam.ring
    lift = INTEGERS.from_int(lam.value) if ring.is_residue else lam
    powers = [lift.ring.unwrap(power(lift, k)) for k in range(top + 1)]
    den = lcm(*(w.denominator for w in powers))
    powers = [w.numerator * (den // w.denominator) for w in powers]
    fact = [factorial(j) for j in range(top + 1)]
    coeffs = [[[fact[n] // (fact[i + l - n] * fact[n - i] * fact[n - l]) * powers[i + l - n]
                for l in range(n - i, n + 1)] for i in range(n + 1)] for n in range(top + 1)]
    rows = tuple(tuple((c, i, l) for i, cs in enumerate(row)
                       for l, x in enumerate(cs, n - i) if (c := ring.reduce(x)))
                 for n, row in enumerate(coeffs))
    sums = [[sum(map(abs, cs)) for cs in row] for row in coeffs]
    return rows, den, (powers, sums) if all(powers) else None


def _pair_table(handle: Handle, top: int) -> tuple[tuple, int, tuple | None]:
    """The pair table's rows 0..top at the handle's weight, D and the Newton
    transform's data, cached per seam, weight and top: ``_lambda_power`` is
    looked up per call, so a patched seam builds its own table."""
    return _weighted_table(_lambda_power, handle.weight, top)


def row_products(handle: HurwitzHandle, lefts: list, rights: list, rows: list, den: int) -> list:
    """One series per row: the sum of c * lefts[i] * rights[l] / den over the
    row's (c, i, l), at the least precision of the handle and every pair's
    operands; value n of each row goes on as pair-table rows n, all in one call."""
    tops = [min([handle.precision] + [min(lefts[i].precision, rights[l].precision)
                                      for _, i, l in row]) for row in rows]
    n_max = max(tops)
    table, d, _ = _pair_table(handle, n_max)

    def flat(side: Sequence) -> tuple[list, list]:
        # every operand's values up to n_max in one list, and where each starts
        cut = [f.values[:n_max + 1] for f in side]
        return [v for vs in cut for v in vs], list(accumulate(map(len, cut), initial=0))
    (lv, ls), (rv, rs) = flat(lefts), flat(rights)
    inner = [[(c * e, ls[i] + a, rs[l] + b) for c, i, l in row for e, a, b in table[n]]
             for row, top in zip(rows, tops) for n in range(top + 1)]
    values = iter(algebra.row_products(handle.inner, lv, rv, inner, den * d))
    return [Series(handle, tuple(islice(values, top + 1))) for top in tops]


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
        n, inner = min(self.precision, other.precision), self.handle.inner
        rows, den, newton = _pair_table(inner, n)
        return Series(self.handle, algebra.row_products(inner, self.values[:n + 1],
                                                        other.values[:n + 1], rows, den, newton))

    def __eq__(self, other) -> bool:
        # strict: same precision and identical values (hash-compatible);
        # use algebra.alg_eq for precision-relative comparison
        return (isinstance(other, Series) and self.handle == other.handle
                and self.values == other.values)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.handle, self.values))
        return self._hash

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
    rows, den, _ = _pair_table(d.src, n)
    return algebra.row_products(d.src, dx, dy, rows[n:], den)[0]
