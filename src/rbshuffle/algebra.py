"""Commutative unital algebras: carriers, handles, and concrete operators.

A handle names an algebra: a base polynomial algebra over the coefficient
ring, the tensor carrier ``sha(A)`` of an inner handle, or the sequence
carrier ``hur(A, N)`` of an inner handle.  Handles carry the ring and the
weight; every element points back at its handle and all operations require
matching handles.

Elements are immutable, hashable, and kept in canonical form: polynomials
as sparse maps from monomial codes to nonzero coefficients, tensors as linear
combinations of tuples of basis factors, series as value prefixes of
explicit precision.  Canonical form makes equality a syntactic check
(precision-bounded for series).  Polynomials and tensors are both term maps,
``Terms``, which alone owns the coefficient format: one representation,
bare values (``Ring.reduce``) in a private dict, with ``Scalar`` only at the
public constructor and the read-only ``.terms`` view.  Sums, scaling, linear
maps and products all work on the bare values.  ``bare_sum`` is the one
accumulator of linear combinations sum c * v: linear maps, random draws,
evaluations and the tensor rows off polynomial carriers build their output
through it; only the hot inner loops (``Terms.__add__``, ``_key_products``,
``freerb``'s shuffle) sum inline.  ``row_products`` is every product
kernel's one interface: this module owns the polynomial kernel, ``freerb``
the tensor one, ``hurwitz`` the series branch.  On term maps it first drops
each row entry with a zero operand, so a product costs only its nonzero
term pairs, and a call left with no entry builds no kernel.  Rows formed
term by term (tensor rows, and polynomial rows where packing costs more)
combine in ``_pair_sums``, each distinct operand pair's product once.
The polynomial kernel works on int coefficients, by Kronecker substitution:
every operand of a call becomes one int, its coefficients packed as w-byte
digits, so that a row is a sum of int products, which CPython multiplies in
C.  The packed ints grow like B^(number of variables) for exponent base B,
and their read-back like the key range, and packing has a fixed set-up cost
per call, so a call whose estimated packed work exceeds that of its term
pairs, and a small call before any packing set-up, multiplies them term by
term on the stored keys (``_key_products``, as ``Poly.__mul__`` does).

Monomial codes: a polynomial keys each term by the int code of its monomial,
which holds the exponent of variable j (from 0) in the 32-bit slot j, so the
unit's code is 0 and a product of monomials has the sum of their codes.
Every exponent stays below 2^31, so a sum of two codes never carries from
slot to slot, and its top slot bits show an exponent past the range, which
raises ``ValueError``.  Only this module builds or takes apart a code: the
public constructor encodes exponent vectors and the ``.terms`` view decodes
them; every other layer, tensor keys over polynomials included, takes codes
as they stand.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable, ItemsView, Iterable, Mapping, Sequence
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import accumulate, chain
from math import comb, lcm
from operator import mul, or_
from typing import Union

from .coeffs import RATIONALS, Ring, RingError, Scalar

# Constructor nesting above the base polynomial algebra (sha/hur layers).
MAX_NESTING = 3


class HandleMismatchError(ValueError):
    """Operands belong to different algebras."""


class WeightError(ValueError):
    """The operation constrains the weight (e.g. needs a nonzero one)."""


def _cached_hash(handle) -> int:
    """A handle's hash, from its fields on first use, then kept."""
    h = handle.__dict__.get("_hash")
    if h is None:
        values = [getattr(handle, f.name) for f in fields(handle)]
        h = handle.__dict__["_hash"] = hash((type(handle), *values))
    return h


@dataclass(frozen=True)
class PolyHandle:
    """Multivariate polynomial algebra over the coefficient ring."""

    variables: tuple[str, ...]
    ring: Ring
    weight: Scalar

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in {self.variables}")
        if self.weight.ring != self.ring:
            raise RingError("weight must live in the coefficient ring")

    @property
    def depth(self) -> int:
        return 0

    def __str__(self) -> str:
        return f"poly({','.join(self.variables)})"

    __hash__ = _cached_hash  # a dataclass overrides an inherited __hash__


@dataclass(frozen=True)
class ShaHandle:
    """Tensor carrier of the inner algebra: direct sum of its tensor powers."""

    inner: Handle

    def __post_init__(self) -> None:
        if self.depth > MAX_NESTING:
            raise ValueError(f"handle nesting deeper than {MAX_NESTING}")

    @property
    def ring(self) -> Ring:
        return self.inner.ring

    @property
    def weight(self) -> Scalar:
        return self.inner.weight

    @property
    def depth(self) -> int:
        return self.inner.depth + 1

    def __str__(self) -> str:
        return f"sha({self.inner})"

    __hash__ = _cached_hash  # a dataclass overrides an inherited __hash__


@dataclass(frozen=True)
class HurwitzHandle:
    """Sequence carrier of the inner algebra at a default working precision."""

    inner: Handle
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 0:
            raise ValueError("precision must be >= 0")
        if self.depth > MAX_NESTING:
            raise ValueError(f"handle nesting deeper than {MAX_NESTING}")

    @property
    def ring(self) -> Ring:
        return self.inner.ring

    @property
    def weight(self) -> Scalar:
        return self.inner.weight

    @property
    def depth(self) -> int:
        return self.inner.depth + 1

    def __str__(self) -> str:
        return f"hur({self.inner},{self.precision})"

    __hash__ = _cached_hash  # a dataclass overrides an inherited __hash__


Handle = Union[PolyHandle, ShaHandle, HurwitzHandle]


def poly_handle(variables: Sequence[str], ring: Ring = RATIONALS,
                weight: Scalar | None = None) -> PolyHandle:
    if weight is None:
        weight = ring.zero()
    return PolyHandle(tuple(variables), ring, weight)


def sha(inner: Handle) -> ShaHandle:
    return ShaHandle(inner)


def hurwitz(inner: Handle, precision: int) -> HurwitzHandle:
    return HurwitzHandle(inner, precision)


def check_same_handle(x, y) -> None:
    if x.handle is not y.handle and x.handle != y.handle:
        raise HandleMismatchError(f"handle mismatch: {x.handle} vs {y.handle}")


# --------------------------------------------------------------------------
# Term maps


class _ScalarView(Mapping):
    """A term map's coefficients as a read-only mapping to ``Scalar``s, each
    wrapped only when it is read.  Keys show through shown (stored key ->
    shown key), each when it is read; stored is its inverse, and a key it
    cannot store raises ``KeyError``."""

    __slots__ = ("_ring", "_bare", "_shown", "_stored")

    def __init__(self, ring: Ring, bare: dict, shown: Callable, stored: Callable):
        self._ring, self._bare, self._shown, self._stored = ring, bare, shown, stored

    def __getitem__(self, key) -> Scalar:
        try:
            stored = self._stored(key)
        except (AttributeError, TypeError, ValueError):
            raise KeyError(key) from None
        return Scalar(self._ring, self._bare[stored])

    def __iter__(self):
        return map(self._shown, self._bare)

    def __len__(self) -> int:
        return len(self._bare)

    def items(self) -> ItemsView:
        return _ScalarItems(self)


class _ScalarItems(ItemsView):
    """A view's (key, ``Scalar``) pairs, read in one pass over its terms."""

    def __iter__(self):
        view = self._mapping
        shown, ring = view._shown, view._ring
        return ((shown(k), Scalar(ring, v)) for k, v in view._bare.items())


class Terms:
    """Linear combination over basis keys, shared by polynomials and tensors:
    key -> nonzero coefficient, stored as a canonical bare value with zeros
    dropped, so equal elements have equal term maps.  The constructor takes
    key -> ``Scalar`` of the handle's ring.  Subclasses give the product, the
    key order (``_key_order``), the text of one term (``_term_str``), the
    ``.terms`` view with the keys it shows, and the keys stored for those
    (``_stored_keys``).
    """

    __slots__ = ("handle", "_bare", "_hash")
    _TEXT_REVERSED = False  # print terms against key order

    def __init__(self, handle: Handle, terms: Mapping):
        ring = handle.ring
        self.handle, self._hash = handle, None
        self._bare = self._stored_keys(handle, {k: v for k, c in terms.items()
                                                if (v := ring.reduce(ring.unwrap(c)))})

    @classmethod
    def _trusted(cls, handle: Handle, bare: dict):
        """The element with these bare values, already canonical and nonzero."""
        out = cls.__new__(cls)
        out.handle, out._bare, out._hash = handle, bare, None
        return out

    @classmethod
    def _reduced(cls, handle: Handle, sums: dict):
        """The element with these bare values, each reduced to canonical form,
        and the zeros dropped."""
        reduce = handle.ring.reduce
        return cls._trusted(handle, {k: v for k, x in sums.items() if (v := reduce(x))})

    @classmethod
    def zero(cls, handle: Handle):
        return cls._trusted(handle, {})

    @property
    def is_zero(self) -> bool:
        return not self._bare

    # sums inline: bare_sum over both term lists slows series products
    def __add__(self, other):
        check_same_handle(self, other)
        out = dict(self._bare)
        for k, c in other._bare.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return self._reduced(self.handle, out)

    def __neg__(self):
        return self._reduced(self.handle, {k: -c for k, c in self._bare.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        x = self.handle.ring.unwrap(c)
        return self._reduced(self.handle, {k: x * v for k, v in self._bare.items()})

    def linear_map(self, image: Callable, handle: Handle | None = None):
        """The linear extension of image, which sends one basis key to
        (key, bare value) pairs, summed by ``bare_sum``; the result lives on
        handle, by default this element's, whose ring must be this element's."""
        handle = handle or self.handle
        if handle.ring is not self.handle.ring and handle.ring != self.handle.ring:
            raise RingError(f"ring mismatch: {handle.ring} vs {self.handle.ring}")
        return bare_sum(handle, [(c, image(key)) for key, c in self._bare.items()])

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and (self.handle is other.handle or self.handle == other.handle)
                and self._bare == other._bare)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.handle, frozenset(self._bare.items())))
        return self._hash

    def _ordered_terms(self, reverse: bool = False) -> list:
        return sorted(self.terms.items(), key=lambda kv: self._key_order(kv[0]),
                      reverse=reverse)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks: list[str] = []
        for k, c in self._ordered_terms(self._TEXT_REVERSED):
            cs = c.render_bare()
            negative = cs.startswith("-")
            body = self._term_str(k, cs[1:] if negative else cs, negative)
            if not chunks:
                chunks.append(("-" if negative else "") + body)
            else:
                chunks.append((" - " if negative else " + ") + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


# --------------------------------------------------------------------------
# Monomial codes

_SLOT = 32  # bits per exponent
_MASK = (1 << _SLOT) - 1
_LIMIT = 1 << _SLOT - 1  # every exponent stays below this


@functools.cache
def _places(n: int) -> tuple[int, ...]:
    """The place of each slot in the codes of n variables."""
    return tuple(1 << _SLOT * j for j in range(n))


def _code(handle: PolyHandle, exps) -> int:
    """The code of an exponent vector over handle; ``ValueError`` on one of
    the wrong length, or with an exponent that is no int in the range."""
    exps = tuple(exps)
    if len(exps) != len(handle.variables) or not all(type(e) is int and 0 <= e < _LIMIT
                                                     for e in exps):
        raise ValueError(f"bad exponent vector {exps} for {handle} (each below 2^{_SLOT - 1})")
    return sum(map(mul, exps, _places(len(exps))))


def _exps(handle: PolyHandle) -> Callable:
    """code -> its exponent vector over handle."""
    shifts = range(0, _SLOT * len(handle.variables), _SLOT)
    return lambda code: tuple([code >> s & _MASK for s in shifts])


def _in_range(handle: PolyHandle, codes: Iterable[int]) -> None:
    """``ValueError`` where an exponent of one of the codes over handle, each
    a sum of two in range, leaves the range: read once off their OR, since
    such a sum sets the top bit of a slot exactly then."""
    if functools.reduce(or_, codes, 0) & _LIMIT * sum(_places(len(handle.variables))):
        raise ValueError(f"exponent past the monomial code's range (below 2^{_SLOT - 1})")


# --------------------------------------------------------------------------
# Polynomials


class Poly(Terms):
    """Sparse multivariate polynomial: monomial code -> nonzero scalar."""

    __slots__ = ()
    _TEXT_REVERSED = True
    # an entry of Poly's own, so that tracing can wrap the polynomial sum alone
    __add__ = Terms.__add__

    @staticmethod
    def _stored_keys(handle: PolyHandle, bare: dict) -> dict:
        """bare keyed by the codes of its exponent vectors."""
        return {_code(handle, k): v for k, v in bare.items()}

    @property
    def terms(self) -> Mapping:
        """The coefficients as a read-only mapping exponent vector ->
        ``Scalar``, each key decoded when it is read."""
        return _ScalarView(self.handle.ring, self._bare, _exps(self.handle),
                           functools.partial(_code, self.handle))

    @classmethod
    def one(cls, handle: PolyHandle) -> Poly:
        return cls._trusted(handle, {0: 1})

    @classmethod
    def monomial(cls, handle: PolyHandle, exps: Sequence[int],
                 coeff: Scalar | None = None) -> Poly:
        x = 1 if coeff is None else handle.ring.unwrap(coeff)
        return cls._reduced(handle, {_code(handle, exps): x})

    @classmethod
    def variable(cls, handle: PolyHandle, name: str) -> Poly:
        if name not in handle.variables:
            raise ValueError(f"unknown variable {name!r} in {handle}")
        places = _places(len(handle.variables))
        return cls._trusted(handle, {places[handle.variables.index(name)]: 1})

    def __mul__(self, other: Poly) -> Poly:
        check_same_handle(self, other)
        out = _key_products(self._bare.items(), other._bare.items())
        _in_range(self.handle, out)
        return Poly._reduced(self.handle, out)

    def substitute(self, images: Mapping[str, Poly]) -> Poly:
        """Evaluate at variable -> polynomial (same handle), exactly."""
        exps = _exps(self.handle)

        def image(m: int):
            term = Poly.one(self.handle)
            for name, e in zip(self.handle.variables, exps(m)):
                if e:
                    img = images.get(name, Poly.variable(self.handle, name))
                    for _ in range(e):
                        term = term * img
            return term._bare.items()
        return self.linear_map(image)

    @staticmethod
    def _key_order(exps: tuple[int, ...]):
        return (sum(exps), exps)  # graded lexicographic

    def _term_str(self, exps: tuple[int, ...], mag: str, negative: bool) -> str:
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(self.handle.variables, exps) if e)
        if not mono:
            return mag
        return mono if mag == "1" else f"{mag}*{mono}"

    def to_json(self) -> list:
        return [{"exponents": list(m), "coeff": str(c)} for m, c in self._ordered_terms()]


# --------------------------------------------------------------------------
# Generic dispatch over handle kinds


def unit(handle: Handle):
    """Multiplicative identity of the algebra named by the handle."""
    if isinstance(handle, PolyHandle):
        return Poly.one(handle)
    from . import freerb, hurwitz as hur
    if isinstance(handle, ShaHandle):
        return freerb.Tensor.one(handle)
    return hur.Series.one(handle)


def zero(handle: Handle):
    if isinstance(handle, PolyHandle):
        return Poly.zero(handle)
    from . import freerb, hurwitz as hur
    if isinstance(handle, ShaHandle):
        return freerb.Tensor.zero(handle)
    return hur.Series.zero(handle)


def alg_eq(x, y) -> bool:
    """Equality of canonical forms; series compare up to the smaller precision."""
    if x.handle is not y.handle and x.handle != y.handle:
        return False
    if isinstance(x.handle, HurwitzHandle):
        n = min(x.precision, y.precision)
        return all(alg_eq(x.values[i], y.values[i]) for i in range(n + 1))
    return x == y


def bare_sum(handle: Handle, pairs: list):
    """The sum of c * v over pairs of a bare value c and v, an element
    of handle or, on a term map, an iterable of (key, bare value) pairs whose
    keys may repeat.  It is built once: per key in a term map, index by index
    in a series, at the smallest precision among the handle's and the vs'."""
    if isinstance(handle, HurwitzHandle):
        from .hurwitz import Series
        n = min([handle.precision] + [v.precision for _, v in pairs])
        return Series(handle, [bare_sum(handle.inner, [(c, v.values[j]) for c, v in pairs])
                               for j in range(n + 1)])
    sums: dict = {}
    for c, v in pairs:
        for key, x in (v._bare.items() if isinstance(v, Terms) else v):
            s = sums.get(key)
            sums[key] = c * x if s is None else s + c * x
    reduce = handle.ring.reduce
    terms = {key: s for key, x in sums.items() if (s := reduce(x))}
    if isinstance(handle, PolyHandle):
        return Poly._trusted(handle, terms)
    from .freerb import Tensor
    return Tensor._trusted(handle, terms)


def _int_terms(side: Sequence) -> tuple[list, int]:
    """Each polynomial's terms with int coefficients, scaled by the lcm D of
    the side's denominators (1 but on the rationals), and D."""
    d = lcm(*{x.denominator for v in side for x in v._bare.values()})
    return [v._bare if d == 1 else {a: x.numerator * (d // x.denominator)
                                    for a, x in v._bare.items()} for v in side], d


def _key_products(left: Iterable, right: Iterable) -> dict:
    """One pair's product term by term on int keys: by key a + b, the sum of
    x * y over the terms (a, x) of left and (b, y) of right (re-iterable)."""
    p: dict = {}
    for a, x in left:
        for b, y in right:
            p[a + b] = p.get(a + b, 0) + x * y
    return p


def _pair_sums(rows: list, lefts: list, rights: list, product: Callable) -> list:
    """Per row, the dict by key of the sum of c * product(lefts[i], rights[l])
    over the row's (c, i, l), each distinct pair's product formed once; a row
    of one pair at c = 1 shares that pair's dict.  The rows formed term by
    term come here: ``freerb``'s on words of letters (``_Kernel.product``),
    and the polynomial kernel's on int keys (``_key_products``)."""
    products = {(i, l): product(lefts[i], rights[l])
                for i, l in dict.fromkeys((i, l) for row in rows for _, i, l in row)}
    out = []
    for row in rows:
        if len(row) == 1 and row[0][0] == 1:
            out.append(products[row[0][1:]])
            continue
        s: dict = {}
        for c, i, l in row:
            for k, x in products[i, l].items():
                s[k] = s.get(k, 0) + c * x
        out.append(s)
    return out


def _newton_rows(powers: list, lefts: list, rights: list) -> list:
    """Rows 0..N of the pair table over packed ints L_0..L_N and R_0..R_N by
    the Newton transform, for the powers P_k = D * w^k, all nonzero: a_k =
    sum_i C(k, i) P_i L_i and b_k alike by Pascal's rule, then row n =
    (sum_k (-1)^(n-k) C(n, k) a_k b_k) // P_n, an exact division.  Row n is
    the int sum of c * L_i * R_l over the table's unreduced (c, i, l)."""
    a, b = ([p * x for p, x in zip(powers, side)] for side in (lefts, rights))
    for s in range(1, len(powers)):
        a[s:], b[s:] = ([x + y for x, y in zip(u[s:], u[s - 1:])] for u in (a, b))
    h = list(map(mul, a, b))
    for s in range(1, len(powers)):
        h[s:] = [x - y for x, y in zip(h[s:], h[s - 1:])]
    return [x // p for x, p in zip(h, powers)]


# The packed side's fixed cost per call, in term pairs: the key sets, norms
# and digit width it needs before it can estimate its own work, and the
# packing.  Fitted on calls timed both ways, best of 5 each: of 1,445
# polynomial calls sampled from one check round, term by term won 1,396; of
# the 47 of one perfbench series round, it won the 27 with entries + pairs
# <= 450 and lost the 20 with >= 910, whose packed estimates without this
# cost were 252 and 364, so the cost lies between 198 and 546.
_PACKING_COST = 400


def row_products(handle: Handle, lefts: Sequence, rights: Sequence, rows: list, den: int,
                 newton: tuple | None = None) -> list:
    """One element per row: the sum of c * lefts[i] * rights[l] / den over the
    row's (c, i, l), for int c.  On term maps an entry whose lefts[i] or
    rights[l] is zero adds nothing and is dropped, and a call with no entry
    left returns zeros and builds no kernel; series operands go on value by
    value, and the next level drops their zeros.

    Polynomials work on their codes and int coefficients, each side's
    coefficients scaled to ints by their lcm of denominators.  The rows then
    run by Kronecker substitution: each code becomes one int key k (base-B
    digits, B above every exponent a product can reach), and each operand
    one int that holds coefficient x in bytes w * k to w * k + w - 1, the
    w-byte digit's top bit above the largest row bound
    sum |c| * |f_i|_1 * |g_l|_1, so a row is a sum of int products whose
    bytes hold every output coefficient as a balanced digit, read once per
    possible output key (a left key plus a right key).  The packed ints grow
    like B^(number of variables) and the reads like the key range, where
    term pairs grow like the numbers of terms, so a call that would take
    more work packed multiplies term by term on the codes instead
    (``_key_products``).  Packing also has a fixed set-up cost,
    ``_PACKING_COST`` term pairs, so a call with no more entries and term
    pairs than that goes term by term before any of it.  Either way a code
    the call forms with an exponent past the range raises ``ValueError``
    (``_in_range``).

    ``newton``, the Newton transform's data (P, S) that ``hurwitz`` caches
    with the pair table at a nonzero weight, marks a call on that table's
    rows 0..N over operands 0..N.  Packed, such rows come from N + 1 big
    products (``_newton_rows``), and the digit width from the bound max_n
    sum_i |f_i|_1 * S[n][i] * max_l |g_l|_1 in O(N^2): only the rows' final
    coefficients must fit, as evaluation at the base commutes with + and *."""
    if isinstance(handle, HurwitzHandle):
        from . import hurwitz
        return hurwitz.row_products(handle, lefts, rights, rows, den)
    zl = {i for i, v in enumerate(lefts) if not v._bare}
    zr = {l for l, v in enumerate(rights) if not v._bare}
    if zl or zr:
        rows = [[e for e in row if e[1] not in zl and e[2] not in zr] for row in rows]
    if not any(rows):
        return [zero(handle) for _ in rows]
    if isinstance(handle, ShaHandle):
        from . import freerb
        return freerb.row_products(handle, lefts, rights, rows, den)
    (lt, dl), (rt, dr) = _int_terms(lefts), _int_terms(rights)
    reduce, d = handle.ring.reduce, den * dl * dr
    # The work of each way, in units of one term pair multiplied term by
    # term, which costs about as much as reading one digit (timed per call
    # on the polynomial calls of check and series): term by term, one per
    # term pair and one per entry; packed, the fixed set-up, one read per
    # row and possible key and 1/256 per product of two 64-bit words in
    # each row entry.  The packed side is estimated only where it can win.
    # Given ``newton``, row n pairs i with l = n - i..n, so the term pairs
    # are counted in O(N) from the prefix sums r of the right term counts
    # and rr of r, exactly but on Z/m, where the pairs whose c vanishes
    # count too; and the packed estimate still charges a big product per
    # entry, where the transform forms N + 1, so it over-counts them.
    entries = sum(map(len, rows))
    if newton:
        rr = list(accumulate(accumulate(map(len, rt), initial=0), initial=0))
        top = len(rows) + 1
        work = entries + sum([len(t) * (rr[top] - rr[i + 1] - rr[top - 1 - i])
                              for i, t in enumerate(lt)])
    else:
        work = entries + sum([len(lt[i]) * len(rt[l]) for row in rows for _, i, l in row])
    if work > _PACKING_COST:
        exps = _exps(handle)
        lx, rx = ({a: exps(a) for a in set(chain.from_iterable(side))} for side in (lt, rt))
        base = 1 + sum(max([e for es in x.values() for e in es], default=0) for x in (lx, rx))
        places = [base ** j for j in range(len(handle.variables))]
        lk, rk = ({a: sum(map(mul, es, places)) for a, es in x.items()} for x in (lx, rx))
        keys = {k + l: a + b for a, k in lk.items() for b, l in rk.items()}  # key -> code
        ln, rn = ([sum(map(abs, t.values())) for t in side] for side in (lt, rt))
        if newton:
            bound = max(rn) * max([sum(map(mul, ln, s)) for s in newton[1]])
        else:
            bound = max([sum([abs(c) * ln[i] * rn[l] for c, i, l in row]) for row in rows],
                        default=0)
        w = 1 + bound.bit_length() // 8
        lw, rw = (w * max(x.values(), default=0) // 8 + 1 for x in (lk, rk))
        packed = _PACKING_COST + len(rows) * len(keys) + entries * (lw * rw // 256)
    if work <= _PACKING_COST or packed > work:
        sums = _pair_sums(rows, [t.items() for t in lt], [t.items() for t in rt], _key_products)
        _in_range(handle, chain.from_iterable(sums))
        return [Poly._trusted(handle, {k: v for k, x in s.items() if (v := reduce(
            x // d if x % d == 0 else Fraction(x, d)))})
                for s in sums]
    _in_range(handle, keys.values())
    packed_l, packed_r = ([sum([x << 8 * w * kx[a] for a, x in t.items()]) for t in side]
                          for side, kx in ((lt, lk), (rt, rk)))
    size = w * (max(lk.values(), default=0) + max(rk.values(), default=0) + 1)  # bytes of a row
    offset = int.from_bytes((bytes(w - 1) + b"\x80") * (size // w), "little")  # half per digit
    half = 1 << 8 * w - 1
    reads = [(w * k, w * k + w, a) for k, a in keys.items()]
    if newton:
        sums = _newton_rows(newton[0], packed_l, packed_r)
    else:
        sums = [sum([c * packed_l[i] * packed_r[l] for c, i, l in row]) for row in rows]
    m, out = handle.ring.modulus, []
    for h in sums:
        terms = {}
        if h:  # the bare value x / d, which only Z/m reduces
            buf = (h + offset).to_bytes(size, "little")
            terms = {a: v for at, end, a in reads
                     if (x := int.from_bytes(buf[at:end], "little") - half)
                     and (v := x % m if m else x if d == 1 else
                          x // d if x % d == 0 else Fraction(x, d))}
        out.append(Poly._trusted(handle, terms))
    return out


# --------------------------------------------------------------------------
# Named linear maps and operator structures


@dataclass(frozen=True)
class Hom:
    """Map between handles, as a checked callable.

    Algebra homomorphisms and (co)structure maps are Homs, and so are
    Rota-Baxter operators and derivations, which have src == dst.  The laws
    a map must obey, such as the Rota-Baxter identity
    P(x)P(y) = P(xP(y)) + P(yP(x)) + w*P(xy) or the weighted Leibniz rule
    d(xy) = d(x)y + xd(y) + w*d(x)d(y) with d(1) = 0 (w the handle weight),
    are enforced by the law suites, not by construction.
    """

    src: Handle
    dst: Handle
    fn: Callable
    name: str = ""

    def __call__(self, x):
        if x.handle is not self.src and x.handle != self.src:
            raise HandleMismatchError(f"{self.name or 'hom'} expects {self.src}, got {x.handle}")
        return self.fn(x)

    @staticmethod
    def identity(handle: Handle) -> Hom:
        return Hom(handle, handle, lambda x: x, name="id")

    def power(self, x, n: int):
        """Apply an endomorphism n times."""
        for _ in range(n):
            x = self(x)
        return x


# --------------------------------------------------------------------------
# Concrete operators on polynomial carriers


def _difference_image(handle: PolyHandle, var: str, w) -> Callable:
    """The monomial image x^n -> sum_{k<n} C(n,k) w^(n-1-k) x^k in var, for
    a bare weight value w: the difference quotient (f(x+w) - f(x))/w, which
    needs no division, and at w = 0 the formal derivative n x^(n-1)."""
    if var not in handle.variables:
        raise ValueError(f"unknown variable {var!r} in {handle}")
    s = _SLOT * handle.variables.index(var)

    def image(m: int) -> list:
        n = m >> s & _MASK
        rest = m - (n << s)
        low = 0 if w else max(n - 1, 0)  # at w = 0 only k = n - 1 survives
        return [(rest + (k << s), comb(n, k) * w ** (n - 1 - k)) for k in range(low, n)]
    return image


def poly_derivative(f: Poly, var: str) -> Poly:
    """Formal partial derivative; a weight-0 derivation."""
    return f.linear_map(_difference_image(f.handle, var, 0))


def derivative_on(handle: PolyHandle, var: str) -> Hom:
    return Hom(handle, handle, lambda f: poly_derivative(f, var), name=f"d/d{var}")


def difference_quotient(f: Poly, var: str) -> Poly:
    """(f(x + w) - f(x)) / w for the handle weight w, in closed form, so it is
    defined over every ring.

    Requires a nonzero weight; at weight 0 use ``poly_derivative``.
    """
    lam = f.handle.weight
    if lam.is_zero:
        raise WeightError("difference quotient needs a nonzero weight")
    return f.linear_map(_difference_image(f.handle, var, lam.value))


def difference_quotient_on(handle: PolyHandle, var: str) -> Hom:
    return Hom(handle, handle, lambda f: difference_quotient(f, var),
               name=f"diffq({var})")


def poly_integrate(f: Poly, var: str) -> Poly:
    """Antiderivative in ``var`` with zero constant term; weight-0 operator.

    Needs rational coefficients for the 1/(n+1) scaling.
    """
    handle = f.handle
    if not handle.ring.is_rational:
        raise RingError("integration needs the rational coefficient ring")
    if var not in handle.variables:
        raise ValueError(f"unknown variable {var!r} in {handle}")
    s = _SLOT * handle.variables.index(var)
    _in_range(handle, [m + (1 << s) for m in f._bare])

    def image(m: int):
        return ((m + (1 << s), Fraction(1, (m >> s & _MASK) + 1)),)
    return f.linear_map(image)


def integration_on(handle: PolyHandle, var: str) -> Hom:
    return Hom(handle, handle, lambda f: poly_integrate(f, var), name=f"int({var})")


def exp_span_rb(f: Poly) -> Poly:
    """Decay integration e_k -> -(1/k) e_k on the span of the modes
    e_k = exp(-kt), k >= 1, extended linearly; weight 0.  The modes are the
    powers E^k of E = exp(-t), so f is a polynomial in one variable E with no
    constant term; a constant term raises ``ValueError``."""
    from_int, exps = f.handle.ring.from_int, _exps(f.handle)

    def image(m: int):
        k, = exps(m)
        if k == 0:
            raise ValueError("decay modes are indexed by k >= 1")
        return ((m, -from_int(k).inverse().value),)
    return f.linear_map(image)


def scaled_identity(x):
    """Multiply by the negated handle weight; a weight-w operator on any carrier."""
    return x.scale(-x.handle.weight)


def scaled_identity_on(handle: Handle) -> Hom:
    return Hom(handle, handle, scaled_identity, name="-w*id")


def subst_hom(handle: PolyHandle, images: Mapping[str, Poly]) -> Hom:
    """Substitution endomorphism variable -> polynomial on one handle."""
    for name, img in images.items():
        if name not in handle.variables:
            raise ValueError(f"unknown variable {name!r} in {handle}")
        if img.handle != handle:
            raise HandleMismatchError("substitution images must share the handle")
    frozen = dict(images)
    label = ",".join(f"{k}->{v}" for k, v in sorted(frozen.items()))
    return Hom(handle, handle, lambda f: f.substitute(frozen), name=f"subst({label})")


# --------------------------------------------------------------------------
# Deterministic random elements


@dataclass(frozen=True)
class SampleBudget:
    """Size bounds for random elements; identical (budget, seed) pins the output."""

    max_degree: int = 2
    max_terms: int = 3
    coeff_lo: int = -3
    coeff_hi: int = 3
    max_tensor_len: int = 3
    precision: int = 4


def _random_monomial(handle: PolyHandle, budget: SampleBudget, rng: random.Random) -> int:
    total = rng.randint(0, budget.max_degree)
    places, code = _places(len(handle.variables)), 0
    for _ in range(total):
        if not places:
            break
        code += places[rng.randrange(len(places))]
    return code


def random_element(handle: Handle, budget: SampleBudget, seed):
    """Pseudo-random element within the budget; pure in (handle, budget, seed)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if isinstance(handle, PolyHandle):
        return bare_sum(handle, [(1, [(_random_monomial(handle, budget, rng),
                                       rng.randint(budget.coeff_lo, budget.coeff_hi))
                                      for _ in range(rng.randint(0, budget.max_terms))])])
    from . import freerb, hurwitz as hur
    if isinstance(handle, ShaHandle):
        pairs: list = []
        for _ in range(rng.randint(0, budget.max_terms)):
            length = rng.randint(1, budget.max_tensor_len)
            factors = tuple(random_basis_factor(handle.inner, budget, rng)
                            for _ in range(length))
            c = rng.randint(budget.coeff_lo, budget.coeff_hi)
            pairs.append((c, freerb.pure_tensor_terms(handle, factors)))
        return bare_sum(handle, pairs)
    small = replace(budget, max_terms=2)
    values = tuple(random_element(handle.inner, small, rng) for _ in range(budget.precision + 1))
    return hur.Series(handle, values)


def random_basis_factor(handle: Handle, budget: SampleBudget, rng: random.Random):
    """Random tensor factor: a basis monomial where the carrier has a basis,
    otherwise (sequence carriers) a small random element."""
    if isinstance(handle, PolyHandle):
        return Poly._trusted(handle, {_random_monomial(handle, budget, rng): 1})
    from . import freerb
    if isinstance(handle, ShaHandle):
        length = rng.randint(1, budget.max_tensor_len)
        factors = tuple(random_basis_factor(handle.inner, budget, rng)
                        for _ in range(length))
        return freerb.Tensor.from_factors(handle, factors)
    return random_element(handle, budget, rng)  # its values take two terms at most


def random_subst_hom(handle: PolyHandle, budget: SampleBudget, rng: random.Random) -> Hom:
    """Random substitution homomorphism on a polynomial handle."""
    images = {name: random_element(handle, budget, rng) for name in handle.variables}
    return subst_hom(handle, images)
