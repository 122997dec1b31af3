"""Free commutative Rota-Baxter carrier on an algebra: tensors and products.

Elements of ``sha(A)`` are finite linear combinations of pure tensors
(tuples of at least one factor from A).  The product is the mixable shuffle
of Guo-Keigher: for pure tensors a0 # a' and b0 # b',

    (a0 # a') * (b0 # b') = a0*b0 # (a' ⧢ b'),

where a word of the tail shuffle is a lattice path from (0, 0) to
(|a'|, |b'|) whose steps take the next letter of a', of b', or (a diagonal
step, with the handle weight as its coefficient) their product in A, as in
Hoffman's quasi-shuffles.  The weighted merge is what distinguishes this
from the plain shuffle product.  The kernel, ``_Kernel``, looks each merge
up in one table of letter products.  It walks the lattice of every pair of
nonempty tails a cell at a time (``_shuffle_tails``): cell (i, j) holds
the prefixes of all paths through it, one list per merge count, and
extends each list into the up to three cells its steps reach, or finishes
its words where a step leaves the interior, storing each (added to an
equal word unless ``_Kernel.product`` rules that out).  With the weight
p/q, a word with d merges gets p^d * q^(top - d), top the most merges of
any pair, so every word of a product shares the denominator q^top and its
coefficients are reduced once per distinct value.
``row_products`` drives the kernel for every tensor carrier, on one pair
in ``Tensor.__mul__`` and on all values of two series in a Hurwitz
product, forming each distinct operand pair's product once
(``algebra._pair_sums``).  Both reach it through ``algebra.row_products``,
which first drops the entries with a zero operand.

Keys: a tensor keys each term by the tuple of its factors' basis keys
(Guo-Keigher: a basis of the n-th tensor power of A is the tuples of basis
elements of A).  Over a polynomial algebra that is the factors' monomial
codes (``algebra``'s format), taken as they stand; over a tensor carrier,
each factor's own key; a series carrier has no basis, so a series factor
is its own key.  The ``.terms`` view and the maps that call a ``Hom`` on
factors turn a basis key into a one-term monic ``Poly`` or ``Tensor``
factor (``_key_factors``) without decoding it.  Over polynomials the
kernel's letters are the codes and a merge adds them, so its output words
are the product's keys; over other carriers its letters are the factor
elements and a merge multiplies them, and each output word is expanded
back into keys.

Canonical form: factors are expanded into basis keys wherever A has a
basis; series factors are kept as canonical series values, and a zero one
drops its term.  Coefficients are collected on equal keys and zeros
dropped, so equality is syntactic.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul

from . import algebra
from .algebra import (Handle, HandleMismatchError, Hom, HurwitzHandle, Poly, PolyHandle,
                      ShaHandle, Terms, _ScalarView, check_same_handle)
from .coeffs import Ring, RingError, Scalar


def _merge_weight(handle: ShaHandle) -> Scalar:
    """Coefficient of each merge of two tail letters in the product."""
    return handle.weight


def _basis_terms(f) -> Iterable:
    """The (basis key, bare coefficient) pairs of a tensor factor: a term
    map's own terms; a series has no basis, so a nonzero one is its own key
    and a zero one has no terms."""
    if isinstance(f, Terms):
        return f._bare.items()
    return () if f.is_zero else ((f, 1),)


def _key_factors(handle: ShaHandle) -> Callable:
    """A term key of handle's tensors -> its tuple of factor elements: each
    basis key becomes a monic one-term ``Poly`` or ``Tensor``, built once per
    call of this function and then shared; a series factor is its own key."""
    inner = handle.inner
    if isinstance(inner, HurwitzHandle):
        return tuple
    kind, factors = Poly if isinstance(inner, PolyHandle) else Tensor, {}

    def factor(key) -> Terms:
        f = factors.get(key)
        if f is None:
            f = factors[key] = kind._trusted(inner, {key: 1})
        return f
    return lambda t: tuple(map(factor, t))


def _factors_key(handle: ShaHandle) -> Callable:
    """The inverse of ``_key_factors``: a tuple of monic one-term factors (or
    nonzero series) -> its term key; ``ValueError`` on a tuple that no term
    of handle can have."""
    def key(factors) -> tuple:
        ((t, c),) = pure_tensor_terms(handle, factors)
        if c != 1:
            raise ValueError(f"not a key of {handle}: {factors}")
        return t
    return key


def _unit_key(inner: Handle):
    """The basis key of the inner unit: the code 0 over polynomials."""
    ((key, _),) = _basis_terms(algebra.unit(inner))
    return key


# --------------------------------------------------------------------------
# The mixable-shuffle kernel

def _shuffle_tails(head, u: tuple, v: tuple, merged: dict, ks: list, out: dict,
                   bulk: bool) -> None:
    """Add the mixable shuffle of two nonempty words of letters, each led by
    the letter head, into out (word -> coefficient): a word with d merges
    adds ks[d], and none has len(ks) merges or more.  With bulk, out holds
    none of the words and the letters of u and v and their merges are
    pairwise distinct (``_distinct``), so each finished word is stored as it
    stands; without it, each is added to any equal word in out.

    A word is a lattice path from (0, 0) to (len(u), len(v)) whose steps take
    u's next letter, or v's, or (diagonally, one merge) their product
    ``merged[x, y]``.  The interior cell (i, j), i < len(u) and j < len(v),
    holds the prefixes of the paths through it, one list per merge count
    (which fixes their length).  Row by row, every list of a cell takes each
    step at once: into the next cell, or, out of the interior, to finished
    words that end with the rest of the other word.  So the last row and
    column are never built, and a cell is dropped as soon as it is taken.
    """
    a, b, top = len(u), len(v), len(ks) - 1
    row = {0: {0: [(head,)]}}  # column -> merge count -> prefixes
    ends = []  # a cell's (prefixes, the rest of their words, coefficient)
    for i, x in enumerate(u):
        below = {} if i + 1 < a else None
        for j, y in enumerate(v):
            xs, ys, zs = (x,), (y,), (merged[x, y],) if top else ()
            for d, g in row.pop(j).items():
                if below is None:
                    ends.append((g, xs + v[j:], ks[d]))
                else:
                    below.setdefault(j, {}).setdefault(d, []).extend(map(add, g, repeat(xs)))
                if j + 1 < b:
                    row.setdefault(j + 1, {}).setdefault(d, []).extend(map(add, g, repeat(ys)))
                else:
                    ends.append((g, ys + u[i:], ks[d]))
                if d < top:
                    if below is None:
                        ends.append((g, zs + v[j + 1:], ks[d + 1]))
                    elif j + 1 < b:
                        below.setdefault(j + 1, {}).setdefault(d + 1, []).extend(
                            map(add, g, repeat(zs)))
                    else:
                        ends.append((g, zs + u[i + 1:], ks[d + 1]))
            for g, rest, k in ends:
                if bulk:
                    for w in g:
                        out[w + rest] = k
                    continue
                for w in g:
                    w += rest
                    s = out.get(w)
                    out[w] = k if s is None else s + k
            ends.clear()
        row = below


def _distinct(u: tuple, v: tuple, merged: dict, merges: bool) -> bool:
    """Whether the letters of u and v, and with merges their products, are
    pairwise distinct, so that every path of their shuffle spells its own
    word (the head leads them all)."""
    letters = {*u, *v}
    if merges and len(letters) == len(u) + len(v):
        letters.update([merged[x, y] for x in u for y in v])
    return len(letters) == len(u) + len(v) + merges * len(u) * len(v)


class _Kernel:
    """The mixable-shuffle kernel over a fixed set of left and right tensor
    operands.

    Over a polynomial carrier the letters are the monomial codes of the
    operands' keys, and the product of two letters (``times``) is their
    sum, so output words are tensor keys.  Over other carriers the letters
    are the factor elements that the keys decode to, and ``times`` is
    their own product.

    All products of the operands share one table of merges (every left by
    every right tail letter) and one table of head products; a product adds
    its words into one flat dict.  Every word has one common denominator:
    with the weight p/q (p on z and Z/m, where q = 1) and top the most
    merges any pair of operands can make, a word of a pair with coefficient
    c and d merges gets c * p^d * q^(top - d) over q^top, reduced mod m on
    Z/m.  ``powers`` holds p^d * q^(top - d) and ends before the first that
    vanishes mod m, so a pair builds no word that its weight makes zero.
    ``whole`` says whether every operand coefficient is an int, so that
    every word's value is one too (rows multiply by ints; a whole Fraction
    such as 1/2 * 2 is not an int).
    """

    def __init__(self, handle: ShaHandle, lefts: list, rights: list):
        ring = self.ring = handle.ring
        self.m = m = ring.modulus
        lam, q = ring.unwrap(_merge_weight(handle)), 1
        if type(lam) is Fraction:
            lam, q = lam.numerator, lam.denominator
        if isinstance(handle.inner, PolyHandle):  # letters are codes: a merge adds them
            self.times = add
            self.lefts, self.rights = ([[(t[0], t[1:], c) for t, c in u._bare.items()]
                                        for u in side] for side in (lefts, rights))
        else:  # letters are factor elements: a merge multiplies them
            self.times, spell = mul, _key_factors(handle)
            self.lefts, self.rights = ([[(w[0], w[1:], c) for t, c in u._bare.items()
                                         for w in (spell(t),)] for u in side]
                                       for side in (lefts, rights))
        top = min(max([len(u) for items in side for _, u, _ in items], default=0)
                  for side in (self.lefts, self.rights))
        self.whole = all(type(c) is int for side in (self.lefts, self.rights)
                         for items in side for _, _, c in items)
        self.scale, self.powers = q ** top, []
        for d in range(top + 1):
            t = lam ** d * q ** (top - d) % m if m else lam ** d * q ** (top - d)
            if not t:
                break
            self.powers.append(t)
        self.merged: dict = {}
        if len(self.powers) > 1:
            ys = {y for items in self.rights for _, v, _ in items for y in v}
            for x in {x for items in self.lefts for _, u, _ in items for x in u}:
                for y in ys:
                    self.merged[x, y] = self.times(x, y)
        self.heads: dict = {}  # (a0, b0) -> head letter

    def product(self, left: list, right: list) -> dict:
        """The product of two spelled operands (of ``lefts`` and ``rights``),
        as word (head letter, then tail letters) -> bare coefficient over
        the common denominator.  An empty tail adds one word here; any other
        pair goes by ``_shuffle_tails``, in bulk when out is still empty, the
        letters are distinct and both tails have two or more (n > 2: on one
        row or column, bulk would save less than ``_distinct`` costs)."""
        heads, times, merged, powers, m = self.heads, self.times, self.merged, self.powers, self.m
        out: dict = {}
        for a0, u, ca in left:
            for b0, v, cb in right:
                head = heads.get((a0, b0))
                if head is None:
                    head = heads[a0, b0] = times(a0, b0)
                c = ca * cb
                if not (u and v):  # one word, with no merge
                    k = c * powers[0] % m if m else c * powers[0]
                    if k:
                        w = (head,) + u + v
                        s = out.get(w)
                        out[w] = k if s is None else s + k
                    continue
                n = min(len(u), len(v)) + 1
                ks = ([k for t in powers[:n] if (k := c * t % m)] if m
                      else [c * t for t in powers[:n]])
                if ks:
                    bulk = not out and n > 2 and _distinct(u, v, merged, len(ks) > 1)
                    _shuffle_tails(head, u, v, merged, ks, out, bulk)
        return out

    def terms(self, words: dict, den: int) -> dict:
        """The words with canonical coefficients, each divided by the common
        denominator den * q^top, zeros dropped; words itself when its
        coefficients are canonical ints."""
        reduce, den = self.ring.reduce, den * self.scale
        canon = {c: reduce(Fraction(c, den) if den != 1 else c) for c in set(words.values())}
        if not all(canon.values()):
            return {w: s for w, c in words.items() if (s := canon[c])}
        if den == 1 and self.whole and all(s == c for c, s in canon.items()):
            return words
        return {w: canon[c] for w, c in words.items()}


def row_products(handle: ShaHandle, lefts: list, rights: list, rows: list, den: int) -> list:
    """One tensor per row: the sum of c * lefts[i] * rights[l] / den over the
    row's (c, i, l), all on one ``_Kernel`` through ``algebra._pair_sums``.

    Over a polynomial carrier output words are monomial codes, which are
    canonical as they stand, and distinct words are distinct terms; a head
    or merge past the code's range raises ``ValueError``.  Over other
    carriers output words are words of factor elements, which
    ``pure_tensor_terms`` expands into keys, dropping every word with a
    zero factor.
    """
    kernel = _Kernel(handle, lefts, rights)
    sums = algebra._pair_sums(rows, kernel.lefts, kernel.rights, kernel.product)
    if kernel.times is add:
        algebra._in_range(handle.inner, chain(kernel.heads.values(), kernel.merged.values()))
        return [Tensor._trusted(handle, kernel.terms(words, den)) for words in sums]
    return [algebra.bare_sum(handle, [(c, pure_tensor_terms(handle, w))
                                      for w, c in kernel.terms(words, den).items()])
            for words in sums]


def pure_tensor_terms(handle: ShaHandle, factors: tuple) -> list:
    """The (canonical key, bare coefficient) pairs of the pure tensor with
    the given (at least one) arbitrary factors, expanded multilinearly into
    tuples of the factors' basis keys (``_basis_terms``); no two pairs share
    a key.  A coefficient is a product of canonical values, not yet reduced
    (it may be zero on Z/m)."""
    for f in factors:
        if f.handle != handle.inner:
            raise HandleMismatchError(f"factor over {f.handle}, expected {handle.inner}")
    head, *rest = map(_basis_terms, factors)
    expanded = [((m,), c) for m, c in head]
    for part in rest:
        expanded = [(t + (m,), c * ci) for t, c in expanded for m, ci in part]
    return expanded


class Tensor(Terms):
    """Linear combination of pure tensors over the inner algebra.  A term's
    key is the tuple of its factors' basis keys, which ``.terms`` shows as
    tuples of factors: one-term monic ``Poly`` or ``Tensor`` factors, or
    series.  The constructor takes factor tuples on a ``sha(...)`` handle
    and expands them into keys, as ``from_factors`` does."""

    __slots__ = ()

    @staticmethod
    def _stored_keys(handle: ShaHandle, bare: dict) -> dict:
        """The terms of the sum of c times the pure tensor of key's factors
        over bare, keyed by their factors' basis keys."""
        if not isinstance(handle, ShaHandle):
            raise HandleMismatchError(f"tensors live on sha(...) handles, not {handle}")
        return algebra.bare_sum(handle, [(c, pure_tensor_terms(handle, k))
                                         for k, c in bare.items()])._bare

    @property
    def terms(self) -> Mapping:
        """The coefficients as a read-only mapping factor tuple -> ``Scalar``;
        each key is decoded into factors when it is read."""
        return _ScalarView(self.handle.ring, self._bare, _key_factors(self.handle),
                           _factors_key(self.handle))

    @classmethod
    def one(cls, handle: ShaHandle) -> Tensor:
        return cls._trusted(handle, {(_unit_key(handle.inner),): 1})

    @classmethod
    def from_factors(cls, handle: ShaHandle, factors: tuple,
                     coeff: Scalar | None = None) -> Tensor:
        """Pure tensor with arbitrary factors, normalized to canonical form."""
        x = 1 if coeff is None else handle.ring.unwrap(coeff)
        if not factors:
            raise ValueError("pure tensors have at least one factor")
        return cls._reduced(handle, {t: x * c for t, c in pure_tensor_terms(handle, tuple(factors))})

    def __mul__(self, other: Tensor) -> Tensor:
        """The mixable-shuffle product, extended bilinearly from pure tensors:
        one row of one pair of ``algebra.row_products``."""
        check_same_handle(self, other)
        return algebra.row_products(self.handle, [self], [other], [[(1, 0, 0)]], 1)[0]

    def lengths(self) -> dict[int, int]:
        """Term counts grouped by tensor length."""
        out: dict[int, int] = {}
        for t in self._bare:
            out[len(t)] = out.get(len(t), 0) + 1
        return out

    @staticmethod
    def _key_order(t: tuple):
        return (len(t), tuple(str(f) for f in t))

    def _term_str(self, t: tuple, mag: str, negative: bool) -> str:
        """Factors joined by '#', parenthesized unless the tensor is one plain
        term ('#' binds loosest in the expression grammar); inner-tensor
        factors are wrapped in eta(...) to mark their level."""
        body = " # ".join(f"eta({f})" if isinstance(f, Tensor) else str(f) for f in t)
        plain = mag == "1"
        if len(t) > 1 and not (plain and len(self._bare) == 1 and not negative):
            body = f"({body})"
        return body if plain else f"{mag}*{body}"

    def to_json(self) -> list:
        return [{"coeff": str(c), "factors": [f.to_json() for f in t]}
                for t, c in self._ordered_terms()]


# --------------------------------------------------------------------------
# Structure maps


def eta(a, handle: ShaHandle | None = None) -> Tensor:
    """Embed an algebra element as a length-1 tensor."""
    if handle is None:
        handle = ShaHandle(a.handle)
    elif handle.inner != a.handle:
        raise HandleMismatchError(f"cannot embed {a.handle} into {handle}")
    return Tensor.from_factors(handle, (a,))


def eta_hom(inner: Handle) -> Hom:
    h = ShaHandle(inner)
    return Hom(inner, h, lambda a: eta(a, h), name="eta")


def rb_prepend(u: Tensor) -> Tensor:
    """The free Rota-Baxter operator: prepend the inner unit to every tensor."""
    one_a = _unit_key(u.handle.inner)
    return Tensor._trusted(u.handle, {(one_a,) + t: c for t, c in u._bare.items()})


def free_rb_operator(handle: ShaHandle) -> Hom:
    return Hom(handle, handle, rb_prepend, name="P")


def sha_map(f: Hom, u: Tensor) -> Tensor:
    """Apply a homomorphism factorwise; the functor action on tensors."""
    if u.handle.inner != f.src:
        raise HandleMismatchError(f"map from {f.src} cannot act on {u.handle}")
    target, factors = ShaHandle(f.dst), _key_factors(u.handle)
    return u.linear_map(lambda t: pure_tensor_terms(target, tuple(map(f, factors(t)))), target)


def sha_hom(f: Hom) -> Hom:
    return Hom(ShaHandle(f.src), ShaHandle(f.dst), lambda u: sha_map(f, u),
               name=f"sha({f.name})")


def induced_rb_hom(phi: Hom, rb: Hom, u: Tensor):
    """Evaluate a tensor in a Rota-Baxter algebra through phi.

    A pure tensor (a_0, ..., a_n) maps to phi(a_0) * P(phi(a_1) * P(... *
    P(phi(a_n)) ...)), extended linearly; this is the homomorphism the
    universal property induces from phi.
    """
    if phi.src != u.handle.inner:
        raise HandleMismatchError(f"phi maps {phi.src}, tensor is over {u.handle.inner}")
    if rb.src != phi.dst:
        raise HandleMismatchError("operator must live on phi's target")
    dst, factors = phi.dst, _key_factors(u.handle)
    if dst.ring != u.handle.ring:
        raise RingError(f"ring mismatch: {dst.ring} vs {u.handle.ring}")
    pairs = []
    for t, c in u._bare.items():
        t = factors(t)
        v = phi(t[-1])
        for x in reversed(t[:-1]):
            v = phi(x) * rb(v)
        if v.handle is not dst and v.handle != dst:
            raise HandleMismatchError(f"{phi.name or 'phi'} gave {v.handle}, expected {dst}")
        pairs.append((c, v))
    return algebra.bare_sum(dst, pairs)


def induced_hom(phi: Hom, rb: Hom) -> Hom:
    return Hom(ShaHandle(phi.src), phi.dst,
               lambda u: induced_rb_hom(phi, rb, u), name=f"induced({phi.name})")


def counit_eval(u: Tensor, rb: Hom):
    """Evaluate a tensor over (R, P) back into R: nested operator application."""
    return induced_rb_hom(Hom.identity(u.handle.inner), rb, u)


def structure_hom(rb: Hom) -> Hom:
    """The evaluation structure sha(R) -> R attached to a Rota-Baxter operator."""
    return Hom(ShaHandle(rb.src), rb.src,
               lambda u: counit_eval(u, rb), name=f"eval({rb.name})")


def mu(u: Tensor) -> Tensor:
    """Flatten one tensor level: evaluation with the free operator inside."""
    inner = u.handle.inner
    if not isinstance(inner, ShaHandle):
        raise HandleMismatchError(f"flattening needs a doubly-tensored handle, got {u.handle}")
    return counit_eval(u, free_rb_operator(inner))


def mu_hom(inner: ShaHandle) -> Hom:
    return Hom(ShaHandle(inner), inner, mu, name="mu")


# --------------------------------------------------------------------------
# The free derivation


def _free_derivation_terms(factors: tuple, d: Hom, lam: Scalar) -> list:
    """Raw (weight, factors) terms of the free derivation on one pure tensor.

    Degree one: differentiate the only factor.  Longer tensors: differentiate
    the head, or merge the first two factors, or do both at weight lam.
    """
    one = lam.ring.one()
    x0, rest = factors[0], factors[1:]
    dx0 = d(x0)
    if not rest:
        return [(one, (dx0,))]
    rest2 = rest[1:]
    out = [(one, (dx0,) + rest),
           (one, (x0 * rest[0],) + rest2)]
    if not lam.is_zero:
        out.append((lam, (dx0 * rest[0],) + rest2))
    return out


def free_derivation_apply(u: Tensor, d: Hom) -> Tensor:
    """The derivation on sha(A) induced by a derivation d on A."""
    if d.src != u.handle.inner:
        raise HandleMismatchError(f"derivation on {d.src} cannot act on {u.handle}")
    lam, unwrap, factors = u.handle.weight, u.handle.ring.unwrap, _key_factors(u.handle)
    return u.linear_map(lambda t: [(k, unwrap(w) * v)
                                   for w, fs in _free_derivation_terms(factors(t), d, lam)
                                   for k, v in pure_tensor_terms(u.handle, fs)])


def free_derivation(handle: ShaHandle, d: Hom) -> Hom:
    return Hom(handle, handle, lambda u: free_derivation_apply(u, d),
               name=f"free({d.name})")


# --------------------------------------------------------------------------
# Distinct-symbol products and the brute-force oracle for their weight-0 stratum


def distinct_symbol_factors(m: int, n: int, ring: Ring,
                            lam: Scalar) -> tuple[ShaHandle, tuple, tuple]:
    """Factors a0..am and b0..bn, each a variable of poly(a0..am, b0..bn) at
    weight lam, and the tensor handle over that algebra.  No two words of a
    product of such pure tensors coincide, so its stratum sizes are exact
    combinatorial numbers."""
    names = tuple(f"a{k}" for k in range(m + 1)) + tuple(f"b{k}" for k in range(n + 1))
    h = algebra.poly_handle(names, ring, lam)
    return (ShaHandle(h), tuple(Poly.variable(h, f"a{k}") for k in range(m + 1)),
            tuple(Poly.variable(h, f"b{k}") for k in range(n + 1)))


def interleavings(xs: tuple, ys: tuple) -> Iterator[tuple]:
    """All order-preserving interleavings of two tuples."""
    if not xs:
        yield ys
        return
    if not ys:
        yield xs
        return
    for rest in interleavings(xs[1:], ys):
        yield (xs[0],) + rest
    for rest in interleavings(xs, ys[1:]):
        yield (ys[0],) + rest
