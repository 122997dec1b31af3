"""The distributive map from tensors-of-series to series-of-tensors.

For an inner algebra A, an element of ``sha(hur(A))`` is a combination of
tensors whose factors are series; the map sends it into ``hur(sha(A))``,
a series whose values are tensors.  On a length-1 tensor [f] the output at
index n is the embedded value [f(n)]; longer tensors evaluate head-first:

    [f_0 | t]  ->  beta([f_0]) * lift(beta(t))

with the product taken in the series-of-tensors algebra and ``lift`` the
Rota-Baxter lift of the prepend operator: beta is the homomorphism that the
universal property of the free Rota-Baxter algebra induces from the
pointwise embedding, and ``freerb.induced_rb_hom`` evaluates it so.  Over
polynomial inners ``beta`` has one fast case, the bare pass: the left
factor's values are length-1 tensors [a], and [a] * (w_0 # w') = a*w_0 # w'
has no tail to shuffle, so the recursion runs on bare dicts of words on
ints, each value a pair-table sum of head products, and builds its output
once.  Output precision is the minimum factor precision, capped at the
handle's working precision.

Each carrier's canonical operators resolve here, where the tensor and series
layers meet: ``canonical_rb`` and ``canonical_derivation`` pick them from the
handle alone, for the expression evaluator and the law suites.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate
from operator import or_

from . import algebra, freerb, hurwitz
from .algebra import Handle, HandleMismatchError, Hom, HurwitzHandle, PolyHandle, ShaHandle
from .freerb import Tensor
from .hurwitz import Series


def canonical_rb(handle: Handle) -> Hom:
    """The Rota-Baxter operator a carrier carries at its weight: the prepend
    on tensors, the lift of the inner one on series, and on polynomials
    integration in the first variable over q at weight 0, else the scaled
    identity."""
    if isinstance(handle, ShaHandle):
        return freerb.free_rb_operator(handle)
    if isinstance(handle, HurwitzHandle):
        return hurwitz.lifted_rb(handle, canonical_rb(handle.inner))
    if handle.ring.is_rational and handle.weight.is_zero:
        return algebra.integration_on(handle, handle.variables[0])
    return algebra.scaled_identity_on(handle)


def canonical_derivation(handle: Handle) -> Hom:
    """The derivation a carrier carries at its weight: the free derivation
    over the inner one on tensors, the shift on series, and on polynomials,
    in the first variable, the formal derivative at weight 0 and the
    difference quotient otherwise."""
    if isinstance(handle, ShaHandle):
        return freerb.free_derivation(handle, canonical_derivation(handle.inner))
    if isinstance(handle, HurwitzHandle):
        return hurwitz.shift_derivation(handle)
    if handle.weight.is_zero:
        return algebra.derivative_on(handle, handle.variables[0])
    return algebra.difference_quotient_on(handle, handle.variables[0])


def _head_row(row, lefts: list, rights: list) -> dict:
    """Value n of one level: the sum of c * lefts[i] . rights[l] over the
    pair-table row's (c, i, l), as word (head code, tail codes) -> int.  A
    left value maps the codes of length-1 tensors to their values, so the
    product . only multiplies heads, by adding their monomial codes."""
    s: dict = {}
    for c, i, l in row:
        right = rights[l].items()
        for a, x in lefts[i].items():
            cx = c * x
            for (h, w), y in right:
                k = (a + h, w)
                s[k] = s.get(k, 0) + cx * y
    return s


def beta(u: Tensor) -> Series:
    """Swap the carrier order: tensors of series to a series of tensors.

    beta is the homomorphism induced from the pointwise embedding E into
    hur(sha(A)) with P~, the lift of prepend: [f_0 | t] goes to E(f_0) *
    P~(beta(t)), P~(v)(0) = 1 # v(0) and P~(v)(l) = v(l - 1), and
    ``freerb.induced_rb_hom`` computes it so.  Over polynomials, its fast
    case, value n of a level is the pair-table sum of c * f_0(i) .
    P~(beta(t))(l), a product of heads alone (``_head_row``), on bare dicts
    of words (head code, tail codes).  The letters are the factor values'
    monomial codes as they stand, so heads multiply by adding codes and a word
    is the key of its output term.  A head sums one code per factor, so the
    running sums of the factors' ORs of codes bound it: past the code's range
    they raise ``ValueError`` (``algebra._in_range``).  Values are ints, each
    factor's scaled by the lcm of its denominators (``algebra._int_terms``),
    so each term is divided once by its own denominator.  Output precision is
    the least factor precision, capped at the handle's working precision;
    level j needs values 0..cap - j.
    """
    hur_h = u.handle.inner
    if not isinstance(hur_h, HurwitzHandle):
        raise HandleMismatchError(f"expected tensors over a series carrier, got {u.handle}")
    inner = hur_h.inner
    sha_a = ShaHandle(inner)
    target = HurwitzHandle(sha_a, hur_h.precision)
    cap = min([hur_h.precision] + [f.precision for t in u._bare for f in t])
    if not isinstance(inner, PolyHandle):
        def embed(f: Series) -> Series:
            return Series(target, tuple(freerb.eta(v, sha_a) for v in f.values))

        out = freerb.induced_rb_hom(Hom(hur_h, target, embed, name="embed^seq"),
                                    canonical_rb(target), u)
        return out.truncate(cap) if out.precision > cap else out
    rows, d, _ = hurwitz._pair_table(hur_h, cap)
    for t in u._bare:
        algebra._in_range(inner, accumulate(
            [functools.reduce(or_, [a for v in f.values for a in v._bare], 0) for f in t]))
    sums: list = [{} for _ in range(cap + 1)]
    for t, c in u._bare.items():
        k = len(t) - 1
        values, den = algebra._int_terms(t[k].values[:max(cap - k, 0) + 1])
        words = [{(a, ()): c.numerator * x for a, x in v.items()} for v in values]
        den *= c.denominator
        for j in range(k - 1, -1, -1):
            top = max(cap - j, 0)
            lefts, dj = algebra._int_terms(t[j].values[:top + 1])
            # P~(v)(0) = 1 # v(0), the unit monomial's code being 0
            rights = [{(0, (h,) + w): y for (h, w), y in words[0].items()}] + words
            words = [_head_row(rows[n], lefts, rights) for n in range(top + 1)]
            den *= d * dj
        for s, w in zip(sums, words):
            for key, y in w.items():
                s[key] = s.get(key, 0) + (y // den if y % den == 0 else Fraction(y, den))
    reduce = inner.ring.reduce
    return Series(target, tuple(
        Tensor._trusted(sha_a, {(h, *w): v for (h, w), x in s.items() if (v := reduce(x))})
        for s in sums))


def beta_hom(src: ShaHandle) -> Hom:
    if not isinstance(src.inner, HurwitzHandle):
        raise HandleMismatchError(f"expected tensors over a series carrier, got {src}")
    dst = HurwitzHandle(ShaHandle(src.inner.inner), src.inner.precision)
    # beta is looked up per call, so that a wrapper set on it later applies
    return Hom(src, dst, lambda u: beta(u), name="beta")


# --------------------------------------------------------------------------
# Lifted structures


def lift_t_structure(h: Hom, precision: int) -> Hom:
    """Lift an evaluation structure sha(A) -> A to the series carrier.

    The lifted structure on hur(A) sends a tensor of series through beta and
    then applies h pointwise.
    """
    if not isinstance(h.src, ShaHandle) or h.src.inner != h.dst:
        raise HandleMismatchError(f"not an evaluation structure: {h.src} -> {h.dst}")
    hur_a = HurwitzHandle(h.dst, precision)
    return Hom(ShaHandle(hur_a), hur_a,
               lambda u: hurwitz.map_pointwise(h, beta(u)),
               name=f"lift({h.name})")


def lift_costructure(f: Hom, u: Tensor) -> Series:
    """Lift a costructure A -> hur(A) across the tensor carrier at u.

    Computes beta applied to the factorwise image of u; the resulting
    assignment sha(A) -> hur(sha(A)) is the lifted costructure.
    """
    if not isinstance(f.dst, HurwitzHandle) or f.dst.inner != f.src:
        raise HandleMismatchError(f"not a costructure: {f.src} -> {f.dst}")
    return beta(freerb.sha_map(f, u))


def lift_costructure_hom(f: Hom) -> Hom:
    if not isinstance(f.dst, HurwitzHandle) or f.dst.inner != f.src:
        raise HandleMismatchError(f"not a costructure: {f.src} -> {f.dst}")
    dst = HurwitzHandle(ShaHandle(f.src), f.dst.precision)
    return Hom(ShaHandle(f.src), dst,
               lambda u: lift_costructure(f, u), name=f"lift({f.name})")


# --------------------------------------------------------------------------
# Compatibility of a structure/costructure pair


def mixed_compat_sides(h: Hom, f: Hom, u: Tensor) -> tuple[Series, Series]:
    """Both sides of f(h(u)) = pointwise-h(beta(factorwise-f(u))).

    This is the defining square for a carrier holding both an evaluation
    structure h and a costructure f compatibly.
    """
    return f(h(u)), hurwitz.map_pointwise(h, beta(freerb.sha_map(f, u)))
