"""Tensor carrier: interleaving product, prepend operator, induced maps."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from rbshuffle.algebra import (Hom, HandleMismatchError, HurwitzHandle, Poly, SampleBudget,
                               ShaHandle, alg_eq, integration_on, poly_handle, poly_integrate,
                               random_element, scaled_identity_on, subst_hom)
from rbshuffle import freerb
from rbshuffle.coeffs import INTEGERS, RATIONALS, RingError, residues
from rbshuffle.freerb import (Tensor, counit_eval, eta, eta_hom,
                              free_derivation, free_rb_operator,
                              induced_rb_hom, interleavings, mu, rb_prepend,
                              sha_hom, sha_map, structure_hom)
from rbshuffle import algebra
from rbshuffle.distlaw import beta
from rbshuffle.exprs import eval_text, parse_handle
from rbshuffle.hurwitz import Series

Q = RATIONALS
Z = INTEGERS
Z6 = residues(6)
HALF = Q.from_fraction(Fraction(1, 2))
LAMBDAS = (Q.zero(), Q.one(), HALF)


def sha_x(lam=None, variables=("x",)):
    return ShaHandle(poly_handle(variables, Q, lam))


def test_base_cases_merge_heads():
    s = sha_x(variables=("a0", "b0", "b1"))
    h = s.inner
    a0, b0, b1 = (Poly.variable(h, v) for v in h.variables)
    # one short operand: heads multiply, the longer tail is kept
    assert (Tensor.from_factors(s, (a0,)) * Tensor.from_factors(s, (b0, b1))
            == Tensor.from_factors(s, (a0 * b0, b1)))
    assert (Tensor.from_factors(s, (b0, b1)) * Tensor.from_factors(s, (a0,))
            == Tensor.from_factors(s, (a0 * b0, b1)))
    # degree one both sides: the product collapses to the carrier product
    assert (Tensor.from_factors(s, (a0,)) * Tensor.from_factors(s, (b0,))
            == eta(a0 * b0, s))


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_worked_five_term_expansion(lam):
    h = poly_handle(("a0", "a1", "b0", "b1", "b2"), Q, lam)
    s = ShaHandle(h)
    a0, a1, b0, b1, b2 = (Poly.variable(h, v) for v in h.variables)
    lhs = Tensor.from_factors(s, (a0, a1)) * Tensor.from_factors(s, (b0, b1, b2))
    head = a0 * b0
    rhs = (Tensor.from_factors(s, (head, a1, b1, b2))
           + Tensor.from_factors(s, (head, b1, a1, b2))
           + Tensor.from_factors(s, (head, b1, b2, a1))
           + Tensor.from_factors(s, (head, b1, a1 * b2), lam)
           + Tensor.from_factors(s, (head, a1 * b1, b2), lam))
    assert lhs == rhs


def test_prepend_operator():
    s = sha_x()
    x = Poly.variable(s.inner, "x")
    one = Poly.one(s.inner)
    u = Tensor.from_factors(s, (x, x))
    assert rb_prepend(u) == Tensor.from_factors(s, (one, x, x))
    assert rb_prepend(Tensor.zero(s)).is_zero
    assert rb_prepend(u.scale(Q.from_int(2))) == rb_prepend(u).scale(Q.from_int(2))


def test_embedding_is_linear_and_multiplicative():
    s = sha_x(variables=("x", "y"))
    h = s.inner
    x, y = Poly.variable(h, "x"), Poly.variable(h, "y")
    assert eta(Poly.one(h), s) == Tensor.one(s)
    assert eta(x + y, s) == eta(x, s) + eta(y, s)
    assert eta(x, s) * eta(y, s) == eta(x * y, s)


def test_factor_expansion_to_basis():
    s = sha_x()
    h = s.inner
    x = Poly.variable(h, "x")
    one = Poly.one(h)
    # (x+1) # (x+1) expands to four basis tensors
    u = Tensor.from_factors(s, (x + one, x + one))
    expect = (Tensor.from_factors(s, (x, x)) + Tensor.from_factors(s, (x, one))
              + Tensor.from_factors(s, (one, x)) + Tensor.from_factors(s, (one, one)))
    assert u == expect


def test_sha_map_functorial():
    s = sha_x(variables=("x", "y"))
    h = s.inner
    x = Poly.variable(h, "x")
    one = Poly.one(h)
    ident = Hom.identity(h)
    phi = subst_hom(h, {"x": x + one})
    psi = subst_hom(h, {"x": x * x})
    rng = random.Random(2)
    budget = SampleBudget()
    for _ in range(50):
        u = random_element(s, budget, rng)
        assert sha_map(ident, u) == u
        assert sha_map(psi, sha_map(phi, u)) == sha_map(Hom(h, h, lambda a: psi(phi(a))), u)
    assert sha_map(phi, Tensor.from_factors(s, (x, x))) == Tensor.from_factors(
        s, (x + one, x + one))


@pytest.mark.parametrize("ring,a,b", ((Q, 1, -1), (Z6, 2, 4)), ids=str)
def test_factorwise_map_and_free_derivation_with_cancelling_pieces(ring, a, b):
    # a + b = 0 in the ring, so the pieces of each sum below cancel
    h = poly_handle(("x", "y"), ring)
    s = ShaHandle(h)
    x, y, one = Poly.variable(h, "x"), Poly.variable(h, "y"), Poly.one(h)
    ca, cb = ring.from_int(a), ring.from_int(b)
    u = (Tensor.from_factors(s, (x, one), ca) + Tensor.from_factors(s, (y, one), cb)
         + Tensor.from_factors(s, (x, x)))
    out = sha_map(subst_hom(h, {"x": y}), u)
    assert out == Tensor.from_factors(s, (y, y)) and len(out.terms) == 1
    # D(x # 1) = (1 # 1) + x and D(1 # x) = x: the length-1 pieces cancel
    dfree = free_derivation(s, algebra.derivative_on(h, "x"))
    v = Tensor.from_factors(s, (x, one), ca) + Tensor.from_factors(s, (one, x), cb)
    assert dfree(v) == Tensor.from_factors(s, (one, one), ca)
    assert dfree(v).lengths() == {2: 1}


def test_induced_hom_evaluation():
    h = poly_handle(("x",), Q, Q.zero())
    s = ShaHandle(h)
    x = Poly.variable(h, "x")
    one = Poly.one(h)
    op = integration_on(h, "x")
    ident = Hom.identity(h)
    # degree-1 tensors evaluate through phi alone
    assert induced_rb_hom(ident, op, eta(x, s)) == x
    # (x, 1) evaluates to x * P(1) = x^2
    assert induced_rb_hom(ident, op, Tensor.from_factors(s, (x, one))) == x * x
    # the counit at (1, x) is P(x) = x^2/2
    assert counit_eval(Tensor.from_factors(s, (one, x)), op) == (x * x).scale(HALF)
    assert counit_eval(eta(x, s), op) == x


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_induced_hom_is_rb_morphism(lam):
    h = poly_handle(("x",), Q, lam)
    s = ShaHandle(h)
    op = scaled_identity_on(h)
    ident = Hom.identity(h)
    rng = random.Random(4)
    budget = SampleBudget()
    for _ in range(100):
        u = random_element(s, budget, rng)
        v = random_element(s, budget, rng)
        assert (induced_rb_hom(ident, op, u * v)
                == induced_rb_hom(ident, op, u) * induced_rb_hom(ident, op, v))
        assert induced_rb_hom(ident, op, rb_prepend(u)) == op(induced_rb_hom(ident, op, u))


def test_flatten_examples():
    s = sha_x(variables=("x", "y"))
    h = s.inner
    s2 = ShaHandle(s)
    x, y = Poly.variable(h, "x"), Poly.variable(h, "y")
    a = eta(x, s)
    b = Tensor.from_factors(s, (y, x))
    # one outer level around one tensor unwraps
    assert mu(eta(b, s2)) == b
    # (a) x (b0, b1) flattens to a concatenation through the prepend operator
    assert (mu(Tensor.from_factors(s2, (a, b)))
            == Tensor.from_factors(s, (x, y, x)))
    rng = random.Random(6)
    budget = SampleBudget()
    for _ in range(50):
        u = random_element(s, budget, rng)
        assert mu(eta(u, s2)) == u
        assert mu(sha_map(eta_hom(h), u)) == u


def test_flatten_matches_nested_display():
    # cross-check the evaluator against the explicit nested form
    s = sha_x(lam=HALF, variables=("x", "y"))
    s2 = ShaHandle(s)
    op = free_rb_operator(s)
    rng = random.Random(8)
    budget = SampleBudget(max_tensor_len=2, max_terms=2)
    for _ in range(50):
        w = random_element(s2, budget, rng)
        direct = algebra.zero(s)
        for factors, c in w.terms.items():
            v = factors[-1]
            for t in reversed(factors[:-1]):
                v = t * op(v)
            direct = direct + v.scale(c)
        assert mu(w) == direct


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_free_derivation_examples(lam):
    h = poly_handle(("x",), Q, lam)
    s = ShaHandle(h)
    x = Poly.variable(h, "x")
    one = Poly.one(h)
    if lam.is_zero:
        d = algebra.derivative_on(h, "x")
    else:
        d = algebra.difference_quotient_on(h, "x")
    dfree = free_derivation(s, d)
    # degree one applies d inside the embedding
    assert dfree(eta(x * x, s)) == eta(d(x * x), s)
    # the unit-headed tensor reduces to its tail
    assert dfree(Tensor.from_factors(s, (one, x))) == eta(x, s)
    rng = random.Random(9)
    budget = SampleBudget()
    for _ in range(100):
        u = random_element(s, budget, rng)
        assert dfree(rb_prepend(u)) == u


def test_structure_hom_shape():
    h = poly_handle(("x",), Q, Q.zero())
    op = integration_on(h, "x")
    hom = structure_hom(op)
    x = Poly.variable(h, "x")
    assert hom.src == ShaHandle(h)
    assert hom(eta(x)) == x


def test_top_stratum_counts_small():
    for m in range(5):
        for n in range(5):
            names = tuple(f"a{k}" for k in range(m + 1)) + tuple(
                f"b{k}" for k in range(n + 1))
            h = poly_handle(names, Q, Q.one())
            s = ShaHandle(h)
            av = tuple(Poly.variable(h, f"a{k}") for k in range(m + 1))
            bv = tuple(Poly.variable(h, f"b{k}") for k in range(n + 1))
            prod = Tensor.from_factors(s, av) * Tensor.from_factors(s, bv)
            assert prod.lengths()[m + n + 1] == comb(m + n, n)


def _weighted_weaves(xs, ys):
    """Independent oracle: order-preserving weaves of two tuples where any
    pair of heads from opposite sides may merge, yielding (merge count,
    factors).  Recursive enumeration, no reuse of the product under test."""
    if not xs:
        yield 0, ys
        return
    if not ys:
        yield 0, xs
        return
    for k, rest in _weighted_weaves(xs[1:], ys):
        yield k, (xs[0],) + rest
    for k, rest in _weighted_weaves(xs, ys[1:]):
        yield k, (ys[0],) + rest
    for k, rest in _weighted_weaves(xs[1:], ys[1:]):
        yield k + 1, (xs[0] * ys[0],) + rest


def _weave_sum(s, xs, ys, lam):
    """The sum over (ca, a) in xs and (cb, b) in ys of ca * cb times the
    weaves of the pure tensors a and b, each weighted by lam per merge."""
    expect: dict = {}
    for ca, a in xs:
        for cb, b in ys:
            head = a[0] * b[0]
            for k, weave in _weighted_weaves(a[1:], b[1:]):
                key = (head,) + weave
                expect[key] = expect.get(key, lam.ring.zero()) + ca * cb * lam.pow_nat(k)
    return Tensor(s, expect)


def _kernel_modes(monkeypatch) -> list:
    """Record how the kernel's walk adds each pair of nonempty tails: True
    in bulk, False word by word."""
    modes: list = []
    run = freerb._shuffle_tails
    monkeypatch.setattr(freerb, "_shuffle_tails", lambda *a: modes.append(a[-1]) or run(*a))
    return modes


# 2 and 3 are zero divisors mod 6: coefficients cancel and terms vanish;
# 2^2 = 0 mod 4, so no word has two merges; -2/3 puts every word of a
# product of operands with unequal tail lengths over one denominator 3^top
@pytest.mark.parametrize("lam", (Q.one(), HALF, Q.from_fraction(Fraction(-2, 3)), Z.from_int(2),
                                 Z.from_int(3), Z6.from_int(2), Z6.from_int(3),
                                 residues(4).from_int(2)), ids=str)
def test_product_matches_weighted_weave_enumeration(lam, monkeypatch):
    # every stratum of the recursive product, rebuilt combinatorially, on
    # pure tensors and then on sums of two or three pure tensors whose tails
    # share a suffix: the expected product is the sum of each pair's weaves
    h = poly_handle(("x", "y"), lam.ring, lam)
    s = ShaHandle(h)
    rng = random.Random(29)
    budget = SampleBudget()

    def factors(n):
        return tuple(algebra.random_basis_factor(h, budget, rng) for _ in range(n))

    def check(xs, ys):
        got = (sum((Tensor.from_factors(s, a, c) for c, a in xs), Tensor.zero(s))
               * sum((Tensor.from_factors(s, b, c) for c, b in ys), Tensor.zero(s)))
        assert got == _weave_sum(s, xs, ys, lam)

    one = lam.ring.one()
    for _ in range(100):
        la = rng.randint(1, 4)
        lb = rng.randint(1, 4)
        a, b = factors(la), factors(lb)
        check([(one, a)], [(one, b)])
    for _ in range(20):
        xs, ys = ([(lam.ring.from_int(rng.randint(1, 5)), factors(rng.randint(1, 2)) + suffix)
                   for _ in range(rng.randint(2, 3))]
                  for suffix in (factors(rng.randint(1, 2)), factors(rng.randint(1, 2))))
        check(xs, ys)
    # every pair of tail lengths up to 5, with the letters x^i and y^j, whose
    # merges x^i*y^j are distinct from them and from each other (in bulk
    # when both tails have two letters or more), and with every letter x,
    # which collides with every other word's letters (word by word at every
    # size)
    x, y = (Poly.variable(h, v) for v in h.variables)
    px = [Poly.monomial(h, (i, 0)) for i in range(6)]  # x^i
    py = [Poly.monomial(h, (0, j)) for j in range(6)]  # y^j
    modes = _kernel_modes(monkeypatch)
    for la in range(6):
        for lb in range(6):
            check([(lam.ring.from_int(5), (y, *px[1:la + 1]))],
                  [(lam.ring.from_int(-7), (x * y, *py[1:lb + 1]))])
    assert modes == [la > 1 < lb for la in range(1, 6) for lb in range(1, 6)]
    modes.clear()
    for la in range(6):
        for lb in range(6):
            check([(one, (x,) * (la + 1))], [(one, (x,) * (lb + 1))])
    assert modes == [False] * 25
    # sums of pure tensors: the first pair of distinct letters goes in bulk,
    # and every later pair word by word, since out already holds words that
    # its words may equal: (x*y # x^2 # x^3)(1 # y^2 # y^3) spells every word
    # of the first pair (x # x^2 # x^3)(y # y^2 # y^3) again, and y^2 # x*y
    # comes from (1)(y^2 # x*y), an empty tail's word, and from (y # y)(y # x)
    modes.clear()
    check([(one, (x, px[2], px[3])), (one, (x * y, px[2], px[3]))],
          [(one, (y, py[2], py[3])), (one, (px[0], py[2], py[3]))])
    assert modes == [True, False, False, False]
    modes.clear()
    check([(one, (y, *px[1:4])), (one, (y * y, *px[4:6]))], [(one, (x * y, *py[1:4]))])
    assert modes == [True, False]
    modes.clear()
    check([(one, (y, *px[1:3])), (one, (y, px[3]))], [(one, (x * y, *py[1:3]))])
    assert modes == [True, False]
    modes.clear()
    check([(one, (px[0],)), (one, (y, y))], [(one, (y, x)), (one, (y * y, x * y))])
    assert modes == [False, False]


def test_weight_zero_stratum_matches_interleavings_with_repeats():
    # repeated symbols force multiplicities in the shuffle multiset
    h = poly_handle(("x",), Q, Q.zero())
    s = ShaHandle(h)
    x = Poly.variable(h, "x")
    u = Tensor.from_factors(s, (x, x))
    prod = u * u
    expect = {}
    one = Q.one()
    for weave in interleavings((x,), (x,)):
        key = (x * x,) + weave
        expect[key] = expect.get(key, Q.zero()) + one
    assert prod.terms == expect
    assert prod == Tensor.from_factors(s, (x * x, x, x), Q.from_int(2))


@pytest.mark.parametrize("lam", (Q.one(), Z6.from_int(2), Z6.from_int(3)), ids=str)
def test_repeated_letters_collect_coefficients(lam, monkeypatch):
    # (x # x # x)^2: the tails x#x and x#x weave into x#x#x#x six ways, into
    # each word with one x^2 twice, and into x^2 # x^2 once
    h = poly_handle(("x",), lam.ring, lam)
    s = ShaHandle(h)
    x = Poly.variable(h, "x")
    x2 = x * x
    u = Tensor.from_factors(s, (x, x, x))
    ring = lam.ring
    expect = (Tensor.from_factors(s, (x2, x, x, x, x), ring.from_int(6))
              + Tensor.from_factors(s, (x2, x2, x, x), lam * ring.from_int(2))
              + Tensor.from_factors(s, (x2, x, x2, x), lam * ring.from_int(2))
              + Tensor.from_factors(s, (x2, x, x, x2), lam * ring.from_int(2))
              + Tensor.from_factors(s, (x2, x2, x2), lam * lam))
    assert u * u == expect
    if ring == Z6 and lam.value == 3:
        # 6, 2*3 and 3*3 mod 6: only the doubly merged word survives
        assert (u * u).terms == {(x2, x2, x2): Z6.from_int(3)}
    # tails of five letters x: their letters collide, so their words are
    # collected one by one
    modes = _kernel_modes(monkeypatch)
    u = Tensor.from_factors(s, (x,) * 6)
    assert u * u == _weave_sum(s, [(ring.one(), (x,) * 6)], [(ring.one(), (x,) * 6)], lam)
    assert modes == [False]


def _recursive_product(a, b, lam, one):
    """Reference product of two pure tensors as factor tuple -> coefficient,
    from the defining recursion with no memo and no basis keys:
    (a0 # a') * (b0 # b') = a0*b0 # (a' * (1 # b') + (1 # a') * b' + lam a' * b'),
    where a pure tensor of one factor multiplies as a0*b0 # b'."""
    head = a[0] * b[0]
    if len(a) == 1 or len(b) == 1:
        return {(head,) + (b[1:] if len(a) == 1 else a[1:]): lam.ring.one()}
    out = {}
    ta, tb = a[1:], b[1:]
    for sub, w in ((_recursive_product(ta, (one,) + tb, lam, one), lam.ring.one()),
                   (_recursive_product((one,) + ta, tb, lam, one), lam.ring.one()),
                   (_recursive_product(ta, tb, lam, one), lam)):
        for t, c in sub.items():
            key = (head,) + t
            out[key] = out.get(key, lam.ring.zero()) + w * c
    return out


@pytest.mark.parametrize("spec,lam", [
    ("sha(sha(poly(x)))", Q.zero()), ("sha(sha(poly(x)))", HALF),
    ("sha(hur(poly(x),3))", Q.one()), ("sha(hur(poly(x),3))", HALF),
    ("sha(hur(poly(x),3))", Z6.from_int(3)),
], ids=lambda p: str(p))
def test_product_over_non_basis_factors_matches_recursion(spec, lam):
    # factors that are tensors or series have no monomial basis: the kernel
    # multiplies them whole and expands its output words afterwards
    s = parse_handle(spec, lam.ring, lam, 3)
    one = algebra.unit(s.inner)
    rng = random.Random(31)
    budget = SampleBudget(max_tensor_len=3, max_terms=3, precision=3)
    for _ in range(25):
        u = random_element(s, budget, rng)
        v = random_element(s, budget, rng)
        expect = Tensor.zero(s)
        for ta, ca in u.terms.items():
            for tb, cb in v.terms.items():
                for t, c in _recursive_product(ta, tb, lam, one).items():
                    expect = expect + Tensor.from_factors(s, t, ca * cb * c)
        assert u * v == expect


def test_words_with_zero_factors_vanish():
    # 2 * 3 = 0 mod 6, so the constant series 2 and 3 multiply to zero
    lam = Z6.from_int(3)
    s = parse_handle("sha(hur(poly(x),3))", Z6, lam, 3)
    hh = s.inner
    f = Series.constant(Poly.one(hh.inner).scale(Z6.from_int(2)), hh)
    g = Series.constant(Poly.one(hh.inner).scale(Z6.from_int(3)), hh)
    one = algebra.unit(hh)
    assert (f * g).is_zero
    assert (Tensor.from_factors(s, (f, g)) * Tensor.from_factors(s, (g, f))).is_zero
    # the merged word 1 # f*g vanishes and the two shuffled words stay
    assert (Tensor.from_factors(s, (one, f)) * Tensor.from_factors(s, (one, g))
            == Tensor.from_factors(s, (one, f, g)) + Tensor.from_factors(s, (one, g, f)))


def test_product_checks_coefficient_and_weight_rings(monkeypatch):
    s = sha_x(Q.one())
    x = Poly.variable(s.inner, "x")
    u = Tensor.from_factors(s, (x, x))
    # a coefficient from Z/6 on a q carrier is refused where it would enter
    with pytest.raises(RingError):
        Tensor(s, {(x,): Z6.from_int(1)})
    with pytest.raises(RingError):
        Tensor.from_factors(s, (x,), Z6.one())
    with pytest.raises(RingError):
        u.scale(Z6.from_int(2))
    monkeypatch.setattr(freerb, "_merge_weight", lambda handle: Z6.one())
    with pytest.raises(RingError):
        u * u


def test_maps_into_another_ring_are_refused():
    # q coefficients are carried into no Z/6 target, factorwise or evaluated
    s = sha_x()
    h6 = poly_handle(("x",), Z6)
    f = Hom(s.inner, h6, lambda p: Poly.variable(h6, "x"), name="to-z6")
    u = Tensor.from_factors(s, (Poly.variable(s.inner, "x"),) * 2, Q.from_int(2))
    with pytest.raises(RingError):
        sha_map(f, u)
    with pytest.raises(RingError):
        induced_rb_hom(f, scaled_identity_on(h6), u)


def test_merge_onto_an_interned_letter_collects_words(monkeypatch):
    # the merge 1*x is the letter x again, and the word 1 # 1 # x # x arises twice
    s = parse_handle("sha(poly(x))", Q, Q.one(), 4)
    expect = eval_text("(1 # 1 # x^2) + (1 # x # x) + 2*(1 # 1 # x # x) + (1 # x # 1 # x)", s)
    assert eval_text("(1 # 1 # x) * (1 # x)", s) == expect
    assert len(expect.terms) == 4
    # the same collisions on a larger lattice, collected word by word
    modes = _kernel_modes(monkeypatch)
    one, x = Poly.one(s.inner), Poly.variable(s.inner, "x")
    a, b = (one, one, one, x, one, one), (one, x, one, x)
    got = Tensor.from_factors(s, a) * Tensor.from_factors(s, b)
    assert got == _weave_sum(s, [(Q.one(), a)], [(Q.one(), b)], Q.one())
    assert modes == [False]


def test_words_from_pairs_of_unequal_length_collect_at_half_weight():
    # 1 # x # x comes with no merge from the shorter pair and with one merge
    # (1*x = x) from the longer, so its coefficient mixes two powers of 1/2
    s = parse_handle("sha(poly(x))", Q, HALF, 4)
    expect = eval_text("2*(1 # 1 # x # x) + 1/2*(1 # 1 # x^2) + (1 # x # 1 # x)"
                       " + 5/2*(1 # x # x) + 1/2*(1 # x^2)", s)
    assert eval_text("((1 # 1 # x) + (1 # x)) * (1 # x)", s) == expect


def test_whole_coefficients_are_stored_as_ints():
    # 1/2 * 2 is whole: at an integer weight the kernel's output is kept as
    # it stands only when every value is an int
    s = parse_handle("sha(poly(x))", Q, Q.one(), 4)
    u = eval_text("(1/2*(x # x)) * (2*(1 # x))", s)
    assert u == eval_text("2*(x # x # x) + (x # x^2)", s)
    assert all(type(c) is int for c in u._bare.values())
    # one pair of int coefficients and one of whole Fractions, with equal
    # values (4 and 8, then 4/1 and 8/1 at weight 2), in both term orders
    s = parse_handle("sha(poly(x,y))", Q, Q.from_int(2), 4)
    yy, xx, right = (eval_text(e, s) for e in ("y # y", "1/2*(x # x)", "4*(1 # x)"))
    expect = eval_text("4*(y # y # x) + 4*(y # x # y) + 8*(y # x*y)"
                       " + 4*(x # x # x) + 4*(x # x^2)", s)
    assert list((yy + xx)._bare) != list((xx + yy)._bare)
    for left in (yy + xx, xx + yy):
        u = left * right
        assert u == expect
        assert all(type(c) is int for c in u._bare.values())


def test_operands_of_unequal_tails_share_one_denominator(monkeypatch):
    # at -2/3 a word with d merges carries (-2)^d * 3^(top - d) over 3^top,
    # top the most merges of any pair (here 4), in bulk for the first pair
    # and word by word for the pairs with repeated letters
    lam = Q.from_fraction(Fraction(-2, 3))
    s = parse_handle("sha(poly(x,y))", Q, lam, 4)
    modes = _kernel_modes(monkeypatch)
    x, y = Poly.variable(s.inner, "x"), Poly.variable(s.inner, "y")
    one = Poly.one(s.inner)
    xs = [(Q.from_fraction(Fraction(1, 2)),
           (x * y,) + tuple(Poly.monomial(s.inner, (i, 0)) for i in range(1, 6))),
          (Q.from_int(-3), (one, x)), (Q.from_fraction(Fraction(2, 5)), (y, y * y, x, y))]
    ys = [(Q.one(), (x * y,) + tuple(Poly.monomial(s.inner, (0, j)) for j in range(1, 5))),
          (Q.from_fraction(Fraction(-4, 7)), (y, x, x, y, x)), (Q.from_int(2), (one,))]
    got = (sum((Tensor.from_factors(s, a, c) for c, a in xs), Tensor.zero(s))
           * sum((Tensor.from_factors(s, b, c) for c, b in ys), Tensor.zero(s)))
    assert got == _weave_sum(s, xs, ys, lam)
    assert set(modes) == {True, False}


def test_zero_operand_gives_the_zero_tensor(monkeypatch):
    # a zero operand drops its row entry before any kernel is built
    kernels = []
    kernel = freerb._Kernel
    monkeypatch.setattr(freerb, "_Kernel", lambda *a: kernels.append(a) or kernel(*a))
    s = sha_x(Q.one())
    x = Poly.variable(s.inner, "x")
    u = Tensor.from_factors(s, (x, x, x))
    zero = Tensor.zero(s)
    for prod in (zero * u, u * zero, zero * zero):
        assert prod.is_zero and prod.handle == s and prod == zero
    assert kernels == []
    assert not (u * u).is_zero and len(kernels) == 1
    with pytest.raises(HandleMismatchError):
        zero * Tensor.zero(sha_x(variables=("y",)))


def test_handle_mismatch():
    a = Tensor.one(sha_x())
    b = Tensor.one(sha_x(variables=("y",)))
    with pytest.raises(HandleMismatchError):
        a * b
    with pytest.raises(ValueError):
        Tensor.from_factors(sha_x(), ())


def test_tensor_is_hashable_and_orders_terms():
    s = sha_x(variables=("x", "y"))
    h = s.inner
    x, y = Poly.variable(h, "x"), Poly.variable(h, "y")
    u = Tensor.from_factors(s, (x, y)) + Tensor.from_factors(s, (y,), Q.from_int(2))
    v = Tensor.from_factors(s, (y,), Q.from_int(2)) + Tensor.from_factors(s, (x, y))
    assert u == v and hash(u) == hash(v)
    assert str(u) == "2*y + (x # y)"


# --------------------------------------------------------------------------
# Hoffman's exponential: (a0 # u)(b0 # v) = a0*b0 # exp(log u ⧢0 log v), on
# plain dicts of words, sharing no code with the kernel.  A letter is an
# exponent tuple over poly(x,y), whose product adds exponents, or (over
# sha(poly(x))) a word of exponent tuples, whose product is this same
# formula one level down

@lru_cache(maxsize=None)
def _compositions(n):
    """Every tuple of positive ints summing to n."""
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(1, n + 1)
                 for rest in _compositions(n - first))


def _monomial_times(x, y):
    """The product of two monomial letters (exponent tuples), as letter -> coefficient."""
    return {tuple(map(sum, zip(x, y))): 1}


def _spread(parts_words):
    """The words formed by one letter from each of the dicts letter ->
    coefficient, in order, as word -> coefficient (multilinear expansion)."""
    out = {(): 1}
    for part in parts_words:
        out = {w + (x,): c * e for w, c in out.items() for x, e in part.items()}
    return out


def _blocks(word, parts, times):
    """The word with each block of the composition merged into the product of
    its letters, expanded multilinearly: word -> coefficient."""
    merged, at = [], 0
    for i in parts:
        block = {word[at]: 1}
        for y in word[at + 1:at + i]:
            product: dict = {}
            for x, c in block.items():
                for z, e in times(x, y).items():
                    product[z] = product.get(z, 0) + c * e
            block = product
        merged.append(block)
        at += i
    return _spread(merged)


@lru_cache(maxsize=None)
def _exp_weight(parts, lam):
    """lam^(n - k) / I! for a composition I of n into k parts."""
    d = 1
    for i in parts:
        for j in range(2, i + 1):
            d *= j
    return Fraction(lam) ** (sum(parts) - len(parts)) / d


@lru_cache(maxsize=None)
def _log_weight(parts, lam):
    """(-lam)^(n - k) / (i1 ... ik) for a composition I of n into k parts."""
    d = 1
    for i in parts:
        d *= i
    return Fraction(-lam) ** (sum(parts) - len(parts)) / d


def _hoffman_map(combo, lam, weight, times):
    """The sum over words w and compositions I of len(w) of c * weight(I) *
    I[w]: exp with _exp_weight, log with _log_weight."""
    out: dict = {}
    for w, c in combo.items():
        for parts in _compositions(len(w)):
            for k, e in _blocks(w, parts, times).items():
                out[k] = out.get(k, 0) + c * e * weight(parts, lam)
    return out


@lru_cache(maxsize=None)
def _plain_shuffle(u, v):
    """The shuffle product (no merges) of two words, as word -> count."""
    if not u or not v:
        return {u + v: 1}
    out: dict = {}
    for head, rest in ((u[0], _plain_shuffle(u[1:], v)), (v[0], _plain_shuffle(u, v[1:]))):
        for w, c in rest.items():
            out[(head,) + w] = out.get((head,) + w, 0) + c
    return out


def _hoffman_product(xs, ys, lam, times=_monomial_times):
    """(sum of c * a) * (sum of d * b) over pure tensors given as (c, words
    of letters), with times the product of two letters, as word -> Fraction."""
    out: dict = {}
    for c, a in xs:
        for d, b in ys:
            lu, lv = (_hoffman_map({t[1:]: 1}, lam, _log_weight, times) for t in (a, b))
            shuffled: dict = {}
            for u, cu in lu.items():
                for v, cv in lv.items():
                    for w, n in _plain_shuffle(u, v).items():
                        shuffled[w] = shuffled.get(w, 0) + cu * cv * n
            for head, ch in times(a[0], b[0]).items():
                for w, e in _hoffman_map(shuffled, lam, _exp_weight, times).items():
                    out[(head,) + w] = out.get((head,) + w, 0) + c * d * ch * e
    return out


def _hoffman_agrees(ring, lam_lift, rng, draws, nested=False):
    """Whether products of random sums of pure tensors over sha(poly(x,y)),
    or with nested over sha(sha(poly(x))), at the weight lam_lift (an int or
    Fraction, the lift of the ring's weight) match Hoffman's formula,
    reduced into the ring."""
    lam = ring.from_fraction(Fraction(lam_lift))
    inner = poly_handle(("x",) if nested else ("x", "y"), ring, lam)
    s = ShaHandle(ShaHandle(inner) if nested else inner)
    m = ring.modulus

    def monomial():
        return tuple(rng.randint(0, 2) for _ in inner.variables)

    def letter():  # over sha(poly(x)): a word of one or two monomials
        return tuple(monomial() for _ in range(rng.randint(1, 2))) if nested else monomial()

    def draw():
        terms = []
        for _ in range(rng.randint(1, 2)):
            word = tuple(letter() for _ in range(rng.randint(1, 3 if nested else 5)))
            terms.append((rng.choice([-3, -2, -1, 1, 2, 5]), word))
        return terms

    def factor(x):
        if not nested:
            return Poly.monomial(inner, x)
        return Tensor.from_factors(s.inner, tuple(Poly.monomial(inner, e) for e in x))

    def tensor(terms):
        return sum((Tensor.from_factors(s, tuple(map(factor, w)), ring.from_int(c))
                    for c, w in terms), Tensor.zero(s))

    def spelled(f):
        """A factor of the product as its letter."""
        if not nested:
            return next(iter(f.terms))
        ((t, c),) = f.terms.items()
        assert c == ring.one()
        return tuple(next(iter(p.terms)) for p in t)

    @lru_cache(maxsize=None)
    def word_times(x, y):  # two basis tensors of sha(poly(x)) multiply by the formula
        return _hoffman_product([(1, x)], [(1, y)], Fraction(lam_lift))

    for _ in range(draws):
        xs, ys = draw(), draw()
        expect = {}
        for w, c in _hoffman_product(xs, ys, Fraction(lam_lift),
                                     word_times if nested else _monomial_times).items():
            if m:
                assert c.denominator == 1  # integral: c is an integer polynomial in lam
                c = c.numerator % m
            if c:
                expect[w] = c
        got = {tuple(map(spelled, t)): c.value for t, c in (tensor(xs) * tensor(ys)).terms.items()}
        if got != expect:
            return False
    return True


@pytest.mark.parametrize("ring,lam", [(Q, 0), (Q, 1), (Q, Fraction(1, 2)), (Q, Fraction(-2, 3)),
                                      (Q, 3), (Z, 2), (Z, -1), (Z6, 3), (residues(4), 2)],
                         ids=lambda p: str(p))
def test_product_matches_hoffman_exponential(ring, lam):
    assert _hoffman_agrees(ring, lam, random.Random(f"hoffman:{ring}:{lam}"), 8)


# over sha(sha(poly(x))) the kernel's letters are the inner tensor factors,
# and a merge or head product is an inner tensor product
@pytest.mark.parametrize("ring,lam", [(Q, 0), (Q, 1), (Q, Fraction(1, 2)), (Q, Fraction(-2, 3)),
                                      (Z, -1), (Z6, 3), (residues(4), 2)],
                         ids=lambda p: str(p))
def test_product_over_tensor_letters_matches_hoffman_exponential(ring, lam):
    assert _hoffman_agrees(ring, lam, random.Random(f"hoffman-nested:{ring}:{lam}"), 20,
                           nested=True)


def test_hoffman_oracle_catches_a_doubled_merge_weight(monkeypatch):
    monkeypatch.setattr(freerb, "_merge_weight", lambda handle: handle.weight + handle.weight)
    assert not _hoffman_agrees(Q, 1, random.Random("hoffman:mutant"), 12)
    assert not _hoffman_agrees(Q, Fraction(-2, 3), random.Random("hoffman:mutant"), 12)
    assert not _hoffman_agrees(Q, Fraction(-2, 3), random.Random("hoffman:mutant"), 12,
                               nested=True)


# --------------------------------------------------------------------------
# Polynomials and tensor keys over them: monomial codes behind the views

def test_terms_view_round_trips_through_the_constructor():
    for ring, lam in ((Q, HALF), (Z, Z.from_int(2)), (Z6, Z6.from_int(3))):
        s = ShaHandle(poly_handle(("x", "y", "z"), ring, lam))
        rng = random.Random(f"view:{ring}")
        for _ in range(20):
            u = random_element(s, SampleBudget(max_degree=4, max_tensor_len=4), rng)
            u = u * u
            for key, c in u.terms.items():
                assert type(key) is tuple and key
                for f in key:
                    assert type(f) is Poly and f.handle == s.inner
                    assert len(f.terms) == 1 and 1 in f._bare.values()
            assert Tensor(u.handle, u.terms) == u
            assert hash(Tensor(u.handle, u.terms)) == hash(u)
        # a polynomial's view shows exponent vectors, and only those are keys
        rng, c = random.Random(f"poly-view:{ring}"), HALF if ring is Q else ring.from_int(5)
        for _ in range(20):
            p = random_element(s.inner, SampleBudget(max_degree=4, max_terms=5), rng)
            p = p * p - p.scale(c)
            assert all(type(k) is tuple and len(k) == 3 and all(type(e) is int and e >= 0
                                                                 for e in k) for k in p.terms)
            back = Poly(p.handle, p.terms)
            assert back == p and hash(back) == hash(p)
            assert ({k: type(v) for k, v in back._bare.items()}
                    == {k: type(v) for k, v in p._bare.items()})
            for bad in ((0, 0), (0, 0, 0, 0), (0, -1, 0), (2 ** 31, 0, 0)):
                with pytest.raises(KeyError):
                    p.terms[bad]
    # over nested inners a key is the tuple of the inner's keys (tensor keys,
    # or whole series), and the view's factors rebuild it
    for ring, lam in ((Q, Q.zero()), (Q, HALF), (Z6, Z6.from_int(3))):
        for text in ("sha(sha(poly(x,y)))", "sha(hur(poly(x),2))"):
            s = parse_handle(text, ring, lam, 3)
            foreign = Poly.variable(poly_handle(("x", "y"), ring, lam), "x")
            rng = random.Random(f"nested-view:{text}:{ring}:{lam}")
            budget = SampleBudget(precision=2)
            for _ in range(8):
                u = random_element(s, budget, rng) * random_element(s, budget, rng)
                back = Tensor(u.handle, u.terms)
                assert back == u and hash(back) == hash(u)
                for key in u.terms:
                    f, rest = key[0], key[1:]
                    odd = (f.scale(ring.from_int(2)) if isinstance(f, Tensor)
                           else Series.zero(f.handle))  # non-monic, or no basis key
                    for bad in ((odd,) + rest, (foreign,) + rest):
                        with pytest.raises(KeyError):
                            u.terms[bad]


def test_equal_tensors_from_every_constructor_are_equal_and_hash_equal():
    s = sha_x(HALF, ("x", "y"))
    h = s.inner
    x, y = Poly.variable(h, "x"), Poly.variable(h, "y")
    one = Poly.one(h)
    target = (x * y, x, y * y)
    swap = subst_hom(h, {"x": y, "y": x})
    hh = HurwitzHandle(h, 2)
    built = [
        Tensor.from_factors(s, target),
        Tensor(s, {target: Q.one()}),
        Tensor(s, {(x * y.scale(Q.from_int(2)), x, y * y): HALF}),  # expanded
        Tensor.from_factors(s, (x,)) * Tensor.from_factors(s, (y, x, y * y)),
        sha_map(swap, Tensor.from_factors(s, (x * y, y, x * x))),
        beta(Tensor.from_factors(ShaHandle(hh), tuple(Series.constant(f, hh)
                                                      for f in target))).values[0],
    ]
    for u in built:
        assert u == built[0] and hash(u) == hash(built[0])
        assert str(u) == "x*y # x # y^2"
    prepended = Tensor.from_factors(s, (one,) + target)
    assert rb_prepend(built[0]) == prepended and hash(rb_prepend(built[0])) == hash(prepended)
    assert Tensor.one(s) == eta(one, s) and hash(Tensor.one(s)) == hash(eta(one, s))
    # over nested inners the constructor expands scaled and summed factors
    # as from_factors does, and a zero series factor gives the zero tensor
    s2, sh = ShaHandle(s), ShaHandle(hh)
    twice = Tensor.from_factors(s, (x, one), Q.from_int(2))
    f = Series(hh, (x, one, y * y))
    for outer, factors in ((s2, (twice,)), (s2, (twice, eta(x, s) + eta(y, s))),
                           (sh, (f.scale(Q.from_int(2)), f)), (sh, (f, f + f))):
        u, v = Tensor(outer, {factors: HALF}), Tensor.from_factors(outer, factors, HALF)
        assert u == v and hash(u) == hash(v) and str(u) == str(v)
    assert str(Tensor(s2, {(twice,): Q.one()})) == "2*eta(x # 1)"
    for factors in ((Series.zero(hh),), (f, Series.zero(hh))):
        u = Tensor(sh, {factors: Q.one()})
        assert u.is_zero and u == Tensor.zero(sh) and hash(u) == hash(Tensor.zero(sh))


def test_exponents_past_the_code_range_raise_value_error():
    top = 2 ** 31 - 1  # the largest exponent a code holds
    for lam in (Q.zero(), Q.one()):
        s = sha_x(lam, ("x", "y"))
        h = s.inner
        big, x = Poly.monomial(h, (top, 0)), Poly.variable(h, "x")
        with pytest.raises(ValueError):
            Tensor.from_factors(s, (Poly.monomial(h, (0, top + 1)),))
        with pytest.raises(ValueError):
            Tensor(s, {(x, Poly.monomial(h, (top + 1, 0))): Q.one()})
        u = Tensor.from_factors(s, (big, Poly.monomial(h, (0, top))))
        assert u.terms == {(big, Poly.monomial(h, (0, top))): Q.one()}
        with pytest.raises(ValueError):  # a head product
            u * Tensor.from_factors(s, (x,))
        tail = Tensor.from_factors(s, (x, big))
        if lam.is_zero:  # no merge: the product keeps both letters
            assert (tail * tail).lengths() == {3: 1}
        else:  # the merge big * big
            with pytest.raises(ValueError):
                tail * tail
    hh = HurwitzHandle(h, 1)
    half = Series.constant(Poly.monomial(h, (2 ** 30, 0)), hh)
    with pytest.raises(ValueError):  # beta's words can reach x^(2^31)
        beta(Tensor.from_factors(ShaHandle(hh), (half, half)))
    # polynomials themselves, built, multiplied and integrated
    with pytest.raises(ValueError):
        Poly.monomial(h, (2 ** 31, 0))
    with pytest.raises(ValueError):
        Poly(h, {(0, 2 ** 31): Q.one()})
    with pytest.raises(ValueError):  # an exponent that is no int has no code
        Poly(h, {(0, 1.5): Q.one()})
    x30 = Poly.monomial(h, (2 ** 30, 0))
    assert x30 * Poly.monomial(h, (2 ** 30 - 1, 1)) == Poly.monomial(h, (top, 1))
    with pytest.raises(ValueError):
        x30 * x30
    with pytest.raises(ValueError):
        half * half
    assert poly_integrate(Poly.monomial(h, (top - 1, 0)), "x") == Poly.monomial(
        h, (top, 0), Q.from_fraction(Fraction(1, top)))
    with pytest.raises(ValueError):
        poly_integrate(Poly.monomial(h, (top, 0)), "x")
