"""Polynomial carrier, concrete operators, handles, and random sampling."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from rbshuffle.algebra import (HandleMismatchError, Hom, HurwitzHandle,
                               Poly, SampleBudget, ShaHandle, WeightError,
                               alg_eq, derivative_on, difference_quotient,
                               exp_span_rb, poly_derivative, poly_handle,
                               poly_integrate, random_element, scaled_identity,
                               subst_hom, unit, zero)
from rbshuffle.coeffs import RATIONALS, RingError, residues
from rbshuffle.exprs import parse_handle

Q = RATIONALS
Z6 = residues(6)
HALF = Q.from_fraction(Fraction(1, 2))


def handle(lam=None, variables=("x", "y")):
    return poly_handle(variables, Q, lam)


def test_poly_identity_product():
    h = handle()
    x = Poly.variable(h, "x")
    one = Poly.one(h)
    assert (x + one) * (x - one) == x * x - one


def test_poly_unit_and_zero():
    h = handle()
    x = Poly.variable(h, "x")
    assert x * Poly.one(h) == x
    assert x.scale(Q.zero()) == Poly.zero(h)
    assert (x - x).is_zero


def test_poly_derivative_examples():
    h = handle()
    x = Poly.variable(h, "x")
    y = Poly.variable(h, "y")
    two = Poly.one(h).scale(Q.from_int(2))
    assert poly_derivative(x * x, "x") == two * x
    assert poly_derivative(Poly.one(h), "x").is_zero
    assert poly_derivative(x * y, "x") == y
    with pytest.raises(ValueError):
        poly_derivative(x, "z")


def test_difference_quotient_examples():
    h = handle(HALF, variables=("x",))
    x = Poly.variable(h, "x")
    lam = Poly.one(h).scale(HALF)
    two = Poly.one(h).scale(Q.from_int(2))
    # ((x+w) - x)/w = 1 and ((x+w)^2 - x^2)/w = 2x + w, by hand
    assert difference_quotient(x, "x") == Poly.one(h)
    assert difference_quotient(x * x, "x") == two * x + lam
    assert difference_quotient(Poly.one(h), "x").is_zero


def test_difference_quotient_needs_nonzero_weight():
    h = handle(Q.zero(), variables=("x",))
    with pytest.raises(WeightError):
        difference_quotient(Poly.variable(h, "x"), "x")


def test_difference_quotient_weighted_leibniz():
    h = handle(HALF, variables=("x",))
    lam = h.weight
    rng = random.Random(11)
    budget = SampleBudget()
    for _ in range(500):
        f = random_element(h, budget, rng)
        g = random_element(h, budget, rng)
        df = difference_quotient(f, "x")
        dg = difference_quotient(g, "x")
        assert difference_quotient(f * g, "x") == df * g + f * dg + (df * dg).scale(lam)


def test_integration_examples():
    h = handle(Q.zero(), variables=("x",))
    x = Poly.variable(h, "x")
    assert poly_integrate(Poly.one(h), "x") == x
    assert poly_integrate(x, "x") == (x * x).scale(HALF)
    # operator identity at weight zero: P(x)P(x) = 2 P(x P(x)), both x^4/4
    lhs = poly_integrate(x, "x") * poly_integrate(x, "x")
    rhs = poly_integrate(x * poly_integrate(x, "x"), "x").scale(Q.from_int(2))
    assert lhs == rhs == (x * x * x * x).scale(Q.from_fraction(Fraction(1, 4)))


def test_integration_weight_zero_identity_sampled():
    h = handle(Q.zero(), variables=("x", "y"))
    rng = random.Random(7)
    budget = SampleBudget()
    for _ in range(500):
        f = random_element(h, budget, rng)
        g = random_element(h, budget, rng)
        pf = poly_integrate(f, "x")
        pg = poly_integrate(g, "x")
        assert pf * pg == poly_integrate(f * pg, "x") + poly_integrate(g * pf, "x")


def test_integration_requires_rationals():
    h = poly_handle(("x",), residues(5), residues(5).zero())
    with pytest.raises(RingError):
        poly_integrate(Poly.variable(h, "x"), "x")


def test_scaled_identity_weighted_identity_sampled():
    h = handle(HALF)
    lam = h.weight
    rng = random.Random(5)
    budget = SampleBudget()
    for _ in range(500):
        f = random_element(h, budget, rng)
        g = random_element(h, budget, rng)
        lhs = scaled_identity(f) * scaled_identity(g)
        rhs = (scaled_identity(f * scaled_identity(g))
               + scaled_identity(g * scaled_identity(f))
               + scaled_identity(f * g).scale(lam))
        assert lhs == rhs
    # weight 1 negates; at the unit both sides of the identity are 1
    h1 = handle(Q.one())
    one = Poly.one(h1)
    assert scaled_identity(Poly.variable(h1, "x")) == -Poly.variable(h1, "x")
    assert scaled_identity(one) * scaled_identity(one) == one
    # weight 0 gives the zero map
    h0 = handle(Q.zero())
    assert scaled_identity(Poly.variable(h0, "x")).is_zero


def test_exp_span_operator():
    # the decay mode e_k is the k-th power of E = exp(-t)
    h = poly_handle(("e",), Q)
    e1 = Poly.variable(h, "e")
    e2 = Poly.monomial(h, (2,))
    assert exp_span_rb(e1) == Poly.monomial(h, (1,), -Q.one())
    assert exp_span_rb(e2) == Poly.monomial(h, (2,), -HALF)
    assert exp_span_rb(Poly.zero(h)) == Poly.zero(h)
    assert e1 * e2 == Poly.monomial(h, (3,))
    with pytest.raises(ValueError):
        exp_span_rb(Poly.one(h))
    rng = random.Random(3)
    for _ in range(200):
        f = Poly(h, {(rng.randint(1, 4),): Q.from_int(rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 3))})
        g = Poly(h, {(rng.randint(1, 4),): Q.from_int(rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 3))})
        lhs = exp_span_rb(f) * exp_span_rb(g)
        rhs = exp_span_rb(f * exp_span_rb(g)) + exp_span_rb(g * exp_span_rb(f))
        assert lhs == rhs


def test_handle_nesting_limit():
    h = handle()
    s3 = ShaHandle(ShaHandle(ShaHandle(h)))
    assert s3.depth == 3
    with pytest.raises(ValueError):
        ShaHandle(s3)
    with pytest.raises(ValueError):
        HurwitzHandle(s3, 4)


def test_handle_mismatch_raises():
    a = Poly.variable(handle(), "x")
    b = Poly.variable(handle(variables=("x", "z")), "x")
    with pytest.raises(HandleMismatchError):
        a + b


def test_equal_handles_built_apart_compare_and_hash_equal():
    for build in (lambda: handle(HALF), lambda: ShaHandle(handle(HALF)),
                  lambda: HurwitzHandle(ShaHandle(handle(HALF)), 3)):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(a)  # the kept hash, on a second use
        assert len({a, b}) == 1


def test_replaced_handle_gets_its_own_hash():
    h = handle(HALF)
    hash(h)  # keep h's hash before the copy is made
    other = replace(h, weight=Q.one())
    assert other != h and hash(other) != hash(h)
    assert hash(replace(other, weight=HALF)) == hash(h)
    hh = HurwitzHandle(h, 3)
    hash(hh)
    assert hash(replace(hh, precision=4)) == hash(HurwitzHandle(h, 4)) != hash(hh)


def test_elements_on_equal_handle_objects_combine():
    a, b = handle(HALF), handle(HALF)
    x, y = Poly.variable(a, "x"), Poly.variable(b, "y")
    assert (x + y).terms == {(1, 0): Q.one(), (0, 1): Q.one()}
    assert x * y == Poly.monomial(a, (1, 1)) == Poly.monomial(b, (1, 1))
    f = random_element(HurwitzHandle(a, 2), SampleBudget(), 1)
    g = random_element(HurwitzHandle(b, 2), SampleBudget(), 2)
    assert alg_eq(f * g, g * f) and (f + g).handle == HurwitzHandle(a, 2)


def test_mismatched_handles_still_raise():
    x = Poly.variable(handle(HALF), "x")
    for other in (handle(Q.one()), handle(HALF, ("x", "z"))):
        with pytest.raises(HandleMismatchError):
            x * Poly.variable(other, "x")
    f = random_element(HurwitzHandle(handle(HALF), 2), SampleBudget(), 1)
    g = random_element(HurwitzHandle(handle(HALF), 3), SampleBudget(), 1)
    with pytest.raises(HandleMismatchError):
        f * g


def test_random_element_contract():
    h = handle()
    budget = SampleBudget()
    assert random_element(h, replace(budget, max_terms=0), 1).is_zero
    assert random_element(h, budget, 42) == random_element(h, budget, 42)
    for nested in (ShaHandle(h), HurwitzHandle(h, 4)):
        assert alg_eq(random_element(nested, budget, 9),
                      random_element(nested, budget, 9))
    # pinned regression snapshots, first run fixes them
    assert str(random_element(h, budget, 42)) == "0"
    assert str(random_element(h, budget, 48)) == "2*x*y + 1"


# Two draws each from random.Random(seed), rendered at the commit before the
# term maps were built in place; a change in how random_element consumes its
# generator changes these strings.
RANDOM_DRAWS = [
    ("poly(x,y)", Q, 0, ["3*y^2 - x - y", "-2*x*y"]),
    ("poly(x,y)", Q, 1, ["-3*x*y", "2*y"]),
    ("sha(poly(x,y))", Q, 0, ["1 - (y # x^2)", "1 # y # x"]),
    ("sha(poly(x,y))", Q, 1, ["0", "y + 2*y^2"]),
    ("sha(hur(poly(x),2))", Q, 0, [
        "-3*([2*x^2 + 3*x; 3*x^2; 2; x^2; 0] # [0; 0; -6*x; x^2; 0])"
        " - ([-x; 0; 0; 0; 0] # [-3*x^2 + 2; 0; 0; 0; 0]"
        " # [x^2 + 3; 0; -3*x; x^2; -2*x + 2])", "0"]),
    ("sha(hur(poly(x),2))", Q, 1, [
        "2*([0; 0; 3*x; 0; 0] # [3; 2*x; x; 0; -3] # [0; 2*x^2; 4; -x; 0])", "0"]),
    ("sha(poly(x,y))", Z6, 0, ["1 + 5*(y # x^2)", "1 # y # x"]),
    ("sha(poly(x,y))", Z6, 3, ["5*(x*y # x*y # x*y)", "0"]),
]


@pytest.mark.parametrize("spec,ring,seed,want", RANDOM_DRAWS,
                         ids=[f"{d[0]}-{d[1]}-{d[2]}" for d in RANDOM_DRAWS])
def test_random_element_draws_are_pinned(spec, ring, seed, want):
    lam = ring.from_fraction(Fraction(1, 2)) if ring is Q else ring.one()
    h = parse_handle(spec, ring, lam, 4)
    rng = random.Random(seed)
    assert [str(random_element(h, SampleBudget(), rng)) for _ in want] == want


@pytest.mark.parametrize("ring,a,b", ((Q, 1, -1), (Z6, 2, 4)), ids=str)
def test_substitution_with_cancelling_pieces(ring, a, b):
    # a + b = 0 in the ring, so the images of a*x and b*y cancel
    h = poly_handle(("x", "y"), ring)
    x, y = Poly.variable(h, "x"), Poly.variable(h, "y")
    f = x.scale(ring.from_int(a)) + y.scale(ring.from_int(b)) + x * y
    out = f.substitute({"x": y})
    assert out == y * y and out.terms == {(0, 2): ring.one()}
    assert (f - x * y).substitute({"x": y}).is_zero


def test_hom_power_iterates_an_endomorphism():
    h = handle(variables=("x",))
    d = derivative_on(h, "x")
    x3 = Poly.monomial(h, (3,))
    assert d.power(x3, 0) == x3
    assert d.power(x3, 2) == Poly.monomial(h, (1,), Q.from_int(6))
    assert d.power(x3, 4).is_zero
    assert isinstance(d, Hom) and d.src == d.dst == h


def test_alg_eq_is_precision_bounded_for_series():
    h = handle(variables=("x",))
    hh = HurwitzHandle(h, 4)
    x = Poly.variable(h, "x")
    z = Poly.zero(h)
    from rbshuffle.hurwitz import Series
    f = Series(hh, (x, z, x, z, x))
    g = Series(hh, (x, z, x))
    assert alg_eq(f, g)          # agree up to the smaller precision
    assert f != g                # strict equality sees the missing tail
    assert not alg_eq(f, Series(hh, (z, z, x)))


def test_alg_eq_equivalence_on_samples():
    rng = random.Random(13)
    budget = SampleBudget()
    for h in (handle(), ShaHandle(handle()), HurwitzHandle(handle(), 4)):
        xs = [random_element(h, budget, rng) for _ in range(20)]
        for a in xs:
            assert alg_eq(a, a)
            for b in xs:
                assert alg_eq(a, b) == alg_eq(b, a)
        assert alg_eq(unit(h) * unit(h), unit(h))
        assert alg_eq(zero(h) + unit(h), unit(h))


def test_substitution_homomorphism():
    h = handle()
    x = Poly.variable(h, "x")
    y = Poly.variable(h, "y")
    phi = subst_hom(h, {"x": x + y})
    f = x * x + y
    g = x * y
    assert phi(f * g) == phi(f) * phi(g)
    assert phi(Poly.one(h)) == Poly.one(h)
