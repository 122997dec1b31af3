"""The carrier-swapping map and the structures it lifts."""

import random
from fractions import Fraction

import pytest

from rbshuffle import algebra, distlaw, freerb, hurwitz
from rbshuffle.algebra import (Hom, HandleMismatchError, HurwitzHandle, Poly,
                               SampleBudget, ShaHandle, alg_eq, poly_handle,
                               random_element, scaled_identity_on)
from rbshuffle.coeffs import INTEGERS, RATIONALS, residues
from rbshuffle.distlaw import (beta, beta_hom, lift_costructure, lift_t_structure,
                               mixed_compat_sides)
from rbshuffle.freerb import Tensor
from rbshuffle.hurwitz import Series

Q = RATIONALS
HALF = Q.from_fraction(Fraction(1, 2))
LAMBDAS = (Q.zero(), Q.one(), HALF)


def carriers(lam, precision=4):
    h = poly_handle(("x",), Q, lam)
    hh = HurwitzHandle(h, precision)
    return h, hh, ShaHandle(hh), ShaHandle(h)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_degree_one_is_pointwise_embedding(lam):
    h, hh, sh, sa = carriers(lam)
    rng = random.Random(1)
    f = random_element(hh, SampleBudget(), rng)
    out = beta(freerb.eta(f, sh))
    assert out.precision == f.precision
    for n in range(out.precision + 1):
        assert alg_eq(out.values[n], freerb.eta(f.values[n], sa))


def test_degree_two_index_zero_by_hand():
    h, hh, sh, sa = carriers(HALF)
    rng = random.Random(2)
    f = random_element(hh, SampleBudget(), rng)
    g = random_element(hh, SampleBudget(), rng)
    out = beta(Tensor.from_factors(sh, (f, g)))
    # index 0 of head * lift(tail) merges only the two index-0 values
    expect = Tensor.from_factors(sa, (f.values[0], g.values[0]))
    assert alg_eq(out.values[0], expect)


def inner_carrier(kind, ring, lam):
    x = poly_handle(("x",), ring, lam)
    return {"poly(x)": x, "poly(x,y)": poly_handle(("x", "y"), ring, lam),
            "sha(poly(x))": ShaHandle(x), "hur(poly(x),2)": HurwitzHandle(x, 2)}[kind]


# the weights at q over poly(x) keep their ids; every other case is named
STRUCTURAL_WEIGHTS = [(Q, (0, 1, Fraction(1, 2), Fraction(-2, 3))), (INTEGERS, (-1, 2)),
                      (residues(6), (3, 5)), (residues(4), (2,))]
STRUCTURAL_CASES = [pytest.param(ring, w, kind, id=str(w) if ring == Q and kind == "poly(x)"
                                 and w in (0, 1, Fraction(1, 2)) else f"{ring}-{w}-{kind}")
                    for kind in ("poly(x)", "poly(x,y)", "sha(poly(x))", "hur(poly(x),2)")
                    for ring, weights in STRUCTURAL_WEIGHTS for w in weights]


def ragged_tensor(sh, rng):
    """A sum of up to three pure tensors of length 1 to 3 with coefficients
    in -3..3, whose factors' precisions range from two below the handle's to
    one above it."""
    hh, u = sh.inner, Tensor.zero(sh)
    for _ in range(rng.randint(1, 3)):
        factors = tuple(random_element(hh, SampleBudget(max_tensor_len=2, precision=max(
            hh.precision + rng.randint(-2, 1), 0)), rng) for _ in range(rng.randint(1, 3)))
        u = u + Tensor.from_factors(sh, factors, sh.ring.from_int(rng.randint(-3, 3)))
    return u


def rational_tensor(sh, rng):
    """A sum of up to three pure tensors of length 1 to 3 whose factors are
    scaled by 1/3 or -2/5 and whose coefficients are non-whole rationals, so
    that no factor value or coefficient is integral."""
    hh, u = sh.inner, Tensor.zero(sh)
    budget = SampleBudget(max_tensor_len=2, precision=hh.precision)
    for _ in range(rng.randint(1, 3)):
        factors = tuple(random_element(hh, budget, rng).scale(
            Q.from_fraction(rng.choice((Fraction(1, 3), Fraction(-2, 5)))))
            for _ in range(rng.randint(1, 3)))
        c = Q.from_fraction(rng.choice((Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3))))
        u = u + Tensor.from_factors(sh, factors, c)
    return u


@pytest.mark.parametrize("ring, w, kind", STRUCTURAL_CASES)
def test_matches_independent_structural_recursion(ring, w, kind):
    # oracle: compute the swap directly as head * lift(tail), bypassing the
    # bare recursion the implementation runs, with products of series
    lam = ring.from_fraction(Fraction(w))
    hh = HurwitzHandle(inner_carrier(kind, ring, lam), 4)
    sh, sa = ShaHandle(hh), ShaHandle(hh.inner)
    target = HurwitzHandle(sa, 4)
    lift = hurwitz.lifted_rb(target, freerb.free_rb_operator(sa))

    def embed(f):
        return Series(target, tuple(freerb.eta(v, sa) for v in f.values))

    def direct(u):
        out = Series.zero(target)
        for factors, c in u.terms.items():
            acc = embed(factors[-1])
            for f in reversed(factors[:-1]):
                acc = embed(f) * lift(acc)
            out = out + acc.scale(c)
        return out

    rng = random.Random(31 if kind == "poly(x)" and ring == Q else f"{ring}|{w}|{kind}")
    budget = SampleBudget(max_tensor_len=3, max_terms=2)
    draws = 50 if kind == "poly(x)" else 10
    cases = [random_element(sh, budget, rng) for _ in range(draws)]
    cases += [ragged_tensor(sh, rng) for _ in range(draws // 2)] + [Tensor.zero(sh)]
    if ring == Q and kind in ("poly(x)", "poly(x,y)") and w in (0, Fraction(1, 2),
                                                                 Fraction(-2, 3)):
        rational = random.Random(f"rational|{w}|{kind}")
        cases += [rational_tensor(sh, rational) for _ in range(10)]
    for u in cases:
        cap = min([4] + [f.precision for factors in u.terms for f in factors])
        out = beta(u)
        assert out.precision == cap
        assert out == direct(u).truncate(cap)


def test_beta_makes_no_product_of_series_or_tensors(monkeypatch):
    # every product in the recursion multiplies heads alone: over
    # polynomials no shuffle kernel is built and no series product is taken
    hh = HurwitzHandle(poly_handle(("x", "y"), Q, HALF), 4)
    rng = random.Random(7)
    us = [random_element(ShaHandle(hh), SampleBudget(max_tensor_len=4), rng) for _ in range(5)]
    calls = []
    kernel, series_mul = freerb._Kernel, Series.__mul__
    monkeypatch.setattr(freerb, "_Kernel", lambda *a: calls.append("kernel") or kernel(*a))
    monkeypatch.setattr(Series, "__mul__", lambda *a: calls.append("series") or series_mul(*a))
    assert any(len(t) == 4 for u in us for t in u.terms)
    outs = [beta(u) for u in us]
    assert calls == [] and not any(out.is_zero for out in outs)
    outs[0] * outs[1]  # the wrappers see the products of the series they return
    assert set(calls) == {"kernel", "series"}


def test_beta_is_the_induced_homomorphism_off_polynomials(monkeypatch):
    # tensor and series inners go through freerb.induced_rb_hom, the
    # definition; polynomial inners take the bare pass and never reach it
    calls = []
    induced = freerb.induced_rb_hom
    monkeypatch.setattr(freerb, "induced_rb_hom",
                        lambda *a: calls.append(a[-1].handle) or induced(*a))
    x = poly_handle(("x",), Q, HALF)
    rng = random.Random(11)
    for inner in (ShaHandle(HurwitzHandle(ShaHandle(x), 2)),
                  ShaHandle(HurwitzHandle(HurwitzHandle(x, 2), 2)),
                  ShaHandle(HurwitzHandle(poly_handle(("x", "y"), Q, HALF), 2))):
        calls.clear()
        u = random_element(inner, SampleBudget(max_tensor_len=2), rng)
        beta(u)
        assert calls == ([] if isinstance(inner.inner.inner, algebra.PolyHandle) else [inner])


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_intertwines_prepend_with_lift(lam):
    h, hh, sh, sa = carriers(lam)
    lift = hurwitz.lifted_rb(HurwitzHandle(sa, 4), freerb.free_rb_operator(sa))
    rng = random.Random(3)
    budget = SampleBudget(max_tensor_len=2, max_terms=2)
    for _ in range(50):
        u = random_element(sh, budget, rng)
        assert alg_eq(beta(freerb.rb_prepend(u)), lift(beta(u)))


# beta against its coalgebraic characterisation: beta(u)(n) = sha(counit)(D^n u),
# D the free derivation that the shift induces on sha(hur(A)); the free
# derivation and the counit never reach beta's series products
ORACLE_WEIGHTS = [(Q, (0, 1, Fraction(1, 2), Fraction(-2, 3))),
                  (INTEGERS, (0, 1, 2, -1)),
                  (residues(6), (0, 1, 5, 3))]


def coalgebraic_cases():
    """(beta(u), [sha(counit)(D^n u) for n <= 3]) for 15 random u per weight,
    lazily, with D^n u and beta(u) computed when a case is read."""
    budget = SampleBudget(max_tensor_len=3, precision=3)
    for ring, weights in ORACLE_WEIGHTS:
        for w in weights:
            hh = HurwitzHandle(poly_handle(("x",), ring, ring.from_fraction(Fraction(w))), 3)
            sh = ShaHandle(hh)
            d = freerb.free_derivation(sh, hurwitz.shift_derivation(hh))
            eps = freerb.sha_hom(hurwitz.counit_hom(hh))
            rng = random.Random(f"{ring}|{w}")
            for _ in range(15):
                u = random_element(sh, budget, rng)
                yield beta(u), [eps(d.power(u, n)) for n in range(4)]


def coalgebraic_mismatch(case) -> bool:
    out, want = case
    return out.precision != 3 or list(out.values) != want


def test_beta_matches_the_coalgebraic_oracle():
    cases = list(coalgebraic_cases())
    assert len(cases) == 180
    assert not [case for case in cases if coalgebraic_mismatch(case)]


def test_coalgebraic_oracle_catches_misprinted_seams(monkeypatch):
    def misprinted(factors, d, lam):  # criterion 9's: the weighted term keeps rest[0]
        one = lam.ring.one()
        x0, rest = factors[0], factors[1:]
        if not rest:
            return [(one, (d(x0),))]
        out = [(one, (d(x0),) + rest), (one, (x0 * rest[0],) + rest[1:])]
        if not lam.is_zero:
            out.append((lam, (d(x0) * rest[0],) + rest))
        return out

    original = hurwitz._lambda_power
    for owner, name, mutant in ((freerb, "_free_derivation_terms", misprinted),
                                (hurwitz, "_lambda_power",
                                 lambda lam, k: original(lam + lam.ring.one(), k))):
        with monkeypatch.context() as mp:
            mp.setattr(owner, name, mutant)
            assert any(map(coalgebraic_mismatch, coalgebraic_cases())), name


def test_zero_and_unit():
    h, hh, sh, sa = carriers(Q.one())
    assert beta(Tensor.zero(sh)).is_zero
    assert alg_eq(beta(Tensor.one(sh)), Series.one(HurwitzHandle(sa, 4)))


def test_precision_contract():
    h, hh, sh, sa = carriers(Q.one())
    x = Poly.variable(h, "x")
    f3 = Series(hh, (x, x, x, x))          # precision 3
    f4 = Series(hh, (x, x, x, x, x))       # precision 4
    u = Tensor.from_factors(sh, (f4, f3))
    assert beta(u).precision == 3          # the scarcest factor wins


def test_beta_requires_series_factors():
    h = poly_handle(("x",), Q, Q.one())
    with pytest.raises(HandleMismatchError):
        beta(Tensor.one(ShaHandle(h)))
    with pytest.raises(HandleMismatchError):
        beta_hom(ShaHandle(h))


def test_distributive_conditions_on_ragged_factors():
    # factors of unequal precision: everything restricts to the scarcest one
    h, hh, sh, sa = carriers(HALF)
    x = Poly.variable(h, "x")
    one = Poly.one(h)
    f = Series(hh, (x, one, x))                    # precision 2
    g = Series(hh, (one, x, one, x, one))          # precision 4
    u = Tensor.from_factors(sh, (f, g))
    out = beta(u)
    assert out.precision == 2
    assert alg_eq(hurwitz.counit(out), freerb.sha_map(hurwitz.counit_hom(hh), u))
    left = hurwitz.comult(out)
    mid = beta(freerb.sha_map(hurwitz.comult_hom(hh), u))
    right = hurwitz.map_pointwise(beta_hom(sh), mid)
    assert alg_eq(left, right)


def test_structure_shape_validation():
    h, hh, sh, sa = carriers(Q.one())
    not_structure = hurwitz.counit_hom(hh)
    with pytest.raises(HandleMismatchError):
        lift_t_structure(not_structure, 4)
    not_costructure = freerb.eta_hom(h)
    with pytest.raises(HandleMismatchError):
        lift_costructure(not_costructure, Tensor.one(sa))
    with pytest.raises(HandleMismatchError):
        Series(hh, (Poly.one(poly_handle(("y",), Q, Q.one())),))


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_lifted_structure_unit_law(lam):
    h, hh, sh, sa = carriers(lam)
    base = freerb.structure_hom(scaled_identity_on(h))
    lifted = lift_t_structure(base, 4)
    rng = random.Random(4)
    for _ in range(30):
        f = random_element(hh, SampleBudget(), rng)
        assert alg_eq(lifted(freerb.eta(f, sh)), f)
    assert lifted(Tensor.zero(sh)).is_zero


def test_lifted_structure_matches_direct_composite():
    # one fixed degree-2 sample, evaluated both through the lifted structure
    # and by hand through the lift of the base operator
    lam = Q.one()
    h, hh, sh, sa = carriers(lam)
    x = Poly.variable(h, "x")
    one = Poly.one(h)
    f = Series(hh, (x, one, x, one, x))
    g = Series(hh, (one, x, one, x, one))
    u = Tensor.from_factors(sh, (f, g))
    base_op = scaled_identity_on(h)
    lifted_op = hurwitz.lifted_rb(hh, base_op)
    direct = f * lifted_op(g)
    lifted = lift_t_structure(freerb.structure_hom(base_op), 4)
    assert alg_eq(lifted(u), direct)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_lifted_costructure_examples(lam):
    h, hh, sh, sa = carriers(lam)
    d = (algebra.derivative_on(h, "x") if lam.is_zero
         else algebra.difference_quotient_on(h, "x"))
    co = hurwitz.costructure_hom(d, 4)
    rng = random.Random(5)
    a = random_element(h, SampleBudget(), rng)
    out = lift_costructure(co, freerb.eta(a, sa))
    fa = co(a)
    for n in range(4 + 1):
        assert alg_eq(out.values[n], freerb.eta(fa.values[n], sa))
    # units map to the unit series
    assert alg_eq(lift_costructure(co, Tensor.one(sa)),
                  Series.one(HurwitzHandle(sa, 4)))
    # index 0 recovers the argument
    u = random_element(sa, SampleBudget(max_tensor_len=2, max_terms=2), rng)
    assert alg_eq(hurwitz.counit(lift_costructure(co, u)), u)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_mixed_compat_free_pair_commutes(lam):
    h, hh, sh, sa = carriers(lam)
    d = (algebra.derivative_on(h, "x") if lam.is_zero
         else algebra.difference_quotient_on(h, "x"))
    evaluation = freerb.structure_hom(freerb.free_rb_operator(sa))
    costr = hurwitz.costructure_hom(freerb.free_derivation(sa, d), 4)
    rng = random.Random(6)
    budget = SampleBudget(max_tensor_len=2, max_terms=2)
    for _ in range(20):
        w = random_element(ShaHandle(sa), budget, rng)
        assert alg_eq(*mixed_compat_sides(evaluation, costr, w))


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_mixed_compat_zero_derivation_fails(lam):
    # the zero derivation never splits the scaled identity: the square
    # must break
    h, hh, sh, sa = carriers(lam)
    evaluation = freerb.structure_hom(scaled_identity_on(h))
    costr = hurwitz.costructure_hom(Hom(h, h, lambda f: algebra.zero(h), name="0"), 4)
    x = Poly.variable(h, "x")
    one = Poly.one(h)
    bad = Tensor.from_factors(sa, (x, one))
    assert not alg_eq(*mixed_compat_sides(evaluation, costr, bad))
    # by hand: the right side sees x at index 1, the left side is flat
    rhs = hurwitz.map_pointwise(evaluation, beta(freerb.sha_map(costr, bad)))
    assert rhs.values[1] == x
    lhs = costr(evaluation(bad))
    assert lhs.values[1].is_zero
