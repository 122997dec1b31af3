"""Series carrier: weighted product, shift, comultiplication, lift, Leibniz."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

import rbshuffle
from rbshuffle.algebra import (HurwitzHandle, Poly, PolyHandle, SampleBudget, ShaHandle,
                               alg_eq, derivative_on, difference_quotient_on,
                               integration_on, poly_handle, random_element,
                               scaled_identity_on, zero)
from rbshuffle.coeffs import INTEGERS, RATIONALS, RingError, residues
from rbshuffle import algebra, freerb, hurwitz
from rbshuffle.hurwitz import (PrecisionError, Series, comult, comult_hom,
                               costructure_hom, counit, counit_hom,
                               derivation_series, higher_leibniz, lifted_rb,
                               map_pointwise, pointwise_hom, rb_lift_apply,
                               shift, shift_derivation)
from rbshuffle.algebra import subst_hom

Q = RATIONALS
HALF = Q.from_fraction(Fraction(1, 2))
LAMBDAS = (Q.zero(), Q.one(), HALF)


def make(lam=None, precision=4):
    h = poly_handle(("x",), Q, lam)
    return h, HurwitzHandle(h, precision)


def rnd(hh, rng):
    return random_element(hh, SampleBudget(), rng)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_product_low_indices_by_hand(lam):
    h, hh = make(lam)
    rng = random.Random(1)
    f = rnd(hh, rng)
    g = rnd(hh, rng)
    fg = f * g
    two = Q.from_int(2)
    # index 0: heads multiply
    assert fg.values[0] == f.values[0] * g.values[0]
    # index 1: f1 g0 + f0 g1 + w f1 g1
    assert fg.values[1] == (f.values[1] * g.values[0] + f.values[0] * g.values[1]
                            + (f.values[1] * g.values[1]).scale(lam))
    # index 2: f2 g0 + 2 f1 g1 + f0 g2 + 2w f2 g1 + 2w f1 g2 + w^2 f2 g2
    assert fg.values[2] == (f.values[2] * g.values[0]
                            + (f.values[1] * g.values[1]).scale(two)
                            + f.values[0] * g.values[2]
                            + (f.values[2] * g.values[1]).scale(two * lam)
                            + (f.values[1] * g.values[2]).scale(two * lam)
                            + (f.values[2] * g.values[2]).scale(lam * lam))


def test_unit_series():
    h, hh = make(Q.one())
    rng = random.Random(2)
    f = rnd(hh, rng)
    assert f * Series.one(hh) == f
    assert Series.one(hh).values[0] == Poly.one(h)
    assert all(v.is_zero for v in Series.one(hh).values[1:])


def test_shift_examples():
    h, hh = make()
    x = Poly.variable(h, "x")
    f = Series(hh, (x, x * x, Poly.one(h)))
    shifted = shift(f)
    assert shifted.values == (x * x, Poly.one(h)) and shifted.precision == 1
    assert shift(Series.one(hh)).is_zero
    with pytest.raises(PrecisionError):
        shift(Series(hh, (x,)))


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_shift_is_weighted_derivation(lam):
    h, hh = make(lam)
    rng = random.Random(3)
    for _ in range(300):
        f = rnd(hh, rng)
        g = rnd(hh, rng)
        lhs = shift(f * g)
        rhs = shift(f) * g + f * shift(g) + (shift(f) * shift(g)).scale(lam)
        assert alg_eq(lhs, rhs)


def test_counit_and_comult_examples():
    h, hh = make()
    x = Poly.variable(h, "x")
    a = (x, x * x, Poly.one(h), x, Poly.zero(h))
    f = Series(hh, a)
    assert counit(f) == x
    assert counit(Series.one(hh)) == Poly.one(h)
    split = comult(f)
    # triangle value (1, 1) is f(2); row 0 is f itself
    assert split.values[1].values[1] == a[2]
    assert split.values[0] == f
    assert alg_eq(counit(split), f)
    g = rnd(hh, random.Random(4))
    assert counit(f + g) == counit(f) + counit(g)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_rb_lift_examples(lam):
    h, hh = make(lam)
    x = Poly.variable(h, "x")
    base = scaled_identity_on(h)
    f = Series(hh, (x, x * x))
    lifted = rb_lift_apply(f, base)
    assert lifted.precision == 2
    assert lifted.values == (base(x), x, x * x)
    rng = random.Random(5)
    op = lifted_rb(hh, base)
    for _ in range(300):
        g = rnd(hh, rng)
        k = rnd(hh, rng)
        assert alg_eq(shift(op(g)), g)
        assert counit(op(g)) == base(counit(g))
        lhs = op(g) * op(k)
        rhs = op(g * op(k)) + op(k * op(g)) + op(g * k).scale(lam)
        assert alg_eq(lhs, rhs)


def test_pointwise_map_examples():
    h, hh = make(HALF)
    x = Poly.variable(h, "x")
    phi = subst_hom(h, {"x": x * x})
    rng = random.Random(6)
    f = rnd(hh, rng)
    mapped = map_pointwise(phi, f)
    assert mapped.precision == f.precision
    assert counit(mapped) == phi(counit(f))
    assert alg_eq(shift(mapped), map_pointwise(phi, shift(f)))
    ident = pointwise_hom(subst_hom(h, {}), 4)
    assert ident(f) == f


def test_derivation_series_examples():
    h, hh = make(Q.zero())
    x = Poly.variable(h, "x")
    d = derivative_on(h, "x")
    two = Poly.one(h).scale(Q.from_int(2))
    tower = derivation_series(x * x, d, 3)
    assert tower.values == (x * x, two * x, two, Poly.zero(h))
    assert derivation_series(Poly.one(h), d, 4) == Series.one(HurwitzHandle(h, 4))


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_derivation_series_is_multiplicative(lam):
    h, hh = make(lam)
    d = derivative_on(h, "x") if lam.is_zero else difference_quotient_on(h, "x")
    co = costructure_hom(d, 4)
    rng = random.Random(7)
    for _ in range(100):
        a = random_element(h, SampleBudget(), rng)
        b = random_element(h, SampleBudget(), rng)
        assert alg_eq(co(a * b), co(a) * co(b))


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_higher_leibniz_examples(lam):
    h, hh = make(lam)
    d = derivative_on(h, "x") if lam.is_zero else difference_quotient_on(h, "x")
    rng = random.Random(8)
    x = random_element(h, SampleBudget(), rng)
    y = random_element(h, SampleBudget(), rng)
    # order 0 is the plain product, order 1 the weighted rule
    assert higher_leibniz(x, y, d, 0) == x * y
    assert higher_leibniz(x, y, d, 1) == d(x) * y + x * d(y) + (d(x) * d(y)).scale(lam)
    # order 2 against independent iteration
    assert higher_leibniz(x, y, d, 2) == d(d(x * y))
    for n in range(6):
        assert higher_leibniz(x, y, d, n) == d.power(x * y, n)


def test_series_strict_vs_bounded_equality():
    h, hh = make()
    x = Poly.variable(h, "x")
    z = Poly.zero(h)
    f = Series(hh, (x, z, z, z, z))
    g = Series(hh, (x, z))
    assert alg_eq(f, g) and f != g
    assert hash(Series(hh, (x, z))) == hash(Series(hh, (x, z)))


def test_comonad_structure_on_samples():
    h, hh = make(HALF)
    rng = random.Random(9)
    for _ in range(100):
        f = rnd(hh, rng)
        split = comult(f)
        assert alg_eq(counit(split), f)
        assert alg_eq(map_pointwise(counit_hom(hh), split), f)
        assert alg_eq(comult(split), map_pointwise(comult_hom(hh), split))


# --------------------------------------------------------------------------
# The pair-form product against the triple sum it replaced


def triple_sum_product(f, g):
    """The weighted product as a triple sum over (n, k, j):
    (fg)(n) = sum C(n,k) C(n-k,j) w^k f(n-j) g(k+j).  Series-valued inner
    products recurse into this sum too, so no product goes through the
    kernel under test."""
    if not isinstance(f, Series):
        return f * g
    ring, lam = f.handle.ring, f.handle.weight
    values = []
    for n in range(min(f.precision, g.precision) + 1):
        acc = zero(f.handle.inner)
        for k in range(n + 1):
            wk = lam.pow_nat(k)
            for j in range(n - k + 1):
                c = ring.from_int(comb(n, k) * comb(n - k, j)) * wk
                if not c.is_zero:
                    acc = acc + triple_sum_product(f.values[n - j], g.values[k + j]).scale(c)
        values.append(acc)
    return Series(f.handle, values)


# zmod:4 at weight 2 has w^2 = 0; -2/3 and 1/2 give every power of w > 1 a
# denominator, which the kernel clears with one common factor
ORACLE_RINGS = (RATIONALS, INTEGERS, residues(6), residues(4))
THIRD = Q.from_fraction(Fraction(1, 3))


def oracle_weights(ring):
    out = [ring.from_int(w) for w in (0, 1, 2, -1)]
    if ring.is_rational:
        out += [HALF, Q.from_fraction(Fraction(-2, 3))]
    elif ring == INTEGERS:
        out.append(ring.from_int(-3))
    return out


def oracle_cases():
    for ring in ORACLE_RINGS:
        for lam in oracle_weights(ring):
            yield pytest.param(ring, lam, id=f"{ring}-{lam.render_bare()}")


def oracle_carriers(ring, lam):
    """(carrier, largest operand precision drawn) for hur(poly(x,y),N) with
    N in {0, 1, 5}, hur(sha(poly(x)),3) and hur(hur(poly(x),2),3)."""
    xy = poly_handle(("x", "y"), ring, lam)
    x = poly_handle(("x",), ring, lam)
    return [(HurwitzHandle(xy, 0), 0), (HurwitzHandle(xy, 1), 1), (HurwitzHandle(xy, 5), 5),
            (HurwitzHandle(ShaHandle(x), 3), 3),
            (HurwitzHandle(HurwitzHandle(x, 2), 3), 2)]


BIG = 2 ** 70 + 1  # coefficients beyond a machine word


def edge_pairs(handle, rng):
    """Operand pairs on poly(x,y) or on hur(poly(x,y),N) at the edges of the
    packed polynomial kernel: coefficients beyond 2^64, products +-(2^8 - 1)
    and +-(2^64 - 1) that fill a whole number of digit bytes, a different
    denominator on each side (q), zero and constant operands, values of
    degree 420 on series (packed rows of kilobytes), and, on series, a pair
    whose products cancel in the value-1 row: [a; b] * [-(a + w*b); b] has
    b*(-(a + w*b)) + a*b + w*b*b = 0 there."""
    ring = handle.ring
    budget = SampleBudget(precision=getattr(handle, "precision", 0))
    f, g = random_element(handle, budget, rng), random_element(handle, budget, rng)
    inner = handle.inner if isinstance(handle, HurwitzHandle) else handle
    constants = [Poly.one(inner).scale(ring.from_int(c)) for c in (3, -2, 5, 7, 1, -4)]
    const = (Series(handle, constants[:handle.precision + 1])
             if isinstance(handle, HurwitzHandle) else constants[0])
    pairs = [(f.scale(ring.from_int(BIG)), g.scale(ring.from_int(-BIG - 2))),
             (zero(handle), g), (f, zero(handle)), (const, const), (const, g), (f, const)]
    x = Poly.variable(inner, "x")
    for c in (2 ** 8 - 1, 1 - 2 ** 8, 2 ** 64 - 1, 1 - 2 ** 64):
        # a single product whose coefficient is the whole row bound
        pair = (x.scale(ring.from_int(c)), Poly.one(inner))
        if isinstance(handle, HurwitzHandle):
            pad = (zero(inner),) * handle.precision
            pair = tuple(Series(handle, (v,) + pad) for v in pair)
        pairs.append(pair)
    if ring.is_rational:
        pairs.append((f.scale(THIRD), g.scale(Q.from_fraction(Fraction(-5, 7)))))
    if isinstance(handle, HurwitzHandle):
        spread = Poly(inner, {(7 * k, 0): ring.from_int(k - 30) for k in range(61)})
        pairs.append(tuple(Series(handle, (spread,) + v.values[1:]) for v in (f, g)))
        if handle.precision >= 1:
            y = Poly.variable(inner, "y")
            a, b = x * x - y.scale(ring.from_int(3)) + Poly.one(inner), x * y + y
            lead = (a, b) + f.values[2:]
            tail = (-(a + b.scale(handle.weight)), b) + g.values[2:]
            pairs.append((Series(handle, lead), Series(handle, tail)))
    return pairs


@pytest.mark.parametrize("ring,lam", oracle_cases())
def test_product_matches_triple_sum(ring, lam):
    rng = random.Random(f"pair-form:{ring}:{lam.value}")
    for hh, top in oracle_carriers(ring, lam):
        for _ in range(4):
            pf, pg = rng.randint(0, top), rng.randint(0, top)
            f = random_element(hh, SampleBudget(precision=pf), rng)
            g = random_element(hh, SampleBudget(precision=pg), rng)
            fg = f * g
            assert fg.precision == min(pf, pg)
            assert fg == triple_sum_product(f, g)
            if ring.is_rational:  # values with Fraction coefficients
                f, g = f.scale(THIRD), g.scale(THIRD)
                assert f * g == triple_sum_product(f, g)
        if isinstance(hh.inner, PolyHandle):
            pairs = edge_pairs(hh, rng)
            for f, g in pairs:
                assert f * g == triple_sum_product(f, g)
            if hh.precision >= 1:
                assert (pairs[-1][0] * pairs[-1][1]).values[1].is_zero


@pytest.mark.parametrize("ring,lam", oracle_cases())
def test_higher_leibniz_matches_iteration_over_rings(ring, lam):
    rng = random.Random(f"leibniz:{ring}:{lam.value}")
    h = poly_handle(("x", "y"), ring, lam)
    derivations = [shift_derivation(HurwitzHandle(h, 5))]
    if lam.is_zero:
        derivations.append(derivative_on(h, "x"))
    else:
        derivations.append(difference_quotient_on(h, "x"))
    for d in derivations:
        for n in range(5):
            x = random_element(d.src, SampleBudget(), rng)
            y = random_element(d.src, SampleBudget(), rng)
            assert higher_leibniz(x, y, d, n) == d.power(x * y, n)
        for x, y in edge_pairs(d.src, rng):
            for n in range(4):
                assert higher_leibniz(x, y, d, n) == d.power(x * y, n)


def sparse_wide_series(handle, rng, terms=100, degree=15):
    return Series(handle, [Poly(handle.inner, {
        tuple(rng.randint(0, degree) for _ in handle.inner.variables):
        handle.ring.from_int(rng.randint(-9, 9) or 1) for _ in range(terms)})
        for _ in range(handle.precision + 1)])


def test_polynomial_kernel_packs_only_where_it_is_cheaper(monkeypatch):
    # Sparse values whose keys spread wide (100 terms of degree <= 15 in
    # three variables) read back more digits than there are term pairs, and
    # their packed ints span 31^3 digits: the product there goes term by
    # term, dense low-degree values pack
    calls = []
    monkeypatch.setattr(algebra, "_pair_sums", lambda *a, real=algebra._pair_sums:
                        calls.append(a) or real(*a))
    rng = random.Random("sparse-wide")
    sparse = HurwitzHandle(poly_handle(("x", "y", "z"), Q, Q.one()), 2)
    f, g = sparse_wide_series(sparse, rng), sparse_wide_series(sparse, rng)
    assert f * g == triple_sum_product(f, g)
    assert len(calls) == 1
    dense = HurwitzHandle(poly_handle(("x", "y"), Q, Q.one()), 8)
    f, g = sparse_wide_series(dense, rng, 15, 4), sparse_wide_series(dense, rng, 15, 4)
    assert f * g == triple_sum_product(f, g)
    assert len(calls) == 1


def test_packed_kernel_guard_bounds_memory():
    # packed, a row would span about 513^4 digits of the exponent base 513;
    # under a 1 GiB address-space cap the product must still come out, term
    # by term
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from rbshuffle.cli import main; sys.exit(main(sys.argv[1:]))")
    expr = "[w^256*x^256*y^256*z^256; 1] * [w^256*x^256*y^256*z^256 + 1; x]"
    env = dict(os.environ, PYTHONPATH=str(Path(rbshuffle.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, "eval", "--lambda", "1",
                           "--handle", "hur(poly(w,x,y,z),1)", "--", expr],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.strip() == (
        "[w^512*x^512*y^512*z^512 + w^256*x^256*y^256*z^256; "
        "w^256*x^257*y^256*z^256 + w^256*x^256*y^256*z^256 + x + 1]")


# --------------------------------------------------------------------------
# Tensor and series inners against the per-pair element sum


def per_pair_product(f, g):
    """The weighted product in pair form, summed as elements: each kept pair
    gives one ``Tensor`` or ``Series`` product f(i)g(l), scaled and added
    with ``+``, so each value keeps the smallest precision that enters it."""
    ring, lam = f.handle.ring, f.handle.weight
    values = []
    for n in range(min(f.precision, g.precision) + 1):
        acc = zero(f.handle.inner)
        for i in range(n + 1):
            for l in range(n - i, n + 1):
                k = i + l - n
                count = factorial(n) // (factorial(k) * factorial(n - i) * factorial(n - l))
                c = ring.from_int(count) * lam.pow_nat(k)
                if not c.is_zero:
                    acc = acc + (f.values[i] * g.values[l]).scale(c)
        values.append(acc)
    return Series(f.handle, values)


NESTED_WEIGHTS = [(Q, Q.zero()), (Q, Q.one()), (Q, HALF), (Q, Q.from_fraction(Fraction(-2, 3))),
                  (INTEGERS, INTEGERS.from_int(-1)), (residues(4), residues(4).from_int(2)),
                  (residues(6), residues(6).from_int(3))]


def ragged(f, rng):
    """f with some values zero and, over a series inner, the others cut to
    random precisions of their own."""
    values = []
    for v in f.values:
        if rng.random() < 0.2:
            v = zero(f.handle.inner)
        elif isinstance(v, Series):
            v = v.truncate(rng.randint(0, v.precision))
        values.append(v)
    return Series(f.handle, values)


@pytest.mark.parametrize("ring,lam", [pytest.param(r, w, id=f"{r}-{w.render_bare()}")
                                      for r, w in NESTED_WEIGHTS])
def test_nested_inner_products_match_per_pair_element_sum(ring, lam):
    rng = random.Random(f"per-pair:{ring}:{lam.value}")
    xy = poly_handle(("x", "y"), ring, lam)
    x = poly_handle(("x",), ring, lam)
    deepest = HurwitzHandle(HurwitzHandle(x, 1), 1)  # series of series as inner values
    for n in range(5):
        for hh in (HurwitzHandle(ShaHandle(xy), n), HurwitzHandle(HurwitzHandle(x, 2), n),
                   HurwitzHandle(deepest, min(n, 2)), HurwitzHandle(ShaHandle(ShaHandle(x)), n),
                   HurwitzHandle(ShaHandle(HurwitzHandle(x, 1)), n)):
            for _ in range(2):
                budget = SampleBudget(precision=rng.randint(0, n))
                f = ragged(random_element(hh, budget, rng), rng)
                g = ragged(random_element(hh, budget, rng), rng)
                fg = f * g
                assert fg == per_pair_product(f, g)
                if ring.is_rational:  # values with Fraction coefficients
                    f, g = f.scale(THIRD), g.scale(THIRD)
                    assert f * g == per_pair_product(f, g)


def test_tensor_inner_product_reaches_the_merge_weight(monkeypatch):
    h = poly_handle(("x",), Q, Q.one())
    pairs = [(random_element(hh, budget, 11), random_element(hh, budget, 12))
             for hh, budget in ((HurwitzHandle(ShaHandle(h), 2), SampleBudget(max_tensor_len=3)),
                                (HurwitzHandle(ShaHandle(ShaHandle(h)), 2),
                                 SampleBudget(max_tensor_len=2, precision=2)))]
    before = [f * g for f, g in pairs]
    monkeypatch.setattr(freerb, "_merge_weight", lambda handle: handle.weight + handle.ring.one())
    for (f, g), fg in zip(pairs, before):
        assert f * g != fg


def test_series_inner_product_reaches_the_lambda_power(monkeypatch):
    h = poly_handle(("x",), Q, Q.one())
    hh = HurwitzHandle(HurwitzHandle(h, 2), 2)
    f = random_element(hh, SampleBudget(precision=2), 13)
    g = random_element(hh, SampleBudget(precision=2), 14)
    before = f * g
    original = hurwitz._lambda_power
    monkeypatch.setattr(hurwitz, "_lambda_power",
                        lambda lam, k: original(lam + lam.ring.one(), k))
    assert f * g != before


def test_cached_pair_table_follows_the_lambda_power(monkeypatch):
    # the weighted pair table is cached across products; a patched seam is a
    # new cache key, so the same product changes and, once restored, comes back
    h, hh = make(HALF, 3)
    x = Poly.variable(h, "x")
    f, g = rnd(hh, random.Random(15)), rnd(hh, random.Random(16))
    d = derivative_on(h, "x")
    before = f * g, higher_leibniz(x * x, x * x * x, d, 3)
    assert before == (f * g, higher_leibniz(x * x, x * x * x, d, 3))
    original = hurwitz._lambda_power
    with monkeypatch.context() as mp:
        mp.setattr(hurwitz, "_lambda_power", lambda lam, k: original(lam + lam.ring.one(), k))
        assert f * g != before[0]
        assert higher_leibniz(x * x, x * x * x, d, 3) != before[1]
    assert (f * g, higher_leibniz(x * x, x * x * x, d, 3)) == before


def test_mixed_ring_coefficients_rejected():
    # z coefficients on a q carrier: products of z values stay in z, so only
    # the check against the carrier's ring catches them, and it runs where a
    # coefficient enters a term map, before any series or product holds it
    h = poly_handle(("x",), Q, Q.one())
    with pytest.raises(RingError):
        Poly(h, {(1,): INTEGERS.from_int(2)})
    x = Poly.variable(h, "x")
    with pytest.raises(RingError):
        freerb.Tensor(ShaHandle(h), {(x, x): INTEGERS.from_int(2)})
    # a scalar from z scales neither a value nor a series of them
    f = Series(HurwitzHandle(h, 2), (x, x, x))
    with pytest.raises(RingError):
        x.scale(INTEGERS.from_int(2))
    with pytest.raises(RingError):
        f.scale(INTEGERS.from_int(2))


def test_tensor_inner_product_checks_the_merge_weight_ring(monkeypatch):
    hh = HurwitzHandle(ShaHandle(poly_handle(("x",), Q, Q.one())), 1)
    f = random_element(hh, SampleBudget(precision=1), 3)
    monkeypatch.setattr(freerb, "_merge_weight", lambda handle: residues(6).one())
    with pytest.raises(RingError):
        f * f
