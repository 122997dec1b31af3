"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every comparison is equality of canonical forms (series compare on the
common precision), so the tolerance everywhere is exact-zero.  Each test
prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from rbshuffle import algebra, distlaw, freerb, hurwitz, laws
from rbshuffle.algebra import (HurwitzHandle, Poly, SampleBudget, ShaHandle,
                               alg_eq, poly_handle, random_element,
                               scaled_identity_on)
from rbshuffle.coeffs import RATIONALS
from rbshuffle.freerb import Tensor, interleavings
from rbshuffle.hurwitz import Series

Q = RATIONALS
HALF = Q.from_fraction(Fraction(1, 2))
LAMBDAS = (Q.zero(), Q.one(), HALF)
PRECISION = 4


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _cycle(i):
    return LAMBDAS[i % len(LAMBDAS)]


def test_criterion_1_worked_example():
    ok = True
    for lam in LAMBDAS:
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
        ok = ok and lhs == rhs
    _verdict("1 worked-example expansion (weights 0, 1, 1/2)", ok)


def test_criterion_2_rb_identity():
    rng = random.Random(202)
    budget = SampleBudget(max_tensor_len=3, max_degree=2)
    ok = True
    for i in range(300):
        lam = _cycle(i)
        sha2 = ShaHandle(poly_handle(("x", "y"), Q, lam))
        op = freerb.free_rb_operator(sha2)
        u = random_element(sha2, budget, rng)
        v = random_element(sha2, budget, rng)
        ok = ok and alg_eq(*laws._rb_identity_sides(op, u, v, lam))
    for i in range(300):
        lam = _cycle(i)
        hh = HurwitzHandle(poly_handle(("x",), Q, lam), PRECISION)
        lift = hurwitz.lifted_rb(hh, scaled_identity_on(hh.inner))
        f = random_element(hh, budget, rng)
        g = random_element(hh, budget, rng)
        ok = ok and alg_eq(*laws._rb_identity_sides(lift, f, g, lam))
        if lam.is_zero:
            lift0 = hurwitz.lifted_rb(hh, algebra.integration_on(hh.inner, "x"))
            ok = ok and alg_eq(*laws._rb_identity_sides(lift0, f, g, lam))
    _verdict("2 Rota-Baxter identity (prepend on tensors; series lift), 300+300", ok)


def test_criterion_3_weighted_derivation_laws():
    rng = random.Random(303)
    budget = SampleBudget()
    ok = True
    # the shift on series, all cycled weights
    for i in range(300):
        lam = _cycle(i)
        hh = HurwitzHandle(poly_handle(("x",), Q, lam), PRECISION)
        d = hurwitz.shift_derivation(hh)
        f = random_element(hh, budget, rng)
        g = random_element(hh, budget, rng)
        ok = ok and alg_eq(*laws._leibniz_sides(d, f, g, lam))
        ok = ok and d(Series.one(hh)).is_zero
    # the free derivation over the formal derivative at weight zero, and
    # over the difference quotient at weight 1/2
    for lam, base in ((Q.zero(), "derivative"), (HALF, "difference")):
        h = poly_handle(("x",), Q, lam)
        s = ShaHandle(h)
        d0 = (algebra.derivative_on(h, "x") if base == "derivative"
              else algebra.difference_quotient_on(h, "x"))
        d = freerb.free_derivation(s, d0)
        for _ in range(300):
            u = random_element(s, budget, rng)
            v = random_element(s, budget, rng)
            ok = ok and alg_eq(*laws._leibniz_sides(d, u, v, lam))
        ok = ok and d(Tensor.one(s)).is_zero
    _verdict("3 weighted Leibniz + unit annihilation (shift; free derivation), 300 each", ok)


def test_criterion_4_higher_leibniz():
    h = poly_handle(("x",), Q, HALF)
    d = algebra.difference_quotient_on(h, "x")
    rng = random.Random(404)
    budget = SampleBudget()
    ok = True
    for i in range(100):
        n = i % 6
        x = random_element(h, budget, rng)
        y = random_element(h, budget, rng)
        ok = ok and hurwitz.higher_leibniz(x, y, d, n) == d.power(x * y, n)
    _verdict("4 closed-form higher Leibniz vs iterated difference quotient, n <= 5", ok)


def test_criterion_5_distributive_law_conditions():
    rng = random.Random(505)
    budget = SampleBudget(max_tensor_len=2, max_terms=2)
    ok_unit = ok_counit = ok_comult = ok_mult = True
    for i in range(100):
        lam = _cycle(i)
        h = poly_handle(("x",), Q, lam)
        hh = HurwitzHandle(h, PRECISION)
        sh = ShaHandle(hh)
        sa = ShaHandle(h)
        f = random_element(hh, budget, rng)
        lhs = distlaw.beta(freerb.eta(f, sh))
        rhs = hurwitz.map_pointwise(freerb.eta_hom(h), f)
        ok_unit = ok_unit and alg_eq(lhs, rhs)
        u = random_element(sh, budget, rng)
        ok_counit = ok_counit and alg_eq(
            hurwitz.counit(distlaw.beta(u)),
            freerb.sha_map(hurwitz.counit_hom(hh), u))
        left = hurwitz.comult(distlaw.beta(u))
        mid = distlaw.beta(freerb.sha_map(hurwitz.comult_hom(hh), u))
        right = hurwitz.map_pointwise(distlaw.beta_hom(sh), mid)
        ok_comult = ok_comult and alg_eq(left, right)
        big = random_element(ShaHandle(sh), budget, rng)
        lhs_m = distlaw.beta(freerb.mu(big))
        rhs_m = hurwitz.map_pointwise(
            freerb.mu_hom(sa), distlaw.beta(freerb.sha_map(distlaw.beta_hom(sh), big)))
        ok_mult = ok_mult and alg_eq(lhs_m, rhs_m)
    ok = ok_unit and ok_counit and ok_comult and ok_mult
    _verdict("5 distributive-law unit/counit/comultiplication/multiplication, 100 each", ok)


def test_criterion_6_monad_comonad_axioms():
    rng = random.Random(606)
    budget = SampleBudget(max_tensor_len=2, max_terms=2)
    ok = True
    for i in range(100):
        lam = _cycle(i)
        s1 = ShaHandle(poly_handle(("x",), Q, lam))
        s2, s3 = ShaHandle(s1), ShaHandle(ShaHandle(s1))
        w = random_element(s1, budget, rng)
        ok = ok and alg_eq(freerb.mu(freerb.eta(w, s2)), w)
        ok = ok and alg_eq(freerb.mu(freerb.sha_map(freerb.eta_hom(s1.inner), w)), w)
        big = random_element(s3, budget, rng)
        ok = ok and alg_eq(freerb.mu(freerb.mu(big)),
                           freerb.mu(freerb.sha_map(freerb.mu_hom(s1), big)))
        hh = HurwitzHandle(poly_handle(("x",), Q, lam), PRECISION)
        f = random_element(hh, SampleBudget(), rng)
        split = hurwitz.comult(f)
        ok = ok and alg_eq(hurwitz.counit(split), f)
        ok = ok and alg_eq(hurwitz.map_pointwise(hurwitz.counit_hom(hh), split), f)
        ok = ok and alg_eq(hurwitz.comult(split),
                           hurwitz.map_pointwise(hurwitz.comult_hom(hh), split))
    _verdict("6 flatten unit/associativity; series counit/coassociativity, 100 each", ok)


def test_criterion_7_free_composite_structure():
    rng = random.Random(707)
    budget = SampleBudget(max_tensor_len=2, max_terms=2)
    ok = True
    for i in range(100):
        lam = _cycle(i)
        h = poly_handle(("x",), Q, lam)
        s = ShaHandle(h)
        d = distlaw.canonical_derivation(s)
        u = random_element(s, budget, rng)
        ok = ok and alg_eq(d(freerb.rb_prepend(u)), u)
    for i in range(100):
        lam = _cycle(i)
        h = poly_handle(("x",), Q, lam)
        s = ShaHandle(h)
        evaluation = freerb.structure_hom(freerb.free_rb_operator(s))
        costr = hurwitz.costructure_hom(distlaw.canonical_derivation(s), PRECISION)
        w = random_element(ShaHandle(s), budget, rng)
        ok = ok and alg_eq(*distlaw.mixed_compat_sides(evaluation, costr, w))
    _verdict("7 free derivation splits the operator; compatibility square, 100 each", ok)


def test_criterion_8_combinatorial_oracle():
    ok = True
    for m in range(6):
        for n in range(6):
            names = tuple(f"a{k}" for k in range(m + 1)) + tuple(
                f"b{k}" for k in range(n + 1))
            h = poly_handle(names, Q, Q.zero())
            s = ShaHandle(h)
            av = tuple(Poly.variable(h, f"a{k}") for k in range(m + 1))
            bv = tuple(Poly.variable(h, f"b{k}") for k in range(n + 1))
            prod = Tensor.from_factors(s, av) * Tensor.from_factors(s, bv)
            expected = {}
            head = av[0] * bv[0]
            for weave in interleavings(av[1:], bv[1:]):
                key = (head,) + weave
                expected[key] = expected.get(key, Q.zero()) + Q.one()
            ok = ok and prod.terms == expected
            ok = ok and len(prod.terms) == comb(m + n, n)
    _verdict("8 weight-0 stratum equals brute-force interleavings, m,n <= 5", ok)


def test_criterion_9_mutation_sensitivity(monkeypatch):
    def fails_any(names):
        return any(not r.passed for r in laws.run_all(seed=0, names=names))

    with monkeypatch.context() as mp:
        mp.setattr(freerb, "_merge_weight",
                   lambda handle: handle.weight + handle.ring.one())
        caught_merge = fails_any(("worked_example", "rb_identity"))

    original_power = hurwitz._lambda_power
    with monkeypatch.context() as mp:
        mp.setattr(hurwitz, "_lambda_power",
                   lambda lam, k: original_power(lam + lam.ring.one(), k))
        caught_series = fails_any(("lambda_leibniz", "rb_lift"))

    def misprinted(factors, d, lam):
        one = lam.ring.one()
        x0, rest = factors[0], factors[1:]
        if not rest:
            return [(one, (d(x0),))]
        out = [(one, (d(x0),) + rest), (one, (x0 * rest[0],) + rest[1:])]
        if not lam.is_zero:
            out.append((lam, (d(x0) * rest[0],) + rest))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(freerb, "_free_derivation_terms", misprinted)
        caught_tail = fails_any(("lambda_leibniz", "drb"))

    ok = caught_merge and caught_series and caught_tail
    _verdict("9 three formula corruptions each trip a suite", ok)


def test_criterion_10_deterministic_reports():
    cmd = [sys.executable, "-m", "rbshuffle", "check", "--json", "--seed", "5"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    payload = json.loads(first.stdout)
    ok = ok and all(r["passed"] for r in payload["reports"])
    _verdict("10 byte-identical JSON law reports for a fixed seed", ok)
