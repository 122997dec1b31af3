"""Seeded law suites: every defining identity checked on random instances.

Each suite draws samples from its own deterministic stream (derived from the
master seed and the suite name), evaluates one identity class per sample,
and short-circuits on the first counterexample with fully rendered inputs
and both sides.  The active weight cycles through the configured values, so
every weighted law is exercised at weight zero and at nonzero weights in a
single run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from math import comb, gcd
from typing import Sequence

from . import algebra, distlaw, freerb, hurwitz
from .algebra import (ExpSpan, Hom, HurwitzHandle, Poly, PolyHandle,
                      SampleBudget, ShaHandle, alg_eq, exp_span_rb,
                      poly_handle, random_element, random_subst_hom,
                      weighted_derivation)
from .coeffs import RATIONALS, Ring, Scalar, parse_scalar
from .freerb import Tensor
from .hurwitz import Series
from .reports import LawReport, LawSuite


def default_lambdas(ring: Ring) -> tuple[str, ...]:
    """Weight values cycled per sample: zero, one, and a third value the
    difference quotient can divide by: 1/2 where the ring can divide by two,
    else 2 on the integers and the smallest unit above one mod an even m."""
    if ring.is_rational or (ring.is_residue and ring.modulus % 2 == 1):
        return ("0", "1", "1/2")
    if ring.is_residue:
        m = ring.modulus
        unit = next((u for u in range(2, m) if gcd(u, m) == 1), None)
        return ("0", "1") if unit is None else ("0", "1", str(unit))
    return ("0", "1", "2")


@dataclass(frozen=True)
class SampleConfig:
    """The ring, the weights cycled per sample and the series precision; the
    size budgets are ``SampleBudget``'s defaults, which keep every suite
    exact and fast."""

    ring: Ring = RATIONALS
    lambdas: tuple[str, ...] = ("0", "1", "1/2")
    precision: int = 4

    @staticmethod
    def for_ring(ring: Ring, lambdas: tuple[str, ...] | None = None,
                 precision: int = 4) -> SampleConfig:
        """The configuration over ring, cycling ``default_lambdas`` unless
        lambdas are given."""
        return SampleConfig(ring, lambdas or default_lambdas(ring), precision)

    def weight(self, i: int) -> Scalar:
        return parse_scalar(self.lambdas[i % len(self.lambdas)], self.ring)

    def budget(self) -> SampleBudget:
        return SampleBudget(precision=self.precision)

    def nested_budget(self) -> SampleBudget:
        """Smaller sizes for samples that are products or nestings."""
        return replace(self.budget(), max_tensor_len=2, max_terms=2)


def _poly_xy(cfg: SampleConfig, lam: Scalar) -> PolyHandle:
    return poly_handle(("x", "y"), cfg.ring, lam)


def _poly_x(cfg: SampleConfig, lam: Scalar) -> PolyHandle:
    return poly_handle(("x",), cfg.ring, lam)


def _rb_targets(cfg: SampleConfig, lam: Scalar) -> list[tuple[str, object, Hom]]:
    """Concrete (name, handle, operator) pairs expected to satisfy the
    Rota-Baxter identity at the active weight."""
    h2 = _poly_xy(cfg, lam)
    sha2 = ShaHandle(h2)
    targets = [("prepend", sha2, freerb.free_rb_operator(sha2)),
               ("scaled-identity", h2, algebra.scaled_identity_on(h2))]
    if cfg.ring.is_rational and lam.is_zero:
        targets.append(("integration", h2, algebra.integration_on(h2, "x")))
    return targets


def _ce(i: int, lam: Scalar, law: str, **parts) -> dict:
    out = {"index": i, "weight": str(lam), "law": law}
    out.update({k: str(v) for k, v in parts.items()})
    return out


def _rb_identity_holds(P: Hom, x, y, lam: Scalar) -> bool:
    lhs = P(x) * P(y)
    rhs = P(x * P(y)) + P(y * P(x)) + P(x * y).scale(lam)
    return alg_eq(lhs, rhs)


def _leibniz_holds(d, x, y, lam: Scalar) -> bool:
    lhs = d(x * y)
    rhs = d(x) * y + x * d(y) + (d(x) * d(y)).scale(lam)
    return alg_eq(lhs, rhs)


# --------------------------------------------------------------------------
# Suite checks.  Each takes (rng, cfg, i) and returns None or a counterexample.


def _check_worked_example(rng: random.Random, cfg: SampleConfig, i: int):
    """The pinned five-term product of a length-2 and a length-3 tensor."""
    lam = cfg.weight(i)
    h = poly_handle(("a0", "a1", "b0", "b1", "b2"), cfg.ring, lam)
    s = ShaHandle(h)
    a0, a1, b0, b1, b2 = (Poly.variable(h, v) for v in h.variables)
    lhs = Tensor.from_factors(s, (a0, a1)) * Tensor.from_factors(s, (b0, b1, b2))
    head = a0 * b0
    rhs = (Tensor.from_factors(s, (head, a1, b1, b2))
           + Tensor.from_factors(s, (head, b1, a1, b2))
           + Tensor.from_factors(s, (head, b1, b2, a1))
           + Tensor.from_factors(s, (head, b1, a1 * b2), lam)
           + Tensor.from_factors(s, (head, a1 * b1, b2), lam))
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "worked-example", lhs=lhs, rhs=rhs)
    return None


def _check_poly_algebra(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_xy(cfg, lam)
    b = cfg.budget()
    x, y, z = (random_element(h, b, rng) for _ in range(3))
    c = h.ring.from_int(rng.randint(b.coeff_lo, b.coeff_hi))
    one = Poly.one(h)
    checks = [("commutative", x * y, y * x),
              ("associative", (x * y) * z, x * (y * z)),
              ("distributive", x * (y + z), x * y + x * z),
              ("unit", x * one, x),
              ("scale", (x + y).scale(c), x.scale(c) + y.scale(c))]
    for law, lhs, rhs in checks:
        if not alg_eq(lhs, rhs):
            return _ce(i, lam, law, x=x, y=y, z=z, lhs=lhs, rhs=rhs)
    return None


def _check_sha_algebra(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    s = ShaHandle(_poly_xy(cfg, lam))
    b = cfg.budget()
    u = random_element(s, b, rng)
    v = random_element(s, b, rng)
    one = Tensor.one(s)
    if not alg_eq(u * v, v * u):
        return _ce(i, lam, "commutative", u=u, v=v, lhs=u * v, rhs=v * u)
    if not alg_eq(u * one, u):
        return _ce(i, lam, "unit", u=u, lhs=u * one, rhs=u)
    if not alg_eq(u * (v + one), u * v + u):
        return _ce(i, lam, "distributive", u=u, v=v)
    # associativity on single pure tensors: products of combinations grow fast
    pure = replace(b, max_terms=1)
    p, q, r = (random_element(s, pure, rng) for _ in range(3))
    if not alg_eq((p * q) * r, p * (q * r)):
        return _ce(i, lam, "associative", p=p, q=q, r=r,
                   lhs=(p * q) * r, rhs=p * (q * r))
    return None


def _check_hurwitz_algebra(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    hh = HurwitzHandle(_poly_xy(cfg, lam), cfg.precision)
    b = cfg.budget()
    f, g, k = (random_element(hh, b, rng) for _ in range(3))
    one = Series.one(hh)
    checks = [("commutative", f * g, g * f),
              ("associative", (f * g) * k, f * (g * k)),
              ("distributive", f * (g + k), f * g + f * k),
              ("unit", f * one, f)]
    for law, lhs, rhs in checks:
        if not alg_eq(lhs, rhs):
            return _ce(i, lam, law, f=f, g=g, k=k, lhs=lhs, rhs=rhs)
    return None


def _check_nested_algebra(rng: random.Random, cfg: SampleConfig, i: int):
    """Carrier axioms on the depth-2 composites, at small budgets."""
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    b = replace(cfg.nested_budget(), max_degree=1, precision=2)
    kinds = (ShaHandle(ShaHandle(h)),
             ShaHandle(HurwitzHandle(h, 2)),
             HurwitzHandle(ShaHandle(h), 2),
             HurwitzHandle(HurwitzHandle(h, 2), 2))
    handle = kinds[i % len(kinds)]
    x, y, z = (random_element(handle, b, rng) for _ in range(3))
    one = algebra.unit(handle)
    checks = [("commutative", x * y, y * x),
              ("associative", (x * y) * z, x * (y * z)),
              ("distributive", x * (y + z), x * y + x * z),
              ("unit", x * one, x)]
    for law, lhs, rhs in checks:
        if not alg_eq(lhs, rhs):
            return _ce(i, lam, f"{law}[{handle}]", x=x, y=y, z=z, lhs=lhs, rhs=rhs)
    return None


def _check_rb_identity(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    b = cfg.budget()
    for name, handle, op in _rb_targets(cfg, lam):
        x = random_element(handle, b, rng)
        y = random_element(handle, b, rng)
        if not _rb_identity_holds(op, x, y, lam):
            return _ce(i, lam, f"rb-identity[{name}]", x=x, y=y)
    # decay-mode carrier: weight 0 by construction, rational coefficients
    if cfg.ring.is_rational:
        f = _random_expspan(rng, b)
        g = _random_expspan(rng, b)
        zero_w = RATIONALS.zero()
        lhs = exp_span_rb(f) * exp_span_rb(g)
        rhs = exp_span_rb(f * exp_span_rb(g)) + exp_span_rb(g * exp_span_rb(f))
        if lhs != rhs:
            return _ce(i, zero_w, "rb-identity[decay-span]", f=f, g=g, lhs=lhs, rhs=rhs)
    return None


def _random_expspan(rng: random.Random, budget: SampleBudget) -> ExpSpan:
    terms = {}
    for _ in range(rng.randint(0, budget.max_terms)):
        terms[rng.randint(1, 4)] = RATIONALS.from_int(
            rng.randint(budget.coeff_lo, budget.coeff_hi))
    return ExpSpan(terms)


def _leibniz_targets(cfg: SampleConfig, lam: Scalar):
    """(name, handle, derivation) triples expected to obey the weighted rule."""
    h1 = _poly_x(cfg, lam)
    d = weighted_derivation(h1)
    hh = HurwitzHandle(h1, cfg.precision)
    s1 = ShaHandle(h1)
    return [("poly", h1, d),
            ("series-shift", hh, hurwitz.shift_derivation(hh)),
            ("free", s1, freerb.free_derivation(s1, d))]


def _check_lambda_leibniz(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    b = cfg.budget()
    for name, handle, d in _leibniz_targets(cfg, lam):
        x = random_element(handle, b, rng)
        y = random_element(handle, b, rng)
        if not _leibniz_holds(d, x, y, lam):
            return _ce(i, lam, f"weighted-leibniz[{name}]", x=x, y=y,
                       lhs=d(x * y), rhs=d(x) * y + x * d(y) + (d(x) * d(y)).scale(lam))
        du = d(algebra.unit(handle))
        if not du.is_zero:
            return _ce(i, lam, f"unit-annihilation[{name}]", got=du)
    return None


def _check_higher_leibniz(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    d = weighted_derivation(h)
    b = cfg.budget()
    n = i % 6  # orders 0..5
    x = random_element(h, b, rng)
    y = random_element(h, b, rng)
    closed = hurwitz.higher_leibniz(x, y, d, n)
    iterated = d.power(x * y, n)
    if not alg_eq(closed, iterated):
        return _ce(i, lam, f"higher-leibniz[n={n}]", x=x, y=y,
                   closed=closed, iterated=iterated)
    return None


def _check_monad_laws(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    s1 = ShaHandle(_poly_x(cfg, lam))
    s2 = ShaHandle(s1)
    s3 = ShaHandle(s2)
    b = cfg.budget()
    nb = cfg.nested_budget()
    w = random_element(s1, b, rng)
    if not alg_eq(freerb.mu(freerb.eta(w, s2)), w):
        return _ce(i, lam, "flatten-unit-outer", w=w)
    u = random_element(s1, b, rng)
    mapped = freerb.sha_map(freerb.eta_hom(s1.inner), u)
    if not alg_eq(freerb.mu(mapped), u):
        return _ce(i, lam, "flatten-unit-inner", u=u)
    big = random_element(s3, nb, rng)
    lhs = freerb.mu(freerb.mu(big))
    rhs = freerb.mu(freerb.sha_map(freerb.mu_hom(s1), big))
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "flatten-associative", w=big, lhs=lhs, rhs=rhs)
    return None


def _check_comonad_laws(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    hh = HurwitzHandle(_poly_x(cfg, lam), cfg.precision)
    f = random_element(hh, cfg.budget(), rng)
    split = hurwitz.comult(f)
    if not alg_eq(hurwitz.counit(split), f):
        return _ce(i, lam, "counit-outer", f=f)
    pointwise = hurwitz.map_pointwise(hurwitz.counit_hom(hh), split)
    if not alg_eq(pointwise, f):
        return _ce(i, lam, "counit-inner", f=f)
    lhs = hurwitz.comult(split)
    rhs = hurwitz.map_pointwise(hurwitz.comult_hom(hh), split)
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "coassociative", f=f, lhs=lhs, rhs=rhs)
    return None


def _t_structure_targets(cfg: SampleConfig, lam: Scalar):
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    targets = [("scaled-identity", algebra.scaled_identity_on(h)),
               ("series-lift", hurwitz.lifted_rb(hh, algebra.scaled_identity_on(h)))]
    if cfg.ring.is_rational and lam.is_zero:
        targets.append(("integration", algebra.integration_on(h, "x")))
    return targets


def _check_t_structure(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    b = cfg.budget()
    nb = cfg.nested_budget()
    for name, op in _t_structure_targets(cfg, lam):
        h = freerb.structure_hom(op)
        a = random_element(op.src, b, rng)
        if not alg_eq(h(freerb.eta(a)), a):
            return _ce(i, lam, f"structure-unit[{name}]", a=a)
        big = random_element(ShaHandle(h.src), nb, rng)
        lhs = h(freerb.sha_map(h, big))
        rhs = h(freerb.mu(big))
        if not alg_eq(lhs, rhs):
            return _ce(i, lam, f"structure-multiplication[{name}]",
                       w=big, lhs=lhs, rhs=rhs)
    return None


def _check_costructure(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    d = weighted_derivation(h)
    f = hurwitz.costructure_hom(d, cfg.precision)
    b = cfg.budget()
    a = random_element(h, b, rng)
    fa = f(a)
    if not alg_eq(hurwitz.counit(fa), a):
        return _ce(i, lam, "costructure-counit", a=a)
    lhs = hurwitz.comult(fa)
    rhs = hurwitz.map_pointwise(f, fa)
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "costructure-comultiplication", a=a, lhs=lhs, rhs=rhs)
    # the attached series multiplies like the carrier
    a2 = random_element(h, b, rng)
    if not alg_eq(f(a * a2), fa * f(a2)):
        return _ce(i, lam, "costructure-multiplicative", a=a, b=a2)
    return None


def _check_induced_hom(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    phi = random_subst_hom(h, cfg.budget(), rng)
    op = algebra.scaled_identity_on(h)
    ind = freerb.induced_hom(phi, op)
    s = ShaHandle(h)
    nb = cfg.nested_budget()
    u = random_element(s, nb, rng)
    v = random_element(s, nb, rng)
    if not alg_eq(ind(u * v), ind(u) * ind(v)):
        return _ce(i, lam, "induced-multiplicative", u=u, v=v,
                   lhs=ind(u * v), rhs=ind(u) * ind(v))
    if not alg_eq(ind(Tensor.one(s)), Poly.one(h)):
        return _ce(i, lam, "induced-unital", got=ind(Tensor.one(s)))
    if not alg_eq(ind(freerb.rb_prepend(u)), op(ind(u))):
        return _ce(i, lam, "induced-intertwines", u=u,
                   lhs=ind(freerb.rb_prepend(u)), rhs=op(ind(u)))
    a = random_element(h, cfg.budget(), rng)
    if not alg_eq(ind(freerb.eta(a)), phi(a)):
        return _ce(i, lam, "induced-extends", a=a)
    return None


def _check_shuffle_counts(rng: random.Random, cfg: SampleConfig, i: int):
    grid = [(m, n) for m in range(5) for n in range(5)]
    m, n = grid[i % len(grid)]
    lam = cfg.ring.one()
    s, av, bv = freerb.distinct_symbol_factors(m, n, cfg.ring, lam)
    prod = Tensor.from_factors(s, av) * Tensor.from_factors(s, bv)
    top_len = m + n + 1
    top = {t: c for t, c in prod.terms.items() if len(t) == top_len}
    expected: dict = {}
    head = av[0] * bv[0]
    for weave in freerb.interleavings(av[1:], bv[1:]):
        key = (head,) + weave
        seen = expected.get(key)
        expected[key] = s.ring.one() if seen is None else seen + s.ring.one()
    if top != expected:
        return _ce(i, lam, f"shuffle-top-terms[m={m},n={n}]",
                   got=sorted(str(k) for k in top),
                   want=sorted(str(k) for k in expected))
    if len(top) != comb(m + n, n):
        return _ce(i, lam, f"shuffle-top-count[m={m},n={n}]",
                   got=len(top), want=comb(m + n, n))
    return None


def _check_head_tail(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    hh = HurwitzHandle(_poly_x(cfg, lam), cfg.precision)
    b = cfg.budget()
    f = random_element(hh, b, rng)
    if rng.random() < 0.5:
        g = f.truncate(rng.randint(1, f.precision))
    else:
        g = random_element(hh, b, rng)
    same = alg_eq(f, g)
    parts = (alg_eq(hurwitz.counit(f), hurwitz.counit(g))
             and alg_eq(hurwitz.shift(f), hurwitz.shift(g)))
    if same != parts:
        return _ce(i, lam, "head-tail-determination", f=f, g=g,
                   whole=same, split=parts)
    return None


def _check_rb_lift(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    bases = [algebra.scaled_identity_on(h)]
    if cfg.ring.is_rational and lam.is_zero:
        bases.append(algebra.integration_on(h, "x"))
    b = cfg.budget()
    for base in bases:
        lifted = hurwitz.lifted_rb(hh, base)
        f = random_element(hh, b, rng)
        g = random_element(hh, b, rng)
        if not _rb_identity_holds(lifted, f, g, lam):
            return _ce(i, lam, f"lift-rb-identity[{base.name}]", f=f, g=g)
        if not alg_eq(hurwitz.shift(lifted(f)), f):
            return _ce(i, lam, f"lift-section[{base.name}]", f=f)
        if not alg_eq(hurwitz.counit(lifted(f)), base(hurwitz.counit(f))):
            return _ce(i, lam, f"lift-head[{base.name}]", f=f)
    return None


def _check_n_morphism(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    phi = random_subst_hom(h, cfg.budget(), rng)
    # phi intertwines the scaled identity on both sides
    p = algebra.scaled_identity_on(h)
    lift = hurwitz.lifted_rb(hh, p)
    phi_seq = hurwitz.pointwise_hom(phi, cfg.precision)
    f = random_element(hh, cfg.budget(), rng)
    if not alg_eq(lift(phi_seq(f)), phi_seq(lift(f))):
        return _ce(i, lam, "pointwise-rb-morphism", f=f, phi=phi.name)
    if not alg_eq(hurwitz.counit(phi_seq(f)), phi(hurwitz.counit(f))):
        return _ce(i, lam, "pointwise-head", f=f, phi=phi.name)
    if not alg_eq(hurwitz.shift(phi_seq(f)), hurwitz.map_pointwise(phi, hurwitz.shift(f))):
        return _ce(i, lam, "pointwise-shift", f=f, phi=phi.name)
    # the tensor lift of phi intertwines the prepend operators
    s = ShaHandle(h)
    u = random_element(s, cfg.nested_budget(), rng)
    lhs = freerb.sha_map(phi, freerb.rb_prepend(u))
    rhs = freerb.rb_prepend(freerb.sha_map(phi, u))
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "tensor-rb-morphism", u=u, phi=phi.name)
    return None


def _check_power_sequence(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    d = weighted_derivation(h)
    b = cfg.budget()
    a = random_element(h, b, rng)
    n = rng.randint(0, 5)
    m = rng.randint(0, 5 - n)
    if not alg_eq(d.power(d.power(a, n), m), d.power(a, m + n)):
        return _ce(i, lam, f"power-composition[m={m},n={n}]", a=a)
    x = random_element(h, b, rng)
    k = rng.randint(0, 5)
    if not alg_eq(hurwitz.higher_leibniz(a, x, d, k), d.power(a * x, k)):
        return _ce(i, lam, f"power-product-rule[n={k}]", a=a, x=x)
    if not alg_eq(d.power(a, 0), a):
        return _ce(i, lam, "power-zero-identity", a=a)
    return None


def _check_drb(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    s = ShaHandle(h)
    d = weighted_derivation(h)
    dfree = freerb.free_derivation(s, d)
    b = cfg.budget()
    u = random_element(s, b, rng)
    if not alg_eq(dfree(freerb.rb_prepend(u)), u):
        return _ce(i, lam, "free-derivation-section", u=u,
                   got=dfree(freerb.rb_prepend(u)))
    v = random_element(s, b, rng)
    if not _leibniz_holds(dfree, u, v, lam):
        return _ce(i, lam, "free-derivation-leibniz", u=u, v=v)
    if cfg.ring.is_rational and lam.is_zero:
        f = random_element(h, b, rng)
        if not alg_eq(algebra.poly_derivative(algebra.poly_integrate(f, "x"), "x"), f):
            return _ce(i, lam, "integration-section", f=f)
    return None


def _check_mixed_distlaw(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    sh = ShaHandle(hh)
    sa = ShaHandle(h)
    nb = cfg.nested_budget()
    f = random_element(hh, cfg.budget(), rng)
    lhs = distlaw.beta(freerb.eta(f, sh))
    rhs = hurwitz.map_pointwise(freerb.eta_hom(h), f)
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "distlaw-unit", f=f, lhs=lhs, rhs=rhs)
    u = random_element(sh, nb, rng)
    lhs0 = hurwitz.counit(distlaw.beta(u))
    rhs0 = freerb.sha_map(hurwitz.counit_hom(hh), u)
    if not alg_eq(lhs0, rhs0):
        return _ce(i, lam, "distlaw-counit", u=u, lhs=lhs0, rhs=rhs0)
    if i % 2 == 0:
        # comultiplication square, on alternate samples
        bu = distlaw.beta(u)
        left = hurwitz.comult(bu)
        mid = distlaw.beta(freerb.sha_map(hurwitz.comult_hom(hh), u))
        right = hurwitz.map_pointwise(distlaw.beta_hom(sh), mid)
        if not alg_eq(left, right):
            return _ce(i, lam, "distlaw-comultiplication", u=u, lhs=left, rhs=right)
    else:
        # multiplication square, on the other samples
        big = random_element(ShaHandle(sh), nb, rng)
        left = distlaw.beta(freerb.mu(big))
        mapped = freerb.sha_map(distlaw.beta_hom(sh), big)
        right = hurwitz.map_pointwise(freerb.mu_hom(sa), distlaw.beta(mapped))
        if not alg_eq(left, right):
            return _ce(i, lam, "distlaw-multiplication", w=big, lhs=left, rhs=right)
    return None


def _check_beta_hom(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    sh = ShaHandle(hh)
    sa = ShaHandle(h)
    nb = cfg.nested_budget()
    u = random_element(sh, nb, rng)
    v = random_element(sh, nb, rng)
    if not alg_eq(distlaw.beta(u * v), distlaw.beta(u) * distlaw.beta(v)):
        return _ce(i, lam, "beta-multiplicative", u=u, v=v,
                   lhs=distlaw.beta(u * v), rhs=distlaw.beta(u) * distlaw.beta(v))
    lifted = hurwitz.lifted_rb(HurwitzHandle(sa, cfg.precision),
                               freerb.free_rb_operator(sa))
    lhs = distlaw.beta(freerb.rb_prepend(u))
    rhs = lifted(distlaw.beta(u))
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "beta-intertwines", u=u, lhs=lhs, rhs=rhs)
    one = Tensor.one(sh)
    if not alg_eq(distlaw.beta(one), Series.one(HurwitzHandle(sa, cfg.precision))):
        return _ce(i, lam, "beta-unital", got=distlaw.beta(one))
    return None


def _check_beta_naturality(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    sh = ShaHandle(hh)
    phi = random_subst_hom(h, cfg.budget(), rng)
    u = random_element(sh, cfg.nested_budget(), rng)
    lhs = hurwitz.map_pointwise(freerb.sha_hom(phi), distlaw.beta(u))
    rhs = distlaw.beta(freerb.sha_map(hurwitz.pointwise_hom(phi, cfg.precision), u))
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "distlaw-naturality", u=u, phi=phi.name, lhs=lhs, rhs=rhs)
    return None


def _check_lifted_structures(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    nb = cfg.nested_budget()
    # lifted evaluation structure on the series carrier
    base = freerb.structure_hom(algebra.scaled_identity_on(h))
    lifted = distlaw.lift_t_structure(base, cfg.precision)
    f = random_element(hh, cfg.budget(), rng)
    if not alg_eq(lifted(freerb.eta(f)), f):
        return _ce(i, lam, "lifted-structure-unit", f=f)
    big = random_element(ShaHandle(lifted.src), nb, rng)
    lhs = lifted(freerb.sha_map(lifted, big))
    rhs = lifted(freerb.mu(big))
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "lifted-structure-multiplication", w=big, lhs=lhs, rhs=rhs)
    # lifted costructure on the tensor carrier
    d = weighted_derivation(h)
    co = hurwitz.costructure_hom(d, cfg.precision)
    lifted_co = distlaw.lift_costructure_hom(co)
    u = random_element(ShaHandle(h), nb, rng)
    fu = distlaw.lift_costructure(co, u)
    if not alg_eq(hurwitz.counit(fu), u):
        return _ce(i, lam, "lifted-costructure-counit", u=u, got=hurwitz.counit(fu))
    lhs2 = hurwitz.comult(fu)
    rhs2 = hurwitz.map_pointwise(lifted_co, fu)
    if not alg_eq(lhs2, rhs2):
        return _ce(i, lam, "lifted-costructure-comultiplication", u=u,
                   lhs=lhs2, rhs=rhs2)
    return None


def _check_mixed_compat(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    s = ShaHandle(h)
    d = weighted_derivation(h)
    evaluation = freerb.structure_hom(freerb.free_rb_operator(s))
    costr = hurwitz.costructure_hom(freerb.free_derivation(s, d), cfg.precision)
    w = random_element(ShaHandle(s), cfg.nested_budget(), rng)
    ce = distlaw.check_mixed_compat(evaluation, costr, [w])
    if ce is not None:
        ce.update({"index": i, "weight": str(lam), "law": "mixed-compatibility"})
    return ce


def _check_adjunction_triangles(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    shift_d = hurwitz.shift_derivation(hh)
    f = random_element(hh, cfg.budget(), rng)
    # round trip through iterated shifts and heads recovers the series
    tower = hurwitz.derivation_series(f, shift_d, cfg.precision)
    back = hurwitz.map_pointwise(hurwitz.counit_hom(hh), tower)
    if not alg_eq(back, f):
        return _ce(i, lam, "triangle-counit-unit", f=f, got=back)
    # on the free carrier: the iterate series is a morphism for both operators
    s = ShaHandle(h)
    d = freerb.free_derivation(s, weighted_derivation(h))
    u = random_element(s, cfg.nested_budget(), rng)
    ds = hurwitz.derivation_series(u, d, cfg.precision)
    if not alg_eq(hurwitz.counit(ds), u):
        return _ce(i, lam, "triangle-point", u=u)
    # handles always carry the working precision; comparisons take the minimum
    if not alg_eq(hurwitz.shift(ds), hurwitz.derivation_series(d(u), d, cfg.precision)):
        return _ce(i, lam, "iterates-intertwine-derivation", u=u)
    lhs = hurwitz.rb_lift_apply(ds, freerb.free_rb_operator(s))
    rhs = hurwitz.derivation_series(freerb.rb_prepend(u), d, cfg.precision)
    if not alg_eq(lhs, rhs):
        return _ce(i, lam, "iterates-intertwine-operator", u=u, lhs=lhs, rhs=rhs)
    return None


# --------------------------------------------------------------------------
# Registry


def registry() -> list[LawSuite]:
    """The fixed suite catalog, in run order."""
    return [
        LawSuite("worked_example", 3, _check_worked_example),
        LawSuite("poly_algebra", 500, _check_poly_algebra),
        LawSuite("sha_algebra", 500, _check_sha_algebra),
        LawSuite("hurwitz_algebra", 500, _check_hurwitz_algebra),
        LawSuite("nested_algebra", 500, _check_nested_algebra),
        LawSuite("rb_identity", 300, _check_rb_identity),
        LawSuite("lambda_leibniz", 300, _check_lambda_leibniz),
        LawSuite("higher_leibniz", 100, _check_higher_leibniz),
        LawSuite("monad_laws", 100, _check_monad_laws),
        LawSuite("comonad_laws", 300, _check_comonad_laws),
        LawSuite("t_structure", 100, _check_t_structure),
        LawSuite("costructure", 100, _check_costructure),
        LawSuite("induced_hom", 100, _check_induced_hom),
        LawSuite("shuffle_counts", 25, _check_shuffle_counts),
        LawSuite("head_tail", 300, _check_head_tail),
        LawSuite("rb_lift", 300, _check_rb_lift),
        LawSuite("n_morphism", 100, _check_n_morphism),
        LawSuite("power_sequence", 100, _check_power_sequence),
        LawSuite("drb", 300, _check_drb),
        LawSuite("mixed_distlaw_4", 200, _check_mixed_distlaw),
        LawSuite("beta_hom", 200, _check_beta_hom),
        LawSuite("beta_naturality", 100, _check_beta_naturality),
        LawSuite("lifted_structures", 100, _check_lifted_structures),
        LawSuite("mixed_compat", 100, _check_mixed_compat),
        LawSuite("adjunction_triangles_drb", 100, _check_adjunction_triangles),
    ]


# Which suite pins each law; the test suite cross-checks this map against the
# registry so that nothing silently loses coverage.
LAW_COVERAGE = {
    "shuffle-product-base-case": "worked_example",
    "shuffle-product-recursion": "worked_example",
    "shuffle-combinatorics": "shuffle_counts",
    "rota-baxter-identity": "rb_identity",
    "decay-span-operator": "rb_identity",
    "universal-evaluation": "induced_hom",
    "flatten-formula": "monad_laws",
    "structure-equations": "t_structure",
    "structure-unit-law": "monad_laws",
    "weighted-leibniz": "lambda_leibniz",
    "derivation-annihilates-unit": "lambda_leibniz",
    "difference-quotient-derivation": "lambda_leibniz",
    "higher-leibniz": "higher_leibniz",
    "hurwitz-product": "hurwitz_algebra",
    "shift-derivation": "lambda_leibniz",
    "series-counit": "comonad_laws",
    "series-comultiplication": "comonad_laws",
    "costructure-equations": "costructure",
    "iterate-series-homomorphism": "costructure",
    "power-sequence-correspondence": "power_sequence",
    "head-tail-determination": "head_tail",
    "rb-lift-extension": "rb_lift",
    "pointwise-morphism": "n_morphism",
    "distlaw-unit": "mixed_distlaw_4",
    "distlaw-counit": "mixed_distlaw_4",
    "distlaw-comultiplication-square": "mixed_distlaw_4",
    "distlaw-multiplication-square": "mixed_distlaw_4",
    "distlaw-naturality": "beta_naturality",
    "beta-rb-homomorphism": "beta_hom",
    "lifted-structure-equations": "lifted_structures",
    "mixed-compatibility-square": "mixed_compat",
    "free-derivation-formula": "drb",
    "free-derivation-section": "drb",
    "adjunction-triangles": "adjunction_triangles_drb",
}


def run_suite(suite: LawSuite, seed: int = 0,
              cfg: SampleConfig | None = None) -> LawReport:
    """Evaluate one suite; short-circuits on the first counterexample."""
    if cfg is None:
        cfg = SampleConfig()
    subseed = f"{seed}:{suite.name}"
    rng = random.Random(subseed)
    started = time.perf_counter()
    for i in range(suite.samples):
        ce = suite.check(rng, cfg, i)
        if ce is not None:
            return LawReport(law=suite.name, samples=i + 1, seed=subseed,
                             passed=False, counterexample=ce,
                             wall_ms=(time.perf_counter() - started) * 1e3)
    return LawReport(law=suite.name, samples=suite.samples, seed=subseed,
                     passed=True,
                     wall_ms=(time.perf_counter() - started) * 1e3)


def run_all(seed: int = 0, cfg: SampleConfig | None = None,
            names: Sequence[str] | None = None) -> list[LawReport]:
    """Run the registry (or a named subset) with per-suite derived seeds."""
    suites = registry()
    if names is not None:
        known = {s.name: s for s in suites}
        missing = [n for n in names if n not in known]
        if missing:
            raise KeyError(f"unknown suite(s): {', '.join(missing)}")
        suites = [known[n] for n in names]
    return [run_suite(s, seed, cfg) for s in suites]
