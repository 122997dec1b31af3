"""Seeded law suites: every defining identity checked on random instances.

Each suite draws samples from its own deterministic stream (derived from the
master seed and the suite name) and lazily yields claims
``(law, lhs, rhs, inputs)``.  ``run_suite`` alone compares the two sides and
stops at the first claim that fails, with the sample index, the weight, the
claim's inputs and both sides rendered as text.  The active weight cycles
through the configured values, so every weighted law is exercised at weight
zero and at nonzero weights in a single run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from math import comb, gcd
from typing import Sequence

from . import algebra, distlaw, freerb, hurwitz
from .algebra import (Hom, HurwitzHandle, Poly, PolyHandle, SampleBudget,
                      ShaHandle, Terms, alg_eq, exp_span_rb, poly_handle,
                      random_element, random_subst_hom)
from .coeffs import RATIONALS, Ring, Scalar, parse_scalar
from .distlaw import canonical_derivation, canonical_rb
from .freerb import Tensor
from .hurwitz import Series
from .reports import LawReport, LawSuite


def default_lambdas(ring: Ring) -> tuple[str, ...]:
    """Weight values cycled per sample: zero, one, and a third value: 1/2
    where the ring can divide by two, else 2 on the integers and the
    smallest unit above one mod an even m.  No law divides by the weight;
    the third value is kept as it was chosen when the difference quotient
    did, so that ``check`` output stays byte-identical."""
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


def _rb_identity_sides(P: Hom, x, y, lam: Scalar) -> tuple:
    """Both sides of P(x)P(y) = P(xP(y)) + P(yP(x)) + lam P(xy)."""
    return P(x) * P(y), P(x * P(y)) + P(y * P(x)) + P(x * y).scale(lam)


def _leibniz_sides(d, x, y, lam: Scalar) -> tuple:
    """Both sides of d(xy) = d(x)y + xd(y) + lam d(x)d(y)."""
    return d(x * y), d(x) * y + x * d(y) + (d(x) * d(y)).scale(lam)


def _head_tail_sides(f: Series, g: Series) -> tuple[bool, bool]:
    """The law equates two equalities: f = g, and f, g agree at the head and
    after the shift.  Its sides are those two verdicts."""
    return alg_eq(f, g), (alg_eq(hurwitz.counit(f), hurwitz.counit(g))
                          and alg_eq(hurwitz.shift(f), hurwitz.shift(g)))


# --------------------------------------------------------------------------
# Suite checks.  Each takes (rng, cfg, i) and yields the index-th sample's
# claims (law, lhs, rhs, inputs), drawing each claim's inputs just before it.


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
    yield "worked-example", lhs, rhs, {}


def _check_poly_algebra(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_xy(cfg, cfg.weight(i))
    b = cfg.budget()
    x, y, z = (random_element(h, b, rng) for _ in range(3))
    c = h.ring.from_int(rng.randint(b.coeff_lo, b.coeff_hi))
    xyz = {"x": x, "y": y, "z": z}
    yield "commutative", x * y, y * x, xyz
    yield "associative", (x * y) * z, x * (y * z), xyz
    yield "distributive", x * (y + z), x * y + x * z, xyz
    yield "unit", x * Poly.one(h), x, xyz
    yield "scale", (x + y).scale(c), x.scale(c) + y.scale(c), {**xyz, "c": c}


def _check_sha_algebra(rng: random.Random, cfg: SampleConfig, i: int):
    s = ShaHandle(_poly_xy(cfg, cfg.weight(i)))
    b = cfg.budget()
    u = random_element(s, b, rng)
    v = random_element(s, b, rng)
    one = Tensor.one(s)
    yield "commutative", u * v, v * u, {"u": u, "v": v}
    yield "unit", u * one, u, {"u": u}
    yield "distributive", u * (v + one), u * v + u, {"u": u, "v": v}
    # associativity on single pure tensors: products of combinations grow fast
    pure = replace(b, max_terms=1)
    p, q, r = (random_element(s, pure, rng) for _ in range(3))
    yield "associative", (p * q) * r, p * (q * r), {"p": p, "q": q, "r": r}


def _check_hurwitz_algebra(rng: random.Random, cfg: SampleConfig, i: int):
    hh = HurwitzHandle(_poly_xy(cfg, cfg.weight(i)), cfg.precision)
    b = cfg.budget()
    f, g, k = (random_element(hh, b, rng) for _ in range(3))
    fgk = {"f": f, "g": g, "k": k}
    yield "commutative", f * g, g * f, fgk
    yield "associative", (f * g) * k, f * (g * k), fgk
    yield "distributive", f * (g + k), f * g + f * k, fgk
    yield "unit", f * Series.one(hh), f, fgk


def _check_nested_algebra(rng: random.Random, cfg: SampleConfig, i: int):
    """Carrier axioms on the depth-2 composites, at small budgets."""
    h = _poly_x(cfg, cfg.weight(i))
    b = replace(cfg.nested_budget(), max_degree=1, precision=2)
    kinds = (ShaHandle(ShaHandle(h)),
             ShaHandle(HurwitzHandle(h, 2)),
             HurwitzHandle(ShaHandle(h), 2),
             HurwitzHandle(HurwitzHandle(h, 2), 2))
    handle = kinds[i % len(kinds)]
    x, y, z = (random_element(handle, b, rng) for _ in range(3))
    xyz = {"x": x, "y": y, "z": z}
    yield f"commutative[{handle}]", x * y, y * x, xyz
    yield f"associative[{handle}]", (x * y) * z, x * (y * z), xyz
    yield f"distributive[{handle}]", x * (y + z), x * y + x * z, xyz
    yield f"unit[{handle}]", x * algebra.unit(handle), x, xyz


def _check_rb_identity(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    b = cfg.budget()
    for name, handle, op in _rb_targets(cfg, lam):
        x = random_element(handle, b, rng)
        y = random_element(handle, b, rng)
        yield (f"rb-identity[{name}]", *_rb_identity_sides(op, x, y, lam),
               {"x": x, "y": y})
    # decay-mode carrier: weight 0 by construction, rational coefficients
    if cfg.ring.is_rational:
        f = _random_expspan(rng, b)
        g = _random_expspan(rng, b)
        lhs = exp_span_rb(f) * exp_span_rb(g)
        rhs = exp_span_rb(f * exp_span_rb(g)) + exp_span_rb(g * exp_span_rb(f))
        yield ("rb-identity[decay-span]", lhs, rhs,
               {"weight": RATIONALS.zero(), "f": f, "g": g})


# the decay modes e_k = exp(-kt) are the powers E^k of E = exp(-t)
_DECAY = poly_handle(("e",), RATIONALS)


def _random_expspan(rng: random.Random, budget: SampleBudget) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, budget.max_terms)):
        terms[(rng.randint(1, 4),)] = RATIONALS.from_int(
            rng.randint(budget.coeff_lo, budget.coeff_hi))
    return Poly(_DECAY, terms)


def _leibniz_targets(cfg: SampleConfig, lam: Scalar):
    """(name, handle, derivation) triples expected to obey the weighted rule."""
    h1 = _poly_x(cfg, lam)
    return [(name, h, canonical_derivation(h)) for name, h in (
        ("poly", h1), ("series-shift", HurwitzHandle(h1, cfg.precision)),
        ("free", ShaHandle(h1)))]


def _check_lambda_leibniz(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    b = cfg.budget()
    for name, handle, d in _leibniz_targets(cfg, lam):
        x = random_element(handle, b, rng)
        y = random_element(handle, b, rng)
        yield (f"weighted-leibniz[{name}]", *_leibniz_sides(d, x, y, lam),
               {"x": x, "y": y})
        yield (f"unit-annihilation[{name}]", d(algebra.unit(handle)),
               algebra.zero(handle), {})


def _check_higher_leibniz(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    d = canonical_derivation(h)
    b = cfg.budget()
    n = i % 6  # orders 0..5
    x = random_element(h, b, rng)
    y = random_element(h, b, rng)
    yield (f"higher-leibniz[n={n}]", hurwitz.higher_leibniz(x, y, d, n),
           d.power(x * y, n), {"x": x, "y": y})


def _check_monad_laws(rng: random.Random, cfg: SampleConfig, i: int):
    s1 = ShaHandle(_poly_x(cfg, cfg.weight(i)))
    s2 = ShaHandle(s1)
    s3 = ShaHandle(s2)
    b = cfg.budget()
    w = random_element(s1, b, rng)
    yield "flatten-unit-outer", freerb.mu(freerb.eta(w, s2)), w, {"w": w}
    u = random_element(s1, b, rng)
    mapped = freerb.sha_map(freerb.eta_hom(s1.inner), u)
    yield "flatten-unit-inner", freerb.mu(mapped), u, {"u": u}
    big = random_element(s3, cfg.nested_budget(), rng)
    yield ("flatten-associative", freerb.mu(freerb.mu(big)),
           freerb.mu(freerb.sha_map(freerb.mu_hom(s1), big)), {"w": big})


def _check_comonad_laws(rng: random.Random, cfg: SampleConfig, i: int):
    hh = HurwitzHandle(_poly_x(cfg, cfg.weight(i)), cfg.precision)
    f = random_element(hh, cfg.budget(), rng)
    split = hurwitz.comult(f)
    yield "counit-outer", hurwitz.counit(split), f, {"f": f}
    yield ("counit-inner", hurwitz.map_pointwise(hurwitz.counit_hom(hh), split),
           f, {"f": f})
    yield ("coassociative", hurwitz.comult(split),
           hurwitz.map_pointwise(hurwitz.comult_hom(hh), split), {"f": f})


def _t_structure_targets(cfg: SampleConfig, lam: Scalar):
    h = _poly_x(cfg, lam)
    hh = HurwitzHandle(h, cfg.precision)
    targets = [("scaled-identity", algebra.scaled_identity_on(h)),
               ("series-lift", hurwitz.lifted_rb(hh, algebra.scaled_identity_on(h)))]
    if cfg.ring.is_rational and lam.is_zero:
        targets.append(("integration", algebra.integration_on(h, "x")))
    return targets


def _check_t_structure(rng: random.Random, cfg: SampleConfig, i: int):
    b = cfg.budget()
    nb = cfg.nested_budget()
    for name, op in _t_structure_targets(cfg, cfg.weight(i)):
        h = freerb.structure_hom(op)
        a = random_element(op.src, b, rng)
        yield f"structure-unit[{name}]", h(freerb.eta(a)), a, {"a": a}
        big = random_element(ShaHandle(h.src), nb, rng)
        yield (f"structure-multiplication[{name}]", h(freerb.sha_map(h, big)),
               h(freerb.mu(big)), {"w": big})


def _check_costructure(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    d = canonical_derivation(h)
    f = hurwitz.costructure_hom(d, cfg.precision)
    b = cfg.budget()
    a = random_element(h, b, rng)
    fa = f(a)
    yield "costructure-counit", hurwitz.counit(fa), a, {"a": a}
    yield ("costructure-comultiplication", hurwitz.comult(fa),
           hurwitz.map_pointwise(f, fa), {"a": a})
    # the attached series multiplies like the carrier
    a2 = random_element(h, b, rng)
    yield "costructure-multiplicative", f(a * a2), fa * f(a2), {"a": a, "b": a2}


def _check_induced_hom(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    phi = random_subst_hom(h, cfg.budget(), rng)
    op = algebra.scaled_identity_on(h)
    ind = freerb.induced_hom(phi, op)
    s = ShaHandle(h)
    nb = cfg.nested_budget()
    u = random_element(s, nb, rng)
    v = random_element(s, nb, rng)
    yield ("induced-multiplicative", ind(u * v), ind(u) * ind(v),
           {"phi": phi.name, "u": u, "v": v})
    yield "induced-unital", ind(Tensor.one(s)), Poly.one(h), {"phi": phi.name}
    yield ("induced-intertwines", ind(freerb.rb_prepend(u)), op(ind(u)),
           {"phi": phi.name, "u": u})
    a = random_element(h, cfg.budget(), rng)
    yield "induced-extends", ind(freerb.eta(a)), phi(a), {"phi": phi.name, "a": a}


def _check_shuffle_counts(rng: random.Random, cfg: SampleConfig, i: int):
    grid = [(m, n) for m in range(5) for n in range(5)]
    m, n = grid[i % len(grid)]
    lam = cfg.ring.one()
    s, av, bv = freerb.distinct_symbol_factors(m, n, cfg.ring, lam)
    prod = Tensor.from_factors(s, av) * Tensor.from_factors(s, bv)
    top_len = m + n + 1
    top = Tensor(s, {t: c for t, c in prod.terms.items() if len(t) == top_len})
    head = av[0] * bv[0]
    expected = algebra.bare_sum(s, [(1, freerb.pure_tensor_terms(s, (head,) + weave))
                                    for weave in freerb.interleavings(av[1:], bv[1:])])
    yield (f"shuffle-top-terms[m={m},n={n}]", top, expected, {"weight": lam})
    yield (f"shuffle-top-count[m={m},n={n}]", len(top.terms), comb(m + n, n),
           {"weight": lam})


def _check_head_tail(rng: random.Random, cfg: SampleConfig, i: int):
    hh = HurwitzHandle(_poly_x(cfg, cfg.weight(i)), cfg.precision)
    b = cfg.budget()
    f = random_element(hh, b, rng)
    if rng.random() < 0.5:
        g = f.truncate(rng.randint(1, f.precision))
    else:
        g = random_element(hh, b, rng)
    yield ("head-tail-determination", *_head_tail_sides(f, g), {"f": f, "g": g})


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
        yield (f"lift-rb-identity[{base.name}]",
               *_rb_identity_sides(lifted, f, g, lam), {"f": f, "g": g})
        yield f"lift-section[{base.name}]", hurwitz.shift(lifted(f)), f, {"f": f}
        yield (f"lift-head[{base.name}]", hurwitz.counit(lifted(f)),
               base(hurwitz.counit(f)), {"f": f})


def _check_n_morphism(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    hh = HurwitzHandle(h, cfg.precision)
    phi = random_subst_hom(h, cfg.budget(), rng)
    # phi intertwines the scaled identity on both sides
    lift = hurwitz.lifted_rb(hh, algebra.scaled_identity_on(h))
    phi_seq = hurwitz.pointwise_hom(phi, cfg.precision)
    f = random_element(hh, cfg.budget(), rng)
    fphi = {"f": f, "phi": phi.name}
    yield "pointwise-rb-morphism", lift(phi_seq(f)), phi_seq(lift(f)), fphi
    yield "pointwise-head", hurwitz.counit(phi_seq(f)), phi(hurwitz.counit(f)), fphi
    yield ("pointwise-shift", hurwitz.shift(phi_seq(f)),
           hurwitz.map_pointwise(phi, hurwitz.shift(f)), fphi)
    # the tensor lift of phi intertwines the prepend operators
    u = random_element(ShaHandle(h), cfg.nested_budget(), rng)
    yield ("tensor-rb-morphism", freerb.sha_map(phi, freerb.rb_prepend(u)),
           freerb.rb_prepend(freerb.sha_map(phi, u)), {"u": u, "phi": phi.name})


def _check_power_sequence(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    d = canonical_derivation(h)
    b = cfg.budget()
    a = random_element(h, b, rng)
    n = rng.randint(0, 5)
    m = rng.randint(0, 5 - n)
    yield (f"power-composition[m={m},n={n}]", d.power(d.power(a, n), m),
           d.power(a, m + n), {"a": a})
    x = random_element(h, b, rng)
    k = rng.randint(0, 5)
    yield (f"power-product-rule[n={k}]", hurwitz.higher_leibniz(a, x, d, k),
           d.power(a * x, k), {"a": a, "x": x})
    yield "power-zero-identity", d.power(a, 0), a, {"a": a}


def _check_drb(rng: random.Random, cfg: SampleConfig, i: int):
    lam = cfg.weight(i)
    h = _poly_x(cfg, lam)
    s = ShaHandle(h)
    dfree = canonical_derivation(s)
    b = cfg.budget()
    u = random_element(s, b, rng)
    yield "free-derivation-section", dfree(freerb.rb_prepend(u)), u, {"u": u}
    v = random_element(s, b, rng)
    yield ("free-derivation-leibniz", *_leibniz_sides(dfree, u, v, lam),
           {"u": u, "v": v})
    if cfg.ring.is_rational and lam.is_zero:
        f = random_element(h, b, rng)
        yield ("integration-section",
               algebra.poly_derivative(algebra.poly_integrate(f, "x"), "x"), f, {"f": f})


def _check_mixed_distlaw(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    hh = HurwitzHandle(h, cfg.precision)
    sh = ShaHandle(hh)
    nb = cfg.nested_budget()
    f = random_element(hh, cfg.budget(), rng)
    yield ("distlaw-unit", distlaw.beta(freerb.eta(f, sh)),
           hurwitz.map_pointwise(freerb.eta_hom(h), f), {"f": f})
    u = random_element(sh, nb, rng)
    yield ("distlaw-counit", hurwitz.counit(distlaw.beta(u)),
           freerb.sha_map(hurwitz.counit_hom(hh), u), {"u": u})
    if i % 2 == 0:
        # comultiplication square, on alternate samples
        left = hurwitz.comult(distlaw.beta(u))
        mid = distlaw.beta(freerb.sha_map(hurwitz.comult_hom(hh), u))
        yield ("distlaw-comultiplication", left,
               hurwitz.map_pointwise(distlaw.beta_hom(sh), mid), {"u": u})
    else:
        # multiplication square, on the other samples
        big = random_element(ShaHandle(sh), nb, rng)
        left = distlaw.beta(freerb.mu(big))
        mapped = freerb.sha_map(distlaw.beta_hom(sh), big)
        yield ("distlaw-multiplication", left, hurwitz.map_pointwise(
            freerb.mu_hom(ShaHandle(h)), distlaw.beta(mapped)), {"w": big})


def _check_beta_hom(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    sh = ShaHandle(HurwitzHandle(h, cfg.precision))
    sa = ShaHandle(h)
    nb = cfg.nested_budget()
    u = random_element(sh, nb, rng)
    v = random_element(sh, nb, rng)
    yield ("beta-multiplicative", distlaw.beta(u * v),
           distlaw.beta(u) * distlaw.beta(v), {"u": u, "v": v})
    lifted = canonical_rb(HurwitzHandle(sa, cfg.precision))
    yield ("beta-intertwines", distlaw.beta(freerb.rb_prepend(u)),
           lifted(distlaw.beta(u)), {"u": u})
    yield ("beta-unital", distlaw.beta(Tensor.one(sh)),
           Series.one(HurwitzHandle(sa, cfg.precision)), {})


def _check_beta_naturality(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    sh = ShaHandle(HurwitzHandle(h, cfg.precision))
    phi = random_subst_hom(h, cfg.budget(), rng)
    u = random_element(sh, cfg.nested_budget(), rng)
    lhs = hurwitz.map_pointwise(freerb.sha_hom(phi), distlaw.beta(u))
    rhs = distlaw.beta(freerb.sha_map(hurwitz.pointwise_hom(phi, cfg.precision), u))
    yield "distlaw-naturality", lhs, rhs, {"u": u, "phi": phi.name}


def _check_lifted_structures(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    hh = HurwitzHandle(h, cfg.precision)
    nb = cfg.nested_budget()
    # lifted evaluation structure on the series carrier
    base = freerb.structure_hom(algebra.scaled_identity_on(h))
    lifted = distlaw.lift_t_structure(base, cfg.precision)
    f = random_element(hh, cfg.budget(), rng)
    yield "lifted-structure-unit", lifted(freerb.eta(f)), f, {"f": f}
    big = random_element(ShaHandle(lifted.src), nb, rng)
    yield ("lifted-structure-multiplication", lifted(freerb.sha_map(lifted, big)),
           lifted(freerb.mu(big)), {"w": big})
    # lifted costructure on the tensor carrier
    co = hurwitz.costructure_hom(canonical_derivation(h), cfg.precision)
    lifted_co = distlaw.lift_costructure_hom(co)
    u = random_element(ShaHandle(h), nb, rng)
    fu = distlaw.lift_costructure(co, u)
    yield "lifted-costructure-counit", hurwitz.counit(fu), u, {"u": u}
    yield ("lifted-costructure-comultiplication", hurwitz.comult(fu),
           hurwitz.map_pointwise(lifted_co, fu), {"u": u})


def _check_mixed_compat(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    s = ShaHandle(h)
    evaluation = freerb.structure_hom(canonical_rb(s))
    costr = hurwitz.costructure_hom(canonical_derivation(s), cfg.precision)
    w = random_element(ShaHandle(s), cfg.nested_budget(), rng)
    yield ("mixed-compatibility",
           *distlaw.mixed_compat_sides(evaluation, costr, w), {"w": w})


def _check_adjunction_triangles(rng: random.Random, cfg: SampleConfig, i: int):
    h = _poly_x(cfg, cfg.weight(i))
    hh = HurwitzHandle(h, cfg.precision)
    f = random_element(hh, cfg.budget(), rng)
    # round trip through iterated shifts and heads recovers the series
    tower = hurwitz.derivation_series(f, canonical_derivation(hh), cfg.precision)
    yield ("triangle-counit-unit",
           hurwitz.map_pointwise(hurwitz.counit_hom(hh), tower), f, {"f": f})
    # on the free carrier: the iterate series is a morphism for both operators
    s = ShaHandle(h)
    d = canonical_derivation(s)
    u = random_element(s, cfg.nested_budget(), rng)
    ds = hurwitz.derivation_series(u, d, cfg.precision)
    yield "triangle-point", hurwitz.counit(ds), u, {"u": u}
    # handles always carry the working precision; comparisons take the minimum
    yield ("iterates-intertwine-derivation", hurwitz.shift(ds),
           hurwitz.derivation_series(d(u), d, cfg.precision), {"u": u})
    yield ("iterates-intertwine-operator",
           hurwitz.rb_lift_apply(ds, canonical_rb(s)),
           hurwitz.derivation_series(freerb.rb_prepend(u), d, cfg.precision), {"u": u})


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


def _sides_equal(lhs, rhs) -> bool:
    """Algebra elements compare by canonical form (series on their common
    precision); anything else, such as a decay span, a count or a verdict,
    by ``==``."""
    if isinstance(lhs, (Terms, Series)):
        return alg_eq(lhs, rhs)
    return lhs == rhs


def run_suite(suite: LawSuite, seed: int = 0,
              cfg: SampleConfig | None = None) -> LawReport:
    """Evaluate one suite's claims in order; stops at the first that fails.

    The counterexample's weight is the sample's cycled weight unless the
    claim's inputs name their own."""
    if cfg is None:
        cfg = SampleConfig()
    subseed = f"{seed}:{suite.name}"
    rng = random.Random(subseed)
    started = time.perf_counter()
    for i in range(suite.samples):
        for law, lhs, rhs, inputs in suite.check(rng, cfg, i):
            if not _sides_equal(lhs, rhs):
                parts = {"weight": cfg.weight(i), "law": law, **inputs,
                         "lhs": lhs, "rhs": rhs}
                ce = {"index": i, **{k: str(v) for k, v in parts.items()}}
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
