"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is a function from a seed to one round: a fixed list of
operations.  Inputs are built only through the ``Poly``, ``Series`` and
``Tensor.from_factors`` constructors, so they do not change when the
program's own random sampling changes.  Each operation calls a public entry
point, looking it up at call time so that a tracer's wrappers see it.
Each check compares the output with an independent computation from
``oracles`` and caches what it computed, because rounds repeat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles
from rbshuffle import algebra, hurwitz, laws
from rbshuffle.algebra import Poly, poly_handle
from rbshuffle.coeffs import RATIONALS, Scalar
from rbshuffle.freerb import Tensor
from rbshuffle.hurwitz import Series


@dataclass
class Op:
    """One timed call and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # canonical output terms, for terms_per_s; None where it does not apply
    terms: Callable[[object], int] | None = None


WEIGHTS = (Fraction(0), Fraction(1), Fraction(1, 2))
NONZERO_COEFFS = (-3, -2, -1, 1, 2, 3)


def _scalar(q) -> Scalar:
    return RATIONALS.from_fraction(Fraction(q))


# --------------------------------------------------------------------------
# shuffle: pure-tensor products over distinct symbols

SHUFFLE_SHAPES = ((1, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (3, 5),
                  (4, 5), (5, 5), (4, 6), (5, 6), (6, 6))
# products with m + n at or below this are also compared term by term
SHUFFLE_FULL_COMPARE = 8


def tensor_words(u: Tensor) -> dict | None:
    """A tensor over distinct-symbol monomials as word -> Fraction, or None
    when some factor is not a monic monomial."""
    names = u.handle.inner.variables
    letters: dict = {}
    out = {}
    for factors, c in u.terms.items():
        word = []
        for p in factors:
            if len(p.terms) != 1:
                return None
            ((exps, pc),) = p.terms.items()
            if pc.value != 1:
                return None
            letter = letters.get(exps)
            if letter is None:
                letter = letters[exps] = tuple(
                    sorted(v for v, e in zip(names, exps) for _ in range(e)))
            word.append(letter)
        out[tuple(word)] = c.value
    return out


def shuffle_op(a: tuple, b: tuple, lam: Fraction, ca: int, cb: int) -> Op:
    """(ca * a0 # a1 # ...) * (cb * b0 # b1 # ...) over the symbols of a and b."""
    names = tuple(sorted(a + b))
    h = poly_handle(names, RATIONALS, _scalar(lam))
    s = algebra.sha(h)
    left = Tensor.from_factors(s, tuple(Poly.variable(h, v) for v in a), _scalar(ca))
    right = Tensor.from_factors(s, tuple(Poly.variable(h, v) for v in b), _scalar(cb))
    wa = tuple((v,) for v in a)
    wb = tuple((v,) for v in b)
    coeff = Fraction(ca * cb)
    full = len(a) + len(b) - 2 <= SHUFFLE_FULL_COMPARE
    expected: list = []

    def check(out) -> bool:
        words = tensor_words(out)
        if words is None:
            return False
        if full:
            if not expected:
                expected.append(oracles.shuffle_product(wa, wb, lam, coeff))
            if words != expected[0]:
                return False
        return oracles.check_shuffle_summary(words, wa, wb, lam, coeff)

    return Op(label=f"shuffle {len(a)}x{len(b)} lam={lam}",
              run=lambda: left * right, check=check,
              terms=lambda out: len(out.terms))


def shuffle_inputs(seed: int) -> list[tuple]:
    """(a, b, lam, ca, cb) for every shape at every weight: the seed places
    the distinct symbols and picks the two input coefficients."""
    rng = random.Random(f"shuffle:{seed}")
    out = []
    for lam in WEIGHTS:
        for m, n in SHUFFLE_SHAPES:
            symbols = [f"s{k}" for k in range(m + n + 2)]
            rng.shuffle(symbols)
            ca, cb = rng.choice(NONZERO_COEFFS), rng.choice(NONZERO_COEFFS)
            out.append((tuple(symbols[:m + 1]), tuple(symbols[m + 1:]), lam, ca, cb))
    return out


def shuffle_round(seed: int) -> list[Op]:
    return [shuffle_op(*x) for x in shuffle_inputs(seed)]


# --------------------------------------------------------------------------
# series: Hurwitz products and the higher Leibniz rule over poly(x, y)

SERIES_PRECISIONS = (8, 12)
SERIES_PAIRS = 4
POLY_TERMS = 3
POLY_DEGREE = 3
_MONOMIALS = tuple((a, d - a) for d in range(POLY_DEGREE + 1) for a in range(d + 1))


def random_poly_dict(rng: random.Random) -> dict:
    """POLY_TERMS distinct monomials of total degree <= POLY_DEGREE in
    (x, y), each with a nonzero coefficient in [-3, 3]."""
    return {m: Fraction(rng.choice(NONZERO_COEFFS))
            for m in rng.sample(_MONOMIALS, POLY_TERMS)}


def to_poly(h, p: dict) -> Poly:
    return Poly(h, {m: _scalar(c) for m, c in p.items()})


def poly_dict(p: Poly) -> dict:
    return {m: Fraction(c.value) for m, c in p.terms.items()}


def series_mul_op(h, n: int, f: list, g: list, lam: Fraction) -> Op:
    hh = algebra.hurwitz(h, n)
    left = Series(hh, [to_poly(h, v) for v in f])
    right = Series(hh, [to_poly(h, v) for v in g])
    expected: list = []

    def check(out) -> bool:
        if not expected:
            expected.append(oracles.hurwitz_product(f, g, lam))
        return [poly_dict(v) for v in out.values] == expected[0]

    return Op(label=f"series_mul N={n} lam={lam}",
              run=lambda: left * right, check=check,
              terms=lambda out: sum(len(v.terms) for v in out.values))


def higher_leibniz_op(h, n: int, x: dict, y: dict, lam: Fraction) -> Op:
    d = (algebra.derivative_on(h, "x") if lam == 0
         else algebra.difference_quotient_on(h, "x"))
    px, py = to_poly(h, x), to_poly(h, y)
    expected: list = []

    def check(out) -> bool:
        if not expected:
            expected.append(oracles.iterated_derivative_of_product(x, y, lam, n))
        return poly_dict(out) == expected[0]

    return Op(label=f"higher_leibniz n={n} lam={lam}",
              run=lambda: hurwitz.higher_leibniz(px, py, d, n), check=check,
              terms=lambda out: len(out.terms))


def series_inputs(seed: int) -> list[tuple]:
    """(lam, N, f, g): for each weight and precision N, SERIES_PAIRS random
    pairs of value lists of length N + 1."""
    rng = random.Random(f"series:{seed}")
    out = []
    for lam in WEIGHTS:
        for n in SERIES_PRECISIONS:
            for _ in range(SERIES_PAIRS):
                f = [random_poly_dict(rng) for _ in range(n + 1)]
                g = [random_poly_dict(rng) for _ in range(n + 1)]
                out.append((lam, n, f, g))
    return out


def series_round(seed: int) -> list[Op]:
    """Each input pair is multiplied as series, and its index-0 values go
    through the higher Leibniz rule at order N // 4.  The values have degree
    at most 3, so at higher orders the rule's result would be zero."""
    ops = []
    handles = {lam: poly_handle(("x", "y"), RATIONALS, _scalar(lam)) for lam in WEIGHTS}
    for lam, n, f, g in series_inputs(seed):
        ops.append(series_mul_op(handles[lam], n, f, g, lam))
        ops.append(higher_leibniz_op(handles[lam], n // 4, f[0], g[0], lam))
    return ops


# --------------------------------------------------------------------------
# check: law suites, as `rbshuffle check` runs them

# Every registered suite, in registry order; worked_example comes first and
# is the warm-up.  Spelled out so that a renamed or dropped suite stops the
# benchmark instead of silently changing its work.
CHECK_SUITES = (
    "worked_example", "poly_algebra", "sha_algebra", "hurwitz_algebra",
    "nested_algebra", "rb_identity", "lambda_leibniz", "higher_leibniz",
    "monad_laws", "comonad_laws", "t_structure", "costructure", "induced_hom",
    "shuffle_counts", "head_tail", "rb_lift", "n_morphism", "power_sequence",
    "drb", "mixed_distlaw_4", "beta_hom", "beta_naturality",
    "lifted_structures", "mixed_compat", "adjunction_triangles_drb")
# Fixed whatever --seed is: each suite's run time depends on the sizes of
# the elements it draws, so a varying law seed would add input variance to
# every figure.
LAW_SEED = 5


def suite_op(suite, cfg) -> Op:
    def check(report) -> bool:
        return report.passed and report.samples == suite.samples

    return Op(label=f"suite {suite.name}",
              run=lambda: laws.run_suite(suite, LAW_SEED, cfg), check=check)


def check_round(seed: int) -> list[Op]:
    registered = {s.name: s for s in laws.registry()}
    cfg = laws.SampleConfig()
    return [suite_op(registered[name], cfg) for name in CHECK_SUITES]


# name -> (round builder, nominal seconds per round on the reference machine)
WORKLOADS = {
    "shuffle": (shuffle_round, 9.0),
    "series": (series_round, 1.0),
    "check": (check_round, 30.0),
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds that fill about ``seconds`` on the reference machine.  The
    count depends only on the arguments, never on measured speed, so every
    run of a workload does the same work."""
    return max(1, round(seconds / WORKLOADS[workload][1]))
