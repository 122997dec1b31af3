"""Base change as an oracle: evaluation commutes with the ring maps Z -> Q
and Z -> Z/m, since every structure constant (shuffle weights, pair-table
coefficients, difference quotients, the scaled identity) is an integer.

Random integer expressions over ``poly(x,y)``, ``sha(poly(x,y))`` and
``hur(poly(x),3)`` with ``P``, ``D``, products and powers are evaluated over
z; over q the printed value and the stored coefficient types must be the
same, and over zmod:m the printed z value read back must equal the
expression evaluated there.  Series operands of dense values of degree 12
lie above the polynomial kernel's packing cost, so products of them pack.
"""

import random

import pytest

from rbshuffle import algebra
from rbshuffle.algebra import PolyHandle
from rbshuffle.coeffs import INTEGERS, RATIONALS, residues
from rbshuffle.exprs import eval_text, parse_handle
from rbshuffle.freerb import Tensor
from rbshuffle.hurwitz import Series

CARRIERS = ("poly(x,y)", "sha(poly(x,y))", "hur(poly(x),3)")
WEIGHTS = (0, 1, 2, -1, 3)


def _poly(rng: random.Random, names: tuple, terms: int, degree: int) -> str:
    """A random polynomial with integer coefficients in the given variables."""
    return " + ".join(f"{rng.randint(-9, 9) or 1}"
                      + "".join(f"*{v}^{rng.randint(0, degree)}" for v in names)
                      for _ in range(terms))


def _expression(rng: random.Random, carrier: str, depth: int, rb_on_poly: bool) -> str:
    """A random expression over carrier with integer coefficients; with
    rb_on_poly False no ``P`` acts on a polynomial or series carrier, whose
    operator over q at weight 0 (integration) has no counterpart over z.
    Series literals hold values of degree at most 3, or dense ones of degree
    12, above the packing cost."""
    names = ("x", "y") if ",y" in carrier else ("x",)
    if depth == 0 or rng.random() < 0.2:
        if carrier.startswith("hur") and rng.random() < 0.6:
            if rng.random() < 0.3:
                return "[" + "; ".join(" + ".join(f"{rng.randint(-9, 9)}*x^{e}" for e in range(13))
                                       for _ in range(4)) + "]"
            return "[" + "; ".join(_expression(rng, "poly(x)", 1, rb_on_poly)
                                   for _ in range(4)) + "]"
        return f"({_poly(rng, names, rng.randint(1, 2 if carrier.startswith('sha') else 3), 3)})"
    sub = [_expression(rng, carrier, depth - 1, rb_on_poly) for _ in range(2)]
    kind = rng.randrange(6)
    if kind == 0:
        calls = ("P", "D") if rb_on_poly or carrier.startswith("sha") else ("D",)
        return f"{rng.choice(calls)}({sub[0]})"
    if kind == 1:
        return f"{sub[0]}^{rng.randint(0, 2)}"
    ops = ("+", "-", "*", "*", "#") if carrier.startswith("sha") else ("+", "-", "*", "*")
    return f"({sub[0]} {rng.choice(ops)} {sub[1]})"


def _stored_types(x) -> list:
    """Every term map in x as its dict key -> type of stored coefficient."""
    if isinstance(x, Series):
        return [t for v in x.values for t in _stored_types(v)]
    out = [{k: type(v) for k, v in x._bare.items()}]
    if isinstance(x, Tensor) and not isinstance(x.handle.inner, PolyHandle):
        out += [t for key in x.terms for f in key for t in _stored_types(f)]
    return out


@pytest.fixture
def packed_calls(monkeypatch):
    """The polynomial ``row_products`` calls that went packed: nonzero
    output with no term-by-term pair product."""
    pairs, packed = [], []
    real_rows, real_pairs = algebra.row_products, algebra._key_products

    def row_products(handle, *args):
        before = len(pairs)
        out = real_rows(handle, *args)
        if isinstance(handle, PolyHandle) and len(pairs) == before and any(
                not v.is_zero for v in out):
            packed.append(handle)
        return out
    monkeypatch.setattr(algebra, "row_products", row_products)
    monkeypatch.setattr(algebra, "_key_products",
                        lambda *a: pairs.append(None) or real_pairs(*a))
    return packed


@pytest.mark.parametrize("carrier", CARRIERS)
def test_integers_inside_the_rationals_print_and_store_alike(carrier, packed_calls):
    rng = random.Random(f"z-in-q:{carrier}")
    for lam in WEIGHTS:
        hz, hq = (parse_handle(carrier, r, r.from_int(lam), 3) for r in (INTEGERS, RATIONALS))
        for _ in range(20):
            expr = _expression(rng, carrier, 3, lam != 0)
            vz, vq = eval_text(expr, hz), eval_text(expr, hq)
            assert str(vz) == str(vq), expr
            assert _stored_types(vz) == _stored_types(vq), expr
    if carrier.startswith("hur"):
        assert {h.ring for h in packed_calls} == {INTEGERS, RATIONALS}


@pytest.mark.parametrize("m", (4, 6))
@pytest.mark.parametrize("carrier", CARRIERS)
def test_integers_reduced_mod_m_commute_with_evaluation(carrier, m, packed_calls):
    zm = residues(m)
    rng = random.Random(f"z-to-zmod:{m}:{carrier}")
    for lam in WEIGHTS:
        hz, hm = (parse_handle(carrier, r, r.from_int(lam), 3) for r in (INTEGERS, zm))
        for _ in range(20):
            expr = _expression(rng, carrier, 3, True)
            assert eval_text(str(eval_text(expr, hz)), hm) == eval_text(expr, hm), expr
    if carrier.startswith("hur"):
        assert {h.ring for h in packed_calls} == {INTEGERS, zm}
