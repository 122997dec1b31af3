"""The shared term map: printed text, JSON form, sums and equality of
polynomials and tensors, and the canonical bare values it stores."""

import json
import random
from fractions import Fraction

import pytest

from rbshuffle.algebra import (HandleMismatchError, HurwitzHandle, Poly, SampleBudget,
                               ShaHandle, Terms, random_element)
from rbshuffle.coeffs import RATIONALS, Scalar, parse_ring, parse_scalar, residues
from rbshuffle.distlaw import canonical_derivation
from rbshuffle.exprs import eval_text, parse_handle
from rbshuffle.freerb import Tensor, eta, sha_map
from rbshuffle.hurwitz import Series

Q = RATIONALS
Z6 = residues(6)


def value(handle_text, expr, ring=Q, lam="0"):
    h = parse_handle(handle_text, ring, parse_scalar(lam, ring), 2)
    return eval_text(expr, h)


# (handle, expression, ring, weight, str, to_json), rendered before Poly and
# Tensor shared one term-map class; repr is the class name around str.
PINNED = [
    ("poly(x,y)", "-x^2*y + 3/2*x - 1", Q, "0", "-x^2*y + 3/2*x - 1",
     '[{"exponents": [0, 0], "coeff": "-1"}, {"exponents": [1, 0], "coeff": "3/2"},'
     ' {"exponents": [2, 1], "coeff": "-1"}]'),
    ("poly(x,y)", "x*y - 2*y^2 + x", Q, "0", "x*y - 2*y^2 + x",
     '[{"exponents": [1, 0], "coeff": "1"}, {"exponents": [0, 2], "coeff": "-2"},'
     ' {"exponents": [1, 1], "coeff": "1"}]'),
    ("poly(x)", "0", Q, "0", "0", "[]"),
    ("poly(x,y)", "5*x^2 + 4*x*y - 1", Z6, "1", "5*x^2 + 4*x*y + 5",
     '[{"exponents": [0, 0], "coeff": "5 mod 6"}, {"exponents": [1, 1], "coeff": "4 mod 6"},'
     ' {"exponents": [2, 0], "coeff": "5 mod 6"}]'),
    ("sha(poly(x,y))", "-(x # y) + 2*(1 # x # y) + 3*x - y^2", Q, "0",
     "3*x - y^2 - (x # y) + 2*(1 # x # y)",
     '[{"coeff": "3", "factors": [[{"exponents": [1, 0], "coeff": "1"}]]},'
     ' {"coeff": "-1", "factors": [[{"exponents": [0, 2], "coeff": "1"}]]},'
     ' {"coeff": "-1", "factors": [[{"exponents": [1, 0], "coeff": "1"}],'
     ' [{"exponents": [0, 1], "coeff": "1"}]]},'
     ' {"coeff": "2", "factors": [[{"exponents": [0, 0], "coeff": "1"}],'
     ' [{"exponents": [1, 0], "coeff": "1"}], [{"exponents": [0, 1], "coeff": "1"}]]}]'),
    ("sha(poly(x))", "x # 1", Q, "0", "x # 1",
     '[{"coeff": "1", "factors": [[{"exponents": [1], "coeff": "1"}],'
     ' [{"exponents": [0], "coeff": "1"}]]}]'),
    ("sha(poly(x))", "-(x # 1)", Q, "0", "-(x # 1)",
     '[{"coeff": "-1", "factors": [[{"exponents": [1], "coeff": "1"}],'
     ' [{"exponents": [0], "coeff": "1"}]]}]'),
    ("sha(poly(x))", "(x # 1) - (x # 1)", Q, "0", "0", "[]"),
    ("sha(poly(x))", "5*(x # x) + 4*x", Z6, "1", "4*x + 5*(x # x)",
     '[{"coeff": "4 mod 6", "factors": [[{"exponents": [1], "coeff": "1 mod 6"}]]},'
     ' {"coeff": "5 mod 6", "factors": [[{"exponents": [1], "coeff": "1 mod 6"}],'
     ' [{"exponents": [1], "coeff": "1 mod 6"}]]}]'),
    ("sha(sha(poly(x)))", "(x # 1) # x - 2*eta(1 # x^2)", Q, "0",
     "-2*(eta(x) # eta(1) # eta(1 # x^2)) + (eta(x) # eta(1) # eta(x))",
     '[{"coeff": "-2", "factors": [[{"coeff": "1", "factors": [[{"exponents": [1], "coeff": "1"}]]}],'
     ' [{"coeff": "1", "factors": [[{"exponents": [0], "coeff": "1"}]]}],'
     ' [{"coeff": "1", "factors": [[{"exponents": [0], "coeff": "1"}],'
     ' [{"exponents": [2], "coeff": "1"}]]}]]},'
     ' {"coeff": "1", "factors": [[{"coeff": "1", "factors": [[{"exponents": [1], "coeff": "1"}]]}],'
     ' [{"coeff": "1", "factors": [[{"exponents": [0], "coeff": "1"}]]}],'
     ' [{"coeff": "1", "factors": [[{"exponents": [1], "coeff": "1"}]]}]]}]'),
    ("sha(hur(poly(x),2))", "[x; 1; -x] # [1; 1/2*x; 0] - 3*[0; x; 1]", Q, "0",
     "-3*([x; 1; -x] # [0; x; 1]) + ([x; 1; -x] # [1; 1/2*x; 0])",
     '[{"coeff": "-3", "factors": [{"precision": 2, "values": [[{"exponents": [1], "coeff": "1"}],'
     ' [{"exponents": [0], "coeff": "1"}], [{"exponents": [1], "coeff": "-1"}]]},'
     ' {"precision": 2, "values": [[], [{"exponents": [1], "coeff": "1"}],'
     ' [{"exponents": [0], "coeff": "1"}]]}]},'
     ' {"coeff": "1", "factors": [{"precision": 2, "values": [[{"exponents": [1], "coeff": "1"}],'
     ' [{"exponents": [0], "coeff": "1"}], [{"exponents": [1], "coeff": "-1"}]]},'
     ' {"precision": 2, "values": [[{"exponents": [0], "coeff": "1"}],'
     ' [{"exponents": [1], "coeff": "1/2"}], []]}]}]'),
]


@pytest.mark.parametrize("handle,expr,ring,lam,text,as_json", PINNED)
def test_pinned_text_and_json(handle, expr, ring, lam, text, as_json):
    v = value(handle, expr, ring, lam)
    assert str(v) == text
    assert repr(v) == f"{type(v).__name__}({text})"
    assert json.dumps(v.to_json()) == as_json


def test_poly_and_tensor_share_the_term_map():
    for cls in (Poly, Tensor):
        assert issubclass(cls, Terms)
        for name in ("__init__", "zero", "is_zero", "__neg__", "__sub__", "scale",
                     "__eq__", "__hash__", "basis_expansion", "__str__", "__repr__"):
            assert name not in vars(cls), f"{cls.__name__} defines {name}"
    # the sum stays an entry of Poly's own, the same function as the shared one
    assert vars(Poly)["__add__"] is Terms.__add__
    assert "__add__" not in vars(Tensor)


def test_monic_basis_elements_are_shared_not_copied():
    # a tensor key is the tuple of its factors' basis keys on every inner, and
    # .terms decodes each distinct basis key into one monic factor, shared by
    # every place in the view where that key occurs
    for text, handle_text in (("x^2*y", "poly(x,y)"), ("x # y", "sha(poly(x,y))"),
                              ("1", "poly(x,y)")):
        v = value(handle_text, text)
        u = eta(v)
        assert u.terms == {(v,): Q.one()} and list(u.terms) == [(v,)]
        assert list(u._bare) == [tuple(v._bare)]
    for ring, lam in ((Q, "0"), (Z6, "1")):
        v = value("sha(poly(x,y))", "2*(x # y) + y", ring, lam)
        u = eta(v)
        for (b,) in u.terms:
            assert b != v and len(b.terms) == 1 and 1 in b._bare.values()
        assert sorted(c.value for c in u.terms.values()) == [1, 2]
        assert set(u._bare) == {(k,) for k in v._bare}
    h = parse_handle("sha(sha(poly(x,y)))", Q, Q.zero(), 2)
    x = Poly.variable(h.inner.inner, "x")
    xy = x * Poly.variable(h.inner.inner, "y")
    inner = Tensor.from_factors(h.inner, (x, xy))
    u = Tensor.from_factors(h, (inner, inner))
    (outer,) = u.terms
    assert outer == (inner, inner) and outer[0] is outer[1]
    (key,) = inner._bare
    assert u._bare == {(key, key): 1}
    # a scaled factor is expanded to the equal monic element
    (outer,) = Tensor.from_factors(h, (inner.scale(Q.from_int(3)), inner)).terms
    assert outer[0] == inner and outer[1] == inner
    # over polynomials keys hold monomial codes, which the view shows as the
    # equal monic factors, scaled ones expanded
    for factors in ((x, xy), (x.scale(Q.from_int(3)), xy)):
        (key,) = Tensor.from_factors(h.inner, factors).terms
        assert key == (x, xy)


def test_tensor_sum_cancels_to_zero_mod_six():
    u = value("sha(poly(x))", "2*(x # 1) + 3*x", Z6, "1")
    v = value("sha(poly(x))", "4*(x # 1) + 3*x", Z6, "1")
    total = u + v
    assert total.is_zero and total.terms == {}
    assert total == Tensor.zero(u.handle)
    assert str(total) == "0"
    part = value("sha(poly(x))", "x # 1", Z6, "1").scale(Z6.from_int(2))
    assert u - part == value("sha(poly(x))", "3*x", Z6, "1")


def test_poly_never_equals_tensor():
    h = parse_handle("sha(poly(x))", Q, Q.zero(), 2)
    zeros = (Poly.zero(h.inner), Tensor.zero(h))
    assert zeros[0] != zeros[1] and zeros[1] != zeros[0]
    # the same handle and the same term map still differ in kind
    x = Poly.variable(h.inner, "x")
    fake = Tensor._trusted(h.inner, x._bare)
    assert x != fake and fake != x
    assert x == Poly(h.inner, x.terms)
    # the public constructor builds tensors on sha(...) handles only
    with pytest.raises(HandleMismatchError):
        Tensor(h.inner, x.terms)


# (ring, weight): the weight 3 on Z/6 is a zero divisor, so merged words and
# scaled sums vanish there
RINGS = (("q", "1/2"), ("z", "-1"), ("zmod:6", "3"))
HANDLES = ("poly(x,y)", "sha(poly(x,y))", "hur(poly(x,y),2)", "sha(hur(poly(x),1))")


def _term_maps(x):
    """Every term map in x: itself, a series' values, a tensor's factors."""
    if isinstance(x, Series):
        for v in x.values:
            yield from _term_maps(v)
        return
    yield x
    if isinstance(x, Tensor):
        for t in x.terms:
            for f in t:
                yield from _term_maps(f)


def _assert_canonical(x):
    for p in _term_maps(x):
        ring = p.handle.ring
        for v in p._bare.values():
            assert v != 0
            assert type(v) is int or (ring.is_rational and type(v) is Fraction
                                       and v.denominator > 1)
            assert not ring.modulus or 0 <= v < ring.modulus
        back = type(p)(p.handle, p.terms)
        assert back == p and hash(back) == hash(p)
        assert ({k: type(v) for k, v in back._bare.items()}
                == {k: type(v) for k, v in p._bare.items()})
        assert all(type(c) is Scalar and c.ring == ring for c in p.terms.values())
        if isinstance(p, Poly):  # keys show as exponent vectors, and only those are keys
            n = len(p.handle.variables)
            assert all(type(k) is tuple and len(k) == n and min(k) >= 0 for k in p.terms)
            for bad in ((0,) * (n + 1), (-1,) + (0,) * (n - 1), (2 ** 31,) + (0,) * (n - 1)):
                with pytest.raises(KeyError):
                    p.terms[bad]
        with pytest.raises(TypeError):
            p.terms[next(iter(p.terms), ())] = ring.one()


@pytest.mark.parametrize("ring,lam", RINGS)
@pytest.mark.parametrize("text", HANDLES)
def test_stored_values_stay_canonical(text, ring, lam):
    r = parse_ring(ring)
    h = parse_handle(text, r, parse_scalar(lam, r), 2)
    budget = SampleBudget(max_terms=2, max_tensor_len=2, precision=2)
    rng = random.Random(f"{text} {ring}")
    d = canonical_derivation(h)

    def six_times(key):  # zero on Z/6
        return [(key, 3), (key, 3)]
    for _ in range(6):
        x, y = (random_element(h, budget, rng) for _ in range(2))
        c = r.from_int(rng.choice((-2, 2, 3)))
        outs = [x + y, x - y, -x, x.scale(c), x * y, d(x), d(x * y)]
        if isinstance(h, ShaHandle):
            outs.append(sha_map(canonical_derivation(h.inner), x))
        if not isinstance(h, HurwitzHandle):
            outs.append(x.linear_map(six_times))
        for out in [x, y] + outs:
            _assert_canonical(out)
