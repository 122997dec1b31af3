"""The shared term map: printed text, JSON form, sums and equality of
polynomials and tensors."""

import json

import pytest

from rbshuffle.algebra import Poly, Terms
from rbshuffle.coeffs import RATIONALS, parse_scalar, residues
from rbshuffle.exprs import eval_text, parse_handle
from rbshuffle.freerb import Tensor

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
    fake = Tensor(h.inner, x.terms)
    assert x != fake and fake != x
    assert x == Poly(h.inner, x.terms)
