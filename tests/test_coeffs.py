"""Scalar arithmetic: exactness, normalization, and commutative-ring axioms."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbshuffle.coeffs import (INTEGERS, RATIONALS, Ring, RingError, Scalar,
                              parse_ring, parse_scalar, residues)

Z5 = residues(5)
RINGS = (RATIONALS, INTEGERS, Z5)


def test_rational_examples():
    half = RATIONALS.from_fraction(Fraction(1, 2))
    third = RATIONALS.from_fraction(Fraction(1, 3))
    assert half + third == RATIONALS.from_fraction(Fraction(5, 6))
    assert (RATIONALS.from_fraction(Fraction(2, 3))
            * RATIONALS.from_fraction(Fraction(3, 2))) == RATIONALS.one()


def test_additive_multiplicative_identities():
    for ring in RINGS:
        a = ring.from_int(7)
        assert a + ring.zero() == a
        assert a * ring.one() == a


def test_residue_reduction():
    assert Z5.from_int(3) + Z5.from_int(4) == Z5.from_int(2)
    assert Z5.from_int(2) * Z5.from_int(3) == Z5.from_int(1)
    assert Z5.from_int(-1).value == 4


def test_normalization_is_canonical():
    assert RATIONALS.from_fraction(Fraction(2, 4)) == RATIONALS.from_fraction(Fraction(1, 2))
    assert (RATIONALS.from_fraction(Fraction(-3, -6))
            == RATIONALS.from_fraction(Fraction(1, 2)))
    assert RATIONALS.from_fraction(Fraction(1, -2)).value.denominator == 2
    assert RATIONALS.from_int(1) != RATIONALS.from_int(2)


def test_mode_mixing_rejected():
    for r1, r2 in ((RATIONALS, INTEGERS), (RATIONALS, residues(7)),
                   (residues(6), residues(7)), (INTEGERS, Z5)):
        a, b = r1.from_int(2), r2.from_int(3)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
            with pytest.raises(RingError):
                op()


def test_inverse():
    assert RATIONALS.from_int(2).inverse() == RATIONALS.from_fraction(Fraction(1, 2))
    assert Z5.from_int(2).inverse() == Z5.from_int(3)
    assert INTEGERS.from_int(-1).inverse() == INTEGERS.from_int(-1)
    with pytest.raises(RingError):
        INTEGERS.from_int(2).inverse()
    with pytest.raises(RingError):
        residues(6).from_int(2).inverse()
    with pytest.raises(ZeroDivisionError):
        RATIONALS.zero().inverse()


def test_powers():
    lam = RATIONALS.from_fraction(Fraction(1, 2))
    assert lam.pow_nat(0) == RATIONALS.one()
    assert lam.pow_nat(3) == RATIONALS.from_fraction(Fraction(1, 8))
    assert RATIONALS.zero().pow_nat(0) == RATIONALS.one()
    assert RATIONALS.zero().pow_nat(2) == RATIONALS.zero()


def test_rendering_and_parsing():
    assert str(RATIONALS.from_fraction(Fraction(5, 6))) == "5/6"
    assert str(RATIONALS.from_int(-3)) == "-3"
    assert str(Z5.from_int(2)) == "2 mod 5"
    assert parse_scalar("5/6", RATIONALS) == RATIONALS.from_fraction(Fraction(5, 6))
    assert parse_scalar("2 mod 5", Z5) == Z5.from_int(2)
    assert parse_scalar("1/2", Z5) == Z5.from_int(3)
    assert parse_scalar("-4", INTEGERS) == INTEGERS.from_int(-4)
    assert parse_scalar("6/-3", INTEGERS) == INTEGERS.from_int(-2)
    with pytest.raises(RingError):
        parse_scalar("1/2", INTEGERS)
    with pytest.raises(RingError):
        parse_scalar("1/2", residues(4))
    with pytest.raises(RingError):
        parse_scalar("2 mod 7", Z5)
    assert parse_ring("zmod:11") == residues(11)
    assert parse_ring("q") == RATIONALS
    with pytest.raises(RingError):
        parse_ring("gf256")


def test_bad_ring_specs():
    with pytest.raises(RingError):
        Ring("zmod", 1)
    with pytest.raises(RingError):
        Ring("q", 5)


small_ints = st.integers(min_value=-50, max_value=50)


@st.composite
def scalars(draw, ring):
    n = draw(small_ints)
    if ring.is_rational:
        d = draw(st.integers(min_value=1, max_value=20))
        return ring.from_fraction(Fraction(n, d))
    return ring.from_int(n)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_commutative_ring_axioms(ring, data):
    a = data.draw(scalars(ring))
    b = data.draw(scalars(ring))
    c = data.draw(scalars(ring))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero() == a
    assert a * ring.one() == a
    assert a + (-a) == ring.zero()


@pytest.mark.parametrize("ring,value", ((INTEGERS, Fraction(3, 2)), (Z5, Fraction(1, 2)),
                                        (RATIONALS, 0.5)), ids=str)
def test_from_int_refuses_to_coerce(ring, value):
    # each of these was once accepted: z truncated 3/2 to 1, zmod stored a
    # Fraction residue and q turned the float into 1/2
    with pytest.raises(TypeError):
        ring.from_int(value)


def _canonical_rational(s: Scalar, model: Fraction) -> None:
    """s is on q, equals the plain-Fraction model, and is an int exactly
    when the model is whole."""
    assert s.ring == RATIONALS and s.value == model
    assert type(s.value) is (int if model.denominator == 1 else Fraction)


fractions_ = st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=20))


@settings(max_examples=500, deadline=None)
@given(fa=fractions_, fb=fractions_, k=st.integers(min_value=0, max_value=4))
def test_rational_values_are_canonical(fa, fb, k):
    a, b = RATIONALS.from_fraction(fa), RATIONALS.from_fraction(fb)
    _canonical_rational(a, fa)
    _canonical_rational(b, fb)
    results = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (-a, -fa),
               (a.pow_nat(k), fa ** k)]
    if fb:
        results += [(b.inverse(), 1 / fb), (a * b.inverse(), fa / fb)]
    for s, model in results:
        _canonical_rational(s, model)
        # the same value reached another way is the same scalar
        again = RATIONALS.from_fraction(model)
        assert s == again and hash(s) == hash(again) and type(s.value) is type(again.value)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a * b == b * a and hash(a * b) == hash(b * a)


@pytest.mark.parametrize("m", (6, 7))
@settings(max_examples=300, deadline=None)
@given(x=small_ints, y=small_ints, k=st.integers(min_value=0, max_value=4))
def test_residue_values_are_canonical(m, x, y, k):
    ring = residues(m)
    a, b = ring.from_int(x), ring.from_int(y)
    results = [a, b, a + b, a - b, a * b, -a, a.pow_nat(k)]
    if gcd(y, m) == 1:
        results += [b.inverse(), a * b.inverse()]
    for s in results:
        assert type(s.value) is int and 0 <= s.value < m
    assert (a + b).value == (x + y) % m and (a * b).value == x * y % m
