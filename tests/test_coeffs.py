"""Scalar arithmetic: exactness, normalization, and commutative-ring axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbshuffle.coeffs import (INTEGERS, RATIONALS, Ring, RingError,
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
    with pytest.raises(RingError):
        RATIONALS.one() + INTEGERS.one()
    with pytest.raises(RingError):
        Z5.one() * residues(7).one()


def test_inverse_and_exact_division():
    assert RATIONALS.from_int(2).inverse() == RATIONALS.from_fraction(Fraction(1, 2))
    assert Z5.from_int(2).inverse() == Z5.from_int(3)
    assert INTEGERS.from_int(6).exact_div(INTEGERS.from_int(3)) == INTEGERS.from_int(2)
    with pytest.raises(RingError):
        INTEGERS.from_int(5).exact_div(INTEGERS.from_int(2))
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
    with pytest.raises(RingError):
        parse_scalar("1/2", INTEGERS)
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
