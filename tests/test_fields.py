"""Exact scalar arithmetic for the rationals and prime residue fields."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpring.fields import FieldError, PrimeField, RationalField, make_field

Q = RationalField()
F5 = PrimeField(5)


def test_rational_basics():
    assert Q.zero == 0 and Q.one == 1
    assert Q.add(2, 3) == 5
    assert Q.sub(2, 3) == -1
    assert Q.mul(4, -6) == -24
    assert Q.neg(7) == -7
    assert Q.characteristic == 0
    assert Q.name == "rationals"


def test_rational_inverse_stays_exact():
    assert Q.inv(2) == Fraction(1, 2)
    assert Q.inv(-1) == -1
    # inverses of +-1 collapse back to plain ints
    assert isinstance(Q.inv(1), int) and isinstance(Q.inv(-1), int)
    assert Q.mul(Q.inv(7), 7) == 1
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)


def test_rational_coerce_and_parse():
    assert Q.coerce(Fraction(4, 2)) == 2 and isinstance(Q.coerce(Fraction(4, 2)), int)
    assert Q.parse("3/4") == Fraction(3, 4)
    assert Q.parse("-12") == -12
    assert Q.format(Fraction(3, 4)) == "3/4"
    assert Q.parse(Q.format(Fraction(-5, 7))) == Fraction(-5, 7)
    with pytest.raises(FieldError):
        Q.parse("zebra")
    with pytest.raises(FieldError):
        Q.parse("1/0")
    with pytest.raises(FieldError):
        Q.coerce(True)
    with pytest.raises(FieldError):
        Q.coerce(0.5)


def test_prime_field_basics():
    assert F5.add(3, 4) == 2
    assert F5.sub(1, 3) == 3
    assert F5.mul(3, 4) == 2
    assert F5.neg(2) == 3
    assert F5.reduce(-1) == 4
    assert F5.characteristic == 5
    for a in range(1, 5):
        assert F5.mul(a, F5.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_prime_field_parse_format():
    assert F5.parse("7") == 2
    assert F5.format(12) == "2"
    assert F5.parse(F5.format(4)) == 4
    with pytest.raises(FieldError):
        F5.parse("1/2")
    with pytest.raises(FieldError):
        F5.parse("x")


def test_prime_field_requires_prime_modulus():
    with pytest.raises(FieldError):
        PrimeField(1)
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(561)  # Carmichael number
    PrimeField(2)
    PrimeField(97)
    PrimeField(7919)


def test_make_field():
    assert make_field("rationals") == Q
    assert make_field("q") == Q
    assert make_field("GF", 3) == PrimeField(3)
    with pytest.raises(FieldError):
        make_field("gf")
    with pytest.raises(FieldError):
        make_field("rationals", 5)
    with pytest.raises(FieldError):
        make_field("reals")


def test_field_equality_and_hash():
    assert RationalField() == RationalField()
    assert PrimeField(3) == PrimeField(3)
    assert PrimeField(3) != PrimeField(5)
    assert hash(PrimeField(3)) == hash(PrimeField(3))
    assert RationalField() != PrimeField(3)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_rational_field_axioms(a, b, c):
    assert Q.add(a, b) == Q.add(b, a)
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.add(a, Q.neg(a)) == Q.zero
    if a != 0:
        assert Q.mul(a, Q.inv(a)) == Q.one


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_prime_field_axioms(a, b, c):
    f = PrimeField(7)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if a % 7:
        assert f.mul(a, f.inv(a)) == f.one
    assert 0 <= f.mul(a, b) < 7


@given(st.integers(-10**20, 10**20))
def test_reduce_maps_an_int_into_the_field(n):
    # the one map of exact values into a field: an int is itself over Q,
    # an int, and its residue over GF(p)
    r = Q.reduce(n)
    assert r == n and type(r) is int
    for p in (2, 3, 5, 2**31 - 1):
        assert PrimeField(p).reduce(n) == n % p


rationals = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(max_denominator=50),
    # integral values held as Fractions, as non-canonical inputs
    st.integers(-50, 50).map(Fraction),
)


@given(rationals, rationals)
def test_rational_results_are_canonical(a, b):
    for op, expect in ((Q.add, Fraction(a) + Fraction(b)),
                       (Q.sub, Fraction(a) - Fraction(b)),
                       (Q.mul, Fraction(a) * Fraction(b))):
        r = op(a, b)
        assert r == expect
        assert type(r) is (int if expect.denominator == 1 else Fraction)
        assert Q.format(r) == str(expect)
