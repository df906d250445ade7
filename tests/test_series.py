"""Matrix series over nilpotent inner derivations: exact identities."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpring import series
from dpring.fields import PrimeField, RationalField
from dpring.ore import OrePoly
from dpring.series import (
    InnerDerivation,
    coefficient_identity,
    identity_matrix,
    invert_one_minus,
    is_strictly_upper,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    nil_index,
    s_index,
    vandermonde_extract,
    zero_matrix,
)

Q = RationalField()


def e(i, j, n=3, field=Q):
    """Matrix unit with a one in row i, column j (1-based)."""
    return tuple(
        tuple(field.one if (r, c) == (i - 1, j - 1) else field.zero
              for c in range(n))
        for r in range(n)
    )


def random_strict_upper(rng, field, n):
    return tuple(
        tuple(field.reduce(rng.choice([-2, -1, 0, 1, 2])) if j > i else field.zero
              for j in range(n))
        for i in range(n)
    )


# -- matrix helpers -----------------------------------------------------------


def test_unit_and_identity():
    assert e(1, 2) == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert identity_matrix(Q, 2) == ((1, 0), (0, 1))
    assert mat_is_zero(zero_matrix(Q, 3))


def test_mat_mul_units():
    # e12 e23 = e13, e23 e12 = 0
    assert mat_mul(Q, e(1, 2), e(2, 3)) == e(1, 3)
    assert mat_is_zero(mat_mul(Q, e(2, 3), e(1, 2)))


FIELDS = (Q, PrimeField(2), PrimeField(3), PrimeField(2**31 - 1))


def scalars(field):
    """Scalars of the field, zero included: Fractions over Q, residues over
    GF(p)."""
    if field.characteristic == 0:
        return st.fractions(-4, 4, max_denominator=5).map(field.coerce)
    return st.integers(-10**12, 10**12).map(field.reduce)


def matrices(field, rows, cols):
    return st.lists(st.lists(scalars(field), min_size=cols, max_size=cols)
                    .map(tuple), min_size=rows, max_size=rows).map(tuple)


def reference_mul(field, a, b):
    """a b entry by entry through field.add and field.mul."""
    out = []
    for row in a:
        entries = []
        for c in range(len(b[0])):
            acc = field.zero
            for x, col in zip(row, b):
                acc = field.add(acc, field.mul(x, col[c]))
            entries.append(acc)
        out.append(tuple(entries))
    return tuple(out)


@given(st.tuples(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4),
                 st.integers(1, 4)).flatmap(lambda c: st.tuples(
                     st.just(c[0]), matrices(c[0], c[1], c[2]),
                     matrices(c[0], c[2], c[3]))))
@settings(max_examples=80)
def test_mat_mul_is_the_per_entry_reference(case):
    field, a, b = case
    got = mat_mul(field, a, b)
    assert got == reference_mul(field, a, b)
    w = field.reduce(7)
    assert mat_mul(field, a, b, w) == reference_mul(field, a,
                                                    mat_scale(field, b, w))
    # each entry is a canonical scalar: an integral rational is an int, a
    # residue lies in [0, p)
    for v in (v for row in got for v in row):
        if field.characteristic:
            assert 0 <= v < field.characteristic
        else:
            assert type(v) is int or v.denominator != 1


def _strict_upper(field, n):
    cells = n * (n - 1) // 2
    return st.lists(scalars(field), min_size=cells, max_size=cells).map(
        lambda xs: tuple(
            tuple(xs.pop() if c > r else field.zero for c in range(n))
            for r in range(n)))


@given(st.tuples(st.sampled_from(FIELDS), st.integers(2, 4)).flatmap(
    lambda c: st.tuples(st.just(c[0]), _strict_upper(*c),
                        matrices(c[0], c[1], c[1]))))
@settings(max_examples=60)
def test_inner_derivation_is_the_commutator(case):
    field, u, a = case
    D = InnerDerivation(field, u)
    assert D(a) == mat_sub(field, reference_mul(field, u, a),
                           reference_mul(field, a, u))


def test_strictly_upper_and_nil_index():
    assert is_strictly_upper(e(1, 2))
    assert not is_strictly_upper(identity_matrix(Q, 3))
    assert nil_index(Q, zero_matrix(Q, 3)) == 1
    assert nil_index(Q, e(1, 2)) == 2
    assert nil_index(Q, mat_add(Q, e(1, 2), e(2, 3))) == 3
    with pytest.raises(ArithmeticError):
        nil_index(Q, identity_matrix(Q, 3))


# -- inner derivations -----------------------------------------------------------


def test_inner_derivation_frozen():
    D = InnerDerivation(Q, e(2, 3))
    # u e12 - e12 u = -e13
    assert D(e(1, 2)) == mat_scale(Q, e(1, 3), -1)
    assert mat_is_zero(D(e(2, 3)))
    with pytest.raises(ValueError):
        InnerDerivation(Q, identity_matrix(Q, 3))


def test_s_index():
    D = InnerDerivation(Q, e(2, 3))
    assert s_index(zero_matrix(Q, 3), D) == 0
    assert s_index(e(2, 3), D) == 1      # already killed by one derivative? no:
    # D(e23) = 0, so one application suffices
    assert s_index(e(1, 2), D) == 2      # e12 -> -e13 -> 0
    c = mat_add(Q, e(1, 2), e(2, 3))
    assert s_index(c, D) == 2


def test_derivation_is_leibniz():
    rng = random.Random(3)
    for _ in range(20):
        u = random_strict_upper(rng, Q, 4)
        a = random_strict_upper(rng, Q, 4)
        b = random_strict_upper(rng, Q, 4)
        D = InnerDerivation(Q, u)
        lhs = D(mat_mul(Q, a, b))
        rhs = mat_add(Q, mat_mul(Q, D(a), b), mat_mul(Q, a, D(b)))
        assert lhs == rhs


# -- skew polynomials ----------------------------------------------------------------


def test_skew_commutation():
    D = InnerDerivation(Q, e(2, 3))
    X = OrePoly(D, {1: identity_matrix(Q, 3)})
    a = OrePoly(D, {0: e(1, 2)})
    left = X * a
    # X a = a X + D(a)
    assert left.coeff(1) == e(1, 2)
    assert left.coeff(0) == mat_scale(Q, e(1, 3), -1)
    right = a * X
    assert (left - right).coeff(0) == D(e(1, 2))


def test_skew_mul_associative_random():
    rng = random.Random(8)
    for _ in range(10):
        u = random_strict_upper(rng, Q, 3)
        D = InnerDerivation(Q, u)
        ps = [OrePoly(D, {rng.randint(0, 2): random_strict_upper(rng, Q, 3),
                          rng.randint(0, 2): random_strict_upper(rng, Q, 3)})
              for _ in range(3)]
        a, b, c = ps
        assert (a * b) * c == a * (b * c)


def test_skew_zero_coefficients_dropped():
    D = InnerDerivation(Q, e(2, 3))
    p = OrePoly(D, {1: zero_matrix(Q, 3), 2: e(1, 2)})
    assert sorted(p.coeffs) == [2]
    assert OrePoly(D, {1: zero_matrix(Q, 3)}).is_zero()
    assert OrePoly(D, {1: zero_matrix(Q, 3)}) == OrePoly(D)


def test_skew_mixed_rings_are_refused():
    # same entries, but another field or another inner derivation
    f5 = PrimeField(5)
    D = InnerDerivation(Q, e(2, 3))
    p = OrePoly(D, {1: e(1, 2)})
    over_gf5 = OrePoly(InnerDerivation(f5, e(2, 3, field=f5)),
                       {1: e(1, 2, field=f5)})
    other_u = OrePoly(InnerDerivation(Q, e(1, 2)), {1: e(1, 2)})
    assert p == OrePoly(InnerDerivation(Q, e(2, 3)), {1: e(1, 2)})
    for q in (over_gf5, other_u):
        assert p != q
        for op in (lambda: p + q, lambda: p - q, lambda: p * q):
            with pytest.raises(ValueError, match="mixed coefficient rings"):
                op()


# -- geometric inverses ---------------------------------------------------------------


def test_invert_one_minus_frozen():
    D = InnerDerivation(Q, e(2, 3))
    inv = invert_one_minus(e(1, 2), 3, D)
    # (e12 X^3)^2 = 0, so the inverse stops after one correction term
    assert sorted(inv.coeffs) == [0, 3]
    assert inv.coeff(0) == identity_matrix(Q, 3)
    assert inv.coeff(3) == e(1, 2)


def test_invert_one_minus_longer_series():
    D = InnerDerivation(Q, e(2, 3))
    c = mat_add(Q, e(1, 2), e(2, 3))
    assert s_index(c, D) == 2
    inv = invert_one_minus(c, 3, D)
    assert sorted(inv.coeffs) == [0, 3, 6]
    assert inv.coeff(6) == e(1, 3)  # c^2
    one = OrePoly.one(D)
    g = OrePoly(D, {3: c})
    assert (one - g) * inv == one
    assert inv * (one - g) == one


def test_invert_one_minus_refuses_small_exponent():
    D = InnerDerivation(Q, e(2, 3))
    with pytest.raises(ValueError, match="need p > s_index"):
        invert_one_minus(e(1, 2), 2, D)
    with pytest.raises(ValueError, match="need p > s_index"):
        invert_one_minus(e(1, 2), 1, D)
    invert_one_minus(e(1, 2), 3, D)
    with pytest.raises(ValueError):
        invert_one_minus(identity_matrix(Q, 3), 5, D)


def test_invert_one_minus_refusal_derives_c_once(monkeypatch):
    calls = []

    def counting(c, D):
        calls.append(c)
        return s_index(c, D)
    monkeypatch.setattr(series, "s_index", counting)
    D = InnerDerivation(Q, e(2, 3))
    with pytest.raises(ValueError, match=r"^need p > s_index\(c\) = 2, got 2$"):
        invert_one_minus(e(1, 2), 2, D)
    assert len(calls) == 1


def test_coefficient_identity_examples():
    D = InnerDerivation(Q, e(2, 3))
    c = mat_add(Q, e(1, 2), e(2, 3))
    for n in range(1, nil_index(Q, c) + 1):
        assert coefficient_identity(c, 3, n, D)


def test_inverse_random_fields():
    for field in (Q, PrimeField(2), PrimeField(5)):
        rng = random.Random(21)
        done = 0
        while done < 8:
            u = random_strict_upper(rng, field, 4)
            c = random_strict_upper(rng, field, 4)
            if mat_is_zero(u) or mat_is_zero(c):
                continue
            D = InnerDerivation(field, u)
            p = s_index(c, D) + 1
            inv = invert_one_minus(c, p, D)
            one = OrePoly.one(D)
            g = OrePoly(D, {p: c})
            assert (one - g) * inv == one
            done += 1


# -- component extraction ----------------------------------------------------------------


def test_vandermonde_frozen_two_samples():
    # value(alpha) = g1 * alpha + g2 * alpha^2 with g1 = e12, g2 = e13
    g1, g2 = e(1, 2), e(1, 3)
    samples = []
    for a in (1, 2):
        alpha = Q.reduce(a)
        value = mat_add(Q, mat_scale(Q, g1, alpha), mat_scale(Q, g2, Q.mul(alpha, alpha)))
        samples.append((alpha, value))
    assert vandermonde_extract(Q, samples, 1, 2) == [g1, g2]


def test_vandermonde_extra_samples_ignored():
    g = [e(1, 2), e(2, 3), e(1, 3)]
    samples = []
    for a in (1, 2, 3, 5):
        alpha = Q.reduce(a)
        acc = zero_matrix(Q, 3)
        power = Q.one
        for gi in g:
            acc = mat_add(Q, acc, mat_scale(Q, gi, power))
            power = Q.mul(power, alpha)
        samples.append((alpha, acc))
    assert vandermonde_extract(Q, samples, 0, 2) == g


def test_vandermonde_zero_samples_give_zero_components():
    z = zero_matrix(Q, 3)
    samples = [(Q.reduce(a), z) for a in (1, 2, 3)]
    out = vandermonde_extract(Q, samples, 0, 2)
    assert all(mat_is_zero(gi) for gi in out)


def test_vandermonde_refusals():
    z = zero_matrix(Q, 3)
    with pytest.raises(ValueError, match="empty degree range"):
        vandermonde_extract(Q, [(1, z)], 2, 1)
    with pytest.raises(ValueError, match="need at least"):
        vandermonde_extract(Q, [(1, z)], 0, 1)
    with pytest.raises(ValueError, match="repeated alpha"):
        vandermonde_extract(Q, [(1, z), (1, z)], 0, 1)
    with pytest.raises(ValueError, match="alpha = 0"):
        vandermonde_extract(Q, [(0, z), (1, z)], 0, 1)


def test_vandermonde_gf_round_trip():
    field = PrimeField(7)
    rng = random.Random(4)
    for _ in range(10):
        parts = [random_strict_upper(rng, field, 3) for _ in range(3)]
        alphas = rng.sample(range(1, 7), 3)
        samples = []
        for av in alphas:
            alpha = field.reduce(av)
            acc = zero_matrix(field, 3)
            power = field.one
            for gi in parts:
                acc = mat_add(field, acc, mat_scale(field, gi, power))
                power = field.mul(power, alpha)
            samples.append((alpha, acc))
        assert vandermonde_extract(field, samples, 0, 2) == parts
