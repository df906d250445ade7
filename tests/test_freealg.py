"""Free-algebra arithmetic, the shift derivation, and the text form."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpring.fields import PrimeField, RationalField
from dpring.freealg import (
    FreePoly,
    add_into,
    derive,
    derive_iter,
    poly_from_text,
    poly_to_text,
    word_key,
    word_stats,
)

Q = RationalField()


def mono(word, coeff=1):
    return FreePoly.monomial(Q, tuple(word), coeff)


# -- words --------------------------------------------------------------------


def test_word_helpers():
    assert word_stats(()) == (0, 0)
    assert word_stats((0, 2, 1)) == (3, 3)
    # length dominates, then lexicographic
    assert sorted([(1, 0), (0, 1), (2,), (0, 0, 0)], key=word_key) == [
        (2,), (0, 1), (1, 0), (0, 0, 0)]


# -- construction and queries ---------------------------------------------------


def test_constructors():
    assert FreePoly.zero(Q).is_zero()
    assert FreePoly.one(Q).terms == {(): 1}
    assert FreePoly.generator(Q, 2).terms == {(2,): 1}
    assert mono((0, 1), 3).terms == {(0, 1): 3}
    assert mono((0, 1), 0).is_zero()
    with pytest.raises(ValueError):
        FreePoly.generator(Q, -1)
    with pytest.raises(ValueError):
        FreePoly.from_terms(Q, [((0, -2), 1)])


def test_from_terms_accumulates_and_cancels():
    p = FreePoly.from_terms(Q, [((0,), 2), ((0,), -2), ((1,), 5)])
    assert p.terms == {(1,): 5}
    assert len(p) == 1
    assert p.terms.get((1,)) == 5
    assert (0,) not in p.terms


def test_bigrade_and_components():
    p = mono((0, 0)) + mono((1,))
    assert p.bigrade() is None
    assert mono((0, 1, 0)).bigrade() == (3, 1)
    assert FreePoly.zero(Q).bigrade() is None
    comps = p.components()
    assert set(comps) == {(2, 0), (1, 1)}
    assert comps[(1, 1)] == mono((1,))
    assert comps[(2, 0)] == mono((0, 0))
    assert (9, 9) not in comps


# -- arithmetic -----------------------------------------------------------------


def test_product_concatenates():
    assert mono((0,)) * mono((1,)) == mono((0, 1))
    assert (mono((0,), 2) * mono((1, 1), 3)).terms == {(0, 1, 1): 6}
    p = mono((0,)) + mono((1,))
    assert p * p == mono((0, 0)) + mono((0, 1)) + mono((1, 0)) + mono((1, 1))


def test_one_is_neutral():
    p = mono((0, 2), 5) + mono((1,), -3)
    assert FreePoly.one(Q) * p == p
    assert p * FreePoly.one(Q) == p


def test_scale_and_neg():
    p = mono((0,), 2) + mono((1,), -1)
    assert p.scale(3).terms == {(0,): 6, (1,): -3}
    assert p.scale(0).is_zero()
    assert (-p) + p == FreePoly.zero(Q)


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        mono((0,)) + FreePoly.generator(PrimeField(3), 0)
    with pytest.raises(TypeError):
        mono((0,)) * 3


# -- derivation -----------------------------------------------------------------


def test_derive_single_letters():
    assert derive(FreePoly.generator(Q, 0)) == FreePoly.generator(Q, 1)
    assert derive(FreePoly.generator(Q, 5)) == FreePoly.generator(Q, 6)


def test_derive_product_rule_example():
    # D(x0.x0) = x1.x0 + x0.x1
    assert derive(mono((0, 0))) == mono((1, 0)) + mono((0, 1))
    # D^2(x0.x0) = x2.x0 + 2 x1.x1 + x0.x2
    expected = mono((2, 0)) + mono((1, 1), 2) + mono((0, 2))
    assert derive_iter(mono((0, 0)), 2) == expected


def test_derive_kills_unity():
    assert derive(FreePoly.one(Q)).is_zero()
    assert derive(FreePoly.zero(Q)).is_zero()


def test_derive_iter_validates():
    with pytest.raises(ValueError):
        derive_iter(mono((0,)), -1)
    assert derive_iter(mono((0,)), 0) == mono((0,))


def test_derive_cancellation_mod_p():
    # over GF(2), D(x0.x0) = x1.x0 + x0.x1 stays, but D of it cancels the
    # doubled middle term
    f = PrimeField(2)
    p = FreePoly.monomial(f, (0, 0))
    d2 = derive_iter(p, 2)
    assert d2.terms == {(2, 0): 1, (0, 2): 1}


# -- text form --------------------------------------------------------------------


def test_frozen_texts():
    assert poly_to_text(FreePoly.zero(Q)) == "0"
    assert poly_to_text(FreePoly.one(Q)) == "1*1"
    assert poly_to_text(mono((0,))) == "1*x0"
    assert poly_to_text(mono((0, 2, 1), 3)) == "3*x0.x2.x1"
    assert poly_to_text(derive(mono((0, 0)))) == "1*x0.x1 + 1*x1.x0"
    p = mono((1, 0), 2) + mono((0,))
    assert poly_to_text(p) == "1*x0 + 2*x1.x0"
    assert poly_to_text(mono((0,)).scale(Q.inv(2))) == "1/2*x0"


def test_text_round_trip_handles_negatives_and_fractions():
    p = mono((0, 1), -3) + mono((2,), Q.inv(-4)) + FreePoly.one(Q)
    assert poly_from_text(Q, poly_to_text(p)) == p
    assert poly_from_text(Q, "0").is_zero()


def test_text_rejects_garbage():
    from dpring.fields import FieldError
    for bad in ("x0", "1*", "1*x0..x1", "2*x0 - 1*x1", "1*x-1", "1x0"):
        with pytest.raises(FieldError):
            poly_from_text(Q, bad)


# -- properties -------------------------------------------------------------------


words_st = st.lists(st.integers(0, 3), min_size=0, max_size=4).map(tuple)
coeffs_st = st.integers(-5, 5).filter(bool)
poly_st = st.lists(st.tuples(words_st, coeffs_st), min_size=0, max_size=5).map(
    lambda items: FreePoly.from_terms(Q, items))


@given(poly_st, poly_st)
@settings(max_examples=60)
def test_derive_is_linear(p, q):
    assert derive(p + q) == derive(p) + derive(q)
    assert derive(p.scale(3)) == derive(p).scale(3)


@given(poly_st, poly_st)
@settings(max_examples=60)
def test_derive_leibniz(p, q):
    assert derive(p * q) == derive(p) * q + p * derive(q)


@given(poly_st, poly_st, poly_st)
@settings(max_examples=40)
def test_mul_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(words_st.filter(len), words_st.filter(len))
def test_grading_adds_under_product(w1, w2):
    p = mono(w1) * mono(w2)
    n1, d1 = word_stats(w1)
    n2, d2 = word_stats(w2)
    assert p.bigrade() == (n1 + n2, d1 + d2)


@given(words_st.filter(len))
def test_derive_shifts_grading(w):
    n, d = word_stats(w)
    dp = derive(mono(w))
    if not dp.is_zero():
        assert dp.bigrade() == (n, d + 1)


@given(poly_st)
@settings(max_examples=60)
def test_text_round_trip_q(p):
    assert poly_from_text(Q, poly_to_text(p)) == p


@given(st.lists(st.tuples(words_st, st.integers(1, 4)), min_size=0, max_size=5))
@settings(max_examples=40)
def test_text_round_trip_gf5(items):
    f = PrimeField(5)
    p = FreePoly.from_terms(f, items)
    assert poly_from_text(f, poly_to_text(p)) == p


# -- one-term and disjoint fast paths, over every field kind -------------------


FIELDS = (Q, PrimeField(2), PrimeField(3), PrimeField(2**31 - 1))


def scalars(field):
    """Nonzero scalars of the field: Fractions over Q, residues over GF(p)."""
    if field.characteristic == 0:
        return st.fractions(-4, 4, max_denominator=5).filter(bool).map(
            field.coerce)
    return st.integers(-10**12, 10**12).map(field.reduce).filter(bool)


def polys(field):
    return st.lists(st.tuples(words_st, scalars(field)), max_size=6).map(
        lambda items: FreePoly.from_terms(field, items))


def pairwise(p, q):
    """p * q from the definition, every pair of terms accumulated."""
    field = p.field
    return FreePoly.from_terms(field, [
        (u + v, field.mul(a, b))
        for u, a in p.terms.items() for v, b in q.terms.items()])


@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(
    polys(f), words_st, scalars(f))))
@settings(max_examples=80)
def test_one_term_factor_maps_the_words(case):
    p, word, c = case
    one = FreePoly.monomial(p.field, word, c)
    right, left = p * one, one * p
    assert right == pairwise(p, one)
    assert left == pairwise(one, p)
    assert list(right.terms) == [w + word for w in p.terms]
    assert list(left.terms) == [word + w for w in p.terms]


@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(polys(f), polys(f))))
@settings(max_examples=80)
def test_disjoint_sum_is_the_merge_in_order(case):
    p, q = case
    q = FreePoly(q.field, {w: c for w, c in q.terms.items() if w not in p.terms})
    before = list(p.terms.items()), list(q.terms.items())
    s = p + q
    assert s == FreePoly.from_terms(p.field, [*p.terms.items(), *q.terms.items()])
    assert list(s.terms) == [*p.terms, *q.terms]
    assert (list(p.terms.items()), list(q.terms.items())) == before


@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(polys(f), polys(f))))
@settings(max_examples=80)
def test_products_and_sums_match_the_definition(case):
    p, q = case
    before = list(p.terms.items()), list(q.terms.items())
    assert p * q == pairwise(p, q)
    # the sum term by term, a cancelled word dropped: its items in order
    terms = dict(p.terms)
    for w, c in q.terms.items():
        c = p.field.add(terms[w], c) if w in terms else c
        terms[w] = c
        if not c:
            del terms[w]
    assert list((p + q).terms.items()) == list(terms.items())
    assert (list(p.terms.items()), list(q.terms.items())) == before
    # add_into writes the same sum into its first argument
    mine = FreePoly(p.field, dict(p.terms))
    assert add_into(mine, q) is mine
    assert list(mine.terms.items()) == list(terms.items())
