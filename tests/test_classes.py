"""The escape descent from class coefficients: the coefficient oracle, the
repeat-free class walk of the `collisions` span, its "classes" certificate,
and functionals checked against coefficients that are never materialised."""
import itertools
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dpring.budgets import BudgetExceeded, Budgets
from dpring.construction import (
    ConstructionParams,
    SpanOracle,
    SpanQuery,
    count_words,
    words_iter,
)
from dpring.construction import _class_count, _sprinkle
from dpring.fields import PrimeField, RationalField
from dpring.freealg import FreePoly
from dpring.membership import MembershipCertificate
from dpring.ore import PowerCoefficient, expand_power_window, word_weight

Q = RationalField()
FIELDS = (Q, PrimeField(2), PrimeField(3), PrimeField(7))
P322 = ConstructionParams(3, 2, 2, Q)


def dense(length, letters):
    w = [0] * length
    for p, x in letters:
        w[p] = x
    return tuple(w)


@given(places=st.lists(st.integers(0, 30), unique=True, max_size=5).map(sorted),
       e=st.integers(0, 5))
def test_sprinkle_is_every_placing_of_the_letters(places, e):
    # brute force: every tuple of letters on the places summing to e, kept
    # by its nonzero letters
    want = {tuple((p, x) for p, x in zip(places, xs) if x)
            for xs in itertools.product(range(e + 1), repeat=len(places))
            if sum(xs) == e}
    got = list(_sprinkle(places, e))
    assert len(got) == len(set(got)) and set(got) == want
    for item in got:
        assert [p for p, _ in item] == sorted({p for p, _ in item})
        assert all(x > 0 for _, x in item)


def descent(params, k, h):
    m = h * params.block(k) - 1
    return m, (k + 2) * (m + 1) // (2 * (k + 1)) + 1


# -- the coefficient oracle -------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_power_coefficient_reads_the_window(field):
    for m in range(9):
        window = expand_power_window(field, m, 0)
        for t in range(m + 1):
            a = PowerCoefficient(field, m, t)
            assert a.bigrade() == (m, m - t)
            terms = window.get(t, FreePoly.zero(field)).terms
            # every word of the component, in the window or not
            for w in words_iter(m, m - t):
                assert a.get(w) == terms.get(w), (m, t, w)
            assert a.get((0,) * (m + 1)) is None  # another component


def test_word_weight_is_the_binomial_product():
    # x1 at place p: C(p, 1); a letter past its place: no ballot word
    assert word_weight([(5, 1)]) == 5
    assert word_weight([(2, 2), (5, 1)]) == 3
    assert word_weight([(0, 1)]) == 0
    assert word_weight([]) == 1


# -- the class walk against the expanded window -------------------------------------


@st.composite
def small_descents(draw):
    base = draw(st.integers(2, 6))
    k = 2 if base == 2 else 1  # level 1 of base 2 is degenerate
    ratio = draw(st.sampled_from(
        [r for r in range(2, base + 1) if r**k < base ** (2 * k - 1)]))
    params = ConstructionParams(base, ratio, k, draw(st.sampled_from(FIELDS)))
    h = draw(st.integers(1, 4))
    m, floor = descent(params, k, h)
    # where the window fits
    assume(floor <= m and count_words(m, m - floor) <= 3060)
    return params, k, h


@settings(max_examples=30, deadline=None)
@given(case=small_descents())
@example(case=(ConstructionParams(2, 2, 2, PrimeField(7)), 2, 1))
@example(case=(ConstructionParams(10, 3, 1, PrimeField(2)), 1, 2))
@example(case=(ConstructionParams(4, 3, 1, Q), 1, 3))
def test_class_route_matches_the_expanded_window(case):
    params, k, h = case
    field = params.field
    m, floor = descent(params, k, h)
    oracle = SpanOracle(params)
    # the expanded window and SpanOracle.member on it: the deliberate
    # cross-check of the class route, which never writes a coefficient out
    window = expand_power_window(field, m, floor)
    for i in range(m, floor - 1, -1):
        a = window.get(i, FreePoly.zero(field))
        lazy = PowerCoefficient(field, m, i)
        q = SpanQuery("collisions", m, m - i, level=k)
        by_classes = oracle.class_member(lazy, q)
        expanded = oracle.member(a, q)
        assert (by_classes.kind == "classes") == (expanded.kind == "member"), i
        sums = oracle._engine(q).class_sums(q, lazy)
        assert {dense(m, rep): c for rep, c in sums.items() if c} == (
            oracle.normal_form(a, q).terms)
        if expanded.kind == "non_member":
            assert list(by_classes.functional.items()) == list(
                expanded.functional.items())
        # the lazy and the materialised coefficient check alike
        assert oracle.verify(lazy, q, by_classes)
        assert oracle.verify(a, q, by_classes)


@pytest.mark.parametrize("params, coefficient", [
    (P322, 63),
    (ConstructionParams(4, 2, 2, Q), 160),
    (ConstructionParams(10, 3, 2, Q), 46_800),
])
def test_class_coefficient_at_the_first_repeat_free_degree(params, coefficient):
    # at degree k(k+1)/2 = 3 the one class holds x0, x1, x2 on the slots in
    # its (k+1)! = 6 orders
    m = params.block(2) - 1
    q = SpanQuery("collisions", m, 3, level=2)
    sums = SpanOracle(params)._engine(q).class_sums(
        q, PowerCoefficient(Q, m, m - 3))
    [(rep, c)] = sums.items()
    assert abs(c) == coefficient
    assert [x for _, x in rep] == [2, 1]  # x2, x1, and x0 unwritten


# -- the class count -------------------------------------------------------------------


def repeat_free_classes(params, k, length, degree):
    """The classes of the repeat-free words of the component, by enumeration,
    each as its representative: every window's slot letters descending."""
    slots, N = params.slots(k), params.block(k)
    windows = [[m + s for s in slots] for m in range(0, length - N + 2, N)]
    found = set()
    for w in words_iter(length, degree):
        rep = list(w)
        for places in windows:
            letters = [w[p] for p in places]
            if len(set(letters)) < len(letters):
                break
            for p, x in zip(places, sorted(letters, reverse=True)):
                rep[p] = x
        else:
            found.add(tuple(rep))
    return len(windows), found


@pytest.mark.parametrize("params, k, lengths, degrees", [
    (ConstructionParams(3, 2, 1, Q), 1, (2, 5, 8, 10), range(6)),
    (ConstructionParams(4, 3, 1, Q), 1, (3, 7, 11), range(5)),
    (ConstructionParams(2, 2, 2, Q), 2, (14, 15, 20), range(6)),
    (ConstructionParams(2, 2, 2, Q), 2, (31,), range(4)),
])
def test_class_count_matches_enumeration(params, k, lengths, degrees):
    oracle = SpanOracle(params)
    for L in lengths:
        for d in degrees:
            q = SpanQuery("collisions", L, d, level=k)
            h, found = repeat_free_classes(params, k, L, d)
            assert _class_count(params, k, L, d) == len(found), (L, d)
            sums = oracle._engine(q).class_sums(q, PowerCoefficient(Q, L, L - d))
            assert {dense(L, rep) for rep in sums} == found
            if d < h * k * (k + 1) // 2:
                assert not found  # the class lemma


def test_class_walk_is_capped_by_the_component_budget():
    params = ConstructionParams(2, 2, 2, Q)
    q = SpanQuery("collisions", 15, 4, level=2)
    count = _class_count(params, 2, 15, 4)
    lazy = PowerCoefficient(Q, 15, 11)
    with pytest.raises(BudgetExceeded, match=f"has {count} repeat-free classes"):
        SpanOracle(params, Budgets(max_component_dim=count - 1)).class_member(
            lazy, q)
    assert SpanOracle(params, Budgets(max_component_dim=count)).class_member(
        lazy, q).kind == "non_member"


def test_a_component_with_no_class_is_answered_from_the_count():
    # a_(m-h+1) of (x0 X)^m, m = 10h - 1, has degree h - 1 < h k(k+1)/2: no
    # repeat-free class, so its empty certificate comes before any walk
    params, h = ConstructionParams(10, 3, 1, Q), 3
    m = h * params.block(1) - 1
    q = SpanQuery("collisions", m, h - 1, level=1)
    lazy = PowerCoefficient(Q, m, m - h + 1)
    assert _class_count(params, 1, m, h - 1) == 0
    called = set()
    sys.setprofile(lambda frame, event, _: called.add(frame.f_code.co_name)
                   if event == "call" else None)
    try:
        cert = SpanOracle(params).class_member(lazy, q)
    finally:
        sys.setprofile(None)
    assert cert == MembershipCertificate("classes", classes=[])
    assert "class_sums" in called and "spread" not in called
    assert SpanOracle(params).verify(lazy, q, cert)


# -- the "classes" certificate -------------------------------------------------------


def test_classes_certificate_is_recounted_and_resummed():
    gf7 = ConstructionParams(3, 2, 2, PrimeField(7))
    q = SpanQuery("collisions", 80, 3, level=2)
    lazy7 = PowerCoefficient(gf7.field, 80, 77)
    cert = SpanOracle(gf7).class_member(lazy7, q)
    # 63 = 7 * 9 vanishes over GF(7): one class, a member
    assert cert.kind == "classes" and len(cert.classes) == 1
    assert SpanOracle(gf7).verify(lazy7, q, cert)
    # claimed over Q, where the class sum is 63, it is refused
    assert not SpanOracle(P322).verify(PowerCoefficient(Q, 80, 77), q, cert)
    # one class dropped, or listed twice, or not descending
    assert not SpanOracle(gf7).verify(
        lazy7, q, MembershipCertificate("classes", classes=[]))
    [rep] = cert.classes
    assert rep == ((2, 2), (5, 1))  # slots 2, 5, 11 descending
    for classes in ([rep, rep], [((5, 1), (11, 2))]):
        assert not SpanOracle(gf7).verify(
            lazy7, q, MembershipCertificate("classes", classes=classes))
    # the component of the query is the component of the coefficient
    assert not SpanOracle(gf7).verify(
        PowerCoefficient(gf7.field, 80, 76), q, cert)
    with pytest.raises(ValueError, match="component"):
        SpanOracle(gf7).class_member(PowerCoefficient(gf7.field, 80, 76), q)
    with pytest.raises(ValueError, match="collisions"):
        SpanOracle(gf7).class_member(lazy7, SpanQuery("words", 80, 3, level=2))


def test_classes_certificate_with_a_class_dropped_is_refused():
    # over GF(2) every class sum of a_16 of (x0 X)^19 at level 1 vanishes
    params = ConstructionParams(10, 3, 1, PrimeField(2))
    q = SpanQuery("collisions", 19, 3, level=1)
    lazy = PowerCoefficient(params.field, 19, 16)
    oracle = SpanOracle(params)
    cert = oracle.class_member(lazy, q)
    assert cert.kind == "classes" and len(cert.classes) == 17
    assert oracle.verify(lazy, q, cert)
    a = expand_power_window(params.field, 19, 16)[16]
    assert oracle.verify(a, q, cert)
    for j in range(len(cert.classes)):
        dropped = cert.classes[:j] + cert.classes[j + 1:]
        forged = MembershipCertificate("classes", classes=dropped)
        assert not oracle.verify(lazy, q, forged)
        assert not oracle.verify(a, q, forged)


def test_classes_certificate_at_full_block_length_checks_in_seconds():
    # 9,997 classes in words of 9,999 letters: each placement is read by its
    # nonzero letters, never written out as a word
    params = ConstructionParams(10, 3, 2, PrimeField(2))
    q = SpanQuery("collisions", 9999, 4, level=2)
    lazy = PowerCoefficient(params.field, 9999, 9995)
    oracle = SpanOracle(params)
    cert = oracle.class_member(lazy, q)
    assert cert.kind == "classes" and len(cert.classes) == 9997
    start = time.perf_counter()
    assert oracle.verify(lazy, q, cert)
    assert time.perf_counter() - start < 5


def test_member_never_gives_a_classes_certificate():
    # perfbench's tracer counts cert.functional for every kind but "member"
    params = ConstructionParams(10, 3, 1, PrimeField(2))
    oracle = SpanOracle(params)
    q = SpanQuery("collisions", 19, 3, level=1)
    assert oracle.class_member(PowerCoefficient(params.field, 19, 16),
                               q).kind == "classes"
    for t, a in expand_power_window(params.field, 19, 15).items():
        q = SpanQuery("collisions", 19, 19 - t, level=1)
        assert oracle.member(a, q).kind in ("member", "non_member"), t


# -- coefficients over another field ---------------------------------------------------


P1031 = ConstructionParams(10, 3, 1, Q)
Q92 = SpanQuery("collisions", 9, 2, level=1)
REPEAT = (1, 0, 1, 0, 0, 0, 0, 0, 0)  # x1 on both level-1 slots


def test_verify_refuses_a_polynomial_over_another_field():
    oracle = SpanOracle(P1031)
    cert = oracle.member(FreePoly.monomial(Q, REPEAT), Q92)
    assert cert.kind == "member"
    assert oracle.verify(FreePoly.monomial(Q, REPEAT), Q92, cert)
    assert not oracle.verify(FreePoly.monomial(PrimeField(7), REPEAT), Q92, cert)


def test_class_member_refuses_a_coefficient_over_another_field():
    with pytest.raises(ValueError, match="wrong field"):
        SpanOracle(P1031).class_member(PowerCoefficient(PrimeField(7), 9, 7), Q92)


def test_verify_refuses_a_member_combination_for_a_lazy_coefficient():
    # a combination is checked against every term, and a lazy coefficient
    # lists none
    oracle = SpanOracle(P1031)
    cert = oracle.member(FreePoly.monomial(Q, REPEAT), Q92)
    assert not oracle.verify(PowerCoefficient(Q, 9, 7), Q92, cert)


# -- functionals against lazy coefficients -------------------------------------------


def test_lazy_escape_functional_refuses_forgeries():
    oracle = SpanOracle(P322)
    q = SpanQuery("collisions", 80, 3, level=2)
    lazy = PowerCoefficient(Q, 80, 77)
    cert = oracle.class_member(lazy, q)
    assert cert.kind == "non_member" and len(cert.functional) == 6
    a = expand_power_window(Q, 80, 77)[77]
    assert oracle.member(a, q) == cert
    w = next(iter(cert.functional))
    off = next(x for x in a.terms if x not in cert.functional)
    forgeries = [
        {**cert.functional, w: Q.add(cert.functional[w], Q.one)},
        {x: c for x, c in cert.functional.items() if x != w},
        {**cert.functional, off: Q.one},
    ]
    assert oracle.verify(lazy, q, cert) and oracle.verify(a, q, cert)
    for forged in forgeries:
        forgery = MembershipCertificate("non_member", functional=forged)
        assert not oracle.verify(lazy, q, forgery)
        assert oracle.verify(a, q, forgery) == oracle.verify(lazy, q, forgery)
    # a word with no ballot order weighs nothing, like a word off the terms
    assert lazy.get(off) == a.terms[off]
    assert lazy.get((1,) + (0,) * 77 + (1, 1)) is None
