"""`collisions` member combinations from the classes a query meets.

Every `collisions` row lies inside one class (the words reachable by
permuting slot letters within each window), so the generic echelon is
block-diagonal by class.  `SpanOracle.member` answers a member holding under
half its component's words from an echelon of only its classes' rows, ranked
back to family indices in closed form; the generic echelon of the whole
family is the cross-check here.
"""
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpring.construction import (
    ConstructionParams,
    SpanOracle,
    SpanQuery,
    collision_elements,
    span_rows,
)
from dpring.construction import _collision_rank
from dpring.fields import PrimeField, RationalField
from dpring.freealg import FreePoly

Q = RationalField()
F7 = PrimeField(7)


def element_key(params, k, z):
    """The rank key of a collision element, read off its words: (0, word)
    for a repeat, (1, slot pair index, hi, lo, rest) for a swap."""
    if z.kind == "repeat":
        return (0, z.words[0])
    first, second = z.words
    slots = params.slots(k)
    for pair, (a, b) in enumerate(itertools.combinations(slots, 2)):
        if first[a] != second[a] and first[b] != second[b]:
            return (1, pair, first[b], first[a],
                    first[:a] + first[a + 1:b] + first[b + 1:])
    raise AssertionError(z)


@pytest.mark.parametrize("args, k, degrees", [
    ((10, 3, 1), 1, range(5)),
    ((3, 2, 2), 1, range(5)),
    ((3, 2, 2), 2, range(3)),   # 80-letter cores
    ((2, 2, 2), 2, range(5)),
])
def test_collision_rank_inverts_collision_elements(args, k, degrees):
    params = ConstructionParams(*args, Q)
    for degree in degrees:
        for i, z in enumerate(collision_elements(params, k, degree)):
            assert _collision_rank(params, k, element_key(params, k, z)) == i


# one-window lengths N - 1, and two and three windows at (10,3,1)
CASES = [
    ((10, 3, 1), SpanQuery("collisions", 9, 3, level=1)),
    ((10, 3, 1), SpanQuery("collisions", 20, 3, level=1)),
    ((10, 3, 1), SpanQuery("collisions", 30, 2, level=1)),
    ((2, 2, 2), SpanQuery("collisions", 15, 4, level=2)),
    ((2, 2, 2), SpanQuery("collisions", 31, 2, level=2)),
    ((3, 2, 2), SpanQuery("collisions", 80, 2, level=2)),
]


@functools.cache
def family(args, field, query):
    """The family rows and a reference oracle holding their generic
    echelon."""
    oracle = SpanOracle(ConstructionParams(*args, field))
    oracle.echelon(query)
    return list(span_rows(oracle.params, query)), oracle


def random_member(rng, field, picks):
    acc = FreePoly.zero(field)
    for row in picks:
        acc = acc + FreePoly(field, dict(row)).scale(
            field.from_int(rng.randint(1, 6)))
    return acc


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), field=st.sampled_from((Q, F7)),
       seed=st.integers(0, 2**16))
def test_class_combination_is_the_echelon_combination(case, field, seed):
    args, q = case
    rows, reference = family(args, field, q)
    ech = reference.echelon(q)
    rng = random.Random(seed)
    oracle = SpanOracle(ConstructionParams(*args, field))
    # the later queries share rows, so classes, with the earlier ones
    first = rng.sample(rows, rng.randint(1, 3))
    asks = [first, first[:1] + rng.sample(rows, 2), rng.sample(rows, 3)]
    for picks in asks:
        a = random_member(rng, field, picks)
        if a.is_zero():
            continue
        cert = oracle.member(a, q)
        assert cert == ech.certificate(a.terms)
        assert cert.kind == "member"
        assert oracle.verify(a, q, cert)
    assert not oracle._echelons  # no family echelon was built


def test_member_reads_a_held_family_echelon():
    # a cross-check that built the family echelon is not paid for twice:
    # member reads it, and gives the class route's combination
    args, q = CASES[1]
    rows, _ = family(args, Q, q)
    a = random_member(random.Random(3), Q, rows[100:103])
    by_classes = SpanOracle(ConstructionParams(*args, Q))
    held = SpanOracle(ConstructionParams(*args, Q))
    ech = held.echelon(q)
    assert held.member(a, q) == by_classes.member(a, q)
    assert not by_classes._echelons and held._echelons == {q: ech}
    assert not held._engine(q)._class_echelons


@pytest.mark.parametrize("L, held, class_rows", [
    (20, True, 0),    # the row holds all 1,540 words of (20, 3)
    (30, False, 3),   # one word, whose classes hold 3 of 13,572 rows
])
def test_member_picks_the_route_from_the_query(L, held, class_rows):
    # the first ideal row of (L, 3) at (10,3,1): the family echelon answers
    # a query holding at least half its component's words, the class
    # echelon any other, and both give the reference echelon's combination
    args = (10, 3, 1)
    params = ConstructionParams(*args, Q)
    row = next(span_rows(params, SpanQuery("ideal_level", L, 3, level=1)))
    a, q = FreePoly(Q, row), SpanQuery("collisions", L, 3, level=1)
    oracle = SpanOracle(params)
    cert = oracle.member(a, q)
    assert (q in oracle._echelons) == held
    got = oracle._engine(q)._class_echelons.get(q)
    assert (got[0].inserted if got else 0) == class_rows
    _, reference = family(args, Q, q)
    assert cert == reference.echelon(q).certificate(a.terms)
    assert cert.kind == "member" and oracle.verify(a, q, cert)
