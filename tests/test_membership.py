"""Exact echelon spans, membership certificates, and their re-verification."""
import random
from fractions import Fraction

import pytest

from dpring.fields import PrimeField, RationalField
from dpring.membership import (
    Echelon,
    add_into,
    apply_functional,
    verify_functional,
    verify_member_combination,
)

Q = RationalField()


def vec(*items):
    """Sparse vector over words; items are (word, coeff) pairs."""
    out = {}
    for word, c in items:
        out[tuple(word)] = c
    return out


def random_vectors(rng, field, count, dim=6):
    """Random sparse vectors over single-letter words (0,), .., (dim-1,)."""
    vs = []
    for _ in range(count):
        v = {}
        for j in range(dim):
            if rng.random() < 0.5:
                c = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
                if c:
                    v[(j,)] = c
        vs.append(v)
    return vs


# -- add_into -----------------------------------------------------------------


def test_add_into_accumulates_and_cancels():
    target = vec(((0,), 2))
    add_into(Q, target, vec(((0,), -2), ((1,), 5)), 1)
    assert target == vec(((1,), 5))
    add_into(Q, target, vec(((1,), 1)), -5)
    assert target == {}


# -- echelon basics ------------------------------------------------------------


def test_insert_and_rank():
    ech = Echelon(Q)
    assert ech.insert(vec(((0,), 1), ((1,), 1))) == (0,)
    assert ech.insert(vec(((1,), 2))) == (1,)
    # dependent row
    assert ech.insert(vec(((0,), 3), ((1,), 3))) is None
    assert len(ech) == 2


def test_contains_and_reduce():
    ech = Echelon(Q)
    ech.insert(vec(((0,), 1), ((1,), 1)))
    ech.insert(vec(((1,), 1)))
    assert ech.reduce(vec(((0,), 5)))[0] == {}
    assert ech.reduce(vec(((2,), 1)))[0] == vec(((2,), 1))
    residue, used = ech.reduce(vec(((0,), 1), ((2,), 1)))
    assert residue == vec(((2,), 1))
    assert set(used) == {(0,), (1,)}


def test_monomial_pivot_dropped_then_brought_back():
    # (1,) has a bare monomial pivot row; eliminating the smaller pivot (0,)
    # brings (1,) back after it was dropped, so its multiple must accumulate
    ech = Echelon(Q)
    v = [vec(((0,), 1), ((1,), 1)), vec(((1,), 1))]
    for row in v:
        ech.insert(row)
    assert ech.rows[(1,)] == vec(((1,), 1))
    query = vec(((0,), 1), ((1,), 3), ((2,), 1))
    residue, used = ech.reduce(query)
    assert residue == vec(((2,), 1))
    assert used == {(0,): 1, (1,): 2}
    member = vec(((0,), 1), ((1,), 3))
    combo = ech.member_combination(member)
    assert combo == [(0, 1), (1, 2)]
    assert verify_member_combination(Q, member, combo, lambda i: v[i])
    # here the returning multiple cancels the dropped one exactly
    residue, used = ech.reduce(v[0])
    assert residue == {} and used == {(0,): 1}
    assert ech.member_combination(v[0]) == [(0, 1)]


# -- single-term rows ---------------------------------------------------------------


def test_monomial_stores_unit_row():
    ech = Echelon(Q)
    w = (0, 1)
    assert ech.insert(vec((w, 3))) == w
    assert ech.rows[w] == {w: 1} and type(ech.rows[w][w]) is int
    assert ech.history[w] == (0, Fraction(1, 3), {})
    assert ech.member_combination(vec((w, 6))) == [(0, 2)]


def test_repeated_monomial_is_dependent():
    ech = Echelon(Q)
    assert ech.insert(vec(((2,), 5))) == (2,)
    assert ech.insert(vec(((2,), -1))) is None
    assert len(ech) == 1 and ech.inserted == 2
    assert ech.history[(2,)] == (0, Fraction(1, 5), {})


def test_monomial_on_multi_term_pivot_is_reduced():
    ech = Echelon(Q)
    ech.insert(vec(((0,), 1), ((1,), 2), ((2,), 4)))
    # the monomial x0 is reduced against the row of pivot (0,); what is left
    # is the rest of that row, normalised at its own smallest word
    assert ech.reduce(vec(((0,), 1)))[0] == vec(((1,), -2), ((2,), -4))
    assert ech.insert(vec(((0,), 1))) == (1,)
    assert ech.rows[(1,)] == vec(((1,), 1), ((2,), 2))
    assert ech.history[(1,)] == (1, Fraction(-1, 2), {(0,): 1})


def test_zero_monomial_is_dependent():
    ech = Echelon(Q)
    assert ech.insert(vec(((0,), 0))) is None
    assert len(ech) == 0 and ech.inserted == 1
    ech = Echelon(PrimeField(7))
    assert ech.insert(vec(((0,), 0))) is None and len(ech) == 0


def test_pivot_is_minimal_word_key():
    ech = Echelon(Q)
    # length dominates the word order, so the single-letter word wins
    piv = ech.insert(vec(((0, 0), 4), ((1,), 2)))
    assert piv == (1,)


def test_max_rows_budget():
    from dpring.budgets import BudgetExceeded
    ech = Echelon(Q, max_rows=1)
    ech.insert(vec(((0,), 1)))
    with pytest.raises(BudgetExceeded):
        ech.insert(vec(((1,), 1)))


# -- member certificates ------------------------------------------------------------


def exercise_member_certificates(field, seed):
    rng = random.Random(seed)
    vectors = random_vectors(rng, field, 12)
    ech = Echelon(field)
    for v in vectors:
        ech.insert(v)
    hits = misses = 0
    for _ in range(40):
        # random combination of the basis rows: always a member
        target = {}
        for idx in rng.sample(range(len(vectors)), 3):
            add_into(field, target, vectors[idx],
                     field.from_int(rng.randint(-4, 4)))
        combo = ech.member_combination(target)
        assert combo is not None
        assert verify_member_combination(field, target, combo,
                                         lambda i: vectors[i])
        hits += 1
        # perturbation outside the span: always a non-member
        probe = dict(target)
        probe[(9,)] = field.one
        if ech.member_combination(probe) is None:
            fn = ech.functional(probe)
            assert fn is not None
            assert verify_functional(field, probe, fn, vectors)
            misses += 1
    assert hits == 40 and misses == 40


def test_member_certificates_rationals():
    exercise_member_certificates(Q, 11)


def test_member_certificates_gf3():
    exercise_member_certificates(PrimeField(3), 12)


def test_member_combination_indices_refer_to_insertion_order():
    ech = Echelon(Q)
    v0 = vec(((0,), 1), ((1,), 1))
    v1 = vec(((1,), 1))
    ech.insert(v0)
    ech.insert(v1)
    # x0 = v0 - v1
    combo = dict(ech.member_combination(vec(((0,), 1))))
    assert combo == {0: 1, 1: -1}


def test_insert_with_explicit_indices():
    # canonical enumeration indices survive out-of-order insertion
    ech = Echelon(Q)
    v = [vec(((0,), 1), ((1,), 1)), vec(((1,), 1)), vec(((2,), 1))]
    ech.insert(v[2], index=2)
    ech.insert(v[0], index=0)
    ech.insert(v[1], index=1)
    combo = ech.member_combination(vec(((0,), 1)))
    assert verify_member_combination(Q, vec(((0,), 1)), combo, lambda i: v[i])
    assert dict(combo) == {0: 1, 1: -1}


def test_dependent_rows_fold_into_earlier_indices():
    ech = Echelon(Q)
    v = [vec(((0,), 1)), vec(((0,), 2), ((1,), 1)), vec(((0,), 3), ((1,), 1))]
    for i, row in enumerate(v):
        ech.insert(row, index=i)
    target = vec(((0,), 1), ((1,), 2))
    combo = ech.member_combination(target)
    assert combo is not None
    assert verify_member_combination(Q, target, combo, lambda i: v[i])


# -- functionals ----------------------------------------------------------------------


def test_functional_annihilates_span_and_marks_query():
    ech = Echelon(Q)
    rows = [vec(((0,), 1), ((1,), 2)), vec(((1,), 1), ((2,), 3))]
    for r in rows:
        ech.insert(r)
    probe = vec(((3,), 7), ((0,), 1))
    fn = ech.functional(probe)
    assert fn is not None
    # the functional vanishes on every row but not on the probe
    for r in rows:
        assert apply_functional(Q, fn, r) == 0
    assert apply_functional(Q, fn, probe) == 1
    assert verify_functional(Q, probe, fn, rows)


def test_functional_none_for_members():
    ech = Echelon(Q)
    ech.insert(vec(((0,), 1)))
    assert ech.functional(vec(((0,), 2))) is None
    assert ech.member_combination(vec(((1,), 1))) is None


def test_zero_vector_is_always_member():
    ech = Echelon(Q)
    assert ech.reduce({})[0] == {}
    assert ech.member_combination({}) == []
    assert verify_member_combination(Q, {}, [], lambda i: {})


# -- normal form properties ----------------------------------------------------------


def test_reduce_is_linear_and_idempotent():
    rng = random.Random(99)
    rows = random_vectors(rng, Q, 8)
    ech = Echelon(Q)
    for r in rows:
        ech.insert(r)
    for _ in range(25):
        u, w = random_vectors(rng, Q, 2, dim=8)
        ru, _ = ech.reduce(u)
        rw, _ = ech.reduce(w)
        s = dict(u)
        add_into(Q, s, w, 1)
        rs, _ = ech.reduce(s)
        expect = dict(ru)
        add_into(Q, expect, rw, 1)
        assert rs == expect
        again, _ = ech.reduce(ru)
        assert again == ru


def test_normal_form_canonical_across_insertion_orders():
    rng = random.Random(5)
    rows = random_vectors(rng, Q, 10)
    probes = random_vectors(rng, Q, 10, dim=8)
    forward = Echelon(Q)
    backward = Echelon(Q)
    for r in rows:
        forward.insert(r)
    for r in reversed(rows):
        backward.insert(r)
    for p in probes:
        assert forward.reduce(p)[0] == backward.reduce(p)[0]
