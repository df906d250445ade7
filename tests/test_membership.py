"""Exact echelon spans, membership certificates, and their re-verification."""
import random
from fractions import Fraction

import pytest

from dpring.budgets import BudgetExceeded, Budgets
from dpring.construction import ConstructionParams, SpanOracle, SpanQuery
from dpring.fields import PrimeField, RationalField
from dpring.freealg import FreePoly
from dpring.membership import Echelon, MembershipCertificate, add_scaled

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
                c = field.reduce(rng.choice([-3, -2, -1, 1, 2, 3]))
                if c:
                    v[(j,)] = c
        vs.append(v)
    return vs


def value(field, functional, v):
    """A functional's value on a vector, summed directly."""
    acc = field.zero
    for w, c in v.items():
        acc = field.add(acc, field.mul(functional.get(w, field.zero), c))
    return acc


# -- add_scaled ---------------------------------------------------------------


def test_add_scaled_accumulates_and_cancels():
    target = vec(((0,), 2))
    add_scaled(Q, target, vec(((0,), -2), ((1,), 5)), 1)
    assert target == vec(((1,), 5))
    add_scaled(Q, target, vec(((1,), 1)), -5)
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
    cert = ech.certificate(member)
    assert cert.kind == "member" and cert.combination == [(0, 1), (1, 2)]
    assert cert.verify(Q, member, v)
    # here the returning multiple cancels the dropped one exactly
    residue, used = ech.reduce(v[0])
    assert residue == {} and used == {(0,): 1}
    assert ech.certificate(v[0]).combination == [(0, 1)]


# -- single-term rows ---------------------------------------------------------------


def test_monomial_stores_unit_row():
    ech = Echelon(Q)
    w = (0, 1)
    assert ech.insert(vec((w, 3))) == w
    assert ech.rows[w] == {w: 1} and type(ech.rows[w][w]) is int
    assert ech.history[w] == (0, Fraction(1, 3), {})
    assert ech.certificate(vec((w, 6))).combination == [(0, 2)]


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


def test_basis_budget_bounds_the_echelon():
    # the family cap is the only cap: rank <= rows enumerated, so an echelon
    # cannot outgrow a family that span_rows let through.  At (10,3,1) the
    # words (20,1) family has 22 rows of rank 20.
    params = ConstructionParams(10, 3, 1, Q)
    q = SpanQuery("words", 20, 1, level=1)
    probe = FreePoly.monomial(Q, (0,) * 19 + (1,))
    oracle = SpanOracle(params, Budgets(max_basis_size=22))
    cert = oracle.member(probe, q)
    assert cert.kind == "member" and oracle.verify(probe, q, cert)
    assert oracle.echelon(q).inserted == 22
    with pytest.raises(BudgetExceeded):
        SpanOracle(params, Budgets(max_basis_size=21)).member(probe, q)


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
            add_scaled(field, target, vectors[idx],
                     field.reduce(rng.randint(-4, 4)))
        cert = ech.certificate(target)
        assert cert.kind == "member" and cert.functional is None
        assert cert.verify(field, target, vectors)
        hits += 1
        # perturbation outside the span: always a non-member
        probe = dict(target)
        probe[(9,)] = field.one
        cert = ech.certificate(probe)
        if cert.kind == "non_member":
            assert cert.functional is not None and cert.combination is None
            assert cert.verify(field, probe, vectors)
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
    combo = dict(ech.certificate(vec(((0,), 1))).combination)
    assert combo == {0: 1, 1: -1}


def test_insert_with_explicit_indices():
    # canonical enumeration indices survive out-of-order insertion
    ech = Echelon(Q)
    v = [vec(((0,), 1), ((1,), 1)), vec(((1,), 1)), vec(((2,), 1))]
    ech.insert(v[2], index=2)
    ech.insert(v[0], index=0)
    ech.insert(v[1], index=1)
    cert = ech.certificate(vec(((0,), 1)))
    assert cert.verify(Q, vec(((0,), 1)), v)
    assert dict(cert.combination) == {0: 1, 1: -1}


def test_extend_inserts_single_term_rows_first():
    # the family order gives the indices; single-term rows go in first, and
    # a second family continues the count
    v = [vec(((0,), 1), ((1,), 1)), vec(((1,), 1)), vec(((2,), 1))]
    ech = Echelon(Q)
    ech.extend(v)
    by_hand = Echelon(Q)
    for i in (1, 2, 0):
        by_hand.insert(v[i], index=i)
    assert ech.rows == by_hand.rows and ech.history == by_hand.history
    assert ech.inserted == 3
    assert ech.history[(0,)] == (0, 1, {(1,): 1})
    more = [vec(((0,), 1), ((3,), 1)), vec(((3,), 2))]
    ech.extend(more)
    assert ech.inserted == 5
    assert ech.history[(3,)] == (4, Fraction(1, 2), {})
    cert = ech.certificate(vec(((0,), 1)))
    assert cert.verify(Q, vec(((0,), 1)), v + more)


def test_dependent_rows_fold_into_earlier_indices():
    ech = Echelon(Q)
    v = [vec(((0,), 1)), vec(((0,), 2), ((1,), 1)), vec(((0,), 3), ((1,), 1))]
    for i, row in enumerate(v):
        ech.insert(row, index=i)
    target = vec(((0,), 1), ((1,), 2))
    cert = ech.certificate(target)
    assert cert.kind == "member"
    assert cert.verify(Q, target, v)


# -- functionals ----------------------------------------------------------------------


def test_functional_annihilates_span_and_marks_query():
    ech = Echelon(Q)
    rows = [vec(((0,), 1), ((1,), 2)), vec(((1,), 1), ((2,), 3))]
    for r in rows:
        ech.insert(r)
    probe = vec(((3,), 7), ((0,), 1))
    cert = ech.certificate(probe)
    assert cert.kind == "non_member"
    fn = cert.functional
    # the functional vanishes on every row but not on the probe
    for r in rows:
        assert value(Q, fn, r) == 0
    assert value(Q, fn, probe) == 1
    assert cert.verify(Q, probe, rows)


def test_functional_none_for_members():
    ech = Echelon(Q)
    ech.insert(vec(((0,), 1)))
    member = ech.certificate(vec(((0,), 2)))
    assert member.kind == "member" and member.functional is None
    stray = ech.certificate(vec(((1,), 1)))
    assert stray.kind == "non_member" and stray.combination is None


def test_zero_vector_is_always_member():
    ech = Echelon(Q)
    assert ech.reduce({})[0] == {}
    assert ech.certificate({}).combination == []
    assert MembershipCertificate("member", combination=[]).verify(Q, {}, [])


# -- verification ---------------------------------------------------------------------


def rows_then_fail(rows):
    """The rows in order, then an error if anything reads past them."""
    yield from rows
    raise AssertionError("read past the last needed row")


def test_member_verify_stops_at_last_needed_index():
    v = [vec(((0,), 1), ((1,), 1)), vec(((1,), 1))]
    cert = MembershipCertificate("member", combination=[(0, 1), (1, -1)])
    assert cert.verify(Q, vec(((0,), 1)), rows_then_fail(v))
    # an index past the family, or a wrong sum, fails
    past = MembershipCertificate("member", combination=[(0, 1), (2, -1)])
    assert not past.verify(Q, vec(((0,), 1)), v)
    assert not cert.verify(Q, vec(((0,), 2)), v)
    assert not cert.verify(Q, vec(((0,), 1), ((2,), 1)), v)


def test_non_member_verify_streams_every_row():
    rows = [vec(((0,), 1), ((1,), 2)), vec(((1,), 1), ((2,), 3))]
    probe = vec(((3,), 7), ((0,), 1))
    ech = Echelon(Q)
    ech.extend(rows)
    cert = ech.certificate(probe)
    assert cert.verify(Q, probe, rows)
    # a row the functional does not kill fails, wherever it comes
    assert not cert.verify(Q, probe, rows + [probe])
    # a query not valued one fails before any row is read
    assert not cert.verify(Q, vec(((3,), 1)), rows_then_fail([]))


def test_unknown_certificate_kind_raises():
    with pytest.raises(ValueError):
        MembershipCertificate("maybe").verify(Q, {}, [])


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
        add_scaled(Q, s, w, 1)
        rs, _ = ech.reduce(s)
        expect = dict(ru)
        add_scaled(Q, expect, rw, 1)
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
