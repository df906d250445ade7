"""Checkpoint parameters, collision families, span oracles, signed reorder."""
import hashlib
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dpring.budgets import BudgetExceeded, Budgets
from dpring.construction import (
    CollisionElement,
    ConstructionParams,
    ParamsError,
    SPACES,
    SpanOracle,
    SpanQuery,
    collision_elements,
    collision_test,
    count_words,
    signed_reorder,
    span_rows,
    words_iter,
)
from dpring import construction
from dpring.construction import _alphabet_count, _collision_count, _word_rank
from dpring.fields import PrimeField, RationalField
from dpring.freealg import FreePoly, derive, poly_to_text, word_stats
from dpring.membership import MembershipCertificate
from dpring.ore import expand_power_window

Q = RationalField()
P10 = ConstructionParams(10, 3, 1, Q)
P222 = ConstructionParams(2, 2, 2, Q)


# -- parameters -----------------------------------------------------------------


def test_constructor_guards():
    with pytest.raises(ParamsError):
        ConstructionParams(1, 3, 1, Q)
    with pytest.raises(ParamsError):
        ConstructionParams(10, 1, 1, Q)
    with pytest.raises(ParamsError):
        ConstructionParams(10, 3, 0, Q)


def test_blocks_and_checkpoints():
    assert P10.block(1) == 10
    assert P10.checkpoints(1) == [0, 1, 3, 10]
    big = ConstructionParams(100, 3, 2, Q)
    assert big.block(1) == 100
    assert big.block(2) == 100**4
    assert big.checkpoints(1) == [0, 1, 3, 100]
    # inner checkpoints scale by the previous block, the last one jumps
    assert big.checkpoints(2) == [0, 100, 300, 900, 10**8]
    with pytest.raises(ParamsError):
        P10.block(2)
    with pytest.raises(ParamsError):
        P10.checkpoints(0)


def test_level_validity():
    assert P10.level_valid(1)
    P10.validate()
    # (2,2,2): the level-1 checkpoints [0,1,2,2] stall, level 2 is fine
    assert P222.checkpoints(1) == [0, 1, 2, 2]
    assert not P222.level_valid(1)
    assert P222.checkpoints(2) == [0, 2, 4, 8, 16]
    assert P222.level_valid(2)
    with pytest.raises(ParamsError):
        P222.require_level(1)
    P222.require_level(2)
    with pytest.raises(ParamsError, match="level 1 is degenerate"):
        P222.validate()


def test_validity_matches_inequality():
    for b in (2, 3, 10):
        for r in (2, 3, 5):
            for k in (1, 2, 3):
                params = ConstructionParams(b, r, k, Q)
                assert params.level_valid(k) == (r**k < b ** (2 * k - 1)), (b, r, k)


def test_ratio_above_base_breaks_both_levels():
    p = ConstructionParams(2, 3, 2, Q)
    assert not p.level_valid(1) and not p.level_valid(2)
    # validate names the lowest degenerate level
    with pytest.raises(ParamsError,
                       match="level 1 is degenerate.*not strictly increasing"):
        p.validate()


# -- word enumeration --------------------------------------------------------------


def test_words_iter_order_and_count():
    got = list(words_iter(3, 2))
    assert got == sorted(got)
    assert len(got) == count_words(3, 2) == 6
    assert got[0] == (0, 0, 2)
    assert got[-1] == (2, 0, 0)
    assert list(words_iter(0, 0)) == [()]
    assert list(words_iter(0, 1)) == []
    assert list(words_iter(2, 0)) == [(0, 0)]


def test_words_iter_max_letter():
    capped = list(words_iter(4, 3, max_letter=1))
    assert capped == [w for w in words_iter(4, 3) if max(w) <= 1]
    assert list(words_iter(2, 3, max_letter=1)) == []


@given(st.integers(1, 5), st.integers(0, 6))
@settings(max_examples=40)
def test_words_iter_matches_dimension(length, degree):
    ws = list(words_iter(length, degree))
    assert len(ws) == count_words(length, degree)
    assert len(set(ws)) == len(ws)
    assert all(word_stats(w) == (length, degree) for w in ws)


# -- collision elements --------------------------------------------------------------


def test_collision_test_repeat():
    # level 1 at base 10: checkpoint positions 1 and 3 inside words of length 9
    w = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    el = collision_test(P10, 1, w)
    assert el is not None and el.kind == "repeat"
    assert el.words == (w,)
    assert el.component() == (9, 1)
    assert el.poly(Q) == FreePoly.monomial(Q, w)
    # letters at the two positions differ: no collision
    assert collision_test(P10, 1, (1, 0, 0, 0, 0, 0, 0, 0, 0)) is None
    with pytest.raises(ValueError):
        collision_test(P10, 1, (0, 0, 0))


def test_collision_test_swap():
    s1 = (0, 0, 1, 0, 0, 0, 0, 0, 0)
    s2 = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    el = collision_test(P10, 1, (s1, s2))
    assert el is not None and el.kind == "swap"
    assert el.words == (s1, s2)
    assert el.poly(Q) == FreePoly.monomial(Q, s1) + FreePoly.monomial(Q, s2)
    # same difference at non-checkpoint positions: not a collision
    t1 = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    t2 = (0, 0, 0, 1, 0, 0, 0, 0, 0)
    assert collision_test(P10, 1, (t1, t2)) is None
    # more than two differing positions is no collision either
    u2 = (1, 1, 0, 1, 0, 0, 0, 0, 0)
    assert collision_test(P10, 1, (s1, u2)) is None
    with pytest.raises(ValueError):
        collision_test(P10, 1, (s1, (0, 0)))


def test_collision_elements_degree_zero_and_one():
    els0 = list(collision_elements(P10, 1, 0))
    assert len(els0) == 1
    assert els0[0].kind == "repeat" and els0[0].words == ((0,) * 9,)
    els1 = list(collision_elements(P10, 1, 1))
    # seven repeats (the raised letter away from both checkpoints), one swap
    assert [e.kind for e in els1] == ["repeat"] * 7 + ["swap"]
    assert els1[-1].words == ((0, 0, 1) + (0,) * 6, (1,) + (0,) * 8)
    assert all(e.component() == (9, 1) for e in els1)


def test_collision_elements_match_collision_test():
    for degree in range(0, 3):
        for el in collision_elements(P10, 1, degree):
            cand = el.words[0] if el.kind == "repeat" else el.words
            back = collision_test(P10, 1, cand)
            assert back is not None and back.kind == el.kind


def test_degenerate_level_refuses_collisions():
    # a degenerate level has no slots and so no collision family: every
    # collisions entry point refuses it, level 2 of (2,3,2) too although
    # c_1 < c_2 < N(2) - 1; the spans that read no slots are still answered
    for params, k, degree in [(P222, 1, 2), (ConstructionParams(2, 3, 2, Q), 2, 1)]:
        assert not params.level_valid(k)
        N = params.block(k)
        word = (0,) * (N - 2) + (degree,)
        probe = FreePoly.monomial(Q, word)
        query = SpanQuery("collisions", N - 1, degree, level=k)
        functional = MembershipCertificate("non_member", functional={word: Q.one})
        asks = [
            lambda: list(collision_elements(params, k, degree)),
            lambda: collision_test(params, k, word),
            lambda: collision_test(params, k, (word, word[::-1])),
            lambda: list(span_rows(params, query)),
            # a component no window fits in is refused too
            lambda: list(span_rows(params, SpanQuery("collisions", 1, 0, level=k))),
            lambda: SpanOracle(params).member(probe, query),
            lambda: SpanOracle(params).normal_form(probe, query),
            lambda: SpanOracle(params).echelon(query),
            lambda: SpanOracle(params).verify(probe, query, functional),
        ]
        for ask in asks:
            with pytest.raises(ParamsError, match=f"level {k} is degenerate"):
                ask()
        oracle = SpanOracle(params)
        for q in (SpanQuery("words", N, 0, level=k),
                  SpanQuery("ideal_level", 2 * N, 0, level=k),
                  SpanQuery("ideal", 2 * N, 0)):
            a = FreePoly.monomial(Q, (0,) * q.length)
            cert = oracle.member(a, q)
            assert cert.kind == "member" and oracle.verify(a, q, cert), q


def test_collision_elements_level_two():
    els = list(collision_elements(P222, 2, 1))
    assert els, "level 2 of (2,2,2) has collision elements"
    # all words have length N(2) - 1 = 15 and the declared degree
    assert all(e.component() == (15, 1) for e in els)
    for e in els:
        cand = e.words[0] if e.kind == "repeat" else e.words
        assert collision_test(P222, 2, cand) is not None


# -- span queries ----------------------------------------------------------------------


def test_span_query_validation():
    with pytest.raises(ValueError):
        SpanQuery("nothing", 5, 1, level=1)
    with pytest.raises(ValueError):
        SpanQuery("words", 0, 1, level=1)
    with pytest.raises(ValueError):
        SpanQuery("words", 5, 1)          # level missing
    with pytest.raises(ValueError):
        SpanQuery("ideal", 5, 1, level=1)  # truncated union takes no level
    SpanQuery("ideal", 5, 1)


def test_span_rows_frozen_counts():
    # one level-one block plus a filler letter
    assert len(list(span_rows(P10, SpanQuery("collisions", 9, 1, level=1)))) == 8
    assert list(span_rows(P10, SpanQuery("collisions", 9, 0, level=1))) == [
        {(0,) * 9: 1}]
    assert len(list(span_rows(P10, SpanQuery("words", 20, 0, level=1)))) == 2
    assert len(list(span_rows(P10, SpanQuery("words", 20, 1, level=1)))) == 22
    assert len(list(span_rows(P10, SpanQuery("ideal_level", 20, 0, level=1)))) == 1
    assert len(list(span_rows(P10, SpanQuery("ideal_level", 20, 1, level=1)))) == 1


def test_span_rows_budgets():
    with pytest.raises(BudgetExceeded):
        list(span_rows(P10, SpanQuery("collisions", 9, 1, level=1),
                       Budgets(max_component_dim=5)))
    with pytest.raises(BudgetExceeded):
        list(span_rows(P10, SpanQuery("words", 20, 1, level=1),
                       Budgets(max_component_dim=5)))
    with pytest.raises(BudgetExceeded):
        list(span_rows(P10, SpanQuery("words", 20, 1, level=1),
                       Budgets(max_basis_size=10)))
    # every space counts its family before it builds a row: one row under
    # the family size refuses the first row and names the size, the size
    # itself lets the whole family through
    small = [(P10, SpanQuery("words", 20, 1, level=1)),
             (P10, SpanQuery("collisions", 20, 2, level=1)),
             (P222, SpanQuery("ideal_level", 36, 1, level=2)),
             (P10, SpanQuery("ideal", 30, 2))]
    assert [q.space for _, q in small] == list(SPACES)
    for params, q in small:
        family = sum(1 for _ in span_rows(params, q))
        with pytest.raises(BudgetExceeded) as refused:
            next(span_rows(params, q, Budgets(max_basis_size=family - 1)))
        assert refused.value.details["family_size"] == family
        assert f"has {family} rows, over the budget {family - 1}" in str(
            refused.value)
        exact = Budgets(max_basis_size=family)
        assert sum(1 for _ in span_rows(params, q, exact)) == family


# Row streams pinned by count and by sha256 of repr(list(span_rows(...))).
# Certificate indices are row positions, so any change of row order breaks
# stored certificates even when the spanned space is unchanged.
PINNED_STREAMS = [
    # the rows escape_l2's member combinations index
    ((3, 2, 2, Q), SpanQuery("collisions", 80, 1, level=2), 83,
     "c57ae1e31fc1602243e66e951d7b5370e2d132553ae21c406ec23c05fdbea4ab"),
    ((2, 2, 2, Q), SpanQuery("ideal", 36, 1), 1274,
     "7d2ac6e617d6cc31960b0fa0af878a14845de17d6abe7e047ffecfe772106bac"),
    ((2, 2, 2, Q), SpanQuery("ideal_level", 36, 1, level=2), 185,
     "35469861adf630835a7262f4c0d95afce2150a4863932395c6c6a776a6869f29"),
    ((10, 3, 1, Q), SpanQuery("words", 30, 2, level=1), 693,
     "b5f78fd8e72de18627614464c22f05b762b796bae534341a7824c530f2ebddf0"),
    ((10, 3, 1, Q), SpanQuery("collisions", 19, 2, level=1), 344,
     "64fefb37d2325c0aeae4bd69db49534a4b57822468372af6bf3ba27999a83c76"),
    ((4, 2, 1, PrimeField(7)), SpanQuery("collisions", 15, 2, level=1), 424,
     "06d77a5f5239e8016d127e1ace4785eb3538d8aa2daca6c69060d036b50dbec7"),
    # level-2 swaps over all three slot pairs, with nonzero rest letters
    ((3, 2, 2, Q), SpanQuery("collisions", 80, 2, level=2), 3477,
     "5f51a9e9b86d2cb7279822d7930176636960c777742e9959806bdde9e5f6794c"),
]


@pytest.mark.parametrize("params, query, count, digest", PINNED_STREAMS)
def test_span_rows_pinned_streams(params, query, count, digest):
    params = ConstructionParams(*params)
    rows = list(span_rows(params, query))
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
    # a cache shared across passes, as the oracle keeps it, changes nothing
    cache = {}
    for _ in range(2):
        again = list(span_rows(params, query, _cache=cache))
        assert hashlib.sha256(repr(again).encode()).hexdigest() == digest


def test_ideal_truncates_by_length():
    # at length 20 only level 1 contributes (2 * N(2) would need length 200)
    q_union = SpanQuery("ideal", 20, 1)
    q_level = SpanQuery("ideal_level", 20, 1, level=1)
    assert list(span_rows(P10, q_union)) == list(span_rows(P10, q_level))


# -- the membership oracle ----------------------------------------------------------


def test_oracle_member_and_verify():
    oracle = SpanOracle(P10)
    q = SpanQuery("collisions", 9, 1, level=1)
    member = FreePoly.monomial(Q, (0, 1, 0, 0, 0, 0, 0, 0, 0))
    cert = oracle.member(member, q)
    assert cert.kind == "member"
    assert oracle.verify(member, q, cert)
    stray = FreePoly.monomial(Q, (1,) + (0,) * 8)
    cert2 = oracle.member(stray, q)
    assert cert2.kind == "non_member"
    assert oracle.verify(stray, q, cert2)


def test_oracle_normal_form_frozen():
    oracle = SpanOracle(P10)
    q = SpanQuery("collisions", 9, 1, level=1)
    probe = FreePoly.monomial(Q, (0, 0, 1, 0, 0, 0, 0, 0, 0))
    nf = oracle.normal_form(probe, q)
    assert poly_to_text(nf) == "-1*x1.x0.x0.x0.x0.x0.x0.x0.x0"
    # idempotent
    assert oracle.normal_form(nf, q) == nf
    # the collision combination itself reduces to zero
    swap = probe + FreePoly.monomial(Q, (1,) + (0,) * 8)
    assert oracle.normal_form(swap, q).is_zero()


def test_oracle_rejects_mixed_or_inhomogeneous_input():
    oracle = SpanOracle(P10)
    q = SpanQuery("collisions", 9, 1, level=1)
    with pytest.raises(ValueError):
        oracle.member(FreePoly.monomial(Q, (0,) * 5), q)
    mixed = FreePoly.monomial(Q, (0,) * 9) + FreePoly.monomial(Q, (1,) + (0,) * 8)
    with pytest.raises(ValueError):
        oracle.member(mixed, q)
    with pytest.raises(ValueError):
        oracle.member(FreePoly.monomial(PrimeField(3), (0,) * 9), q)


def test_oracle_zero_is_member_everywhere():
    oracle = SpanOracle(P10)
    q = SpanQuery("words", 20, 1, level=1)
    cert = oracle.member(FreePoly.zero(Q), q)
    assert cert.kind == "member" and cert.combination == []
    assert oracle.verify(FreePoly.zero(Q), q, cert)
    assert oracle.normal_form(FreePoly.zero(Q), q).is_zero()


def test_oracle_membership_certificates_over_gf3():
    params = ConstructionParams(10, 3, 1, PrimeField(3))
    oracle = SpanOracle(params)
    q = SpanQuery("collisions", 9, 1, level=1)
    f = params.field
    member = FreePoly.monomial(f, (0, 1, 0, 0, 0, 0, 0, 0, 0), 2)
    cert = oracle.member(member, q)
    assert cert.kind == "member" and oracle.verify(member, q, cert)


def test_words_space_contains_block_products():
    # u * D^l(core) * v with the level-one core x0^10
    oracle = SpanOracle(P10)
    q = SpanQuery("words", 20, 1, level=1)
    core = FreePoly.monomial(Q, (0,) * 10)
    u = FreePoly.monomial(Q, (0,) * 10)
    candidate = u * derive(core)
    cert = oracle.member(candidate, q)
    assert cert.kind == "member"
    assert oracle.verify(candidate, q, cert)


# -- the words span, window by window ------------------------------------------------


def test_word_rank_inverts_words_iter():
    for length in range(6):
        for degree in range(5):
            for i, w in enumerate(words_iter(length, degree)):
                assert _word_rank(w) == i
    # long sparse words, like the cores and v words at (80, d): only the
    # nonzero letters are visited
    for degree in range(1, 4):
        for i, w in enumerate(words_iter(80, degree)):
            assert _word_rank(w) == i


def test_alphabet_count_matches_words_iter():
    for n in range(11):
        for d in range(9):
            for k in range(1, 5):
                assert _alphabet_count(n, d, k) == sum(
                    1 for _ in words_iter(n, d, max_letter=k - 1)), (n, d, k)


def test_layout_refuses_alphabet_families_without_building_a_core(monkeypatch):
    # the layout counts alphabet cores in closed form, so a family over the
    # basis budget is refused, with its enumerated size, before any D^l(w)
    queries = [SpanQuery("words", 20, 2, level=1),
               SpanQuery("ideal_level", 20, 2, level=1),
               SpanQuery("ideal", 20, 2)]
    sizes = [sum(1 for _ in span_rows(P10, q)) for q in queries]

    def no_cores(*args):
        raise AssertionError("a core was built")

    monkeypatch.setattr(construction, "_cores", no_cores)
    budgets = Budgets(max_basis_size=0)
    for q, size in zip(queries, sizes):
        with pytest.raises(BudgetExceeded) as refused:
            next(span_rows(P10, q, budgets))
        assert refused.value.details["family_size"] == size
    with pytest.raises(BudgetExceeded):
        SpanOracle(P10, budgets).member(
            FreePoly.monomial(Q, (0,) * 19 + (2,)), queries[0])


WORDS_FIELDS = (Q, PrimeField(2), PrimeField(3), PrimeField(7))


@st.composite
def small_words_queries(draw):
    base = draw(st.integers(2, 4))
    k = draw(st.integers(1, 2)) if base == 2 else 1
    N = base ** (k * k)
    length = draw(st.sampled_from((1, 2, 3, 0))) * N + draw(st.integers(0, N - 1))
    degree = draw(st.integers(0, 3))
    assume(1 <= length <= 36 and count_words(length, degree) <= 600)
    params = ConstructionParams(base, draw(st.integers(2, 3)), k,
                                draw(st.sampled_from(WORDS_FIELDS)))
    return params, SpanQuery("words", length, degree, level=k)


def random_query_vector(rng, field, words, rows):
    """A random combination of up to three rows, or of up to three words."""
    if rows and rng.random() < 0.5:
        picks = rng.sample(rows, min(3, len(rows)))
    else:
        picks = [{w: field.one} for w in rng.sample(words, min(3, len(words)))]
    acc = FreePoly.zero(field)
    for vec in picks:
        acc = acc + FreePoly(field, dict(vec)).scale(field.reduce(rng.randint(1, 4)))
    return acc


@settings(max_examples=30, deadline=None)
@given(case=small_words_queries(), seed=st.integers(0, 2**16))
def test_window_projection_matches_the_echelon(case, seed):
    params, q = case
    field = params.field
    oracle = SpanOracle(params)
    # the generic echelon of the whole family: the deliberate cross-check of
    # the per-window projection that answers `words` queries
    ech = oracle.echelon(q)
    words = list(words_iter(q.length, q.degree))
    # the quotient has a basis of the words the projection leaves alone
    fixed = sum(oracle.normal_form(FreePoly.monomial(field, w), q).terms
                == {w: field.one} for w in words)
    assert fixed == len(words) - len(ech)
    rng = random.Random(seed)
    rows = list(span_rows(params, q))
    for _ in range(6):
        a = random_query_vector(rng, field, words, rows)
        if a.is_zero():
            continue
        residue, _ = ech.reduce(a.terms)
        cert = oracle.member(a, q)
        assert (cert.kind == "member") == (not residue)
        assert oracle.normal_form(a, q).terms == residue
        assert oracle.verify(a, q, cert)


def test_words_certificates_do_not_survive_tampering():
    oracle = SpanOracle(P10)
    q = SpanQuery("words", 20, 2, level=1)
    rows = list(span_rows(P10, q))
    a = FreePoly(Q, dict(rows[5])) + FreePoly(Q, dict(rows[-1])).scale(2)
    cert = oracle.member(a, q)
    assert cert.kind == "member" and oracle.verify(a, q, cert)
    for pos, (idx, c) in enumerate(cert.combination):
        for changed in ((idx + 1, c), (idx, c + 1)):
            combination = list(cert.combination)
            combination[pos] = changed
            forged = MembershipCertificate("member", combination=combination)
            assert not oracle.verify(a, q, forged), (pos, changed)
    stray = FreePoly.monomial(Q, (1,) + (0,) * 9 + (1,) + (0,) * 9)
    cert = oracle.member(stray, q)
    assert cert.kind == "non_member" and oracle.verify(stray, q, cert)
    assert len(cert.functional) == 4  # two support words in each window
    for w, c in cert.functional.items():
        forged = MembershipCertificate("non_member",
                                       functional={**cert.functional, w: c + 1})
        assert not oracle.verify(stray, q, forged), w


def test_words_budgets_refuse_like_span_rows():
    q = SpanQuery("words", 20, 1, level=1)
    probe = FreePoly.monomial(Q, (0,) * 19 + (1,))
    for budgets in (Budgets(max_component_dim=5), Budgets(max_basis_size=21)):
        with pytest.raises(BudgetExceeded) as from_rows:
            next(span_rows(P10, q, budgets))
        for ask in (SpanOracle.member, SpanOracle.normal_form):
            with pytest.raises(BudgetExceeded) as from_oracle:
                ask(SpanOracle(P10, budgets), probe, q)
            assert str(from_oracle.value) == str(from_rows.value)
            assert from_oracle.value.details == from_rows.value.details


# -- the collisions span in closed form -----------------------------------------------


@pytest.mark.parametrize("params, k, degrees", [
    (P10, 1, range(5)),
    (ConstructionParams(3, 2, 1, Q), 1, range(5)),   # the slots fill the word
    (P222, 2, range(4)),
    (ConstructionParams(3, 2, 2, Q), 2, range(3)),
    (ConstructionParams(4, 3, 1, Q), 1, range(4)),
])
def test_collision_count_matches_the_elements(params, k, degrees):
    for degree in degrees:
        assert _collision_count(params, k, degree) == len(
            list(collision_elements(params, k, degree))), degree


def test_collisions_budgets_refuse_like_span_rows():
    q = SpanQuery("collisions", 20, 2, level=1)
    family = sum(1 for _ in span_rows(P10, q))
    probes = (FreePoly.monomial(Q, (2,) + (0,) * 19),        # a member
              FreePoly.monomial(Q, (1,) + (0,) * 9 + (1,) + (0,) * 9))
    for budgets in (Budgets(max_component_dim=5),
                    Budgets(max_basis_size=family - 1)):
        with pytest.raises(BudgetExceeded) as from_rows:
            next(span_rows(P10, q, budgets))
        for probe in probes:
            for ask in (SpanOracle.member, SpanOracle.normal_form):
                with pytest.raises(BudgetExceeded) as from_oracle:
                    ask(SpanOracle(P10, budgets), probe, q)
                assert str(from_oracle.value) == str(from_rows.value)
                assert from_oracle.value.details == from_rows.value.details
    # the count is exact: a budget of the family size itself passes
    oracle = SpanOracle(P10, Budgets(max_basis_size=family))
    assert oracle.member(probes[1], q).kind == "non_member"


@st.composite
def small_collisions_queries(draw):
    # valid levels only: level 1 of base 2 is degenerate, and so is a
    # ratio r with r^k >= base^(2k-1)
    base = draw(st.integers(2, 4))
    k = 2 if base == 2 else 1
    N = base ** (k * k)
    length = draw(st.sampled_from((1, 2, 3, 0))) * N + draw(st.integers(0, N - 1))
    degree = draw(st.integers(0, 3))
    assume(1 <= length <= 36 and count_words(length, degree) <= 600)
    ratio = draw(st.sampled_from([r for r in (2, 3) if r**k < base ** (2 * k - 1)]))
    params = ConstructionParams(base, ratio, k, draw(st.sampled_from(WORDS_FIELDS)))
    return params, SpanQuery("collisions", length, degree, level=k)


def tampered_functionals(rng, field, functional, words, slots):
    """Forgeries of a functional: one entry raised by one, one entry
    dropped, one off-support word given an entry, and an off-support word
    and its swap partner across the first slot pair given opposite
    entries."""
    w = rng.choice(list(functional))
    yield {**functional, w: field.add(functional[w], field.one)}
    yield {x: c for x, c in functional.items() if x != w}
    outside = [x for x in words if x not in functional]
    if outside:
        t = rng.choice(outside)
        yield {**functional, t: field.one}
        for i, j in itertools.combinations(slots, 2):
            if t[i] != t[j]:
                partner = list(t)
                partner[i], partner[j] = t[j], t[i]
                partner = tuple(partner)
                if partner not in functional:
                    yield {**functional, t: field.one,
                           partner: field.neg(field.one)}
                break


@settings(max_examples=40, deadline=None)
@given(case=small_collisions_queries(), seed=st.integers(0, 2**16))
@example(case=(ConstructionParams(3, 2, 1, PrimeField(3)),
               SpanQuery("collisions", 26, 2, level=1)), seed=1)  # three windows
@example(case=(P222, SpanQuery("collisions", 31, 2, level=2)), seed=2)
def test_collision_quotient_matches_the_echelon(case, seed):
    params, q = case
    field = params.field
    oracle = SpanOracle(params)
    # the generic echelon of the whole family: the deliberate cross-check of
    # the closed-form quotient that answers `collisions` verdicts, normal
    # forms and non-member certificates
    ech = oracle.echelon(q)
    words = list(words_iter(q.length, q.degree))
    classes = 0
    for w in words:
        nf = oracle.normal_form(FreePoly.monomial(field, w), q).terms
        assert nf == ech.reduce({w: field.one})[0]
        classes += nf == {w: field.one}  # sorted and repeat-free
    assert classes == len(words) - len(ech)
    rng = random.Random(seed)
    rows = list(span_rows(params, q))
    # the slots of the first window, when one fits
    slots = params.slots(q.level) if q.length >= params.block(q.level) - 1 else ()
    forged_checks = []
    for _ in range(6):
        a = random_query_vector(rng, field, words, rows)
        if a.is_zero():
            continue
        cert = oracle.member(a, q)
        expected = ech.certificate(a.terms)
        assert cert.kind == expected.kind
        assert oracle.normal_form(a, q).terms == ech.reduce(a.terms)[0]
        assert oracle.verify(a, q, cert)
        if cert.kind == "member":
            continue
        assert cert.functional == expected.functional
        for forged in [cert.functional, *tampered_functionals(
                rng, field, cert.functional, words, slots)]:
            forgery = MembershipCertificate("non_member", functional=forged)
            local = oracle.verify(a, q, forgery)
            assert local == forgery.verify(field, a.terms, span_rows(params, q))
            forged_checks.append((a, forgery, local))
    # the support-local rows come from the slots alone: a poisoned core cache
    # changes nothing
    for key in list(oracle._cache):
        oracle._cache[key] = []
    for a, forgery, local in forged_checks:
        assert oracle.verify(a, q, forgery) == local


def test_level_two_escape_needs_no_collisions_echelon():
    # the (3,2,2) escape: a_77 of (x0 X)^80 lies outside the level-2
    # collision span at (80, 3); its functional is the signed indicator of
    # the one sorted class, six words of value +-1/63
    params = ConstructionParams(3, 2, 2, Q)
    a = expand_power_window(Q, 80, 77)[77]
    oracle = SpanOracle(params)
    q = SpanQuery("collisions", 80, 3, level=2)
    cert = oracle.member(a, q)
    assert cert.kind == "non_member"
    sixty_third = Q.inv(Q.reduce(63))
    assert sorted(cert.functional.values()) == [Q.neg(sixty_third)] * 3 + [
        sixty_third] * 3
    assert oracle.verify(a, q, cert)
    assert not oracle._echelons
    # forgeries fail on the support-local rows too
    for w, c in cert.functional.items():
        forged = {**cert.functional, w: Q.add(c, Q.one)}
        assert not oracle.verify(a, q, MembershipCertificate("non_member",
                                                             functional=forged))


def test_one_oracle_answers_like_a_fresh_one_per_query():
    # the windowed engines keep one segment memo per (space, level), shared
    # across lengths and degrees: interleaved queries through one oracle get
    # the normal forms and certificates a fresh oracle gives each of them
    P232 = ConstructionParams(2, 3, 2, Q)  # level 2 degenerate: words only
    P322 = ConstructionParams(3, 2, 2, Q)
    cases = [(P10, SpanQuery(space, L, d, level=1))
             for space in ("words", "collisions")
             for L, d in ((20, 2), (30, 2), (20, 3), (9, 1), (5, 2))]
    cases += [(P222, SpanQuery("collisions", 31, 2, level=2)),
              (P222, SpanQuery("words", 33, 1, level=2)),
              (P222, SpanQuery("words", 20, 2, level=1)),
              (P222, SpanQuery("collisions", 15, 2, level=2)),  # no whole block
              (P232, SpanQuery("words", 32, 1, level=2)),
              (P322, SpanQuery("collisions", 80, 1, level=2)),
              (P322, SpanQuery("collisions", 80, 2, level=2)),
              (P322, SpanQuery("collisions", 20, 2, level=1))]
    rng = random.Random(7)
    asks = []
    for params, q in cases:
        words = list(words_iter(q.length, q.degree))
        rows = list(span_rows(params, q))
        asks += [(params, q, random_query_vector(rng, Q, words, rows))
                 for _ in range(4)]
    rng.shuffle(asks)
    shared = {params: SpanOracle(params) for params, _ in cases}
    kinds = set()
    for params, q, a in asks:
        fresh = SpanOracle(params)
        assert (shared[params].normal_form(a, q).terms
                == fresh.normal_form(a, q).terms), q
        cert = shared[params].member(a, q)
        assert cert == fresh.member(a, q), q
        assert fresh.verify(a, q, cert), q
        kinds.add((q.space, cert.kind))
    assert len(kinds) == 4  # members and non-members in both spaces


# Echelon states pinned by rank and by sha256 of the sorted rows and history,
# scalars through field.format, plus the running insertion counter.  Stored
# rows and history are what certificates are built from, so a faster kernel
# must leave every one of them in place.
F7 = PrimeField(7)
PINNED_ECHELONS = [
    ((10, 3, 1, Q), SpanQuery("words", 20, 3, level=1), 568,
     "939c66b78ee29d8e871882bcb2fa60a487c68ac2ba8a086398deb26dbcc0d909"),
    ((10, 3, 1, F7), SpanQuery("words", 20, 3, level=1), 568,
     "e15eb59461ef66d076fcfb333002a44cacff1b648e1442ee2b086067b2d53385"),
    ((10, 3, 1, Q), SpanQuery("collisions", 20, 4, level=1), 8682,
     "c6ad7b53aee3733d7f7bab6ebbf885fc9d998e27a3457ac7acef688b927c4122"),
    ((10, 3, 1, Q), SpanQuery("ideal_level", 24, 3, level=1), 95,
     "5c80f8247a95851ab86b1325a5c7adaa7fead4d2ae5847e6d28827d737f6470f"),
    ((3, 2, 2, F7), SpanQuery("collisions", 20, 3, level=1), 1540,
     "3d54d5c064f655705fe5369a94856bc9c62db556968f7cef3c8a1c462d884759"),
    ((3, 2, 2, F7), SpanQuery("collisions", 80, 2, level=2), 3240,
     "485cd6b0c14ee4eb1e763e914c9787a624cffac778c3d883d98839ec3efc2e4c"),
]


def echelon_state_digest(ech):
    fmt = ech.field.format
    rows = sorted((p, sorted((w, fmt(c)) for w, c in row.items()))
                  for p, row in ech.rows.items())
    history = sorted((p, idx, fmt(inv), sorted((q, fmt(c)) for q, c in used.items()))
                     for p, (idx, inv, used) in ech.history.items())
    state = (rows, history, ech.inserted)
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("params, query, rank, digest", PINNED_ECHELONS)
def test_echelon_state_pinned(params, query, rank, digest):
    ech = SpanOracle(ConstructionParams(*params)).echelon(query)
    assert len(ech) == rank
    assert echelon_state_digest(ech) == digest


# -- signed reorder -----------------------------------------------------------------


def test_signed_reorder_word_cases():
    def image(params, k, word):
        return signed_reorder(params, k, FreePoly.monomial(Q, word))
    # identity arrangement keeps sign +1 and the word unchanged
    w = (0, 0, 1, 0, 0, 0, 0, 0, 0)
    assert image(P10, 1, w) == FreePoly.monomial(Q, w)
    # transposed letters flip the sign and are rewritten ascending
    assert (image(P10, 1, (1, 0, 0, 0, 0, 0, 0, 0, 0))
            == FreePoly.monomial(Q, w, -1))
    # a foreign letter at a checkpoint position sends the word to zero
    assert image(P10, 1, (2, 0, 1, 0, 0, 0, 0, 0, 0)).is_zero()
    with pytest.raises(ValueError):
        image(P10, 1, (0, 0, 0))
    with pytest.raises(ParamsError):
        image(P222, 1, (0,))  # degenerate level refuses
    with pytest.raises(ParamsError):
        signed_reorder(P222, 1, FreePoly.zero(Q))  # even with no word to map


def reorder_reference(params, k, a):
    """The signed reorder computed independently: each word whose slot
    letters are a permutation of the targets goes to its target-ordered
    word, signed by (-1)^(n - cycles) of that permutation."""
    slots, targets = params.slots(k), params.checkpoints(k)[: k + 1]
    field, items = a.field, []
    for w, c in a.terms.items():
        letters = [w[i] for i in slots]
        if set(letters) != set(targets) or len(set(letters)) != len(letters):
            continue
        perm = [targets.index(x) for x in letters]
        seen, cycles = set(), 0
        for start in range(len(perm)):
            cycles += start not in seen
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
        image = list(w)
        for i, t in zip(slots, targets):
            image[i] = t
        odd = (len(perm) - cycles) % 2
        items.append((tuple(image), field.neg(c) if odd else c))
    return FreePoly.from_terms(field, items)


REORDER_LEVELS = tuple((ConstructionParams(b, r, k_max, F), k)
                       for F in (Q, PrimeField(3))
                       for b, r, k_max, k in ((10, 3, 1, 1), (3, 2, 2, 2)))


@st.composite
def reorder_sums(draw):
    """A sum of words over a few shared fillers, their slot letters either
    a permutation of the targets or arbitrary small letters."""
    params, k = draw(st.sampled_from(REORDER_LEVELS))
    slots, targets = params.slots(k), params.checkpoints(k)[: k + 1]
    length = params.block(k) - 1
    fillers = draw(st.lists(st.lists(st.integers(0, 2), min_size=length,
                                     max_size=length), min_size=1, max_size=2))
    letters = st.one_of(
        st.permutations(targets),
        st.lists(st.integers(0, targets[-1] + 1), min_size=len(slots),
                 max_size=len(slots)))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        word = list(draw(st.sampled_from(fillers)))
        for i, x in zip(slots, draw(letters)):
            word[i] = x
        terms.append((tuple(word), draw(st.integers(-3, 3))))
    return params, k, FreePoly.from_terms(params.field, terms)


@settings(max_examples=60, deadline=None)
@given(case=reorder_sums())
def test_signed_reorder_matches_the_cycle_count_reference(case):
    params, k, a = case
    assert signed_reorder(params, k, a) == reorder_reference(params, k, a)


def test_signed_reorder_kills_collision_elements():
    for degree in range(0, 3):
        for el in collision_elements(P10, 1, degree):
            assert signed_reorder(P10, 1, el.poly(Q)).is_zero(), el


def test_signed_reorder_level_two_kills_collisions():
    for degree in range(0, 2):
        for el in collision_elements(P222, 2, degree):
            assert signed_reorder(P222, 2, el.poly(Q)).is_zero(), el


def test_signed_reorder_reads_the_checkpoints_once_per_call(monkeypatch):
    # the level's slots and targets are read once for all of a's words, so
    # the count does not grow with the number of terms
    calls = []
    checkpoints = ConstructionParams.checkpoints

    def counting(self, k):
        calls.append(k)
        return checkpoints(self, k)
    monkeypatch.setattr(ConstructionParams, "checkpoints", counting)
    P222.slots(2)  # memoized, so the count below is the reorder's own
    words = list(words_iter(P222.block(2) - 1, 3))[:40]
    a = FreePoly(Q, {w: 1 for w in words})
    calls.clear()
    signed_reorder(P222, 2, a)
    assert calls == [2]


def test_signed_reorder_is_linear():
    w1 = (0, 0, 1, 0, 0, 0, 0, 0, 0)
    w2 = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    p = FreePoly.monomial(Q, w1, 3) + FreePoly.monomial(Q, w2, 5)
    img = signed_reorder(P10, 1, p)
    # 3 * (+w1) + 5 * (-w1)
    assert img == FreePoly.monomial(Q, w1, -2)
