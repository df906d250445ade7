"""The inclusions campaign, proved once per core, against a per-row reference.

`per_row_inclusions` is the campaign as it ran before the per-core proofs:
every row of every ideal and word family is reduced on its own.  It lives
here only, as the reference the per-core campaign must reproduce byte for
byte, also when the collisions quotient is broken on purpose.
"""
import collections

import pytest

from dpring import construction
from dpring.budgets import BudgetExceeded, Budgets, DEFAULT_BUDGETS
from dpring.construction import (
    ConstructionParams,
    SpanOracle,
    SpanQuery,
    _CollisionWindows,
    span_rows,
)
from dpring import harness
from dpring.fields import PrimeField, RationalField
from dpring.freealg import FreePoly
from dpring.harness import (
    CampaignReport,
    field_label,
    summarize_certificate,
    verify_inclusions,
)

Q = RationalField()
P10 = ConstructionParams(10, 3, 1, Q)


def per_row_inclusions(params, k=1, lengths=None, degree_cap=2,
                       budgets=DEFAULT_BUDGETS):
    field = params.field
    N = params.block(k)
    if lengths is None:
        lengths = (2 * N, 3 * N)
    rep = CampaignReport("inclusions", {
        "base": params.base, "ratio": params.ratio, "k_max": params.k_max,
        "field": field_label(field), "level": k, "lengths": list(lengths),
        "degree_cap": degree_cap})
    oracle = SpanOracle(params, budgets)
    for L in lengths:
        for d in range(degree_cap + 1):
            ideal_q = SpanQuery("ideal_level", L, d, level=k)
            words_q = SpanQuery("words", L, d, level=k)
            coll_q = SpanQuery("collisions", L, d, level=k)
            checked = bad = 0
            sample = None
            for row in span_rows(params, ideal_q, budgets):
                a = FreePoly(field, dict(row))
                if checked == 0:
                    cert_w = oracle.member(a, words_q)
                    cert_b = oracle.member(a, coll_q)
                    ok = (cert_w.kind == "member" and cert_b.kind == "member"
                          and oracle.verify(a, words_q, cert_w)
                          and oracle.verify(a, coll_q, cert_b))
                    sample = summarize_certificate(field, cert_b)
                else:
                    ok = (oracle.normal_form(a, words_q).is_zero()
                          and oracle.normal_form(a, coll_q).is_zero())
                checked += 1
                bad += not ok
            rep.add("ideal rows lie in the word span and the collision span",
                    f"({L}, {d})", bad == 0,
                    {"rows": checked, "failures": bad,
                     "sample_certificate": sample})
            checked = bad = 0
            for row in span_rows(params, words_q, budgets):
                checked += 1
                bad += not oracle.normal_form(FreePoly(field, dict(row)),
                                              coll_q).is_zero()
            rep.add("word rows lie in the collision span", f"({L}, {d})",
                    bad == 0, {"rows": checked, "failures": bad})
    return rep


CASES = [
    (P10, {"lengths": (20, 30), "degree_cap": 2}),
    (ConstructionParams(10, 3, 1, PrimeField(7)),
     {"lengths": (20, 30), "degree_cap": 2}),
    (ConstructionParams(4, 2, 1, Q), {}),
    # level 2 over x0, x1: several cores per block
    (ConstructionParams(2, 2, 2, Q), {"k": 2, "lengths": (32,),
                                      "degree_cap": 2}),
]


@pytest.mark.parametrize("params, knobs", CASES, ids=[
    "10_3_1_Q", "10_3_1_gf7", "4_2_1_defaults", "2_2_2_level_2"])
def test_per_core_report_matches_the_per_row_reference(params, knobs):
    got = verify_inclusions(params, **knobs)
    assert got.verdict == "pass"
    assert got.to_json() == per_row_inclusions(params, **knobs).to_json()


def test_a_core_with_a_residue_is_reduced_row_by_row(monkeypatch):
    # (0, 0, 1) is a pivot segment of the (10,3,1) window [0, 3), whose
    # slots are 0 and 2: its slot letters (0, 1) sort to (1, 0).  Kept as
    # no pivot, it leaves D(x0^10) with x1 at slot 0 plus x1 at slot 2 in
    # place of zero, and D^2(x0^10) nonzero too.
    segment = _CollisionWindows._segment

    def broken(self, seg):
        if seg == (0, 0, 1):
            self._segments[seg] = None
            return None
        return segment(self, seg)

    monkeypatch.setattr(_CollisionWindows, "_segment", broken)
    knobs = {"lengths": (20, 30), "degree_cap": 2}
    got = verify_inclusions(P10, k=1, **knobs)
    want = per_row_inclusions(P10, k=1, **knobs)
    assert got.verdict == want.verdict == "fail"
    failures = [c.detail["failures"] for c in got.checks]
    assert failures == [c.detail["failures"] for c in want.checks]
    # rows over the broken core whose u or v repeats a slot letter still
    # reduce to zero: the failures are some of the rows, not all
    rows = [c.detail["rows"] for c in got.checks]
    assert any(0 < f < r for f, r in zip(failures, rows))
    assert got.to_json() == want.to_json()


def test_an_ideal_core_whose_leibniz_check_fails_is_reduced_row_by_row(
        monkeypatch):
    knobs = {"lengths": (20, 30), "degree_cap": 2}
    reduced = []
    normal_form = SpanOracle.normal_form

    def counted(self, a, query):
        reduced.append(query)
        return normal_form(self, a, query)

    monkeypatch.setattr(SpanOracle, "normal_form", counted)
    verify_inclusions(P10, k=1, **knobs)
    per_core = len(reduced)
    # 861 ideal and 915 word rows, but one reduction per core and a few
    # sampled rows
    assert per_core < 30
    reduced.clear()
    # every binomial of the Leibniz sum wrong: no ideal core is proved, so
    # each ideal row but the certified first one of each component is
    # reduced in both spans, and the report does not change
    monkeypatch.setattr(harness, "comb", lambda n, r: 2)
    got = verify_inclusions(P10, k=1, **knobs).to_json()
    assert len([q for q in reduced if q.space == "words"]) == 861 - 6
    assert got == per_row_inclusions(P10, k=1, **knobs).to_json()


def test_oracle_blocks_count_the_rows_that_span_rows_build():
    oracle = SpanOracle(P10)
    for space in ("words", "ideal_level"):
        q = SpanQuery(space, 30, 2, level=1)
        blocks = list(oracle.blocks(q))
        assert sum(count for *_, count in blocks) == sum(
            1 for _ in span_rows(P10, q))
        assert [row for _, _, rows, _ in blocks for row in rows()] == list(
            span_rows(P10, q))
    with pytest.raises(ValueError, match="collisions"):
        next(oracle.blocks(SpanQuery("collisions", 30, 2, level=1)))


def test_each_core_is_built_once_per_call(monkeypatch):
    # the campaign reads its cores from the oracle's blocks, so the cores
    # the oracle's windows and echelons use are the same ones, not a second
    # copy in a cache of the campaign's own
    built = collections.Counter()
    cores = construction._cores

    def counting(params, space, k, budgets, cache, l, dc):
        before = set(cache)
        got = cores(params, space, k, budgets, cache, l, dc)
        built.update(set(cache) - before)
        return got

    monkeypatch.setattr(construction, "_cores", counting)
    assert verify_inclusions(P10, k=1, lengths=(20,), degree_cap=2).verdict \
        == "pass"
    assert built and set(built.values()) == {1}


def test_a_family_never_enumerated_is_still_refused_over_max_basis_size():
    # the (30, 3) ideal_level family has 3,146 rows; it is counted from the
    # layout, never built, and refused all the same
    with pytest.raises(BudgetExceeded) as exc:
        verify_inclusions(P10, k=1, lengths=(30,), degree_cap=3,
                          budgets=Budgets(max_basis_size=3145))
    assert exc.value.details["family_size"] == 3146


def test_inclusions_reach_lengths_40_and_50():
    rep = verify_inclusions(P10, k=1, lengths=(40, 50), degree_cap=3)
    assert rep.verdict == "pass"
    # 169,136 ideal and 61,705 word rows at (50, 3), proved per core
    assert [c.detail["rows"] for c in rep.checks[-2:]] == [169_136, 61_705]
