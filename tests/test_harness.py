"""Verification campaigns: reports, determinism, and the dispatch registry."""
import hashlib
import json
import tracemalloc

import pytest

from dpring import construction, harness
from dpring.budgets import Budgets
from dpring.construction import (
    ConstructionParams,
    ParamsError,
    SpanOracle,
    SpanQuery,
)
from dpring.fields import PrimeField, RationalField
from dpring.freealg import FreePoly
from dpring.membership import MembershipCertificate
from dpring.ore import (
    OrePoly,
    PowerCoefficient,
    expand_power,
    expand_power_window,
    is_ballot_word,
    window_terms,
)
from dpring.harness import (
    CAMPAIGNS,
    CampaignReport,
    locate_escape,
    run_campaign,
    summarize_certificate,
    verify_ballot,
    verify_counterexample,
    verify_inclusions,
    verify_phi,
    verify_products,
    verify_series,
    verify_z_closure,
)

Q = RationalField()
P10 = ConstructionParams(10, 3, 1, Q)
P222 = ConstructionParams(2, 2, 2, Q)
P232 = ConstructionParams(2, 3, 2, Q)  # both levels degenerate


# -- report plumbing -----------------------------------------------------------


def test_report_verdict_and_counts():
    rep = CampaignReport("demo", {"x": 1}, seed=0)
    rep.add("first claim", "on thing", True, {})
    rep.add("second claim", "elsewhere", "info", {"note": "fyi"})
    assert rep.verdict == "pass"
    assert rep.counts() == {"pass": 1, "info": 1, "fail": 0}
    rep.add("third claim", "bad", False, {})
    assert rep.verdict == "fail"
    doc = rep.to_dict()
    assert doc["schema"] == "dpring.report/1"
    assert doc["verdict"] == "fail"
    assert [c["verdict"] for c in doc["checks"]] == ["pass", "info", "fail"]


def test_report_json_deterministic_and_timing_flag():
    def build(timing):
        return run_campaign("series", P10, seed=3, include_timing=timing,
                            knobs={"dimension": 3, "trials": 5})
    a = build(False).to_json()
    b = build(False).to_json()
    assert a == b
    doc = json.loads(a)
    assert "elapsed_s" not in doc
    timed = json.loads(build(True).to_json())
    assert "elapsed_s" in timed


def test_seed_changes_content_not_shape():
    a = json.loads(verify_series(Q, dimension=3, trials=5, seed=1).to_json())
    b = json.loads(verify_series(Q, dimension=3, trials=5, seed=2).to_json())
    assert a["seed"] == 1 and b["seed"] == 2
    assert set(a) == set(b)


def test_summarize_certificate_inline_policy():
    oracle = SpanOracle(P10)
    q = SpanQuery("collisions", 9, 1, level=1)
    member = FreePoly.monomial(Q, (0, 1, 0, 0, 0, 0, 0, 0, 0))
    cert = oracle.member(member, q)
    summary = summarize_certificate(Q, cert)
    assert summary["kind"] == "member"
    assert "combination" in summary  # small certificates inline
    stray = FreePoly.monomial(Q, (1,) + (0,) * 8)
    summary2 = summarize_certificate(Q, oracle.member(stray, q))
    assert summary2["kind"] == "non_member"
    assert "functional" in summary2
    assert all(isinstance(k, str) for k in summary2["functional"])


@pytest.mark.parametrize("field, t, degree, entries", [
    (Q, 79, 1, 0),  # below degree k(k+1)/2 = 3 there is no class
    (PrimeField(7), 77, 3, 1),  # the one class sum, 63, vanishes mod 7
])
def test_summarize_certificate_counts_classes(field, t, degree, entries):
    cert = SpanOracle(ConstructionParams(3, 2, 2, field)).class_member(
        PowerCoefficient(field, 80, t), SpanQuery("collisions", 80, degree,
                                                  level=2))
    assert cert.kind == "classes"
    assert summarize_certificate(field, cert) == {"kind": "classes",
                                                  "entries": entries}


# -- individual campaigns (small knobs) ---------------------------------------------


def test_verify_ballot():
    rep = verify_ballot(Q, m_max=6)
    assert rep.verdict == "pass"
    # the final record is the field-dependence note, informational only
    assert rep.counts()["info"] >= 1


def test_verify_ballot_gf2():
    rep = verify_ballot(PrimeField(2), m_max=5)
    assert rep.verdict == "pass"


def _drop(terms, i):
    del terms[i]


def _reweigh(terms, i):
    t, word, weight = terms[i]
    terms[i] = (t, word, weight + 1)


def _repeat(terms, i):
    terms.insert(i, terms[i])


def _add_foreign(terms, i):
    # a word of a_2's degree that is no ballot word, so no power has it
    terms.append((2, (2, 0, 0, 0), 1))


@pytest.mark.parametrize("touch", [_drop, _reweigh, _repeat, _add_foreign])
def test_verify_ballot_window_stream_mismatch(touch, monkeypatch):
    # one term of a_2 in (x0 X)^4's window stream touched: the m=4 record
    # fails and names t = 2, every other record passes
    def stream(field, m, floor):
        terms = list(window_terms(field, m, floor))
        if m == 4:
            touch(terms, next(i for i, (t, _, _) in enumerate(terms) if t == 2))
        return iter(terms)
    monkeypatch.setattr(harness, "window_terms", stream)
    rep = verify_ballot(Q, m_max=5)
    failed = [c for c in rep.checks if c.verdict == "fail"]
    assert [c.component for c in failed] == ["m=4"]
    assert failed[0].detail["window_mismatch"] == 2


def _inject_at_four(monkeypatch, injected_terms):
    """Give the power verify_ballot checks at m = 4 the extra (t, word,
    weight) terms, while the product for m = 5 is taken from the true power,
    so only the m = 4 record can see them."""
    true_mul = OrePoly.__mul__
    held = {}

    def mul(self, other):
        if self is held.get("injected"):
            self = held["true"]
        out = true_mul(self, other)
        if max(out.coeffs, default=0) == 4:
            coeffs = {t: dict(a.terms) for t, a in out.coeffs.items()}
            for t, word, weight in injected_terms:
                coeffs.setdefault(t, {})[word] = weight
            field = out.ring.field
            held["true"] = out
            held["injected"] = OrePoly(out.ring, {
                t: FreePoly(field, terms) for t, terms in coeffs.items()})
            return held["injected"]
        return out
    monkeypatch.setattr(OrePoly, "__mul__", mul)


@pytest.mark.parametrize("injected, offender", [
    # a word of a_2's grade that is no ballot word
    ([(2, (2, 0, 0, 0), 1)], {"t": 2, "word": "x2.x0.x0.x0"}),
    # a ballot word one letter short
    ([(2, (0, 0, 1), 1)], {"t": 2, "word": "x0.x0.x1"}),
    # a word of a_3 put in a_2 as well: its prefix is proved, its degree
    # is not a_2's
    ([(2, (0, 1, 0, 0), 1)], {"t": 2, "word": "x0.x1.x0.x0"}),
    # in a_0, of its grade, with a ballot prefix from (x0 X)^3: the letters
    # sum to the length, so it is no ballot word
    ([(0, (0, 1, 1, 2), 1)], {"t": 0, "word": "x0.x1.x1.x2"}),
    # both, in two coefficients: the offender is the last in term order
    ([(3, (0, 0, 0, 1, 0), 1), (1, (1, 0, 0, 2), 1)],
     {"t": 1, "word": "x1.x0.x0.x2"}),
])
def test_verify_ballot_names_an_offender_in_one_power(injected, offender,
                                                      monkeypatch):
    # the offending power fails with the offender a word-by-word audit
    # names, and the power after it, with no proved prefixes to lean on,
    # is still audited word by word and passes
    _inject_at_four(monkeypatch, injected)
    rep = verify_ballot(Q, m_max=6)
    failed = [c for c in rep.checks if c.verdict == "fail"]
    assert [c.component for c in failed] == ["m=4"]
    assert failed[0].detail["offender"] == offender


def test_verify_ballot_audits_a_word_with_an_unseen_prefix_word_by_word(
        monkeypatch):
    # over GF(2), x0.x0.x1 vanishes from (x0 X)^3, so the ballot word
    # x0.x0.x1.x0 put into a_3 of (x0 X)^4, and into its window stream, has
    # no proved prefix: the per-word test takes it, and it passes
    word = (0, 0, 1, 0)
    _inject_at_four(monkeypatch, [(3, word, 1)])

    def stream(field, m, floor):
        yield from window_terms(field, m, floor)
        if m == 4:
            yield 3, word, 1
    tested = []

    def ballot(w):
        tested.append(w)
        return is_ballot_word(w)
    monkeypatch.setattr(harness, "window_terms", stream)
    monkeypatch.setattr(harness, "is_ballot_word", ballot)
    rep = verify_ballot(PrimeField(2), m_max=5)
    assert rep.verdict == "pass"
    assert word in tested
    assert rep.checks[4].detail["monomials"] == 11


def test_verify_ballot_holds_one_power_at_a_time():
    # Building the window beside the power, with a set of every word, peaked
    # at about 1.6 times the power's own expansion; streaming the window
    # against one power at a time peaks below it (about 0.85), so the bound
    # tells the two designs apart.
    field = PrimeField(2**31 - 1)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    alone = peak(lambda: expand_power(field, 10))
    assert peak(lambda: verify_ballot(field, m_max=10)) <= 1.25 * alone


def test_verify_z_closure():
    rep = verify_z_closure(P10, samples=6, seed=0)
    assert rep.verdict == "pass"


def test_verify_z_closure_level_two():
    rep = verify_z_closure(P222, samples=4, seed=0, degree_cap=4)
    assert rep.verdict == "pass"


@pytest.mark.parametrize("cap", [0, -1])
def test_verify_z_closure_rejects_degree_cap_below_one(cap):
    # every collision element has degree >= 0, so sampling under such a cap
    # would reject forever
    with pytest.raises(ValueError, match="degree_cap"):
        verify_z_closure(P10, samples=1, seed=0, degree_cap=cap)
    with pytest.raises(ValueError, match="degree_cap"):
        run_campaign("z_closure", P10, knobs={"degree_cap": cap})


def test_verify_z_closure_degree_cap_one():
    assert verify_z_closure(P10, samples=3, seed=0, degree_cap=1).verdict == "pass"


def test_verify_inclusions():
    rep = verify_inclusions(P10, k=1, degree_cap=1)
    assert rep.verdict == "pass"


def test_verify_products():
    params = ConstructionParams(4, 2, 1, Q)
    rep = verify_products(params, k=1, trials=5, seed=0)
    assert rep.verdict == "pass"


@pytest.mark.parametrize("prime", [2, 3])
def test_verify_products_over_a_small_field(prime):
    # a drawn coefficient that vanishes in the field (2 in GF(2), 3 in
    # GF(3)) is redrawn, so no factor is zero and no trial runs out of
    # draws
    params = ConstructionParams(10, 3, 1, PrimeField(prime))
    rep = verify_products(params, k=1, h_values=(1,), seed=0)
    assert rep.verdict == "pass"
    assert [c.detail for c in rep.checks] == [
        {"trials": 20, "skipped_member_factors": {2: 58, 3: 50}[prime]}]


def test_locate_escape_small():
    rep = locate_escape(P10, k=1, h=1)
    assert rep.verdict == "pass"
    found = [c for c in rep.checks if c.detail.get("escape_index") is not None]
    assert found and found[0].detail["escape_index"] == 8


def test_locate_escape_over_gf7_moves_down():
    # the (3,2,2) class coefficient 63 vanishes over GF(7), so a_77 is a
    # member there and the escape is a_76, at degree 4
    rep = locate_escape(ConstructionParams(3, 2, 2, PrimeField(7)), k=2, h=1)
    assert rep.verdict == "pass"
    [check] = rep.checks
    assert check.detail["escape_index"] == 76
    assert check.detail["members_above"] == 4
    assert check.detail["certificate"]["entries"] == 6


def test_locate_escape_level_two_over_two_blocks():
    # h = 2: two windows and a free separator letter; no class below degree
    # h k(k+1)/2 = 6, and at 6 one class of 6 * 6 placements escapes
    rep = locate_escape(ConstructionParams(3, 2, 2, Q), k=2, h=2)
    assert rep.verdict == "pass"
    [check] = rep.checks
    assert (check.detail["escape_index"], check.detail["members_above"]) == (
        155, 6)
    assert check.detail["certificate"]["entries"] == 36


def test_escape_descent_materialises_no_coefficient(monkeypatch):
    # the one window the descent expands is the cross-check's: a_m and a_m-1
    windows = []

    def window(field, m, floor):
        windows.append((m, floor))
        return expand_power_window(field, m, floor)
    monkeypatch.setattr(harness, "expand_power_window", window)
    rep = locate_escape(ConstructionParams(3, 2, 2, Q), k=2, h=1)
    assert rep.verdict == "pass"
    assert windows == [(80, 79)]
    # past max_component_dim letters, a_m alone
    windows.clear()
    rep = locate_escape(ConstructionParams(10, 3, 2, Q), k=2, h=1)
    assert rep.verdict == "pass"
    assert windows == [(9999, 9999)]
    # at (3,2,1) m = 2 lies below the floor 3: nothing is walked, and the
    # cross-check still runs on a_1
    windows.clear()
    [check] = locate_escape(ConstructionParams(3, 2, 1, Q)).checks
    assert check.detail == {"floor": 3, "note": "no escape found"}
    assert windows == [(2, 1)]


def test_escape_descent_walks_each_coefficient_once(monkeypatch):
    # the cross-check reuses the descent's certificate for a_79, so the
    # classes of a_80 .. a_77 are walked once each
    walked = []
    class_sums = construction._CollisionWindows.class_sums

    def counted(self, query, a):
        walked.append(a.t)
        return class_sums(self, query, a)
    monkeypatch.setattr(construction._CollisionWindows, "class_sums", counted)
    rep = locate_escape(ConstructionParams(3, 2, 2, Q), k=2, h=1)
    assert rep.verdict == "pass"
    assert walked == [80, 79, 78, 77]


def test_escape_descent_verifies_the_members_above_the_escape(monkeypatch):
    # a foreign class in every "classes" certificate: the members above each
    # escape carry one, and both campaigns must refuse them
    class_member = SpanOracle.class_member

    def forged(self, a, query):
        cert = class_member(self, a, query)
        if cert.kind != "classes":
            return cert
        return MembershipCertificate("classes",
                                     classes=cert.classes + [((0, 99),)])
    monkeypatch.setattr(SpanOracle, "class_member", forged)
    rep = verify_counterexample(P10, h_max=2, products=2)
    verdicts = [c.verdict for c in rep.checks
                if c.claim == "escape avoids the collision span"]
    assert verdicts == ["fail", "fail"]
    assert locate_escape(P10).verdict == "fail"


def test_verify_counterexample():
    rep = verify_counterexample(P10, h_max=1, products=4, seed=0)
    assert rep.verdict == "pass"


@pytest.mark.parametrize("products", [0, -1])
def test_verify_counterexample_rejects_products_below_one(products):
    # the nil check ranges over the lengths of its products, so it needs one
    with pytest.raises(ValueError, match="products"):
        run_campaign("counterexample", P10, knobs={"products": products})


# one case per guard: a knob that would let a campaign run no check
ZERO_SIZED_KNOBS = [
    ("z_closure", "samples", 0),
    ("products", "trials", 0),
    ("series", "trials", 0),
    ("escape", "h", 0),
    ("counterexample", "h_max", 0),
    ("phi", "kill_samples", 0),
    ("phi", "fix_samples", 0),
    ("phi", "preserve_trials", 0),
    ("ballot", "m_max", -1),
    ("series", "dimension", 1),
    ("products", "h_values", ()),
    ("products", "h_values", (1, 0)),
    ("inclusions", "degree_cap", -1),
    ("inclusions", "lengths", ()),
    ("inclusions", "lengths", (5,)),
    ("inclusions", "lengths", (20, 19)),  # one length below 2N = 20
]


@pytest.mark.parametrize("name, knob, value", ZERO_SIZED_KNOBS)
def test_zero_sized_knobs_are_refused(name, knob, value):
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        run_campaign(name, P10, knobs={knob: value})


@pytest.mark.parametrize("name, knobs", [
    ("escape", {}), ("escape", {"k": 2}), ("counterexample", {}),
    ("z_closure", {}), ("products", {}), ("inclusions", {}), ("phi", {}),
])
def test_degenerate_level_is_refused(name, knobs, monkeypatch):
    # the escape descent refuses the level before it expands a window
    def no_window(*args):
        raise AssertionError("a window was expanded")
    monkeypatch.setattr(harness, "expand_power_window", no_window)
    with pytest.raises(ParamsError, match="degenerate"):
        run_campaign(name, P232, knobs=knobs)


def test_verify_phi():
    rep = verify_phi(P222, kill_samples=10, fix_samples=5,
                     preserve_trials=4, seed=0)
    assert rep.verdict == "pass"


def test_verify_phi_constructive_preservation():
    params = ConstructionParams(3, 2, 2, Q)
    rep = verify_phi(params, kill_samples=6, fix_samples=4,
                     preserve_trials=4, seed=0)
    assert rep.verdict == "pass"
    moved = [c for c in rep.checks if "preserv" in c.claim]
    assert moved


# sha256 of each report's to_json(), pinned so that the collision sampler,
# the reorder and the preservation window check stay byte-identical
PHI_322_DIGESTS = {
    0: "9ec26ce263323c8ebf8dd97174998a2a462ee21cee6d6dc3216165b9cdd49103",
    1: "25c1ffca3e63375c3691f2dc4e045a717941340ae2e9a8601970f0f0bdfeeda3",
    2: "1b8b300f88d67bfa67e2fd7cafccd617e30354bc16d3c9e9958034a00a050e35",
}
Z_CLOSURE_222_DIGESTS = {
    0: "4f90f81f7fc25a399c3abcb0d091ad04de5b24024ce243f2bc99ba6d0c57d7e9",
    1: "8447b48d4139c3399e00bf20977fed1f6705036d2b7da5777754209b6d1ec684",
    2: "bf4248a4dc539c2f01a5cc4192268ceff6c69d599debb864dc84ea5e98940e15",
}


@pytest.mark.parametrize("seed", sorted(PHI_322_DIGESTS))
def test_verify_phi_pinned(seed):
    rep = verify_phi(ConstructionParams(3, 2, 2, Q), kill_samples=20,
                     fix_samples=5, preserve_trials=10, seed=seed)
    assert rep.verdict == "pass"
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == PHI_322_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(Z_CLOSURE_222_DIGESTS))
def test_verify_z_closure_pinned(seed):
    rep = verify_z_closure(P222, samples=4, seed=seed, degree_cap=4)
    assert rep.verdict == "pass"
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == Z_CLOSURE_222_DIGESTS[seed]


def test_verify_series_gf():
    assert verify_series(PrimeField(3), dimension=4, trials=8, seed=0).verdict == "pass"


def test_verify_series_redraws_a_zero_matrix(monkeypatch):
    # at dimension 2 and seed 4 the one trial first draws a zero matrix; it
    # is redrawn, not skipped, so the claim rests on inverses computed: at
    # p = 2 and 3 above s_index(c) = 1, and the one refused at p = 1
    calls = []
    real = harness.invert_one_minus

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "invert_one_minus", counted)
    rep = verify_series(Q, dimension=2, trials=1, seed=4)
    assert rep.verdict == "pass"
    assert [p for _, p, _ in calls] == [2, 3, 1]


# -- dispatch -------------------------------------------------------------------------


def test_run_campaign_dispatch_all():
    fast = {
        "ballot": {"m_max": 4},
        "z_closure": {"samples": 3},
        "inclusions": {"degree_cap": 1},
        "products": {"trials": 2},
        "escape": {"h": 1},
        "counterexample": {"h_max": 1, "products": 2},
        "phi": {"kill_samples": 4, "fix_samples": 2, "preserve_trials": 2},
        "series": {"trials": 4},
    }
    # sha256 of each report's to_json(), pinned so that dispatch stays
    # byte-identical
    digests = {
        "ballot": "c7543cc8a16bdf8cda07a26bd355885958a47ecec371f71fb0cf81bc42dbee83",
        "z_closure": "1ea011953d1940bef7a9c965b6b8e1a2d1b409c74bc75d0ea76588398765ef89",
        "inclusions": "40f2b2b841667831e97972f16f78b7727d3f49a0bf85afed2c34d3890d6c5a15",
        "products": "6ee261b8b9eafc7920f4da81e587ce7d0d51e00c1de3c781ccfb2eadac1201b0",
        "escape": "e2a32bb630d1568e69996426d01e4410b08f683eb118c19bb8c0a048f72262e1",
        "counterexample": "7dd5722a86ddde52ba4fd3c4ca2cfc50ccd37c4bf8b355c89ce0aef96a8ff5e2",
        "phi": "df8e0d7a63ddbc0e1cb299b38f38129c43dc5deb00042eac2a068d9104a50f5e",
        "series": "7fe2bf815ba39e8ef9a3452f4b84ccd4e638d576ad3dfe5af94df9e955310988",
    }
    for name in CAMPAIGNS:
        params = P222 if name == "phi" else (
            ConstructionParams(4, 2, 1, Q) if name == "products" else P10)
        rep = run_campaign(name, params, seed=0, knobs=fast[name])
        assert rep.campaign == name
        assert rep.verdict == "pass", (name, rep.to_json())
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digests[name], name


def test_run_campaign_unknown_name():
    with pytest.raises(ValueError, match="ballot"):
        run_campaign("nonsense", P10)


def test_run_campaign_rejects_unknown_knob():
    with pytest.raises(ValueError, match="'escape'.*'hmax'"):
        run_campaign("escape", knobs={"hmax": 3})
    # seed and budgets are run_campaign's own arguments, not knobs
    with pytest.raises(ValueError, match="'seed'"):
        run_campaign("series", P10, knobs={"seed": 1})
    with pytest.raises(ValueError, match="'seed'"):
        run_campaign("ballot", P10, knobs={"seed": 1})


def test_budget_propagates():
    from dpring.budgets import BudgetExceeded
    tight = Budgets(max_expand_m=2, max_component_dim=10, max_basis_size=10)
    with pytest.raises(BudgetExceeded):
        run_campaign("counterexample", P10, budgets=tight,
                     knobs={"h_max": 1, "products": 1})
