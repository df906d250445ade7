"""Acceptance gate: ten end-to-end criteria, one test (and one line) each.

Every test prints a single summary line and enforces its wall-clock budget;
all arithmetic is exact.  Run with `pytest -v tests/test_acceptance.py` to
get the per-criterion pass/fail listing.
"""
import json
import random
import time

from dpring.budgets import Budgets
from dpring.construction import (
    ConstructionParams,
    SpanOracle,
    SpanQuery,
)
from dpring.fields import RationalField
from dpring.freealg import FreePoly, derive, poly_from_text, poly_to_text
from dpring.harness import (
    locate_escape,
    run_campaign,
    verify_counterexample,
    verify_inclusions,
    verify_phi,
    verify_products,
    verify_series,
    verify_z_closure,
)
from dpring.ore import (
    commute_past,
    expand_power,
    expand_power_window,
    is_ballot_word,
    ore_from_text,
    ore_to_text,
)

Q = RationalField()


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.t0 = time.monotonic()

    def done(self, label: str, detail: str = ""):
        elapsed = time.monotonic() - self.t0
        extra = f" - {detail}" if detail else ""
        print(f"[acceptance] {label}: PASS ({elapsed:.1f}s / budget "
              f"{self.budget_s:.0f}s){extra}")
        assert elapsed < self.budget_s, (
            f"{label} exceeded its time budget: {elapsed:.1f}s"
        )


def failed_checks(report):
    return [c.claim for c in report.checks if c.verdict == "fail"]


def random_poly(rng, field=Q):
    items = []
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
        items.append((word, field.reduce(rng.choice([-3, -2, -1, 1, 2, 3]))))
    return FreePoly.from_terms(field, items)


def one_step(coeffs: dict) -> dict:
    """Independent oracle: left-multiply sum a_t X^t by X, one step."""
    out: dict = {}

    def put(t, p):
        if p.is_zero():
            return
        q = out.get(t)
        s = p if q is None else q + p
        if s.is_zero():
            out.pop(t, None)
        else:
            out[t] = s

    for t, p in coeffs.items():
        put(t + 1, p)
        put(t, derive(p))
    return out


def test_criterion_01_commutation_matches_iterated_one_step():
    watch = Stopwatch(5)
    rng = random.Random(1001)
    for trial in range(200):
        a = random_poly(rng)
        n = rng.randint(0, 12)
        folded = {0: a}
        for _ in range(n):
            folded = one_step(folded)
        assert commute_past(a, n).coeffs == folded, (trial, n)
    watch.done("criterion 1 (commutation)", "200 random inputs, n <= 12")


def test_criterion_02_ballot_structure_up_to_m_12():
    watch = Stopwatch(60)
    top_words = 0
    for m in range(0, 13):
        full = expand_power(Q, m, max_expand_m=16)
        if m >= 1:
            assert full.coeff(0).is_zero()
        assert full.coeff(m) == FreePoly.monomial(Q, (0,) * m)
        for t, coeff in full.coeffs.items():
            for w, c in coeff.terms.items():
                assert len(w) == m
                assert t == m - sum(w)
                assert is_ballot_word(w)
                assert c > 0
            top_words += len(coeff.terms)
    watch.done("criterion 2 (ballot expansion)",
               f"m <= 12 over the rationals, {top_words} terms audited")


def test_criterion_03_full_scale_escape():
    watch = Stopwatch(600)
    params = ConstructionParams(100, 3, 1, Q)
    oracle = SpanOracle(params)
    window = expand_power_window(Q, 99, 97)
    assert sorted(window) == [97, 98, 99]

    q0 = SpanQuery("collisions", 99, 0, level=1)
    a99 = window[99]
    cert_in = oracle.member(a99, q0)
    assert cert_in.kind == "member"
    assert oracle.verify(a99, q0, cert_in)

    q2 = SpanQuery("collisions", 99, 2, level=1)
    a97 = window[97]
    cert_out = oracle.member(a97, q2)
    assert cert_out.kind == "non_member"
    assert oracle.verify(a97, q2, cert_out)

    rep = locate_escape(params, k=1, h=1)
    assert not failed_checks(rep), failed_checks(rep)
    found = [c.detail["escape_index"] for c in rep.checks
             if c.detail.get("escape_index") is not None]
    assert found, "no escape index reported"
    i = found[0]
    assert i in (97, 98)
    assert i > 75
    watch.done("criterion 3 (full scale)",
               f"a99 in, a97 out, escape index {i}")


def test_criterion_04_inclusions_at_small_scale():
    watch = Stopwatch(300)
    params = ConstructionParams(10, 3, 1, Q)
    rep = verify_inclusions(params, k=1, lengths=(20, 30), degree_cap=4)
    assert rep.verdict == "pass", failed_checks(rep)
    rows = [c.detail["rows"] for c in rep.checks if c.component == "(30, 4)"]
    assert rows == [11_011, 31_878]  # ideal rows, then word rows
    watch.done("criterion 4 (inclusions)",
               "ideal generators at lengths 20 and 30, degree <= 4")


def test_criterion_05_collision_families_closed_under_derivation():
    watch = Stopwatch(300)
    rep1 = verify_z_closure(ConstructionParams(10, 3, 1, Q), samples=100, seed=0)
    assert rep1.verdict == "pass", failed_checks(rep1)
    rep2 = verify_z_closure(ConstructionParams(2, 2, 2, Q), samples=100, seed=0)
    assert rep2.verdict == "pass", failed_checks(rep2)
    watch.done("criterion 5 (derivation closure)",
               "100 sampled elements each at (10,3,1) and (2,2,2)")


def test_criterion_06_products_of_non_members():
    watch = Stopwatch(300)
    params = ConstructionParams(4, 2, 1, Q)
    rep = verify_products(params, k=1, trials=50, seed=0)
    assert rep.verdict == "pass", failed_checks(rep)
    watch.done("criterion 6 (products of non-members)", "50 certified trials at (4,2,1)")


def test_criterion_07_signed_reorder():
    watch = Stopwatch(300)
    params = ConstructionParams(2, 2, 2, Q)
    rep = verify_phi(params, kill_samples=100, fix_samples=20,
                     preserve_trials=20, seed=0)
    assert rep.verdict == "pass", failed_checks(rep)
    # at (2,2,2) the lower level is degenerate, so preservation has no
    # family to carry and is reported as info; exercise the constructive
    # case at (3,2,2) as well
    rep2 = verify_phi(ConstructionParams(3, 2, 2, Q), kill_samples=20,
                      fix_samples=10, preserve_trials=10, seed=0)
    assert rep2.verdict == "pass", failed_checks(rep2)
    watch.done("criterion 7 (signed reorder)",
               "kills 100 level-2 elements, fixes 20 patterns, "
               "preserves lower levels")


def test_criterion_08_counterexample_and_local_nilpotency():
    watch = Stopwatch(600)
    params = ConstructionParams(10, 3, 1, Q)
    rep = verify_counterexample(params, h_max=2, products=20, seed=0)
    assert rep.verdict == "pass", failed_checks(rep)
    escapes = [c.detail["escape_index"] for c in rep.checks
               if c.detail.get("escape_index") is not None]
    assert escapes == [8, 17]
    # the full-size level-2 witness, block length 10^4: certified from its
    # class coefficients, a_9996 of (x0 X)^9999 escapes above 20000/3
    rep2 = locate_escape(ConstructionParams(10, 3, 2, Q), k=2, h=1)
    assert rep2.verdict == "pass", failed_checks(rep2)
    [check] = rep2.checks
    assert check.detail["escape_index"] == 9996
    assert check.detail["members_above"] == 3
    watch.done("criterion 8 (counterexample)",
               f"escape indices {escapes}, 20 products reduced to zero; "
               "level 2 at full size: escape 9996 of m = 9999")


def test_criterion_09_matrix_series_identities():
    watch = Stopwatch(60)
    for dim in (3, 4):
        rep = verify_series(Q, dimension=dim, trials=50, seed=0)
        assert rep.verdict == "pass", (dim, failed_checks(rep))
    watch.done("criterion 9 (matrix series)",
               "50 random 3x3 and 4x4 inputs, identities up to the "
               "nilpotency index, zero samples give zero components")


def test_criterion_10_determinism_and_round_trips():
    watch = Stopwatch(120)
    # byte-identical reports under a fixed seed
    for name, params in (("series", None),
                         ("z_closure", ConstructionParams(10, 3, 1, Q))):
        a = run_campaign(name, params, seed=42).to_json()
        b = run_campaign(name, params, seed=42).to_json()
        assert a == b, name
        json.loads(a)  # valid JSON
    # serialized polynomials round-trip exactly
    rng = random.Random(77)
    for _ in range(200):
        p = random_poly(rng)
        assert poly_from_text(Q, poly_to_text(p)) == p
    for m in range(0, 9):
        ore = expand_power(Q, m)
        assert ore_from_text(Q, ore_to_text(ore)) == ore
    watch.done("criterion 10 (determinism and round-trip)",
               "fixed-seed reports byte-identical, 200 text round-trips")
