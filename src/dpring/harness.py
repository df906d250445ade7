"""Verification campaigns over the construction.

Every campaign replays a mathematical claim as a set of concrete checks,
each backed by a certificate that can be re-verified independently of the
data structure that produced it.  Reports are plain dictionaries rendered as
canonical JSON: with a fixed seed two runs produce byte-identical output.

``run_campaign`` is the one entry point by name: it forwards knobs to the
campaign function as keyword arguments, rejects a knob the function does not
take with ValueError, and is the only place that times a campaign (elapsed_s
appears only when include_timing is set).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import operator
import random
import time
from dataclasses import asdict, dataclass, field as _dcfield
from math import comb

from .budgets import BudgetExceeded, Budgets, DEFAULT_BUDGETS
from .construction import (
    ConstructionParams,
    ParamsError,
    SpanOracle,
    SpanQuery,
    collision_test,
    signed_reorder,
    words_iter,
)
from .fields import RationalField
from .freealg import FreePoly, derive, word_to_text
from .ore import (
    PowerCoefficient,
    expand_power,
    expand_power_window,
    is_ballot_word,
    window_terms,
)
from .series import (
    InnerDerivation,
    coefficient_identity,
    invert_one_minus,
    mat_add,
    mat_is_zero,
    mat_scale,
    nil_index,
    s_index,
    vandermonde_extract,
    zero_matrix,
)

SCHEMA = "dpring.report/1"
INLINE_CERT_LIMIT = 32

__all__ = [
    "SCHEMA",
    "INLINE_CERT_LIMIT",
    "CheckRecord",
    "CampaignReport",
    "field_label",
    "summarize_certificate",
    "verify_ballot",
    "verify_z_closure",
    "verify_inclusions",
    "verify_products",
    "locate_escape",
    "verify_counterexample",
    "verify_phi",
    "verify_series",
    "CAMPAIGNS",
    "run_campaign",
]


# -- reports -------------------------------------------------------------------


def field_label(field) -> str:
    """Report label of a field: its name, or gf(p) for a prime field."""
    if field.characteristic:
        return f"gf({field.characteristic})"
    return field.name


def summarize_certificate(field, cert) -> dict:
    """JSON-ready certificate digest; small certificates appear verbatim."""
    if cert.kind == "member":
        out = {"kind": "member", "entries": len(cert.combination)}
        if len(cert.combination) <= INLINE_CERT_LIMIT:
            out["combination"] = {
                str(i): field.format(c) for i, c in cert.combination
            }
        return out
    if cert.kind == "classes":
        return {"kind": "classes", "entries": len(cert.classes)}
    out = {"kind": "non_member", "entries": len(cert.functional)}
    if len(cert.functional) <= INLINE_CERT_LIMIT:
        out["functional"] = {
            word_to_text(w): field.format(c) for w, c in cert.functional.items()
        }
    return out


@dataclass
class CheckRecord:
    claim: str
    component: str
    verdict: str  # "pass" | "fail" | "info"
    detail: dict = _dcfield(default_factory=dict)


@dataclass
class CampaignReport:
    campaign: str
    parameters: dict
    seed: int | None = None
    checks: list = _dcfield(default_factory=list)
    elapsed_s: float | None = None

    def add(self, claim: str, component: str, ok, detail: dict | None = None):
        verdict = ok if isinstance(ok, str) else ("pass" if ok else "fail")
        self.checks.append(CheckRecord(claim, component, verdict, detail or {}))

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "info": 0}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    @property
    def verdict(self) -> str:
        return "fail" if any(c.verdict == "fail" for c in self.checks) else "pass"

    def to_dict(self) -> dict:
        """The fields, elapsed_s only when timed, with the schema, counts
        and verdict."""
        out = asdict(self)
        if self.elapsed_s is None:
            del out["elapsed_s"]
        return {"schema": SCHEMA, **out, "counts": self.counts(),
                "verdict": self.verdict}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _at_least(low: int, **knobs):
    """Refuse an int knob that is no int or lies below its floor, naming the
    knob: a zero-sized knob runs no check, and a campaign must not pass on
    none."""
    for name, value in knobs.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _entries_at_least(low: int, **knobs):
    """Refuse a sequence knob that is a bare int, is empty, or holds an entry
    below the floor, naming the knob, as `_at_least` does."""
    for name, value in knobs.items():
        if isinstance(value, int) or not value or min(value) < low:
            raise ValueError(f"{name} must be a non-empty sequence with "
                             f"entries >= {low}, got {value!r}")


def _params_dict(params: ConstructionParams) -> dict:
    return {
        "base": params.base,
        "ratio": params.ratio,
        "k_max": params.k_max,
        "field": field_label(params.field),
    }


# -- ballot words in powers of the shifted generator ---------------------------


_init = operator.itemgetter(slice(None, -1))


def _ballot_graded(words, m: int, t: int, prefixes) -> bool:
    """Whether every word of a_t in (x0 X)^m is proved, wholesale, to have
    length m and degree m - t and to be a ballot word.  By induction: the
    letters of such a word sum to m - t, which stays below its length when
    t >= 1, so it is a ballot word when its prefix w[:-1] is, and
    `prefixes` holds only ballot words, those of (x0 X)^(m-1).  False
    proves nothing: the caller then tests word by word."""
    return (t >= 1 and prefixes is not None
            and all(map(m.__eq__, map(len, words)))
            and all(map((m - t).__eq__, map(sum, words)))
            and all(map(prefixes.__contains__, map(_init, words))))


def verify_ballot(field=None, m_max: int = 8,
                  budgets: Budgets = DEFAULT_BUDGETS) -> CampaignReport:
    """Expand (x0 X)^m for m <= m_max and audit the coefficient structure.

    Each power is the one before times x0 X, the products `expand_power`
    runs.  Checked per m: the top coefficient is x0^m and the constant one is
    zero; every monomial is a ballot word (partial letter sums stay below the
    position) of degree m - t; the distinct monomials across all t
    (`monomials`, the coefficients' terms once the grading holds) number the
    m-th Catalan number; and the window's term stream (`window_terms`)
    matches the power term by term.  The converse (every ballot word appears
    with nonzero coefficient) is reported informationally.  An m_max over
    max_expand_m is refused before any expansion.

    The word test runs per coefficient with C-level maps (`_ballot_graded`),
    against the previous power's words as a set of proved ballot prefixes.
    That set is collected after each product, only when the previous power
    had no offender, and released before the walk.  A coefficient the maps
    do not prove is tested word by word, so the offender reported (the last
    failing word in term order) is the same either way.
    """
    _at_least(0, m_max=m_max)
    if m_max > budgets.max_expand_m:
        raise BudgetExceeded(f"ballot refused for m_max={m_max} "
                             f"(budget {budgets.max_expand_m})", m=m_max)
    field = field or RationalField()
    rep = CampaignReport("ballot", {"field": field_label(field), "m_max": m_max})
    step, full = expand_power(field, 1), expand_power(field, 0)
    clean, prefixes = False, None  # whether the last power had no offender
    for m in range(0, m_max + 1):
        if m:
            full = full * step
            if clean:  # the last power's words, which its terms still hold
                prefixes = set().union(*terms.values())
        ok = True
        detail: dict = {}
        terms = {t: coeff.terms for t, coeff in full.coeffs.items()}
        for t, words in terms.items():
            if _ballot_graded(words, m, t, prefixes):
                continue
            for w in words:
                if len(w) != m or sum(w) != m - t or not is_ballot_word(w):
                    ok = False
                    detail["offender"] = {"t": t, "word": word_to_text(w)}
        clean, prefixes = ok, None  # released before the walk
        # an offender may sit in two coefficients, so count it once
        monomials = (sum(map(len, terms.values())) if ok
                     else len(set().union(*terms.values())))
        catalan = comb(2 * m, m) // (m + 1)
        if field.characteristic == 0:
            # in positive characteristic binomial weights can vanish, so the
            # monomial count only matches the Catalan number over the rationals
            if monomials != catalan:
                ok = False
        elif monomials > catalan:
            ok = False
        if m >= 1 and not full.coeff(0).is_zero():
            ok = False
        top = FreePoly.monomial(field, (0,) * m)
        if full.coeff(m) != top:
            ok = False
        # the stream is a_t when each term is one of a_t's and it has as
        # many: it repeats no word and yields no zero
        left, bad = {t: len(words) for t, words in terms.items()}, set()
        for t, w, c in window_terms(field, m, 0):
            left[t] = left.get(t, 0) - 1
            if terms.get(t, {}).get(w) != c:
                bad.add(t)
        bad.update(t for t, n in left.items() if n)
        if bad:
            ok = False
            detail["window_mismatch"] = max(bad)
        detail.update({"monomials": monomials, "catalan": catalan})
        rep.add("ballot grading, Catalan count, dual-route agreement",
                f"m={m}", ok, detail)
        if field.characteristic == 0:
            missing = sum(
                1
                for t in range(0, m + 1)
                for w in words_iter(m, m - t)
                if is_ballot_word(w) and w not in terms.get(t, ())
            )
            rep.add("every ballot word appears (converse)", f"m={m}",
                    "info" if missing == 0 else "fail", {"missing": missing})
    return rep


# -- collision sampling ---------------------------------------------------------


def _sample_collision(params: ConstructionParams, k: int, rng: random.Random,
                      degree_cap: int | None = None):
    """One random collision element at level k, sparse enough that its
    component stays small; returns the witnessing element."""
    length = params.block(k) - 1
    pairs = list(itertools.combinations(params.slots(k), 2))
    while True:
        word = [0] * length
        for _ in range(rng.randint(0, 2)):
            word[rng.randrange(length)] = 1
        a, b = pairs[rng.randrange(len(pairs))]
        if rng.random() < 0.5:
            letter = rng.randint(0, 2)
            word[a] = word[b] = letter
            candidate = tuple(word)
        else:
            hi = rng.randint(1, 2)
            lo = rng.randint(0, hi - 1)
            w1 = list(word)
            w1[a], w1[b] = hi, lo
            w2 = list(word)
            w2[a], w2[b] = lo, hi
            candidate = (tuple(w1), tuple(w2))
        # a collision by construction
        elem = collision_test(params, k, candidate)
        degree = elem.component()[1]
        if degree_cap is not None and degree + 1 > degree_cap:
            continue
        return elem


def verify_z_closure(params: ConstructionParams, samples: int = 25, seed: int = 0,
                     degree_cap: int = 6, verify_limit: int = 4,
                     budgets: Budgets = DEFAULT_BUDGETS) -> CampaignReport:
    """Shift-derivatives of collision elements stay inside the collision span.

    Each sampled element z of the level-k family is checked twice: z itself
    is a member of its own component's span, and D(z) is a member of the span
    one degree up.  The certificates of the first verify_limit samples per
    level are additionally re-verified against a regenerated spanning family.
    Sampled elements have degree below degree_cap, so the cap must be >= 1.
    Degenerate levels have no collision family and are skipped; with no
    other level the campaign raises ParamsError.
    """
    _at_least(1, samples=samples)
    if degree_cap is not None:
        _at_least(1, degree_cap=degree_cap)
    levels = [k for k in range(1, params.k_max + 1) if params.level_valid(k)]
    if not levels:
        raise ParamsError(f"every level in 1..{params.k_max} is degenerate, so "
                          "there is no collision family to sample")
    field = params.field
    rep = CampaignReport("z_closure", {**_params_dict(params),
                                       "samples": samples,
                                       "degree_cap": degree_cap}, seed=seed)
    rng = random.Random(seed)
    oracle = SpanOracle(params, budgets)
    for k in levels:
        length = params.block(k) - 1
        fails = rep.counts()["fail"]
        max_witness = 0
        sample_summary = None
        for s in range(samples):
            elem = _sample_collision(params, k, rng, degree_cap=degree_cap)
            z = elem.poly(field)
            d = elem.component()[1]
            self_q = SpanQuery("collisions", length, d, level=k)
            self_cert = oracle.member(z, self_q)
            dz = derive(z)
            q = SpanQuery("collisions", length, d + 1, level=k)
            cert = oracle.member(dz, q)
            ok = self_cert.kind == "member" and cert.kind == "member"
            if ok and s < verify_limit:
                ok = (oracle.verify(z, self_q, self_cert)
                      and oracle.verify(dz, q, cert))
            if not ok:
                rep.add("derivative of a collision element stays in the span",
                        f"level {k}, degree {d}", False,
                        {"kind": elem.kind,
                         "word": word_to_text(elem.words[0]),
                         "certificate": summarize_certificate(field, cert)})
            else:
                max_witness = max(max_witness, len(cert.combination))
                if sample_summary is None:
                    sample_summary = summarize_certificate(field, cert)
        if rep.counts()["fail"] == fails:
            rep.add("derivative of a collision element stays in the span",
                    f"level {k}", True,
                    {"samples": samples, "max_witness": max_witness,
                     "sample_certificate": sample_summary})
    return rep


# -- inclusions ------------------------------------------------------------------


def _examined(blocks, proved):
    """The rows reduced one by one, in row order: those of every block with
    a core that proved(len u, l, w, D^l(w)) leaves open, and, as the named
    cross-check, the first row of the first block of each (l, deg w)."""
    seen = set()
    for (len_u, _, l, dc), cores, rows, _ in blocks:
        if not all(proved(len_u, l, *core) for core in cores):
            yield from rows()
        elif (l, dc) not in seen:
            yield next(rows())
        seen.add((l, dc))


def verify_inclusions(params: ConstructionParams, k: int = 1, lengths=None,
                      degree_cap: int = 2,
                      budgets: Budgets = DEFAULT_BUDGETS) -> CampaignReport:
    """The generated-ideal rows sit inside the word span and the collision
    span, and the word rows inside the collision span, proved once per core:
    a `words` core fills a block, a tensor factor of the collisions quotient,
    and an `ideal_level` core is a Leibniz sum of `words` rows; both proofs
    read each D^l(w) from the `words` blocks of the same component.  Rows
    over an unproved core are reduced one by one, so `failures` is exact.
    `rows` is counted by the layout, which refuses a family over
    max_basis_size though it builds no row.  The first ideal row of each
    component is certified in both spans and re-verified against the
    regenerated families, its `collisions` combination taken by the route
    `SpanOracle.member` picks.
    test_per_core_report_matches_the_per_row_reference compares the per-core
    proofs with per-row reductions.  Each length must fit an ideal core, 2N;
    a degenerate level is refused first.
    """
    params.slots(k)
    field = params.field
    N = params.block(k)
    if lengths is None:
        lengths = (2 * N, 3 * N)
    _entries_at_least(2 * N, lengths=lengths)
    _at_least(0, degree_cap=degree_cap)
    rep = CampaignReport("inclusions", {**_params_dict(params), "level": k,
                                        "lengths": list(lengths),
                                        "degree_cap": degree_cap})
    oracle = SpanOracle(params, budgets)
    split, fmul = {}, field.mul
    core_of = {}  # (l, w) -> D^l(w), read from the words blocks

    @functools.cache
    def zero(l, w):  # D^l(w) on a block is zero in the collisions quotient
        return oracle.normal_form(FreePoly(field, core_of[l, w]), SpanQuery(
            "collisions", N, l + sum(w), level=k)).is_zero()

    def in_both(len_u, l, w, core):
        """Whether the Leibniz rule over w = w1 w2 w3 at offset len u,
        |w1| = -len u mod N and |w2| = N, holds: D^l(w) is the sum over b of
        C(l, b) D^b(w2) set between the letters of D^(l-b)(w1 w3), each word
        from one b; and whether every such `words` core D^b(w2) is zero."""
        q = -len_u % N
        if (l, w, q) not in split:
            out, w2, outer = {}, w[q:q + N], w[:q] + w[q + N:]
            for b in range(l + 1):
                for y, cy in core_of[b, w2].items():
                    m = fmul(field.reduce(comb(l, b)), cy)
                    out.update((x[:q] + y + x[q:], fmul(m, cx))
                               for x, cx in core_of[l - b, outer].items())
            split[l, w, q] = ({t: c for t, c in out.items() if c} == core
                              and all(zero(b, w2) for b in range(l + 1)))
        return split[l, w, q]

    for L in lengths:
        for d in range(0, degree_cap + 1):
            words_q = SpanQuery("words", L, d, level=k)
            coll_q = SpanQuery("collisions", L, d, level=k)
            ideal_q = SpanQuery("ideal_level", L, d, level=k)
            # the ideal family is refused over budget before the words one
            ideal = list(oracle.blocks(ideal_q))
            words = list(oracle.blocks(words_q))
            # every (l, deg w) with l + deg w <= d has a words block
            core_of.update(((key[2], w), c) for key, cores, _, _ in words
                           for w, c in cores)
            bad, sample = 0, None
            for _, _, rows, _ in ideal[:1]:
                # one full certificate per component, re-verified against
                # a regenerated family
                a = FreePoly(field, next(rows()))
                cert_w = oracle.member(a, words_q)
                cert_b = oracle.member(a, coll_q)
                bad += not (cert_w.kind == "member" and cert_b.kind == "member"
                            and oracle.verify(a, words_q, cert_w)
                            and oracle.verify(a, coll_q, cert_b))
                sample = summarize_certificate(field, cert_b)
            # the first row examined is the one just certified
            for row in itertools.islice(_examined(ideal, in_both), 1, None):
                a = FreePoly(field, row)
                bad += not (oracle.normal_form(a, words_q).is_zero()
                            and oracle.normal_form(a, coll_q).is_zero())
            rep.add("ideal rows lie in the word span and the collision span",
                    f"({L}, {d})", bad == 0,
                    {"rows": sum(b[-1] for b in ideal), "failures": bad,
                     "sample_certificate": sample})
            bad = sum(not oracle.normal_form(FreePoly(field, r), coll_q).is_zero()
                      for r in _examined(words, lambda _, l, w, c: zero(l, w)))
            rep.add("word rows lie in the collision span", f"({L}, {d})",
                    bad == 0, {"rows": sum(b[-1] for b in words),
                               "failures": bad})
    return rep


# -- products of non-members -----------------------------------------------------


def _nonzero(field, rng: random.Random, choices: tuple):
    """A scalar drawn from the int choices, redrawn while it is zero in the
    field (2 over GF(2), 3 over GF(3)); a choice of 1 or -1 ends the loop."""
    while True:
        c = field.reduce(rng.choice(choices))
        if c:
            return c


def _random_homogeneous(params: ConstructionParams, rng: random.Random,
                        length: int, degree: int) -> FreePoly:
    field = params.field
    words = list(words_iter(length, degree))
    picks = rng.sample(words, min(len(words), rng.randint(1, 3)))
    return FreePoly.from_terms(field, [
        (w, _nonzero(field, rng, (-3, -2, -1, 1, 2, 3))) for w in picks])


def verify_products(params: ConstructionParams, k: int = 1, trials: int = 20,
                    h_values=(1, 2), seed: int = 0,
                    budgets: Budgets = DEFAULT_BUDGETS) -> CampaignReport:
    """Products of certified non-members joined by the zeroth generator stay
    outside the collision span.

    Each trial draws h+1 random homogeneous elements of the block-length
    component, certifies each lies outside the level-k span (resampling
    members, which are counted as skips, at most 12 draws per factor), forms
    their x0-joined product, and certifies the product outside the span of
    its own component.  A degenerate level, with no collision span, is
    refused first.
    """
    params.slots(k)
    _at_least(1, trials=trials)
    _entries_at_least(1, h_values=h_values)
    field = params.field
    N = params.block(k)
    length = N - 1
    rep = CampaignReport("products", {**_params_dict(params), "level": k,
                                      "trials": trials,
                                      "h_values": list(h_values)},
                         seed=seed)
    rng = random.Random(seed)
    oracle = SpanOracle(params, budgets)
    x0 = FreePoly.generator(field, 0)
    skips = 0
    done = 0
    for t in range(trials):
        h = h_values[t % len(h_values)]
        factors = []
        give_up = False
        for _ in range(h + 1):
            for _ in range(12):
                d = rng.randint(1, 2)
                r = _random_homogeneous(params, rng, length, d)
                q = SpanQuery("collisions", length, d, level=k)
                cert = oracle.member(r, q)
                if cert.kind == "non_member":
                    factors.append((r, d, q, cert))
                    break
                skips += 1
            else:
                give_up = True
                break
        if give_up:
            rep.add("found a non-member factor", f"trial {t}", False,
                    {"skips": skips})
            continue
        product = factors[0][0]
        for r, _, _, _ in factors[1:]:
            product = product * x0 * r
        pl, pd = product.bigrade()
        pq = SpanQuery("collisions", pl, pd, level=k)
        pcert = oracle.member(product, pq)
        ok = (pcert.kind == "non_member"
              and oracle.verify(product, pq, pcert)
              and all(oracle.verify(r, q, c) for r, _, q, c in factors))
        done += 1
        if not ok:
            rep.add("x0-joined product of non-members is a non-member",
                    f"({pl}, {pd})", False,
                    {"h": h, "certificate": summarize_certificate(field, pcert)})
    rep.add("x0-joined product of non-members is a non-member",
            f"level {k}", rep.verdict == "pass",
            {"trials": done, "skipped_member_factors": skips})
    return rep


# -- escape of windowed coefficients ----------------------------------------------


def _window_cross_check(params: ConstructionParams, k: int, m: int, top: int,
                        by_classes, oracle: SpanOracle) -> bool:
    """The descent's deliberate cross-check of the class route against the
    expanded window: the coefficient oracle reproduces every term of a_m
    down to a_top, and SpanOracle.member gives the expanded a_top the
    verdict of by_classes, the descent's certificate for it, verified by
    SpanOracle.verify, and for a non-member the same functional."""
    field = params.field
    window = expand_power_window(field, m, top)
    ok = all(PowerCoefficient(field, m, t).get(w) == c
             for t, p in window.items() for w, c in p.terms.items())
    a = window[top]
    q = SpanQuery("collisions", m, m - top, level=k)
    cert = oracle.member(a, q)
    same = (cert.kind == "member" if by_classes.kind == "classes"
            else cert == by_classes)
    return ok and same and oracle.verify(a, q, cert)


def _descend(params: ConstructionParams, k: int, h: int, oracle: SpanOracle):
    """Walk the coefficients a_i of (x0 X)^m, m = h*N - 1, top-down until
    one escapes the level-k collision span, verifying each certificate when
    it is made.  Each a_i is a lazy `PowerCoefficient`, never materialised,
    whose repeat-free classes (at most max_component_dim) are walked once by
    `SpanOracle.class_member`.  `_window_cross_check` reuses the certificate
    of a_top: a_{m-1}, m - 1 words of m letters, while m^2 stays within
    max_component_dim, a_m past that, as at (10,3,2).  A walk that never
    reaches a_top, as at (3,2,1) where m = 2 lies below the floor 3,
    certifies a_top for the cross-check alone.  A degenerate level is
    refused first.  Returns (m, floor, escape, above, ok): escape is (i,
    certificate) or None, above the members certified above it, and ok
    whether every certificate verified and the cross-check agreed.
    """
    params.slots(k)
    field = params.field
    m = h * params.block(k) - 1
    cap = oracle.budgets.max_component_dim
    if m > cap:  # a_m alone is one word of m letters
        raise BudgetExceeded(f"the level-{k} escape at h = {h} has words of "
                             f"m = {m} letters (budget {cap})")
    floor = (k + 2) * (m + 1) // (2 * (k + 1)) + 1
    top = m - 1 if m * m <= cap else m
    certs, verified = {}, []

    def certify(i: int):
        a = PowerCoefficient(field, m, i)
        q = SpanQuery("collisions", m, m - i, level=k)
        cert = certs[i] = oracle.class_member(a, q)
        verified.append(oracle.verify(a, q, cert))
        return cert

    i = m
    while i >= floor and certify(i).kind != "non_member":
        i -= 1
    escape = (i, certs[i]) if i >= floor else None
    by_classes = certs[top] if top in certs else certify(top)
    verified.append(_window_cross_check(params, k, m, top, by_classes, oracle))
    return m, floor, escape, m - i, all(verified)


def locate_escape(params: ConstructionParams, k: int = 1, h: int = 1,
                  budgets: Budgets = DEFAULT_BUDGETS) -> CampaignReport:
    """Find the largest coefficient of (x0 X)^(h*N-1) outside the level-k
    collision span and check it beats the strict threshold
    (k+2)(m+1) / (2(k+1)); every coefficient above it is a certified
    member.  The descent (`_descend`) certifies and re-verifies every
    coefficient and runs the window cross-check; this campaign adds only
    the threshold.
    """
    _at_least(1, h=h)
    field = params.field
    rep = CampaignReport("escape", {**_params_dict(params), "level": k, "h": h})
    m, floor, escape, above, ok = _descend(params, k, h,
                                           SpanOracle(params, budgets))
    if escape is None:
        rep.add("a window coefficient escapes the collision span",
                f"m={m}", False, {"floor": floor, "note": "no escape found"})
        return rep
    i, cert = escape
    rep.add("a window coefficient escapes the collision span",
            f"m={m}", ok and 2 * (k + 1) * i > (k + 2) * (m + 1),
            {"escape_index": i, "floor": floor,
             "threshold": f"{(k + 2) * (m + 1)}/{2 * (k + 1)}",
             "members_above": above,
             "certificate": summarize_certificate(field, cert)})
    return rep


def _random_zero_degree_poly(field, rng: random.Random) -> FreePoly:
    """Random polynomial in the zeroth generator alone, without unit term."""
    return FreePoly.from_terms(field, [
        ((0,) * L, _nonzero(field, rng, (-2, -1, 1, 2)))
        for L in rng.sample(range(1, 4), rng.randint(1, 2))])


def verify_counterexample(params: ConstructionParams, h_max: int = 2,
                          products: int = 20, seed: int = 0,
                          budgets: Budgets = DEFAULT_BUDGETS) -> CampaignReport:
    """The headline separation at level 1: escaped window coefficients avoid
    the truncated ideal too, while the degree-zero subalgebra is visibly nil
    modulo it.

    For each h <= h_max the descent (`_descend`) certifies and re-verifies
    the escape of (x0 X)^(h*N-1) from the collision span and every member
    above it; this campaign adds the escape's certificate against the
    truncated ideal.  Positively, x0^(2N) generates: it is a member of the
    level-1 ideal family, and random products of 2N degree-zero elements
    reduce to zero against the ideal in every component, so products must
    be >= 1.
    """
    _at_least(1, h_max=h_max, products=products)
    field = params.field
    k = 1
    N = params.block(k)
    rep = CampaignReport("counterexample", {**_params_dict(params),
                                            "h_max": h_max,
                                            "products": products}, seed=seed)
    rng = random.Random(seed)
    oracle = SpanOracle(params, budgets)
    for h in range(1, h_max + 1):
        m, floor, escape, above, ok = _descend(params, k, h, oracle)
        if escape is None:
            rep.add("escape avoids the collision span", f"h={h}", False,
                    {"floor": floor})
            continue
        i, cert = escape
        rep.add("escape avoids the collision span", f"h={h}, ({m}, {m - i})",
                ok, {"escape_index": i, "members_above": above,
                     "certificate": summarize_certificate(field, cert)})
        # the ideal echelon needs the escape written out
        a = expand_power_window(field, m, i)[i]
        ideal_q = SpanQuery("ideal", m, m - i)
        icert = oracle.member(a, ideal_q)
        ok = icert.kind == "non_member" and oracle.verify(a, ideal_q, icert)
        rep.add("escape avoids the truncated ideal", f"h={h}, ({m}, {m - i})",
                ok, {"certificate": summarize_certificate(field, icert)})
    gen = FreePoly.monomial(field, (0,) * (2 * N))
    gen_q = SpanQuery("ideal_level", 2 * N, 0, level=k)
    gcert = oracle.member(gen, gen_q)
    rep.add("the square of the block power generates the ideal",
            f"({2 * N}, 0)",
            gcert.kind == "member" and oracle.verify(gen, gen_q, gcert),
            {"certificate": summarize_certificate(field, gcert)})
    bad = 0
    lengths_seen = set()
    for _ in range(products):
        prod = FreePoly.one(field)
        for _ in range(2 * N):
            prod = prod * _random_zero_degree_poly(field, rng)
        for (L, d), comp in prod.components().items():
            lengths_seen.add(L)
            nf = oracle.normal_form(comp, SpanQuery("ideal", L, d))
            if not nf.is_zero():
                bad += 1
    rep.add("products of 2N degree-zero elements vanish modulo the ideal",
            f"lengths {min(lengths_seen)}..{max(lengths_seen)}",
            bad == 0, {"products": products, "failures": bad})
    return rep


# -- the signed checkpoint reorder --------------------------------------------


def _window_collision(params: ConstructionParams, j: int, poly: FreePoly,
                      m: int):
    """The level-j collision element that poly embeds in window m, the
    indices [mN, mN + N - 1): one word repeating a slot letter there, or two
    words with equal coefficients that agree outside the window and swap
    there.  None when poly is neither."""
    N = params.block(j)
    lo, hi = m * N, m * N + N - 1
    terms = sorted(poly.terms.items())
    if len(terms) == 1:
        return collision_test(params, j, terms[0][0][lo:hi])
    if len(terms) == 2 and terms[0][1] == terms[1][1]:
        (w1, _), (w2, _) = terms
        if w1[:lo] == w2[:lo] and w1[hi:] == w2[hi:]:
            return collision_test(params, j, (w1[lo:hi], w2[lo:hi]))
    return None


def verify_phi(params: ConstructionParams, kill_samples: int = 100,
               fix_samples: int = 20, preserve_trials: int = 20,
               seed: int = 0) -> CampaignReport:
    """The signed checkpoint reorder at the top level kills the top collision
    family, fixes checkpoint-sorted words, signs transpositions, and carries
    embedded lower-level collision elements to embedded collision elements.
    The top level is the highest valid one; with none, the campaign raises
    ParamsError.  A section's passing summary is recorded only when the
    section recorded no failure; a degenerate lower level, with no family to
    carry, is recorded as `info`.
    """
    _at_least(1, kill_samples=kill_samples, fix_samples=fix_samples,
              preserve_trials=preserve_trials)
    field = params.field
    k = max((j for j in range(1, params.k_max + 1) if params.level_valid(j)),
            default=None)
    if k is None:
        raise ParamsError(f"every level in 1..{params.k_max} is degenerate, so "
                          "there is no level to reorder at")
    rep = CampaignReport("phi", {**_params_dict(params),
                                 "kill_samples": kill_samples,
                                 "fix_samples": fix_samples,
                                 "preserve_trials": preserve_trials}, seed=seed)
    rng = random.Random(seed)
    length = params.block(k) - 1
    slots = params.slots(k)
    targets = params.checkpoints(k)[: k + 1]

    # kill: the reorder annihilates every top-level collision element
    fails = rep.counts()["fail"]
    batch = []
    for _ in range(kill_samples):
        elem = _sample_collision(params, k, rng)
        z = elem.poly(field)
        if not signed_reorder(params, k, z).is_zero():
            rep.add("reorder kills the top collision family",
                    f"level {k}, {elem.kind}", False,
                    {"word": word_to_text(elem.words[0])})
        batch.append(z)
        if len(batch) == 5:
            combo = FreePoly.zero(field)
            for zz in batch:
                combo = combo + zz.scale(_nonzero(field, rng, (1, 2, -1, 3)))
            if not signed_reorder(params, k, combo).is_zero():
                rep.add("reorder kills combinations of collision elements",
                        f"level {k}", False, {})
            batch = []
    if rep.counts()["fail"] == fails:
        rep.add("reorder kills the top collision family", f"level {k}", True,
                {"samples": kill_samples})

    # fix and sign: sorted checkpoint letters are fixed, transposed letters
    # flip the sign and land on the same sorted image, foreign letters die
    fails = rep.counts()["fail"]
    for _ in range(fix_samples):
        word = [0] * length
        for _ in range(rng.randint(0, 2)):
            word[rng.randrange(length)] = rng.randint(1, 2)
        for i, t in zip(slots, targets):
            word[i] = t
        fixed = FreePoly.monomial(field, word)
        a, b = (slots[i] for i in rng.sample(range(len(slots)), 2))
        swapped, foreign = list(word), list(word)
        swapped[a], swapped[b] = word[b], word[a]
        foreign[slots[0]] = targets[-1] + 1
        for w, image, claim, component in (
                (word, fixed, "reorder fixes checkpoint-sorted words", "fix"),
                (swapped, -fixed, "reorder signs a transposition by -1",
                 "sign"),
                (foreign, FreePoly.zero(field),
                 "reorder kills foreign checkpoint letters", "kill")):
            if signed_reorder(params, k, FreePoly.monomial(field, w)) != image:
                rep.add(claim, component, False, {"word": word_to_text(w)})
    if rep.counts()["fail"] == fails:
        rep.add("reorder fixes sorted words, signs transpositions, kills "
                "foreign letters", f"level {k}", True,
                {"samples": fix_samples})

    # preservation: embedded lower-level collision elements stay embedded
    for j in range(1, k):
        if not params.level_valid(j):
            rep.add("reorder preserves the lower collision span",
                    f"level {j}", "info",
                    {"note": "level degenerate, lower family is zero"})
            continue
        Nj = params.block(j)
        fails = rep.counts()["fail"]
        moved = 0
        for t in range(preserve_trials):
            m = rng.randrange(0, (length - (Nj - 1)) // Nj + 1)
            elem = _sample_collision(params, j, rng)
            filler = [0] * length
            for _ in range(rng.randint(0, 2)):
                filler[rng.randrange(length)] = 1
            if t % 2 == 0:
                perm = list(targets)
                rng.shuffle(perm)
                for i, letter in zip(slots, perm):
                    filler[i] = letter
            embedded = []
            for cw in elem.words:
                w = list(filler)
                w[m * Nj : m * Nj + Nj - 1] = cw
                embedded.append(tuple(w))
            a = FreePoly(field, {w: field.one for w in embedded})
            img = signed_reorder(params, k, a)
            if img.is_zero():
                continue
            moved += 1
            witness = _window_collision(params, j, img, m)
            touched_outside = any(
                any(iw[i] != sw[i] for i in range(length) if i not in slots)
                for iw, sw in zip(sorted(img.terms), sorted(a.terms))
            )
            if witness is None or touched_outside:
                rep.add("reorder preserves the lower collision span",
                        f"level {j}, trial {t}", False,
                        {"m": m,
                         "witness": None if witness is None else witness.kind,
                         "touched_outside": touched_outside})
        if rep.counts()["fail"] == fails:
            rep.add("reorder preserves the lower collision span",
                    f"level {j}", True,
                    {"trials": preserve_trials,
                     "killed": preserve_trials - moved, "moved": moved})
    return rep


# -- series over nilpotent matrices ----------------------------------------------


def _random_strict_upper(field, n: int, rng: random.Random):
    return tuple(
        tuple(field.reduce(rng.choice((-2, -1, 0, 1, 1, 2))) if c > r
              else field.zero for c in range(n))
        for r in range(n))


def _nonzero_strict_upper(field, n: int, rng: random.Random):
    """`_random_strict_upper`, redrawn while zero: no series trial is vacuous."""
    while True:
        a = _random_strict_upper(field, n, rng)
        if not mat_is_zero(a):
            return a


def verify_series(field=None, dimension: int = 3, trials: int = 25,
                  seed: int = 0) -> CampaignReport:
    """Random inner derivations on strictly upper-triangular matrices: the
    derivation index is finite, 1 - c X^p inverts exactly once p exceeds it
    (with both product identities checked), the top coefficient of powers is
    the matrix power, and component extraction from sampled evaluations is
    exact.
    """
    _at_least(2, dimension=dimension)
    _at_least(1, trials=trials)
    field = field or RationalField()
    rep = CampaignReport("series", {"field": field_label(field),
                                    "dimension": dimension,
                                    "trials": trials}, seed=seed)
    rng = random.Random(seed)
    n = dimension
    fails = rep.counts()["fail"]
    refused = 0
    for t in range(trials):
        u = _nonzero_strict_upper(field, n, rng)
        c = _nonzero_strict_upper(field, n, rng)
        D = InnerDerivation(field, u)
        s = s_index(c, D)
        q = nil_index(field, c)
        ok = True
        try:
            for p in (s + 1, s + 2):
                invert_one_minus(c, p, D)
                if not all(coefficient_identity(c, p, e, D)
                           for e in range(1, q + 1)):
                    ok = False
            if s >= 1:
                try:
                    invert_one_minus(c, s, D)
                    ok = False
                except ValueError:
                    refused += 1
        except ArithmeticError:
            ok = False
        if not ok:
            rep.add("series identities for 1 - c X^p", f"trial {t}", False,
                    {"s_index": s})
    rep.add("series inverses and coefficient identities hold exactly",
            f"{n} x {n}", rep.counts()["fail"] == fails,
            {"trials": trials, "premise_refusals": refused})
    fails = rep.counts()["fail"]
    max_alpha = trials + 4
    if field.characteristic:
        max_alpha = field.characteristic - 1
    for t in range(trials):
        lo = rng.randint(0, 2)
        hi = lo + rng.randint(0, min(2, max_alpha - 1))
        parts = [_random_strict_upper(field, n, rng) for _ in range(hi - lo + 1)]
        alphas = rng.sample(range(1, max_alpha + 1), hi - lo + 1)
        samples = []
        for av in alphas:
            acc = zero_matrix(field, n)
            for d, g in enumerate(parts, lo):
                acc = mat_add(field, acc,
                              mat_scale(field, g, field.reduce(av ** d)))
            samples.append((field.reduce(av), acc))
        if vandermonde_extract(field, samples, lo, hi) != parts:
            rep.add("sampled evaluations recover components", f"trial {t}",
                    False, {"degrees": [lo, hi]})
        zero = zero_matrix(field, n)
        zeroed = [(alpha, zero) for alpha, _ in samples]
        if any(not mat_is_zero(g)
               for g in vandermonde_extract(field, zeroed, lo, hi)):
            rep.add("all-zero evaluations yield all-zero components",
                    f"trial {t}", False, {"degrees": [lo, hi]})
    rep.add("sampled evaluations recover the graded components exactly",
            f"{n} x {n}", rep.counts()["fail"] == fails,
            {"trials": trials})
    return rep


# -- registry --------------------------------------------------------------------


_RUNNERS = {
    "ballot": verify_ballot,
    "z_closure": verify_z_closure,
    "inclusions": verify_inclusions,
    "products": verify_products,
    "escape": locate_escape,
    "counterexample": verify_counterexample,
    "phi": verify_phi,
    "series": verify_series,
}
CAMPAIGNS = tuple(_RUNNERS)


def run_campaign(name: str, params: ConstructionParams | None = None, *,
                 seed: int = 0, include_timing: bool = False,
                 budgets: Budgets = DEFAULT_BUDGETS,
                 knobs: dict | None = None) -> CampaignReport:
    """Run a named campaign and, when include_timing is set, record its
    wall-clock time in the report's elapsed_s.

    The campaign function receives params (params.field for ballot and
    series), seed and budgets where its signature takes them, and knobs as
    keyword arguments, so every default lives in the function's signature.
    A knob the function does not take, or one naming seed or budgets,
    raises ValueError before the run.
    params defaults to the standard small parameter set over the rationals.
    """
    func = _RUNNERS.get(name)
    if func is None:
        raise ValueError(f"unknown campaign {name!r} (expected one of "
                         f"{', '.join(CAMPAIGNS)})")
    params = params or ConstructionParams()
    first, *accepted = inspect.signature(func).parameters
    kwargs = {key: value for key, value in
              (("seed", seed), ("budgets", budgets)) if key in accepted}
    for key, value in (knobs or {}).items():
        if key not in accepted or key in kwargs:
            raise ValueError(f"campaign {name!r} takes no knob {key!r}")
        kwargs[key] = value
    start = time.perf_counter()
    report = func(params.field if first == "field" else params, **kwargs)
    if include_timing:
        report.elapsed_s = round(time.perf_counter() - start, 3)
    return report
