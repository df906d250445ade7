"""Skew polynomials: commutation, the two power expansions, text form."""
import hashlib
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpring.budgets import BudgetExceeded
from dpring.fields import PrimeField, RationalField
from dpring.freealg import FreePoly, ShiftDerivation, derive, poly_to_text
from dpring.ore import (
    OrePoly,
    commute_past,
    expand_power,
    expand_power_window,
    is_ballot_word,
    ore_from_text,
    ore_to_text,
    window_terms,
)

Q = RationalField()
R = ShiftDerivation(Q)  # the free algebra over Q as a coefficient ring


def one_step(coeffs: dict) -> dict:
    """Independent oracle: multiply sum a_t X^t by X on the left, one step.

    X * (sum a_t X^t) = sum a_t X^(t+1) + derive(a_t) X^t.
    """
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


def random_poly(rng, field=Q):
    items = []
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
        items.append((word, field.reduce(rng.choice([-3, -2, -1, 1, 2, 3]))))
    return FreePoly.from_terms(field, items)


# -- commutation ----------------------------------------------------------------


def test_commute_past_base_cases():
    x0 = FreePoly.generator(Q, 0)
    assert commute_past(x0, 0) == OrePoly(R, {0: x0})
    # X * x0 = x0 X + x1
    moved = commute_past(x0, 1)
    assert moved.coeff(1) == x0
    assert moved.coeff(0) == FreePoly.generator(Q, 1)
    with pytest.raises(ValueError):
        commute_past(x0, -1)


def test_commute_past_matches_iterated_one_step():
    rng = random.Random(20240)
    for trial in range(60):
        a = random_poly(rng)
        n = rng.randint(0, 12)
        cur = {0: a}
        for _ in range(n):
            cur = one_step(cur)
        assert commute_past(a, n).coeffs == cur, (trial, n)


def test_commute_past_binomial_pattern():
    # X^n applied to a single letter leaves C(n, k) * x_{k} * X^{n-k}
    x0 = FreePoly.generator(Q, 0)
    n = 6
    moved = commute_past(x0, n)
    for k in range(n + 1):
        assert moved.coeff(n - k) == FreePoly.monomial(Q, (k,), comb(n, k))


def test_commute_past_gf2_drops_even_binomials():
    f = PrimeField(2)
    moved = commute_past(FreePoly.generator(f, 0), 2)
    # C(2,1) = 2 vanishes mod 2
    assert sorted(moved.coeffs) == [0, 2]


def test_commute_past_zero_poly():
    assert commute_past(FreePoly.zero(Q), 5).is_zero()


# -- ring structure ---------------------------------------------------------------


def test_ore_ring_identities():
    x0 = FreePoly.generator(Q, 0)
    X = OrePoly(R, {1: FreePoly.one(Q)})
    a = OrePoly(R, {0: x0})
    # X a - a X = derive(a)
    assert X * a - a * X == OrePoly(R, {0: derive(x0)})
    one = OrePoly.one(R)
    assert one * X == X * one == X


def test_ore_mul_associative_random():
    rng = random.Random(7)
    for _ in range(10):
        ps = [OrePoly(R, {rng.randint(0, 2): random_poly(rng),
                          rng.randint(0, 2): random_poly(rng)})
              for _ in range(3)]
        a, b, c = ps
        assert (a * b) * c == a * (b * c)


def test_ore_add_sub_degree():
    x0 = FreePoly.generator(Q, 0)
    p = OrePoly(R, {3: x0, 0: FreePoly.one(Q)})
    assert max(p.coeffs) == 3
    assert (p - p).is_zero()
    assert p.coeff(2).is_zero()


def test_constructor_drops_zero_coefficients():
    x0 = FreePoly.generator(Q, 0)
    p = OrePoly(R, {2: x0, 1: FreePoly.zero(Q)})
    assert sorted(p.coeffs) == [2]
    zero = OrePoly(R, {1: FreePoly.zero(Q)})
    assert zero.is_zero()
    assert zero == OrePoly(R)
    assert zero == p - p


def test_mixed_fields_are_refused():
    x0 = FreePoly.generator(Q, 0)
    f5 = PrimeField(5)
    p = OrePoly(R, {0: x0})
    q = OrePoly(ShiftDerivation(f5), {0: FreePoly.generator(f5, 0)})
    assert p != q
    assert p == OrePoly(ShiftDerivation(RationalField()), {0: x0})
    for op in (lambda: p + q, lambda: p - q, lambda: p * q):
        with pytest.raises(ValueError, match="mixed coefficient rings"):
            op()


# -- canonical power expansion ------------------------------------------------------


def test_expand_power_small_frozen():
    assert expand_power(Q, 0) == OrePoly.one(R)
    assert ore_to_text(expand_power(Q, 1)) == "(1*x0)X^1"
    assert ore_to_text(expand_power(Q, 2)) == "(1*x0.x0)X^2 + (1*x0.x1)X^1"
    assert ore_to_text(expand_power(Q, 3)) == (
        "(1*x0.x0.x0)X^3 + (2*x0.x0.x1 + 1*x0.x1.x0)X^2 + "
        "(1*x0.x0.x2 + 1*x0.x1.x1)X^1"
    )


def test_expand_power_no_constant_term():
    for m in range(1, 8):
        p = expand_power(Q, m)
        assert 0 not in p.coeffs
        assert p.coeff(m) == FreePoly.monomial(Q, (0,) * m)


def test_expand_power_grading():
    # coefficient of X^t in (x0 X)^m is homogeneous of length m, degree m - t
    for m in range(1, 9):
        for t, p in expand_power(Q, m).coeffs.items():
            assert p.bigrade() == (m, m - t)


def test_expand_power_ballot_and_catalan():
    for m in range(1, 10):
        p = expand_power(Q, m)
        words = set()
        for t, c in p.coeffs.items():
            for w in c.terms:
                assert is_ballot_word(w)
                words.add(w)
        assert len(words) == comb(2 * m, m) // (m + 1)


def test_expand_power_budget_refusal():
    with pytest.raises(BudgetExceeded):
        expand_power(Q, 17)
    with pytest.raises(BudgetExceeded):
        expand_power(Q, 5, max_expand_m=4)
    expand_power(Q, 5, max_expand_m=5)
    with pytest.raises(ValueError):
        expand_power(Q, -1)


def test_window_agrees_with_full_expansion():
    for m in range(0, 11):
        full = expand_power(Q, m).coeffs
        for floor in range(0, m + 1):
            window = expand_power_window(Q, m, floor)
            assert window == {t: p for t, p in full.items() if t >= floor}, (m, floor)


def test_window_beyond_full_budget():
    # the window route keeps going after the full expansion is refused
    window = expand_power_window(Q, 25, 24)
    assert sorted(window) == [24, 25]
    assert window[25] == FreePoly.monomial(Q, (0,) * 25)
    top = window[24]
    assert top.bigrade() == (25, 1)
    # a_{m-1} = sum over positions of C(j,1)-weighted single shifts
    assert sum(top.terms.values()) == comb(25, 2)


def test_window_validates():
    with pytest.raises(ValueError):
        expand_power_window(Q, 3, 5)
    assert expand_power_window(Q, 0, 0) == {0: FreePoly.one(Q)}


def test_window_mod_p():
    # binomial weights vanish mod p, so whole subtrees of words drop out
    for p in (2, 3, 7):
        f = PrimeField(p)
        for m in range(0, 11):
            full = expand_power(f, m).coeffs
            for floor in range(0, m + 1):
                window = expand_power_window(f, m, floor)
                assert window == {t: q for t, q in full.items()
                                  if t >= floor}, (p, m, floor)


@pytest.mark.parametrize("field", [Q, PrimeField(2)])
def test_window_terms_distinct_and_nonzero(field):
    # a stream checked term by term against a full expansion relies on both
    for m in range(11):
        seen = set()
        for t, word, weight in window_terms(field, m, 0):
            assert (t, word) not in seen and weight, (m, t, word)
            seen.add((t, word))


def test_window_80_77_pinned():
    # the level-2 escape window at (b, r) = (3, 2): term counts, and a_78 by
    # sha256 of its text form
    window = expand_power_window(Q, 80, 77)
    assert {t: len(q) for t, q in window.items()} == {
        80: 1, 79: 79, 78: 3159, 77: 85239}
    digest = hashlib.sha256(poly_to_text(window[78]).encode()).hexdigest()
    assert digest == (
        "ae1dd98414628a8a36d96b715c1c9065903c8997e0c5a808feaee0f5cf23082e")


def test_is_ballot_word():
    assert is_ballot_word(())
    assert is_ballot_word((0, 0, 1))
    assert is_ballot_word((0, 1, 0, 2))
    assert not is_ballot_word((1,))
    assert not is_ballot_word((0, 2))
    assert not is_ballot_word((0, 1, 2))


# -- text form ---------------------------------------------------------------------


def test_ore_text_round_trip_frozen():
    p = expand_power(Q, 3)
    text = ore_to_text(p)
    assert ore_from_text(Q, text) == p
    assert ore_to_text(OrePoly(R)) == "0"
    assert ore_from_text(Q, "0").is_zero()


def test_ore_text_rejects_garbage():
    from dpring.fields import FieldError
    for bad in ("(1*x0)X^1 + (1*x1)X^2",  # increasing exponents
                "(1*x0)X^-1",
                "1*x0 X^1",
                "(1*x0)Y^1"):
        with pytest.raises(FieldError):
            ore_from_text(Q, bad)


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_window_property(m, floor):
    if floor > m:
        floor = m
    full = expand_power(Q, m).coeffs
    window = expand_power_window(Q, m, floor)
    assert window == {t: p for t, p in full.items() if t >= floor}


# -- the product derives each right coefficient once ---------------------------


class CountingShift(ShiftDerivation):
    """The shift derivation counting, per right coefficient it started
    from, how many derivations a product takes."""

    def __init__(self, field):
        super().__init__(field)
        self.root = {}  # id of a derivative -> (its root's id, itself)
        self.calls = Counter()

    def __call__(self, a):
        root = self.root.get(id(a), (id(a),))[0]
        out = derive(a)
        self.root[id(out)] = (root, out)
        self.calls[root] += 1
        return out


def reference_product(p: OrePoly, q: OrePoly) -> OrePoly:
    """p q with each b_j derived afresh for every a_i, as the closed form
    reads: sum over (i, j, t) of a_i C(i, t) D^t(b_j) X^(i-t+j)."""
    ring = p.ring
    reduce = ring.field.reduce
    out: dict = {}
    for i, a in p.coeffs.items():
        for j, b in q.coeffs.items():
            dtb = b
            for t in range(i + 1):
                if t:
                    dtb = derive(dtb)
                if dtb.is_zero():
                    break
                w = reduce(comb(i, t))
                if not w:
                    continue
                e = i - t + j
                s = out.get(e, ring.zero()) + a * dtb.scale(w)
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
    return OrePoly(ring, out)


FIELDS = (Q, PrimeField(2), PrimeField(3), PrimeField(2**31 - 1))


def _scalars(field):
    if field.characteristic == 0:
        return st.fractions(-4, 4, max_denominator=5).filter(bool).map(
            field.coerce)
    return st.integers(-10**12, 10**12).map(field.reduce).filter(bool)


def _free(field):
    words = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
    return st.lists(st.tuples(words, _scalars(field)), max_size=3).map(
        lambda items: FreePoly.from_terms(field, items))


def _ore_pair(field):
    ring = CountingShift(field)
    ore = st.dictionaries(st.integers(0, 4), _free(field), max_size=3).map(
        lambda coeffs: OrePoly(ring, coeffs))
    return st.tuples(ore, ore)


@given(st.sampled_from(FIELDS).flatmap(_ore_pair))
@settings(max_examples=80, deadline=None)
def test_product_derives_each_right_coefficient_once(pair):
    p, q = pair
    ring = p.ring
    ring.calls.clear()
    got = p * q
    top = max(p.coeffs, default=0)
    assert set(ring.calls) <= {id(b) for b in q.coeffs.values()}
    assert all(n <= top + 1 for n in ring.calls.values())
    want = reference_product(p, q)
    assert got == want
    # the same result, dict order included
    assert list(got.coeffs) == list(want.coeffs)
    assert [list(a.terms) for a in got.coeffs.values()] == [
        list(a.terms) for a in want.coeffs.values()]
