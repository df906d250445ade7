"""Checkpointed collision families in the free algebra, and their spans.

The family lives at levels k = 1, 2, ...: level k works with words of block
length N(k) = b^(k*k) over the alphabet x0..x_{k-1} and marks the checkpoint
positions c_0 = 0, c_{p+1} = r^p * b^((k-1)^2) (p = 0..k), c_{k+2} = N(k)
inside a word of length N(k) - 1.  The slots of level k are the 0-based word
indices c_1 - 1, ..., c_{k+1} - 1 of the inner checkpoints; `slots` is the
one place that turns checkpoint values into indices.  Collision elements are
the monomials with equal letters at two slots ("repeat") and the
two-monomial sums whose members swap a pair of distinct letters across two
slots and agree elsewhere ("swap").

Spans queried here, always inside one bi-graded component (length, degree):

  words           sum over m >= 0 of A(m*N) * derivatives of alphabet words
                  of length N(k) * (anything on the right);
  collisions      same with collision elements of level k in the middle;
  collisions_sum  union of collisions rows for levels 1..k;
  ideal_level     two-sided ideal generated by all derivatives of alphabet
                  words of length 2*N(k);
  ideal           union of ideal_level rows over every level whose block
                  fits the component length.

Every row has the form u * core * v, the core being a derivative D^l(w) of
an alphabet word w (words, ideal_level) or a collision element (collisions,
l = 0); one generator assembles them all.  Certificate indices are row
positions, so the order is fixed: level, left length, deg u, l, core letter
degree, then u, core and v, words in `words_iter` order and collision cores
in `collision_elements` order.

A level is degenerate when its checkpoints are not strictly increasing
(r^k >= b^(2k-1)).  Its checkpoints then mark no well-defined positions: two
of them coincide, or c_{k+1} >= N(k) falls outside the word.  A degenerate
level has no slots, so its collision family is empty even where some
checkpoint pairs happen to fit inside the word.  Constructors accept such
parameter sets so that the healthy levels remain usable; eager validation is
available separately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import comb

from .budgets import BudgetExceeded, Budgets, DEFAULT_BUDGETS
from .fields import RationalField
from .freealg import FreePoly, derive_iter, word_stats
from .membership import Echelon, MembershipCertificate

__all__ = [
    "ParamsError",
    "ConstructionParams",
    "words_iter",
    "count_words",
    "CollisionElement",
    "collision_test",
    "collision_elements",
    "SpanQuery",
    "SPACES",
    "span_rows",
    "SpanOracle",
    "signed_reorder_word",
    "signed_reorder",
]


class ParamsError(ValueError):
    """Invalid construction parameters or an out-of-range level."""


_DEFAULT_FIELD = RationalField()


@dataclass(frozen=True)
class ConstructionParams:
    base: int = 10
    ratio: int = 3
    k_max: int = 1
    field: object = _DEFAULT_FIELD

    def __post_init__(self):
        if not isinstance(self.base, int) or self.base < 2:
            raise ParamsError(f"base must be an integer >= 2, got {self.base!r}")
        if not isinstance(self.ratio, int) or self.ratio < 2:
            raise ParamsError(f"ratio must be an integer >= 2, got {self.ratio!r}")
        if not isinstance(self.k_max, int) or self.k_max < 1:
            raise ParamsError(f"k_max must be an integer >= 1, got {self.k_max!r}")

    def _check_level(self, k: int):
        if not 1 <= k <= self.k_max:
            raise ParamsError(f"level {k} outside 1..k_max={self.k_max}")

    def block(self, k: int) -> int:
        """Block length N(k) = base^(k*k)."""
        self._check_level(k)
        return self.base ** (k * k)

    def checkpoints(self, k: int) -> list[int]:
        """The k+3 checkpoint values c_0 .. c_{k+2}."""
        self._check_level(k)
        b, r = self.base, self.ratio
        inner = [r**p * b ** ((k - 1) ** 2) for p in range(k + 1)]
        return [0] + inner + [b ** (k * k)]

    def level_valid(self, k: int) -> bool:
        """Strict monotonicity of the checkpoints at level k."""
        c = self.checkpoints(k)
        return all(c[i] < c[i + 1] for i in range(len(c) - 1))

    def slots(self, k: int) -> tuple[int, ...]:
        """0-based indices of c_1 .. c_{k+1} in a level-k block word of length
        N(k) - 1; empty on a degenerate level."""
        if not self.level_valid(k):
            return ()
        return tuple(c - 1 for c in self.checkpoints(k)[1 : k + 2])

    def invalid_levels(self) -> list[int]:
        return [k for k in range(1, self.k_max + 1) if not self.level_valid(k)]

    def require_level(self, k: int):
        self._check_level(k)
        if not self.level_valid(k):
            c = self.checkpoints(k)
            raise ParamsError(
                f"level {k} is degenerate: checkpoints {c} are not strictly "
                f"increasing (need ratio^{k} < base^{2 * k - 1})"
            )

    def validate(self):
        """Raise unless every level up to k_max has monotone checkpoints."""
        bad = self.invalid_levels()
        if bad:
            self.require_level(bad[0])


# -- word enumeration ---------------------------------------------------------


def words_iter(length: int, degree: int, max_letter: int | None = None):
    """All words of the given length and degree in ascending lexicographic
    order, letters capped at max_letter when given."""
    if length < 0 or degree < 0:
        return
    cap = degree if max_letter is None else min(max_letter, degree)
    if degree > cap * length:
        return
    if length == 0:
        if degree == 0:
            yield ()
        return
    # smallest word: mass packed as far right as the cap allows
    w = [0] * length
    rem, pos = degree, length - 1
    while rem > 0:
        take = min(cap, rem)
        w[pos] = take
        rem -= take
        pos -= 1
    while True:
        yield tuple(w)
        # successor: bump the rightmost slot that has mass available to its
        # right, then re-pack that mass minimally
        s = w[length - 1]
        found = -1
        for i in range(length - 2, -1, -1):
            if s >= 1 and w[i] < cap:
                found = i
                break
            s += w[i]
        if found < 0:
            return
        w[found] += 1
        s -= 1
        for j in range(found + 1, length):
            w[j] = 0
        pos = length - 1
        while s > 0:
            take = min(cap, s)
            w[pos] = take
            s -= take
            pos -= 1


def count_words(length: int, degree: int) -> int:
    """Dimension of the bi-graded component: compositions of the degree into
    `length` non-negative parts."""
    if length < 0 or degree < 0:
        return 0
    if length == 0:
        return 1 if degree == 0 else 0
    return comb(degree + length - 1, length - 1)


# -- collision elements -------------------------------------------------------


@dataclass(frozen=True)
class CollisionElement:
    """A spanning element of the level-k collision family.

    kind "repeat": one word with equal letters at two of the level's slots.
    kind "swap": two words, in ascending order, that swap distinct letters
    across two slots and agree elsewhere.  A degenerate level has no slots
    and so no elements.
    """

    level: int
    kind: str
    words: tuple[tuple, ...]

    def poly(self, field) -> FreePoly:
        return FreePoly(field, {w: field.one for w in self.words})

    def component(self) -> tuple[int, int]:
        return word_stats(self.words[0])


def _repeats(word: tuple, slots: tuple[int, ...]) -> bool:
    """Whether two of the slot letters of the word are equal."""
    letters = {word[i] for i in slots}
    return len(letters) < len(slots)


def collision_test(params: ConstructionParams, k: int, candidate):
    """Test a word (repeat kind) or a pair of words (swap kind).

    Returns the witnessing CollisionElement or None.  The candidate length
    must be N(k)-1; anything else is an error, not a negative answer.
    """
    slots = params.slots(k)
    length = params.block(k) - 1
    if isinstance(candidate, tuple) and candidate and isinstance(candidate[0], tuple):
        if len(candidate) != 2:
            raise ValueError("swap candidates are pairs of words")
        s1, s2 = candidate
        if len(s1) != length or len(s2) != length:
            raise ValueError(
                f"wrong length: expected {length}, got {len(s1)} and {len(s2)}"
            )
        diff = [i for i in range(length) if s1[i] != s2[i]]
        if len(diff) != 2 or not set(diff) <= set(slots):
            return None
        i, j = diff
        if s1[i] != s2[j] or s1[j] != s2[i]:
            return None
        return CollisionElement(k, "swap", tuple(sorted((s1, s2))))
    word = candidate
    if len(word) != length:
        raise ValueError(f"wrong length: expected {length}, got {len(word)}")
    if _repeats(word, slots):
        return CollisionElement(k, "repeat", (word,))
    return None


def _component_dim(length: int, degree: int, budgets: Budgets) -> int:
    """Dimension of the component (length, degree), refused above the
    budget."""
    dim = count_words(length, degree)
    if dim > budgets.max_component_dim:
        raise BudgetExceeded(
            f"component ({length}, {degree}) has dimension {dim} (budget "
            f"{budgets.max_component_dim})",
            component_dimension=dim,
        )
    return dim


def collision_elements(params: ConstructionParams, k: int, degree: int,
                       budgets: Budgets = DEFAULT_BUDGETS):
    """All level-k collision elements of the component (N(k)-1, degree), in a
    fixed order: repeat kind in word order, then swap kind by slot pair and
    letter pair (larger, smaller)."""
    slots = params.slots(k)
    length = params.block(k) - 1
    if not slots or degree < 0:
        return
    _component_dim(length, degree, budgets)
    for w in words_iter(length, degree):
        if _repeats(w, slots):
            yield CollisionElement(k, "repeat", (w,))
    for a, b in itertools.combinations(slots, 2):
        for hi in range(1, degree + 1):
            for lo in range(0, min(hi - 1, degree - hi) + 1):
                for rest in words_iter(length - 2, degree - hi - lo):
                    # the words differ first at slot a, lo < hi: ascending
                    left, mid, right = rest[:a], rest[a : b - 1], rest[b - 1 :]
                    yield CollisionElement(k, "swap", (
                        left + (lo,) + mid + (hi,) + right,
                        left + (hi,) + mid + (lo,) + right))


# -- span queries and row enumeration ----------------------------------------

SPACES = ("words", "collisions", "collisions_sum", "ideal_level", "ideal")


@dataclass(frozen=True)
class SpanQuery:
    space: str
    length: int
    degree: int
    level: int | None = None

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"unknown span space {self.space!r} (one of {SPACES})")
        if self.length < 1 or self.degree < 0:
            raise ValueError("component needs length >= 1 and degree >= 0")
        if self.space == "ideal":
            if self.level is not None:
                raise ValueError("the truncated ideal query takes no level")
        elif self.level is None or self.level < 1:
            raise ValueError(f"space {self.space!r} needs a level >= 1")


def _alphabet_cores(params, k, n, cache, l, dw):
    """Term dicts of D^l(w) for the words w of length n and degree dw over
    x0..x_{k-1}, memoized in the oracle's shared cache."""
    key = (k, n, dw, l)
    got = cache.get(key)
    if got is None:
        got = []
        for w in words_iter(n, dw, max_letter=k - 1):
            p = derive_iter(FreePoly.monomial(params.field, w), l)
            if not p.is_zero():
                got.append(p.terms)
        cache[key] = got
    return got


def _collision_cores(params, k, budgets, cache, l, dz):
    """Term dicts of the level-k collision elements of degree dz, memoized
    in the oracle's shared cache.  Collision rows carry no derivative, so
    only l = 0 has cores."""
    if l:
        return ()
    key = ("collisions", k, dz)
    got = cache.get(key)
    if got is None:
        one = params.field.one
        got = cache[key] = [{w: one for w in z.words}
                            for z in collision_elements(params, k, dz, budgets)]
    return got


def _block_rows(L, d, core_len, lefts, cores):
    """Rows u * core * v of the component (L, d): u runs over the lengths in
    lefts, each leaving room for the core, v fills up, and cores(l, dc) lists
    the cores of derivative order l and letter degree dc; it is not asked
    when no u or no v fits.  Order: left length, deg u, l, dc, then u, core
    and v in their enumeration order."""
    for len_u in lefts:
        len_v = L - core_len - len_u
        for du in range(d + 1):
            if not count_words(len_u, du):
                continue
            for l in range(d - du + 1):
                for dc in range(d - du - l + 1):
                    dv = d - du - l - dc
                    if not count_words(len_v, dv):
                        continue
                    found = cores(l, dc)
                    if not found:
                        continue
                    for u in words_iter(len_u, du):
                        for core in found:
                            for v in words_iter(len_v, dv):
                                yield {u + cw + v: c for cw, c in core.items()}


def _dispatch_rows(params, query, budgets, cache):
    space, L, d = query.space, query.length, query.degree
    if space == "ideal":
        # every level whose block fits the length, whether or not k_max does
        levels = itertools.takewhile(lambda j: params.base ** (j * j) <= L,
                                     itertools.count(1))
    elif space == "collisions_sum":
        levels = range(1, query.level + 1)
    else:
        levels = (query.level,)
    for k in levels:
        N = params.base ** (k * k) if space == "ideal" else params.block(k)
        # cores start at multiples of N, except two-block ideal cores: anywhere
        if space in ("collisions", "collisions_sum"):
            core_len, stride = N - 1, N
            cores = partial(_collision_cores, params, k, budgets, cache)
        else:
            core_len, stride = (N, N) if space == "words" else (2 * N, 1)
            cores = partial(_alphabet_cores, params, k, core_len, cache)
        yield from _block_rows(L, d, core_len, range(0, L - core_len + 1, stride),
                               cores)


def span_rows(params: ConstructionParams, query: SpanQuery,
              budgets: Budgets = DEFAULT_BUDGETS, _cache: dict | None = None):
    """Deterministic enumeration of the spanning family of the queried space
    inside the component, as sparse word->scalar dicts."""
    dim = _component_dim(query.length, query.degree, budgets)
    cache = {} if _cache is None else _cache
    count = 0
    for row in _dispatch_rows(params, query, budgets, cache):
        count += 1
        if count > budgets.max_basis_size:
            raise BudgetExceeded(
                f"spanning family for {query} exceeds {budgets.max_basis_size} "
                f"rows (component dimension {dim})",
                component_dimension=dim,
            )
        yield row


# -- membership oracle --------------------------------------------------------


class SpanOracle:
    """Caches one echelon per span query and answers membership with
    re-verifiable certificates."""

    def __init__(self, params: ConstructionParams, budgets: Budgets = DEFAULT_BUDGETS):
        self.params = params
        self.budgets = budgets
        self._echelons: dict[SpanQuery, Echelon] = {}
        self._cores: dict = {}

    def echelon(self, query: SpanQuery) -> Echelon:
        ech = self._echelons.get(query)
        if ech is None:
            ech = Echelon(self.params.field)
            ech.extend(span_rows(self.params, query, self.budgets, self._cores))
            self._echelons[query] = ech
        return ech

    def _check_query_input(self, a: FreePoly, query: SpanQuery):
        if a.field != self.params.field:
            raise ValueError("query polynomial is over the wrong field")
        if a.is_zero():
            return True
        if a.bigrade() != (query.length, query.degree):
            raise ValueError(
                f"query polynomial is not homogeneous of component "
                f"({query.length}, {query.degree}): bigrade {a.bigrade()}"
            )
        return False

    def member(self, a: FreePoly, query: SpanQuery) -> MembershipCertificate:
        if self._check_query_input(a, query):
            return MembershipCertificate("member", combination=[])
        return self.echelon(query).certificate(a.terms)

    def normal_form(self, a: FreePoly, query: SpanQuery) -> FreePoly:
        if self._check_query_input(a, query):
            return FreePoly.zero(self.params.field)
        residue, _ = self.echelon(query).reduce(a.terms)
        return FreePoly(self.params.field, residue)

    def verify(self, a: FreePoly, query: SpanQuery,
               cert: MembershipCertificate) -> bool:
        """Re-check a certificate against the regenerated spanning family."""
        return cert.verify(self.params.field, a.terms,
                           span_rows(self.params, query, self.budgets, self._cores))

    def component_stats(self, query: SpanQuery) -> dict:
        ech = self.echelon(query)
        return {
            "component_dimension": count_words(query.length, query.degree),
            "family_size": ech.inserted,
            "rank": len(ech),
        }


# -- signed checkpoint reorder -------------------------------------------------


def _parity(seq: list[int]) -> int:
    """Inversion parity of a permutation of 0..n-1: +1 even, -1 odd."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def signed_reorder_word(params: ConstructionParams, k: int, word: tuple):
    """The signed checkpoint-reorder image of one word of length N(k)-1.

    Reads the letters at the slots (positions c_1..c_{k+1}); when they form a
    permutation of the target letters x_{c_0}..x_{c_k}, the image is the word
    with those letters rewritten in target order, signed by the permutation's
    parity; otherwise the image is zero (returns None).
    """
    params.require_level(k)
    length = params.block(k) - 1
    if len(word) != length:
        raise ValueError(f"wrong length: expected {length}, got {len(word)}")
    slots = params.slots(k)
    targets = params.checkpoints(k)[: k + 1]
    letters = [word[i] for i in slots]
    if sorted(letters) != targets:
        return None
    where = {t: i for i, t in enumerate(targets)}
    sign = _parity([where[l] for l in letters])
    out = list(word)
    for i, t in zip(slots, targets):
        out[i] = t
    return sign, tuple(out)


def signed_reorder(params: ConstructionParams, k: int, a: FreePoly) -> FreePoly:
    """Linear extension of signed_reorder_word."""
    field = a.field
    items = []
    for w, c in a.terms.items():
        img = signed_reorder_word(params, k, w)
        if img is None:
            continue
        sign, w2 = img
        items.append((w2, c if sign > 0 else field.neg(c)))
    return FreePoly.from_terms(field, items)
