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

  words        sum over m >= 0 of A(m*N) * derivatives of alphabet words of
               length N(k) * (anything on the right);
  collisions   same with collision elements of level k in the middle;
  ideal_level  two-sided ideal generated by all derivatives of alphabet
               words of length 2*N(k);
  ideal        union of ideal_level rows over every level whose block fits
               the component length.

Every row has the form u * core * v, the core being a derivative D^l(w) of
an alphabet word w (words, ideal_level) or a collision element (collisions,
l = 0); one generator assembles them all.  Certificate indices are row
positions, so the order is fixed: level, left length, deg u, l, core letter
degree, then u, core and v, words in `words_iter` order and collision cores
in `collision_elements` order.

`_blocks` alone places a level's cores (core length and starts, from
`block`, `base` and `slots`) and `_cores` alone builds them, memoized in the
shared cache.  One layout (`_layout`) walks the row blocks of every space
over those starts and counts them without building a core: a block holds
(words u) * (cores) * (words v) rows, cores counted by `_collision_count` or
`_alphabet_count`.  So it knows the family size and each block's first row
index before a row exists.  A family over `Budgets.max_basis_size` is
refused there, before enumeration, whichever engine answers the query;
`words` member certificates take their row indices from the same blocks.

`words` and `collisions` membership need no echelon of the family.  Their
rows put the core on one block-aligned window and change no letter outside
it: the whole block [mN, mN + N) for `words`, the slot stretch
[mN + s_0, mN + s_k] for `collisions`.  So each quotient is a tensor product
of one B/S per window, B the words on the window's letters and S the span
the window cores cut out there, with the letters around the windows left
free.  One walker (`_Windows`) reduces a query one pass per window,
replacing each segment that is a pivot of S by its residue, and builds a
non-member functional e_z o P / r[z] as the product of one functional per
window with z's other letters kept.  Each space supplies the residues and
functionals of its segments: for `words` an echelon of the one-block family
per degree, whose replacements also index a member's rows through the
layout's blocks; for `collisions` the closed form, a segment that repeats a
slot letter being zero and any other its slot letters sorted descending
times the sign of the sort, with the signed class indicator as functional.
`SpanOracle.verify` checks a `collisions` functional by the swap rule,
from the slots alone.  A `collisions` member's
combination, whose row indices the reports pin, comes from the echelon of
the whole family (`SpanOracle.echelon`) or from one of only the classes its
words belong to, ranked back to family indices in closed form
(`_collision_rank`, `_row_index`); `SpanOracle.member` picks the route.

A coefficient of (x0 X)^m too large to write out is answered in
`collisions` lazily (`ore.PowerCoefficient`), through its classes.  A class
is fixed by the descending slot letters of each window, the other letters of
the windows and the letters outside them; the quotient sends a member of a
repeat-free class to its descending representative times the sign of the
sort, and a word repeating a slot letter to zero.  So the normal form is the
sum over the repeat-free classes of (signed sum of the coefficient's weights
over the class's placements) * representative.  The classes are counted in
closed form first (`_class_count`, zero below degree h k(k+1)/2 with h
windows) and capped by `Budgets.max_component_dim`, then walked
(`_CollisionWindows.class_sums`), the window offsets taken from `slots` and
`block` alone.  A member gets a "classes" certificate listing every class;
a non-member gets the windowed functional of the smallest word of the
normal form, built by the same `non_member` as any other.
`SpanOracle.verify` recounts a "classes" certificate, recomputes each sum
by its own walk, reading each placement by its nonzero letters, and checks
a functional against a lazy coefficient on the functional's own support.

A level is degenerate when its checkpoints are not strictly increasing
(r^k >= b^(2k-1)).  Its checkpoints then mark no well-defined positions: two
of them coincide, or c_{k+1} >= N(k) falls outside the word.  So it has no
slots and no collision family: `slots` refuses it with ParamsError, even
where some checkpoint pairs happen to fit inside the word, and with it every
collisions computation, all of which read the slots first.  The `words`,
`ideal_level` and `ideal` spans read no slots and are answered at every
level.  Constructors accept such parameter sets so that the healthy levels
remain usable; eager validation is available separately.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import partial
from math import comb, factorial
from operator import itemgetter

from .budgets import BudgetExceeded, Budgets, DEFAULT_BUDGETS
from .fields import RationalField
from .freealg import FreePoly, derive_iter, word_key, word_stats
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
    "span_blocks",
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

    @functools.cache
    def slots(self, k: int) -> tuple[int, ...]:
        """0-based indices of c_1 .. c_{k+1} in a level-k block word of length
        N(k) - 1.  A degenerate level has none and raises ParamsError.
        Memoized: `_collision_rank` reads it once per row it ranks."""
        self.require_level(k)
        return tuple(c - 1 for c in self.checkpoints(k)[1 : k + 2])

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
        for k in range(1, self.k_max + 1):
            self.require_level(k)


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


def _word_rank(word: tuple) -> int:
    """Position of the word in `words_iter(len(word), sum(word))`: the words
    before it share a prefix with it and then carry a smaller letter, so
    only its nonzero letters count."""
    rank, rem, n = 0, sum(word), len(word)
    for i in itertools.compress(range(n), word):
        x = word[i]
        for t in range(x):
            rank += count_words(n - i - 1, rem - t)
        rem -= x
    return rank


# -- collision elements -------------------------------------------------------


@dataclass(frozen=True)
class CollisionElement:
    """A spanning element of the level-k collision family.

    kind "repeat": one word with equal letters at two of the level's slots.
    kind "swap": two words, in ascending order, that swap distinct letters
    across two slots and agree elsewhere.  Only a level with slots, one that
    is not degenerate, has elements.
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
    must be N(k)-1 and the level must not be degenerate; anything else is an
    error (ParamsError for the level), not a negative answer.
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

SPACES = ("words", "collisions", "ideal_level", "ideal")


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


def _blocks(params, space, k, L):
    """(core length, core starts) of the level-k rows of a space at length
    L, from `block`, `base` and `slots` alone: a core starts at a multiple
    of N, except a two-block ideal core, anywhere.  `ideal` reads levels past
    k_max; `collisions` is refused on a degenerate level, even with no start.
    """
    N = params.base ** (k * k) if space == "ideal" else params.block(k)
    if space == "collisions":
        params.slots(k)
        core_len, stride = N - 1, N
    else:
        core_len, stride = (N, N) if space == "words" else (2 * N, 1)
    return core_len, range(0, L - core_len + 1, stride)


def _cores(params, space, k, budgets, cache, l, dc):
    """Term dicts of the level-k cores of a space of derivative order l and
    letter degree dc, memoized in the shared cache: collision elements in
    `collisions`, whose rows carry no derivative, else D^l(w) for the words
    w over x0..x_{k-1} of the core length in `words_iter` order, none zero:
    l derivations on one letter give coefficient 1."""
    core_len, _ = _blocks(params, space, k, 0)
    key = (k, core_len, dc, l)
    got = cache.get(key)
    if got is None:
        if space == "collisions":
            got = [dict.fromkeys(z.words, params.field.one)
                   for z in collision_elements(params, k, dc, budgets)]
        else:
            got = [derive_iter(FreePoly.monomial(params.field, w), l).terms
                   for w in words_iter(core_len, dc, max_letter=k - 1)]
        cache[key] = got
    return got


def _layout(params, query: SpanQuery, budgets: Budgets, cache: dict):
    """The row blocks of every level of the query's family, counted in
    closed form and refused over `max_basis_size` before a core is built.

    Returns (k, starts, blocks) per level: the starts of `_blocks` and a dict
    from (len_u, du, l, dc), in row order, to (start, n_cores, n_v, len_v,
    dv).  The block's rows u * core * v nest u, core, v, so the one with the
    i-th core has index start + (rank u * n_cores + i) * n_v + rank v
    (`_row_index`).
    Memoized in the shared cache; the budgets are checked on every call.
    """
    space, L, d = query.space, query.length, query.degree
    dim = _component_dim(L, d, budgets)
    key = ("layout", query)
    got = cache.get(key)
    if got is None:
        if space == "ideal":
            # every level whose block fits the length, whether or not k_max
            # does
            ks = itertools.takewhile(lambda j: params.base ** (j * j) <= L,
                                     itertools.count(1))
        else:
            ks = (query.level,)
        levels, total = [], 0
        for k in ks:
            core_len, starts = _blocks(params, space, k, L)
            blocks = {}
            for len_u in starts:
                len_v = L - core_len - len_u
                for du in range(d + 1):
                    n_u = count_words(len_u, du)
                    if not n_u:
                        continue
                    # collision rows carry no derivative
                    for l in range(1 if space == "collisions" else d - du + 1):
                        for dc in range(d - du - l + 1):
                            dv = d - du - l - dc
                            n_v = count_words(len_v, dv)
                            if not n_v:
                                continue
                            n_cores = (_collision_count(params, k, dc)
                                       if space == "collisions" else
                                       _alphabet_count(core_len, dc, k))
                            if n_cores:
                                blocks[len_u, du, l, dc] = (total, n_cores, n_v,
                                                            len_v, dv)
                                total += n_u * n_cores * n_v
            levels.append((k, starts, blocks))
        got = cache[key] = (levels, total)
    levels, total = got
    if total > budgets.max_basis_size:
        raise BudgetExceeded(
            f"spanning family for {query} has {total} rows, over the budget "
            f"{budgets.max_basis_size} (component dimension {dim})",
            component_dimension=dim, family_size=total)
    return levels


def _row_index(blocks, u: tuple, l: int, dc: int, i: int, v: tuple) -> int:
    """Index of the row u * (the i-th core of order l and degree dc) * v in
    its family, from the row blocks of `_layout`."""
    start, n_cores, n_v, _, _ = blocks[len(u), sum(u), l, dc]
    return start + (_word_rank(u) * n_cores + i) * n_v + _word_rank(v)


def _block_rows(cores, blocks):
    """The rows of one level's blocks, each block's u, core and v in their
    enumeration order."""
    for (len_u, du, l, dc), (_, _, _, len_v, dv) in blocks.items():
        found = cores(l, dc)
        for u in words_iter(len_u, du):
            for core in found:
                for v in words_iter(len_v, dv):
                    yield {u + cw + v: c for cw, c in core.items()}


def span_rows(params: ConstructionParams, query: SpanQuery,
              budgets: Budgets = DEFAULT_BUDGETS, _cache: dict | None = None):
    """Deterministic enumeration of the spanning family of the queried space
    inside the component, as sparse word->scalar dicts."""
    cache = {} if _cache is None else _cache
    for k, _, blocks in _layout(params, query, budgets, cache):
        # the memoized layout keeps no core function, so no reference to the
        # cache that holds it
        yield from _block_rows(
            partial(_cores, params, query.space, k, budgets, cache), blocks)


def span_blocks(params: ConstructionParams, query: SpanQuery,
                budgets: Budgets = DEFAULT_BUDGETS, _cache: dict | None = None):
    """The row blocks of a `words` or `ideal_level` family in row order,
    laid out and refused over max_basis_size as by `span_rows`, though no
    row is built: (key, cores, rows, count) per block, key (len u, deg u, l,
    deg w), cores the (w, D^l(w)) of its cores, rows() its rows in row order
    and count their number."""
    if query.space not in ("words", "ideal_level"):
        raise ValueError(f"no alphabet cores in {query.space!r}")
    cache = {} if _cache is None else _cache
    [(k, _, blocks)] = _layout(params, query, budgets, cache)
    core_len, _ = _blocks(params, query.space, k, query.length)
    cores = partial(_cores, params, query.space, k, budgets, cache)
    for key, (_, n_cores, n_v, _, _) in blocks.items():
        words = words_iter(core_len, key[3], max_letter=k - 1)
        yield (key, list(zip(words, cores(*key[2:]))),
               partial(_block_rows, cores, {key: blocks[key]}),
               count_words(*key[:2]) * n_cores * n_v)


# -- the block-aligned spans, window by window --------------------------------


_UNSEEN = object()  # a segment missing from the memo


class _Windows:
    """The quotient by a block-aligned span, one window at a time.

    A `words` or `collisions` row u * core * v puts its core on the window
    [m + a, m + b) of the block that starts at m = len u, and changes no
    letter outside it.  With B the words on the window's letters and S the
    span the window cores cut out there, the quotient is the tensor product
    of one B/S per window with the letters around the windows left free.  A
    space supplies its window (a, b), the residue of a segment modulo S and
    the functional of a segment that is no pivot.  The residues act on
    different tensor factors, so one pass per window, replacing every pivot
    segment by its residue, gives the exact normal form, the generic
    echelon's too: both project onto the words with no pivot segment.
    """

    def __init__(self, params: ConstructionParams, budgets: Budgets,
                 cache: dict, window: tuple[int, int]):
        self.params = params
        self.budgets = budgets
        self.cache = cache
        self.window = window
        # window segment -> None when it is no pivot, else its residue items
        self._segments: dict[tuple, tuple | None] = {}

    def reduce(self, vec: dict, query: SpanQuery) -> tuple[dict, list]:
        """Normal form of vec, and the words whose window segment was
        replaced, as (block start, word, coefficient) in order.  The blocks
        come from the layout, which refuses the family like `span_rows`."""
        [(_, starts, _)] = _layout(self.params, query, self.budgets, self.cache)
        if not starts:
            return dict(vec), []
        fadd, fmul = self.params.field.add, self.params.field.mul
        memo = self._segments.get
        a, b = self.window
        replaced = []
        for m in starts:
            lo, hi = m + a, m + b
            out: dict = {}
            hits = []
            for x, c in vec.items():
                seg = x[lo:hi]
                found = memo(seg, _UNSEEN)
                if found is _UNSEEN:
                    found = self._segment(seg)
                if found is None:
                    out[x] = c
                    continue
                replaced.append((m, x, c))
                if found:  # a zero residue drops the word at once
                    hits.append((x, c, found))
            for x, c, residue in hits:
                u, v = x[:lo], x[hi:]
                for t, r in residue:
                    w = u + t + v
                    cw = fmul(c, r)
                    cur = out.get(w)
                    if cur is None:
                        out[w] = cw
                    else:
                        nv = fadd(cur, cw)
                        if nv:
                            out[w] = nv
                        else:
                            del out[w]
            vec = out
        return vec, replaced

    def non_member(self, residue: dict, query: SpanQuery) -> MembershipCertificate:
        """e_z o P / r[z], z the smallest word of the residue r and P the
        projection: the product over the windows of the functional of z's
        segment there, z's other letters kept.  The blocks come from the
        geometry alone, with no budget on the component: a residue summed
        by classes may come from one far too large to lay out."""
        field = self.params.field
        fmul = field.mul
        z = min(residue, key=word_key)
        functional = {z: field.inv(residue[z])}
        _, starts = _blocks(self.params, query.space, query.level,
                            query.length)
        a, b = self.window
        for m in starts:
            lo, hi = m + a, m + b
            phi = self._functional(z[lo:hi])
            functional = {w[:lo] + s + w[hi:]: fmul(c, f)
                          for w, c in functional.items() for s, f in phi.items()}
        return MembershipCertificate("non_member", functional=functional)


class _WordWindows(_Windows):
    """The level-k `words` span: the window is the whole block [m, m + N),
    and S_d is the `words` family of one block at degree d, spanned by the
    cores D^l(w) with l + deg w = d.  A tiny echelon of S_d per degree gives
    each segment's residue and functional, and a member's certificate lists
    the rows u * core * v its replacements subtracted."""

    def __init__(self, params: ConstructionParams, k: int, budgets: Budgets,
                 cache: dict):
        super().__init__(params, budgets, cache, (0, params.block(k)))
        self.k = k
        self._window_echelons: dict[int, tuple[Echelon, list]] = {}
        # pivot segment -> ((l, core index), coefficient) of the cores
        # making up the segment minus its residue
        self._combinations: dict[tuple, list] = {}

    def _echelon(self, d: int) -> tuple[Echelon, list]:
        """Echelon of S_d, the `words` family of one block, and the (l, core
        index) each of its rows came from."""
        got = self._window_echelons.get(d)
        if got is None:
            query = SpanQuery("words", self.window[1], d, level=self.k)
            [(_, _, blocks)] = _layout(self.params, query, self.budgets,
                                       self.cache)
            # one block start and no letter around the core: a block per l
            origin = [(l, i) for (_, _, l, _), (_, n_cores, _, _, _)
                      in blocks.items() for i in range(n_cores)]
            ech = Echelon(self.params.field)
            ech.extend(span_rows(self.params, query, self.budgets, self.cache))
            got = self._window_echelons[d] = (ech, origin)
        return got

    def _segment(self, seg: tuple):
        ech, origin = self._echelon(sum(seg))
        found = None
        if seg in ech.rows:
            field = self.params.field
            residue, _ = ech.reduce({seg: field.one})
            core_part = {w: field.neg(c) for w, c in residue.items()}
            core_part[seg] = field.one
            self._combinations[seg] = [
                (origin[j], c)
                for j, c in ech.certificate(core_part).combination]
            found = tuple(residue.items())
        self._segments[seg] = found
        return found

    def _functional(self, seg: tuple) -> dict:
        ech, _ = self._echelon(sum(seg))
        return ech.certificate({seg: self.params.field.one}).functional

    def member(self, vec: dict, replaced: list,
               query: SpanQuery) -> MembershipCertificate:
        """The rows u * core * v the replacements of `reduce` subtracted from
        the member vec, indexed through the row blocks of `_layout`."""
        [(_, _, blocks)] = _layout(self.params, query, self.budgets, self.cache)
        field, N = self.params.field, self.window[1]
        fadd, fmul = field.add, field.mul
        combo: dict[int, object] = {}
        for m, x, c in replaced:
            u, seg, v = x[:m], x[m:m + N], x[m + N:]
            dseg = sum(seg)
            for (l, i), a in self._combinations[seg]:
                idx = _row_index(blocks, u, l, dseg - l, i, v)
                cur = combo.get(idx)
                cv = fmul(c, a)
                combo[idx] = cv if cur is None else fadd(cur, cv)
        return MembershipCertificate(
            "member", combination=sorted((i, c) for i, c in combo.items() if c))


# -- the collisions span in closed form ---------------------------------------


def _sort_sign(letters) -> int:
    """Sign of the permutation that sorts distinct letters into ascending
    order: +1 for an even number of inversions, -1 for an odd one."""
    inv = 0
    for i in range(len(letters)):
        for j in range(i + 1, len(letters)):
            if letters[i] > letters[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _partitions(n: int, parts: int) -> int:
    """Partitions of n into at most `parts` parts (parts of size at most
    `parts`, by conjugation)."""
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for part in range(1, parts + 1):
        for s in range(part, n + 1):
            ways[s] += ways[s - part]
    return ways[n]


def _window_slots(params: ConstructionParams, k: int, L: int) -> list[tuple]:
    """The word indices of the slots of each level-k window of a word of
    length L, one tuple per block, from `slots` and `block` alone."""
    slots = params.slots(k)
    _, starts = _blocks(params, "collisions", k, L)
    return [tuple(m + s for s in slots) for m in starts]


def _class_count(params: ConstructionParams, k: int, L: int, d: int) -> int:
    """Repeat-free classes of the `collisions` component (L, d), counted in
    closed form: each window holds a set of k + 1 distinct slot letters,
    which less 0..k is a partition into at most k + 1 parts, and the other
    letters are free.  Zero below degree h k(k+1)/2, h the number of
    windows: there every word repeats a slot letter somewhere."""
    windows = _window_slots(params, k, L)
    n = k + 1
    sets = [_partitions(t - n * (n - 1) // 2, n) for t in range(d + 1)]
    ways = [1] + [0] * d  # choices of one set per window, by their total
    for _ in windows:
        ways = [sum(ways[t - s] * sets[s] for s in range(t + 1))
                for t in range(d + 1)]
    return sum(ways[t] * count_words(L - n * len(windows), d - t)
               for t in range(d + 1))


@functools.cache
def _collision_split(params: ConstructionParams, k: int, degree: int):
    """The loops of `collision_elements(params, k, degree)`, counted without
    enumerating an element: the number of repeats, the words minus the
    repeat-free ones, each class filling the slots n! ways, and {(hi, lo):
    swaps of one slot pair with those letters}, in element order; every
    slot pair has the same swaps.  Memoized, so the dict is shared and only
    read: it holds counts, never rows or cores."""
    length = params.block(k) - 1
    distinct = factorial(k + 1) * _class_count(params, k, length, degree)
    return count_words(length, degree) - distinct, {
        (hi, lo): count_words(length - 2, degree - hi - lo)
        for hi in range(1, degree + 1)
        for lo in range(min(hi - 1, degree - hi) + 1)}


def _collision_count(params: ConstructionParams, k: int, degree: int) -> int:
    """len(list(collision_elements(params, k, degree))), in closed form."""
    repeats, swaps = _collision_split(params, k, degree)
    return repeats + comb(k + 1, 2) * sum(swaps.values())


def _alphabet_count(n: int, d: int, k: int) -> int:
    """Words of length n and degree d over x0..x_{k-1}, by inclusion and
    exclusion over j letters forced above k - 1: the number of `_cores` of
    that length and degree, none of them zero."""
    return sum((-1) ** j * comb(n, j) * count_words(n, d - j * k)
               for j in range(min(n, d // k) + 1))


def _distinct_fills(taken: set, j: int, free: int, e: int) -> int:
    """Words of letter total e on j slots and `free` other places whose slot
    letters are distinct and none of them in `taken`."""
    return factorial(j) * sum(
        count_words(free, e - sum(s)) for s in itertools.combinations(
            [t for t in range(e + 1) if t not in taken], j))


def _collision_rank(params: ConstructionParams, k: int, key: tuple) -> int:
    """Position of a level-k collision element in `collision_elements`
    order, in closed form, from its key: (0, word) for a repeat, (1, slot
    pair index, hi, lo, rest) for a swap.  The repeats come first, in word
    order: the words before the word less the repeat-free ones, counted
    prefix by prefix on its nonzero letters and its slots.  The swaps follow
    by slot pair, letter pair and rest."""
    n = params.block(k) - 1
    if key[0]:
        _, pair, hi, lo, rest = key
        repeats, swaps = _collision_split(params, k, hi + lo + sum(rest))
        before = itertools.takewhile(lambda hl: hl != (hi, lo), swaps)
        return (repeats + pair * sum(swaps.values())
                + sum(map(swaps.get, before)) + _word_rank(rest))
    word = key[1]
    slots = params.slots(k)
    rem, left, taken, distinct = sum(word), len(slots), set(), 0
    for i in sorted(set(itertools.compress(range(n), word)).union(slots)):
        x, slot = word[i], i in slots
        left -= slot  # the slots after i
        for t in range(x):
            if not (slot and t in taken):
                distinct += _distinct_fills(taken | {t} if slot else taken,
                                            left, n - i - 1 - left, rem - t)
        rem -= x
        if slot:
            if x in taken:  # every later word of this prefix repeats
                break
            taken.add(x)
    return _word_rank(word) - distinct


def _sprinkle(places: list, e: int, start: int = 0):
    """Every way to write letters of total e on places[start:], as the
    (place, letter) pairs of the nonzero ones in ascending place."""
    if not e:
        yield ()
        return
    for i in range(start, len(places)):
        for x in range(1, e + 1):
            for more in _sprinkle(places, e - x, i + 1):
                yield ((places[i], x),) + more


def _dense(length: int, letters) -> tuple:
    """The word of the given length with the given nonzero letters."""
    w = [0] * length
    for p, x in letters:
        w[p] = x
    return tuple(w)


def _dense_order(letters) -> tuple:
    """Key ordering words of one length, given by their nonzero letters, as
    `word_key` orders them written out: the first difference is a nonzero
    letter placed earlier (the larger word) or a smaller letter."""
    return tuple((-p, x) for p, x in letters)


def _placings(letters: tuple) -> list[tuple[tuple, int]]:
    """Each order of a window's distinct slot letters with the sign that
    sorts it descending, the sign of its `collisions` residue."""
    return [(p, _sort_sign(p[::-1])) for p in itertools.permutations(letters)]


class _CollisionWindows(_Windows):
    """The level-k `collisions` span in closed form.

    Every row repeats a slot letter, or swaps two distinct ones, so its
    window is the slot stretch [m + s_0, m + s_k].  A segment repeating a
    slot letter is zero, and any other is its representative with the slot
    letters sorted descending times the sign of the sort: the largest word
    of its class under `word_key`, the one that is no pivot of the generic
    echelon.  The functional of a sorted segment is the signed indicator of
    its class.  `slots` refuses a degenerate level, which has no window.

    Every row also lies inside one class, the words reachable by permuting
    the slot letters within each window, so the generic echelon is
    block-diagonal by class.  A member's combination comes from an echelon
    of only the rows inside its words' classes, one per query, each call's
    new classes filled in through `Echelon.extend`.
    """

    def __init__(self, params: ConstructionParams, k: int, budgets: Budgets,
                 cache: dict):
        slots = params.slots(k)
        super().__init__(params, budgets, cache, (slots[0], slots[-1] + 1))
        self.k = k
        self.slots = tuple(s - slots[0] for s in slots)
        # query -> (echelon of the rows of the classes held, each row's sort
        # key by echelon index, the words of those classes)
        self._class_echelons: dict[SpanQuery, tuple[Echelon, list, set]] = {}
        # a window has k + 1 >= 2 slots, so the getter returns a tuple
        self.letters = itemgetter(*self.slots)
        one = params.field.one
        self.signs = {1: one, -1: params.field.neg(one)}

    def _place(self, seg: tuple, letters) -> tuple:
        """The segment with its slot letters replaced."""
        w = list(seg)
        for p, t in zip(self.slots, letters):
            w[p] = t
        return tuple(w)

    def _segment(self, seg: tuple):
        letters = self.letters(seg)
        found = ()
        if len(set(letters)) == len(letters):
            new = tuple(sorted(letters, reverse=True))
            # reversed, the descending sort is an ascending one
            found = None if new == letters else (
                (self._place(seg, new), self.signs[_sort_sign(letters[::-1])]),)
        self._segments[seg] = found
        return found

    def _functional(self, seg: tuple) -> dict:
        return {self._place(seg, p): self.signs[sign]
                for p, sign in _placings(self.letters(seg))}

    def _class_rows(self, x: tuple, windows: list, blocks: dict, held: set):
        """(key, row) of every family row inside the class of x, its words
        added to held: for each word y of the class and each window, the
        repeat row {y} when y repeats a slot letter there, and a swap row
        {y, y'} for each slot pair where y carries the smaller letter, y'
        exchanging the two.  The key, (block start, u, core key, v), the core
        key (0, core) for a repeat and (1, slot pair index, hi, lo, rest)
        for a swap, sorts rows in index order: `words_iter` ranks the words
        of one length and degree lexicographically."""
        one, size = self.params.field.one, self.params.block(self.k) - 1
        pairs = list(enumerate(itertools.combinations(range(len(self.slots)),
                                                      2)))
        held.add(x)
        todo = [x]
        while todo:
            y = todo.pop()
            for m, places in windows:
                u, core, v = y[:m], y[m:m + size], y[m + size:]
                start = blocks[m, sum(u), 0, sum(core)][0]
                letters = [y[p] for p in places]
                if len(set(letters)) < len(letters):
                    yield (start, u, (0, core), v), {y: one}
                for pair, (i, j) in pairs:
                    lo, hi = letters[i], letters[j]
                    if lo == hi:
                        continue
                    z = list(y)
                    z[places[i]], z[places[j]] = hi, lo
                    z = tuple(z)
                    if z not in held:
                        held.add(z)
                        todo.append(z)
                    if lo < hi:
                        a, b = places[i] - m, places[j] - m
                        rest = core[:a] + core[a + 1:b] + core[b + 1:]
                        yield (start, u, (1, pair, hi, lo, rest), v), {y: one,
                                                                      z: one}

    def member(self, vec: dict, replaced: list,
               query: SpanQuery) -> MembershipCertificate:
        """The combination the generic echelon gives the member vec, with the
        same row indices.  `Echelon.extend` adds the rows of each class of
        vec's words the query's echelon does not hold yet, in key order,
        which is family order, numbered locally in `keys` order; rows of
        other classes never meet these, so the elimination is the family's
        restricted to the classes.  Only the rows the combination names are
        ranked, through `_collision_rank` and `_row_index`."""
        [(_, starts, blocks)] = _layout(self.params, query, self.budgets,
                                        self.cache)
        got = self._class_echelons.get(query)
        if got is None:
            got = self._class_echelons[query] = (
                Echelon(self.params.field), [], set())
        ech, keys, held = got
        windows = list(zip(starts, _window_slots(self.params, self.k,
                                                 query.length)))
        new = []
        for x in vec:
            if x not in held:
                new += self._class_rows(x, windows, blocks, held)
        new.sort(key=itemgetter(0))
        keys += [key for key, _ in new]
        ech.extend(row for _, row in new)
        combination = []
        for i, c in ech.certificate(vec).combination:
            _, u, core, v = keys[i]
            rank = _collision_rank(self.params, self.k, core)
            combination.append((_row_index(
                blocks, u, 0, query.degree - sum(u) - sum(v), rank, v), c))
        return MembershipCertificate("member", combination=sorted(combination))

    def class_sums(self, query: SpanQuery, a) -> dict:
        """The normal form of a lazy coefficient a (`ore.PowerCoefficient`)
        by its repeat-free classes, with no word of a enumerated.

        A class is fixed by the descending slot letters of each window, the
        other letters of the windows and the letters outside them.  It is
        named by its representative, the member with every window
        descending, given by its nonzero letters in ascending place; its sum
        is the signed sum of a.weigh over its placements, the sign that of
        the sorts.  The normal form is the sum of class sum * representative
        over the returned {class: sum}.  Refused before the walk when the
        component has more classes than max_component_dim, and empty without
        a walk when the count is 0.
        """
        L, d = query.length, query.degree
        count = _class_count(self.params, query.level, L, d)
        if count > self.budgets.max_component_dim:
            raise BudgetExceeded(
                f"component ({L}, {d}) has {count} repeat-free classes "
                f"(budget {self.budgets.max_component_dim})", classes=count)
        if not count:
            return {}
        field = self.params.field
        fadd, fsub = field.add, field.sub
        windows = _window_slots(self.params, query.level, L)
        taken = {p for places in windows for p in places}
        free = [p for p in range(L) if p not in taken]
        n = len(self.slots)
        sets = [[c[::-1] for c in itertools.combinations(range(t + 1), n)
                 if sum(c) == t] for t in range(d + 1)]

        def spread(h: int, budget: int):
            """(one descending slot set for each of h windows, the degree
            left over)"""
            if not h:
                yield (), budget
                return
            for t in range(budget + 1):
                for s in sets[t]:
                    for more, left in spread(h - 1, budget - t):
                        yield (s,) + more, left

        out = {}
        for chosen, left in spread(len(windows), d):
            orders = [_placings(s) for s in chosen]
            for outside in _sprinkle(free, left):
                total, rep = field.zero, None
                for placing in itertools.product(*orders):
                    sign, letters = 1, list(outside)
                    for places, (perm, sg) in zip(windows, placing):
                        sign *= sg
                        letters += [(p, x) for p, x in zip(places, perm) if x]
                    letters.sort()
                    if rep is None:  # the first order descends
                        rep = tuple(letters)
                    c = a.weigh(letters)
                    total = fadd(total, c) if sign > 0 else fsub(total, c)
                out[rep] = total
        return out


_WINDOWED = {"words": _WordWindows, "collisions": _CollisionWindows}


def _swap_rule(params: ConstructionParams, query: SpanQuery,
               functional: dict) -> bool:
    """Whether the functional vanishes on every row of the `collisions`
    family of the query, from the slots alone: each word of the component
    with a nonzero value repeats no slot letter within a window, and
    exchanging two slot letters of one window negates its value.  A row
    meeting no such word is zero there."""
    L, d, neg = query.length, query.degree, params.field.neg
    windows = _window_slots(params, query.level, L)
    get = functional.get
    for s, c in functional.items():
        if not c or len(s) != L or sum(s) != d:
            continue
        minus = neg(c)
        for places in windows:
            for i, j in itertools.combinations(places, 2):
                t = list(s)
                t[i], t[j] = s[j], s[i]
                if s[i] == s[j] or get(tuple(t)) != minus:
                    return False
    return True


def _classes_vanish(params: ConstructionParams, query: SpanQuery, weigh,
                    classes: list) -> bool:
    """Check a "classes" certificate from the slots alone: the listed
    classes are distinct repeat-free classes of the `collisions` component,
    as many as `_class_count` counts, so every one of them, and the signed
    sum of weigh (a word read by its nonzero letters) over each one's
    placements is zero."""
    L, d = query.length, query.degree
    if len(set(classes)) != len(classes) or len(classes) != _class_count(
            params, query.level, L, d):
        return False
    windows = _window_slots(params, query.level, L)
    field = params.field
    for rep in classes:
        w = dict(rep)  # place -> letter; a slot may come to hold a zero
        if (tuple(sorted(w.items())) != rep or sum(w.values()) != d
                or not all(0 <= p < L and x > 0 for p, x in rep)):
            return False
        chosen = [tuple(w.get(p, 0) for p in places) for places in windows]
        if any(list(s) != sorted(set(s), reverse=True) for s in chosen):
            return False  # a repeat, or not the descending representative
        total = field.zero
        for placing in itertools.product(*map(_placings, chosen)):
            sign = 1
            for places, (perm, sg) in zip(windows, placing):
                sign *= sg
                w.update(zip(places, perm))
            c = weigh(tuple(sorted((p, x) for p, x in w.items() if x)))
            if c:
                total = field.add(total, c) if sign > 0 else field.sub(total, c)
        if total:
            return False
    return True


# -- membership oracle --------------------------------------------------------


class SpanOracle:
    """Answers membership with re-verifiable certificates: `words` and
    `collisions` queries by the windowed quotient, a `collisions` member's
    combination by the route `member` picks, and every other space by one
    cached echelon of the family per query.  A lazy coefficient of (x0 X)^m
    is answered in `collisions` by its repeat-free classes
    (`class_member`)."""

    def __init__(self, params: ConstructionParams, budgets: Budgets = DEFAULT_BUDGETS):
        self.params = params
        self.budgets = budgets
        self._echelons: dict[SpanQuery, Echelon] = {}
        self._cache: dict = {}  # layouts and cores, filled by `_cores`
        self._engines: dict[tuple[str, int], _Windows] = {}

    def _engine(self, query: SpanQuery) -> _Windows:
        key = (query.space, query.level)
        got = self._engines.get(key)
        if got is None:
            got = self._engines[key] = _WINDOWED[query.space](
                self.params, query.level, self.budgets, self._cache)
        return got

    def echelon(self, query: SpanQuery) -> Echelon:
        """The generic echelon of the query's family.  `words` queries and
        `collisions` non-members and normal forms are answered without it;
        `member` picks it for some `collisions` members."""
        ech = self._echelons.get(query)
        if ech is None:
            ech = Echelon(self.params.field)
            ech.extend(span_rows(self.params, query, self.budgets, self._cache))
            self._echelons[query] = ech
        return ech

    def _check_query_input(self, a, query: SpanQuery) -> bool:
        """Refuse a query, a FreePoly or a lazy coefficient, over another
        field or off the query's component; True when a is zero."""
        if a.field != self.params.field:
            raise ValueError("query is over the wrong field")
        L, d = query.length, query.degree
        if isinstance(a, FreePoly):
            if a.is_zero():
                return True
            off = any(len(w) != L or sum(w) != d for w in a.terms)
        else:
            off = a.bigrade() != (L, d)
        if off:
            raise ValueError(f"query of bigrade {a.bigrade()} is not "
                             f"homogeneous of component ({L}, {d})")
        return False

    def member(self, a: FreePoly, query: SpanQuery) -> MembershipCertificate:
        """A "member" or "non_member" certificate, never "classes", which
        has no functional: `perfbench/spans.py` counts cert.functional for
        every kind but "member".

        This is the one place that picks a `collisions` member's route.  The
        family echelon answers when it is held or when the query holds at
        least half the words of its component, the echelon of the query's
        classes otherwise.  The generic echelon is block-diagonal by class,
        so both give the same combination.  A query meets about its share of
        the family's rows, and at full coverage the class route (walking the
        classes, sorting their rows, ranking the named ones) costs about
        twice the family echelon."""
        if self._check_query_input(a, query):
            return MembershipCertificate("member", combination=[])
        if query.space in _WINDOWED:
            engine = self._engine(query)
            residue, replaced = engine.reduce(a.terms, query)
            if residue:
                return engine.non_member(residue, query)
            if query.space == "words" or (
                    query not in self._echelons and 2 * len(a.terms)
                    < count_words(query.length, query.degree)):
                return engine.member(a.terms, replaced, query)
        return self.echelon(query).certificate(a.terms)

    def normal_form(self, a: FreePoly, query: SpanQuery) -> FreePoly:
        if self._check_query_input(a, query):
            return FreePoly.zero(self.params.field)
        if query.space in _WINDOWED:
            residue, _ = self._engine(query).reduce(a.terms, query)
        else:
            residue, _ = self.echelon(query).reduce(a.terms)
        return FreePoly(self.params.field, residue)

    def class_member(self, a, query: SpanQuery) -> MembershipCertificate:
        """Membership of a lazy coefficient (`ore.PowerCoefficient`) of the
        query's component in the `collisions` span, from its class sums
        (`_CollisionWindows.class_sums`), never materialising it.  When
        every sum vanishes (there is none below degree h k(k+1)/2) the
        certificate lists the classes; otherwise it is the windowed
        functional of the smallest word of the normal form, which is all
        `_Windows.non_member` reads of it."""
        if query.space != "collisions":
            raise ValueError(f"classes partition the collisions span, not "
                             f"{query.space!r}")
        self._check_query_input(a, query)
        sums = self._engine(query).class_sums(query, a)
        live = [rep for rep, c in sums.items() if c]
        if not live:
            return MembershipCertificate("classes", classes=list(sums))
        z = min(live, key=_dense_order)
        return self._engine(query).non_member(
            {_dense(query.length, z): sums[z]}, query)

    def verify(self, a, query: SpanQuery, cert: MembershipCertificate) -> bool:
        """Re-check a certificate against the regenerated spanning family,
        or, for a `collisions` functional, by the swap rule; a "classes"
        certificate is recounted and its sums recomputed, both from the
        slots alone.  a is a FreePoly or a lazy coefficient, read through
        `get` by functionals and through `weigh` by classes; it has no terms
        for a member combination to sum to.  A query `_check_query_input`
        refuses, over another field or off the component, fails."""
        try:
            self._check_query_input(a, query)
        except ValueError:
            return False
        lazy = not isinstance(a, FreePoly)
        vec = a if lazy else a.terms
        if cert.kind == "classes":
            weigh = a.weigh if lazy else {
                tuple((p, x) for p, x in enumerate(w) if x): c
                for w, c in vec.items()}.get
            return (query.space == "collisions"
                    and _classes_vanish(self.params, query, weigh, cert.classes))
        if lazy and cert.kind == "member":
            return False
        if query.space == "collisions" and cert.kind == "non_member":
            return (cert.verify(self.params.field, vec, ())
                    and _swap_rule(self.params, query, cert.functional))
        rows = span_rows(self.params, query, self.budgets, self._cache)
        return cert.verify(self.params.field, vec, rows)


# -- signed checkpoint reorder -------------------------------------------------


def signed_reorder_word(params: ConstructionParams, k: int, word: tuple):
    """The signed checkpoint-reorder image of one word of length N(k)-1.

    Reads the letters at the slots (positions c_1..c_{k+1}); when they form a
    permutation of the target letters x_{c_0}..x_{c_k}, the image is the word
    with those letters rewritten in target order, signed by the permutation's
    parity; otherwise the image is zero (returns None).
    """
    slots = params.slots(k)  # refuses a degenerate level
    length = params.block(k) - 1
    if len(word) != length:
        raise ValueError(f"wrong length: expected {length}, got {len(word)}")
    targets = params.checkpoints(k)[: k + 1]
    letters = [word[i] for i in slots]
    if sorted(letters) != targets:
        return None
    sign = _sort_sign(letters)  # the targets ascend
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
