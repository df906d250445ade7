"""The differential polynomial ring R[X; D] over a ring with a derivation.

Elements are finite sums a_t X^t with coefficients in R; the variable obeys
X*a = a*X + D(a).  Pushing X^n past a coefficient uses the closed form
X^n a = sum_k C(n, k) * D^k(a) * X^(n-k); binomials are computed over the
integers and then mapped into the scalar field.  `OrePoly` serves every
coefficient ring: the free algebra with the shift derivation
(`freealg.ShiftDerivation`) here, and nilpotent matrices with an inner
derivation (`series.InnerDerivation`) for the series identities.

Two expansion routes are provided for powers of (x0 X): `expand_power`
multiplies out step by step through the generic product, `expand_power_window`
writes the coefficients at or above a window floor in closed form, one
binomial product per word.  They are deliberately independent so each can be
checked against the other; `check_expansion` caps both by the words of the
largest component they write.  `window_terms` is the window's walk itself,
yielding one run of terms of a single coefficient at a time, so a check can
stream it against a full expansion without building the window; each run is
a walked suffix behind every walked prefix of one degree (`_walk` is the one
walk over letters).  `PowerCoefficient` is a third, lazy
route: one coefficient that is never materialised and weighs a single word on
request with the window's closed form (`word_weight`).
"""

from __future__ import annotations

import re
from itertools import compress, repeat
from math import comb

from .budgets import BudgetExceeded, Budgets, DEFAULT_BUDGETS
from .construction import count_words
from .fields import FieldError
from .freealg import FreePoly, ShiftDerivation, poly_from_text, poly_to_text

__all__ = [
    "OrePoly",
    "PowerCoefficient",
    "check_expansion",
    "commute_past",
    "expand_power",
    "expand_power_window",
    "is_ballot_word",
    "window_terms",
    "word_weight",
    "ore_to_text",
    "ore_from_text",
]


class OrePoly:
    """Sparse element of R[X; D]: map from X-exponent to nonzero coefficient.

    `ring` is the coefficient ring with its derivation: calling it derives,
    and it supplies `field`, `zero()`, `one()`, `add`, `sub`, `is_zero`,
    `scaled(a, b, w) = a * (w b)`, which returns a new element, and
    `add_into(q, p) = q + p`, which may reuse q's storage.  Zero
    coefficients are dropped.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: dict | None = None):
        self.ring = ring
        is_zero = ring.is_zero
        self.coeffs = {} if coeffs is None else {
            t: a for t, a in coeffs.items() if not is_zero(a)}

    @classmethod
    def one(cls, ring) -> "OrePoly":
        return cls(ring, {0: ring.one()})

    def coeff(self, t: int):
        """Coefficient of X^t (the ring's zero when absent)."""
        return self.coeffs.get(t, self.ring.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other: "OrePoly"):
        if not isinstance(other, OrePoly):
            raise TypeError(f"expected OrePoly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise ValueError("mixed coefficient rings")

    def _merge(self, other: "OrePoly", op) -> "OrePoly":
        self._check_compatible(other)
        zero = self.ring.zero()
        out = dict(self.coeffs)
        for t, b in other.coeffs.items():
            out[t] = op(out.get(t, zero), b)
        return OrePoly(self.ring, out)

    def __add__(self, other: "OrePoly") -> "OrePoly":
        return self._merge(other, self.ring.add)

    def __sub__(self, other: "OrePoly") -> "OrePoly":
        return self._merge(other, self.ring.sub)

    def __mul__(self, other: "OrePoly") -> "OrePoly":
        """(sum a_i X^i) * (sum b_j X^j), passing X^i over b_j by the closed
        form X^i b = sum_t C(i, t) D^t(b) X^(i-t), each binomial reduced into
        the field first.

        Each b_j is derived once per product, up to the highest i or until
        a derivative vanishes (all higher ones vanish as well), and its
        chain D^t(b_j) is shared by every a_i.  Each coefficient of the
        result is accumulated in place (`add_into`), in the order (i, j, t),
        so the result, its dict order included, is the one a per-(i, j)
        derivation with fresh sums gives.
        """
        self._check_compatible(other)
        ring = self.ring
        derive, scaled, is_zero = ring, ring.scaled, ring.is_zero
        add_into = ring.add_into
        reduce = ring.field.reduce
        top = max(self.coeffs, default=0)
        chains = []
        for j, b in other.coeffs.items():
            chain = [b]
            while len(chain) <= top:
                d = derive(chain[-1])
                if is_zero(d):
                    break
                chain.append(d)
            chains.append((j, chain))
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, chain in chains:
                for t, dtb in enumerate(chain[:i + 1]):
                    w = reduce(comb(i, t))
                    if not w:
                        continue
                    p = scaled(a, dtb, w)
                    e = i - t + j
                    q = out.get(e)
                    # every value in out is this product's own to reuse
                    s = p if q is None else add_into(q, p)
                    if is_zero(s):
                        out.pop(e, None)
                    else:
                        out[e] = s
        return OrePoly(ring, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrePoly)
            and other.ring == self.ring
            and other.coeffs == self.coeffs
        )

    __hash__ = None

    def __repr__(self):
        return f"OrePoly({self.coeffs!r})"


def commute_past(a: FreePoly, n: int) -> OrePoly:
    """X^n * a as an OrePoly, via the closed commutation form."""
    if n < 0:
        raise ValueError("exponent must be >= 0")
    ring = ShiftDerivation(a.field)
    return OrePoly(ring, {n: ring.one()}) * OrePoly(ring, {0: a})


def check_expansion(m: int, floor: int, budgets: Budgets) -> None:
    """Refuse the a_t, t >= floor, of (x0 X)^m if their largest component,
    (m, m - max(floor, 1)), has more words than max_component_dim: a_0 is
    zero for m >= 1, so the full expansion (floor 0) fills (m, m - 1)."""
    d = m - max(floor, 1)
    dim, cap = count_words(m, d), budgets.max_component_dim
    if dim > cap:
        raise BudgetExceeded(f"(x0 X)^{m} from X^{floor} up reaches component "
                             f"({m}, {d}) of {dim} words (budget {cap})",
                             component_dim=dim)


def expand_power(field, m: int, budgets: Budgets = DEFAULT_BUDGETS):
    """(x0 X)^m fully expanded by repeated right multiplication, an OrePoly.

    Term counts grow like the Catalan numbers; an m whose a_1 has more words
    than max_component_dim is refused before the first product
    (`check_expansion`), and expand_power_window takes a higher floor."""
    if m < 0:
        raise ValueError("exponent must be >= 0")
    check_expansion(m, 0, budgets)
    ring = ShiftDerivation(field)
    step = OrePoly(ring, {1: FreePoly.generator(field, 0)})
    out = OrePoly.one(ring)
    for _ in range(m):
        out = out * step
    return out


def _walk(n: int, j0: int, room: int, reduce) -> list:
    """The words of n letters that right multiplications by x0 X write from
    X^j0, of degree at most room and weight nonzero in the field, as (word,
    degree, integer weight): the s-th letter multiplies the weight by
    C(j_{s-1}, w_s), j_s = j0 + s - (w_1 + .. + w_s).  Depth first, placing
    only the nonzero letters, so each word is built once; since weights only
    multiply, one that vanishes in the field prunes its whole subtree."""
    out = []
    # (word up to its last nonzero letter, its degree, its integer weight)
    stack = [((), 0, 1)]
    while stack:
        head, deg, n_head = stack.pop()
        q = len(head)
        out.append((head + (0,) * (n - q), deg, n_head))
        left = room - deg
        if left <= 0:
            continue
        for s in range(q + 1, n + 1):  # position of the next nonzero letter
            j = j0 + s - 1 - deg  # X-exponent reached by the first s - 1
            lead = head + (0,) * (s - 1 - q)
            for k in range(1, min(j, left) + 1):
                nk = n_head * comb(j, k)
                if reduce(nk):
                    stack.append((lead + (k,), deg + k, nk))
    return out


def window_terms(field, m: int, floor: int):
    """Every term of the coefficients a_t of (x0 X)^m with t >= floor, as
    runs (t, words, weights): parallel lists of words of a_t and their
    weights in the field.

    Right multiplication by x0 X sends a_j X^j to sum_k C(j, k) a_j x_k
    X^(j-k+1), so a word w of length m carries the weight
    prod_s C(j_{s-1}, w_s) with j_s = s - (w_1 + .. + w_s), and lands in
    a_t for t = m - deg w.  The window bounds deg w by m - floor.  Split at
    c = 2m // 3, the weight is a prefix part times a suffix part, and the
    suffix part depends on the prefix only through its degree du.  So the
    prefixes are walked once (`_walk`) and grouped by du, the suffixes
    from X^(c - du) once per du, and each suffix v gives one run: every
    prefix of degree du followed by v.  Over GF(p) a product of nonzero
    weights is nonzero, so pruning each half prunes exactly the words whose
    weight vanishes.  No (t, word) comes twice and no weight is zero, so a
    caller can check the runs as they come without holding the window.
    """
    if floor > m:
        raise ValueError(f"window floor {floor} exceeds the exponent {m}")
    if m < 0:
        raise ValueError("exponent must be >= 0")
    budget = m - max(floor, 0)
    reduce = field.reduce
    c = 2 * m // 3
    heads: dict[int, tuple[list, list]] = {}
    for u, du, nu in _walk(c, 0, budget, reduce):
        us, nus = heads.setdefault(du, ([], []))
        us.append(u)
        nus.append(nu)
    for du, (us, nus) in heads.items():
        for v, dv, nv in _walk(m - c, c - du, budget - du, reduce):
            yield (m - du - dv, list(map(tuple.__add__, us, repeat(v))),
                   list(map(reduce, map(nv.__mul__, nus))))


def expand_power_window(field, m: int, floor: int,
                        budgets: Budgets = DEFAULT_BUDGETS) -> dict:
    """Coefficients a_t of (x0 X)^m for all t >= floor in closed form, once
    `check_expansion` admits them: `window_terms` collected, t descending."""
    check_expansion(m, floor, budgets)
    out: dict[int, dict] = {}
    for t, words, weights in window_terms(field, m, floor):
        out.setdefault(t, {}).update(zip(words, weights))
    return {t: FreePoly(field, out[t]) for t in sorted(out, reverse=True)}


def word_weight(letters) -> int:
    """The integer weight of a word in (x0 X)^m, given by its nonzero letters
    as (0-based position, letter) pairs in ascending position: the closed
    form prod_s C(j_{s-1}, w_s) that `expand_power_window` writes, with
    j_{s-1} the position less the letters before it.  Zero for a word that
    is no ballot word."""
    n, before = 1, 0
    for p, x in letters:
        j = p - before
        if j < x:
            return 0
        n *= comb(j, x)
        before += x
    return n


class PowerCoefficient:
    """The coefficient a_t of X^t in (x0 X)^m, never materialised.

    `weigh` gives the weight in the field of a word of its component given
    by its nonzero letters (see `word_weight`); `get` reads one word like a
    dict of the coefficient's terms does, None off its support.  So a
    certificate is checked against it on the certificate's own words.
    """

    __slots__ = ("field", "m", "t")

    def __init__(self, field, m: int, t: int):
        self.field, self.m, self.t = field, m, t

    def bigrade(self) -> tuple[int, int]:
        """(length, degree) of every word of the coefficient."""
        return self.m, self.m - self.t

    def weigh(self, letters):
        return self.field.reduce(word_weight(letters))

    def get(self, word: tuple, default=None):
        if len(word) != self.m or sum(word) != self.m - self.t:
            return default
        places = compress(range(self.m), word)
        c = self.weigh((p, word[p]) for p in places)
        return c if c else default


def is_ballot_word(word: tuple) -> bool:
    """Prefix condition satisfied by every summand of (x0 X)^m coefficients:
    the letter indices, read left to right, never sum past position - 1."""
    total = 0
    for i, n in enumerate(word, start=1):
        total += n
        if total > i - 1:
            return False
    return True


# -- text form ---------------------------------------------------------------
#
# "(<FreePoly>)X^<t> + ..." with exponents strictly decreasing; zero is "0".

_ORE_CHUNK_RE = re.compile(r"^\((?P<poly>[^()]*)\)X\^(?P<t>\d+)$")


def ore_to_text(p: OrePoly) -> str:
    if not p.coeffs:
        return "0"
    bits = []
    for t in sorted(p.coeffs, reverse=True):
        bits.append(f"({poly_to_text(p.coeffs[t])})X^{t}")
    return " + ".join(bits)


def ore_from_text(field, text: str) -> OrePoly:
    ring = ShiftDerivation(field)
    text = text.strip()
    if text == "0":
        return OrePoly(ring)
    coeffs: dict[int, FreePoly] = {}
    last_t = None
    for chunk in text.split(" + ("):
        chunk = chunk.strip()
        if not chunk.startswith("("):
            chunk = "(" + chunk
        m = _ORE_CHUNK_RE.match(chunk)
        if m is None:
            raise FieldError(f"unparsable skew-polynomial chunk {chunk!r}")
        t = int(m.group("t"))
        if last_t is not None and t >= last_t:
            raise FieldError("exponents must be strictly decreasing")
        last_t = t
        coeffs[t] = poly_from_text(field, m.group("poly"))
    return OrePoly(ring, coeffs)
