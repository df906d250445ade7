"""The differential polynomial ring over the free algebra.

Elements are finite sums a_t X^t with free-algebra coefficients; the variable
obeys X*a = a*X + derive(a).  Pushing X^n past a coefficient uses the closed
form X^n a = sum_k C(n, k) * derive^k(a) * X^(n-k); binomials are computed
over the integers and then mapped into the scalar field.  `skew_product`
applies that rule for `OrePoly` here and for `MatSkewPoly` in `series`.

Two expansion routes are provided for powers of (x0 X): `expand_power`
multiplies out step by step through the generic product, `expand_power_window`
writes the coefficients at or above a window floor in closed form, one
binomial product per word.  They are deliberately independent so each can be
checked against the other.
"""

from __future__ import annotations

import re
from math import comb

from .budgets import BudgetExceeded, DEFAULT_BUDGETS
from .fields import FieldError
from .freealg import FreePoly, derive, poly_from_text, poly_to_text

__all__ = [
    "OrePoly",
    "skew_product",
    "commute_past",
    "expand_power",
    "expand_power_window",
    "is_ballot_word",
    "ore_to_text",
    "ore_from_text",
]


class OrePoly:
    """Sparse skew polynomial: map from X-exponent to FreePoly coefficient."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: dict[int, FreePoly] | None = None):
        self.field = field
        self.coeffs = {} if coeffs is None else coeffs

    @classmethod
    def zero(cls, field) -> "OrePoly":
        return cls(field, {})

    @classmethod
    def one(cls, field) -> "OrePoly":
        return cls(field, {0: FreePoly.one(field)})

    @classmethod
    def from_coeffs(cls, field, items) -> "OrePoly":
        coeffs: dict[int, FreePoly] = {}
        for t, p in dict(items).items():
            if t < 0:
                raise ValueError("X-exponents are non-negative")
            if p.field != field:
                raise ValueError("mixed coefficient fields")
            if not p.is_zero():
                coeffs[t] = p
        return cls(field, coeffs)

    def coeff(self, t: int) -> FreePoly:
        """Coefficient of X^t (zero polynomial when absent)."""
        return self.coeffs.get(t, FreePoly.zero(self.field))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other: "OrePoly"):
        if not isinstance(other, OrePoly):
            raise TypeError(f"expected OrePoly, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("mixed coefficient fields")

    def __add__(self, other: "OrePoly") -> "OrePoly":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for t, p in other.coeffs.items():
            q = out.get(t)
            s = p if q is None else q + p
            if s.is_zero():
                out.pop(t, None)
            else:
                out[t] = s
        return OrePoly(self.field, out)

    def __neg__(self) -> "OrePoly":
        return OrePoly(self.field, {t: -p for t, p in self.coeffs.items()})

    def __sub__(self, other: "OrePoly") -> "OrePoly":
        return self + (-other)

    def __mul__(self, other: "OrePoly") -> "OrePoly":
        self._check_compatible(other)
        return OrePoly(self.field, skew_product(
            self.field, self.coeffs, other.coeffs, derive, _scaled_product,
            FreePoly.__add__, FreePoly.is_zero))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrePoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    __hash__ = None

    def __repr__(self):
        return f"OrePoly({ore_to_text(self)!r})"


def skew_product(field, left: dict, right: dict, derive, mul, add, is_zero) -> dict:
    """Coefficients of (sum a_i X^i) * (sum b_j X^j), factors given as
    exponent -> coefficient maps, in any ring with X b = b X + derive(b).

    X^i passes b_j by the closed form, each binomial reduced into the field
    first.  `mul(a, b, w)` returns a * (w b) for a nonzero scalar w; `add`
    and `is_zero` act on coefficients.  Zero sums are dropped.
    """
    out: dict = {}
    for i, a in left.items():
        for j, b in right.items():
            dtb = b
            for t in range(i + 1):
                if t:
                    dtb = derive(dtb)
                if is_zero(dtb):
                    break  # all higher derivatives vanish as well
                w = field.from_int(comb(i, t))
                if not w:
                    continue
                p = mul(a, dtb, w)
                e = i - t + j
                q = out.get(e)
                s = p if q is None else add(q, p)
                if is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
    return out


def _scaled_product(a: FreePoly, b: FreePoly, w) -> FreePoly:
    return a * b.scale(w)


def commute_past(a: FreePoly, n: int) -> OrePoly:
    """X^n * a as an OrePoly, via the closed commutation form."""
    if n < 0:
        raise ValueError("exponent must be >= 0")
    field = a.field
    return OrePoly(field, {n: FreePoly.one(field)}) * OrePoly(field, {0: a})


def expand_power(field, m: int, max_expand_m: int | None = None) -> OrePoly:
    """(x0 X)^m fully expanded by repeated right multiplication.

    Term counts grow like the Catalan numbers, so the full expansion is
    refused above the budget; use expand_power_window for large m.
    """
    if m < 0:
        raise ValueError("exponent must be >= 0")
    cap = DEFAULT_BUDGETS.max_expand_m if max_expand_m is None else max_expand_m
    if m > cap:
        raise BudgetExceeded(
            f"full expansion refused for m={m} (budget {cap}); "
            "use expand_power_window with an exponent floor",
            m=m,
            max_expand_m=cap,
        )
    step = OrePoly(field, {1: FreePoly.generator(field, 0)})
    out = OrePoly.one(field)
    for _ in range(m):
        out = out * step
    return out


def expand_power_window(field, m: int, floor: int) -> dict[int, FreePoly]:
    """Coefficients a_t of (x0 X)^m for all t >= floor, in closed form.

    Right multiplication by x0 X sends a_j X^j to sum_k C(j, k) a_j x_k
    X^(j-k+1), so a word w of length m carries the weight
    prod_s C(j_{s-1}, w_s) with j_s = s - (w_1 + .. + w_s), and lands in
    a_t for t = m - deg w.  The window bounds deg w by m - floor.  A
    depth-first walk places only the nonzero letters, each word is built
    once, and since weights only multiply, a weight of zero in the field
    (over GF(p)) prunes the whole subtree.
    """
    if floor > m:
        raise ValueError(f"window floor {floor} exceeds the exponent {m}")
    if m < 0:
        raise ValueError("exponent must be >= 0")
    budget = m - max(floor, 0)
    from_int = field.from_int
    out: dict[int, dict] = {}
    # (word up to its last nonzero letter, its degree, its integer weight
    # and that weight in the field)
    stack = [((), 0, 1, field.one)]
    while stack:
        head, deg, n, w = stack.pop()
        q = len(head)
        out.setdefault(m - deg, {})[head + (0,) * (m - q)] = w
        room = budget - deg
        if room <= 0:
            continue
        for s in range(q + 1, m + 1):  # position of the next nonzero letter
            j = s - 1 - deg  # X-exponent reached by the first s - 1 letters
            lead = head + (0,) * (s - 1 - q)
            for k in range(1, min(j, room) + 1):
                nk = n * comb(j, k)
                wk = from_int(nk)
                if wk:
                    stack.append((lead + (k,), deg + k, nk, wk))
    return {t: FreePoly(field, out[t]) for t in sorted(out, reverse=True)}


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
    text = text.strip()
    if text == "0":
        return OrePoly.zero(field)
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
        poly = poly_from_text(field, m.group("poly"))
        if not poly.is_zero():
            coeffs[t] = poly
    return OrePoly(field, coeffs)
