"""The differential polynomial ring over the free algebra.

Elements are finite sums a_t X^t with free-algebra coefficients; the variable
obeys X*a = a*X + derive(a).  Pushing X^n past a coefficient uses the closed
form X^n a = sum_k C(n, k) * derive^k(a) * X^(n-k); binomials are computed
over the integers and then mapped into the scalar field.  `skew_product`
applies that rule for `OrePoly` here and for `MatSkewPoly` in `series`.

Two expansion routes are provided for powers of (x0 X): `expand_power`
multiplies out step by step through the generic product, `expand_power_window`
runs a pruned recursion that only tracks the exponents at or above a window
floor.  They are deliberately independent so each can be checked against the
other.
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

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return max(self.coeffs)

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

    def to_text(self) -> str:
        return ore_to_text(self)

    @classmethod
    def from_text(cls, field, text: str) -> "OrePoly":
        return ore_from_text(field, text)

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
    """Coefficients a_t of (x0 X)^m for all t >= floor.

    Step recursion: with (x0 X)^s = sum_j a_j X^j, right multiplication by
    x0 X sends a_j into the exponents t = j - k + 1 for k = 0..j with weight
    C(j, k) and an appended letter x_k.  Exponents needed at the end only
    ever reach down by one per remaining step, so at step s everything below
    floor - (m - s) is pruned.  The window keeps the coefficient degree
    bounded by m - floor throughout.
    """
    if floor > m:
        raise ValueError(f"window floor {floor} exceeds the exponent {m}")
    if m < 0:
        raise ValueError("exponent must be >= 0")
    if m == 0:
        return {0: FreePoly.one(field)} if floor <= 0 else {}
    cur: dict[int, FreePoly] = {1: FreePoly.generator(field, 0)}
    for s in range(2, m + 1):
        lo = max(1, floor - (m - s))
        nxt: dict[int, FreePoly] = {}
        for j, a in cur.items():
            # k runs while the landing exponent j - k + 1 stays in window
            for k in range(0, min(j, j + 1 - lo) + 1):
                w = field.from_int(comb(j, k))
                if not w:
                    continue
                p = a.mul_letter(k, w)
                if p.is_zero():
                    continue
                t = j - k + 1
                q = nxt.get(t)
                s2 = p if q is None else q + p
                if s2.is_zero():
                    nxt.pop(t, None)
                else:
                    nxt[t] = s2
        cur = nxt
    return {t: p for t, p in cur.items() if t >= floor}


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
