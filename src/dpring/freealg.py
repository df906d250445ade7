"""Sparse exact arithmetic in the free associative algebra on x0, x1, x2, ...

A word (monomial) is a tuple of non-negative generator indices.  The empty
tuple stands for the unity of the unital hull and is only meaningful where a
unital coefficient is allowed; proper algebra elements have length >= 1.
Every word carries two gradings: its length (letter count) and its degree
(sum of letter indices).  Multiplication concatenates words, so it adds both
gradings; the shift derivation `derive` raises degree by one and preserves
length.
"""

from __future__ import annotations

import re
from typing import Iterable

from .fields import FieldError

__all__ = [
    "FreePoly",
    "ShiftDerivation",
    "word_stats",
    "word_key",
    "word_to_text",
    "derive",
    "derive_iter",
]


def word_stats(word: tuple) -> tuple[int, int]:
    """(length, degree) of a word; the empty word is (0, 0)."""
    return len(word), sum(word)


def word_key(word: tuple):
    """Canonical order key: length first, then lexicographic on letters."""
    return (len(word), word)


class FreePoly:
    """A free-algebra element: sparse map from words to nonzero scalars."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: dict | None = None):
        # `terms` is trusted to be normalized (no zero values); use
        # from_terms for unnormalized input.
        self.field = field
        self.terms = {} if terms is None else terms

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field) -> "FreePoly":
        return cls(field, {})

    @classmethod
    def one(cls, field) -> "FreePoly":
        """Unity of the unital hull (the empty word)."""
        return cls(field, {(): field.one})

    @classmethod
    def generator(cls, field, index: int) -> "FreePoly":
        if index < 0:
            raise ValueError("generator indices are non-negative")
        return cls(field, {(index,): field.one})

    @classmethod
    def monomial(cls, field, word: tuple, coeff=None) -> "FreePoly":
        coeff = field.one if coeff is None else field.coerce(coeff)
        if not coeff:
            return cls(field, {})
        return cls(field, {tuple(word): coeff})

    @classmethod
    def from_terms(cls, field, items: Iterable[tuple[tuple, object]]) -> "FreePoly":
        """Accumulate (word, coefficient) pairs, dropping zero totals."""
        terms: dict = {}
        for word, coeff in items:
            word = tuple(word)
            if any(not isinstance(i, int) or i < 0 for i in word):
                raise ValueError(f"bad word {word!r}: letters are indices >= 0")
            c = field.coerce(coeff)
            acc = terms.get(word)
            c = c if acc is None else field.add(acc, c)
            if c:
                terms[word] = c
            else:
                terms.pop(word, None)
        return cls(field, terms)

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        """Number of terms; it also makes the zero polynomial falsy."""
        return len(self.terms)

    def bigrade(self):
        """(length, degree) when homogeneous in both gradings, else None.

        The zero polynomial is homogeneous of every grade and returns None.
        """
        grades = {word_stats(w) for w in self.terms}
        if len(grades) == 1:
            return grades.pop()
        return None

    def components(self) -> dict[tuple[int, int], "FreePoly"]:
        out: dict[tuple[int, int], FreePoly] = {}
        for w, c in self.terms.items():
            out.setdefault(word_stats(w), FreePoly(self.field, {})).terms[w] = c
        return out

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "FreePoly"):
        if not isinstance(other, FreePoly):
            raise TypeError(f"expected FreePoly, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("mixed coefficient fields")

    def __add__(self, other: "FreePoly") -> "FreePoly":
        self._check_compatible(other)
        field = self.field
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w)
            c = c if acc is None else field.add(acc, c)
            if c:
                terms[w] = c
            else:
                terms.pop(w, None)
        return FreePoly(field, terms)

    def __neg__(self) -> "FreePoly":
        neg = self.field.neg
        return FreePoly(self.field, {w: neg(c) for w, c in self.terms.items()})

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        return self + (-other)

    def scale(self, scalar) -> "FreePoly":
        field = self.field
        scalar = field.coerce(scalar)
        if not scalar:
            return FreePoly(field, {})
        mul = field.mul
        return FreePoly(field, {w: mul(c, scalar) for w, c in self.terms.items()})

    def __mul__(self, other: "FreePoly") -> "FreePoly":
        self._check_compatible(other)
        field = self.field
        fmul, fadd = field.mul, field.add
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = fmul(c1, c2)
                acc = out.get(w)
                c = c if acc is None else fadd(acc, c)
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
        return FreePoly(field, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreePoly)
            and other.field == self.field
            and other.terms == self.terms
        )

    __hash__ = None  # mutable container

    def __repr__(self):
        return f"FreePoly({poly_to_text(self)!r})"


def derive(p: FreePoly) -> FreePoly:
    """Shift derivation: x_i -> x_{i+1} on letters, extended by the product
    rule.  Preserves length, raises degree by one; kills the unity term."""
    field = p.field
    fadd = field.add
    out: dict = {}
    for word, c in p.terms.items():
        for q in range(len(word)):
            w = word[:q] + (word[q] + 1,) + word[q + 1:]
            acc = out.get(w)
            nc = c if acc is None else fadd(acc, c)
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
    return FreePoly(field, out)


class ShiftDerivation:
    """The free algebra over `field` with the shift derivation, as the
    coefficient ring of a differential polynomial ring: calling it derives,
    and it supplies the ring operations `ore.OrePoly` needs."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def __call__(self, a: FreePoly) -> FreePoly:
        return derive(a)

    def zero(self) -> FreePoly:
        return FreePoly.zero(self.field)

    def one(self) -> FreePoly:
        return FreePoly.one(self.field)

    add = staticmethod(FreePoly.__add__)
    sub = staticmethod(FreePoly.__sub__)
    is_zero = staticmethod(FreePoly.is_zero)

    @staticmethod
    def scaled(a: FreePoly, b: FreePoly, w) -> FreePoly:
        """a * (w b) for a nonzero scalar w."""
        return a * b.scale(w)

    def __eq__(self, other) -> bool:
        return isinstance(other, ShiftDerivation) and other.field == self.field


def derive_iter(p: FreePoly, times: int) -> FreePoly:
    """`times`-fold application of the shift derivation."""
    if times < 0:
        raise ValueError("derivation count must be >= 0")
    for _ in range(times):
        p = derive(p)
    return p


# -- serialization ----------------------------------------------------------
#
# Term grammar:   coeff*x<i>.x<j>...   with "1" for the empty word, terms
# joined by " + ", canonical order (length, then lex), zero written "0".

_TERM_RE = re.compile(
    r"^(?P<coeff>-?\d+(?:/\d+)?)\*(?P<mono>1|x\d+(?:\.x\d+)*)$"
)


def word_to_text(word: tuple) -> str:
    """A monomial in the term grammar: "x<i>.x<j>..." or "1" when empty."""
    return ".".join(f"x{i}" for i in word) if word else "1"


def poly_to_text(p: FreePoly) -> str:
    if not p.terms:
        return "0"
    fmt = p.field.format
    return " + ".join(f"{fmt(p.terms[word])}*{word_to_text(word)}"
                      for word in sorted(p.terms, key=word_key))


def poly_from_text(field, text: str) -> FreePoly:
    text = text.strip()
    if text == "0":
        return FreePoly.zero(field)
    items = []
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise FieldError(f"unparsable term {chunk!r}")
        coeff = field.parse(m.group("coeff"))
        mono = m.group("mono")
        word = () if mono == "1" else tuple(int(g[1:]) for g in mono.split("."))
        items.append((word, coeff))
    return FreePoly.from_terms(field, items)
