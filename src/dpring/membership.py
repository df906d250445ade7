"""Exact sparse linear algebra for span membership over words.

Vectors are dicts from word to nonzero scalar.  An Echelon holds an
incrementally built row-echelon family: each stored row is normalized so its
smallest word (by length, then lexicographic order) has coefficient one, and
that word is the row's pivot.  No back-substitution is performed; reduction
eliminates pivots in increasing word order with a heap, which is safe because
eliminating a pivot only introduces words larger than it.  A word of the
query whose pivot row is the bare monomial is split off up front, without
entering the heap: in the block-aligned span families almost every pivot
row is one.  Only words of the query are split off; one that a longer row
brings in goes through the heap like any other.  Inserting a single-term
vector skips reduction altogether unless its word is the pivot of a longer
row: a monomial row already spans it, and a free word becomes a monomial
pivot itself.

Combination tracking is lazy: each pivot row remembers only which earlier
pivots its reduction used, and combinations over the original insertion
indices are expanded (and memoized) when a certificate is actually requested.
Bulk insertion therefore costs no more than the elimination itself.

Membership answers come with checkable certificates, produced in one place
and checked in one place.  `Echelon.certificate` does one `reduce` and returns
either an explicit combination of the inserted vectors (a member) or a finite
linear functional that kills every inserted vector but not the query (a
non-member).  `MembershipCertificate.verify` redoes the arithmetic against
the family, given as rows in index order, and never trusts the elimination.
`Echelon.extend` is the one way a family enters an echelon, with canonical
indices and in the order the single-term fast path of `insert` wants.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .freealg import word_key

__all__ = ["Echelon", "MembershipCertificate"]


@dataclass
class MembershipCertificate:
    """Evidence for a membership verdict, checkable without the echelon.

    kind "member": combination holds (index, coeff) pairs over the inserted
    vectors, indices in insertion order.  kind "non_member": functional maps
    words to scalars; it must vanish on every inserted vector and take the
    value one on the query.  kind "classes": a member of the `collisions`
    span, certified by its repeat-free classes, listed in classes, all of
    whose signed sums vanish; it is checked by `SpanOracle.verify`, which
    knows the construction's slots.
    """

    kind: str
    combination: list[tuple[int, object]] | None = None
    functional: dict[tuple, object] | None = None
    classes: list[tuple] | None = None

    def verify(self, field, query: dict, rows) -> bool:
        """Check the certificate by direct arithmetic against the family,
        rows given as an iterable in index order.

        A member combination must sum to the query; rows are read only until
        every index it names has been seen, and a missing index fails.  A
        functional must take the value one on the query and vanish on every
        row, so all rows are streamed (none when the query already fails).
        The query is read only through `get` on the functional's support,
        so a lazy coefficient (`ore.PowerCoefficient`) serves as well as a
        dict of terms.
        """
        if self.kind == "member":
            needed = {idx for idx, _ in self.combination}
            found: dict[int, dict] = {}
            if needed:
                for i, row in enumerate(rows):
                    if i in needed:
                        found[i] = row
                        if len(found) == len(needed):
                            break
                if len(found) != len(needed):
                    return False
            acc: dict = {}
            for idx, coeff in self.combination:
                add_scaled(field, acc, found[idx], coeff)
            return len(acc) == len(query) and all(
                acc.get(w) == v for w, v in query.items())
        if self.kind == "non_member":
            functional = self.functional
            fadd, fmul = field.add, field.mul

            def dot(vec, other):
                """sum of vec[w] * other[w] over the support of vec"""
                acc = field.zero
                for w, v in vec.items():
                    c = other.get(w)
                    if c:
                        acc = fadd(acc, fmul(c, v))
                return acc

            return (dot(functional, query) == field.one
                    and not any(dot(row, functional) for row in rows))
        raise ValueError(f"unknown certificate kind {self.kind!r}")


def add_scaled(field, target: dict, src: dict, c):
    """target += c * src in place, dropping cancelled entries."""
    fadd, fmul = field.add, field.mul
    for w, v in src.items():
        cv = fmul(c, v)
        if not cv:
            continue
        cur = target.get(w)
        nv = cv if cur is None else fadd(cur, cv)
        if nv:
            target[w] = nv
        else:
            del target[w]


class Echelon:
    def __init__(self, field):
        self.field = field
        self.rows: dict[tuple, dict] = {}  # pivot word -> normalized row
        # pivot -> (original index, normalizing scalar, pivots its reduction used)
        self.history: dict[tuple, tuple[int, object, dict]] = {}
        self._flat_cache: dict[tuple, dict[int, object]] = {}
        self.inserted = 0  # one past the largest original index seen

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> tuple[dict, dict[tuple, object]]:
        """Residue of vec modulo the current rows, plus the multiple of each
        pivot row that was subtracted along the way."""
        field = self.field
        fadd, fsub, fmul, fneg = field.add, field.sub, field.mul, field.neg
        rows = self.rows
        # the query's monomial pivots leave at once, the rest use the heap
        used: dict[tuple, object] = {}
        rest: dict = {}
        for w, v in vec.items():
            if not v:
                continue
            row = rows.get(w)
            if row is not None and len(row) == 1:
                used[w] = v
            else:
                rest[w] = v
        vec = rest
        # heap entries are word_key(w) written out, saving a call per push
        heap = [(len(w), w) for w in vec]
        heapq.heapify(heap)
        while heap:
            _, w = heapq.heappop(heap)
            c = vec.get(w)
            if not c:
                continue
            row = rows.get(w)
            if row is None:
                continue
            del vec[w]
            for m, v in row.items():
                if m == w:
                    continue
                cv = fmul(c, v)
                cur = vec.get(m)
                if cur is None:
                    vec[m] = fneg(cv)
                    heapq.heappush(heap, (len(m), m))
                else:
                    nv = fsub(cur, cv)
                    if nv:
                        vec[m] = nv
                    else:
                        del vec[m]
            if w in used:  # a monomial pivot split off up front came back
                c = fadd(used.pop(w), c)
            if c:
                used[w] = c
        return vec, used

    def insert(self, vec: dict, index: int | None = None) -> tuple | None:
        """Add a vector to the family.  Returns the new pivot word, or None
        when the vector was already in the span.

        The certificate index defaults to a running counter; only `extend`
        passes it explicitly, to insert single-term rows first while keeping
        canonical indices.
        """
        idx = self.inserted if index is None else index
        self.inserted = max(self.inserted, idx + 1)
        field = self.field
        if len(vec) == 1:
            # a single term needs no reduction unless its word is the pivot
            # of a longer row: a monomial row already spans it, and a free
            # word becomes a monomial pivot itself
            (w, c), = vec.items()
            row = self.rows.get(w)
            if row is not None and len(row) == 1:
                return None
            if row is None and c:
                self.rows[w] = {w: field.one}
                self.history[w] = (idx, field.inv(c), {})
                return w
        residue, used = self.reduce(vec)
        if not residue:
            return None
        pivot = min(residue, key=word_key)
        inv = field.inv(residue[pivot])
        fmul = field.mul
        self.rows[pivot] = {w: fmul(inv, v) for w, v in residue.items()}
        self.history[pivot] = (idx, inv, used)
        return pivot

    def extend(self, rows):
        """Insert an enumerated family, continuing the index count.

        Single-term rows go in first, in index order, and claim their pivots
        for free; the longer rows follow, in index order, and reduce mostly
        against monomial rows, so elimination stays cheap and no longer row
        holds a monomial pivot unless a later call adds one on its words.
        """
        multi = []
        for i, row in enumerate(rows, self.inserted):
            if len(row) == 1:
                self.insert(row, i)
            else:
                multi.append((i, row))
        for i, row in multi:
            self.insert(row, i)

    def _flat(self, pivot: tuple) -> dict[int, object]:
        """Combination of original vectors equal to the stored pivot row,
        expanded through the elimination history and memoized."""
        cache = self._flat_cache
        if pivot in cache:
            return cache[pivot]
        field = self.field
        stack = [pivot]
        while stack:
            p = stack[-1]
            if p in cache:
                stack.pop()
                continue
            idx, inv, used = self.history[p]
            missing = [q for q in used if q not in cache]
            if missing:
                stack.extend(missing)
                continue
            # rows[p] = inv * (original idx - sum used[q] * rows[q])
            flat = {idx: inv}
            for q, c in used.items():
                scale = field.neg(field.mul(inv, c))
                if scale:
                    add_scaled(field, flat, cache[q], scale)
            cache[p] = flat
            stack.pop()
        return cache[pivot]

    def certificate(self, vec: dict) -> MembershipCertificate:
        """Membership certificate for vec, from one reduction.

        A member gets the combination of inserted vectors equal to it.  A
        non-member gets a functional vanishing on every inserted vector with
        value one on vec: values are fixed on non-pivot words first (one on
        the residue's smallest word after normalization, zero elsewhere),
        then each pivot's value is forced by its own row, solved in
        descending pivot order so every later word is already known.  A
        monomial row forces zero.
        """
        residue, used = self.reduce(vec)
        field = self.field
        if not residue:
            combo: dict[int, object] = {}
            for p, c in used.items():
                add_scaled(field, combo, self._flat(p), c)
            return MembershipCertificate("member", combination=sorted(combo.items()))
        fadd, fmul = field.add, field.mul
        marked = min(residue, key=word_key)
        y: dict[tuple, object] = {marked: field.inv(residue[marked])}
        multi = [p for p, row in self.rows.items() if len(row) > 1]
        for pivot in sorted(multi, key=word_key, reverse=True):
            row = self.rows[pivot]
            acc = field.zero
            for w, c in row.items():
                if w == pivot:
                    continue
                val = y.get(w)
                if val:
                    acc = fadd(acc, fmul(c, val))
            if acc:
                y[pivot] = field.neg(acc)
        return MembershipCertificate("non_member", functional=y)
