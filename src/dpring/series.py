"""Nilpotent matrix algebras with inner derivations, and skew polynomials
over them.

The ambient ring is the strictly upper-triangular n x n matrices, which is
nilpotent of index <= n; its unital hull embeds as upper-triangular matrices
with a constant diagonal.  The derivation is commutation with a fixed
strictly upper-triangular element, which is locally nilpotent there.  Over
such a ring the geometric series of c X^p truncates to a polynomial, so the
inverse of 1 - c X^p exists inside the skew polynomial ring itself and every
identity can be checked exactly.
"""

from __future__ import annotations

from .ore import skew_product

__all__ = [
    "zero_matrix",
    "identity_matrix",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_mul",
    "mat_is_zero",
    "is_strictly_upper",
    "nil_index",
    "InnerDerivation",
    "MatSkewPoly",
    "s_index",
    "invert_one_minus",
    "coefficient_identity",
    "vandermonde_extract",
]


# -- dense exact matrices (tuples of tuples) ----------------------------------


def zero_matrix(field, n: int) -> tuple:
    return tuple((field.zero,) * n for _ in range(n))


def identity_matrix(field, n: int) -> tuple:
    return tuple(
        tuple(field.one if r == c else field.zero for c in range(n))
        for r in range(n)
    )


def mat_add(field, a, b):
    return tuple(tuple(map(field.add, ra, rb)) for ra, rb in zip(a, b))


def mat_sub(field, a, b):
    return tuple(tuple(map(field.sub, ra, rb)) for ra, rb in zip(a, b))


def mat_scale(field, a, c):
    return tuple(tuple(field.mul(c, v) for v in row) for row in a)


def mat_mul(field, a, b):
    cols = tuple(zip(*b))
    out = []
    for row in a:
        out.append(tuple(
            _dot(field, row, col) for col in cols
        ))
    return tuple(out)


def _dot(field, xs, ys):
    acc = field.zero
    for x, y in zip(xs, ys):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


def mat_is_zero(a) -> bool:
    return all(not v for row in a for v in row)


def is_strictly_upper(a) -> bool:
    return all(len(row) == len(a) for row in a) and all(
        not v for r, row in enumerate(a) for c, v in enumerate(row) if c <= r
    )


def nil_index(field, a) -> int:
    """Least e >= 1 with a^e = 0; requires a nilpotent (strictly upper)."""
    e, power = 1, a
    while not mat_is_zero(power):
        power = mat_mul(field, power, a)
        e += 1
        if e > len(a) + 1:
            raise ArithmeticError("matrix is not nilpotent")
    return e


class InnerDerivation:
    """a -> u a - a u for a fixed strictly upper-triangular u."""

    def __init__(self, field, u):
        if not is_strictly_upper(u):
            raise ValueError("inner derivations here take a strictly "
                             "upper-triangular element")
        self.field = field
        self.u = u
        self.n = len(u)

    def __call__(self, a):
        f = self.field
        return mat_sub(f, mat_mul(f, self.u, a), mat_mul(f, a, self.u))


def s_index(r, D: InnerDerivation) -> int:
    """Least n with the n-fold derivative of r equal to zero; 0 for r = 0."""
    if mat_is_zero(r):
        return 0
    n, cur = 0, r
    bound = 2 * D.n
    while not mat_is_zero(cur):
        cur = D(cur)
        n += 1
        if n > bound:
            raise ArithmeticError("derivation failed to nilpotate within the "
                                  "strict upper-triangular bound")
    return n


# -- skew polynomials over the matrix hull ------------------------------------


class MatSkewPoly:
    """Sparse X-polynomial with matrix coefficients; X a = a X + D(a)."""

    __slots__ = ("field", "D", "coeffs")

    def __init__(self, field, D: InnerDerivation, coeffs: dict[int, tuple] | None = None):
        self.field = field
        self.D = D
        self.coeffs = {} if coeffs is None else {
            t: m for t, m in coeffs.items() if not mat_is_zero(m)
        }

    @classmethod
    def one(cls, field, D) -> "MatSkewPoly":
        return cls(field, D, {0: identity_matrix(field, D.n)})

    @classmethod
    def term(cls, field, D, a, p: int) -> "MatSkewPoly":
        return cls(field, D, {p: a})

    def coeff(self, t: int):
        return self.coeffs.get(t, zero_matrix(self.field, self.D.n))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "MatSkewPoly") -> "MatSkewPoly":
        f = self.field
        out = dict(self.coeffs)
        for t, m in other.coeffs.items():
            s = mat_add(f, out[t], m) if t in out else m
            if mat_is_zero(s):
                out.pop(t, None)
            else:
                out[t] = s
        return MatSkewPoly(f, self.D, out)

    def __sub__(self, other: "MatSkewPoly") -> "MatSkewPoly":
        f = self.field
        out = dict(self.coeffs)
        for t, m in other.coeffs.items():
            s = mat_sub(f, out[t], m) if t in out else mat_scale(f, m, f.neg(f.one))
            if mat_is_zero(s):
                out.pop(t, None)
            else:
                out[t] = s
        return MatSkewPoly(f, self.D, out)

    def __mul__(self, other: "MatSkewPoly") -> "MatSkewPoly":
        f = self.field
        return MatSkewPoly(f, self.D, skew_product(
            f, self.coeffs, other.coeffs, self.D,
            lambda a, b, w: mat_mul(f, a, mat_scale(f, b, w)),
            lambda a, b: mat_add(f, a, b), mat_is_zero))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatSkewPoly) and other.coeffs == self.coeffs)

    __hash__ = None


def invert_one_minus(c, p: int, D: InnerDerivation) -> MatSkewPoly:
    """Inverse of 1 - c X^p as a genuine polynomial, identities verified.

    Truncation is guaranteed: every coefficient of (c X^p)^i is a sum of
    products of i strictly upper-triangular factors, so powers die at the
    ambient nilpotency index.
    """
    field = D.field
    if not is_strictly_upper(c):
        raise ValueError("c must lie in the strictly upper-triangular ring")
    if p <= s_index(c, D):
        raise ValueError(f"need p > s_index(c) = {s_index(c, D)}, got {p}")
    one = MatSkewPoly.one(field, D)
    g = MatSkewPoly.term(field, D, c, p)
    inv = one
    power = one
    for _ in range(D.n + 1):
        power = power * g
        if power.is_zero():
            break
        inv = inv + power
    else:
        raise ArithmeticError("geometric series failed to truncate")
    lhs = (one - g) * inv
    rhs = inv * (one - g)
    if lhs != one or rhs != one:
        raise ArithmeticError("inverse identity check failed")
    return inv


def coefficient_identity(c, p: int, n: int, D: InnerDerivation) -> bool:
    """Whether the X^(n*p) coefficient of (c X^p)^n equals the matrix power
    c^n (it must, whenever p exceeds the derivation index of c)."""
    field = D.field
    g = MatSkewPoly.term(field, D, c, p)
    power = MatSkewPoly.one(field, D)
    for _ in range(n):
        power = power * g
    expected = identity_matrix(field, D.n)
    for _ in range(n):
        expected = mat_mul(field, expected, c)
    return power.coeff(n * p) == expected


def vandermonde_extract(field, samples, lo: int, hi: int) -> list:
    """Recover matrix components g_lo..g_hi from samples (alpha, value) with
    value = sum of alpha^d * g_d, by exact elimination.

    Needs hi - lo + 1 samples with pairwise distinct nonzero alphas; extra
    samples are ignored (the first ones are used).
    """
    m = hi - lo + 1
    if m <= 0:
        raise ValueError("empty degree range")
    if len(samples) < m:
        raise ValueError(f"need at least {m} samples, got {len(samples)}")
    use = list(samples[:m])
    alphas = [a for a, _ in use]
    if len(set(alphas)) != len(alphas):
        raise ValueError("repeated alpha samples make the system singular")
    if any(not a for a in alphas):
        raise ValueError("alpha = 0 contributes no information; use nonzero samples")
    # rows: sum_d alpha^d g_d = value, d = lo..hi
    rows = []
    for alpha, value in use:
        coeffs = []
        power = field.one
        for _ in range(lo):
            power = field.mul(power, alpha)
        for _ in range(m):
            coeffs.append(power)
            power = field.mul(power, alpha)
        rows.append((coeffs, value))
    # forward elimination then back substitution, exact
    for col in range(m):
        pivot = next(i for i in range(col, m) if rows[i][0][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pc, pv = rows[col]
        inv = field.inv(pc[col])
        pc = [field.mul(inv, x) for x in pc]
        pv = mat_scale(field, pv, inv)
        rows[col] = (pc, pv)
        for i in range(col + 1, m):
            ic, iv = rows[i]
            f = ic[col]
            if not f:
                continue
            ic = [field.sub(x, field.mul(f, y)) for x, y in zip(ic, pc)]
            iv = mat_sub(field, iv, mat_scale(field, pv, f))
            rows[i] = (ic, iv)
    out: list = [None] * m
    for col in range(m - 1, -1, -1):
        pc, pv = rows[col]
        acc = pv
        for j in range(col + 1, m):
            if pc[j]:
                acc = mat_sub(field, acc, mat_scale(field, out[j], pc[j]))
        out[col] = acc
    return out
