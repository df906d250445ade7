"""Nilpotent matrix algebras with inner derivations, and the differential
polynomials over them.

The ambient ring is the strictly upper-triangular n x n matrices, which is
nilpotent of index <= n; its unital hull embeds as upper-triangular matrices
with a constant diagonal.  The derivation is commutation with a fixed
strictly upper-triangular element, which is locally nilpotent there.
`InnerDerivation` is that matrix ring with its derivation, the coefficient
ring of `ore.OrePoly` here.  Over such a ring the geometric series of c X^p
truncates to a polynomial, so the inverse of 1 - c X^p exists inside the
differential polynomial ring itself and every identity can be checked
exactly.
"""

from __future__ import annotations

from operator import mul

from .ore import OrePoly

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


def mat_mul(field, a, b, w=1):
    """The product a (w b), with w one unless given.  Each entry is one
    exact sum of products, of ints or Fractions, times w, reduced once into
    the field by `field.reduce`."""
    cols = tuple(zip(*b))
    reduce = field.reduce
    return tuple(tuple(reduce(w * sum(map(mul, row, col))) for col in cols)
                 for row in a)


def mat_is_zero(a) -> bool:
    return not any(map(any, a))


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
    """The n x n matrices over `field` with the derivation a -> u a - a u,
    for a fixed strictly upper-triangular u: calling it derives, and it
    supplies the ring operations `ore.OrePoly` needs."""

    def __init__(self, field, u):
        if not is_strictly_upper(u):
            raise ValueError("inner derivations here take a strictly "
                             "upper-triangular element")
        self.field = field
        self.u = u
        self.n = len(u)

    def __call__(self, a):
        """u a - a u, each entry one exact difference of two sums of
        products, reduced once into the field."""
        reduce = self.field.reduce
        return tuple(
            tuple(reduce(sum(map(mul, u_row, a_col))
                         - sum(map(mul, a_row, u_col)))
                  for a_col, u_col in zip(zip(*a), zip(*self.u)))
            for u_row, a_row in zip(self.u, a))

    def zero(self):
        return zero_matrix(self.field, self.n)

    def one(self):
        return identity_matrix(self.field, self.n)

    def add(self, a, b):
        return mat_add(self.field, a, b)

    add_into = add  # matrices are immutable tuples, so nothing is reused

    def sub(self, a, b):
        return mat_sub(self.field, a, b)

    is_zero = staticmethod(mat_is_zero)

    def scaled(self, a, b, w):
        """a * (w b) for a nonzero scalar w."""
        return mat_mul(self.field, a, b, w)

    def __eq__(self, other) -> bool:
        return (isinstance(other, InnerDerivation)
                and other.field == self.field and other.u == self.u)


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


def invert_one_minus(c, p: int, D: InnerDerivation) -> OrePoly:
    """Inverse of 1 - c X^p as a genuine polynomial, identities verified.

    Truncation is guaranteed: every coefficient of (c X^p)^i is a sum of
    products of i strictly upper-triangular factors, so powers die at the
    ambient nilpotency index.
    """
    if not is_strictly_upper(c):
        raise ValueError("c must lie in the strictly upper-triangular ring")
    s = s_index(c, D)
    if p <= s:
        raise ValueError(f"need p > s_index(c) = {s}, got {p}")
    one = OrePoly.one(D)
    g = OrePoly(D, {p: c})
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
    g = OrePoly(D, {p: c})
    power = OrePoly.one(D)
    for _ in range(n):
        power = power * g
    expected = D.one()
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
