"""Exact scalar fields: arbitrary-precision rationals and prime residue fields.

Scalars are plain Python values (int or Fraction for the rationals, int
residues in [0, p) for GF(p)); the field object supplies the arithmetic.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["FieldError", "RationalField", "PrimeField", "make_field"]


class FieldError(ValueError):
    """Invalid field configuration or unparsable scalar text."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, exact for anything we will ever see
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _canonical(r):
    """A rational as an int when it is integral, else as a Fraction."""
    return r if type(r) is int or r.denominator != 1 else r.numerator


class RationalField:
    """The default coefficient field, backed by int/Fraction arithmetic.

    Integer values are kept as plain ints so that the hot paths (power
    expansion, span assembly, elimination) stay in machine-assisted bignum
    arithmetic; Fractions only appear once division has happened.  add,
    sub, mul, inv and coerce return an integral result as an int, even from
    Fraction inputs, so on such results a Fraction always has a denominator
    above one.
    """

    name = "rationals"
    characteristic = 0
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, bool):
            raise FieldError("booleans are not scalars")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            return _canonical(value)
        raise FieldError(f"cannot coerce {value!r} into the rationals")

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def reduce(self, a):
        """An exact int or Fraction, such as an integer weight or a sum of
        products of scalars, as a scalar of the field: the one map of exact
        values into it."""
        return _canonical(a)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:
            return int(a)  # its own inverse, without building a Fraction
        return _canonical(1 / Fraction(a))

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        try:
            return self.coerce(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational scalar {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """GF(p) with residues stored as plain ints in [0, p)."""

    name = "gf"
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"prime field modulus must be prime, got {p}")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, value):
        if isinstance(value, bool):
            raise FieldError("booleans are not scalars")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value) % self.p
        raise FieldError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def reduce(self, a):
        """An int, such as an integer weight or a sum of products of
        residues, as a residue: the one map of exact values into the field."""
        return a % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def format(self, a) -> str:
        return str(a % self.p)

    def parse(self, text: str):
        text = text.strip()
        if "/" in text:
            raise FieldError(f"rational syntax {text!r} in a prime-field scalar")
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise FieldError(f"bad prime-field scalar {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def make_field(name: str, prime: int | None = None):
    """Build a field from its configuration name ("rationals" or "gf")."""
    name = name.strip().lower()
    if name in ("rationals", "q"):
        if prime is not None:
            raise FieldError("the rationals take no prime modulus")
        return RationalField()
    if name == "gf":
        if prime is None:
            raise FieldError("field gf requires a prime modulus")
        return PrimeField(prime)
    raise FieldError(f"unknown field {name!r} (expected 'rationals' or 'gf')")
