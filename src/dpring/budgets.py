"""Enumeration budgets shared by the expansion and span machinery."""

from __future__ import annotations

from dataclasses import dataclass


class BudgetExceeded(RuntimeError):
    """Raised when an operation would enumerate past a configured budget."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = dict(details)


@dataclass(frozen=True)
class Budgets:
    """Hard caps that stop a large enumeration before it thrashes.

    max_expand_m: largest exponent accepted by the full power expansion.
    max_component_dim: largest bi-graded component dimension a span query
        may touch.
    max_basis_size: largest spanning-set size a span query may enumerate
        (rows are counted as they are enumerated; the row past the cap
        raises, so it also bounds the rank of any echelon built from them).
        A `words` query, and a `collisions` verdict or normal form, which
        enumerate no family, count it in closed form and refuse it with the
        same message.
    """

    max_expand_m: int = 16
    max_component_dim: int = 1_000_000
    max_basis_size: int = 2_000_000


DEFAULT_BUDGETS = Budgets()
