"""Enumeration budgets shared by the expansion and span machinery."""

from __future__ import annotations

from dataclasses import dataclass, fields


class BudgetExceeded(RuntimeError):
    """Raised when an operation would enumerate past a configured budget."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = dict(details)


@dataclass(frozen=True)
class Budgets:
    """Hard caps that stop a large enumeration before it thrashes; none may
    be negative.

    max_expand_m: largest exponent accepted by the full power expansion.
    max_component_dim: largest bi-graded component dimension a span query
        may touch; it also bounds the largest component of an `expand`
        window and the word length m of an escape descent.
    max_basis_size: largest spanning-set size a span query may touch.  The
        family of every space is counted in closed form and refused before
        its first core is built, whether or not the query enumerates it;
        the cap also bounds the rank of any echelon built from the rows.
    """

    max_expand_m: int = 16
    max_component_dim: int = 1_000_000
    max_basis_size: int = 2_000_000

    def __post_init__(self):
        for cap in fields(self):
            value = getattr(self, cap.name)
            if value < 0:
                raise ValueError(f"{cap.name} must be >= 0, got {value}")


DEFAULT_BUDGETS = Budgets()
