"""Exact computations in a differential polynomial ring over a free algebra.

The package provides the free-algebra arithmetic with the shift derivation,
the twisted polynomial ring built on top of it, checkpoint-driven span
families with exact membership certificates, a signed reordering map, matrix
series identities over nilpotent derivations, and verification campaigns
with deterministic JSON reports.
"""
from __future__ import annotations

from .budgets import DEFAULT_BUDGETS, BudgetExceeded, Budgets
from .construction import (
    CollisionElement,
    ConstructionParams,
    ParamsError,
    SpanOracle,
    SpanQuery,
    collision_elements,
    collision_test,
    count_words,
    signed_reorder,
    span_rows,
    words_iter,
)
from .fields import FieldError, PrimeField, RationalField, make_field
from .freealg import (
    FreePoly,
    ShiftDerivation,
    derive,
    poly_from_text,
    poly_to_text,
    word_key,
)
from .harness import CAMPAIGNS, CampaignReport, run_campaign
from .membership import Echelon, MembershipCertificate
from .ore import (
    OrePoly,
    PowerCoefficient,
    commute_past,
    expand_power,
    expand_power_window,
    is_ballot_word,
    ore_from_text,
    ore_to_text,
    word_weight,
)
from .series import (
    InnerDerivation,
    coefficient_identity,
    invert_one_minus,
    nil_index,
    s_index,
    vandermonde_extract,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Budgets",
    "CAMPAIGNS",
    "CampaignReport",
    "CollisionElement",
    "ConstructionParams",
    "DEFAULT_BUDGETS",
    "Echelon",
    "FieldError",
    "FreePoly",
    "InnerDerivation",
    "MembershipCertificate",
    "OrePoly",
    "ParamsError",
    "PowerCoefficient",
    "PrimeField",
    "RationalField",
    "ShiftDerivation",
    "SpanOracle",
    "SpanQuery",
    "coefficient_identity",
    "collision_elements",
    "collision_test",
    "commute_past",
    "count_words",
    "derive",
    "expand_power",
    "expand_power_window",
    "invert_one_minus",
    "is_ballot_word",
    "make_field",
    "nil_index",
    "ore_from_text",
    "ore_to_text",
    "poly_from_text",
    "poly_to_text",
    "run_campaign",
    "s_index",
    "signed_reorder",
    "span_rows",
    "vandermonde_extract",
    "word_key",
    "word_weight",
    "words_iter",
    "__version__",
]
