"""The benchmark's workloads: campaigns from the source paper and the
acceptance suite, with the values their reports must reproduce.

`build(name)` is the timed set-up: it imports dpring and builds the fields
and `ConstructionParams`, then returns the workload's steps.  Each step maps
the benchmark seed to one campaign report.  Campaigns without a seed give the
same report at every seed, so their digests are checked at every seed; seeded
campaigns are checked against their digest only at DEFAULT_SEED.  See
README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from spans import calls_metric

DEFAULT_SEED = 0
GF_PRIME = 2**31 - 1


@dataclass(frozen=True)
class Step:
    name: str
    run: Callable[[int], object]   # seed -> CampaignReport
    seeded: bool = False
    # detail key -> values it must take, in check order, at every seed
    known: dict = field(default_factory=dict)


# Layers each workload must reach, and layers it must bypass (zero calls).
EXERCISED = {
    "inclusions": ("construction.rows", "membership.echelon", "membership.member",
                   "membership.normal_form", "membership.verify"),
    "escape_l2": ("ore.window", "construction.rows", "membership.echelon",
                  "membership.member", "membership.verify"),
    "campaign_mix_gf": ("ore.window", "ore.expand", "construction.rows",
                        "construction.words", "construction.reorder",
                        "membership.echelon", "membership.member",
                        "membership.normal_form", "membership.verify",
                        "freealg.mul", "series.invert", "series.identity",
                        "series.extract"),
}
BYPASSED = {
    "inclusions": ("ore.window", "ore.expand", "construction.words",
                   "construction.reorder", "freealg.mul", "series.invert",
                   "series.identity", "series.extract"),
    "escape_l2": ("ore.expand", "construction.words", "construction.reorder",
                  "series.invert", "series.identity", "series.extract"),
    "campaign_mix_gf": (),
}
WORKLOADS = tuple(EXERCISED)

# sha256 of CampaignReport.to_json(); seeded steps at DEFAULT_SEED
DIGESTS = {
    "inclusions_L20_d4": "f01bb8ec8e898826f1b4f1519ef28865c8ad2b3461bbdce7c0a0e86cd5f49767",
    "inclusions_L30_d3": "7ccf23790395e0ae551986567753fe65beb5ac5b353a82cfd8bf715b956ef70a",
    "escape_3_2_2": "64f6065c4bd750233af534b02ba6921ff3275b19141ccc66da389de580e326ea",
    "counterexample": "fe1349c590d39ecb0dc0c90a11739083450a839d4eec93abb74cc23fbdf82449",
    "z_closure": "70f6cbd31b2dcd7998b075dc24daa8ff1daedde7efe94f5b0c4c78efc6ab59d3",
    "products": "d4b9acc8b38d54d59ebbfbfc0c8b1dc0403556e697721b40dc97d1ca84436cf8",
    "phi": "0438ff3276b44c1747a337bcadb5d3178a7d7943cc2521ad1d01d561ba31b124",
    "ballot": "d569413cd81f359e0a582b938d494006bd03571e4e68ab0829367c5622ed9bdf",
    "series": "0ff516cf28be818911cf23757c564aafe9f20b06e22aca3a322a23f093972019",
    "escape_100_3_1": "43e4547511798917357d6122be2fc5c13ce4a9f040630fecdde7826f7b16560e",
}


def build(name: str) -> list[Step]:
    from dpring import ConstructionParams, PrimeField, RationalField, harness as H

    if name == "inclusions":
        p = ConstructionParams(10, 3, 1, RationalField())
        return [
            Step("inclusions_L20_d4", lambda seed: H.verify_inclusions(
                p, k=1, lengths=(20,), degree_cap=4)),
            Step("inclusions_L30_d3", lambda seed: H.verify_inclusions(
                p, k=1, lengths=(30,), degree_cap=3)),
        ]
    if name == "escape_l2":
        p = ConstructionParams(3, 2, 2, RationalField())
        return [Step("escape_3_2_2", lambda seed: H.locate_escape(p, k=2, h=1),
                     known={"escape_index": [77], "floor": [55]})]
    if name == "campaign_mix_gf":
        gf = PrimeField(GF_PRIME)
        p10 = ConstructionParams(10, 3, 1, gf)
        p222 = ConstructionParams(2, 2, 2, gf)
        p421 = ConstructionParams(4, 2, 1, gf)
        p322 = ConstructionParams(3, 2, 2, gf)
        p100 = ConstructionParams(100, 3, 1, gf)
        return [
            Step("counterexample", lambda seed: H.verify_counterexample(
                p10, h_max=3, products=20, seed=seed),
                seeded=True, known={"escape_index": [8, 17, 26]}),
            # verify_limit=0: the default re-verifies the first four samples,
            # and which components they fall in swung this step between 2.2
            # and 4.6 s across seeds; every seed builds the same echelons.
            Step("z_closure", lambda seed: H.verify_z_closure(
                p222, samples=100, seed=seed, verify_limit=0), seeded=True),
            Step("products", lambda seed: H.verify_products(
                p421, trials=50, seed=seed), seeded=True),
            Step("phi", lambda seed: H.verify_phi(p322, seed=seed), seeded=True),
            Step("ballot", lambda seed: H.verify_ballot(gf, m_max=12)),
            Step("series", lambda seed: H.verify_series(
                gf, dimension=4, trials=50, seed=seed), seeded=True),
            Step("escape_100_3_1", lambda seed: H.locate_escape(p100)),
        ]
    raise ValueError(f"unknown workload {name!r} (one of {', '.join(WORKLOADS)})")


def coverage(name: str, layers: dict) -> tuple[int, list[str]]:
    """Checks that a traced run reached every layer its workload exercises
    and none it bypasses; returns (checks attempted, failures)."""
    problems = [f"{name}: traced layer {layer} recorded no call"
                for layer in EXERCISED[name] if not layers[calls_metric(layer)]]
    problems += [f"{name}: bypassed layer {layer} recorded "
                 f"{layers[calls_metric(layer)]} calls"
                 for layer in BYPASSED[name] if layers[calls_metric(layer)]]
    return len(EXERCISED[name]) + len(BYPASSED[name]), problems


def digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def check(step: Step, seed: int, report) -> tuple[int, list[str]]:
    """Checks attempted on one report, and a line for each that failed.

    Every check record of the campaign counts; on top come the known values
    and, where it applies, the report digest.
    """
    problems = [f"{step.name}: {c.claim} [{c.component}] failed"
                for c in report.checks if c.verdict == "fail"]
    attempted = len(report.checks)
    for key, want in step.known.items():
        got = [c.detail[key] for c in report.checks if key in c.detail]
        attempted += 1
        if got != want:
            problems.append(f"{step.name}: {key} is {got}, expected {want}")
    if not step.seeded or seed == DEFAULT_SEED:
        attempted += 1
        got = digest(report)
        if got != DIGESTS.get(step.name):
            problems.append(f"{step.name}: report digest {got} does not match")
    return attempted, problems
