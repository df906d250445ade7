"""Tests of the benchmark itself: tracer coverage, exact counts, and the
result contract.

    python3 -m pytest perfbench -q

The workload tests run every workload traced twice (about a minute on two
cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture
def dpring_loaded():
    import dpring
    import dpring.cli  # noqa: F401  (every dpring module that could bind a name)
    return dpring


def test_install_rebinds_every_binding(dpring_loaded):
    by_name = {m.__name__: m for m in spans.dpring_modules()}
    originals = {id(getattr(by_name[mod], fname)): (mod, fname)
                 for mod, fname, _ in spans.REBOUND}
    harness = by_name["dpring.harness"]
    tracer = spans.Tracer().install()
    try:
        left = []
        for m in spans.dpring_modules():
            for attr, value in vars(m).items():
                if id(value) in originals and (m.__name__, attr) not in spans.KEEP_ORIGINAL:
                    left.append(f"{m.__name__}.{attr}")
        assert left == []
        for name in ("expand_power_window", "expand_power", "span_rows",
                     "signed_reorder", "words_iter"):
            assert id(getattr(harness, name)) not in originals, name
    finally:
        tracer.uninstall()
    for key, (mod, fname) in originals.items():
        assert id(getattr(by_name[mod], fname)) == key


def test_self_times_are_disjoint(dpring_loaded):
    from dpring import ConstructionParams, harness

    tracer = spans.Tracer().install()
    try:
        report = harness.verify_counterexample(ConstructionParams(), h_max=2, products=3)
    finally:
        tracer.uninstall()
    assert report.verdict == "pass"
    own, inside = tracer.self_times()
    assert min(own.values()) >= 0
    assert sum(own.values()) == pytest.approx(inside)
    assert tracer.counts["construction.rows.items"] > 0


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [run.sample(w, workloads.DEFAULT_SEED, "traced") for _ in range(2)]
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_passes_and_reaches_its_layers(traced_twice, workload):
    result = traced_twice[workload][0]
    assert result["problems"] == []
    _, problems = workloads.coverage(workload, result["layers"])
    assert problems == []


def test_window_expansion_bypassed_on_inclusions(traced_twice):
    assert traced_twice["inclusions"][0]["layers"]["ore.window.calls"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = (r["layers"] for r in traced_twice[workload])
    counts = {k: v for k, v in first.items() if not spans.is_time(k)}
    assert counts == {k: second[k] for k in counts}
    assert counts["construction.rows.enumerated"] > 0


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inclusions",
         "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_untraced_result_matches_contract():
    proc = _bench(run.ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
