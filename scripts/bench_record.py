"""Record the benchmark of one or more source trees as one JSON file.

    python scripts/bench_record.py --tree parent=PATH --tree change=. \
        --samples 10 --step-samples 5 --out BENCH.json

Each tree is a checkout of this repository (for instance the parent commit
in a `git worktree`, and the working tree).  For every workload named in the
first tree's BENCHMARK.json, the script runs SAMPLES seed-0 samples of
`perfbench/worker.py --mode plain` per tree, alternating the trees sample by
sample so that machine load falls on each alike, then one `--mode traced`
sample per tree.  It also times every step of `campaign_mix_gf`, as
`workloads.build` returns them, in STEP-SAMPLES processes per tree,
alternated the same way, and then runs each tree's tier-1 suite once
(`pytest -q -p no:cacheprovider -p no:benchmark --durations=10`), the
trees in turn.  Every sample is a fresh process with dpring imported from
its tree's `src/`, `PYTHONHASHSEED=0` as `perfbench/run.py` sets it, and
`PYTHONDONTWRITEBYTECODE=1`, so no bytecode is written into a tree;
`setup_s` includes compiling dpring only where a tree holds none.  The
tier-1 runs keep Hypothesis's example database in a temporary directory and
block the pytest-benchmark plugin's `.benchmarks` folder, so they too write
no file into either tree.  Only `time.perf_counter` and the processes' own
rusage are read.

The file holds, per workload and tree, the median and interquartile range
of `wall_s`, `setup_s` and `peak_rss_mb` with every sample, `problems` (the
failed checks and digests of all samples, traced included) and the traced
layers; per step, the median and interquartile range of its time; with two
trees or more, the pairwise ratio of the last tree's `wall_s` to the
first's, sample by sample; per tree, the tier-1 wall time, exit status,
summary line and ten slowest test phases; and `nproc` and `/proc/loadavg`
before and after the run.  A label may name the commit, as in
`--tree parent-abc1234=PATH`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 0
TIMEOUT_S = 300
TIER1_TIMEOUT_S = 1800
DURATION = re.compile(r"([\d.]+)s (setup|call|teardown) +(\S.*)$")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
STEP_TIMES = """
import json, sys, time
sys.path.insert(0, "perfbench")
import workloads
out = {}
for step in workloads.build("campaign_mix_gf"):
    t0 = time.perf_counter()
    step.run(%d)
    out[step.name] = time.perf_counter() - t0
print(json.dumps(out))
""" % SEED


def _run(tree: Path, args: list[str]) -> dict:
    """One fresh Python process in a tree; returns the JSON it printed last."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree}: {' '.join(args[:3])} exited with status "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worker(tree: Path, workload: str, mode: str) -> dict:
    return _run(tree, ["perfbench/worker.py", "--workload", workload,
                       "--seed", str(SEED), "--mode", mode])


def _tier1(tree: Path) -> dict:
    """One run of a tree's tier-1 suite: its wall time, exit status, summary
    line and the slowest phases that --durations lists."""
    with tempfile.TemporaryDirectory() as hypothesis_dir:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=hypothesis_dir)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "no:benchmark", "--durations=10"],
            cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIER1_TIMEOUT_S)
        wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    slowest = [[float(s), phase, test] for s, phase, test in
               (m.groups() for m in map(DURATION.match, lines) if m)]
    return {"wall_s": wall, "returncode": proc.returncode,
            "summary": lines[-1].strip("= ") if lines else "",
            "slowest": slowest}


def _spread(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles), and the values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1,
            "values": values}


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _is_count(metric: str) -> bool:
    """Whether a traced metric is exact: no time, and not the overhead
    ratio, which is one."""
    return not metric.endswith((".s", "_s")) and metric != "trace.overhead_ratio"


def record(trees: dict[str, Path], samples: int, step_samples: int) -> dict:
    labels = list(trees)
    first = trees[labels[0]]
    names = [w["name"] for w in
             json.loads((first / "BENCHMARK.json").read_text())["workloads"]]
    out = {"schema": "dpring.bench/1", "seed": SEED, "samples": samples,
           "step_samples": step_samples, "trees": labels,
           "nproc": os.cpu_count(), "loadavg_before": _loadavg(),
           "workloads": {}, "campaign_mix_gf_steps": {}}
    started = time.perf_counter()
    for workload in names:
        plain: dict[str, list[dict]] = {label: [] for label in trees}
        for i in range(samples):
            for label, tree in trees.items():
                plain[label].append(_worker(tree, workload, "plain"))
                print(f"{workload} {label} {i + 1}/{samples}: wall "
                      f"{plain[label][-1]['wall_s']:.3f} s", file=sys.stderr)
        traced = {label: _worker(tree, workload, "traced")
                  for label, tree in trees.items()}
        entry: dict = {}
        for label in trees:
            runs = plain[label] + [traced[label]]
            entry[label] = {
                **{m: _spread([r[m] for r in plain[label]])
                   for m in END_TO_END},
                "problems": sum(len(r["problems"]) for r in runs),
                "traced_layers": traced[label]["layers"],
            }
        counts = [{k: v for k, v in traced[label]["layers"].items()
                   if _is_count(k)} for label in trees]
        entry["traced_counts_equal"] = all(c == counts[0] for c in counts)
        if len(trees) > 1:
            base, last = plain[labels[0]], plain[labels[-1]]
            ratios = [b["wall_s"] / a["wall_s"] for a, b in zip(base, last)]
            entry["wall_s_ratio_last_to_first"] = {
                **_spread(ratios),
                "faster_pairs": sum(r < 1 for r in ratios)}
        out["workloads"][workload] = entry
    steps: dict[str, list[dict]] = {label: [] for label in trees}
    for i in range(step_samples):
        for label, tree in trees.items():
            steps[label].append(_run(tree, ["-c", STEP_TIMES]))
            print(f"campaign_mix_gf steps {label} {i + 1}/{step_samples}",
                  file=sys.stderr)
    for label in trees:
        out["campaign_mix_gf_steps"][label] = {
            name: _spread([s[name] for s in steps[label]])
            for name in steps[label][0]}
    out["tier1"] = {}
    for label, tree in trees.items():
        out["tier1"][label] = _tier1(tree)
        print(f"tier-1 {label}: {out['tier1'][label]['wall_s']:.1f} s, "
              f"{out['tier1'][label]['summary']}", file=sys.stderr)
    out["loadavg_after"] = _loadavg()
    out["elapsed_s"] = time.perf_counter() - started
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--tree", action="append", required=True,
                    metavar="LABEL=PATH",
                    help="a checkout to measure; give it once per tree, the "
                         "base first")
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--step-samples", type=int, default=5)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.samples < 1 or args.step_samples < 1:
        ap.error("--samples and --step-samples must be >= 1")
    trees = {}
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep or not label or label in trees:
            ap.error(f"--tree wants a new LABEL=PATH, got {spec!r}")
        trees[label] = Path(path).resolve()
    doc = record(trees, args.samples, args.step_samples)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
