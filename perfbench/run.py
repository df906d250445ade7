"""Run one dpring benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dpring is imported from its `src/`.  Each
sample is a fresh single-threaded worker process (worker.py), started only
after the previous one has ended: one user waiting on one campaign at a time.
Samples repeat while another one fits in S seconds; at least one runs.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json: medians of
the samples' wall time and peak RSS, and of the set-up times of the samples
and of the SETUP_PROBES set-up-only processes run before each sample.
--trace 1 alternates untraced and traced samples and prints the per-layer
metrics: medians of the traced self times, counts that must be equal in
every traced sample, and the traced over untraced wall-time ratio.  The last line of stdout is the JSON result.  The
run exits with status 1, printing no result, when a worker cannot start or
set up, for instance because src/dpring is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # set-up-only processes before each sample
SAMPLE_TIMEOUT_S = 170


class SampleError(RuntimeError):
    pass


def sample(workload: str, seed: int, mode: str) -> dict:
    """One worker process; returns its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{mode} sample ran past {SAMPLE_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SampleError(f"{mode} sample exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "wall_s" in result:
        print(f"{workload} {mode} sample: wall {result['wall_s']:.3f} s, "
              f"set-up {result['setup_s']:.3f} s", file=sys.stderr)
    return result


def repeat(seconds: float, take):
    """Call take() until another call would likely end past `seconds`."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(take())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def untraced(workload: str, seed: int, seconds: int):
    setups = []

    def take():
        # probes spread over the run, so set-up sees the same machine as wall
        setups.extend(sample(workload, seed, "setup")["setup_s"]
                      for _ in range(SETUP_PROBES))
        return sample(workload, seed, "plain")

    runs = repeat(seconds, take)
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return metrics, runs, 0, []


def traced(workload: str, seed: int, seconds: int):
    pairs = repeat(seconds, lambda: (sample(workload, seed, "plain"),
                                     sample(workload, seed, "traced")))
    layers = [t["layers"] for _, t in pairs]
    metrics = {}
    unequal = []
    for key in layers[0]:
        values = [lay[key] for lay in layers]
        if spans.is_time(key):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if len(set(values)) > 1:
                unequal.append(f"{key} differs between traced samples: {values}")
    metrics["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in pairs)
    attempted, problems = workloads.coverage(workload, metrics)
    if len(layers) > 1:
        attempted += 1
        problems += unequal[:1]
    runs = [r for pair in pairs for r in pair]
    return metrics, runs, attempted, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dpring" / "__init__.py").is_file():
        print(f"no dpring sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    measure = traced if args.trace else untraced
    try:
        metrics, runs, attempted, problems = measure(
            args.workload, args.seed, args.seconds)
    except SampleError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for r in runs:
        attempted += r["attempted"]
        problems += r["problems"]
    for p in problems:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
