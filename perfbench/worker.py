"""One benchmark sample in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode plain|traced|setup

Times the set-up (importing dpring, building fields and parameters), then,
unless the mode is `setup`, runs every step of the workload and checks the
reports.  Prints one JSON object on stdout.  run.py starts one of these per
sample, so no sample inherits caches or heap from another.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "setup"), default="plain")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    steps = workloads.build(args.workload)
    setup_s = time.perf_counter() - t0
    import dpring
    if SRC not in Path(dpring.__file__).resolve().parents:
        print(f"dpring was imported from {dpring.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = spans.Tracer().install() if args.mode == "traced" else None
    reports = []
    errors = []
    t0 = time.perf_counter()
    for step in steps:
        try:
            reports.append((step, step.run(args.seed)))
        except Exception:  # a campaign that raises is a failed check
            errors.append(f"{step.name}: raised\n{traceback.format_exc()}")
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    attempted, problems = len(errors), list(errors)
    for step, report in reports:
        n, bad = workloads.check(step, args.seed, report)
        attempted += n
        problems += bad
    out.update({
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "problems": problems,
        "digests": {step.name: workloads.digest(r) for step, r in reports},
    })
    if tracer is not None:
        checks = sum(len(r.checks) for _, r in reports)
        out["layers"] = tracer.metrics(wall_s, checks)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
