"""Budget sweep: CLI runs at and past the expansion budget end, each in a
child process under an address-space limit and a timeout, with a JSON
document: a report (exit 0) or a budget refusal (exit 4).  A traceback, a
MemoryError or a timeout fails the run."""
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 1536 * 2**20  # 1.5 GB
TIMEOUT_S = 60

RUNS = {
    **{f"expand_m{m}": ["expand", "--m", str(m)] for m in (12, 13, 14, 16)},
    **{f"expand_m{m}_window0": ["expand", "--m", str(m), "--window", "0"]
       for m in (12, 13, 14, 16)},
    **{f"ballot_m{m}": ["verify", "--campaign", "ballot", "--knob",
                        f"m_max={m}"] for m in (13, 16)},
}


def _limit_address_space():  # runs in the child only
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("args", RUNS.values(), ids=RUNS)
def test_run_ends_with_a_document(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dpring.cli", *args],
        capture_output=True, text=True, env=env, timeout=TIMEOUT_S,
        preexec_fn=_limit_address_space)
    assert proc.returncode in (0, 4), proc.stderr[-2000:]
    doc = json.loads(proc.stdout)
    if proc.returncode == 4:
        assert (doc["schema"], doc["status"]) == ("dpring.error/1", 4)
    else:
        report = {"expand": "dpring.expand/1", "verify": "dpring.report/1"}
        assert doc["schema"] == report[args[0]]
