"""Smoke test of the benchmark worker: one traced pair-scan pass.

The traced pass wraps ``FiniteGroup.closure_mask`` with a one-argument
counter, so this fails if the classifier passes it anything else.  No
``--spans`` file is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pair_scan_pass_has_no_failures():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "pair-scan", "--mode", "trace"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["errors"] + out["problems"]
    assert out["counts"]["classify.closures"] > 0
