"""Smoke tests of the benchmark worker: one traced pair-scan pass, and one
untraced large-perm and one untraced regular pass.

The traced pass wraps ``FiniteGroup.closure_mask`` with a counter, which
must stay at 0: the class-X scan closes no subgroup.  The
untraced pass runs ``in_class_X`` on fresh groups of order 2448-20160, which
walk only the cyclic subgroups their scans ask for, and the worker checks
every verdict and witness independently of centra.  The untraced regular
pass realizes presentations with Todd-Coxeter, and the worker checks each
realized group's order and verdict the same way.  No ``--spans`` file is
written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _worker_pass(workload: str, mode: str) -> dict:
    """The worker's JSON line for one pass, which must have no failures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["errors"] + out["problems"]
    return out


def test_traced_pair_scan_pass_has_no_failures():
    assert _worker_pass("pair-scan", "trace")["counts"].get("classify.closures", 0) == 0


def test_untraced_large_perm_pass_has_no_failures():
    _worker_pass("large-perm", "pass")


def test_untraced_regular_pass_has_no_failures():
    _worker_pass("regular", "pass")
