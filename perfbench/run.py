"""Benchmark command: run one workload in fresh worker processes.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass over the workload's operations runs
in a fresh, single-threaded worker (worker.py); passes repeat until S
seconds of wall time have gone, and every pass is whole.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the run's
passes); with --trace 1 they are the per-layer ones, and each traced pass
writes its spans to perfbench/out/.  The workloads are fixed lists, so the
seed changes no input; it only names the span files.
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

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

# the ids of centra.verify.THEOREM_IDS; this process does not import centra
THEOREM_IDS = (
    "class-C-finite", "lemma-family", "t-abelian", "t-finitep", "p-dihedral",
    "t-finitesimple", "t-ncsupersoluble", "t-csupersoluble", "examples",
    "exclusion-witnesses", "psl2-normalizer",
)
# span name -> per-layer metric (CPU seconds of the span's self time)
LAYER_SPANS = (
    "constructors.build", "groups.close", "groups.orders", "groups.cyclic",
    "groups.classes", "groups.commute", "classify.pair_scan", "classify.class_c",
    "presentations.todd_coxeter", "presentations.group_from_table",
    "verify.corpus",
) + tuple(f"verify.{tid}" for tid in THEOREM_IDS)
LAYER_COUNTS = (
    "groups.elements", "groups.classes", "groups.commute_masks",
    "classify.closures", "presentations.cosets_defined", "presentations.cosets_live",
)

# set-up is measured in this many extra workers besides the passes' own
SETUP_PROBES = 3
# a run must end within 180 s; stop waiting for workers after this
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, mode: str, deadline: float,
               spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker for {workload} ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "cpu_s": metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def per_layer(passes: list[dict]) -> dict:
    out = {}
    for span in LAYER_SPANS:
        out[f"{span}_s"] = metric(
            statistics.median(p["layers_s"].get(span, 0.0) for p in passes), "s")
    for name in LAYER_COUNTS:
        out[name] = metric(statistics.median(p["counts"].get(name, 0) for p in passes),
                           "count")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="centra CPU-time benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "centra" / "__init__.py").is_file():
        print("run.py: no src/centra here; run from the repository root",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [run_worker(args.workload, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
        passes: list[dict] = []
        t0 = time.monotonic()
        while not passes or time.monotonic() - t0 < args.seconds:
            spans = None
            if args.trace:
                spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{len(passes)}.json"
            passes.append(run_worker(args.workload, "trace" if args.trace else "pass",
                                     deadline, spans))
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for p in passes:
        for problem in (p["errors"] + p["problems"])[:20]:
            print(f"run.py: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setups + [p["setup_s"] for p in passes])
    print(json.dumps({
        # wrong outputs make a run incorrect; operations that raise only fail
        "correct": not any(p["problems"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
