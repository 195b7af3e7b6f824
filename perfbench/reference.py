"""Reference figures for README.md: wall time, threaded --jobs 2, work counts,
tracing overhead.

    python3 perfbench/reference.py [--passes K]

Run from the repository root.  For each workload it runs K untraced and K
traced passes in fresh workers (as run.py does) and prints medians; for the
manifest it also times `centra run-manifest` at --jobs 1 and --jobs 2.
Output is a Markdown table on standard output.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time

import run


def timed_worker(workload: str, mode: str) -> tuple[float, dict]:
    start = time.perf_counter()
    out = run.run_worker(workload, mode, time.monotonic() + run.DEADLINE_S)
    return time.perf_counter() - start, out


def cli_wall(jobs: int) -> float:
    report = run.OUT_DIR / f"run-manifest-jobs{jobs}.jsonl"
    report.parent.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "centra.cli", "run-manifest",
                    "--jobs", str(jobs), "--report", str(report)],
                   env=run.worker_env(), check=True, capture_output=True)
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args()
    med = statistics.median

    print("| workload | wall s | cpu_s | traced cpu_s | overhead | layer sum | gap |"
          " counts |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in run.WORKLOADS:
        plain = [timed_worker(workload, "pass") for _ in range(args.passes)]
        traced = [timed_worker(workload, "trace")[1] for _ in range(args.passes)]
        cpu = med(p["cpu_s"] for _, p in plain)
        tcpu = med(t["traced_cpu_s"] for t in traced)
        layers = med(sum(v for k, v in t["layers_s"].items() if not k.startswith("op:"))
                     for t in traced)
        counts = ", ".join(f"{k.split('.')[1]} {traced[0]['counts'][k]}"
                           for k in run.LAYER_COUNTS if k in traced[0]["counts"])
        print(f"| {workload} | {med(w for w, _ in plain):.2f} | {cpu:.2f} | {tcpu:.2f} "
              f"| {tcpu - cpu:+.2f} s ({(tcpu - cpu) / cpu:+.0%}) "
              f"| {layers:.2f} | {layers - cpu:+.2f} s | {counts or '-'} |")
    jobs1 = [cli_wall(1) for _ in range(args.passes)]
    jobs2 = [cli_wall(2) for _ in range(args.passes)]
    print(f"\n`centra run-manifest` wall: --jobs 1 {med(jobs1):.2f} s "
          f"({min(jobs1):.2f}-{max(jobs1):.2f}), --jobs 2 {med(jobs2):.2f} s "
          f"({min(jobs2):.2f}-{max(jobs2):.2f}), {args.passes} runs each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
