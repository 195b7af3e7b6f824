"""One benchmark worker: a fresh, single-threaded process making one pass.

    python3 perfbench/worker.py --workload W --mode setup|pass|trace [--spans FILE]

Run from the repository root with ``src`` on PYTHONPATH (run.py does this).
The last line of standard output is one JSON object.  Every time is CPU
seconds of this process (time.process_time), which leaves out the time the
process waits for a CPU.

* setup: import centra and numpy, read the inputs, report set-up time.
* pass: time every operation of the workload, then check its output.
* trace: the same operations, with each layer's public functions timed from
  outside the program (see README.md); spans are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy  # noqa: F401  (its import is part of set-up time)

import centra
from centra import (
    close_generators,
    in_class_C,
    in_class_X,
    parse_group_spec,
    parse_presentation,
    realize,
)
from centra.presentations import CONVENTIONS, group_from_table, todd_coxeter
from centra.verify import (
    THEOREM_IDS,
    bundled_manifest_path,
    default_corpus,
    ncsupersoluble_sweep_actions,
    run_manifest,
    verify,
)

from checks import (
    MANIFEST_INSTANCES,
    MANIFEST_SWEEP_INSTANCES,
    check_manifest,
    check_verdict,
)
from workloads import WORKLOADS, Op, operations

CHECK = {"X": in_class_X, "C": in_class_C}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def witness_json(verdict) -> dict | None:
    w = verdict.witness
    if w is None:
        return None
    return {"generators": [g.images for g in w.generators], "z": w.z.images}


def report_json(r) -> dict:
    return {"instance": r.instance, "expected": r.expected, "computed": r.computed,
            "passed": r.passed, "skipped": r.skipped}


def run_op(op: Op):
    """The calls `centra check-x` / `check-c` make, or realize-then-check."""
    if op.spec is not None:
        G = parse_group_spec(op.spec)
    else:
        G = realize(parse_presentation(op.presentation), "auto", op.order).group
    return G, CHECK[op.cls](G)


# -- passes ----------------------------------------------------------------------


def group_pass(ops: list[Op], run=None) -> dict:
    """Run and check every operation with `run` (default run_op).

    Wrong outputs go to `problems`; operations that raise go to `errors`.
    Both count as failed."""
    run = run or run_op
    cpu, failed, problems, errors = 0.0, 0, [], []
    for op in ops:
        t0 = time.process_time()
        try:
            G, verdict = run(op)
        except Exception as exc:  # a failing operation is counted, not fatal
            cpu += time.process_time() - t0
            failed += 1
            errors.append(f"{op.name} [{op.cls}]: raised {exc!r}")
            continue
        cpu += time.process_time() - t0
        found = check_verdict(op, G.order, verdict.member, witness_json(verdict),
                              G.degree)
        if found:
            failed += 1
            problems += [f"{op.name} [{op.cls}]: {p}" for p in found]
    return {"cpu_s": cpu, "attempted": len(ops), "failed": failed,
            "problems": problems, "errors": errors}


def manifest_pass(path: Path) -> dict:
    t0 = time.process_time()
    result = run_manifest(path, jobs=1)
    cpu = time.process_time() - t0
    reports = [report_json(r) for r in result.reports]
    failed, problems = check_manifest(reports)
    return {"cpu_s": cpu, "attempted": max(len(reports), MANIFEST_INSTANCES),
            "failed": failed, "problems": problems, "errors": []}


# -- traced pass ---------------------------------------------------------------------


class Tracer:
    """Spans (id, name, start, end, parent) in CPU seconds, plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, time.process_time(), None,
               self.stack[-1] if self.stack else None]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield
        finally:
            rec[3] = time.process_time()
            self.stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for sid, _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out


def realize_traced(tr: Tracer, op: Op):
    """realize(pres, "auto", order) split into its layers."""
    pres = parse_presentation(op.presentation)
    tables = {}
    for conv in CONVENTIONS:
        with tr.span("presentations.todd_coxeter"):
            ct = todd_coxeter(pres, conv)
        tr.count("presentations.cosets_defined", len(ct.table))
        tr.count("presentations.cosets_live", ct.live_count())
        tables[conv] = ct
    chosen = next((c for c in CONVENTIONS if tables[c].live_count() == op.order),
                  CONVENTIONS[0])
    with tr.span("presentations.group_from_table"):
        return group_from_table(tables[chosen])


def traced_op(tr: Tracer, op: Op):
    """Build a fresh group and fill each cache under its own span, in the
    order the classifier uses them; the last span is the scan alone.

    Commute masks are computed by the classifier itself, which asks only for
    the ones it needs; the instance's commute_mask is wrapped so that each
    new mask gets a groups.commute span inside the classify span.
    """
    with tr.span(f"op:{op.cls}:{op.name}"):
        # keep only the generators, so the built group is freed as in run_op
        if op.spec is not None:
            with tr.span("constructors.build"):
                gens = parse_group_spec(op.spec).generators
        else:
            gens = realize_traced(tr, op).generators
        with tr.span("groups.close"):
            G = close_generators(gens)
        tr.count("groups.elements", G.order)
        with tr.span("groups.orders"):
            G.element_orders()
        with tr.span("groups.cyclic"):
            G.cyclic_masks()
            if op.cls == "X":
                G.cyclic_reps()
        with tr.span("groups.classes"):
            tr.count("groups.classes", len(G.conjugacy_classes()))

        commute, closure = G.commute_mask, G.closure_mask
        masks: set[int] = set()

        def timed_commute(i):
            if i in masks:
                return commute(i)
            masks.add(i)
            with tr.span("groups.commute"):
                return commute(i)

        def counted_closure(seed):
            tr.count("classify.closures")
            return closure(seed)

        G.commute_mask, G.closure_mask = timed_commute, counted_closure
        with tr.span("classify.pair_scan" if op.cls == "X" else "classify.class_c"):
            verdict = CHECK[op.cls](G)
        tr.count("groups.commute_masks", len(masks))
        G.commute_mask, G.closure_mask = commute, closure
    return G, verdict




def traced_manifest_pass(tr: Tracer) -> dict:
    """The sweeps behind the bundled manifest, one verify() call per theorem."""
    with tr.span("op:manifest"):
        with tr.span("verify.corpus"):
            default_corpus()
            ncsupersoluble_sweep_actions()
        reports = []
        for tid in THEOREM_IDS:
            with tr.span(f"verify.{tid}"):
                reports += [report_json(r) for r in verify(tid)]
    failed, problems = check_manifest(reports, MANIFEST_SWEEP_INSTANCES)
    return {"attempted": len(reports), "failed": failed, "problems": problems,
            "errors": []}


# -- entry point ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    manifest = args.workload == "manifest"
    if not manifest:
        ops = operations(args.workload, Path(centra.__file__).resolve().parent / "data")
    out = {"setup_s": time.process_time()}

    if args.mode == "pass":
        out.update(manifest_pass(bundled_manifest_path()) if manifest
                   else group_pass(ops))
    elif args.mode == "trace":
        tr = Tracer()
        out.update(traced_manifest_pass(tr) if manifest
                   else group_pass(ops, lambda op: traced_op(tr, op)))
        out["traced_cpu_s"] = sum(end - start for _, _, start, end, parent in tr.spans
                                  if parent is None)
        out["layers_s"] = tr.self_times()
        out["counts"] = tr.counts
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps({
                "workload": args.workload,
                "fields": ["id", "name", "start", "end", "parent"],
                "spans": tr.spans,
            }) + "\n")
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
