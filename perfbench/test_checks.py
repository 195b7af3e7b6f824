"""Tests of the benchmark's own checks: wrong outputs must count as failed.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import Op, operations  # noqa: E402

D12 = Op("dihedral:12", "X", 12, False, spec="dihedral:12")
C6 = Op("cyclic:6", "C", 6, False, spec="cyclic:6")


def faked(monkeypatch, order=None, member=None, witness=None):
    """Make worker.run_op return centra's real output with one field forged."""
    real = worker.run_op

    def run_op(op):
        G, verdict = real(op)
        if order is not None:
            G = SimpleNamespace(order=order, degree=G.degree)
        if member is not None:
            verdict = SimpleNamespace(member=member, witness=None)
        if witness is not None:
            verdict = SimpleNamespace(member=False, witness=witness(verdict.witness))
        return G, verdict

    monkeypatch.setattr(worker, "run_op", run_op)


def test_genuine_outputs_pass():
    r = worker.group_pass([D12, C6])
    assert (r["attempted"], r["failed"], r["problems"], r["errors"]) == (2, 0, [], [])


def test_forged_witness_fails(monkeypatch):
    # z replaced by the identity, which commutes but lies inside the subgroup
    faked(monkeypatch, witness=lambda w: SimpleNamespace(
        generators=w.generators,
        z=SimpleNamespace(images=tuple(range(len(w.z.images))))))
    r = worker.group_pass([D12])
    assert r["failed"] == 1 and "z lies inside the witness subgroup" in r["problems"][0]


def test_flipped_verdict_fails(monkeypatch):
    faked(monkeypatch, member=True)
    r = worker.group_pass([D12])
    assert r["failed"] == 1 and "expected non-member" in r["problems"][0]


def test_wrong_order_fails(monkeypatch):
    faked(monkeypatch, order=13)
    r = worker.group_pass([D12])
    assert r["failed"] == 1 and "order 13, expected 12" in r["problems"][0]


def test_raising_operation_fails_without_a_wrong_output(monkeypatch):
    def run_op(op):
        raise MemoryError("no room")

    monkeypatch.setattr(worker, "run_op", run_op)
    r = worker.group_pass([D12])
    assert (r["failed"], r["problems"], len(r["errors"])) == (1, [], 1)


def test_witness_checks():
    # D8 on the corners of a square; r^2 is central
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)
    r2 = checks.compose(r, r)
    ok = {"generators": [s, checks.compose(r2, s)], "z": r2}
    assert checks.check_witness("X", 4, ok) == ["z lies inside the witness subgroup"]
    cyclic = {"generators": [r], "z": r2}
    assert "the witness subgroup is cyclic" in checks.check_witness("X", 4, cyclic)
    assert checks.check_witness("C", 4, {"generators": [s], "z": r2}) == []
    assert checks.check_witness("C", 4, {"generators": [r], "z": s}) == [
        "a witness generator does not commute with z"]


def test_paper_rules():
    qs = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27, 31, 32)
    assert [q for q in qs if checks.psl2_member(q)] == [4, 5, 7, 9, 17, 31]
    assert [n for n in range(2, 13) if not checks.dihedral_member(n)] == [6, 10, 12]
    assert checks.class_c_member(6, abelian=False)
    assert not checks.class_c_member(6, abelian=True)
    assert not checks.class_c_member(465, abelian=False)
    assert checks.psl2_order(31) == 14880 and checks.psl3_order(3) == 5616


def manifest_reports():
    return [{"instance": f"t-finitesimple/psl2:{q}", "expected": v, "computed": v,
             "passed": True, "skipped": False}
            for q, v in ((7, "member"), (11, "non-member"))]


def test_manifest_checks():
    reports = manifest_reports()
    assert checks.check_manifest(reports, expected=2) == (0, [])
    # one instance missing
    assert checks.check_manifest(reports[:1], expected=2)[0] == 1
    # skipped, and a verdict that both the harness and the paper reject
    reports[0]["skipped"] = True
    reports[1].update(computed="member", passed=False)
    failed, problems = checks.check_manifest(reports, expected=2)
    assert failed == 2 and len(problems) == 3
    # a verdict the harness accepts but the paper contradicts
    flipped = manifest_reports()
    flipped[1].update(expected="member", computed="member")
    assert checks.check_manifest(flipped, expected=2)[0] == 1


def test_workload_facts_are_consistent():
    data = HERE.parent / "src" / "centra" / "data"
    for workload in ("pair-scan", "large-perm", "regular"):
        ops = operations(workload, data)
        assert len({(op.name, op.cls) for op in ops}) == len(ops)
        assert all((op.spec is None) != (op.presentation is None) for op in ops)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    passes = [{"layers_s": {}, "counts": {}}]
    assert sorted(names) == sorted(run.per_layer(passes))
    e2e = [{"cpu_s": 1.0, "peak_rss_mb": 1.0}]
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(
        run.end_to_end(e2e, [1.0]))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
