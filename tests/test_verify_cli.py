import importlib
import json
import subprocess
import sys
import time

import pytest

from centra import classify
from centra.cli import main
from centra.errors import InvariantError
from centra.verify import (
    THEOREM_IDS,
    Instance,
    bundled_manifest_path,
    class_c_prediction,
    default_corpus,
    manifest_instances,
    ncsupersoluble_sweep_actions,
    psl2_membership_prediction,
    run_manifest,
    sweep,
    verify,
)
from centra.constructors import cyclic, dihedral, parse_group_spec, symmetric
from centra.perms import parse_cycles, perms_from_cycles
from centra import presentations
from centra.presentations import parse_presentation, realize

verify_module = importlib.import_module("centra.verify")


def test_package_verify_is_the_module():
    # ``import centra.verify as V`` reads the package's attribute, so a
    # function ``verify`` re-exported by the package would shadow the module
    import centra.verify as V

    assert V is verify_module
    assert V.run_manifest is run_manifest


def test_theorem_id_validation():
    with pytest.raises(ValueError):
        verify("no-such-theorem")


def test_p_dihedral_sweep_small():
    reports = verify("p-dihedral", max_order=40)
    assert all(r.passed for r in reports)
    by_id = {r.instance: r for r in reports}
    assert by_id["p-dihedral/n=06"].computed == "non-member"
    assert by_id["p-dihedral/n=08"].computed == "member"
    assert by_id["p-dihedral/n=09"].computed == "member"


def test_reports_sorted_and_deterministic():
    a = verify("t-csupersoluble")
    b = verify("t-csupersoluble")
    assert [r.instance for r in a] == sorted(r.instance for r in a)
    assert [(r.instance, r.computed, r.passed) for r in a] == [
        (r.instance, r.computed, r.passed) for r in b
    ]


def test_run_manifest_accepts_only_one_job():
    with pytest.raises(ValueError):
        run_manifest(bundled_manifest_path(), jobs=2)


def test_cli_has_no_jobs_option(capsys):
    for argv in (["run-manifest", "--jobs", "2"],
                 ["verify", "examples", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_max_order_skips_do_not_fail():
    reports = verify("t-finitesimple", max_order=200)
    assert all(r.passed for r in reports)
    assert {r.instance for r in reports} == {
        "t-finitesimple/alt:5",
        "t-finitesimple/psl2:5",
        "t-finitesimple/psl2:7",
    }


def test_max_order_leaves_out_larger_examples():
    reports = verify("examples", max_order=20)
    assert all(r.passed for r in reports)
    assert {r.instance for r in reports} == {"examples/ex12", "examples/ex18"}


def test_making_records_builds_no_group(monkeypatch):
    calls = []

    for module in list(sys.modules.values()):
        if module.__name__.startswith("centra") and hasattr(module, "close_generators"):
            monkeypatch.setattr(module, "close_generators",
                                lambda *args, **kwargs: calls.append(args))
    records = [inst for tid in THEOREM_IDS for inst in sweep(tid)]
    records += manifest_instances(bundled_manifest_path())
    # 301 sweep records, then the manifest's 304: the sweeps again and 3 spots
    assert len(records) == 301 + 304
    assert calls == []


def test_table_orders_are_built_orders():
    orders = {label: order for label, order, _, _ in verify_module._corpus_table()}
    for label, G in default_corpus():
        assert G.order == orders[label], label
    for tid in ("t-abelian", "t-finitep", "p-dihedral", "lemma-family",
                "t-finitesimple"):
        for inst in sweep(tid):
            # _membership("X", parse_group_spec, spec, None) or _lemma_family(spec)
            spec = inst.args[-2] if len(inst.args) > 1 else inst.args[0]
            assert parse_group_spec(spec).order == inst.order, inst.id
    orders = {label: spec.acting.order * spec.target.order
              for label, spec, _ in ncsupersoluble_sweep_actions()}
    for inst in sweep("t-ncsupersoluble"):
        label = inst.id.partition("/")[2]
        if label in orders:
            assert inst.order == orders[label], inst.id


def test_build_over_cap_is_skipped(tmp_path, monkeypatch):
    # symmetric(4) closes past an order cap of 10 and raises GroupTooLargeError
    too_large = Instance("psl2-normalizer/too-large", "member", 24,
                         verify_module._membership, ("X", symmetric, 4, 10))
    monkeypatch.setitem(verify_module._SWEEPS, "psl2-normalizer", lambda: [too_large])
    path = tmp_path / "m.json"
    path.write_text(json.dumps([{"theorem": "psl2-normalizer"}]))
    result = run_manifest(path)
    assert [r.instance for r in result.reports] == ["psl2-normalizer/too-large"]
    assert result.reports[0].skipped
    assert result.reports[0].computed.startswith("skipped: ")
    assert result.summary() == "1 instances: 0 passed, 0 failed, 1 skipped"
    assert result.exit_code == 0


def _inconclusive_realization():
    # gens: a b / a^3 = 1 is infinite, so 300 cosets run out
    realize(parse_presentation("gens: a b\na^3 = 1\n"), "A")


def test_budget_and_coset_limit_are_skipped_one_by_one(tmp_path, monkeypatch, capsys):
    # cyclic:9000 would need a 324 MB element matrix (BudgetError), and the
    # sweep's one instance hits its coset limit (EnumerationInconclusiveError):
    # each is reported as skipped, and dihedral:12 is still checked
    monkeypatch.setattr(presentations, "MAX_COSETS", 300)
    inconclusive = Instance("psl2-normalizer/infinite", "member", None,
                            _inconclusive_realization)
    monkeypatch.setitem(verify_module._SWEEPS, "psl2-normalizer",
                        lambda: [inconclusive])
    path = tmp_path / "m.json"
    path.write_text(json.dumps([
        {"id": "d12", "theorem": "p-dihedral", "spec": "dihedral:12",
         "expect": "non-member"},
        {"id": "c9000", "theorem": "t-abelian", "spec": "cyclic:9000",
         "expect": "member"},
        {"theorem": "psl2-normalizer"},
    ]))
    report_file = tmp_path / "report.jsonl"
    assert main(["run-manifest", str(path), "--report", str(report_file)]) == 0
    reports = [json.loads(line) for line in report_file.read_text().splitlines()]
    assert [(r["instance"], r["pass"], r["skipped"]) for r in reports] == [
        ("c9000", None, True), ("d12", True, False),
        ("psl2-normalizer/infinite", None, True)]
    assert reports[0]["computed"].startswith(
        "skipped: element storage budget (bytes) exceeded: 324000000 needed")
    assert reports[2]["computed"] == (
        "skipped: coset enumeration inconclusive: table limit 300 reached "
        "(300 cosets defined)")
    assert "3 instances: 1 passed, 0 failed, 2 skipped" in capsys.readouterr().err


def test_failing_reports_embed_witness():
    reports = verify("p-dihedral", max_order=24)
    non_members = [r for r in reports if r.computed == "non-member"]
    assert non_members
    for r in non_members:
        assert r.witness is not None
        assert set(r.witness) == {"generators", "z"}


def test_class_c_prediction():
    assert class_c_prediction(cyclic(5)) == "member"
    assert class_c_prediction(cyclic(6)) == "non-member"
    assert class_c_prediction(symmetric(3)) == "member"
    assert class_c_prediction(dihedral(10)) == "member"
    assert class_c_prediction(dihedral(20)) == "non-member"


def test_psl2_prediction():
    assert psl2_membership_prediction(4) == "member"
    assert psl2_membership_prediction(5) == "member"
    assert psl2_membership_prediction(7) == "member"
    assert psl2_membership_prediction(9) == "member"
    assert psl2_membership_prediction(17) == "member"
    assert psl2_membership_prediction(8) == "non-member"
    assert psl2_membership_prediction(11) == "non-member"
    assert psl2_membership_prediction(13) == "non-member"


def test_default_corpus_families():
    corpus = default_corpus(200)
    labels = [label for label, _ in corpus]
    assert len(corpus) >= 40
    assert all(G.order <= 200 for _, G in corpus)
    for family in ("cyclic:", "abelian:", "dihedral:", "sd:", "q:", "xsp:",
                   "sym:", "alt:", "psl2:", "dp:", "sdp:", "presentation:",
                   "frobenius:"):
        assert any(label.startswith(family) for label in labels), family
    # no trivial group: the finite characterization excludes it
    assert all(G.order > 1 for _, G in corpus)


def test_ncsupersoluble_sweep_composition():
    actions = ncsupersoluble_sweep_actions()
    labels = [label for label, _, _ in actions]
    # plane actions for every divisor, extraspecial only for odd divisors
    assert "p=3-plane-d=2" in labels
    assert "p=7-plane-d=6" in labels
    assert "p=7-xsp-d=3" in labels
    assert not any("xsp-d=2" in label for label in labels)
    assert not any("xsp-d=6" in label for label in labels)
    assert sum(1 for label in labels if "nonfpf" in label) == 3


def test_run_manifest_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    result = run_manifest(path)
    assert result.reports == []
    assert result.exit_code == 0


def test_run_manifest_wrong_expectation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([
        {"id": "wrong", "theorem": "p-dihedral", "spec": "dihedral:12",
         "expect": "member"},
    ]))
    result = run_manifest(path)
    assert result.exit_code == 1
    assert result.failed == 1
    assert result.reports[0].computed == "non-member"


def test_run_manifest_spot_checks(tmp_path):
    path = tmp_path / "spots.json"
    path.write_text(json.dumps([
        {"id": "a", "theorem": "p-dihedral", "spec": "dihedral:12",
         "expect": "non-member"},
        {"id": "b", "theorem": "class-C-finite", "spec": "cyclic:5",
         "expect": "member"},
        {"id": "c", "theorem": "t-finitep", "spec": "q:8", "expect": "member"},
    ]))
    result = run_manifest(path)
    assert result.exit_code == 0
    assert result.passed == 3


def test_bundled_manifest_exists():
    assert bundled_manifest_path().exists()
    entries = json.loads(bundled_manifest_path().read_text())
    sweeps = {e["theorem"] for e in entries if "spec" not in e}
    assert sweeps == set(THEOREM_IDS)


# -- CLI ---------------------------------------------------------------------


def test_cli_construct(capsys):
    assert main(["construct", "cyclic:6"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["degree"] == 6
    assert len(data["generators"]) == 1


def test_cli_construct_out_file(tmp_path, capsys):
    target = tmp_path / "g.json"
    assert main(["construct", "psl2:7", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["degree"] == 8
    assert set(data) == {"degree", "generators"}


def test_cli_check_x(capsys):
    assert main(["check-x", "dihedral:12"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["member"] is False
    assert data["witness"] is not None
    assert data["class"] == "X"


def test_cli_check_c(capsys):
    assert main(["check-c", "cyclic:5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["member"] is True
    assert data["class"] == "C"


def test_cli_subgroups_count(capsys):
    assert main(["subgroups", "q:8", "--count"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "order": 8,
        "subgroups": 6,
        "by_order": {"1": 1, "2": 1, "4": 3, "8": 1},
    }


def test_cli_subgroups_listing(capsys):
    assert main(["subgroups", "cyclic:6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["subgroups"]) == 4


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "t-csupersoluble"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert all(line["pass"] for line in lines)
    assert captured.err == "3 instances: 3 passed, 0 failed, 0 skipped\n"


def test_cli_usage_error_exit_2(capsys):
    assert main(["construct", "nosuch:1"]) == 2
    assert main(["check-x", "cyclic"]) == 2
    capsys.readouterr()
    # an xsp spec needs exactly one exponent after the prime
    for spec in ("xsp:3", "xsp:3,p,q"):
        assert main(["check-x", spec]) == 2
        err = capsys.readouterr().err
        assert "xsp:P,p or xsp:P,p2" in err and "unpack" not in err


def test_cli_order_cap_bounds_presentation_specs(tmp_path, monkeypatch, capsys):
    (tmp_path / "c50.pres").write_text("gens: a\na^50 = 1\n")
    monkeypatch.chdir(tmp_path)
    for spec in ("presentation:@c50.pres", "cyclic:50"):
        assert main(["check-x", spec, "--order-cap", "10"]) == 2
        assert "cap of 10" in capsys.readouterr().err
    assert main(["check-x", "presentation:@c50.pres", "--order-cap", "50"]) == 0


def test_cli_rejects_overlong_relators_before_expanding(tmp_path, monkeypatch, capsys):
    # 300 million letters would end in MemoryError; the bound tied to the
    # coset limit refuses them from the word tree
    (tmp_path / "long.pres").write_text("gens: a\na^300000000 = 1\n")
    monkeypatch.chdir(tmp_path)
    start = time.process_time()
    assert main(["check-x", "presentation:@long.pres"]) == 2
    assert time.process_time() - start < 1.0
    assert "relator length bound" in capsys.readouterr().err


# cyclic, dihedral, q, sd, abelian, xsp, sym and alt know their order from
# their arguments, and psl3 a lower bound (its number of points), so the
# constructor refuses them before any Perm of their degree is built (xsp and
# psl3 also before the primality test, which trial-divides); the stabilizer
# chain rejects psl3:101 on the product of its first orbit lengths
# (101 x 10303), before allocating a transversal of 10^4 x 10^4 entries.
# Each used to run for seconds and end in MemoryError (exit 1) or be killed
@pytest.mark.parametrize("spec, message", [
    ("cyclic:1000000000", "cap of 200000"),
    ("dihedral:100000000", "cap of 200000"),
    ("q:1048576", "cap of 200000"),
    ("sd:4194304", "cap of 200000"),
    ("abelian:1000,1000", "cap of 200000"),
    ("xsp:101,p", "at least 1030301 found"),
    ("psl3:101", "at least 1040603 found"),
    ("sym:1000000", "cap of 200000"),
    ("alt:1000000", "cap of 200000"),
    ("xsp:1000003,p", "at least 1000009000027000027 found"),
    ("psl3:1000003", "at least 1000007000013 found"),
    ("psl3:1000000000000000003", "cap of 200000"),
])
def test_cli_rejects_oversized_groups_before_allocating(spec, message, capsys):
    start = time.process_time()
    assert main(["check-x", spec]) == 2
    assert time.process_time() - start < 1.0
    assert message in capsys.readouterr().err


def test_cli_long_dp_chain_closes_once(capsys):
    # 1 200 right-nested factors used to recurse once each (RecursionError,
    # exit 1); the chain is now read in a loop and closed once
    spec = "dp:cyclic:1;" * 1200 + "cyclic:2"
    start = time.process_time()
    assert main(["check-x", spec]) == 0
    assert time.process_time() - start < 2.0
    assert json.loads(capsys.readouterr().out)["member"] is True  # C2


@pytest.mark.parametrize("word, column", [
    ("(a" * 600 + ")" * 600, 201),
    ("(" * 3000 + "a" + ")" * 3000, 101),
    ("[a," * 150 + "a" + "]" * 150, 301),
])
def test_cli_refuses_deep_nesting(word, column, tmp_path, monkeypatch, capsys):
    # these used to end in RecursionError (exit 1)
    (tmp_path / "deep.pres").write_text(f"gens: a\n{word} = 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["check-x", "presentation:@deep.pres"]) == 2
    err = capsys.readouterr().err
    assert f"line 2, column {column}: brackets nested deeper than 100" in err


# each of these used to end in a traceback and exit 1, the code of a
# verification failure
@pytest.mark.parametrize("command, data, message", [
    ("run-manifest", [{"spec": "cyclic:3", "expect": "member"}],
     "manifest entry 1 has no 'theorem'"),
    ("run-manifest", [{"theorem": "t-abelian", "spec": "cyclic:3"}],
     "manifest entry 1 has no 'expect'"),
    ("run-manifest", {"theorem": "t-abelian"}, "must hold a JSON list of entries"),
    ("run-manifest", [{"theorem": "t-abelian"}, ["t-abelian"]],
     "manifest entry 2 must be a JSON object"),
    ("run-manifest", [{"theorem": "t-abelian", "spec": 5, "expect": "member"}],
     "manifest entry 1: 'spec' must be a string"),
    ("check-x", {}, "action data needs 'acting' as a JSON string"),
    ("check-x", [1, 2], "action data must be a JSON object"),
    ("check-x", {"acting": "cyclic:2", "target": "cyclic:3", "images": {"0": 5}},
     "each image in action data must be a JSON list"),
    # inversion is an automorphism of C3, but has order 2, not 3
    ("check-x", {"acting": "cyclic:3", "target": "cyclic:3", "images": {"0": [0, 2, 1]}},
     "generator images do not extend to a homomorphism"),
    ("check-x", {"acting": "cyclic:2", "target": "cyclic:4",
                 "images": {"0": [0, 2, 1, 3]}},
     "image for generator 0 is not an automorphism"),
], ids=["no-theorem", "no-expect", "object", "list-entry", "spec-not-string",
        "empty-action", "list-action", "image-not-list", "not-homomorphism",
        "not-automorphism"])
def test_cli_malformed_file_exits_2(command, data, message, tmp_path, monkeypatch,
                                    capsys):
    (tmp_path / "a.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    arg = "a.json" if command == "run-manifest" else "sdp:@a.json"
    assert main([command, arg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "group too large" not in err


def test_presentation_auto_hint_suffix(monkeypatch, capsys):
    # A gives order 3 and B 147; the hint picks B and is recorded as matched
    realized = []
    real = presentations.realize

    def recorded(*args, **kwargs):
        realized.append(real(*args, **kwargs))
        return realized[-1]

    monkeypatch.setattr(presentations, "realize", recorded)
    data_dir = bundled_manifest_path().parent
    G = parse_group_spec("presentation:@ex_order147.pres#auto:147", data_dir)
    assert G.order == 147
    [r] = realized
    assert (r.convention, r.hint, r.orders) == ("B", 147, {"A": 3, "B": 147})
    assert r.hint_matched
    monkeypatch.chdir(data_dir)
    for suffix in ("auto:x", "autox"):
        assert main(["check-x", f"presentation:@ex_order147.pres#{suffix}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_invariant_failure_exit_3(monkeypatch, capsys):
    def broken(G):
        raise InvariantError("broken on purpose")

    monkeypatch.setattr(classify, "in_class_X", broken)
    assert main(["check-x", "cyclic:3"]) == 3
    assert "broken on purpose" in capsys.readouterr().err


def test_cli_run_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"id": "ok", "theorem": "p-dihedral", "spec": "dihedral:8",
         "expect": "member"},
    ]))
    report_file = tmp_path / "report.jsonl"
    assert main(["run-manifest", str(manifest), "--report", str(report_file)]) == 0
    lines = report_file.read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["pass"] is True


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "centra.cli", "check-x", "dihedral:8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["member"] is True


# runs the CLI, then writes the process's own peak RSS in MB to stderr:
# VmHWM, the high-water mark of the memory map that exec started.  wait4's
# ru_maxrss is not that: a child started by vfork and exec carries over its
# parent's peak (`check-x sym:3` reported 201 MB there and 32 MB here while
# its parent held 160 MiB)
_PEAK_CHILD = """\
import sys
from centra.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(int(kib) / 1024, file=sys.stderr)
sys.exit(code)
"""


def _cli_with_peak(*args):
    """Run the CLI in a child: the finished process and its own peak RSS in MB."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *args],
                          capture_output=True, text=True)
    return proc, float(proc.stderr.splitlines()[-1])


def test_child_peak_is_not_the_parents():
    # this process holds 160 MiB of written pages while the child runs; the
    # child builds S3 and reports its own peak, far below that
    held = b"\x01" * (160 << 20)
    proc, peak = _cli_with_peak("check-x", "sym:3")
    del held
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["member"] is True
    assert peak < 100


def test_cli_check_x_of_a_large_group_stays_small():
    # alt:9 (181 440 elements) is decided by pair relations, with no
    # right-multiplication column per scanned pair: its peak RSS was 253 MB
    # when the scan closed each pair, and is about 70 MB now
    proc, peak = _cli_with_peak("check-x", "alt:9")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["member"] is False
    G = parse_group_spec("alt:9")
    w = out["witness"]
    verdict = classify.MembershipVerdict(
        member=False,
        witness=classify.Witness(
            tuple(perms_from_cycles(w["generators"], 9)), parse_cycles(w["z"], 9)),
        method=out["method"],
    )
    assert classify.verify_witness(G, verdict, "X")
    assert peak < 150


def test_manifest_relative_presentation_spec(tmp_path):
    pres = tmp_path / "tiny.pres"
    pres.write_text("gens: a\na^3 = 1\n")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"id": "pres", "theorem": "examples",
         "spec": "presentation:@tiny.pres#A", "expect": "member"},
    ]))
    result = run_manifest(manifest)
    assert result.exit_code == 0
