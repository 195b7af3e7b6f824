"""Command-line interface.

Exit codes: 0 all checks pass (or query succeeded), 1 verification failure,
2 usage or configuration error, 3 internal invariant failure (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import classify
from .constructors import parse_group_spec
from .errors import CentraError, InvariantError
from .groups import DEFAULT_ORDER_CAP
from .lattice import all_subgroups
from .verify import THEOREM_IDS, bundled_manifest_path, run_manifest, verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centra",
        description="finite-group computations around self-centralizing subgroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a group and emit its JSON form")
    p.add_argument("spec")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)

    p = sub.add_parser("check-x", help="membership: non-cyclic subgroups contain their centralizers")
    p.add_argument("spec")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)

    p = sub.add_parser("check-c", help="membership: non-trivial subgroups contain their centralizers")
    p.add_argument("spec")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)

    p = sub.add_parser("subgroups", help="enumerate subgroups")
    p.add_argument("spec")
    p.add_argument("--count", action="store_true")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)

    p = sub.add_parser("verify", help="run a theorem's default instance sweep")
    p.add_argument("theorem", choices=sorted(THEOREM_IDS))
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("run-manifest", help="run every instance in a manifest file")
    p.add_argument("manifest", nargs="?", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--report", type=Path, default=None)
    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text)
    else:
        out.write_text(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except CentraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "construct":
        G = parse_group_spec(args.spec, base_dir=Path.cwd(), order_cap=args.order_cap)
        _emit(json.dumps(G.to_json()), args.out)
        print(f"order {G.order}, degree {G.degree}", file=sys.stderr)
        return 0

    if args.command in ("check-x", "check-c"):
        G = parse_group_spec(args.spec, base_dir=Path.cwd(), order_cap=args.order_cap)
        if args.command == "check-x":
            verdict = classify.in_class_X(G)
            cls = "X"
        else:
            verdict = classify.in_class_C(G)
            cls = "C"
        print(json.dumps(verdict.to_json(args.spec, cls)))
        return 0

    if args.command == "subgroups":
        G = parse_group_spec(args.spec, base_dir=Path.cwd(), order_cap=args.order_cap)
        subs = all_subgroups(G)
        if args.count:
            payload = {
                "order": G.order,
                "subgroups": len(subs),
                "by_order": {str(k): v for k, v in subs.by_order().items()},
            }
        else:
            payload = {
                "order": G.order,
                "subgroups": [
                    {
                        "order": S.order,
                        "generators": [g.cycle_string() for g in S.generators()],
                    }
                    for S in subs
                ],
            }
        print(json.dumps(payload))
        return 0

    if args.command == "verify":
        reports = verify(args.theorem, max_order=args.max_order, jobs=args.jobs)
        for r in reports:
            print(json.dumps(r.to_json()))
        failed = sum(1 for r in reports if r.passed is False)
        skipped = sum(1 for r in reports if r.skipped)
        print(
            f"{len(reports)} instances: {len(reports) - failed - skipped} passed, "
            f"{failed} failed, {skipped} skipped",
            file=sys.stderr,
        )
        return 1 if failed else 0

    if args.command == "run-manifest":
        manifest = args.manifest or bundled_manifest_path()
        result = run_manifest(manifest, jobs=args.jobs, max_order=args.max_order)
        lines = "\n".join(json.dumps(r.to_json()) for r in result.reports)
        if args.report is not None:
            args.report.write_text(lines + "\n")
        else:
            print(lines)
        print(result.summary(), file=sys.stderr)
        return result.exit_code

    raise InvariantError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
