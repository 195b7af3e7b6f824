"""Theorem-indexed batch verification over bundled sweeps and manifests.

Each theorem id expands to a default sweep of instances; every instance is
one membership or structure computation compared against its predicted
outcome.  Instances above the configured caps are reported as skipped, not
failed.  Reports sort by instance id, so output is deterministic at any
parallelism.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from . import classify
from .constructors import (
    ActionSpec,
    abelian,
    alternating,
    automorphism_from_generator_images,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_p3,
    generalized_quaternion,
    is_fermat_prime,
    is_mersenne_prime,
    parse_group_spec,
    power_automorphism,
    projective_plane_perm,
    psl2,
    psl3_witness_pair,
    semidihedral,
    semidirect,
    symmetric,
)
from .errors import CentraError, GroupTooLargeError, InvariantError, SubgroupCapError
from .fields import factorize, gf, is_prime
from .groups import FiniteGroup, close_generators
from .lattice import all_subgroups, normalizer, sylow_subgroup
from .perms import Perm, parse_cycles
from .presentations import parse_presentation, realize

THEOREM_IDS = (
    "class-C-finite",
    "lemma-family",
    "t-abelian",
    "t-finitep",
    "p-dihedral",
    "t-finitesimple",
    "t-ncsupersoluble",
    "t-csupersoluble",
    "examples",
    "exclusion-witnesses",
    "psl2-normalizer",
)


@dataclass
class TheoremReport:
    instance: str
    expected: str
    computed: str
    passed: bool | None  # None when skipped
    witness: dict | None
    elapsed_ms: float
    note: str = ""

    @property
    def skipped(self) -> bool:
        return self.passed is None

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            "skipped": self.skipped,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "note": self.note,
        }


# an instance is (id, expected, thunk, note); the thunk returns
# (computed, witness_json_or_None)
Instance = tuple[str, str, Callable[[], tuple[str, dict | None]], str]


def _execute(instances: Iterable[Instance], jobs: int = 1) -> list[TheoremReport]:
    def run(inst: Instance) -> TheoremReport:
        iid, expected, thunk, note = inst
        start = time.perf_counter()
        try:
            computed, witness = thunk()
            passed = computed == expected
        except (GroupTooLargeError, SubgroupCapError) as exc:
            return TheoremReport(
                instance=iid,
                expected=expected,
                computed=f"skipped: {exc}",
                passed=None,
                witness=None,
                elapsed_ms=(time.perf_counter() - start) * 1000,
                note=note,
            )
        return TheoremReport(
            instance=iid,
            expected=expected,
            computed=computed,
            passed=passed,
            witness=witness,
            elapsed_ms=(time.perf_counter() - start) * 1000,
            note=note,
        )

    instances = list(instances)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run, instances))
    else:
        reports = [run(inst) for inst in instances]
    return sorted(reports, key=lambda r: r.instance)


def _membership_thunk(builder: Callable[[], FiniteGroup]):
    def thunk():
        verdict = classify.in_class_X(builder())
        witness = verdict.witness.to_json() if verdict.witness else None
        return ("member" if verdict.member else "non-member"), witness

    return thunk


def _data_text(name: str) -> str:
    return resources.files("centra.data").joinpath(name).read_text()


def _data_json(name: str):
    return json.loads(_data_text(name))


# -- corpus -----------------------------------------------------------------------


def default_corpus(max_order: int = 200) -> list[tuple[str, FiniteGroup]]:
    """Labelled groups of order <= max_order spanning every constructor family."""
    out: list[tuple[str, FiniteGroup]] = []

    def add(label: str, G: FiniteGroup):
        if G.order <= max_order:
            out.append((label, G))

    for n in (2, 3, 4, 5, 7, 9, 12, 16, 30, 49, 97, 200):
        add(f"cyclic:{n}", cyclic(n))
    for factors in (
        (2, 2), (3, 3), (5, 5), (7, 7), (2, 4), (3, 9), (2, 2, 2),
        (2, 6), (4, 4), (10, 10), (3, 3, 3),
    ):
        add("abelian:" + ",".join(map(str, factors)), abelian(factors))
    for two_n in (6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 64, 128):
        add(f"dihedral:{two_n}", dihedral(two_n))
    for order in (16, 32, 64):
        add(f"sd:{order}", semidihedral(order))
    for order in (8, 16, 32, 64):
        add(f"q:{order}", generalized_quaternion(order))
    for p in (3, 5):
        for expo in ("p", "p2"):
            add(f"xsp:{p},{expo}", extraspecial_p3(p, expo))
    for n in (3, 4, 5):
        add(f"sym:{n}", symmetric(n))
    for n in (4, 5):
        add(f"alt:{n}", alternating(n))
    for q in (4, 5, 7):
        add(f"psl2:{q}", psl2(q))
    add("dp:dihedral:8;cyclic:2", direct_product(dihedral(8), cyclic(2)))
    add("dp:q:8;cyclic:2", direct_product(generalized_quaternion(8), cyclic(2)))
    for label, G in _corpus_split_extensions():
        add(label, G)
    return out


def frobenius_metacyclic(q: int, d: int) -> FiniteGroup:
    """C_q : C_d with the acting generator raising to a power of order d."""
    lam = _power_of_order(q, d)
    target = cyclic(q)
    spec = ActionSpec(cyclic(d), target, {0: power_automorphism(target, lam)})
    return semidirect(spec)


def _power_of_order(q: int, d: int) -> int:
    g = gf(q).primitive
    if (q - 1) % d:
        raise ValueError(f"no multiplicative element of order {d} mod {q}")
    return pow(g, (q - 1) // d, q)


def scalar_action_on_plane(p: int, d: int) -> ActionSpec:
    """C_d scaling C_p x C_p by a multiplicative element of order d."""
    lam = _power_of_order(p, d)
    target = abelian((p, p))
    return ActionSpec(cyclic(d), target, {0: power_automorphism(target, lam)})


def diagonal_action_on_heisenberg(p: int, d: int) -> ActionSpec:
    """C_d on the exponent-p extraspecial group, both generators to power a.

    Requires odd d (an even-order fixed-point-free automorphism would force
    the group abelian).
    """
    a = _power_of_order(p, d)
    target = extraspecial_p3(p, "p")
    gx, gy = target.generator_indices()
    auto = automorphism_from_generator_images(
        target, [target.power(gx, a), target.power(gy, a)]
    )
    return ActionSpec(cyclic(d), target, {0: auto})


def one_factor_action(p: int, d: int) -> ActionSpec:
    """C_d scaling only the first factor of C_p x C_p (not fixed point free)."""
    lam = _power_of_order(p, d)
    target = abelian((p, p))
    c1, c2 = target.generator_indices()
    auto = automorphism_from_generator_images(
        target, [target.power(c1, lam), c2]
    )
    return ActionSpec(cyclic(d), target, {0: auto})


def quaternion_on_c3() -> tuple[FiniteGroup, ActionSpec]:
    """Q8 acting on C3 through its quotient by a cyclic order-4 kernel."""
    D = generalized_quaternion(8)
    orders = D.element_orders()
    x0 = next(i for i in range(D.order) if orders[i] == 4)
    kernel = D.cyclic_masks()[x0]
    identity = Perm([0, 1, 2])
    inversion = Perm([0, 2, 1])
    images = {}
    for pos, gi in enumerate(D.generator_indices()):
        images[pos] = identity if (kernel >> gi) & 1 else inversion
    spec = ActionSpec(D, cyclic(3), images)
    if all(img.images == (0, 1, 2) for img in spec.images.values()):
        raise InvariantError("Q8 acts trivially on C3")
    return semidirect(spec), spec


def c3_semidirect_c4() -> FiniteGroup:
    """C3 : C4 with the order-4 generator inverting; center of order 2."""
    spec = ActionSpec(cyclic(4), cyclic(3), {0: Perm([0, 2, 1])})
    return semidirect(spec)


def _corpus_split_extensions() -> list[tuple[str, FiniteGroup]]:
    out = []
    out.append(("sdp:c2-inv-c3", semidirect(
        ActionSpec(cyclic(2), cyclic(3), {0: Perm([0, 2, 1])}))))
    out.append(("sdp:c2-inv-c3xc3", semidirect(scalar_action_on_plane(3, 2))))
    out.append(("sdp:c3-semi-c4", c3_semidirect_c4()))
    out.append(("sdp:q8-on-c3", quaternion_on_c3()[0]))
    out.append(("sdp:c3-on-c7xc7", semidirect(scalar_action_on_plane(7, 3))))
    out.append(("presentation:ex24#B", realize(
        parse_presentation(_data_text("ex_order24.pres")), "B").group))
    out.append(("presentation:ex75#B", realize(
        parse_presentation(_data_text("ex_order75.pres")), "B").group))
    out.append(("frobenius:7:3", frobenius_metacyclic(7, 3)))
    out.append(("frobenius:13:3", frobenius_metacyclic(13, 3)))
    out.append(("frobenius:11:5", frobenius_metacyclic(11, 5)))
    out.append(("frobenius:5:4", frobenius_metacyclic(5, 4)))
    return out


# -- per-theorem sweeps -------------------------------------------------------------


def class_c_prediction(G: FiniteGroup) -> str:
    """The finite characterization: prime-order cyclic, or non-abelian pq
    with q < p and p = 1 mod q."""
    n = G.order
    if is_prime(n):
        return "member"
    if not G.is_abelian:
        factors = factorize(n)
        if len(factors) == 2:
            (p1, e1), (p2, e2) = factors
            if e1 == 1 and e2 == 1:
                q, p = min(p1, p2), max(p1, p2)
                if p % q == 1:
                    return "member"
    return "non-member"


def _sweep_class_c(max_order: int | None) -> list[Instance]:
    limit = min(max_order or 200, 200)
    instances: list[Instance] = []
    for label, G in default_corpus(limit):
        expected = class_c_prediction(G)

        def thunk(G=G):
            verdict = classify.in_class_C(G)
            witness = verdict.witness.to_json() if verdict.witness else None
            return ("member" if verdict.member else "non-member"), witness

        instances.append(
            (f"class-C-finite/{label}", expected, thunk,
             "finite characterization of the all-subgroups-self-centralizing class")
        )
    return instances


def _sweep_lemma_family(max_order: int | None) -> list[Instance]:
    families = [("alt:5", alternating(5)), ("dihedral:32", dihedral(32))]
    instances: list[Instance] = []
    for label, G in families:
        if max_order is not None and G.order > max_order:
            continue

        def thunk(G=G):
            subs = all_subgroups(G)
            disagreements = []
            for S in subs:
                zmask = G.centralizer_mask(S.generating_set()) & S.mask
                containment = all(
                    (zmask & ~T.mask) == 0
                    for T in subs
                    if (T.mask & S.mask) == T.mask and not T.is_cyclic()
                )
                member = classify.in_class_X(S.induced_group()).member
                if containment != member:
                    disagreements.append(S.order)
            if disagreements:
                return f"disagreement at orders {disagreements}", None
            return "member-wise agreement", None

        instances.append(
            (f"lemma-family/{label}", "member-wise agreement", thunk,
             "center containment across a subgroup-closed family matches membership")
        )
    return instances


def _abelian_types(n: int, min_mult: int = 2):
    if n == 1:
        yield []
        return
    for d in range(min_mult, n + 1):
        if n % d == 0 and d % min_mult == 0:
            for rest in _abelian_types(n // d, d):
                yield [d] + rest


def _sweep_t_abelian(max_order: int | None) -> list[Instance]:
    limit = min(max_order or 100, 100)
    instances: list[Instance] = []
    for n in range(2, limit + 1):
        for chain in _abelian_types(n):
            label = "x".join(map(str, chain))
            expected = (
                "member"
                if len(chain) == 1
                or (len(chain) == 2 and chain[0] == chain[1] and is_prime(chain[0]))
                else "non-member"
            )
            instances.append(
                (
                    f"t-abelian/n={n:03d}-{label}",
                    expected,
                    _membership_thunk(lambda chain=tuple(chain): abelian(chain)),
                    "abelian members are cyclic groups and prime-squared elementary",
                )
            )
    return instances


def _sweep_t_finitep(max_order: int | None) -> list[Instance]:
    entries: list[tuple[str, str, Callable[[], FiniteGroup]]] = []
    for two_exp in (8, 16, 32, 64):
        entries.append((f"dihedral:{two_exp}", "member",
                        lambda n=two_exp: dihedral(n)))
    for order in (16, 32, 64):
        entries.append((f"sd:{order}", "member",
                        lambda n=order: semidihedral(n)))
    for order in (8, 16, 32, 64):
        entries.append((f"q:{order}", "member",
                        lambda n=order: generalized_quaternion(n)))
    for p in (3, 5, 7):
        for expo in ("p", "p2"):
            entries.append((f"xsp:{p},{expo}", "member",
                            lambda p=p, e=expo: extraspecial_p3(p, e)))
    entries.append(("dp:dihedral:8;cyclic:2", "non-member",
                    lambda: direct_product(dihedral(8), cyclic(2))))
    entries.append(("dp:q:8;cyclic:2", "non-member",
                    lambda: direct_product(generalized_quaternion(8), cyclic(2))))
    entries.append(("abelian:3,9", "non-member", lambda: abelian((3, 9))))
    entries.append(("abelian:2,2,2", "non-member", lambda: abelian((2, 2, 2))))

    note = "non-abelian p-group members: odd p^3, or maximal-class 2-groups"
    return [
        (f"t-finitep/{label}", expected, _membership_thunk(builder), note)
        for label, expected, builder in entries
        if max_order is None or _order_of_label(label) <= max_order
    ]


def _order_of_label(label: str) -> int:
    head, _, arg = label.partition(":")
    if head == "dihedral" or head == "sd" or head == "q":
        return int(arg)
    if head == "xsp":
        return int(arg.split(",")[0]) ** 3
    if head == "abelian":
        out = 1
        for v in arg.split(","):
            out *= int(v)
        return out
    if head == "dp":
        left, _, right = arg.partition(";")
        return _order_of_label(left) * _order_of_label(right)
    if head == "cyclic":
        return int(arg)
    return 0


def _sweep_p_dihedral(max_order: int | None) -> list[Instance]:
    instances: list[Instance] = []
    for n in range(2, 65):
        if max_order is not None and 2 * n > max_order:
            continue
        expected = "member" if (n % 2 == 1 or (n & (n - 1)) == 0) else "non-member"
        instances.append(
            (
                f"p-dihedral/n={n:02d}",
                expected,
                _membership_thunk(lambda n=n: dihedral(2 * n)),
                "dihedral of twice n: member iff n odd or a power of two",
            )
        )
    return instances


_SIMPLE_SUITE = (
    ("alt:5", 4, 60, lambda: alternating(5)),
    ("alt:6", 9, 360, lambda: alternating(6)),
    ("psl2:5", 5, 60, lambda: psl2(5)),
    ("psl2:7", 7, 168, lambda: psl2(7)),
    ("psl2:8", 8, 504, lambda: psl2(8)),
    ("psl2:11", 11, 660, lambda: psl2(11)),
    ("psl2:13", 13, 1092, lambda: psl2(13)),
    ("psl2:17", 17, 2448, lambda: psl2(17)),
)


def psl2_membership_prediction(q: int) -> str:
    return (
        "member"
        if q in (4, 9) or is_fermat_prime(q) or is_mersenne_prime(q)
        else "non-member"
    )


def _sweep_t_finitesimple(max_order: int | None) -> list[Instance]:
    instances: list[Instance] = []
    for label, q, order, builder in _SIMPLE_SUITE:
        if max_order is not None and order > max_order:
            continue
        instances.append(
            (
                f"t-finitesimple/{label}",
                psl2_membership_prediction(q),
                _membership_thunk(builder),
                f"q={q}: member iff q in {{4,9}} or q a Fermat or Mersenne prime",
            )
        )
    return instances


def ncsupersoluble_sweep_actions() -> list[tuple[str, ActionSpec, bool]]:
    """(label, action, expect_fixed_point_free) for the split-extension sweep.

    Positive instances pair every prime p in {3,5,7} and divisor d>1 of p-1
    with a scalar action on C_p x C_p, plus the diagonal action on the
    exponent-p extraspecial group for odd d.  Even-order fixed-point-free
    automorphisms force abelian groups, and the exponent-p^2 type has none
    at all (every automorphism fixes the order-p elements' line in the
    Frattini quotient), so those combinations have no instances.
    """
    out: list[tuple[str, ActionSpec, bool]] = []
    for p in (3, 5, 7):
        divisors = [d for d in range(2, p) if (p - 1) % d == 0]
        for d in divisors:
            out.append(
                (f"p={p}-plane-d={d}", scalar_action_on_plane(p, d), True)
            )
            if d % 2 == 1:
                out.append(
                    (
                        f"p={p}-xsp-d={d}",
                        diagonal_action_on_heisenberg(p, d),
                        True,
                    )
                )
        out.append((f"p={p}-nonfpf", one_factor_action(p, divisors[-1]), False))
    return out


def _sweep_t_ncsupersoluble(max_order: int | None) -> list[Instance]:
    instances: list[Instance] = []
    member_orders: list[int] = []
    for label, spec, expect_fpf in ncsupersoluble_sweep_actions():
        order = spec.acting.order * spec.target.order
        if max_order is not None and order > max_order:
            continue
        expected = ("fpf," if expect_fpf else "non-fpf,") + (
            "member" if expect_fpf else "non-member"
        )
        if expect_fpf:
            member_orders.append(order)

        def thunk(spec=spec):
            fpf = classify.acts_fixed_point_freely(spec)
            verdict = classify.in_class_X(semidirect(spec))
            witness = verdict.witness.to_json() if verdict.witness else None
            return (
                ("fpf," if fpf else "non-fpf,")
                + ("member" if verdict.member else "non-member"),
                witness,
            )

        instances.append(
            (
                f"t-ncsupersoluble/{label}",
                expected,
                thunk,
                "cyclic complement of order dividing p-1 acting without fixed points",
            )
        )
    if member_orders and max_order is None:
        least = min(member_orders)
        odd = [o for o in member_orders if o % 2]
        instances.append(
            (
                "t-ncsupersoluble/zz-least-member-order",
                "18",
                lambda least=least: (str(least), None),
                "smallest split extension in the sweep",
            )
        )
        if odd:
            instances.append(
                (
                    "t-ncsupersoluble/zz-least-odd-member-order",
                    "147",
                    lambda v=min(odd): (str(v), None),
                    "smallest odd-order split extension in the sweep",
                )
            )
    return instances


def _sweep_t_csupersoluble(max_order: int | None) -> list[Instance]:
    instances: list[Instance] = []

    def thunk_i():
        spec = ActionSpec(cyclic(2), cyclic(3), {0: Perm([0, 2, 1])})
        G = semidirect(spec)
        fpf = classify.acts_fixed_point_freely(spec)
        member = classify.in_class_X(G).member
        shape = "S3" if (G.order == 6 and not G.is_abelian) else "other"
        return f"{shape},fpf={fpf},{'member' if member else 'non-member'}", None

    instances.append(
        (
            "t-csupersoluble/i-c2-on-c3",
            "S3,fpf=True,member",
            thunk_i,
            "cyclic on cyclic acting fixed point freely",
        )
    )

    def thunk_ii():
        G, _spec = quaternion_on_c3()
        member = classify.in_class_X(G).member
        P2 = sylow_subgroup(G, 2)
        zg = G.center()
        zp = G.centralizer_mask(P2.generating_set()) & P2.mask
        fam = classify.two_group_family(P2.induced_group())
        same = zg.mask == zp
        return (
            f"{'member' if member else 'non-member'},sylow2={fam},Z(G)=Z(D)={same}",
            None,
        )

    instances.append(
        (
            "t-csupersoluble/ii-q8-on-c3",
            "member,sylow2=quaternion,Z(G)=Z(D)=True",
            thunk_ii,
            "generalized quaternion complement with coinciding centers",
        )
    )

    def thunk_iii():
        G = c3_semidirect_c4()
        member = classify.in_class_X(G).member
        z = G.center().order
        ok = 1 < z < 4
        return f"{'member' if member else 'non-member'},1<Z<D={ok}", None

    instances.append(
        (
            "t-csupersoluble/iii-c3-semi-c4",
            "member,1<Z<D=True",
            thunk_iii,
            "cyclic Sylow for the smallest prime with proper central part",
        )
    )
    return instances


_EXAMPLE_PRESENTATIONS = (
    ("ex18", "ex_order18.pres", 18, "A", "member"),
    ("ex147", "ex_order147.pres", 147, "B", "member"),
    ("ex24", "ex_order24.pres", 24, "B", "non-member"),
    ("ex12", "ex_order12.pres", 12, "B", "member"),
    ("ex75", "ex_order75.pres", 75, "B", "member"),
)


def _sweep_examples(max_order: int | None) -> list[Instance]:
    instances: list[Instance] = []
    for label, fname, order, convention, membership in _EXAMPLE_PRESENTATIONS:
        expected = f"order={order},convention={convention},{membership}"

        def thunk(fname=fname, order=order):
            pres = parse_presentation(_data_text(fname))
            r = realize(pres, convention="auto", order_hint=order)
            verdict = classify.in_class_X(r.group)
            witness = verdict.witness.to_json() if verdict.witness else None
            return (
                f"order={r.order},convention={r.convention},"
                + ("member" if verdict.member else "non-member"),
                witness,
            )

        instances.append(
            (
                f"examples/{label}",
                expected,
                thunk,
                "printed presentation realized by coset enumeration",
            )
        )

    def thunk_75_extra():
        pres = parse_presentation(_data_text("ex_order75.pres"))
        r = realize(pres, convention="auto", order_hint=75)
        odd = r.order % 2 == 1
        ss = classify.is_supersolvable(r.group)
        return f"odd={odd},supersolvable={ss}", None

    instances.append(
        (
            "examples/ex75-structure",
            "odd=True,supersolvable=False",
            thunk_75_extra,
            "odd order does not imply supersolvability inside the class",
        )
    )

    def thunk_24_comparison():
        pres = parse_presentation(_data_text("ex_order24.pres"))
        r = realize(pres, convention="auto", order_hint=24)
        printed_member = classify.in_class_X(r.group).member
        printed_fam = classify.two_group_family(
            sylow_subgroup(r.group, 2).induced_group()
        )
        G, _spec = quaternion_on_c3()
        explicit_member = classify.in_class_X(G).member
        explicit_fam = classify.two_group_family(
            sylow_subgroup(G, 2).induced_group()
        )
        return (
            f"printed:sylow2={printed_fam},"
            f"{'member' if printed_member else 'non-member'};"
            f"explicit:sylow2={explicit_fam},"
            f"{'member' if explicit_member else 'non-member'}",
            None,
        )

    instances.append(
        (
            "examples/ex24-comparison",
            "printed:sylow2=dihedral,non-member;explicit:sylow2=quaternion,member",
            thunk_24_comparison,
            "printed order-24 presentation versus the explicit quaternion extension",
        )
    )
    return instances


def _sweep_exclusion_witnesses(max_order: int | None) -> list[Instance]:
    data = _data_json("witnesses.json")
    instances: list[Instance] = []

    def thunk_a7():
        entry = data["a7"]
        gens = [parse_cycles(c, entry["degree"]) for c in entry["cycles"]]
        K = close_generators(gens)
        inv = classify.abelian_invariants(K) if K.is_abelian else None
        cert = classify.certify_non_membership(entry["ambient"], gens)
        witness = cert.verdict.witness.to_json() if cert.verdict else None
        return (
            f"order={K.order},invariants={list(inv) if inv else None},"
            f"certified={cert.conclusive}",
            witness,
        )

    instances.append(
        (
            "exclusion-witnesses/a7",
            "order=12,invariants=[2, 6],certified=True",
            thunk_a7,
            "two even permutations of degree 7 spanning a rank-2 abelian group",
        )
    )

    def thunk_m11():
        entry = data["m11"]
        gens = [parse_cycles(c, entry["degree"]) for c in entry["cycles"]]
        K = close_generators(gens)
        dih = classify.is_dihedral_group(K)
        cert = classify.certify_non_membership(entry["ambient"], gens)
        witness = cert.verdict.witness.to_json() if cert.verdict else None
        return f"order={K.order},dihedral={dih},certified={cert.conclusive}", witness

    instances.append(
        (
            "exclusion-witnesses/m11",
            "order=12,dihedral=True,certified=True",
            thunk_m11,
            "two degree-11 permutations spanning a dihedral group of order 12",
        )
    )

    def thunk_psl3():
        entry = data["psl3_7"]
        p = entry["p"]
        gens = [projective_plane_perm(p, M) for M in entry["matrices"]]
        check = psl3_witness_pair(p)
        if tuple(gens) != check:
            return "fixture/matrix mismatch", None
        K = close_generators(gens)
        dih = classify.is_dihedral_group(K)
        cert = classify.certify_non_membership(entry["ambient"], gens)
        witness = cert.verdict.witness.to_json() if cert.verdict else None
        return f"order={K.order},dihedral={dih},certified={cert.conclusive}", witness

    instances.append(
        (
            "exclusion-witnesses/psl3-7",
            "order=12,dihedral=True,certified=True",
            thunk_psl3,
            "projectivized matrix pair on the 57-point plane",
        )
    )
    return instances


def _sweep_psl2_normalizer(max_order: int | None) -> list[Instance]:
    instances: list[Instance] = []
    for p in (5, 7):

        def thunk(p=p):
            G = psl2(p)
            P = sylow_subgroup(G, p)
            N = normalizer(G, P)
            c_in_n = G.centralizer_mask(P.generating_set()) & N.mask
            return (
                f"|P|={P.order},|N|={N.order},C_N(P)==P={c_in_n == P.mask}",
                None,
            )

        expected = {5: "|P|=5,|N|=10,C_N(P)==P=True", 7: "|P|=7,|N|=21,C_N(P)==P=True"}
        instances.append(
            (
                f"psl2-normalizer/p={p}",
                expected[p],
                thunk,
                "Sylow normalizer centralizes the Sylow subgroup only inside itself",
            )
        )
    return instances


_SWEEPS = {
    "class-C-finite": _sweep_class_c,
    "lemma-family": _sweep_lemma_family,
    "t-abelian": _sweep_t_abelian,
    "t-finitep": _sweep_t_finitep,
    "p-dihedral": _sweep_p_dihedral,
    "t-finitesimple": _sweep_t_finitesimple,
    "t-ncsupersoluble": _sweep_t_ncsupersoluble,
    "t-csupersoluble": _sweep_t_csupersoluble,
    "examples": _sweep_examples,
    "exclusion-witnesses": _sweep_exclusion_witnesses,
    "psl2-normalizer": _sweep_psl2_normalizer,
}


def verify(
    theorem_id: str, max_order: int | None = None, jobs: int = 1
) -> list[TheoremReport]:
    """Run the default instance sweep for one theorem id."""
    if theorem_id not in _SWEEPS:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    return _execute(_SWEEPS[theorem_id](max_order), jobs)


# -- manifests ---------------------------------------------------------------------


@dataclass
class ManifestResult:
    reports: list[TheoremReport]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.reports if r.passed is True)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reports if r.passed is False)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.reports if r.skipped)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def summary(self) -> str:
        return (
            f"{len(self.reports)} instances: {self.passed} passed, "
            f"{self.failed} failed, {self.skipped} skipped"
        )


def bundled_manifest_path() -> Path:
    return Path(str(resources.files("centra.data").joinpath("manifest.json")))


def run_manifest(
    path: str | Path,
    jobs: int = 1,
    max_order: int | None = None,
) -> ManifestResult:
    """Execute every manifest entry; sweeps expand, spot entries run one check."""
    path = Path(path)
    entries = json.loads(path.read_text())
    base_dir = path.parent
    instances: list[Instance] = []
    for entry in entries:
        theorem = entry["theorem"]
        if theorem not in _SWEEPS:
            raise CentraError(f"unknown theorem id {theorem!r} in manifest")
        if "spec" not in entry:
            instances.extend(_SWEEPS[theorem](max_order))
            continue
        spec = entry["spec"]
        expect = entry["expect"]
        iid = entry.get("id", f"{theorem}/{spec}")

        def thunk(theorem=theorem, spec=spec):
            G = parse_group_spec(spec, base_dir=base_dir)
            if theorem == "class-C-finite":
                verdict = classify.in_class_C(G)
            else:
                verdict = classify.in_class_X(G)
            witness = verdict.witness.to_json() if verdict.witness else None
            return ("member" if verdict.member else "non-member"), witness

        instances.append(
            (iid, expect, thunk, f"manifest spot check against {theorem}")
        )
    return ManifestResult(_execute(instances, jobs))
