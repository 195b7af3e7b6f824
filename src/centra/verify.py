"""Theorem-indexed batch verification over bundled sweeps and manifests.

Each theorem id expands to a table of instance records: an id, a predicted
outcome, the order of the largest group the instance builds (from the
table's closed formula), and a module-level function with plain arguments
that builds the group and computes the outcome.  Making the records builds
no group.  One sequential runner times each instance's build and check
together; instances above ``max_order`` are left out, and instances that hit
the closure or subgroup caps, a budget or the coset limit are reported as
skipped, not failed, each on its own.  Reports sort by instance id.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from importlib import resources
from math import factorial, gcd, prod
from pathlib import Path
from typing import Callable, Iterable

from . import classify
from .constructors import (
    ActionSpec,
    abelian,
    automorphism_from_generator_images,
    cyclic,
    extraspecial_p3,
    generalized_quaternion,
    is_fermat_prime,
    is_mersenne_prime,
    parse_group_spec,
    power_automorphism,
    projective_plane_perm,
    psl2,
    psl3_witness_pair,
    semidirect,
)
from .errors import (
    BudgetError,
    CentraError,
    EnumerationInconclusiveError,
    GroupTooLargeError,
    InvariantError,
    SubgroupCapError,
)
from .fields import factorize, gf, is_prime
from .groups import FiniteGroup, close_generators
from .lattice import all_subgroups, normalizer, sylow_subgroup
from .perms import Perm, parse_cycles
from .presentations import parse_presentation, realize

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


@dataclass(frozen=True)
class Instance:
    """One check: ``run(*args)`` returns (computed, witness JSON or None).

    ``order`` is that of the largest group ``run`` builds; None (manifest
    spot entries) means unknown, and such an instance always runs."""

    id: str
    expected: str
    order: int | None
    run: Callable[..., tuple[str, dict | None]]
    args: tuple = ()
    note: str = ""


def _run(
    instances: Iterable[Instance], max_order: int | None = None
) -> list[TheoremReport]:
    """Build and check each instance of order at most ``max_order`` in turn,
    timing both; reports sort by instance id."""
    reports = []
    for inst in instances:
        if max_order is not None and inst.order is not None and inst.order > max_order:
            continue
        start = time.perf_counter()
        try:
            computed, witness = inst.run(*inst.args)
            passed = computed == inst.expected
        except (GroupTooLargeError, SubgroupCapError, BudgetError,
                EnumerationInconclusiveError) as exc:
            computed, witness, passed = f"skipped: {exc}", None, None
        reports.append(TheoremReport(
            instance=inst.id,
            expected=inst.expected,
            computed=computed,
            passed=passed,
            witness=witness,
            elapsed_ms=(time.perf_counter() - start) * 1000,
            note=inst.note,
        ))
    return sorted(reports, key=lambda r: r.instance)


def _word(member: bool) -> str:
    return "member" if member else "non-member"


def _witness(verdict: classify.MembershipVerdict | None) -> dict | None:
    return verdict.witness.to_json() if verdict and verdict.witness else None


def _membership(
    cls: str, build: Callable[..., FiniteGroup], *args
) -> tuple[str, dict | None]:
    """The class-X (or, for ``cls`` "C", class-C) verdict on build(*args)."""
    G = build(*args)
    verdict = classify.in_class_C(G) if cls == "C" else classify.in_class_X(G)
    return _word(verdict.member), _witness(verdict)


def _spec_instance(iid: str, expected: str, order: int | None, spec: str,
                   note: str, base_dir: Path | None = None, cls: str = "X") -> Instance:
    """A check of the group a spec names, as manifest spot entries run it."""
    return Instance(iid, expected, order, _membership,
                    (cls, parse_group_spec, spec, base_dir), note)


def _data_text(name: str) -> str:
    return resources.files("centra.data").joinpath(name).read_text()


def _data_json(name: str):
    return json.loads(_data_text(name))


# -- corpus -----------------------------------------------------------------------


def _psl2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def _corpus_table() -> list[tuple[str, int, Callable[..., FiniteGroup], tuple]]:
    """(label, order, build, args) spanning every constructor family; labels
    before "sdp:" are group specs."""
    rows = [(f"cyclic:{n}", n) for n in (2, 3, 4, 5, 7, 9, 12, 16, 30, 49, 97, 200)]
    rows += [
        ("abelian:" + ",".join(map(str, factors)), prod(factors))
        for factors in (
            (2, 2), (3, 3), (5, 5), (7, 7), (2, 4), (3, 9), (2, 2, 2),
            (2, 6), (4, 4), (10, 10), (3, 3, 3),
        )
    ]
    rows += [
        (f"dihedral:{n}", n)
        for n in (6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 64, 128)
    ]
    rows += [(f"sd:{n}", n) for n in (16, 32, 64)]
    rows += [(f"q:{n}", n) for n in (8, 16, 32, 64)]
    rows += [(f"xsp:{p},{expo}", p**3) for p in (3, 5) for expo in ("p", "p2")]
    rows += [(f"sym:{n}", factorial(n)) for n in (3, 4, 5)]
    rows += [(f"alt:{n}", factorial(n) // 2) for n in (4, 5)]
    rows += [(f"psl2:{q}", _psl2_order(q)) for q in (4, 5, 7)]
    rows += [("dp:dihedral:8;cyclic:2", 16), ("dp:q:8;cyclic:2", 16)]
    table = [(label, order, parse_group_spec, (label,)) for label, order in rows]
    table += [
        ("sdp:c2-inv-c3", 6, _split, (_inverting_c3, 2)),
        ("sdp:c2-inv-c3xc3", 18, _split, (scalar_action_on_plane, 3, 2)),
        ("sdp:c3-semi-c4", 12, _split, (_inverting_c3, 4)),
        ("sdp:q8-on-c3", 24, _split, (_quaternion_action,)),
        ("sdp:c3-on-c7xc7", 147, _split, (scalar_action_on_plane, 7, 3)),
        ("presentation:ex24#B", 24, _realized, ("ex_order24.pres", "B")),
        ("presentation:ex75#B", 75, _realized, ("ex_order75.pres", "B")),
    ]
    table += [
        (f"frobenius:{q}:{d}", q * d, frobenius_metacyclic, (q, d))
        for q, d in ((7, 3), (13, 3), (11, 5), (5, 4))
    ]
    return table


def default_corpus(max_order: int = 200) -> list[tuple[str, FiniteGroup]]:
    """Labelled groups of order <= max_order spanning every constructor family."""
    return [
        (label, build(*args))
        for label, order, build, args in _corpus_table()
        if order <= max_order
    ]


def _split(action: Callable[..., ActionSpec], *args) -> FiniteGroup:
    return semidirect(action(*args))


def _realized(fname: str, convention: str) -> FiniteGroup:
    return realize(parse_presentation(_data_text(fname)), convention).group


def _inverting_c3(n: int) -> ActionSpec:
    """C_n acting on C3 with its generator inverting."""
    return ActionSpec(cyclic(n), cyclic(3), {0: Perm([0, 2, 1])})


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


def _quaternion_action() -> ActionSpec:
    """Q8 acting on C3 through its quotient by a cyclic order-4 kernel."""
    D = generalized_quaternion(8)
    x0 = next(i for i in range(D.order) if D.element_order(i) == 4)
    kernel = D.cyclic_mask(x0)
    identity = Perm([0, 1, 2])
    inversion = Perm([0, 2, 1])
    images = {}
    for pos, gi in enumerate(D.generator_indices()):
        images[pos] = identity if (kernel >> gi) & 1 else inversion
    spec = ActionSpec(D, cyclic(3), images)
    if all(img.images == (0, 1, 2) for img in spec.images.values()):
        raise InvariantError("Q8 acts trivially on C3")
    return spec


def quaternion_on_c3() -> tuple[FiniteGroup, ActionSpec]:
    """Q8 : C3 with its action (see _quaternion_action)."""
    spec = _quaternion_action()
    return semidirect(spec), spec


# -- per-theorem sweeps -------------------------------------------------------------


def _class_c_expected(order: int, is_abelian: bool) -> str:
    if is_prime(order):
        return "member"
    if not is_abelian:
        factors = factorize(order)
        if len(factors) == 2:
            (p1, e1), (p2, e2) = factors
            if e1 == 1 and e2 == 1:
                q, p = min(p1, p2), max(p1, p2)
                if p % q == 1:
                    return "member"
    return "non-member"


def class_c_prediction(G: FiniteGroup) -> str:
    """The finite characterization: prime-order cyclic, or non-abelian pq
    with q < p and p = 1 mod q."""
    return _class_c_expected(G.order, G.is_abelian)


def _sweep_class_c() -> list[Instance]:
    note = "finite characterization of the all-subgroups-self-centralizing class"
    return [
        Instance(
            f"class-C-finite/{label}",
            # only the cyclic and abelian families are abelian
            _class_c_expected(order, label.startswith(("cyclic:", "abelian:"))),
            order, _membership, ("C", build, *args), note,
        )
        for label, order, build, args in _corpus_table()
    ]


def _lemma_family(spec: str) -> tuple[str, None]:
    G = parse_group_spec(spec)
    subs = all_subgroups(G)
    noncyclic = [T.mask for T in subs if not T.is_cyclic()]
    disagreements = []
    for S in subs:
        zmask = G.centralizer_mask(S.generating_set()) & S.mask
        containment = all(
            (zmask & ~t) == 0 for t in noncyclic if (t & S.mask) == t
        )
        member = classify.in_class_X(S.induced_group()).member
        if containment != member:
            disagreements.append(S.order)
    if disagreements:
        return f"disagreement at orders {disagreements}", None
    return "member-wise agreement", None


def _sweep_lemma_family() -> list[Instance]:
    note = "center containment across a subgroup-closed family matches membership"
    return [
        Instance(f"lemma-family/{spec}", "member-wise agreement", order,
                 _lemma_family, (spec,), note)
        for spec, order in (("alt:5", 60), ("dihedral:32", 32))
    ]


def _abelian_types(n: int, min_mult: int = 2):
    if n == 1:
        yield []
        return
    for d in range(min_mult, n + 1):
        if n % d == 0 and d % min_mult == 0:
            for rest in _abelian_types(n // d, d):
                yield [d] + rest


def _sweep_t_abelian() -> list[Instance]:
    note = "abelian members are cyclic groups and prime-squared elementary"
    return [
        _spec_instance(
            f"t-abelian/n={n:03d}-" + "x".join(map(str, chain)),
            _word(len(chain) == 1
                  or (len(chain) == 2 and chain[0] == chain[1] and is_prime(chain[0]))),
            n, "abelian:" + ",".join(map(str, chain)), note,
        )
        for n in range(2, 101)
        for chain in _abelian_types(n)
    ]


def _sweep_t_finitep() -> list[Instance]:
    rows = [(f"dihedral:{n}", n, True) for n in (8, 16, 32, 64)]
    rows += [(f"sd:{n}", n, True) for n in (16, 32, 64)]
    rows += [(f"q:{n}", n, True) for n in (8, 16, 32, 64)]
    rows += [(f"xsp:{p},{expo}", p**3, True) for p in (3, 5, 7) for expo in ("p", "p2")]
    rows += [
        ("dp:dihedral:8;cyclic:2", 16, False),
        ("dp:q:8;cyclic:2", 16, False),
        ("abelian:3,9", 27, False),
        ("abelian:2,2,2", 8, False),
    ]
    note = "non-abelian p-group members: odd p^3, or maximal-class 2-groups"
    return [
        _spec_instance(f"t-finitep/{spec}", _word(member), order, spec, note)
        for spec, order, member in rows
    ]


def _sweep_p_dihedral() -> list[Instance]:
    note = "dihedral of twice n: member iff n odd or a power of two"
    return [
        _spec_instance(f"p-dihedral/n={n:02d}", _word(n % 2 == 1 or (n & (n - 1)) == 0),
                       2 * n, f"dihedral:{2 * n}", note)
        for n in range(2, 65)
    ]


# (spec, q, order): A5 = PSL2(4) and A6 = PSL2(9)
_SIMPLE_SUITE = (
    ("alt:5", 4, 60),
    ("alt:6", 9, 360),
    ("psl2:5", 5, 60),
    ("psl2:7", 7, 168),
    ("psl2:8", 8, 504),
    ("psl2:11", 11, 660),
    ("psl2:13", 13, 1092),
    ("psl2:17", 17, 2448),
)


def psl2_membership_prediction(q: int) -> str:
    return _word(q in (4, 9) or is_fermat_prime(q) or is_mersenne_prime(q))


def _sweep_t_finitesimple() -> list[Instance]:
    return [
        _spec_instance(
            f"t-finitesimple/{spec}", psl2_membership_prediction(q), order, spec,
            f"q={q}: member iff q in {{4,9}} or q a Fermat or Mersenne prime",
        )
        for spec, q, order in _SIMPLE_SUITE
    ]


def _ncsupersoluble_table() -> list[tuple[str, Callable, int, int, int, bool]]:
    """(label, action, p, d, order, fixed_point_free); action(p, d) is the
    ActionSpec, and its semidirect product has that order."""
    rows = []
    for p in (3, 5, 7):
        divisors = [d for d in range(2, p) if (p - 1) % d == 0]
        for d in divisors:
            rows.append((f"p={p}-plane-d={d}", scalar_action_on_plane,
                         p, d, p * p * d, True))
            if d % 2 == 1:
                rows.append((f"p={p}-xsp-d={d}", diagonal_action_on_heisenberg,
                             p, d, p**3 * d, True))
        d = divisors[-1]
        rows.append((f"p={p}-nonfpf", one_factor_action, p, d, p * p * d, False))
    return rows


def ncsupersoluble_sweep_actions() -> list[tuple[str, ActionSpec, bool]]:
    """(label, action, expect_fixed_point_free) for the split-extension sweep.

    Positive instances pair every prime p in {3,5,7} and divisor d>1 of p-1
    with a scalar action on C_p x C_p, plus the diagonal action on the
    exponent-p extraspecial group for odd d.  Even-order fixed-point-free
    automorphisms force abelian groups, and the exponent-p^2 type has none
    at all (every automorphism fixes the order-p elements' line in the
    Frattini quotient), so those combinations have no instances.
    """
    return [
        (label, action(p, d), fpf)
        for label, action, p, d, _order, fpf in _ncsupersoluble_table()
    ]


def _split_extension(action: Callable[[int, int], ActionSpec], p: int, d: int):
    spec = action(p, d)
    fpf = classify.acts_fixed_point_freely(spec)
    verdict = classify.in_class_X(semidirect(spec))
    return ("fpf," if fpf else "non-fpf,") + _word(verdict.member), _witness(verdict)


def _least(orders: tuple[int, ...]) -> tuple[str, None]:
    return str(min(orders)), None


def _sweep_t_ncsupersoluble() -> list[Instance]:
    rows = _ncsupersoluble_table()
    note = "cyclic complement of order dividing p-1 acting without fixed points"
    out = [
        Instance(f"t-ncsupersoluble/{label}",
                 ("fpf," if fpf else "non-fpf,") + _word(fpf),
                 order, _split_extension, (action, p, d), note)
        for label, action, p, d, order, fpf in rows
    ]
    # the least orders depend on the whole sweep: they carry its largest
    # order, so --max-order leaves them out unless every member runs
    members = tuple(order for *_, order, fpf in rows if fpf)
    odd = tuple(o for o in members if o % 2)
    out.append(Instance("t-ncsupersoluble/zz-least-member-order", "18",
                        max(members), _least, (members,),
                        "smallest split extension in the sweep"))
    out.append(Instance("t-ncsupersoluble/zz-least-odd-member-order", "147",
                        max(members), _least, (odd,),
                        "smallest odd-order split extension in the sweep"))
    return out


def _c2_on_c3() -> tuple[str, None]:
    spec = _inverting_c3(2)
    G = semidirect(spec)
    fpf = classify.acts_fixed_point_freely(spec)
    member = classify.in_class_X(G).member
    shape = "S3" if (G.order == 6 and not G.is_abelian) else "other"
    return f"{shape},fpf={fpf},{_word(member)}", None


def _q8_on_c3() -> tuple[str, None]:
    G, _spec = quaternion_on_c3()
    member = classify.in_class_X(G).member
    P2 = sylow_subgroup(G, 2)
    zg = G.center()
    zp = G.centralizer_mask(P2.generating_set()) & P2.mask
    fam = classify.two_group_family(P2.induced_group())
    same = zg.mask == zp
    return f"{_word(member)},sylow2={fam},Z(G)=Z(D)={same}", None


def _c3_semi_c4() -> tuple[str, None]:
    G = _split(_inverting_c3, 4)
    member = classify.in_class_X(G).member
    z = G.center().order
    return f"{_word(member)},1<Z<D={1 < z < 4}", None


def _sweep_t_csupersoluble() -> list[Instance]:
    return [
        Instance("t-csupersoluble/i-c2-on-c3", "S3,fpf=True,member", 6, _c2_on_c3, (),
                 "cyclic on cyclic acting fixed point freely"),
        Instance("t-csupersoluble/ii-q8-on-c3",
                 "member,sylow2=quaternion,Z(G)=Z(D)=True", 24, _q8_on_c3, (),
                 "generalized quaternion complement with coinciding centers"),
        Instance("t-csupersoluble/iii-c3-semi-c4", "member,1<Z<D=True", 12,
                 _c3_semi_c4, (),
                 "cyclic Sylow for the smallest prime with proper central part"),
    ]


_EXAMPLE_PRESENTATIONS = (
    ("ex18", "ex_order18.pres", 18, "A", "member"),
    ("ex147", "ex_order147.pres", 147, "B", "member"),
    ("ex24", "ex_order24.pres", 24, "B", "non-member"),
    ("ex12", "ex_order12.pres", 12, "B", "member"),
    ("ex75", "ex_order75.pres", 75, "B", "member"),
)


def _realize_example(fname: str, order: int):
    pres = parse_presentation(_data_text(fname))
    return realize(pres, convention="auto", order_hint=order)


def _example(fname: str, order: int) -> tuple[str, dict | None]:
    r = _realize_example(fname, order)
    verdict = classify.in_class_X(r.group)
    return (f"order={r.order},convention={r.convention},{_word(verdict.member)}",
            _witness(verdict))


def _ex75_structure() -> tuple[str, None]:
    r = _realize_example("ex_order75.pres", 75)
    ss = classify.is_supersolvable(r.group)
    return f"odd={r.order % 2 == 1},supersolvable={ss}", None


def _ex24_comparison() -> tuple[str, None]:
    words = []
    for name, G in (("printed", _realize_example("ex_order24.pres", 24).group),
                    ("explicit", quaternion_on_c3()[0])):
        fam = classify.two_group_family(sylow_subgroup(G, 2).induced_group())
        words.append(f"{name}:sylow2={fam},{_word(classify.in_class_X(G).member)}")
    return ";".join(words), None


def _sweep_examples() -> list[Instance]:
    out = [
        Instance(f"examples/{label}",
                 f"order={order},convention={convention},{membership}",
                 order, _example, (fname, order),
                 "printed presentation realized by coset enumeration")
        for label, fname, order, convention, membership in _EXAMPLE_PRESENTATIONS
    ]
    out.append(Instance("examples/ex75-structure", "odd=True,supersolvable=False", 75,
                        _ex75_structure, (),
                        "odd order does not imply supersolvability inside the class"))
    out.append(Instance(
        "examples/ex24-comparison",
        "printed:sylow2=dihedral,non-member;explicit:sylow2=quaternion,member",
        24, _ex24_comparison, (),
        "printed order-24 presentation versus the explicit quaternion extension",
    ))
    return out


def _exclusion(key: str) -> tuple[str, dict | None]:
    """Close the bundled generating pair ``key`` and certify its ambient group
    out of class X; a7 reports the abelian invariants, the rest dihedrality."""
    entry = _data_json("witnesses.json")[key]
    if "cycles" in entry:
        gens = [parse_cycles(c, entry["degree"]) for c in entry["cycles"]]
    else:
        gens = [projective_plane_perm(entry["p"], M) for M in entry["matrices"]]
        if tuple(gens) != psl3_witness_pair(entry["p"]):
            return "fixture/matrix mismatch", None
    K = close_generators(gens)
    if key == "a7":
        inv = classify.abelian_invariants(K) if K.is_abelian else None
        shape = f"invariants={list(inv) if inv else None}"
    else:
        shape = f"dihedral={classify.is_dihedral_group(K)}"
    cert = classify.certify_non_membership(entry["ambient"], gens)
    computed = f"order={K.order},{shape},certified={cert.conclusive}"
    return computed, _witness(cert.verdict)


def _sweep_exclusion_witnesses() -> list[Instance]:
    # each pair generates a group of order 12
    return [
        Instance("exclusion-witnesses/a7", "order=12,invariants=[2, 6],certified=True",
                 12, _exclusion, ("a7",),
                 "two even permutations of degree 7 spanning a rank-2 abelian group"),
        Instance("exclusion-witnesses/m11", "order=12,dihedral=True,certified=True",
                 12, _exclusion, ("m11",),
                 "two degree-11 permutations spanning a dihedral group of order 12"),
        Instance("exclusion-witnesses/psl3-7", "order=12,dihedral=True,certified=True",
                 12, _exclusion, ("psl3_7",),
                 "projectivized matrix pair on the 57-point plane"),
    ]


def _sylow_normalizer(p: int) -> tuple[str, None]:
    G = psl2(p)
    P = sylow_subgroup(G, p)
    N = normalizer(G, P)
    c_in_n = G.centralizer_mask(P.generating_set()) & N.mask
    return f"|P|={P.order},|N|={N.order},C_N(P)==P={c_in_n == P.mask}", None


def _sweep_psl2_normalizer() -> list[Instance]:
    return [
        # the normalizer of a Sylow p-subgroup of PSL2(p) has order p(p-1)/2
        Instance(f"psl2-normalizer/p={p}",
                 f"|P|={p},|N|={p * (p - 1) // 2},C_N(P)==P=True",
                 _psl2_order(p), _sylow_normalizer, (p,),
                 "Sylow normalizer centralizes the Sylow subgroup only inside itself")
        for p in (5, 7)
    ]


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
THEOREM_IDS = tuple(_SWEEPS)


def sweep(theorem_id: str) -> list[Instance]:
    """The instance records of one theorem id's default sweep."""
    if theorem_id not in _SWEEPS:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    return _SWEEPS[theorem_id]()


def verify(theorem_id: str, max_order: int | None = None) -> list[TheoremReport]:
    """Run the default instance sweep for one theorem id."""
    return _run(sweep(theorem_id), max_order)


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


def manifest_instances(path: str | Path) -> list[Instance]:
    """The records of a manifest: sweeps expand, spot entries check one spec.

    A manifest is a JSON list of objects.  Each has a "theorem" id and may
    add an "id"; a spot entry adds a "spec" and an "expect", all strings.
    Raises CentraError, naming the entry (counted from 1), on any other
    shape: an unknown key (a misspelled "spec" would run the whole sweep)
    or an "expect" without a "spec" is refused, not ignored."""
    path = Path(path)
    entries = json.loads(path.read_text())
    if not isinstance(entries, list):
        raise CentraError(f"manifest {path} must hold a JSON list of entries")
    out: list[Instance] = []
    for k, entry in enumerate(entries, 1):
        if not isinstance(entry, dict):
            raise CentraError(f"manifest entry {k} must be a JSON object")
        unknown = [key for key in entry if key not in ("theorem", "spec", "expect", "id")]
        if unknown:
            raise CentraError(f"manifest entry {k} has unknown key {unknown[0]!r}")
        if "expect" in entry and "spec" not in entry:
            raise CentraError(f"manifest entry {k} has 'expect' but no 'spec'")
        required = ("theorem", "spec", "expect") if "spec" in entry else ("theorem",)
        missing = [key for key in required if key not in entry]
        if missing:
            raise CentraError(f"manifest entry {k} has no {missing[0]!r}")
        for key in ("theorem", "spec", "expect", "id"):
            if not isinstance(entry.get(key, ""), str):
                raise CentraError(f"manifest entry {k}: {key!r} must be a string")
        theorem = entry["theorem"]
        if theorem not in _SWEEPS:
            raise CentraError(f"unknown theorem id {theorem!r} in manifest")
        if "spec" not in entry:
            out += sweep(theorem)
            continue
        spec = entry["spec"]
        out.append(_spec_instance(
            entry.get("id", f"{theorem}/{spec}"), entry["expect"], None, spec,
            f"manifest spot check against {theorem}", path.parent,
            "C" if theorem == "class-C-finite" else "X",
        ))
    return out


def run_manifest(
    path: str | Path,
    *,
    max_order: int | None = None,
    jobs: int = 1,
) -> ManifestResult:
    """Execute every manifest entry; sweeps expand, spot entries run one check.

    ``jobs`` remains only for perfbench/worker.py, its one caller, and must
    be 1: instances run one after another."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    return ManifestResult(_run(manifest_instances(path), max_order))
