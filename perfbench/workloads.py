"""The benchmark's workloads: fixed lists of operations with their expected facts.

An operation is what a user asks for: build one group (from a group spec or
by realizing a presentation) and decide one class for it.  Each operation
carries the group order from a closed formula and the verdict from the
paper's statements (see checks.py), never from centra itself.  The lists
are fixed, so the inputs do not depend on any seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from checks import (
    abelian_member,
    alt_order,
    class_c_member,
    dihedral_member,
    psl2_member,
    psl2_order,
    psl3_order,
    sym_order,
)

WORKLOADS = ("pair-scan", "large-perm", "regular", "manifest")


@dataclass(frozen=True)
class Op:
    name: str
    cls: str            # "X" or "C"
    order: int          # from a closed formula
    member: bool        # from the paper's statements
    spec: str | None = None
    presentation: str | None = None  # text, realized with order hint `order`


# -- pair-scan: members with large non-cyclic centralizers -------------------------


def _pair_scan() -> list[Op]:
    ops = [
        Op(f"dihedral:{o}", "X", o, dihedral_member(o // 2), spec=f"dihedral:{o}")
        for o in (128, 256, 192, 200)
    ]
    # 2-groups of maximal class and non-abelian groups of order p^3 are members
    ops += [Op(s, "X", o, True, spec=s) for s, o in (
        ("sd:128", 128), ("sd:256", 256), ("q:128", 128), ("q:256", 256),
        ("xsp:7,p", 343), ("xsp:5,p2", 125),
    )]
    # D8 x C2 is a 2-group that is neither cyclic, of order p^2 or p^3, nor of
    # maximal class, so it is not a member
    ops.append(Op("dp:dihedral:8;cyclic:2", "X", 16, False,
                  spec="dp:dihedral:8;cyclic:2"))
    return ops


# -- large-perm: low degree, large order ----------------------------------------------


def _large_perm() -> list[Op]:
    ops = [Op(f"psl2:{q}", "X", psl2_order(q), psl2_member(q), spec=f"psl2:{q}")
           for q in (17, 25, 27, 29, 31)]
    # A7, A8 and PSL3(3) are simple and not PSL2; S7 contains A7
    ops += [
        Op("sym:7", "X", sym_order(7), False, spec="sym:7"),
        Op("alt:7", "X", alt_order(7), False, spec="alt:7"),
        Op("alt:8", "X", alt_order(8), False, spec="alt:8"),
        Op("psl3:3", "X", psl3_order(3), False, spec="psl3:3"),
    ]
    return ops


# -- regular: degree = order ------------------------------------------------------------


def cyclic_pres(n: int) -> str:
    return f"gens: a\na^{n} = 1\n"


def abelian_pres(m: int, n: int) -> str:
    return f"gens: a b\na^{m} = 1\nb^{n} = 1\n[a,b] = 1\n"


def dihedral_pres(n: int) -> str:
    """Order 2n."""
    return f"gens: a b\na^{n} = 1\nb^2 = 1\n(ab)^2 = 1\n"


def quaternion_pres(order: int) -> str:
    m = order // 4
    return f"gens: a b\na^{2 * m} = 1\nb^2 = a^{m}\nb^-1 a b = a^-1\n"


def metacyclic_pres(p: int, q: int, k: int) -> str:
    """C_p : C_q with b acting as a -> a^k (k of order q mod p)."""
    return f"gens: a b\na^{p} = 1\nb^{q} = 1\nb^-1 a b = a^{k}\n"


def heisenberg_pres(p: int) -> str:
    return (f"gens: x y z\nx^{p} = 1\ny^{p} = 1\nz^{p} = 1\n"
            "[x,y] = z\n[x,z] = 1\n[y,z] = 1\n")


# the paper's printed examples: file, order, class-X verdict (the printed
# order-24 relations give a dihedral Sylow 2-subgroup and fail class X)
BUNDLED_EXAMPLES = (
    ("ex_order18.pres", 18, True),
    ("ex_order147.pres", 147, True),
    ("ex_order24.pres", 24, False),
    ("ex_order12.pres", 12, True),
    ("ex_order75.pres", 75, True),
)

# groups up to this order get class X as well as class C
REGULAR_X_LIMIT = 500


def _regular(data_dir: Path) -> list[Op]:
    # (name, text, order, class-X verdict, abelian)
    groups = [
        (f, (data_dir / f).read_text(), o, x, False)
        for f, o, x in BUNDLED_EXAMPLES
    ]
    groups += [
        ("pres:cyclic-401", cyclic_pres(401), 401, True, True),
        ("pres:abelian-12x36", abelian_pres(12, 36), 432,
         abelian_member((12, 36)), True),
        ("pres:dihedral-486", dihedral_pres(243), 486, dihedral_member(243), False),
        ("pres:quaternion-256", quaternion_pres(256), 256, True, False),
        # Frobenius group with kernel C31: a non-cyclic subgroup contains the
        # kernel, whose centralizer is the kernel itself, so it is a member
        ("pres:c31-c15", metacyclic_pres(31, 15, 9), 465, True, False),
        ("pres:heisenberg-7", heisenberg_pres(7), 343, True, False),
        ("pres:cyclic-2000", cyclic_pres(2000), 2000, True, True),
    ]
    ops = []
    for name, text, order, x_member, abelian in groups:
        ops.append(Op(name, "C", order, class_c_member(order, abelian),
                      presentation=text))
        if order <= REGULAR_X_LIMIT:
            ops.append(Op(name, "X", order, x_member, presentation=text))
    # table-built constructors: regular representations of maximal-class and
    # p^3 groups, members of class X and (not being of prime order) not of C
    for spec, order in (("q:256", 256), ("xsp:7,p2", 343)):
        ops.append(Op(spec, "C", order, False, spec=spec))
        ops.append(Op(spec, "X", order, True, spec=spec))
    return ops


def operations(workload: str, data_dir: Path) -> list[Op]:
    """The operations of one pass; `data_dir` holds centra's bundled data."""
    if workload == "pair-scan":
        return _pair_scan()
    if workload == "large-perm":
        return _large_perm()
    if workload == "regular":
        return _regular(data_dir)
    raise ValueError(f"{workload!r} has no group operations")
