"""Subgroup enumeration: full lattice, maximal subgroups, Sylow, normalizers.

all_subgroups uses layered closure: seed with every cyclic subgroup, then
repeatedly extend each known subgroup by a cyclic-subgroup representative
and close, to a fixpoint.  Output order is deterministic (sorted by order,
then bit-set), so identical runs produce identical lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError, SubgroupCapError
from .fields import is_prime
from .groups import FiniteGroup, SubgroupRef

DEFAULT_SUBGROUP_CAP = 2000


@dataclass
class SubgroupList:
    """All subgroups found for a parent group, deduplicated and sorted."""

    parent: FiniteGroup
    items: list[SubgroupRef] = field(default_factory=list)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> SubgroupRef:
        return self.items[i]

    def orders(self) -> list[int]:
        return [s.order for s in self.items]

    def by_order(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self.items:
            counts[s.order] = counts.get(s.order, 0) + 1
        return dict(sorted(counts.items()))


def _sorted_items(parent: FiniteGroup, masks) -> list[SubgroupRef]:
    return [
        SubgroupRef(parent, m)
        for m in sorted(masks, key=lambda m: (m.bit_count(), m))
    ]


def all_subgroups(
    G: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP
) -> SubgroupList:
    """Every subgroup of G, for |G| up to the brute-force cap."""
    if G.order > cap:
        raise SubgroupCapError(G.order, cap)
    cyc_masks = G.cyclic_masks()
    reps = G.cyclic_reps()
    rep_indices = sorted(i for i in range(G.order) if reps[i] == i and i != 0)

    known: dict[int, list[int]] = {1: [0]}  # mask -> generating indices
    worklist: list[int] = [1]
    for i in rep_indices:
        m = cyc_masks[i]
        if m not in known:
            known[m] = [i]
            worklist.append(m)

    attempted: set[tuple[int, int]] = set()
    pos = 0
    while pos < len(worklist):
        mask = worklist[pos]
        pos += 1
        gens = known[mask]
        for i in rep_indices:
            if (mask >> i) & 1:
                continue
            key = (mask, i)
            if key in attempted:
                continue
            attempted.add(key)
            new_mask = G.closure_mask(gens + [i])
            if new_mask not in known:
                known[new_mask] = gens + [i]
                worklist.append(new_mask)
    return SubgroupList(G, _sorted_items(G, known.keys()))


def is_cyclic(S: SubgroupRef) -> bool:
    """True iff some member of S generates all of S."""
    return S.is_cyclic()


def maximal_subgroups(
    G: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP
) -> SubgroupList:
    """Proper subgroups maximal under inclusion."""
    subs = all_subgroups(G, cap)
    proper = [s for s in subs if s.order < G.order]
    maximal = []
    for s in proper:
        if not any(
            t.order > s.order and (s.mask & t.mask) == s.mask for t in proper
        ):
            maximal.append(s)
    return SubgroupList(G, maximal)


def normalizer(G: FiniteGroup, S: SubgroupRef) -> SubgroupRef:
    """Elements g with S^g = S, found by elementwise scan."""
    mask = 0
    smask = S.mask
    for g in range(G.order):
        if S.conjugate_mask(g) == smask:
            mask |= 1 << g
    return SubgroupRef(G, mask)


def _p_elements(G: FiniteGroup, p: int) -> list[int]:
    orders = G.element_orders()
    out = []
    for i in range(1, G.order):
        k = orders[i]
        while k % p == 0:
            k //= p
        if k == 1 and orders[i] > 1:
            out.append(i)
    return out


def sylow_subgroup(G: FiniteGroup, p: int) -> SubgroupRef:
    """A Sylow p-subgroup, grown through successive normalizers.

    Among the conjugate Sylow subgroups, returns the one with the
    lexicographically least member list, so reports are reproducible.
    Returns the trivial subgroup when p does not divide |G|.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    target = 1
    n = G.order
    while n % p == 0:
        n //= p
        target *= p
    if target == 1:
        return G.trivial_subgroup()

    candidates = _p_elements(G, p)
    P = G.generated_subgroup([candidates[0]])
    while P.order < target:
        N = normalizer(G, P)
        grown = False
        for x in candidates:
            if P.contains_index(x) or not N.contains_index(x):
                continue
            trial = G.generated_subgroup(P.generating_set() + [x])
            if target % trial.order == 0:
                P = trial
                grown = True
                break
        if not grown:
            raise InvariantError("Sylow growth stalled; should be impossible")

    # all Sylow p-subgroups are conjugate; take the least bit-set
    best = P.mask
    for g in range(G.order):
        m = P.conjugate_mask(g)
        if m < best:
            best = m
    return SubgroupRef(G, best)


def minimal_normal_subgroups(G: FiniteGroup) -> SubgroupList:
    """Minimal non-trivial normal subgroups.

    Candidates are normal closures of single conjugacy-class
    representatives; every minimal normal subgroup is the normal closure
    of each of its non-trivial elements, so the minimal candidates are
    exactly the minimal normal subgroups.
    """
    candidates: set[int] = set()
    for rep in G.class_representatives():
        if rep == 0:
            continue
        candidates.add(G.normal_closure([rep]).mask)
    minimal = []
    for m in candidates:
        if not any(o != m and (o & m) == o for o in candidates):
            minimal.append(m)
    return SubgroupList(G, _sorted_items(G, minimal))
