import itertools
import random

import pytest

from centra.constructors import (
    abelian,
    alternating,
    cyclic,
    dihedral,
    generalized_quaternion,
    parse_group_spec,
    psl2,
    symmetric,
)
from centra.errors import SubgroupCapError
from centra.groups import close_generators
from centra.lattice import (
    all_subgroups,
    maximal_subgroups,
    minimal_normal_subgroups,
    normalizer,
    sylow_subgroup,
)
from centra.perms import parse_cycles


def _subgroups_by_subsets(G):
    """Independent oracle: every subset closed under multiplication."""
    n = G.order
    found = set()
    for size in range(1, n + 1):
        if n % size:
            continue
        for combo in itertools.combinations(range(1, n), size - 1):
            members = (0,) + combo
            mset = set(members)
            if all(G.mul(i, j) in mset for i in members for j in members):
                found.add(frozenset(members))
    return found


def test_all_subgroups_against_subset_oracle():
    for G, expected_count in [(dihedral(8), 10), (generalized_quaternion(8), 6)]:
        subs = all_subgroups(G)
        assert len(subs) == expected_count
        oracle = _subgroups_by_subsets(G)
        assert {frozenset(S.indices()) for S in subs} == oracle


def test_prime_cyclic_has_two_subgroups():
    for p in (2, 3, 5, 13):
        assert len(all_subgroups(cyclic(p))) == 2


def _num_divisors(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_cyclic_subgroup_count_equals_divisor_count():
    for n in (1, 2, 6, 12, 30, 36, 60, 97, 128, 180, 200):
        assert len(all_subgroups(cyclic(n))) == _num_divisors(n)


def test_subgroup_list_contains_trivial_and_parent():
    G = symmetric(4)
    subs = all_subgroups(G)
    orders = [S.order for S in subs]
    assert orders[0] == 1
    assert orders[-1] == 24
    assert len(subs) == 30  # S4 has 30 subgroups
    # every item is closed
    for S in subs:
        idx = S.indices()
        assert all(S.contains_index(G.mul(i, j)) for i in idx for j in idx)


@pytest.mark.parametrize("spec, closures", [("sym:4", 392), ("dihedral:24", 467)])
def test_all_subgroups_closure_count_is_pinned(spec, closures):
    # each known subgroup is extended once by each cyclic representative
    # outside it, so no (subgroup, representative) pair is closed twice
    G = parse_group_spec(spec)
    calls, closure = [], G.closure_mask
    G.closure_mask = lambda seed: calls.append(seed) or closure(seed)
    all_subgroups(G)
    assert len(calls) == closures


def test_all_subgroups_deterministic():
    a = [S.mask for S in all_subgroups(dihedral(24))]
    b = [S.mask for S in all_subgroups(dihedral(24))]
    assert a == b
    # sorted by (order, mask)
    keys = [(S.order, S.mask) for S in all_subgroups(dihedral(24))]
    assert keys == sorted(keys)


def test_cap_error_advises_alternative():
    with pytest.raises(SubgroupCapError) as err:
        all_subgroups(psl2(17))
    assert "pair-reduced" in str(err.value)


def test_is_cyclic():
    G = dihedral(8)
    subs = all_subgroups(G)
    for S in subs:
        if S.order in (1, 2):
            assert S.is_cyclic()
    kleins = [S for S in subs if S.order == 4 and not S.is_cyclic()]
    assert len(kleins) == 2  # D8 has two Klein four-subgroups
    six = close_generators([parse_cycles("(1,2,3,4,5,6)", 6)])
    assert six.full_subgroup().is_cyclic()


def test_maximal_subgroups():
    assert [S.order for S in maximal_subgroups(cyclic(7))] == [1]
    assert sorted(S.order for S in maximal_subgroups(symmetric(4))) == [
        6, 6, 6, 6, 8, 8, 8, 12,
    ]
    q8_max = maximal_subgroups(generalized_quaternion(8))
    assert [S.order for S in q8_max] == [4, 4, 4]


def test_sylow_subgroup():
    G = abelian([3, 9])
    assert sylow_subgroup(G, 3).order == 27
    S = sylow_subgroup(symmetric(4), 2)
    assert S.order == 8
    assert sylow_subgroup(symmetric(4), 3).order == 3
    # p not dividing the order gives the trivial subgroup
    assert sylow_subgroup(symmetric(4), 5).order == 1
    G7 = psl2(7)
    assert sylow_subgroup(G7, 7).order == 7
    assert sylow_subgroup(G7, 2).order == 8
    with pytest.raises(ValueError):
        sylow_subgroup(symmetric(4), 4)


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_sylow_order_cross_check():
    for G in [symmetric(4), dihedral(24), abelian([4, 4]), alternating(5), cyclic(200)]:
        subs = all_subgroups(G)
        n = G.order
        for p in (2, 3, 5, 7):
            if n % p:
                continue
            target = 1
            m = n
            while m % p == 0:
                m //= p
                target *= p
            S = sylow_subgroup(G, p)
            assert S.order == target
            # largest p-power subgroup in the full lattice has the same order
            assert target == max(T.order for T in subs if _is_p_power(T.order, p))


def test_sylow_deterministic_least_bitset():
    G = symmetric(4)
    masks = {sylow_subgroup(G, 2).mask for _ in range(3)}
    assert len(masks) == 1
    # the returned mask is minimal among all conjugates, each a kernel row
    S = sylow_subgroup(G, 2)
    rows = G.conjugates(S.indices(), range(G.order)).tolist()
    assert all(G.mask_of(row) >= S.mask for row in rows)


def _perm_conjugate_mask(G, S, g):
    """Bit-set of S^g, conjugating S's members as Perms."""
    el = G.elements
    return G.mask_of(G.index_of(el[s].conjugate_by(el[g])) for s in S.indices())


@pytest.mark.parametrize("spec", ["sym:4", "dihedral:24", "psl2:7"])
def test_batched_normalizer_and_sylow_match_perm_conjugation(spec):
    # every subgroup of the two small groups, a sample of psl2:7's 179
    G = parse_group_spec(spec)
    subs = all_subgroups(G)
    if spec == "psl2:7":
        subs = random.Random(spec).sample(subs, 12)
    for S in subs:
        expected = G.mask_of(
            g for g in range(G.order) if _perm_conjugate_mask(G, S, g) == S.mask
        )
        assert normalizer(G, S).mask == expected
    for p in (2, 3, 7):
        if G.order % p == 0:
            P = sylow_subgroup(G, p)
            conjugates = {_perm_conjugate_mask(G, P, g) for g in range(G.order)}
            assert P.mask == min(conjugates)


def test_normalizer():
    G = psl2(7)
    P = sylow_subgroup(G, 7)
    N = normalizer(G, P)
    assert N.order == 21
    assert normalizer(G, G.full_subgroup()).order == G.order
    # normalizer contains the subgroup
    assert P.mask & ~N.mask == 0


def test_minimal_normal_subgroups():
    G = abelian([5, 5])
    mins = minimal_normal_subgroups(G)
    assert len(mins) == 6  # p + 1 subgroups of order p
    assert all(S.order == 5 for S in mins)
    # in the symmetric group on 4 points: only the Klein four-group
    mins4 = minimal_normal_subgroups(symmetric(4))
    assert [S.order for S in mins4] == [4]
    # simple group: the group itself
    minsA5 = minimal_normal_subgroups(alternating(5))
    assert [S.order for S in minsA5] == [60]


def test_centralizers_of_enumerated_subgroups_are_enumerated():
    for G in [dihedral(12), generalized_quaternion(16), symmetric(4),
              abelian([3, 9]), alternating(4)]:
        subs = all_subgroups(G)
        masks = {S.mask for S in subs}
        for S in subs:
            c = G.centralizer(S)
            assert c.mask in masks
            # normalizers land in the lattice as well
            assert normalizer(G, S).mask in masks
