import itertools
import random

import numpy as np
import pytest

from centra.constructors import (
    abelian,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    symmetric,
)
from centra.errors import GroupTooLargeError, InvariantError
from centra.groups import FiniteGroup, SubgroupRef, close_generators
from centra.perms import Perm, parse_cycles, perms_from_cycles


def s3():
    return close_generators([Perm([1, 0, 2]), Perm([1, 2, 0])])


def test_single_transposition_closure():
    G = close_generators([Perm([1, 0])])
    assert G.order == 2


def test_s3_closure_matches_hand_enumeration():
    G = s3()
    assert G.order == 6
    # brute force: all words over the generators, by hand logic
    gens = [Perm([1, 0, 2]), Perm([1, 2, 0])]
    words = {Perm.identity(3).images}
    grew = True
    while grew:
        grew = False
        for w in list(words):
            for g in gens:
                prod = (g * Perm(w)).images
                if prod not in words:
                    words.add(prod)
                    grew = True
    assert {p.images for p in G.elements} == words


def test_a7_witness_pair_closure():
    a = parse_cycles("(1,2)(3,4)(5,6,7)", 7)
    b = parse_cycles("(1,3)(2,4)", 7)
    K = close_generators([a, b])
    assert K.order == 12
    assert K.is_abelian
    assert sorted(K.element_orders()) == [1, 2, 2, 2, 3, 3, 6, 6, 6, 6, 6, 6]


def test_canonical_element_order_is_deterministic():
    # two generating sets for the same group index elements identically
    G1 = close_generators([Perm([1, 0, 2]), Perm([1, 2, 0])])
    G2 = close_generators([Perm([0, 2, 1]), Perm([2, 0, 1])])
    assert [p.images for p in G1.elements] == [p.images for p in G2.elements]
    assert G1.elements[0].is_identity()


def test_order_cap():
    with pytest.raises(GroupTooLargeError) as err:
        close_generators(symmetric(6).generators, order_cap=100)
    assert err.value.partial_count > 100


def test_group_axioms_exhaustive_small():
    for G in [s3(), dihedral(8), generalized_quaternion(8), cyclic(12)]:
        n = G.order
        for i in range(n):
            assert G.mul(0, i) == i == G.mul(i, 0)
            assert G.mul(i, G.inv(i)) == 0
        for i, j, k in itertools.product(range(n), repeat=3):
            assert G.mul(G.mul(i, j), k) == G.mul(i, G.mul(j, k))
        # closure under multiplication: mul is total and lands in range
        for i, j in itertools.product(range(n), repeat=2):
            assert 0 <= G.mul(i, j) < n


def test_element_order_examples():
    G = close_generators([parse_cycles("(1,2)(3,4,5)", 5)])
    g = parse_cycles("(1,2)(3,4,5)", 5)
    assert G.element_order(g) == 6
    assert G.element_order(Perm.identity(5)) == 1
    five = close_generators([parse_cycles("(1,2,3,4,5)", 5)])
    assert five.element_order(parse_cycles("(1,2,3,4,5)", 5)) == 5


def test_element_order_requires_membership():
    with pytest.raises(ValueError):
        s3().element_order(parse_cycles("(1,2,3)", 4) * Perm.identity(4))


def _centralizer_brute(G, targets):
    out = set()
    for i, g in enumerate(G.elements):
        if all(g * t == t * g for t in targets):
            out.add(i)
    return out


def test_centralizer_examples_and_oracle():
    G = s3()
    # centralizer of the identity is everything
    assert G.centralizer([Perm.identity(3)]).order == 6
    # centralizer of a 3-cycle is the cyclic subgroup of order 3
    c = G.centralizer([parse_cycles("(1,2,3)", 3)])
    assert c.order == 3
    assert c.is_cyclic()
    d8 = dihedral(8)
    full = d8.centralizer(d8.elements)
    assert full.order == 2
    # brute-force scan agrees on several groups and subsets
    for G in [s3(), dihedral(8), generalized_quaternion(8), dihedral(12)]:
        for size in (1, 2):
            for targets in itertools.combinations(G.elements[:5], size):
                got = set(G.centralizer(list(targets)).indices())
                assert got == _centralizer_brute(G, targets)


def test_centralizer_is_closed_subgroup():
    for G in [s3(), dihedral(12), generalized_quaternion(16)]:
        for t in G.elements[:6]:
            S = G.centralizer([t])
            idx = S.indices()
            for i in idx:
                for j in idx:
                    assert S.contains_index(G.mul(i, j))


def test_center_examples():
    assert cyclic(12).center().order == 12
    assert abelian([2, 4]).center().order == 8
    assert dihedral(8).center().order == 2
    assert s3().center().order == 1
    # center is contained in every centralizer
    G = dihedral(16)
    z = G.center().mask
    for t in G.elements:
        assert z & ~G.centralizer([t]).mask == 0


def test_conjugacy_classes():
    G = abelian([3, 3])
    assert len(G.conjugacy_classes()) == 9
    assert all(len(c) == 1 for c in G.conjugacy_classes())
    assert sorted(len(c) for c in s3().conjugacy_classes()) == [1, 2, 3]
    assert len(generalized_quaternion(8).conjugacy_classes()) == 5
    # class sizes divide the order and sum to it
    for G in [s3(), dihedral(12), generalized_quaternion(16), symmetric(4)]:
        sizes = [len(c) for c in G.conjugacy_classes()]
        assert sum(sizes) == G.order
        assert all(G.order % s == 0 for s in sizes)
        reps = G.class_representatives()
        assert reps == sorted(reps)


def test_lower_central_series_and_class():
    G = abelian([4, 3])
    series = G.lower_central_series()
    assert len(series) == 2
    assert series[0].order == G.order
    assert series[1].order == 1
    assert dihedral(16).nilpotency_class() == 3
    assert dihedral(8).nilpotency_class() == 2
    assert s3().nilpotency_class() is None
    assert cyclic(1).nilpotency_class() == 0


def test_derived_subgroup_oracle():
    G = s3()
    D = G.derived_subgroup()
    assert D.order == 3
    # oracle: closure of all commutators
    comms = set()
    for i in range(G.order):
        for j in range(G.order):
            comms.add(
                G.mul(G.mul(G.mul(G.inv(i), G.inv(j)), i), j)
            )
    assert D.mask == G.closure_mask(sorted(comms))
    assert symmetric(4).derived_subgroup().order == 12
    assert abelian([6, 2]).derived_subgroup().order == 1


def test_normal_closure():
    G = symmetric(4)
    t = G.index_of(parse_cycles("(1,2)", 4))
    assert G.normal_closure([t]).order == 24
    c3 = G.index_of(parse_cycles("(1,2,3)", 4))
    assert G.normal_closure([c3]).order == 12
    double = G.index_of(parse_cycles("(1,2)(3,4)", 4))
    assert G.normal_closure([double]).order == 4


def test_subgroup_ref_basics():
    G = dihedral(8)
    S = G.generated_subgroup([G.elements[1]])
    assert S.order in (2, 4)
    assert 0 in S.indices()
    induced = S.induced_group()
    assert induced.order == S.order
    gens = S.generating_set()
    assert G.closure_mask(gens) == S.mask


def test_subgroup_ref_invariants_raise():
    G = dihedral(8)
    with pytest.raises(InvariantError):
        SubgroupRef(G, 2)  # no identity
    with pytest.raises(InvariantError):
        SubgroupRef(G, 0b111)  # order 3 does not divide 8


def test_mask_indices_matches_bit_walk():
    def walk(mask):
        return [i for i in range(mask.bit_length()) if (mask >> i) & 1]

    for mask in (0, 1, 0b1011, 1 << 200, (1 << 777) - 1, 0xF0F0 << 64):
        assert FiniteGroup.mask_indices(mask) == walk(mask)
    assert all(type(i) is int for i in FiniteGroup.mask_indices(0b101))


def test_cyclic_orbit_reps_under_conjugation():
    G = dihedral(8)
    orders = G.element_orders()
    reps = [i for i in range(1, G.order) if G.cyclic_reps()[i] == i]
    orbit_reps = G.cyclic_orbit_reps(reps, G.generator_indices())
    # D_8: the central involution, two classes of reflections, and <r>
    assert sorted(orders[i] for i in orbit_reps) == [2, 2, 2, 4]
    # conjugation by the identity joins nothing
    assert G.cyclic_orbit_reps(reps, [0]) == reps


def test_mask_independent_constructions():
    # the same subgroup reached two ways gives the same bit-set
    G = symmetric(4)
    a = G.index_of(parse_cycles("(1,2,3)", 4))
    b = G.index_of(parse_cycles("(1,3,2)", 4))
    assert G.closure_mask([a]) == G.closure_mask([b])


def test_json_round_trip():
    G = dihedral(12)
    data = G.to_json()
    assert set(data) == {"degree", "generators"}
    G2 = FiniteGroup.from_json(data)
    assert G2.order == G.order
    assert [p.images for p in G2.elements] == [p.images for p in G.elements]


def test_direct_product_order():
    G = direct_product(cyclic(6), cyclic(2))
    assert G.order == 12
    assert G.is_abelian


# -- the element matrix against plain Perm arithmetic ----------------------------


def _reference_elements(gens):
    """Perm-by-Perm breadth-first closure, sorted by image tuple."""
    identity = Perm.identity(gens[0].degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g * x
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _dihedral_262():
    """Degree = order = 262, with image values above 255, so the byte order
    of the sort matters."""
    from centra.presentations import parse_presentation, realize

    pres = parse_presentation("gens: a b\na^131 = 1\nb^2 = 1\n(ab)^2 = 1\n")
    return realize(pres, "auto", 262).group


def _reference_groups():
    from centra.constructors import parse_group_spec
    from centra.presentations import parse_presentation, realize
    from centra.verify import _data_text

    groups = {s: parse_group_spec(s) for s in ("dihedral:64", "psl2:7", "sym:5")}
    pres = parse_presentation(_data_text("ex_order18.pres"))
    groups["ex_order18"] = realize(pres, "auto", 18).group
    groups["dihedral-262"] = _dihedral_262()
    S5 = groups["sym:5"]
    a4 = S5.generated_subgroup(perms_from_cycles(["(1,2,3)", "(2,3,4)"], 5))
    groups["induced:alt4"] = a4.induced_group()
    return groups


REFERENCE_GROUPS = _reference_groups()


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_element_matrix_matches_perm_closure(name):
    G = REFERENCE_GROUPS[name]
    ref = _reference_elements(list(G.generators))
    assert [p.images for p in G] == [p.images for p in ref]
    assert G.matrix.dtype == np.int32 and G.matrix.flags.c_contiguous
    assert G.matrix.tolist() == [list(p.images) for p in ref]
    assert all(G.index_of(p) == i for i, p in enumerate(ref))
    if name in ("ex_order18", "dihedral-262"):
        assert G.degree == G.order
    if name == "induced:alt4":
        assert G.order == 12


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_index_arithmetic_matches_perm_arithmetic(name):
    G = REFERENCE_GROUPS[name]
    el = G.elements
    rng = random.Random(name)
    for _ in range(60):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        k = rng.randrange(-7, 8)
        assert el[G.mul(i, j)] == el[i] * el[j]
        assert el[G.inv(i)] == el[i].inverse()
        assert el[G.conj(i, j)] == el[i].conjugate_by(el[j])
        assert el[G.power(i, k)] == el[i] ** k
        assert G.element(i) == el[i]
    for _ in range(5):
        g = rng.randrange(G.order)
        xs = rng.sample(range(G.order), min(G.order, 9))
        assert [el[y] for y in G.conjugates(xs, g)] == [
            el[x].conjugate_by(el[g]) for x in xs
        ]
    assert G.conjugates([], 0) == []


# the brute force takes seconds on the order-262 group
@pytest.mark.parametrize("name", sorted(set(REFERENCE_GROUPS) - {"dihedral-262"}))
def test_conjugacy_classes_match_brute_force(name):
    G = REFERENCE_GROUPS[name]
    el = G.elements
    classes = {
        tuple(sorted({G.index_of(x.conjugate_by(g)) for g in el})) for x in el
    }
    assert G.conjugacy_classes() == sorted(list(c) for c in classes)


# fresh groups, so that each test fills the order and mask caches itself
@pytest.mark.parametrize(
    "name", ["dihedral:64", "psl2:7", "sym:5", "abelian:12,36", "dihedral-262"]
)
@pytest.mark.parametrize("first", ["orders", "masks"])
def test_orders_and_cyclic_masks_match_power_loop(name, first):
    from centra.constructors import parse_group_spec

    G = _dihedral_262() if name == "dihedral-262" else parse_group_spec(name)
    if first == "orders":
        orders, masks = G.element_orders(), G.cyclic_masks()
    else:
        masks, orders = G.cyclic_masks(), G.element_orders()
    assert orders == [G.element(i).order() for i in range(G.order)]
    identity = Perm.identity(G.degree)
    for i in range(G.order):
        g = G.element(i)
        power, mask = g, 1
        while power != identity:
            mask |= 1 << G.index_of(power)
            power = power * g
        assert masks[i] == mask, i
