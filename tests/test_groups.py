import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centra.constructors import (
    abelian,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    symmetric,
)
from centra import groups
from centra.errors import BudgetError, GroupTooLargeError, InvariantError
from centra.groups import (
    ELEMENT_STORAGE_BUDGET,
    FiniteGroup,
    SubgroupRef,
    close_generators,
)
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
        reps = list(G.class_representatives())
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
    orbit_reps = G.cyclic_orbit_reps(reps, list(range(G.order)))
    # D_8: the central involution, two classes of reflections, and <r>
    assert sorted(orders[i] for i in orbit_reps) == [2, 2, 2, 4]
    # the trivial subgroup joins nothing
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


def _closure_rows(gens):
    """Plain-Python breadth-first closure: the image tuples of every product
    of the generators, as a set, then sorted."""
    gens = [g.images for g in gens]
    seen = {tuple(range(len(gens[0])))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)  # g * x, x applied first
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _regular_action(text):
    """The regular action that the closed coset table of a presentation
    gives: its inverse columns, closed, so degree = order and |B| = 1."""
    from centra.presentations import parse_presentation, todd_coxeter

    table = todd_coxeter(parse_presentation(text), "A").closed
    return close_generators([Perm(c) for c in table[1::2].tolist()])


def _dihedral_262():
    """Degree = order = 262, with image values above 255, so the byte order
    of the sort matters."""
    return _regular_action("gens: a b\na^131 = 1\nb^2 = 1\n(ab)^2 = 1\n")


def _c2_power_7():
    """C2^7 as seven disjoint transpositions on 1024 points: |B| = 7 and
    1024^7 > 2^63, so its keys do not fit in int64."""
    gens = []
    for t in range(7):
        images = list(range(1024))
        images[2 * t], images[2 * t + 1] = 2 * t + 1, 2 * t
        gens.append(Perm(images))
    return close_generators(gens)


# the dense table, and the binary search on the sorted keys: for a table
# over 8x the matrix (8^5 keys, 192 elements of degree 8) and for keys past
# int64 (1024^7), which are big-endian void bytes
LOOKUP_PATHS = {"psl2:7": ("table", "int64"),
                "dp:sym:4;dihedral:8": ("search", "int64"),
                "c2^7-on-1024": ("search", "void")}


def _lookup_path(G):
    key = G._key(G.matrix[:, G.base])
    return ("table" if G._table is not None else "search",
            "void" if key.dtype.kind == "V" else str(key.dtype))


def _fresh_group(name):
    from centra.constructors import parse_group_spec

    builders = {"dihedral-262": _dihedral_262, "c2^7-on-1024": _c2_power_7}
    return builders[name]() if name in builders else parse_group_spec(name)


def _reference_groups():
    from centra.constructors import parse_group_spec
    from centra.verify import _data_text

    groups = {
        s: parse_group_spec(s)
        for s in ("dihedral:64", "psl2:7", "sym:5", "dp:sym:4;dihedral:8")
    }
    groups["ex_order18"] = _regular_action(_data_text("ex_order18.pres"))
    groups["dihedral-262"] = _dihedral_262()
    groups["c2^7-on-1024"] = _c2_power_7()
    S5 = groups["sym:5"]
    a4 = S5.generated_subgroup(perms_from_cycles(["(1,2,3)", "(2,3,4)"], 5))
    groups["induced:alt4"] = a4.induced_group()
    return groups


REFERENCE_GROUPS = _reference_groups()


@pytest.mark.parametrize("gens", [
    [Perm([0])],
    [Perm.identity(5)],
    [Perm.identity(3), Perm.identity(3)],
], ids=["degree-1", "identity", "identity-twice"])
def test_trivial_group_closure(gens):
    G = close_generators(gens)
    assert G.order == 1
    assert G.matrix.tolist() == [list(range(gens[0].degree))]
    assert list(G.base) == []


@st.composite
def generator_sets(draw):
    """1-3 generators of degree <= 7, identities and repeats allowed."""
    degree = draw(st.integers(1, 7))
    perm = st.permutations(range(degree)).map(Perm)
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens + [Perm.identity(degree)])))
    return gens


# a chain level tests its Schreier generators in numpy blocks of
# groups._BLOCK entries: the default blocks and one-row blocks must both give
# the plain closure's matrix
ROW_PATHS = {"default": groups._BLOCK, "numpy-one-row-blocks": 1}
# the reference groups' generators, and a 401-cycle, whose Schreier tree is
# one path of 400 edges (the regular action of C401 that the benchmark
# realizes)
CHAIN_CASES = {name: G.generators for name, G in REFERENCE_GROUPS.items()}
CHAIN_CASES["cyclic-401"] = [Perm([(i + 1) % 401 for i in range(401)])]


@pytest.mark.parametrize("path", sorted(ROW_PATHS))
@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_stabilizer_chain_matches_plain_closure(name, path, monkeypatch):
    monkeypatch.setattr(groups, "_BLOCK", ROW_PATHS[path])
    gens = CHAIN_CASES[name]
    rows = _closure_rows(gens)
    assert close_generators(gens).matrix.tolist() == [list(r) for r in rows]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(generator_sets(), st.sampled_from(sorted(ROW_PATHS)))
def test_stabilizer_chain_matches_plain_closure_on_random_generators(gens, path):
    rows = _closure_rows(gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_BLOCK", ROW_PATHS[path])
        G = close_generators(gens)
    assert G.matrix.tolist() == [list(r) for r in rows]
    assert G.order == len(rows)


def _mixed_levels():
    """Chains whose residues sift across levels of very different sizes
    (the test's name recalls the Python-list levels that small transversals
    once had): C2 x C38 on 40 points sifts from a level of 2 rows through
    one of 38; D128 on 64 points from a level of 64 rows through one of 2."""
    c38 = Perm([0, 1] + [2 + (i + 1) % 38 for i in range(38)])
    return {"c2xc38": [parse_cycles("(1,2)", 40), c38],
            "dihedral:128": list(dihedral(128).generators)}


@pytest.mark.parametrize("name", sorted(_mixed_levels()))
def test_chain_mixes_list_and_numpy_levels(name):
    gens = _mixed_levels()[name]
    rows = _closure_rows(gens)
    assert close_generators(gens).matrix.tolist() == [list(r) for r in rows]


def test_chain_rejects_on_the_partial_order_before_allocating():
    # C1000 x C1000 on 2000 points: the orbits of the first two base points
    # give 10^6 elements > the cap, before their transversals' product (8 GB
    # as a matrix) or any enumeration exists
    gens = [
        Perm([(i + 1) % 1000 if i < 1000 else i for i in range(2000)]),
        Perm([i if i < 1000 else 1000 + (i + 1) % 1000 for i in range(2000)]),
    ]
    start = time.process_time()
    with pytest.raises(GroupTooLargeError) as err:
        close_generators(gens)
    assert time.process_time() - start < 1.0
    assert (err.value.cap, err.value.partial_count) == (200_000, 10**6)


def test_chain_rejects_a_transversal_over_the_storage_budget():
    # a 9000-cycle: one orbit of 9000 points, whose transversal alone would
    # be 9000 x 9000 x 4 bytes
    n = 9000
    start = time.process_time()
    with pytest.raises(BudgetError) as err:
        close_generators([Perm([(i + 1) % n for i in range(n)])])
    assert time.process_time() - start < 1.0
    assert (err.value.needed, err.value.limit) == (4 * n * n, ELEMENT_STORAGE_BUDGET)


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_element_matrix_matches_perm_closure(name):
    G = REFERENCE_GROUPS[name]
    ref = [Perm(row) for row in _closure_rows(G.generators)]
    assert [p.images for p in G] == [p.images for p in ref]
    assert G.matrix.dtype == groups._cell(G.degree) and G.matrix.flags.c_contiguous
    assert G.matrix.tolist() == [list(p.images) for p in ref]
    assert all(G.index_of(p) == i for i, p in enumerate(ref))
    if name in ("ex_order18", "dihedral-262"):
        assert G.degree == G.order
    if name == "induced:alt4":
        assert G.order == 12


# the cell each degree's rows take: 1 byte up to 256 points, 2 up to 65 536
CELLS = {255: np.uint8, 256: np.uint8, 257: np.uint16, 65536: np.uint16,
         65537: np.int32}


def _s4_on_the_last_points(d):
    """S4 on the points 0, d-3, d-2 and d-1 of d points (so images reach
    d-1), from the transposition of 0 and d-1 and the 4-cycle through all
    four; and those four points."""
    points = [0, d - 3, d - 2, d - 1]
    swap, cycle = list(range(d)), list(range(d))
    swap[0], swap[d - 1] = d - 1, 0
    for p, q in zip(points, points[1:] + points[:1]):
        cycle[p] = q
    return [Perm(swap), Perm(cycle)], points


@pytest.mark.parametrize("degree", sorted(CELLS))
def test_cells_at_the_degree_boundaries(degree):
    gens, points = _s4_on_the_last_points(degree)
    cell = CELLS[degree]
    assert groups._cell(degree) == cell
    # the chain's strong generators and transversals
    chain = groups._Chain(gens, groups.DEFAULT_ORDER_CAP)
    assert chain._stacked().dtype == cell
    assert {L.U.dtype for L in chain.levels} == {np.dtype(cell)}
    G = close_generators(gens)
    assert G.order == 24
    assert G.matrix.dtype == cell and G.matrix.flags.c_contiguous
    fixed = np.setdiff1d(np.arange(degree), points)
    assert (G.matrix[:, fixed] == fixed).all()
    # every element fixes the other points, so the reference arithmetic is
    # that of the Perms on the four points, in the order of ``points``
    el = [Perm(points.index(x) for x in row)
          for row in G.matrix[:, points].tolist()]
    index = {p: i for i, p in enumerate(el)}
    assert [G.element_order(i) for i in range(24)] == [x.order() for x in el]
    assert [G.inv(i) for i in range(24)] == [index[x.inverse()] for x in el]
    for j in range(24):
        g = el[j]
        right, left = [x * g for x in el], [g * x for x in el]
        assert list(G.right_mult_column(j)) == [index[y] for y in right]
        assert [G.mul(i, j) for i in range(24)] == [index[y] for y in right]
        assert [G.mul(j, i) for i in range(24)] == [index[y] for y in left]
        conj = [index[x.conjugate_by(g)] for x in el]
        assert G.conjugates(range(24), [j]).tolist() == [conj]
        commuting = [i for i in range(24) if right[i] == left[i]]
        assert G.commute_mask(j) == G.mask_of(commuting)


def test_greedy_base_reads_few_rows_in_blocks_of_columns():
    # S4 on the last points of 65 537: the base ends at point 65 535, and
    # the 6 rows left after the first base point are read in blocks of
    # columns that grow (one numpy call per column took 0.12-0.22 s)
    d = 65537
    G = close_generators(_s4_on_the_last_points(d)[0])
    start = time.process_time()
    base = groups._greedy_base(G.matrix)
    assert time.process_time() - start < 0.05
    assert base.tolist() == list(G.base) == [0, d - 3, d - 2]


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
        assert el[G.conjugates([i], [j])[0, 0]] == el[i].conjugate_by(el[j])
        assert el[G.power(i, k)] == el[i] ** k
        assert G.element(i) == el[i]
    for _ in range(5):
        gs = [rng.randrange(G.order) for _ in range(3)]
        xs = rng.sample(range(G.order), min(G.order, 9))
        assert [[el[y] for y in row] for row in G.conjugates(xs, gs).tolist()] == [
            [el[x].conjugate_by(el[g]) for x in xs] for g in gs
        ]
    assert G.conjugates([], [0]).shape == (1, 0)
    assert G.conjugates([0], []).shape == (0, 1)
    # a kernel row of a subgroup's members is the subgroup's conjugate; the
    # orders of sym:5 and dihedral-262 exceed 64, so bits past a fixed-width
    # int show up too
    for _ in range(3):
        S = G.generated_subgroup(rng.sample(range(G.order), 2))
        gs = [rng.randrange(G.order) for _ in range(2)]
        for g, row in zip(gs, G.conjugates(S.indices(), gs).tolist()):
            expected = {G.index_of(el[x].conjugate_by(el[g])) for x in S.indices()}
            assert G.mask_of(row) == G.mask_of(expected)


# the brute force takes seconds on the order-262 group and on degree 1024
@pytest.mark.parametrize(
    "name", sorted(set(REFERENCE_GROUPS) - {"dihedral-262", "c2^7-on-1024"})
)
def test_conjugacy_classes_match_brute_force(name):
    G = REFERENCE_GROUPS[name]
    el = G.elements
    classes = {
        tuple(sorted({G.index_of(x.conjugate_by(g)) for g in el})) for x in el
    }
    assert G.conjugacy_classes() == sorted(list(c) for c in classes)


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_class_representatives_are_least_class_members(name):
    G = REFERENCE_GROUPS[name]
    reps = [x for x, _ in G.class_representatives()]
    assert reps == [c[0] for c in G.conjugacy_classes()]


# fresh groups, so that each test fills the orders and cyclic masks itself:
# the whole lists in either order, or element by element descending or in a
# random order, which a walk relying on ascending queries gets wrong
@pytest.mark.parametrize(
    "name",
    ["dihedral:64", "psl2:7", "sym:5", "abelian:12,36", "dihedral-262",
     "dp:sym:4;dihedral:8", "c2^7-on-1024"],
)
@pytest.mark.parametrize("first", ["orders", "masks", "descending", "random"])
def test_orders_and_cyclic_masks_match_power_loop(name, first):
    G = _fresh_group(name)
    identity = Perm.identity(G.degree)
    ref_masks = []
    for i in range(G.order):
        g = G.element(i)
        power, mask = g, 1
        while power != identity:
            mask |= 1 << G.index_of(power)
            power = power * g
        ref_masks.append(mask)
    least: dict[int, int] = {}
    ref_reps = [least.setdefault(m, i) for i, m in enumerate(ref_masks)]
    ref_orders = [G.element(i).order() for i in range(G.order)]
    if first in ("descending", "random"):
        queries = list(range(G.order - 1, -1, -1))
        if first == "random":
            random.Random(name).shuffle(queries)
        for i in queries:
            assert (G.element_order(i), G.cyclic_rep(i), G.cyclic_mask(i)) == (
                ref_orders[i], ref_reps[i], ref_masks[i]), i
    if first == "masks":
        masks, orders = G.cyclic_masks(), G.element_orders()
    else:
        orders, masks = G.element_orders(), G.cyclic_masks()
    assert orders == ref_orders
    assert masks == ref_masks
    assert G.cyclic_reps() == ref_reps
    fresh = _fresh_group(name)
    assert (fresh.element_orders(), fresh.cyclic_masks(), fresh.cyclic_reps()) == (
        orders, masks, G.cyclic_reps())


@pytest.mark.parametrize("name", sorted(LOOKUP_PATHS))
def test_lookup_path(name):
    assert _lookup_path(REFERENCE_GROUPS[name]) == LOOKUP_PATHS[name]


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_rows_in_any_order_index_identically(name):
    G = REFERENCE_GROUPS[name]
    shuffled = G.matrix[np.random.default_rng(0).permutation(G.order)]
    H = FiniteGroup(G.generators, shuffled)
    assert np.array_equal(H.matrix, G.matrix)
    assert np.array_equal(H.base, G.base)
    images = G.matrix[:, G.base]
    assert H._find(images).tolist() == G._find(images).tolist() == list(range(G.order))


def test_rows_must_be_distinct_and_hold_the_identity():
    G = dihedral(8)
    with pytest.raises(InvariantError, match="distinct"):
        FiniteGroup(G.generators, G.matrix[[0, 1, 1, 2]])
    C3 = cyclic(3)
    with pytest.raises(InvariantError, match="identity"):
        FiniteGroup(C3.generators, C3.matrix[1:])


# the chain's base is not the greedy base of sym:7, alt:7 and psl3:3; cyclic:12
# is a one-level chain, whose rows come in order
@pytest.mark.parametrize("spec", ["sym:7", "alt:7", "psl3:3", "cyclic:12"])
def test_greedy_base_runs_once_per_closure(spec, monkeypatch):
    from centra.constructors import parse_group_spec

    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return greedy_base(matrix)

    greedy_base = groups._greedy_base
    monkeypatch.setattr(groups, "_greedy_base", counted)
    G = parse_group_spec(spec)
    assert calls == [G.order]
    if spec == "cyclic:12":
        assert len(groups._Chain(G.generators, G.order).levels) == 1


@pytest.mark.parametrize(
    "name, size",
    [("cyclic:12", 1), ("dihedral-262", 1), ("dihedral:64", 2), ("psl2:7", 3),
     ("sym:6", 5), ("c2^7-on-1024", 7)],
)
def test_base_size_and_trivial_stabilizer(name, size):
    G = _fresh_group(name)
    assert len(G.base) == size
    assert G.base.tolist() == sorted(G.base.tolist())
    fixes_base = np.all(G.matrix[:, G.base] == G.base, axis=1)
    assert np.flatnonzero(fixes_base).tolist() == [0]


def test_membership_compares_the_full_row():
    from centra.constructors import parse_group_spec

    G = parse_group_spec("dihedral:8")  # the symmetries of a square 0-1-2-3
    assert G.base.tolist() == [0, 1] and _lookup_path(G) == ("table", "int64")
    swap = Perm([0, 1, 3, 2])  # the identity's base images, outside the group
    assert int(G._find(np.array(swap.images)[G.base])) == 0
    no_key = Perm([0, 2, 1, 3])  # base images of no element
    assert int(G._find(np.array(no_key.images)[G.base])) == -1
    for p in (swap, no_key, Perm([1, 0, 2, 3, 4]), Perm.identity(5)):
        assert p not in G
        with pytest.raises(ValueError):
            G.index_of(p)
    assert "not a perm" not in G
    assert G.index_of(Perm.identity(4)) == 0


@pytest.mark.parametrize("name", ["dp:sym:4;dihedral:8", "c2^7-on-1024"])
def test_key_beyond_every_stored_key_is_not_found(name):
    G = REFERENCE_GROUPS[name]
    d = G.degree
    # no element maps 0 to the last point, so this key exceeds every stored one
    images = list(range(d))
    images[0], images[d - 1] = d - 1, 0
    p = Perm(images)
    assert int(G._find(np.array(images)[G.base])) == G.order
    assert p not in G
    with pytest.raises(ValueError):
        G.index_of(p)
    assert G.element(G.order - 1) in G


@pytest.mark.parametrize("name", ["psl2:7", "sym:5", "dihedral-262"])
def test_commute_mask_matches_full_rows(name):
    G = REFERENCE_GROUPS[name]
    E = G.matrix
    for i in range(G.order):
        z = E[i]
        # rows z * g against rows g * z, over every point
        flags = np.all(z[E] == E[:, z], axis=1)
        assert G.commute_mask(i) == G.mask_of(np.flatnonzero(flags).tolist()), i


# the reference groups cover the three lookups: a dense table, a binary
# search (dp:sym:4;dihedral:8) and big-endian void keys (c2^7-on-1024); the
# trivial group adds an empty base, where every key is the empty digit string
KERNEL_GROUPS = {
    **REFERENCE_GROUPS,
    "induced:trivial": REFERENCE_GROUPS["sym:5"].trivial_subgroup().induced_group(),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_conjugation_and_commute_kernels_match_perm_arithmetic(name):
    G = KERNEL_GROUPS[name]
    el = G.elements
    rng = random.Random(name)
    gs = rng.sample(range(G.order), min(G.order, 3))
    conj = [[G.index_of(x.conjugate_by(el[g])) for x in el] for g in gs]
    assert G.conjugates(np.arange(G.order), gs).tolist() == conj
    xs = [rng.randrange(G.order) for _ in range(20)]
    assert G.conjugates(xs, gs).tolist() == [[row[x] for x in xs] for row in conj]
    assert G.conjugates(xs[:1], gs[:1]).tolist() == [[conj[0][xs[0]]]]
    assert G.conjugates(xs, gs).dtype == np.int32
    assert G.conjugates([], gs).shape == (len(gs), 0)
    assert G.conjugates(xs, []).shape == (0, len(xs))
    for z in rng.sample(range(G.order), min(G.order, 5)):
        commuting = [i for i, x in enumerate(el) if x * el[z] == el[z] * x]
        assert G.commute_mask(z) == G.mask_of(commuting)


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_walked_inverses_match_inv(name):
    G = KERNEL_GROUPS[name]
    el = G.elements
    G.cyclic_masks()  # walks every cyclic subgroup
    assert [el[i] for i in G._inverses] == [x.inverse() for x in el]


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_class_sizes_satisfy_orbit_stabilizer(name):
    # |G| = |x^G| * |C_G(x)|, and the classes partition G
    G = KERNEL_GROUPS[name]
    classes = list(G.class_representatives())
    assert sum(size for _, size in classes) == G.order
    for x, size in classes:
        assert size * G.commute_mask(x).bit_count() == G.order


def test_index_maps_are_int32_buffers_of_python_ints():
    from centra.constructors import parse_group_spec

    G = parse_group_spec("sym:6")  # indices above 256
    el, j = G.elements, 417
    col = G.right_mult_column(j)
    maps = G._conjugation_maps()
    assert G.right_mult_column(j) is col
    for m in (col, *maps):
        assert m.itemsize == 4 and len(m) == G.order
        assert {type(y) for y in m} == {int}
    assert list(col) == [G.index_of(x * el[j]) for x in el]
    for g, m in zip(G.generators, maps):
        assert list(m) == [G.index_of(x.conjugate_by(g)) for x in el]


def _perm_closure(seed, identity):
    """The subgroup generated by the Perms ``seed``, by a breadth-first walk
    under right multiplication."""
    out, frontier = {identity}, {identity}
    while frontier:
        frontier = {x * s for x in frontier for s in seed} - out
        out |= frontier
    return out


def _perm_mask(G, perms):
    return G.mask_of(G.index_of(p) for p in perms)


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_closure_mask_matches_perm_closure(name):
    G = REFERENCE_GROUPS[name]
    el, identity = G.elements, Perm.identity(G.degree)
    rng = random.Random(name)
    for size in (0, 1, 1, 2, 2, 3):
        seed = [rng.randrange(G.order) for _ in range(size)]
        expected = _perm_closure([el[s] for s in seed], identity)
        assert G.closure_mask(seed) == _perm_mask(G, expected), seed
    assert G.closure_mask(G.generator_indices()) == G.full_mask


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_normal_closure_matches_conjugates_then_closure(name):
    G = REFERENCE_GROUPS[name]
    el, identity = G.elements, Perm.identity(G.degree)
    rng = random.Random(name)
    for size in (1, 1, 2):
        seed = [rng.randrange(G.order) for _ in range(size)]
        conjugates = {el[s].conjugate_by(g) for s in seed for g in el}
        # close one conjugate at a time, keeping only those that enlarge it
        kept, expected = [], {identity}
        for c in sorted(conjugates):
            if c not in expected:
                kept.append(c)
                expected = _perm_closure(kept, identity)
        assert G.normal_closure(seed).mask == _perm_mask(G, expected), seed
        assert G.normal_closure([el[s] for s in seed]).mask == _perm_mask(G, expected)


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_cyclic_orbit_reps_match_brute_force_orbits(name):
    # W = C_G(z) for the non-central z with the largest non-abelian (else
    # largest) centralizer, or G when G is abelian; W acts by conjugation on
    # its cyclic subgroups, each named by its cyclic mask
    G = KERNEL_GROUPS[name]
    rows, cyc, crep = G.matrix, G.cyclic_masks(), G.cyclic_reps()
    centralizers = [SubgroupRef(G, G.commute_mask(z)) for z in range(G.order)]
    z = max(
        (z for z in range(G.order) if centralizers[z].order < G.order),
        key=lambda z: (not centralizers[z].is_abelian(), centralizers[z].order, -z),
        default=0,
    )
    W = centralizers[z]
    reps = [i for i in W.indices() if crep[i] == i]
    # x^w = w^-1 * x * w on full image rows (w applied first)
    index = {rows[i].tobytes(): i for i in range(G.order)}
    inverse = {w: np.argsort(rows[w]).astype(rows.dtype) for w in W.indices()}

    def conj(x, w):
        return index[inverse[w][rows[x][rows[w]]].tobytes()]

    seen, expected = set(), []
    for r in reps:
        if cyc[r] not in seen:
            expected.append(r)
            seen |= {cyc[conj(r, w)] for w in W.indices()}
    assert G.cyclic_orbit_reps(reps, W.indices()) == expected
    # a non-abelian W moves some cyclic subgroup here (sym:5, psl2:7 and
    # dp:sym:4;dihedral:8), so those orbits are not all single points
    assert W.is_abelian() or len(expected) < len(reps)
