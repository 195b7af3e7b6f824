"""Differential property tests of the class-X pair scan and class C.

Random 2-generator subgroups of S_5, S_6 and S_7, and random small
semidirect products C_n x| C_m (times a small cyclic group), are checked
against the literal all-subgroups oracles; witnesses are re-verified and
must generate a minimal non-cyclic group, and verdicts are compared across
conjugate generating pairs.  The relation test that decides each scanned
pair is checked against closures of the pair.  The work of the scan
(closures, lookups, and the cyclic subgroups and class members it walks)
is pinned, so an algorithmic regression fails here without any wall-clock
check.
"""

from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from centra import groups
from centra.classify import (
    _relations,
    acts_fixed_point_freely,
    in_class_C,
    in_class_X,
    in_class_X_bruteforce,
    is_self_centralizing,
    verify_witness,
)
from centra.constructors import (
    ActionSpec,
    cyclic,
    direct_product,
    generalized_quaternion,
    parse_group_spec,
    power_automorphism,
    semidirect,
)
from centra.errors import GroupTooLargeError, InvalidActionError
from centra.fields import factorize
from centra.groups import SubgroupRef, close_generators
from centra.lattice import DEFAULT_SUBGROUP_CAP, all_subgroups, maximal_subgroups
from centra.perms import Perm

# The oracle accepts groups up to DEFAULT_SUBGROUP_CAP, but enumerating the
# subgroup lattice of S_5 alone costs more than all the examples below order
# 100 together, and random pairs generate S_5 often; stopping at order 100
# keeps the examples varied and the test to a few seconds.
ORACLE_ORDER = min(DEFAULT_SUBGROUP_CAP, 100)


def _transpositions(n: int):
    """Products of a few transpositions: small supports, small subgroups."""
    pairs = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3
    )

    def product(ts):
        img = list(range(n))
        for i, j in ts:
            img[i], img[j] = img[j], img[i]
        return img

    return pairs.map(product)


@st.composite
def subgroups(draw):
    """Two generators of a subgroup of S_n, n = 5..7, and a conjugator in S_n."""
    n = draw(st.integers(5, 7))
    perm = st.one_of(st.permutations(range(n)), _transpositions(n))
    gens = [Perm(draw(perm)), Perm(draw(perm))]
    return gens, Perm(draw(st.permutations(range(n))))


@st.composite
def semidirect_params(draw):
    """(n, m, k, c): C_n x| C_m, the generator of C_m acting by x -> x^k
    (k a unit with k^m = 1 mod n), times C_c; at most the oracle's order."""
    n = draw(st.integers(2, 15))
    m = draw(st.integers(2, 8))
    k = draw(st.sampled_from(
        [k for k in range(1, n) if gcd(k, n) == 1 and pow(k, m, n) == 1]))
    c = draw(st.sampled_from([1, 2, 3, 5]))
    assume(n * m * c <= ORACLE_ORDER)
    return n, m, k, c


def _semidirect(n: int, m: int, k: int, c: int):
    T = cyclic(n)
    G = semidirect(ActionSpec(cyclic(m), T, {0: power_automorphism(T, k)}))
    return G if c == 1 else direct_product(G, cyclic(c))


def _close(gens):
    try:
        G = close_generators(gens, ORACLE_ORDER)
    except GroupTooLargeError:
        assume(False)
    assume(G.order >= 8)  # every group of order below 8 is in class X
    return G


def _is_minimal_order(n: int) -> bool:
    """n = p^2, 8 or p.q^m with p != q: the orders of minimal non-cyclic
    groups (Miller and Moreno)."""
    f = factorize(n)
    if len(f) == 1:
        return f[0][1] == 2 or n == 8
    return len(f) == 2 and min(e for _, e in f) == 1


def _check_scan(G):
    """in_class_X agrees with the oracle, and a witness re-verifies and
    generates a minimal non-cyclic group from two prime-power elements."""
    v = in_class_X(G)
    assert v.member == in_class_X_bruteforce(G).member
    if not v.member:
        assert verify_witness(G, v, "X")
        for w in v.witness.generators:
            assert len(factorize(G.element_order(w))) == 1
        gens = [G.index_of(w) for w in v.witness.generators]
        K = SubgroupRef(G, G.closure_mask(gens))
        assert _is_minimal_order(K.order)
        assert all(M.is_cyclic() for M in maximal_subgroups(K.induced_group()))
    return v


def _check_class_c(G):
    """in_class_C against its definition: C_G(S) <= S for every S != 1."""
    literal = all(
        is_self_centralizing(G, S) for S in all_subgroups(G) if S.order > 1
    )
    assert in_class_C(G).member == literal


PROPS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@PROPS
@given(subgroups())
def test_scan_matches_oracle_and_conjugates(case):
    gens, g = case
    G = _close(gens)
    v = _check_scan(G)
    _check_class_c(G)
    conj = close_generators([g.inverse() * x * g for x in gens])
    assert in_class_X(conj).member == v.member


# D18 x C2 and F20 x C3 (C_5 x| C_4 acting faithfully) are generated by
# pairs of orders (2, 9) and (5, 4) that reach their bounds of cut (c)
# without being minimal; Dic12 x C5 needs the pair of orders (3, 4)
@PROPS
@given(semidirect_params())
@example((9, 2, 8, 2))
@example((5, 4, 2, 3))
@example((3, 4, 2, 5))
def test_semidirect_products_match_oracles(params):
    G = _semidirect(*params)
    _check_scan(G)
    _check_class_c(G)


def _power_map(n: int, k: int) -> Perm:
    """x -> x^k on C_n, whose element i is the i-th power of its generator."""
    return Perm([k * i % n for i in range(n)])


@PROPS
@given(semidirect_params())
def test_cyclic_actions_accepted_iff_homomorphisms(params):
    # x -> x^k is an automorphism of C_n for each unit k, and the generator
    # of C_m may map to it iff its order divides m
    n, m, _, _ = params
    for k in (k for k in range(1, n) if gcd(k, n) == 1):
        try:
            ActionSpec(cyclic(m), cyclic(n), {0: _power_map(n, k)})
            accepted = True
        except InvalidActionError:
            accepted = False
        assert accepted == (pow(k, m, n) == 1), k


def _fixed_point_free_reference(n: int, m: int, k: int) -> bool:
    """The per-element loop over C_m acting on C_n, its generator g by
    x -> x^k, so that g^j acts by x -> x^(k^j)."""
    for j in range(1, m):
        img = _power_map(n, pow(k, j, n)).images
        if any(img[i] == i for i in range(1, n)):
            return False
    return True


@PROPS
@given(semidirect_params())
@example((9, 2, 8, 2))
@example((5, 4, 2, 3))
@example((7, 3, 1, 1))
def test_fixed_point_freeness_matches_the_per_element_loop(params):
    n, m, k, _ = params
    spec = ActionSpec(cyclic(m), cyclic(n), {0: _power_map(n, k)})
    assert acts_fixed_point_freely(spec) == _fixed_point_free_reference(n, m, k)


@PROPS
@given(semidirect_params())
def test_power_automorphism_is_the_elementwise_power_map(params):
    n, m, k, c = params
    G = direct_product(cyclic(n), cyclic(m), cyclic(c))
    powers = [G.power(i, k) for i in range(G.order)]
    if len(set(powers)) == G.order:
        assert power_automorphism(G, k).images == tuple(powers)
    else:
        with pytest.raises(InvalidActionError):
            power_automorphism(G, k)


def _cut_c_order(m: int, n: int) -> int:
    """|K| of a minimal non-cyclic K generated by elements of prime-power
    orders m and n (cut (c) of classify): p^2, 8 or p.q^m; 0 if none."""
    (p, e), (q, f) = factorize(m)[0], factorize(n)[0]
    if p == q:
        return m * n if m == n == p else 8 if m == n == 4 else 0
    return m * n if min(e, f) == 1 else 0


def _check_relations(G):
    """The relation test of every pair of prime-power cyclic subgroups
    against closures: it accepts (a, b) exactly when <a,b> has the order of
    cut (c) and is minimal non-cyclic (non-cyclic, with every maximal
    subgroup cyclic), and the bit-set it returns agrees with <a,b> on
    C(a) n C(b), where the scan reads it (cut (d))."""
    prime_power = lambda o: f[0] if len(f := factorize(o)) == 1 else None
    reps = [(i, G.element_order(i)) for i in range(1, G.order)
            if G.cyclic_rep(i) == i and prime_power(G.element_order(i))]
    for a, oa in reps:
        found = _relations(G, a, reps, prime_power)
        for b, ob in reps:
            order = _cut_c_order(oa, ob) if a != b else 0
            K = SubgroupRef(G, G.closure_mask([a, b])) if order else None
            minimal = (order and K.order == order and not K.is_cyclic() and all(
                M.is_cyclic() for M in maximal_subgroups(K.induced_group())))
            assert bool(found[b]) == bool(minimal), (a, b)
            if minimal:
                C = G.centralizer_mask([a, b])
                assert found[b] & C == K.mask & C, (a, b)


@PROPS
@given(subgroups())
def test_relations_match_closures_on_subgroups(case):
    _check_relations(_close(case[0]))


@PROPS
@given(semidirect_params())
@example((9, 2, 8, 2))
@example((5, 4, 2, 3))
@example((3, 4, 2, 5))
def test_relations_match_closures_on_semidirect_products(params):
    _check_relations(_semidirect(*params))


def _scan_work(spec: str) -> tuple[int, int]:
    """The work of one in_class_X scan of a member: closure_mask calls and
    element lookups, each a batch of base images found at once."""
    G = parse_group_spec(spec)
    calls = {"closure": 0, "find": 0}
    closure, find = G.closure_mask, G._find

    def counted_closure(seed):
        calls["closure"] += 1
        return closure(seed)

    def counted_find(images):
        calls["find"] += 1
        return find(images)

    G.closure_mask, G._find = counted_closure, counted_find
    assert in_class_X(G).member
    return calls["closure"], calls["find"]


def test_scan_closure_counts_are_pinned():
    # the scan over all cyclic-subgroup pairs made 656 and 14 closures, and
    # the prime-power, orbit-reduced scan 227 and 16 full closures; closing
    # only pairs that can generate a minimal non-cyclic group, each up to its
    # order, left 93 and 9 bounded closures (1 533 on dihedral:1024).  Now
    # the relations of each pair decide it, one batch of lookups per orbit
    # representative, and only the generating sets of non-cyclic
    # centralizers are closed.  Most lookups are cyclic-subgroup walks.  An
    # orbit representative that recurs in another centralizer is tested
    # again there.  Closing the generating sets of the non-cyclic
    # centralizers (6, 3 and 6 closures, with 66, 28 and 550 lookups) is
    # gone too: each orbit of cyclic subgroups is one lookup of the
    # conjugates of its least member by every element of W, where there was
    # a column and a conjugation batch per generator of W (13 lookups for
    # 10 on dihedral:64, 17 for 10 on dihedral:1024, 4 for 6 on psl2:7).
    # The order of each class representative z is read first, to skip z
    # when |C_G(z)| = |z|; that walks 3, 3 and 4 <z> that W.is_cyclic()
    # used to walk, so it adds no lookup.  The least members of the orbits
    # are conjugated a chunk at a time, one lookup per chunk, where each
    # orbit took a lookup of its own (69, 26 and 557 lookups); the class
    # maps walk each generator's <g> for its inverse, which is in the count.
    assert _scan_work("dihedral:64") == (0, 58)
    assert _scan_work("psl2:7") == (0, 24)
    assert _scan_work("dihedral:1024") == (0, 543)


@pytest.mark.parametrize("spec", ["psl2:7", "sym:5", "dihedral:64", "psl2:31"])
def test_class_sizes_spare_closures_and_centralizers(spec):
    # the class walk gives |C_G(z)| = |G| / |z^G|: in_class_X closes no
    # subgroup, and in_class_C reads a centralizer only to name its witness
    G = parse_group_spec(spec)
    calls = {"closure": 0, "commute": 0}
    closure, commute = G.closure_mask, G.commute_mask

    def counted_closure(seed):
        calls["closure"] += 1
        return closure(seed)

    def counted_commute(i):
        calls["commute"] += 1
        return commute(i)

    G.closure_mask, G.commute_mask = counted_closure, counted_commute
    in_class_X(G)
    assert calls["closure"] == 0
    calls["commute"] = 0
    in_class_C(G)
    assert calls["commute"] <= 1


def _class_walks(G, check, monkeypatch) -> tuple[int, object]:
    """Elements marked by the conjugacy-class walks of one check, and its
    verdict."""
    maps, walked = [], []
    conjugation_maps, walk = G._conjugation_maps, groups._walk
    G._conjugation_maps = lambda: maps.append(conjugation_maps()) or maps[-1]

    def counted_walk(cols, starts, seen):
        out = walk(cols, starts, seen)
        if maps and cols is maps[-1]:
            walked.append(len(out))
        return out

    monkeypatch.setattr(groups, "_walk", counted_walk)
    verdict = check(G)
    monkeypatch.undo()
    return sum(walked), verdict


@pytest.mark.parametrize("spec", ["alt:8", "sym:7", "alt:7", "psl3:3"])
@pytest.mark.parametrize("check", [in_class_X, in_class_C])
def test_non_member_walks_classes_up_to_its_violation(spec, check, monkeypatch):
    # class representatives come one class walk at a time: a non-member
    # walks the classes up to the one of its witness and no further
    G = parse_group_spec(spec)
    walked, verdict = _class_walks(G, check, monkeypatch)
    assert not verdict.member
    classes = G.conjugacy_classes()
    z = G.index_of(verdict.witness.generators[0] if check is in_class_C
                   else verdict.witness.z)
    last = next(k for k, c in enumerate(classes) if z in c)
    assert walked == sum(map(len, classes[: last + 1]))
    if spec == "alt:8":
        # the identity and the 112 3-cycles, of 20 160 elements
        assert walked == 113 and G.order == 20160


def _cyclic_walks(spec: str) -> tuple[int, int]:
    """Cyclic subgroups walked by one in_class_X scan of a fresh group, and
    the group's non-trivial cyclic subgroups (walked by cyclic_masks())."""
    G = parse_group_spec(spec)
    walked = []
    walk = G._walk_cyclic
    G._walk_cyclic = lambda i: (walked.append(i), walk(i))
    in_class_X(G)
    scanned = len(walked)
    G.cyclic_masks()
    return scanned, len(walked)


def test_scan_cyclic_walk_counts_are_pinned():
    # the scan asks for orders and least generators only inside the
    # centralizers it scans; walking every cyclic subgroup first cost
    # 3 380, 6 973, 2 038 and 78 walks.  The class maps read each
    # generator's inverse from the walk of its <g>, which adds 2, 1, 1 and 2
    # walks to the 32, 73, 133 and 9 of a scan that computed the inverse row
    assert _cyclic_walks("psl2:31") == (34, 3380)
    assert _cyclic_walks("alt:8") == (74, 6973)
    assert _cyclic_walks("sym:7") == (134, 2038)
    assert _cyclic_walks("psl2:7") == (11, 78)


def test_violation_needing_generators_of_order_four():
    # Q8 x C3: every non-cyclic subgroup contains Q8, which no two elements
    # of prime order generate, and C3 centralizes Q8 from outside it
    G = direct_product(generalized_quaternion(8), cyclic(3))
    v = in_class_X(G)
    assert not v.member and not in_class_X_bruteforce(G).member
    assert verify_witness(G, v, "X")
    assert [G.element_order(w) for w in v.witness.generators] == [4, 4]


def test_violation_needing_a_prime_power_that_is_not_prime():
    # Dic12 x C5, Dic12 = C3 x| C4 with C4 inverting C3: the only non-cyclic
    # subgroup C5 centralizes from outside is Dic12, generated by elements
    # of orders 3 and 4 but by no two elements of prime order
    G = direct_product(_semidirect(3, 4, 2, 1), cyclic(5))
    v = in_class_X(G)
    assert not v.member and not in_class_X_bruteforce(G).member
    assert verify_witness(G, v, "X")
    assert sorted(G.element_order(w) for w in v.witness.generators) == [3, 4]
