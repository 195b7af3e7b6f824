"""Differential property tests of the class-X pair scan and class C.

Random 2-generator subgroups of S_5, S_6 and S_7, and random small
semidirect products C_n x| C_m (times a small cyclic group), are checked
against the literal all-subgroups oracles; witnesses are re-verified and
must generate a minimal non-cyclic group, and verdicts are compared across
conjugate generating pairs.  The work of the scan (closures and the
elements they walk, and the cyclic subgroups it walks) is pinned, so an
algorithmic regression fails here without any wall-clock check.
"""

from math import gcd

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from centra import groups
from centra.classify import (
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
from centra.errors import GroupTooLargeError
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


def _scan_work(spec: str, monkeypatch) -> tuple[int, int, int, int]:
    """The work of one in_class_X scan of a member: closure_mask calls,
    bounded closures, the elements those walk, and the most elements any of
    them walks beyond its bound."""
    G = parse_group_spec(spec)
    calls, walked = 0, []
    closure, walk = G.closure_mask, groups._walk

    def counted_closure(seed):
        nonlocal calls
        calls += 1
        return closure(seed)

    def counted_walk(maps, starts, seen, bound=None):
        out = walk(maps, starts, seen, bound)
        if bound is not None and bound < G.order:
            walked.append((len(out), bound))
        return out

    G.closure_mask = counted_closure
    monkeypatch.setattr(groups, "_walk", counted_walk)
    assert in_class_X(G).member
    monkeypatch.undo()
    return (calls, len(walked), sum(n for n, _ in walked),
            max(n - bound for n, bound in walked))


def test_scan_closure_counts_are_pinned(monkeypatch):
    # the scan over all cyclic-subgroup pairs made 656 and 14 closures, and
    # the prime-power, orbit-reduced scan 227 and 16 full closures.  Trying
    # only pairs that can generate a minimal non-cyclic group, each closed
    # only up to its order, leaves the closures of the generating sets of
    # non-cyclic centralizers unbounded, and 93 and 9 bounded closures
    assert _scan_work("dihedral:64", monkeypatch) == (6, 93, 431, 1)
    assert _scan_work("psl2:7", monkeypatch) == (3, 9, 39, 1)
    # dihedral:1024 made 5 635 closures of up to 1 024 elements; now every
    # bounded closure (two reflections, bound 4) walks at most 5
    assert _scan_work("dihedral:1024", monkeypatch) == (6, 1533, 7151, 1)


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
    # 3 380, 6 973, 2 038 and 78 walks
    assert _cyclic_walks("psl2:31") == (32, 3380)
    assert _cyclic_walks("alt:8") == (73, 6973)
    assert _cyclic_walks("sym:7") == (133, 2038)
    assert _cyclic_walks("psl2:7") == (9, 78)


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
