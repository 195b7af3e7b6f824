"""Differential property tests of the class-X pair scan.

Random 2-generator subgroups of S_5, S_6 and S_7 are checked against the
literal all-subgroups oracle, their witnesses re-verified, and verdicts
compared across conjugate generating pairs.  The closure counts of the scan
are pinned on two groups, so an algorithmic regression fails here without
any wall-clock check.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from centra.classify import in_class_X, in_class_X_bruteforce, verify_witness
from centra.constructors import (
    cyclic,
    direct_product,
    generalized_quaternion,
    parse_group_spec,
)
from centra.errors import GroupTooLargeError
from centra.fields import factorize
from centra.groups import close_generators
from centra.lattice import DEFAULT_SUBGROUP_CAP
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


def _close(gens):
    try:
        G = close_generators(gens, ORACLE_ORDER)
    except GroupTooLargeError:
        assume(False)
    assume(G.order >= 8)  # every group of order below 8 is in class X
    return G


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
    v = in_class_X(G)
    assert v.member == in_class_X_bruteforce(G).member
    if not v.member:
        assert verify_witness(G, v, "X")
        for w in v.witness.generators:
            assert len(factorize(G.element_order(w))) == 1
    conj = close_generators([g.inverse() * x * g for x in gens])
    assert in_class_X(conj).member == v.member


def _closures_of_scan(spec: str) -> int:
    G = parse_group_spec(spec)
    calls = 0
    closure = G.closure_mask

    def counted(seed):
        nonlocal calls
        calls += 1
        return closure(seed)

    G.closure_mask = counted
    assert in_class_X(G).member
    return calls


def test_scan_closure_counts_are_pinned():
    # the scan over all cyclic-subgroup pairs made 656 and 14 closures; the
    # prime-power, orbit-reduced scan makes 227 and 16 (the two extra on
    # psl2:7 find the generating set of the one non-cyclic centralizer, D_8)
    assert _closures_of_scan("dihedral:64") == 227
    assert _closures_of_scan("psl2:7") == 16


def test_violation_needing_generators_of_order_four():
    # Q8 x C3: every non-cyclic subgroup contains Q8, which no two elements
    # of prime order generate, and C3 centralizes Q8 from outside it
    G = direct_product(generalized_quaternion(8), cyclic(3))
    v = in_class_X(G)
    assert not v.member and not in_class_X_bruteforce(G).member
    assert verify_witness(G, v, "X")
    assert [G.element_order(w) for w in v.witness.generators] == [4, 4]
