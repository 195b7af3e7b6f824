import pytest

from centra.classify import (
    abelian_invariants,
    acts_fixed_point_freely,
    certify_non_membership,
    in_class_C,
    in_class_X,
    in_class_X_bruteforce,
    is_dihedral_group,
    is_self_centralizing,
    is_simple,
    is_supersolvable,
    structure,
    two_group_family,
    verify_witness,
)
from centra.constructors import (
    ActionSpec,
    abelian,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_p3,
    generalized_quaternion,
    psl2,
    semidihedral,
    symmetric,
)
from centra.groups import close_generators
from centra.lattice import all_subgroups, normalizer, sylow_subgroup
from centra.perms import Perm, parse_cycles
from centra.verify import default_corpus, quaternion_on_c3


def test_is_self_centralizing():
    G = symmetric(3)
    assert is_self_centralizing(G, G.full_subgroup())
    c3 = G.generated_subgroup([parse_cycles("(1,2,3)", 3)])
    assert is_self_centralizing(G, c3)
    d8 = dihedral(8)
    assert not is_self_centralizing(d8, d8.center())


def test_membership_spot_checks():
    assert in_class_X(symmetric(3)).member
    assert not in_class_X(direct_product(cyclic(6), cyclic(2))).member
    assert not in_class_X(dihedral(12)).member
    assert in_class_X(dihedral(8)).member
    assert in_class_X(alternating(5)).member
    assert in_class_X(extraspecial_p3(3, "p")).member
    assert in_class_X(extraspecial_p3(3, "p2")).member
    assert not in_class_X(direct_product(dihedral(8), cyclic(2))).member


def test_bruteforce_spot_checks():
    assert in_class_X_bruteforce(cyclic(1)).member
    assert in_class_X_bruteforce(cyclic(30)).member
    assert in_class_X_bruteforce(abelian([5, 5])).member
    assert not in_class_X_bruteforce(abelian([3, 9])).member
    assert in_class_X_bruteforce(symmetric(4)).member


def test_trivial_and_cyclic_groups_are_members():
    # no non-cyclic subgroups at all, under both scans
    for G in [cyclic(1), cyclic(2), cyclic(97)]:
        assert in_class_X(G).member
        assert in_class_X_bruteforce(G).member
    assert in_class_C(cyclic(1)).member  # vacuous: no non-trivial subgroup


def test_class_c_spot_checks():
    assert in_class_C(cyclic(5)).member
    assert in_class_C(symmetric(3)).member
    assert not in_class_C(cyclic(4)).member
    assert not in_class_C(generalized_quaternion(8)).member
    assert in_class_C(dihedral(10)).member
    assert not in_class_C(alternating(5)).member


def test_oracle_equivalence_compact():
    groups = [
        cyclic(8), abelian([2, 4]), abelian([3, 3]), dihedral(16),
        dihedral(20), generalized_quaternion(16), symmetric(4),
        alternating(4), extraspecial_p3(3, "p"),
        direct_product(cyclic(6), cyclic(2)),
    ]
    for G in groups:
        assert in_class_X(G).member == in_class_X_bruteforce(G).member


def test_witness_soundness():
    for G in [
        dihedral(12),
        abelian([3, 9]),
        direct_product(dihedral(8), cyclic(2)),
        psl2(8),
    ]:
        v = in_class_X(G)
        assert not v.member
        assert verify_witness(G, v, "X")
        vb = in_class_X_bruteforce(G) if G.order <= 200 else None
        if vb is not None:
            assert verify_witness(G, vb, "X")
    for G in [cyclic(4), abelian([2, 2]), generalized_quaternion(8)]:
        v = in_class_C(G)
        assert not v.member
        assert verify_witness(G, v, "C")


def test_witness_reverifies_in_ambient_group():
    # the witness of a violating subgroup makes sense inside any group
    # containing it; check commutation and exclusion directly
    G = dihedral(12)
    v = in_class_X(G)
    a, b = v.witness.generators
    z = v.witness.z
    assert z * a == a * z and z * b == b * z
    K = close_generators([a, b])
    assert z not in K
    assert not K.full_subgroup().is_cyclic()


def test_subgroup_closedness_on_members():
    for G in [dihedral(16), generalized_quaternion(16), alternating(4),
              symmetric(4), abelian([7, 7])]:
        assert in_class_X(G).member
        for S in all_subgroups(G):
            assert in_class_X(S.induced_group()).member


def test_conjugation_invariance():
    relabel = parse_cycles("(1,5)(2,3)", 5)
    for G, expect in [(alternating(5), True), (dihedral(10), True)]:
        twisted = close_generators(
            [relabel * g * relabel.inverse() for g in G.generators]
        )
        assert in_class_X(twisted).member == expect == in_class_X(G).member


def test_class_c_contained_in_class_x():
    for label, G in default_corpus(120):
        if in_class_C(G).member:
            assert in_class_X(G).member, label


def _class_c_literal(G):
    # oracle: the definition quantifies over every non-trivial subgroup
    for S in all_subgroups(G):
        if S.order == 1:
            continue
        if G.centralizer_mask(S.generating_set()) & ~S.mask:
            return False
    return True


def test_class_c_reduction_matches_literal_definition():
    for label, G in default_corpus(120):
        assert in_class_C(G).member == _class_c_literal(G), label


def test_center_cyclic_for_nonabelian_members():
    for label, G in default_corpus(200):
        if not G.is_abelian and in_class_X(G).member:
            assert G.center().is_cyclic(), label


def test_structure_descriptor():
    d16 = structure(dihedral(16))
    assert d16.two_group_family == "dihedral"
    assert d16.nilpotency_class == 3
    assert d16.center_order == 2
    assert d16.is_supersolvable
    a4 = structure(alternating(4))
    assert not a4.is_supersolvable
    assert a4.nilpotency_class is None
    ab = structure(abelian([2, 2]))
    assert ab.abelian_invariants == (2, 2)
    assert ab.is_abelian
    sd32 = structure(semidihedral(32))
    assert sd32.two_group_family == "semidihedral"
    assert sd32.nilpotency_class == 4
    q32 = structure(generalized_quaternion(32))
    assert q32.two_group_family == "quaternion"


def test_abelian_invariants_normalization():
    assert abelian_invariants(direct_product(cyclic(6), cyclic(2))) == (2, 6)
    assert abelian_invariants(abelian([2, 4])) == (2, 4)
    assert abelian_invariants(cyclic(12)) == (12,)
    assert abelian_invariants(abelian([3, 3, 3])) == (3, 3, 3)
    assert abelian_invariants(cyclic(1)) == ()
    # the closure of the degree-7 witness pair is C2 x C6
    K = close_generators(
        [parse_cycles("(1,2)(3,4)(5,6,7)", 7), parse_cycles("(1,3)(2,4)", 7)]
    )
    assert abelian_invariants(K) == (2, 6)
    with pytest.raises(ValueError):
        abelian_invariants(symmetric(3))


def test_two_group_family_other_cases():
    assert two_group_family(cyclic(16)) == "other"
    assert two_group_family(abelian([2, 8])) == "other"
    assert two_group_family(symmetric(3)) == "other"
    assert two_group_family(cyclic(4)) == "other"


def test_is_dihedral_group():
    assert is_dihedral_group(dihedral(12))
    assert is_dihedral_group(abelian([2, 2]))  # degenerate 2-gon symmetry
    assert is_dihedral_group(cyclic(2))
    assert not is_dihedral_group(cyclic(4))
    assert not is_dihedral_group(generalized_quaternion(8))
    assert not is_dihedral_group(cyclic(12))


def test_supersolvability():
    assert is_supersolvable(symmetric(3))
    assert is_supersolvable(dihedral(24))
    assert is_supersolvable(cyclic(1))
    assert not is_supersolvable(symmetric(4))  # maximal A4 has index 2 but S3 index 4
    assert not is_supersolvable(alternating(5))


def test_acts_fixed_point_freely():
    inv3 = ActionSpec(cyclic(2), cyclic(3), {0: Perm([0, 2, 1])})
    assert acts_fixed_point_freely(inv3)
    trivial = ActionSpec(cyclic(2), cyclic(3), {0: Perm.identity(3)})
    assert not acts_fixed_point_freely(trivial)
    # a acting by inversion on C3 through C4: a^2 acts trivially
    c4_on_c3 = ActionSpec(cyclic(4), cyclic(3), {0: Perm([0, 2, 1])})
    assert not acts_fixed_point_freely(c4_on_c3)


def test_certify_a7():
    gens = [
        parse_cycles("(1,2)(3,4)(5,6,7)", 7),
        parse_cycles("(1,3)(2,4)", 7),
    ]
    cert = certify_non_membership("alternating(7)", gens)
    assert cert.conclusive
    assert cert.subgroup_order == 12
    assert cert.verdict.method == "witness"
    # the certificate re-verifies inside the full ambient group
    A7 = alternating(7)
    w = cert.verdict.witness
    assert all(g in A7 for g in w.generators)
    assert w.z in A7
    K = close_generators(list(w.generators))
    assert w.z not in K
    assert not K.full_subgroup().is_cyclic()


def test_certify_m11_pair():
    gens = [
        parse_cycles("(1,2,3)(4,10)(5,11,6,8,9,7)", 11),
        parse_cycles("(2,3)(5,11)(6,7)(8,9)", 11),
    ]
    K = close_generators(gens)
    assert K.order == 12
    assert is_dihedral_group(K)
    cert = certify_non_membership("M11", gens)
    assert cert.conclusive


def test_certify_inconclusive_for_member_subgroup():
    gens = [parse_cycles("(1,2,3,4,5)", 5)]
    cert = certify_non_membership("alternating(5)", gens)
    assert not cert.conclusive
    assert cert.verdict is None


def test_is_simple():
    assert is_simple(alternating(5))
    assert not is_simple(symmetric(3))
    assert is_simple(psl2(7))
    assert not is_simple(cyclic(1))
    assert is_simple(cyclic(7))  # simple abelian
    assert not is_simple(symmetric(4))
    assert not is_simple(abelian([3, 3]))


def test_is_simple_closes_conjugates_one_at_a_time():
    # normal_closure closes one conjugate at a time, skipping those already
    # inside, so only a few seeds build a right-multiplication column; closing
    # the whole class at once built one column per non-identity element
    # (1 091 on psl2:13), and psl2:31 ran toward 1.8 GB of columns
    G = psl2(13)
    assert is_simple(G)
    assert len(G._columns) == 19
    assert is_simple(psl2(31))


def test_quaternion_complement_member():
    G, spec = quaternion_on_c3()
    assert G.order == 24
    assert in_class_X(G).member
    # center coincides with the center of a Sylow 2-subgroup
    P2 = sylow_subgroup(G, 2)
    assert two_group_family(P2.induced_group()) == "quaternion"
    z_of_p2 = G.centralizer_mask(P2.generating_set()) & P2.mask
    assert G.center().mask == z_of_p2


def test_sylow_normalizer_self_centralizing():
    for p in (5, 7):
        G = psl2(p)
        P = sylow_subgroup(G, p)
        N = normalizer(G, P)
        c_in_n = G.centralizer_mask(P.generating_set()) & N.mask
        assert c_in_n == P.mask


def test_verdict_json_shape():
    v = in_class_X(dihedral(12))
    data = v.to_json("dihedral:12", "X")
    assert data["group"] == "dihedral:12"
    assert data["class"] == "X"
    assert data["member"] is False
    assert data["method"] == "pair-reduced"
    assert set(data["witness"]) == {"generators", "z"}
    member = in_class_X(dihedral(8)).to_json("dihedral:8", "X")
    assert member["witness"] is None
