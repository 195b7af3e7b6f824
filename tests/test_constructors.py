import json
import math

import pytest

from centra.classify import is_dihedral_group, is_simple
from centra.constructors import (
    ActionSpec,
    abelian,
    alternating,
    automorphism_from_generator_images,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_p3,
    generalized_quaternion,
    is_fermat_prime,
    is_mersenne_prime,
    parse_group_spec,
    power_automorphism,
    projective_plane_perm,
    psl2,
    psl3,
    psl3_witness_pair,
    regular_representation,
    semidihedral,
    semidirect,
    symmetric,
)
from centra.errors import BudgetError, GroupTooLargeError, InvalidActionError
from centra.fields import gf
from centra.groups import close_generators
from centra.perms import Perm


def test_family_orders_match_formulas():
    assert cyclic(1).order == 1
    assert cyclic(12).order == 12
    assert abelian([2, 2]).order == 4
    assert abelian([2, 4]).order == 8
    assert symmetric(5).order == 120
    assert alternating(4).order == 12
    assert alternating(5).order == 60
    assert alternating(6).order == 360
    assert alternating(7).order == 2520
    for n in (2, 3, 4, 5, 8, 64):
        assert dihedral(2 * n).order == 2 * n
    for order in (16, 32, 64):
        assert semidihedral(order).order == order
    for order in (8, 16, 32, 64):
        assert generalized_quaternion(order).order == order
    for p in (3, 5, 7):
        assert extraspecial_p3(p, "p").order == p**3
        assert extraspecial_p3(p, "p2").order == p**3
    assert direct_product(cyclic(6), cyclic(2)).order == 12


def test_invalid_orders_rejected():
    with pytest.raises(ValueError):
        dihedral(7)
    with pytest.raises(ValueError):
        semidihedral(8)
    with pytest.raises(ValueError):
        generalized_quaternion(4)
    with pytest.raises(ValueError):
        generalized_quaternion(24)
    with pytest.raises(ValueError):
        extraspecial_p3(2, "p")
    with pytest.raises(ValueError):
        extraspecial_p3(9, "p")
    with pytest.raises(ValueError):
        abelian([1, 2])


def test_dihedral_matches_symmetric_3():
    D6 = dihedral(6)
    S3 = symmetric(3)
    assert D6.order == S3.order == 6
    assert not D6.is_abelian
    assert is_dihedral_group(D6) and is_dihedral_group(S3)


def test_dihedral_presentation_relations_elementwise():
    for n in range(2, 65):
        G = dihedral(2 * n)
        x, y = G.generators
        assert (x * x).is_identity()
        assert (y**n).is_identity()
        assert x.inverse() * y * x == y.inverse()
        # y really has order n and x is outside <y>
        assert y.order() == n


def test_involution_counts_distinguish_maximal_class_families():
    for e in (3, 4, 5, 6):
        n = 2**e
        dih = sum(1 for o in dihedral(n).element_orders() if o == 2)
        assert dih == n // 2 + 1
        quo = sum(1 for o in generalized_quaternion(n).element_orders() if o == 2)
        assert quo == 1
        if e >= 4:
            sd = sum(1 for o in semidihedral(n).element_orders() if o == 2)
            assert sd == n // 4 + 1


def test_quaternion_unique_involution():
    G = generalized_quaternion(8)
    assert sorted(G.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_extraspecial_exponent_and_center():
    H = extraspecial_p3(3, "p")
    assert max(H.element_orders()) == 3
    assert H.center().order == 3
    assert not H.is_abelian
    M = extraspecial_p3(3, "p2")
    assert max(M.element_orders()) == 9
    assert M.center().order == 3
    assert not M.is_abelian
    H5 = extraspecial_p3(5, "p")
    assert max(H5.element_orders()) == 5
    assert H5.center().order == 5


def test_psl2_orders():
    assert psl2(gf(2, 2)).order == 60
    assert psl2(gf(7, 1)).order == 168
    assert psl2(gf(3, 2)).order == 360
    assert psl2(5).order == 60
    assert psl2(8).order == 504
    assert psl2(11).order == 660
    # degree is q + 1
    assert psl2(7).degree == 8


def test_psl2_simple_for_small_q():
    for q in (4, 5, 7, 8, 9):
        assert is_simple(psl2(q))


@pytest.mark.parametrize("build, arg, error", [
    (cyclic, 9000, BudgetError),                  # 9000 x 9000 x 4 bytes
    (dihedral, 12000, BudgetError),               # 12000 x 6000 x 4 bytes
    (semidihedral, 2**14, BudgetError),           # 2^14 x 2^13 x 4 bytes
    (generalized_quaternion, 2**14, BudgetError),
    (abelian, [100, 100, 100], GroupTooLargeError),
    (cyclic, 10**9, GroupTooLargeError),
])
def test_closed_forms_refuse_before_any_perm(build, arg, error, monkeypatch):
    import centra.constructors as constructors

    def no_perm(images):
        pytest.fail("a Perm was built")

    monkeypatch.setattr(constructors, "Perm", no_perm)
    with pytest.raises(error):
        build(arg)


def test_closed_forms_honour_the_order_cap():
    for build, arg, order in [(cyclic, 12, 12), (dihedral, 12, 12),
                              (semidihedral, 16, 16),
                              (generalized_quaternion, 8, 8),
                              (abelian, [2, 6], 12)]:
        assert build(arg, order_cap=order).order == order
        with pytest.raises(GroupTooLargeError):
            build(arg, order_cap=order - 1)


def test_psl2_rejects_a_large_field_before_factorizing(monkeypatch):
    import centra.constructors as constructors
    import centra.fields as fields

    def guarded(f):
        def check(n):
            if n > fields.MAX_FIELD_SIZE:
                pytest.fail(f"{f.__name__}({n}) was called")
            return f(n)
        return check

    for module in (constructors, fields):
        for name in ("factorize", "is_prime"):
            monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    for q in (1000003, 4099, 4097):  # primes, and 17 * 241
        with pytest.raises(ValueError, match="field too large"):
            parse_group_spec(f"psl2:{q}")
    with pytest.raises(ValueError, match="not a prime power"):
        psl2(12)
    assert psl2(8).order == 504


def test_psl3_small():
    G2 = psl3(2)
    assert G2.order == 168
    assert G2.degree == 7
    G3 = psl3(3)
    assert G3.order == 5616
    assert G3.degree == 13


def test_psl3_large_hits_order_cap():
    from centra.errors import GroupTooLargeError

    with pytest.raises(GroupTooLargeError):
        psl3(7, order_cap=5000)


def test_psl3_witness_pair():
    a, b = psl3_witness_pair(7)
    assert a.degree == 57 and b.degree == 57
    K = close_generators([a, b])
    assert K.order == 12
    assert is_dihedral_group(K)
    # the pair satisfies the dihedral relations directly
    assert (a * a).is_identity()
    assert b.order() == 6
    assert a.inverse() * b * a == b.inverse()
    with pytest.raises(ValueError):
        psl3_witness_pair(2)


def test_projective_plane_perm_is_action_homomorphism():
    p = 5
    m1 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    m2 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    prod = [
        [sum(m1[r][k] * m2[k][c] for k in range(3)) % p for c in range(3)]
        for r in range(3)
    ]
    assert projective_plane_perm(p, m1) * projective_plane_perm(
        p, m2
    ) == projective_plane_perm(p, prod)


def test_semidirect_inverting_action_gives_symmetric_3():
    spec = ActionSpec(cyclic(2), cyclic(3), {0: Perm([0, 2, 1])})
    G = semidirect(spec)
    assert G.order == 6
    assert not G.is_abelian
    assert is_dihedral_group(G)


def test_semidirect_order_18_plane_inversion():
    target = abelian([3, 3])
    spec = ActionSpec(cyclic(2), target, {0: power_automorphism(target, 2)})
    G = semidirect(spec)
    assert G.order == 18
    assert not G.is_abelian


def test_semidirect_trivial_action_is_direct_product():
    target = cyclic(5)
    spec = ActionSpec(cyclic(4), target, {0: Perm.identity(5)})
    G = semidirect(spec)
    D = direct_product(cyclic(5), cyclic(4))
    assert G.order == D.order == 20
    assert G.is_abelian and D.is_abelian
    assert sorted(G.element_orders()) == sorted(D.element_orders())


def test_semidirect_multiplication_convention():
    # (n1, h1)(n2, h2) = (n1 * phi(h1)(n2), h1 h2), point (n,h) at n*|H|+h
    N, H = cyclic(3), cyclic(2)
    spec = ActionSpec(H, N, {0: Perm([0, 2, 1])})
    G = semidirect(spec)
    gens = G.generators
    gn, gh = gens[0], gens[1]
    # left multiplication by (n-gen, e) fixes the H coordinate
    for n in range(3):
        for h in range(2):
            pt = n * 2 + h
            img = gn(pt)
            assert img % 2 == h
    # (e, h-gen) twists the N coordinate by the automorphism before shifting
    assert gh(0 * 2 + 0) == 0 * 2 + 1


def test_invalid_actions_rejected():
    with pytest.raises(InvalidActionError):
        ActionSpec(cyclic(2), cyclic(3), {0: Perm([1, 0, 2])})  # moves identity
    with pytest.raises(InvalidActionError):
        # swapping r and r^2 in C4 does not preserve products
        ActionSpec(cyclic(2), cyclic(4), {0: Perm([0, 2, 1, 3])})
    with pytest.raises(InvalidActionError):
        # inversion has order 2; a generator of order 3 cannot map onto it
        ActionSpec(cyclic(3), cyclic(3), {0: Perm([0, 2, 1])})


def test_bijection_respecting_one_generator_only_is_rejected():
    # im translates the coset g2<g1> by g1 and fixes every other element, so
    # im(x * g1) = im(x) * im(g1) for all x, but im(g2 * g2) != im(g2)^2
    N = abelian([3, 3])
    g1, g2 = N.generator_indices()
    coset = {N.mul(g2, N.power(g1, e)) for e in range(3)}
    im = [N.mul(x, g1) if x in coset else x for x in range(N.order)]
    assert sorted(im) == list(range(N.order))
    assert all(im[N.mul(x, g1)] == N.mul(im[x], im[g1]) for x in range(N.order))
    assert im[N.mul(g2, g2)] != N.mul(im[g2], im[g2])
    with pytest.raises(InvalidActionError, match="not an automorphism"):
        ActionSpec(cyclic(3), N, {0: Perm(im)})


def test_automorphism_from_generator_images():
    G = abelian([3, 3])
    c1, c2 = G.generator_indices()
    auto = automorphism_from_generator_images(G, [G.power(c1, 2), G.power(c2, 2)])
    assert auto == power_automorphism(G, 2)
    with pytest.raises(InvalidActionError):
        automorphism_from_generator_images(G, [c1, c1])


def test_regular_representation():
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    G = regular_representation(table)
    assert G.order == 5
    assert G.degree == 5
    with pytest.raises(ValueError):
        regular_representation([[1, 1], [1, 1]])


def _table(elems, mul):
    index = {e: t for t, e in enumerate(elems)}
    return [[index[mul(a, b)] for b in elems] for a in elems]


def _quaternion_16_table():
    # a^i b^j with a^8 = 1, b^2 = a^4, b a b^-1 = a^-1
    def mul(e1, e2):
        (i, j), (k, l) = e1, e2
        if j == 0:
            return ((i + k) % 8, l)
        if l == 0:
            return ((i - k) % 8, 1)
        return ((i - k + 4) % 8, 0)

    return _table([(i, j) for j in range(2) for i in range(8)], mul)


def _c9_by_c3_table():
    # (i, j) = a^i b^j with a^9 = b^3 = 1 and b^-1 a b = a^4
    def mul(e1, e2):
        (i, j), (k, l) = e1, e2
        return ((i + k * pow(4, j, 9)) % 9, (j + l) % 3)

    return _table([(i, j) for j in range(3) for i in range(9)], mul)


@pytest.mark.parametrize(
    "spec, table", [("q:16", _quaternion_16_table), ("xsp:3,p2", _c9_by_c3_table)]
)
def test_table_free_constructors_match_regular_representation(spec, table):
    G, R = parse_group_spec(spec), regular_representation(table())
    assert G.generators == R.generators
    assert G.matrix.tolist() == R.matrix.tolist()
    assert G.to_json() == R.to_json()


def test_presentation_spec_obeys_order_cap(tmp_path):
    (tmp_path / "c50.pres").write_text("gens: a\na^50 = 1\n")
    spec = "presentation:@c50.pres"
    assert parse_group_spec(spec, base_dir=tmp_path, order_cap=50).order == 50
    with pytest.raises(GroupTooLargeError):
        parse_group_spec(spec, base_dir=tmp_path, order_cap=10)
    with pytest.raises(GroupTooLargeError):
        parse_group_spec(spec + "#A", base_dir=tmp_path, order_cap=10)


def test_fermat_mersenne():
    assert is_fermat_prime(3)
    assert is_fermat_prime(5)
    assert is_fermat_prime(17)
    assert is_fermat_prime(257)
    assert not is_fermat_prime(7)
    assert not is_fermat_prime(9)
    assert not is_fermat_prime(11)
    assert is_mersenne_prime(3)
    assert is_mersenne_prime(7)
    assert is_mersenne_prime(31)
    assert is_mersenne_prime(127)
    assert not is_mersenne_prime(11)
    assert not is_mersenne_prime(15)
    assert not is_mersenne_prime(17)


def test_parse_group_spec(tmp_path):
    assert parse_group_spec("cyclic:12").order == 12
    assert parse_group_spec("abelian:2,4").order == 8
    assert parse_group_spec("dihedral:16").order == 16
    assert parse_group_spec("sd:32").order == 32
    assert parse_group_spec("q:16").order == 16
    assert parse_group_spec("xsp:3,p").order == 27
    assert parse_group_spec("xsp:3,p2").order == 27
    assert parse_group_spec("sym:5").order == 120
    assert parse_group_spec("alt:6").order == 360
    assert parse_group_spec("psl2:7").order == 168
    assert parse_group_spec("psl2:9").order == 360
    assert parse_group_spec("dp:dihedral:8;cyclic:2").order == 16
    action = {
        "acting": "cyclic:2",
        "target": "cyclic:3",
        "images": {"0": [0, 2, 1]},
    }
    path = tmp_path / "action.json"
    path.write_text(json.dumps(action))
    assert parse_group_spec("sdp:@action.json", base_dir=tmp_path).order == 6
    pres = tmp_path / "five.pres"
    pres.write_text("gens: a\na^5 = 1\n")
    assert parse_group_spec("presentation:@five.pres", base_dir=tmp_path).order == 5
    with pytest.raises(ValueError):
        parse_group_spec("nosuch:3")


def test_alternating_generators_give_even_permutations():
    for n in (4, 5, 6, 7):
        G = alternating(n)
        assert G.order == math.factorial(n) // 2
