import numpy as np
import pytest

from centra.fields import factorize, gf, is_prime


def _tables(F):
    q = F.q
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = F.add(a, b)
            mul[a, b] = F.mul(a, b)
    return add, mul


@pytest.mark.parametrize(
    "p,m",
    [(2, 1), (3, 1), (5, 1), (13, 1), (2, 2), (2, 3), (3, 2),
     (2, 4), (5, 2), (3, 3), (2, 8), (3, 5), (5, 3), (2, 7)],
)
def test_field_axioms_exhaustive(p, m):
    F = gf(p, m)
    q = F.q
    assert q <= 256
    add, mul = _tables(F)
    # commutativity
    assert (add == add.T).all()
    assert (mul == mul.T).all()
    # identities
    assert (add[0] == np.arange(q)).all()
    assert (mul[1] == np.arange(q)).all()
    assert (mul[0] == 0).all()
    # additive and multiplicative inverses
    for a in range(q):
        assert add[a, F.neg(a)] == 0
    for a in range(1, q):
        assert mul[a, F.inv(a)] == 1
    # associativity and distributivity, chunked over the first operand
    for a in range(q):
        assert (mul[mul[a]] == mul[a][mul]).all()      # (a*b)*c == a*(b*c)
        assert (add[add[a]] == add[a][add]).all()      # (a+b)+c == a+(b+c)
        left = mul[a][add]                             # a*(b+c)
        right = add[mul[a]][:, mul[a]]                 # (a*b)+(a*c)
        assert (left == right).all()


def test_unit_group_order():
    for p, m in [(2, 2), (3, 2), (2, 3), (7, 1), (5, 2)]:
        F = gf(p, m)
        g = F.primitive
        seen = set()
        x = 1
        for _ in range(F.q - 1):
            x = F.mul(x, g)
            seen.add(x)
        assert len(seen) == F.q - 1


def test_bundled_polynomials():
    assert gf(2, 2).irreducible == (1, 1, 1)
    assert gf(2, 3).irreducible == (1, 1, 0, 1)
    assert gf(3, 2).irreducible == (1, 0, 1)


def test_primitive_is_least_primitive_root():
    assert gf(7).primitive == 3
    assert gf(5).primitive == 2
    assert gf(17).primitive == 3
    assert gf(2).primitive == 1  # the trivial unit group


def test_exp_log_inverse_relation():
    F = gf(3, 2)
    for x in range(1, F.q):
        assert F.exp_table[F.log_table[x]] == x


def test_pow():
    F = gf(7, 1)
    for a in range(1, 7):
        assert F.pow(a, 6) == 1
        assert F.pow(a, -1) == F.inv(a)
    assert F.pow(0, 3) == 0
    assert F.pow(5, 0) == 1


def test_construction_guards():
    with pytest.raises(ValueError):
        gf(4, 1)  # not prime
    with pytest.raises(ValueError):
        gf(2, 13)  # 8192 > 4096
    with pytest.raises(ValueError):
        gf(2, 0)


def test_large_field_constructs():
    F = gf(2, 12)
    assert F.q == 4096
    a, b = 1234, 987
    assert F.mul(a, F.inv(a)) == 1
    assert F.add(a, a) == 0  # characteristic 2
    assert F.mul(a, b) == F.mul(b, a)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1)
    assert not is_prime(0)


def test_factorize():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(2 * 7919) == [(2, 1), (7919, 1)]
    for n in range(1, 200):
        prod = 1
        for p, e in factorize(n):
            assert e >= 1 and all(p % d for d in range(2, p))
            prod *= p**e
        assert prod == n
