import json

import pytest

from centra.errors import DegreeMismatchError
from centra.perms import Perm, parse_cycles


def test_identity_composition():
    p = Perm([2, 0, 1, 3])
    e = Perm.identity(4)
    assert e * p == p
    assert p * e == p


def test_compose_applies_right_factor_first():
    # hand evaluation of both orders fixes the convention:
    # (0 1) after (1 2): 0 ->q 0 ->p 1,  1 ->q 2 ->p 2,  2 ->q 1 ->p 0
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    assert (p * q).images == (1, 2, 0)
    # the other order gives the other 3-cycle
    assert (q * p).images == (2, 0, 1)
    # pointwise statement of the defining formula
    r = p * q
    for i in range(3):
        assert r(i) == p(q(i))


def test_compose_with_inverse_is_identity():
    p = Perm([3, 1, 4, 0, 2])
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatchError):
        Perm([1, 0]) * Perm([1, 2, 0])


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([0, 3, 1])


def test_order_by_iteration_oracle():
    cases = [
        (Perm.identity(5), 1),
        (parse_cycles("(1,2,3,4,5)", 5), 5),
        (parse_cycles("(1,2)(3,4,5)", 5), 6),
    ]
    for p, expected in cases:
        assert p.order() == expected
        # independent oracle: iterate until identity
        k, cur = 1, p
        while not cur.is_identity():
            cur = cur * p
            k += 1
        assert k == expected


def test_power():
    p = parse_cycles("(1,2,3,4,5)", 5)
    assert (p**5).is_identity()
    assert p**-1 == p.inverse()
    assert p**7 == p * p * p * p * p * p * p


def test_cycle_string_round_trip():
    for text, degree in [
        ("(1,2)(3,4)(5,6,7)", 7),
        ("(1,3)(2,4)", 7),
        ("(1,2,3)(4,10)(5,11,6,8,9,7)", 11),
        ("()", 4),
    ]:
        p = parse_cycles(text, degree)
        assert parse_cycles(p.cycle_string(), degree) == p


def test_parse_cycles_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1,2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1,4)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(2,3)", 3)


def test_json_round_trip():
    p = Perm([2, 0, 1])
    assert p.to_json() == [2, 0, 1]
    assert Perm.from_json(json.dumps(p.to_json())) == p


def test_conjugate_by():
    p = parse_cycles("(1,2,3)", 4)
    g = parse_cycles("(1,4)", 4)
    # conjugation relabels the moved points
    assert p.conjugate_by(g) == parse_cycles("(4,2,3)", 4)
