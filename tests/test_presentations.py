import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_cli_fuzz import relations

from centra import presentations
from centra.classify import in_class_C, in_class_X, verify_witness
from centra.errors import (
    BudgetError,
    EnumerationInconclusiveError,
    GroupTooLargeError,
    InvariantError,
    PresentationSyntaxError,
)
from centra.fields import is_prime
from centra.groups import ELEMENT_STORAGE_BUDGET, close_generators
from centra.perms import Perm
from centra.presentations import (
    CosetTable,
    group_from_table,
    parse_presentation,
    realize,
    todd_coxeter,
)
from centra.verify import _data_text


def test_parse_single_generator():
    pres = parse_presentation("gens: a\na^5 = 1\n")
    assert pres.generators == ["a"]
    assert len(pres.relations) == 1
    assert pres.relators("A") == [[1, 1, 1, 1, 1]]
    assert pres.relators("B") == [[1, 1, 1, 1, 1]]


def test_parse_order18_text():
    pres = parse_presentation(_data_text("ex_order18.pres"))
    assert len(pres.generators) == 3
    assert len(pres.relations) == 6


def test_commutator_flattening_per_convention():
    pres = parse_presentation("gens: b c a\n[c,a] = bc^2\n")
    (rel_a,) = pres.relators("A")
    (rel_b,) = pres.relators("B")
    # gens are numbered b=1, c=2, a=3; rhs inverse is c^-2 b^-1
    assert rel_a == [2, 3, -2, -3, -2, -2, -1]
    assert rel_b == [-2, -3, 2, 3, -2, -2, -1]


def test_adjacent_inverse_cancellation():
    pres = parse_presentation("gens: a b\na b b^-1 a = 1\n")
    assert pres.relators("A") == [[1, 1]]


def test_bare_relator_lines():
    pres = parse_presentation("gens: a\na^4\n")
    assert pres.relators("A") == [[1, 1, 1, 1]]


def test_trivial_relation_dropped_after_simplification():
    pres = parse_presentation("gens: a\na = a\na^3 = 1\n")
    assert len(pres.relations) == 2
    assert pres.relators("A") == [[1, 1, 1]]


def test_juxtaposed_generator_names():
    pres = parse_presentation("gens: g1 g2\ng1g2 = g2g1\n")
    assert pres.relators("A") == [[1, 2, -1, -2]]


def test_syntax_errors_carry_position():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("gens: a b\na^2 = (b\n")
    assert err.value.line == 2
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("gens: a\na x = 1\n")
    assert err.value.line == 2
    assert "unknown generator" in str(err.value)
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("a^2 = 1\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: a a\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("")
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("gens: a\na^x = 1\n")
    assert err.value.line == 2


def test_negative_powers():
    pres = parse_presentation("gens: a b\nb^-1 a b = a^-1\n")
    assert pres.relators("A") == [[-2, 1, 2, 1]]


def test_todd_coxeter_cyclic_five():
    pres = parse_presentation("gens: a\na^5 = 1\n")
    ct = todd_coxeter(pres, "A")
    assert ct.live_count() == 5


def test_todd_coxeter_conventions_disagree_on_order18():
    pres = parse_presentation(_data_text("ex_order18.pres"))
    assert todd_coxeter(pres, "A").live_count() == 18
    assert todd_coxeter(pres, "B").live_count() < 18


def test_todd_coxeter_order147_needs_convention_b():
    pres = parse_presentation(_data_text("ex_order147.pres"))
    assert todd_coxeter(pres, "B").live_count() == 147
    assert todd_coxeter(pres, "A").live_count() < 147


def test_conventions_agree_without_brackets():
    text = "gens: a b\na^2 = 1\nb^3 = 1\na^-1 b a = b^-1\n"
    pres = parse_presentation(text)
    assert todd_coxeter(pres, "A").live_count() == 6
    assert todd_coxeter(pres, "B").live_count() == 6


def test_commuting_generators_give_c6():
    pres = parse_presentation("gens: a b\n[b,a] = 1\na^2 = 1\nb^3 = 1\n")
    for conv in ("A", "B"):
        G = realize(pres, conv).group
        assert G.order == 6
        assert G.is_abelian


def test_collapse_to_trivial_group_is_valid():
    pres = parse_presentation("gens: a\na^2 = 1\na^3 = 1\n")
    ct = todd_coxeter(pres, "A")
    assert ct.live_count() == 1
    G = group_from_table(ct)
    assert G.order == 1


def test_group_from_table_keeps_order_cap():
    ct = todd_coxeter(parse_presentation("gens: a\na^12 = 1\n"), "A")
    assert ct.live_count() == 12
    with pytest.raises(GroupTooLargeError) as err:
        group_from_table(ct, order_cap=10)
    assert (err.value.cap, err.value.partial_count) == (10, 12)
    assert group_from_table(ct, order_cap=12).order == 12


def test_group_from_table_refuses_an_unfaithful_action(monkeypatch):
    # C12 acting as a 3-cycle: the closure has order 3, not the 12 cosets
    ct = todd_coxeter(parse_presentation("gens: a\na^12 = 1\n"), "A")
    monkeypatch.setattr(presentations, "_coset_action",
                        lambda table: np.array([[1, 2, 0]]))
    with pytest.raises(InvariantError, match="order 3, not 12"):
        group_from_table(ct)


def test_enumeration_limit_is_inconclusive(monkeypatch):
    monkeypatch.setattr(presentations, "MAX_COSETS", 500)
    pres = parse_presentation("gens: a b\na^2 = 1\n")  # infinite group
    with pytest.raises(EnumerationInconclusiveError):
        todd_coxeter(pres, "A")


def test_realize_auto_raises_when_both_conventions_inconclusive(monkeypatch):
    monkeypatch.setattr(presentations, "MAX_COSETS", 300)
    pres = parse_presentation("gens: a b\na^2 = 1\n")
    with pytest.raises(EnumerationInconclusiveError):
        realize(pres, convention="auto")


@pytest.mark.parametrize("conv", ["A", "B", "auto"])
def test_realize_auto_reports_the_cosets_defined(conv, monkeypatch):
    # the error carries what the enumerations defined, not 0
    monkeypatch.setattr(presentations, "MAX_COSETS", 300)
    pres = parse_presentation("gens: a b\na^3 = 1\n")
    with pytest.raises(EnumerationInconclusiveError) as err:
        realize(pres, convention=conv)
    assert err.value.defined == 300
    assert "(300 cosets defined)" in str(err.value)


def test_relators_hold_in_realized_group():
    for fname, conv in [
        ("ex_order18.pres", "A"),
        ("ex_order147.pres", "B"),
        ("ex_order12.pres", "B"),
        ("ex_order75.pres", "B"),
        ("ex_order24.pres", "B"),
    ]:
        pres = parse_presentation(_data_text(fname))
        G = realize(pres, conv).group
        gens = G.generators
        for word in pres.relators(conv):
            acc = gens[0].identity(G.degree)
            for signed in word:
                g = gens[signed - 1] if signed > 0 else gens[-signed - 1].inverse()
                acc = acc * g
            assert acc.is_identity(), (fname, word)


def _orbits(G):
    """The orbits of G on its points, by least point."""
    orbits = []
    for start in range(G.degree):
        if any(start in orbit for orbit in orbits):
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            pt = frontier.pop()
            for g in G.generators:
                if g(pt) not in orbit:
                    orbit.add(g(pt))
                    frontier.append(g(pt))
        orbits.append(orbit)
    return orbits


def test_regular_action_free_and_transitive():
    # every non-trivial subgroup of Q16 contains the central involution, so
    # no union of coset actions is faithful and the regular action is kept
    pres = parse_presentation("gens: a b\na^8 = 1\nb^2 = a^4\nb^-1 a b = a^-1\n")
    G = realize(pres, "A").group
    assert G.order == G.degree == 16
    # transitive: orbit of 0 is everything; free: only identity fixes a point
    assert _orbits(G) == [set(range(16))]
    for p in G.elements:
        if any(p(i) == i for i in range(16)):
            assert p.is_identity()
    # ex_order12 = C3 x| C4 acts faithfully on the 3 cosets of <a> (kernel
    # <a^2>, central) and the 4 cosets of <c> (normal), whose kernels meet
    # in {1}
    G = realize(parse_presentation(_data_text("ex_order12.pres")), "B").group
    assert (G.order, G.degree) == (12, 7)
    assert [len(o) for o in _orbits(G)] == [3, 4]


def test_determinism():
    pres = parse_presentation(_data_text("ex_order147.pres"))
    t1 = todd_coxeter(pres, "B")
    t2 = todd_coxeter(pres, "B")
    assert t1.table == t2.table
    assert t1.p == t2.p


def test_realize_auto_with_hints():
    cases = [
        ("ex_order18.pres", 18, "A"),
        ("ex_order147.pres", 147, "B"),
        ("ex_order24.pres", 24, "B"),
        ("ex_order12.pres", 12, "B"),
        ("ex_order75.pres", 75, "B"),
    ]
    for fname, hint, conv in cases:
        pres = parse_presentation(_data_text(fname))
        r = realize(pres, convention="auto", order_hint=hint)
        assert r.order == hint
        assert r.convention == conv
        assert r.hint_matched
        # both orders were computed and reported
        assert set(r.orders) == {"A", "B"}


def test_realize_auto_without_hint_prefers_noncollapsed():
    pres = parse_presentation(_data_text("ex_order75.pres"))
    r = realize(pres, convention="auto")
    assert r.order == 75
    assert r.convention == "B"


def test_column_indexing():
    assert CosetTable.column(1) == 0
    assert CosetTable.column(-1) == 1
    assert CosetTable.column(2) == 2
    assert CosetTable.column(-2) == 3


# cosets defined (len(ct.table)) and live at the end of HLT enumeration; any
# change in definition order moves the first number
ENUMERATION_COUNTS = [
    ("ex_order18.pres", "A", 40, 18),
    ("ex_order18.pres", "B", 23, 2),
    ("ex_order147.pres", "A", 110, 3),
    ("ex_order147.pres", "B", 556, 147),
    ("ex_order24.pres", "A", 28, 8),
    ("ex_order24.pres", "B", 45, 24),
    ("ex_order12.pres", "A", 18, 4),
    ("ex_order12.pres", "B", 21, 12),
    ("ex_order75.pres", "A", 141, 3),
    ("ex_order75.pres", "B", 252, 75),
    ("abelian-12x36", "B", 4535, 432),
    ("heisenberg-7", "B", 2287, 343),
    ("c31-c15", "A", 9252, 465),
    ("dihedral-486", "A", 486, 486),
    ("cyclic-2000", "A", 2000, 2000),
]

GENERATED_PRESENTATIONS = {
    "abelian-12x36": "gens: a b\na^12 = 1\nb^36 = 1\n[a,b] = 1\n",
    "heisenberg-7": (
        "gens: x y z\nx^7 = 1\ny^7 = 1\nz^7 = 1\n"
        "[x,y] = z\n[x,z] = 1\n[y,z] = 1\n"
    ),
    # the Frobenius group C31 : C15, b acting as a -> a^9
    "c31-c15": "gens: a b\na^31 = 1\nb^15 = 1\nb^-1 a b = a^9\n",
    "dihedral-486": "gens: a b\na^243 = 1\nb^2 = 1\n(ab)^2 = 1\n",
    "cyclic-2000": "gens: a\na^2000 = 1\n",
    "cyclic-401": "gens: a\na^401 = 1\n",
    "quaternion-256": "gens: a b\na^128 = 1\nb^2 = a^64\nb^-1 a b = a^-1\n",
}


def _text(name):
    """A generated presentation by name, or a bundled one by file name."""
    return GENERATED_PRESENTATIONS.get(name) or _data_text(name)


@pytest.mark.parametrize("name,conv,defined,live", ENUMERATION_COUNTS)
def test_enumeration_work_counts(name, conv, defined, live):
    text = _text(name)
    ct = todd_coxeter(parse_presentation(text), conv)
    assert (len(ct.table), ct.live_count()) == (defined, live)
    assert len(ct.p) == defined


def _counting_todd_coxeter(monkeypatch):
    calls = []
    real = presentations.todd_coxeter

    def counted(pres, convention, *args, **kwargs):
        calls.append(convention)
        return real(pres, convention, *args, **kwargs)

    monkeypatch.setattr(presentations, "todd_coxeter", counted)
    return calls


@pytest.mark.parametrize("text,n", [
    ("gens: a\na^40 = 1\n", 40),
    ("gens: a b\na^9 = 1\nb^2 = 1\n(ab)^2 = 1\n", 18),
], ids=["cyclic-40", "dihedral-18"])
def test_realize_auto_enumerates_once_without_brackets(monkeypatch, text, n):
    calls = _counting_todd_coxeter(monkeypatch)
    r = realize(parse_presentation(text), "auto", n)
    assert calls == ["A"]
    assert r.orders == {"A": n, "B": n}
    assert (r.convention, r.order) == ("A", n)


def test_realize_auto_enumerates_once_for_rotated_relators(monkeypatch):
    # B's [a,b] is a cyclic rotation of A's, so the normal closures agree
    calls = _counting_todd_coxeter(monkeypatch)
    text = GENERATED_PRESENTATIONS["abelian-12x36"]
    r = realize(parse_presentation(text), "auto", 432)
    assert calls == ["A"]
    assert r.orders == {"A": 432, "B": 432}
    assert (r.convention, r.order) == ("A", 432)


def test_same_closure_up_to_rotation_and_inversion():
    same = presentations._same_closure
    assert same([1, 2, -1, -2], [-1, -2, 1, 2])
    assert same([1, 12], [12, 1])
    assert same([1, 12], [-12, -1])
    assert not same([1, 12], [2, 11])
    assert not same([1, 1, 2], [1, 2, 2])
    assert not same([1, 2], [1, 2, 1])


def test_realize_auto_enumerates_both_conventions_with_brackets(monkeypatch):
    calls = _counting_todd_coxeter(monkeypatch)
    r = realize(parse_presentation(_data_text("ex_order147.pres")), "auto", 147)
    assert calls == ["A", "B"]
    assert r.orders == {"A": 3, "B": 147}
    assert (r.convention, r.order) == ("B", 147)


def test_realize_auto_shares_an_inconclusive_enumeration(monkeypatch):
    calls = _counting_todd_coxeter(monkeypatch)
    monkeypatch.setattr(presentations, "MAX_COSETS", 300)
    with pytest.raises(EnumerationInconclusiveError):
        realize(parse_presentation("gens: a b\na^2 = 1\n"), "auto")
    assert calls == ["A"]


def test_table_rows_mark_undefined_entries_with_none():
    ct = CosetTable(2)
    assert ct.table == [[None, None, None, None]]
    beta = ct.define(0, 2)
    assert beta == 1
    assert ct.table == [[None, None, 1, None], [None, None, None, 0]]


def test_lookahead_skips_scans_that_close(monkeypatch):
    # the scan of a^2000 from coset 0 defines every coset and closes the
    # table; the lookahead then finds a^2000 closed at every other coset,
    # where plain HLT scans it 1999 more times
    scans = []
    real = CosetTable.scan_and_fill

    def counted(self, alpha, rel):
        scans.append(alpha)
        return real(self, alpha, rel)

    monkeypatch.setattr(CosetTable, "scan_and_fill", counted)
    ct = todd_coxeter(parse_presentation(GENERATED_PRESENTATIONS["cyclic-2000"]), "A")
    assert scans == [0]
    assert ct.live_count() == 2000


@pytest.mark.parametrize("conv", ["A", "B"])
def test_a_lookahead_that_does_not_finish(conv, monkeypatch):
    # C2: the one lookahead, from coset 7 with 56 cosets defined, finds a
    # relator that does not close, so the enumeration goes on scanning and
    # ends with 2 live cosets and no further definition
    lookaheads = []
    real = presentations._closed_pairs

    def traced(ct, relators, start):
        lookaheads.append((len(ct.p), start, real(ct, relators, start)))
        return lookaheads[-1][-1]

    monkeypatch.setattr(presentations, "_closed_pairs", traced)
    pres = parse_presentation("gens: a b\na^7 = 1\nb^8 = 1\nb b = 1\nb a b = 1\n")
    ct = todd_coxeter(pres, conv)
    assert lookaheads == [(56, 7, False)]
    assert (len(ct.p), ct.live_count()) == (56, 2)
    assert group_from_table(ct).order == 2


SMALL_PRESENTATIONS = [
    "gens: a\na^12 = 1\n",
    "gens: a b\na^9 = 1\nb^2 = 1\n(ab)^2 = 1\n",
    "gens: a b\na^8 = 1\nb^2 = a^4\nb^-1 a b = a^-1\n",
    "gens: a b\na^7 = 1\nb^3 = 1\nb^-1 a b = a^2\n",
]
BUNDLED_PRESENTATIONS = [
    "ex_order18.pres", "ex_order147.pres", "ex_order24.pres",
    "ex_order12.pres", "ex_order75.pres",
]


@pytest.mark.parametrize("conv", ["A", "B"])
@pytest.mark.parametrize(
    "text",
    SMALL_PRESENTATIONS + [_data_text(f) for f in BUNDLED_PRESENTATIONS],
    ids=["cyclic-12", "dihedral-18", "quaternion-16", "metacyclic-21"]
    + BUNDLED_PRESENTATIONS,
)
def test_regular_rows_match_generator_closure(text, conv):
    ct = todd_coxeter(parse_presentation(text), conv)
    G = group_from_table(ct)
    H = close_generators(G.generators)
    assert np.array_equal(G.matrix, H.matrix)
    assert G.generators == H.generators


def test_group_from_table_checks_storage_before_building():
    # the smallest prime p whose regular representation is over budget: C_p
    # has no proper non-trivial subgroup, so its only faithful action is the
    # regular one, refused before any row is built
    p = math.isqrt(ELEMENT_STORAGE_BUDGET // 4) + 1
    while not is_prime(p):
        p += 1
    assert 4 * p * p > ELEMENT_STORAGE_BUDGET
    with pytest.raises(BudgetError) as err:
        realize(parse_presentation(f"gens: a\na^{p} = 1\n"), "auto", p)
    assert (err.value.needed, err.value.limit) == (4 * p * p, ELEMENT_STORAGE_BUDGET)
    assert "element storage budget" in str(err.value)


def test_cyclic_8193_realizes_on_its_prime_power_cosets():
    # C8193 = C3 x C2731 is over budget as a regular representation
    # (4 x 8193^2 bytes) but acts faithfully on the 2731 + 3 cosets of its
    # subgroups of order 3 and 2731
    assert 4 * 8193 * 8193 > ELEMENT_STORAGE_BUDGET
    G = realize(parse_presentation("gens: a\na^8193 = 1\n"), "auto", 8193).group
    assert (G.order, G.degree) == (8193, 2734)
    assert sorted(len(o) for o in _orbits(G)) == [3, 2731]


def test_relator_length_is_bounded_before_expansion():
    # [a^3,b]^2 flattens to 2 * 2 * (3 + 1) = 16 letters, a^5 b^-2 to 7
    pres = parse_presentation("gens: a b\n[a^3,b]^2 = 1\na^5 = b^2\n")
    pres.check_length(23)
    with pytest.raises(BudgetError) as err:
        pres.check_length(22)
    assert (err.value.needed, err.value.limit) == (23, 22)
    huge = parse_presentation("gens: a\na^300000000 = 1\n")
    for call in (lambda: todd_coxeter(huge, "A"), lambda: realize(huge)):
        with pytest.raises(BudgetError, match="relator length bound"):
            call()


# the twelve presentations of the benchmark's `regular` workload: the order
# that picks the convention, and the degree of the faithful coset action
# realized.  Only C401 (no proper non-trivial subgroup) and Q256 (every
# non-trivial subgroup holds the central involution) keep the regular action
BENCH_DEGREES = {
    "ex_order18.pres": (18, 9), "ex_order147.pres": (147, 49),
    "ex_order24.pres": (24, 12), "ex_order12.pres": (12, 7),
    "ex_order75.pres": (75, 15), "cyclic-401": (401, 401),
    "abelian-12x36": (432, 48), "dihedral-486": (486, 243),
    "quaternion-256": (256, 256), "c31-c15": (465, 31),
    "heisenberg-7": (343, 49), "cyclic-2000": (2000, 141),
}


@pytest.mark.parametrize("name", sorted(BENCH_DEGREES))
def test_bench_presentation_degrees(name):
    order, degree = BENCH_DEGREES[name]
    text = _text(name)
    G = realize(parse_presentation(text), "auto", order).group
    assert (G.order, G.degree) == (order, degree)


def _same_verdicts_as_regular(ct):
    """The realized group has the live-coset count as its order and the
    class-X and class-C verdicts of the regular action on the same table,
    and every witness re-verifies."""
    G = group_from_table(ct)
    R = close_generators([Perm(c) for c in ct.closed[1::2].tolist()])
    assert G.order == R.order == ct.live_count()
    for cls, decide in (("X", in_class_X), ("C", in_class_C)):
        verdicts = [decide(H) for H in (G, R)]
        assert verdicts[0].member == verdicts[1].member
        for H, verdict in zip((G, R), verdicts):
            assert verdict.member or verify_witness(H, verdict, cls)


@pytest.mark.parametrize("conv", ["A", "B"])
@pytest.mark.parametrize(
    "text",
    [_text(name) for name in BENCH_DEGREES]
    + SMALL_PRESENTATIONS,
    ids=list(BENCH_DEGREES) + ["cyclic-12", "dihedral-18", "quaternion-16",
                               "metacyclic-21"],
)
def test_coset_action_verdicts_match_regular_action(text, conv):
    _same_verdicts_as_regular(todd_coxeter(parse_presentation(text), conv))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(lines=st.lists(relations, max_size=3), m=st.integers(1, 12),
       n=st.integers(1, 12), conv=st.sampled_from(["A", "B"]))
def test_coset_action_on_random_finite_presentations(lines, m, n, conv):
    # the CLI fuzz's relations, after ones that make the group a quotient of
    # C_m x C_n; malformed or over-long ones are refused before enumeration
    text = "\n".join(["gens: a b", f"a^{m} = 1", f"b^{n} = 1", "[a,b] = 1", *lines])
    try:
        ct = todd_coxeter(parse_presentation(text), conv)
    except (PresentationSyntaxError, BudgetError):
        return
    _same_verdicts_as_regular(ct)
