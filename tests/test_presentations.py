import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
    Presentation,
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


def test_group_from_table_refuses_an_unfaithful_action():
    # C12's closed table forged into two 6-cycles on its 12 cosets: the
    # closure has order 6, not the 12 cosets
    ct = todd_coxeter(parse_presentation("gens: a\na^12 = 1\n"), "A")
    six = np.array([6 * (k // 6) + (k + 1) % 6 for k in range(12)])
    ct.closed = np.array([six, np.argsort(six)])
    with pytest.raises(InvariantError, match="order 6, not 12"):
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


def _counting_enumerations(monkeypatch, defined=None):
    """Record each enumeration that realize runs: (convention,) over the
    trivial subgroup, (convention, (i, e)) over <x_i^e>, x_1 the first
    generator.  realize flattens each convention's relators once, so the
    list an enumeration is given names its convention.  If ``defined`` is
    a list, add the cosets each enumeration defines to its last entry."""
    calls, conventions = [], {}
    relators, enumerate_ = Presentation.relators, presentations._enumerate

    def flattened(pres, convention):
        words = relators(pres, convention)
        conventions[id(words)] = convention
        return words

    def counted(num_generators, words, subgroup):
        calls.append((conventions[id(words)],
                      *((w[0], len(w)) for w in subgroup)))
        ct = enumerate_(num_generators, words, subgroup)
        if defined is not None:
            defined[-1] += len(ct.p)
        return ct

    monkeypatch.setattr(Presentation, "relators", flattened)
    monkeypatch.setattr(presentations, "_enumerate", counted)
    return calls


@pytest.mark.parametrize("text,n,enumerated", [
    # C40: <a> = G is not tried, then <a^5> (|H| <= 8) and <a^8> (|H| <= 5)
    ("gens: a\na^40 = 1\n", 40, [("A", (1, 5)), ("A", (1, 8))]),
    # D18: <b> alone is faithful on 9 points
    ("gens: a b\na^9 = 1\nb^2 = 1\n(ab)^2 = 1\n", 18,
     [("A", (1, 1)), ("A", (2, 1))]),
], ids=["cyclic-40", "dihedral-18"])
def test_realize_auto_enumerates_once_without_brackets(monkeypatch, text, n,
                                                       enumerated):
    calls = _counting_enumerations(monkeypatch)
    r = realize(parse_presentation(text), "auto", n)
    assert calls == enumerated
    assert r.orders == {"A": n, "B": n}
    assert (r.convention, r.order) == ("A", n)


def test_realize_auto_enumerates_once_for_rotated_relators(monkeypatch):
    # B's [a,b] is a cyclic rotation of A's, so the normal closures agree
    calls = _counting_enumerations(monkeypatch)
    text = GENERATED_PRESENTATIONS["abelian-12x36"]
    r = realize(parse_presentation(text), "auto", 432)
    assert calls == [("A", (2, 1)), ("A", (1, 1))]
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
    # b and c (b^7 = c^7 = 1) before a (a^3 = 1); A's <a> has index 1 and
    # proves |G| <= 3, which the 3 cosets of <b> meet
    calls = _counting_enumerations(monkeypatch)
    r = realize(parse_presentation(_data_text("ex_order147.pres")), "auto", 147)
    assert calls == [(conv, (g, 1)) for conv in "AB" for g in (2, 3, 1)]
    assert r.orders == {"A": 3, "B": 147}
    assert (r.convention, r.order) == ("B", 147)


def test_realize_auto_shares_an_inconclusive_enumeration(monkeypatch):
    # the first inconclusive candidate ends the sandwich: one extra
    # enumeration before the regular one
    calls = _counting_enumerations(monkeypatch)
    monkeypatch.setattr(presentations, "MAX_COSETS", 300)
    with pytest.raises(EnumerationInconclusiveError):
        realize(parse_presentation("gens: a b\na^2 = 1\n"), "auto")
    assert calls == [("A", (1, 1)), ("A",)]


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


def _same_verdicts(G, R):
    """G and R have the same order and the same class-X and class-C
    verdicts, and every witness re-verifies."""
    assert G.order == R.order
    for cls, decide in (("X", in_class_X), ("C", in_class_C)):
        verdicts = [decide(H) for H in (G, R)]
        assert verdicts[0].member == verdicts[1].member
        for H, verdict in zip((G, R), verdicts):
            assert verdict.member or verify_witness(H, verdict, cls)


def _same_verdicts_as_regular(pres, conv):
    """The realized group has the live-coset count of the regular
    enumeration as its order, and the verdicts of the regular action on
    that table."""
    ct = todd_coxeter(pres, conv)
    R = close_generators([Perm(c) for c in ct.closed[1::2].tolist()])
    assert R.order == ct.live_count()
    _same_verdicts(realize(pres, conv).group, R)


@pytest.mark.parametrize("conv", ["A", "B"])
@pytest.mark.parametrize(
    "text",
    [_text(name) for name in BENCH_DEGREES]
    + SMALL_PRESENTATIONS,
    ids=list(BENCH_DEGREES) + ["cyclic-12", "dihedral-18", "quaternion-16",
                               "metacyclic-21"],
)
def test_coset_action_verdicts_match_regular_action(text, conv):
    _same_verdicts_as_regular(parse_presentation(text), conv)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(lines=st.lists(relations, max_size=3), m=st.integers(1, 12),
       n=st.integers(1, 12), conv=st.sampled_from(["A", "B"]))
def test_coset_action_on_random_finite_presentations(lines, m, n, conv):
    # the CLI fuzz's relations, after ones that make the group a quotient of
    # C_m x C_n; malformed or over-long ones are refused before enumeration
    text = "\n".join(["gens: a b", f"a^{m} = 1", f"b^{n} = 1", "[a,b] = 1", *lines])
    try:
        pres = parse_presentation(text)
        pres.check_length(presentations.MAX_COSETS)
    except (PresentationSyntaxError, BudgetError):
        return
    _same_verdicts_as_regular(pres, conv)


# -- enumeration over cyclic subgroups, and the sandwich ---------------------------


@pytest.mark.parametrize("text,ks", [
    ("gens: a\na^-6 = 1\n", [6]),
    ("gens: a\na^6 = 1\na^4 = 1\n", [2]),
    ("gens: a\na^6 = a^2\n", [4]),
    # a^2 = b is no pure power, so a gets no exponent (and no bound)
    ("gens: a b\na^2 = b\nb^2 = 1\n", [0, 2]),
    ("gens: a b\n(ab)^3 = 1\n[a,b] = 1\n", [0, 0]),
], ids=["inverse-power", "gcd", "cancelled", "non-pure", "no-pure-power"])
def test_power_exponents(text, ks):
    pres = parse_presentation(text)
    assert presentations._power_exponents(pres.relators("A"), pres.num_generators) == ks


@pytest.mark.parametrize("name,word,index", [
    ("c31-c15", [2], 31), ("c31-c15", [1], 15), ("c31-c15", [2, 2, 2], 93),
    ("cyclic-2000", [1] * 16, 16), ("dihedral-486", [], 486),
], ids=["c31-c15-b", "c31-c15-a", "c31-c15-b3", "cyclic-2000-a16",
        "dihedral-486-trivial"])
def test_todd_coxeter_over_a_cyclic_subgroup(name, word, index):
    # the index of <w>; coset 0 is <w> itself, so w fixes it (the empty
    # word generates the trivial subgroup)
    ct = todd_coxeter(parse_presentation(_text(name)), "A", [word])
    assert ct.closed.shape[1] == ct.live_count() == index
    k = 0
    for g in word:
        k = ct.closed[CosetTable.column(g), k]
    assert k == 0


@pytest.mark.parametrize("name,conv,i,e,order", [
    ("c31-c15", "A", 1, 1, 465), ("c31-c15", "A", 1, 3, 465),
    ("c31-c15", "A", 0, 1, 15), ("cyclic-2000", "A", 0, 16, 16),
    ("heisenberg-7", "B", 2, 1, 49), ("heisenberg-7", "B", 0, 1, 343),
    ("ex_order12.pres", "B", 0, 1, 6), ("quaternion-256", "A", 1, 1, 128),
])
def test_action_order_without_closure(name, conv, i, e, order):
    # n times the order of x^e on the cosets of <x^e> is the order of the
    # action, which the closure confirms
    ct = todd_coxeter(parse_presentation(_text(name)), conv, [[i + 1] * e])
    G = close_generators([Perm(row) for row in ct.closed[1::2].tolist()])
    assert presentations._action_order(ct, i, e) == G.order == order


def test_subgroup_word_that_does_not_close_is_refused(monkeypatch):
    # a table forged by skipping the scan of the subgroup word at coset 0
    # is the regular action of C12, in which a^3 moves coset 0
    real = CosetTable.scan_and_fill
    scans = []

    def skip_first(self, alpha, rel):
        scans.append(alpha)
        if len(scans) > 1:
            real(self, alpha, rel)

    monkeypatch.setattr(CosetTable, "scan_and_fill", skip_first)
    with pytest.raises(InvariantError, match="subgroup word"):
        todd_coxeter(parse_presentation("gens: a\na^12 = 1\n"), "A", [[1, 1, 1]])


SANDWICH_PROVED = ["c31-c15", "heisenberg-7", "cyclic-2000", "dihedral-486",
                   "abelian-12x36"]


@pytest.mark.parametrize("conv", ["A", "B"])
@pytest.mark.parametrize("name", SANDWICH_PROVED)
def test_sandwich_proves_without_a_regular_table(name, conv, monkeypatch):
    calls = _counting_enumerations(monkeypatch)
    order, degree = BENCH_DEGREES[name]
    r = realize(parse_presentation(_text(name)), conv)
    assert (r.order, r.group.degree) == (order, degree)
    assert calls and all(len(call) == 2 for call in calls)


@pytest.mark.parametrize("name,tried", [
    ("cyclic-401", []), ("quaternion-256", [("A", (1, 1)), ("A", (2, 1))]),
], ids=["cyclic-401", "quaternion-256"])
def test_fallback_keeps_the_regular_action(name, tried, monkeypatch):
    # C401 has no candidate (<a> = G, and a^401 = 1 is <a^401> = 1), and
    # every non-trivial subgroup of Q256 holds its central involution, so no
    # union of coset actions is faithful
    calls = _counting_enumerations(monkeypatch)
    order, _ = BENCH_DEGREES[name]
    G = realize(parse_presentation(_text(name)), "A").group
    assert G.order == G.degree == order
    assert calls == tried + [("A",)]


def test_order147_collapses_under_a():
    # A's [b,a] = b and [c,a] = c kill b and c, leaving <a> of order 3
    r = realize(parse_presentation(_data_text("ex_order147.pres")), "A")
    assert (r.order, r.orders) == (3, {"A": 3})


def test_an_index_that_meets_the_bound_is_the_regular_table(monkeypatch):
    # b^6 = 1 and <b> = G give |G| <= 6; <a> then has 6 cosets, so a = 1 and
    # its table is the regular one.  That proves |G| = 6 but is no smaller
    # action, so the search goes on to the 2 + 3 cosets of <b^2> and <b^3>
    calls = _counting_enumerations(monkeypatch)
    r = realize(parse_presentation("gens: a b\na^2 = 1\nb^6 = 1\na = b^6\n"), "A")
    assert calls == [("A", (2, 1)), ("A", (1, 1)), ("A", (2, 2)), ("A", (2, 3))]
    assert (r.order, r.group.degree) == (6, 5)


def test_a_union_skips_an_action_that_adds_nothing():
    # C2 x C5 with c^2 = b: <b> = <c>, so the 2 cosets of <c> add nothing to
    # the 2 of <b>, and the 5 cosets of <a> then make the union faithful
    text = ("gens: a b c\na^2 = 1\nb^5 = 1\nc^5 = 1\n"
            "[a,b] = 1\n[a,c] = 1\n[b,c] = 1\nc^2 = b\n")
    G = realize(parse_presentation(text), "A").group
    assert (G.order, G.degree) == (10, 7)


def test_no_union_of_bound_points_is_closed(monkeypatch):
    # C2 x C2: the 2 + 2 cosets of <a> and <b> would be a union of B = 4
    # points, no smaller than the regular action, so realize falls back
    calls = _counting_enumerations(monkeypatch)
    G = realize(parse_presentation("gens: a b\na^2 = 1\nb^2 = 1\n[a,b] = 1\n"),
                "A").group
    assert calls == [("A", (1, 1)), ("A", (2, 1)), ("A",)]
    assert (G.order, G.degree) == (4, 4)


def test_a_closure_over_the_order_cap_raises_as_before():
    # C12 on the 3 + 4 cosets of <a^3> and <a^4> is over a cap of 10: the
    # fallback's closure raises as the regular path always did
    with pytest.raises(GroupTooLargeError) as err:
        realize(parse_presentation("gens: a\na^12 = 1\n"), "A", order_cap=10)
    assert (err.value.cap, err.value.partial_count) == (10, 12)


def test_cyclic_8193_builds_no_regular_table(monkeypatch):
    calls = _counting_enumerations(monkeypatch)
    G = realize(parse_presentation("gens: a\na^8193 = 1\n"), "A").group
    assert (G.order, G.degree) == (8193, 2734)
    assert calls == [("A", (1, 3)), ("A", (1, 2731))]


# cosets defined by all the enumerations of realize(pres, conv), against the
# regular enumeration's alone, and the (order, degree) realized, under A
# and B.  None is more except where the search needs the regular table
# (Q256) or the group is tiny, so that the regular table costs fewer
# cosets than the subgroups tried before the proof: ex_order147 under A
# (order 3), ex_order18 under B (order 2), ex_order12 under B, where <b> is
# enumerated (12 cosets defined) though <a> and <c> alone prove |G| = 12
REALIZE_COSETS = {
    "ex_order18.pres": (39, 38), "ex_order147.pres": (148, 413),
    "ex_order24.pres": (28, 35), "ex_order12.pres": (14, 27),
    "ex_order75.pres": (136, 65), "cyclic-401": (401, 401),
    "abelian-12x36": (48, 772), "dihedral-486": (245, 245),
    "quaternion-256": (417, 417), "c31-c15": (774, 774),
    "heisenberg-7": (115, 491), "cyclic-2000": (141, 141),
}
MORE_THAN_REGULAR = {("ex_order147.pres", "A"), ("ex_order18.pres", "B"),
                     ("ex_order12.pres", "B"), ("quaternion-256", "A"),
                     ("quaternion-256", "B")}
REALIZE_DEGREES = {
    "ex_order18.pres": ((18, 9), (2, 2)), "ex_order147.pres": ((3, 3), (147, 49)),
    "ex_order24.pres": ((8, 4), (24, 12)), "ex_order12.pres": ((4, 4), (12, 7)),
    "ex_order75.pres": ((3, 3), (75, 15)),
} | {name: (BENCH_DEGREES[name],) * 2 for name in GENERATED_PRESENTATIONS
     if name in BENCH_DEGREES}


@pytest.mark.parametrize("name", sorted(REALIZE_COSETS))
def test_realize_cosets_defined_are_pinned(name, monkeypatch):
    # Of the actions that prove |G| at once, the one with the fewest points
    # is kept: in ex_order24 under A (order 8), <g1> brings B down to 8,
    # which both its 4 cosets and the 8 of <g4> (tried before) then meet
    pres = parse_presentation(_text(name))
    tables = [todd_coxeter(pres, conv) for conv in "AB"]
    defined = []
    _counting_enumerations(monkeypatch, defined)
    for conv, ct, pinned in zip("AB", tables, REALIZE_DEGREES[name]):
        defined.append(0)
        G = realize(pres, conv).group
        assert (defined[-1] <= len(ct.p)) == ((name, conv) not in MORE_THAN_REGULAR)
        assert (G.order, G.degree) == pinned
    assert tuple(defined) == REALIZE_COSETS[name]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(lines=st.lists(relations, max_size=3), m=st.integers(1, 12),
       n=st.integers(1, 12), conv=st.sampled_from(["A", "B"]))
def test_realize_matches_regular_enumeration_on_random_finite_presentations(
        lines, m, n, conv):
    # the presentations of test_coset_action_on_random_finite_presentations;
    # malformed or over-long ones are not counted as examples, so that 100
    # presentations are realized (about half of them by the sandwich)
    text = "\n".join(["gens: a b", f"a^{m} = 1", f"b^{n} = 1", "[a,b] = 1", *lines])
    try:
        parse_presentation(text).check_length(presentations.MAX_COSETS)
    except (PresentationSyntaxError, BudgetError):
        assume(False)
    pres = parse_presentation(text)
    ct = todd_coxeter(pres, conv)
    G = realize(pres, conv).group
    assert G.order == ct.live_count()
    _same_verdicts(G, group_from_table(ct))
