import pytest

from centra import presentations
from centra.errors import (
    EnumerationInconclusiveError,
    GroupTooLargeError,
    PresentationSyntaxError,
)
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


def test_enumeration_limit_is_inconclusive():
    pres = parse_presentation("gens: a b\na^2 = 1\n")  # infinite group
    with pytest.raises(EnumerationInconclusiveError):
        todd_coxeter(pres, "A", max_cosets=500)


def test_realize_auto_raises_when_both_conventions_inconclusive():
    pres = parse_presentation("gens: a b\na^2 = 1\n")
    with pytest.raises(EnumerationInconclusiveError):
        realize(pres, convention="auto", max_cosets=300)


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


def test_regular_action_free_and_transitive():
    pres = parse_presentation(_data_text("ex_order12.pres"))
    G = realize(pres, "B").group
    assert G.order == G.degree == 12
    # transitive: orbit of 0 is everything; free: only identity fixes a point
    orbit = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in G.generators:
                if g(pt) not in orbit:
                    orbit.add(g(pt))
                    nxt.append(g(pt))
        frontier = nxt
    assert orbit == set(range(12))
    for p in G.elements:
        if any(p(i) == i for i in range(12)):
            assert p.is_identity()


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
]

GENERATED_PRESENTATIONS = {
    "abelian-12x36": "gens: a b\na^12 = 1\nb^36 = 1\n[a,b] = 1\n",
    "heisenberg-7": (
        "gens: x y z\nx^7 = 1\ny^7 = 1\nz^7 = 1\n"
        "[x,y] = z\n[x,z] = 1\n[y,z] = 1\n"
    ),
}


@pytest.mark.parametrize("name,conv,defined,live", ENUMERATION_COUNTS)
def test_enumeration_work_counts(name, conv, defined, live):
    text = GENERATED_PRESENTATIONS.get(name) or _data_text(name)
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


def test_realize_auto_enumerates_both_conventions_with_brackets(monkeypatch):
    calls = _counting_todd_coxeter(monkeypatch)
    r = realize(parse_presentation(_data_text("ex_order147.pres")), "auto", 147)
    assert calls == ["A", "B"]
    assert r.orders == {"A": 3, "B": 147}
    assert (r.convention, r.order) == ("B", 147)


def test_realize_auto_shares_an_inconclusive_enumeration(monkeypatch):
    calls = _counting_todd_coxeter(monkeypatch)
    with pytest.raises(EnumerationInconclusiveError):
        realize(parse_presentation("gens: a b\na^2 = 1\n"), "auto", max_cosets=300)
    assert calls == ["A"]


def test_table_rows_mark_undefined_entries_with_none():
    ct = CosetTable(2)
    assert ct.table == [[None, None, None, None]]
    beta = ct.define(0, 2)
    assert beta == 1
    assert ct.table == [[None, None, 1, None], [None, None, None, 0]]
