"""Finitely presented groups: parsing and Todd-Coxeter coset enumeration.

Grammar (one relation per line after the header):

    gens: a b c
    a^2 = 1
    [b,a] = b^2
    (ab)^3 = 1

Words are juxtapositions of generators with integer powers (negatives
allowed), parenthesized subwords, commutator brackets [u,v], and ``1`` for
the empty word.  Equations w1 = w2 are stored as relators w1 * w2^-1, with
adjacent inverse pairs cancelled and no further free reduction.

Commutator brackets are kept symbolic until realization because the two
standard conventions

    A: [x,y] = x y x^-1 y^-1        B: [x,y] = x^-1 y^-1 x y

give different groups; ``realize`` can run both and pick whichever matches
an expected-order hint.  Where B's relators are A's up to cyclic rotation
or inversion, the groups are equal and one enumeration serves both.

Enumeration is HLT-style over a subgroup H given by words, the trivial
one by default: scan H's words at coset 0, then scan relators, define
cosets to fill gaps, process coincidences through a union-find queue.
With lookahead: once every live row from the current coset up is defined,
each relator is traced from all those cosets at once with numpy.  If every
one closes, the scans left would change nothing, so the enumeration stops
there with exactly the table of plain HLT.  The coset limit is the fixed
constant ``MAX_COSETS``; the total relator length is computed from the word
trees and bounded by it before any relator is expanded.

``CosetTable.live_table`` renumbers the live cosets in ascending order; the
lookahead and the closure check at the end read it, and the table that
ends the enumeration is kept as ``closed``.  A closed table is G's action
on the right cosets of H, so the live-coset count n is |G:H|.

``realize`` makes each convention's group by one search (``_search``).
The cosets of cyclic subgroups bound |G| above, and their actions, which
are quotients of G, bound it below; where the bounds meet, or once the
enumeration over the trivial subgroup gives |G|, a union of those actions
whose closure has order |G| is G, often on far fewer points than the
regular action (c31-c15 acts on the 31 cosets of <b>, and C2000 on
16 + 125 points).  The regular action is kept only where no union of
fewer points is faithful, as in C_p or Q16.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from math import gcd, inf
from typing import Sequence

import numpy as np

from .errors import (
    BudgetError,
    EnumerationInconclusiveError,
    GroupTooLargeError,
    InvariantError,
    PresentationSyntaxError,
)
from .fields import factorize
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, close_generators
from .perms import Perm

# an enumeration that would define more cosets than this is inconclusive;
# read at call time, and it also bounds the total relator length
MAX_COSETS = 1_000_000
# brackets and parentheses may nest at most this deep in one word.  The
# parser and the word-tree walks (_flatten, _length) recurse once or twice
# per level, so the bound keeps them far below Python's recursion limit;
# the bundled and benchmark presentations nest at most 2 deep.
MAX_NESTING = 100

CONVENTIONS = ("A", "B")

# -- word trees ---------------------------------------------------------------

# node shapes: ("gen", i) | ("one",) | ("cat", [nodes]) | ("pow", node, k)
#              | ("comm", node, node)


def _flatten(node, convention: str) -> list[int]:
    kind = node[0]
    if kind == "gen":
        return [node[1] + 1]
    if kind == "one":
        return []
    if kind == "cat":
        out: list[int] = []
        for child in node[1]:
            out.extend(_flatten(child, convention))
        return out
    if kind == "pow":
        base = _flatten(node[1], convention)
        k = node[2]
        if k < 0:
            base = _invert(base)
            k = -k
        return base * k
    if kind == "comm":
        u = _flatten(node[1], convention)
        v = _flatten(node[2], convention)
        if convention == "A":
            return u + v + _invert(u) + _invert(v)
        return _invert(u) + _invert(v) + u + v
    raise InvariantError(f"unknown node {node!r}")


def _length(node) -> int:
    """Letters in ``node`` flattened, before cancellation; the same under
    both conventions."""
    kind = node[0]
    if kind == "gen":
        return 1
    if kind == "one":
        return 0
    if kind == "cat":
        return sum(_length(child) for child in node[1])
    if kind == "pow":
        return _length(node[1]) * abs(node[2])
    if kind == "comm":
        return 2 * (_length(node[1]) + _length(node[2]))
    raise InvariantError(f"unknown node {node!r}")


def _invert(word: list[int]) -> list[int]:
    return [-g for g in reversed(word)]


def _same_closure(u: list[int], v: list[int]) -> bool:
    """Whether v is a cyclic rotation of u or of u^-1, so that the two
    relators have the same normal closure."""
    if len(u) != len(v):
        return False
    needle = "," + "".join(f"{g}," for g in v)
    return any(needle in "," + "".join(f"{g}," for g in w) * 2
               for w in (u, _invert(u)))


def _cancel_adjacent(word: list[int]) -> list[int]:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return out


@dataclass
class Presentation:
    """Generator names and relations; commutators flatten per convention."""

    generators: list[str]
    relations: list[tuple] = field(default_factory=list)  # (lhs, rhs, line)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def check_length(self, max_letters: int) -> None:
        """Raise BudgetError if the flattened relators would hold more than
        ``max_letters`` letters in all, without expanding any of them."""
        total = sum(_length(lhs) + _length(rhs) for lhs, rhs, _ in self.relations)
        if total > max_letters:
            raise BudgetError("relator length bound (letters)", total, max_letters)

    def relators(self, convention: str) -> list[list[int]]:
        """Flattened relators w_lhs * w_rhs^-1 under the given convention."""
        if convention not in CONVENTIONS:
            raise ValueError(f"convention must be A or B, not {convention!r}")
        out = []
        for lhs, rhs, _line in self.relations:
            word = _flatten(lhs, convention) + _invert(_flatten(rhs, convention))
            word = _cancel_adjacent(word)
            if word:
                out.append(word)
        return out


# -- parsing -------------------------------------------------------------------


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; errors carry line and column numbers."""
    lines = text.splitlines()
    gens: list[str] | None = None
    header_line = 0
    for ln, raw in enumerate(lines, start=1):
        if raw.strip():
            header_line = ln
            stripped = raw.strip()
            if not stripped.startswith("gens:"):
                raise PresentationSyntaxError(
                    "first line must be 'gens: <names>'", ln, 1
                )
            names = stripped[len("gens:"):].split()
            if not names:
                raise PresentationSyntaxError("no generators declared", ln, 1)
            seen = set()
            for name in names:
                if not name[0].isalpha() or not all(
                    c.isalnum() or c == "_" for c in name
                ):
                    raise PresentationSyntaxError(
                        f"bad generator name {name!r}", ln, 1
                    )
                if name in seen:
                    raise PresentationSyntaxError(
                        f"duplicate generator {name!r}", ln, 1
                    )
                seen.add(name)
            gens = names
            break
    if gens is None:
        raise PresentationSyntaxError("empty presentation", 1, 1)

    pres = Presentation(generators=gens)
    gen_index = {name: i for i, name in enumerate(gens)}
    for ln in range(header_line + 1, len(lines) + 1):
        raw = lines[ln - 1]
        if not raw.strip():
            continue
        tokens = _tokenize(raw, ln, gen_index)
        parser = _WordParser(tokens, ln, gen_index)
        lhs = parser.parse_word()
        if parser.peek() and parser.peek()[0] == "=":
            parser.advance()
            rhs = parser.parse_word()
        else:
            rhs = ("one",)
        tok = parser.peek()
        if tok is not None:
            raise PresentationSyntaxError(
                f"unexpected {tok[1]!r}", ln, tok[2]
            )
        pres.relations.append((lhs, rhs, ln))
    return pres


def _tokenize(line: str, ln: int, gen_index: dict[str, int]) -> list[tuple]:
    """Tokens: (kind, text, column); identifiers split by longest match."""
    tokens: list[tuple] = []
    i = 0
    maxlen = max(len(g) for g in gen_index)
    while i < len(line):
        ch = line[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in "()[],^=-":
            tokens.append((ch, ch, col))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(line) and line[j].isdigit():
                j += 1
            tokens.append(("int", line[i:j], col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                j += 1
            run = line[i:j]
            k = 0
            while k < len(run):
                for length in range(min(maxlen, len(run) - k), 0, -1):
                    cand = run[k : k + length]
                    if cand in gen_index:
                        tokens.append(("name", cand, col + k))
                        k += length
                        break
                else:
                    raise PresentationSyntaxError(
                        f"unknown generator {run[k:]!r}", ln, col + k
                    )
            i = j
            continue
        raise PresentationSyntaxError(f"bad character {ch!r}", ln, col)
    return tokens


class _WordParser:
    def __init__(self, tokens: list[tuple], line: int, gen_index: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.gen_index = gen_index
        self.depth = 0

    def peek(self) -> tuple | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _err(self, message: str, tok: tuple | None = None):
        col = tok[2] if tok else (self.tokens[-1][2] + 1 if self.tokens else 1)
        raise PresentationSyntaxError(message, self.line, col)

    def parse_word(self):
        parts = []
        while True:
            tok = self.peek()
            if tok is None or tok[0] in ("=", ",", ")", "]"):
                break
            parts.append(self.parse_atom())
        if not parts:
            self._err("empty word", self.peek())
        if len(parts) == 1:
            return parts[0]
        return ("cat", parts)

    def parse_atom(self):
        tok = self.advance()
        kind = tok[0]
        if kind == "name":
            node = ("gen", self.gen_index[tok[1]])
        elif kind == "int":
            if tok[1] != "1":
                self._err(f"unexpected integer {tok[1]!r}", tok)
            node = ("one",)
        elif kind in ("(", "[") and self.depth == MAX_NESTING:
            self._err(f"brackets nested deeper than {MAX_NESTING}", tok)
        elif kind == "(":
            self.depth += 1
            node = self.parse_word()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                self._err("expected ')'", closing)
            self.advance()
            self.depth -= 1
        elif kind == "[":
            self.depth += 1
            u = self.parse_word()
            comma = self.peek()
            if comma is None or comma[0] != ",":
                self._err("expected ',' in commutator", comma)
            self.advance()
            v = self.parse_word()
            closing = self.peek()
            if closing is None or closing[0] != "]":
                self._err("expected ']'", closing)
            self.advance()
            self.depth -= 1
            node = ("comm", u, v)
        else:
            self._err(f"unexpected {tok[1]!r}", tok)
        nxt = self.peek()
        if nxt is not None and nxt[0] == "^":
            self.advance()
            sign = 1
            t = self.peek()
            if t is not None and t[0] == "-":
                sign = -1
                self.advance()
                t = self.peek()
            if t is None or t[0] != "int":
                self._err("expected integer exponent", t)
            self.advance()
            node = ("pow", node, sign * int(t[1]))
        return node


# -- coset enumeration ------------------------------------------------------------


class CosetTable:
    """HLT working state over a subgroup H.

    The table is stored by column: ``cols[c][k]`` is the coset that column c
    sends coset k to, or -1 where that entry is undefined.  Column 2i is
    generator i, column 2i+1 its inverse.  Coset 0 is H itself (the trivial
    subgroup unless ``todd_coxeter`` is given words).  ``p`` is the
    union-find parent list; coset k is live iff ``p[k] == k``.  Columns
    only ever grow in place, so a relator compiled to column lists
    (``compile``) stays valid for the whole run.
    ``closed`` is the ``live_table`` that ``todd_coxeter`` checked at the
    end of its enumeration, None until then.
    """

    def __init__(self, num_generators: int):
        self.cols: list[list[int]] = [[-1] for _ in range(2 * num_generators)]
        self.p: list[int] = [0]
        self.closed: np.ndarray | None = None

    @property
    def table(self) -> list[list[int | None]]:
        """A row per defined coset, ``None`` where undefined (a fresh copy)."""
        return [[None if c[k] < 0 else c[k] for c in self.cols]
                for k in range(len(self.p))]

    @staticmethod
    def column(signed_gen: int) -> int:
        if signed_gen > 0:
            return 2 * (signed_gen - 1)
        return 2 * (-signed_gen - 1) + 1

    def compile(self, word: list[int]) -> tuple[list, list, list[int]]:
        """A relator as (forward column lists, inverse column lists, column
        numbers), one entry per letter."""
        nums = [self.column(g) for g in word]
        return ([self.cols[c] for c in nums], [self.cols[c ^ 1] for c in nums],
                nums)

    def rep(self, k: int) -> int:
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, alpha: int, col: int) -> int:
        beta = len(self.p)
        if beta >= MAX_COSETS:
            raise EnumerationInconclusiveError(MAX_COSETS, beta)
        for c in self.cols:
            c.append(-1)
        self.p.append(beta)
        self.cols[col][alpha] = beta
        self.cols[col ^ 1][beta] = alpha
        return beta

    def _merge(self, a: int, b: int, queue: deque) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        queue.append(b)

    def coincidence(self, alpha: int, beta: int) -> None:
        queue: deque[int] = deque()
        self._merge(alpha, beta, queue)
        pairs = [(c, self.cols[col ^ 1]) for col, c in enumerate(self.cols)]
        rep, merge = self.rep, self._merge
        while queue:
            gamma = queue.popleft()
            for fwd, bwd in pairs:
                delta = fwd[gamma]
                if delta < 0:
                    continue
                bwd[delta] = -1
                mu = rep(gamma)
                nu = rep(delta)
                if fwd[mu] >= 0:
                    merge(nu, fwd[mu], queue)
                elif bwd[nu] >= 0:
                    merge(mu, bwd[nu], queue)
                else:
                    fwd[mu] = nu
                    bwd[nu] = mu

    def scan_and_fill(self, alpha: int, rel: tuple[list, list, list[int]]) -> None:
        """Scan a compiled relator from coset alpha, defining cosets until it
        closes; a deduction or coincidence ends the scan."""
        fwd, bwd, nums = rel
        f, i = alpha, 0
        b, j = alpha, len(nums) - 1
        while True:
            for i in range(i, j + 1):
                nxt = fwd[i][f]
                if nxt < 0:
                    break
                f = nxt
            else:
                if f != b:
                    self.coincidence(f, b)
                return
            for j in range(j, i - 1, -1):
                prv = bwd[j][b]
                if prv < 0:
                    break
                b = prv
            else:
                self.coincidence(f, b)
                return
            if j == i:
                fwd[i][f] = b
                bwd[i][b] = f
                return
            self.define(f, nums[i])

    def live_count(self) -> int:
        return sum(1 for i in range(len(self.p)) if self.p[i] == i)

    def live_table(self) -> tuple[list[int], np.ndarray]:
        """The live cosets, ascending, and the table on them renumbered in
        that order: ``table[c][k]`` is where column c sends the k-th live
        coset.  Raises InvariantError unless every live row is complete and
        points at live cosets."""
        live = [k for k, root in enumerate(self.p) if root == k]
        # one slot past the end, so that an undefined entry (-1) maps to -1
        new_index = np.full(len(self.p) + 1, -1)
        new_index[live] = np.arange(len(live))
        # only the live rows are read: most defined rows may be dead
        table = new_index[np.array([[c[k] for k in live] for c in self.cols])]
        if (table < 0).any():
            raise InvariantError("a live row of the coset table is incomplete "
                                 "or points at a dead coset")
        return live, table


def todd_coxeter(pres: Presentation, convention: str,
                 subgroup: Sequence[list[int]] = ()) -> CosetTable:
    """HLT enumeration of the right cosets of the subgroup H generated by
    the ``subgroup`` words (signed generator numbers, as in ``relators``),
    with lookahead; no words, the default, enumerate over H = {1}.

    Each subgroup word is first scanned from coset 0, the coset H itself,
    which makes it close there for the rest of the run (coincidences only
    merge cosets).  Then each live coset alpha in turn is scanned with every
    relator, then its row is filled by definitions.  A gap pointer, which
    only moves forward, finds the first live coset from alpha up with an
    undefined entry, so the test costs O(cosets x columns) over the whole
    run.  When there is none, every live row is complete (rows below alpha
    were filled in their turn), and each relator is traced from all live
    cosets from alpha up at once, with numpy gathers over the columns.  If
    every (relator, coset) pair closes, the steps left would change nothing
    (a closed scan neither defines nor deduces anything, and no row is left
    to fill), so the loop stops there and the definition order, ``p`` and
    ``cols`` are those of plain HLT.  Otherwise every scan runs as usual, and
    the next lookahead waits until new cosets have been defined.

    Raises BudgetError before expanding any relator if they hold more than
    ``MAX_COSETS`` letters in all.  Returns a closed table, its renumbered
    live table kept as ``closed``: the lookahead that ended the run made
    it, or else a closing ``live_table`` call, which raises InvariantError
    unless the table is closed, and InvariantError unless every subgroup
    word closes at coset 0 of it.  Raises EnumerationInconclusiveError at
    ``MAX_COSETS`` cosets (not a proof of infinitude); total collapse to
    one coset is a valid result: H = G, the trivial group if H = {1}.
    """
    pres.check_length(MAX_COSETS)
    return _enumerate(pres.num_generators, pres.relators(convention), subgroup)


def _enumerate(num_generators: int, relators: list[list[int]],
               subgroup: Sequence[list[int]]) -> CosetTable:
    """``todd_coxeter`` on relators already flattened and bounded."""
    ct = CosetTable(num_generators)
    relators = [ct.compile(word) for word in relators]
    for word in subgroup:
        ct.scan_and_fill(0, ct.compile(word))
    p, cols = ct.p, ct.cols
    traced = 0  # cosets defined at the last lookahead
    gap = 0
    alpha = 0
    while alpha < len(p):
        if p[alpha] == alpha:
            n = len(p)
            gap = max(gap, alpha)
            while gap < n and (p[gap] != gap or min(c[gap] for c in cols) >= 0):
                gap += 1
            if gap == n > traced:
                if _closed_pairs(ct, relators, alpha):
                    break
                traced = n
            for rel in relators:
                ct.scan_and_fill(alpha, rel)
                if p[alpha] != alpha:
                    break
            if p[alpha] == alpha:
                for col, c in enumerate(cols):
                    if c[alpha] < 0:
                        ct.define(alpha, col)
        alpha += 1
    else:  # no lookahead ended the run: check the table here
        ct.closed = ct.live_table()[1]
    for word in subgroup:
        k = 0
        for g in word:
            k = ct.closed[ct.column(g), k]
        if k:
            raise InvariantError("a subgroup word does not close at coset 0 "
                                 "of the closed table")
    return ct


def _closed_pairs(ct: CosetTable, relators: list, start: int) -> bool:
    """Whether every relator closes from every live coset at or above
    ``start``.  Every live row must be complete; the trace runs on the live
    rows alone, renumbered in order, and that table is kept as
    ``ct.closed`` if every relator closes."""
    live, table = ct.live_table()
    starts = np.arange(np.searchsorted(live, start), len(live))
    for _fwd, _bwd, nums in relators:
        ends = starts
        for c in nums:
            ends = table[c].take(ends)
        if (ends != starts).any():
            return False
    ct.closed = table
    return True


@dataclass
class RealizedPresentation:
    """A presentation made concrete, with the convention that produced it."""

    group: FiniteGroup
    convention: str
    orders: dict[str, int | None]
    hint: int | None = None

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def hint_matched(self) -> bool:
        return self.hint is not None and self.order == self.hint


def group_from_table(ct: CosetTable,
                     order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The group presented by a table that ``todd_coxeter`` closed over the
    trivial subgroup, as its right regular action.

    ``ct.closed``, the live table that ``todd_coxeter`` checked, is that
    action: live coset k is the element g_k with 0 . g_k = k, and the column
    of x sends g_k to g_k x.  ``close_generators`` checks the order cap and
    the element-storage budget (order x degree x 4 bytes, the widest cell;
    the rows take 1, 2 or 4 bytes per image) before it builds any row.  The
    action is faithful, so the closure has order n, the live-coset count;
    InvariantError otherwise.
    """
    if ct.closed is None:
        raise InvariantError("the coset table was not closed by todd_coxeter")
    return _close([ct.closed[1::2]], order_cap, ct.closed.shape[1])


def _close(actions: list[np.ndarray], order_cap: int,
           order: int | None = None) -> FiniteGroup:
    """The closure of the generators acting on a disjoint union of coset
    spaces, each given by the inverse columns of its closed table: on right
    cosets x acts as x^-1 does, so that generator -> permutation is a
    homomorphism under the apply-right-first composition.  InvariantError
    unless the closure has ``order`` elements, where that is given."""
    offsets = np.cumsum([0] + [a.shape[1] for a in actions[:-1]])
    rows = np.concatenate([a + o for a, o in zip(actions, offsets)], axis=1)
    G = close_generators([Perm(r) for r in rows.tolist()], order_cap)
    if order is not None and G.order != order:
        raise InvariantError(f"the coset action has order {G.order}, not {order}")
    return G


def _power_exponents(relators: list[list[int]], num_generators: int) -> list[int]:
    """Per generator x, the gcd k of the lengths of the relators x^k and
    x^-k (pure powers of x), so that x^k = 1 in G; 0 where there is none."""
    ks = [0] * num_generators
    for word in relators:
        if len(set(word)) == 1:
            i = abs(word[0]) - 1
            ks[i] = gcd(ks[i], len(word))
    return ks


def _action_order(ct: CosetTable, i: int, e: int) -> int:
    """The order Q of G's action on the n cosets of H = <x_i^e> that ``ct``
    tables.  Its kernel, the core of H, lies in H, so |G| / Q = |H| / d for
    d the order of x_i^e on the cosets, and Q = n d."""
    d = Perm(ct.closed[2 * i].tolist()).order()  # of x_i on the cosets
    return ct.closed.shape[1] * (d // gcd(d, e))


def _search(pres: Presentation, relators: list[list[int]],
            order_cap: int) -> FiniteGroup:
    """G under one convention's flattened ``relators``, on a small faithful
    union of its actions on the cosets of cyclic subgroups.

    First a sandwich.  A generator x with x^k = 1 (``_power_exponents``)
    gives the candidates H = <x^e> for e = 1 and each prime power e || k
    other than k itself, and |H| <= k/e since the order of x divides k.  A
    closed enumeration of the n cosets of H gives |G| = n |H| <= n k/e; B is
    the least of these bounds.  Each coset action is a quotient of G, and so
    is a union of them, so its order Q is at most |G|.  Once some Q = B,
    |G| = Q is proved and that action is faithful: it is G.  A generator
    with no pure-power relator still gives the action on the cosets of <x>,
    which bounds nothing but may join a union (ex_order12's <a>, 3 cosets).
    One action needs no closure to know Q (``_action_order``); a union's Q
    is the order of its closure.

    Every <x> is enumerated first (none where x alone generates G), by
    decreasing bound k on |H| (so by the least index each allows), those
    with no bound last, and each is tried alone.  Then a union adds them
    by increasing index while each raises Q.  The prime powers follow one
    at a time by decreasing k/e, each tried alone and then added to the
    union.  No union of B or more points is closed, and each closure is
    capped at min(order_cap, B).  An inconclusive enumeration, or a closure
    over the order cap or the element-storage budget, ends the sandwich;
    so does a single of B points, as then H = 1.

    That single's table, or else the enumeration over the trivial
    subgroup, is the regular action, and B = |G| = n.  Each generator's
    order is then its order there, so the candidates are <x^e> for e = 1
    and each prime power e || |x|, of index n e/|x| between 1 and n.  By
    increasing index, each enumerated unless it was, the first with Q = n
    is G; else a new union adds them in that order while each raises Q.
    Where no union of fewer than n points is faithful, G is the regular
    action (``group_from_table``), as in C_p and Q16.
    """
    num = pres.num_generators
    ks = _power_exponents(relators, num)
    # (bound on |H|, 0 if none; generator; e) for each candidate H = <x^e>
    firsts = sorted(((k, i, 1) for i, k in enumerate(ks)
                     if k != 1 and num > 1 and max(ks) > 1),
                    key=lambda c: (c[0] == 0, -c[0]))
    powers = sorted(((k // p**v, i, p**v) for i, k in enumerate(ks) if k > 1
                     for p, v in factorize(k) if p**v < k), key=lambda c: -c[0])
    bound = inf
    tried: dict[tuple[int, int], tuple[int, CosetTable]] = {}  # (Q, table) by (i, e)
    union: list[np.ndarray] = []  # the union's actions, as image rows
    joined = 1  # the union's Q
    union_group: FiniteGroup | None = None  # its closure, once it has two
    regular: CosetTable | None = None  # a table over H = 1, once known

    def enumerate_cosets(m: int, i: int, e: int) -> tuple[int, CosetTable]:
        """The order of the action on the cosets of <x_i^e>, and its table."""
        nonlocal bound
        ct = _enumerate(num, relators, [[i + 1] * e])
        if m:
            bound = min(bound, ct.closed.shape[1] * m)
        tried[i, e] = (_action_order(ct, i, e), ct)
        return tried[i, e]

    def extend(order: int, ct: CosetTable) -> None:
        """Add the action to the union if that raises the union's Q."""
        nonlocal joined, union_group
        action = ct.closed[1::2]
        if order == 1 or sum(a.shape[1] for a in union) + action.shape[1] >= bound:
            return
        H = _close(union + [action], min(order_cap, bound)) if union else None
        if H is not None:
            order = H.order
        if order > joined:
            union.append(action)
            joined, union_group = order, H

    def by_index(single: tuple[int, CosetTable]) -> int:
        return single[1].closed.shape[1]

    def proved() -> FiniteGroup | None:
        """G, if a single action (the fewest points first) or the union has
        order B; a single of B points is the regular table, kept instead."""
        nonlocal regular
        for single in sorted(tried.values(), key=by_index):
            if single[0] == bound:
                if by_index(single) == bound:
                    regular = single[1]
                    return None
                return _close([single[1].closed[1::2]], min(order_cap, bound), bound)
        if union_group is not None and union_group.order == bound:
            return union_group
        return None

    def sandwich() -> FiniteGroup | None:
        """G, if the bounds meet before a regular table turns up."""
        for c in firsts:
            enumerate_cosets(*c)
            if (G := proved()) is not None or regular is not None:
                return G
        for single in chain(sorted(tried.values(), key=by_index),
                            (enumerate_cosets(*c) for c in powers)):
            extend(*single)
            if (G := proved()) is not None or regular is not None:
                return G
        return None

    try:
        if (G := sandwich()) is not None:
            return G
    except (EnumerationInconclusiveError, GroupTooLargeError, BudgetError):
        pass
    regular = regular or _enumerate(num, relators, ())
    bound = regular.closed.shape[1]  # |G|
    xs = [Perm(col).order() for col in regular.closed[0::2].tolist()]  # |x_i|
    known = {(i, gcd(e, xs[i])): single for (i, e), single in tried.items()}
    found = []
    for m, i, e in sorted(((m // e, i, e) for i, m in enumerate(xs)
                           for e in [1] + [p**v for p, v in factorize(m)]
                           if 1 < m // e < bound), key=lambda c: -c[0]):
        found.append(known.get((i, e)) or enumerate_cosets(m, i, e))
        if found[-1][0] == bound:  # faithful, on the fewest points of any single
            return _close([found[-1][1].closed[1::2]], order_cap, bound)
    union.clear()
    joined, union_group = 1, None
    for single in found:
        extend(*single)
        if union_group is not None and union_group.order == bound:
            return union_group
    return group_from_table(regular, order_cap)


def realize(
    pres: Presentation,
    convention: str = "auto",
    order_hint: int | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> RealizedPresentation:
    """Realize a presentation as a permutation group on a small faithful
    union of coset spaces.

    The relators are bounded in length and flattened once per convention,
    and ``_search`` makes each convention's group, trusting a closed
    enumeration's count of cosets.

    Convention "A" or "B" realizes that one alone.  With convention "auto",
    both commutator conventions are realized and the one matching
    ``order_hint`` wins (ties go to A); without a hint the larger resulting
    order wins, treating collapse as the sign of a wrong convention.  When
    each of B's relators is the matching one of A's up to cyclic rotation or
    inversion (no bracket changes them, or only as [a,b] = 1 does), the two
    normal closures are equal, so A's result stands for B as well and the
    presentation is realized once.  Raises BudgetError before expanding any
    relator if they hold more than ``MAX_COSETS`` letters in all, and
    EnumerationInconclusiveError if every attempted convention reaches
    ``MAX_COSETS`` cosets over the trivial subgroup.  A group of known order
    over the order cap or the element-storage budget raises under either
    convention, not only the one chosen.
    """
    if convention == "auto":
        conventions = CONVENTIONS
    elif convention in CONVENTIONS:
        conventions = (convention,)
    else:
        raise ValueError(f"convention must be A, B, or auto, not {convention!r}")

    pres.check_length(MAX_COSETS)
    relators = {conv: pres.relators(conv) for conv in conventions}
    same = len(conventions) == 2 and len(relators["A"]) == len(relators["B"]) \
        and all(map(_same_closure, relators["A"], relators["B"]))
    groups: dict[str, FiniteGroup | None] = {}
    defined = 0  # the most cosets an inconclusive enumeration defined
    for conv in conventions:
        try:
            groups[conv] = (groups["A"] if same and conv == "B"
                            else _search(pres, relators[conv], order_cap))
        except EnumerationInconclusiveError as exc:
            groups[conv] = None
            defined = max(defined, exc.defined)
    orders = {c: None if G is None else G.order for c, G in groups.items()}
    conclusive = [c for c in conventions if orders[c] is not None]
    if not conclusive:
        raise EnumerationInconclusiveError(MAX_COSETS, defined)
    chosen = next((c for c in conclusive if orders[c] == order_hint),
                  max(conclusive, key=lambda c: (orders[c], c == "A")))
    return RealizedPresentation(groups[chosen], chosen, orders, order_hint)
