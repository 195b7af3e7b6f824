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

Enumeration is HLT-style over the trivial subgroup: scan relators, define
cosets to fill gaps, process coincidences through a union-find queue.
With lookahead: once every live row from the current coset up is defined,
each relator is traced from all those cosets at once with numpy.  If every
one closes, the scans left would change nothing, so the enumeration stops
there with exactly the table of plain HLT.  The coset limit is the fixed
constant ``MAX_COSETS``; the total relator length is computed from the word
trees and bounded by it before any relator is expanded.

``CosetTable.live_table`` renumbers the live cosets in ascending order; the
lookahead and the closure check at the end read it, and the table that
ends the enumeration is kept for ``group_from_table``.  A closed table
gives the regular representation, so the live-coset count is the group
order; ``group_from_table`` builds the row of the element sending coset 0
to coset k at index k.  That row starts with k, so
``FiniteGroup``, which decides the canonical order, finds the rows already
in it and copies nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetError,
    EnumerationInconclusiveError,
    InvariantError,
    PresentationSyntaxError,
)
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, check_order
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
    """HLT working state over the trivial subgroup.

    The table is stored by column: ``cols[c][k]`` is the coset that column c
    sends coset k to, or -1 where that entry is undefined.  Column 2i is
    generator i, column 2i+1 its inverse.  Coset 0 is the coset of the
    trivial subgroup.  ``p`` is the union-find parent list; coset k is live
    iff ``p[k] == k``.  Columns only ever grow in place, so a relator
    compiled to column lists (``compile``) stays valid for the whole run.
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


def todd_coxeter(pres: Presentation, convention: str) -> CosetTable:
    """HLT enumeration over the trivial subgroup, with lookahead.

    Each live coset alpha in turn is scanned with every relator, then its
    row is filled by definitions.  A gap pointer, which only moves forward,
    finds the first live coset from alpha up with an undefined entry, so
    the test costs O(cosets x columns) over the whole run.  When there is
    none, every live row is complete (rows below alpha were filled in their
    turn), and each relator is traced from all live cosets from alpha up at
    once, with numpy gathers over the columns.  If every (relator, coset)
    pair closes, the steps left would change nothing (a closed scan neither
    defines nor deduces anything, and no row is left to fill), so the loop
    stops there and the definition order, ``p`` and ``cols`` are those of
    plain HLT.  Otherwise every scan runs as usual, and the next lookahead
    waits until new cosets have been defined.

    Raises BudgetError before expanding any relator if they hold more than
    ``MAX_COSETS`` letters in all.  Returns a closed table, its renumbered
    live table kept as ``closed``: the lookahead that ended the run made
    it, or else a closing ``live_table`` call, which raises InvariantError
    unless the table is closed.  Raises EnumerationInconclusiveError at
    ``MAX_COSETS`` cosets (not a proof of infinitude); total collapse to
    one coset is a valid result describing the trivial group.
    """
    pres.check_length(MAX_COSETS)
    ct = CosetTable(pres.num_generators)
    relators = [ct.compile(word) for word in pres.relators(convention)]
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
    """The regular representation that a table closed by ``todd_coxeter``
    gives.

    The generators permute the live cosets, renumbered in ascending order:
    ``ct.closed``, the table that ``todd_coxeter`` checked, so the live
    rows are renumbered once per realization.  The table's coset action is
    a right action, so each generator is read off its inverse column: then
    generator -> permutation is a homomorphism under the apply-right-first
    composition, and relator words multiply to the identity permutation.

    Row k of the element matrix is the element that sends coset 0 to coset
    k.  One walk from coset 0 fills the rows: if row k is the element x and
    a is a generator permutation, then a * x (x applied first) sends 0 to
    a[k], so row a[k] is a[row k].  Every row k starts with k, so
    ``FiniteGroup`` finds them in its canonical order and moves none; there
    is no row set.  The order cap and the element-storage budget (n x n x 4
    bytes) are checked before the matrix is built.
    """
    table = ct.closed
    if table is None:
        raise InvariantError("the coset table was not closed by todd_coxeter")
    n = table.shape[1]
    check_order(n, n, order_cap)
    columns = table[1::2]
    gens = [Perm(c.tolist()) for c in columns]
    perms = [(g.images, c.astype(np.int32)) for g, c in zip(gens, columns)]
    matrix = np.empty((n, n), dtype=np.int32)
    matrix[0] = np.arange(n)
    reached = [0]
    seen = bytearray(n)
    seen[0] = 1
    for k in reached:
        row = matrix[k]
        for images, a in perms:
            j = images[k]
            if not seen[j]:
                seen[j] = 1
                matrix[j] = a.take(row)
                reached.append(j)
    if len(reached) != n:
        raise InvariantError("the walk from coset 0 missed some live cosets")
    return FiniteGroup(gens, matrix)


def realize(
    pres: Presentation,
    convention: str = "auto",
    order_hint: int | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> RealizedPresentation:
    """Realize a presentation as a permutation group.

    Convention "A" or "B" enumerates that one alone.  With convention
    "auto", both commutator conventions are enumerated and the one matching
    ``order_hint`` wins (ties go to A); without a hint the larger resulting
    order wins, treating collapse as the sign of a wrong convention.  When
    each of B's relators is the matching one of A's up to cyclic rotation or
    inversion (no bracket changes them, or only as [a,b] = 1 does), the two
    normal closures are equal, so A's table stands for B as well and the
    presentation is enumerated once.  Raises BudgetError before expanding
    any relator if they hold more than ``MAX_COSETS`` letters in all, and
    EnumerationInconclusiveError if every attempted convention reaches
    ``MAX_COSETS`` cosets.
    """
    if convention == "auto":
        conventions = CONVENTIONS
    elif convention in CONVENTIONS:
        conventions = (convention,)
    else:
        raise ValueError(f"convention must be A, B, or auto, not {convention!r}")

    pres.check_length(MAX_COSETS)
    tables: dict[str, CosetTable | None] = {}
    orders: dict[str, int | None] = {}
    defined = 0  # the most cosets an inconclusive enumeration defined
    rel_a, rel_b = pres.relators("A"), pres.relators("B")
    same = len(rel_a) == len(rel_b) and all(map(_same_closure, rel_a, rel_b))
    for conv in conventions:
        if same and conv != conventions[0]:
            tables[conv], orders[conv] = tables["A"], orders["A"]
            continue
        try:
            ct = todd_coxeter(pres, conv)
            tables[conv] = ct
            orders[conv] = ct.closed.shape[1]  # the live cosets
        except EnumerationInconclusiveError as exc:
            tables[conv] = None
            orders[conv] = None
            defined = max(defined, exc.defined)
    if all(ct is None for ct in tables.values()):
        raise EnumerationInconclusiveError(MAX_COSETS, defined)

    chosen: str | None = None
    if order_hint is not None:
        matching = [c for c in conventions if orders[c] == order_hint]
        if matching:
            chosen = matching[0]
    if chosen is None:
        conclusive = [c for c in conventions if orders[c] is not None]
        chosen = max(conclusive, key=lambda c: (orders[c], c == "A"))
    return RealizedPresentation(
        group=group_from_table(tables[chosen], order_cap),
        convention=chosen,
        orders=orders,
        hint=order_hint,
    )
