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
an expected-order hint.

Enumeration is HLT-style over the trivial subgroup: scan relators, define
cosets to fill gaps, process coincidences through a union-find queue.  A
closed table gives the regular representation, so the live-coset count is
the group order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from .errors import (
    EnumerationInconclusiveError,
    GroupTooLargeError,
    InvariantError,
    PresentationSyntaxError,
)
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, close_generators
from .perms import Perm

DEFAULT_MAX_COSETS = 1_000_000

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


def _invert(word: list[int]) -> list[int]:
    return [-g for g in reversed(word)]


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
        elif kind == "(":
            node = self.parse_word()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                self._err("expected ')'", closing)
            self.advance()
        elif kind == "[":
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
    """

    def __init__(self, num_generators: int, max_cosets: int = DEFAULT_MAX_COSETS):
        self.num_generators = num_generators
        self.ncols = 2 * num_generators
        self.max_cosets = max_cosets
        self.cols: list[list[int]] = [[-1] for _ in range(self.ncols)]
        self.p: list[int] = [0]

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
        if beta >= self.max_cosets:
            raise EnumerationInconclusiveError(self.max_cosets, beta)
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

    def live_cosets(self) -> list[int]:
        return [i for i in range(len(self.p)) if self.p[i] == i]

    def is_closed(self) -> bool:
        p = self.p
        live = self.live_cosets()
        return all(c[i] >= 0 and p[c[i]] == c[i] for c in self.cols for i in live)

    def generator_perms(self) -> list[Perm]:
        """Permutations of the live cosets, renumbered by definition order.

        The table's natural coset action is a right action; the inverse
        column is taken so that generator -> permutation is a homomorphism
        under the apply-right-first composition, and relator words multiply
        to the identity permutation.
        """
        live = self.live_cosets()
        new_index = {c: k for k, c in enumerate(live)}
        perms = []
        for g in range(self.num_generators):
            col = self.cols[2 * g + 1]
            images = [new_index[self.rep(col[c])] for c in live]
            perms.append(Perm(images))
        return perms


def todd_coxeter(
    pres: Presentation,
    convention: str,
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """Relator-scanning enumeration over the trivial subgroup.

    Returns a closed table.  Raises EnumerationInconclusiveError at the
    coset limit (not a proof of infinitude); total collapse to one coset is
    a valid result describing the trivial group.
    """
    ct = CosetTable(pres.num_generators, max_cosets)
    relators = [ct.compile(word) for word in pres.relators(convention)]
    p, cols = ct.p, ct.cols
    alpha = 0
    while alpha < len(p):
        if p[alpha] == alpha:
            for rel in relators:
                ct.scan_and_fill(alpha, rel)
                if p[alpha] != alpha:
                    break
            if p[alpha] == alpha:
                for col, c in enumerate(cols):
                    if c[alpha] < 0:
                        ct.define(alpha, col)
        alpha += 1
    if not ct.is_closed():
        raise InvariantError("coset table is not closed after enumeration")
    return ct


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
    n = ct.live_count()
    if n > order_cap:
        raise GroupTooLargeError(order_cap, n)
    G = close_generators(ct.generator_perms(), order_cap)
    if G.order != n:
        raise InvariantError("coset action order differs from live-coset count")
    return G


def realize(
    pres: Presentation,
    convention: str = "auto",
    order_hint: int | None = None,
    max_cosets: int = DEFAULT_MAX_COSETS,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> RealizedPresentation:
    """Realize a presentation as a permutation group.

    With convention "auto", both commutator conventions are enumerated and
    the one matching ``order_hint`` wins (ties go to A); without a hint the
    larger resulting order wins, treating collapse as the sign of a wrong
    convention.  When the two conventions give the same relators (no
    bracket changes them), A's table stands for B as well, so the
    presentation is enumerated once.  Raises if every attempted convention
    is inconclusive.
    """
    if convention in CONVENTIONS:
        ct = todd_coxeter(pres, convention, max_cosets)
        return RealizedPresentation(
            group=group_from_table(ct, order_cap),
            convention=convention,
            orders={convention: ct.live_count()},
            hint=order_hint,
        )
    if convention != "auto":
        raise ValueError(f"convention must be A, B, or auto, not {convention!r}")

    tables: dict[str, CosetTable | None] = {}
    orders: dict[str, int | None] = {}
    same = pres.relators("A") == pres.relators("B")
    for conv in CONVENTIONS:
        if same and conv != "A":
            tables[conv], orders[conv] = tables["A"], orders["A"]
            continue
        try:
            ct = todd_coxeter(pres, conv, max_cosets)
            tables[conv] = ct
            orders[conv] = ct.live_count()
        except EnumerationInconclusiveError:
            tables[conv] = None
            orders[conv] = None
    if all(ct is None for ct in tables.values()):
        raise EnumerationInconclusiveError(max_cosets, 0)

    chosen: str | None = None
    if order_hint is not None:
        matching = [c for c in CONVENTIONS if orders[c] == order_hint]
        if matching:
            chosen = matching[0]
    if chosen is None:
        defined = [c for c in CONVENTIONS if orders[c] is not None]
        chosen = max(defined, key=lambda c: (orders[c], c == "A"))
    return RealizedPresentation(
        group=group_from_table(tables[chosen], order_cap),
        convention=chosen,
        orders=orders,
        hint=order_hint,
    )
