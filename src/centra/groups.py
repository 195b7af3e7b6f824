"""Enumerated finite permutation groups and subgroup handles.

A FiniteGroup holds its elements as one C-contiguous matrix ``matrix``:
row i is the image tuple of element i.  Rows are sorted lexicographically,
so two constructions of the same group index elements identically (the
identity is index 0) and subgroups can be stored as bit-sets over those
indices.  Each image takes the narrowest cell that holds every point
(``_cell``): uint8 up to degree 256, uint16 up to 65 536, else int32.  The
stabilizer chain makes every row in that cell, so no wider copy of the
matrix exists, and arithmetic on cell values (flat offsets, shifted points)
runs in intp, since a narrow cell plus a Python int wraps silently.  What
does not hold points stays wide: index maps, inverses and the lookup table
are int32, keys int64.

``close_generators`` learns |G| before it makes any row of G.  A
deterministic Schreier-Sims algorithm (Sims 1970; Holt, Eick and O'Brien,
Handbook of Computational Group Theory, ch. 4.4) builds a stabilizer chain
G = G_0 >= G_1 >= ... >= G_k = 1, where G_{l+1} fixes the base points
b_0 .. b_l, with a transversal U_l of G_{l+1} in G_l: one element u_p
sending b_l to p for each point p of the orbit O_l of b_l under G_l.  Each
element of G is one product u_0 u_1 ... u_{k-1} with u_l in U_l (sift it:
its image of b_0 picks u_0, and u_0^-1 g lies in G_1), and two such products
differ, since the first level where they differ tells them apart by the
image of that base point.  So |G| is the product of the orbit lengths.
While the chain is incomplete its orbits are orbits of subgroups of the
G_l, and its products are still distinct elements of G, so the product of
the orbit lengths so far bounds |G| from below.  That partial product is
checked against the order cap and the element-storage budget before any
transversal is allocated, and G is then enumerated as the products of the
transversals, one numpy gather per level.

Elements are found by their images on a base B: points b_1 < ... < b_k whose
pointwise stabilizer is trivial (Sims' stabilizer chain; Holt, Eick and
O'Brien, Handbook of Computational Group Theory, ch. 4), picked greedily as
the first point moved by the stabilizer of the points before it.  Two
distinct elements first differ at a base point, so their base images order
them as their rows do.  ``FiniteGroup`` alone decides that order: it takes
rows in any order, computes the greedy base once, and keys each row by its
base images read as digits base ``degree``, an int64 (big-endian void bytes
only when degree^k reaches 2^63).  It sorts the rows by that key, copying
nothing when they already come in order (one-level chains, coset tables,
induced subgroups), and the same sorted keys fill the lookup: a dense int32
table from key to index when the table is at most a few times the size of
the matrix, else the keys themselves, binary-searched.  Every
index-level operation (products, conjugates, right-multiplication columns,
commute masks) computes only the base images of its results with numpy and
finds them in one lookup.  One kernel, ``conjugates(xs, gs)``, computes
every g^-1 * x * g (class maps, W-orbits, normalizers, Sylow subgroups),
reading g^-1 as the row of the inverse that the walk of <g> recorded, a
block of at most ``_BLOCK`` entries per lookup; commute masks work one base
point at a time, so neither makes a |G| x |B| temporary.
Closures and orbits are one Python walk, ``_walk``, over index maps
(``col[x]`` = image of element x), each the lookup result kept as a flat
int32 buffer (a ``memoryview``, 4 bytes per entry, whose items index as
Python ints): a subgroup is the walk from the identity over its seeds'
right-multiplication columns; conjugacy classes and normal closures walk
one conjugation map per generator of G, the classes one at a time, each
with its size (an abelian group needs no map).
``Perm`` objects are made only at the boundary, one index at a time with
``element(i)``; ``elements`` is a lazily cached tuple of all of them.
A group keeps only its right-multiplication columns and the per-element
cyclic facts (order, cyclic mask, least generator, inverse); centers,
centralizers and conjugacy classes are computed again on each call.  Each
cyclic subgroup is walked only when an order, cyclic mask, least generator
or inverse (every inverse comes from this walk) of one of its elements is
first asked for, so a scan that reads a few centralizers walks only their
cyclic subgroups and those of G's generators.  x^m is the identity iff it
fixes B, so a walk finds the order of x as the lcm of the cycle lengths of
the base points, and all its powers from their base images in one lookup.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import islice
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BudgetError,
    DegreeMismatchError,
    GroupTooLargeError,
    InvariantError,
)
from .perms import Perm

DEFAULT_ORDER_CAP = 200_000
# bytes an element matrix may take, counted in the widest cell (elements x
# degree x 4) although its cells take 1, 2 or 4 bytes (``_cell``), so that
# narrow cells admit no larger group.  The largest matrix that the corpus,
# the bundled manifest and the benchmark build is psl2:31's in the
# benchmark, 0.48 MB in 1-byte cells (1.9 MB counted); the manifest's
# semidirect product of order 1029 acts on 346 points, 0.71 MB in 2-byte
# cells (1.4 MB counted).  256 MiB leaves over 100 times that, and admits
# regular representations up to order 8192.
ELEMENT_STORAGE_BUDGET = 1 << 28
# keys are looked up in a dense int32 table while it has at most this many
# times the entries of the element matrix, else by binary search on the
# sorted base images.  Measured on sym:8, alt:8 and psl3:3, the table finds
# a column of keys 4-10x faster than the search; the cap only bounds its
# size, and admits psl3:3 (5.1x) and sym:8 (6.5x).
_TABLE_PER_MATRIX = 8
# the stabilizer chain builds transversal layers and tests Schreier
# generators in numpy blocks of at most this many entries (rows x degree).
# A block's temporaries then take about 0.3 MB; 1 << 16 raised the peak of
# small groups (q:256 0.66 -> 1.2 MB under tracemalloc) with no measurable
# gain in time, and 1 << 12 slowed the order-1029 group of the manifest by
# 70%.  ``conjugates`` uses the same blocks (conjugators x elements x base
# points): one block for a whole map of alt:9 raised `check-x alt:9` 70->87 MB.
_BLOCK = 1 << 14
# a chain level whose transversal holds at most this many entries (orbit x
# degree) works on Python lists, one row at a time; a larger one in numpy
# blocks.  Each numpy call costs a few microseconds, so the many small
# levels of small groups run 2-4 times faster on lists.  Over the 351
# closures of a manifest pass, limits from 256 to 2048 gave the same total
# within noise; numpy alone (0) was 20-30% slower.
_LIST_LEVEL = 1024


def close_generators(
    gens: Sequence[Perm], order_cap: int = DEFAULT_ORDER_CAP
) -> "FiniteGroup":
    """Enumerate the group generated by ``gens``.

    Builds a stabilizer chain (``_Chain``) whose orbit lengths multiply to
    |G|, and while it grows to a lower bound on |G| (see the module
    docstring).  Before each transversal is allocated, and before G is
    enumerated, that product is checked against ``order_cap``
    (GroupTooLargeError) and, times ``degree`` x 4 bytes, against
    ``ELEMENT_STORAGE_BUDGET`` (BudgetError); the rows themselves take 1, 2
    or 4 bytes per image (``_cell``), at most that.  G is then the set of
    products of one element from each transversal, each made once, with one
    numpy gather per level; ``FiniteGroup`` puts them in the canonical
    order, so any generating set of the same group indexes the elements
    identically.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator is required")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError(
                f"generator degrees differ: {g.degree} vs {degree}"
            )
    return FiniteGroup(gens, _Chain(gens, order_cap).elements())


def check_order(order: int, degree: int, order_cap: int) -> None:
    """Refuse a group of ``order`` elements of ``degree`` points before its
    rows are built: GroupTooLargeError above ``order_cap``, BudgetError if
    its element matrix, counted in the widest cell (order x degree x 4
    bytes), exceeds the budget.  The matrix takes 1, 2 or 4 bytes per cell
    (``_cell``), so this bounds it from above and admits no larger group."""
    if order > order_cap:
        raise GroupTooLargeError(order_cap, order)
    if 4 * order * degree > ELEMENT_STORAGE_BUDGET:
        raise BudgetError("element storage budget (bytes)", 4 * order * degree,
                          ELEMENT_STORAGE_BUDGET)


class _Level:
    """One level of a stabilizer chain: a base point b, the indices of its
    strong generators (each fixes the base points above b), the orbit of b
    under them and its transversal, whose r-th row is an element of the
    level's group sending b to the r-th least orbit point: Python lists in
    ``rows``, or a numpy array ``U`` of the chain's cells if it holds more
    than ``_LIST_LEVEL`` entries.  ``pairs`` is None while the generators
    have changed since the orbit was made."""

    __slots__ = ("point", "gens", "size", "where", "pos", "U", "rows",
                 "inverse", "inverse_rows", "pairs", "tested")

    def __init__(self, point: int):
        self.point, self.gens, self.size, self.pairs = point, [], 1, None


class _Chain:
    """A stabilizer chain of the group generated by some permutations, built
    by the deterministic Schreier-Sims algorithm.

    A level with a list transversal tests its Schreier generators one at a
    time; a level with a numpy transversal tests them in blocks.  Either way
    the few that are not already the identity are sifted one at a time, as
    lists, by ``_sift_row``.  Every numpy row it makes (the strong generators
    ``S``, the transversals, their inverses and the elements of G) is in
    the cell of its degree, ``cell``; the flat offsets that index them are
    intp, as numpy makes arrays of Python ints.
    """

    def __init__(self, gens: Sequence[Perm], order_cap: int):
        d = self.degree = gens[0].degree
        self.order_cap = order_cap
        self.cell = _cell(d)
        self.identity = list(range(d))
        self.images: list[list[int]] = []   # per strong generator
        self.S = np.empty((0, d), dtype=self.cell)
        self.levels: list[_Level] = []
        # the generator moving the least point founds the first level
        for h in sorted((list(g.images) for g in gens), key=_first_moved):
            if h != self.identity:
                moved = (i for i, L in enumerate(self.levels) if h[L.point] != L.point)
                self._add(h, 0, next(moved, len(self.levels)))
        # each level is complete once every level below it is: from the
        # deepest level up, the first Schreier generator that does not sift
        # to the identity becomes a strong generator, and the search goes
        # on from the level where it dropped out
        level = len(self.levels) - 1
        while level >= 0:
            if self.levels[level].pairs is None:
                self._orbit(self.levels[level])
            found = self._residue(level)
            if found is None:
                level -= 1
            else:
                h, drop = found
                self._add(h, level + 1, drop)
                level = drop
        # only sifting reads the inverses: free them before G is enumerated
        for L in self.levels:
            L.inverse = L.inverse_rows = None

    def _add(self, h: list[int], top: int, drop: int) -> None:
        """Make ``h`` a strong generator of levels top .. drop; it fixes
        every base point above ``drop``, which is a new level if it is the
        length of the base."""
        self.images.append(h)
        if drop == len(self.levels):
            self.levels.append(_Level(_first_moved(h)))
        for L in self.levels[top : drop + 1]:
            L.gens.append(len(self.images) - 1)
            L.pairs = None

    def _orbit(self, L: _Level) -> None:
        """Compute the orbit of the level's base point breadth-first over
        the generators' image lists, then its transversal along the Schreier
        tree (u_q = s * u_p for the tree edge q = s(p)): row by row as lists,
        or with one numpy gather per layer of the tree.  Every (generator,
        point) pair that is not a tree edge is kept for ``_residue``."""
        d = self.degree
        images = [(g, self.images[g]) for g in L.gens]
        where = [-1] * d
        where[L.point] = 0
        orbit, tree, pairs, layers = [L.point], [], [], [1]
        lo = 0
        while lo < len(orbit):
            hi = len(orbit)
            for p in orbit[lo:hi]:
                for g, img in images:
                    q = img[p]
                    if where[q] < 0:
                        where[q] = 0
                        orbit.append(q)
                        tree.append((g, p))
                    else:
                        pairs.append((g, p, q))
            layers.append(len(orbit))
            lo = hi
        # the product of the orbit lengths counts distinct elements of G
        # (products of transversal rows differ on the base), so it bounds
        # |G| from below
        L.size = len(orbit)
        check_order(prod(M.size for M in self.levels), d, self.order_cap)
        for r, p in enumerate(sorted(orbit)):
            where[p] = r
        L.where, L.pos, L.pairs, L.tested = where, np.array(where), pairs, 0
        L.inverse, L.inverse_rows = None, [None] * len(orbit)
        if len(orbit) * d <= _LIST_LEVEL:
            rows = L.rows = [None] * len(orbit)
            rows[where[L.point]] = self.identity
            for (g, p), q in zip(tree, orbit[1:]):
                s = self.images[g]
                rows[where[q]] = [s[x] for x in rows[where[p]]]
            return
        S = self._stacked().reshape(-1)
        L.rows, U = None, np.empty((len(orbit), d), dtype=self.cell)
        U[where[L.point]] = self.identity
        edges = np.array(tree).reshape(-1, 2)
        via, at, to = edges[:, :1] * d, L.pos[edges[:, 1]], L.pos[orbit[1:]]
        step = max(1, _BLOCK // d)
        for a, z in zip(layers, layers[1:-1]):
            if z - a == 1:
                (g, p), q = tree[a - 1], orbit[a]
                U[where[q]] = self.S[g].take(U[where[p]])
                continue
            # tree edges a-1 .. z-2 give the layer's rows, in blocks
            for lo in range(a - 1, z - 1, step):
                e = slice(lo, min(lo + step, z - 1))
                U[to[e]] = S.take(via[e] + U[at[e]])
        L.U = U

    def _stacked(self) -> np.ndarray:
        """The strong generators as numpy rows."""
        if len(self.S) < len(self.images):
            self.S = np.array(self.images, dtype=self.cell)
        return self.S

    def _inverse(self, L: _Level) -> np.ndarray:
        """The inverses of the level's transversal rows, made on first use
        (a group whose Schreier generators are all trivial never needs
        them)."""
        if L.inverse is None:
            U = self._rows(L)
            n, d = U.shape
            L.inverse = np.empty_like(U)
            at = np.arange(0, n * d, d, dtype=np.intp)[:, None]
            L.inverse.reshape(-1)[U + at] = np.arange(d, dtype=self.cell)
        return L.inverse

    def _transversal_inverse(self, L: _Level, r: int) -> list[int]:
        """The inverse of the level's r-th transversal row, as a list."""
        inv = L.inverse_rows[r]
        if inv is None:
            if L.rows is None:
                inv = self._inverse(L)[r].tolist()
            else:
                inv = [0] * self.degree
                for i, x in enumerate(L.rows[r]):
                    inv[x] = i
            L.inverse_rows[r] = inv
        return inv

    def _residue(self, level: int) -> tuple[list[int], int] | None:
        """The first Schreier generator u_q^-1 * s * u_p (q = s(p)) of the
        level, in the order of its pairs, that does not sift to the identity
        through the levels below: its residue and the level where it dropped
        out.  None once every pair sifts to the identity.  Only the pairs
        with s * u_p != u_q can give anything but the identity."""
        L, d = self.levels[level], self.degree
        if L.rows is not None:
            rows, where = L.rows, L.where
            for k in range(L.tested, len(L.pairs)):
                g, p, q = L.pairs[k]
                s = self.images[g]
                x = [s[y] for y in rows[where[p]]]
                if x != rows[where[q]]:
                    w = self._transversal_inverse(L, where[q])
                    found = self._sift_row([w[y] for y in x], level + 1)
                    if found is not None:
                        L.tested = k + 1
                        return found
        else:
            S, U = self._stacked().reshape(-1), L.U
            step = max(1, _BLOCK // d)
            for lo in range(L.tested, len(L.pairs), step):
                c = np.array(L.pairs[lo : lo + step])
                X = S.take(c[:, :1] * d + U[L.pos[c[:, 1]]])
                q = L.pos[c[:, 2]]
                bad = np.flatnonzero((X != U[q]).any(axis=1))
                if len(bad):
                    inverse = self._inverse(L).reshape(-1)
                    H = inverse.take(q[bad, None] * d + X[bad]).tolist()
                    for k, h in zip(bad.tolist(), H):
                        found = self._sift_row(h, level + 1)
                        if found is not None:
                            L.tested = lo + k + 1
                            return found
        # a generator that sifted to the identity stays in the group below
        L.tested = len(L.pairs)
        return None

    def _sift_row(self, h: list[int], top: int) -> tuple[list[int], int] | None:
        """Sift one element (fixing the base points above ``top``) through
        levels top ..: h <- u_p^-1 * h for p = h(b), until some h(b) is not
        in b's orbit.  The residue and the level it dropped out at, or None
        if it sifts to the identity."""
        for level in range(top, len(self.levels)):
            L = self.levels[level]
            r = L.where[h[L.point]]
            if r < 0:
                return h, level
            w = self._transversal_inverse(L, r)
            h = [w[x] for x in h]
        return None if h == self.identity else (h, len(self.levels))

    def elements(self) -> np.ndarray:
        """Every element once: the products u_0 * u_1 * ... of one row from
        each transversal, built from the deepest level up with one gather per
        level.  Rows come out grouped by their image of the first base point,
        ascending, so a one-level chain gives them in canonical order."""
        check_order(prod(L.size for L in self.levels), self.degree, self.order_cap)
        if not self.levels:
            return np.array([self.identity], dtype=self.cell)
        E = self._rows(self.levels[-1])
        for L in reversed(self.levels[:-1]):
            E = self._rows(L).take(E, axis=1).reshape(-1, self.degree)
        return E

    def _rows(self, L: _Level) -> np.ndarray:
        """A level's transversal as a numpy array of the chain's cells."""
        return L.U if L.rows is None else np.array(L.rows, dtype=self.cell)


def _cell(degree: int) -> type:
    """The narrowest cell that holds every point of ``degree`` points, the
    type of every element row: uint8 up to 256 points, uint16 up to 65 536,
    else int32."""
    if degree <= 1 << 8:
        return np.uint8
    return np.uint16 if degree <= 1 << 16 else np.int32


def _first_moved(images: list[int]) -> int:
    """The least point a permutation moves (its degree if it is the
    identity)."""
    return next((i for i, x in enumerate(images) if i != x), len(images))


class FiniteGroup:
    """A fully enumerated permutation group with canonical element indexing."""

    def __init__(self, generators: Sequence[Perm], rows: np.ndarray):
        """``rows``: one image row per element of the group, in any order.

        This is the one place the canonical order is decided: the greedy
        base is computed once, each row is keyed by its base images
        (``_key``), the rows are sorted by key (with no copy when they come
        in order) and the sorted keys fill the lookup of ``_find``: a dense
        table from key to index, or the keys themselves, binary-searched.
        Rows that repeat, or lack the identity, raise InvariantError.
        """
        self.generators = tuple(generators)
        matrix = np.ascontiguousarray(rows, dtype=_cell(np.shape(rows)[1]))
        self.base = _greedy_base(matrix)
        n, d, k = *matrix.shape, len(self.base)
        self._weights = (d ** np.arange(k - 1, -1, -1, dtype=np.int64)
                         if d**k < 2**63 else None)
        keys = self._key(matrix[:, self.base])
        by_key = np.argsort(keys)
        if (by_key[1:] < by_key[:-1]).any():
            matrix, keys = matrix.take(by_key, axis=0), keys[by_key]
        if (keys[1:] == keys[:-1]).any():
            raise InvariantError("rows must be distinct elements of one group")
        self.matrix = matrix
        self.matrix.flags.writeable = False
        # identity is lexicographically least among permutations, so index 0
        if not np.array_equal(self.matrix[0], np.arange(d)):
            raise InvariantError("the identity must sort to index 0")
        self._table = self._keys = None
        if d**k <= _TABLE_PER_MATRIX * n * d:
            self._table = np.full(d**k, -1, dtype=np.int32)
            self._table[keys] = np.arange(n, dtype=np.int32)
        else:
            self._keys = keys
        # per element: order, bit-set of <i>, its least generator and its
        # inverse, filled by _walk_cyclic on demand (an order or mask of 0 is
        # not yet known; the inverse is known once the order is).  The
        # inverses are an int32 buffer, like an index map: 4 bytes per entry
        self._orders = [1] + [0] * (self.order - 1)
        self._masks = [1] + [0] * (self.order - 1)
        self._reps = [0] * self.order
        self._inverses = memoryview(np.zeros(self.order, dtype=np.int32))
        self._columns: dict[int, memoryview] = {}

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    @property
    def degree(self) -> int:
        return self.matrix.shape[1]

    def element(self, i: int) -> Perm:
        """The Perm of element index i, made on demand."""
        return Perm._unchecked(tuple(self.matrix[i].tolist()))

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """Every element as a Perm, made on first use and kept."""
        return tuple(self.element(i) for i in range(self.order))

    def __len__(self) -> int:
        return self.order

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, p: Perm) -> bool:
        try:
            self.index_of(p)
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order} degree={self.degree}>"

    def index_of(self, p: Perm) -> int:
        """Index of ``p``; the key lookup is confirmed on the full row, since
        a permutation outside the group may share a member's base images."""
        if isinstance(p, Perm) and p.degree == self.degree:
            row = np.array(p.images, dtype=np.int32)
            i = int(self._find(row[self.base]))
            if 0 <= i < self.order and np.array_equal(self.matrix[i], row):
                return i
        raise ValueError(f"{p!r} is not an element of this group")

    def generator_indices(self) -> list[int]:
        return [self.index_of(g) for g in self.generators]

    def _indices(self, items) -> list[int]:
        """Element indices of ``items``, each a Perm or an index."""
        return [self.index_of(s) if isinstance(s, Perm) else int(s) for s in items]

    # -- index-level arithmetic -----------------------------------------

    def _key(self, images) -> np.ndarray:
        """One key per row of base images (an int array of shape (..., |B|)),
        ordered as the rows: the images read as digits base ``degree``, or,
        when those overflow an int64, their big-endian bytes."""
        if self._weights is None:
            rows = np.ascontiguousarray(images, dtype=">i4")
            return rows.view(f"V{4 * rows.shape[-1]}")[..., 0]
        return np.asarray(images) @ self._weights

    def _find(self, images) -> np.ndarray:
        """Indices of the elements with the given base images, an int array
        of shape (..., |B|) whose rows are base images of group elements.

        ``index_of`` also passes images of non-members: then the result is
        -1 (no table entry), ``order`` (beyond every key) or another
        element's index, and ``index_of`` checks it against the full row."""
        if self._table is None:
            return np.searchsorted(self._keys, self._key(images))
        return self._table[self._key(images)]

    def right_mult_column(self, j: int) -> memoryview:
        """column[x] = index of elements[x] * elements[j]; cached per j."""
        col = self._columns.get(j)
        if col is None:
            E = self.matrix
            # (x * e_j)[b] = x[e_j[b]]
            col = self._columns[j] = _index_map(self._find(E[:, E[j, self.base]]))
        return col

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (j applied first)."""
        E = self.matrix
        return int(self._find(E[i, E[j, self.base]]))

    def inv(self, i: int) -> int:
        """Index of elements[i]^-1, recorded by the walk of <i>."""
        if not self._orders[i]:
            self._walk_cyclic(i)
        return self._inverses[i]

    def conjugates(self, xs: Sequence[int], gs: Sequence[int]) -> np.ndarray:
        """out[j, i] = index of g_j^-1 * x_i * g_j for the indices x_i in
        ``xs`` and g_j in ``gs`` (sequences or int arrays), as int32.

        g^-1 is the matrix row at ``_inverses[g]``, walking <g> first if need
        be, and (g^-1 * x * g)[b] = g^-1[x[g[b]]] is read from the flat matrix;
        each block of at most _BLOCK entries is found in one lookup."""
        E, d, k = self.matrix, self.degree, max(1, len(self.base))
        xs = np.asarray(xs, dtype=np.intp)
        gs = np.asarray(gs, dtype=np.intp)
        inverses = np.asarray(self._inverses)
        for g in gs[inverses.take(gs) == 0].tolist():
            if not self._orders[g]:
                self._walk_cyclic(g)
        inverse_at = inverses.take(gs).astype(np.intp)[:, None, None] * d
        # images in (conjugator, element, base point) order, so that each
        # block's base images are contiguous rows for the lookup
        gb = E.take(gs[:, None, None] * d + self.base)
        at, flat = xs[:, None] * d, E.reshape(-1)
        out = np.empty((len(gs), len(xs)), dtype=np.int32)
        xstep = max(1, min(len(xs), _BLOCK // k))
        gstep = max(1, _BLOCK // (k * xstep))
        for g in range(0, len(gs), gstep):
            rows = slice(g, g + gstep)
            for x in range(0, len(xs), xstep):
                cols = slice(x, x + xstep)
                images = flat.take(inverse_at[rows] + flat.take(gb[rows] + at[cols]))
                out[rows, cols] = self._find(images)
        return out

    def power(self, i: int, k: int) -> int:
        """Index of elements[i]**k."""
        if k < 0:
            return self.power(self.inv(i), -k)
        acc, base = 0, i
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def element_orders(self) -> list[int]:
        return self._walk_all(self._orders)

    def element_order(self, g: Perm | int) -> int:
        """Least k >= 1 with g^k = identity; g must lie in the group."""
        if isinstance(g, Perm):
            g = self.index_of(g)
        if not self._orders[g]:
            self._walk_cyclic(g)
        return self._orders[g]

    @cached_property
    def is_abelian(self) -> bool:
        # each distinct generator once: a direct product of many trivial
        # factors has a generator per factor, nearly all the identity
        gens = sorted(set(self.generator_indices()) - {0})
        return all(
            self.mul(a, b) == self.mul(b, a) for a in gens for b in gens
        )

    # -- bit-set helpers -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def mask_of(self, indices: Iterable[int]) -> int:
        m = 0
        for i in indices:
            m |= 1 << i
        return m

    @staticmethod
    def mask_indices(mask: int) -> list[int]:
        """Ascending indices of the set bits of ``mask``."""
        raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return np.flatnonzero(bits).tolist()

    def closure_mask(self, seed: Iterable[int]) -> int:
        """Bit-set of the subgroup generated by the seed element indices:
        the walk from the identity under right multiplication by each seed."""
        seed = list(seed)
        cols = [self.right_mult_column(g) for g in seed]
        return self.mask_of(_walk(cols, [0, *seed], bytearray(self.order)))

    def cyclic_masks(self) -> list[int]:
        """For each element index i, the bit-set of <elements[i]>."""
        return self._walk_all(self._masks)

    def cyclic_reps(self) -> list[int]:
        """cyclic_reps()[i] = least j with <elements[j]> == <elements[i]>."""
        self._walk_all(self._masks)
        return self._reps

    def cyclic_mask(self, i: int) -> int:
        """Bit-set of <elements[i]>."""
        if not self._masks[i]:
            self._walk_cyclic(i)
        return self._masks[i]

    def cyclic_rep(self, i: int) -> int:
        """Least j with <elements[j]> == <elements[i]>."""
        if not self._masks[i]:
            self._walk_cyclic(i)
        return self._reps[i]

    def _walk_all(self, known: list[int]) -> list[int]:
        """Walk <i> for every i, ascending, with ``known[i]`` still 0."""
        for i in range(self.order):
            if not known[i]:
                self._walk_cyclic(i)
        return known

    def _walk_cyclic(self, i: int) -> None:
        """Walk the cyclic subgroup <i> (i not the identity): fill the order
        and inverse of each of its elements, and the mask and least generator
        of each generator of <i>.  In <i> of order k the power i^e has order
        k / gcd(e, k), inverse i^(k-e), and generates <i> iff gcd(e, k) = 1.
        """
        # i^e is the identity iff it fixes every base point, so the order k
        # of i is the lcm of the base points' cycle lengths, and i^e maps b
        # to the point e steps along b's cycle
        # (a memoryview of the row indexes as Python ints, made in O(1))
        row, cycles = memoryview(self.matrix[i]), []
        for b in self.base.tolist():
            cycle = [b]
            c = row[b]
            while c != b:
                cycle.append(c)
                c = row[c]
            cycles.append(cycle)
        k = lcm(*map(len, cycles))
        images = np.array([c * (k // len(c)) for c in cycles]).T
        powers = self._find(images).tolist()
        orders, inverses, gens = self._orders, self._inverses, []
        for e, p in enumerate(powers):
            g = gcd(e, k)
            orders[p], inverses[p] = k // g, powers[-e]
            if g == 1:
                gens.append(p)
        m, least = self.mask_of(powers), min(gens)
        for p in gens:
            self._masks[p], self._reps[p] = m, least

    # -- centralizers ------------------------------------------------------

    def commute_mask(self, i: int) -> int:
        """Bit-set of all elements commuting with elements[i]."""
        E, z = self.matrix, self.matrix[i]
        # z * g and g * z are elements, so they are equal iff they agree on
        # the base: z[g[b]] against g[z[b]], one base point at a time
        flags = np.ones(self.order, dtype=bool)
        for b, zb in zip(self.base.tolist(), z[self.base].tolist()):
            flags &= z.take(E[:, b]) == E[:, zb]
        packed = np.packbits(flags, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def centralizer_mask(self, indices: Iterable[int]) -> int:
        mask = self.full_mask
        for i in indices:
            mask &= self.commute_mask(i)
            if mask == 1:
                break
        return mask

    def centralizer(self, subset) -> "SubgroupRef":
        """Centralizer of a set of elements (Perms, indices, or a SubgroupRef).

        For a SubgroupRef it suffices to test against a generating set of the
        subgroup; the result is the same subgroup of commuting elements.
        """
        if isinstance(subset, SubgroupRef):
            indices = subset.generating_set()
        else:
            indices = self._indices(subset)
        return SubgroupRef(self, self.centralizer_mask(indices))

    def center(self) -> "SubgroupRef":
        return self.centralizer(self.generators)

    # -- conjugacy ---------------------------------------------------------

    def _conjugation_maps(self) -> list[memoryview]:
        """map[x] = index of g^-1 * x * g, one map per generator g of G."""
        maps = self.conjugates(np.arange(self.order), self.generator_indices())
        return list(map(_index_map, maps))

    def conjugacy_classes(self) -> list[list[int]]:
        """Orbits of conjugation, each sorted, listed by least representative."""
        maps = self._conjugation_maps()
        seen = bytearray(self.order)
        return [
            sorted(_walk(maps, [x], seen))
            for x in range(self.order)
            if not seen[x]
        ]

    def class_representatives(self) -> Iterator[tuple[int, int]]:
        """(least element, size) of each conjugacy class, ascending, each
        yielded as soon as its class is walked: a caller that stops early
        walks only the classes up to the one it stops at.  Every class of an
        abelian group is one element, so it yields (x, 1) for each x and
        builds no conjugation map."""
        if self.is_abelian:
            yield from zip(range(self.order), [1] * self.order)
            return
        maps = self._conjugation_maps()
        seen = bytearray(self.order)
        for x in range(self.order):
            if not seen[x]:
                yield x, len(_walk(maps, [x], seen))

    def cyclic_orbit_reps(self, reps: list[int], ws: list[int]) -> list[int]:
        """Least member of each orbit of the subgroup whose elements are
        ``ws``, acting by conjugation, on the cyclic subgroups <r> for r in
        ``reps`` (ascending cyclic_reps() fixed points whose subgroups it
        permutes), found by conjugating it by every w, a chunk of one block
        of the members not yet in a known orbit at a time."""
        step = max(1, _BLOCK // (max(1, len(self.base)) * len(ws)))
        out, seen = [], set()
        unseen = (r for r in reps if r not in seen)
        while chunk := list(islice(unseen, step)):
            images = self.conjugates(chunk, ws)
            for i, r in enumerate(chunk):
                if r not in seen:
                    out.append(r)
                    seen.update(map(self.cyclic_rep, images[:, i].tolist()))
        return out

    # -- generated structure ------------------------------------------------

    def full_subgroup(self) -> "SubgroupRef":
        return SubgroupRef(self, self.full_mask)

    def trivial_subgroup(self) -> "SubgroupRef":
        return SubgroupRef(self, 1)

    def generated_subgroup(self, seed) -> "SubgroupRef":
        return SubgroupRef(self, self.closure_mask(self._indices(seed)))

    def normal_closure(self, seed) -> "SubgroupRef":
        """Smallest normal subgroup containing the given elements."""
        seen = bytearray(self.order)
        conjugates = _walk(self._conjugation_maps(), self._indices(seed), seen)
        return SubgroupRef(self, self._greedy_closure(self.mask_of(conjugates))[1])

    def _greedy_closure(self, candidates: int) -> tuple[list[int], int]:
        """Generators and bit-set of the subgroup that the bit-set
        ``candidates`` generates: add the least candidate not yet inside and
        close again, so only the generators kept build a column."""
        gens, mask = [], 1
        while rest := candidates & ~mask:
            gens.append((rest & -rest).bit_length() - 1)
            mask = self.closure_mask(gens)
        return gens, mask

    def commutator_subgroup(self, A: "SubgroupRef", B: "SubgroupRef") -> "SubgroupRef":
        """[A, B] for subgroups of this group (normal closure of [a, b])."""
        # [a, b] = a^-1 * b^-1 * a * b = a^-1 * a^b
        gens = A.generating_set()
        inverses = [self.inv(a) for a in gens]
        rows = self.conjugates(gens, B.generating_set()).tolist()
        comms = {self.mul(ai, ab) for row in rows for ai, ab in zip(inverses, row)} - {0}
        if not comms:
            return self.trivial_subgroup()
        return self.normal_closure(sorted(comms))

    def derived_subgroup(self) -> "SubgroupRef":
        return self.commutator_subgroup(self.full_subgroup(), self.full_subgroup())

    def lower_central_series(self) -> list["SubgroupRef"]:
        """G = g1 >= g2 >= ... with g_{i+1} = [g_i, G], until stable."""
        series = [self.full_subgroup()]
        while True:
            nxt = self.commutator_subgroup(series[-1], self.full_subgroup())
            if nxt.mask == series[-1].mask:
                break
            series.append(nxt)
            if nxt.order == 1:
                break
        return series

    def nilpotency_class(self) -> int | None:
        series = self.lower_central_series()
        if series[-1].order != 1 and self.order > 1:
            return None
        return len(series) - 1

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [list(g.images) for g in self.generators],
        }

    @staticmethod
    def from_json(data, order_cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        if isinstance(data, str):
            data = json.loads(data)
        gens = [Perm(imgs) for imgs in data["generators"]]
        for g in gens:
            if g.degree != data["degree"]:
                raise DegreeMismatchError("generator degree differs from header")
        return close_generators(gens, order_cap)


def _walk(maps, starts: Iterable[int], seen: bytearray) -> list[int]:
    """Breadth-first walk over index maps (``col[x]`` is the image of x):
    marks in ``seen`` every index reached from ``starts`` and not yet marked,
    and returns those indices in the order reached."""
    out = []
    for s in starts:
        if not seen[s]:
            seen[s] = 1
            out.append(s)
    for x in out:  # the list grows while it is read: a queue
        for col in maps:
            y = col[x]
            if not seen[y]:
                seen[y] = 1
                out.append(y)
    return out


def _index_map(found: np.ndarray) -> memoryview:
    """A lookup result as an index map: a flat int32 buffer whose items
    index as Python ints (numpy scalars index slower, and overflow in
    ``1 << i``)."""
    return memoryview(np.ascontiguousarray(found, dtype=np.int32).reshape(-1))


def _greedy_base(matrix: np.ndarray) -> np.ndarray:
    """Ascending points whose pointwise stabilizer in the rows is trivial:
    each is the first point moved by the stabilizer of those before it."""
    rows, base = matrix, []
    for p in range(matrix.shape[1]):
        if len(rows) == 1:
            break
        if (rows[:, p] != p).any():
            base.append(p)
            rows = rows[rows[:, p] == p]
    out = np.array(base, dtype=np.intp)
    out.flags.writeable = False
    return out


class SubgroupRef:
    """A subgroup of a parent group, stored as a bit-set of element indices."""

    __slots__ = ("parent", "mask", "_order")

    def __init__(self, parent: FiniteGroup, mask: int):
        self.parent = parent
        self.mask = mask
        self._order = mask.bit_count()
        if not mask & 1:
            raise InvariantError("subgroup must contain the identity")
        if parent.order % self._order:
            raise InvariantError("Lagrange violation")

    @property
    def order(self) -> int:
        return self._order

    def indices(self) -> list[int]:
        return FiniteGroup.mask_indices(self.mask)

    def contains_index(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    def __contains__(self, p) -> bool:
        if isinstance(p, Perm):
            return p in self.parent and self.contains_index(self.parent.index_of(p))
        return self.contains_index(int(p))

    def __le__(self, other: "SubgroupRef") -> bool:
        return (self.mask & other.mask) == self.mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupRef)
            and self.parent is other.parent
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        return f"<SubgroupRef order={self.order} of {self.parent!r}>"

    def generating_set(self) -> list[int]:
        """A small generating set, chosen greedily by least element index."""
        if self._order == 1:
            return [0]
        return self.parent._greedy_closure(self.mask)[0]

    def generators(self) -> list[Perm]:
        return [self.parent.element(i) for i in self.generating_set()]

    def is_cyclic(self) -> bool:
        """True iff some member generates the whole subgroup."""
        n, order = self._order, self.parent.element_order
        return any(order(i) == n for i in self.indices())

    def is_abelian(self) -> bool:
        gens = self.generating_set()
        return all(
            self.parent.mul(a, b) == self.parent.mul(b, a)
            for a in gens
            for b in gens
        )

    def induced_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup (same degree); its rows,
        taken in ascending index order, are already in canonical order."""
        return FiniteGroup(self.generators(), self.parent.matrix[self.indices()])
