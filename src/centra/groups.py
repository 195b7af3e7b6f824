"""Enumerated finite permutation groups and subgroup handles.

A FiniteGroup holds its elements as one C-contiguous int32 matrix
``matrix``: row i is the image tuple of element i.  Rows are sorted
lexicographically, so two constructions of the same group index elements
identically (the identity is index 0) and subgroups can be stored as
bit-sets over those indices.

Elements are found by their images on a base B: points b_1 < ... < b_k whose
pointwise stabilizer is trivial (Sims' stabilizer chain; Holt, Eick and
O'Brien, Handbook of Computational Group Theory, ch. 4), picked greedily as
the first point moved by the stabilizer of the points before it.  Two
distinct elements first differ at a base point, so their base images order
them as their rows do.  A dense int32 table maps the key of a row, its base
images read as digits base ``degree``, to its index when the table is at
most a few times the size of the matrix; otherwise the base images, already
sorted with the rows, are binary-searched as big-endian void keys.  Every
index-level operation (products, inverses, conjugation batches,
right-multiplication columns, commute masks) computes only the base images
of its results with numpy and finds them in one lookup.
Closures and orbits are one Python walk, ``_walk``, over index maps
(``col[x]`` = image of element x), each the lookup result kept as a flat
int32 buffer (a ``memoryview``, 4 bytes per entry, whose items index as
Python ints): a subgroup is the walk from the identity over its seeds'
right-multiplication columns, stopped once it passes a bound where only
small subgroups are wanted; conjugacy classes and normal closures walk one
conjugation map per generator of G; and the orbits of cyclic subgroups
walk those maps restricted to the subgroups' least generators.
``Perm`` objects are made only at the boundary, one index at a time with
``element(i)``; ``elements`` is a lazily cached tuple of all of them.
A group keeps only its right-multiplication columns and the per-element
cyclic facts (order, cyclic mask, least generator); centers, centralizers
and conjugacy classes are computed again on each call.  Each cyclic
subgroup is walked only when an order, cyclic mask or least generator of
one of its elements is first asked for, so a scan that reads a few
centralizers walks only their cyclic subgroups.  x^m is the
identity iff it fixes B, so a walk finds the order of x as the lcm of the
cycle lengths of the base points, and all its powers from their base
images in one lookup.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegreeMismatchError, GroupTooLargeError, InvariantError
from .perms import Perm

DEFAULT_ORDER_CAP = 200_000
# bytes an element matrix (elements x degree x 4) may take.  The largest
# matrix that the corpus, the bundled manifest and the benchmark build is the
# regular representation of C2000 from a presentation, 2000 x 2000 x 4 B =
# 16 MB (next is a regular semidirect product of order 1029 in the manifest,
# 4.2 MB).  256 MiB leaves 16 times that, and admits regular representations
# up to order 8192.
ELEMENT_STORAGE_BUDGET = 1 << 28
# keys are looked up in a dense int32 table while it takes at most this many
# times the memory of the element matrix, else by binary search on the sorted
# base images.  Measured on sym:8, alt:8 and psl3:3, the table finds a column
# of keys 4-10x faster than the search; the cap only bounds its memory, and
# admits psl3:3 (5.1x) and sym:8 (6.5x).
_TABLE_PER_MATRIX = 8


def close_generators(
    gens: Sequence[Perm], order_cap: int = DEFAULT_ORDER_CAP
) -> "FiniteGroup":
    """Enumerate the group generated by ``gens``.

    Breadth-first closure over left multiplication by the generators, one
    numpy batch per frontier and generator, followed by a canonical sort, so
    repeated runs index elements identically.  Raises GroupTooLargeError
    beyond ``order_cap``.
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
    # rows are big-endian here, so sorting their bytes sorts the image
    # tuples lexicographically
    A = np.array([g.images for g in gens], dtype=">i4")
    frontier = np.arange(degree, dtype=">i4").reshape(1, degree)
    seen = {frontier.tobytes()}
    step = 4 * degree
    while len(frontier):
        new = []
        for a in A:
            prod = a[frontier].tobytes()  # rows of g * x for x in the frontier
            for k in range(len(frontier)):
                y = prod[k * step : (k + 1) * step]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > order_cap:
                        raise GroupTooLargeError(order_cap, len(seen))
        frontier = np.frombuffer(b"".join(new), dtype=">i4").reshape(len(new), degree)
    rows = sorted(seen)
    del seen
    # move the rows into the matrix one at a time, so that at most two copies
    # of the elements are alive at once, then swap to native byte order
    n = len(rows)
    buf = bytearray(n * step)
    for i in range(n - 1, -1, -1):
        buf[i * step : (i + 1) * step] = rows.pop()
    matrix = np.frombuffer(buf, dtype=">i4").reshape(n, degree)
    return FiniteGroup(gens, matrix.byteswap(inplace=True).view(np.int32))


class FiniteGroup:
    """A fully enumerated permutation group with canonical element indexing."""

    def __init__(self, generators: Sequence[Perm], matrix: np.ndarray):
        """``matrix``: one image row per element, rows sorted lexicographically."""
        self.generators = tuple(generators)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.int32)
        self.matrix.flags.writeable = False
        # identity is lexicographically least among permutations, so index 0
        if not np.array_equal(self.matrix[0], np.arange(self.degree)):
            raise InvariantError("the identity must sort to index 0")
        self.base = _greedy_base(self.matrix)
        self._index_base_images()
        # per element: order, bit-set of <i> and its least generator, filled
        # by _walk_cyclic on demand (an order or mask of 0 is not yet known)
        self._orders = [1] + [0] * (self.order - 1)
        self._masks = [1] + [0] * (self.order - 1)
        self._reps = [0] * self.order
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

    def _index_base_images(self) -> None:
        """Build the one lookup structure for the base images: a dense table
        indexed by key, or the base images themselves as sorted void keys.

        ``_find`` of every row's base images must return its own index: that
        checks that the rows are distinct, and that they are sorted where
        the keys are searched.
        """
        d, k, n = self.degree, len(self.base), self.order
        images = self.matrix[:, self.base]
        self._table = self._keys = self._weights = None
        if d**k <= _TABLE_PER_MATRIX * n * d:
            self._weights = d ** np.arange(k - 1, -1, -1, dtype=np.int64)
            self._table = np.full(d**k, -1, dtype=np.int32)
            self._table[images @ self._weights] = np.arange(n, dtype=np.int32)
        else:
            self._keys = _void_keys(images)
        if not np.array_equal(self._find(images), np.arange(n)):
            raise InvariantError("rows must be distinct and sorted lexicographically")

    def _find(self, images) -> np.ndarray:
        """Indices of the elements with the given base images, an int array
        of shape (..., |B|) whose rows are base images of group elements.

        ``index_of`` also passes images of non-members: then the result is
        -1 (no table entry), ``order`` (beyond every key) or another
        element's index, and ``index_of`` checks it against the full row."""
        if self._table is None:
            return np.searchsorted(self._keys, _void_keys(images))
        return self._table[np.asarray(images) @ self._weights]

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

    def _inverse_row(self, i: int) -> np.ndarray:
        row = self.matrix[i]
        inv = np.empty_like(row)
        inv[row] = np.arange(self.degree, dtype=np.int32)
        return inv

    def inv(self, i: int) -> int:
        return int(self._find(self._inverse_row(i)[self.base]))

    def conjugates(self, xs: Sequence[int], g: int) -> memoryview:
        """Indices of g^-1 * x * g for each index x in ``xs``, in one batch,
        as an index map."""
        E = self.matrix
        # (g^-1 * x * g)[b] = g^-1[x[g[b]]]
        rows = np.asarray(xs, dtype=np.intp).reshape(-1, 1)
        found = self._find(self._inverse_row(g)[E[rows, E[g, self.base]]])
        return _index_map(found)

    def conj(self, i: int, g: int) -> int:
        """Index of elements[i]^elements[g] = g^-1 * x * g."""
        return self.conjugates([i], g)[0]

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

    @property
    def is_abelian(self) -> bool:
        gens = self.generator_indices()
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
        return self.bounded_closure_mask(seed, self.order)

    def bounded_closure_mask(self, seed: Iterable[int], bound: int) -> int:
        """``closure_mask(seed)`` if that subgroup has at most ``bound``
        elements, else 0; the walk stops once it has passed ``bound``."""
        seed = list(seed)
        cols = [self.right_mult_column(g) for g in seed]
        walked = _walk(cols, [0, *seed], bytearray(self.order), bound)
        return self.mask_of(walked) if len(walked) <= bound else 0

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
        of each of its elements, and the mask and least generator of each
        generator of <i>.  In <i> of order k the power i^e has order
        k / gcd(e, k) and generates <i> iff gcd(e, k) = 1.
        """
        # i^e is the identity iff it fixes every base point, so the order k
        # of i is the lcm of the base points' cycle lengths, and i^e maps b
        # to the point e steps along b's cycle
        row, cycles = self.matrix[i], []
        for b in self.base.tolist():
            cycle = [b]
            c = row.item(b)
            while c != b:
                cycle.append(c)
                c = row.item(c)
            cycles.append(cycle)
        k = lcm(*map(len, cycles))
        images = np.array([c * (k // len(c)) for c in cycles]).T
        powers = self._find(images).tolist()
        orders, gens = self._orders, []
        for e, p in enumerate(powers):
            g = gcd(e, k)
            orders[p] = k // g
            if g == 1:
                gens.append(p)
        m, least = self.mask_of(powers), min(gens)
        for p in gens:
            self._masks[p], self._reps[p] = m, least

    # -- centralizers ------------------------------------------------------

    def commute_mask(self, i: int) -> int:
        """Bit-set of all elements commuting with elements[i]."""
        E, base = self.matrix, self.base
        zi = E[i]
        # z * g and g * z are elements, so they are equal iff they agree on
        # the base: z[g[b]] against g[z[b]]
        flags = np.all(zi[E[:, base]] == E[:, zi[base]], axis=1)
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
        everything = range(self.order)
        return [self.conjugates(everything, g) for g in self.generator_indices()]

    def conjugacy_classes(self) -> list[list[int]]:
        """Orbits of conjugation, each sorted, listed by least representative."""
        maps = self._conjugation_maps()
        seen = bytearray(self.order)
        return [
            sorted(_walk(maps, [x], seen))
            for x in range(self.order)
            if not seen[x]
        ]

    def class_representatives(self) -> list[int]:
        """Least element of each conjugacy class, ascending."""
        maps = self._conjugation_maps()
        seen = bytearray(self.order)
        return [x for x in range(self.order) if not seen[x] and _walk(maps, [x], seen)]

    def cyclic_orbit_reps(self, reps: list[int], gens: list[int]) -> list[int]:
        """Least member of each orbit of <gens>, acting by conjugation, on the
        cyclic subgroups <r> for r in ``reps`` (ascending cyclic_reps() fixed
        points whose subgroups <gens> permutes)."""
        maps = [
            dict(zip(reps, map(self.cyclic_rep, self.conjugates(reps, g))))
            for g in gens
        ]
        seen = bytearray(self.order)
        return [r for r in reps if _walk(maps, [r], seen)]

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
        comms = set()
        for a in A.generating_set():
            ai = self.inv(a)
            for b in B.generating_set():
                bi = self.inv(b)
                comms.add(self.mul(self.mul(self.mul(ai, bi), a), b))
        comms.discard(0)
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


def _walk(maps, starts: Iterable[int], seen: bytearray,
          bound: int | None = None) -> list[int]:
    """Breadth-first walk over index maps (``col[x]`` is the image of x):
    marks in ``seen`` every index reached from ``starts`` and not yet marked,
    and returns those indices in the order reached.  With a ``bound``, the
    walk stops at the first index it dequeues once it has reached more than
    ``bound``."""
    out = []
    for s in starts:
        if not seen[s]:
            seen[s] = 1
            out.append(s)
    limit = len(seen) if bound is None else bound
    for x in out:  # the list grows while it is read: a queue
        if len(out) > limit:
            break
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


def _void_keys(images) -> np.ndarray:
    """One opaque key per image row, ordered as the rows (big-endian bytes)."""
    rows = np.ascontiguousarray(images, dtype=">i4")
    return rows.view(f"V{4 * rows.shape[-1]}")[..., 0]


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
        """The subgroup as a standalone FiniteGroup (same degree)."""
        return FiniteGroup(self.generators(), self.parent.matrix[self.indices()])

    def conjugate_mask(self, g: int) -> int:
        """Bit-set of self^g."""
        return self.parent.mask_of(self.parent.conjugates(self.indices(), g))
