"""Enumerated finite permutation groups and subgroup handles.

A FiniteGroup holds its elements as one C-contiguous int32 matrix
``matrix``: row i is the image tuple of element i.  Rows are sorted
lexicographically, so two constructions of the same group index elements
identically (the identity is index 0) and subgroups can be stored as
bit-sets over those indices.  One dict maps the bytes of a row back to its
index; every index-level operation (products, inverses, conjugation batches,
right-multiplication columns) computes image rows with numpy and looks them
up there.  ``Perm`` objects are made only at the boundary, one index at a
time with ``element(i)``; ``elements`` is a lazily cached tuple of all of
them.  Structural caches (orders, center, conjugacy classes) are filled once
on demand; the computations are idempotent, so concurrent readers at worst
repeat work.  Element orders and cyclic masks come from one walk over the
cyclic subgroups at index level, never from a cycle walk of each element's
permutation, so no Python loop runs over the degree.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegreeMismatchError, GroupTooLargeError, InvariantError
from .perms import Perm

DEFAULT_ORDER_CAP = 200_000


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
        self._lookup = {row.tobytes(): i for i, row in enumerate(self.matrix)}
        self._orders: list[int] | None = None
        self._columns: dict[int, list[int]] = {}
        self._commute_masks: dict[int, int] = {}
        self._cyclic_masks: list[int] | None = None
        self._cyclic_reps: list[int] | None = None
        self._center: SubgroupRef | None = None
        self._classes: list[list[int]] | None = None

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    @property
    def degree(self) -> int:
        return self.matrix.shape[1]

    @property
    def identity_index(self) -> int:
        return 0

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

    def _key(self, p: Perm) -> bytes:
        return np.array(p.images, dtype=np.int32).tobytes()

    def __contains__(self, p: Perm) -> bool:
        return isinstance(p, Perm) and self._key(p) in self._lookup

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order} degree={self.degree}>"

    def index_of(self, p: Perm) -> int:
        try:
            return self._lookup[self._key(p)]
        except KeyError:
            raise ValueError(f"{p!r} is not an element of this group") from None

    def generator_indices(self) -> list[int]:
        return [self.index_of(g) for g in self.generators]

    # -- index-level arithmetic -----------------------------------------

    def _indices(self, rows: np.ndarray) -> list[int]:
        """Element indices of the rows of an int32 array of group elements."""
        buf = rows.tobytes()
        step = 4 * self.degree
        lookup = self._lookup
        return [lookup[buf[k * step : (k + 1) * step]] for k in range(len(rows))]

    def right_mult_column(self, j: int) -> list[int]:
        """column[x] = index of elements[x] * elements[j]; cached per j."""
        col = self._columns.get(j)
        if col is None:
            E = self.matrix
            col = self._columns[j] = self._indices(E[:, E[j]])
        return col

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (j applied first)."""
        E = self.matrix
        return self._lookup[E[i][E[j]].tobytes()]

    def inv(self, i: int) -> int:
        return self._lookup[np.argsort(self.matrix[i]).astype(np.int32).tobytes()]

    def conjugates(self, xs: Sequence[int], g: int) -> list[int]:
        """Indices of g^-1 * x * g for each index x in ``xs``, in one batch."""
        E = self.matrix
        eg = E[g]
        eg_inv = np.argsort(eg).astype(np.int32)
        # row of g^-1 * x * g is i -> g^-1[x[g[i]]]
        return self._indices(eg_inv[E[list(xs)][:, eg]])

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
        if self._orders is None:
            self._walk_cyclic_subgroups()
        return self._orders

    def element_order(self, g: Perm | int) -> int:
        """Least k >= 1 with g^k = identity; g must lie in the group."""
        if isinstance(g, Perm):
            g = self.index_of(g)
        return self.element_orders()[g]

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
        """Bit-set of the subgroup generated by the seed element indices."""
        seed = list(seed)
        mask = 1
        frontier = [0]
        for s in seed:
            if not (mask >> s) & 1:
                mask |= 1 << s
                frontier.append(s)
        cols = [self.right_mult_column(g) for g in seed]
        while frontier:
            nxt = []
            for x in frontier:
                for col in cols:
                    y = col[x]
                    if not (mask >> y) & 1:
                        mask |= 1 << y
                        nxt.append(y)
            frontier = nxt
        return mask

    def cyclic_masks(self) -> list[int]:
        """For each element index i, the bit-set of <elements[i]>."""
        if self._cyclic_masks is None:
            self._walk_cyclic_subgroups()
        return self._cyclic_masks

    def _walk_cyclic_subgroups(self) -> None:
        """Fill the element orders and cyclic masks in one walk.

        Each cyclic subgroup <i> is walked once, from its least generator i:
        in <i> of order k the power i^m has order k / gcd(m, k) and generates
        <i> iff gcd(m, k) = 1, so every element gets its order and mask from
        the walk of the subgroup it generates.
        """
        n = self.order
        orders = [1] * n
        masks = [0] * n
        masks[0] = 1
        for i in range(1, n):
            if masks[i]:
                continue
            powers = [0, i]
            cur = i
            while True:
                cur = self.mul(cur, i)
                if cur == 0:
                    break
                powers.append(cur)
            m = self.mask_of(powers)
            k = len(powers)
            for e in range(1, k):
                g = gcd(e, k)
                orders[powers[e]] = k // g
                if g == 1:
                    masks[powers[e]] = m
        self._orders, self._cyclic_masks = orders, masks

    def cyclic_reps(self) -> list[int]:
        """cyclic_reps()[i] = least j with <elements[j]> == <elements[i]>."""
        if self._cyclic_reps is None:
            masks = self.cyclic_masks()
            first: dict[int, int] = {}
            reps = [0] * self.order
            for i in range(self.order):
                reps[i] = first.setdefault(masks[i], i)
            self._cyclic_reps = reps
        return self._cyclic_reps

    # -- centralizers ------------------------------------------------------

    def commute_mask(self, i: int) -> int:
        """Bit-set of all elements commuting with elements[i]."""
        cached = self._commute_masks.get(i)
        if cached is not None:
            return cached
        E = self.matrix
        zi = E[i]
        # rows z * g against rows g * z
        flags = np.all(zi[E] == E[:, zi], axis=1)
        packed = np.packbits(flags, bitorder="little")
        mask = int.from_bytes(packed.tobytes(), "little")
        self._commute_masks[i] = mask
        return mask

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
            indices = [
                self.index_of(s) if isinstance(s, Perm) else int(s) for s in subset
            ]
        return SubgroupRef(self, self.centralizer_mask(indices))

    def center(self) -> "SubgroupRef":
        if self._center is None:
            self._center = self.centralizer(self.generators)
        return self._center

    # -- conjugacy ---------------------------------------------------------

    def _orbit(self, seeds: Iterable[int], gens: Sequence[int]) -> set[int]:
        """All conjugates of ``seeds`` under <gens>, one batch per frontier
        and generator."""
        out = set(seeds)
        frontier = sorted(out)
        while frontier:
            nxt = []
            for g in gens:
                for y in self.conjugates(frontier, g):
                    if y not in out:
                        out.add(y)
                        nxt.append(y)
            frontier = nxt
        return out

    def conjugacy_classes(self) -> list[list[int]]:
        """Orbits of conjugation, each sorted, listed by least representative."""
        if self._classes is None:
            gens = self.generator_indices()
            seen = [False] * self.order
            classes = []
            for start in range(self.order):
                if not seen[start]:
                    orbit = sorted(self._orbit([start], gens))
                    for y in orbit:
                        seen[y] = True
                    classes.append(orbit)
            self._classes = classes
        return self._classes

    def class_representatives(self) -> list[int]:
        return [c[0] for c in self.conjugacy_classes()]

    def cyclic_orbit_reps(self, reps: list[int], gens: list[int]) -> list[int]:
        """Least member of each orbit of <gens>, acting by conjugation, on the
        cyclic subgroups <r> for r in ``reps`` (ascending cyclic_reps() fixed
        points whose subgroups <gens> permutes)."""
        crep = self.cyclic_reps()
        done: set[int] = set()
        out = []
        for r in reps:
            if r not in done:
                out.append(r)
                done.update(crep[y] for y in self._orbit([r], gens))
        return out

    # -- generated structure ------------------------------------------------

    def subgroup(self, mask: int) -> "SubgroupRef":
        return SubgroupRef(self, mask)

    def full_subgroup(self) -> "SubgroupRef":
        return SubgroupRef(self, self.full_mask)

    def trivial_subgroup(self) -> "SubgroupRef":
        return SubgroupRef(self, 1)

    def generated_subgroup(self, seed) -> "SubgroupRef":
        indices = [
            self.index_of(s) if isinstance(s, Perm) else int(s) for s in seed
        ]
        return SubgroupRef(self, self.closure_mask(indices))

    def normal_closure(self, seed) -> "SubgroupRef":
        """Smallest normal subgroup containing the given elements."""
        indices = [
            self.index_of(s) if isinstance(s, Perm) else int(s) for s in seed
        ]
        conjugates = self._orbit(indices, self.generator_indices())
        return SubgroupRef(self, self.closure_mask(sorted(conjugates)))

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

    def elements(self) -> list[Perm]:
        return [self.parent.element(i) for i in self.indices()]

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
        gens: list[int] = []
        closed = 1
        remaining = self.mask & ~1
        while closed != self.mask:
            low = remaining & ~closed
            i = (low & -low).bit_length() - 1
            gens.append(i)
            closed = self.parent.closure_mask(gens)
        return gens

    def generators(self) -> list[Perm]:
        return [self.parent.element(i) for i in self.generating_set()]

    def is_cyclic(self) -> bool:
        """True iff some member generates the whole subgroup."""
        orders = self.parent.element_orders()
        n = self._order
        return any(orders[i] == n for i in self.indices())

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

    def is_normal(self) -> bool:
        return all(
            self.conjugate_mask(g) == self.mask
            for g in self.parent.generator_indices()
        )
