"""Enumerated finite permutation groups and subgroup handles.

A FiniteGroup is a fully enumerated closure of its generators with a
canonical element order (lexicographic on image tuples), so two
constructions of the same group index elements identically and subgroups
can be stored as bit-sets over those indices.  Structural caches (orders,
center, conjugacy classes) are filled once on demand; the computations are
idempotent, so concurrent readers at worst repeat work.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegreeMismatchError, GroupTooLargeError, InvariantError
from .perms import Perm

DEFAULT_ORDER_CAP = 200_000

# below this order, index-level multiplication tables are cheap to build
_TABLE_LIMIT = 1400


def close_generators(
    gens: Sequence[Perm], order_cap: int = DEFAULT_ORDER_CAP
) -> "FiniteGroup":
    """Enumerate the group generated by ``gens``.

    Breadth-first closure over left multiplication by the generators,
    followed by a canonical sort, so repeated runs index elements
    identically.  Raises GroupTooLargeError beyond ``order_cap``.
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
    identity = Perm.identity(degree)
    seen = {identity.images}
    frontier = [identity]
    elements = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g * x
                if y.images not in seen:
                    seen.add(y.images)
                    elements.append(y)
                    nxt.append(y)
                    if len(seen) > order_cap:
                        raise GroupTooLargeError(order_cap, len(seen))
        frontier = nxt
    return FiniteGroup(gens, elements)


class FiniteGroup:
    """A fully enumerated permutation group with canonical element indexing."""

    def __init__(self, generators: Sequence[Perm], elements: Iterable[Perm]):
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements, key=lambda p: p.images))
        self.degree = self.elements[0].degree
        self._index = {p.images: i for i, p in enumerate(self.elements)}
        # identity is lexicographically least among permutations, so index 0
        if not self.elements[0].is_identity():
            raise InvariantError("the identity must sort to index 0")
        self._orders: list[int] | None = None
        self._table: list[list[int]] | None = None
        self._np_elements: np.ndarray | None = None
        self._row_bytes: dict[bytes, int] | None = None
        self._columns: dict[int, list[int]] = {}
        self._commute_masks: dict[int, int] = {}
        self._cyclic_masks: list[int] | None = None
        self._cyclic_reps: list[int] | None = None
        self._center: SubgroupRef | None = None
        self._classes: list[list[int]] | None = None

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return isinstance(p, Perm) and p.images in self._index

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order} degree={self.degree}>"

    def index_of(self, p: Perm) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise ValueError(f"{p!r} is not an element of this group") from None

    def generator_indices(self) -> list[int]:
        return [self.index_of(g) for g in self.generators]

    # -- index-level arithmetic -----------------------------------------

    def _row_lookup(self) -> dict[bytes, int]:
        if self._row_bytes is None:
            E = self._np_matrix()
            step = E.shape[1] * E.itemsize
            buf = E.tobytes()
            self._row_bytes = {
                buf[i * step : (i + 1) * step]: i for i in range(self.order)
            }
        return self._row_bytes

    def build_table(self) -> list[list[int]] | None:
        """Build the index-level multiplication table (skipped above the limit).

        Worth calling before subgroup-lattice enumeration or other workloads
        that do many index-level multiplications; plain queries never need it.
        """
        if self._table is None and self.order <= _TABLE_LIMIT:
            E = self._np_matrix()
            lookup = self._row_lookup()
            step = E.shape[1] * E.itemsize
            n = self.order
            table = []
            for i in range(n):
                buf = np.ascontiguousarray(E[i][E]).tobytes()
                table.append([lookup[buf[j * step : (j + 1) * step]] for j in range(n)])
            self._table = table
        return self._table

    def right_mult_column(self, j: int) -> list[int]:
        """column[x] = index of elements[x] * elements[j]; cached per j."""
        col = self._columns.get(j)
        if col is None:
            E = self._np_matrix()
            comp = np.ascontiguousarray(E[:, E[j]])
            lookup = self._row_lookup()
            step = E.shape[1] * E.itemsize
            buf = comp.tobytes()
            col = [lookup[buf[i * step : (i + 1) * step]] for i in range(self.order)]
            self._columns[j] = col
        return col

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (j applied first)."""
        if self._table is not None:
            return self._table[i][j]
        s = self.elements[i].images
        return self._index[tuple(s[v] for v in self.elements[j].images)]

    def inv(self, i: int) -> int:
        return self._index[self.elements[i].inverse().images]

    def conj(self, i: int, g: int) -> int:
        """Index of elements[i]^elements[g] = g^-1 * x * g."""
        return self.mul(self.mul(self.inv(g), i), g)

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
            self._orders = [p.order() for p in self.elements]
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
        if self._table is not None:
            table = self._table
            while frontier:
                nxt = []
                for x in frontier:
                    row = table[x]
                    for g in seed:
                        y = row[g]
                        if not (mask >> y) & 1:
                            mask |= 1 << y
                            nxt.append(y)
                frontier = nxt
            return mask
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
            masks = [0] * self.order
            masks[0] = 1
            for i in range(1, self.order):
                if masks[i]:
                    continue
                # walk the cyclic group once; every generator of it shares it
                powers = [0, i]
                cur = i
                while True:
                    cur = self.mul(cur, i)
                    if cur == 0:
                        break
                    powers.append(cur)
                m = self.mask_of(powers)
                k = len(powers)
                orders = self.element_orders()
                for j in powers:
                    if orders[j] == k:
                        masks[j] = m
            self._cyclic_masks = masks
        return self._cyclic_masks

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

    def _np_matrix(self) -> np.ndarray:
        if self._np_elements is None:
            self._np_elements = np.array(
                [p.images for p in self.elements], dtype=np.int32
            )
        return self._np_elements

    def commute_mask(self, i: int) -> int:
        """Bit-set of all elements commuting with elements[i]."""
        cached = self._commute_masks.get(i)
        if cached is not None:
            return cached
        E = self._np_matrix()
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

    def _conjugates(self, seeds: list[int], pairs: list[tuple[int, int]]) -> set[int]:
        """All conjugates of ``seeds`` under the (generator, inverse) ``pairs``."""
        out = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for x in frontier:
                for g, gi in pairs:
                    y = self.mul(self.mul(gi, x), g)
                    if y not in out:
                        out.add(y)
                        nxt.append(y)
            frontier = nxt
        return out

    def conjugacy_classes(self) -> list[list[int]]:
        """Orbits of conjugation, each sorted, listed by least representative."""
        if self._classes is None:
            pairs = [(g, self.inv(g)) for g in self.generator_indices()]
            seen = [False] * self.order
            classes = []
            for start in range(self.order):
                if not seen[start]:
                    orbit = sorted(self._conjugates([start], pairs))
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
        points whose subgroups <gens> permutes).  One numpy batch per
        generator; orbits are joined by union-find."""
        E = self._np_matrix()
        lookup = self._row_lookup()
        step = E.shape[1] * E.itemsize
        crep = self.cyclic_reps()
        pos = {r: k for k, r in enumerate(reps)}
        root = list(range(len(reps)))

        def find(k: int) -> int:
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k

        A = E[reps]
        for g in gens:
            eg = E[g]
            eg_inv = np.argsort(eg).astype(E.dtype)
            # rows of g^-1 * r * g, i.e. i -> g^-1[r[g[i]]]
            buf = np.ascontiguousarray(eg_inv[A[:, eg]]).tobytes()
            for k in range(len(reps)):
                j = pos[crep[lookup[buf[k * step : (k + 1) * step]]]]
                rk, rj = sorted((find(k), find(j)))
                root[rj] = rk
        return [r for k, r in enumerate(reps) if root[k] == k]

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
        pairs = [(g, self.inv(g)) for g in self.generator_indices()]
        conjugates = self._conjugates(indices, pairs)
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
        return [self.parent.elements[i] for i in self.indices()]

    def contains_index(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    def __contains__(self, p) -> bool:
        if isinstance(p, Perm):
            if p.images not in self.parent._index:
                return False
            return self.contains_index(self.parent.index_of(p))
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
        return [self.parent.elements[i] for i in self.generating_set()]

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
        return FiniteGroup(self.generators(), self.elements())

    def conjugate_mask(self, g: int) -> int:
        """Bit-set of self^g."""
        p = self.parent
        gi = p.inv(g)
        m = 0
        for i in self.indices():
            m |= 1 << p.mul(p.mul(gi, i), g)
        return m

    def is_normal(self) -> bool:
        return all(
            self.conjugate_mask(g) == self.mask
            for g in self.parent.generator_indices()
        )
