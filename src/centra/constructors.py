"""Constructors for the concrete group families plus the group-spec language.

All constructors return FiniteGroup instances built by generator closure,
so every family lands in the same canonical representation.  The spec
mini-language (``cyclic:12``, ``psl2:7``, ``sdp:@action.json``, ...) is what
the CLI and manifest files use to name groups.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidActionError, InvariantError
from .fields import MAX_FIELD_SIZE, FieldSpec, factorize, gf, is_prime
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, close_generators
from .perms import Perm

# -- elementary families ----------------------------------------------------


def cyclic(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """C_n as the group of an n-cycle."""
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    if n == 1:
        return close_generators([Perm([0])], order_cap)
    return close_generators([Perm([(i + 1) % n for i in range(n)])], order_cap)


def abelian(invariant_factors: Sequence[int],
            order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Direct product of cyclic groups, one disjoint cycle per factor."""
    factors = list(invariant_factors)
    if not factors:
        return cyclic(1)
    if any(f < 2 for f in factors):
        raise ValueError("invariant factors must each be >= 2")
    degree = sum(factors)
    gens = []
    offset = 0
    for f in factors:
        images = list(range(degree))
        for i in range(f):
            images[offset + i] = offset + (i + 1) % f
        gens.append(Perm(images))
        offset += f
    return close_generators(gens, order_cap)


def symmetric(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return cyclic(1)
    swap = Perm([1, 0] + list(range(2, n)))
    if n == 2:
        return close_generators([swap], order_cap)
    cycle = Perm([(i + 1) % n for i in range(n)])
    return close_generators([swap, cycle], order_cap)


def alternating(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n <= 2:
        return close_generators([Perm.identity(max(n, 1))], order_cap)
    three = Perm([1, 2, 0] + list(range(3, n)))
    if n == 3:
        return close_generators([three], order_cap)
    if n % 2:
        big = Perm([(i + 1) % n for i in range(n)])
    else:
        big = Perm([0] + [1 + (i % (n - 1)) for i in range(1, n)])
    return close_generators([three, big], order_cap)


def _of_order(G: FiniteGroup, order: int) -> FiniteGroup:
    """G, after checking that the construction gave the expected order."""
    if G.order != order:
        raise InvariantError(f"construction gave order {G.order}, not {order}")
    return G


def direct_product(A: FiniteGroup, B: FiniteGroup,
                   order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """A x B acting on the disjoint union of the two point sets."""
    da, db = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Perm(list(g.images) + list(range(da, da + db))))
    for g in B.generators:
        gens.append(Perm(list(range(da)) + [da + v for v in g.images]))
    return _of_order(close_generators(gens, order_cap), A.order * B.order)


# -- 2-groups of maximal class ------------------------------------------------


def dihedral(two_n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """D_{2n}: symmetries of an n-gon (degenerate cases n = 1, 2 included)."""
    if two_n < 2 or two_n % 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = two_n // 2
    if n == 1:
        return cyclic(2)
    if n == 2:
        x = Perm([1, 0, 2, 3])
        y = Perm([1, 0, 3, 2])
        return close_generators([x, y], order_cap)
    y = Perm([(i + 1) % n for i in range(n)])
    x = Perm([(n - i) % n for i in range(n)])
    return _of_order(close_generators([x, y], order_cap), two_n)


def semidihedral(order: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """SD_{2^n} (n >= 4) realized on the cyclic part: x acts as i -> ri."""
    n = _power_of_two_exponent(order)
    if n is None or n < 4:
        raise ValueError("semidihedral order must be 2^n with n >= 4")
    m = order // 2
    r = m // 2 - 1
    y = Perm([(i + 1) % m for i in range(m)])
    x = Perm([(r * i) % m for i in range(m)])
    return _of_order(close_generators([x, y], order_cap), order)


def generalized_quaternion(order: int,
                           order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Q_{2^n} (n >= 3) via its normal form a^i b^j, acting on itself by left
    multiplication (the regular representation, generated by a and b)."""
    n = _power_of_two_exponent(order)
    if n is None or n < 3:
        raise ValueError("generalized quaternion order must be 2^n with n >= 3")
    m = order // 2
    half = m // 2

    def mul(e1: tuple[int, int], e2: tuple[int, int]) -> tuple[int, int]:
        i, j = e1
        k, l = e2
        if j == 0:
            return ((i + k) % m, l)
        if l == 0:
            return ((i - k) % m, 1)
        return ((i - k + half) % m, 0)

    elems = [(i, j) for j in range(2) for i in range(m)]
    gens = _left_multiplications(mul, elems, [(1, 0), (0, 1)])
    return _of_order(close_generators(gens, order_cap), order)


def _left_multiplications(mul, elems: list, gens: list) -> list[Perm]:
    """x -> g*x on the points ``elems`` (x at its position) for each g in
    ``gens``: generators of the regular representation, without a table."""
    index = {e: t for t, e in enumerate(elems)}
    return [Perm([index[mul(g, x)] for x in elems]) for g in gens]


def _power_of_two_exponent(order: int) -> int | None:
    if order < 2 or order & (order - 1):
        return None
    return order.bit_length() - 1


# -- extraspecial groups of order p^3 ----------------------------------------


def extraspecial_p3(p: int, exponent: str = "p",
                    order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The two non-abelian groups of order p^3 for odd p.

    exponent="p": unitriangular 3x3 matrices over GF(p), acting faithfully
    on p^2 points (cosets of a non-normal order-p subgroup).
    exponent="p2": C_{p^2} semidirect C_p via its regular representation,
    generated by left multiplication by (1, 0) and (0, 1).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime (order-8 cases are D8/Q8)")
    if exponent not in ("p", "p2"):
        raise ValueError('exponent must be "p" or "p2"')
    if exponent == "p":
        # left multiplication on cosets, parametrized by (b, c) in GF(p)^2
        def point(b: int, c: int) -> int:
            return b * p + c

        gx = Perm([point(b, (c + b) % p) for b in range(p) for c in range(p)])
        gy = Perm([point((b + 1) % p, c) for b in range(p) for c in range(p)])
        G = close_generators([gx, gy], order_cap)
    else:
        p2 = p * p

        def mul(e1: tuple[int, int], e2: tuple[int, int]) -> tuple[int, int]:
            i, j = e1
            k, l = e2
            return ((i + k * pow(1 + p, j, p2)) % p2, (j + l) % p)

        elems = [(i, j) for j in range(p) for i in range(p2)]
        gens = _left_multiplications(mul, elems, [(1, 0), (0, 1)])
        G = close_generators(gens, order_cap)
    return _of_order(G, p**3)


# -- projective groups ---------------------------------------------------------


def psl2(field: FieldSpec | int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """PSL2(q) acting on the q+1 points of the projective line.

    Points 0..q-1 are the field elements, point q is infinity.  Generators
    are the Moebius maps of the unimodular matrices [[1,b],[0,1]] for b
    running over an additive basis (b = 1 alone for prime fields) together
    with [[0,-1],[1,0]].
    """
    F = field if isinstance(field, FieldSpec) else _field_from_q(field)
    q = F.q
    inf = q

    gens = []
    for b in F.basis():
        images = [F.add(x, b) for x in range(q)] + [inf]
        gens.append(Perm(images))
    w = [0] * (q + 1)
    w[0] = inf
    w[inf] = 0
    for x in range(1, q):
        w[x] = F.neg(F.inv(x))
    gens.append(Perm(w))
    return close_generators(gens, order_cap)


def _field_from_q(q: int) -> FieldSpec:
    # reject first: factorize trial-divides up to sqrt(q)
    if q > MAX_FIELD_SIZE:
        raise ValueError(f"field too large: q = {q} > {MAX_FIELD_SIZE}")
    primes = factorize(q)
    if len(primes) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return gf(*primes[0])


def projective_plane_points(p: int) -> list[tuple[int, int, int]]:
    """Normalized representatives of the p^2+p+1 projective-plane points."""
    pts = [(1, y, z) for y in range(p) for z in range(p)]
    pts += [(0, 1, z) for z in range(p)]
    pts.append((0, 0, 1))
    return pts


def projective_plane_perm(p: int, matrix: Sequence[Sequence[int]]) -> Perm:
    """The permutation a 3x3 matrix over GF(p) induces on plane points."""
    pts = projective_plane_points(p)
    index = {v: i for i, v in enumerate(pts)}

    def normalize(v: tuple[int, int, int]) -> tuple[int, int, int]:
        for c in v:
            if c % p:
                s = pow(c, p - 2, p)
                return tuple((x * s) % p for x in v)
        raise ValueError("zero vector is not projective")

    images = []
    for v in pts:
        w = tuple(
            sum(matrix[r][c] * v[c] for c in range(3)) % p for r in range(3)
        )
        images.append(index[normalize(w)])
    return Perm(images)


def psl3(p: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """PSL3(p) on the p^2+p+1 projective-plane points (subject to the cap)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    T = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    A = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    gens = [projective_plane_perm(p, T), projective_plane_perm(p, A)]
    return close_generators(gens, order_cap)


def psl3_witness_pair(p: int) -> tuple[Perm, Perm]:
    """The anti-diagonal involution and diag(g^{p-2}, g, 1) as plane perms.

    Together they generate a dihedral group of order 2(p-1) inside PSL3(p)
    without enumerating the ambient group.
    """
    if p == 2:
        raise ValueError("p must be an odd prime")
    g = gf(p).primitive
    m1 = [[0, 1, 0], [1, 0, 0], [0, 0, p - 1]]
    m2 = [[pow(g, p - 2, p), 0, 0], [0, g, 0], [0, 0, 1]]
    return projective_plane_perm(p, m1), projective_plane_perm(p, m2)


# -- semidirect products -------------------------------------------------------


@dataclass
class ActionSpec:
    """Semidirect-product data: images of acting generators in Aut(target).

    Each image is a permutation of the target's element indices; validation
    checks every image is an automorphism and the assignment extends to a
    homomorphism from the acting group (exhaustive product consistency).
    """

    acting: FiniteGroup
    target: FiniteGroup
    images: dict[int, Perm]

    def __post_init__(self):
        n = self.target.order
        fixed = {}
        for k, img in self.images.items():
            if not isinstance(img, Perm):
                img = Perm(img)
            if img.degree != n:
                raise InvalidActionError(
                    f"image for generator {k} has degree {img.degree}, "
                    f"expected {n}"
                )
            fixed[int(k)] = img
        if sorted(fixed) != list(range(len(self.acting.generators))):
            raise InvalidActionError(
                "images must cover exactly the acting group's generators"
            )
        self.images = fixed
        for k, img in self.images.items():
            _check_automorphism(self.target, img, k)
        self._phi = self._extend()

    def _extend(self) -> list[Perm]:
        """phi(h) for every acting-group element, verified consistent."""
        images = [self.images[k] for k in sorted(self.images)]
        return _extend_homomorphism(
            self.acting, images, Perm.identity(self.target.order), operator.mul
        )

    def automorphism(self, h: int) -> Perm:
        return self._phi[h]

    @staticmethod
    def from_json(data, base_dir: Path | None = None,
                  order_cap: int = DEFAULT_ORDER_CAP) -> "ActionSpec":
        if isinstance(data, str):
            data = json.loads(data)
        acting = parse_group_spec(data["acting"], base_dir, order_cap)
        target = parse_group_spec(data["target"], base_dir, order_cap)
        images = {int(k): Perm(v) for k, v in data["images"].items()}
        return ActionSpec(acting, target, images)


def _extend_homomorphism(H: FiniteGroup, images: list, identity, mul) -> list:
    """phi(h) for every element index h of H, where phi(1) = ``identity``
    and phi(g * h) = mul(images[k], phi(h)) for the k-th generator g.

    Walks the Cayley graph of H from the identity and checks every edge, so
    raises InvalidActionError unless the images extend to a homomorphism.
    """
    edges = list(zip(H.generator_indices(), images))
    phi = [None] * H.order
    phi[0] = identity
    frontier = [0]
    while frontier:
        nxt = []
        for h in frontier:
            for gi, img in edges:
                h2 = H.mul(gi, h)
                v = mul(img, phi[h])
                if phi[h2] is None:
                    phi[h2] = v
                    nxt.append(h2)
                elif phi[h2] != v:
                    raise InvalidActionError(
                        "generator images do not extend to a homomorphism"
                    )
        frontier = nxt
    return phi


def automorphism_from_generator_images(
    G: FiniteGroup, images: Sequence[int]
) -> Perm:
    """Extend generator-image element indices to a full automorphism.

    Extends multiplicatively over the Cayley graph, checking consistency on
    every edge; raises InvalidActionError if the images do not define an
    endomorphism or the result is not bijective.
    """
    if len(images) != len(G.generators):
        raise InvalidActionError("one image per generator is required")
    out = _extend_homomorphism(G, [int(v) for v in images], 0, G.mul)
    if len(set(out)) != G.order:
        raise InvalidActionError("generator images are not an automorphism")
    return Perm(out)  # type: ignore[arg-type]


def power_automorphism(G: FiniteGroup, k: int) -> Perm:
    """The map x -> x^k as an element-index permutation (abelian G)."""
    if not G.is_abelian:
        raise InvalidActionError("power maps are automorphisms of abelian groups")
    images = [G.power(i, k) for i in range(G.order)]
    if len(set(images)) != G.order:
        raise InvalidActionError(f"x -> x^{k} is not bijective here")
    return Perm(images)


def _check_automorphism(N: FiniteGroup, img: Perm, label) -> None:
    """Check that the bijection ``img`` of N's element indices is an
    automorphism, testing im(x * g) = im(x) * im(g) for every x and each
    generator g of N only.

    That suffices: every y in N is a word g_1 ... g_k in the generators (an
    inverse is a positive power in a finite group), and k steps give
    im(x * y) = im(x) * im(g_1) ... im(g_k) for all x.  With x = 1 this is
    im(y) = im(1) * im(g_1) ... im(g_k), and im(1) = 1 since
    im(g) = im(1 * g) = im(1) * im(g); so im(x * y) = im(x) * im(y).
    """
    if img.images[0] != 0:
        raise InvalidActionError(f"image for generator {label} moves the identity")
    im = np.array(img.images)
    for g in N.generator_indices():
        # im[x * g] against im[x] * im[g], over every x at once
        by_g = np.asarray(N.right_mult_column(g))
        by_img = np.asarray(N.right_mult_column(img.images[g]))
        if not np.array_equal(im[by_g], by_img[im]):
            raise InvalidActionError(
                f"image for generator {label} is not an automorphism"
            )


def semidirect(spec: ActionSpec,
               order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The semidirect product N x| H on |N|*|H| points.

    Multiplication is (n1, h1)(n2, h2) = (n1 * phi(h1)(n2), h1 h2); the
    permutation action is the regular action through left multiplication,
    with point (n, h) at index n*|H| + h.
    """
    N, H = spec.target, spec.acting
    nh = H.order

    def pt(n: int, h: int) -> int:
        return n * nh + h

    gens = []
    for gn in N.generator_indices():
        left = [N.mul(gn, n) for n in range(N.order)]
        gens.append(
            Perm(pt(left[n], h) for n in range(N.order) for h in range(H.order))
        )
    for gpos, gh in enumerate(H.generator_indices()):
        auto = spec.images[gpos].images
        left = [H.mul(gh, h) for h in range(H.order)]
        gens.append(
            Perm(pt(auto[n], left[h]) for n in range(N.order) for h in range(H.order))
        )
    return _of_order(close_generators(gens, order_cap), N.order * H.order)


def regular_representation(mul_table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Faithful action of a multiplication-table group on its own elements.

    Each element g becomes the permutation x -> g*x; left multiplication
    keeps the map a homomorphism under the apply-right-first composition.
    """
    n = len(mul_table)
    identity = None
    for e in range(n):
        if all(mul_table[e][x] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("multiplication table has no identity")
    # greedy small generating set
    gens: list[int] = []
    closed = {identity}
    while len(closed) < n:
        g = min(x for x in range(n) if x not in closed)
        gens.append(g)
        frontier = list(closed | {g})
        closed.add(g)
        while frontier:
            nxt = []
            for x in frontier:
                for h in gens:
                    y = mul_table[x][h]
                    if y not in closed:
                        closed.add(y)
                        nxt.append(y)
            frontier = nxt
    perms = [Perm(mul_table[g]) for g in gens] or [Perm(range(n))]
    G = close_generators(perms)
    if G.order != n:
        raise ValueError("multiplication table does not describe a group")
    return G


# -- prime shape tests ----------------------------------------------------------


def is_fermat_prime(n: int) -> bool:
    """True iff n is prime and n = 2^k + 1 with k a power of two."""
    if n < 3 or not is_prime(n):
        return False
    k = n - 1
    if k & (k - 1):
        return False
    e = k.bit_length() - 1
    return e >= 1 and (e & (e - 1)) == 0


def is_mersenne_prime(n: int) -> bool:
    """True iff n is prime and n = 2^k - 1."""
    if n < 3 or not is_prime(n):
        return False
    k = n + 1
    return (k & (k - 1)) == 0


# -- group-spec mini-language ----------------------------------------------------


def parse_group_spec(spec: str, base_dir: Path | str | None = None,
                     order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a spec string.

    Formats: cyclic:N, abelian:D1,D2,..., dihedral:2N, sd:2^n, q:2^n,
    xsp:P,p / xsp:P,p2, sym:N, alt:N, psl2:Q, psl3:P, sdp:@action.json,
    presentation:@file.pres[#A|#B|#auto:HINT], dp:SPEC;SPEC.
    """
    spec = spec.strip()
    if ":" not in spec:
        raise ValueError(f"bad group spec {spec!r}")
    head, _, arg = spec.partition(":")
    head = head.strip().lower()
    arg = arg.strip()
    if head == "cyclic":
        return cyclic(int(arg), order_cap)
    if head == "abelian":
        return abelian([int(v) for v in arg.split(",")], order_cap)
    if head == "dihedral":
        return dihedral(int(arg), order_cap)
    if head == "sd":
        return semidihedral(int(arg), order_cap)
    if head == "q":
        return generalized_quaternion(int(arg), order_cap)
    if head == "xsp":
        pt, expo = arg.split(",")
        return extraspecial_p3(int(pt), expo.strip(), order_cap)
    if head == "sym":
        return symmetric(int(arg), order_cap)
    if head == "alt":
        return alternating(int(arg), order_cap)
    if head == "psl2":
        return psl2(int(arg), order_cap)
    if head == "psl3":
        return psl3(int(arg), order_cap)
    if head == "dp":
        left, _, right = arg.partition(";")
        return direct_product(
            parse_group_spec(left, base_dir, order_cap),
            parse_group_spec(right, base_dir, order_cap),
            order_cap,
        )
    if head == "sdp":
        path = _resolve_at_path(arg, base_dir)
        data = json.loads(path.read_text())
        return semidirect(
            ActionSpec.from_json(data, base_dir=path.parent, order_cap=order_cap),
            order_cap,
        )
    if head == "presentation":
        from .presentations import parse_presentation, realize

        ref, _, suffix = arg.partition("#")
        path = _resolve_at_path(ref.strip(), base_dir)
        pres = parse_presentation(path.read_text())
        convention, hint = "auto", None
        if suffix:
            if suffix in ("A", "B"):
                convention = suffix
            elif suffix.startswith("auto"):
                _, _, h = suffix.partition(":")
                if h:
                    hint = int(h)
            else:
                raise ValueError(f"bad presentation suffix {suffix!r}")
        realized = realize(
            pres, convention=convention, order_hint=hint, order_cap=order_cap
        )
        return realized.group
    raise ValueError(f"unknown group spec {spec!r}")


def _resolve_at_path(arg: str, base_dir: Path | str | None) -> Path:
    if not arg.startswith("@"):
        raise ValueError(f"expected @file reference, got {arg!r}")
    path = Path(arg[1:])
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    return path
