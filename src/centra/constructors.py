"""Constructors for the concrete group families plus the group-spec language.

All constructors return FiniteGroup instances built by generator closure,
so every family lands in the same canonical representation.  The spec
mini-language (``cyclic:12``, ``psl2:7``, ``sdp:@action.json``, ...) is what
the CLI and manifest files use to name groups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial, prod
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GroupTooLargeError, InvalidActionError, InvariantError
from .fields import MAX_FIELD_SIZE, FieldSpec, factorize, gf, is_prime
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, check_order, close_generators
from .perms import Perm

# -- elementary families ----------------------------------------------------


def cyclic(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """C_n as the group of an n-cycle."""
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    check_order(n, n, order_cap)
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
    check_order(prod(factors), degree, order_cap)
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
    # n! for n <= 20; 20! already passes every order whose 20-point rows fit
    # the storage budget, so larger n are refused before any Perm is built
    check_order(factorial(min(n, 20)), n, order_cap)
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
    check_order(factorial(min(n, 20)) // 2, n, order_cap)  # as in symmetric
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


def direct_product(*factors: FiniteGroup,
                   order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The product of the factors acting on the disjoint union of their point
    sets, each factor's generators on its own block: one closure, whatever
    the number of factors."""
    order, degree = prod(G.order for G in factors), sum(G.degree for G in factors)
    check_order(order, degree, order_cap)
    gens, offset = [], 0
    for G in factors:
        before = list(range(offset))
        after = list(range(offset + G.degree, degree))
        # each factor's generators are bijections, so their shifts are too
        gens += [Perm._unchecked((*before, *(offset + v for v in g.images), *after))
                 for g in G.generators]
        offset += G.degree
    return _of_order(close_generators(gens, order_cap), order)


# -- 2-groups of maximal class ------------------------------------------------


def dihedral(two_n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """D_{2n}: symmetries of an n-gon (degenerate cases n = 1, 2 included)."""
    if two_n < 2 or two_n % 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = two_n // 2
    check_order(two_n, n, order_cap)
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
    check_order(order, m, order_cap)
    r = m // 2 - 1
    y = Perm([(i + 1) % m for i in range(m)])
    x = Perm([(r * i) % m for i in range(m)])
    return _of_order(close_generators([x, y], order_cap), order)


def generalized_quaternion(order: int,
                           order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Q_{2^n} (n >= 3) acting on itself by left multiplication (the regular
    representation), generated by a and b.

    With m = 2^(n-1), a^m = 1, b^2 = a^(m/2) and b a b^-1 = a^-1, the element
    a^i b^j is point j*m + i.  Left multiplication by a sends a^k b^l to
    a^(k+1) b^l; by b it sends a^k to a^-k b and a^k b to a^(m/2-k).
    """
    n = _power_of_two_exponent(order)
    if n is None or n < 3:
        raise ValueError("generalized quaternion order must be 2^n with n >= 3")
    check_order(order, order, order_cap)
    m = order // 2
    a = Perm([l * m + (k + 1) % m for l in range(2) for k in range(m)])
    b = Perm([m + (-k) % m for k in range(m)] + [(m // 2 - k) % m for k in range(m)])
    return _of_order(close_generators([a, b], order_cap), order)


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
    exponent="p2": C_{p^2} semidirect C_p as the affine maps x -> x + 1 and
    x -> (1 + p) x of Z/p^2, on p^2 points; (1 + p) has order p mod p^2.
    """
    if exponent not in ("p", "p2"):
        raise ValueError('exponent must be "p" or "p2"')
    # before the primality test, which trial-divides up to sqrt(p)
    check_order(p**3, p * p, order_cap)
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime (order-8 cases are D8/Q8)")
    if exponent == "p":
        # left multiplication on cosets, parametrized by (b, c) in GF(p)^2
        def point(b: int, c: int) -> int:
            return b * p + c

        gx = Perm([point(b, (c + b) % p) for b in range(p) for c in range(p)])
        gy = Perm([point((b + 1) % p, c) for b in range(p) for c in range(p)])
        G = close_generators([gx, gy], order_cap)
    else:
        p2 = p * p
        shift = Perm([(x + 1) % p2 for x in range(p2)])
        scale = Perm([(1 + p) * x % p2 for x in range(p2)])
        G = close_generators([shift, scale], order_cap)
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
    # the group is transitive on the points, so it has at least as many
    # elements: refuse that many before the plane (or the primality test,
    # which trial-divides up to sqrt(p)) is made; the chain bounds the rest
    check_order(p * p + p + 1, 1, order_cap)
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
    checks every image is an automorphism and that the assignment extends
    to a homomorphism phi from the acting group, whose graph (``_graph``)
    is kept: row h of ``graph`` is h followed by phi(h).
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
        self.graph = _graph(self.acting, [fixed[k] for k in range(len(fixed))])

    @staticmethod
    def from_json(data, base_dir: Path | None = None,
                  order_cap: int = DEFAULT_ORDER_CAP) -> "ActionSpec":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise InvalidActionError("action data must be a JSON object")
        for key, kind, word in (("acting", str, "string"), ("target", str, "string"),
                                ("images", dict, "object")):
            if not isinstance(data.get(key), kind):
                raise InvalidActionError(f"action data needs {key!r} as a JSON {word}")
        if not all(isinstance(v, list) for v in data["images"].values()):
            raise InvalidActionError("each image in action data must be a JSON list")
        acting = parse_group_spec(data["acting"], base_dir, order_cap)
        target = parse_group_spec(data["target"], base_dir, order_cap)
        images = {int(k): Perm(v) for k, v in data["images"].items()}
        return ActionSpec(acting, target, images)


def _graph(H: FiniteGroup, images: Sequence[Perm]) -> FiniteGroup:
    """The graph {(h, phi(h))} of the map phi sending the k-th generator of H
    to ``images[k]``: the group generated by each generator beside its
    image, on H's points followed by the images' points.

    The graph maps onto H, so it has order |H| iff phi extends to a
    homomorphism of H (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, ch. 4); else the closure passes the cap of |H| and this
    raises InvalidActionError.  An element of the graph is then determined
    by its H part, so the greedy base lies in H's points and is H's own, and
    row h of the graph is (h, phi(h)), in H's canonical order.
    """
    d = H.degree
    gens = [Perm._unchecked(g.images + tuple(d + v for v in img.images))
            for g, img in zip(H.generators, images)]
    try:
        graph = close_generators(gens, H.order)
    except GroupTooLargeError:
        raise InvalidActionError(
            "generator images do not extend to a homomorphism"
        ) from None
    if not np.array_equal(graph.matrix[:, :d], H.matrix):
        raise InvariantError("graph rows are not in the order of H's rows")
    return graph


def automorphism_from_generator_images(
    G: FiniteGroup, images: Sequence[int]
) -> Perm:
    """The automorphism of G sending its k-th generator to the element of
    index ``images[k]``, as a permutation of G's element indices.

    Closes the graph of the map from G to itself (``_graph``), which raises
    InvalidActionError unless the images extend to an endomorphism phi;
    phi(h) is found from the second half of row h with G's own lookup, and
    InvalidActionError is raised if phi is not bijective.
    """
    if len(images) != len(G.generators):
        raise InvalidActionError("one image per generator is required")
    graph = _graph(G, [G.element(int(v)) for v in images])
    # phi(h)'s base images, moved back from the graph's second half
    on_base = graph.matrix[:, G.base + G.degree].astype(np.intp) - G.degree
    out = G._find(on_base).tolist()
    if len(set(out)) != G.order:
        raise InvalidActionError("generator images are not an automorphism")
    return Perm._unchecked(tuple(out))


def power_automorphism(G: FiniteGroup, k: int) -> Perm:
    """The map x -> x^k as an element-index permutation (abelian G)."""
    if not G.is_abelian:
        raise InvalidActionError("power maps are automorphisms of abelian groups")
    return automorphism_from_generator_images(
        G, [G.power(g, k) for g in G.generator_indices()]
    )


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
    """The semidirect product N x| H on |N| + deg(H) points.

    Multiplication is (n1, h1)(n2, h2) = (n1 * phi(h1)(n2), h1 h2).  (n, h)
    acts on N's element indices by x -> n * phi(h)(x), and on H's own
    points, which follow them, as h.  That is an action: (n1, h1)(n2, h2)
    sends x to n1 * phi(h1)(n2 * phi(h2)(x)) = n1 * phi(h1)(n2) *
    phi(h1 h2)(x), as the product does.  It is faithful: if (n, h) fixes
    every point, h fixes H's points, so h = 1, and then n * n' = n' gives
    n = 1.  So N's generators act by left multiplication on N's indices,
    H's generators as phi(h) beside h, and (n, h) is read off an element as
    the image of N's index 0 and its H part.
    """
    N, H = spec.target, spec.acting
    n, E = N.order, N.matrix
    fixed = tuple(range(n, n + H.degree))
    # (g * x)[b] = g[x[b]], for every x at once
    gens = [Perm._unchecked(tuple(N._find(E[g][E[:, N.base]]).tolist()) + fixed)
            for g in N.generator_indices()]
    gens += [Perm._unchecked(spec.images[k].images + tuple(n + v for v in h.images))
             for k, h in enumerate(H.generators)]
    return _of_order(close_generators(gens, order_cap), n * H.order)


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
    head, arg = _split_spec(spec)
    if head == "cyclic":
        return cyclic(_spec_int(spec, arg, "cyclic:N"), order_cap)
    if head == "abelian":
        factors = [_spec_int(spec, v, "abelian:D1,D2,...") for v in arg.split(",")]
        return abelian(factors, order_cap)
    if head == "dihedral":
        return dihedral(_spec_int(spec, arg, "dihedral:2N"), order_cap)
    if head == "sd":
        return semidihedral(_spec_int(spec, arg, "sd:2^n"), order_cap)
    if head == "q":
        return generalized_quaternion(_spec_int(spec, arg, "q:2^n"), order_cap)
    if head == "xsp":
        pt, comma, expo = arg.partition(",")
        form = "xsp:P,p or xsp:P,p2"
        if not comma or "," in expo:
            raise ValueError(f"bad group spec {spec!r}: expected {form}")
        return extraspecial_p3(_spec_int(spec, pt, form), expo.strip(), order_cap)
    if head == "sym":
        return symmetric(_spec_int(spec, arg, "sym:N"), order_cap)
    if head == "alt":
        return alternating(_spec_int(spec, arg, "alt:N"), order_cap)
    if head == "psl2":
        return psl2(_spec_int(spec, arg, "psl2:Q"), order_cap)
    if head == "psl3":
        return psl3(_spec_int(spec, arg, "psl3:P"), order_cap)
    if head == "dp":
        # dp:A;dp:B;C is A x (B x C): the right-nested chain is read in a
        # loop, not by recursion, its partial order and degree are checked
        # before each next factor is built, and the product is closed once
        factors, order, degree = [], 1, 0
        while head == "dp":
            left, _, spec = arg.partition(";")
            factors.append(parse_group_spec(left, base_dir, order_cap))
            order, degree = order * factors[-1].order, degree + factors[-1].degree
            check_order(order, degree, order_cap)
            head, arg = _split_spec(spec)
        factors.append(parse_group_spec(spec, base_dir, order_cap))
        return direct_product(*factors, order_cap=order_cap)
    if head == "sdp":
        path = _resolve_at_path(arg, base_dir)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad group spec {spec!r}: {path} is not JSON "
                             f"({exc})") from None
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
            elif suffix == "auto" or suffix.startswith("auto:"):
                _, _, h = suffix.partition(":")
                form = "presentation:@file.pres#auto:HINT"
                if h and (hint := _spec_int(spec, h, form)) < 1:
                    raise ValueError(f"bad group spec {spec!r}: expected {form} "
                                     f"with HINT at least 1")
            else:
                raise ValueError(f"bad presentation suffix {suffix!r}")
        realized = realize(
            pres, convention=convention, order_hint=hint, order_cap=order_cap
        )
        return realized.group
    raise ValueError(f"unknown group spec {spec!r}")


def _spec_int(spec: str, text: str, form: str) -> int:
    """``text``, a part of ``spec``, as an integer; else ValueError naming
    the spec and its expected ``form``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad group spec {spec!r}: expected {form}") from None


def _split_spec(spec: str) -> tuple[str, str]:
    """The family head (lower case) and argument of a spec."""
    spec = spec.strip()
    if ":" not in spec:
        raise ValueError(f"bad group spec {spec!r}")
    head, _, arg = spec.partition(":")
    return head.strip().lower(), arg.strip()


def _resolve_at_path(arg: str, base_dir: Path | str | None) -> Path:
    if not arg.startswith("@"):
        raise ValueError(f"expected @file reference, got {arg!r}")
    path = Path(arg[1:])
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    return path
