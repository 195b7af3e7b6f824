"""Membership tests for the two self-centralizing subgroup conditions.

A subgroup H of G is self-centralizing when C_G(H) <= H.  This module
decides two group classes:

* class X: every non-cyclic subgroup is self-centralizing;
* class C: every non-trivial subgroup is self-centralizing;

plus structure recognizers (nilpotency class, maximal-class 2-group family,
supersolvability, abelian invariants), fixed-point-free action tests, and
witness-based non-membership certificates for ambient groups too large to
enumerate.

Reduction used by in_class_X (proved here, tested against the literal
all-subgroups oracle):

    G violates the class-X condition  iff  there are z, a, b in G with
    a, b in C_G(z), <a,b> non-cyclic and z not in <a,b>.

Proof.  If <a,b> is non-cyclic with z in C_G(a) n C_G(b) \\ <a,b>, then
H = <a,b> is a non-cyclic subgroup whose centralizer contains z outside H.
Conversely let H be non-cyclic with z in C_G(H) \\ H.  H contains a
minimal non-cyclic K = <a,b> (see (c)); z centralizes H, so a, b in C_G(z);
and z not in H >= K.  QED

Because the condition is conjugation-invariant, z may range over conjugacy
class representatives, and a, b over canonical generators of the distinct
cyclic subgroups inside W = C_G(z) (replacing a generator by another
generator of the same cyclic subgroup does not change <a,b>).  Three further
cuts keep the scan sound:

(a) a and b may be taken of prime-power order: the generators in (c) are.

(b) a may be taken from one cyclic subgroup per W-conjugacy orbit.  Let
    <a,b> violate at z and w in W.  Conjugation by w fixes z and maps W to
    itself, so <a^w, b^w> = <a,b>^w is non-cyclic, lies in W, and misses
    z^w = z.  Choosing w with <a>^w the orbit representative <a'> gives a
    violation <a', b^w> at z, and b^w again has the order of b (and (c)
    still holds, as conjugation maps minimal non-cyclic groups to such).
    b must still range over every cyclic subgroup, since w is spent on a.

(c) Only pairs that can generate a minimal non-cyclic K (all of whose
    proper subgroups are cyclic) are closed, and only up to |K|.  A
    non-cyclic H <= C_G(z) missing z contains such a K (a least non-cyclic
    subgroup), which misses z too.  By Miller and Moreno, Trans. AMS 4
    (1903), K is C_p x C_p, Q8 or C_p x| C_{q^m} (p != q, y^q central for
    y of order q^m), generated by elements of orders (p, p), (4, 4) or
    (p, q^m), and |K| = p^2, 8 or p.q^m.  A pair of other orders, or whose
    closure passes that bound, generates no such K and is skipped.  Within
    its bound <a,b> is non-cyclic iff p = q (two distinct cyclic subgroups
    of one order) or ab != ba (commuting a, b of coprime orders generate
    the cyclic C_{p^e q^f}).  A non-cyclic <a,b> then has exactly that
    order, and is minimal iff: (p, p); or (4, 4) and ab != ba (Q8, not
    C4 x C2); or (p, q^m) and x of order p commutes with y^q (else
    <x, y^q> is a smaller non-cyclic group; if so, Z = <y^q> is central
    and K/Z of order pq is not abelian: if p > q, <x> is normal and K is
    C_p x| C_{q^m} as listed; if q > p, <y> is, and x, fixing y^q, acts
    trivially on it unless m = 1, when K is C_q x| C_p).  Only minimal K
    are taken as witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .constructors import ActionSpec
from .fields import factorize, is_prime
from .groups import FiniteGroup, SubgroupRef, close_generators
from .lattice import all_subgroups, maximal_subgroups
from .perms import Perm

METHOD_PAIR = "pair-reduced"
METHOD_BRUTE = "all-subgroups"
METHOD_WITNESS = "witness"
METHOD_CYCLIC = "cyclic-reduced"


@dataclass(frozen=True)
class Witness:
    """A violating subgroup (by generators) and a centralizing outsider."""

    generators: tuple[Perm, ...]
    z: Perm

    def to_json(self) -> dict:
        return {
            "generators": [g.cycle_string() for g in self.generators],
            "z": self.z.cycle_string(),
        }


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witness: Witness | None
    method: str

    def to_json(self, group_spec: str, cls: str) -> dict:
        return {
            "group": group_spec,
            "class": cls,
            "member": self.member,
            "method": self.method,
            "witness": self.witness.to_json() if self.witness else None,
        }


def is_self_centralizing(G: FiniteGroup, S: SubgroupRef) -> bool:
    """C_G(S) <= S."""
    cmask = G.centralizer_mask(S.generating_set())
    return (cmask & ~S.mask) == 0


def in_class_X(G: FiniteGroup) -> MembershipVerdict:
    """Decide class-X membership by the centralizer-first pair scan.

    For each conjugacy class representative z with non-cyclic W = C_G(z),
    b ranges over the cyclic subgroups of prime-power order in W and a over
    one of them per W-conjugacy orbit; only minimal non-cyclic <a,b> are
    sought, so only pairs of orders (p, p), (4, 4) or (p, q^m) are closed,
    each only up to p^2, 8 or p.q^m elements (cuts (a)-(c) of the module
    docstring).  W is cyclic iff one of its members has order |W|, so orders
    and cyclic subgroups are asked for only inside the centralizers scanned,
    and the representatives are found once per distinct W (once in all for
    an abelian G).  On failure the witness is the first violation in
    (z, orbit-rep a, b) order of this reduced scan, each ascending by
    element index, so it is deterministic and generates a minimal
    non-cyclic group.
    """
    # (prime, exponent) of a prime-power order, else None; for two of them,
    # |K| of a minimal non-cyclic K they generate (cut (c)), or 0 if none
    prime_power = cache(lambda o: f[0] if len(f := factorize(o)) == 1 else None)

    @cache
    def bound(m: int, n: int) -> int:
        (p, e), (q, f) = prime_power(m), prime_power(n)
        return (m * n if min(e, f) == 1 and (p != q or m == n)
                else 8 if m == n == 4 else 0)

    abelian = G.is_abelian
    memo: dict[tuple[int, int], int] = {}
    scans: dict[int, tuple[list, list]] = {}  # per distinct W: reps, orbit reps

    for z in G.class_representatives():
        if z == 0:
            continue
        wmask = G.full_mask if abelian else G.centralizer_mask([z])
        if wmask not in scans:
            W = SubgroupRef(G, wmask)
            # a cyclic W cannot contain a non-cyclic subgroup: nothing to scan
            reps = [] if W.is_cyclic() else [
                (i, o) for i in W.indices()
                if G.cyclic_rep(i) == i and prime_power(o := G.element_order(i))]
            ids = [i for i, _ in reps]
            scans[wmask] = reps, (ids if abelian or not ids else
                                  G.cyclic_orbit_reps(ids, W.generating_set()))
        reps, orbit_reps = scans[wmask]
        for a in orbit_reps:
            oa = G.element_order(a)
            for b, ob in reps:
                if a == b or not (kbound := bound(oa, ob)):
                    continue  # if any bound, b in <a> iff a == b
                key = (a, b) if a < b else (b, a)
                kmask = memo.get(key)
                if kmask is None:
                    kmask = memo[key] = G.bounded_closure_mask(key, kbound)
                if (kmask and not (kmask >> z) & 1
                        and _is_minimal(G, a, b, prime_power)):
                    return MembershipVerdict(
                        member=False,
                        witness=Witness(
                            (G.element(a), G.element(b)), G.element(z)
                        ),
                        method=METHOD_PAIR,
                    )
    return MembershipVerdict(member=True, witness=None, method=METHOD_PAIR)


def _is_minimal(G: FiniteGroup, a: int, b: int, prime_power) -> bool:
    """Whether <a,b>, within its bound of cut (c), is minimal non-cyclic
    (the test proved there)."""
    (p, e), (q, f) = (prime_power(G.element_order(i)) for i in (a, b))
    if p == q:
        return e == 1 or G.mul(a, b) != G.mul(b, a)
    if G.mul(a, b) == G.mul(b, a):
        return False  # <a,b> is cyclic
    x, y = (a, G.power(b, q)) if e == 1 else (b, G.power(a, p))
    return G.mul(x, y) == G.mul(y, x)


def in_class_X_bruteforce(G: FiniteGroup) -> MembershipVerdict:
    """The literal quantifier: scan every non-cyclic subgroup.

    Oracle for in_class_X; requires full subgroup enumeration.
    """
    for S in all_subgroups(G):
        if S.is_cyclic():
            continue
        cmask = G.centralizer_mask(S.generating_set())
        outside = cmask & ~S.mask
        if outside:
            z = (outside & -outside).bit_length() - 1
            return MembershipVerdict(
                member=False,
                witness=Witness(tuple(S.generators()), G.element(z)),
                method=METHOD_BRUTE,
            )
    return MembershipVerdict(member=True, witness=None, method=METHOD_BRUTE)


def in_class_C(G: FiniteGroup) -> MembershipVerdict:
    """Decide class-C membership by scanning cyclic subgroups only.

    If every non-trivial cyclic subgroup is self-centralizing, then every
    non-trivial subgroup H is: pick a non-trivial a in H, then
    C_G(H) <= C_G(a) <= <a> <= H.  Conjugation-invariance lets a range
    over class representatives.
    """
    abelian = G.is_abelian
    for a in G.class_representatives():
        if a == 0:
            continue
        centralizer = G.full_mask if abelian else G.commute_mask(a)
        outside = centralizer & ~G.cyclic_mask(a)
        if outside:
            z = (outside & -outside).bit_length() - 1
            return MembershipVerdict(
                member=False,
                witness=Witness((G.element(a),), G.element(z)),
                method=METHOD_CYCLIC,
            )
    return MembershipVerdict(member=True, witness=None, method=METHOD_CYCLIC)


def verify_witness(G: FiniteGroup, verdict: MembershipVerdict,
                   cls: str = "X") -> bool:
    """Re-verify a false verdict's witness by direct computation."""
    if verdict.member or verdict.witness is None:
        return False
    w = verdict.witness
    gens = [G.index_of(g) for g in w.generators]
    z = G.index_of(w.z)
    kmask = G.closure_mask(gens)
    if (kmask >> z) & 1:
        return False
    if any((G.commute_mask(z) >> g) & 1 == 0 for g in gens):
        return False
    S = SubgroupRef(G, kmask)
    if cls == "X":
        return not S.is_cyclic()
    return S.order > 1


# -- structure description -----------------------------------------------------


@dataclass(frozen=True)
class StructureDescriptor:
    order: int
    is_abelian: bool
    abelian_invariants: tuple[int, ...] | None
    nilpotency_class: int | None
    is_supersolvable: bool
    two_group_family: str  # dihedral | semidihedral | quaternion | other
    center_order: int

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "is_abelian": self.is_abelian,
            "abelian_invariants": (
                list(self.abelian_invariants)
                if self.abelian_invariants is not None
                else None
            ),
            "nilpotency_class": self.nilpotency_class,
            "is_supersolvable": self.is_supersolvable,
            "two_group_family": self.two_group_family,
            "center_order": self.center_order,
        }


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dk of an abelian group, ascending."""
    if not G.is_abelian:
        raise ValueError("abelian invariants are defined for abelian groups")
    n = G.order
    if n == 1:
        return ()
    orders = G.element_orders()
    partitions: dict[int, list[int]] = {}
    for p, _ in factorize(n):
        p_part = 1
        rest = n
        while rest % p == 0:
            rest //= p
            p_part *= p
        # s_k = #elements of order dividing p^k = p^(sum_i min(lambda_i, k))
        exps = [0]
        k = 1
        while p ** exps[-1] < p_part:
            pk = p**k
            count = sum(1 for o in orders if pk % o == 0)
            e = 0
            while count > 1:
                count //= p
                e += 1
            exps.append(e)
            k += 1
        parts_ge = [exps[i] - exps[i - 1] for i in range(1, len(exps))]
        lam = []
        for size in range(1, len(parts_ge) + 1):
            larger = parts_ge[size] if size < len(parts_ge) else 0
            lam.extend([size] * (parts_ge[size - 1] - larger))
        partitions[p] = sorted(lam, reverse=True)
    width = max(len(lam) for lam in partitions.values())
    factors = []
    for i in range(width):
        d = 1
        for p, lam in partitions.items():
            if i < len(lam):
                d *= p ** lam[i]
        factors.append(d)
    return tuple(reversed(factors))


def two_group_family(G: FiniteGroup) -> str:
    """Recognize maximal-class 2-groups by order, class, and involution count."""
    n = G.order
    if n < 8 or n & (n - 1):
        return "other"
    e = n.bit_length() - 1
    if G.nilpotency_class() != e - 1:
        return "other"
    involutions = sum(1 for o in G.element_orders() if o == 2)
    if involutions == n // 2 + 1:
        return "dihedral"
    if involutions == 1:
        return "quaternion"
    if e >= 4 and involutions == n // 4 + 1:
        return "semidihedral"
    return "other"


def is_supersolvable(G: FiniteGroup) -> bool:
    """Classical criterion: every maximal subgroup has prime index."""
    if G.order == 1:
        return True
    return all(
        is_prime(G.order // M.order) for M in maximal_subgroups(G)
    )


def structure(G: FiniteGroup) -> StructureDescriptor:
    ab = G.is_abelian
    return StructureDescriptor(
        order=G.order,
        is_abelian=ab,
        abelian_invariants=abelian_invariants(G) if ab else None,
        nilpotency_class=G.nilpotency_class(),
        is_supersolvable=is_supersolvable(G),
        two_group_family=two_group_family(G),
        center_order=G.center().order,
    )


def is_dihedral_group(G: FiniteGroup) -> bool:
    """Order 2m with a cyclic <y> of order m inverted by an outside involution."""
    n = G.order
    if n % 2:
        return False
    m = n // 2
    orders = G.element_orders()
    for y in range(G.order):
        if orders[y] != m:
            continue
        ymask = G.cyclic_mask(y)
        yinv = G.inv(y)
        for x in range(1, G.order):
            if orders[x] == 2 and not (ymask >> x) & 1:
                if G.conj(y, x) == yinv:
                    return True
    return False


# -- actions -------------------------------------------------------------------


def acts_fixed_point_freely(spec: ActionSpec) -> bool:
    """No non-identity acting element fixes a non-identity target element."""
    H, N = spec.acting, spec.target
    for h in range(1, H.order):
        img = spec.automorphism(h).images
        if any(img[i] == i for i in range(1, N.order)):
            return False
    return True


# -- certificates and simplicity -------------------------------------------------


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of a subgroup-closure non-membership certificate."""

    ambient: str
    conclusive: bool
    subgroup_order: int
    verdict: MembershipVerdict | None

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient,
            "conclusive": self.conclusive,
            "subgroup_order": self.subgroup_order,
            "verdict": (
                self.verdict.to_json(self.ambient, "X") if self.verdict else None
            ),
        }


def certify_non_membership(
    ambient_label: str,
    gens: list[Perm],
) -> CertificateResult:
    """Certify an ambient group out of class X from a small subgroup.

    Class X is subgroup closed, so a constructed subgroup K outside the
    class excludes every group containing K.  K's violation witness is a
    triple of ambient-degree permutations, hence directly re-checkable in
    the ambient group.  If K is in the class the attempt is inconclusive.
    """
    K = close_generators(gens)
    inner = in_class_X(K)
    if inner.member:
        return CertificateResult(ambient_label, False, K.order, None)
    return CertificateResult(
        ambient_label,
        True,
        K.order,
        MembershipVerdict(member=False, witness=inner.witness, method=METHOD_WITNESS),
    )


def is_simple(G: FiniteGroup) -> bool:
    """No proper non-trivial normal subgroup (normal closures of class reps)."""
    if G.order == 1:
        return False
    for rep in G.class_representatives():
        if rep == 0:
            continue
        if G.normal_closure([rep]).order < G.order:
            return False
    return True
