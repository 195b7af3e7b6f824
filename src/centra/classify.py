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
generator of the same cyclic subgroup does not change <a,b>).  Five further
cuts keep the scan sound and close no subgroup:

(a) a and b may be taken of prime-power order: the generators in (c) are.

(b) a may be taken from one cyclic subgroup per W-conjugacy orbit.  Let
    <a,b> violate at z and w in W.  Conjugation by w fixes z and maps W to
    itself, so <a^w, b^w> = <a,b>^w is non-cyclic, lies in W, and misses
    z^w = z.  Choosing w with <a>^w the orbit representative <a'> gives a
    violation <a', b^w> at z, and b^w again has the order of b (and (c)
    still holds, as conjugation maps minimal non-cyclic groups to such).
    b must still range over every cyclic subgroup, since w is spent on a.

(c) Only pairs generating a minimal non-cyclic K (all of whose proper
    subgroups are cyclic) are taken, and the defining relations of K
    decide which pairs do.  A non-cyclic H <= C_G(z) missing z contains
    such a K (a least non-cyclic subgroup), which misses z too.  By Miller
    and Moreno, Trans. AMS 4 (1903), K is C_p x C_p, Q8 or C_p x| C_{q^m}
    (p != q, y^q central for y of order q^m), generated by elements of
    orders (p, p), (4, 4) or (p, q^m); pairs of other orders are skipped.
    For a, b of those orders generating distinct cyclic subgroups:
    - (p, p): <a,b> = C_p x C_p iff ab = ba (then <a><b> has p^2 elements,
      as <a> n <b> = 1; conversely a group of order p^2 is abelian).
    - (4, 4): <a,b> = Q8 iff ab != ba, a^2 = b^2 and b normalizes <a>.  If
      so, <a> is normal of index 2 (b^2 = a^2), so |<a,b>| = 8, and of the
      non-abelian groups of order 8 only Q8 has two cyclic subgroups of
      order 4; Q8 satisfies the relations.
    - (p, q^m): let x be the one of prime order (when m = 1, the one of the
      larger prime) and y the other, of order r^n.  <x,y> is minimal
      non-cyclic iff xy != yx, y normalizes <x> and x commutes with y^r.
      If so, <x><y> is a subgroup of order p.r^n (coprime orders), not
      abelian, with Z = <y^r> central.  A proper subgroup is an r-group,
      inside a cyclic Sylow subgroup, or holds some x' of order p and then,
      being proper, an r-part of order below r^n, which lies in the
      central Z: so it lies in <x'> x Z, abelian with coprime cyclic
      factors.  Either way it is cyclic.
      Conversely let K = <x,y> be minimal non-cyclic.  Then xy != yx
      (commuting elements of coprime orders generate a cyclic group) and x
      commutes with y^r (else <x, y^r> is a smaller non-cyclic subgroup),
      so Z = <y^r> is central and K/Z, of order pr, is not abelian (else
      it is cyclic, and K abelian).  Its Sylow subgroup for the larger
      prime is normal.  If p > r that is <xZ>; its preimage <x> x Z has
      <x> as its only Sylow p-subgroup, so <x> is normal in K and y
      normalizes it.  If r > p it is <yZ>, so <y> is normal in K and x
      acts on it by an automorphism y -> y^k fixing y^r, i.e. with
      k = 1 mod r^(n-1).  For n > 1 these automorphisms form a group of
      order r, so x, of order p, acts trivially, against xy != yx.  So
      r > p forces n = 1: both orders are prime, and x was chosen as the
      one of the larger prime, which is the case p > r.
    All relations are compared on base images, for all b of one a at once.

(d) z lies in K iff it lies in a set known without closing K.  a and b
    lie in C_G(z), so z centralizes K, and z lies in K iff it lies in
    Z(K) = K n C_G(K).  For K = C_p x C_p, Z(K) = K, the union of its p + 1
    subgroups of order p, <a> and the <a^j b>: one lookup of the p products
    a^j b gives its bit-set.  Otherwise Z(K) lies in a cyclic subgroup of K,
    <a> for Q8 (Z(Q8) = <a^2>) and <y> for C_p x| C_{q^m} (Z(K) = <y^r>:
    K/<y^r> is non-abelian of order pr, with trivial center), and a z
    centralizing K lies in K iff it lies in that cyclic subgroup, whose
    bit-set is already cached.

(e) z is skipped when |G| / |z^G| = |z|.  The class walk gives |z^G|, and
    |C_G(z)| = |G| / |z^G| (orbit-stabilizer).  <z> <= C_G(z), so equal
    orders mean W = <z>: W is cyclic and holds no non-cyclic subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

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
    one of them per W-conjugacy orbit.  A pair counts only if it generates a
    minimal non-cyclic K, which the defining relations of K decide (cuts
    (a)-(c) of the module docstring), and z then lies in K iff it lies in
    <a><b> for an abelian K, else in the cyclic subgroup of a or b that
    holds Z(K) (cut (d)): no subgroup is closed.  The relations of each a
    are tested in one numpy batch over every b of W, once per distinct W.

    The class walk gives |W| = |G| / |z^G|, so a z with |W| = |z| is
    skipped before W is built (cut (e)); W is the whole group for a central
    z, else the commute mask of z.  Otherwise W is cyclic iff one of its
    members has order |W|, so orders and cyclic subgroups are asked for only
    of the z and inside the centralizers scanned.  The representatives are
    found once per distinct W (once in all for an abelian G), and their
    W-orbits by conjugating each orbit's least member by every element of W
    at once, so no generating set of W is closed.  The class
    representatives come one class walk at a time, so a non-member walks
    only the classes up to its first violating one.  On failure the witness
    is the first violation in (z, orbit-rep a, b) order of this reduced
    scan, each ascending by element index, so it is deterministic and
    generates a minimal non-cyclic group.
    """
    # (prime, exponent) of a prime-power order, else None
    prime_power = cache(lambda o: f[0] if len(f := factorize(o)) == 1 else None)
    abelian = G.is_abelian
    # per distinct W: reps, orbit reps, and per orbit rep a its minimal pairs
    scans: dict[int, tuple[list, list, dict]] = {}

    for z, size in G.class_representatives():
        # |W| = |G| / |z^G|, and <z> = W if |z| = |W| (cut (e))
        if z == 0 or G.order // size == G.element_order(z):
            continue
        wmask = G.full_mask if size == 1 else G.commute_mask(z)
        if wmask not in scans:
            W = SubgroupRef(G, wmask)
            # a cyclic W cannot contain a non-cyclic subgroup: nothing to scan
            ws = [] if W.is_cyclic() else W.indices()
            reps = [(i, o) for i in ws
                    if G.cyclic_rep(i) == i and prime_power(o := G.element_order(i))]
            ids = [i for i, _ in reps]
            scans[wmask] = reps, (ids if abelian or not ids else G.cyclic_orbit_reps(
                ids, ws)), {}
        reps, orbit_reps, pairs = scans[wmask]
        for a in orbit_reps:
            if a not in pairs:
                pairs[a] = [(b, kmask) for b, kmask in
                            _relations(G, a, reps, prime_power).items() if kmask]
            b = next((b for b, kmask in pairs[a] if not (kmask >> z) & 1), None)
            if b is not None:
                return MembershipVerdict(
                    member=False,
                    witness=Witness((G.element(a), G.element(b)), G.element(z)),
                    method=METHOD_PAIR,
                )
    return MembershipVerdict(member=True, witness=None, method=METHOD_PAIR)


# the forms of a minimal non-cyclic <a,b> (cut (c)): C_p x C_p, Q8, and
# C_p x| C_{q^m} with x (of order p) = a or x = b
_ABELIAN, _Q8, _X_A, _X_B = range(4)


def _relations(G: FiniteGroup, a: int, reps: list[tuple[int, int]],
               prime_power) -> dict[int, int]:
    """For each (b, order of b) of ``reps``: 0 if <a,b> is not minimal
    non-cyclic, else the bit-set of a subset of K = <a,b> that holds Z(K),
    so that an element centralizing K lies in K iff it lies there (cut (d)):
    K itself if K is C_p x C_p, else <a> (Q8, or C_p x| C_{q^m} with x = b)
    or <b> (x = a).  The relations of cut (c) are compared on base images,
    in one numpy batch per form for all b."""
    out = dict.fromkeys((b for b, _ in reps), 0)
    oa = G.element_order(a)
    p, e = prime_power(oa)
    cands, forms = [], []
    for b, o in reps:
        q, f = prime_power(o)
        if b == a:
            continue
        if p == q:
            form = _ABELIAN if o == oa and e == 1 else _Q8 if o == oa == 4 else None
        else:  # x is the one of prime order, of the larger prime if both are
            form = _X_A if e == 1 and (f > 1 or p > q) else _X_B if f == 1 else None
        if form is not None:
            cands.append(b)
            forms.append(form)
    if not cands:
        return out
    E, base = G.matrix, G.base
    B = np.array(cands)[:, None]
    on_base = E[B, base]  # b(beta), a row per b
    ab = E[a][on_base]  # (ab)(beta) = a(b(beta))
    # C_p x C_p needs ab = ba, the other forms ab != ba
    rows: list[list[int]] = [[], [], [], []]
    for i, commute in enumerate((ab == E[B, E[a, base]]).all(1).tolist()):
        if commute == (forms[i] == _ABELIAN):
            rows[forms[i]].append(i)
    if rows[_ABELIAN] or rows[_Q8] or rows[_X_A]:
        powers = E[G.mask_indices(G.cyclic_mask(a))]  # the rows of <a>
    if t := rows[_ABELIAN]:
        # C_p x C_p is the union of its p + 1 subgroups of order p: <a> and
        # the <a^j b>, found in one lookup
        for i, products in zip(t, G._find(powers[:, on_base[t]]).T.tolist()):
            mask = G.cyclic_mask(a)
            for c in products:
                mask |= G.cyclic_mask(c)
            out[cands[i]] = mask
    # Q8 and x = a: b normalizes <a>, i.e. ab = b a^j for some j
    if t := rows[_Q8] + rows[_X_A]:
        normal = (E[B[t, None], powers[:, base]] == ab[t, None]).all(2).any(1)
        normal = dict(zip(t, normal.tolist()))
    # Q8 also needs a^2 = b^2
    if t := [i for i in rows[_Q8] if normal[i]]:
        squares = (E[B[t], on_base[t]] == E[a][E[a, base]]).all(1).tolist()
        out.update((cands[i], G.cyclic_mask(a)) for i, ok in zip(t, squares) if ok)
    # x = a, y = b of order q^m: a commutes with b^q, which for m > 1 is
    # compared on the base and its image under a
    by_prime: dict[int, list[int]] = {}
    for i in rows[_X_A]:
        if normal[i]:
            q, f = prime_power(G.element_order(cands[i]))
            if f == 1:
                out[cands[i]] = G.cyclic_mask(cands[i])
            else:
                by_prime.setdefault(q, []).append(i)
    for q, t in by_prime.items():
        k, points = len(base), np.concatenate([base, E[a, base]], dtype=np.intp)
        power = E[B[t], points]
        for _ in range(q - 1):
            power = E[B[t], power]
        ok = (E[a][power[:, :k]] == power[:, k:]).all(1).tolist()
        out.update((cands[i], G.cyclic_mask(cands[i])) for i, c in zip(t, ok) if c)
    # x = b, y = a: a normalizes <b> (a^-1 b a generates <b>, which has prime
    # order), and b commutes with a^p if a has order p^m, m > 1
    if t := rows[_X_B]:
        xs = [cands[i] for i in t]
        conjugates = G.conjugates(xs, [a])[0].tolist()
        ok = np.array([G.cyclic_rep(c) == x for c, x in zip(conjugates, xs)])
        if e > 1:
            ap = G.power(a, p)
            ok &= (E[B[t], E[ap, base]] == E[ap][on_base[t]]).all(1)
        out.update((x, G.cyclic_mask(a)) for x, c in zip(xs, ok.tolist()) if c)
    return out


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
    over class representatives.  <a> <= C_G(a), and the class walk gives
    |C_G(a)| = |G| / |a^G|, so a passes exactly when that equals |a|; the
    commute mask of the first a that fails is read only to name the least
    z of C_G(a) outside <a> as the witness.
    """
    for a, size in G.class_representatives():
        if a == 0 or G.order // size == G.element_order(a):
            continue
        centralizer = G.full_mask if size == 1 else G.commute_mask(a)
        outside = centralizer & ~G.cyclic_mask(a)
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
    if G.order % 2:
        return False
    orders = G.element_orders()
    involutions = [x for x in range(G.order) if orders[x] == 2]
    for y in range(G.order):
        if orders[y] == G.order // 2:
            ymask = G.cyclic_mask(y)
            outside = [x for x in involutions if not (ymask >> x) & 1]
            if (G.conjugates([y], outside) == G.inv(y)).any():
                return True
    return False


# -- actions -------------------------------------------------------------------


def acts_fixed_point_freely(spec: ActionSpec) -> bool:
    """No non-identity acting element fixes a non-identity target element:
    no row h > 0 of the action's graph (h, phi(h)) has phi(h) fix a point
    past the target identity's."""
    d = spec.acting.degree + 1
    return not (spec.graph.matrix[1:, d:] == np.arange(d, spec.graph.degree)).any()


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
    for rep, _ in G.class_representatives():
        if rep == 0:
            continue
        if G.normal_closure([rep]).order < G.order:
            return False
    return True
