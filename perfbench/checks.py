"""Independent correctness checks for the benchmark.

Nothing here imports centra.  Verdicts come from the paper's statements,
evaluated from a group's parameters; group orders come from closed
formulas; non-membership witnesses are re-checked with plain permutation
products on image tuples, where ``(p * q)[i] == p[q[i]]``.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

from math import factorial, gcd

# -- number theory ---------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def is_fermat_prime(p: int) -> bool:
    return is_prime(p) and is_power_of_two(p - 1)


def is_mersenne_prime(p: int) -> bool:
    return is_prime(p) and is_power_of_two(p + 1)


def prime_pair(n: int) -> tuple[int, int] | None:
    """(p, q) with n = p * q, p > q both prime, or None."""
    for q in range(2, n):
        if n % q == 0:
            p = n // q
            return (p, q) if p > q and is_prime(p) and is_prime(q) else None
    return None


# -- closed order formulas ---------------------------------------------------------


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def psl3_order(p: int) -> int:
    return p**3 * (p**3 - 1) * (p**2 - 1) // gcd(3, p - 1)


def sym_order(n: int) -> int:
    return factorial(n)


def alt_order(n: int) -> int:
    return factorial(n) // 2


# -- verdicts from the paper's statements --------------------------------------------


def psl2_member(q: int) -> bool:
    """PSL2(q) is in class X iff q in {4, 9} or q is a Fermat or Mersenne prime."""
    return q in (4, 9) or is_fermat_prime(q) or is_mersenne_prime(q)


def dihedral_member(n: int) -> bool:
    """The dihedral group of order 2n is in class X iff n is odd or a power of two."""
    return n % 2 == 1 or is_power_of_two(n)


def abelian_member(factors: tuple[int, ...]) -> bool:
    """An abelian group is in class X iff it is cyclic or C_p x C_p."""
    if len(factors) == 1:
        return True
    return len(factors) == 2 and factors[0] == factors[1] and is_prime(factors[0])


def class_c_member(order: int, abelian: bool) -> bool:
    """Class C holds iff |G| is prime, or G is non-abelian of order pq, q | p-1."""
    if is_prime(order):
        return True
    pq = prime_pair(order)
    return not abelian and pq is not None and (pq[0] - 1) % pq[1] == 0


# -- permutations as image tuples ------------------------------------------------------


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p * q, applying q first."""
    return tuple(p[v] for v in q)


def closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """All products of the generators, by breadth-first search."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def perm_order(p: tuple[int, ...]) -> int:
    identity = tuple(range(len(p)))
    k, cur = 1, p
    while cur != identity:
        cur = compose(p, cur)
        k += 1
    return k


def check_witness(cls: str, degree: int, witness: dict | None) -> list[str]:
    """Re-check a non-membership witness {"generators": [...], "z": ...}.

    Class X: the generators commute with z, and their closure leaves z out
    and is not cyclic.  Class C: one non-trivial generator a commutes with z
    and z lies outside <a>.
    """
    if witness is None:
        return ["non-member verdict without a witness"]
    gens = [tuple(g) for g in witness["generators"]]
    z = tuple(witness["z"])
    if not gens or any(len(g) != degree for g in gens) or len(z) != degree:
        return ["witness degree differs from the group's"]
    problems = []
    if any(compose(g, z) != compose(z, g) for g in gens):
        problems.append("a witness generator does not commute with z")
    K = closure(gens)
    if z in K:
        problems.append("z lies inside the witness subgroup")
    if cls == "X":
        if any(perm_order(k) == len(K) for k in K):
            problems.append("the witness subgroup is cyclic")
    elif len(gens) != 1 or len(K) == 1:
        problems.append("a class-C witness is one non-trivial element")
    return problems


def check_verdict(op, order: int, member: bool, witness: dict | None,
                  degree: int) -> list[str]:
    """Compare one operation's output with the facts the operation carries."""
    problems = []
    if order != op.order:
        problems.append(f"order {order}, expected {op.order}")
    if member != op.member:
        problems.append(
            f"class {op.cls}: {'member' if member else 'non-member'}, "
            f"expected {'member' if op.member else 'non-member'}"
        )
    elif not member:
        problems.extend(check_witness(op.cls, degree, witness))
    return problems


# -- the bundled manifest -----------------------------------------------------------------

# instances of the 11 sweeps, and of the whole bundled manifest (3 spot checks more)
MANIFEST_SWEEP_INSTANCES = 301
MANIFEST_INSTANCES = 304


def manifest_prediction(instance: str) -> str | None:
    """The expected verdict of a manifest instance, where its id names the group.

    Returns "member" / "non-member", or None for instances whose id does not
    carry enough to evaluate the paper's statements here.
    """
    theorem, _, label = instance.partition("/")
    if theorem == "p-dihedral" and label.startswith("n="):
        return _word(dihedral_member(int(label[2:])))
    if theorem == "t-finitesimple":
        family, _, arg = label.partition(":")
        if family == "psl2":
            return _word(psl2_member(int(arg)))
        if family == "alt" and arg in ("5", "6"):  # A5 = PSL2(4), A6 = PSL2(9)
            return "member"
    if theorem == "t-finitep":
        family, _, arg = label.partition(":")
        if family in ("dihedral", "sd", "q") and is_power_of_two(int(arg)):
            return "member"  # 2-groups of maximal class
        if family == "xsp":
            return "member"  # non-abelian groups of order p^3
    if theorem == "t-abelian" and label.startswith("n="):
        factors = tuple(int(f) for f in label.partition("-")[2].split("x"))
        return _word(abelian_member(factors))
    if theorem == "class-C-finite":
        family, _, arg = label.partition(":")
        if family == "cyclic":
            return _word(is_prime(int(arg)))
        if family == "dihedral" and int(arg) >= 6:
            return _word(class_c_member(int(arg), abelian=False))
        if family == "abelian":
            return "non-member"  # non-cyclic abelian: never of prime order
    return None


def _word(member: bool) -> str:
    return "member" if member else "non-member"


def check_manifest(reports: list[dict],
                   expected: int = MANIFEST_INSTANCES) -> tuple[int, list[str]]:
    """Check manifest reports: every instance ran, passed, and agrees with
    the independent prediction where one exists.

    Returns (failed instances, problems).  A missing instance counts as
    failed, so a pass always attempts `expected` instances.
    """
    problems = []
    failed_ids = set()
    ids = [r["instance"] for r in reports]
    if len(set(ids)) != len(ids):
        problems.append("duplicate instance ids in the report")
    for r in reports:
        iid = r["instance"]
        if r["skipped"]:
            problems.append(f"{iid}: skipped")
            failed_ids.add(iid)
        elif r["passed"] is not True:
            problems.append(f"{iid}: computed {r['computed']!r}, expected {r['expected']!r}")
            failed_ids.add(iid)
        predicted = manifest_prediction(iid)
        if predicted is not None and r["computed"] != predicted:
            problems.append(f"{iid}: computed {r['computed']!r}, paper says {predicted!r}")
            failed_ids.add(iid)
    if len(set(ids)) != expected:
        problems.append(f"{len(set(ids))} instances ran, expected {expected}")
    return len(failed_ids) + max(expected - len(set(ids)), 0), problems
