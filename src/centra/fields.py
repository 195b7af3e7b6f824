"""Small finite fields GF(p^m) with exp/log tables for the unit group.

Elements are indexed 0..q-1: index = c0 + c1*p + ... + c_{m-1}*p^{m-1}
for the coefficient vector of the residue polynomial.  Multiplication goes
through discrete-log tables built from a primitive element found at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_FIELD_SIZE = 4096

# deterministic moduli for the fields the projective constructions rely on
_BUNDLED_POLYS = {
    (2, 2): (1, 1, 1),       # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),    # x^3 + x + 1
    (3, 2): (1, 0, 1),       # x^2 + 1
}


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num by monic den over GF(p); coefficients ascending."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] % p
        if c:
            for j, dc in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - c * dc) % p
    return [c % p for c in num[:dn]]


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) by trial division."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    # any root gives a linear factor
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if m <= 3:
        return True
    # search monic divisors of degree 2..m//2
    def divisors(deg):
        for packed in range(p**deg):
            cs, v = [], packed
            for _ in range(deg):
                cs.append(v % p)
                v //= p
            yield tuple(cs) + (1,)

    for deg in range(2, m // 2 + 1):
        for den in divisors(deg):
            if not any(_poly_mod(list(coeffs), den, p)):
                return False
    return True


@dataclass
class FieldSpec:
    """GF(p^m) with tabulated unit-group arithmetic."""

    p: int
    m: int
    irreducible: tuple[int, ...]
    exp_table: list[int] = field(repr=False)
    log_table: list[int] = field(repr=False)

    @property
    def q(self) -> int:
        return self.p**self.m

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    @property
    def primitive(self) -> int:
        return self.exp_table[1]

    def elements(self) -> range:
        return range(self.q)

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _pack(self, digits: list[int]) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + (d % self.p)
        return v

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._pack([x + y for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self._pack([-d for d in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self.exp_table[(self.log_table[a] * k) % (self.q - 1)]

    def basis(self) -> list[int]:
        """Additive basis 1, x, x^2, ... as element indices."""
        return [self.p**j for j in range(self.m)]


def _raw_mul(a: int, b: int, p: int, m: int, irreducible: tuple[int, ...]) -> int:
    """Table-free product used to bootstrap the exp table."""
    da, db = [], []
    va, vb = a, b
    for _ in range(m):
        da.append(va % p)
        va //= p
        db.append(vb % p)
        vb //= p
    conv = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                conv[i + j] += x * y
    rem = _poly_mod(conv, irreducible, p) if m > 1 else [conv[0] % p]
    v = 0
    for d in reversed(rem):
        v = v * p + d
    return v


def gf(p: int, m: int = 1) -> FieldSpec:
    """Construct GF(p^m); p prime, p^m <= 4096.

    Bundled irreducible polynomials cover GF(4), GF(8), GF(9); other
    extensions search monic polynomials in deterministic order.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    q = p**m
    if q > MAX_FIELD_SIZE:
        raise ValueError(f"field too large: {p}^{m} = {q} > {MAX_FIELD_SIZE}")

    if m == 1:
        irreducible = (0, 1)  # x
    elif (p, m) in _BUNDLED_POLYS:
        irreducible = _BUNDLED_POLYS[(p, m)]
        if not _poly_is_irreducible(irreducible, p):
            raise AssertionError("bundled polynomial is reducible")
    else:
        irreducible = None
        for packed in range(q):
            cs, v = [], packed
            for _ in range(m):
                cs.append(v % p)
                v //= p
            cand = tuple(cs) + (1,)
            if _poly_is_irreducible(cand, p):
                irreducible = cand
                break
        if irreducible is None:
            raise AssertionError(f"no irreducible polynomial found for GF({q})")

    # find a primitive element by order computation
    group_order = q - 1
    primitive = None
    for g in range(2, q):
        x, order = g, 1
        while x != 1:
            x = _raw_mul(x, g, p, m, irreducible)
            order += 1
            if order > group_order:
                raise AssertionError("unit order exceeded q-1; field broken")
        if order == group_order:
            primitive = g
            break
    if primitive is None:
        if q == 2:
            primitive = 1
        else:
            raise AssertionError(f"no primitive element in GF({q})")

    exp_table = [1] * max(group_order, 1)
    log_table = [0] * q
    x = 1
    for i in range(group_order):
        exp_table[i] = x
        log_table[x] = i
        x = _raw_mul(x, primitive, p, m, irreducible)
    if x != 1:
        raise AssertionError("primitive element does not have order q-1")
    return FieldSpec(p=p, m=m, irreducible=irreducible,
                     exp_table=exp_table, log_table=log_table)
