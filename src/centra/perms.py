"""Permutations on {0..n-1} with a fixed composition convention.

Composition applies the right factor first: ``(p * q)(i) == p[q[i]]``.
Every operation in this package (conjugation, regular actions, coset
actions) is written against that convention.
"""

from __future__ import annotations

import json
from math import lcm
from typing import Iterable

from .errors import DegreeMismatchError


class Perm:
    """An immutable bijection on {0..degree-1}, stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        seen = [False] * n
        for v in imgs:
            if not isinstance(v, int) or not (0 <= v < n) or seen[v]:
                raise ValueError(f"not a bijection on 0..{n - 1}: {imgs!r}")
            seen[v] = True
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> Perm:
        """Wrap an image tuple already known to be a bijection."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> Perm:
        return Perm(range(degree))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __mul__(self, other: Perm) -> Perm:
        # apply `other` first, then self
        if not isinstance(other, Perm):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        s = self.images
        return Perm._unchecked(tuple(s[v] for v in other.images))

    def inverse(self) -> Perm:
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm._unchecked(tuple(inv))

    def __pow__(self, k: int) -> Perm:
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate_by(self, g: Perm) -> Perm:
        """Return self^g = g^-1 * self * g."""
        return g.inverse() * self * g

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: Perm) -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm({self.cycle_string()!r}, degree={self.degree})"

    def cycles(self, include_fixed: bool = False) -> list[list[int]]:
        """Disjoint cycle decomposition; each cycle starts at its least point."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            cur, cyc = start, []
            while not seen[cur]:
                seen[cur] = True
                cyc.append(cur)
                cur = self.images[cur]
            if len(cyc) > 1 or include_fixed:
                out.append(cyc)
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def cycle_string(self) -> str:
        """Format in 1-based cycle notation, e.g. "(1,2)(3,4,5)"."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)

    def to_json(self) -> list[int]:
        return list(self.images)

    @staticmethod
    def from_json(data) -> Perm:
        if isinstance(data, str):
            data = json.loads(data)
        return Perm(int(v) for v in data)


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like "(1,2)(3,4,5)" into a 0-based Perm.

    Whitespace between points is tolerated; "()" denotes the identity.
    """
    images = list(range(degree))
    touched = [False] * degree
    i = 0
    text = text.strip()
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ValueError(f"expected '(' at position {i} in {text!r}")
        j = text.index(")", i)
        body = text[i + 1 : j].strip()
        i = j + 1
        if not body:
            continue
        points = []
        for tok in body.replace(",", " ").split():
            p = int(tok) - 1
            if not (0 <= p < degree):
                raise ValueError(f"point {tok} out of range for degree {degree}")
            if touched[p]:
                raise ValueError(f"point {tok} repeated in {text!r}")
            touched[p] = True
            points.append(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return Perm(images)


def perms_from_cycles(texts: Iterable[str], degree: int) -> list[Perm]:
    return [parse_cycles(t, degree) for t in texts]
