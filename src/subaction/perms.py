"""Permutations on {0, ..., n-1} with exact composition.

Composition follows the function convention: ``(g * h)(x) == g(h(x))``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralError


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise StructuralError(f"not a permutation of 0..{n - 1}: {self.images}")

    @classmethod
    def unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation whose images are already known to be one."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise StructuralError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation(tuple(self.images[y] for y in other.images))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "e"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def from_cycles(degree: int, cycles: list[tuple[int, ...]] | list[list[int]]) -> Permutation:
    images = list(range(degree))
    used: set[int] = set()
    for cyc in cycles:
        if used & set(cyc) or len(set(cyc)) != len(cyc):
            raise StructuralError(f"cycles must be disjoint and repetition-free: {cycles}")
        for x in cyc:
            if not 0 <= x < degree:
                raise StructuralError(f"point {x} outside 0..{degree - 1}")
        used.update(cyc)
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))
