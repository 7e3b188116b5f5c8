"""Verified group actions on finite point sets.

An action is stored as a full table ``row[g][x] = g.x`` and is checked at
construction: the identity row, the generator rows as bijections, and the
homomorphism law ``row[s * h] = row[s][row[h]]`` for every generator ``s``
against every element ``h``. Every non-identity element is ``s * parent``
with ``s`` a generator and the parent earlier in closure order, so
induction along that factorisation gives the law for all pairs and makes
every row a composition of generator rows, so a bijection. The law reads
entries clipped to the domain, so it never indexes outside it, and the
first bad row in closure order fails its own (s, parent) comparison. When
the law fails, every row is checked as a bijection first, so a table is
refused with the message of an all-rows, all-pairs check. The law is
checked against the products ``s * h`` that the group's closure found
(``FiniteGroup.mul_row`` on a generator), so verification looks no
element up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import config
from .errors import DomainError, InvariantError, StructuralError
from .groups import (FiniteGroup, Subgroup, _index_array, _membership,
                     _orbits)
from .rationals import exact_fraction as _exact_ratio


def _check_bijections(rows: np.ndarray) -> None:
    if not (np.sort(rows, axis=1) == np.arange(rows.shape[1])).all():
        raise InvariantError("some row is not a bijection of the domain")


class GroupAction:
    def __init__(self, group: FiniteGroup, domain_size: int, table: np.ndarray,
                 *, name: str | None = None):
        config.require("MAX_ACT_TABLE_ENTRIES", group.order * domain_size)
        table = np.ascontiguousarray(table, dtype=np.int32)
        if table.shape != (group.order, domain_size):
            raise StructuralError(
                f"table shape {table.shape} != (order, domain) = "
                f"({group.order}, {domain_size})")
        self.group = group
        self.domain_size = domain_size
        self.table = table
        self.name = name or f"action<{group.name} on {domain_size}>"
        self._orbits: OrbitDecomposition | None = None
        self._profile: ActionProfile | None = None
        self._verify()

    def _verify(self) -> None:
        table, gens = self.table, self.group.generator_indices
        if not np.array_equal(table[0], np.arange(self.domain_size)):
            raise InvariantError("identity row does not fix the domain")
        _check_bijections(table.take(gens, axis=0))
        # one pair of buffers serves every generator, as fresh ones cost
        # page faults; "clip" also keeps take from buffering its output
        lhs, rhs = np.empty_like(table), np.empty_like(table)
        for g in gens:
            table.take(self.group.mul_row(g), axis=0, out=lhs, mode="clip")
            table[g].take(table, out=rhs, mode="clip")
            if not np.array_equal(lhs, rhs):
                _check_bijections(table)
                h = int(np.nonzero((lhs != rhs).any(axis=1))[0][0])
                raise InvariantError(
                    f"homomorphism law fails at (g, h) = ({g}, {h})")

    # -- basic queries -------------------------------------------------------

    def act(self, g: int, x: int) -> int:
        return int(self.table[g, x])

    def act_row(self, g: int) -> np.ndarray:
        return self.table[g]

    def _point_indices(self, Y: Iterable[int]) -> np.ndarray:
        return _index_array(Y, self.domain_size, "point")

    def act_point_set(self, g: int, Y: Iterable[int]) -> frozenset[int]:
        return frozenset(self.table[g][self._point_indices(Y)].tolist())

    def act_set(self, A: Iterable[int], Y: Iterable[int]) -> frozenset[int]:
        """The product set A.Y of all images of Y under elements of A."""
        a, y = self.group._as_indices(A), self._point_indices(Y)
        member = _membership(self.domain_size,
                             self.table.take(a, axis=0).take(y, axis=1))
        return frozenset(np.flatnonzero(member).tolist())

    def image_size(self, A: Iterable[int], Y: Iterable[int]) -> int:
        return len(self.act_set(A, Y))

    # -- orbits and stabilizers ----------------------------------------------

    def orbit_decomposition(self) -> "OrbitDecomposition":
        if self._orbits is None:
            orbits = _orbits(self.table[list(self.group.generator_indices)])
            orbit_of = np.empty(self.domain_size, dtype=np.int32)
            for i, orbit in enumerate(orbits):
                orbit_of[orbit] = i
            self._orbits = OrbitDecomposition(
                tuple(o[0] for o in orbits), orbit_of,
                [frozenset(o) for o in orbits], len(orbits))
        return self._orbits

    def _overlaps(self, Y: Iterable[int], what: str
                  ) -> tuple[np.ndarray, int]:
        """|g.Y meet Y| for every element g, and |Y|."""
        y = self._point_indices(Y)
        if y.size == 0:
            raise DomainError(f"{what} needs a nonempty set")
        memb = _membership(self.domain_size, y)
        return memb.take(self.table.take(y, axis=1)).sum(axis=1), int(y.size)

    def set_stabilizer(self, Y: Iterable[int]) -> Subgroup:
        """Elements g with |g.Y meet Y| = |Y|."""
        counts, size = self._overlaps(Y, "set stabilizer")
        return Subgroup(self.group,
                        frozenset(np.flatnonzero(counts == size).tolist()),
                        _verified=True)

    def symmetry_set(self, Y: Iterable[int], alpha) -> frozenset[int]:
        """Elements g with |g.Y meet Y| >= alpha |Y| (alpha an exact
        rational)."""
        a = _exact_ratio(alpha)
        counts, size = self._overlaps(Y, "symmetry set")
        keep = counts * a.denominator >= a.numerator * size
        return frozenset(np.flatnonzero(keep).tolist())

    def weak_stabilizer(self, Y: Iterable[int]) -> frozenset[int]:
        """Elements g with |g.Y meet Y| >= 1."""
        counts, _size = self._overlaps(Y, "weak stabilizer")
        return frozenset(np.flatnonzero(counts >= 1).tolist())

    def profile(self) -> "ActionProfile":
        if self._profile is not None:
            return self._profile
        dec = self.orbit_decomposition()
        fixed = self.table == np.arange(self.domain_size)  # g.x == x
        kernel = frozenset(np.flatnonzero(fixed.all(axis=1)).tolist())
        self._profile = ActionProfile(
            group_order=self.group.order,
            domain_size=self.domain_size,
            orbit_sizes=tuple(sorted(len(o) for o in dec.orbits)),
            transitive=dec.count == 1,
            faithful=len(kernel) == 1,
            free=not fixed[1:].any(),
            kernel_order=len(kernel),
            kernel=kernel,
        )
        return self._profile

    def __repr__(self) -> str:
        return f"GroupAction({self.name})"


@dataclass(frozen=True)
class OrbitDecomposition:
    representatives: tuple[int, ...]  # each orbit's least point
    orbit_of: np.ndarray = field(metadata={"reported": False})  # point's orbit
    orbits: list[frozenset[int]]
    count: int


@dataclass(frozen=True)
class ActionProfile:
    group_order: int
    domain_size: int
    orbit_sizes: tuple[int, ...]
    transitive: bool
    faithful: bool
    free: bool
    kernel_order: int
    kernel: frozenset[int] = field(metadata={"reported": False})


# -- constructors -----------------------------------------------------------


def natural_action(G: FiniteGroup) -> GroupAction:
    """G acting through its defining permutation representation."""
    return GroupAction(G, G.degree, G.images, name=f"natural<{G.name}>")


def left_translation_action(G: FiniteGroup) -> GroupAction:
    config.require("MAX_ACT_TABLE_ENTRIES", G.order * G.order)
    ar = np.arange(G.order)
    rows = G._products(ar, ar)
    return GroupAction(G, G.order, rows, name=f"left<{G.name}>")


def conjugation_action(G: FiniteGroup) -> GroupAction:
    config.require("MAX_ACT_TABLE_ENTRIES", G.order * G.order)
    # row g holds g x g^-1 for every x: row g^-1 of the conjugates
    rows = G._conjugates(np.arange(G.order))[G.inv_table]
    return GroupAction(G, G.order, rows, name=f"conj<{G.name}>")


def coset_action(G: FiniteGroup, H: Subgroup) -> GroupAction:
    config.require("MAX_ACT_TABLE_ENTRIES", G.order * (G.order // H.order))
    cd = G.left_cosets(H)
    rows = cd.rep_position[G._products(np.arange(G.order),
                                       cd.representatives)]
    return GroupAction(G, cd.index, rows, name=f"cosets<{G.name}/{H.order}>")
