"""Finite permutation groups with exact integer tables.

Elements are indexed by breadth-first closure order from the input
generators, so index 0 is always the identity and every element ``g`` has a
recorded factorisation ``g = gen * earlier_element``. The closure composes
every generator with every element and records which element each product
is, so it also yields the rows of left translation by the generators; the
multiplication table, the inverse table and the verification of actions
and representations are built from those rows and look nothing up.

The closure runs one level at a time, on one of two paths chosen by the
level's size. A level with fewer than 512 products (``_NUMPY_LEVEL``)
looks each product's image row up by its bytes in a dict. From the first
level that reaches 512 products, the rest runs in numpy: each product's
key is read from its images of a base (an element of a permutation group
is determined by them), and a dense table maps the key to the one kept
row that may equal the product. Every match is compared with that row, so
the key only speeds lookups: the base starts empty and grows by a point
wherever two distinct rows share a key, and if the table would pass
``_KEY_TABLE_ENTRIES`` entries the closure rebuilds the dict and finishes
on it. Both paths give the same elements in the same order.

Any other row is found by its bytes: the image rows, viewed as fixed-width
byte strings, are sorted on the first lookup and searched with
``np.searchsorted``. Multiplication tables are materialised only up to a
size cap; larger groups compose image rows and look the products up in
blocks."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import config
from .errors import CapacityError, DomainError, InvariantError, StructuralError
from .perms import Permutation, from_cycles, identity

_PRODUCT_BLOCK = 1 << 20  # composed image entries per lookup block
_NUMPY_LEVEL = 512  # products in the first closure level closed in numpy
_KEY_TABLE_ENTRIES = 1 << 22  # entries of the base-image key table, at most


def _index_array(items: Iterable[int], size: int, what: str) -> np.ndarray:
    """The distinct entries of `items` as a sorted int64 array, sorted
    from a Python set; DomainError if one lies outside 0..size-1."""
    distinct = sorted({int(i) for i in items})
    if distinct and (distinct[0] < 0 or distinct[-1] >= size):
        raise DomainError(f"{what} index outside 0..{size - 1}")
    return np.array(distinct, dtype=np.int64)


def _membership(size: int, indices) -> np.ndarray:
    """The boolean array over 0..size-1 that is True at every entry of
    `indices`, an index array of any shape with repeats allowed."""
    member = np.zeros(size, dtype=bool)
    member[indices] = True
    return member


class _BaseKeys:
    """Element indices of image rows, keyed by their images of a base.

    A row's key is the mixed-radix number whose digits are the positions
    of its base images in their orbits; a dense int32 table maps each key
    to the kept row that has it, or -1. Equal rows have equal keys, so a
    key the table lacks is a new row, and a key it holds names the one
    kept row that the product may equal; every such match is compared row
    against row, so the key only speeds lookups. The base starts empty and
    grows by a point where two distinct rows share a key. ``level``
    returns None when the table would pass ``_KEY_TABLE_ENTRIES``."""

    def __init__(self, gens: np.ndarray):
        images = gens.T.tolist()  # images[x]: the generators' images of x
        pos, size = [-1] * len(images), [0] * len(images)
        for x in range(len(images)):
            if pos[x] < 0:
                pos[x], orbit = 0, [x]
                for y in orbit:
                    for z in images[y]:
                        if pos[z] < 0:
                            pos[z] = len(orbit)
                            orbit.append(z)
                for y in orbit:
                    size[y] = len(orbit)
        self._pos = np.array(pos, dtype=np.int64)  # place in its orbit
        self._size = size
        # (base point, each image's value as that point's key digit)
        self._weights: list[tuple[int, np.ndarray]] = []
        self._entries = 1
        self._table: np.ndarray | None = None  # None until indexed

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        keys = np.zeros(len(rows), dtype=np.int64)
        for point, weight in self._weights:
            keys += weight.take(rows[:, point])
        return keys

    def _extend(self, p: np.ndarray, q: np.ndarray) -> bool:
        """Add a point where rows p and q differ to the base; False if the
        table would then pass its bound."""
        x = int(np.flatnonzero(p != q)[0])
        entries = self._entries * self._size[x]
        if entries > _KEY_TABLE_ENTRIES:
            return False
        self._weights.append((x, self._pos * self._entries))
        self._entries = entries
        self._table = None
        return True

    def _index(self, kept: np.ndarray) -> bool:
        """Table the kept rows, extending the base until their keys differ."""
        at = np.arange(len(kept), dtype=np.int32)
        while True:
            keys = self._keys(kept)
            table = np.full(self._entries, -1, dtype=np.int32)
            table[keys[::-1]] = at[::-1]  # a reversed scatter keeps the first
            clash = np.flatnonzero(table[keys] != at)
            if not clash.size:
                self._table = table
                return True
            i = clash[0]
            if not self._extend(kept[i], kept[table[keys[i]]]):
                return False

    def level(self, prods: np.ndarray, kept: np.ndarray):
        """The element index of every product in `prods`, a level after
        the rows `kept`, and the positions of its new elements' first
        occurrences, whose indices follow len(kept) in product order; None
        if the table would pass its bound."""
        order = len(kept)
        while self._table is not None or self._index(kept):
            table = self._table
            keys = self._keys(prods)
            found = table[keys]
            hit = np.flatnonzero(found >= 0)
            clash = _first_clash(prods.take(hit, axis=0),
                                 kept.take(found[hit], axis=0))
            if clash is not None:
                i = hit[clash]
                if not self._extend(prods[i], kept[found[i]]):
                    return None
                continue
            miss = np.flatnonzero(found < 0)
            new_keys = keys[miss]
            table[new_keys[::-1]] = -2 - miss[::-1]  # each key's first product
            firsts = -2 - table[new_keys]
            clash = _first_clash(prods.take(miss, axis=0),
                                 prods.take(firsts, axis=0))
            if clash is not None:
                if not self._extend(prods[miss[clash]], prods[firsts[clash]]):
                    return None
                continue
            at = miss[firsts == miss]
            table[keys[at]] = np.arange(order, order + len(at), dtype=np.int32)
            found[miss] = table[new_keys]
            return found, at
        return None


def _first_clash(a: np.ndarray, b: np.ndarray) -> int | None:
    """The first row where `a` and `b` differ, or None if they are equal."""
    if np.array_equal(a, b):
        return None
    return int(np.argmax((a != b).any(axis=1)))


def _grown(rows: np.ndarray, kept: int, need: int, limit: int) -> np.ndarray:
    """`rows`, whose first `kept` rows count, in a buffer of at least `need`
    rows: twice as many, but never more than `limit`."""
    if need <= len(rows):
        return rows
    out = np.empty((min(max(2 * len(rows), need), limit), rows.shape[1]),
                   dtype=rows.dtype)
    out[:kept] = rows[:kept]
    return out


def _closure(gens: np.ndarray, order_cap: int, table_cap: int):
    """Breadth-first closure of the generator rows `gens`, one frontier
    level at a time: the image rows, every product's element index
    (edges[f * m + s] is the index of s * f), each element's generator and
    parent, and the index where each level starts, with the end.

    A level's new elements are its products s * f in (f, s) order, first
    occurrences only, so the element order is that of a scalar BFS. Levels
    with fewer than _NUMPY_LEVEL products look each product's bytes up in
    a dict; from the first level that reaches it, the rest runs in numpy on
    _BaseKeys, until its table would pass its bound: then the dict is
    rebuilt from the kept rows and the closure finishes on it."""
    m, degree = gens.shape
    key = np.dtype((np.void, 4 * degree))  # an image row as bytes
    limit = min(order_cap, table_cap // degree)  # the rows the caps admit
    gens_t = np.ascontiguousarray(gens.T)
    frontier = np.arange(degree, dtype=np.int32)[None]
    index: dict | None = {frontier.tobytes(): 0}
    levels, rows, base = [frontier], None, None
    switch = _NUMPY_LEVEL  # never again once the closure has switched
    edges, gen_of, parent_of = array("i"), array("i", [-1]), array("i", [-1])
    starts = [0, 1]  # the index of each level's first element, and the end
    first, order = 0, 1  # the index of frontier[0], the elements so far
    while len(frontier):
        prods = np.ascontiguousarray(  # gens_t[y, s] = gens[s, y]
            gens_t.take(frontier, axis=0).swapaxes(1, 2)).reshape(-1, degree)
        if len(prods) >= switch:
            switch = math.inf
            rows, levels, index = np.concatenate(levels), None, None
            base = _BaseKeys(gens)
        if base is not None:
            step = base.level(prods, rows[:order])
            if step is None:  # the key table would pass its bound
                base, levels = None, [rows[:order]]
                index = dict(zip(levels[0].view(key)[:, 0].tolist(),
                                 range(order)))
        if base is None:
            at = []
            nxt = order
            setdefault, record = index.setdefault, edges.append
            for i, k in enumerate(prods.view(key)[:, 0].tolist()):
                j = setdefault(k, nxt)
                record(j)
                if j == nxt:
                    nxt += 1
                    at.append(i)
                    gen_of.append(i % m)
                    parent_of.append(i // m + first)
        else:
            found, at = step
            nxt = order + len(at)
            edges.frombytes(found.tobytes())
            gen_of.frombytes((at % m).astype(np.int32).tobytes())
            parent_of.frombytes((at // m + first).astype(np.int32).tobytes())
        if nxt > order_cap:
            raise CapacityError("MAX_GROUP_ORDER", order_cap, order_cap + 1,
                                hint="closure still growing")
        if nxt * degree > table_cap:
            raise CapacityError("MAX_ACT_TABLE_ENTRIES", table_cap,
                                nxt * degree,
                                hint="image rows, closure still growing")
        frontier = prods.take(at, axis=0)
        if base is None:
            levels.append(frontier)
        else:
            rows = _grown(rows, order, nxt, limit)
            rows[order:nxt] = frontier
        first, order = order, nxt
        starts.append(order)
    del index, base  # freed before the element list is built
    if levels is not None:
        rows = np.concatenate(levels)
    elif len(rows) > order:
        rows = rows[:order].copy()
    return rows, edges, gen_of, parent_of, starts


class FiniteGroup:
    def __init__(self, generators: Sequence[Permutation], *, name: str | None = None):
        if not generators:
            raise StructuralError("need at least one generator")
        degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise StructuralError("generators have inconsistent degrees")
        order_cap = config.cap("MAX_GROUP_ORDER")
        table_cap = config.cap("MAX_ACT_TABLE_ENTRIES")
        self.degree = degree
        self.name = name or "gen<" + ", ".join(str(g) for g in generators) + ">"
        gens = np.array(list(dict.fromkeys(g.images for g in generators)),
                        dtype=np.int32)
        m = len(gens)
        self.images, edges, gen_of, parent_of, self._level_starts = _closure(
            gens, order_cap, table_cap)
        order = self.order = len(self.images)
        self._key = np.dtype((np.void, 4 * degree))  # for the lookup index
        # row s is left translation by generator s: _gen_rows[s, f] = s * f
        self._gen_rows = np.ascontiguousarray(
            np.frombuffer(edges, dtype=np.int32).reshape(order, m).T)
        self.generator_indices = tuple(self._gen_rows[:, 0].tolist())
        self._gen_of = np.frombuffer(gen_of, dtype=np.int32)
        self._parent_of = np.frombuffer(parent_of, dtype=np.int32)

        self.mul_table: np.ndarray | None = None
        self._row_cache: dict[int, np.ndarray] = {}
        if self.order * self.order <= config.cap("MAX_MUL_TABLE_ENTRIES"):
            self._build_mul_table()
        else:
            self._row_cache.update(zip(self.generator_indices, self._gen_rows))
        self._subgroups: list["Subgroup"] | None = None

    @cached_property
    def elements(self) -> list[Permutation]:
        """The elements as permutations, in index order, built on first
        read; closure rows are permutations, so they are not re-checked."""
        return [Permutation.unchecked(tuple(r)) for r in self.images.tolist()]

    @cached_property
    def _key_order(self) -> np.ndarray:
        """Element indices in order of their row keys, built on first lookup."""
        return np.argsort(self.images.view(self._key)[:, 0]).astype(np.int32)

    @cached_property
    def _keys(self) -> np.ndarray:
        """The row keys, sorted, for ``np.searchsorted``."""
        return self.images.view(self._key)[:, 0][self._key_order]

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Index of each element's inverse, built on first read along the
        closure factorisation g = s * f, one level at a time, looking
        nothing up.

        Row s of ``right`` is right translation by the inverse of
        generator s: it maps e to s^-1, found by walking the powers of s,
        and s' * f to s' * (f * s^-1), the generator row of s' at the
        parent's entry. Then (s * f)^-1 = f^-1 * s^-1 is row s at f^-1."""
        rows, gen_of, parent_of = self._gen_rows, self._gen_of, \
            self._parent_of
        right = np.empty((len(rows), self.order), dtype=np.int32)
        for s, row in enumerate(rows):
            x = 0
            while (y := int(row[x])) != 0:  # s * x, until s * x = e
                x = y
            right[s, 0] = x
        levels = list(zip(self._level_starts[1:], self._level_starts[2:]))
        for lo, hi in levels:
            right[:, lo:hi] = rows[gen_of[lo:hi], right[:, parent_of[lo:hi]]]
        inv = np.zeros(self.order, dtype=np.int32)
        for lo, hi in levels:
            inv[lo:hi] = right[gen_of[lo:hi], inv[parent_of[lo:hi]]]
        return inv

    def _lookup(self, rows) -> np.ndarray:
        """Element indices of image rows; DomainError names a non-element."""
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        if rows.shape[-1] == self.degree:
            keys = rows.view(self._keys.dtype)[..., 0]
            pos = np.minimum(np.searchsorted(self._keys, keys), self.order - 1)
            found = self._keys[pos] == keys
            if found.all():
                return self._key_order[pos]
            rows = rows[~found]
        bad = Permutation(tuple(rows.reshape(-1, rows.shape[-1])[0].tolist()))
        raise DomainError(f"{bad} is not an element of {self.name}")

    def _products(self, a, b) -> np.ndarray:
        """The |a| x |b| array of element indices ``a[i] * b[j]``."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.mul_table is not None:
            return self.mul_table[a[:, None], b]
        out = np.empty((a.size, b.size), dtype=np.int32)
        right = self.images[b]
        step = max(1, _PRODUCT_BLOCK // max(1, right.size))
        for lo in range(0, a.size, step):
            out[lo:lo + step] = self._lookup(
                np.take(self.images[a[lo:lo + step]], right, axis=1))
        return out

    def _build_mul_table(self) -> None:
        n = self.order
        table = np.empty((n, n), dtype=np.int32)
        table[0] = np.arange(n, dtype=np.int32)
        # every row by left-translation composition along the closure
        # factorisation g = s * parent, from the generator rows it recorded
        for g in range(1, n):
            s_row = self._gen_rows[self._gen_of[g]]
            table[g] = s_row[table[self._parent_of[g]]]
        self.mul_table = table

    # -- element arithmetic ------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self.mul_table is not None:
            return int(self.mul_table[i, j])
        return int(self._products([i], [j])[0, 0])

    def mul_row(self, g: int) -> np.ndarray:
        """Row of left translation by g: ``row[h] = index(g * h)``; without
        a table, the closure's generator rows are cached from the start."""
        if self.mul_table is not None:
            return self.mul_table[g]
        row = self._row_cache.get(g)
        if row is None:
            row = self._row_cache[g] = self._lookup(self.images[g][self.images])
        return row

    def element_index(self, p: Permutation) -> int:
        return int(self._lookup([p.images])[0])

    @property
    def identity_index(self) -> int:
        return 0

    def is_abelian(self) -> bool:
        gi = self.generator_indices
        return all(self.mul(a, b) == self.mul(b, a) for a in gi for b in gi)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order}, degree={self.degree})"

    # -- subsets -----------------------------------------------------------

    def _as_indices(self, A: Iterable[int]) -> np.ndarray:
        return _index_array(A, self.order, "element")

    def product_set(self, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
        a, b = self._as_indices(A), self._as_indices(B)
        member = _membership(self.order, self._products(a, b))
        return frozenset(np.flatnonzero(member).tolist())

    def inverse_set(self, A: Iterable[int]) -> frozenset[int]:
        return frozenset(self.inv_table[self._as_indices(A)].tolist())

    def translate_set(self, g: int, A: Iterable[int]) -> frozenset[int]:
        return frozenset(self._products([g], self._as_indices(A))[0].tolist())

    def generated_set(self, S: Iterable[int]) -> frozenset[int]:
        """Element set of the subgroup generated by S (empty S gives trivial)."""
        gens = self._as_indices(S)
        member = np.zeros(self.order, dtype=bool)
        member[0] = True
        if gens.size == 0:
            return frozenset({0})
        frontier = np.array([0], dtype=np.int64)
        while frontier.size:
            prods = np.unique(self._products(frontier, gens))
            new = prods[~member[prods]]
            member[new] = True
            frontier = new
        return frozenset(np.flatnonzero(member).tolist())

    def generated_subgroup(self, S: Iterable[int]) -> "Subgroup":
        return Subgroup(self, self.generated_set(S), _verified=True)

    def subgroups(self) -> list["Subgroup"]:
        """All subgroups, sorted by (order, member tuple).

        Bottom-up lattice search: each known subgroup is extended by one
        representative of every double coset of outside elements.
        """
        limit = config.cap("MAX_SUBGROUP_ENUM_ORDER")
        if self.order > limit:
            raise CapacityError("MAX_SUBGROUP_ENUM_ORDER", limit, self.order)
        if self._subgroups is not None:
            return list(self._subgroups)
        n = self.order
        seen: set[frozenset[int]] = {frozenset({0})}
        queue: list[frozenset[int]] = [frozenset({0})]
        while queue:
            H = queue.pop()
            harr = np.fromiter(sorted(H), dtype=np.int64)
            covered = np.zeros(n, dtype=bool)
            covered[harr] = True
            for g in range(n):
                if covered[g]:
                    continue
                gH = self._products([g], harr)[0]
                covered[self._products(harr, gH)] = True  # the double coset HgH
                K = self.generated_set(list(H) + [g])
                if K not in seen:
                    seen.add(K)
                    queue.append(K)
        subs = [Subgroup(self, m, _verified=True) for m in seen]
        subs.sort(key=lambda s: (s.order, s.member_tuple))
        self._subgroups = subs
        return list(subs)

    def left_cosets(self, H: "Subgroup") -> "CosetDecomposition":
        if H.group is not self:
            raise StructuralError("subgroup belongs to a different group")
        n = self.order
        harr = np.fromiter(H.member_tuple, dtype=np.int64)
        rep_of = np.full(n, -1, dtype=np.int32)
        reps: list[int] = []
        cosets: list[frozenset[int]] = []
        for g in range(n):
            if rep_of[g] >= 0:
                continue
            coset = self._products([g], harr)[0]
            rep_of[coset] = len(reps)
            reps.append(g)
            cosets.append(frozenset(coset.tolist()))
        if len(reps) * H.order != n:
            raise InvariantError("cosets do not partition the group")
        return CosetDecomposition(self, H, tuple(reps), rep_of, cosets)


@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    members: frozenset[int]
    _verified: bool = False

    def __post_init__(self) -> None:
        if not self._verified:
            _verify_subgroup(self.group, self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def member_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group.name})"


def _verify_subgroup(G: FiniteGroup, members: frozenset[int]) -> None:
    if 0 not in members:
        raise InvariantError("subgroup must contain the identity")
    if min(members) < 0 or max(members) >= G.order:
        raise DomainError("member index out of range")
    arr = np.fromiter(members, dtype=np.int64, count=len(members))
    if not members.issuperset(G.inv_table[arr].tolist()):
        raise InvariantError("set is not inverse-closed")
    if not _membership(G.order, arr)[G._products(arr, arr)].all():
        raise InvariantError("set is not product-closed")


@dataclass(frozen=True)
class CosetDecomposition:
    group: FiniteGroup
    subgroup: Subgroup
    representatives: tuple[int, ...]
    rep_position: np.ndarray  # element index -> position in representatives
    cosets: list[frozenset[int]]

    @property
    def index(self) -> int:
        return len(self.representatives)


# -- constructors -----------------------------------------------------------


def _check_order(name: str, factors: Iterable[int]) -> None:
    """Refuse a group whose order, the product of `factors`, passes
    MAX_GROUP_ORDER, before any generator is built; the product stops at
    the first partial product past the cap, which divides the order."""
    limit = config.cap("MAX_GROUP_ORDER")
    order = 1
    for f in factors:
        order *= f
        if order > limit:
            raise CapacityError("MAX_GROUP_ORDER", limit, order,
                                hint=f"a divisor of the order of {name}")


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise DomainError("need n >= 1")
    _check_order(f"S{n}", range(2, n + 1))
    if n == 1:
        gens = [identity(1)]
    elif n == 2:
        gens = [from_cycles(2, [(0, 1)])]
    else:
        gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])]
    return FiniteGroup(gens, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n < 3:
        raise DomainError("need n >= 3")
    _check_order(f"A{n}", range(3, n + 1))
    gens = [from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
    return FiniteGroup(gens, name=f"A{n}")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise DomainError("need n >= 1")
    _check_order(f"C{n}", (n,))
    return FiniteGroup([from_cycles(n, [tuple(range(n))])], name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon on n vertices, order 2n (n >= 3)."""
    if n < 3:
        raise DomainError("need n >= 3")
    _check_order(f"D{n}", (2, n))
    rot = from_cycles(n, [tuple(range(n))])
    refl = Permutation(tuple((-i) % n for i in range(n)))
    return FiniteGroup([rot, refl], name=f"D{n}")


def _check_prime(p: int) -> None:
    """Refuse p unless it is prime, by trial division."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise DomainError(f"{p} is not prime")


def _primitive_root(p: int) -> int:
    for r in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * r % p
            seen.add(x)
        if len(seen) == p - 1:
            return r
    raise InvariantError(f"no primitive root modulo {p}")


def affine_gl1(p: int) -> FiniteGroup:
    """Maps x -> a*x + b on the prime field of order p; group order p*(p-1)."""
    _check_order(f"Aff({p})", (p, p - 1))
    _check_prime(p)
    shift = Permutation(tuple((x + 1) % p for x in range(p)))
    gens = [shift]
    if p > 2:
        r = _primitive_root(p)
        gens.append(Permutation(tuple(x * r % p for x in range(p))))
    G = FiniteGroup(gens, name=f"Aff({p})")
    if G.order != p * (p - 1):
        raise InvariantError("affine group has unexpected order")
    return G


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """Product acting on the disjoint union of the factors' domains."""
    d1, d2 = G1.degree, G2.degree
    gens = []
    for gi in G1.generator_indices:
        imgs = tuple(G1.images[gi].tolist()) + tuple(range(d1, d1 + d2))
        gens.append(Permutation(imgs))
    for gi in G2.generator_indices:
        imgs = tuple(range(d1)) + tuple((G2.images[gi] + d1).tolist())
        gens.append(Permutation(imgs))
    G = FiniteGroup(gens, name=f"{G1.name}x{G2.name}")
    if G.order != G1.order * G2.order:
        raise InvariantError("direct product has unexpected order")
    return G


def from_generators(perms: Sequence[Permutation], *, name: str | None = None
                    ) -> FiniteGroup:
    return FiniteGroup(perms, name=name)
