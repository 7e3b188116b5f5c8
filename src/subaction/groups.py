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
looks each product's image row up by its bytes in a dict. While every
point fits in a byte (degree at most 256), a row's bytes hold one byte per
point and s * f is f's bytes passed through ``bytes.translate`` with s's
row as the table, so such a level makes no numpy call; past 256 points
they hold int32 entries, composed in numpy. From the first level that
reaches 512 products, the rest runs in numpy: each product's key is read
from its images of a base (an element of a permutation group is
determined by them), and a dense table maps the key to the one kept row
that may equal the product. Every match is compared with that row, so the
key only speeds lookups: the base starts empty and grows by a point
wherever two distinct rows share a key, and if the table would pass
``_KEY_TABLE_ENTRIES`` entries the closure rebuilds the dict and finishes
on it. Both paths give the same elements in the same order.

Lookups use the closure's key. The closure hands back its base without
the dense table, and the first lookup tables every element on it in one
pass (a group whose closure never switched to numpy grows a base from its
generator rows then). The key then separates all elements, so the base is
a base in Sims's sense, and a product's key needs only base images,
(a * b)(x) = a(b(x)): a block of products costs one gather per base point,
composes no rows, and is read from the table as it is, since every
product of elements is an element; so are the rows of ``mul_row``.
``element_index``, given any row, compares it with the element its key
names. Where the table would pass ``_KEY_TABLE_ENTRIES``, as where the
closure hands back to the dict, rows are found by their bytes instead:
the image rows, viewed as fixed-width byte strings, are sorted on the
first such lookup and searched with ``np.searchsorted``, and products
are composed and looked up. Multiplication tables are materialised only
up to a size cap, row by row along the closure's factorisation, as bytes
through ``bytes.translate`` while the indices fit in a byte (order at most
256); larger groups find products in blocks."""

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

# a block of tableless products holds at most this many products times
# the degree; a subgroup check, this many products
_PRODUCT_BLOCK = 1 << 20
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


def _orbits(rows) -> list[list[int]]:
    """The orbits on 0..d-1 of the group generated by the permutation rows
    `rows` (m x d), in order of least point, each listed breadth-first from
    its least point with the rows taken in order."""
    images = np.asarray(rows).T.tolist()  # images[x]: the rows' images of x
    seen = [False] * len(images)
    orbits = []
    for x in range(len(images)):
        if not seen[x]:
            seen[x], orbit = True, [x]
            for y in orbit:
                for z in images[y]:
                    if not seen[z]:
                        seen[z] = True
                        orbit.append(z)
            orbits.append(orbit)
    return orbits


class _BaseKeys:
    """Element indices of image rows, keyed by their images of a base.

    A row's key is the mixed-radix number whose digits are the positions
    of its base images in their orbits; a dense int32 table maps each key
    to the kept row that has it, or -1. Equal rows have equal keys, so a
    key the table lacks is a new row, and a key it holds names the one
    kept row that the product may equal; every such match is compared row
    against row, so the key only speeds lookups. The base starts empty and
    grows by a point where two distinct rows share a key. ``level``
    returns None when the table would pass ``_KEY_TABLE_ENTRIES``.

    Once ``_index`` has tabled every element of a group, the base
    separates them, and ``products`` reads products' indices from their
    base images alone."""

    def __init__(self, gens: np.ndarray):
        pos, size = [0] * gens.shape[1], [0] * gens.shape[1]
        for orbit in _orbits(gens):
            for i, y in enumerate(orbit):
                pos[y], size[y] = i, len(orbit)
        self._pos = np.array(pos, dtype=np.int64)  # place in its orbit
        self._size = size
        # (base point, each image's value as that point's key digit)
        self._weights: list[tuple[int, np.ndarray]] = []
        self._entries = 1
        self._table: np.ndarray | None = None  # None until indexed

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        # an entry outside the domain is clipped: such a row is no
        # element, which the comparison after every lookup finds
        keys = np.zeros(len(rows), dtype=np.int64)
        for point, weight in self._weights:
            keys += weight.take(rows[:, point], mode="clip")
        return keys

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The table's entry at each row's key: the kept row it may equal.
        A row that maps a base point out of its orbit is no element, and
        its key may pass the table's end, so it is clipped."""
        return self._table.take(self._keys(rows), mode="clip")

    @property
    def points(self) -> list[int]:
        return [point for point, _weight in self._weights]

    def products(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The element index of l * r for every image row l of `left` and
        every element r given by its images of the base points, the rows
        of `right`: (l * r)(x) = l(r(x)), one gather per point. The table
        must hold every element."""
        keys = np.zeros((len(left), len(right)), dtype=np.int64)
        for (_point, weight), images in zip(self._weights, right.T):
            keys += weight.take(left.take(images, axis=1))
        return self._table.take(keys)

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


def _translate_tables(rows: np.ndarray) -> list[bytes]:
    """For each row, whose entries fit in a byte, the ``bytes.translate``
    table that maps each byte x to the row's entry at x."""
    return [bytes(row).ljust(256, b"\0") for row in rows.tolist()]


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
    rebuilt from the kept rows and the closure finishes on it. The last
    value returned is the _BaseKeys the closure finished on, its dense
    table freed, or None if it finished on the dict.

    The dict's keys are the rows as bytes, in element order, so they are
    the rows until the closure switches to numpy. While every point fits
    in a byte they hold one byte per point, and s * f is f's bytes
    translated by s's row, since (s * f)(x) = s(f(x)), with no numpy call;
    past 256 points they hold int32 entries, composed in numpy."""
    m, degree = gens.shape
    # a row's dict key: its entries' bytes, one per point while they fit
    dtype = np.dtype(np.uint8 if degree <= 256 else np.int32)
    key = np.dtype((np.void, dtype.itemsize * degree))
    limit = min(order_cap, table_cap // degree)  # the rows the caps admit
    gens_t = np.ascontiguousarray(gens.T)

    def products(frontier: np.ndarray) -> np.ndarray:
        # gens_t[y, s] = gens[s, y]: row f * m + s is s * f
        return np.ascontiguousarray(gens_t.take(frontier, axis=0).swapaxes(
            1, 2)).reshape(-1, degree)

    def rows_of(keys) -> np.ndarray:
        rows = np.fromiter(keys, key, len(keys)).view(dtype)
        return rows.reshape(-1, degree).astype(np.int32, copy=False)

    def keys_of(rows: np.ndarray) -> list[bytes]:
        return rows.astype(dtype).view(key)[:, 0].tolist()

    if degree <= 256:
        tables = _translate_tables(gens)

        def compose(frontier: list[bytes]) -> list[bytes]:
            return [f.translate(t) for f in frontier for t in tables]
    else:
        def compose(frontier: list[bytes]) -> list[bytes]:
            rows = np.frombuffer(b"".join(frontier), np.int32)
            return products(rows.reshape(-1, degree)).view(key)[:, 0].tolist()

    frontier = [np.arange(degree, dtype=dtype).tobytes()]
    index: dict | None = {frontier[0]: 0}
    rows = base = None
    switch = _NUMPY_LEVEL  # never again once the closure has switched
    edges, gen_of, parent_of = array("i"), array("i", [-1]), array("i", [-1])
    starts = [0, 1]  # the index of each level's first element, and the end
    first, order = 0, 1  # the index of frontier[0], the elements so far
    while len(frontier):
        if len(frontier) * m >= switch:
            switch, base = math.inf, _BaseKeys(gens)
            rows, frontier, index = rows_of(index), rows_of(frontier), None
        if base is not None:
            prods = products(frontier)
            step = base.level(prods, rows[:order])
            if step is None:  # the key table would pass its bound
                base = None
                index = dict(zip(keys_of(rows[:order]), range(order)))
                frontier = keys_of(frontier)
        if base is None:
            new, nxt = [], order
            setdefault, record = index.setdefault, edges.append
            for i, k in enumerate(compose(frontier)):
                j = setdefault(k, nxt)
                record(j)
                if j == nxt:
                    nxt += 1
                    new.append(k)
                    gen_of.append(i % m)
                    parent_of.append(i // m + first)
            frontier = new
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
        if base is not None:
            frontier = prods.take(at, axis=0)
            rows = _grown(rows, order, nxt, limit)
            rows[order:nxt] = frontier
        first, order = order, nxt
        starts.append(order)
    if base is None:
        rows = rows_of(index)  # the keys are the rows, in element order
    else:
        base._table = None  # freed, as the dict is
        if len(rows) > order:
            rows = rows[:order].copy()
    return rows, edges, gen_of, parent_of, starts, base


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
        (self.images, edges, gen_of, parent_of, self._level_starts,
         self._base) = _closure(gens, order_cap, table_cap)
        order = self.order = len(self.images)
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
    def _key_index(self) -> _BaseKeys | None:
        """Every element tabled by its base-image key, built on the first
        lookup in one pass, on the closure's base or, if the closure never
        switched to numpy, on one grown from the generator rows; None if
        the table would pass _KEY_TABLE_ENTRIES."""
        base = self._base or _BaseKeys(
            self.images.take(self.generator_indices, axis=0))
        return base if base._index(self.images) else None

    @cached_property
    def _keys(self) -> np.ndarray:
        """The image rows as bytes, for lookups past _KEY_TABLE_ENTRIES."""
        return self.images.view(np.dtype((np.void, 4 * self.degree)))[:, 0]

    @cached_property
    def _key_order(self) -> np.ndarray:
        """Element indices in order of their row bytes."""
        return np.argsort(self._keys).astype(np.int32)

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
        # rows and right are read flat: entry x of row s is at s * order + x
        start = gen_of.astype(np.int64) * self.order
        flat = rows.ravel()
        for lo, hi in levels:
            right[:, lo:hi] = flat.take(
                start[lo:hi] + right.take(parent_of[lo:hi], axis=1))
        inv = np.zeros(self.order, dtype=np.int32)
        flat = right.ravel()
        for lo, hi in levels:
            inv[lo:hi] = flat.take(start[lo:hi] + inv.take(parent_of[lo:hi]))
        return inv

    def _lookup(self, rows) -> np.ndarray:
        """Element indices of image rows; DomainError names a non-element.
        Each row's key names the one element it may be, and the row is
        compared with that element's."""
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        if rows.shape[-1] == self.degree:
            flat = rows.reshape(-1, self.degree)
            index = self._key_index
            if index is not None:
                # a row that is no element may read -1, the last element,
                # or another one, clipped: the comparison finds it
                found = index.find(flat)
            else:
                pos = np.searchsorted(self._keys, flat.view(self._keys.dtype),
                                      sorter=self._key_order)[:, 0]
                found = self._key_order.take(np.minimum(pos, self.order - 1))
            match = (self.images.take(found, axis=0) == flat).all(axis=1)
            if match.all():
                return found.reshape(rows.shape[:-1])
            rows = flat[~match]
        bad = Permutation(tuple(rows.reshape(-1, rows.shape[-1])[0].tolist()))
        raise DomainError(f"{bad} is not an element of {self.name}")

    def _right(self, b) -> np.ndarray | None:
        """What tableless products read of their right factors `b`: the
        images of the key's base points, or past _KEY_TABLE_ENTRIES the
        image rows; None with a table."""
        if self.mul_table is not None:
            return None
        index, rows = self._key_index, self.images.take(b, axis=0)
        return rows if index is None else rows.take(index.points, axis=1)

    def _products(self, a, b, right=None) -> np.ndarray:
        """The |a| x |b| array of element indices ``a[i] * b[j]``; without
        a table, in blocks of at most _PRODUCT_BLOCK // (|b| * degree) rows
        of a, from ``_right(b)``, or `right` if a caller that multiplies by
        the same b again and again has read it once."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.mul_table is not None:
            return self.mul_table.take(a, axis=0).take(b, axis=1)
        if right is None:
            right = self._right(b)
        out = np.empty((a.size, b.size), dtype=np.int32)
        step = max(1, _PRODUCT_BLOCK // max(1, b.size * self.degree))
        index = self._key_index
        for lo in range(0, a.size, step):
            left = self.images.take(a[lo:lo + step], axis=0)
            out[lo:lo + step] = self._lookup(left.take(right, axis=1)) \
                if index is None else index.products(left, right)
        return out

    def _build_mul_table(self) -> None:
        # every row by left-translation composition along the closure
        # factorisation g = s * parent, from the generator rows it recorded:
        # row g is row f mapped through generator row s; while the indices
        # fit in a byte, as bytes translated by that row
        n = self.order
        gen_of = self._gen_of[1:].tolist()
        parent_of = self._parent_of[1:].tolist()
        if n <= 256:
            tables = _translate_tables(self._gen_rows)
            rows = [bytes(range(n))]
            for s, f in zip(gen_of, parent_of):
                rows.append(rows[f].translate(tables[s]))
            table = np.frombuffer(b"".join(rows), np.uint8).reshape(
                n, n).astype(np.int32)
        else:
            table = np.empty((n, n), dtype=np.int32)
            table[0] = np.arange(n, dtype=np.int32)
            rows = self._gen_rows
            for g, s, f in zip(range(1, n), gen_of, parent_of):
                rows[s].take(table[f], out=table[g])
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
            row = self._row_cache[g] = self._products(
                [g], np.arange(self.order))[0]
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
        member = _membership(self.order, [0])
        self._grow(member, np.zeros(1, dtype=np.int64), self._as_indices(S))
        return frozenset(np.flatnonzero(member).tolist())

    def _grow(self, member: np.ndarray, frontier: np.ndarray, gens,
              inside: np.ndarray | None = None) -> None:
        """Close the membership array `member`, which holds the distinct
        elements `frontier`, under right multiplication by `gens`, one
        level of new products at a time; InvariantError as soon as a
        product falls outside the membership array `inside`."""
        first = np.empty(self.order, dtype=np.int32)  # scatter, one per call
        right = self._right(gens)  # the same at every level
        while True:
            prods = self._products(frontier, gens, right).ravel()
            if inside is not None and not inside[prods].all():
                raise InvariantError("set is not product-closed")
            frontier = prods[~member[prods]]
            if frontier.size > 1:
                at = np.arange(frontier.size, dtype=np.int32)
                first[frontier[::-1]] = at[::-1]  # reversed: the first wins
                frontier = frontier[first[frontier] == at]
            elif not frontier.size:
                return
            member[frontier] = True

    def generated_subgroup(self, S: Iterable[int]) -> "Subgroup":
        return Subgroup(self, self.generated_set(S), _verified=True)

    def subgroups(self) -> list["Subgroup"]:
        """All subgroups, sorted by (order, member tuple).

        Bottom-up search over one queued subgroup per conjugacy class. A
        queued H is extended by one g from each double coset HgH outside
        it (all of HgH give the same K = <H, g>). A new K has all its
        conjugates t^-1 K t marked seen at once, and K alone is queued.

        This is exact. A nontrivial K has a subgroup H maximal in it, and
        K = <H, g> for any g in K - H. If H = x^-1 H' x for the queued H'
        of its class, then x K x^-1 = <H', x g x^-1> is reached from H';
        so, by induction on the order, every class is found, and marking
        the conjugates finds all its members.

        <H, g> is closed coset by coset (after Dimino) from H's queued
        generators and g, as a union of right cosets H r, from H itself.
        For each representative r and generator s, r s lies in the union
        exactly when H r s does, since right cosets partition the group;
        if not, H r s joins it and r s becomes a representative. Then
        every h r s lies in the union, which holds e and so, being closed
        under right multiplication by the generators, is <H, g>.
        """
        config.require("MAX_SUBGROUP_ENUM_ORDER", self.order)
        if self._subgroups is not None:
            return list(self._subgroups)
        n = self.order
        seen: set[frozenset[int]] = {frozenset({0})}
        # a class representative and its generators
        queue = [(np.zeros(1, dtype=np.int64), ())]
        while queue:
            harr, gens = queue.pop()
            # row x: the right coset H x (intp, for fast scatters)
            right = self._products(harr, np.arange(n)).T.astype(np.intp)
            in_h = _membership(n, harr)
            covered = in_h.copy()
            for g in np.flatnonzero(~in_h).tolist():
                if covered[g]:
                    continue
                # the double coset HgH
                covered[right[self._products([g], harr)[0]]] = True
                kgens, member = gens + (g,), in_h.copy()
                self._coset_closure(right, member, kgens)
                karr = np.flatnonzero(member)
                if frozenset(karr.tolist()) not in seen:
                    seen.update(map(frozenset,
                                    self._conjugates(karr).tolist()))
                    queue.append((karr, kgens))
        subs = [Subgroup(self, m, _verified=True) for m in seen]
        subs.sort(key=lambda s: (s.order, s.member_tuple))
        self._subgroups = subs
        return list(subs)

    def _coset_closure(self, right: np.ndarray, member: np.ndarray,
                       gens: tuple[int, ...]) -> list[int]:
        """One representative of each right coset of H in <gens>, which
        must hold H, starting from e; `right[x]` lists the coset H x, and
        `member`, H's membership array, is filled to that of <gens>."""
        reps, level = [0], [0]
        while level:  # the representatives found last
            new = []
            for x in self._products(level, gens).ravel().tolist():
                if not member[x]:
                    member[right[x]] = True
                    new.append(x)
            reps += new
            level = new
        return reps

    def _conjugates(self, K: np.ndarray) -> np.ndarray:
        """Row t is t^-1 K t, for every element t, as element indices."""
        inv, table = self.inv_table, self.mul_table
        if table is not None:  # [t, k] = t^-1 * (k * t)
            return table[inv[:, None], table[K].T]
        right = self._products(K, np.arange(self.order)).T
        return np.vstack([self._products([t], kt)
                          for t, kt in zip(inv.tolist(), right)])

    def left_cosets(self, H: "Subgroup") -> "CosetDecomposition":
        if H.group is not self:
            raise StructuralError("subgroup belongs to a different group")
        n = self.order
        harr = np.fromiter(H.member_tuple, dtype=np.int64)
        rep_of = np.full(n, -1, dtype=np.int32)
        reps: list[int] = []
        for g in range(n):
            if rep_of[g] >= 0:
                continue
            rep_of[self._products([g], harr)[0]] = len(reps)
            reps.append(g)
        if len(reps) * H.order != n:
            raise InvariantError("cosets do not partition the group")
        return CosetDecomposition(self, H, tuple(reps), rep_of)


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
    member = _membership(G.order, arr)
    if arr.size ** 2 <= _PRODUCT_BLOCK:  # every product, in one block
        if not member[G._products(arr, arr)].all():
            raise InvariantError("set is not product-closed")
        return
    # H is product-closed exactly when it is the subgroup its members
    # generate. Each generator g is the least member outside the subgroup
    # <S> of those before it, so it at least doubles <S>: at most
    # log2 |H| generators, refused as soon as a product leaves H. <S> is
    # closed under S, so only its coset <S> g, which lies outside it, is
    # new; <S, g> grows from that coset
    reached, gens = _membership(G.order, [0]), []
    while (missing := np.flatnonzero(member & ~reached)).size:
        gens.append(int(missing[0]))
        coset = G._products(np.flatnonzero(reached), gens[-1:]).ravel()
        if not member[coset].all():
            raise InvariantError("set is not product-closed")
        reached[coset] = True
        G._grow(reached, coset, gens, inside=member)


@dataclass(frozen=True)
class CosetDecomposition:
    group: FiniteGroup
    subgroup: Subgroup
    representatives: tuple[int, ...]
    rep_position: np.ndarray  # element index -> position in representatives

    @property
    def index(self) -> int:
        return len(self.representatives)


# -- constructors -----------------------------------------------------------


def _check_order(name: str, factors: Iterable[int]) -> None:
    """Refuse a group whose order, the product of `factors`, passes
    MAX_GROUP_ORDER, before any generator is built; the product stops at
    the first partial product past the cap, which divides the order."""
    order = 1
    for f in factors:
        order *= f
        config.require("MAX_GROUP_ORDER", order,
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
