"""Vectorised subset-fold kernels (pure numpy backend).

A fold holds, for each subset S of n <= ``MAX_N`` ground points in
ascending subset-bitmask order, the size of its join (``pops``) and its
cardinality (``cards``), one byte each while the sizes fit a byte.

Build. A fold is built from masks or from a size table. Masks of any
width are rows of 64-point words (`words`); the join is the union, with
a base mask if one is given, and its size sums its words' popcounts. The
unions of the low masks are built once by doubling in a block of at most
2^``_LOW_BITS`` words, and each block of subsets sharing its high bits
ORs its high union into them. ``SubsetFold.from_sizes`` takes the join
sizes as given, such as the dimensions of spans of subspaces.

Queries. Both queries depend on a subset S only through the pair
(join size, |S|). The first query counts the subsets in each bin; the
exact minimum, fragment count, atom size, largest fragment size and atom
count then come from the bins alone. One ascending scan in
``_CHUNK``-sized blocks then lists the subsets of the winning bins,
stopping as soon as it holds every subset it must return.

``check_pair_ratio`` compares two arrays of join sizes against a ratio.
Both are exact for coefficients of any size (``exact_dtype``).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

MAX_N = 26
_LOW_BITS = 20  # masks whose unions are built once per fold
_CHUNK = 1 << 20  # subsets per block of a query scan

BACKEND_NAME = "numpy"


def _lex_min(subsets: np.ndarray) -> int:
    """The subset mask whose sorted index tuple is lexicographically least,
    among distinct masks of one cardinality: from the lowest bit up, keep
    the masks holding the bit whenever some mask holds it."""
    b = 0
    while subsets.size > 1:
        holding = (subsets >> b) & 1 == 1
        if holding.any():
            subsets = subsets[holding]
        b += 1
    return int(subsets[0])


def exact_dtype(bound: int):
    """int64 when every value of an integer computation is at most
    ``bound`` in absolute value and ``bound`` < 2^63, else object, whose
    entries are Python ints: the dtype that keeps the computation exact."""
    return np.int64 if bound < 1 << 63 else object


def words(masks, count: int) -> np.ndarray:
    """The len(masks) x count uint64 array whose row i holds the 64-point
    words of the nonnegative int masks[i], low word first."""
    return np.ndarray((len(masks), count), "<u8", b"".join(
        [m.to_bytes(8 * count, "little") for m in masks]))


class SubsetFold:
    """Caches join sizes and cardinalities for repeated exact-min queries.

    The join of S is the union of ``base`` and the masks in S, so the
    empty set's join is ``base``; ``top`` bounds every join size.
    """

    def __init__(self, masks: list[int], base: int = 0):
        n = len(masks)
        if not 1 <= n <= MAX_N:
            raise ValueError(f"need 1 <= n <= {MAX_N}, got {n}")
        self.n = n
        self.masks = [int(m) for m in masks]
        top = functools.reduce(operator.or_, self.masks, int(base))
        if top < 0:
            raise ValueError("masks must be nonnegative")
        self.top = top.bit_count()
        count = max(1, -(-top.bit_length() // 64))
        rows = words([*self.masks, int(base)], count)
        low = min(n, max(0, _LOW_BITS - (count - 1).bit_length()))
        block = 1 << low
        self.pops = np.empty(1 << n, dtype=np.min_scalar_type(self.top))
        self.cards = np.empty(1 << n, dtype=np.uint8)
        cards = np.bitwise_count(np.arange(block, dtype=np.uint32),
                                 out=self.cards[:block])
        unions = np.empty((count, block), dtype=np.uint64)
        for union, bits in zip(unions, rows.T):  # one word at a time
            union[0] = bits[n]
            for b in range(low):
                half = 1 << b
                np.bitwise_or(union[:half], bits[b],
                              out=union[half:2 * half])
        np.add.reduce(np.bitwise_count(unions), out=self.pops[:block])
        scratch = np.empty_like(unions) if n > low else None
        for high in range(1, 1 << (n - low)):
            lo = high << low
            held = [low + i for i in range(n - low) if high >> i & 1]
            np.bitwise_or(unions, np.bitwise_or.reduce(rows[held])[:, None],
                          out=scratch)
            np.add.reduce(np.bitwise_count(scratch),
                          out=self.pops[lo:lo + block])
            np.add(cards, len(held), out=self.cards[lo:lo + block])
        self._bins = None

    @classmethod
    def from_sizes(cls, sizes) -> SubsetFold:
        """The fold whose join of subset S has size sizes[S], for 2^n
        nonnegative integers indexed by subset mask (sizes[0] is the empty
        set's), held in the least unsigned dtype that fits them."""
        n = len(sizes).bit_length() - 1
        if not 1 <= n <= MAX_N or len(sizes) != 1 << n:
            raise ValueError(f"need 2^n sizes, 1 <= n <= {MAX_N}")
        fold = cls.__new__(cls)
        fold.n, fold.top, fold._bins = n, int(max(sizes)), None
        fold.pops = np.asarray(sizes, dtype=np.min_scalar_type(fold.top))
        fold.cards = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
        return fold

    def _histogram(self):
        """(pop, card, count) int64 arrays over the occupied bins of the
        nonempty subsets; counted on the first query, then kept."""
        if self._bins is None:
            width = self.n + 1
            hist = np.zeros((self.top + 1) * width, dtype=np.int64)
            key_type = np.min_scalar_type(hist.size)
            for lo in range(0, 1 << self.n, _CHUNK):
                key = np.multiply(self.pops[lo:lo + _CHUNK], width,
                                  dtype=key_type)
                key += self.cards[lo:lo + _CHUNK]
                hist += np.bincount(key, minlength=hist.size)
            hist[int(self.pops[0]) * width] -= 1  # the empty set
            occupied = np.flatnonzero(hist)
            self._bins = (occupied // width, occupied % width,
                          hist[occupied])
        return self._bins

    def _hits(self, lo: int, bins) -> np.ndarray:
        """Offsets, within the block at ``lo``, of the subsets in any of
        ``bins``, a short list of (pop, card) pairs."""
        pops = self.pops[lo:lo + _CHUNK]
        cards = self.cards[lo:lo + _CHUNK]
        (p, c), *more = bins
        hit = (pops == p) & (cards == c)
        for p, c in more:
            hit |= (pops == p) & (cards == c)
        return np.flatnonzero(hit)

    def min_affine(self, num: int, den: int, list_cap: int):
        """Minimise den*|join(S)| - num*|S| over nonempty S.

        Returns (min_scaled, fragment_count, fragments, truncated, atoms,
        atom_size, largest_size): subset bitmasks in ascending order,
        fragments cut at list_cap, atoms complete, and the least and the
        greatest |S| of a minimiser. The bins are scored exactly, in
        int64 while den*top + |num|*n fits it.
        """
        pops, cards, counts = self._histogram()
        dtype = exact_dtype(den * max(self.top, 1) + abs(num) * self.n)
        vals = den * pops.astype(dtype) - num * cards.astype(dtype)
        best = int(vals.min())
        on = vals == best
        count = int(counts[on].sum())
        atom_size, largest = int(cards[on].min()), int(cards[on].max())
        atom_on = on & (cards == atom_size)
        atom_count = int(counts[atom_on].sum())
        frag_bins = list(zip(pops[on].tolist(), cards[on].tolist()))
        atom_bin = [(int(pops[atom_on][0]), atom_size)]
        need = min(max(list_cap, 0), count)
        frags: list[int] = []
        atoms: list[int] = []
        for lo in range(0, 1 << self.n, _CHUNK):
            if len(frags) < need:
                hits = self._hits(lo, frag_bins)
                frags.extend((hits[:need - len(frags)] + lo).tolist())
                hits = hits[self.cards[lo + hits] == atom_size]
            elif len(atoms) < atom_count:
                hits = self._hits(lo, atom_bin)
            else:
                break
            atoms.extend((hits + lo).tolist())
        return (best, count, frags, count > len(frags), atoms, atom_size,
                largest)

    def min_ratio(self, offset: int = 0):
        """Minimise |join(S)| / (|S| + offset) over nonempty S, and over
        the empty set too when offset > 0.

        Returns (num, den, witness_mask) with the ratio in lowest terms and
        the witness tie-broken by cardinality then lexicographic order.
        """
        bins = self._histogram()
        if offset:  # the empty set's bin
            bins = [np.append(b, v)
                    for b, v in zip(bins, (self.pops[0], 0, 1))]
        pops, cards, counts = bins
        scale = math.lcm(*range(1, self.n + offset + 1))
        # the least ratio, then the least cardinality: one bin
        best = np.lexsort((cards, pops * (scale // (cards + offset))))[0]
        pop, card, remaining = int(pops[best]), int(cards[best]), \
            int(counts[best])
        winners = []
        for lo in range(0, 1 << self.n, _CHUNK):
            if not remaining:
                break
            hits = self._hits(lo, [(pop, card)])
            if hits.size:
                remaining -= hits.size
                winners.append(_lex_min(hits + lo))
        g = math.gcd(pop, card + offset)
        return pop // g, (card + offset) // g, _lex_min(np.array(winners))


def check_pair_ratio(lhs, rhs, num: int, den: int):
    """Check den*lhs[i] <= num*rhs[i] for every i, over two equal-length
    arrays of nonnegative integers, in int64 while den*max(lhs, 1) and
    num*max(rhs, 1) stay below 2^63 and in Python ints past that.

    Returns (ok, first_violating_index_or_None, checked_count).
    """
    if len(lhs) != len(rhs):
        raise ValueError("size arrays must have equal length")
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    dtype = exact_dtype(max(den * int(lhs.max(initial=1)),
                            num * int(rhs.max(initial=1))))
    bad = np.flatnonzero(den * lhs.astype(dtype) > num * rhs.astype(dtype))
    if bad.size:
        first = int(bad[0])
        return False, first, first + 1
    return True, None, len(lhs)
