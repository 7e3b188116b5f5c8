"""Brute-force oracles for the subset-fold kernel."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaction._kernels import (
    MAX_N, SubsetFold, backend_name, check_pair_ratio, get_backend,
    numpy_backend, words)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _union(masks, subset):
    u = 0
    for b in _bits(subset):
        u |= masks[b]
    return u


def _union_sizes(masks, base=0):
    """The size table of a mask family: |base + union| for every subset
    mask."""
    return [(_union(masks, s) | base).bit_count()
            for s in range(1 << len(masks))]


def _brute_min_affine(masks, num, den, sizes=None):
    """(min, fragments, atoms, atom size, largest fragment size) of
    den*size - num*|S|, sizes the given table or the masks' union sizes."""
    sizes = _union_sizes(masks) if sizes is None else sizes
    best = None
    hits = []
    for s in range(1, len(sizes)):
        val = den * sizes[s] - num * bin(s).count("1")
        if best is None or val < best:
            best, hits = val, [s]
        elif val == best:
            hits.append(s)
    atom_size = min(bin(s).count("1") for s in hits)
    atoms = [s for s in hits if bin(s).count("1") == atom_size]
    largest = max(bin(s).count("1") for s in hits)
    return best, hits, atoms, atom_size, largest


def _brute_min_ratio(masks, sizes=None, offset=0):
    """min of size / (|S| + offset) over nonempty S, and over the empty set
    too when offset > 0, with its witness."""
    sizes = _union_sizes(masks) if sizes is None else sizes
    best = None
    wits = []
    for s in range(0 if offset else 1, len(sizes)):
        r = Fraction(sizes[s], bin(s).count("1") + offset)
        if best is None or r < best:
            best, wits = r, [s]
        elif r == best:
            wits.append(s)
    # ties: smallest cardinality, then lexicographic on sorted bit lists
    small = min(bin(s).count("1") for s in wits)
    wits = [s for s in wits if bin(s).count("1") == small]
    winner = min(wits, key=_bits)
    return best, winner


def _random_masks(rng, n, width):
    full = (1 << width) - 1
    return [rng.randint(1, full) for _ in range(n)]


def test_min_affine_matches_brute():
    rng = random.Random(11)
    for trial in range(25):
        n = rng.randint(1, 9)
        masks = _random_masks(rng, n, rng.randint(4, 12))
        num, den = rng.randint(-3, 5), rng.randint(1, 4)
        got = SubsetFold(masks).min_affine(num, den, 1 << n)
        best, hits, atoms, atom_size, largest = \
            _brute_min_affine(masks, num, den)
        g_best, g_count, g_frags, g_trunc, g_atoms, g_atom, g_largest = got
        assert g_best == best
        assert g_count == len(hits)
        assert g_frags == hits
        assert not g_trunc
        assert g_atoms == atoms
        assert g_atom == atom_size
        assert g_largest == largest


def test_min_affine_truncation():
    # identical singleton masks: every subset achieves den*1 - num*|S| at
    # |S| = n, so pick num = 0 so all 2^n - 1 subsets tie.
    masks = [1] * 5
    best, count, frags, trunc, atoms, atom_size, largest = \
        SubsetFold(masks).min_affine(0, 1, 3)
    assert count == 31 and len(frags) == 3 and trunc
    assert atom_size == 1 and len(atoms) == 5 and largest == 5


def test_min_ratio_matches_brute():
    rng = random.Random(23)
    for trial in range(25):
        n = rng.randint(1, 9)
        masks = _random_masks(rng, n, rng.randint(3, 10))
        num, den, wit = SubsetFold(masks).min_ratio()
        best, winner = _brute_min_ratio(masks)
        assert Fraction(num, den) == best
        assert math.gcd(num, den) == 1
        assert wit == winner


def test_numpy_min_ratio_with_base_scans_across_blocks(monkeypatch):
    # blocks of 4 subsets: the least minimiser {2, 3} of
    # |{0} + join S| / (|S| + 1) is subset 12, in the fourth block, and
    # the empty set (ratio 1) is a candidate in the first
    monkeypatch.setattr(numpy_backend, "_CHUNK", 4)
    masks = [0b010, 0b100, 0b001, 0b001]
    assert SubsetFold(masks, base=0b001).min_ratio(1) == (1, 3, 0b1100)
    assert _brute_min_ratio(None, _union_sizes(masks, 0b001), 1) == \
        (Fraction(1, 3), 0b1100)


def test_min_ratio_offset_widens_the_scale():
    # n = 22 distinct new points over a one-point base: every S has ratio
    # (1 + |S|) / (|S| + 1) = 1, and the least witness is the empty set.
    # The full set's denominator is 23, a prime above n, so a scale of
    # lcm(1..22) would round its key down and let it win.
    n = 22
    fold = SubsetFold([1 << (i + 1) for i in range(n)], base=1)
    assert fold.min_ratio(1) == (1, 1, 0)
    # without the offset, (1 + |S|) / |S| is least at the full set
    assert fold.min_ratio() == (n + 1, n, (1 << n) - 1)


def test_check_pair_ratio_matches_brute():
    # the size arrays of two folds; one of num, den is often shifted so
    # that the products cross 2^63, where int64 would wrap
    rng = random.Random(37)
    for trial in range(60):
        n = rng.randint(1, 8)
        lhs = SubsetFold(_random_masks(rng, n, 10)).pops[1:]
        rhs = SubsetFold(_random_masks(rng, n, 10)).pops[1:]
        num, den = rng.randint(1, 4), rng.randint(1, 3)
        shift = rng.choice([0, 59, 60, 61, 62, 70])
        if rng.random() < 0.5:
            num = num << shift | rng.randint(0, 1)
        else:
            den = den << shift | rng.randint(0, 1)
        ok, first, checked = check_pair_ratio(lhs, rhs, num, den)
        brute_bad = [i for i in range(len(lhs))
                     if den * int(lhs[i]) > num * int(rhs[i])]
        if brute_bad:
            assert (ok, first, checked) == (False, brute_bad[0],
                                            brute_bad[0] + 1)
        else:
            assert ok and first is None and checked == len(lhs)
    # 2^62 * 2 is 2^63: wrapped to -2^63 in int64, it would pass
    assert check_pair_ratio([2], [3], 1, 1 << 62) == (False, 0, 1)
    assert check_pair_ratio([], [], 1, 1) == (True, None, 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_numpy_histogram_queries_match_brute_across_blocks(data):
    # masks drawn from a pool of at most three values force ties; zero
    # masks (and base) give nonempty subsets with an empty union, so a
    # nonpositive num tests that the empty set stays out; small block
    # constants make the build and the scans cross block boundaries. The
    # fold built from the size table of base + union must answer every
    # query as the mask fold over base does; min_ratio's offset adds the
    # empty set to its candidates.
    n = data.draw(st.integers(1, 10), label="n")
    top = (1 << data.draw(st.sampled_from([1, 2, 3, 5, 64]))) - 1
    pool = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    masks = data.draw(st.lists(st.sampled_from(pool), min_size=n,
                               max_size=n), label="masks")
    base = data.draw(st.sampled_from([0, top, *pool]), label="base")
    offset = data.draw(st.integers(0, 2), label="offset")
    queries = data.draw(st.lists(
        st.tuples(st.integers(-3, 6), st.integers(1, 4),
                  st.sampled_from([0, 1, 3, 1 << 11])),
        min_size=1, max_size=3), label="queries")
    sizes = _union_sizes(masks, base)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numpy_backend, "_LOW_BITS", data.draw(st.integers(1, 4)))
        mp.setattr(numpy_backend, "_CHUNK", 1 << data.draw(st.integers(1, 5)))
        folds = [SubsetFold(masks, base=base), SubsetFold.from_sizes(sizes)]
        ratios = [fold.min_ratio(offset) for fold in folds]
        got = [[fold.min_affine(num, den, cap) for num, den, cap in queries]
               for fold in folds]
    assert got[0] == got[1] and ratios[0] == ratios[1]
    for (num, den, cap), result in zip(queries, got[0]):
        best, hits, atoms, atom_size, largest = \
            _brute_min_affine(None, num, den, sizes)
        assert result == (best, len(hits), hits[:cap], len(hits) > cap,
                          atoms, atom_size, largest)
    best, winner = _brute_min_ratio(None, sizes, offset)
    p, q, wit = ratios[0]
    assert (Fraction(p, q), math.gcd(p, q), wit) == (best, 1, winner)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multiword_fold_matches_brute(data):
    # masks and a base over 1-4 words of 64 points, with points near the
    # word edges and in the top word, so that a fold reading only some of
    # the words, or dropping the base's high words, gives other sizes.
    # Small _LOW_BITS make the build OR high unions into several blocks;
    # the block keeps 2^_LOW_BITS words, so wider masks get fewer low bits.
    count = data.draw(st.integers(1, 4), label="words")
    points = st.sampled_from(sorted({0, 1, 62, 63, 64 * count - 1} | {
        64 * j + d for j in range(1, count) for d in (-1, 0, 1, 30)}))
    mask = st.lists(points, max_size=4).map(
        lambda ps: sum({1 << p for p in ps}))
    n = data.draw(st.integers(1, 8), label="n")
    masks = data.draw(st.lists(mask, min_size=n, max_size=n), label="masks")
    base = data.draw(mask, label="base")
    num, den = data.draw(st.integers(-3, 6)), data.draw(st.integers(1, 4))
    sizes = _union_sizes(masks, base)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numpy_backend, "_LOW_BITS", data.draw(st.integers(1, 5)))
        fold = SubsetFold(masks, base=base)
        assert fold.pops.tolist() == sizes
        assert fold.cards.tolist() == [bin(s).count("1")
                                       for s in range(1 << n)]
        best, hits, atoms, atom_size, largest = \
            _brute_min_affine(None, num, den, sizes)
        assert fold.min_affine(num, den, 3) == (
            best, len(hits), hits[:3], len(hits) > 3, atoms, atom_size,
            largest)
        best, winner = _brute_min_ratio(None, sizes)
        p, q, wit = fold.min_ratio()
        assert (Fraction(p, q), math.gcd(p, q), wit) == (best, 1, winner)


def test_words_and_wide_pops():
    # low word first; past 255 points the pops widen to uint16
    assert words([1 | 1 << 64 | 3 << 130, 0], 3).tolist() == [
        [1, 1, 12], [0, 0, 0]]
    fold = SubsetFold([(1 << 300) - 1, 1 << 300])
    assert fold.pops.dtype == np.uint16
    assert fold.pops.tolist() == [0, 300, 1, 301]


def test_numpy_fragment_list_fills_across_blocks(monkeypatch):
    # blocks of 4 subsets: the first block holds two fragments (1, 2), the
    # second two more (4, 5), and a cap of 3 must stop after the third
    monkeypatch.setattr(numpy_backend, "_CHUNK", 4)
    masks = [0b01, 0b10, 0b01, 0b01]
    got = SubsetFold(masks).min_affine(0, 1, 3)
    best, hits, atoms, atom_size, largest = _brute_min_affine(masks, 0, 1)
    assert got == (best, len(hits), hits[:3], True, atoms, atom_size,
                   largest)


@pytest.mark.parametrize("scale", [1, 40, 1000])
def test_size_table_fold_matches_brute(scale):
    # sizes past 255 (a span dimension can exceed a byte) stay exact: the
    # table is held in a wider dtype and the bins widen with it
    rng = random.Random(scale)
    for trial in range(10):
        n = rng.randint(1, 8)
        sizes = [0] + [scale * rng.randint(0, 9) + rng.randint(0, 2)
                       for _ in range((1 << n) - 1)]
        fold = SubsetFold.from_sizes(sizes)
        assert fold.pops.tolist() == sizes
        num, den = rng.randint(-3, 5 * scale), rng.randint(1, 4)
        best, hits, atoms, atom_size, largest = \
            _brute_min_affine(None, num, den, sizes)
        assert fold.min_affine(num, den, 5) == (
            best, len(hits), hits[:5], len(hits) > 5, atoms, atom_size,
            largest)
        best, winner = _brute_min_ratio(None, sizes)
        p, q, wit = fold.min_ratio()
        assert (Fraction(p, q), wit) == (best, winner)


def test_input_validation():
    with pytest.raises(ValueError):
        SubsetFold([])
    with pytest.raises(ValueError):
        SubsetFold([1] * (MAX_N + 1))
    with pytest.raises(ValueError):
        SubsetFold([1, -1])
    with pytest.raises(ValueError):
        SubsetFold([1], base=-(1 << 64))
    with pytest.raises(ValueError):
        check_pair_ratio(np.array([1, 2]), np.array([1]), 1, 1)
    for sizes in ([0], [0, 1, 1], range(2 << MAX_N)):
        with pytest.raises(ValueError):
            SubsetFold.from_sizes(sizes)


def test_backend_name_reported():
    # the benchmark harness records backend_name() and asks get_backend for
    # a compiled kernel, expecting ImportError when none exists
    assert backend_name() == "numpy"
    assert get_backend("numpy") is numpy_backend
    with pytest.raises(ImportError):
        get_backend("cython")
