"""Composition, inversion, and cycle arithmetic for Permutation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subaction.errors import StructuralError
from subaction.perms import Permutation, from_cycles, identity

perm_images = st.integers(2, 8).flatmap(
    lambda n: st.permutations(list(range(n))))


def test_identity():
    e = identity(4)
    assert e.is_identity()
    assert [e(x) for x in range(4)] == [0, 1, 2, 3]


def test_rejects_non_permutation():
    with pytest.raises(StructuralError):
        Permutation((0, 0, 2))
    with pytest.raises(StructuralError):
        Permutation((1, 2, 3))


def test_composition_convention():
    # (g * h)(x) == g(h(x))
    g = from_cycles(3, [(0, 1)])
    h = from_cycles(3, [(1, 2)])
    gh = g * h
    assert [gh(x) for x in range(3)] == [g(h(x)) for x in range(3)]
    assert gh.images == (1, 2, 0)
    hg = h * g
    assert hg.images == (2, 0, 1)
    assert gh != hg


def test_degree_mismatch():
    with pytest.raises(StructuralError):
        identity(3) * identity(4)


@given(perm_images, st.data())
def test_compose_pointwise(images, data):
    g = Permutation(tuple(images))
    h = Permutation(tuple(data.draw(st.permutations(list(range(g.degree))))))
    gh = g * h
    assert all(gh(x) == g(h(x)) for x in range(g.degree))


@given(perm_images)
def test_inverse(images):
    # `*` and `is_identity` stay library methods because perfbench/record.py
    # reads them; the inverse is computed here, as the argsort of the images
    g = Permutation(tuple(images))
    inv = Permutation(tuple(np.argsort(images).tolist()))
    assert (g * inv).is_identity()
    assert (inv * g).is_identity()
    assert g.is_identity() == (list(images) == sorted(images))


@given(perm_images)
def test_cycles_round_trip(images):
    g = Permutation(tuple(images))
    assert from_cycles(g.degree, g.cycles()) == g


def test_cycles_canonical_form():
    g = from_cycles(6, [(2, 4), (0, 1, 3)])
    assert g.cycles() == [(0, 1, 3), (2, 4)]
    assert str(g) == "(0 1 3)(2 4)"
    assert str(identity(3)) == "e"


def test_from_cycles_validation():
    with pytest.raises(StructuralError):
        from_cycles(3, [(0, 1), (1, 2)])  # overlapping cycles
    with pytest.raises(StructuralError):
        from_cycles(3, [(0, 5)])  # point out of range
    with pytest.raises(StructuralError):
        from_cycles(3, [(1, 1)])  # repeated point
