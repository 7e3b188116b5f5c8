"""Subspaces over F_p, representations, module spans, and the subspace lattice."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaction import config, linalg
from subaction._kernels import words
from subaction.errors import (CapacityError, DomainError, InvariantError,
                              StructuralError)
from subaction.groups import (affine_gl1, alternating, cyclic, dihedral,
                              symmetric)
from subaction.actions import left_translation_action, natural_action
from subaction.linalg import (LatticeFunction, Representation, Subspace,
                              actor_growth_linear, basis_table,
                              check_lattice_submodular, enumerate_subspaces,
                              gaussian_binomial, grassmannian,
                              minimize_on_lattice, permutation_representation,
                              representation_from_generator_matrices,
                              span_dims, subspace_count)
from subaction.perms import from_cycles
from subaction.setfuncs import check_submodular, minimize_nonempty


def _swap_rep():
    G = cyclic(2)
    return representation_from_generator_matrices(
        G, 3, [np.array([[0, 1], [1, 0]])])


# -- subspaces ---------------------------------------------------------------------


def test_echelon_canonical():
    W1 = Subspace.from_vectors(3, 2, [[1, 1], [2, 2]])
    W2 = Subspace.from_vectors(3, 2, [[2, 2]])
    assert W1 == W2
    assert W1.dim == 1


def test_contains():
    W = Subspace.from_vectors(5, 3, [[1, 0, 2], [0, 1, 3]])
    assert W.contains([1, 1, 0])  # sum of the two rows
    assert not W.contains([0, 0, 1])
    assert W.contains([6, 5, 12])  # [1, 0, 2] after reduction mod 5


def test_zero_and_full():
    Z = Subspace.zero(2, 4)
    F = Subspace.from_vectors(2, 4, np.eye(4, dtype=int).tolist())
    assert Z.dim == 0 and Z.is_zero()
    assert F.dim == 4
    assert Z <= F


def test_dimension_formula():
    # dim(U) + dim(V) == dim(U+V) + dim(U meet V)
    subs = enumerate_subspaces(2, 3)
    for U, V in itertools.combinations(subs, 2):
        assert U.dim + V.dim == U.sum(V).dim + U.intersect(V).dim


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dimension_formula_random_f3(data):
    vecs = st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                    min_size=0, max_size=3)
    U = Subspace.from_vectors(3, 3, data.draw(vecs))
    V = Subspace.from_vectors(3, 3, data.draw(vecs))
    assert U.dim + V.dim == U.sum(V).dim + U.intersect(V).dim
    assert U.intersect(V) <= U and U <= U.sum(V)


def test_vectors_enumeration():
    W = Subspace.from_vectors(3, 2, [[1, 2]])
    vs = set(W.vectors())
    assert vs == {(0, 0), (1, 2), (2, 1)}


def test_prime_required():
    with pytest.raises(DomainError):
        Subspace.from_vectors(4, 2, [[1, 0]])


# -- counting ----------------------------------------------------------------------


def test_gaussian_binomials():
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 3, 2) == 15
    assert gaussian_binomial(4, 4, 2) == 1
    assert subspace_count(2, 4) == 67


def test_enumerate_subspaces_complete_and_canonical():
    subs = enumerate_subspaces(2, 4)
    assert len(subs) == 67
    assert len({W.rows for W in subs}) == 67
    # canonical order: dimension blocks, lexicographic rows inside
    dims = [W.dim for W in subs]
    assert dims == sorted(dims)
    for k in range(5):
        assert sum(1 for W in subs if W.dim == k) == gaussian_binomial(4, k, 2)


def test_grassmannian_matches_filter():
    subs = enumerate_subspaces(3, 2)
    for k in range(3):
        assert grassmannian(3, 2, k) == [W for W in subs if W.dim == k]


def test_subspace_count_capacity():
    with pytest.raises(CapacityError) as ei:
        enumerate_subspaces(5, 9)
    err = ei.value
    assert (err.cap_name, err.cap_value, err.measured) == \
        ("MAX_SUBSPACE_COUNT", config.cap("MAX_SUBSPACE_COUNT"),
         subspace_count(5, 9))


# -- representations --------------------------------------------------------------


# the verification oracle's groups: one and several generators
_VERIFY_GROUPS = [cyclic(5), cyclic(8), dihedral(4), dihedral(5), symmetric(3),
                  symmetric(4), alternating(4), affine_gl1(5)]


def _reference_verify(G, p, mats):
    """All-pairs representation check: identity, the rank of every
    matrix, then the law over every (g, h) in index order."""
    d = mats.shape[1]
    if not np.array_equal(mats[0], np.eye(d, dtype=np.int64)):
        raise InvariantError("identity element must map to the identity matrix")
    for g in range(G.order):
        if Subspace.from_vectors(p, d, mats[g].tolist()).dim != d:
            raise InvariantError(f"matrix for element {g} is singular")
    for g in range(G.order):
        for h in range(G.order):
            if not np.array_equal(mats[g] @ mats[h] % p, mats[G.mul(g, h)]):
                raise InvariantError(f"homomorphism law fails at generator {g}")


def _raised(build):
    """The InvariantError message that build() raises, or None."""
    try:
        build()
    except InvariantError as e:
        return str(e)
    return None


def _matrix(data, p, d):
    return np.array(data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=d, max_size=d),
        min_size=d, max_size=d)), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_representation_verifies_homomorphism(data):
    G = cyclic(3)
    bad = [np.array([[1, 1], [0, 1]])]  # order 3 needed, this has order 3 mod 3
    rep = representation_from_generator_matrices(G, 3, bad)
    assert rep.dim == 2  # ((1,1),(0,1))^3 = identity mod 3: valid
    with pytest.raises(InvariantError):
        representation_from_generator_matrices(
            G, 5, [np.array([[1, 1], [0, 1]])])  # order 5 != 3

    # generator matrices, valid or not: the generator check raises exactly
    # when the all-pairs reference does, with its message
    G = data.draw(st.sampled_from(_VERIFY_GROUPS))
    p = data.draw(st.sampled_from((2, 3, 5)))
    valid = permutation_representation(natural_action(G), p)
    if data.draw(st.booleans()):
        # the permutation representation's, some replaced by random ones
        gens = [valid.mats[g] for g in G.generator_indices]
        for i in data.draw(st.sets(st.integers(0, len(gens) - 1))):
            gens[i] = _matrix(data, p, G.degree)
    else:  # random scalars: a character when they satisfy the relations
        gens = [_matrix(data, p, 1) for _ in G.generator_indices]
    got = _raised(lambda: representation_from_generator_matrices(G, p, gens))
    d = len(gens[0])
    mats = np.zeros((G.order, d, d), dtype=np.int64)
    mats[0] = np.eye(d, dtype=np.int64)
    for g in range(1, G.order):  # each matrix a product along the closure
        mats[g] = gens[G._gen_of[g]] @ mats[G._parent_of[g]] % p
    assert got == _raised(lambda: _reference_verify(G, p, mats))

    # a direct Representation with up to two matrices replaced: only
    # whether it raises must match (a singular non-generator matrix is
    # reported through the law it breaks)
    mats = valid.mats.copy()
    for _ in range(data.draw(st.integers(0, 2))):
        g = data.draw(st.one_of(st.just(0), st.integers(0, G.order - 1)))
        how = data.draw(st.sampled_from(("other", "zero", "random")))
        mats[g] = valid.mats[data.draw(st.integers(0, G.order - 1))] \
            if how == "other" else 0 if how == "zero" \
            else _matrix(data, p, G.degree)
    assert (_raised(lambda: Representation(G, p, mats)) is None) == \
        (_raised(lambda: _reference_verify(G, p, mats)) is None)


def test_tableless_representation_catches_a_broken_relation():
    # S5 on 1 x 1 matrices over F_3: the sign character is a
    # representation; sending the 5-cycle to -1 breaks its order 5
    with config.overrides({"MAX_MUL_TABLE_ENTRIES": 1}):
        G = symmetric(5)
    assert G.mul_table is None
    swap, turn = G.generator_indices
    assert G.elements[turn] == from_cycles(5, [(0, 1, 2, 3, 4)])
    assert representation_from_generator_matrices(G, 3, [[[2]], [[1]]]).dim == 1
    with pytest.raises(InvariantError, match="homomorphism law fails"):
        representation_from_generator_matrices(G, 3, [[[2]], [[2]]])


def test_representation_rejects_singular():
    G = cyclic(2)
    with pytest.raises((InvariantError, DomainError)):
        representation_from_generator_matrices(
            G, 3, [np.array([[1, 1], [1, 1]])])


def test_permutation_representation():
    action = natural_action(symmetric(3))
    rep = permutation_representation(action, 2)
    assert rep.dim == 3
    for g in range(6):
        for x in range(3):
            e_x = [1 if i == x else 0 for i in range(3)]
            v = rep.mats[g] @ e_x % 2
            assert v.tolist() == [1 if i == action.act(g, x) else 0
                                  for i in range(3)]


def test_representation_matrices_refused_before_they_are_allocated(
        monkeypatch):
    # order * dim^2 entries: C10 left translation has 100 table entries,
    # its permutation representation 1,000 matrix entries; a 10 x 10
    # generator matrix for C10 gives 1,000 too
    monkeypatch.setenv("SUBACTION_MAX_ACT_TABLE_ENTRIES", "500")
    action = left_translation_action(cyclic(10))
    gens = [np.roll(np.eye(10, dtype=int), 1, axis=0)]

    def refuse(*args, **kwargs):
        raise AssertionError("matrices allocated past the cap")
    monkeypatch.setattr(np, "zeros", refuse)
    builds = (lambda: permutation_representation(action, 2),
              lambda: representation_from_generator_matrices(
                  action.group, 2, gens))
    for build in builds:
        with pytest.raises(CapacityError) as ei:
            build()
        err = ei.value
        assert (err.cap_name, err.cap_value, err.measured) == \
            ("MAX_ACT_TABLE_ENTRIES", 500, 1000)


def test_act_subspace_preserves_dim():
    rep = _swap_rep()
    for W in enumerate_subspaces(3, 2):
        for g in range(2):
            assert rep.act_subspace(g, W).dim == W.dim


def test_module_span():
    rep = _swap_rep()
    W = Subspace.from_vectors(3, 2, [[1, 0]])
    span = rep.module_span([0, 1], W)
    assert span.dim == 2  # e1 and swapped e2 generate everything
    D = Subspace.from_vectors(3, 2, [[1, 1]])
    assert rep.module_span([0, 1], D) == D  # invariant line


def test_subspace_stabilizer_and_symmetry():
    rep = _swap_rep()
    D = Subspace.from_vectors(3, 2, [[1, 1]])
    assert rep.subspace_stabilizer(D).members == {0, 1}
    W = Subspace.from_vectors(3, 2, [[1, 0]])
    assert rep.subspace_stabilizer(W).members == {0}
    # swap sends e1-line to e2-line: intersection zero
    assert rep.symmetry_set(W, "1") == frozenset({0})


def test_symmetry_thresholds_match_counted_overlaps():
    # dim(g.W meet W) read from the count of vectors g.W and W share
    rep = permutation_representation(natural_action(symmetric(4)), 2)
    W = Subspace.from_vectors(2, 4, [[1, 1, 0, 0], [0, 0, 1, 0]])
    inside = set(W.vectors())
    dims = [len(inside & set(rep.act_subspace(g, W).vectors())).bit_length()
            - 1 for g in range(24)]
    assert sorted(set(dims)) == [0, 1, 2]
    for alpha in ("1/2", "1"):
        assert rep.symmetry_set(W, alpha) == frozenset(
            g for g, d in enumerate(dims) if d >= Fraction(alpha) * W.dim)
    assert rep.symmetry_set(W, 1) == rep.subspace_stabilizer(W).members
    with pytest.raises(DomainError, match="needs a nonzero subspace"):
        rep.symmetry_set(Subspace.zero(2, 4), "1/2")


# -- lattice functions --------------------------------------------------------------


def test_actor_growth_linear_submodular():
    rep = _swap_rep()
    W = Subspace.from_vectors(3, 2, [[1, 0]])
    f = actor_growth_linear(rep, W, "1/2")
    assert check_submodular(f).holds
    res = minimize_nonempty(f)
    assert res.min_value == min(
        f.value_mask(m) for m in range(1, 4))


def test_lattice_function_submodular_and_invariant():
    rep = _swap_rep()
    fn = LatticeFunction(rep, [0, 1], "1/2")
    assert check_lattice_submodular(fn).holds


def test_lattice_submodularity_counterexample_detected():
    rep = _swap_rep()

    # indicator of the full space is strictly supermodular on line pairs:
    # two distinct lines U, V give f(U meet V) + f(U join V) = 1 > 0
    class Broken(LatticeFunction):
        def value(self, W):
            return Fraction(int(W.dim == self.rep.dim))

    report = check_lattice_submodular(Broken(rep, [1], "0"))
    assert not report.holds
    assert report.counterexample["lhs"] > report.counterexample["rhs"]


def test_minimize_on_lattice():
    rep = _swap_rep()
    fn = LatticeFunction(rep, [0, 1], "1")
    res = minimize_on_lattice(fn)
    brute = min(fn.value(W) for W in enumerate_subspaces(3, 2)
                if not W.is_zero())
    assert res.min_value == brute
    assert res.fragment_count == len(
        [W for W in enumerate_subspaces(3, 2)
         if not W.is_zero() and fn.value(W) == brute])
    for W in res.atoms:
        assert W.dim == res.atom_dim
    # the invariant diagonal line minimises: span({0,1}, D) = D
    assert res.min_value == 0
    dims = [W.dim for W in res.fragments]
    assert dims == sorted(dims)


@pytest.mark.parametrize("cap", [0, 1, 10_000])
def test_minimize_on_lattice_matches_brute_force(cap):
    # F_2^3 under S3 and F_3^2 under the swap; lambda 1 with A = G makes
    # every invariant subspace a minimiser, in more than one dimension
    rep_f2 = permutation_representation(natural_action(symmetric(3)), 2)
    for rep in (rep_f2, _swap_rep()):
        for A in ([0], [0, 1], list(range(rep.group.order))):
            for lam in ("0", "1/2", "1"):
                fn = LatticeFunction(rep, A, lam)
                subs = [W for W in enumerate_subspaces(rep.p, rep.dim)
                        if not W.is_zero()]
                best = min(fn.value(W) for W in subs)
                hits = [W for W in subs if fn.value(W) == best]
                least = min(W.dim for W in hits)
                res = minimize_on_lattice(fn, fragment_cap=cap)
                assert (res.min_value, res.fragment_count, res.fragments,
                        res.fragments_truncated) == \
                    (best, len(hits), hits[:cap], len(hits) > cap)
                assert (res.atoms, res.atom_dim) == \
                    ([W for W in hits if W.dim == least], least)
    fn = LatticeFunction(rep_f2, range(6), "1")
    assert len({W.dim for W in minimize_on_lattice(fn).fragments}) == 3


def test_large_primes_refused_before_int64_overflow():
    # C2 -> {I, -I} is a representation over every F_p, but over the prime
    # 4294967311 a 2 x 2 product entry can reach 2(p-1)^2 > 2^63; the
    # size is checked first, so 10^30 + 57 costs no trial division
    G = cyclic(2)
    for p in (4294967311, 10**30 + 57):
        with pytest.raises(DomainError, match=r"dim\*\(p-1\)\^2 < 2\^63"):
            representation_from_generator_matrices(
                G, p, [[[p - 1, 0], [0, p - 1]]])
        with pytest.raises(DomainError, match=r"dim\*\(p-1\)\^2 < 2\^63"):
            Representation(G, p, np.array([np.eye(2, dtype=np.int64)] * 2))
    p = 2**31 - 1
    rep = representation_from_generator_matrices(
        G, p, [[[p - 1, 0], [0, p - 1]]])
    assert (rep.mats[1] @ [1, 2] % p).tolist() == [p - 1, p - 2]
    # entries are reduced mod p before they are stored in int64
    big = representation_from_generator_matrices(
        G, p, [[[p - 1 + p * 10**30, 0], [0, -1]]])
    assert np.array_equal(big.mats, rep.mats)


def test_lattice_atoms_intersect_trivially():
    rep = _swap_rep()
    fn = LatticeFunction(rep, [0, 1], "1/2")
    res = minimize_on_lattice(fn)
    for U, V in itertools.combinations(res.atoms, 2):
        assert U.intersect(V).is_zero()


# -- span dimensions of subsets -----------------------------------------------


def _doubling_dims(spaces):
    """dim of the span of every subset m of `spaces`, by Subspace.sum from
    the subset m without its lowest bit."""
    joins = [Subspace.zero(spaces[0].p, spaces[0].ambient_dim)]
    for m in range(1, 1 << len(spaces)):
        low = m & -m
        joins.append(joins[m ^ low].sum(spaces[low.bit_length() - 1]))
    return [W.dim for W in joins]


def _span_table(data, p, d, n):
    """n subspaces of F_p^d: zero, full, spanned by a few random vectors,
    a repeat of an earlier one, or spanned by combinations of the rows of
    earlier ones (so that a vector lies in the span of several others).
    Entries are uniform residues."""
    rng = data.draw(st.randoms(use_true_random=False))
    out = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(
            ("zero", "full", "random", "repeat", "combination")))
        rows = [r for W in out for r in W.rows]
        if kind == "repeat" and out:
            out.append(data.draw(st.sampled_from(out)))
        elif kind == "combination" and rows:
            combos = [[rng.randrange(p) for _ in rows]
                      for _ in range(rng.randint(1, 2))]
            out.append(Subspace.from_vectors(p, d, [
                [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(d)]
                for cs in combos]))
        elif kind == "full":
            out.append(Subspace.from_vectors(p, d, np.eye(d, dtype=int)))
        else:
            out.append(Subspace.from_vectors(p, d, [
                [rng.randrange(p) for _ in range(d)]
                for _ in range(0 if kind == "zero" else rng.randint(1, 3))]))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from((2, 3, 5, 17, 2**31 - 1)))
def test_span_dims_match_subspace_sums(data, p):
    d, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 7))
    spaces = _span_table(data, p, d, n)
    table = basis_table(spaces)
    want = _doubling_dims(spaces)
    # a block of one subset or a few, or the default size
    rows = data.draw(st.sampled_from((1, 3, None)))
    with pytest.MonkeyPatch.context() as mp:
        if rows:
            mp.setattr(linalg, "_SPAN_BLOCK", rows * d * d)
        assert span_dims(p, table).tolist() == want
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=9))
        got = span_dims(p, table, words(masks, 1))
        assert got.tolist() == [want[m] for m in masks]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), p=st.sampled_from((2, 3, 5, 17)))
def test_span_dims_of_masks_wider_than_64_bits(data, p):
    d, n = data.draw(st.integers(1, 4)), data.draw(st.integers(65, 140))
    spaces = _span_table(data, p, d, n)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=6))
    masks.append(1 << (n - 1))  # the highest entry alone
    got = span_dims(p, basis_table(spaces), words(masks, -(-n // 64)))
    assert got.tolist() == [Subspace.from_vectors(p, d, [
        r for c in range(n) if m >> c & 1 for r in spaces[c].rows]).dim
        for m in masks]


def test_span_dims_reduce_by_normalised_pivots():
    # over F_3, e_0 + 2e_1 + e_2 meets the pivot of e_0 and becomes the
    # pivot (0, 2, 1) of column 1; 2(0, 2, 1) = (0, 1, 2) must reduce to
    # zero by it, which it does only once that pivot is normalised
    spaces = [Subspace.from_vectors(3, 3, [v])
              for v in ([1, 0, 0], [1, 2, 1], [0, 1, 2])]
    assert span_dims(3, basis_table(spaces)).tolist() == \
        _doubling_dims(spaces) == [0, 1, 1, 2, 1, 2, 2, 2]


def test_span_dims_of_an_all_zero_table():
    zero = Subspace.zero(3, 4)
    assert basis_table([zero, zero]).shape == (2, 0, 4)
    assert span_dims(3, basis_table([zero, zero])).tolist() == [0] * 4


def test_span_fold_memory_is_bounded_by_the_block():
    # C12 on 60 coordinates, five 12-cycles: all 2^12 stacks at once would
    # hold 2^12 * 60^2 int64 entries (118 MB); a block holds _SPAN_BLOCK
    G = cyclic(12)
    shift = np.zeros((60, 60), dtype=np.int64)
    for x in range(60):
        shift[x // 12 * 12 + (x + 1) % 12, x] = 1
    rep = representation_from_generator_matrices(G, 3, [shift])
    W = Subspace.from_vectors(3, 60, np.eye(60, dtype=int)[[0, 13, 26]])
    table = basis_table([rep.act_subspace(g, W) for g in range(G.order)])
    tracemalloc.start()
    try:
        dims = span_dims(3, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the translates g.W are spanned by distinct coordinate vectors
    assert dims.tolist() == [3 * m.bit_count() for m in range(1 << 12)]
    assert peak < 1.5 * 8 * linalg._SPAN_BLOCK + dims.nbytes
