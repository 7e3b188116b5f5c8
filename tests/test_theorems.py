"""One test block per growth statement checker, set and linear variants."""

import functools
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaction import config, groups, setfuncs, theorems
from subaction._kernels import SubsetFold, words
from subaction.actions import (conjugation_action, left_translation_action,
                               natural_action)
from subaction.cli import _dump, to_jsonable
from subaction.errors import (CapacityError, DomainError, InvariantError,
                              StructuralError)
from subaction.groups import (FiniteGroup, cyclic, dihedral, direct_product,
                              symmetric)
from subaction.linalg import (Representation, Subspace, actor_growth_linear,
                              basis_table, enumerate_subspaces,
                              permutation_representation,
                              representation_from_generator_matrices)
from subaction.search import (FAMILIES, _draw, _Pool, _run_drawn,
                              build_action, build_group, search)
from subaction.setfuncs import Exhaustiveness, identity_atom
from subaction.theorems import (STATEMENT_IDS, check_fragment_bounds,
                                check_freiman, check_hamidoune, check_kneser,
                                check_murphy, check_ruzsa_triple,
                                check_small_growth, check_tao_small_doubling,
                                find_petridis_witness, find_taod_witness,
                                kneser_example_instance)


def _swap_rep():
    return representation_from_generator_matrices(
        cyclic(2), 3, [np.array([[0, 1], [1, 0]])])


def test_statement_ids_complete():
    assert STATEMENT_IDS == (
        "kneser", "murphy", "small_growth", "freiman", "ruzsa",
        "hamidoune", "petridis", "tao_doubling", "taod", "fragment_bounds")


def test_empty_sets_rejected():
    action = natural_action(symmetric(3))
    with pytest.raises(StructuralError):
        check_kneser(action, (), (0,))
    with pytest.raises(StructuralError):
        check_kneser(action, (0,), ())
    with pytest.raises(DomainError):
        check_kneser(action, (99,), (0,))


# -- kneser ----------------------------------------------------------------------


def test_kneser_failing_instance():
    action, A, Y, expected = kneser_example_instance(4, 1, 2)
    rep = check_kneser(action, A, Y)
    assert rep.hypotheses_hold
    assert rep.conclusion_holds is False
    assert rep.violated  # permitted: this statement may fail
    assert rep.counterexample == {"A": A, "Y": Y, "lhs": 6, "rhs": 13}
    assert rep.details["stabilizer_order"] == expected["stabilizer_order"] == 4
    assert rep.details["variant_holds"] is False


def test_kneser_equality_at_k_equals_ell():
    action, A, Y, expected = kneser_example_instance(5, 2, 2)
    rep = check_kneser(action, A, Y)
    assert rep.conclusion_holds
    lhs = rep.details["stabilizer_order"] + rep.details["product_size"]
    assert lhs == rep.details["actor_size"] + rep.details["target_size"]


def test_kneser_formula_grid():
    for n in range(2, 6):
        for ell in range(1, n):
            for k in range(1, ell + 1):
                action, A, Y, expected = kneser_example_instance(n, k, ell)
                rep = check_kneser(action, A, Y)
                assert rep.details["actor_size"] == expected["actor_size"]
                assert rep.details["product_size"] == expected["product_size"]
                assert rep.details["stabilizer_order"] == \
                    expected["stabilizer_order"]
                assert rep.conclusion_holds == (ell == k)


def test_kneser_example_actors_match_the_element_loop():
    # A is every g with g({0..k-1}) inside {0..ell-1}, as the set test
    # over each element of G reads it
    for n in range(4, 8):
        action = natural_action(symmetric(n))
        for ell in range(1, n):
            inside = set(range(ell))
            for k in range(1, ell + 1):
                loop = tuple(g for g in range(action.group.order)
                             if set(action.table[g][:k].tolist()) <= inside)
                _action, A, _Y, expected = kneser_example_instance(
                    n, k, ell, action)
                assert A == loop and len(A) == expected["actor_size"]


def test_kneser_example_domain():
    with pytest.raises(DomainError):
        kneser_example_instance(4, 0, 2)
    with pytest.raises(DomainError):
        kneser_example_instance(4, 3, 2)
    with pytest.raises(DomainError):
        kneser_example_instance(4, 2, 4)


def test_kneser_holds_on_translation_actions():
    # classical Kneser inequality for finite groups
    G = cyclic(12)
    action = left_translation_action(G)
    rng = random.Random(3)
    for _ in range(60):
        A = rng.sample(range(12), rng.randint(1, 5))
        Y = rng.sample(range(12), rng.randint(1, 5))
        assert check_kneser(action, A, Y).conclusion_holds


# -- murphy ----------------------------------------------------------------------


def test_murphy_positive():
    G = symmetric(3)
    action = natural_action(G)
    A = (0, 1)  # identity and a transposition: A.Y = Y for its fixed pair
    # pick Y = fixed points union structure: use the orbit {0,1} of (0 1)
    # first find the transposition swapping 0,1
    from subaction.perms import from_cycles
    t = G.element_index(from_cycles(3, [(0, 1)]))
    rep = check_murphy(action, (0, t), (0, 1))
    assert rep.hypotheses_hold and rep.conclusion_holds
    H = rep.witnesses["generated_subgroup"]
    assert H.order == 2
    orbits = rep.witnesses["orbits"]
    assert sorted(map(sorted, orbits)) == [[0, 1]]


def test_murphy_hypothesis_fails():
    action = natural_action(symmetric(3))
    rep = check_murphy(action, tuple(range(6)), (0,))
    assert not rep.hypotheses_hold
    assert rep.conclusion_holds is None
    assert not rep.violated


def test_murphy_orbit_partition():
    G = cyclic(6)
    action = left_translation_action(G)
    A = (0, 2, 4)  # the even subgroup: A.Y = Y for Y a union of cosets
    Y = (0, 2, 4)
    rep = check_murphy(action, A, Y)
    assert rep.hypotheses_hold and rep.conclusion_holds
    orbits = rep.witnesses["orbits"]
    assert frozenset().union(*orbits) == frozenset(Y)
    for o1, o2 in itertools.combinations(orbits, 2):
        assert not (o1 & o2)


def _orbits_by_point(action, H, Y) -> tuple[frozenset[int], ...]:
    """The H-orbits that meet Y, one act_set of H per orbit, from each
    point of Y that no earlier orbit holds."""
    orbits: list[frozenset[int]] = []
    seen: set[int] = set()
    for y in sorted(Y):
        if y not in seen:
            orbits.append(action.act_set(H.member_tuple, (y,)))
            seen |= orbits[-1]
    return tuple(orbits)


def test_murphy_orbits_match_the_per_point_walk():
    # murphy draws of every search family, and the scenario_mix pools'
    # murphy_s7 and murphy_a8 requests
    cases = []
    for family in FAMILIES:
        pool = _Pool(family)
        for cursor in range(40):
            action, sc = _draw(random.Random(f"orbits:{family}:{cursor}"),
                               pool, "murphy")
            cases.append((action, sc["sets"]["A"], sc["sets"]["Y"]))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "data",
                           "scenario_mix.json")) as f:
        slots = json.load(f)["slots"]
    for slot in ("murphy_s7", "murphy_a8"):
        pool = [item["request"]["scenario"] for item in slots[slot]["pool"]]
        gspec, aspec = pool[0]["group"], pool[0]["action"]
        assert all(sc["group"] == gspec and sc["action"] == aspec
                   for sc in pool)
        action = build_action(build_group(gspec), aspec)
        cases += [(action, sc["sets"]["A"], sc["sets"]["Y"]) for sc in pool]
    held = differ = 0
    for action, A, Y in cases:
        rep = check_murphy(action, A, Y)
        if not rep.hypotheses_hold:
            continue
        G = action.group
        H = G.generated_subgroup(G.product_set(G.inverse_set(A), A))
        assert rep.witnesses["generated_subgroup"].members == H.members
        orbits = _orbits_by_point(action, H, Y)
        assert rep.witnesses["orbits"] == orbits
        assert rep.details["orbit_count"] == len(orbits)
        held += 1
        # the orbits of <A> differ from those of <A^-1 A> on some draws
        differ += _orbits_by_point(action, G.generated_subgroup(A), Y) \
            != orbits
    assert held > 100 and differ > 0


def test_murphy_linear():
    rep_obj = _swap_rep()
    D = Subspace.from_vectors(3, 2, [[1, 1]])
    rep = check_murphy(rep_obj, (0, 1), D)
    assert rep.hypotheses_hold and rep.conclusion_holds


# -- small growth ----------------------------------------------------------------


def test_small_growth_positive():
    G = cyclic(6)
    action = left_translation_action(G)
    A, Y = (0, 1), (0, 1, 2, 3)
    # |A.Y| = 5 <= (2 - 1/4)*4 = 7: conclusion A^-1 A in Sym_1/4(Y)
    rep = check_small_growth(action, A, Y, "1/4")
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_small_growth_alpha_range():
    action = natural_action(symmetric(3))
    for bad in ("0", "-1/2", "3/2"):
        with pytest.raises(DomainError):
            check_small_growth(action, (0,), (0,), bad)
    # alpha = 1 allowed
    rep = check_small_growth(action, (0,), (0,), "1")
    assert rep.hypotheses_hold


def test_small_growth_conclusion_matches_definition():
    G = cyclic(8)
    action = left_translation_action(G)
    rng = random.Random(9)
    for _ in range(40):
        A = tuple(rng.sample(range(8), rng.randint(1, 3)))
        Y = tuple(rng.sample(range(8), rng.randint(1, 6)))
        alpha = Fraction(rng.randint(1, 4), 4)
        rep = check_small_growth(action, A, Y, alpha)
        if not rep.hypotheses_hold:
            continue
        sym = action.symmetry_set(Y, alpha)
        quot = G.product_set(G.inverse_set(A), A)
        assert rep.conclusion_holds == (quot <= sym)
        assert rep.conclusion_holds  # proved statement: must never fail


def test_small_growth_linear():
    rep_obj = _swap_rep()
    D = Subspace.from_vectors(3, 2, [[1, 1]])
    rep = check_small_growth(rep_obj, (0, 1), D, "1")
    assert rep.hypotheses_hold and rep.conclusion_holds


# -- freiman ---------------------------------------------------------------------


def test_freiman_positive_and_checks():
    G = cyclic(6)
    action = left_translation_action(G)
    A = (0, 1)
    Y = (0, 1, 2, 3)
    rep = check_freiman(action, A, Y, "1/2")
    assert rep.hypotheses_hold
    assert rep.conclusion_holds
    checks = rep.details["checks"]
    assert checks["square_in_symmetry"] and checks["quotient_in_symmetry"]


def test_freiman_translation_remark():
    G = cyclic(12)
    action = left_translation_action(G)
    # Gamma_A = AA^-1 holds on any translation instance with the hypothesis
    rep = check_freiman(action, (0, 1), (0, 1, 2, 3), "1/2")
    assert rep.hypotheses_hold
    checks = rep.details["checks"]
    assert rep.details["remark_applies"]
    assert checks["weak_stabilizer_equals_quotient"]
    assert "remark_subgroup" not in checks  # 2|A^-1 A| = 6 is not < 3|A| = 6
    # A a subgroup: 2|A^-1 A| = 6 < 9 and AA^-1 = A is a subgroup
    rep2 = check_freiman(action, (0, 4, 8), (0, 4, 8), "1")
    assert rep2.hypotheses_hold
    assert rep2.details["checks"]["remark_subgroup"]
    assert rep2.conclusion_holds


def test_freiman_corollary_subgroup():
    # Y = a subgroup, A inside it: Sym_alpha(Y) lands inside AA^-1 = Y
    G = cyclic(8)
    action = left_translation_action(G)
    A = (0, 2, 4, 6)
    Y = (0, 2, 4, 6)
    rep = check_freiman(action, A, Y, "1")
    assert rep.hypotheses_hold
    checks = rep.details["checks"]
    if "corollary_subgroup" in checks:
        assert checks["corollary_subgroup"]


def test_freiman_square_equals_quotient_exactly_when_it_is_a_subgroup():
    # check_freiman reads <AA^-1> = AA^-1 as (AA^-1)^2 = AA^-1; the
    # groups of every pool action
    rng = random.Random(449)
    seen = set()
    for gspec in {json.dumps(g): g for pool in FAMILIES.values()
                  for g, _a in pool}.values():
        G = build_group(gspec)
        for _ in range(20):
            A = rng.sample(range(G.order), rng.randint(1, min(G.order, 4)))
            if rng.random() < 0.5:
                # a right coset Hg: AA^-1 = H, a subgroup
                H = G.generated_set(A[1:])
                A = G.product_set(H, A[:1])
            Q = G.product_set(A, G.inverse_set(A))
            closed = G.generated_set(Q) == Q
            assert (G.product_set(Q, Q) == Q) == closed, (gspec, A)
            seen.add(closed)
    assert seen == {True, False}


def test_freiman_linear():
    rep_obj = _swap_rep()
    D = Subspace.from_vectors(3, 2, [[1, 1]])
    rep = check_freiman(rep_obj, (0, 1), D, "1")
    assert rep.hypotheses_hold and rep.conclusion_holds


# -- ruzsa -----------------------------------------------------------------------


def test_ruzsa_random_instances():
    action = natural_action(symmetric(4))
    rng = random.Random(17)
    for _ in range(200):
        A = rng.sample(range(24), rng.randint(1, 6))
        B = rng.sample(range(24), rng.randint(1, 6))
        Y = rng.sample(range(4), rng.randint(1, 3))
        rep = check_ruzsa_triple(action, A, B, Y)
        assert rep.hypotheses_hold
        assert rep.conclusion_holds
        assert rep.details["lhs"] <= rep.details["rhs"]


def test_ruzsa_commuting_variant():
    G = cyclic(9)
    action = left_translation_action(G)
    rng = random.Random(5)
    for _ in range(100):
        A = rng.sample(range(9), rng.randint(1, 4))
        B = rng.sample(range(9), rng.randint(1, 4))
        Y = rng.sample(range(9), rng.randint(1, 4))
        rep = check_ruzsa_triple(action, A, B, Y)
        assert rep.conclusion_holds
        assert rep.details["commuting"] is True


def test_ruzsa_witness_values():
    action = natural_action(symmetric(3))
    A, B, Y = (0, 1), (2, 3), (0,)
    rep = check_ruzsa_triple(action, A, B, Y)
    AB = action.group.product_set(A, B)
    lhs = action.image_size(sorted(AB), Y) ** 2
    max_b = max(action.image_size(
        sorted(action.group.product_set(A, (b,))), Y) for b in B)
    rhs = len(AB) * action.image_size(B, Y) * max_b
    assert rep.details["lhs"] == lhs
    assert rep.details["rhs"] == rhs
    assert lhs <= rhs
    assert rep.witnesses["product_actors"] == AB
    per_b = rep.witnesses["b_images"]
    assert set(per_b) == set(B)
    assert max(per_b.values()) == max_b


# -- hamidoune -------------------------------------------------------------------


def test_hamidoune_lambda_grid():
    action = natural_action(symmetric(4))
    Y = (0,)
    for lam in ("0", "1/12", "1/6"):
        rep = check_hamidoune(action, Y, lam)
        assert rep.hypotheses_hold and rep.conclusion_holds
        checks = rep.details["checks"]
        assert checks["stabilizer_in_subgroup"]
        assert checks["floor_bound"]
        assert checks["minimum_at_subgroup"]
        assert rep.exhaustiveness.kind == "exhaustive"


@pytest.mark.parametrize("build", [symmetric, dihedral, cyclic])
def test_hamidoune_cut_matches_the_lattice_above_the_ground_cap(build):
    # above MAX_EXHAUSTIVE_GROUND the cut still gives H: the least-order
    # subgroup containing G_Y among those of least growth, found here by a
    # scan of the lattice; at lambda = mu several subgroups tie and the
    # least order must win
    action = natural_action(build(3 if build is symmetric else 6))
    G = action.group
    for Y in ((0,), (0, 1), (0, 2)):
        mu = theorems.min_image_ratio(action, Y).mu
        GY = action.set_stabilizer(Y)
        for lam in (mu / 3, mu / 2, mu):
            exact = check_hamidoune(action, Y, lam)
            with config.overrides({"MAX_EXHAUSTIVE_GROUND": 1}):
                above = check_hamidoune(action, Y, lam)
            _growth, _order, H = min(
                (action.image_size(K.member_tuple, Y) - lam * K.order,
                 K.order, K.member_tuple) for K in G.subgroups()
                if GY.members <= K.members)
            assert above.exhaustiveness.kind == "exhaustive"
            assert above.conclusion_holds
            assert above.witnesses["subgroup"].member_tuple == H
            assert to_jsonable(above) == to_jsonable(exact)


def test_hamidoune_past_the_lattice_cap():
    # S7 has order 5040 > MAX_SUBGROUP_ENUM_ORDER: mu comes from the
    # min-cut Dinkelbach route alone, and H from one cut
    action = natural_action(symmetric(7))
    mu = theorems.min_image_ratio(action, (0, 1)).mu
    assert mu == Fraction(1, 720)
    rep = check_hamidoune(action, (0, 1), mu / 2)
    assert rep.conclusion_holds
    assert rep.exhaustiveness == Exhaustiveness("exhaustive")
    assert rep.witnesses["subgroup"].members == \
        action.set_stabilizer((0, 1)).members
    assert rep.details["subgroup_order"] == 240
    assert rep.details["subgroup_growth"] == Fraction(11, 6)


def test_hamidoune_verifies_the_whole_a8_by_generators(monkeypatch):
    # at lambda = mu on A8 natural, H is all of A8: its check grows <S>
    # from a few generators, not from all |H|^2 = 4 * 10^8 products
    G = groups.alternating(8)
    action = natural_action(G)
    count = []
    real = FiniteGroup._products

    def counted(self, a, b, *right):
        out = real(self, a, b, *right)
        count.append(out.size)
        return out
    monkeypatch.setattr(FiniteGroup, "_products", counted)
    rep = check_hamidoune(action, [0, 1], Fraction(8, G.order))
    assert rep.conclusion_holds and rep.details["subgroup_order"] == G.order
    assert sum(count) <= 16 * G.order


def test_hamidoune_lambda_out_of_range():
    action = natural_action(symmetric(4))
    with pytest.raises(DomainError) as ei:
        check_hamidoune(action, (0,), "1/2")
    assert "[0, 1/6]" in str(ei.value)
    assert "1/2" in str(ei.value)


def test_hamidoune_zero_lambda_uses_stabilizer():
    action = natural_action(symmetric(4))
    rep = check_hamidoune(action, (0, 1), "0")
    H = rep.witnesses["subgroup"]
    assert H.members == action.set_stabilizer((0, 1)).members


def test_hamidoune_corollary():
    action = natural_action(symmetric(4))
    rep = check_hamidoune(action, (0,), "1/6", (0, 1))
    checks = rep.details["checks"]
    assert "corollary_bound" in checks and checks["corollary_bound"]
    assert rep.details["saturated_actor_size"] >= 1
    rep0 = check_hamidoune(action, (0,), "0", (0, 1))
    assert "corollary_skipped" in rep0.details
    assert "corollary_bound" not in rep0.details["checks"]


def test_hamidoune_linear():
    rep_obj = _swap_rep()
    D = Subspace.from_vectors(3, 2, [[1, 1]])
    rep = check_hamidoune(rep_obj, D, "1/2")
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_hamidoune_linear_builds_each_span_once(monkeypatch):
    # every actor set's span comes from the one doubling table; none is
    # rebuilt from scratch for the minimisation. module_span runs only for
    # the closed form mu = dim(G.W) / |G| and for c(H).
    rep_obj = permutation_representation(left_translation_action(cyclic(8)),
                                         2)
    W = Subspace.from_vectors(2, 8, [[1, 1] + [0] * 6])
    real = Representation.module_span

    for lam in ("1/4", "7/8"):  # mu = 7/8: atoms {e} and G
        calls = []

        def counting(self, A, S):
            calls.append(tuple(A))
            return real(self, A, S)

        monkeypatch.setattr(Representation, "module_span", counting)
        rep = check_hamidoune(rep_obj, W, lam)
        monkeypatch.undo()
        assert rep.conclusion_holds
        H = identity_atom(actor_growth_linear(rep_obj, W, lam), rep_obj.group)
        assert rep.witnesses["subgroup"].members == H.members
        assert calls == [tuple(range(8)), H.member_tuple]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hamidoune_linear_mu_is_the_fold_minimum(data):
    # mu = dim(G.W) / |G| in closed form equals the least span-dimension
    # ratio over every nonempty actor set, read from the fold, on
    # permutation representations and on C2, C4 and C8 given by generator
    # matrices (a swap, a rotation of order 4, diag(2, 1) over F_17)
    name = data.draw(st.sampled_from(["c6", "s3", "d4", "swap", "rot",
                                      "diag"]))
    p = data.draw(st.sampled_from([2, 3]))
    rep_obj = {"swap": _swap_rep,
               "rot": lambda: representation_from_generator_matrices(
                   cyclic(4), 3, [np.array([[0, 2], [1, 0]])]),
               "diag": lambda: representation_from_generator_matrices(
                   cyclic(8), 17, [np.array([[2, 0], [0, 1]])])}.get(
        name, lambda: _permutation_rep(name, p))()
    d = rep_obj.dim
    W = Subspace.from_vectors(rep_obj.p, d, data.draw(st.lists(
        st.lists(st.integers(0, rep_obj.p - 1), min_size=d, max_size=d),
        min_size=1, max_size=2), label="W"))
    if W.is_zero():
        return
    n = rep_obj.group.order
    fold = theorems._Target(rep_obj, W).fold(range(n), "")
    mu = check_hamidoune(rep_obj, W, 0).details["mu"]
    assert mu == Fraction(*fold.min_ratio()[:2])


_WIDE = (Fraction(1, 2 ** 41), Fraction(2 ** 62 + 1, 2 ** 62),
         Fraction(2 ** 70 + 1))


@pytest.mark.parametrize("x", _WIDE)
@pytest.mark.parametrize("name, p, row", [("c6", 3, {0: 1, 1: 1}),
                                          ("d4", 2, {0: 1, 3: 1})])
def test_hamidoune_linear_wide_lambda_matches_the_fraction_oracle(
        name, p, row, x):
    # lam = mu x / (1 + x) lies in (0, mu), and its denominator passes
    # 2^40 (and 2^63 past the first x): no coefficient is refused, and
    # the subgroup is the least minimiser of dim span(A.W) - lam|A|
    # containing e, read from the growth of every nonempty A
    rep_obj = _permutation_rep(name, p)
    n = rep_obj.group.order
    W = Subspace.from_vectors(p, n, [[row.get(i, 0) for i in range(n)]])
    mu = Fraction(rep_obj.module_span(range(n), W).dim, n)
    lam = mu * x / (1 + x)
    growth = {m: rep_obj.module_span(
        [g for g in range(n) if m >> g & 1], W).dim - lam * m.bit_count()
        for m in range(1, 1 << n)}
    best = min(growth.values())
    atom = min((m for m, v in growth.items() if v == best and m & 1),
               key=int.bit_count)
    rep = check_hamidoune(rep_obj, W, lam)
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.details["mu"] == mu
    assert rep.details["subgroup_growth"] == best
    assert rep.witnesses["subgroup"].members == {
        g for g in range(n) if atom >> g & 1}


def test_hamidoune_linear_lambda_past_2_to_the_40():
    # the F_3 swap representation of C2 with W = <(1, 1)>, which the swap
    # fixes: mu = 1/2, and the whole group minimises 1 - lam|A|
    rep = check_hamidoune(_swap_rep(), Subspace.from_vectors(3, 2, [[1, 1]]),
                          Fraction(1, 2 ** 40))
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.witnesses["subgroup"].order == 2
    assert rep.details["subgroup_growth"] == 1 - Fraction(2, 2 ** 40)


def test_linear_folds_check_the_kernel_against_the_reference_join(
        monkeypatch):
    # a kernel that loses one dimension of the span of every image is
    # refused before hamidoune or petridis reads a witness from its fold
    real = theorems.span_dims

    def short(p, bases, rows=None):
        out = real(p, bases, rows)
        out[-1] -= 1
        return out
    rep, W = _swap_rep(), Subspace.from_vectors(3, 2, [[1, 0]])
    assert check_hamidoune(rep, W, "1/2").conclusion_holds
    monkeypatch.setattr(theorems, "span_dims", short)
    with pytest.raises(InvariantError, match="dimension 1, their join 2"):
        check_hamidoune(rep, W, "1/2")
    with pytest.raises(InvariantError, match="dimension 1, their join 2"):
        find_petridis_witness(rep, [0, 1], W, 2)


def test_linear_checkers_keep_span_dimensions_past_255():
    # C2 swapping the halves of F_2^260, W the first 200 coordinates: the
    # spans of {e}, {g} and G have dimensions 200, 200 and 260, so the
    # fold's sizes no longer fit a byte
    d = 260
    swap = np.zeros((d, d), dtype=np.int64)
    swap[(np.arange(d) + d // 2) % d, np.arange(d)] = 1
    rep_obj = representation_from_generator_matrices(cyclic(2), 2, [swap])
    W = Subspace.from_vectors(2, d, np.eye(d, dtype=int)[:200].tolist())
    rep = check_hamidoune(rep_obj, W, "100")
    assert rep.conclusion_holds and rep.details["mu"] == 130
    assert rep.witnesses["subgroup"].order == 2
    assert rep.details["subgroup_growth"] == 60
    rep = find_petridis_witness(rep_obj, (0, 1), W, "130")
    assert rep.conclusion_holds and rep.witnesses["B"] == {0, 1}
    assert rep.details["witness_ratio"] == 130


# -- petridis --------------------------------------------------------------------


def test_petridis_witness_properties():
    G = symmetric(3)
    action = natural_action(G)
    A = tuple(range(6))
    Y = (0,)
    rep = find_petridis_witness(action, A, Y, "1/2")
    assert rep.hypotheses_hold and rep.conclusion_holds
    B = rep.witnesses["B"]
    assert set(B) <= set(A)
    ratio = rep.details["witness_ratio"]
    assert ratio == Fraction(action.image_size(sorted(B), Y), len(B))
    assert ratio <= Fraction(1, 2)
    assert rep.details["witness_size"] == len(B)
    assert rep.exhaustiveness.kind == "exhaustive"


def test_petridis_tie_break_smallest_then_lex():
    # translation with Y a point: every C has |C.Y| = |C|, so all 31
    # subsets tie at ratio 1; the tie rule picks the least singleton
    G = cyclic(5)
    action = left_translation_action(G)
    A = tuple(range(5))
    rep = find_petridis_witness(action, A, (0,), "1")
    B = rep.witnesses["B"]
    assert B == frozenset({0})


def test_petridis_hypothesis_fails():
    action = natural_action(symmetric(3))
    rep = find_petridis_witness(action, (1,), (0,), "1/100")
    assert not rep.hypotheses_hold
    assert rep.conclusion_holds is None


def test_petridis_alpha_nonnegative():
    action = natural_action(symmetric(3))
    with pytest.raises(DomainError):
        find_petridis_witness(action, (0,), (0,), "-1")


def test_petridis_alpha_too_wide_for_the_int64_kernel():
    # the pair-ratio kernel multiplies in int64; such an alpha is checked
    # exhaustively by doubling instead
    action = left_translation_action(cyclic(5))
    alpha = Fraction(2 ** 70 + 1, 2 ** 70)
    rep = find_petridis_witness(action, range(5), (0,), alpha)
    assert rep.conclusion_holds
    assert rep.exhaustiveness.kind == "exhaustive"


def test_petridis_sampled_above_order_cap():
    G = dihedral(8)  # order 16 > 14
    action = left_translation_action(G)
    A = tuple(range(16))
    with config.overrides({"SAMPLE_COUNT": 60}):
        rep = find_petridis_witness(action, A, (0,), "1", seed=2)
    assert rep.conclusion_holds
    assert rep.exhaustiveness.kind == "sampled"


def test_petridis_linear():
    rep_obj = _swap_rep()
    W = Subspace.from_vectors(3, 2, [[1, 0]])
    rep = find_petridis_witness(rep_obj, (0, 1), W, "2")
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_petridis_linear_sampled_uses_the_given_seed_and_samples():
    # order 15 > PETRIDIS_EXHAUSTIVE_MAX_ORDER, so the for-all-C check samples
    rep_obj = permutation_representation(
        left_translation_action(cyclic(15)), 2)
    W = Subspace.from_vectors(2, 15, [[1] + [0] * 14])
    with config.overrides({"SAMPLE_COUNT": 40}):
        rep = find_petridis_witness(rep_obj, (0, 1), W, "3", seed=12345)
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.exhaustiveness == Exhaustiveness("sampled", 40, 12345)


def _lex_before(a: int, b: int) -> bool:
    """Mask order matching lexicographic order on sorted index tuples."""
    if a == b:
        return False
    low = ((a ^ b) & -(a ^ b)).bit_length() - 1
    return (a >> low) & 1 == 1


def _ratio_argmin(pairs: list[tuple[int, int]]) -> int:
    """Index of the minimal num/den pair, ties by popcount then mask order.

    pairs[i] is (value_i, size_i) for mask i+1; returns the winning mask.
    """
    best = None
    best_mask = 0
    for mask, (val, size) in enumerate(pairs, start=1):
        if best is None or val * best[1] < best[0] * size:
            best, best_mask = (val, size), mask
            continue
        if val * best[1] == best[0] * size:
            bc, cc = best_mask.bit_count(), mask.bit_count()
            if cc < bc or (cc == bc and _lex_before(mask, best_mask)):
                best, best_mask = (val, size), mask
    return best_mask


@functools.cache
def _permutation_rep(name, p):
    return permutation_representation(_small_action(name), p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_petridis_linear_witness_matches_the_scalar_argmin(data):
    # the witness comes from the span-dimension fold; a scalar scan of
    # every nonempty C inside A with the same tie rule must pick it too
    rep_obj = _permutation_rep(data.draw(st.sampled_from(["c6", "s3"])),
                               data.draw(st.sampled_from([2, 3])))
    n, d = rep_obj.group.order, rep_obj.dim
    A = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                 max_size=n), label="A"))
    W = Subspace.from_vectors(rep_obj.p, d, data.draw(st.lists(
        st.lists(st.integers(0, rep_obj.p - 1), min_size=d, max_size=d),
        min_size=1, max_size=2), label="W"))
    if W.is_zero():
        return
    alpha = Fraction(rep_obj.module_span(A, W).dim, len(A))
    report = find_petridis_witness(rep_obj, A, W, alpha)
    dims = [rep_obj.module_span([a for i, a in enumerate(A) if m >> i & 1],
                                W).dim for m in range(1, 1 << len(A))]
    wmask = _ratio_argmin([(dim, m.bit_count())
                           for m, dim in enumerate(dims, start=1)])
    B = frozenset(a for i, a in enumerate(A) if wmask >> i & 1)
    assert report.hypotheses_hold and report.conclusion_holds
    assert report.witnesses["B"] == B
    assert report.details["witness_ratio"] == Fraction(dims[wmask - 1],
                                                       len(B))


# -- tao doubling ----------------------------------------------------------------


def test_tao_doubling_positive():
    G = cyclic(6)
    action = left_translation_action(G)
    A = (0, 3)
    rep = check_tao_small_doubling(action, A, A, "1")
    assert rep.hypotheses_hold and rep.conclusion_holds
    checks = rep.details["checks"]
    for key in ("target_inside", "subgroup_size", "image_size",
                "orbit_union"):
        assert checks[key], key
    H = rep.witnesses["subgroup"]
    assert H.order <= (2 - 1) * 2  # (2/eps - 1)|Y|


def test_tao_doubling_past_the_ground_cap():
    # C30 has 30 > MAX_EXHAUSTIVE_GROUND elements; H comes from one cut
    G = cyclic(30)
    (K,) = [K for K in G.subgroups() if K.order == 5]
    rep = check_tao_small_doubling(left_translation_action(G), K.members,
                                   K.members, "1/2")
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.details["mu"] == 1 and rep.details["lambda"] == Fraction(3, 4)
    assert rep.witnesses["subgroup"].members == K.members
    assert rep.witnesses["subgroup_image"] == K.members


def test_tao_doubling_clause_reporting():
    G = cyclic(6)
    action = left_translation_action(G)
    rep = check_tao_small_doubling(action, (1,), (0, 1), "1/2")
    assert not rep.hypotheses_hold
    assert "failed_clauses" in rep.details
    assert "actor_at_least_target" in rep.details["failed_clauses"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hamidoune_saturated_set_is_the_loop(family):
    # M = {g : g.Y inside A0.Y}, as one gather, on every pool action of
    # every search family, against the loop over G
    rng = random.Random(family)
    pool = _Pool(family)
    for i in range(len(pool)):
        action = pool[i][0]
        G, d = action.group, action.domain_size
        for _ in range(3):
            Y = sorted(rng.sample(range(d), rng.randint(1, min(d, 3))))
            A0 = rng.sample(range(G.order), rng.randint(1, min(G.order, 4)))
            A0Y = action.act_set(A0, Y)
            loop = [g for g in range(G.order)
                    if action.act_point_set(g, Y) <= A0Y]
            got = setfuncs._saturated(
                action.table[:, Y], groups._membership(d, list(A0Y)))
            assert got.tolist() == loop
            mu = setfuncs.group_image_ratio(action, Y)
            rep = check_hamidoune(action, Y, mu / 2, A0)
            assert rep.details["saturated_actor_size"] == len(loop)


def _masked_arrays_imported(code: str) -> str:
    """What a fresh interpreter prints for 'numpy.ma' in sys.modules once
    it has run `code`."""
    src = os.path.dirname(os.path.dirname(theorems.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code += "import sys\nprint('numpy.ma' in sys.modules)\n"
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_hamidoune_imports_no_masked_arrays():
    # the set-side route finds G.Y from a hit array, not np.unique, whose
    # first call imports numpy.ma
    code = (
        "from subaction.actions import left_translation_action, "
        "natural_action\n"
        "from subaction.groups import cyclic, symmetric\n"
        "from subaction.theorems import check_hamidoune\n"
        "assert check_hamidoune(natural_action(symmetric(4)), (0, 1), "
        "'1/12', (1, 2)).conclusion_holds\n"
        "assert check_hamidoune(left_translation_action(cyclic(12)), (0,), "
        "'1/2', (1, 2)).conclusion_holds\n")
    assert _masked_arrays_imported(code) == "False\n"


def test_subgroup_growth_imports_no_masked_arrays():
    # generated_set (behind murphy's H and the search's biased actors)
    # and the subgroup check past one block of products drop repeated
    # elements by a scatter, not by np.unique
    code = (
        "from subaction.actions import natural_action\n"
        "from subaction.groups import Subgroup, alternating, symmetric\n"
        "from subaction.search import search\n"
        "from subaction.theorems import check_murphy\n"
        "assert len(symmetric(5).generated_set([1, 2])) == 120\n"
        "A8 = alternating(8)\n"
        "assert A8.mul_table is None\n"
        "A7 = [i for i, r in enumerate(A8.images.tolist()) if r[7] == 7]\n"
        "assert Subgroup(A8, frozenset(A7)).order == 2520\n"
        "assert check_murphy(natural_action(symmetric(7)), [0, 1], "
        "[0, 1]).conclusion_holds\n"
        "assert search('cyclic_translation', 'murphy', 30, 7).instances "
        "== 30\n")
    assert _masked_arrays_imported(code) == "False\n"


def test_tao_doubling_epsilon_positive():
    action = left_translation_action(cyclic(4))
    with pytest.raises(DomainError):
        check_tao_small_doubling(action, (0,), (0,), "0")


def test_hamidoune_and_tao_doubling_build_no_lattice_and_no_fold(
        monkeypatch):
    # mu is |G.Y| / |G| and H comes from one cut: neither checker, nor a
    # hamidoune search, enumerates subgroups or folds subsets
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for cls, name in ((FiniteGroup, "subgroups"), (SubsetFold, "__init__")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    rep = check_hamidoune(natural_action(symmetric(4)), (0,), "1/12")
    assert rep.conclusion_holds
    rep = check_tao_small_doubling(left_translation_action(cyclic(6)),
                                   (0, 3), (0, 3), "1")
    assert rep.hypotheses_hold and rep.conclusion_holds
    res = search("symmetric_natural", "hamidoune", 30, 7)
    assert res.hypotheses_held == 30 and not res.violations
    assert calls == []


def test_petridis_witness_search_names_the_ground_cap(monkeypatch):
    monkeypatch.delenv("SUBACTION_MAX_EXHAUSTIVE_GROUND", raising=False)
    action = natural_action(symmetric(5))
    with pytest.raises(CapacityError) as ei:
        find_petridis_witness(action, tuple(range(25)), (0,), "1")
    assert (ei.value.cap_name, ei.value.cap_value) == \
        ("MAX_EXHAUSTIVE_GROUND", 24)
    monkeypatch.setenv("SUBACTION_MAX_EXHAUSTIVE_GROUND", "3")
    with pytest.raises(CapacityError) as ei:
        find_petridis_witness(action, (0, 1, 2, 3), (0,), "1")
    assert ei.value.cap_value == 3


# -- taod ------------------------------------------------------------------------


def test_taod_witness_search_names_the_ground_cap(monkeypatch):
    monkeypatch.delenv("SUBACTION_MAX_EXHAUSTIVE_GROUND", raising=False)
    action = left_translation_action(cyclic(30))
    with pytest.raises(CapacityError) as ei:
        find_taod_witness(action, (0,), tuple(range(25)), "1")
    assert (ei.value.cap_name, ei.value.cap_value) == \
        ("MAX_EXHAUSTIVE_GROUND", 24)
    monkeypatch.setenv("SUBACTION_MAX_EXHAUSTIVE_GROUND", "3")
    with pytest.raises(CapacityError) as ei:
        find_taod_witness(action, (0,), (0, 1, 2, 3), "1")
    assert ei.value.cap_value == 3


def test_taod_requires_abelian():
    action = natural_action(symmetric(3))
    with pytest.raises(DomainError) as ei:
        find_taod_witness(action, (0,), (0,), "1")
    assert "Abelian" in str(ei.value)


def test_taod_witness_and_powers():
    G = cyclic(6)
    action = left_translation_action(G)
    A = (0, 3)
    Y = (0, 1, 3, 4)
    rep = find_taod_witness(action, A, Y, "1", n_max=5)
    assert rep.hypotheses_hold and rep.conclusion_holds
    Z = rep.witnesses["Z"]
    assert set(Z) <= set(Y)
    powers = rep.details["power_checks"]
    assert set(powers) == {1, 2, 3, 4, 5}
    assert all(powers.values())
    Ak = frozenset(A)
    for k in range(1, 6):
        assert action.image_size(Ak, sorted(Z)) <= 1 * len(Z)
        Ak = G.product_set(Ak, A)


def test_taod_forms_no_product_set(monkeypatch):
    # A^k.Z = A.(A^(k-1).Z): no power of A is formed, and the checks are
    # those of the powers A^k built here
    G = cyclic(12)
    action = left_translation_action(G)
    A, Y, n_max = (0, 1, 5), (0, 2, 3, 7), 7
    calls = []
    real = type(G).product_set
    monkeypatch.setattr(type(G), "product_set",
                        lambda self, *args: calls.append(1) or real(self, *args))
    rep = find_taod_witness(action, A, Y, "3", n_max=n_max)
    assert calls == []
    Z = sorted(rep.witnesses["Z"])
    checks, Ak = {}, frozenset(A)
    for k in range(1, n_max + 1):
        checks[k] = action.image_size(Ak, Z) <= 3 ** k * len(Z)
        Ak = real(G, Ak, A)
    assert rep.details["power_checks"] == checks


def test_taod_product_group():
    G = direct_product(cyclic(2), cyclic(4))
    action = left_translation_action(G)
    A = (0, 1)
    Y = tuple(range(8))
    rep = find_taod_witness(action, A, Y, "2", n_max=3)
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_taod_linear():
    rep_obj = _swap_rep()
    D = Subspace.from_vectors(3, 2, [[1, 1]])
    rep = find_taod_witness(rep_obj, (0, 1), D, "1", n_max=3)
    assert rep.hypotheses_hold and rep.conclusion_holds
    Z = rep.witnesses["Z"]
    assert Z.dim >= 1 and Z <= D


def test_taod_linear_enumerates_the_subspaces_of_w():
    # F_2^8 has 417,199 subspaces, more than MAX_SUBSPACE_COUNT; the
    # candidates are the subspaces of W = <e_0> alone
    rep_obj = permutation_representation(left_translation_action(cyclic(8)),
                                         2)
    W = Subspace.from_vectors(2, 8, [[1] + [0] * 7])
    rep = find_taod_witness(rep_obj, (0, 1), W, "2", n_max=2)
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.witnesses["Z"] == W
    assert rep.details["witness_ratio"] == 2


@functools.cache
def _abelian_rep(name):
    return {"c6": lambda: permutation_representation(
                left_translation_action(cyclic(6)), 2),
            "c4": lambda: permutation_representation(
                left_translation_action(cyclic(4)), 3),
            "swap": _swap_rep,
            "c16": _c16_diagonal_rep}[name]()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_taod_linear_witness_matches_the_ambient_scan(data):
    # Z is the least nonzero subspace of W by (ratio, sort key); a scan of
    # every subspace of F_p^d inside W, in canonical order, keeping the
    # first strict improvement, must pick it
    rep_obj = _abelian_rep(data.draw(st.sampled_from(
        ["c6", "c4", "swap", "c16"])))
    n, p, d = rep_obj.group.order, rep_obj.p, rep_obj.dim
    A = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                 max_size=4), label="A"))
    W = Subspace.from_vectors(p, d, data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=d, max_size=d),
        min_size=1, max_size=3), label="W"))
    if W.is_zero():
        return
    alpha = Fraction(rep_obj.module_span(A, W).dim, W.dim)
    with config.overrides({"SAMPLE_COUNT": 20}):
        report = find_taod_witness(rep_obj, A, W, alpha, n_max=1)
    ratio = Z = None
    for S in enumerate_subspaces(p, d):
        if not S.is_zero() and S <= W:
            r = Fraction(rep_obj.module_span(A, S).dim, S.dim)
            if ratio is None or r < ratio:
                ratio, Z = r, S
    assert report.witnesses["Z"] == Z
    assert report.details["witness_ratio"] == ratio


def test_taod_linear_sampled_uses_the_given_seed_and_samples():
    # Abelian of order 16 > PETRIDIS_EXHAUSTIVE_MAX_ORDER on F_2^2, whose
    # five subspaces keep the witness enumeration small
    rep_obj = representation_from_generator_matrices(
        cyclic(16), 2, [np.array([[1, 1], [0, 1]])])
    W = Subspace.from_vectors(2, 2, [[1, 0]])
    with config.overrides({"SAMPLE_COUNT": 40}):
        rep = find_taod_witness(rep_obj, (0, 1), W, "1", n_max=2, seed=12345)
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.exhaustiveness == Exhaustiveness("sampled", 40, 12345)


# -- fragment bounds -------------------------------------------------------------


def test_fragment_bounds_small_lambda():
    action = natural_action(symmetric(3))
    A = (0, 1, 3)
    rep = check_fragment_bounds(action, A, "1/4")  # 1/4 < 1/3
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.details["part1_applies"]
    assert rep.details["largest_fragment"] <= len(A)


def test_fragment_bounds_free_regime():
    G = cyclic(5)
    action = left_translation_action(G)
    A = (0, 1)
    rep = check_fragment_bounds(action, A, "1", mu_param="1")
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.details["part2_applies"]
    assert rep.details["smallest_fragment"] >= 2


def test_fragment_bounds_neither_regime():
    action = natural_action(symmetric(3))
    rep = check_fragment_bounds(action, (0, 1), "3/4")
    assert not rep.hypotheses_hold
    assert rep.conclusion_holds is None


@pytest.mark.parametrize("x, mu_param", [
    (Fraction(1, 2 ** 41), None),  # part 1: lam < 1/|A|
    (Fraction(2 ** 62 + 1, 2 ** 62), 0),  # part 2 from 1/2
    (Fraction(2 ** 70 + 1), Fraction(1, 2))])  # part 2 from 2/3
def test_fragment_bounds_wide_lambda_matches_the_fraction_oracle(
        x, mu_param):
    # lam = x / (1 + x) in (0, 1) on C8 with |A| = 4; the minimum, the
    # fragment count and the fragment sizes are those of every nonempty Y
    action, A = left_translation_action(cyclic(8)), (0, 1, 2, 5)
    lam = x / (1 + x)
    values = {m: len({(a + y) % 8 for a in A for y in range(8) if m >> y & 1})
              - lam * m.bit_count() for m in range(1, 1 << 8)}
    best = min(values.values())
    sizes = [m.bit_count() for m, v in values.items() if v == best]
    rep = check_fragment_bounds(action, A, lam, mu_param)
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert (rep.details["minimum"], rep.details["fragment_count"],
            rep.details["smallest_fragment"],
            rep.details["largest_fragment"]) == (
        best, len(sizes), min(sizes), max(sizes))


@functools.cache
def _small_action(name):
    return {"c6": left_translation_action(cyclic(6)),
            "d4": left_translation_action(dihedral(4)),
            "s3": natural_action(symmetric(3)),
            "s4": natural_action(symmetric(4))}[name]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fragment_bounds_sizes_span_every_fragment_past_the_list_cap(data):
    # with FRAGMENT_LIST_CAP 1 the report lists one fragment, yet the
    # smallest and largest fragment sizes range over every minimiser
    action = _small_action(data.draw(st.sampled_from(["c6", "d4", "s3",
                                                       "s4"])))
    d = action.domain_size
    A = data.draw(st.sets(st.integers(0, action.group.order - 1),
                          min_size=1, max_size=4), label="A")
    lam = Fraction(data.draw(st.integers(0, 8)), 8)
    mu_param = data.draw(st.sampled_from([None, Fraction(1, 2), 1]))
    with config.overrides({"FRAGMENT_LIST_CAP": 1}):
        rep = check_fragment_bounds(action, A, lam, mu_param)
    if not rep.hypotheses_hold:
        return
    values = {}
    for m in range(1, 1 << d):
        Y = [y for y in range(d) if (m >> y) & 1]
        values[m] = len({int(action.table[a][y]) for a in A for y in Y}) \
            - lam * len(Y)
    best = min(values.values())
    sizes = [m.bit_count() for m, v in values.items() if v == best]
    assert rep.details["fragment_count"] == len(sizes)
    assert len(rep.witnesses["fragments"]) == 1
    assert (rep.details["smallest_fragment"],
            rep.details["largest_fragment"]) == (min(sizes), max(sizes))


def test_violated_property():
    action, A, Y, _ = kneser_example_instance(4, 1, 2)
    assert check_kneser(action, A, Y).violated
    ok = check_kneser(action, (0,), (0,))
    assert not ok.violated


# -- the for-all-C verifier ------------------------------------------------------


def _verifier_table(data, n):
    """One side of a for-all-C bound: masks under 64 bits, masks across
    the 64-bit boundary, or subspaces of F_2^3 or F_3^3."""
    kind = data.draw(st.sampled_from(("masks", "wide", 2, 3)))
    if kind in ("masks", "wide"):
        shift = 0 if kind == "masks" else 61
        return data.draw(st.lists(st.integers(0, 31).map(
            lambda m: m << shift), min_size=n, max_size=n))
    vectors = st.lists(st.integers(0, kind - 1), min_size=3, max_size=3)
    return [Subspace.from_vectors(kind, 3, data.draw(
        st.lists(vectors, max_size=2))) for _ in range(n)]


def _forall(left, right, *args):
    """`_forall_actor_sets` on raw tables of subspaces or int masks."""
    def side(table):
        if isinstance(table[0], Subspace):
            return theorems._Side(basis_table(table), table[0].p)
        return theorems._Side(table)
    return theorems._forall_actor_sets(side(left), side(right), *args)


def _brute_size(table, C):
    if isinstance(table[0], Subspace):
        return Subspace.from_vectors(table[0].p, 3, [
            row for c in C for row in table[c].rows]).dim
    return bin(functools.reduce(operator.or_, (table[c] for c in C), 0)
               ).count("1")


def _brute_first_violation(left, right, alpha, candidates):
    for C in candidates:
        lhs, rhs = _brute_size(left, C), _brute_size(right, C)
        if lhs > alpha * rhs:
            return {"C": frozenset(C), "lhs": lhs, "rhs": alpha * rhs}
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forall_actor_sets_matches_brute_force(data):
    n = data.draw(st.integers(1, 6))
    left, right = _verifier_table(data, n), _verifier_table(data, n)
    alpha = Fraction(data.draw(st.integers(0, 6)), data.draw(st.integers(1, 3)))
    ascending = [[c for c in range(n) if m >> c & 1] for m in range(1, 1 << n)]
    expected = _brute_first_violation(left, right, alpha, ascending)

    calls = []
    with pytest.MonkeyPatch.context() as mp:
        real = theorems.check_pair_ratio
        mp.setattr(theorems, "check_pair_ratio",
                   lambda *args: calls.append(1) or real(*args))
        got = _forall(left, right, alpha, None)
        assert got == (expected, Exhaustiveness("exhaustive"))
        # every side, wide masks and subspaces included, is compared by the
        # one comparator, in one chunk at this size, or not at all when
        # counting settles every |C|
        assert len(calls) <= 1
        masks = all(isinstance(m, int) and m < 1 << 64 for m in left + right)
        if masks and any(left + right):
            # the same sets 64 bits up, in the kernel's second word, must
            # give the same answer, from the same bounds
            wide = _forall([m << 64 for m in left],
                           [m << 64 for m in right], alpha, None)
            assert calls == 2 * calls[:1] and wide == got

    samples, seed = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 99))
    rows = data.draw(st.integers(1, 3))
    with config.overrides({"PETRIDIS_EXHAUSTIVE_MAX_ORDER": 0,
                           "SAMPLE_COUNT": samples}), \
            pytest.MonkeyPatch.context() as mp:
        _small_chunks(mp, rows)
        got = _forall(left, right, alpha, seed)
    exh = Exhaustiveness("sampled", samples, seed)
    assert got == (_brute_first_violation(
        left, right, alpha, _reference_stream(n, samples, seed)), exh)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_side_bounds_hold_for_every_c(data):
    # lo[|C|] <= |join(C)| <= hi[|C|] for every C, on narrow masks, masks
    # across the 64-bit boundary and subspaces of F_2^3 and F_3^3, whose
    # entries differ in size
    n = data.draw(st.integers(1, 7))
    table = _verifier_table(data, n)
    side = theorems._Side(basis_table(table), table[0].p) \
        if isinstance(table[0], Subspace) else theorems._Side(table)
    lo, hi = side.bounds()
    assert lo[0] == hi[0] == 0 and len(lo) == len(hi) == n + 1
    for m in range(1, 1 << n):
        C = [c for c in range(n) if m >> c & 1]
        assert lo[len(C)] <= _brute_size(table, C) <= hi[len(C)]


def test_side_bounds_of_a_group_on_itself():
    # each element lies in exactly |B| translates cB, so lo[k] is
    # max(|B|, k), reached by C = B^-1 for k = |B|; hi[k] is min(|G|, k|B|)
    G = dihedral(5)
    for B in ((0,), (0, 3), (1, 2, 7), tuple(range(10))):
        lo, hi = theorems._Side([setfuncs._mask_of(G.translate_set(c, B))
                                 for c in range(G.order)]).bounds()
        assert lo == [0] + [max(len(B), k) for k in range(1, 11)]
        assert hi == [min(10, k * len(B)) for k in range(11)]


def _counted(mp, owner, name):
    """The list that grows by one entry per call of owner.name."""
    calls = []
    real = getattr(owner, name)
    mp.setattr(owner, name,
               lambda *args: calls.append(1) or real(*args))
    return calls


def test_settled_sizes_build_no_fold_and_read_no_join(monkeypatch):
    # C8 on itself with A = Y = {0} and alpha = 1: B = {0}, and
    # |C.BY| = |CB| = |C| meets the bound with equality at every size, so
    # counting settles every C: no fold past the witness search over A, no
    # comparison, and above the cap no chunk reader, every chunk drawn
    folds = _counted(monkeypatch, theorems._Side, "fold")
    readers = _counted(monkeypatch, theorems._Side, "chunk_sizes")
    ratios = _counted(monkeypatch, theorems, "check_pair_ratio")
    rep = find_petridis_witness(left_translation_action(cyclic(8)), (0,),
                                (0,), "1")
    assert rep.conclusion_holds and rep.exhaustiveness.kind == "exhaustive"
    assert len(folds) == 1 and ratios == []
    drawn = []
    real = theorems._sampled_sets

    def sampled_sets(n, seed):
        chunks, exh = real(n, seed)
        return (drawn.append(len(c)) or c for c in chunks), exh
    monkeypatch.setattr(theorems, "_sampled_sets", sampled_sets)
    with config.overrides({"SAMPLE_COUNT": 3000}):
        rep = find_petridis_witness(left_translation_action(cyclic(20)),
                                    (0,), (0,), "1", seed=4)
    assert rep.conclusion_holds
    assert rep.exhaustiveness == Exhaustiveness("sampled", 3000, 4)
    assert len(folds) == 2 and ratios == [] and readers == []
    assert sum(drawn) == 3000


def test_sampled_petridis_on_s5_reads_no_join(monkeypatch):
    # |C.BY| <= |G.Y| = 5 while |CB| >= max(|B|, |C|): on S5 natural no
    # draw of the sampled stream reaches a join
    readers = _counted(monkeypatch, theorems._Side, "chunk_sizes")
    action = natural_action(symmetric(5))
    A = sorted(action.set_stabilizer([0]).members)[:8]
    rep = find_petridis_witness(action, A, (0,), "1/4")
    assert rep.hypotheses_hold and rep.conclusion_holds
    assert rep.exhaustiveness == Exhaustiveness(
        "sampled", config.cap("SAMPLE_COUNT"), config.cap("DEFAULT_SEED"))
    assert rep.details["witness_size"] == 8 and readers == []


def _taod_sides_by_element(t, A, Z):
    """taod's for-all-C tables as built one group element at a time:
    A.(c.Z) and c.Z for every c."""
    CZ = t.translates(Z)
    return t.side([t.image(A, cz) for cz in CZ]), t.side(CZ)


def _taod_cases():
    """(object, A, Y, alpha): draws on every Abelian pool action, and
    permutation representations of C_n, sampled past n = 14."""
    for family in sorted(FAMILIES):
        pool = _Pool(family)
        for cursor in range(40):
            rng = random.Random(f"taod-sides:{family}:{cursor}")
            action, scenario = _draw(rng, pool, "taod")
            if action.group.is_abelian():
                sets = scenario["sets"]
                yield (action, sets["A"], sets["Y"],
                       scenario["tasks"][0]["alpha"])
    for n, p, W, A, alpha in ((5, 2, [[1, 1, 0, 0, 0]], (0, 1), "2"),
                              (8, 3, [[1, 2] + [0] * 6], (0, 3), "3/2"),
                              (15, 2, [[1] + [0] * 14, [0, 0, 0, 1] + [0] * 11],
                               (0, 1, 4), "3")):
        rep = permutation_representation(left_translation_action(cyclic(n)),
                                         p)
        yield rep, A, Subspace.from_vectors(p, n, W), alpha


def test_taod_sides_and_powers_match_the_per_element_construction(
        monkeypatch):
    seen = []
    real = theorems._forall_actor_sets
    monkeypatch.setattr(theorems, "_forall_actor_sets",
                        lambda *args: seen.append(args[:2]) or real(*args))
    checked = 0
    with config.overrides({"SAMPLE_COUNT": 200}):
        for obj, A, Y, alpha in _taod_cases():
            rep = find_taod_witness(obj, A, Y, alpha, n_max=4)
            if not rep.hypotheses_hold:
                continue
            checked += 1
            t, Z = theorems._Target(obj, Y), rep.witnesses["Z"]
            if not t.linear:
                # Z from the masks of A.y built one point at a time
                _p, _q, wmask = theorems._Side([
                    setfuncs._mask_of(obj.act_set(A, (y,))) for y in t.Y
                ]).fold().min_ratio()
                assert Z == {y for i, y in enumerate(t.Y) if wmask >> i & 1}
            for got, want in zip(seen.pop(), _taod_sides_by_element(t, A, Z)):
                assert got.p == want.p
                assert np.array_equal(np.asarray(got.table),
                                      np.asarray(want.table))
            G, alpha, Ak, powers = obj.group, Fraction(alpha), A, {}
            for k in range(1, 5):
                powers[k] = t.size(t.image(Ak, Z)) <= alpha ** k * t.size(Z)
                Ak = G.product_set(Ak, A)
            assert rep.details["power_checks"] == powers
    assert checked >= 40


@pytest.mark.parametrize("alpha", [Fraction(2 ** 70 + 1, 2 ** 70),
                                   Fraction(2 ** 70 + 1)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_forall_actor_sets_exact_for_alpha_past_int64(alpha, data):
    # den * |left| or num * |right| passes 2^63 on both streams: just above
    # 1, a violation is lhs > rhs; past 2^70, only rhs = 0 < lhs violates
    n = data.draw(st.integers(1, 6))
    left, right = _verifier_table(data, n), _verifier_table(data, n)
    ascending = [[c for c in range(n) if m >> c & 1] for m in range(1, 1 << n)]
    assert _forall(left, right, alpha, None) == (
        _brute_first_violation(left, right, alpha, ascending),
        Exhaustiveness("exhaustive"))
    samples, seed = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 99))
    with config.overrides({"PETRIDIS_EXHAUSTIVE_MAX_ORDER": 0,
                           "SAMPLE_COUNT": samples}), \
            pytest.MonkeyPatch.context() as mp:
        _small_chunks(mp, data.draw(st.integers(1, 3)))
        got = _forall(left, right, alpha, seed)
    assert got == (_brute_first_violation(
        left, right, alpha, _reference_stream(n, samples, seed)),
        Exhaustiveness("sampled", samples, seed))


def test_linear_joins_are_read_from_span_dims(monkeypatch):
    # the linear fold and the sampled linear stream measure spans with the
    # span_dims kernel; neither joins subspaces one subset at a time, and
    # Subspace.sum runs only in a fold's reference join, n - 1 times
    calls = []
    real = Subspace.sum

    def counted(U, V):
        calls.append(1)
        return real(U, V)
    monkeypatch.setattr(Subspace, "sum", counted)
    rep = permutation_representation(left_translation_action(cyclic(15)), 3)
    W = Subspace.from_vectors(3, 15, [[1, 2] + [0] * 13])
    with config.overrides({"SAMPLE_COUNT": 50}):
        pet = find_petridis_witness(rep, [0, 1, 4], W, 2)
        assert len(calls) == 2  # the witness fold over A; none sampled
        taod = find_taod_witness(rep, [0, 3], W, 2)
        assert len(calls) == 2
    assert pet.exhaustiveness.kind == taod.exhaustiveness.kind == "sampled"
    assert pet.conclusion_holds and taod.conclusion_holds
    small = permutation_representation(left_translation_action(cyclic(8)), 5)
    U = Subspace.from_vectors(5, 8, [[1, 3] + [0] * 6])
    ham = check_hamidoune(small, U, "1/2")
    assert ham.exhaustiveness.kind == "exhaustive" and ham.conclusion_holds
    assert len(calls) == 2 + 7


def _small_chunks(mp, rows):
    """Chunks of `rows` masks, in the sampled stream and in `_union_sizes`."""
    for module in (theorems, setfuncs):
        mp.setattr(module, "_chunk_rows", lambda width: rows)


def _reference_stream(n, samples, seed):
    """The sampled sets one draw at a time, as sorted element lists."""
    rng = random.Random(seed)
    for _ in range(samples):
        m = rng.getrandbits(n)
        if m == 0:
            m = 1 << rng.randrange(n)
        yield [c for c in range(n) if m >> c & 1]


def test_sampled_sets_chunk_the_reference_stream(monkeypatch):
    monkeypatch.setattr(theorems, "_chunk_rows", lambda width: 3)
    with config.overrides({"SAMPLE_COUNT": 10}):
        chunks, exh = theorems._sampled_sets(70, 5)
        chunks = list(chunks)
    assert exh == Exhaustiveness("sampled", 10, 5)
    assert all(len(chunk) <= 3 for chunk in chunks)
    got = [sorted(theorems._set_of(int.from_bytes(row.tobytes(), "little")))
           for row in np.concatenate(chunks)]
    assert got == list(_reference_stream(70, 10, 5))


def _reference_words(n, samples, seed):
    """The sampled sets one draw at a time as `words` rows, and the
    generator's state after the last draw."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(n) or 1 << rng.randrange(n)
             for _ in range(samples)]
    return words(masks, -(-n // 64)), rng.getstate()


@pytest.mark.parametrize("rows", [1, 2, 3, None])
def test_block_draws_match_the_per_draw_stream(rows, monkeypatch):
    # every n in 1..400 (n = 1 draws the empty set half the time, and the
    # stream redraws it as a point), with chunks of 1-3 rows and of the
    # default size; the generator ends in the per-draw stream's state
    if rows:
        monkeypatch.setattr(theorems, "_chunk_rows", lambda width: rows)
    states = []
    real = theorems._sampling

    def sampling(seed):
        rng, exh = real(seed)
        states.append(rng)
        return rng, exh
    monkeypatch.setattr(theorems, "_sampling", sampling)
    for n in range(1, 401):
        seed = n * 7919
        with config.overrides({"SAMPLE_COUNT": 24}):
            chunks, _exh = theorems._sampled_sets(n, seed)
            got = np.concatenate(list(chunks))
        want, state = _reference_words(n, 24, seed)
        assert got.dtype == want.dtype and got.shape == want.shape, n
        assert np.array_equal(got, want), n
        assert states.pop().getstate() == state, n


@pytest.mark.parametrize("m", [1, 2, 5, 64])
def test_getrandbits_of_32m_bits_is_m_words_low_first(m):
    # the layout the block draw reads: one call of 32m bits is the next m
    # 32-bit outputs of the generator, the first in the lowest word
    for seed in (0, 1, 12345):
        one, many = random.Random(seed), random.Random(seed)
        block = one.getrandbits(32 * m)
        assert block == sum(many.getrandbits(32) << 32 * i
                            for i in range(m))
        assert one.getstate() == many.getstate()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sampled_for_all_c_matches_the_scalar_stream(data):
    # wide tables (masks of up to 200 bits, four 64-point words) over n up
    # to 75 elements, so rows span several bytes and words and n is rarely
    # a multiple of 8; chunks of 1-3 rows put violations in later chunks
    n = data.draw(st.integers(1, 75))
    width = data.draw(st.integers(1, 200))
    masks = st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n)
    left = data.draw(masks)
    right = left if data.draw(st.booleans()) else data.draw(masks)
    alpha = Fraction(data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3)))
    samples, seed = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 99))
    rows = data.draw(st.integers(1, 3))
    with config.overrides({"PETRIDIS_EXHAUSTIVE_MAX_ORDER": 0,
                           "SAMPLE_COUNT": samples}), \
            pytest.MonkeyPatch.context() as mp:
        _small_chunks(mp, rows)
        got = _forall(left, right, alpha, seed)
    assert got == (_brute_first_violation(
        left, right, alpha, _reference_stream(n, samples, seed)),
        Exhaustiveness("sampled", samples, seed))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_union_sizes_match_brute_force_unions(data):
    # n up to 150 elements, so each C spans 1-3 words, and masks up to 200
    # points wide; blocks of 1-3 rows put most C in later blocks
    n = data.draw(st.integers(1, 150))
    width = data.draw(st.integers(1, 200))
    table = data.draw(st.lists(st.integers(0, (1 << width) - 1),
                               min_size=n, max_size=n))
    Cs = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                            max_size=8))
    with pytest.MonkeyPatch.context() as mp:
        _small_chunks(mp, data.draw(st.integers(1, 3)))
        got = setfuncs._union_sizes(table)(words(Cs, -(-n // 64)))
    images = [{x for x in range(width) if m >> x & 1} for m in table]
    assert got.tolist() == [len(set().union(
        *(images[c] for c in range(n) if C >> c & 1))) for C in Cs]


def test_sampled_comparison_stays_exact_past_int64():
    # den * |left| passes 2^63: in int64, 2^61 |C| would wrap to a
    # negative or zero value for most sizes of C, and 2^60 + 1 over 2^60
    # tips the comparison only through its low bit
    table = [1 << c for c in range(20)]
    tiny, wide = Fraction(1, 2 ** 61), Fraction(2 ** 60 + 1, 2 ** 60)
    with config.overrides({"PETRIDIS_EXHAUSTIVE_MAX_ORDER": 0,
                           "SAMPLE_COUNT": 50}):
        for seed in range(10):
            C = frozenset(next(_reference_stream(20, 1, seed)))
            assert _forall(table, table, tiny, seed) \
                == ({"C": C, "lhs": len(C), "rhs": tiny * len(C)},
                    Exhaustiveness("sampled", 50, seed))
            assert _forall(table, table, wide, seed)[0] is None


@functools.cache
def _translation(n):
    return left_translation_action(cyclic(n) if n % 2 else dihedral(n // 2))


def test_sampled_stream_is_drawn_lazily():
    # every C violates, so the check stops in the first chunk of 10^8
    # samples
    table = [1 << c for c in range(70)]
    caps = {"SAMPLE_COUNT": 10 ** 8, "PETRIDIS_EXHAUSTIVE_MAX_ORDER": 0}
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with config.overrides(caps):
            first, exh = _forall(table, [0] * 70, Fraction(1), 3)
        elapsed = time.perf_counter() - started
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    C = frozenset(next(_reference_stream(70, 1, 3)))
    assert first == {"C": C, "lhs": len(C), "rhs": 0}
    assert exh.samples == 10 ** 8
    assert elapsed < 5 and peak < 4 << 20


@functools.cache
def _c16_permutation_rep():
    return permutation_representation(left_translation_action(cyclic(16)), 2)


@functools.cache
def _c16_diagonal_rep():
    return representation_from_generator_matrices(
        cyclic(16), 17, [np.array([[3, 0], [0, 1]])])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sampled_reports_replay_from_their_seed_and_samples(data):
    # a report made under other default caps replays from the seed and
    # sample count it records
    kind = data.draw(st.sampled_from(("petridis", "taod", "petridis_linear",
                                      "taod_linear")))
    samples, seed = data.draw(st.integers(1, 300)), data.draw(st.integers(0, 9))
    if kind.endswith("_linear"):
        # the F_2 permutation representation of C16 with W = <e_0>, and
        # C16 in GL2(F_17) through diag(3, 1), 3 of order 16 mod 17
        A = tuple(sorted(data.draw(st.sets(st.integers(0, 15), min_size=1,
                                           max_size=6))))
        alpha = data.draw(st.sampled_from(("1", "3/2", "2", "4")))
        if kind == "petridis_linear":
            rep = _c16_permutation_rep()
            W = Subspace.from_vectors(2, 16, [[1] + [0] * 15])
        else:
            rep = _c16_diagonal_rep()
            W = Subspace.from_vectors(17, 2, data.draw(st.sampled_from(
                ([[1, 0]], [[1, 1]], [[1, 0], [0, 1]]))))
        finder = find_petridis_witness if kind == "petridis_linear" \
            else find_taod_witness

        def check(**kw):
            return finder(rep, A, W, alpha, **kw)
    else:
        action = _translation(16 if kind == "petridis" else 15)
        A = tuple(sorted(data.draw(st.sets(st.integers(0, 15 if
                  kind == "petridis" else 14), min_size=1, max_size=6))))
        alpha = data.draw(st.sampled_from(("1", "3/2", "2", "4")))
        finder = find_petridis_witness if kind == "petridis" \
            else find_taod_witness

        def check(**kw):
            return finder(action, A, (0,) if kind == "petridis" else A,
                          alpha, **kw)
    with config.overrides({"SAMPLE_COUNT": samples, "DEFAULT_SEED": seed}):
        first = check()
    if first.exhaustiveness.kind != "sampled":
        assert not first.hypotheses_hold
        return
    assert first.exhaustiveness == Exhaustiveness("sampled", samples, seed)
    with config.overrides({"SAMPLE_COUNT": first.exhaustiveness.samples}):
        again = check(seed=first.exhaustiveness.seed)
    assert _dump(to_jsonable(again)) == _dump(to_jsonable(first))


# -- set and linear variants agree -------------------------------------------------

# the report keys of each statement, set side and linear side, when its
# hypotheses fail and when they hold: (witnesses, details) or, for failed
# hypotheses, the details alone
_KEYS = {
    "murphy": {
        "failed": ({"product_size", "target_size"},
                   {"span_dim", "target_dim"}),
        "set": ({"generated_subgroup", "set_stabilizer", "orbits"},
                {"quotient_set_size", "subgroup_order", "orbit_count"}),
        "linear": ({"generated_subgroup", "subspace_stabilizer",
                    "module_span"},
                   {"quotient_set_size", "subgroup_order"})},
    "small_growth": {
        "failed": ({"product_size", "target_size", "bound"},
                   {"span_dim", "target_dim", "bound"}),
        "set": ({"quotient_set", "symmetry_set"}, {"product_size", "bound"}),
        "linear": ({"quotient_set", "symmetry_set"}, {"span_dim", "bound"})},
    "freiman": {
        "failed": ({"inverse_product_size", "target_size", "bound"},
                   {"span_dim", "target_dim", "bound"}),
        "set": ({"quotient_set", "quotient_square", "symmetry_set"},
                {"inverse_product_size", "bound", "corollary_applies",
                 "remark_applies", "checks"}),
        "linear": ({"quotient_set", "quotient_square", "symmetry_set"},
                   {"span_dim", "checks"})},
    "hamidoune": {
        "set": ({"subgroup", "set_stabilizer"},
                {"mu", "lambda", "subgroup_growth", "subgroup_order",
                 "checks"}),
        "linear": ({"subgroup", "subspace_stabilizer"},
                   {"mu", "lambda", "subgroup_growth", "checks"})},
    "petridis": {
        "failed": ({"product_size", "actor_size", "bound"},
                   {"span_dim", "actor_size", "bound"}),
        "set": ({"B", "witness_product"},
                {"witness_ratio", "alpha", "witness_size"}),
        "linear": ({"B", "witness_span"},
                   {"witness_ratio", "alpha", "witness_size"})},
    "taod": {
        "failed": ({"product_size", "target_size", "bound"},
                   {"span_dim", "target_dim", "bound"}),
        "set": ({"Z"}, {"witness_ratio", "alpha", "power_checks"}),
        "linear": ({"Z"}, {"witness_ratio", "alpha", "power_checks"})},
}

# set-side details and witnesses that a coordinate subspace W = <e_y : y in
# Y> must reproduce, under the linear side's name
_SAME = {"product_size": "span_dim", "inverse_product_size": "span_dim",
         "target_size": "target_dim", "set_stabilizer": "subspace_stabilizer",
         **{k: k for k in ("bound", "actor_size", "quotient_set_size",
                           "subgroup_order", "mu", "lambda",
                           "subgroup_growth", "witness_ratio", "witness_size",
                           "alpha", "generated_subgroup", "subgroup", "B",
                           "quotient_set", "quotient_square",
                           "symmetry_set")}}


def _assert_keys(statement, report, linear):
    side = 1 if linear else 0
    if not report.hypotheses_hold:
        assert set(report.details) == _KEYS[statement]["failed"][side]
        return
    witnesses, details = _KEYS[statement]["linear" if linear else "set"]
    assert set(report.witnesses) == witnesses
    assert set(report.details) == details


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_set_and_linear_variants_agree_on_coordinate_subspaces(data):
    # the permutation representation on W = <e_y : y in Y> has spans
    # <e_x : x in A.Y>, so dim <A.W> = |A.Y|, the stabilizer of W is G_Y and
    # dim(gW meet W) = |gY meet Y|: every statement must give the set side's
    # verdict, sizes, subgroups and witnesses
    name = data.draw(st.sampled_from(["c6", "d4", "s3", "s4"]), label="G")
    p = data.draw(st.sampled_from([2, 3]), label="p")
    action, rep_obj = _small_action(name), _permutation_rep(name, p)
    n, d = action.group.order, action.domain_size
    A = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                 max_size=4), label="A"))
    Y = tuple(sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1,
                                       max_size=d), label="Y")))
    W = Subspace.from_vectors(p, d, [[int(x == y) for x in range(d)]
                                     for y in Y])
    alpha = Fraction(data.draw(st.integers(1, 4)), 4)
    growth = Fraction(data.draw(st.integers(2, 12)), 4)
    kw = {"seed": data.draw(st.integers(0, 9))}
    statements = {
        "murphy": lambda obj, T: check_murphy(obj, A, T),
        "small_growth": lambda obj, T: check_small_growth(obj, A, T, alpha),
        "freiman": lambda obj, T: check_freiman(obj, A, T, alpha),
        "petridis": lambda obj, T: find_petridis_witness(obj, A, T, growth,
                                                         **kw)}
    if n <= config.cap("LINEAR_EXHAUSTIVE_MAX_ORDER"):
        lam = theorems.min_image_ratio(action, Y).mu \
            * Fraction(data.draw(st.integers(0, 4)), 4)
        statements["hamidoune"] = lambda obj, T: check_hamidoune(obj, T, lam)
    if action.group.is_abelian() and p == 2:
        # F_3^6 has 56,000 subspaces to try as Z; F_2^6 has 2,825
        statements["taod"] = lambda obj, T: find_taod_witness(
            obj, A, T, growth, n_max=2, **kw)
    for statement, check in statements.items():
        with config.overrides({"SAMPLE_COUNT": 20}):
            on_set, on_w = check(action, Y), check(rep_obj, W)
        _assert_keys(statement, on_set, linear=False)
        _assert_keys(statement, on_w, linear=True)
        assert on_w.hypotheses_hold == on_set.hypotheses_hold
        assert on_w.conclusion_holds == on_set.conclusion_holds
        if statement == "taod":
            # linear candidates Z include non-coordinate subspaces
            continue
        for fields in ((on_set.details, on_w.details),
                       (on_set.witnesses, on_w.witnesses)):
            for key, value in fields[0].items():
                if key in _SAME and _SAME[key] in fields[1]:
                    assert fields[1][_SAME[key]] == value, (statement, key)


# -- the verdict rule ---------------------------------------------------------


def test_verdict_lists_the_failed_checks_after_their_names():
    failing = theorems._verdict("x", {"b": False, "a": True, "c": False},
                                {"w": 1}, {"d": 2}, {"extra": 3})
    assert (failing.hypotheses_hold, failing.conclusion_holds) == (True, False)
    assert list(failing.counterexample.items()) == [
        ("failed_checks", ["b", "c"]), ("extra", 3)]
    assert (failing.witnesses, failing.details) == ({"w": 1}, {"d": 2})
    assert theorems._verdict("x", {"a": False}, {}, {}).counterexample == \
        {"failed_checks": ["a"]}
    holding = theorems._verdict("x", {"a": True}, {}, {}, {"extra": 3})
    assert (holding.conclusion_holds, holding.counterexample) == (True, None)
    # a plain conclusion passes its counterexample through, when it fails
    assert theorems._verdict("x", False, {}, {}, {"C": [0]}
                             ).counterexample == {"C": [0]}
    assert theorems._verdict("x", True, {}, {}, {"C": [0]}
                             ).counterexample is None


def _hamidoune_with_corollary():
    return check_hamidoune(natural_action(symmetric(4)), (0,), "1/6", (0, 1))


def _petridis_on_c6():
    return find_petridis_witness(left_translation_action(cyclic(6)), (0, 3),
                                 (0, 1), "2")


@pytest.mark.parametrize("check,run", [
    ("stabilizer_in_subgroup", _hamidoune_with_corollary),
    ("floor_bound", _hamidoune_with_corollary),
    ("minimum_at_subgroup", _hamidoune_with_corollary),
    ("corollary_bound", _hamidoune_with_corollary),
    ("forall_actor_sets", _petridis_on_c6),
    ("witness_ratio_within_alpha", _petridis_on_c6)])
def test_failed_conclusions_name_the_failed_check(check, run, monkeypatch):
    # each named check is forced false as the checker hands it to _verdict
    verdict = theorems._verdict

    def forced(statement_id, holds, *args):
        assert holds[check]
        return verdict(statement_id, {**holds, check: False}, *args)

    monkeypatch.setattr(theorems, "_verdict", forced)
    report = run()
    assert not report.conclusion_holds
    assert report.counterexample["failed_checks"] == [check]


@pytest.mark.parametrize("statement", STATEMENT_IDS)
def test_holding_reports_carry_no_counterexample(statement):
    # the first 30 instances of every family at seed 7, as search draws them
    held = 0
    for family in sorted(FAMILIES):
        pool = _Pool(family)
        for cursor in range(30):
            action, scenario = _draw(random.Random(f"7:{cursor}"), pool,
                                     statement)
            if statement == "taod" and not action.group.is_abelian():
                continue
            report = _run_drawn(action, scenario)
            assert report.statement_id == statement
            if not report.hypotheses_hold:
                assert (report.conclusion_holds, report.counterexample,
                        report.witnesses) == (None, None, {}), scenario
            elif report.conclusion_holds:
                held += 1
                assert report.counterexample is None, scenario
    assert held
