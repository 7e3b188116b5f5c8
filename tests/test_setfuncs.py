"""Invariant submodular set functions: checks, minimisation, fragments, mu."""

import functools
import itertools
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaction import _kernels, config, setfuncs
from subaction.actions import (GroupAction, coset_action, conjugation_action,
                               left_translation_action, natural_action)
from subaction.errors import (CapacityError, DomainError, InvariantError,
                              StructuralError)
from subaction.groups import (affine_gl1, alternating, cyclic, dihedral,
                              direct_product, symmetric)
from subaction.perms import from_cycles
from subaction.search import FAMILIES, build_action, build_group
from subaction.setfuncs import (Exhaustiveness, SetFunction, actor_growth,
                                actor_growth_cut, check_invariance,
                                check_submodular, core_set, cut_function,
                                group_image_ratio, identity_atom,
                                min_image_ratio, minimize_nonempty,
                                target_growth)
from subaction.setfuncs import _scaled_table
from subaction.theorems import check_hamidoune


def _brute_min(f):
    best, frags = None, []
    for m in range(1, 1 << f.ground_size):
        v = f.value_mask(m)
        if best is None or v < best:
            best, frags = v, [m]
        elif v == best:
            frags.append(m)
    return best, frags


def _mask_of(points):
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _set_of(mask):
    return frozenset(i for i in range(64) if (mask >> i) & 1)


# -- the three canonical functions -------------------------------------------------


def test_cut_function_values():
    action = natural_action(symmetric(3))
    f = cut_function(action)
    # directed boundary of {0} in the action multigraph: one edge 0 -> g.0
    # per group element, and four of the six elements move the point 0
    assert f.value((0,)) == 4
    assert f.value((0, 1, 2)) == 0
    assert f.value(()) == 0


def test_actor_growth_values():
    action = natural_action(symmetric(3))
    f = actor_growth(action, (0,), "1/2")
    # c_Y(A) = |A.Y| - lam |A|
    assert f.value((0,)) == Fraction(1, 2)
    assert f.value(tuple(range(6))) == 3 - 3


def test_target_growth_values():
    action = natural_action(symmetric(3))
    A = (0, 1)  # identity and one transposition
    f = target_growth(action, A, "1")
    for m in range(1, 8):
        Y = sorted(_set_of(m))
        assert f.value_mask(m) == action.image_size(A, Y) - len(Y)


def test_growth_rejects_floats():
    action = natural_action(symmetric(3))
    with pytest.raises(DomainError):
        actor_growth(action, (0,), 0.5)
    with pytest.raises(DomainError):
        target_growth(action, (0,), "0.5")


# -- submodularity and invariance ---------------------------------------------------


def test_cut_is_submodular_and_invariant():
    for action in (natural_action(symmetric(4)),
                   conjugation_action(symmetric(3)),
                   left_translation_action(dihedral(4))):
        f = cut_function(action)
        assert check_submodular(f).holds
        assert check_invariance(f, action).holds


@pytest.mark.parametrize("lam", ["0", "1/3", "1/2", "1", "3/2"])
def test_actor_growth_submodular_invariant(lam):
    G = dihedral(4)
    action = left_translation_action(G)
    f = actor_growth(action, (0, 1), lam)
    assert check_submodular(f).holds
    assert check_invariance(f, action).holds


def test_target_growth_submodular():
    action = natural_action(symmetric(3))
    f = target_growth(action, (0, 1, 3), "2/3")
    assert check_submodular(f).holds


def test_target_growth_invariance_needs_abelian_or_normal():
    # natural S_5 with A a coset-like slab: d_A is NOT G-invariant
    S5 = symmetric(5)
    action = natural_action(S5)
    A = tuple(g for g in range(120)
              if all(action.act(g, x) == x for x in (0, 1)))
    f = target_growth(action, A, "0")
    rep = check_invariance(f, action)
    assert not rep.holds
    assert rep.counterexample is not None


def test_sampled_checks_report_the_seed_they_used():
    # ground 17 is above MAX_SUBMODULAR_EXHAUSTIVE, so both checks sample;
    # rerunning with the reported seed and count replays the same verdict
    f = SetFunction(17, "square-size",
                    fn=lambda m: Fraction(bin(m).count("1") ** 2))
    with config.overrides({"SAMPLE_COUNT": 50}):
        rep = check_submodular(f)
    assert rep.checked == Exhaustiveness(
        "sampled", 50, config.cap("DEFAULT_SEED"))
    assert not rep.holds
    with config.overrides({"SAMPLE_COUNT": rep.checked.samples}):
        assert check_submodular(f, seed=rep.checked.seed) == rep
    action = left_translation_action(cyclic(17))
    g = SetFunction(17, "low-bit", fn=lambda m: Fraction(m & 1))
    with config.overrides({"SAMPLE_COUNT": 50}):
        rep = check_invariance(g, action)
    assert rep.checked == Exhaustiveness(
        "sampled", 50, config.cap("DEFAULT_SEED"))
    assert not rep.holds
    with config.overrides({"SAMPLE_COUNT": rep.checked.samples}):
        assert check_invariance(g, action, seed=rep.checked.seed) == rep


def test_exhaustive_property_checks_refuse_past_the_kernel_ground_size(
        monkeypatch):
    # a raised cap does not reach the 2^27 table: both checks refuse first
    def no_table(f):
        raise AssertionError("the 2^n table was built")

    monkeypatch.setattr(setfuncs, "_scaled_table", no_table)
    action = left_translation_action(cyclic(27))
    f = cut_function(action)
    with config.overrides({"MAX_SUBMODULAR_EXHAUSTIVE": 40}):
        with pytest.raises(CapacityError, match="kernel ground size"):
            check_submodular(f)
        with pytest.raises(CapacityError, match="kernel ground size"):
            check_invariance(f, action)


def test_exhaustive_invariance_memory_is_a_few_tables():
    # n = 16: the remapped masks take one 2^n int64 array per check, not a
    # 2^n x n bit matrix; measured 3.1 tables at peak
    action = left_translation_action(cyclic(16))
    f = cut_function(action)
    table, _den = _scaled_table(f)
    tracemalloc.start()
    try:
        rep = check_invariance(f, action)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.holds and rep.checked.kind == "exhaustive"
    assert peak < 4 * table.nbytes


def test_submodularity_counterexample_reported():
    table = [0, 1, 1, 0, 1, 0, 0, 1]  # parity-flavoured: not submodular
    f = SetFunction(3, "xor-size", fn=lambda m: Fraction(table[m]))
    rep = check_submodular(f)
    assert not rep.holds
    w = rep.counterexample
    assert w["marginal_A1"] < w["marginal_A2"]
    assert w["A1"] <= w["A2"] and w["s"] not in w["A2"]


def _first_local_violation(f):
    """(i, S, j) of the first f(S+i) + f(S+j) < f(S+i+j) + f(S) over pairs
    i < j, then S ascending, or None."""
    n = f.ground_size
    for i, j in itertools.combinations(range(n), 2):
        for S in range(1 << n):
            if S >> i & 1 or S >> j & 1:
                continue
            v = f.value_mask
            if v(S | 1 << i) + v(S | 1 << j) < v(S | 1 << i | 1 << j) + v(S):
                return i, S, j
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exhaustive_submodularity_matches_the_definition(data):
    # the definition: every A1 <= A2 and s outside A2; tables mix coverage
    # functions (submodular), perturbed ones and arbitrary ones
    n = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        sets = data.draw(st.lists(st.integers(0, 63), min_size=n,
                                  max_size=n))
        lam = Fraction(data.draw(st.integers(0, 4)),
                       data.draw(st.integers(1, 3)))
        table = [Fraction(functools.reduce(
            operator.or_, (sets[b] for b in range(n) if m >> b & 1), 0
        ).bit_count()) - lam * m.bit_count() for m in range(1 << n)]
        if data.draw(st.booleans()):
            table[data.draw(st.integers(0, (1 << n) - 1))] += Fraction(
                data.draw(st.sampled_from([-1, 1])),
                data.draw(st.integers(1, 3)))
    else:
        table = [Fraction(data.draw(st.integers(-3, 3)),
                          data.draw(st.integers(1, 2))) for _ in range(1 << n)]
    f = SetFunction(n, "table", fn=lambda m: table[m])

    def marginal(s, m):
        return table[m | 1 << s] - table[m]
    holds = all(marginal(s, a1) >= marginal(s, a2)
                for a2 in range(1 << n) for s in range(n) if not a2 >> s & 1
                for a1 in range(a2 + 1) if a1 & a2 == a1)
    rep = check_submodular(f)
    assert rep.checked.kind == "exhaustive"
    assert rep.holds == holds
    first = _first_local_violation(f)
    assert (first is None) == holds
    if not holds:
        i, S, j = first
        assert rep.counterexample == {
            "s": i, "A1": _set_of(S), "A2": _set_of(S | 1 << j),
            "marginal_A1": marginal(i, S),
            "marginal_A2": marginal(i, S | 1 << j)}
        assert rep.counterexample["marginal_A1"] < \
            rep.counterexample["marginal_A2"]


def test_invariance_failure_names_the_failing_generator():
    # [2 in S] is kept by the transposition (0 1) of S3 but not by the
    # 3-cycle (0 1 2); {1}, sent to {2}, is the first subset it changes
    G = symmetric(3)
    action = natural_action(G)
    swap, turn = G.generator_indices
    assert G.elements[swap] == from_cycles(3, [(0, 1)])
    f = SetFunction(3, "holds-2", fn=lambda m: Fraction(m >> 2 & 1))
    rep = check_invariance(f, action)
    assert not rep.holds and rep.checked.kind == "exhaustive"
    assert rep.counterexample == {"g": turn, "subset": frozenset({1}),
                                  "value": 0, "translated_value": 1}


def test_package_exports_resolve_once():
    import subaction
    assert len(subaction.__all__) == len(set(subaction.__all__))
    for name in subaction.__all__:
        assert getattr(subaction, name) is not None
    assert "PropertyReport" in subaction.__all__


# -- minimisation ---------------------------------------------------------------


def test_minimize_matches_brute_force():
    action = natural_action(symmetric(3))
    for lam in ("0", "1/2", "1"):
        f = actor_growth(action, (0,), lam)
        res = minimize_nonempty(f)
        best, frags = _brute_min(f)
        assert res.min_value == best
        assert res.fragment_count == len(frags)
        assert sorted(_mask_of(fr) for fr in res.fragments) == sorted(frags)
        assert not res.fragments_truncated


def test_minimize_rejects_empty_only_when_capped():
    action = natural_action(symmetric(4))
    f = cut_function(action)
    res = minimize_nonempty(f)
    assert res.min_value == 0
    assert frozenset(range(4)) in res.fragments


def test_fragment_intersection_union_closure():
    # fragments of an invariant submodular function are closed under
    # union and intersection when they intersect
    action = left_translation_action(cyclic(6))
    f = actor_growth(action, (0, 3), "1/2")
    res = minimize_nonempty(f)
    frs = [set(fr) for fr in res.fragments]
    for F1, F2 in itertools.combinations(frs, 2):
        if F1 & F2:
            assert (F1 & F2) in frs
            assert (F1 | F2) in frs


def test_atoms_are_minimal_and_disjoint():
    action = left_translation_action(cyclic(6))
    f = actor_growth(action, (0, 2), "1/2")
    res = minimize_nonempty(f)
    assert res.atoms
    for a in res.atoms:
        assert len(a) == res.atom_size
    for a1, a2 in itertools.combinations(res.atoms, 2):
        assert not (a1 & a2)


def test_cut_table_matches_value_mask():
    rng = random.Random(3)
    for n in range(1, 11):
        # random weights with a random diagonal: self-loops never cross
        W = np.array([[rng.randint(0, 5) for _ in range(n)]
                      for _ in range(n)], dtype=np.int64)
        f = SetFunction(n, "random-cut", kind="cut", cut_weights=W)
        table, den = _scaled_table(f)
        assert den == 1
        assert table.tolist() == [f.value_mask(m) for m in range(1 << n)]


def _shifted(f, weights, constant):
    # a generic-kind SetFunction: f minus the modular S -> constant + w(S)
    def fn(mask):
        return f.value_mask(mask) - constant - sum(
            w for b, w in enumerate(weights) if mask >> b & 1)
    return SetFunction(f.ground_size, f"{f.label} - modular",
                       kind="generic", fn=fn)


_WIDE = (Fraction(1, 2 ** 41), Fraction(2 ** 62 + 1, 2 ** 62),
         Fraction(2 ** 70 + 1))


@pytest.mark.parametrize("lam", _WIDE)
@pytest.mark.parametrize("family", ["actor", "target", "shifted"])
def test_wide_lambda_minima_match_the_fraction_oracle(lam, family):
    # no coefficient limit: the union folds score their bins, and the
    # shifted (generic) function its table, in Python ints once den*|join|
    # or num*|S| passes int64; every value is read against value_mask
    f = {"actor": lambda: actor_growth(natural_action(dihedral(5)),
                                       (0, 2), lam),
         "target": lambda: target_growth(left_translation_action(
             cyclic(12)), (0, 1, 4), lam),
         "shifted": lambda: _shifted(
             actor_growth(left_translation_action(cyclic(8)), (0, 3), lam),
             [Fraction(i, 2 ** 62 + 1) for i in range(8)],
             Fraction(1, 3))}[family]()
    best, frags = _brute_min(f)
    least = min(m.bit_count() for m in frags)
    res = minimize_nonempty(f)
    assert res.min_value == best
    assert res.fragment_count == len(frags)
    assert [_mask_of(fr) for fr in res.fragments] == frags
    assert [_mask_of(a) for a in res.atoms] == [
        m for m in frags if m.bit_count() == least]
    assert (res.atom_size, res.largest_size) == (
        least, max(m.bit_count() for m in frags))
    assert core_set(f).atoms == res.atoms
    assert check_submodular(f).holds


def test_minimize_capacity():
    action = natural_action(symmetric(5))
    f = actor_growth(action, (0,), "1/2")  # ground |G| = 120
    with pytest.raises(CapacityError):
        minimize_nonempty(f)


def test_core_set():
    action = left_translation_action(cyclic(6))
    f = actor_growth(action, (0, 3), "0")
    core = core_set(f)
    assert len(core.atoms) > 1
    for i, a1 in enumerate(core.atoms):
        for a2 in core.atoms[i + 1:]:
            assert not a1 & a2
    assert core.union == frozenset().union(*core.atoms)


def test_core_set_decodes_no_fragment(monkeypatch):
    # on C16 at lambda = 1, |A.Y| - |Y| is 0 for every Y: all 2^16 - 1
    # subsets minimise, and the full result decodes FRAGMENT_LIST_CAP
    f = target_growth(left_translation_action(cyclic(16)), (5,), "1")
    asked = []

    def minimize(g, **kw):
        asked.append(res := minimize_nonempty(g, **kw))
        return res

    monkeypatch.setattr(setfuncs, "minimize_nonempty", minimize)
    core = core_set(f)
    (res,) = asked
    assert res.fragments == [] and res.fragment_count == (1 << 16) - 1
    full = minimize_nonempty(f)
    assert len(full.fragments) == config.cap("FRAGMENT_LIST_CAP")
    assert core.atoms == full.atoms
    assert core.union == frozenset().union(*full.atoms)


def test_identity_atom_is_subgroup():
    G = cyclic(6)
    action = left_translation_action(G)
    for lam in ("0", "1/3", "1/2"):
        f = actor_growth(action, (0, 3), lam)
        H = identity_atom(f, G)
        assert 0 in H.members
        for a in H.members:
            for b in H.members:
                assert G.mul(a, b) in H.members


def test_translation_atoms_are_cosets():
    G = direct_product(cyclic(2), cyclic(4))
    action = left_translation_action(G)
    f = actor_growth(action, (0, 1), "1/2")
    res = minimize_nonempty(f)
    H = identity_atom(f, G)
    for atom in res.atoms:
        g = min(atom)
        assert atom == G.translate_set(g, H.member_tuple)


# -- mu -------------------------------------------------------------------------


def test_mu_methods_agree_small():
    action = natural_action(symmetric(4))
    res = min_image_ratio(action, (0,))
    assert res.agreed
    assert set(res.methods) == {"exhaustive", "subgroups", "dinkelbach"}
    assert res.mu == Fraction(1, 6)
    # witness attains the ratio
    wit = sorted(res.witness)
    assert Fraction(action.image_size(wit, (0,)), len(wit)) == res.mu


def test_mu_free_action_at_least_one():
    action = left_translation_action(dihedral(5))
    res = min_image_ratio(action, (0, 2))
    assert res.mu >= 1


def test_mu_brute_force_oracle():
    action = conjugation_action(symmetric(3))
    Y = (1, 2)
    best = min(
        Fraction(action.image_size(sorted(_set_of(m)), Y), bin(m).count("1"))
        for m in range(1, 1 << 6))
    assert min_image_ratio(action, Y).mu == best


def test_mu_subgroup_route_only_for_larger_groups():
    # S_5 order 120 exceeds the exhaustive ground cap; subgroup route runs
    action = natural_action(symmetric(5))
    res = min_image_ratio(action, (0,))
    assert res.mu == Fraction(1, 24)
    assert "exhaustive" not in res.methods
    assert "subgroups" in res.methods and "dinkelbach" in res.methods
    # the batched |H.Y| against act_set, one subgroup at a time: least
    # ratio, then least order, then first in lattice order
    for Y in ((0,), (0, 1), (1, 3, 4)):
        ratio, _order, _i, H = min(
            (Fraction(action.image_size(H.member_tuple, Y), H.order),
             H.order, i, H) for i, H in enumerate(action.group.subgroups()))
        assert min_image_ratio(action, Y).methods["subgroups"] == {
            "value": ratio, "witness": H.members}


def test_mu_empty_target_rejected():
    with pytest.raises(DomainError):
        min_image_ratio(natural_action(symmetric(3)), ())


def _count_fold_builds(monkeypatch) -> list:
    builds = []
    init = _kernels.SubsetFold.__init__

    def counted(self, masks, **kwargs):
        builds.append(len(masks))
        init(self, masks, **kwargs)

    monkeypatch.setattr(_kernels.SubsetFold, "__init__", counted)
    return builds


def test_mu_and_hamidoune_build_each_fold_once(monkeypatch):
    G = dihedral(5)
    Y = (0, 1)
    mu = min_image_ratio(natural_action(G), Y).mu
    builds = _count_fold_builds(monkeypatch)
    action = natural_action(G)
    min_image_ratio(action, Y)
    # the exhaustive route's, over the 4 cosets of G_Y (order 2) other
    # than G_Y itself; the dinkelbach route cuts
    assert builds == [4]
    builds.clear()
    rep = check_hamidoune(natural_action(G), Y, mu / 2)
    assert rep.conclusion_holds
    assert builds == []  # mu is |G.Y|/|G|; c_Y is minimised by a cut


def test_mu_routes_follow_cap_override_on_one_action(monkeypatch):
    monkeypatch.delenv("SUBACTION_MAX_EXHAUSTIVE_GROUND", raising=False)
    action = natural_action(dihedral(5))  # order 10
    first = min_image_ratio(action, (0,))
    assert set(first.methods) == {"exhaustive", "subgroups", "dinkelbach"}
    monkeypatch.setenv("SUBACTION_MAX_EXHAUSTIVE_GROUND", "9")
    second = min_image_ratio(action, (0,))
    assert set(second.methods) == {"subgroups", "dinkelbach"}
    assert second.mu == first.mu
    monkeypatch.delenv("SUBACTION_MAX_EXHAUSTIVE_GROUND")
    assert min_image_ratio(action, (0,)) == first


def _product_action(a1, a2):
    """Componentwise action of the direct product on the cartesian domain."""
    G = direct_product(a1.group, a2.group)
    deg1, d2 = a1.group.degree, a2.domain_size
    g1 = a1.group._lookup(G.images[:, :deg1])
    g2 = a2.group._lookup(G.images[:, deg1:] - deg1)
    x1, x2 = np.divmod(np.arange(a1.domain_size * d2), d2)
    return GroupAction(G, a1.domain_size * d2,
                       a1.table[g1][:, x1] * d2 + a2.table[g2][:, x2])


@functools.cache
def _mu_actions() -> list:
    """The action of every search family entry, a coset action, and
    product actions with three orbits."""
    specs = {repr(spec): spec for entries in FAMILIES.values()
             for spec in entries}
    D6 = dihedral(6)
    return [build_action(build_group(gspec), aspec)
            for gspec, aspec in specs.values()] + [
        coset_action(D6, next(K for K in D6.subgroups() if K.order == 2)),
        _product_action(natural_action(cyclic(2)),
                        conjugation_action(cyclic(3))),
        _product_action(natural_action(dihedral(4)),
                        conjugation_action(symmetric(3)))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_group_image_ratio_is_mu(data):
    # |G.Y| / |G| is every route's mu, and for |G| <= 12 the minimum of
    # |A.Y| / |A| over every nonempty A
    action = data.draw(st.sampled_from(_mu_actions()))
    n, d = action.group.order, action.domain_size
    Y = sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1,
                                 max_size=min(d, 5)), label="Y"))
    mu = group_image_ratio(action, Y)
    res = min_image_ratio(action, Y)
    assert res.mu == mu
    assert {m["value"] for m in res.methods.values()} == {mu}
    if n <= 12:
        images = [_mask_of(row) for row in action.table[:, Y].tolist()]
        assert mu == min(
            Fraction(functools.reduce(operator.or_, (
                images[g] for g in _set_of(m))).bit_count(), m.bit_count())
            for m in range(1, 1 << n))


@functools.cache
def _family_actions() -> list:
    """The actions of every search family entry of order at most 16."""
    specs = {repr(spec): spec for entries in FAMILIES.values()
             for spec in entries}
    return [build_action(G, aspec) for gspec, aspec in specs.values()
            if (G := build_group(gspec)).order <= 16]


def _power_set_ratio(action, Y):
    """The exhaustive route's oracle: min |A.Y| / |A| and its witness from
    the fold over all 2^|G| actor sets."""
    images = [_mask_of(action.table[g][list(Y)].tolist())
              for g in range(action.group.order)]
    p, q, witness = _kernels.SubsetFold(images).min_ratio()
    return {"value": Fraction(p, q), "witness": _set_of(witness)}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mu_exhaustive_route_matches_the_power_set_fold(data):
    # the route folds only the unions of cosets of G_Y that hold G_Y
    action = data.draw(st.sampled_from(_family_actions()))
    d = action.domain_size
    Y = sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1,
                                 max_size=min(d, 5)), label="Y"))
    assert min_image_ratio(action, Y).methods["exhaustive"] == \
        _power_set_ratio(action, Y)


@pytest.mark.parametrize("Y, stabilizer_order", [
    ((1, 2), 1), ((1, 5), 2), ((1,), 4), ((0,), 24)])
def test_mu_exhaustive_route_on_s4_conjugation(Y, stabilizer_order):
    # 24 elements: trivial, nontrivial and full stabilizers of Y; the
    # last, Y = {e}, is a union of orbits
    action = conjugation_action(symmetric(4))
    assert action.set_stabilizer(Y).order == stabilizer_order
    assert min_image_ratio(action, Y).methods["exhaustive"] == \
        _power_set_ratio(action, Y)


def test_mu_exhaustive_witness_can_be_the_stabilizer():
    # S4 natural, Y = {0}: G_Y alone (ratio 1/6) is the least minimiser;
    # G_Y and one more coset tie it at 2/12
    action = natural_action(symmetric(4))
    route = min_image_ratio(action, (0,)).methods["exhaustive"]
    assert route == {"value": Fraction(1, 6),
                     "witness": action.set_stabilizer((0,)).members}
    assert route == _power_set_ratio(action, (0,))


@pytest.mark.parametrize("name", ["s4_conjugation", "c6_translation"])
def test_mu_of_a_union_of_orbits_builds_no_fold(name, monkeypatch):
    # every g.Y is Y: mu = |Y| / |G| with witness G, and no fold is built
    if name == "s4_conjugation":
        action = conjugation_action(symmetric(4))
        Y = sorted(set(action.table[:, 1].tolist()) | {0})  # e, transpositions
    else:
        action = left_translation_action(cyclic(6))
        Y = list(range(6))
    builds = _count_fold_builds(monkeypatch)
    res = min_image_ratio(action, Y)
    whole = Fraction(len(Y), action.group.order)
    assert res.mu == whole
    assert res.methods["exhaustive"] == {
        "value": whole, "witness": frozenset(range(action.group.order))}
    assert builds == []


# -- the min cut ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_min_cut_matches_every_cut(data):
    # s = 0, t = 1: the flow is the least cut value over every source side
    # S holding s and not t, and the residual reach from s is the
    # intersection of the source sides of least value
    size = data.draw(st.integers(2, 6))
    arcs = data.draw(st.lists(st.tuples(
        st.integers(0, size - 1), st.integers(0, size - 1),
        st.none() | st.integers(0, 5)), max_size=14))
    cuts = {}
    for m in range(1 << size):
        if m & 1 and not m & 2:
            crossing = [c for u, v, c in arcs if m >> u & 1 and not m >> v & 1]
            if None not in crossing:
                cuts[m] = sum(crossing)
    if not cuts:
        return  # an uncuttable path joins s to t
    best = min(cuts.values())
    least = functools.reduce(
        operator.and_, (m for m, v in cuts.items() if v == best))
    flow, side = setfuncs._min_cut(size, arcs, 0, 1)
    assert flow == best
    assert _mask_of(side) == least


@functools.cache
def _cut_action(name):
    """Actions of order at most MAX_EXHAUSTIVE_GROUND: natural, left
    translation, conjugation and coset actions of cyclic, dihedral,
    symmetric, alternating and affine groups."""
    kind, group = name.split(":")
    G = {"c12": lambda: cyclic(12), "c24": lambda: cyclic(24),
         "d5": lambda: dihedral(5), "d12": lambda: dihedral(12),
         "s3": lambda: symmetric(3), "s4": lambda: symmetric(4),
         "a4": lambda: alternating(4), "aff5": lambda: affine_gl1(5)}[group]()
    if kind == "coset":
        K = next(K for K in G.subgroups() if 1 < K.order < G.order)
        return coset_action(G, K)
    return {"natural": natural_action,
            "translation": left_translation_action,
            "conjugation": conjugation_action}[kind](G)


_CUT_ACTIONS = [f"{kind}:{group}" for kind, groups in (
    ("natural", ("c12", "d5", "d12", "s3", "s4", "a4", "aff5")),
    ("translation", ("c12", "c24", "d5", "s4", "a4", "aff5")),
    ("conjugation", ("d5", "s3", "s4", "a4", "aff5")),
    ("coset", ("c12", "d12", "s4", "a4", "aff5"))) for group in groups]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cut_matches_the_fold(data):
    # the cut's minimum is minimize_nonempty's, and its least minimiser
    # containing e is the identity atom, also for a lambda whose
    # denominator passes 2^40
    action = _cut_action(data.draw(st.sampled_from(_CUT_ACTIONS)))
    G, d = action.group, action.domain_size
    Y = sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1,
                                 max_size=min(d, 5)), label="Y"))
    with config.overrides({"MAX_EXHAUSTIVE_GROUND": 0}):
        mu = min_image_ratio(action, Y).mu  # from the lattice: no 2^n fold
    lam = data.draw(st.sampled_from((0, Fraction(1, 4), Fraction(1, 2),
                                     Fraction(3, 4), 1, "wide")), label="lam")
    # mu less 1 / (2^41 den mu): a denominator of at least 2^41
    lam = mu - Fraction(1, 2 ** 41 * mu.denominator) if lam == "wide" \
        else mu * lam
    minimum, atom = actor_growth_cut(action, Y, lam)
    f = actor_growth(action, Y, lam)
    res = minimize_nonempty(f, fragment_cap=0)
    assert minimum == res.min_value
    assert atom == identity_atom(f, G, res).members


@pytest.mark.parametrize("name", ["s5", "a5", "aff7", "c70"])
def test_cut_matches_the_lattice_above_the_ground_cap(name):
    # orders 120, 60, 42 and 70, and 70 points on C70: the minimum is the
    # least growth of a subgroup, the atom the least-order subgroup of that
    # growth, and mu the lattice route's
    G = {"s5": lambda: symmetric(5), "a5": lambda: alternating(5),
         "aff7": lambda: affine_gl1(7), "c70": lambda: cyclic(70)}[name]()
    action = left_translation_action(G) if name == "c70" \
        else natural_action(G)
    rng = random.Random(name)
    for _ in range(3):
        Y = sorted(rng.sample(range(action.domain_size), rng.randint(1, 3)))
        res = min_image_ratio(action, Y)
        assert set(res.methods) == {"subgroups", "dinkelbach"}
        assert res.methods["dinkelbach"] == res.methods["subgroups"]
        for lam in (0, res.mu / 3, res.mu / 2, res.mu):
            growth, _order, H = min(
                (action.image_size(H.member_tuple, Y) - lam * H.order,
                 H.order, H.members) for H in G.subgroups())
            assert actor_growth_cut(action, Y, lam) == (growth, H)


def test_cut_refuses_a_negative_lambda():
    with pytest.raises(DomainError, match="nonnegative"):
        actor_growth_cut(natural_action(symmetric(3)), (0,), "-1/2")


# -- the point side ------------------------------------------------------------


@functools.cache
def _route_action(name):
    """A search pool action ("family:index"), or S6, S7 or A8 natural."""
    if name in ("s6", "s7", "a8"):
        return natural_action({"s6": lambda: symmetric(6),
                               "s7": lambda: symmetric(7),
                               "a8": lambda: alternating(8)}[name]())
    family, i = name.split(":")
    gspec, aspec = FAMILIES[family][int(i)]
    return build_action(build_group(gspec), aspec)


_ROUTE_ACTIONS = [f"{family}:{i}" for family, specs in FAMILIES.items()
                  for i in range(len(specs))] + ["s6", "s7", "a8"]


def _by_route(action, Y, lam, route):
    """`actor_growth_cut` forced through the point side or the cut."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(setfuncs, "_POINT_SIDE_WORK",
                   1 << 64 if route == "point" else -1)
        return actor_growth_cut(action, Y, lam)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_point_side_matches_the_cut(data):
    # value and least minimiser containing e, on every search family and on
    # S6, S7 and A8 natural, at lambda = mu {1/4, 1/2, 3/4, 1} and at a
    # lambda whose denominator passes 2^63 (scored in Python ints)
    action = _route_action(data.draw(st.sampled_from(_ROUTE_ACTIONS)))
    d = action.domain_size
    Y = sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1,
                                 max_size=min(d, 5)), label="Y"))
    free = len(action.act_set(range(action.group.order), Y)) - len(Y)
    if free > 16:
        return  # 2^free counts: the point side is the wrong route here
    mu = group_image_ratio(action, Y)
    lam = data.draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2),
                                     Fraction(3, 4), 1, "wide")), label="lam")
    lam = mu - Fraction(1, 2 ** 64 * mu.denominator) if lam == "wide" \
        else mu * lam
    point = _by_route(action, Y, lam, "point")
    assert point == _by_route(action, Y, lam, "cut")
    assert actor_growth_cut(action, Y, lam) == point


@pytest.mark.parametrize("route", ["point", "cut"])
def test_zero_lambda_gives_the_identity_not_the_stabilizer(route):
    # at lam = 0 every U = Y minimises, but the least minimiser containing
    # e is {e}, not A_Y = G_Y (order 6 here)
    action = natural_action(symmetric(4))
    assert action.set_stabilizer((0,)).order == 6
    assert _by_route(action, (0,), 0, route) == (1, frozenset({0}))


def test_point_side_scores_past_a_byte():
    # C12 translation with |Y| = 7 takes the point side by default; for
    # q = 24 and 256 the scaled sizes q |U| pass 255, where a uint8
    # popcount wraps; the answers are the cut's
    action = left_translation_action(cyclic(12))
    Y = (0, 1, 2, 3, 5, 7, 8)
    for lam in (Fraction(11, 12), Fraction(1, 3), Fraction(7, 24),
                Fraction(255, 256)):
        assert actor_growth_cut(action, Y, lam) == _by_route(
            action, Y, lam, "cut")


def test_route_rule_keeps_large_point_sets_on_the_cut(monkeypatch):
    # C20 translation with |Y| = 2: 18 * 2^18 counts past 256 * 20 * 3
    # arcs, so the cut runs and the point side does not
    calls = []
    real = setfuncs._point_side_minimum
    monkeypatch.setattr(setfuncs, "_point_side_minimum",
                        lambda *a: calls.append(1) or real(*a))
    action = left_translation_action(cyclic(20))
    assert actor_growth_cut(action, (0, 1), Fraction(1, 20)) == (
        Fraction(39, 20), frozenset({0}))
    assert calls == []
    actor_growth_cut(natural_action(dihedral(8)), (0,), Fraction(1, 4))
    assert calls == [1]
