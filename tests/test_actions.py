"""Action tables, orbits, stabilizers, and symmetry sets."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaction import actions, config, groups
from subaction.actions import (GroupAction, conjugation_action,
                               coset_action, left_translation_action,
                               natural_action)
from subaction.errors import CapacityError, DomainError, InvariantError
from subaction.groups import (FiniteGroup, Subgroup, affine_gl1, alternating,
                              cyclic, dihedral, direct_product, symmetric)
from subaction.perms import Permutation, from_cycles
from subaction.search import FAMILIES, build_action, build_group, search
from subaction.setfuncs import group_image_ratio, target_growth
from subaction.theorems import is_left_translation


def _product_action(a1, a2):
    """Componentwise action of the direct product on the cartesian domain."""
    G = direct_product(a1.group, a2.group)
    deg1, d2 = a1.group.degree, a2.domain_size
    g1 = a1.group._lookup(G.images[:, :deg1])
    g2 = a2.group._lookup(G.images[:, deg1:] - deg1)
    x1, x2 = np.divmod(np.arange(a1.domain_size * d2), d2)
    return GroupAction(G, a1.domain_size * d2,
                       a1.table[g1][:, x1] * d2 + a2.table[g2][:, x2],
                       name=f"product<{a1.name},{a2.name}>")


def _sample_actions():
    S4 = symmetric(4)
    D5 = dihedral(5)
    Aff5 = affine_gl1(5)
    return [
        natural_action(S4),
        left_translation_action(D5),
        conjugation_action(S4),
        coset_action(S4, S4.generated_subgroup(
            [S4.element_index(from_cycles(4, [(0, 1)]))])),
        GroupAction(Aff5, 5, Aff5.images, name="affine_line<5>"),
        _product_action(natural_action(symmetric(3)),
                        natural_action(cyclic(3))),
    ]


@pytest.mark.parametrize("action", _sample_actions(),
                         ids=lambda a: a.name)
def test_action_axioms(action):
    G = action.group
    e = G.identity_index
    assert all(action.act(e, x) == x for x in range(action.domain_size))
    for g in range(G.order):
        for h in range(G.order):
            gh = G.mul(g, h)
            for x in range(action.domain_size):
                assert action.act(gh, x) == action.act(g, action.act(h, x))


def test_rows_are_bijections():
    action = natural_action(symmetric(4))
    for g in range(action.group.order):
        assert sorted(action.act_row(g).tolist()) == list(range(4))


# the verification oracle's groups: one and several generators
_VERIFY_GROUPS = [cyclic(5), cyclic(8), dihedral(4), dihedral(5), symmetric(3),
                  symmetric(4), alternating(4), affine_gl1(5)]
_VERIFY_ACTIONS = [build(G) for G in _VERIFY_GROUPS
                   for build in (natural_action, left_translation_action,
                                 conjugation_action)]


def _reference_verify(G, table):
    """All-pairs action check: identity, bijections, then the law over
    every (g, h) in index order."""
    d = table.shape[1]
    if table[0].tolist() != list(range(d)):
        raise InvariantError("identity row does not fix the domain")
    if any(sorted(row) != list(range(d)) for row in table.tolist()):
        raise InvariantError("some row is not a bijection of the domain")
    for g in range(G.order):
        for h in range(G.order):
            if table[G.mul(g, h)].tolist() != table[g][table[h]].tolist():
                raise InvariantError(
                    f"homomorphism law fails at (g, h) = ({g}, {h})")


def _raised(build):
    """The InvariantError message that build() raises, or None."""
    try:
        build()
    except InvariantError as e:
        return str(e)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_verification(data):
    G = cyclic(3)
    bad = np.zeros((3, 2), dtype=np.int64)  # constant rows: not bijective
    with pytest.raises(InvariantError):
        GroupAction(G, 2, bad)
    # bijective rows that are not a homomorphism
    bad2 = np.array([[0, 1, 2], [1, 0, 2], [0, 2, 1]], dtype=np.int64)
    with pytest.raises(InvariantError):
        GroupAction(G, 3, bad2)

    # a valid table with up to three rows corrupted: the generator check
    # raises exactly when the all-pairs reference does, with its message
    action = data.draw(st.sampled_from(_VERIFY_ACTIONS))
    G, d = action.group, action.domain_size
    table = action.table.copy()
    for _ in range(data.draw(st.integers(0, 3))):
        r = data.draw(st.one_of(st.just(0), st.integers(0, G.order - 1)))
        how = data.draw(st.sampled_from(("swap", "copy", "permute", "entry")))
        if how == "swap":
            x, y = data.draw(st.lists(st.integers(0, d - 1), min_size=2,
                                      max_size=2))
            table[r, [x, y]] = table[r, [y, x]]
        elif how == "copy":
            table[r] = table[data.draw(st.integers(0, G.order - 1))]
        elif how == "permute":
            table[r] = table[r][data.draw(st.permutations(range(d)))]
        else:
            table[r, data.draw(st.integers(0, d - 1))] = \
                data.draw(st.integers(0, d - 1))
    expected = _raised(lambda: _reference_verify(G, table))
    assert _raised(lambda: GroupAction(G, d, table)) == expected


@pytest.mark.parametrize("value", ["d", "-1"])
@pytest.mark.parametrize("tables", ["default caps", "no mul table"])
@pytest.mark.parametrize("name", ["S4", "D5", "A5", "S7"])
def test_entry_outside_the_domain_in_a_non_generator_row(name, tables, value):
    # the generator rows are bijections, so only the law reads the bad
    # row, with its entries clipped; the full check then names it
    build = {"S4": lambda: symmetric(4), "D5": lambda: dihedral(5),
             "A5": lambda: alternating(5), "S7": lambda: symmetric(7)}[name]
    caps = {"MAX_MUL_TABLE_ENTRIES": 1} if tables == "no mul table" else {}
    with config.overrides(caps):
        G = build()
    actions_of = [natural_action]
    if G.order < 1000:
        actions_of.append(left_translation_action)
    for action_of in actions_of:
        action = action_of(G)
        d = action.domain_size
        for r in (G.order // 2, G.order - 1):
            assert r not in G.generator_indices
            table = action.table.copy()
            table[r, d // 2] = d if value == "d" else -1
            with pytest.raises(InvariantError,
                               match="^some row is not a bijection"):
                GroupAction(G, d, table)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_left_translation_check_matches_all_elements(data):
    # left translation twisted by conjugation by z, g -> L(z g z^-1): it
    # agrees with L exactly on the generators that commute with z; and the
    # conjugation action
    G = data.draw(st.sampled_from(_VERIFY_GROUPS))
    z = data.draw(st.integers(0, G.order - 1))
    z_inv = int(G.inv_table[z])
    twisted = GroupAction(G, G.order, [
        G.mul_row(G.mul(G.mul(z, g), z_inv)) for g in range(G.order)])
    for action in (twisted, conjugation_action(G)):
        assert is_left_translation(action) == all(
            np.array_equal(action.table[g], G.mul_row(g))
            for g in range(G.order))


def test_tableless_verification_catches_swapped_rows():
    # S7 has no mul table at the default caps; rows 100 and 4000 are not
    # generators, and the swapped table still has bijective rows
    G = symmetric(7)
    assert G.mul_table is None
    table = G.images.copy()
    table[[100, 4000]] = table[[4000, 100]]
    assert (np.sort(table, axis=1) == np.arange(7)).all()
    with pytest.raises(InvariantError, match="homomorphism law fails"):
        GroupAction(G, 7, table)


def test_left_translation_check_refuses_right_translation():
    # g.h = h * g^-1 is an action of a nonabelian group other than L
    for G in (symmetric(4), alternating(5)):
        for cap in (10_000_000, 1):  # with and without a mul table
            with config.overrides({"MAX_MUL_TABLE_ENTRIES": cap}):
                H = FiniteGroup([G.elements[g] for g in G.generator_indices])
            assert (H.mul_table is None) == (cap == 1)
            ar = np.arange(H.order)
            right = GroupAction(H, H.order, H._products(ar, H.inv_table).T)
            assert not is_left_translation(right)
            assert is_left_translation(left_translation_action(H))


def test_group_and_natural_action_build_looks_nothing_up(monkeypatch):
    calls = []
    lookup = FiniteGroup._lookup

    def counted(self, rows):
        calls.append(self.name)
        return lookup(self, rows)

    monkeypatch.setattr(FiniteGroup, "_lookup", counted)
    for build in (lambda: symmetric(4), lambda: alternating(8)):
        G = build()
        natural_action(G)
    assert G.mul_table is None  # A8 has none at the default caps
    assert calls == []


def test_act_set_oracle():
    action = natural_action(symmetric(4))
    A, Y = (1, 3, 8), (0, 2)
    brute = frozenset(action.act(a, y) for a in A for y in Y)
    assert action.act_set(A, Y) == brute
    assert action.image_size(A, Y) == len(brute)


@settings(max_examples=30)
@given(st.data())
def test_act_set_random(data):
    action = conjugation_action(symmetric(3))
    A = data.draw(st.sets(st.integers(0, 5), min_size=1, max_size=4))
    Y = data.draw(st.sets(st.integers(0, 5), min_size=1, max_size=4))
    brute = frozenset(action.act(a, y) for a in A for y in Y)
    assert action.act_set(A, Y) == brute


# every pool action of the search families, and the tableless S7 and A8
_ALGEBRA_SPECS = {json.dumps(spec): spec
                  for pool in FAMILIES.values() for spec in pool}
_ALGEBRA_SPECS.update({name: ({"kind": kind, "n": n}, {"kind": "natural"})
                       for name, kind, n in (("S7", "symmetric", 7),
                                             ("A8", "alternating", 8))})
_ALGEBRA_BUILT: dict = {}


def _algebra_case(name: str, tables: str):
    """The action, its table as Python lists and its group's elements as
    permutations, built once per case; S7 and A8 have no multiplication
    table at the default caps either."""
    if (name, tables) not in _ALGEBRA_BUILT:
        gspec, aspec = _ALGEBRA_SPECS[name]
        caps = {"MAX_MUL_TABLE_ENTRIES": 1} if tables == "no mul table" \
            else {}
        with config.overrides(caps):
            action = build_action(build_group(gspec), aspec)
        _ALGEBRA_BUILT[name, tables] = (action, action.table.tolist(),
                                        action.group.elements)
    return _ALGEBRA_BUILT[name, tables]


def _indices(data, n: int) -> list:
    """Indices below n, repeats and any order allowed, as Python and numpy
    ints; possibly none."""
    index = st.builds(lambda kind, i: kind(i),
                      st.sampled_from([int, np.int32, np.int64]),
                      st.integers(0, n - 1))
    return data.draw(st.lists(index, max_size=8))


def _with_bad_index(data, items: list, n: int) -> list:
    bad = data.draw(st.integers(-3, -1) | st.integers(n, n + 3))
    at = data.draw(st.integers(0, len(items)))
    return items[:at] + [bad] + items[at:]


def _mask(points) -> int:
    return sum(1 << x for x in set(points))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_set_algebra_matches_python_sets(data):
    name = data.draw(st.sampled_from(sorted(_ALGEBRA_SPECS)))
    tables = data.draw(st.sampled_from(["default caps", "no mul table"]))
    action, rows, elements = _algebra_case(name, tables)
    G, d = action.group, action.domain_size
    A, B, Y = _indices(data, G.order), _indices(data, G.order), \
        _indices(data, d)
    g = data.draw(st.integers(0, G.order - 1))

    def mul(a, b):
        return G.element_index(elements[a] * elements[b])

    for got, items in ((G._as_indices(A), A), (action._point_indices(Y), Y)):
        assert got.dtype == np.int64
        assert got.tolist() == sorted({int(i) for i in items})
    assert action.act_set(A, Y) == {rows[a][y] for a in A for y in Y}
    assert G.product_set(A, B) == {mul(a, b) for a in A for b in B}
    assert G.translate_set(g, A) == {mul(g, a) for a in A}
    if A:
        assert target_growth(action, A, 1).union_masks == \
            [_mask(rows[a][x] for a in A) for x in range(d)]
    if Y:
        image = {row[y] for row in rows for y in Y}
        assert group_image_ratio(action, Y) == Fraction(len(image), G.order)

    S = frozenset(int(a) for a in A) | {0}
    if not all(G.element_index(Permutation(tuple(
            np.argsort(elements[a].images).tolist()))) in S for a in S):
        refusal = (InvariantError, "set is not inverse-closed")
    elif not all(mul(a, b) in S for a in S for b in S):
        refusal = (InvariantError, "set is not product-closed")
    else:
        refusal = None
    for members, expect in (
            (S, refusal), (G.generated_set([g]), None),
            (S | {_with_bad_index(data, [], G.order)[0]},
             (DomainError, "member index out of range")),
            (S - {0} or frozenset({1}),
             (InvariantError, "subgroup must contain the identity"))):
        if expect is None:
            assert Subgroup(G, members).members == members
            continue
        with pytest.raises(expect[0]) as err:
            Subgroup(G, members)
        assert str(err.value) == expect[1]

    bad_A, bad_Y = _with_bad_index(data, A, G.order), \
        _with_bad_index(data, Y, d)
    for text, calls in (
            (f"element index outside 0..{G.order - 1}",
             (lambda: G._as_indices(bad_A), lambda: G.product_set(bad_A, B),
              lambda: G.translate_set(g, bad_A),
              lambda: action.act_set(bad_A, Y),
              lambda: target_growth(action, bad_A, 1))),
            (f"point index outside 0..{d - 1}",
             (lambda: action._point_indices(bad_Y),
              lambda: action.act_set(A, bad_Y),
              lambda: group_image_ratio(action, bad_Y)))):
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == text


def test_empty_and_range_handling():
    action = natural_action(symmetric(3))
    assert action.act_set((), (0,)) == frozenset()
    with pytest.raises(DomainError):
        action.act_set((0,), (7,))
    with pytest.raises(DomainError):
        action.set_stabilizer(())
    with pytest.raises(DomainError):
        action.symmetry_set((), "1/2")
    with pytest.raises(DomainError):
        action.weak_stabilizer(())


# -- orbits ----------------------------------------------------------------------


def test_natural_action_transitive():
    dec = natural_action(symmetric(4)).orbit_decomposition()
    assert dec.count == 1
    assert dec.orbits[0] == frozenset(range(4))


def test_conjugation_orbits_are_classes():
    # S3 conjugacy classes: sizes 1, 3, 2
    dec = conjugation_action(symmetric(3)).orbit_decomposition()
    assert sorted(len(o) for o in dec.orbits) == [1, 2, 3]


def test_orbit_sizes_divide_group_order():
    for action in _sample_actions():
        for orbit in action.orbit_decomposition().orbits:
            assert action.group.order % len(orbit) == 0


def test_orbit_stabilizer_theorem():
    for action in _sample_actions():
        dec = action.orbit_decomposition()
        for x in range(action.domain_size):
            stab_order = int((action.table[:, x] == x).sum())
            orbit = dec.orbits[int(dec.orbit_of[x])]
            assert stab_order * len(orbit) == action.group.order


def _reference_orbits(rows, d: int):
    """Representatives, orbit_of and orbits of the group generated by the
    permutation rows `rows` on 0..d-1: the level-by-level set BFS that
    `orbit_decomposition` once ran itself, from each least unseen point."""
    orbit_of = np.full(d, -1, dtype=np.int32)
    reps: list[int] = []
    orbits: list[frozenset[int]] = []
    for x in range(d):
        if orbit_of[x] >= 0:
            continue
        seen = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for row in rows:
                    z = int(row[y])
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
            frontier = nxt
        orbit_of[np.fromiter(seen, dtype=np.int64)] = len(reps)
        reps.append(x)
        orbits.append(frozenset(seen))
    return tuple(reps), orbit_of, orbits


# every search pool action, and natural actions with several orbits
_ORBIT_CASES = {f"{g} {a}": lambda g=g, a=a: build_action(build_group(g), a)
                for specs in FAMILIES.values() for g, a in specs}
_ORBIT_CASES.update({
    "S7 natural": lambda: natural_action(symmetric(7)),
    "A8 natural": lambda: natural_action(alternating(8)),
    "S4 conjugation": lambda: conjugation_action(symmetric(4)),
    "S5 conjugation": lambda: conjugation_action(symmetric(5)),
    "S4xA5 natural": lambda: natural_action(
        direct_product(symmetric(4), alternating(5))),
    "C2^4 natural": lambda: natural_action(
        direct_product(direct_product(cyclic(2), cyclic(2)),
                       direct_product(cyclic(2), cyclic(2)))),
    "D8xC9 natural": lambda: natural_action(
        direct_product(dihedral(8), cyclic(9)))})


@pytest.mark.parametrize("case", sorted(_ORBIT_CASES))
def test_orbit_walk_matches_reference_bfs(case):
    action = _ORBIT_CASES[case]()
    G, d = action.group, action.domain_size
    gens = action.table[list(G.generator_indices)]
    reps, orbit_of, orbits = _reference_orbits(gens, d)
    walked = groups._orbits(gens)
    # in order of least point, each listed from it, every point once
    assert [o[0] for o in walked] == list(reps)
    assert [frozenset(o) for o in walked] == orbits
    assert sorted(x for o in walked for x in o) == list(range(d))
    dec = action.orbit_decomposition()
    assert (dec.representatives, dec.orbits, dec.count) == \
        (reps, orbits, len(orbits))
    assert np.array_equal(dec.orbit_of, orbit_of)
    # the rows of actor sets of at most 8 elements, as the search draws
    # them: their orbits are those of the subgroup they generate
    rng = random.Random(case)
    for _ in range(10):
        A = rng.sample(range(G.order), rng.randint(1, min(8, G.order)))
        walked = groups._orbits(action.table[A])
        reps, _orbit_of, orbits = _reference_orbits(action.table[A], d)
        assert [o[0] for o in walked] == list(reps)
        assert [frozenset(o) for o in walked] == orbits
        members = G.generated_set(A)
        assert [action.act_set(members, (x,)) for x in reps] == orbits


# -- stabilizers -----------------------------------------------------------------


def test_set_stabilizer_brute_force():
    for action in _sample_actions()[:4]:
        Y = tuple(range(0, action.domain_size, 2))
        got = action.set_stabilizer(Y)
        want = {g for g in range(action.group.order)
                if action.act_point_set(g, Y) == frozenset(Y)}
        assert got.members == want


def test_pointwise_vs_setwise():
    action = natural_action(symmetric(4))
    Y = (0, 1)
    setwise = action.set_stabilizer(Y).members
    pointwise = {g for g in range(24)
                 if all(action.act(g, y) == y for y in Y)}
    assert pointwise <= setwise
    assert len(setwise) == 4  # S2 x S2
    assert len(pointwise) == 2


def test_symmetry_set_definition():
    from fractions import Fraction
    action = natural_action(symmetric(4))
    Y = (0, 1, 2)
    for alpha in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        got = action.symmetry_set(Y, alpha)
        want = {g for g in range(24)
                if len(action.act_point_set(g, Y) & frozenset(Y))
                >= alpha * len(Y)}
        assert got == want


def test_symmetry_set_alpha_zero_is_whole_group():
    action = natural_action(symmetric(3))
    assert action.symmetry_set((0,), "0") == frozenset(range(6))


def test_symmetry_set_antitone():
    from fractions import Fraction
    action = natural_action(symmetric(4))
    Y = (0, 1, 2)
    prev = None
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        cur = action.symmetry_set(Y, alpha)
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_symmetry_set_inverse_closed():
    action = natural_action(symmetric(4))
    Y = (0, 1)
    sym = action.symmetry_set(Y, "1/2")
    assert action.group.inverse_set(sym) == sym


def test_symmetry_set_at_one_is_stabilizer():
    action = conjugation_action(symmetric(3))
    Y = (1, 2)
    assert action.symmetry_set(Y, 1) == action.set_stabilizer(Y).members


def test_weak_stabilizer():
    action = natural_action(symmetric(4))
    Y = (0, 1)
    got = action.weak_stabilizer(Y)
    want = {g for g in range(24)
            if action.act_point_set(g, Y) & frozenset(Y)}
    assert got == want


# -- profile ---------------------------------------------------------------------


def test_profile_flags():
    nat = natural_action(symmetric(4)).profile()
    assert nat.transitive and nat.faithful and not nat.free
    trans = left_translation_action(dihedral(4)).profile()
    assert trans.transitive and trans.faithful and trans.free
    conj = conjugation_action(symmetric(3)).profile()
    assert not conj.transitive and not conj.free
    assert conj.kernel == frozenset({0})  # trivial centre
    assert conj.faithful


class _NoTable:
    """Stands for an action table that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"table read: .{name}")

    def __getitem__(self, key):
        raise AssertionError("table read: []")

    def __eq__(self, other):
        raise AssertionError("table read: ==")


def test_profile_is_kept_on_the_action():
    action = conjugation_action(symmetric(4))
    first = action.profile()
    action.table = _NoTable()
    assert action.profile() is first


def test_search_builds_each_pool_profile_once(monkeypatch):
    calls, built = [], []
    profile, ActionProfile = GroupAction.profile, actions.ActionProfile

    def counted(self):
        calls.append(self)
        return profile(self)

    def kept(**fields):
        built.append(fields["group_order"])
        return ActionProfile(**fields)

    monkeypatch.setattr(GroupAction, "profile", counted)
    monkeypatch.setattr(actions, "ActionProfile", kept)
    search("cyclic_translation", "fragment_bounds", 30, seed=7)
    # each pool action is C_n on itself, so its order names it
    assert len(calls) == 30
    assert sorted(built) == sorted({a.group.order for a in calls})
    assert len(built) < len(calls)


def test_profile_kernel_conjugation_abelian():
    conj = conjugation_action(cyclic(5)).profile()
    assert conj.kernel == frozenset(range(5))
    assert not conj.faithful


def _table_builds() -> dict:
    """Each builder with its cap and its table entries; the groups are
    built before `FiniteGroup._products` is patched."""
    S4 = symmetric(4)
    H = S4.generated_subgroup([S4.element_index(from_cycles(4, [(0, 1)]))])
    return {
        # 24 x 24 tables: 576 entries
        "left_translation_action": (lambda: left_translation_action(S4),
                                    500, 576),
        "conjugation_action": (lambda: conjugation_action(S4), 500, 576),
        # S4 on the 12 cosets of an order-2 subgroup: 288 entries
        "coset_action": (lambda: coset_action(S4, H), 100, 288),
    }


@pytest.mark.parametrize("name", ["left_translation_action",
                                  "conjugation_action", "coset_action"])
def test_order_squared_tables_refused_before_they_are_built(name,
                                                            monkeypatch):
    build, limit, entries = _table_builds()[name]
    monkeypatch.setenv("SUBACTION_MAX_ACT_TABLE_ENTRIES", str(limit))
    calls = []
    monkeypatch.setattr(FiniteGroup, "_products",
                        lambda self, *args: calls.append(args))
    with pytest.raises(CapacityError) as ei:
        build()
    err = ei.value
    assert (err.cap_name, err.cap_value, err.measured) == \
        ("MAX_ACT_TABLE_ENTRIES", limit, entries)
    assert calls == []
