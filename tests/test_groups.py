"""Group constructors, multiplication tables, and subset algebra."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaction import config, groups
from subaction.actions import conjugation_action
from subaction.errors import (CapacityError, DomainError, InvariantError,
                             StructuralError)
from subaction.groups import (FiniteGroup, Subgroup, affine_gl1, alternating,
                              cyclic, dihedral, direct_product,
                              from_generators, symmetric)
from subaction.perms import Permutation, from_cycles, identity
from subaction.search import FAMILIES, build_group


@pytest.mark.parametrize("ctor,arg,order", [
    (symmetric, 1, 1), (symmetric, 3, 6), (symmetric, 4, 24),
    (alternating, 3, 3), (alternating, 4, 12), (alternating, 5, 60),
    (cyclic, 1, 1), (cyclic, 7, 7),
    (dihedral, 3, 6), (dihedral, 6, 12),
    (affine_gl1, 5, 20), (affine_gl1, 7, 42),
])
def test_constructor_orders(ctor, arg, order):
    assert ctor(arg).order == order


def test_direct_product_order():
    G = direct_product(cyclic(3), cyclic(4))
    assert G.order == 12
    assert G.is_abelian()
    H = direct_product(symmetric(3), cyclic(2))
    assert H.order == 12
    assert not H.is_abelian()


def test_direct_product_reads_factor_rows_without_elements():
    G1, G2 = symmetric(4), cyclic(3)
    G = direct_product(G1, G2)
    assert G.order == 72
    assert "elements" not in vars(G1) and "elements" not in vars(G2)


def test_affine_needs_prime():
    with pytest.raises(DomainError):
        affine_gl1(6)


# small groups with a mul table, and builders for the tableless checks;
# D8 x C9 has degree 17
_BUILDERS = {"S4": lambda: symmetric(4), "D5": lambda: dihedral(5),
             "Aff(5)": lambda: affine_gl1(5),
             "D8xC9": lambda: direct_product(dihedral(8), cyclic(9))}


def _tableless(build):
    with config.overrides({"MAX_MUL_TABLE_ENTRIES": 1}):
        G = build()
    assert G.mul_table is None
    return G


def _tabled(build):
    # the default cap, set here so that it wins over the environment
    with config.overrides({"MAX_MUL_TABLE_ENTRIES": 10_000_000}):
        G = build()
    assert G.mul_table is not None
    return G


_PAIRS = {name: (_tabled(build), _tableless(build))
          for name, build in _BUILDERS.items()}


def test_mul_table_matches_composition():
    tabled = (symmetric(4), dihedral(5), affine_gl1(5))
    for G in tabled + tuple(_tableless(b) for b in _BUILDERS.values()):
        for i in range(G.order):
            for j in range(G.order):
                assert G.elements[G.mul(i, j)] == G.elements[i] * G.elements[j]


def test_inverse_table():
    G = dihedral(6)
    e = G.identity_index
    for i in range(G.order):
        assert G.mul(i, int(G.inv_table[i])) == e
        assert G.mul(int(G.inv_table[i]), i) == e


def test_elements_built_on_first_read_from_the_closure_rows():
    G = alternating(5)
    assert "elements" not in vars(G)  # the closure does not build them
    elements = G.elements
    assert G.elements is elements
    assert elements == [Permutation(tuple(r)) for r in G.images.tolist()]
    assert all(type(p) is Permutation for p in elements)
    # permutations from outside are still checked
    with pytest.raises(StructuralError):
        Permutation((0, 0, 2))
    with pytest.raises(StructuralError):
        from_generators([Permutation((1, 2, 2))])


def test_identity_is_index_zero():
    for G in (symmetric(3), cyclic(5), affine_gl1(5)):
        assert G.identity_index == 0
        assert G.elements[0].is_identity()


def test_abelian_flag():
    assert cyclic(12).is_abelian()
    assert direct_product(cyclic(2), cyclic(2)).is_abelian()
    assert not symmetric(3).is_abelian()
    assert not dihedral(3).is_abelian()


def _a8_generators() -> list[Permutation]:
    """alternating(8)'s generators, closed without its order check."""
    return [from_cycles(8, [(i, i + 1, i + 2)]) for i in range(6)]


# A8's level ends: its first level of at least 512 products ends at 533,
# so a cap from 157 on stops the closure after it has switched to numpy
_A8_STARTS = alternating(8)._level_starts


def test_group_order_cap():
    with pytest.raises(CapacityError) as ei:
        symmetric(9)
    # the product 2 * 3 * ... stops at 8!, the first partial product past
    # the default cap
    err = ei.value
    assert (err.cap_name, err.cap_value, err.measured) == \
        ("MAX_GROUP_ORDER", config.cap("MAX_GROUP_ORDER"), 40320)
    gens = [from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])]
    with config.overrides({"MAX_GROUP_ORDER": 24}):
        assert from_generators(gens).order == 24
    with config.overrides({"MAX_GROUP_ORDER": 20160}):
        assert from_generators(_a8_generators()).order == 20160
    for gens, caps in ((gens, (1, 10, 23)),
                       (_a8_generators(), (1, 200, 5000, 20159))):
        for cap in caps:
            with config.overrides({"MAX_GROUP_ORDER": cap}), \
                    pytest.raises(CapacityError) as ei:
                from_generators(gens)
            err = ei.value
            assert (err.cap_name, err.cap_value, err.measured) == \
                ("MAX_GROUP_ORDER", cap, cap + 1)


@pytest.mark.parametrize("cap", [100, 2000, 40_000, 161_279])
def test_image_row_cap_on_a8(cap):
    # the measured value is the image entries of the first level end
    # past the cap, on either closure path
    want = 8 * min(s for s in _A8_STARTS if 8 * s > cap)
    with config.overrides({"MAX_ACT_TABLE_ENTRIES": cap}), \
            pytest.raises(CapacityError) as ei:
        from_generators(_a8_generators())
    err = ei.value
    assert (err.cap_name, err.cap_value, err.measured) == \
        ("MAX_ACT_TABLE_ENTRIES", cap, want)


@pytest.mark.parametrize("caps", [
    {}, {"MAX_GROUP_ORDER": 20160}, {"MAX_GROUP_ORDER": 5000},
    {"MAX_ACT_TABLE_ENTRIES": 161_280}, {"MAX_ACT_TABLE_ENTRIES": 40_000}],
    ids=lambda caps: ",".join(f"{k}={v}" for k, v in caps.items()) or
    "default caps")
def test_closure_row_buffer_stays_within_the_caps(caps, monkeypatch):
    # the rows kept on the numpy path grow in a buffer; every buffer it
    # allocates holds no more rows than the caps admit
    sizes = []
    grown = groups._grown

    def spy(rows, kept, need, limit):
        out = grown(rows, kept, need, limit)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(groups, "_grown", spy)
    with config.overrides(caps):
        admitted = min(config.cap("MAX_GROUP_ORDER"),
                       config.cap("MAX_ACT_TABLE_ENTRIES") // 8)
        try:
            from_generators(_a8_generators())
        except CapacityError:
            assert admitted < 20160
    assert sizes and max(sizes) <= admitted


def test_closure_peak_memory_stays_below_four_image_tables():
    # C3000 keeps 36 MB of image rows; building it peaked at 3.13 times
    # that, with and without a mul table
    tracemalloc.start()
    try:
        G = cyclic(3000)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * G.images.nbytes


@pytest.mark.parametrize("build,factor", [
    (lambda: alternating(8), 8), (lambda: symmetric(7), 8)],
    ids=["A8", "S7"])
def test_numpy_closure_peak_memory(build, factor):
    # A8 and S7 close their large levels in numpy; building them peaked
    # at 6.72 and 6.77 times their image rows
    tracemalloc.start()
    try:
        G = build()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < factor * G.images.nbytes


def test_element_index_refuses_non_members():
    G = alternating(4)
    assert G.elements[G.element_index(from_cycles(4, [(0, 1, 2)]))] == \
        from_cycles(4, [(0, 1, 2)])
    for p in (from_cycles(4, [(0, 1)]), from_cycles(5, [(0, 1, 2)])):
        with pytest.raises(DomainError) as ei:
            G.element_index(p)
        assert str(ei.value) == f"{p} is not an element of A4"


# -- element order: a reference closure ------------------------------------------


def _oracle_closure(generators: list[Permutation]) -> dict:
    """Scalar breadth-first closure over a dict of image tuples: the
    element order, factorisation and inverses that indices must keep."""
    gens = list(dict.fromkeys(g.images for g in generators))
    e = tuple(range(len(gens[0])))
    index, elements, gen_of, parent_of = {e: 0}, [e], [-1], [-1]
    frontier = [0]
    while frontier:
        nxt = []
        for f in frontier:
            for si, s in enumerate(gens):
                prod = tuple(s[y] for y in elements[f])
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    gen_of.append(si)
                    parent_of.append(f)
                    nxt.append(index[prod])
        frontier = nxt
    return {"images": elements, "_gen_of": gen_of, "_parent_of": parent_of,
            "generator_indices": [index[g] for g in gens],
            "_gen_rows": [[index[tuple(s[y] for y in f)] for f in elements]
                          for s in gens],
            "inv_table": [index[tuple(np.argsort(p).tolist())]
                          for p in elements]}


def _with_generators(build, monkeypatch) -> tuple[FiniteGroup, list]:
    """The group ``build`` returns and the generators it was closed from."""
    given_gens = []
    init = FiniteGroup.__init__

    def spy(self, generators, **kwargs):
        given_gens.append(list(generators))
        init(self, generators, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "__init__", spy)
        G = build()
    return G, given_gens[-1]


_ORDER_CASES = {build_group(g).name: lambda g=g: build_group(g)
                for specs in FAMILIES.values() for g, _a in specs}
_ORDER_CASES.update({
    "S7": lambda: symmetric(7), "A8": lambda: alternating(8),
    # several orbits, so the base key's digits have several radices
    "S4xA5": lambda: direct_product(symmetric(4), alternating(5)),
    "C2^4": lambda: direct_product(direct_product(cyclic(2), cyclic(2)),
                                   direct_product(cyclic(2), cyclic(2))),
    "D8xC9": lambda: direct_product(dihedral(8), cyclic(9)),
    "Aff(31)": lambda: affine_gl1(31)})
_ORACLES: dict[str, tuple[list, dict]] = {}


def _closed_with_oracle(case, monkeypatch) -> tuple[FiniteGroup, dict]:
    """The group of `case` and its reference closure, computed once."""
    G, gens = _with_generators(_ORDER_CASES[case], monkeypatch)
    if case not in _ORACLES:
        _ORACLES[case] = (gens, _oracle_closure(gens))
    assert gens == _ORACLES[case][0]
    return G, _ORACLES[case][1]


def _assert_closure(G: FiniteGroup, want: dict) -> None:
    for attr, value in want.items():
        assert np.array_equal(np.asarray(getattr(G, attr)), value), attr
    assert G.order == len(want["images"])


@pytest.mark.parametrize("case", sorted(_ORDER_CASES))
def test_element_order_matches_reference_closure(case, monkeypatch):
    _assert_closure(*_closed_with_oracle(case, monkeypatch))


# the level from which the closure runs in numpy: the default, the first
# level, or none
_SWITCHES = {"default": groups._NUMPY_LEVEL, "numpy": 1, "byte keys": math.inf}


@pytest.mark.parametrize("switch", ["numpy", "byte keys"])
@pytest.mark.parametrize("case", sorted(_ORDER_CASES))
def test_each_closure_path_matches_reference_closure(case, switch,
                                                      monkeypatch):
    # every case closed by one path alone, from the first level
    monkeypatch.setattr(groups, "_NUMPY_LEVEL", _SWITCHES[switch])
    _assert_closure(*_closed_with_oracle(case, monkeypatch))


@pytest.mark.parametrize("bound", [8, 100, 4096])
@pytest.mark.parametrize("switch", ["default", "numpy"])
@pytest.mark.parametrize("case", ["S7", "A8", "S4xA5"])
def test_closure_hands_back_to_byte_keys_past_the_key_table_bound(
        case, switch, bound, monkeypatch):
    # S7, A8 and S4xA5 need 6 base points, for 7^6, 8^6 and 4^3 * 5^3
    # table entries, so every bound here stops the numpy path and the dict
    # finishes the closure
    calls = []  # per closure, what each numpy level returned
    closure, level = groups._closure, groups._BaseKeys.level

    def closure_spy(*args):
        calls.append([])
        return closure(*args)

    def level_spy(self, prods, kept):
        calls[-1].append(level(self, prods, kept))
        return calls[-1][-1]

    monkeypatch.setattr(groups, "_closure", closure_spy)
    monkeypatch.setattr(groups._BaseKeys, "level", level_spy)
    monkeypatch.setattr(groups, "_KEY_TABLE_ENTRIES", bound)
    monkeypatch.setattr(groups, "_NUMPY_LEVEL", _SWITCHES[switch])
    _assert_closure(*_closed_with_oracle(case, monkeypatch))
    # the group's own closure handed back once, and never switched again
    assert calls[-1][-1] is None and calls[-1].count(None) == 1


def _reference_orbit_positions(gens: np.ndarray) -> tuple[list, list]:
    """Each point's place in its orbit under the rows `gens`, and the
    orbit's size: the breadth-first walk the base key once ran itself,
    from each orbit's least point, the rows taken in order."""
    images = gens.T.tolist()
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
    return pos, size


@pytest.mark.parametrize("case", sorted(_ORDER_CASES))
def test_base_key_positions_match_reference_walk(case, monkeypatch):
    _G, gens = _with_generators(_ORDER_CASES[case], monkeypatch)
    rows = np.array(list(dict.fromkeys(g.images for g in gens)),
                    dtype=np.int32)
    base = groups._BaseKeys(rows)
    assert (base._pos.tolist(), base._size) == \
        _reference_orbit_positions(rows)


# the pairs with and without a table, and S7, tableless at the default caps
_GEN_ROW_GROUPS = {f"{name} {kind}": G for name, pair in _PAIRS.items()
                   for kind, G in zip(("tabled", "tableless"), pair)}
_GEN_ROW_GROUPS["S7"] = symmetric(7)


@pytest.mark.parametrize("case", sorted(_GEN_ROW_GROUPS))
def test_generator_rows_match_lookup(case):
    G = _GEN_ROW_GROUPS[case]
    for s, g in enumerate(G.generator_indices):
        want = G._lookup(G.images[g][G.images])
        assert np.array_equal(G._gen_rows[s], want), (s, g)
        assert np.array_equal(G.mul_row(g), want), (s, g)


def test_lookup_index_and_inverses_built_on_first_use():
    G = symmetric(4)
    assert not {"_key_index", "inv_table"} & set(vars(G))
    assert G.element_index(from_cycles(4, [(0, 1)])) == G.generator_indices[0]
    assert "_key_index" in vars(G)
    # under _KEY_TABLE_ENTRIES no byte keys are built
    assert not {"_key_order", "_keys"} & set(vars(G))
    assert "inv_table" not in vars(G)
    assert all(G.mul(g, int(G.inv_table[g])) == 0 for g in range(G.order))
    # the inverse table itself looks nothing up
    H = symmetric(4)
    H.inv_table
    assert "_key_index" not in vars(H)
    # A8 closes in numpy: it keeps the closure's base, without its table
    A8 = alternating(8)
    assert "_key_index" not in vars(A8)
    assert A8._base is not None and A8._base._table is None


# -- lookups and products: the byte-key oracle -----------------------------------


def _oracle_lookup(G: FiniteGroup, rows) -> np.ndarray:
    """Element indices of image rows found by their bytes: the rows, as
    fixed-width byte strings, sorted and searched with np.searchsorted;
    DomainError names the first non-element."""
    key = np.dtype((np.void, 4 * G.degree))
    order = np.argsort(G.images.view(key)[:, 0]).astype(np.int32)
    keys = G.images.view(key)[:, 0][order]
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    if rows.shape[-1] == G.degree:
        want = rows.view(key)[..., 0]
        pos = np.minimum(np.searchsorted(keys, want), G.order - 1)
        found = keys[pos] == want
        if found.all():
            return order[pos]
        rows = rows[~found]
    bad = Permutation(tuple(rows.reshape(-1, rows.shape[-1])[0].tolist()))
    raise DomainError(f"{bad} is not an element of {G.name}")


def _oracle_products(G: FiniteGroup, a, b) -> np.ndarray:
    """a[i] * b[j] from the composed image rows, found by their bytes."""
    return _oracle_lookup(G, np.take(G.images[a], G.images[b], axis=1))


def _outcome(lookup, rows):
    """The indices `lookup` finds for `rows`, or its DomainError's text."""
    try:
        return lookup(rows).tolist()
    except DomainError as e:
        return str(e)


# the base key, and the byte-key search the lookups keep past the bound
_KEY_BOUNDS = {"base keys": groups._KEY_TABLE_ENTRIES, "byte keys": 8}


@pytest.mark.parametrize("keys", sorted(_KEY_BOUNDS))
@pytest.mark.parametrize("tables", ["default caps", "no mul table"])
@pytest.mark.parametrize("case", sorted(_ORDER_CASES))
def test_lookups_and_products_match_byte_key_oracle(case, tables, keys,
                                                    monkeypatch):
    monkeypatch.setattr(groups, "_KEY_TABLE_ENTRIES", _KEY_BOUNDS[keys])
    caps = {"MAX_MUL_TABLE_ENTRIES": 1} if tables == "no mul table" else {}
    with config.overrides(caps):
        G = _ORDER_CASES[case]()
    if keys == "byte keys" and G.order > 8:  # a table holds every element
        assert G._key_index is None
    rng = np.random.default_rng(G.order)
    every = rng.permutation(G.order)
    assert np.array_equal(G._lookup(G.images[every]), every)
    assert np.array_equal(_oracle_lookup(G, G.images[every]), every)
    a = rng.integers(0, G.order, min(G.order, 40))
    b = rng.integers(0, G.order, min(G.order, 300))
    assert np.array_equal(G._products(a, b), _oracle_products(G, a, b))
    for g in a[:3].tolist():
        assert np.array_equal(G.mul_row(g), _oracle_products(
            G, [g], np.arange(G.order))[0])
    # permutations drawn at random, most of them no element; and a row of
    # the wrong degree
    drawn = rng.permuted(np.tile(np.arange(G.degree), (20, 1)), axis=1)
    for rows in [*drawn[:, None], drawn, np.arange(G.degree + 1)[None]]:
        assert _outcome(G._lookup, rows) == _outcome(
            partial(_oracle_lookup, G), rows)


@pytest.mark.parametrize("keys", sorted(_KEY_BOUNDS))
@pytest.mark.parametrize("case", ["A8", "S4xA5", "C2^4", "D8xC9"])
def test_lookup_compares_rows_that_share_an_elements_base_images(
        case, keys, monkeypatch):
    # a row that agrees with an element on the base points but swaps the
    # images of two other points: its key names that element, and only
    # the comparison of rows finds that it is no element
    G = _ORDER_CASES[case]()
    base = groups._BaseKeys(G.images.take(G.generator_indices, axis=0))
    assert base._index(G.images)
    monkeypatch.setattr(groups, "_KEY_TABLE_ENTRIES", _KEY_BOUNDS[keys])
    G = _ORDER_CASES[case]()
    assert (G._key_index is None) == (keys == "byte keys")
    x, y = sorted(set(range(G.degree)) - set(base.points))[:2]
    for g in range(G.order):
        row = G.images[g].copy()
        row[[x, y]] = row[[y, x]]
        text = _outcome(partial(_oracle_lookup, G), row[None])
        if isinstance(text, str):
            break
    else:
        pytest.fail("no such row")
    assert base.find(row[None]).tolist() == [g]
    assert text == f"{Permutation(tuple(row.tolist()))} is not an element " \
        f"of {G.name}"
    assert _outcome(G._lookup, row[None]) == text
    assert _outcome(G._lookup, np.vstack([G.images[:3], row])) == text
    with pytest.raises(DomainError, match="is not an element"):
        G.element_index(Permutation(tuple(row.tolist())))


def test_first_lookup_peak_memory():
    # A8's first lookup tables its elements on the closure's base: 8^6
    # int32 entries, 1.63 times its image rows; the lookup peaked at 2.16
    # times them
    G = alternating(8)
    tracemalloc.start()
    try:
        G.element_index(from_cycles(8, [(0, 1, 2)]))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * G.images.nbytes


_INVERSE_CASES = {
    "S1": lambda: symmetric(1),  # its one generator is the identity
    "e, (0 1 2), (0 1)": lambda: from_generators([
        identity(4), from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(0, 1)])]),
    **{f"C{n}": lambda n=n: cyclic(n) for n in (1, 2, 7, 12, 60)},
    **{f"D{n}": lambda n=n: dihedral(n) for n in (3, 4, 9)},
    **{f"S{n}": lambda n=n: symmetric(n) for n in (4, 5, 6, 7)},
    **{f"A{n}": lambda n=n: alternating(n) for n in (4, 5, 6, 7, 8)},
    **{f"Aff({p})": lambda p=p: affine_gl1(p) for p in (2, 5, 7)},
    "C3xC4": lambda: direct_product(cyclic(3), cyclic(4)),
    "S3xC2": lambda: direct_product(symmetric(3), cyclic(2)),
    "D4xA4": lambda: direct_product(dihedral(4), alternating(4)),
}


@pytest.mark.parametrize("tables", ["default caps", "no mul table"])
@pytest.mark.parametrize("case", sorted(_INVERSE_CASES))
def test_inverse_table_matches_lookup_of_inverted_rows(case, tables):
    caps = {"MAX_MUL_TABLE_ENTRIES": 1} if tables == "no mul table" else {}
    with config.overrides(caps):
        G = _INVERSE_CASES[case]()
    assert np.array_equal(G.inv_table,
                          G._lookup(np.argsort(G.images, axis=1)))


def test_from_generators_rejects_mixed_degrees():
    with pytest.raises(Exception):
        from_generators([identity(3), identity(4)])


# -- subset algebra ------------------------------------------------------------


def test_product_set_oracle():
    G = symmetric(3)
    A, B = (1, 2), (0, 3, 4)
    brute = frozenset(G.mul(a, b) for a in A for b in B)
    assert G.product_set(A, B) == brute


@settings(max_examples=40)
@given(st.data())
def test_product_set_random(data):
    G = dihedral(4)
    A = data.draw(st.sets(st.integers(0, G.order - 1), min_size=1, max_size=5))
    B = data.draw(st.sets(st.integers(0, G.order - 1), min_size=1, max_size=5))
    brute = frozenset(G.mul(a, b) for a in A for b in B)
    assert G.product_set(A, B) == brute


def test_inverse_set():
    G = symmetric(4)
    A = (3, 7, 11)
    assert G.inverse_set(A) == frozenset(int(G.inv_table[a]) for a in A)


def test_translate_set_is_left_translation():
    G = symmetric(3)
    A = (1, 4)
    g = 2
    assert G.translate_set(g, A) == frozenset(G.mul(g, a) for a in A)


def test_tableless_build_matches_tabled(monkeypatch):
    # blocks of a few rows, so that products span several lookups
    monkeypatch.setattr(groups, "_PRODUCT_BLOCK", 500)
    for name, (T, U) in _PAIRS.items():
        ar = np.arange(T.order)
        assert np.array_equal(U._products(ar, ar), T.mul_table), name
        assert np.array_equal(T.images, U.images), name
        assert np.array_equal(T.inv_table, U.inv_table), name
        assert T.generator_indices == U.generator_indices, name
        for g in range(T.order):
            assert np.array_equal(T.mul_row(g), U.mul_row(g)), (name, g)
        assert np.array_equal(conjugation_action(T).table,
                              conjugation_action(U).table), name


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tableless_set_algebra_matches_tabled(data):
    T, U = _PAIRS[data.draw(st.sampled_from(sorted(_PAIRS)))]
    subset = st.sets(st.integers(0, T.order - 1), min_size=1, max_size=6)
    A, B = data.draw(subset), data.draw(subset)
    g = data.draw(st.integers(0, T.order - 1))
    assert T.product_set(A, B) == U.product_set(A, B) == \
        frozenset(T.mul(a, b) for a in A for b in B)
    assert T.generated_set(A) == U.generated_set(A)
    assert T.translate_set(g, A) == U.translate_set(g, A)
    members = frozenset(A) | T.inverse_set(A) | {0}
    closed = T.generated_set(A) == members
    for G in (T, U):
        if closed:
            assert Subgroup(G, members).order == len(members)
        else:
            with pytest.raises(InvariantError):
                Subgroup(G, members)


def test_element_range_checked():
    G = symmetric(3)
    with pytest.raises(DomainError):
        G.product_set((0, 6), (0,))
    with pytest.raises(DomainError):
        G.inverse_set((-1,))


# -- generated and enumerated subgroups -----------------------------------------


def test_generated_set_is_closure():
    G = symmetric(4)
    transposition = G.element_index(from_cycles(4, [(0, 1)]))
    cycle = G.element_index(from_cycles(4, [(0, 1, 2, 3)]))
    assert len(G.generated_set([transposition, cycle])) == 24
    assert G.generated_set([G.identity_index]) == frozenset({0})


def test_generated_subgroup_properties():
    G = symmetric(4)
    r = G.element_index(from_cycles(4, [(0, 1, 2)]))
    H = G.generated_subgroup([r])
    assert H.order == 3
    assert G.identity_index in H.members
    members = sorted(H.members)
    for a in members:
        for b in members:
            assert G.mul(a, b) in H.members


def test_subgroup_counts():
    # S3: 1 trivial, 3 of order 2, 1 of order 3, S3 itself.
    assert len(symmetric(3).subgroups()) == 6
    # C6: one per divisor of 6
    assert len(cyclic(6).subgroups()) == 4
    # Klein four group: trivial + 3 + itself
    assert len(direct_product(cyclic(2), cyclic(2)).subgroups()) == 5


def _oracle_subgroups(G: FiniteGroup) -> list[tuple[int, tuple[int, ...]]]:
    """Every subgroup as (order, member tuple), sorted, by the plain
    lattice search: every subgroup found, not one per conjugacy class, is
    extended by one element g of each double coset HgH outside it, and
    <H, g> is closed breadth-first by generated_set."""
    seen = {frozenset({0})}
    queue = [frozenset({0})]
    while queue:
        H = queue.pop()
        harr = np.array(sorted(H), dtype=np.int64)
        covered = np.zeros(G.order, dtype=bool)
        covered[harr] = True
        for g in range(G.order):
            if covered[g]:
                continue
            gH = G._products([g], harr)[0]
            covered[G._products(harr, gH)] = True
            K = G.generated_set(list(H) + [g])
            if K not in seen:
                seen.add(K)
                queue.append(K)
    return sorted((len(K), tuple(sorted(K))) for K in seen)


def _lattice(G: FiniteGroup) -> list[tuple[int, tuple[int, ...]]]:
    return [(H.order, H.member_tuple) for H in G.subgroups()]


def _conjugacy_class(G: FiniteGroup, members) -> tuple[int, ...]:
    """The least member tuple among the conjugates of a subgroup, the same
    for every subgroup of one class."""
    conj = conjugation_action(G).table[:, sorted(members)]
    return min(map(tuple, np.sort(conj, axis=1).tolist()))


_SMALL = st.one_of(st.integers(2, 4).map(lambda n: partial(cyclic, n)),
                   st.sampled_from([partial(dihedral, 3),
                                    partial(dihedral, 4)]))
_LATTICE_GROUPS = st.one_of(
    st.integers(2, 16).map(lambda n: partial(cyclic, n)),
    st.integers(3, 10).map(lambda n: partial(dihedral, n)),
    st.sampled_from([partial(symmetric, 4), partial(alternating, 4),
                     partial(affine_gl1, 5), partial(affine_gl1, 7)]),
    st.tuples(_SMALL, _SMALL).map(
        lambda ab: lambda: direct_product(ab[0](), ab[1]())))


@settings(max_examples=40, deadline=None)
@given(_LATTICE_GROUPS, st.booleans())
def test_subgroups_match_the_oracle(build, tables):
    G = (_tabled if tables else _tableless)(build)
    assert _lattice(G) == _oracle_subgroups(G)


@pytest.mark.parametrize("tables", [True, False])
def test_each_extension_is_closed_coset_by_coset(tables, monkeypatch):
    # one representative per right coset of H in K = <H, g>: marking r s
    # alone, not its coset H r s, reaches every element too, but walks
    # |K| - |H| + 1 representatives
    G = (_tabled if tables else _tableless)(partial(symmetric, 4))
    real, walks = FiniteGroup._coset_closure, []

    def closure(self, right, member, gens):
        h = int(member.sum())
        reps = real(self, right, member, gens)
        walks.append((len(reps), h, int(member.sum())))
        assert set(right[reps].ravel().tolist()) == \
            set(np.flatnonzero(member).tolist())
        return reps

    monkeypatch.setattr(FiniteGroup, "_coset_closure", closure)
    assert _lattice(G) == _oracle_subgroups(G)
    assert all(reps * h == k for reps, h, k in walks)
    assert any(1 < h < k for _reps, h, k in walks)


_NAMED = {"S4": partial(symmetric, 4), "A5": partial(alternating, 5),
          "S5": partial(symmetric, 5), "S6": partial(symmetric, 6),
          "D6": partial(dihedral, 6), "Aff(5)": partial(affine_gl1, 5),
          "C2xD4": lambda: direct_product(cyclic(2), dihedral(4))}


@pytest.mark.parametrize("name,count", [
    ("S4", 30), ("A5", 59), ("S5", 156),
    ("S6", 1455)])  # S6 takes about 0.5 s
def test_subgroup_counts_at_the_default_caps(name, count):
    assert len(_tabled(_NAMED[name]).subgroups()) == count


@pytest.mark.parametrize("tables", [True, False])
@pytest.mark.parametrize("name", ["S4", "A5", "D6", "Aff(5)", "C2xD4"])
def test_one_subgroup_per_conjugacy_class_is_queued(name, tables,
                                                    monkeypatch):
    G = (_tabled if tables else _tableless)(_NAMED[name])
    want = _oracle_subgroups(G)
    # a subgroup's conjugates are marked when it is queued; the trivial
    # subgroup is queued first, without them
    real, queued = FiniteGroup._conjugates, []
    monkeypatch.setattr(FiniteGroup, "_conjugates",
                        lambda self, K: queued.append(K) or real(self, K))
    assert _lattice(G) == want
    monkeypatch.undo()  # _conjugacy_class reads _conjugates too
    classes = {_conjugacy_class(G, members) for _order, members in want}
    assert len(queued) + 1 == len(classes) < len(want)
    assert len({_conjugacy_class(G, K) for K in queued} | {(0,)}) \
        == len(classes)


def test_subgroup_orders_divide():
    G = dihedral(6)
    for H in G.subgroups():
        assert G.order % H.order == 0


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
def test_subgroup_check_in_product_blocks(block, monkeypatch):
    # the whole check in one block of products, or, past it, <S> grown
    # from generators in blocks of one or a few rows of products
    monkeypatch.setattr(groups, "_PRODUCT_BLOCK", block)
    G = symmetric(4)
    for H in G.subgroups():
        assert Subgroup(G, H.members).members == H.members
    # {e, (0 1), (2 3)} is inverse-closed but not product-closed
    bad = frozenset({0, G.element_index(from_cycles(4, [(0, 1)])),
                     G.element_index(from_cycles(4, [(2, 3)]))})
    with pytest.raises(InvariantError, match="set is not product-closed"):
        Subgroup(G, bad)


@pytest.mark.parametrize("build", [partial(symmetric, 4), partial(dihedral, 6),
                                   partial(cyclic, 12),
                                   partial(alternating, 4),
                                   lambda: direct_product(cyclic(2),
                                                          cyclic(6))])
def test_subgroup_check_by_generators_matches_every_product(build,
                                                            monkeypatch):
    # past one block of 4 products, every set of 3 or more members is
    # checked by growing <S> from generators; it must accept exactly the
    # sets closed under all products: the subgroups, and subgroups with a
    # member and its inverse taken out or put in
    G = build()
    subs = [H.members for H in G.subgroups()]
    monkeypatch.setattr(groups, "_PRODUCT_BLOCK", 4)
    inv = G.inv_table.tolist()
    candidates = set(subs)
    for H in subs:
        for g in range(1, G.order):
            candidates.add(frozenset(H ^ {g, inv[g]}))
    for S in candidates:
        closed = all(G.mul(a, b) in S for a in S for b in S)
        try:
            assert Subgroup(G, S).members == S
        except InvariantError as e:
            assert str(e) == "set is not product-closed"
            assert not closed
        else:
            assert closed


def test_subgroup_check_peak_memory_is_block_bounded():
    # the point stabilizer A7 inside A8, with no multiplication table:
    # all 2520^2 products in one array peaked at 33.5 MB, checking them in
    # blocks of _PRODUCT_BLOCK products at 13.2 MB, and growing <S> from
    # generators at 2.3 MB
    G = alternating(8)
    assert G.mul_table is None
    members = frozenset(np.flatnonzero(G.images[:, 7] == 7).tolist())
    tracemalloc.start()
    try:
        H = Subgroup(G, members)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.order == 2520
    assert peak < 20 * 2 ** 20


def test_left_cosets_partition():
    G = symmetric(4)
    H = G.generated_subgroup(
        [G.element_index(from_cycles(4, [(0, 1, 2)]))])
    dec = G.left_cosets(H)
    assert dec.index == 8
    seen = set()
    for rep in dec.representatives:
        coset = G.translate_set(rep, H.member_tuple)
        assert not (coset & seen)
        seen |= coset
    assert len(seen) == G.order
    for g in range(G.order):
        rep = dec.representatives[int(dec.rep_position[g])]
        assert g in G.translate_set(rep, H.member_tuple)


def test_dihedral_relations():
    n = 5
    G = dihedral(n)
    # some r of order n and s of order 2 with s r s = r^-1
    orders = {}
    for g in range(G.order):
        k, x = 1, g
        while x != G.identity_index:
            x = G.mul(x, g)
            k += 1
        orders[g] = k
    rs = [g for g, k in orders.items() if k == n]
    ss = [g for g, k in orders.items() if k == 2]
    assert rs and ss
    r, s = rs[0], ss[0]
    assert G.mul(G.mul(s, r), s) == int(G.inv_table[r])
