"""Seeded instance streams: determinism, resumability, classification."""

import importlib
import json
import random
from collections import Counter

import numpy as np
import pytest

from subaction import config
from subaction.actions import GroupAction
from subaction.cli import (_search_report, main, parse_scenario, run_scenario,
                           to_jsonable)
from subaction.errors import StructuralError
from subaction.groups import FiniteGroup
from subaction.search import (FAMILIES, PREDICATES, _draw, _Pool, _run_drawn,
                              build_action, build_group,
                              build_representation, search)

# the package exports the function `search` under the module's name
search_module = importlib.import_module("subaction.search")


def test_families_and_predicates_declared():
    assert set(PREDICATES) >= set(
        ("kneser", "murphy", "ruzsa", "hamidoune", "taod",
         "kneser_trivial_stabilizer"))
    for family, pool in FAMILIES.items():
        assert pool, family


def test_build_group_kinds():
    assert build_group({"kind": "symmetric", "n": 3}).order == 6
    assert build_group({"kind": "alternating", "n": 4}).order == 12
    assert build_group({"kind": "cyclic", "n": 5}).order == 5
    assert build_group({"kind": "dihedral", "n": 4}).order == 8
    assert build_group({"kind": "affine_gl1", "p": 5}).order == 20
    G = build_group({"kind": "direct_product",
                     "left": {"kind": "cyclic", "n": 2},
                     "right": {"kind": "cyclic", "n": 3}})
    assert G.order == 6
    with pytest.raises(StructuralError):
        build_group({"kind": "sporadic"})


def test_build_action_kinds():
    G = build_group({"kind": "symmetric", "n": 3})
    assert build_action(G, {"kind": "natural"}).domain_size == 3
    assert build_action(G, {"kind": "left_translation"}).domain_size == 6
    assert build_action(G, {"kind": "conjugation"}).domain_size == 6
    coset = build_action(G, {"kind": "coset", "subgroup": [0, 1]})
    assert coset.domain_size == G.order // len(
        G.generated_subgroup([0, 1]).members)
    with pytest.raises(StructuralError):
        build_action(G, {"kind": "mystery"})


def test_build_representation_swap():
    G = build_group({"kind": "cyclic", "n": 2})
    rep = build_representation(G, None, {"kind": "swap", "p": 3})
    assert rep.dim == 2 and rep.p == 3


def test_every_family_builds():
    for family, pool in FAMILIES.items():
        gspec, aspec = pool[0]
        G = build_group(gspec)
        action = build_action(G, aspec)
        assert action.group.order == G.order


def test_search_deterministic():
    a = search("symmetric_natural", "kneser", 40, seed=7)
    b = search("symmetric_natural", "kneser", 40, seed=7)
    assert a.instances == b.instances
    assert [r.cursor for r in a.findings] == [r.cursor for r in b.findings]
    assert [r.scenario for r in a.findings] == [r.scenario for r in b.findings]


def test_search_seed_changes_stream():
    def stream(seed):
        pool = _Pool("symmetric_natural")
        out = []
        for cursor in range(10):
            rng = random.Random(f"{seed}:{cursor}")
            _action, scenario = _draw(rng, pool, "kneser")
            out.append(scenario)
        return out

    assert stream(1) != stream(2)
    assert stream(1) == stream(1)


def test_search_resume_exact():
    full = search("symmetric_natural", "kneser", 60, seed=7)
    head = search("symmetric_natural", "kneser", 30, seed=7)
    tail = search("symmetric_natural", "kneser", 30, seed=7,
                  start_cursor=head.next_cursor)
    assert head.next_cursor == 30
    assert tail.next_cursor == full.next_cursor == 60
    joined = [(r.cursor, r.scenario) for r in head.findings + tail.findings]
    assert joined == [(r.cursor, r.scenario) for r in full.findings]


def test_kneser_failures_are_findings_not_violations():
    res = search("symmetric_natural", "kneser", 150, seed=7)
    assert res.findings  # the stream does hit failing instances
    assert not res.violations
    for rec in res.findings:
        assert rec.kind == "finding"
        assert rec.report.conclusion_holds is False


def test_proved_statements_never_violated():
    for family, predicate, budget in (
            ("symmetric_natural", "ruzsa", 60),
            ("dihedral_natural", "murphy", 60),
            ("cyclic_translation", "small_growth", 60),
            ("abelian_translation", "taod", 40),
            ("affine_natural", "hamidoune", 30),
            ("symmetric_conjugation", "freiman", 40),
            ("cyclic_translation", "fragment_bounds", 40),
            ("dihedral_natural", "petridis", 30),
            ("cyclic_translation", "tao_doubling", 40),
    ):
        res = search(family, predicate, budget, seed=11)
        assert not res.violations, (family, predicate)
        assert res.instances == budget


def test_trivial_stabilizer_filter_empty_on_affine():
    # every proper nonempty subset of the affine line has a nontrivial
    # setwise stabilizer, so this search is provably empty
    res = search("affine_natural", "kneser_trivial_stabilizer", 80, seed=3)
    assert res.findings == []
    assert res.violations == []


def test_findings_replay_through_cli():
    # the first kneser findings, then cursor 0 of every family x predicate:
    # the report the search route computed equals, in full, the report
    # `run` gives for the instance's replay scenario
    res = search("symmetric_natural", "kneser", 150, seed=7)
    assert res.findings
    drawn = []
    for family in sorted(FAMILIES):
        pool = _Pool(family)
        for predicate in PREDICATES:
            action, scenario = _draw(random.Random("7:0"), pool, predicate)
            if predicate == "taod" and not action.group.is_abelian():
                continue  # search skips these draws
            drawn.append((scenario, _run_drawn(action, scenario)))
    assert len(drawn) == 73
    drawn += [(rec.scenario, rec.report) for rec in res.findings[:3]]
    for scenario, report in drawn:
        replayed = run_scenario(parse_scenario(json.dumps(scenario)))
        assert replayed["results"][0]["report"] == to_jsonable(report), \
            scenario


def test_unknown_family_and_predicate():
    with pytest.raises(StructuralError):
        search("no_such_family", "kneser", 5, seed=0)
    with pytest.raises(StructuralError):
        search("symmetric_natural", "no_such_predicate", 5, seed=0)


def test_one_instance_search_builds_one_group(monkeypatch):
    built = []
    build = search_module.build_group
    monkeypatch.setattr(search_module, "build_group",
                        lambda spec: built.append(spec) or build(spec))
    search("symmetric_natural", "kneser", 1, seed=7)
    assert built == [{"kind": "symmetric", "n": 2}]


def test_lazy_pool_draws_as_an_eager_pool():
    # an eagerly built list of the same entries, as the pool was before
    for family, specs in FAMILIES.items():
        lazy, eager = _Pool(family), [
            (build_action(build_group(g), a), g, a) for g, a in specs]
        for cursor in range(60):
            predicate = PREDICATES[cursor % len(PREDICATES)]
            got, want = (_draw(random.Random(f"53710:{cursor}"), pool,
                               predicate) for pool in (lazy, eager))
            assert got[1] == want[1], (family, cursor)
            assert np.array_equal(got[0].table, want[0].table)
        assert len(lazy.built) <= len(specs)


def _reference_orbit_union(rng, action, A):
    """The orbit union as drawn before the orbit walk: <A> closed by
    generated_set, then one act_set per orbit, in order of least point."""
    members = action.group.generated_set(A)
    seen: set[int] = set()
    blocks: list[frozenset[int]] = []
    for x in range(action.domain_size):
        if x not in seen:
            blocks.append(action.act_set(members, (x,)))
            seen |= blocks[-1]
    chosen: set[int] = set()
    for blk in rng.sample(blocks, rng.randint(1, len(blocks))):
        chosen |= blk
    return tuple(sorted(chosen))


@pytest.mark.parametrize("family,predicate", [
    ("abelian_translation", "murphy"),
    ("symmetric_conjugation", "tao_doubling")])
def test_orbit_union_walks_the_rows_and_keeps_the_stream(family, predicate,
                                                         monkeypatch):
    walk = search_module._orbit_union
    inside = [False]
    calls: Counter = Counter()  # (method, called inside the walk)
    for cls, name in ((FiniteGroup, "generated_set"),
                      (GroupAction, "act_set")):
        def counted(*args, _fn=getattr(cls, name), _name=name, **kwargs):
            calls[_name, inside[0]] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    unions = []

    def spy(rng, action, A):
        twin = random.Random()
        twin.setstate(rng.getstate())
        want = _reference_orbit_union(twin, action, A)
        inside[0] = True
        try:
            got = walk(rng, action, A)
        finally:
            inside[0] = False
        assert got == want and rng.getstate() == twin.getstate()
        unions.append(got)
        return got

    monkeypatch.setattr(search_module, "_orbit_union", _reference_orbit_union)
    want = _search_report(search(family, predicate, 30, seed=7), 0)
    monkeypatch.setattr(search_module, "_orbit_union", spy)
    assert _search_report(search(family, predicate, 30, seed=7), 0) == want
    assert unions and calls["act_set", False] > 0
    assert calls["generated_set", True] == calls["act_set", True] == 0


def test_group_order_cap_refuses_only_drawn_groups(capsys):
    # seed 7 draws S2, S2, S4, S4, then S5 (order 120) at cursor 4; only
    # the drawn groups are built, so the cap refuses only a window with S5
    argv = ["search", "--family", "symmetric_natural", "--predicate",
            "kneser", "--seed", "7", "--budget"]
    with config.overrides({"MAX_GROUP_ORDER": 24}):
        assert main(argv + ["4"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["instances"] == 4
        assert main(argv + ["5"]) == 3
    assert "MAX_GROUP_ORDER=24 (measured 120)" in capsys.readouterr().err
