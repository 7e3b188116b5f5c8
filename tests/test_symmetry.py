"""G-symmetry as an oracle for hamidoune, tao_doubling, mu, petridis and
taod.

c_Y(A) = |A.Y| - lam|A| is G-invariant: for h in G,
(hAh^-1).(h.Y) = h.(A.Y), so moving the target Y to h.Y and the actor sets
A and A0 to hAh^-1 and hA0h^-1 keeps every size. The verdicts and every
scalar in the details must then be equal, and the least minimiser
containing e, unique by definition, must move to its conjugate. Unlike a
brute-force oracle this holds at every size, so it also checks the point
side and the cut of `actor_growth_cut` on S7 and A8 natural. petridis is
moved the same way, and taod by a relabelling of the domain, which keeps
every size of its target side; their witnesses are tie-broken by index,
so only their verdicts and scalar details must agree.
"""

import functools
import random

import numpy as np
import pytest

from subaction import setfuncs
from subaction.actions import GroupAction, natural_action
from subaction.groups import alternating, symmetric
from subaction.search import FAMILIES, _draw, _Pool
from subaction.setfuncs import group_image_ratio, min_image_ratio
from subaction.theorems import (check_hamidoune, check_tao_small_doubling,
                                find_petridis_witness, find_taod_witness)


def _conjugate(G, h, A):
    """h A h^-1 as a frozenset of element indices."""
    return G.product_set(G.translate_set(h, A), (int(G.inv_table[h]),))


def _moved(action, h, sets):
    """The drawn sets under h: Y to h.Y, every actor set to its conjugate."""
    return {key: sorted(action.act_point_set(h, val)) if key == "Y"
            else sorted(_conjugate(action.group, h, val))
            for key, val in sets.items()}


def _assert_same_verdict(rep, moved):
    assert moved.hypotheses_hold == rep.hypotheses_hold
    assert moved.conclusion_holds == rep.conclusion_holds
    assert moved.details == rep.details


def _check_hamidoune(action, h, sets, lam):
    rep = check_hamidoune(action, sets["Y"], lam, sets.get("A0"))
    moved = _moved(action, h, sets)
    rep_h = check_hamidoune(action, moved["Y"], lam, moved.get("A0"))
    _assert_same_verdict(rep, rep_h)
    G = action.group
    for key in ("subgroup", "set_stabilizer"):
        assert rep_h.witnesses[key].members == _conjugate(
            G, h, rep.witnesses[key].members)


def _check_tao_doubling(action, h, sets, eps):
    rep = check_tao_small_doubling(action, sets["A"], sets["Y"], eps)
    moved = _moved(action, h, sets)
    rep_h = check_tao_small_doubling(action, moved["A"], moved["Y"], eps)
    _assert_same_verdict(rep, rep_h)
    if rep.hypotheses_hold:
        H = rep.witnesses["subgroup"].members
        assert rep_h.witnesses["subgroup"].members == _conjugate(
            action.group, h, H)


def _check_mu(action, h, Y):
    # every route's value is mu; only dinkelbach's witness, the least
    # minimiser containing e, is fixed by definition rather than by a
    # lexicographic tie rule
    res = min_image_ratio(action, Y)
    res_h = min_image_ratio(action, action.act_point_set(h, Y))
    assert res_h.mu == res.mu
    assert {k: m["value"] for k, m in res_h.methods.items()} == \
        {k: m["value"] for k, m in res.methods.items()}
    assert res_h.methods["dinkelbach"]["witness"] == _conjugate(
        action.group, h, res.methods["dinkelbach"]["witness"])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_search_draws_are_g_symmetric(family):
    # 12 hamidoune draws per family, with mu of each draw's Y, and 60
    # tao_doubling draws (their hypotheses rarely hold), each moved by a
    # random h
    pool = _Pool(family)
    for cursor in range(60):
        rng = random.Random(f"symmetry:{family}:{cursor}")
        if cursor < 12:
            action, scenario = _draw(rng, pool, "hamidoune")
            h = rng.randrange(action.group.order)
            sets = scenario["sets"]
            _check_hamidoune(action, h, sets, scenario["tasks"][0]["lambda"])
            _check_mu(action, h, sets["Y"])
        action, scenario = _draw(rng, pool, "tao_doubling")
        h = rng.randrange(action.group.order)
        _check_tao_doubling(action, h, scenario["sets"],
                            scenario["tasks"][0]["epsilon"])


def _relabelled(action, perm):
    """The action whose point perm[x] plays the part of x."""
    perm = np.asarray(perm)
    table = np.empty_like(action.table)
    table[:, perm] = perm[action.table]
    return GroupAction(action.group, action.domain_size, table)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_petridis_and_taod_draws_are_symmetric(family):
    # 60 petridis draws per family, A and Y moved by a random h, and 60
    # taod draws on the Abelian entries, the domain relabelled; S4, S5, A5
    # and Aff(5) draws run the sampled for-all-C stream
    pool = _Pool(family)
    for cursor in range(60):
        rng = random.Random(f"symmetry:petridis:{family}:{cursor}")
        action, scenario = _draw(rng, pool, "petridis")
        h = rng.randrange(action.group.order)
        sets, alpha = scenario["sets"], scenario["tasks"][0]["alpha"]
        moved = _moved(action, h, sets)
        rep = find_petridis_witness(action, sets["A"], sets["Y"], alpha)
        rep_h = find_petridis_witness(action, moved["A"], moved["Y"], alpha)
        _assert_same_verdict(rep, rep_h)
        assert rep_h.exhaustiveness == rep.exhaustiveness

        action, scenario = _draw(rng, pool, "taod")
        if not action.group.is_abelian():
            continue
        perm = rng.sample(range(action.domain_size), action.domain_size)
        sets, alpha = scenario["sets"], scenario["tasks"][0]["alpha"]
        rep = find_taod_witness(action, sets["A"], sets["Y"], alpha)
        rep_p = find_taod_witness(_relabelled(action, perm), sets["A"],
                                  [perm[y] for y in sets["Y"]], alpha)
        _assert_same_verdict(rep, rep_p)
        assert rep_p.exhaustiveness == rep.exhaustiveness


@functools.cache
def _large(name):
    return natural_action({"s7": lambda: symmetric(7),
                           "a8": lambda: alternating(8)}[name]())


@pytest.mark.parametrize("name, route, draws", [
    ("s7", "point", 6), ("s7", "cut", 2), ("a8", "point", 4),
    ("a8", "cut", 1)])
def test_large_natural_actions_are_g_symmetric(name, route, draws,
                                               monkeypatch):
    # past every brute-force oracle: S7 (order 5040) and A8 (order 20160),
    # with actor_growth_cut forced through each of its routes
    monkeypatch.setattr(setfuncs, "_POINT_SIDE_WORK",
                        1 << 64 if route == "point" else -1)
    action = _large(name)
    G, d = action.group, action.domain_size
    rng = random.Random(f"symmetry:{name}:{route}")
    for _ in range(draws):
        Y = sorted(rng.sample(range(d), rng.randint(1, 4)))
        A0 = rng.sample(range(G.order), rng.randint(1, 6))
        h = rng.randrange(1, G.order)
        # below mu, where H is small: verifying a subgroup H takes |H|^2
        # products
        lam = group_image_ratio(action, Y) * rng.choice((1, 2)) / 4
        _check_hamidoune(action, h, {"Y": Y, "A0": A0}, lam)
        _check_mu(action, h, Y)
        # 2|Y| elements of G_Y: |A.Y| = |Y|, far above mu |Y| on these
        # groups, so tao's hypotheses fail, and must fail alike
        A = sorted(action.set_stabilizer(Y).members)[:2 * len(Y)]
        _check_tao_doubling(action, h, {"A": A, "Y": Y}, "1/2")
