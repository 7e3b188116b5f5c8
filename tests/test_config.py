"""Every capacity refusal goes through `config.require`, so the cap it
names is the cap it compared."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import subaction
from subaction import config
from subaction.actions import (GroupAction, conjugation_action, coset_action,
                               left_translation_action)
from subaction.errors import CapacityError
from subaction.groups import cyclic, symmetric
from subaction.linalg import (enumerate_subspaces, grassmannian,
                              permutation_representation,
                              representation_from_generator_matrices)
from subaction.perms import from_cycles
from subaction.setfuncs import minimize_nonempty, target_growth


def _refusals() -> dict:
    """Each refusal: (cap, the value it is lowered to, a build past it, the
    measured size the refusal reports). The inputs are built first, under
    the default caps."""
    C13, S4, S5 = cyclic(13), symmetric(4), symmetric(5)
    H = S4.generated_subgroup([S4.element_index(from_cycles(4, [(0, 1)]))])
    left10, left13 = (left_translation_action(cyclic(n)) for n in (10, 13))
    shift = [np.roll(np.eye(10, dtype=int), 1, axis=0)]
    growth = target_growth(left13, [0], 0)
    return {
        # 2 * 3 * ... * 8, the first partial product of 9! past the cap
        "symmetric": ("MAX_GROUP_ORDER", 20160, lambda: symmetric(9), 40320),
        "group_action": ("MAX_ACT_TABLE_ENTRIES", 168,
                         lambda: GroupAction(C13, 13, C13.images), 169),
        "left_translation": ("MAX_ACT_TABLE_ENTRIES", 575,
                             lambda: left_translation_action(S4), 576),
        "conjugation": ("MAX_ACT_TABLE_ENTRIES", 575,
                        lambda: conjugation_action(S4), 576),
        # S4 on the 12 cosets of an order-2 subgroup
        "coset": ("MAX_ACT_TABLE_ENTRIES", 287,
                  lambda: coset_action(S4, H), 288),
        # ten 10 x 10 matrices
        "permutation_representation": (
            "MAX_ACT_TABLE_ENTRIES", 999,
            lambda: permutation_representation(left10, 2), 1000),
        "generator_matrices": (
            "MAX_ACT_TABLE_ENTRIES", 999,
            lambda: representation_from_generator_matrices(
                left10.group, 2, shift), 1000),
        "subgroups": ("MAX_SUBGROUP_ENUM_ORDER", 119, S5.subgroups, 120),
        # the Gaussian binomial [4 choose 2]_2
        "grassmannian": ("MAX_SUBSPACE_COUNT", 34,
                         lambda: grassmannian(2, 4, 2), 35),
        # 1 + 15 + 35 + 15 + 1 subspaces of F_2^4
        "enumerate_subspaces": ("MAX_SUBSPACE_COUNT", 66,
                                lambda: enumerate_subspaces(2, 4), 67),
        "minimize_nonempty": ("MAX_EXHAUSTIVE_GROUND", 12,
                              lambda: minimize_nonempty(growth), 13),
    }


def _require_calls() -> set[tuple[str, int]]:
    """(file, line) of every `config.require` call in the package."""
    out = set()
    for path in Path(subaction.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    ast.unparse(node.func) == "config.require":
                out.add((str(path), node.lineno))
    return out


def test_every_refusal_names_the_cap_it_compared(monkeypatch):
    refusals, real, raised = _refusals(), config.require, set()

    def spy(name, measured, hint=""):
        try:
            real(name, measured, hint)
        except CapacityError:
            caller = sys._getframe(1)
            raised.add((caller.f_code.co_filename, caller.f_lineno))
            raise
    monkeypatch.setattr(config, "require", spy)
    for case, (name, value, build, measured) in refusals.items():
        with config.overrides({name: value}):
            with pytest.raises(CapacityError) as ei:
                build()
        err = ei.value
        assert (err.cap_name, err.cap_value, err.measured) == \
            (name, value, measured), case
        assert str(err).startswith(
            f"instance exceeds {name}={value} (measured {measured})"), case
    # a row for each call site
    assert raised == _require_calls()


def test_require_passes_at_the_cap_and_refuses_past_it():
    with config.overrides({"SAMPLE_COUNT": 5}):
        config.require("SAMPLE_COUNT", 5)
        with pytest.raises(CapacityError) as ei:
            config.require("SAMPLE_COUNT", 6, "a hint")
    assert str(ei.value) == \
        "instance exceeds SAMPLE_COUNT=5 (measured 6); a hint"
    with pytest.raises(KeyError):
        config.require("NO_SUCH_CAP", 1)
