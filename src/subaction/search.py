"""Instance builders, the task table and counterexample search.

Holds the constructors that turn scenario spec dicts into live objects,
the table of scenario tasks (what each accepts and requires, and the
runner that executes it), both shared with the CLI runner, and the seeded
instance families the search subcommand streams through. Search is
resumable: instance i is drawn from a generator seeded with (seed, i)
alone, so a (seed, cursor) pair pins down the whole stream. Every drawn
instance runs as the task of its replay scenario, through the same runner
that `run` uses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import theorems
from .actions import (GroupAction, conjugation_action, coset_action,
                      left_translation_action, natural_action)
from .errors import (DomainError, InvariantError, ScenarioError,
                     StructuralError)
from .groups import (FiniteGroup, _orbits, affine_gl1, alternating, cyclic,
                     dihedral, direct_product, symmetric)
from .linalg import Representation, permutation_representation, \
    representation_from_generator_matrices
from .rationals import exact_fraction
from .setfuncs import (actor_growth, core_set, cut_function,
                       group_image_ratio, min_image_ratio, minimize_nonempty,
                       target_growth)

# -- builders ------------------------------------------------------------------


def build_group(spec: dict) -> FiniteGroup:
    kind = spec.get("kind")
    if kind == "symmetric":
        return symmetric(int(spec["n"]))
    if kind == "alternating":
        return alternating(int(spec["n"]))
    if kind == "cyclic":
        return cyclic(int(spec["n"]))
    if kind == "dihedral":
        return dihedral(int(spec["n"]))
    if kind == "affine_gl1":
        return affine_gl1(int(spec["p"]))
    if kind == "direct_product":
        return direct_product(build_group(spec["left"]),
                              build_group(spec["right"]))
    raise StructuralError(f"unknown group kind {kind!r}")


def build_action(group: FiniteGroup, spec: dict) -> GroupAction:
    kind = spec.get("kind")
    if kind == "natural":
        return natural_action(group)
    if kind == "left_translation":
        return left_translation_action(group)
    if kind == "conjugation":
        return conjugation_action(group)
    if kind == "coset":
        H = group.generated_subgroup([int(g) for g in spec["subgroup"]])
        return coset_action(group, H)
    raise StructuralError(f"unknown action kind {kind!r}")


def build_representation(group: FiniteGroup, action: GroupAction | None,
                         spec: dict) -> Representation:
    kind = spec.get("kind")
    if kind == "permutation":
        if action is None:
            raise StructuralError("permutation representation needs an action")
        return permutation_representation(action, int(spec["p"]))
    if kind == "matrices":
        try:
            return representation_from_generator_matrices(
                group, int(spec["p"]),
                [[[int(x) for x in row] for row in mat]
                 for mat in spec["generators"]])
        except InvariantError as e:
            # matrices that define no representation are invalid input
            raise DomainError(str(e)) from e
    if kind == "swap":
        if group.order != 2:
            raise StructuralError("swap representation needs a group of order 2")
        return representation_from_generator_matrices(
            group, int(spec["p"]), [[[0, 1], [1, 0]]])
    raise StructuralError(f"unknown representation kind {kind!r}")


def resolve_sets(G: FiniteGroup, sets_spec: dict) -> dict:
    """Sorted tuples by name: listed members, or the subgroup generated."""
    out = {}
    for name, val in sets_spec.items():
        if isinstance(val, dict):
            out[name] = tuple(sorted(G.generated_set(
                [int(g) for g in val["generate"]])))
        else:
            out[name] = tuple(sorted(set(int(x) for x in val)))
    return out


# -- the task table ------------------------------------------------------------


@dataclass
class Bindings:
    """What a scenario's tasks run against: the built action and
    representation, sets and subspaces by name, params and the seed;
    `symmetric_natural` says that the action is the natural action of a
    group of kind symmetric, which the kneser example then reuses."""

    action: GroupAction | None
    rep: Representation | None = None
    sets: dict = field(default_factory=dict)
    subspaces: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seed: int | None = None
    symmetric_natural: bool = False

    def on(self, task: dict) -> GroupAction | Representation:
        """The representation for a linear variant (the task gives W),
        else the action."""
        if "W" in task:
            if self.rep is None:
                raise ScenarioError(f"task {task['task']!r} needs a "
                                    f"representation")
            return self.rep
        if self.action is None:
            raise ScenarioError(f"task {task['task']!r} needs an action")
        return self.action

    def set(self, task: dict, key: str) -> tuple[int, ...]:
        return self.sets[task[key]]

    def target(self, task: dict):
        """Subspace W for a linear variant, else the set Y."""
        return self.subspaces[task["W"]] if "W" in task \
            else self.sets[task["Y"]]

    def param(self, task: dict, key: str, required: bool = True):
        """The task's value for `key`, else the scenario's params value."""
        value = task.get(key, self.params.get(key))
        if value is None and required:
            raise ScenarioError(f"task {task['task']!r}: missing parameter "
                                f"{key!r} (set it on the task or in params)")
        return value


class TaskSpec(NamedTuple):
    """A scenario task. `keys` are the keys it accepts besides "task";
    every key of `required` must be given; `either` is (alternatives,
    message): exactly one alternative group of keys must be given, in
    full. `run(bindings, task)` returns the CheckReport, or the raw result
    of a computation. Runners call the checkers as module attributes
    (`theorems.check_kneser`), so a wrapper put on the attribute sees the
    call."""

    keys: frozenset[str]
    required: tuple[str, ...]
    either: tuple[tuple[tuple[str, ...], ...], str] | None
    run: Callable[[Bindings, dict], object]


_Y_OR_W = ((("Y",), ("W",)), "needs a target Y or a subspace W")
_EXAMPLE_OR_AY = ((("A", "Y"), ("example",)),
                  "give either A and Y, or example")

# the set functions a minimize or core task names, with the set each reads
SET_FUNCTIONS = {"cut": None, "actor_growth": "Y", "target_growth": "A"}


def _kneser(b: Bindings, t: dict):
    if "example" not in t:
        return theorems.check_kneser(b.on(t), b.set(t, "A"), b.set(t, "Y"))
    action = b.on(t)
    n = action.domain_size
    if action.group.order != math.factorial(n):
        raise ScenarioError("kneser example needs the natural action of "
                            "the full symmetric group")
    k, ell = t["example"]["k"], t["example"]["ell"]
    if not 1 <= k <= ell < n:
        raise ScenarioError("kneser example needs 1 <= k <= ell < n")
    ex_action, A, Y, expected = theorems.kneser_example_instance(
        n, k, ell, action if b.symmetric_natural else None)
    report = theorems.check_kneser(ex_action, A, Y)
    return {"report": report, "expected": expected,
            "matches_expected": {key: report.details[key] == expected[key]
                                 for key in expected}}


def _set_function(b: Bindings, t: dict):
    fn = t["function"]
    action = b.on(t)
    if fn == "cut":
        return cut_function(action)
    if fn == "actor_growth":
        return actor_growth(action, b.set(t, "Y"), b.param(t, "lambda"))
    return target_growth(action, b.set(t, "A"), b.param(t, "lambda"))


TASKS: dict[str, TaskSpec] = {
    "kneser": TaskSpec(frozenset({"A", "Y", "example"}), (),
                       _EXAMPLE_OR_AY, _kneser),
    "murphy": TaskSpec(
        frozenset({"A", "Y", "W"}), ("A",), _Y_OR_W,
        lambda b, t: theorems.check_murphy(b.on(t), b.set(t, "A"),
                                           b.target(t))),
    "small_growth": TaskSpec(
        frozenset({"A", "Y", "W", "alpha"}), ("A",), _Y_OR_W,
        lambda b, t: theorems.check_small_growth(
            b.on(t), b.set(t, "A"), b.target(t), b.param(t, "alpha"))),
    "freiman": TaskSpec(
        frozenset({"A", "Y", "W", "alpha"}), ("A",), _Y_OR_W,
        lambda b, t: theorems.check_freiman(
            b.on(t), b.set(t, "A"), b.target(t), b.param(t, "alpha"))),
    "ruzsa": TaskSpec(
        frozenset({"A", "B", "Y"}), ("A", "B", "Y"), None,
        lambda b, t: theorems.check_ruzsa_triple(
            b.on(t), b.set(t, "A"), b.set(t, "B"), b.set(t, "Y"))),
    "hamidoune": TaskSpec(
        frozenset({"Y", "W", "lambda", "A0"}), (), _Y_OR_W,
        lambda b, t: theorems.check_hamidoune(
            b.on(t), b.target(t), b.param(t, "lambda"),
            b.set(t, "A0") if "A0" in t else None)),
    "petridis": TaskSpec(
        frozenset({"A", "Y", "W", "alpha"}), ("A",), _Y_OR_W,
        lambda b, t: theorems.find_petridis_witness(
            b.on(t), b.set(t, "A"), b.target(t), b.param(t, "alpha"),
            seed=b.seed)),
    "tao_doubling": TaskSpec(
        frozenset({"A", "Y", "epsilon"}), ("A", "Y"), None,
        lambda b, t: theorems.check_tao_small_doubling(
            b.on(t), b.set(t, "A"), b.set(t, "Y"), b.param(t, "epsilon"))),
    "taod": TaskSpec(
        frozenset({"A", "Y", "W", "alpha", "n_max"}), ("A",), _Y_OR_W,
        lambda b, t: theorems.find_taod_witness(
            b.on(t), b.set(t, "A"), b.target(t), b.param(t, "alpha"),
            n_max=b.param(t, "n_max", required=False) or 5, seed=b.seed)),
    "fragment_bounds": TaskSpec(
        frozenset({"A", "lambda", "mu_param"}), ("A",), None,
        lambda b, t: theorems.check_fragment_bounds(
            b.on(t), b.set(t, "A"), b.param(t, "lambda"),
            b.param(t, "mu_param", required=False))),
    "mu": TaskSpec(frozenset({"Y"}), ("Y",), None,
                   lambda b, t: min_image_ratio(b.on(t), b.set(t, "Y"))),
    "minimize": TaskSpec(
        frozenset({"function", "A", "Y", "lambda"}), ("function",), None,
        lambda b, t: minimize_nonempty(_set_function(b, t))),
    "core": TaskSpec(
        frozenset({"function", "A", "Y", "lambda"}), ("function",), None,
        lambda b, t: core_set(_set_function(b, t))),
    "orbits": TaskSpec(frozenset(), (), None,
                       lambda b, t: b.on(t).orbit_decomposition()),
    "profile": TaskSpec(frozenset(), (), None,
                        lambda b, t: b.on(t).profile()),
}


# -- families ------------------------------------------------------------------

# name -> list of (group spec, action spec); instances draw a pool entry
FAMILIES: dict[str, list[tuple[dict, dict]]] = {
    "symmetric_natural": [
        ({"kind": "symmetric", "n": n}, {"kind": "natural"})
        for n in range(2, 6)],
    "alternating_natural": [
        ({"kind": "alternating", "n": n}, {"kind": "natural"})
        for n in range(3, 6)],
    "dihedral_natural": [
        ({"kind": "dihedral", "n": n}, {"kind": "natural"})
        for n in range(3, 9)],
    "affine_natural": [
        ({"kind": "affine_gl1", "p": p}, {"kind": "natural"})
        for p in (5, 7)],
    "cyclic_translation": [
        ({"kind": "cyclic", "n": n}, {"kind": "left_translation"})
        for n in range(2, 13)],
    "abelian_translation": [
        ({"kind": "cyclic", "n": n}, {"kind": "left_translation"})
        for n in range(2, 11)] + [
        ({"kind": "direct_product",
          "left": {"kind": "cyclic", "n": m},
          "right": {"kind": "cyclic", "n": n}},
         {"kind": "left_translation"})
        for m in range(2, 5) for n in range(2, 5)],
    "symmetric_conjugation": [
        ({"kind": "symmetric", "n": n}, {"kind": "conjugation"})
        for n in (3, 4)],
}

PREDICATES = tuple(theorems.STATEMENT_IDS) + ("kneser_trivial_stabilizer",)

_ALPHA_GRID = ("1/4", "1/2", "3/4", "1")
_TAOD_ALPHA_GRID = ("1", "3/2", "2")
_EPS_GRID = ("1/4", "1/2", "1", "3/2")
_LAM_FACTORS = ("0", "1/4", "1/2", "3/4", "1")


@dataclass
class SearchRecord:
    cursor: int
    kind: str  # "finding" | "violation"
    scenario: dict
    report: theorems.CheckReport


@dataclass
class SearchResult:
    family: str
    predicate: str
    seed: int
    start_cursor: int
    next_cursor: int
    instances: int
    hypotheses_held: int
    findings: list[SearchRecord] = field(default_factory=list)
    violations: list[SearchRecord] = field(default_factory=list)


class _Pool:
    """A family's entries for one search: entry i is (action, group spec,
    action spec), its group and action built the first time it is
    drawn."""

    def __init__(self, family: str):
        if family not in FAMILIES:
            raise StructuralError(f"unknown family {family!r}")
        self.specs = FAMILIES[family]
        self.built: dict[int, tuple[GroupAction, dict, dict]] = {}

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, i: int) -> tuple[GroupAction, dict, dict]:
        if i not in self.built:
            gspec, aspec = self.specs[i]
            self.built[i] = (build_action(build_group(gspec), aspec),
                             gspec, aspec)
        return self.built[i]


def _subset(rng: random.Random, n: int, max_size: int) -> tuple[int, ...]:
    size = rng.randint(1, max(1, min(n, max_size)))
    return tuple(sorted(rng.sample(range(n), size)))


def _biased_actor(rng: random.Random, action: GroupAction) -> tuple[int, ...]:
    """Half the draws sit inside a subgroup with the identity adjoined,
    which keeps equality-style hypotheses reachable."""
    G = action.group
    if rng.random() < 0.5:
        gens = _subset(rng, G.order, 2)
        members = sorted(G.generated_set(gens))
        size = rng.randint(1, min(len(members), 8))
        picked = set(rng.sample(members, size))
        picked.add(0)
        return tuple(sorted(picked))
    return _subset(rng, G.order, 8)


def _orbit_union(rng: random.Random, action: GroupAction,
                 A: tuple[int, ...]) -> tuple[int, ...]:
    """Union of orbits of the subgroup generated by A, for equality cases;
    they are the orbits of the group that A's rows generate."""
    blocks = _orbits(action.table[list(A)])
    count = rng.randint(1, len(blocks))
    return tuple(sorted(x for blk in rng.sample(blocks, count) for x in blk))


def _draw(rng: random.Random, pool: _Pool, predicate: str
          ) -> tuple[GroupAction, dict]:
    """One instance: the action plus the scenario that replays it, whose
    one task holds the checker arguments under the scenario's keys."""
    action, gspec, aspec = pool[rng.randrange(len(pool))]
    G = action.group
    params: dict = {}
    if predicate in ("kneser", "kneser_trivial_stabilizer"):
        sets = {"A": _subset(rng, G.order, 8),
                "Y": _subset(rng, action.domain_size, 6)}
    elif predicate == "murphy":
        A = _biased_actor(rng, action)
        Y = _orbit_union(rng, action, A) if rng.random() < 0.5 \
            else _subset(rng, action.domain_size, 6)
        sets = {"A": A, "Y": Y}
    elif predicate in ("small_growth", "freiman", "petridis", "taod"):
        sets = {"A": _biased_actor(rng, action),
                "Y": _subset(rng, action.domain_size, 6)}
        params = {"alpha": rng.choice(
            _TAOD_ALPHA_GRID if predicate == "taod" else _ALPHA_GRID)}
    elif predicate == "ruzsa":
        sets = {"A": _subset(rng, G.order, 6),
                "B": _subset(rng, G.order, 6),
                "Y": _subset(rng, action.domain_size, 6)}
    elif predicate == "hamidoune":
        Y = _subset(rng, action.domain_size, 6)
        lam = group_image_ratio(action, Y) \
            * exact_fraction(rng.choice(_LAM_FACTORS))
        sets, params = {"Y": Y}, {"lambda": str(lam)}
        if rng.random() < 0.5:
            sets["A0"] = _subset(rng, G.order, 6)
    elif predicate == "tao_doubling":
        A = _biased_actor(rng, action)
        Y = _orbit_union(rng, action, A) if rng.random() < 0.5 \
            else _subset(rng, action.domain_size, 4)
        sets = {"A": A, "Y": Y}
        params = {"epsilon": rng.choice(_EPS_GRID)}
    elif predicate == "fragment_bounds":
        sets = {"A": _subset(rng, G.order, 6)}
        params = {"lambda": rng.choice(("0", "1/8", "1/4", "1/2", "3/4", "1")),
                  "mu_param": rng.choice(("1/2", "3/4", "1"))}
    else:
        raise StructuralError(f"unknown predicate {predicate!r}")
    task = {"task": "kneser" if predicate == "kneser_trivial_stabilizer"
            else predicate, **{key: key for key in sets}, **params}
    return action, {"group": gspec, "action": aspec,
                    "sets": {key: list(val) for key, val in sets.items()},
                    "tasks": [task]}


def _run_drawn(action: GroupAction, scenario: dict) -> theorems.CheckReport:
    """Run a drawn instance's task as `run` runs its replay scenario."""
    (task,) = scenario["tasks"]
    sets = resolve_sets(action.group, scenario["sets"])
    return TASKS[task["task"]].run(Bindings(action, sets=sets), task)


def search(family: str, predicate: str, budget: int, seed: int,
           start_cursor: int = 0) -> SearchResult:
    """Stream `budget` seeded instances, recording findings and violations.

    A finding satisfies the search predicate (for the kneser predicates:
    the inequality fails, optionally with trivial stabilizer). A violation
    is a hypotheses-true/conclusion-false outcome on any proved statement;
    those should never occur.
    """
    if predicate not in PREDICATES:
        raise StructuralError(f"unknown predicate {predicate!r}")
    if budget < 1:
        raise DomainError("budget must be positive")
    pool = _Pool(family)
    result = SearchResult(family=family, predicate=predicate, seed=seed,
                          start_cursor=start_cursor,
                          next_cursor=start_cursor + budget,
                          instances=0, hypotheses_held=0)
    for cursor in range(start_cursor, start_cursor + budget):
        rng = random.Random(f"{seed}:{cursor}")
        action, scenario = _draw(rng, pool, predicate)
        if predicate == "taod" and not action.group.is_abelian():
            continue
        result.instances += 1
        report = _run_drawn(action, scenario)
        if not report.hypotheses_hold:
            continue
        result.hypotheses_held += 1
        if report.conclusion_holds:
            continue
        record = SearchRecord(cursor=cursor, kind="finding",
                              scenario=scenario, report=report)
        if predicate == "kneser":
            result.findings.append(record)
        elif predicate == "kneser_trivial_stabilizer":
            if report.details["stabilizer_order"] == 1:
                result.findings.append(record)
        else:
            record.kind = "violation"
            result.violations.append(record)
    return result
