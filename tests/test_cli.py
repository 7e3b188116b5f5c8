"""Scenario validation, report serialization, exit codes, determinism."""

import dataclasses
import io
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subaction import cli, config, groups, theorems
from subaction.actions import ActionProfile, OrbitDecomposition
from subaction.cli import (ScenarioError, main, parse_scenario, run_scenario,
                           to_jsonable)
from subaction.errors import StructuralError
from subaction.groups import Subgroup, symmetric
from subaction.linalg import Subspace
from subaction.rationals import format_fraction
from subaction.setfuncs import (CoreResult, Exhaustiveness,
                                MinimizationResult, MuResult)


def _minimal(**extra):
    sc = {"group": {"kind": "symmetric", "n": 3},
          "action": {"kind": "natural"},
          "sets": {"A": [0, 1], "Y": [0]},
          "tasks": [{"task": "kneser", "A": "A", "Y": "Y"}]}
    sc.update(extra)
    return sc


def _parse(sc):
    return parse_scenario(json.dumps(sc))


# -- validation --------------------------------------------------------------------


def test_minimal_scenario_parses():
    assert _parse(_minimal())["group"]["kind"] == "symmetric"


@pytest.mark.parametrize("mutate,fragment", [
    (lambda sc: sc.update(bogus=1), "unknown key 'bogus'"),
    (lambda sc: sc.pop("group"), "missing required key 'group'"),
    (lambda sc: sc.pop("tasks"), "missing required key 'tasks'"),
    (lambda sc: sc.update(group={"kind": "sporadic"}), "unknown kind"),
    (lambda sc: sc.update(group={"kind": "symmetric", "n": 3, "x": 1}),
     "scenario.group: unknown key 'x'"),
    (lambda sc: sc.update(tasks=[]), "nonempty list"),
    (lambda sc: sc.update(tasks=[{"task": "wat"}]), "unknown task 'wat'"),
    (lambda sc: sc.update(tasks=[{"task": "kneser", "A": "A", "Y": "Q"}]),
     "dangling set reference 'Q'"),
    (lambda sc: sc.update(tasks=[{"task": "kneser", "A": "A"}]),
     "give either A and Y, or example"),
    (lambda sc: sc.update(tasks=[{"task": "murphy", "A": "A"}]),
     "needs a target Y or a subspace W"),
    (lambda sc: sc.update(tasks=[{"task": "mu"}]),
     "missing required key 'Y'"),
    (lambda sc: sc.update(
        tasks=[{"task": "small_growth", "A": "A", "Y": "Y",
                "alpha": "1.5"}]), "not an exact rational"),
    (lambda sc: sc.update(params={"gamma": "1"}), "unknown key 'gamma'"),
    (lambda sc: sc.update(caps={"NOT_A_CAP": 4}), "unknown cap"),
    (lambda sc: sc.update(caps={"MAX_GROUP_ORDER": 0}),
     "positive integers"),
    (lambda sc: sc.update(seed="zero"), "expected an integer"),
    (lambda sc: sc.update(tasks=[{"task": "kneser",
                                  "example": {"k": True, "ell": 2}}]),
     "example.k: expected a positive integer"),
    (lambda sc: sc.update(sets={"A": []}), "nonempty list of integers"),
    (lambda sc: sc.update(
        subspaces={"W": [[1, 0]]}), "subspaces need a representation"),
    # every key a spec kind lists is required and of its type
    (lambda sc: sc.update(group={"kind": "symmetric"}),
     "scenario.group: missing required key 'n'"),
    (lambda sc: sc.update(group={"kind": "symmetric", "n": "abc"}),
     "scenario.group.n: expected an integer"),
    (lambda sc: sc.update(group={"kind": "symmetric", "n": True}),
     "scenario.group.n: expected an integer"),
    (lambda sc: sc.update(group={"kind": "affine_gl1", "p": [5]}),
     "scenario.group.p: expected an integer"),
    (lambda sc: sc.update(group={"kind": "direct_product",
                                 "left": {"kind": "cyclic", "n": 2}}),
     "scenario.group: missing required key 'right'"),
    (lambda sc: sc.update(group={"kind": "direct_product",
                                 "left": {"kind": "cyclic", "n": 2},
                                 "right": {"kind": "cyclic"}}),
     "scenario.group.right: missing required key 'n'"),
    (lambda sc: sc.update(group={"kind": ["symmetric"], "n": 3}),
     "unknown kind ['symmetric']"),
    (lambda sc: sc.update(action={"kind": "coset"}),
     "scenario.action: missing required key 'subgroup'"),
    (lambda sc: sc.update(action={"kind": "coset", "subgroup": []}),
     "scenario.action.subgroup: expected a nonempty list of integers"),
    (lambda sc: sc.update(representation={"kind": "swap"}),
     "scenario.representation: missing required key 'p'"),
    (lambda sc: sc.update(representation={"kind": "matrices", "p": 2,
                                          "generators": 5}),
     "generators: expected a nonempty list of square integer matrices"),
    (lambda sc: sc.update(representation={"kind": "matrices", "p": 2,
                                          "generators": [[[1, 0]]]}),
     "generators: expected a nonempty list of square integer matrices"),
    (lambda sc: sc.update(representation={
        "kind": "matrices", "p": 2,
        "generators": [[[0, 1], [1, 0]], [[1]]]}),
     "square integer matrices of one size"),
    (lambda sc: sc.update(tasks=[{"task": ["kneser"]}]), "unknown task"),
])
def test_validation_messages(mutate, fragment):
    sc = _minimal()
    mutate(sc)
    with pytest.raises(ScenarioError) as ei:
        _parse(sc)
    assert fragment in str(ei.value)


def test_float_rejected_everywhere():
    text = json.dumps(_minimal()).replace('[0, 1]', '[0, 1.0]')
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(text)
    assert "float" in str(ei.value)


def test_json_error_carries_position():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario('{"group": }')
    assert "line 1" in str(ei.value) and "column" in str(ei.value)


def test_both_set_and_subspace_rejected():
    sc = _minimal(representation={"kind": "swap", "p": 3},
                  subspaces={"W": [[1, 0]]})
    sc["tasks"] = [{"task": "murphy", "A": "A", "Y": "Y", "W": "W"}]
    with pytest.raises(ScenarioError) as ei:
        _parse(sc)
    assert "not both" in str(ei.value)


# -- serialization -----------------------------------------------------------------


def test_to_jsonable_fraction_and_sets():
    assert to_jsonable(Fraction(3, 4)) == "3/4"
    assert to_jsonable(Fraction(5)) == "5"
    assert to_jsonable(frozenset({3, 1, 2})) == [1, 2, 3]
    assert to_jsonable({"b": 2, 1: Fraction(1, 2)}) == {"b": 2, "1": "1/2"}
    with pytest.raises(TypeError):
        to_jsonable(0.5)


def test_to_jsonable_subgroup_and_subspace():
    G = symmetric(3)
    H = G.generated_subgroup([1])
    out = to_jsonable(H)
    assert out["order"] == len(out["members"]) == H.order
    W = Subspace.from_vectors(3, 2, [[1, 2]])
    out = to_jsonable(W)
    assert out == {"p": 3, "ambient_dim": 2, "dim": 1, "basis": [[1, 2]]}


def test_result_types_report_their_fields_but_the_unreported():
    sc = _minimal(group={"kind": "cyclic", "n": 6},
                  action={"kind": "left_translation"},
                  sets={"A": [0, 1], "Y": [0, 3]},
                  tasks=[{"task": "kneser", "A": "A", "Y": "Y"},
                         {"task": "minimize", "function": "actor_growth",
                          "Y": "Y", "lambda": "0"},
                         {"task": "core", "function": "actor_growth",
                          "Y": "Y", "lambda": "0"},
                         {"task": "mu", "Y": "Y"},
                         {"task": "orbits"}, {"task": "profile"}])
    report, minimized, core, mu, orbits, profile = run_scenario(
        _parse(sc))["results"]
    assert list(report["report"]) == [
        "statement_id", "hypotheses_hold", "conclusion_holds", "witnesses",
        "counterexample", "exhaustiveness", "details"]
    assert list(minimized["result"]) == [
        "label", "ground_size", "min_value", "fragment_count", "fragments",
        "fragments_truncated", "atoms", "atom_size"]
    assert list(core["result"]) == ["atoms", "union"]
    assert list(mu["result"]) == ["mu", "witness", "methods"]
    # orbit_of and the profile's kernel are unreported; the profile
    # reports the kernel's order in its place
    assert list(orbits["result"]) == ["representatives", "orbits", "count"]
    assert list(profile["result"]) == [
        "group_order", "domain_size", "orbit_sizes", "transitive", "faithful",
        "free", "kernel_order"]


def test_any_dataclass_result_is_written_by_its_reported_fields():
    @dataclasses.dataclass(frozen=True)
    class Result:
        size: int
        cache: dict = dataclasses.field(metadata={"reported": False})
        ratio: Fraction
        members: frozenset

    out = to_jsonable(Result(3, {"x": 0.5}, Fraction(2, 3),
                             frozenset({2, 0})))
    assert list(out.items()) == [("size", 3), ("ratio", "2/3"),
                                 ("members", [0, 2])]
    # a dataclass type is not a result
    with pytest.raises(TypeError):
        to_jsonable(Result)


def test_report_is_json_clean():
    report = run_scenario(_parse(_minimal()))
    text = json.dumps(report, sort_keys=True)
    assert json.loads(text) == json.loads(text)


def _oracle_to_jsonable(obj):
    """`to_jsonable` as an isinstance chain, without its exact-type fast
    paths."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, float):
        raise TypeError("refusing to serialize a float; use Fraction")
    if isinstance(obj, (frozenset, set)):
        return sorted(_oracle_to_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_oracle_to_jsonable(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [_oracle_to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _oracle_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Subgroup):
        return {"order": obj.order, "members": sorted(obj.members)}
    if isinstance(obj, Subspace):
        return {"p": obj.p, "ambient_dim": obj.ambient_dim, "dim": obj.dim,
                "basis": [list(r) for r in obj.rows]}
    if isinstance(obj, Exhaustiveness):
        return obj.to_json()
    if isinstance(obj, (theorems.CheckReport, MinimizationResult, CoreResult,
                        MuResult, OrbitDecomposition)):
        return {f.name: _oracle_to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.metadata.get("reported", True)}
    if isinstance(obj, ActionProfile):
        return {"group_order": obj.group_order,
                "domain_size": obj.domain_size,
                "orbit_sizes": _oracle_to_jsonable(obj.orbit_sizes),
                "transitive": obj.transitive, "faithful": obj.faithful,
                "free": obj.free, "kernel_order": len(obj.kernel)}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _same(a, b) -> bool:
    # json.dumps keeps key order and tells bools from ints
    return a == b and json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize("value", [
    frozenset(np.int64(x) for x in (5, -1, 3)),
    [True, 3, Fraction(1, 2), False, 0],
    tuple(np.int32(x) for x in (4, -2)),
    np.array([[1, 2], [3, 4]]),
    {1: [2, 3], "a": frozenset({True}), 2: (5, 4)},
    [frozenset(), [], (), {2, 1}, (7, 2**70)],
    frozenset({True, 2})])
def test_to_jsonable_matches_the_isinstance_chain(value):
    assert _same(to_jsonable(value), _oracle_to_jsonable(value))


def test_to_jsonable_matches_the_isinstance_chain_on_every_run_result(
        monkeypatch):
    seen, real = [], cli.to_jsonable
    monkeypatch.setattr(cli, "to_jsonable",
                        lambda obj: seen.append(obj) or real(obj))
    tasks = [
        {"task": "kneser"}, {"task": "murphy"},
        {"task": "small_growth", "alpha": "1/4"},
        {"task": "freiman", "alpha": "1"}, {"task": "ruzsa", "B": "B"},
        {"task": "petridis", "alpha": "2"},
        {"task": "tao_doubling", "epsilon": "1"},
        {"task": "taod", "alpha": "1"}]
    run_scenario(_parse({
        "group": {"kind": "cyclic", "n": 6},
        "action": {"kind": "left_translation"},
        "sets": {"A": [0, 1], "B": [1, 2], "Y": [0, 3]},
        "tasks": [{**t, "A": "A", "Y": "Y"} for t in tasks] + [
            {"task": "hamidoune", "Y": "Y", "lambda": "1/2"},
            {"task": "fragment_bounds", "A": "A", "lambda": "1/4",
             "mu_param": "1/2"},
            {"task": "minimize", "function": "actor_growth", "Y": "Y",
             "lambda": "0"},
            {"task": "core", "function": "cut"}, {"task": "mu", "Y": "Y"},
            {"task": "orbits"}, {"task": "profile"}]}))
    run_scenario(_parse({
        "group": {"kind": "cyclic", "n": 6},
        "action": {"kind": "left_translation"},
        "representation": {"kind": "permutation", "p": 3},
        "sets": {"A": [0, 4, 5]}, "subspaces": {"W": [[1, 0, 1, 0, 1, 0]]},
        "tasks": [{"task": "hamidoune", "W": "W", "lambda": "1/8"}] + [
            {**t, "A": "A", "W": "W"} for t in tasks
            if t["task"] in {"murphy", "small_growth", "freiman", "petridis",
                             "taod"}]}))
    run_scenario(_parse({"group": {"kind": "symmetric", "n": 4},
                         "action": {"kind": "natural"},
                         "tasks": [{"task": "kneser",
                                    "example": {"k": 1, "ell": 2}}]}))
    monkeypatch.undo()
    assert {type(x).__name__ for x in seen} >= {
        "CheckReport", "MinimizationResult", "CoreResult", "MuResult",
        "OrbitDecomposition", "ActionProfile", "Exhaustiveness", "Subspace",
        "dict", "frozenset", "list", "tuple", "Fraction", "bool", "int"}
    for obj in seen:
        assert _same(to_jsonable(obj), _oracle_to_jsonable(obj))


# -- the report writer against json.dumps ------------------------------------------


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_text = st.text() | st.text(
    alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600a')
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
            | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf,
                                              -0.0, 1e300]) | _text)
_documents = st.recursive(
    _scalars | st.lists(st.integers() | st.booleans()),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_text, kids, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_documents)
@example([3, True, -2**70, False])
@example({"b": 1, "a": {"d": [], "c": {}}, "": [[], {}]})
@example(["\u00e9\U0001f600", {"\"\\\x7f": "\x00\n"}])
def test_dump_writes_what_json_dumps_writes(doc):
    assert cli._dump(doc) == _canonical(doc)


def test_dump_of_a_minimize_report_at_the_fragment_list_cap():
    # all 65,535 nonempty subsets of C16 minimise
    report = run_scenario(_parse({
        "group": {"kind": "cyclic", "n": 16},
        "action": {"kind": "left_translation"}, "sets": {"A": [6]},
        "tasks": [{"task": "minimize", "function": "target_growth",
                   "A": "A", "lambda": "1"}]}))
    result = report["results"][0]["result"]
    assert result["fragment_count"] == 65535
    assert len(result["fragments"]) == config.cap("FRAGMENT_LIST_CAP")
    assert cli._dump(report) == _canonical(report)


def test_report_json_rewrites_run_and_search_reports_byte_for_byte(
        tmp_path, capsys):
    run_out, search_out = tmp_path / "run.json", tmp_path / "search.json"
    assert main(["run", _write(tmp_path, _minimal()),
                 "--out", str(run_out)]) == 0
    assert main(["search", "--family", "affine_natural", "--predicate",
                 "kneser", "--budget", "10", "--seed", "2",
                 "--out", str(search_out)]) == 0
    for path in (run_out, search_out):
        text = path.read_text()
        doc = json.loads(text)
        assert type(doc["elapsed_seconds"]) is float
        assert text == _canonical(doc)
        # the floats read back are written again as they were
        assert main(["report", "--format", "json", "--in", str(path)]) == 0
        assert capsys.readouterr().out == text


def test_report_json_writes_the_deepest_list_it_decodes(capsys,
                                                        monkeypatch):
    # the decoder stops at the interpreter's recursion limit, less the
    # frames already on the stack; the writer reaches as deep
    def report(depth):
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO("[" * depth + "]" * depth))
        return main(["report"])

    depth = sys.getrecursionlimit()
    while report(depth) == 2:
        assert "nested too deeply" in capsys.readouterr().err
        depth -= 1
    assert depth > sys.getrecursionlimit() - 100
    lines = ["  " * i + "[" for i in range(depth - 1)]
    assert capsys.readouterr().out == "\n".join(
        lines + ["  " * (depth - 1) + "[]"] + [
            line.replace("[", "]") for line in reversed(lines)]) + "\n"


# -- execution ---------------------------------------------------------------------


def test_run_scenario_kneser_example():
    sc = _parse({"group": {"kind": "symmetric", "n": 4},
                 "action": {"kind": "natural"},
                 "tasks": [{"task": "kneser",
                            "example": {"k": 1, "ell": 2}}]})
    report = run_scenario(sc)
    res = report["results"][0]
    assert res["report"]["conclusion_holds"] is False
    assert res["matches_expected"] == {
        "actor_size": True, "product_size": True, "stabilizer_order": True}
    assert res["expected"] == {
        "actor_size": 12, "product_size": 2, "stabilizer_order": 4}


@pytest.mark.parametrize("group,closures", [
    ({"kind": "symmetric", "n": 6}, 1),
    # S3 with other generators, so other element indices: the example
    # builds its own S3
    ({"kind": "dihedral", "n": 3}, 2)])
def test_kneser_example_reuses_only_the_scenarios_natural_sn(
        group, closures, monkeypatch):
    real, calls = groups._closure, []
    monkeypatch.setattr(groups, "_closure",
                        lambda *a: calls.append(1) or real(*a))
    sc = _parse({"group": group, "action": {"kind": "natural"},
                 "tasks": [{"task": "kneser",
                            "example": {"k": 1, "ell": 2}}]})
    res = run_scenario(sc)["results"][0]
    assert len(calls) == closures
    assert res["matches_expected"] == {
        "actor_size": True, "product_size": True, "stabilizer_order": True}


def test_run_scenario_generate_sets():
    sc = _parse({"group": {"kind": "cyclic", "n": 6},
                 "action": {"kind": "left_translation"},
                 "sets": {"H": {"generate": [2]}},
                 "tasks": [{"task": "murphy", "A": "H", "Y": "H"}]})
    report = run_scenario(sc)
    assert report["results"][0]["report"]["conclusion_holds"] is True
    assert report["scenario"]["sets"]["H"] == {"generate": [2]}


def test_run_scenario_params_fallback():
    sc = _parse({"group": {"kind": "cyclic", "n": 6},
                 "action": {"kind": "left_translation"},
                 "sets": {"A": [0, 1], "Y": [0, 1, 2, 3]},
                 "params": {"alpha": "1/4"},
                 "tasks": [{"task": "small_growth", "A": "A", "Y": "Y"}]})
    report = run_scenario(sc)
    assert report["results"][0]["report"]["hypotheses_hold"]


def test_linear_petridis_task_reports_the_scenario_seed():
    # order 15 is above PETRIDIS_EXHAUSTIVE_MAX_ORDER, so the check samples
    sc = _parse({"group": {"kind": "cyclic", "n": 15},
                 "action": {"kind": "left_translation"},
                 "representation": {"kind": "permutation", "p": 2},
                 "sets": {"A": [0, 1]},
                 "subspaces": {"W": [[1] + [0] * 14]},
                 "caps": {"SAMPLE_COUNT": 40},
                 "seed": 12345,
                 "tasks": [{"task": "petridis", "A": "A", "W": "W",
                            "alpha": "3"}]})
    exh = to_jsonable(run_scenario(sc)["results"][0]["report"])[
        "exhaustiveness"]
    assert exh == {"kind": "sampled", "samples": 40, "seed": 12345}


def test_run_scenario_missing_param():
    sc = _parse({"group": {"kind": "cyclic", "n": 6},
                 "action": {"kind": "left_translation"},
                 "sets": {"A": [0, 1], "Y": [0]},
                 "tasks": [{"task": "small_growth", "A": "A", "Y": "Y"}]})
    with pytest.raises(ScenarioError) as ei:
        run_scenario(sc)
    assert "missing parameter 'alpha'" in str(ei.value)


def test_caps_override_scoped_to_run(monkeypatch):
    for name in list(os.environ):
        if name.startswith("SUBACTION_"):
            monkeypatch.delenv(name)
    real = theorems.check_kneser
    seen = []

    def recording(*args):
        seen.append(([k for k in os.environ if k.startswith("SUBACTION_")],
                     config.cap("MAX_GROUP_ORDER")))
        return real(*args)

    monkeypatch.setattr(theorems, "check_kneser", recording)
    sc = _parse(_minimal(caps={"MAX_GROUP_ORDER": 5000}))
    report = run_scenario(sc)
    assert report["caps"]["MAX_GROUP_ORDER"] == 5000
    assert seen == [([], 5000)]  # the cap applies, the environment is clean
    assert "SUBACTION_MAX_GROUP_ORDER" not in os.environ


def test_elapsed_is_only_nondeterminism():
    sc = _parse(_minimal())
    a, b = run_scenario(sc), run_scenario(sc)
    a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- exit codes -------------------------------------------------------------------


def _write(tmp_path, doc):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_exit_0_on_findings(tmp_path, capsys):
    path = _write(tmp_path, {
        "group": {"kind": "symmetric", "n": 4},
        "action": {"kind": "natural"},
        "tasks": [{"task": "kneser", "example": {"k": 1, "ell": 2}}]})
    assert main(["run", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"][0]["report"]["conclusion_holds"] is False


def test_exit_1_on_violation(tmp_path, capsys, monkeypatch):
    # force a fabricated violation to exercise the exit path
    real = theorems.check_murphy

    def broken(obj, A, Y):
        rep = real(obj, A, Y)
        return theorems.CheckReport(
            statement_id=rep.statement_id, hypotheses_hold=True,
            conclusion_holds=False, witnesses={}, counterexample={},
            exhaustiveness=rep.exhaustiveness, details={})

    monkeypatch.setattr(theorems, "check_murphy", broken)
    path = _write(tmp_path, {
        "group": {"kind": "cyclic", "n": 4},
        "action": {"kind": "left_translation"},
        "sets": {"A": [0, 2], "Y": [0, 2]},
        "tasks": [{"task": "murphy", "A": "A", "Y": "Y"}]})
    assert main(["run", path]) == 1


def test_exit_2_on_validation(tmp_path, capsys):
    path = _write(tmp_path, {"group": {"kind": "wat"}, "tasks": []})
    assert main(["run", path]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_exit_2_on_malformed_spec_key(tmp_path, capsys):
    # a malformed group parameter is a usage error, not a traceback
    path = _write(tmp_path, dict(_minimal(), group={"kind": "symmetric",
                                                    "n": "abc"}))
    assert main(["run", path]) == 2
    assert "scenario.group.n: expected an integer" in capsys.readouterr().err


def test_exit_2_on_missing_file(capsys):
    assert main(["run", "/nonexistent/path.json"]) == 2


def test_exit_2_on_domain_error(tmp_path, capsys):
    path = _write(tmp_path, {
        "group": {"kind": "symmetric", "n": 4},
        "action": {"kind": "natural"},
        "sets": {"Y": [0]},
        "tasks": [{"task": "hamidoune", "Y": "Y", "lambda": "1/2"}]})
    assert main(["run", path]) == 2
    assert "lambda must lie in" in capsys.readouterr().err
    # generator matrices that define no representation are invalid input:
    # order 5, not 3; singular
    for n, p, gen, message in [
            (3, 5, [[1, 1], [0, 1]], "homomorphism law fails at generator 1"),
            (2, 3, [[1, 1], [1, 1]], "matrix for element 1 is singular")]:
        path = _write(tmp_path, {
            "group": {"kind": "cyclic", "n": n},
            "representation": {"kind": "matrices", "p": p,
                               "generators": [gen]},
            "tasks": [{"task": "profile"}]})
        assert main(["run", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_linear_hamidoune_refuses_a0(tmp_path, capsys):
    # the corollary on A0 is stated for actions; a representation must not
    # skip it silently
    path = _write(tmp_path, {
        "group": {"kind": "cyclic", "n": 4},
        "action": {"kind": "left_translation"},
        "representation": {"kind": "permutation", "p": 2},
        "sets": {"A0": [0, 1]},
        "subspaces": {"W": [[1, 0, 0, 0]]},
        "tasks": [{"task": "hamidoune", "W": "W", "A0": "A0",
                   "lambda": "1/4"}]})
    assert main(["run", path]) == 2
    assert "A0" in capsys.readouterr().err


def test_linear_hamidoune_lambda_above_mu_exits_2_past_the_fold_cap(
        tmp_path, capsys, monkeypatch):
    # mu = dim(G.W) / |G| = 1 on the F_2 permutation representation of
    # C20 is known without a fold, so lambda = 2 is out of range, found
    # before any fold is built, not a LINEAR_EXHAUSTIVE_MAX_ORDER refusal
    monkeypatch.setattr(theorems._Target, "fold", None)
    path = _write(tmp_path, {
        "group": {"kind": "cyclic", "n": 20},
        "action": {"kind": "left_translation"},
        "representation": {"kind": "permutation", "p": 2},
        "subspaces": {"W": [[1] + [0] * 19]},
        "tasks": [{"task": "hamidoune", "W": "W", "lambda": "2"}]})
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == \
        "error: lambda must lie in [0, mu] = [0, 1]; got 2\n"


@pytest.mark.parametrize("task", [
    {"task": "taod", "A": "A", "alpha": "1"},
    {"task": "murphy", "A": "A"},
    {"task": "petridis", "A": "A", "alpha": "1"},
    {"task": "hamidoune", "lambda": "0"}])
def test_linear_tasks_refuse_a_zero_w(tmp_path, capsys, task):
    # no nonempty part of a zero W exists: taod used to trace back when
    # it found no candidate Z
    path = _write(tmp_path, {
        "group": {"kind": "cyclic", "n": 4},
        "action": {"kind": "left_translation"},
        "representation": {"kind": "permutation", "p": 2},
        "sets": {"A": [0, 1]},
        "subspaces": {"W": [[0, 0, 0, 0]]},
        "tasks": [{**task, "W": "W"}]})
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: W must be nonzero\n"


def test_readme_caps_table_lists_every_cap():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"), encoding="utf-8").read()
    section = readme.split("## Capacity caps", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `")]
    assert {name.strip(" `"): int(value)
            for name, value in rows} == config._DEFAULTS


def test_mu_runs_past_both_capped_routes(tmp_path, capsys):
    # with the fold and the lattice capped, the min-cut Dinkelbach route
    # alone gives mu
    path = _write(tmp_path, {
        "group": {"kind": "symmetric", "n": 4},
        "action": {"kind": "natural"},
        "sets": {"Y": [0]},
        "caps": {"MAX_EXHAUSTIVE_GROUND": 2,
                 "MAX_SUBGROUP_ENUM_ORDER": 2},
        "tasks": [{"task": "mu", "Y": "Y"}]})
    assert main(["run", path]) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert set(result["result"]["methods"]) == {"dinkelbach"}
    assert result["result"]["mu"] == "1/6"


def test_exit_3_on_capacity(tmp_path, capsys):
    path = _write(tmp_path, {
        "group": {"kind": "symmetric", "n": 4},
        "action": {"kind": "natural"},
        "sets": {"Y": [0]},
        "caps": {"MAX_EXHAUSTIVE_GROUND": 2},
        "tasks": [{"task": "minimize", "function": "actor_growth",
                   "Y": "Y", "lambda": "0"}]})
    assert main(["run", path]) == 3
    assert "capacity" in capsys.readouterr().err
    # each refusal names the limit that stopped it, with the value applied;
    # the kernel's fixed limits are not caps
    fixed = "; a fixed limit of the subset-fold kernel, not a cap"
    C30 = {"kind": "cyclic", "n": 30}
    for group, extra, caps, message in [
            (C30, {"sets": {"A": list(range(27)), "Y": [0]}},
             {"MAX_EXHAUSTIVE_GROUND": 30},
             f"kernel ground size=26 (measured 27){fixed}"),
            (C30, {"sets": {"A": list(range(27))},
                   "representation": {"kind": "permutation", "p": 2},
                   "subspaces": {"W": [[1] + [0] * 29]}},
             {"LINEAR_EXHAUSTIVE_MAX_ORDER": 30},
             f"kernel ground size=26 (measured 27){fixed}"),
            (C30, {"sets": {"A": list(range(25)), "Y": [0]}}, {},
             "MAX_EXHAUSTIVE_GROUND=24 (measured 25)")]:
        target = {"W": "W"} if "subspaces" in extra else {"Y": "Y"}
        path = _write(tmp_path, {
            "group": group, "action": {"kind": "left_translation"},
            **extra, "caps": caps,
            "tasks": [{"task": "petridis", "A": "A", "alpha": "1",
                       **target}]})
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == \
            f"capacity: instance exceeds {message}; witness search " \
            f"enumerates subsets of A\n"


def test_petridis_witness_past_64_points(tmp_path, capsys):
    # on C70 the point sets span two 64-point words; the witness B is the
    # least nonempty C inside A by |C.Y| / |C|, then by size, then
    # lexicographically, as a scan of every C finds it
    A, Y = [0, 1, 5, 30, 64, 66, 69], [0, 2, 63, 64, 65]
    path = _write(tmp_path, {
        "group": {"kind": "cyclic", "n": 70},
        "action": {"kind": "left_translation"},
        "sets": {"A": A, "Y": Y},
        "tasks": [{"task": "petridis", "A": "A", "Y": "Y", "alpha": "5"}]})
    assert main(["run", path]) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    ratio, _size, B = min(
        (Fraction(len({(a + y) % 70 for a in C for y in Y}), len(C)),
         len(C), C) for k in range(1, len(A) + 1)
        for C in itertools.combinations(A, k))
    assert result["report"]["witnesses"]["B"] == list(B)
    assert result["report"]["details"]["witness_ratio"] == \
        format_fraction(ratio)


@pytest.mark.parametrize("group", [
    {"kind": "cyclic", "n": 10**30}, {"kind": "symmetric", "n": 10**20},
    {"kind": "affine_gl1", "p": 1000000000000000003},
    {"kind": "cyclic", "n": 4000}, {"kind": "cyclic", "n": 20000}])
def test_group_specs_past_the_caps_exit_3_at_once(tmp_path, capsys, group):
    # orders known from the spec are refused before any generator is
    # built; a closure whose image rows pass MAX_ACT_TABLE_ENTRIES stops
    path = _write(tmp_path, {"group": group, "tasks": [{"task": "profile"}]})
    started = time.perf_counter()
    assert main(["run", path]) == 3
    assert time.perf_counter() - started < 1
    cap = "MAX_ACT_TABLE_ENTRIES" if group.get("n") in (4000, 20000) \
        else "MAX_GROUP_ORDER"
    assert capsys.readouterr().err.startswith(
        f"capacity: instance exceeds {cap}=")


def test_enumerations_past_the_kernel_ground_size_exit_3_at_once(
        tmp_path, capsys):
    # with the caps raised past the kernel's 26 elements, every C of a
    # 27-element group and every subset of 27 points are refused, not run
    fixed = "a fixed limit of the subset-fold kernel, not a cap"
    C27 = {"kind": "cyclic", "n": 27}
    for action, sets, caps, task, hint in [
            ("left_translation", {"A": [0, 1], "Y": [0]},
             {"PETRIDIS_EXHAUSTIVE_MAX_ORDER": 30},
             {"task": "petridis", "A": "A", "Y": "Y", "alpha": "1"},
             f"{fixed}; the for-all-C check enumerates every actor set"),
            ("natural", {"A": [0, 1]}, {"MAX_EXHAUSTIVE_GROUND": 30},
             {"task": "minimize", "function": "target_growth", "A": "A",
              "lambda": "1/2"}, fixed)]:
        path = _write(tmp_path, {"group": C27, "action": {"kind": action},
                                 "sets": sets, "caps": caps,
                                 "tasks": [task]})
        started = time.perf_counter()
        assert main(["run", path]) == 3
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err == (
            f"capacity: instance exceeds kernel ground size=26 "
            f"(measured 27); {hint}\n")


def test_representation_prime_past_the_int64_limit_exits_2(tmp_path, capsys):
    p = 4294967311
    path = _write(tmp_path, {
        "group": {"kind": "cyclic", "n": 2},
        "representation": {"kind": "matrices", "p": p,
                           "generators": [[[p - 1, 0], [0, p - 1]]]},
        "tasks": [{"task": "profile"}]})
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == (
        f"error: p = {p} is too large for dimension 2: matrix products "
        f"over F_p are exact in int64 only while dim*(p-1)^2 < 2^63\n")


def test_cli_out_file(tmp_path):
    path = _write(tmp_path, _minimal())
    out = tmp_path / "report.json"
    assert main(["run", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["version"] == cli.VERSION


def test_cli_search_and_report_csv(tmp_path, capsys):
    out = tmp_path / "srch.json"
    assert main(["search", "--family", "symmetric_natural",
                 "--predicate", "kneser", "--budget", "80",
                 "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stats"]["instances"] == 80
    assert doc["search"]["next_cursor"] == 80
    assert main(["report", "--format", "csv", "--in", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,cursor,statement_id,conclusion_holds"
    assert len(lines) == 1 + doc["stats"]["findings"]


def _report_csv(doc, capsys, monkeypatch) -> list[str]:
    """`report --format csv` of `doc` read from stdin, as lines."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["report", "--format", "csv"]) == 0
    return capsys.readouterr().out.splitlines()


def test_report_csv_rows_of_a_run_report(tmp_path, capsys, monkeypatch):
    # a checker task gives its verdict row, a mu result its value
    path = _write(tmp_path, dict(_minimal(), tasks=[
        {"task": "kneser", "A": "A", "Y": "Y"}, {"task": "mu", "Y": "Y"}]))
    assert main(["run", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert _report_csv(doc, capsys, monkeypatch) == [
        "index,task,hypotheses_hold,conclusion_holds,exhaustiveness,summary",
        "0,kneser,True,True,exhaustive,kneser",
        "1,mu,,,,1/2"]


def test_report_csv_rows_of_a_search_report(capsys, monkeypatch):
    assert main(["search", "--family", "affine_natural", "--predicate",
                 "kneser", "--budget", "10", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert _report_csv(doc, capsys, monkeypatch) == [
        "kind,cursor,statement_id,conclusion_holds",
        "finding,3,kneser,False", "finding,8,kneser,False"]


@pytest.mark.parametrize("case", [
    "report_missing_in", "report_stdin_not_json", "run_not_utf8", "run_out",
    "search_out", "report_out", "csv_result_not_object",
    "csv_finding_without_keys", "run_nested_too_deep",
    "report_stdin_nested_too_deep"])
def test_unreadable_input_or_output_exits_2(case, tmp_path, capsys,
                                           monkeypatch):
    # one line on stderr, no traceback, and exit 2: exit 1 is kept for a
    # violated statement. Arrays nested past the interpreter's recursion
    # limit make the JSON decoder raise RecursionError.
    nested = "[" * 100_000 + "]" * 100_000
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"results": [1]} if case ==
                                 "csv_result_not_object" else
                                 {"findings": [{"kind": "finding"}]}))
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        nested if case == "report_stdin_nested_too_deep" else "not json"))
    deep = tmp_path / "deep.json"
    deep.write_text('{"group": ' + nested + ', "tasks": []}')
    nowhere = str(tmp_path / "no_such_dir" / "out.json")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff\xfe")
    argv = {
        "report_missing_in": ["report", "--in", str(tmp_path / "missing")],
        "report_stdin_not_json": ["report"],
        "run_not_utf8": ["run", str(latin1)],
        "run_out": ["run", _write(tmp_path, _minimal()), "--out", nowhere],
        "search_out": ["search", "--family", "cyclic_translation",
                       "--predicate", "kneser", "--budget", "2",
                       "--out", nowhere],
        "report_out": ["report", "--in", str(report), "--out", nowhere],
        "csv_result_not_object": ["report", "--format", "csv",
                                  "--in", str(report)],
        "csv_finding_without_keys": ["report", "--format", "csv",
                                     "--in", str(report)],
        "run_nested_too_deep": ["run", str(deep)],
        "report_stdin_nested_too_deep": ["report"]}[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_search_seed_defaults_to_the_seed_cap(tmp_path, monkeypatch):
    out = tmp_path / "srch.json"
    monkeypatch.setenv("SUBACTION_DEFAULT_SEED", "11")
    assert main(["search", "--family", "cyclic_translation",
                 "--predicate", "kneser", "--budget", "5",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["search"]["seed"] == 11


def test_malformed_cap_variable_exits_2(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, _minimal())
    monkeypatch.setenv("SUBACTION_SAMPLE_COUNT", "abc")
    assert main(["run", path]) == 2
    assert "SUBACTION_SAMPLE_COUNT='abc' is not an integer" in \
        capsys.readouterr().err
    # the search seed's default is read from its cap inside main
    monkeypatch.delenv("SUBACTION_SAMPLE_COUNT")
    search = ["search", "--family", "cyclic_translation",
              "--predicate", "kneser", "--budget", "2"]
    monkeypatch.setenv("SUBACTION_DEFAULT_SEED", "0x1")
    assert main(search) == 2
    assert "SUBACTION_DEFAULT_SEED='0x1'" in capsys.readouterr().err
    # zero is a seed, not a malformed value
    monkeypatch.setenv("SUBACTION_DEFAULT_SEED", "0")
    assert main(search) == 0
    assert json.loads(capsys.readouterr().out)["search"]["seed"] == 0


@pytest.mark.parametrize("raw", ["-5", "0"])
def test_cap_variable_below_one_exits_2(tmp_path, capsys, monkeypatch, raw):
    # sampled hamidoune on S5: zero samples would prove nothing
    path = _write(tmp_path, {
        "group": {"kind": "symmetric", "n": 5},
        "action": {"kind": "natural"}, "sets": {"Y": [0]},
        "tasks": [{"task": "hamidoune", "Y": "Y", "lambda": "1/48"}]})
    monkeypatch.setenv("SUBACTION_SAMPLE_COUNT", raw)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"SUBACTION_SAMPLE_COUNT={raw!r}: caps must be positive " \
        f"integers" in captured.err
    monkeypatch.delenv("SUBACTION_SAMPLE_COUNT")
    for name in config.snapshot():
        monkeypatch.setenv(f"SUBACTION_{name}", raw)
        if name == "DEFAULT_SEED":
            assert config.cap(name) == int(raw)
        else:
            with pytest.raises(StructuralError, match=f"SUBACTION_{name}="):
                config.cap(name)
        monkeypatch.delenv(f"SUBACTION_{name}")


def test_scenario_caps_take_any_integer_seed(monkeypatch):
    # order 16 is above PETRIDIS_EXHAUSTIVE_MAX_ORDER, so the check samples
    for name in list(os.environ):
        if name.startswith("SUBACTION_"):
            monkeypatch.delenv(name)
    sc = {"group": {"kind": "cyclic", "n": 16},
          "action": {"kind": "left_translation"},
          "sets": {"A": [0, 1], "Y": [0, 1]},
          "caps": {"SAMPLE_COUNT": 40, "DEFAULT_SEED": -3},
          "tasks": [{"task": "petridis", "A": "A", "Y": "Y", "alpha": "3"}]}
    by_caps = run_scenario(_parse(sc))
    by_caps.pop("elapsed_seconds")
    (result,) = by_caps["results"]
    assert result["report"]["exhaustiveness"] == {
        "kind": "sampled", "samples": 40, "seed": -3}
    assert by_caps["caps"]["DEFAULT_SEED"] == -3

    # the same run with the seed from the environment
    monkeypatch.setenv("SUBACTION_DEFAULT_SEED", "-3")
    del sc["caps"]["DEFAULT_SEED"]
    by_env = run_scenario(_parse(sc))
    by_env.pop("elapsed_seconds")
    assert by_env["results"] == by_caps["results"]
    assert by_env["caps"] == by_caps["caps"]

    for name, val, rule in [
            ("MAX_GROUP_ORDER", 0, "caps must be positive integers"),
            ("DEFAULT_SEED", True, "expected an integer")]:
        with pytest.raises(ScenarioError) as ei:
            _parse(_minimal(caps={name: val}))
        assert str(ei.value) == f"scenario.caps.{name}: {rule}"


def test_cli_report_roundtrip(tmp_path, capsys):
    path = _write(tmp_path, _minimal())
    out = tmp_path / "report.json"
    main(["run", path, "--out", str(out)])
    assert main(["report", "--format", "json", "--in", str(out)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed == json.loads(out.read_text())


def test_search_resume_via_cli(tmp_path):
    o1, o2, o3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    main(["search", "--family", "symmetric_natural", "--predicate",
          "kneser", "--budget", "150", "--seed", "7", "--out", str(o1)])
    main(["search", "--family", "symmetric_natural", "--predicate",
          "kneser", "--budget", "75", "--seed", "7", "--out", str(o2)])
    main(["search", "--family", "symmetric_natural", "--predicate",
          "kneser", "--budget", "75", "--seed", "7", "--cursor", "75",
          "--out", str(o3)])
    full = json.loads(o1.read_text())
    head = json.loads(o2.read_text())
    tail = json.loads(o3.read_text())
    assert head["findings"] + tail["findings"] == full["findings"]


_TOP_HELP = """\
usage: subaction [-h] {run,search,report} ...

growth checkers and submodular minimizers for finite group actions

positional arguments:
  {run,search,report}
    run                execute a scenario file
    search             stream seeded instances through a predicate
    report             reformat a report document

options:
  -h, --help           show this help message and exit
"""

_FAMILY_CHOICES = ("{abelian_translation,affine_natural,alternating_natural,"
                   "cyclic_translation,dihedral_natural,"
                   "symmetric_conjugation,symmetric_natural}")
_PREDICATE_CHOICES = ("{fragment_bounds,freiman,hamidoune,kneser,"
                      "kneser_trivial_stabilizer,murphy,petridis,ruzsa,"
                      "small_growth,tao_doubling,taod}")
_SEARCH_HELP = f"""\
usage: subaction search [-h] --family
                        {_FAMILY_CHOICES}
                        --predicate
                        {_PREDICATE_CHOICES}
                        --budget BUDGET [--seed SEED] [--cursor CURSOR]
                        [--out OUT]

options:
  -h, --help            show this help message and exit
  --family {_FAMILY_CHOICES}
  --predicate {_PREDICATE_CHOICES}
  --budget BUDGET       instance count
  --seed SEED           default: the DEFAULT_SEED cap
  --cursor CURSOR       resume position
  --out OUT             write the report here
"""


def test_two_main_calls_build_one_parser(capsys):
    cli._build_parser.cache_clear()
    argv = ["search", "--family", "cyclic_translation", "--predicate",
            "kneser", "--budget", "2", "--seed"]
    assert main(argv + ["3"]) == 0
    assert main(argv + ["4"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    first, second = capsys.readouterr().out.split("\n}\n")[:2]
    assert json.loads(first + "}")["search"]["seed"] == 3
    assert json.loads(second + "}")["search"]["seed"] == 4


@pytest.mark.parametrize("argv, text", [(["--help"], _TOP_HELP),
                                        (["search", "--help"], _SEARCH_HELP)])
def test_help_text_of_the_new_and_the_kept_parser(argv, text, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == text


def test_bad_family_exits_2_on_the_kept_parser(capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--family", "no_such_family", "--predicate",
                  "kneser", "--budget", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'no_such_family'" in capsys.readouterr().err
    assert main(["search", "--family", "cyclic_translation", "--predicate",
                 "kneser", "--budget", "1"]) == 0
