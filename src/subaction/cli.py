"""Batch experiment runner.

Subcommands:
  run <scenario.json>      execute the scenario's task list, emit a report
  search --family F --predicate P --budget N [--seed S] [--cursor C]
  report --format json|csv [--in report.json]

All output is JSON (or csv for `report`), deterministic for a fixed seed up
to the elapsed_seconds field. Rationals travel as "num/den" strings; floats
are rejected everywhere. Exit codes: 0 all conclusions hold (a failed kneser
inequality is a finding, not an error), 1 a proved statement was violated,
2 usage or validation errors, 3 capacity refusal.

One writer, `_dump`, writes every JSON report. Its bytes are those of
`json.dumps(doc, sort_keys=True, indent=2)` and a newline, written in one
recursive pass rather than by json's pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import config, theorems
from .errors import (CapacityError, DomainError, InvariantError,
                     ScenarioError, StructuralError)
from .groups import Subgroup
from .linalg import Subspace
from .rationals import exact_fraction, format_fraction
from .search import (FAMILIES, PREDICATES, SET_FUNCTIONS, TASKS, Bindings,
                     SearchResult, build_action, build_group,
                     build_representation, resolve_sets, search)
from .setfuncs import Exhaustiveness
# perfbench/test_bench.py checks that tracing rebinds cli.min_image_ratio
from .setfuncs import min_image_ratio  # noqa: F401

VERSION = "0.1.0"

# -- json serialization ---------------------------------------------------------


def _ints(items) -> bool:
    """Whether every item is an exact int (so no bool)."""
    for x in items:
        if type(x) is not int:
            return False
    return True


def to_jsonable(obj):
    t = type(obj)
    if t is int or t is str or t is bool or obj is None:
        return obj
    if (t is frozenset or t is set) and _ints(obj):
        return sorted(obj)
    if (t is list or t is tuple) and _ints(obj):
        return list(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, float):
        raise TypeError("refusing to serialize a float; use Fraction")
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Subgroup):
        return {"order": obj.order, "members": sorted(obj.members)}
    if isinstance(obj, Subspace):
        return {"p": obj.p, "ambient_dim": obj.ambient_dim, "dim": obj.dim,
                "basis": [list(r) for r in obj.rows]}
    if isinstance(obj, Exhaustiveness):
        return obj.to_json()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # any other result: every field in declaration order, but those
        # marked unreported
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.metadata.get("reported", True)}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


# -- scenario validation ----------------------------------------------------------

_TOP_KEYS = {"group", "action", "representation", "sets", "subspaces",
             "params", "tasks", "seed", "caps"}
_GROUP_KEYS = {"symmetric": {"n"}, "alternating": {"n"}, "cyclic": {"n"},
               "dihedral": {"n"}, "affine_gl1": {"p"},
               "direct_product": {"left", "right"}}
_ACTION_KEYS = {"natural": set(), "left_translation": set(),
                "conjugation": set(), "coset": {"subgroup"}}
_REP_KEYS = {"permutation": {"p"}, "matrices": {"p", "generators"},
             "swap": {"p"}}
_PARAM_KEYS = {"lambda", "alpha", "epsilon", "mu_param", "n_max"}


def _reject_float(text: str):
    raise ScenarioError(
        f"float literal {text!r} is not allowed; write a rational "
        f"as \"num/den\"")


def _check_keys(where: str, given: dict, allowed: set[str]) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown key {unknown[0]!r} "
                            f"(allowed: {', '.join(sorted(allowed))})")


def _check_param(where: str, key: str, value) -> None:
    """Check a value of one of _PARAM_KEYS, in params or in a task:
    n_max a positive integer, every other key a rational."""
    where = f"{where}.{key}"
    if key == "n_max":
        if not _is_int(value) or value < 1:
            raise ScenarioError(f"{where}: expected a positive integer")
        return
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ScenarioError(f"{where}: rationals must be ints or "
                            f"\"num/den\" strings, got {value!r}")
    try:
        exact_fraction(value)
    except (DomainError, ValueError) as e:
        raise ScenarioError(f"{where}: {e}") from e


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int_list(where: str, value) -> None:
    if not isinstance(value, list) or not value or \
            not all(_is_int(x) for x in value):
        raise ScenarioError(f"{where}: expected a nonempty list of integers")


def _check_matrices(where: str, value) -> None:
    size = len(value[0]) if isinstance(value, list) and value \
        and isinstance(value[0], list) else 0
    if not size or not all(
            isinstance(m, list) and len(m) == size and all(
                isinstance(row, list) and len(row) == size
                and all(_is_int(x) for x in row) for row in m)
            for m in value):
        raise ScenarioError(f"{where}: expected a nonempty list of square "
                            f"integer matrices of one size")


def _validate_spec(where: str, spec, table: dict[str, set[str]]) -> None:
    """Check a group, action or representation spec: a known kind, and
    each key the kind lists present and of its type."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(f"{where}: expected an object with a \"kind\" key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ScenarioError(f"{where}: unknown kind {kind!r} "
                            f"(known: {', '.join(sorted(table))})")
    _check_keys(where, spec, table[kind] | {"kind"})
    for key in sorted(table[kind]):
        if key not in spec:
            raise ScenarioError(f"{where}: missing required key {key!r}")
        at, value = f"{where}.{key}", spec[key]
        if key in ("left", "right"):
            _validate_spec(at, value, table)
        elif key == "subgroup":
            _check_int_list(at, value)
        elif key == "generators":
            _check_matrices(at, value)
        elif not _is_int(value):  # n and p
            raise ScenarioError(f"{at}: expected an integer")


def parse_scenario(text: str) -> dict:
    """Parse and validate a scenario JSON document. Unknown keys, floats,
    and dangling set references are rejected with the offending path."""
    try:
        sc = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise ScenarioError("document nested too deeply to decode") from None
    if not isinstance(sc, dict):
        raise ScenarioError("scenario must be a JSON object")
    _check_keys("scenario", sc, _TOP_KEYS)
    for key in ("group", "tasks"):
        if key not in sc:
            raise ScenarioError(f"scenario: missing required key {key!r}")
    _validate_spec("scenario.group", sc["group"], _GROUP_KEYS)
    if "action" in sc:
        _validate_spec("scenario.action", sc["action"], _ACTION_KEYS)
    if "representation" in sc:
        _validate_spec("scenario.representation", sc["representation"],
                       _REP_KEYS)

    sets = sc.get("sets", {})
    if not isinstance(sets, dict):
        raise ScenarioError("scenario.sets: expected an object")
    for name, val in sets.items():
        where = f"scenario.sets.{name}"
        if isinstance(val, dict):
            _check_keys(where, val, {"generate"})
            _check_int_list(f"{where}.generate", val.get("generate"))
        else:
            _check_int_list(where, val)

    subspaces = sc.get("subspaces", {})
    if not isinstance(subspaces, dict):
        raise ScenarioError("scenario.subspaces: expected an object")
    for name, val in subspaces.items():
        where = f"scenario.subspaces.{name}"
        if not isinstance(val, list) or not all(
                isinstance(row, list) and all(_is_int(x) for x in row)
                for row in val):
            raise ScenarioError(f"{where}: expected a list of integer vectors")
        if "representation" not in sc:
            raise ScenarioError(f"{where}: subspaces need a representation")

    params = sc.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("scenario.params: expected an object")
    _check_keys("scenario.params", params, _PARAM_KEYS)
    for key, val in params.items():
        _check_param("scenario.params", key, val)

    if "seed" in sc and not _is_int(sc["seed"]):
        raise ScenarioError("scenario.seed: expected an integer")

    caps = sc.get("caps", {})
    if not isinstance(caps, dict):
        raise ScenarioError("scenario.caps: expected an object")
    for name, val in caps.items():
        if name not in config.snapshot():
            raise ScenarioError(f"scenario.caps: unknown cap {name!r}")
        if not _is_int(val) or not config.allows(name, val):
            raise ScenarioError(f"scenario.caps.{name}: {config.rule(name)}")

    tasks = sc["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise ScenarioError("scenario.tasks: expected a nonempty list")
    for i, task in enumerate(tasks):
        where = f"scenario.tasks[{i}]"
        if not isinstance(task, dict) or "task" not in task:
            raise ScenarioError(f"{where}: expected an object with a "
                                f"\"task\" key")
        name = task["task"]
        if not isinstance(name, str) or name not in TASKS:
            raise ScenarioError(f"{where}: unknown task {name!r} "
                                f"(known: {', '.join(sorted(TASKS))})")
        _check_keys(where, task, TASKS[name].keys | {"task"})
        for key, val in task.items():
            if key in _PARAM_KEYS:
                _check_param(where, key, val)
            elif key in ("A", "B", "Y", "A0"):
                if not isinstance(val, str):
                    raise ScenarioError(f"{where}.{key}: expected a set name")
                if val not in sets:
                    raise ScenarioError(f"{where}.{key}: dangling set "
                                        f"reference {val!r}")
            elif key == "W":
                if not isinstance(val, str) or val not in subspaces:
                    raise ScenarioError(f"{where}.W: dangling subspace "
                                        f"reference {val!r}")
            elif key == "example":
                if not isinstance(val, dict):
                    raise ScenarioError(f"{where}.example: expected an object")
                _check_keys(f"{where}.example", val, {"k", "ell"})
                for p in ("k", "ell"):
                    if not _is_int(val.get(p)) or val[p] < 1:
                        raise ScenarioError(f"{where}.example.{p}: expected "
                                            f"a positive integer")
            elif key == "function":
                if not isinstance(val, str) or val not in SET_FUNCTIONS:
                    raise ScenarioError(f"{where}.function: unknown function "
                                        f"{val!r}")
        _check_task_required(where, task)
    return sc


def _check_task_required(where: str, task: dict) -> None:
    if "W" in task and "Y" in task:
        raise ScenarioError(f"{where}: give either Y (set variant) or "
                            f"W (linear variant), not both")
    spec = TASKS[task["task"]]
    for key in spec.required:
        if key not in task:
            raise ScenarioError(f"{where}: missing required key {key!r}")
    if spec.either:
        options, message = spec.either
        given = [opt for opt in options if any(k in task for k in opt)]
        if len(given) != 1 or not all(k in task for k in given[0]):
            raise ScenarioError(f"{where}: {message}")
    needed = SET_FUNCTIONS.get(task.get("function"))
    if needed and needed not in task:
        raise ScenarioError(f"{where}: function {task['function']!r} "
                            f"needs {needed!r}")


# -- scenario execution -----------------------------------------------------------


def _exec_task(task: dict, bindings: Bindings) -> dict:
    name = task["task"]
    result = TASKS[name].run(bindings, task)
    if isinstance(result, theorems.CheckReport):
        return {"task": name, "report": to_jsonable(result),
                "violated": result.violated and name != "kneser"}
    if isinstance(result, dict):  # the kneser example and its expectations
        return {"task": name, **to_jsonable(result)}
    return {"task": name, "result": to_jsonable(result)}


def run_scenario(sc: dict) -> dict:
    """Execute a validated scenario and assemble the report dict."""
    started = time.time()
    with config.overrides(sc.get("caps", {})):
        G = build_group(sc["group"])
        action = build_action(G, sc["action"]) if "action" in sc else None
        rep = None
        if "representation" in sc:
            rep = build_representation(G, action, sc["representation"])
        sets = resolve_sets(G, sc.get("sets", {}))
        subspaces = {name: Subspace.from_vectors(rep.p, rep.dim, rows)
                     for name, rows in sc.get("subspaces", {}).items()}
        natural_sn = sc["group"]["kind"] == "symmetric" \
            and sc.get("action", {}).get("kind") == "natural"
        bindings = Bindings(action, rep, sets, subspaces,
                            sc.get("params", {}), sc.get("seed"), natural_sn)
        results = [_exec_task(task, bindings) for task in sc["tasks"]]
        caps = config.snapshot()
    return {"version": VERSION, "scenario": sc, "results": results,
            "caps": caps,
            "elapsed_seconds": round(time.time() - started, 6)}


def _search_report(res: SearchResult, elapsed: float) -> dict:
    def records(items):
        return [{"cursor": r.cursor, "kind": r.kind,
                 "scenario": r.scenario, "report": to_jsonable(r.report)}
                for r in items]
    return {
        "version": VERSION,
        "search": {"family": res.family, "predicate": res.predicate,
                   "seed": res.seed, "start_cursor": res.start_cursor,
                   "next_cursor": res.next_cursor},
        "stats": {"instances": res.instances,
                  "hypotheses_held": res.hypotheses_held,
                  "findings": len(res.findings),
                  "violations": len(res.violations)},
        "findings": records(res.findings),
        "violations": records(res.violations),
        "caps": config.snapshot(),
        "elapsed_seconds": round(elapsed, 6),
    }


# -- report reformatting ----------------------------------------------------------


def _to_csv(report: dict) -> str:
    """The csv rows of a run or a search report; a document of any other
    shape is refused as a ScenarioError."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    try:
        if "results" in report:
            writer.writerow(["index", "task", "hypotheses_hold",
                             "conclusion_holds", "exhaustiveness", "summary"])
            for i, res in enumerate(report["results"]):
                task = res.get("task", "")
                rep = res.get("report")
                if rep is not None:
                    exh = rep["exhaustiveness"]["kind"]
                    writer.writerow([i, task, rep["hypotheses_hold"],
                                     rep["conclusion_holds"], exh,
                                     rep["statement_id"]])
                else:
                    inner = res.get("result", {})
                    summary = inner.get("mu") or inner.get("min_value") \
                        or inner.get("count") or ""
                    writer.writerow([i, task, "", "", "", summary])
        elif "findings" in report:
            writer.writerow(["kind", "cursor", "statement_id",
                             "conclusion_holds"])
            for rec in report.get("findings", []) \
                    + report.get("violations", []):
                writer.writerow([rec["kind"], rec["cursor"],
                                 rec["report"]["statement_id"],
                                 rec["report"]["conclusion_holds"]])
        else:
            raise ScenarioError("not a recognised report document")
    except (AttributeError, KeyError, TypeError) as e:
        raise ScenarioError(f"malformed report document: "
                            f"{type(e).__name__}: {e}") from e
    return buf.getvalue()


# -- entry point -------------------------------------------------------------------


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_string = json.encoder.encode_basestring_ascii


def _write(obj, nl: str, out: list) -> None:
    """Append `obj`'s JSON text to `out`, its items indented past `nl`."""
    t = type(obj)
    if t is str:
        out.append(_string(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif (t is list or t is dict) and not obj:
        out.append("[]" if t is list else "{}")
    elif t is list:
        inner = nl + "  "
        if _ints(obj):
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, obj))}"
                       f"{nl}]")
            return
        out.append("[")
        for i, x in enumerate(obj):
            out.append("," + inner if i else inner)
            _write(x, inner, out)
        out.append(nl + "]")
    elif t is dict:
        inner = nl + "  "
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            out.append(f"{',' if i else ''}{inner}{_string(k)}: ")
            _write(obj[k], inner, out)
        out.append(nl + "}")
    elif obj is None or t is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif t is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else
                   "NaN" if obj != obj else "Infinity" if obj > 0 else
                   "-Infinity")
    else:
        raise TypeError(f"no JSON form for {t.__name__}")


def _dump(report: dict) -> str:
    """`report` as `json.dumps(report, sort_keys=True, indent=2) + "\\n"`
    writes it, for any value that `to_jsonable` or `json.loads` gives."""
    out = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call and kept:
    parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="subaction",
        description="growth checkers and submodular minimizers for finite "
                    "group actions")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", help="write the report here instead of stdout")

    p_search = sub.add_parser("search", help="stream seeded instances "
                                             "through a predicate")
    p_search.add_argument("--family", required=True,
                          choices=sorted(FAMILIES))
    p_search.add_argument("--predicate", required=True,
                          choices=sorted(PREDICATES))
    p_search.add_argument("--budget", required=True, type=int,
                          help="instance count")
    p_search.add_argument("--seed", type=int,
                          help="default: the DEFAULT_SEED cap")
    p_search.add_argument("--cursor", type=int, default=0,
                          help="resume position")
    p_search.add_argument("--out", help="write the report here")

    p_rep = sub.add_parser("report", help="reformat a report document")
    p_rep.add_argument("--format", choices=("json", "csv"), default="json")
    p_rep.add_argument("--in", dest="in_path",
                       help="report file (default: stdin)")
    p_rep.add_argument("--out", help="write here instead of stdout")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            with open(args.scenario, encoding="utf-8") as fh:
                text = fh.read()
            sc = parse_scenario(text)
            report = run_scenario(sc)
            _emit(_dump(report), args.out)
            violated = any(r.get("violated") for r in report["results"])
            return 1 if violated else 0
        if args.command == "search":
            started = time.time()
            seed = config.cap("DEFAULT_SEED") if args.seed is None \
                else args.seed
            res = search(args.family, args.predicate, args.budget,
                         seed, args.cursor)
            _emit(_dump(_search_report(res, time.time() - started)),
                  args.out)
            return 1 if res.violations else 0
        if args.command == "report":
            if args.in_path:
                with open(args.in_path, encoding="utf-8") as fh:
                    text = fh.read()
            else:
                text = sys.stdin.read()
            try:
                doc = json.loads(text)
            except RecursionError:
                raise ScenarioError("report document nested too deeply to "
                                    "decode") from None
            if args.format == "csv":
                _emit(_to_csv(doc), args.out)
            else:
                _emit(_dump(doc), args.out)
            return 0
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    except (StructuralError, DomainError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity: {e}", file=sys.stderr)
        return 3
    except InvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
