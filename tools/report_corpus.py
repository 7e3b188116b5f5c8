"""Reports of a fixed request corpus, to check that a change keeps them.

    python3 tools/report_corpus.py CHECKOUT OUT.json
    python3 tools/report_corpus.py --diff OLD.json NEW.json
    python3 tools/report_corpus.py --write-digest tools/report_corpus.digest.json
    python3 tools/report_corpus.py --check tools/report_corpus.digest.json

The corpus is every pool scenario of perfbench/data/scenario_mix.json (of
this checkout), `search --budget 30` over every family and predicate at
seeds 7 and 53710, the named linear scenarios of `LINEAR`: folds of
span dimensions over F_5 on 12 and 13 elements, and sampled linear
for-all-C streams on C15 and C16, past PETRIDIS_EXHAUSTIVE_MAX_ORDER, and
the named mu scenarios of `LATTICE`, whose subgroup lattices (S5, A5,
Aff(7), D8xC9) are larger than the pools' order-20 ones, and the named
scenarios of `PATHS`, which reach what no other request does: the
`matrices` and `swap` representations, a generated set, lambdas whose
denominators pass 2^40, exits 2 and 3, and D70xD72, whose base-key
table would pass 2^22 entries, so that its closure, lookups and products
fall back to row bytes, hamidoune at lambda = mu on A8, whose subgroup is
the whole group, a petridis for-all-C check that counting settles at
every size, murphy on a generated subgroup of order 120 in S7, which
has no multiplication table, and kneser on C256 and C257, on either side
of the 256 points and elements up to which rows are composed as bytes,
and `report --format csv` over the reports
of the requests named in `CSV`, a run and a search, whose csv text is
recorded as is. The first form runs each request through
CHECKOUT's `subaction.cli.main` and writes its exit code, stderr and report, without `elapsed_seconds`; an exception that
escapes `main` is recorded as the exit "crash", and the first form then
names every such request and exits 1. A report whose text is not byte for
byte `json.dumps(doc, sort_keys=True, indent=2)` of its own document is
marked "noncanonical", so a writer that changes only whitespace or
escaping differs too. The second prints each field at which two such
files differ, and exits 1 if there is one. The last two run
every request through this checkout: the third writes one sha256 per
request over that record, and the fourth names each request whose sha256
differs from the digest's (a crash, a request missing on either side and a
changed result alike) and exits 1 if there is one.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_MISSING = "<missing>"


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k != "elapsed_seconds"}
    return [_strip(x) for x in doc] if isinstance(doc, list) else doc


def _linear(n: int, p: int, W: list, task: dict, A: list | None = None,
            caps: dict | None = None) -> dict:
    """A run scenario of one task on the F_p permutation representation of
    C_n acting on itself, with subspace W spanned by the rows of `W`, each
    given by its nonzero entries {coordinate: value}, and actor set A."""
    rows = [[row.get(i, 0) for i in range(n)] for row in W]
    scenario = {"group": {"kind": "cyclic", "n": n},
                "action": {"kind": "left_translation"},
                "representation": {"kind": "permutation", "p": p},
                "sets": {"A": A} if A else {}, "subspaces": {"W": rows},
                "tasks": [{**task, "W": "W", **({"A": "A"} if A else {})}]}
    return {**scenario, "caps": caps} if caps else scenario


_SAMPLED = {"SAMPLE_COUNT": 300}
LINEAR = {
    "hamidoune_p5_c12": _linear(12, 5, [{0: 1, 1: 2}],
                                {"task": "hamidoune", "lambda": "1/3"}),
    "hamidoune_p5_c12_stab": _linear(12, 5, [{0: 1, 6: 1}],
                                     {"task": "hamidoune", "lambda": "1/4"}),
    "hamidoune_p5_c13": _linear(13, 5, [{0: 1, 2: 4, 12: 3}, {1: 1, 2: 1}],
                                {"task": "hamidoune", "lambda": "1/2"}),
    "petridis_p5_c12": _linear(12, 5, [{0: 1, 1: 3}],
                               {"task": "petridis", "alpha": "2"},
                               list(range(12))),
    "petridis_p5_c13": _linear(13, 5, [{0: 2, 2: 1}],
                               {"task": "petridis", "alpha": "3/2"},
                               list(range(12))),
    "petridis_sampled_c15": _linear(15, 3, [{0: 1, 1: 1}],
                                    {"task": "petridis", "alpha": "2"},
                                    [0, 1, 3, 7], _SAMPLED),
    "petridis_sampled_c16": _linear(16, 5, [{0: 1, 2: 2}, {4: 1}],
                                    {"task": "petridis", "alpha": "2"},
                                    [0, 2, 5], _SAMPLED),
    "taod_sampled_c15": _linear(15, 2, [{0: 1}, {3: 1}],
                                {"task": "taod", "alpha": "3"}, [0, 1, 4],
                                _SAMPLED),
    "taod_sampled_c16": _linear(16, 3, [{0: 1, 1: 2}, {5: 1}],
                                {"task": "taod", "alpha": "2"}, [0, 3],
                                _SAMPLED),
}


def _mu(group: dict, Y: list) -> dict:
    """A run scenario of the mu task on `group`'s natural action."""
    return {"group": group, "action": {"kind": "natural"}, "sets": {"Y": Y},
            "tasks": [{"task": "mu", "Y": "Y"}]}


LATTICE = {
    "mu_s5": _mu({"kind": "symmetric", "n": 5}, [0, 1]),
    "mu_a5": _mu({"kind": "alternating", "n": 5}, [0, 2, 3]),
    "mu_aff7": _mu({"kind": "affine_gl1", "p": 7}, [1, 2, 4]),
    "mu_d8xc9": _mu({"kind": "direct_product",
                     "left": {"kind": "dihedral", "n": 8},
                     "right": {"kind": "cyclic", "n": 9}}, [9, 12]),
}


def _scenario(group: dict, task: dict, **rest) -> dict:
    """A run scenario of one task on `group`, with the other top-level keys
    (action, representation, sets, subspaces, caps) as given."""
    return {"group": group, **rest, "tasks": [task]}


_C20 = {"kind": "cyclic", "n": 20}
_LEFT = {"kind": "left_translation"}
_D70xD72 = {"kind": "direct_product", "left": {"kind": "dihedral", "n": 70},
            "right": {"kind": "dihedral", "n": 72}}
PATHS = {
    "matrices_hamidoune": _scenario(
        {"kind": "cyclic", "n": 4}, {"task": "hamidoune", "W": "W",
                                     "lambda": "1/4"},
        representation={"kind": "matrices", "p": 5,
                         "generators": [[[0, 4], [1, 0]]]},
        subspaces={"W": [[1, 0]]}),
    "swap_hamidoune_wide": _scenario(
        {"kind": "cyclic", "n": 2},
        {"task": "hamidoune", "W": "W", "lambda": "1/1099511627776"},
        representation={"kind": "swap", "p": 3}, subspaces={"W": [[1, 1]]}),
    "generate_fragment_bounds": _scenario(
        {"kind": "symmetric", "n": 4}, {"task": "fragment_bounds", "A": "A",
                                        "lambda": "1/8"},
        action={"kind": "natural"}, sets={"A": {"generate": [1]}}),
    "c20_minimize_wide": _scenario(
        _C20, {"task": "minimize", "function": "target_growth", "A": "A",
               "lambda": "1/2199023255552"},
        action=_LEFT, sets={"A": [0, 1]}),
    "hamidoune_lambda_out_of_range": _scenario(
        _C20, {"task": "hamidoune", "Y": "Y", "lambda": "2"},
        action=_LEFT, sets={"Y": [0, 1]}),
    "minimize_past_the_ground_cap": _scenario(
        _C20, {"task": "minimize", "function": "actor_growth", "Y": "Y",
               "lambda": "1/2"},
        action=_LEFT, sets={"Y": [0, 1]}, caps={"MAX_EXHAUSTIVE_GROUND": 8}),
    "byte_keys_kneser": _scenario(
        _D70xD72, {"task": "kneser", "A": "A", "Y": "Y"},
        action={"kind": "natural"}, sets={"A": [0, 1], "Y": [0, 1, 70]}),
    "byte_keys_murphy": _scenario(
        _D70xD72, {"task": "murphy", "A": "A", "Y": "Y"},
        action={"kind": "natural"}, sets={"A": [0], "Y": [0, 1, 70]}),
    "hamidoune_a8_whole_group": _scenario(
        {"kind": "alternating", "n": 8},
        {"task": "hamidoune", "Y": "Y", "lambda": "1/2520"},
        action={"kind": "natural"}, sets={"Y": [0, 1]}),
    "petridis_all_settled": _scenario(
        {"kind": "cyclic", "n": 8},
        {"task": "petridis", "A": "A", "Y": "Y", "alpha": "1"},
        action=_LEFT, sets={"A": [0], "Y": [0]}),
    # <(0 1), (0 1 2 3 4)>, S5 on {0..4}, grown in S7 with no
    # multiplication table; its orbits on Y are {0..4} and {5}
    "generate_murphy_s7": _scenario(
        {"kind": "symmetric", "n": 7}, {"task": "murphy", "A": "A", "Y": "Y"},
        action={"kind": "natural"},
        sets={"A": {"generate": [1, 465]}, "Y": [0, 1, 2, 3, 4, 5]}),
    # C256, the largest group whose closure and multiplication table
    # compose rows as bytes (256 points, 256 elements), and C257, the
    # smallest past both
    **{f"kneser_c{n}": _scenario(
        {"kind": "cyclic", "n": n}, {"task": "kneser", "A": "A", "Y": "Y"},
        action={"kind": "natural"},
        sets={"A": {"generate": [16]}, "Y": [0, 1, 2]}) for n in (256, 257)},
}


# requests whose report `report --format csv --in` reads: a run's theorem
# results and a search's findings
CSV = ("run/paths/generate_fragment_bounds",
       "search/dihedral_natural/kneser/53710")


def requests() -> dict:
    """The corpus by request name: a search's argv, or a run scenario."""
    from subaction.search import FAMILIES, PREDICATES
    pools = json.loads((ROOT / "perfbench/data/scenario_mix.json").read_text())
    out = {f"run/{slot}/{i}": item["request"]["scenario"]
           for slot, entry in sorted(pools["slots"].items())
           for i, item in enumerate(entry["pool"])}
    out.update({f"search/{f}/{p}/{seed}": [
        "search", "--family", f, "--predicate", p, "--budget", "30",
        "--seed", str(seed)] for seed in (7, 53710) for f in FAMILIES
        for p in PREDICATES})
    out.update({f"run/linear/{name}": sc for name, sc in LINEAR.items()})
    out.update({f"run/lattice/{name}": sc for name, sc in LATTICE.items()})
    out.update({f"run/paths/{name}": sc for name, sc in PATHS.items()})
    out.update({f"report/csv/{name}": ["report", "--format", "csv", "--in",
                                       name] for name in CSV})
    return out


def results(checkout: str) -> dict:
    """Each request's exit code, stderr and report, run through
    CHECKOUT's `subaction.cli.main`; a report written other than as
    `json.dumps` writes its document adds the key "noncanonical"; a
    `report --format csv` request's report is its csv text."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from subaction.cli import main
    out, texts = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in requests().items():
            if isinstance(argv, dict):  # a scenario, run from a file
                path = Path(tmp, "scenario.json")
                path.write_text(json.dumps(argv))
                argv = ["run", str(path)]
            elif argv[0] == "report":  # the report an earlier request wrote
                path = Path(tmp, "report.json")
                path.write_text(texts[argv[-1]])
                argv = [*argv[:-1], str(path)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except Exception as e:  # a crash is recorded, not raised
                    code, stderr = "crash", io.StringIO(repr(e))
            text = stdout.getvalue()
            if name in CSV:
                texts[name] = text
            if argv[0] == "report":
                out[name] = {"exit": code, "stderr": stderr.getvalue(),
                             "report": text}
                continue
            doc = json.loads(text) if text else None
            out[name] = {"exit": code, "stderr": stderr.getvalue(),
                         "report": _strip(doc)}
            if text and text != json.dumps(doc, sort_keys=True,
                                           indent=2) + "\n":
                out[name]["noncanonical"] = True
    return out


def record(checkout: str, out: str) -> list[str]:
    """Write the corpus's results to `out`; the names of the requests that
    crashed."""
    res = results(checkout)
    Path(out).write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    crashes = [k for k, r in res.items() if r["exit"] == "crash"]
    print(f"{len(res)} requests, {len(crashes)} crashes -> {out}")
    return crashes


def digest(res: dict) -> dict:
    """One sha256 per request, over its result as sorted-key JSON."""
    return {name: hashlib.sha256(json.dumps(
        r, sort_keys=True).encode()).hexdigest() for name, r in res.items()}


def check(path: str) -> list[str]:
    """The names of the requests of this checkout, or of the digest at
    `path`, whose digests differ or that only one of the two holds."""
    want, got = json.loads(Path(path).read_text()), digest(results(ROOT))
    return sorted(k for k in set(want) | set(got)
                  if want.get(k) != got.get(k))


def _diff(old, new, path=""):
    """(path, old, new) for each differing field, looking into dicts and
    into lists of dicts."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _diff(old.get(key, _MISSING), new.get(key, _MISSING),
                             f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new) and any(isinstance(x, dict) for x in old):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _diff(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--write-digest":
        Path(argv[1]).write_text(json.dumps(
            digest(results(ROOT)), indent=0, sort_keys=True) + "\n")
        return 0
    if len(argv) == 2 and argv[0] == "--check":
        differ = check(argv[1])
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(differ)} requests differ from {argv[1]}")
        return 1 if differ else 0
    if len(argv) == 2:
        crashed = record(*argv)
        for name in crashed:
            print(f"crash: {name}")
        return 1 if crashed else 0
    if len(argv) == 3 and argv[0] == "--diff":
        old, new = (json.loads(Path(p).read_text()) for p in argv[1:])
        changes = list(_diff(old, new))
        for path, a, b in changes:
            print(f"{path}: {json.dumps(a)[:100]} -> {json.dumps(b)[:100]}")
        print(f"{len({p.split('.')[1] for p, _a, _b in changes})} of "
              f"{len(old)} requests differ")
        return 1 if changes else 0
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
