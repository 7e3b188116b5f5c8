"""Records the request pools the workloads draw from, with their verdicts.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/data/<workload>.json, every pool in one run. Each pool (a
"slot") holds requests together with the verdict digest and exit code this
commit gives them, and the latency measured while recording. A benchmark
run picks requests from the pools by its seed and checks every verdict
against the recorded one.

A search slot is one stream: the windows (budget, cursor) of the stream
with seed 53710, consecutive from cursor 0 and unfiltered. Streams whose
instances differ in cost by 100x or more (an S4 instance beside an S3 one,
a sampled petridis loop beside one that fails its hypothesis at once) are
recorded one instance per window, and each window gets a cost class: the
group order of its instance, and "heavy" when it took 0.1 s or more. A
batch weights each class by its share of the recorded stream (see
workloads.py), so the seed changes which instances run but not how much
each class counts. The other streams keep one class.

Scenario pools are generated from templates. Generated scenarios the CLI
rejects (exit 2 or 3) are dropped and counted; every other outcome, failing
checks included, is kept as expected output. Latencies are normalised by
the worker's python speed probe. Rerun this only on purpose: a pool recorded at
another commit checks against that commit's verdicts.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

STREAM_SEED = 53710  # the CLI's default seed (0xD1CE)
HEAVY_S = 0.1  # splits one-instance windows into light and heavy classes


def _order(spec: dict) -> int:
    kind = spec["kind"]
    if kind == "direct_product":
        return _order(spec["left"]) * _order(spec["right"])
    n = spec.get("n", spec.get("p"))
    return {"symmetric": math.factorial(n), "alternating":
            math.factorial(n) // 2, "cyclic": n, "dihedral": 2 * n,
            "affine_gl1": n * (n - 1)}[kind]


# slot -> (workload, family, predicate, window budget, windows recorded)
SEARCH_SLOTS = {
    "sc_hamidoune": ("search_exhaustive", "symmetric_conjugation",
                     "hamidoune", 1, 60),
    "sc_tao": ("search_exhaustive", "symmetric_conjugation", "tao_doubling",
               1, 60),
    "cyc_petridis": ("search_exhaustive", "cyclic_translation", "petridis",
                     60, 24),
    "dih_hamidoune": ("search_exhaustive", "dihedral_natural", "hamidoune",
                      60, 24),
    "ab_taod": ("search_exhaustive", "abelian_translation", "taod", 60, 24),
    "cyc_fragment": ("search_exhaustive", "cyclic_translation",
                     "fragment_bounds", 60, 24),
    "sn_petridis": ("search_sampled", "symmetric_natural", "petridis", 1,
                    60),
    "an_petridis": ("search_sampled", "alternating_natural", "petridis", 1,
                    60),
    "sn_hamidoune": ("search_sampled", "symmetric_natural", "hamidoune", 1,
                     60),
    "aff_hamidoune": ("search_sampled", "affine_natural", "hamidoune", 12,
                      10),
}


def _instance_order(family: str, cursor: int) -> int:
    # search draws instance i's pool entry first, from Random("seed:i")
    from subaction.search import FAMILIES
    pool = FAMILIES[family]
    rng = random.Random(f"{STREAM_SEED}:{cursor}")
    return _order(pool[rng.randrange(len(pool))][0])


def _timed(main, probe, req: dict, path: str | None) -> tuple[dict, float]:
    """Outcome and latency normalised by the probes either side of it."""
    before = probe()
    outcome, latency = worker.execute(main, req, path)
    after = probe()
    return outcome, latency * 2 * worker.PROBE_REF_S[probe.kind] / (
        before + after)


# -- scenario templates -------------------------------------------------------

def _group_action(ctx, gspec, aspec):
    key = json.dumps([gspec, aspec], sort_keys=True)
    if key not in ctx:
        from subaction.search import build_action, build_group
        G = build_group(gspec)
        ctx[key] = build_action(G, aspec)
    return ctx[key]


def _pick(rng, n, lo, hi):
    return sorted(rng.sample(range(n), rng.randint(lo, min(hi, n))))


def _set_task(rng, ctx, task, gspec, aspec, extra=None):
    act = _group_action(ctx, gspec, aspec)
    order, dom = act.group.order, act.domain_size
    sets = {"A": _pick(rng, order, 1, 4), "Y": _pick(rng, dom, 1, 3)}
    t = {"task": task, "A": "A", "Y": "Y"}
    t.update(extra or {})
    return {"group": gspec, "action": aspec, "sets": sets, "tasks": [t]}


def t_kneser_s7(rng, ctx):
    # |A.Y| in {3, 4}: the stabilizer of A.Y has order 144, one mul_row
    # each, which keeps the scenario near 1 s
    gspec, aspec = {"kind": "symmetric", "n": 7}, {"kind": "natural"}
    act = _group_action(ctx, gspec, aspec)
    while True:
        A = _pick(rng, act.group.order, 2, 3)
        Y = _pick(rng, 7, 1, 2)
        if len(act.act_set(A, Y)) in (3, 4):
            return {"group": gspec, "action": aspec,
                    "sets": {"A": A, "Y": Y},
                    "tasks": [{"task": "kneser", "A": "A", "Y": "Y"}]}


def t_kneser_example(rng, ctx):
    n = rng.randint(4, 6)
    ell = rng.randint(1, n - 1)
    return {"group": {"kind": "symmetric", "n": n},
            "action": {"kind": "natural"},
            "tasks": [{"task": "kneser",
                       "example": {"k": rng.randint(1, ell), "ell": ell}}]}


def _stabilizing_actor(rng, act, Y):
    # {e, g} with g of order at most 6 fixing Y: murphy's hypothesis holds
    # and <A^-1 A> = <g> stays small, so the scenario reaches mul_row a few
    # times instead of once per element of a large subgroup
    G = act.group
    stab = sorted(act.set_stabilizer(Y).members)
    while True:
        g = rng.choice(stab)
        p, q, order = G.elements[g], G.elements[g], 1
        while not q.is_identity():
            q, order = q * p, order + 1
        if 1 < order <= 6:
            return [0, g]


def t_murphy_a8(rng, ctx):
    gspec, aspec = {"kind": "alternating", "n": 8}, {"kind": "natural"}
    act = _group_action(ctx, gspec, aspec)
    Y = _pick(rng, 8, 2, 3)
    return {"group": gspec, "action": aspec,
            "sets": {"A": _stabilizing_actor(rng, act, Y), "Y": Y},
            "tasks": [{"task": "murphy", "A": "A", "Y": "Y"}]}


def t_murphy_s7(rng, ctx):
    gspec, aspec = {"kind": "symmetric", "n": 7}, {"kind": "natural"}
    act = _group_action(ctx, gspec, aspec)
    Y = _pick(rng, 7, 2, 3)
    return {"group": gspec, "action": aspec,
            "sets": {"A": _stabilizing_actor(rng, act, Y), "Y": Y},
            "tasks": [{"task": "murphy", "A": "A", "Y": "Y"}]}


def t_ruzsa_s7(rng, ctx):
    gspec, aspec = {"kind": "symmetric", "n": 7}, {"kind": "natural"}
    sets = {"A": _pick(rng, 5040, 2, 3), "B": _pick(rng, 5040, 2, 3),
            "Y": _pick(rng, 7, 1, 3)}
    return {"group": gspec, "action": aspec, "sets": sets,
            "tasks": [{"task": "ruzsa", "A": "A", "B": "B", "Y": "Y"}]}


def t_small_growth(rng, ctx):
    g = {"kind": "dihedral", "n": rng.randint(5, 8)}
    return _set_task(rng, ctx, "small_growth", g, {"kind": "natural"},
                     {"alpha": rng.choice(["1/4", "1/2", "3/4", "1"])})


def t_freiman(rng, ctx):
    g = {"kind": "cyclic", "n": rng.randint(6, 12)}
    return _set_task(rng, ctx, "freiman", g, {"kind": "left_translation"},
                     {"alpha": rng.choice(["1/4", "1/2", "3/4", "1"])})


def _subgroup_actor(rng, act):
    G = act.group
    gens = rng.sample(range(G.order), 1)
    members = sorted(G.generated_set(gens))
    return sorted(rng.sample(members, rng.randint(1, len(members))))


def t_petridis(rng, ctx):
    gspec = {"kind": "cyclic", "n": rng.randint(6, 12)}
    aspec = {"kind": "left_translation"}
    act = _group_action(ctx, gspec, aspec)
    A = _subgroup_actor(rng, act)
    Y = _pick(rng, act.domain_size, 1, 2)
    return {"group": gspec, "action": aspec, "sets": {"A": A, "Y": Y},
            "tasks": [{"task": "petridis", "A": "A", "Y": "Y",
                       "alpha": rng.choice(["1", "3/2", "2"])}]}


def t_taod(rng, ctx):
    gspec = {"kind": "cyclic", "n": rng.randint(6, 12)}
    aspec = {"kind": "left_translation"}
    act = _group_action(ctx, gspec, aspec)
    A = _subgroup_actor(rng, act)
    Y = _pick(rng, act.domain_size, 1, 2)
    return {"group": gspec, "action": aspec, "sets": {"A": A, "Y": Y},
            "tasks": [{"task": "taod", "A": "A", "Y": "Y",
                       "alpha": rng.choice(["1", "3/2", "2"])}]}


def t_tao_doubling(rng, ctx):
    g = {"kind": "dihedral", "n": rng.randint(4, 8)}
    return _set_task(rng, ctx, "tao_doubling", g, {"kind": "natural"},
                     {"epsilon": rng.choice(["1/4", "1/2", "1", "3/2"])})


def t_hamidoune(rng, ctx):
    gspec = {"kind": "dihedral", "n": rng.randint(5, 8)}
    aspec = {"kind": "natural"}
    act = _group_action(ctx, gspec, aspec)
    Y = _pick(rng, act.domain_size, 1, 3)
    from subaction.setfuncs import min_image_ratio
    mu = min_image_ratio(act, Y).mu
    lam = mu * rng.choice([0, 1, 2, 3, 4]) / 4
    return {"group": gspec, "action": aspec, "sets": {"Y": Y},
            "tasks": [{"task": "hamidoune", "Y": "Y", "lambda": str(lam)}]}


def t_fragment_bounds(rng, ctx):
    gspec = {"kind": "cyclic", "n": rng.randint(6, 12)}
    aspec = {"kind": "left_translation"}
    act = _group_action(ctx, gspec, aspec)
    return {"group": gspec, "action": aspec,
            "sets": {"A": _pick(rng, act.group.order, 1, 4)},
            "tasks": [{"task": "fragment_bounds", "A": "A",
                       "lambda": rng.choice(["0", "1/8", "1/4", "1/2", "1"]),
                       "mu_param": rng.choice(["1/2", "3/4", "1"])}]}


def t_mu(rng, ctx):
    # order 20: each mu folds 2^20 actor sets, a cost near ruzsa_s7's
    gspec = rng.choice([{"kind": "dihedral", "n": 10},
                        {"kind": "affine_gl1", "p": 5}])
    aspec = {"kind": "natural"}
    act = _group_action(ctx, gspec, aspec)
    return {"group": gspec, "action": aspec,
            "sets": {"Y": _pick(rng, act.domain_size, 1, 3)},
            "tasks": [{"task": "mu", "Y": "Y"}]}


def _minimize_like(rng, ctx, task):
    kind = rng.choice(["cut", "actor_growth", "target_growth"])
    lam = rng.choice(["1/4", "1/2", "1", "3/2"])
    if kind == "cut":
        gspec, aspec = ({"kind": "cyclic", "n": rng.randint(6, 12)},
                        {"kind": "left_translation"})
        return {"group": gspec, "action": aspec,
                "tasks": [{"task": task, "function": "cut"}]}
    if kind == "actor_growth":
        gspec, aspec = {"kind": "dihedral", "n": 8}, {"kind": "natural"}
        act = _group_action(ctx, gspec, aspec)
        return {"group": gspec, "action": aspec,
                "sets": {"Y": _pick(rng, act.domain_size, 1, 3)},
                "tasks": [{"task": task, "function": kind, "Y": "Y",
                           "lambda": lam}]}
    gspec, aspec = ({"kind": "cyclic", "n": rng.randint(12, 16)},
                    {"kind": "left_translation"})
    act = _group_action(ctx, gspec, aspec)
    return {"group": gspec, "action": aspec,
            "sets": {"A": _pick(rng, act.group.order, 1, 3)},
            "tasks": [{"task": task, "function": kind, "A": "A",
                       "lambda": lam}]}


def t_minimize(rng, ctx):
    return _minimize_like(rng, ctx, "minimize")


def t_core(rng, ctx):
    return _minimize_like(rng, ctx, "core")


def _orbit_like(rng, task):
    gspec, aspec = rng.choice([
        ({"kind": "symmetric", "n": 7}, {"kind": "natural"}),
        ({"kind": "symmetric", "n": 4}, {"kind": "conjugation"}),
        ({"kind": "symmetric", "n": 4}, {"kind": "coset",
                                         "subgroup": [1]}),
        ({"kind": "dihedral", "n": rng.randint(5, 12)},
         {"kind": "natural"})])
    return {"group": gspec, "action": aspec, "tasks": [{"task": task}]}


def t_orbits(rng, ctx):
    return _orbit_like(rng, "orbits")


def t_profile(rng, ctx):
    return _orbit_like(rng, "profile")


def _linear(rng, task, n_range, p_choices, extra=None, with_actor=True):
    n = rng.randint(*n_range)
    p = rng.choice(p_choices)
    if rng.random() < 0.5:
        # the indicator of a subgroup of C_n spans a subspace its
        # translations fix, so growth hypotheses hold on some instances
        d = rng.choice([d for d in range(1, n) if n % d == 0])
        vecs = [[1 if i % d == 0 else 0 for i in range(n)]]
    else:
        vecs = [[rng.randrange(p) for _ in range(n)]
                for _ in range(rng.randint(1, 2))]
        if not any(any(v) for v in vecs):
            vecs[0][0] = 1
    sc = {"group": {"kind": "cyclic", "n": n},
          "action": {"kind": "left_translation"},
          "representation": {"kind": "permutation", "p": p},
          "subspaces": {"W": vecs}, "sets": {}}
    t = {"task": task, "W": "W"}
    if with_actor:
        sc["sets"]["A"] = _pick(rng, n, 1, 3)
        t["A"] = "A"
    t.update(extra or {})
    sc["tasks"] = [t]
    return sc


def t_murphy_lin(rng, ctx):
    return _linear(rng, "murphy", (8, 14), (2, 3))


def t_small_growth_lin(rng, ctx):
    return _linear(rng, "small_growth", (8, 14), (2, 3),
                   {"alpha": rng.choice(["1/4", "1/2", "3/4", "1"])})


def t_freiman_lin(rng, ctx):
    return _linear(rng, "freiman", (8, 14), (2, 3),
                   {"alpha": rng.choice(["1/4", "1/2", "3/4", "1"])})


def t_hamidoune_lin(rng, ctx):
    return _linear(rng, "hamidoune", (8, 8), (2, 3),
                   {"lambda": rng.choice(["0", "1/8", "1/4"])},
                   with_actor=False)


def t_petridis_lin(rng, ctx):
    return _linear(rng, "petridis", (6, 8), (2, 3),
                   {"alpha": rng.choice(["1", "3/2", "2"])})


def t_taod_lin(rng, ctx):
    return _linear(rng, "taod", (4, 6), (2,),
                   {"alpha": rng.choice(["1", "3/2", "2"])})


SCENARIO_TEMPLATES = {
    name[2:]: fn for name, fn in sorted(globals().items())
    if name.startswith("t_") and callable(fn)
}
SCENARIO_POOL = 24  # scenarios per template


# -- recording ---------------------------------------------------------------


def _record_search(slot, spec, main, probe):
    _wl, family, predicate, budget, windows = spec
    pool = []
    for k in range(windows):
        req = {"kind": "search", "family": family, "predicate": predicate,
               "budget": budget, "seed": STREAM_SEED, "cursor": k * budget}
        outcome, latency = _timed(main, probe, req, None)
        entry = {"request": req, "expect": outcome,
                 "recorded_s": round(latency, 4), "class": "window"}
        if budget == 1:
            weight = "heavy" if latency >= HEAVY_S else "light"
            entry["class"] = (f"order {_instance_order(family, k)} "
                              f"{weight}")
        pool.append(entry)
    print(f"{slot}: {windows} windows of {budget}, "
          f"{sum(e['recorded_s'] for e in pool):.2f} s", flush=True)
    return {"pool": pool}


def _record_scenarios(name, make, main, probe, workdir):
    ctx: dict = {}
    pool, dropped = [], 0
    path = os.path.join(workdir, "scenario.json")
    i = 0
    while len(pool) < SCENARIO_POOL:
        sc = make(random.Random(f"{name}:{i}"), ctx)
        i += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sc, fh)
        req = {"kind": "run", "scenario": sc}
        outcome, latency = _timed(main, probe, req, path)
        if outcome["exit"] not in (0, 1):
            dropped += 1
            continue
        pool.append({"request": req, "expect": outcome,
                     "recorded_s": round(latency, 4)})
    lat = sorted(p["recorded_s"] for p in pool)
    print(f"{name}: pool {lat[0]:.4f}..{lat[-1]:.4f} s, dropped {dropped}",
          flush=True)
    return {"pool": pool, "dropped": dropped}


def main() -> int:
    from subaction import cli

    data_dir = os.path.join(HERE, "data")
    os.makedirs(data_dir, exist_ok=True)
    files: dict[str, dict] = {wl: {"slots": {}} for wl in workloads.WORKLOADS}
    probe = worker.Probe("python")
    for slot, spec in SEARCH_SLOTS.items():
        files[spec[0]]["slots"][slot] = _record_search(slot, spec, cli.main,
                                                       probe)
    with tempfile.TemporaryDirectory(prefix=".record", dir=HERE) as workdir:
        for name, make in SCENARIO_TEMPLATES.items():
            files["scenario_mix"]["slots"][name] = _record_scenarios(
                name, make, cli.main, probe, workdir)
    env = worker.environment()
    for wl, doc in files.items():
        doc["environment"] = env
        with open(os.path.join(data_dir, f"{wl}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for row in workloads.composition(wl, doc["slots"]):
            print(wl, *row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
