"""The three workloads: which recorded requests make up one batch.

A batch has a fixed composition, so every batch of a workload does about
the same work whichever requests the seed picks; the seed picks the
requests from the recorded pools (see record.py) and their order in the
batch. Why each workload exists:

- search_exhaustive: `search` streams on small groups, where every route is
  exhaustive. The S4 conjugation windows (order 24) compute mu over 2^24
  actor sets, more than once per instance, so `_kernels` and `setfuncs`
  carry the time (ROADMAP item 2).
- search_sampled: `search` streams on groups above the exhaustive caps;
  the sampled for-all-C loops (`act_set`, `product_set`) and the
  subgroup-lattice mu route carry the time (ROADMAP item 3c).
- scenario_mix: one scenario per `run` request, all 15 task kinds on the
  set and linear sides. Every scenario rebuilds its group and action, so no
  work is shared between requests: group closure and `mul_row` on the
  tableless S7 and A8, action build and verify, `linalg`, and CLI parsing
  and serialization carry the time (ROADMAP items 3b and 4).

A batch stands for a fixed amount of each slot's traffic: for
search_exhaustive the instance counts of the prototype stream the benchmark
was planned on (budgets 10/6/60/60/60/60), for search_sampled 12 instances
of each of its streams, for scenario_mix a fixed number of scenarios per
template. For each cost class of a slot (see record.py) the quota is the
slot's windows per batch times the class's share of the recorded pool; the
batch runs that many windows, rounded and at least one (LIGHT_TAKE for a
light class), one from each stratum of the class ranked by recorded
latency. Each window carries a
weight, the windows of the recorded stream it stands for, and the metrics
weight each request by it, so a batch counts every class at its share of
the recorded stream however the quota was rounded.
"""

from __future__ import annotations

import json
import os
import random
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> [(slot, instances per batch)]; a scenario is one instance
RECIPES = {
    "search_exhaustive": [
        ("sc_hamidoune", 10), ("sc_tao", 6), ("cyc_petridis", 60),
        ("dih_hamidoune", 60), ("ab_taod", 60), ("cyc_fragment", 60),
    ],
    "search_sampled": [
        ("sn_petridis", 12), ("sn_hamidoune", 12), ("an_petridis", 12),
        ("aff_hamidoune", 12),
    ],
    "scenario_mix": [
        ("kneser_s7", 1), ("murphy_a8", 1),
        ("ruzsa_s7", 2), ("murphy_s7", 2), ("mu", 2),
        ("hamidoune_lin", 2),
        ("small_growth", 2), ("freiman", 2), ("petridis", 2), ("taod", 2),
        ("tao_doubling", 2), ("hamidoune", 2), ("fragment_bounds", 2),
        ("minimize", 2), ("core", 2), ("orbits", 2), ("profile", 2),
        ("murphy_lin", 2), ("small_growth_lin", 2), ("freiman_lin", 2),
        ("petridis_lin", 2), ("taod_lin", 2), ("kneser_example", 2),
    ],
}

WORKLOADS = tuple(RECIPES)

# A class whose requests were recorded below LIGHT_S runs at least this
# many windows per batch, each weighing less. That changes how many
# samples a run takes, not what they stand for: the median request of
# every workload is a light one (a cheap stream's window, an S2 or S3
# instance, a small scenario), and four samples where the quota is one or
# two cost a few milliseconds each and steady the median.
LIGHT_TAKE = 4

# The speed probe whose slowdowns track each workload's work best (see
# worker.probe). On S4 subset folds, normalising by the python probe
# doubled the spread that the memory probe halved. search_sampled spends
# about half its time in 2^24 folds (its S4 hamidoune instances). Over one
# batch repeated seven times, in two sessions, the memory probe left a
# batch-time variation (standard deviation over mean) of 2.4% and 3.1%
# and a p90 variation of 1.7% and 3.2%; the python probe 3.9% and 2.9%,
# and 2.5% and 4.5%. On scenario_mix, which is interpreter-bound, the
# python probe left 4.2% and the memory probe 8.1%.
PROBES = {"search_exhaustive": "memory", "search_sampled": "memory",
          "scenario_mix": "python"}
# Requests recorded below this many seconds are short CLI calls whose time
# goes to parsing, pool building and serialization, interpreter-bound work
# that the python probe tracks on every workload. Over one
# search_exhaustive batch repeated six times, normalising them by the
# python probe instead of the memory probe took the p50 variation from
# 11.1% to 9.1% and left wall time and p90 as they were (1.7-1.8%).
LIGHT_S = 0.05


def load_pools(workload: str) -> dict:
    with open(os.path.join(HERE, "data", f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["slots"]


def _classes(pool: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for entry in pool:
        out.setdefault(entry.get("class", "scenario"), []).append(entry)
    return out


def composition(workload: str, pools: dict) -> list[tuple]:
    """(slot, class, windows of the class recorded, windows recorded,
    quota, windows run) for every class of every slot of the workload.

    The quota is the slot's windows per batch times the class's share of
    the recorded pool."""
    rows = []
    for slot, instances in RECIPES[workload]:
        pool = pools[slot]["pool"]
        windows = instances / pool[0]["request"].get("budget", 1)
        for c, entries in sorted(_classes(pool).items()):
            quota = windows * len(entries) / len(pool)
            light = statistics.fmean(
                e["recorded_s"] for e in entries) < LIGHT_S
            rows.append((slot, c, len(entries), len(pool), quota,
                         max(LIGHT_TAKE if light else 1, int(quota + 0.5))))
    return rows


def _strata(entries: list[dict], take: int) -> list[list[dict]]:
    """The class's entries in order of recorded latency, cut into `take`
    runs of nearly equal size."""
    ranked = sorted(entries, key=lambda e: e["recorded_s"])
    return [ranked[len(ranked) * j // take:len(ranked) * (j + 1) // take]
            for j in range(take)]


def probe_of(workload: str, entry: dict) -> str:
    """The speed probe that normalises this request's latency."""
    return "python" if entry["recorded_s"] < LIGHT_S else PROBES[workload]


def batches(workload: str, seed: int, count: int, pools: dict
            ) -> list[list[dict]]:
    """`count` batches of recorded entries ({"request", "expect"}), each
    with its weight, the windows of the recorded stream it stands for, and
    the probe that normalises it.

    A class with quota q that runs k windows draws one from each of its k
    strata (see _strata); a draw from a stratum holding the share f of the
    class's windows weighs q * f."""
    rng = random.Random(f"{workload}:{seed}")
    plan = []
    for slot, c, n, _total, quota, take in composition(workload, pools):
        for stratum in _strata(_classes(pools[slot]["pool"])[c], take):
            plan.append((stratum, quota * len(stratum) / n))
    out = []
    for _ in range(count):
        batch = [dict(e, weight=weight, probe=probe_of(workload, e))
                 for e, weight in ((rng.choice(stratum), weight)
                                   for stratum, weight in plan)]
        rng.shuffle(batch)
        out.append(batch)
    return out
