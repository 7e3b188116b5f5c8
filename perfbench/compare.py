"""Compares two result sets written by `run.py --out`.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and metric it prints both sides' medians and quartiles
and a verdict against the metric's bound in BENCHMARK.json: better or
worse when the medians differ by more than the bound, unchanged when they
do not, and unresolved when either side's own spread (quartile distance
over median) is wider than the bound, unless every run of one side reads
better than every run of the other. Metrics without a bound (the
per-layer ones) are listed without a verdict. Result sets taken under
different backends or different SUBACTION_* settings are refused.

The end-to-end values are normalised by a speed probe (see worker.py). So
that a change cannot move the normalised figures without moving the
program's own time, each bounded metric also gets a verdict on the raw
(unnormalised) values, and a row where the two verdicts are both resolved
and differ is marked "raw disagrees" and counted at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _setting(rec: dict) -> tuple:
    env = rec["environment"]
    return env["backend"], json.dumps(env["subaction_env"], sort_keys=True)


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    q1b, mb, q3b = _stats(base)
    q1n, mn, q3n = _stats(new)
    spread = max(_rel(q3b - q1b, mb), _rel(q3n - q1n, mn))
    separated = max(new) < min(base) or min(new) > max(base)
    if spread > bound and not separated:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def _rel(width: float, median: float) -> float:
    return width / abs(median) if median else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    settings = {_setting(r) for r in base + new}
    if len(settings) > 1:
        print(f"refusing to compare results taken under different backends "
              f"or caps: {sorted(settings)}", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better_of = {m["name"]: m["better"] for m in spec["per_layer"]}
    better_of.update({k: v["better"] for k, v in bounds.items()})

    values: dict = defaultdict(lambda: ([], []))
    raw: dict = defaultdict(lambda: ([], []))
    for side, recs in ((0, base), (1, new)):
        for rec in recs:
            if not rec["correct"]:
                print(f"note: {rec['workload']} seed {rec['seed']} failed "
                      f"{rec['failed']} of {rec['attempted']} requests")
            for name, m in rec["metrics"].items():
                values[rec["workload"], name][side].append(m["value"])
            for name, v in rec.get("raw", {}).items():
                raw[rec["workload"], name][side].append(v)
    print(f"{'workload':18} {'metric':34} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30}  verdict (raw verdict)")
    disagree = 0
    for (wl, name), (b, n) in sorted(values.items()):
        if not b or not n:
            continue
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        if name in bounds:
            better, bound = bounds[name]["better"], bounds[name]["bound"]
            v = verdict(b, n, better, bound)
            rb, rn = raw[wl, name]
            if rb and rn:
                rv = verdict(rb, rn, better, bound)
                v += f" ({rv})"
                if "unresolved" not in (v.split()[0], rv) and \
                        rv != v.split()[0]:
                    v += "  raw disagrees"
                    disagree += 1
        else:
            v = f"({better_of.get(name, '?')} is better; no bound)"
        print(f"{wl:18} {name:34} {fmt.format(*_stats(b)):>30} "
              f"{fmt.format(*_stats(n)):>30}  {v}")
    print(f"raw and normalised verdicts disagree on {disagree} row(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
