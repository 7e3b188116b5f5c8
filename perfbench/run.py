"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload search_exhaustive --seed 1 \
        --seconds 30 --trace 0 [--out results.jsonl]

Run from the root of a source checkout; the program is imported from
`src/`, nothing is built. The workload runs in a fresh worker process as a
closed loop (one caller; each request is sent when the previous returns),
for `--seconds` seconds of whole batches. Every verdict is checked against
the one recorded from the pools. Times are normalised by a speed probe
(see worker.py). With `--trace 0` the last line carries
the end-to-end metrics; with `--trace 1` the run is split: an untraced
half, then the same batches traced, and the last line carries the
per-layer metrics. The line before it is the environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
MAX_BATCHES = 60
WORKER_TIMEOUT_S = 170

# A fresh interpreter times its own import of subaction.cli. Right after
# it, a second fresh interpreter times the import of a fixed set of
# standard-library modules; the first time is normalised by the second,
# since both read, unmarshal and run module code and so slow down alike.
_IMPORT_CLI = """
import time
t0 = time.perf_counter()
import subaction.cli
print(time.perf_counter() - t0)
"""
_IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import argparse, csv, decimal, difflib, email.parser, http.client
import logging.handlers, textwrap, unittest, xml.dom.minidom
print(time.perf_counter() - t0)
"""
SETUP_PROBE_REF_S = 0.049  # the probe import's uncontended duration


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    return env


def _import_time(code: str) -> float:
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout)


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import subaction.cli, as
    (normalised, raw); normalised by the probe import taken right after."""
    norm, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        took = _import_time(_IMPORT_CLI)
        probe = _import_time(_IMPORT_PROBE)
        if i:  # the first import also writes bytecode caches
            raw.append(took)
            norm.append(took * SETUP_PROBE_REF_S / probe)
    return statistics.median(norm), statistics.median(raw)


def run_worker(batches: list, seconds: float, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=ROOT) as wd:
        job = {"batches": [[e["request"] for e in b] for b in batches],
               "weights": [[e["weight"] for e in b] for b in batches],
               "probes": [[e["probe"] for e in b] for b in batches],
               "seconds": seconds, "trace": trace, "workdir": wd}
        job_path = os.path.join(wd, "job.json")
        out_path = os.path.join(wd, "out.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path,
             out_path], cwd=ROOT, env=_env(), capture_output=True,
            text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker exited with {proc.returncode}")
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)


def check(batches: list, result: dict) -> tuple[int, int]:
    """(attempted, failed) against the recorded verdicts."""
    attempted = failed = 0
    for entries, done in zip(batches, result["batches"]):
        for entry, row in zip(entries, done):
            attempted += 1
            if row["outcome"] != entry["expect"]:
                failed += 1
                if failed <= 3:
                    request = json.dumps(entry["request"])[:200]
                    sys.stderr.write(
                        f"verdict differs: {request}"
                        f"\n  expected {json.dumps(entry['expect'])[:300]}"
                        f"\n  got      {json.dumps(row['outcome'])[:300]}\n")
    return attempted, failed


def _instances(request: dict) -> int:
    return request["budget"] if request["kind"] == "search" else 1


def weighted_quantile(pairs: list[tuple[float, float]], q: float) -> float:
    """The q-quantile of (value, weight) pairs: each value sits at the
    middle of its share of the total weight, and q is interpolated between
    neighbouring values. With equal weights this is the plain quantile."""
    pairs = sorted(pairs)
    total = sum(w for _v, w in pairs)
    at, mids = 0.0, []
    for _v, w in pairs:
        mids.append((at + w / 2) / total)
        at += w
    if q <= mids[0]:
        return pairs[0][0]
    for k in range(1, len(pairs)):
        if q <= mids[k]:
            f = (q - mids[k - 1]) / (mids[k] - mids[k - 1])
            return pairs[k - 1][0] + f * (pairs[k][0] - pairs[k - 1][0])
    return pairs[-1][0]


def end_to_end(batches: list, result: dict, setup_s: float,
               key: str = "norm_s") -> dict:
    """The end-to-end metrics from normalised latencies, or from raw ones
    with key="latency_s". Each request counts with its weight."""
    done = result["batches"]
    batch_s = [sum(r["weight"] * r[key] for r in b) for b in done]
    lat = [(r[key], r["weight"]) for b in done for r in b]
    instances = sum(r["weight"] * _instances(e["request"])
                    for entries, b in zip(batches, done)
                    for e, r in zip(entries, b))
    return {
        "wall_s": (sum(batch_s) / len(batch_s), "s"),
        "instances_per_s": (instances / sum(batch_s), "1/s"),
        "request_p50_s": (weighted_quantile(lat, 0.5), "s"),
        "request_p90_s": (weighted_quantile(lat, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(summary: dict, n_batches: int, overhead_s: float,
              failed_frac: float) -> dict:
    """Per-batch values of the traced run, keyed as in BENCHMARK.json.
    Counts and times are weighted like the requests they came from."""
    per = 1.0 / n_batches
    names, layers, c = (summary["per_name"], summary["per_layer"],
                        summary["counters"])
    out: dict = {}
    for lay, rec in layers.items():
        out[f"{lay}.calls"] = (rec["calls"] * per, "count")
        out[f"{lay}.busy_s"] = (rec["busy_s"] * per, "s")
        out[f"{lay}.self_s"] = (rec["self_s"] * per, "s")
        out[f"{lay}.errors"] = (rec["errors"] * per, "count")
    for name in ("kernels.fold_build", "kernels.min_affine",
                 "kernels.min_ratio", "kernels.check_pair_ratio",
                 "setfuncs.min_image_ratio", "setfuncs.minimize_nonempty",
                 "setfuncs.scaled_table", "groups.mul_row",
                 "groups.product_set", "groups.closure", "groups.mul_table",
                 "groups.subgroups", "actions.act_set", "actions.build",
                 "actions.set_stabilizer", "linalg.subspace_sum",
                 "linalg.module_span", "linalg.enumerate_subspaces",
                 "cli.parse", "cli.serialize") + tuple(
                     f"theorems.{s}" for s in tracing.STATEMENTS):
        out[f"{name}.calls"] = (names[name]["calls"] * per, "count")
        out[f"{name}.self_s"] = (names[name]["self_s"] * per, "s")
    out["kernels.fold_builds"] = (c.get("kernels.fold_builds", 0) * per,
                                  "count")
    out["kernels.fold_distinct_ratio"] = (
        _ratio(summary["fold_distinct"], summary["fold_builds_run"]),
        "ratio")
    out["kernels.subsets_scanned"] = (
        c.get("kernels.subsets_scanned", 0) * per, "count")
    out["kernels.bytes_computed"] = (
        c.get("kernels.bytes_computed", 0) * per, "bytes")
    checks = names["theorems.hamidoune"]["calls"] + \
        names["theorems.tao_doubling"]["calls"]
    out["setfuncs.mu_per_instance"] = (
        _ratio(names["setfuncs.min_image_ratio"]["calls"], checks), "ratio")
    out["groups.mul_row.hit_ratio"] = (
        _ratio(c.get("groups.mul_row.hits", 0),
               c.get("groups.mul_row.calls", 0)), "ratio")
    out["theorems.sampled_share"] = (
        _ratio(c.get("theorems.sampled_reports", 0),
               c.get("theorems.reports", 0)), "ratio")
    out["theorems.samples_drawn"] = (
        c.get("theorems.samples_drawn", 0) * per, "count")
    out["search.instances"] = (c.get("search.instances", 0) * per, "count")
    out["search.hypotheses_held_ratio"] = (
        _ratio(c.get("search.hypotheses_held", 0),
               c.get("search.instances", 0)), "ratio")
    out["trace_overhead_s"] = (overhead_s, "s")
    out["failed_frac"] = (failed_frac, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result as a JSON line")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "subaction", "cli.py")):
        print(f"error: no subaction sources under {ROOT}/src; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2

    pools = workloads.load_pools(args.workload)
    batches = workloads.batches(args.workload, args.seed, MAX_BATCHES, pools)
    if args.trace:
        plain = run_worker(batches, args.seconds / 2, trace=False)
        batches = batches[:len(plain["batches"])]
        traced = run_worker(batches, float("inf"), trace=True)
        if not traced["trace"]["per_layer"]["kernels"]["calls"]:
            raise SystemExit(
                f"the traced run never reached the kernels layer (backend "
                f"{traced['environment']['backend']}): a kernel wrapper "
                f"lost its binding")
        a1, f1 = check(batches, plain)
        a2, f2 = check(batches, traced)
        attempted, failed = a1 + a2, f1 + f2
        overhead = (end_to_end(batches, traced, 0.0)["wall_s"][0]
                    - end_to_end(batches, plain, 0.0)["wall_s"][0])
        metrics = per_layer(traced["trace"], len(batches), overhead,
                            failed / attempted)
        env = traced["environment"]
        raw = {}
    else:
        setup_s, setup_raw = measure_setup()
        result = run_worker(batches, args.seconds, trace=False)
        attempted, failed = check(batches, result)
        metrics = end_to_end(batches, result, setup_s)
        raw = end_to_end(batches, result, setup_raw, key="latency_s")
        env = result["environment"]
    line = {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, **line,
              "raw": {k: v for k, (v, _u) in raw.items()}}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
