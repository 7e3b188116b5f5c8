"""Runs one workload's batches in a fresh process, one request at a time.

    python3 perfbench/worker.py JOB.json OUT.json

The job names the batches (lists of requests) with each request's weight
and speed probe (see workloads.batches), a time budget and whether to
trace. Each request goes through `subaction.cli.main` in-process; the next
request is sent only after the previous one returns (a closed loop with
one caller). Batches run until the budget is spent, at least one. The
output holds, per request, its weight, its raw and speed-normalised
latency, exit code and verdict digest, plus the process's peak RSS, the
environment, and the trace summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment() -> dict:
    import numpy

    from subaction import _kernels
    return {"backend": _kernels.backend_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "subaction_env": {k: v for k, v in sorted(os.environ.items())
                              if k.startswith("SUBACTION_")}}


def _report_digest(rep: dict) -> dict:
    out = {"hypotheses_hold": rep["hypotheses_hold"],
           "conclusion_holds": rep["conclusion_holds"]}
    for key in ("mu", "fragment_count", "minimum"):
        if key in rep["details"]:
            out[key] = rep["details"][key]
    return out


def _task_digest(res: dict) -> dict:
    out: dict = {"task": res["task"]}
    rep = res.get("report")
    if rep is not None:
        out.update(_report_digest(rep))
    if "matches_expected" in res:
        out["matches_expected"] = res["matches_expected"]
    inner = res.get("result")
    if isinstance(inner, dict):
        for key in ("mu", "min_value", "fragment_count", "count",
                    "orbit_sizes", "atom_size", "union"):
            if key in inner:
                out[key] = inner[key]
    return out


def digest(kind: str, code: int, text: str) -> dict:
    """The fields of a report a change must not alter.

    Kept: the verdict flags, the exact mu, minimum and fragment count
    (from a report's details or a task's result), and for streams the stats
    and every finding and violation. Left out: elapsed_seconds, mu's methods
    and every exhaustiveness block, which planned speed-ups change on
    purpose.
    """
    out: dict = {"exit": code}
    if code not in (0, 1) or not text:
        return out
    doc = json.loads(text)
    if kind == "search":
        out["stats"] = doc["stats"]
        out["next_cursor"] = doc["search"]["next_cursor"]
        out["records"] = [[r["cursor"], r["kind"], _report_digest(r["report"])]
                          for r in doc["findings"] + doc["violations"]]
    else:
        out["results"] = [_task_digest(r) for r in doc["results"]]
    return out


def argv_of(request: dict, path: str | None) -> list[str]:
    if request["kind"] == "search":
        return ["search", "--family", request["family"],
                "--predicate", request["predicate"],
                "--budget", str(request["budget"]),
                "--seed", str(request["seed"]),
                "--cursor", str(request["cursor"])]
    return ["run", path]


def execute(main, request: dict, path: str | None) -> tuple[dict, float]:
    """One request through the CLI; returns (outcome, latency seconds)."""
    buf = io.StringIO()
    argv = argv_of(request, path)
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception:  # a crash is a failed request, not a crashed benchmark
        code = None
        error = traceback.format_exc(limit=3)
    latency = time.perf_counter() - t0
    outcome: dict = {"exit": code}
    if error is None:
        outcome = digest(request["kind"], code, buf.getvalue())
    else:
        outcome["error"] = error
    return outcome, latency


# Speed probes. This machine's speed drifts by up to 2x over seconds, since
# other tenants share the host. So every latency is also reported
# normalised: multiplied by the probe's reference duration over the mean
# duration of a fixed probe taken between requests, over the probes
# nearest the request, PROBE_WINDOW on each side. Each request names the
# probe that tracks its work best (workloads.probe_of): "python" (dict
# lookups with tuple keys plus a small numpy popcount) for interpreter-bound
# work, "memory" (a popcount streaming an 8 MB array) for work dominated by
# the subset-fold kernels. Every kind a job names runs after each request.
# A probe's arrays and dict are made once, before its first timing, the
# timed part allocates nothing large, and an untimed pass warms the caches
# before it, so what the program allocated, freed or touched before a
# probe cannot change how long the probe takes. The reference durations
# are fixed constants, each probe's duration on an uncontended run, so
# normalised values read as seconds at that speed and compare across
# commits.
PROBE_REF_S = {"python": 0.0019, "memory": 0.0017}
PROBE_WINDOW = 12  # probes taken on each side of a request
_PROBE_N = 6000


class Probe:
    """One kind of speed probe; calling it returns one probe's duration."""

    def __init__(self, kind: str):
        import numpy as np

        self.kind = kind
        size = 1 << 20 if kind == "memory" else 1 << 16
        self._src = np.arange(size, dtype=np.uint64)
        self._xored = np.empty_like(self._src)
        self._pops = np.empty(size, dtype=np.uint8)
        self._table = {(i, i & 7): i for i in range(_PROBE_N)}

    def _work(self) -> None:
        import numpy as np

        src, xored, pops, table = (self._src, self._xored, self._pops,
                                   self._table)
        if self.kind == "memory":
            np.bitwise_xor(src, np.uint64(7), out=xored)
            int(np.bitwise_count(xored, out=pops).sum())
            return
        acc = 0
        for _ in range(2):
            for i in range(_PROBE_N):
                acc += table[i, i & 7]
        for _ in range(4):
            np.bitwise_xor(src, np.uint64(acc & 0xFFFF), out=xored)
            acc += int(np.bitwise_count(xored, out=pops).sum())

    def __call__(self) -> float:
        """An untimed pass first brings the probe's inputs back into
        cache, whatever the program touched since the last probe, so the
        timed pass depends on the machine and not on the program's memory
        use."""
        self._work()
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


def normalise(rows: list[dict], series: dict[str, list[float]]) -> None:
    """Adds norm_s to each row, by the probe the row names; rows[k] ran
    between probes k and k + 1."""
    for k, row in enumerate(rows):
        probes = series[row["probe"]]
        near = probes[max(0, k + 1 - PROBE_WINDOW):k + 1 + PROBE_WINDOW]
        row["norm_s"] = (row["latency_s"] * PROBE_REF_S[row["probe"]]
                         / statistics.fmean(near))


def run_job(job: dict) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from subaction import cli

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    paths: dict[tuple[int, int], str] = {}
    for b, batch in enumerate(job["batches"]):
        for i, req in enumerate(batch):
            if req["kind"] == "run":
                path = os.path.join(job["workdir"], f"scenario_{b}_{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(req["scenario"], fh)
                paths[b, i] = path

    started = time.perf_counter()
    done = []
    probes = {kind: Probe(kind)
              for kind in sorted({k for b in job["probes"] for k in b})}
    # request k runs between probes k and k + 1 of every kind
    series = {kind: [probe()] for kind, probe in probes.items()}
    for b, batch in enumerate(job["batches"]):
        rows = []
        for i, req in enumerate(batch):
            weight = job["weights"][b][i]
            if tracer is not None:
                tracer.weight = weight
            outcome, latency = execute(cli.main, req, paths.get((b, i)))
            for kind, probe in probes.items():
                series[kind].append(probe())
            rows.append({"latency_s": latency, "weight": weight,
                         "probe": job["probes"][b][i], "outcome": outcome})
        done.append(rows)
        if time.perf_counter() - started >= job["seconds"]:
            break
    normalise([r for rows in done for r in rows], series)
    out = {"batches": done,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "environment": environment()}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
    return out


def main(argv: list[str]) -> int:
    job_path, out_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
