"""Checks of the benchmark itself (not part of the repository's test suite).

    PYTHONPATH=src python3 -m pytest perfbench/test_bench.py

Runs one batch of every workload untraced and traced in-process, and
asserts that tracing changes no verdict, that every verdict matches the
recorded one, and that every traced wrapper is hit on some workload, so a
rename in the program cannot silently drop a layer. Also checks that the
verdict check catches a wrong exact value.
"""

from __future__ import annotations

import copy
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# scenario_mix batches are short, and some wrappers sit behind one variant
# of a template (the coset action, linear taod with its hypothesis held)
BATCHES = {"search_exhaustive": 1, "search_sampled": 1, "scenario_mix": 4}


def _run(batches, trace, tmp_path):
    job = {"batches": [[e["request"] for e in b] for b in batches],
           "weights": [[e.get("weight", 1.0) for e in b] for b in batches],
           "probes": [[e.get("probe", "python") for e in b] for b in batches],
           "seconds": float("inf"), "trace": trace,
           "workdir": str(tmp_path)}
    return worker.run_job(job)


def _outcomes(result):
    return [r["outcome"] for b in result["batches"] for r in b]


def test_traced_verdicts_equal_untraced_and_every_wrapper_is_hit(tmp_path):
    hit: set[str] = set()
    for wl in workloads.WORKLOADS:
        pools = workloads.load_pools(wl)
        batches = workloads.batches(wl, 7, BATCHES[wl], pools)
        plain = _run(batches, False, tmp_path)
        traced = _run(batches, True, tmp_path)
        assert _outcomes(traced) == _outcomes(plain), wl
        assert _outcomes(plain) == [e["expect"] for b in batches
                                    for e in b], wl
        summary = traced["trace"]
        hit |= {n for n, rec in summary["per_name"].items() if rec["calls"]}
    missed = sorted(set(tracing.SPAN_NAMES) - hit)
    assert not missed, f"wrappers never reached: {missed}"


def test_install_restores_every_binding():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from subaction import cli, groups, theorems

    before = (cli.min_image_ratio, theorems.min_image_ratio,
              groups.FiniteGroup.__dict__["mul_row"], cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.min_image_ratio is theorems.min_image_ratio
        assert cli.min_image_ratio is not before[0]
    finally:
        tracer.uninstall()
    after = (cli.min_image_ratio, theorems.min_image_ratio,
             groups.FiniteGroup.__dict__["mul_row"], cli.main)
    assert after == before


# exact values a report carries in its details rather than in a result
@pytest.mark.parametrize("slot,key", [("hamidoune", "mu"),
                                      ("tao_doubling", "mu"),
                                      ("fragment_bounds", "fragment_count"),
                                      ("fragment_bounds", "minimum")])
def test_a_changed_exact_value_fails_the_check(slot, key, tmp_path):
    pool = workloads.load_pools("scenario_mix")[slot]["pool"]
    entry = next(e for e in pool if key in e["expect"]["results"][0])
    result = _run([[entry]], False, tmp_path)
    assert run.check([[entry]], result) == (1, 0)
    wrong = copy.deepcopy(entry)
    task = wrong["expect"]["results"][0]
    task[key] = str(Fraction(task[key]) + 1) if isinstance(task[key], str) \
        else task[key] + 1
    assert run.check([[wrong]], result) == (1, 1)
