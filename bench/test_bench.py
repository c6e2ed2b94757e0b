"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from tracer import ROOT as ROOT_SPAN, Tracer
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def w():
    return run.import_walras(REPO)


def fold_iterations(supply) -> int:
    """Inner-loop iterations of one agent's fold, counted by running the
    loop of ``welfare._or_step`` over every state <= supply: states with no
    items are skipped, the others try each non-empty submask of their items."""
    m = len(supply)
    count = 0
    for state in itertools.product(*(range(s + 1) for s in supply)):
        cm = sum(1 << j for j in range(m) if state[j])
        if not cm:
            continue
        sub = cm
        while sub:
            count += 1
            sub = (sub - 1) & cm
    return count


def traced(w, fn, *args) -> Tracer:
    tracer = Tracer()
    tracer.install(w)
    try:
        tracer.run_job(0, fn, *args)
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("supply", [(1, 1), (2, 2)])
def test_submask_steps_match_brute_force(w, supply):
    bids = (w.valuations.Additive((1, 2)), w.valuations.UnitDemand((3, 1)),
            w.valuations.Additive((0, 1)))
    n = len(bids)

    def build():
        w.welfare.welfare_max(w.welfare.BidProfile(2, bids), supply)

    summary = traced(w, build).summary()
    assert summary["welfare.table_builds"] == 1
    assert summary["welfare.submask_steps"] == n * fold_iterations(supply)
    assert summary["welfare.table_states"] == (supply[0] + 1) * (supply[1] + 1)

    def leave_one_out():
        w.welfare.welfare_value(w.welfare.BidProfile(2, bids), supply, exclude=1)

    summary = traced(w, leave_one_out).summary()
    assert summary["welfare.submask_steps"] == (n - 1) * fold_iterations(supply)


def make_workload(w, name, tmp_path):
    workload = WORKLOADS[name](w, REPO, tmp_path, seed=3)
    workload.setup()
    return workload


JOBS_PER_TEST = {"poa_grid": 2, "wide_market": 1, "property_suites": 10}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(w, name, tmp_path):
    workload = make_workload(w, name, tmp_path)
    jobs = workload.jobs[:JOBS_PER_TEST[name]]
    plain = types.SimpleNamespace(**workload.entry_points())
    untraced = [workload.run(plain, job) for job in jobs]

    tracer = Tracer()
    tracer.install(w)
    try:
        api = tracer.api(workload.entry_points())
        outputs = [tracer.run_job(job.id, workload.run, api, job) for job in jobs]
    finally:
        tracer.uninstall()
    assert outputs == untraced
    for job, output in zip(jobs, outputs):
        assert workload.check(job, output)[1] is None
    # Every job has one root span, and something below it was traced.
    assert tracer.calls[ROOT_SPAN] == len(jobs)
    assert sum(tracer.calls.values()) > len(jobs)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_add_up_to_job_wall_time(w, name, tmp_path):
    workload = make_workload(w, name, tmp_path)
    tracer = Tracer()
    tracer.install(w)
    try:
        api = tracer.api(workload.entry_points())
        for job in workload.jobs[:JOBS_PER_TEST[name]]:
            before = sum(tracer.layer_self_ns.values())
            tracer.run_job(job.id, workload.run, api, job)
            assert sum(tracer.layer_self_ns.values()) - before == tracer.job_ns[-1]
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    shares = [v for k, v in summary.items() if k.endswith(".self_share")]
    assert sum(shares) + summary["trace.unattributed_share"] == pytest.approx(1.0)


EXACT_COUNTS = ("analysis.profiles", "analysis.equilibria", "mechanisms.run_calls",
                "welfare.table_builds", "welfare.submask_steps",
                "walrasian.tatonnement_steps")


@pytest.mark.parametrize("name", ["poa_grid", "property_suites"])
def test_counts_repeat_at_a_fixed_seed(name, tmp_path):
    summaries = []
    for _ in range(2):
        w = run.import_walras(REPO)  # fresh modules, cold caches
        workload = make_workload(w, name, tmp_path)
        tracer = Tracer()
        tracer.install(w)
        try:
            api = tracer.api(workload.entry_points())
            for job in workload.jobs[:JOBS_PER_TEST[name] - 1]:
                tracer.run_job(job.id, workload.run, api, job)
        finally:
            tracer.uninstall()
        summaries.append({k: tracer.summary()[k] for k in EXACT_COUNTS})
    assert summaries[0] == summaries[1]
    assert summaries[0]["mechanisms.run_calls"] > 0


def test_uninstall_restores_every_patched_name(w):
    before = {m: dict(vars(getattr(w, m))) for m in run.MODULES}
    table = w.valuations.Valuation.table
    tracer = Tracer()
    tracer.install(w)
    assert w.analysis.run_mechanism is not before["analysis"]["run_mechanism"]
    tracer.uninstall()
    assert {m: dict(vars(getattr(w, m))) for m in run.MODULES} == before
    assert w.valuations.Valuation.table is table


def test_tail_has_ten_jobs_beyond_it():
    assert run.tail([5] * 10) is None
    t = run.tail(list(range(1, 101)))
    assert (t["rank"], t["jobs"], t["percentile"]) == (90, 100, 90.0)
    assert t["value_s"] == 90


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "property_suites",
         "--seed", "1", "--seconds", str(run.run_seconds()), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "error:" in proc.stderr
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
