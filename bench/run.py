#!/usr/bin/env python3
"""walras benchmark.

    python3 bench/run.py --workload poa_grid --seed 1 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced and traced

One workload runs in this process, single-threaded, as a closed loop with one
client.  Set-up imports walras from ``src/`` of the checkout, generates and
writes the seeded inputs and runs one warm-up job; it is repeated
``SETUP_REPS`` times and ``setup_s`` is the median.  The timed phase then runs
the workload's first ``trace_jobs`` jobs and then more until ``--seconds`` (by
default ``run_seconds`` of ``BENCHMARK.json``) have passed; a traced run ends
after the first ``trace_jobs``.  Every job's output is checked after the timed
phase.  The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the per-layer
metrics with ``--trace 1``).  The lines before it give the metrics by name and
unit, and one ``meta`` line with the run's machine and input facts.

See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

# Standard-library modules walras imports, loaded before set-up is timed so
# that every set-up repetition imports only walras itself.
import csv  # noqa: F401
import contextlib  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import fractions  # noqa: F401
import functools  # noqa: F401
import importlib.resources  # noqa: F401
import io  # noqa: F401
import itertools  # noqa: F401
import random  # noqa: F401

from calibration import PROBE_S, CalibratedClock
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # for confirming a claim on inputs it was not tuned on
SETUP_REPS = 5
TAIL_BEYOND = 10
MODULES = ("valuations", "welfare", "walrasian", "mechanisms", "analysis",
           "suites", "cli", "instancefile", "serialize", "reproduce")
END_TO_END = (("setup_s", "s"), ("work_per_s", "unit/s"), ("job_s_p50", "s"),
              ("peak_rss_mib", "MiB"))


class MissingProgram(RuntimeError):
    """The checkout has no walras sources to benchmark."""


def import_walras(root: Path) -> types.SimpleNamespace:
    """Import (or re-import) the walras modules from ``root/src``."""
    src = root / "src"
    if not (src / "walras" / "__init__.py").is_file():
        raise MissingProgram(f"no walras package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "walras" or n.startswith("walras.")]:
        del sys.modules[name]
    w = types.SimpleNamespace(**{
        name: importlib.import_module(f"walras.{name}") for name in MODULES})
    if not Path(w.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise MissingProgram(f"walras was imported from {w.cli.__file__}, not {src}")
    return w


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it."""
    n = len(latencies)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return None
    return {"value_s": sorted(latencies)[rank - 1],
            "percentile": 100 * rank / n, "rank": rank, "jobs": n}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 root: Path) -> tuple[dict, dict, list[str]]:
    """(result, meta, human-readable lines) of one run."""
    load_start = os.getloadavg()
    workdir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    clock = CalibratedClock()
    try:
        setup_raw = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            w = import_walras(root)
            workload = WORKLOADS[name](w, root, workdir, seed)
            workload.setup()
            workload.run(types.SimpleNamespace(**workload.entry_points()),
                         workload.warmup)
            setup_raw.append(time.perf_counter() - start)
            clock.add(setup_raw[-1])

        # A traced run runs exactly the first trace_jobs jobs, so its counts
        # repeat at a fixed seed.
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install(w)
            api = tracer.api(workload.entry_points())
            jobs = workload.jobs[:workload.trace_jobs]
        else:
            api = types.SimpleNamespace(**workload.entry_points())
            jobs = workload.jobs
        records = []  # (job, output or None, error or None, raw s, clock index)
        emitted = 0
        phase_start = time.perf_counter()
        try:
            for job in jobs:
                if (not trace and len(records) >= workload.trace_jobs
                        and time.perf_counter() - phase_start >= seconds
                        and len(records) % workload.batch == 0):
                    break
                start = time.perf_counter()
                try:
                    if tracer:
                        output = tracer.run_job(job.id, workload.run, api, job)
                        emitted += workload.emitted_bytes(output)
                    else:
                        output = workload.run(api, job)
                    error = None
                except Exception:  # a failing job is counted, and the run goes on
                    output, error = None, traceback.format_exc()
                elapsed = (tracer.job_ns[-1] / 1e9 if tracer and error is None
                           else time.perf_counter() - start)
                records.append((job, output, error, elapsed, clock.add(elapsed)))
                if len(records) == workload.trace_jobs:
                    # Read after a fixed number of jobs: the high-water mark
                    # grows with every job, and how many run in --seconds
                    # depends on the machine's speed.
                    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            if tracer:
                tracer.uninstall()
        phase_s = time.perf_counter() - phase_start
        exhausted = len(records) == len(workload.jobs)
        if tracer:
            tracer.counts["serialize.emit_bytes"] = emitted

        units = 0
        problems = []
        for job, output, error, _, _ in records:
            if error is None:
                try:
                    done, error = workload.check(job, output)
                    units += done
                except Exception:  # a malformed output fails its job
                    error = traceback.format_exc()
            if error is not None:
                problems.append(f"job {job.id} {job.args}: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = [r[3] for r in records]
    cal = [clock.calibrated(r[4]) for r in records]
    setup_cal = [clock.calibrated(i) for i in range(SETUP_REPS)]
    attempted, failed = len(records), len(problems)
    if trace:
        layer = tracer.summary()
        layer["trace.job_s_p50"] = statistics.median(cal)
        metrics = {key: {"value": layer[key], "unit": unit} for key, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_cal),
            "work_per_s": units / sum(cal),
            "job_s_p50": statistics.median(cal),
            "peak_rss_mib": rss_mib,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "work_unit": workload.unit, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(root),
        "loadavg_start": list(load_start),
        "jobs": attempted, "inputs_exhausted": exhausted, "phase_s": phase_s,
        "job_s_tail": tail(cal), "failed_frac": failed / attempted,
        "trace_window_job_s_p50": statistics.median(cal[:workload.trace_jobs]),
        "probe_s": {"nominal": PROBE_S, "median": statistics.median(clock.probes),
                    "min": min(clock.probes), "max": max(clock.probes)},
        "raw": {"setup_s": statistics.median(setup_raw),
                "setup_s_reps": setup_raw,
                "work_per_s": units / sum(raw),
                "job_s_p50": statistics.median(raw),
                "job_s_tail": tail(raw)},
    }
    lines = [f"{name:16} {key:32} {m['value']:<14.6g} {m['unit']}"
             for key, m in metrics.items()]
    if not trace:
        t = meta["job_s_tail"]
        if t:
            lines.append(f"{name:16} {'job_s_tail':32} {t['value_s']:<14.6g} s"
                         f"  (p{t['percentile']:.1f}: rank {t['rank']} of {t['jobs']} jobs)")
        lines.append(f"{name:16} {'failed_frac':32} {meta['failed_frac']:<14.6g} ratio")
        lines.append(f"{name:16} {'work unit':32} {workload.unit}")
    else:
        lines += [f"{name:16} {'self_s.' + layer:32} {s:<14.6g} s"
                  for layer, s in tracer.layer_seconds().items()]
    lines += [f"{name:16} FAILED {p}" for p in problems[:5]]
    return result, meta, lines


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        results, metas = {}, {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            results[trace] = json.loads(lines[-1])
            metas[trace] = json.loads(lines[-2].removeprefix("meta "))
            combined["correct"] &= results[trace]["correct"]
            combined["attempted"] += results[trace]["attempted"]
            combined["failed"] += results[trace]["failed"]
            for key, m in results[trace]["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = m
        # The same first jobs, untraced and traced.
        untraced = metas[0]["trace_window_job_s_p50"]
        traced = results[1]["metrics"]["trace.job_s_p50"]["value"]
        print(f"{name:16} {'trace overhead on job_s_p50':32} "
              f"{traced / untraced - 1:<+14.3%}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def run_seconds() -> int:
    """The measured seconds of one run, as ``BENCHMARK.json`` gives them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result, meta, lines = run_workload(args.workload, args.seed, args.seconds,
                                           bool(args.trace), ROOT)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
