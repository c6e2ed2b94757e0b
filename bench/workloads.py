"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed during set-up, runs one
job at a time (a closed loop with one client) and checks every job's output
after the timed phase.  The program only ever sees the generated inputs:
instance files, ``--seed`` values and ``sample_valuation`` seeds.

* ``poa_grid``: one ``walras poa`` call per job on a two-agent, two-item
  instance with ``--grid-delta 1/4 --grid-cap 2`` (6561 profiles).  Thousands
  of tiny mechanism runs per job, so per-call overhead dominates.
* ``wide_market``: one seeded m=7, n=4 gross-substitutes market per job
  through the library API.  A few calls on large welfare tables.
* ``property_suites``: one ``walras property-test --suite all --seeds 1``
  call per job.  Many small cold calls on fresh valuations.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

RULES = ("vcg", "english", "dutch", "paybid")
GS_KINDS = ("additive", "unit_demand", "oxs")
GRID_DELTA, GRID_CAP = "1/4", "2"
POA_PROFILES = 6561  # (9 * 9) bids per agent, squared
POA_FIXTURES = ("example1_eps_0.125.json", "example2_eps_0.125.json",
                "and_bidder.json")
SUITES = ("lemma_gs", "lemma_xos", "ordering", "smoothness", "lattice")
EXPECTED_FIXTURES = Path(__file__).with_name("expected_fixtures.json")


@dataclass(frozen=True)
class Job:
    id: int
    args: tuple
    fixture: str = ""


@functools.cache
def expected_fixtures() -> dict:
    """``walras poa`` reports of every fixture job, recorded at the commit
    that introduced the benchmark: fixture -> rule -> gamma -> report."""
    return json.loads(EXPECTED_FIXTURES.read_text())


def run_cli(main, argv) -> tuple[int, str]:
    """``walras.cli.main`` in-process, with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


class Workload:
    """Inputs, job and output check of one workload.

    ``w`` holds the imported walras modules; ``api`` (passed to ``run``)
    holds the entry points named by ``entry_points``, wrapped with spans in
    the traced run.
    """

    name = ""
    unit = ""
    trace_jobs = 0
    batch = 1  # the timed phase ends on a multiple of this many jobs

    def __init__(self, w, root: Path, workdir: Path, seed: int):
        self.w = w
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.warmup: Job | None = None
        self.jobs: list[Job] = []

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def warmup_rng(self) -> random.Random:
        """The warm-up job's inputs do not depend on the seed, so set-up
        time does not vary with the cost of a seeded warm-up input."""
        return random.Random(f"{self.name}:warm-up")

    def setup(self) -> None:
        raise NotImplementedError

    def entry_points(self) -> dict:
        return {"main": self.w.cli.main}

    def run(self, api, job: Job):
        raise NotImplementedError

    def check(self, job: Job, output) -> tuple[int, str | None]:
        """(units of work done, problem or None)."""
        raise NotImplementedError

    def emitted_bytes(self, output) -> int:
        """Bytes the program wrote to stdout for a (exit code, stdout) job."""
        return len(output[1].encode())


class PoaGrid(Workload):
    name = "poa_grid"
    unit = "profiles"
    trace_jobs = 8
    batch = len(RULES)  # whole rule cycles, so every run has the same rule mix
    random_instances = 96

    def setup(self) -> None:
        rng = self.rng()
        fixtures = self.root / "src" / "walras" / "fixtures"
        # Every third job is a fixture job; each rule has its six
        # (fixture, gamma) pairs in a seeded order, so no input repeats.
        queues = {}
        for rule in RULES:
            pairs = [(f, g) for f in POA_FIXTURES for g in ("0", "1")]
            rng.shuffle(pairs)
            queues[rule] = pairs
        paths = [self._write_random_instance(self.warmup_rng(), "warm-up")]
        paths += [self._write_random_instance(rng, f"{i:03d}")
                  for i in range(self.random_instances)]
        self.warmup = Job(-1, (paths[0], "paybid", "0"))
        fresh = iter(paths[1:])
        k = 0
        while True:
            rule = RULES[k % len(RULES)]
            if k % 3 == 0 and queues[rule]:
                fixture, gamma = queues[rule].pop()
                self.jobs.append(Job(k, (str(fixtures / fixture), rule, gamma),
                                     fixture))
            else:
                path = next(fresh, None)
                if path is None:
                    break
                self.jobs.append(Job(k, (path, rule, "01"[k // 4 % 2])))
            k += 1

    def _write_random_instance(self, rng: random.Random, tag: str) -> str:
        w = self.w
        bids = tuple(
            w.valuations.sample_valuation(
                rng.choice(GS_KINDS), 2, 2, rng.randrange(1 << 30),
                denominators=(1, 2, 4))
            for _ in range(2))
        instance = w.analysis.Instance(2, w.welfare.BidProfile(2, bids),
                                       name=f"random-{tag}")
        path = self.workdir / f"poa_random_{tag}.json"
        path.write_text(json.dumps(w.instancefile.instance_to_dict(instance)))
        return str(path)

    def run(self, api, job: Job):
        path, rule, gamma = job.args
        return run_cli(api.main, ["poa", path, "--rule", rule, "--gamma", gamma,
                                  "--grid-delta", GRID_DELTA,
                                  "--grid-cap", GRID_CAP])

    def check(self, job: Job, output) -> tuple[int, str | None]:
        w = self.w
        rc, text = output
        if rc != 0:
            return 0, f"exit code {rc}"
        report = json.loads(text)
        if report["profiles_checked"] != POA_PROFILES:
            return 0, f"profiles_checked {report['profiles_checked']}"
        path, rule, _ = job.args
        if job.fixture:
            if report != expected_fixtures()[job.fixture][rule][job.args[2]]:
                return 0, f"{job.fixture} differs from the recorded result"
        if report["witness"] is None:
            if report["equilibrium_count"] != 0 or report["worst_ratio"] != "1":
                return 0, "equilibria reported without a witness"
        else:
            instance = w.instancefile.load_instance(path)
            witness = w.instancefile.instance_from_dict(report["witness"])
            grid = w.analysis.BidGrid.additive(2, 2, GRID_DELTA, GRID_CAP)
            nash = w.analysis.verify_nash(instance, rule, witness.true_valuations, grid)
            if not nash.is_nash:
                return 0, "witness is not a grid Nash equilibrium"
            if w.serialize.jsonable(nash.ratio) != report["worst_ratio"]:
                return 0, "witness ratio differs from the reported worst ratio"
        return report["profiles_checked"], None


@dataclass(frozen=True)
class MarketOutput:
    bids: tuple
    low: tuple
    high: tuple
    allocation: tuple
    verified: tuple
    outcomes: tuple  # (allocation bundles, payments) per rule, in RULES order


class WideMarket(Workload):
    name = "wide_market"
    unit = "markets"
    trace_jobs = 12
    m, n, cap = 7, 4, 4
    markets = 400

    def setup(self) -> None:
        # Every market has one bidder of each kind plus one more, whose kind
        # cycles, so any three consecutive jobs hold the same mix of kinds
        # whatever the seed.
        def market(rng, k):
            kinds = [*GS_KINDS, GS_KINDS[k % len(GS_KINDS)]]
            rng.shuffle(kinds)
            return tuple((kind, rng.randrange(1 << 30)) for kind in kinds)

        rng = self.rng()
        self.warmup = Job(-1, market(self.warmup_rng(), 0))
        self.jobs = [Job(k, market(rng, k)) for k in range(self.markets)]

    def entry_points(self) -> dict:
        w = self.w
        return {
            "sample_valuation": w.valuations.sample_valuation,
            "min_walrasian_prices": w.walrasian.min_walrasian_prices,
            "max_walrasian_prices": w.walrasian.max_walrasian_prices,
            "allocate_declared": w.mechanisms.allocate_declared,
            "verify_walrasian_equilibrium": w.walrasian.verify_walrasian_equilibrium,
            "run_mechanism": w.mechanisms.run_mechanism,
        }

    def run(self, api, job: Job) -> MarketOutput:
        bids = tuple(api.sample_valuation(kind, self.m, self.cap, seed)
                     for kind, seed in job.args)
        profile = self.w.welfare.BidProfile(self.m, bids)
        low = api.min_walrasian_prices(profile)
        high = api.max_walrasian_prices(profile)
        alloc = api.allocate_declared(profile)
        verified = tuple(
            api.verify_walrasian_equilibrium(profile, alloc, p).is_equilibrium
            for p in (low, high))
        outcomes = tuple(api.run_mechanism(rule, profile) for rule in RULES)
        return MarketOutput(bids, low, high, alloc.bundles, verified,
                            tuple((o.allocation.bundles, o.payments)
                                  for o in outcomes))

    def emitted_bytes(self, output) -> int:
        return 0

    def check(self, job: Job, out: MarketOutput) -> tuple[int, str | None]:
        w = self.w
        if not all(out.verified):
            return 0, "a lattice endpoint fails verification"
        if not all(a <= b for a, b in zip(out.low, out.high)):
            return 0, "min prices above max prices"
        if any(bundles != out.allocation for bundles, _ in out.outcomes):
            return 0, "rules disagree on the allocation"
        pays = [p for _, p in out.outcomes]
        for i in range(self.n):
            chain = [p[i] for p in pays]
            if not all(a <= b for a, b in zip(chain, chain[1:])):
                return 0, f"payment chain broken for agent {i}"
        fresh = w.welfare.BidProfile(self.m, out.bids)
        best, _ = w.welfare.welfare_max(fresh, (1,) * self.m)
        declared = sum(b.value(x) for b, x in zip(out.bids, out.allocation))
        if declared != best:
            return 0, "declared welfare of the allocation is not the maximum"
        return 1, None


class PropertySuites(Workload):
    name = "property_suites"
    unit = "draws"
    trace_jobs = 100
    draw_seeds = 4000

    def setup(self) -> None:
        warm = self.warmup_rng().randrange(1 << 30)
        ks = [k for k in self.rng().sample(range(1 << 30), self.draw_seeds + 1)
              if k != warm][:self.draw_seeds]
        self.warmup = Job(-1, (warm,))
        self.jobs = [Job(i, (k,)) for i, k in enumerate(ks)]

    def run(self, api, job: Job):
        return run_cli(api.main, ["property-test", "--suite", "all",
                                  "--seeds", "1", "--seed", str(job.args[0])])

    def check(self, job: Job, output) -> tuple[int, str | None]:
        rc, text = output
        if rc != 0:
            return 0, f"exit code {rc}"
        report = json.loads(text)
        rows = report["suites"]
        if tuple(r["suite"] for r in rows) != SUITES or not report["ok"]:
            return 0, "unexpected suite report"
        if any(r["failures"] or r["runs"] != 1 for r in rows):
            return 0, "a suite reports failures"
        return sum(r["runs"] for r in rows), None


WORKLOADS = {cls.name: cls for cls in (PoaGrid, WideMarket, PropertySuites)}
