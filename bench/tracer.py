"""Span tracer for the traced benchmark run.

The tracer wraps walras functions at the places they are called from: every
module-level name that one walras module imports from another is replaced, in
the importing module's namespace, by a wrapper that records a span named after
the callee (``mechanisms.run_mechanism`` inside ``walras.analysis``, for
example).  The benchmark's own calls into the library go through wrappers of
the same kind.  A handful of intra-module hooks add the spans and counts the
per-layer metrics need (``Valuation.table``, ``analysis.exposure_factor_bound``,
the two welfare-table builders and the fold step ``welfare._or_step``).

Functions of ``walras.bundles`` and ``walras.money`` are not wrapped: they are
leaf helpers called from inner loops, and their time stays with the caller.

Spans of the running job are kept in memory as ``(name, start_ns, end_ns,
parent, job)`` tuples and folded into per-name and per-layer totals when the
job ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans of a job add up to the job's
root span exactly; the root's own self time is the part no layer claims.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict
from math import prod

ROOT = "bench.job"
LAYERS = ("valuations", "welfare", "walrasian", "mechanisms", "analysis",
          "suites", "cli", "instancefile", "serialize")
LEAF_MODULES = ("walras.bundles", "walras.money")
RULES = ("vcg", "english", "dutch", "paybid")

# (metric, unit) in report order; see ``Tracer.summary`` for definitions.
# ``trace.job_s_p50`` is the calibrated median of the traced jobs, which the
# runner adds.
PER_LAYER = (
    [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [
        ("trace.unattributed_share", "ratio"),
        ("trace.jobs", "count"),
        ("trace.job_s_p50", "s"),
        ("valuations.table_calls", "count"),
        ("valuations.table_miss_ratio", "ratio"),
        ("valuations.gs_check_calls", "count"),
        ("valuations.gs_check_share", "ratio"),
        ("valuations.demand_set_share", "ratio"),
        ("welfare.welfare_max_calls", "count"),
        ("welfare.welfare_max_share", "ratio"),
        ("welfare.value_calls", "count"),
        ("welfare.value_share", "ratio"),
        ("welfare.table_builds", "count"),
        ("welfare.table_hit_ratio", "ratio"),
        ("welfare.submask_steps", "count"),
        ("welfare.table_states", "count"),
        ("walrasian.min_prices_calls", "count"),
        ("walrasian.min_prices_share", "ratio"),
        ("walrasian.max_prices_share", "ratio"),
        ("walrasian.verify_share", "ratio"),
        ("walrasian.tatonnement_share", "ratio"),
        ("walrasian.tatonnement_steps", "count"),
        ("mechanisms.run_calls", "count"),
    ]
    + [(f"mechanisms.run_calls.{rule}", "count") for rule in RULES]
    + [
        ("mechanisms.run_self_share", "ratio"),
        ("mechanisms.ordering_share", "ratio"),
        ("analysis.poa_self_share", "ratio"),
        ("analysis.profiles", "count"),
        ("analysis.equilibria", "count"),
        ("analysis.equilibrium_yield", "ratio"),
        ("analysis.runs_per_profile", "ratio"),
        ("analysis.smoothness_share", "ratio"),
        ("analysis.marginal_sum_share", "ratio"),
        ("analysis.exposure_share", "ratio"),
        ("suites.draws", "count"),
        ("suites.failures", "count"),
        ("cli.main_calls", "count"),
        ("instancefile.load_share", "ratio"),
        ("serialize.emit_bytes", "bytes"),
    ]
)


def span_name(fn) -> str:
    """``layer.function`` for a walras function: the layer is its module."""
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


def submask_steps(clamps) -> int:
    """Inner-loop iterations of one ``welfare._or_step`` call: every state
    with clamp mask ``cm`` (the items present in it) tries each non-empty
    submask of ``cm``, and states with no items are skipped."""
    return sum((1 << cm.bit_count()) - 1 for cm in clamps)


def table_states(supply) -> int:
    return prod(s + 1 for s in supply)


class Tracer:
    """Spans and counts of traced jobs, folded job by job."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.job_ns: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tabulate = None

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def run_job(self, job_id: int, fn, *args):
        """Run one job under a root span and fold its spans into the totals."""
        self.job = job_id
        before = self._tabulate.cache_info() if self._tabulate else None
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            if before is not None:
                after = self._tabulate.cache_info()
                self.counts["valuations.table_calls"] += (
                    after.hits + after.misses - before.hits - before.misses)
                self.counts["valuations.table_misses"] += after.misses - before.misses
            self._fold()

    def _fold(self) -> None:
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child_ns[i]
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += own
            self.layer_self_ns[name.split(".", 1)[0]] += own
            if parent < 0:
                self.job_ns.append(dur)
            elif (name == "mechanisms.run_mechanism"
                  and spans[parent][0] == "analysis.poa_search"):
                self.counts["analysis.poa_runs"] += 1
        spans.clear()

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, w) -> None:
        """Wrap the cross-module call sites of the walras modules in ``w``."""
        hooks = self._result_hooks()
        for module in (w.valuations, w.welfare, w.walrasian, w.mechanisms,
                       w.analysis, w.suites, w.cli, w.instancefile,
                       w.serialize, w.reproduce):
            for attr, fn in list(vars(module).items()):
                home = getattr(fn, "__module__", "") or ""
                if (not isinstance(fn, types.FunctionType)
                        or not home.startswith("walras.")
                        or home == module.__name__ or home in LEAF_MODULES):
                    continue
                name = span_name(fn)
                self._patch(module, attr, self.wrap(name, fn, hooks.get(name)))
        self._patch(w.analysis, "exposure_factor_bound",
                    self.wrap("analysis.exposure_factor_bound",
                              w.analysis.exposure_factor_bound))
        for cls in (w.valuations.Valuation, w.valuations.Tabular):
            self._patch(cls, "table",
                        self.wrap("valuations.table", vars(cls)["table"]))
        self._patch(w.welfare, "or_value_table",
                    self._count_builds(w.welfare.or_value_table))
        self._patch(w.welfare, "_suffix_levels",
                    self._count_builds(w.welfare._suffix_levels))
        self._patch(w.welfare, "_or_step", self._count_steps(w.welfare._or_step))
        self._tabulate = w.valuations._tabulate

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._tabulate = None

    def api(self, functions: dict) -> types.SimpleNamespace:
        """Wrapped versions of the entry points the benchmark calls."""
        hooks = self._result_hooks()
        return types.SimpleNamespace(**{
            attr: self.wrap(span_name(fn), fn, hooks.get(span_name(fn)))
            for attr, fn in functions.items()})

    def _result_hooks(self) -> dict:
        counts = self.counts

        def poa(report):
            counts["analysis.profiles"] += report.profiles_checked
            counts["analysis.equilibria"] += report.equilibrium_count

        def tatonnement(result):
            counts["walrasian.tatonnement_steps"] += result.steps

        def suites(reports):
            counts["suites.draws"] += sum(r.runs for r in reports)
            counts["suites.failures"] += sum(r.failures for r in reports)

        def run(outcome):
            counts[f"mechanisms.run_calls.{outcome.rule.value}"] += 1

        return {"analysis.poa_search": poa,
                "walrasian.tatonnement": tatonnement,
                "suites.run_suites": suites,
                "mechanisms.run_mechanism": run}

    def _count_builds(self, fn):
        """Count the calls of a welfare-table builder that grew the profile
        cache, with the states of each table built."""
        counts = self.counts

        def counted(profile, supply, *rest):
            before = len(profile._cache)
            result = fn(profile, supply, *rest)
            counts["welfare.table_lookups"] += 1
            if len(profile._cache) > before:
                counts["welfare.table_builds"] += 1
                counts["welfare.table_states"] += table_states(supply)
            return result

        return counted

    def _count_steps(self, fn):
        """Count the submask steps of every fold, from its clamps argument."""
        counts = self.counts

        def counted(tab, cur, size, ssum, clamps):
            counts["welfare.submask_steps"] += submask_steps(clamps)
            return fn(tab, cur, size, ssum, clamps)

        return counted

    # -- report --------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Every per-layer metric over the folded jobs, keyed as PER_LAYER."""
        wall = sum(self.job_ns)
        counts = self.counts

        def share(ns: int) -> float:
            return ns / wall if wall else 0.0

        def ratio(a: int, b: int) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_share"] = share(self.layer_self_ns[layer])
        out["trace.unattributed_share"] = share(self.layer_self_ns["bench"])
        out["trace.jobs"] = len(self.job_ns)
        out["valuations.table_calls"] = counts["valuations.table_calls"]
        out["valuations.table_miss_ratio"] = ratio(
            counts["valuations.table_misses"], counts["valuations.table_calls"])
        out["valuations.gs_check_calls"] = self.calls["valuations.is_gross_substitutes"]
        out["valuations.gs_check_share"] = share(
            self.total_ns["valuations.is_gross_substitutes"])
        out["valuations.demand_set_share"] = share(self.total_ns["valuations.demand_set"])
        out["welfare.welfare_max_calls"] = self.calls["welfare.welfare_max"]
        out["welfare.welfare_max_share"] = share(self.total_ns["welfare.welfare_max"])
        out["welfare.value_calls"] = self.calls["welfare.welfare_value"]
        out["welfare.value_share"] = share(self.total_ns["welfare.welfare_value"])
        out["welfare.table_builds"] = counts["welfare.table_builds"]
        out["welfare.table_hit_ratio"] = ratio(
            counts["welfare.table_lookups"] - counts["welfare.table_builds"],
            counts["welfare.table_lookups"])
        out["welfare.submask_steps"] = counts["welfare.submask_steps"]
        out["welfare.table_states"] = counts["welfare.table_states"]
        out["walrasian.min_prices_calls"] = self.calls["walrasian.min_walrasian_prices"]
        out["walrasian.min_prices_share"] = share(
            self.total_ns["walrasian.min_walrasian_prices"])
        out["walrasian.max_prices_share"] = share(
            self.total_ns["walrasian.max_walrasian_prices"])
        out["walrasian.verify_share"] = share(
            self.total_ns["walrasian.verify_walrasian_equilibrium"])
        out["walrasian.tatonnement_share"] = share(self.total_ns["walrasian.tatonnement"])
        out["walrasian.tatonnement_steps"] = counts["walrasian.tatonnement_steps"]
        out["mechanisms.run_calls"] = self.calls["mechanisms.run_mechanism"]
        for rule in RULES:
            out[f"mechanisms.run_calls.{rule}"] = counts[f"mechanisms.run_calls.{rule}"]
        out["mechanisms.run_self_share"] = share(self.self_ns["mechanisms.run_mechanism"])
        out["mechanisms.ordering_share"] = share(
            self.total_ns["mechanisms.check_payment_ordering"])
        out["analysis.poa_self_share"] = share(self.self_ns["analysis.poa_search"])
        out["analysis.profiles"] = counts["analysis.profiles"]
        out["analysis.equilibria"] = counts["analysis.equilibria"]
        out["analysis.equilibrium_yield"] = ratio(counts["analysis.equilibria"],
                                                  counts["analysis.profiles"])
        out["analysis.runs_per_profile"] = ratio(counts["analysis.poa_runs"],
                                                 counts["analysis.profiles"])
        out["analysis.smoothness_share"] = share(
            self.total_ns["analysis.smoothness_certificate"])
        out["analysis.marginal_sum_share"] = share(
            self.total_ns["analysis.marginal_sum_bound"])
        out["analysis.exposure_share"] = share(
            self.total_ns["analysis.exposure_factor_bound"])
        out["suites.draws"] = counts["suites.draws"]
        out["suites.failures"] = counts["suites.failures"]
        out["cli.main_calls"] = self.calls["cli.main"]
        out["instancefile.load_share"] = share(self.total_ns["instancefile.load_instance"])
        out["serialize.emit_bytes"] = counts["serialize.emit_bytes"]
        return out

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per layer, with the unattributed remainder as 'bench'."""
        return {layer: ns / 1e9 for layer, ns in sorted(self.layer_self_ns.items())}
