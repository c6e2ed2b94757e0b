"""Scripted desk scenarios over the shipped fixtures.

Each case replays one known construction (overbidding gain, demand
reduction, miscoordination, bullying, the payment-ranking family), asserts
its exact facts, and returns a machine-readable report.  Facts that a source
states only loosely are recomputed from scratch and reported with the
recomputed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    BidGrid,
    Instance,
    exposure_factor_bound,
    verify_nash,
)
from .instancefile import (
    eval_money_expr,
    fixture_path,
    instance_from_dict,
    load_fixture,
    read_json,
)
from .mechanisms import (
    PaymentRule,
    check_payment_ordering,
    run_mechanism,
    search_vcg_english_inversion,
    utility,
)
from .money import ZERO, format_money
from .suites import ordering_suite
from .valuations import UnitDemand, Additive, valuation_from_json
from .walrasian import min_walrasian_prices
from .welfare import BidProfile, assignment_value, welfare_max
from .bundles import ms_ones


@dataclass
class Fact:
    name: str
    expected: str
    actual: str
    ok: bool


class _Recorder:
    def __init__(self):
        self.facts: list[Fact] = []

    def check(self, name, expected, actual) -> bool:
        ok = expected == actual
        self.facts.append(Fact(name, _show(expected), _show(actual), ok))
        return ok

    def check_that(self, name, condition, detail="") -> bool:
        self.facts.append(Fact(name, "true", detail or str(bool(condition)).lower(),
                               bool(condition)))
        return bool(condition)

    def report(self, case) -> tuple[bool, dict]:
        ok = all(f.ok for f in self.facts)
        failing = [f.name for f in self.facts if not f.ok]
        return ok, {
            "case": case,
            "ok": ok,
            "first_failure": failing[0] if failing else None,
            "facts": [vars(f) for f in self.facts],
        }


def _show(x) -> str:
    if isinstance(x, Fraction):
        return format_money(x)
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(_show(v) for v in x) + ")"
    return str(x)


EPS = Fraction(1, 8)  # the epsilon every parametric case is stated at


def _load_case(name: str) -> tuple[Instance, dict]:
    """A fixture's instance at ``EPS`` and its metadata, from one read."""
    data = read_json(fixture_path(name))
    return instance_from_dict(data, epsilon=EPS), data.get("metadata", {})


def _expected(meta: dict, key: str):
    return eval_money_expr(meta["expected"][key], EPS)


def _grid(instance: Instance, meta: dict) -> BidGrid:
    """The additive bid grid a case's metadata states, at ``EPS``."""
    return BidGrid.additive(instance.m, instance.n,
                            eval_money_expr(meta["grid"]["delta"], EPS),
                            eval_money_expr(meta["grid"]["cap"], EPS))


def run_case(case: str) -> tuple[bool, dict]:
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; choose from {CASES}")
    return _HANDLERS[case]()


def _case_overbidding():
    rec = _Recorder()
    instance, meta = _load_case("appendix_overbidding.json")
    truthful = instance.true_valuations

    value, bundles = welfare_max(truthful, ms_ones(instance.m))
    rec.check("truthful welfare", _expected(meta, "optimal_welfare"), value)
    rec.check("truthful allocation", (0b101, 0b010, 0), bundles)

    prices = min_walrasian_prices(truthful)
    per_item = _expected(meta, "truthful_price_per_item")
    rec.check("truthful minimum prices", (per_item,) * 3, prices)

    out = run_mechanism(PaymentRule.ENGLISH, truthful)
    u_truthful = utility(truthful.bids[0], out, 0)
    rec.check("truthful utility of the overbidder",
              _expected(meta, "truthful_utility_agent0"), u_truthful)

    dev_bid = valuation_from_json(meta["deviation"]["valuation"])
    deviated = truthful.replace(meta["deviation"]["agent"], dev_bid)
    rec.check("allocation unchanged under the deviation",
              bundles, welfare_max(deviated, ms_ones(instance.m))[1])
    dev_prices = min_walrasian_prices(deviated)
    rec.check("deviation prices",
              tuple(eval_money_expr(p) for p in meta["expected"]["deviation_prices"]),
              dev_prices)
    out_dev = run_mechanism(PaymentRule.ENGLISH, deviated)
    u_dev = utility(truthful.bids[0], out_dev, 0)
    rec.check_that("overbidding strictly profitable", u_dev > u_truthful,
                   f"utility moves {format_money(u_truthful)} -> {format_money(u_dev)}")
    # recomputed from the formulas: value 6 on the won pair minus payment 1
    rec.check("deviation utility, recomputed", Fraction(5), u_dev)
    return rec.report("overbidding")


def _case_example1():
    rec = _Recorder()
    instance, meta = _load_case("example1_eps_0.125.json")
    grid = _grid(instance, meta)

    opt, _ = instance.optimal()
    rec.check("optimal welfare", _expected(meta, "optimal_welfare"), opt)

    truthful_report = verify_nash(instance, PaymentRule.ENGLISH,
                                  instance.true_valuations, grid)
    rec.check_that("truthful report is not grid-Nash",
                   not truthful_report.is_nash,
                   f"best gain {_show(max(r.gain for r in truthful_report.deviations))}")

    dev_bid = valuation_from_json(meta["deviation"]["valuation"],
                                  number=lambda x: eval_money_expr(x, EPS))
    agent = meta["deviation"]["agent"]
    base_out = run_mechanism(PaymentRule.ENGLISH, instance.true_valuations)
    u_before = utility(instance.true_valuations.bids[agent], base_out, agent)
    dev_profile = instance.true_valuations.replace(agent, dev_bid)
    dev_out = run_mechanism(PaymentRule.ENGLISH, dev_profile)
    u_after = utility(instance.true_valuations.bids[agent], dev_out, agent)
    rec.check_that("named demand reduction strictly improves", u_after > u_before,
                   f"{format_money(u_before)} -> {format_money(u_after)}")

    nash_report = verify_nash(instance, PaymentRule.ENGLISH, dev_profile, grid)
    rec.check_that("demand-reduction profile is grid-Nash", nash_report.is_nash)
    rec.check("equilibrium welfare", _expected(meta, "equilibrium_welfare"),
              nash_report.welfare)
    rec.check_that("welfare ratio at least 1.28",
                   nash_report.ratio >= Fraction(128, 100),
                   f"ratio {_show(nash_report.ratio)}")
    return rec.report("example1")


def _case_example2():
    rec = _Recorder()
    instance, meta = _load_case("example2_eps_0.125.json")
    grid = _grid(instance, meta)
    mis = BidProfile(instance.m, tuple(
        valuation_from_json(b) for b in meta["miscoordination_bids"]))

    report = verify_nash(instance, PaymentRule.ENGLISH, mis, grid)
    rec.check_that("miscoordination is grid-Nash", report.is_nash)
    rec.check("equilibrium welfare", _expected(meta, "equilibrium_welfare"),
              report.welfare)
    rec.check("optimal welfare", _expected(meta, "optimal_welfare"),
              report.optimal_welfare)
    bounds = tuple(exposure_factor_bound(v, b)
                   for v, b in zip(instance.true_valuations.bids, mis.bids))
    rec.check("exposure of the miscoordination bids", (ZERO, ZERO), bounds)
    rec.check_that("ratio at least 2 - 2*eps",
                   report.ratio >= 2 - 2 * EPS, f"ratio {_show(report.ratio)}")

    gamma = Fraction(1)
    lo = 2 / (2 + gamma)
    v1 = UnitDemand((2 - EPS, lo))
    v2 = UnitDemand((lo, 2 - EPS))
    overbid = 2 * (1 + gamma) / (2 + gamma)
    bids = BidProfile(2, (Additive((ZERO, overbid)), Additive((overbid, ZERO))))
    variant = Instance(2, BidProfile(2, (v1, v2)), name="example2-gamma1")
    bounds = tuple(exposure_factor_bound(v, b)
                   for v, b in zip(variant.true_valuations.bids, bids.bids))
    rec.check("exposure of the gamma-variant bids", (gamma, gamma), bounds)
    out = run_mechanism(PaymentRule.ENGLISH, bids)
    welfare = assignment_value(variant.true_valuations, out.allocation.bundles)
    ratio = (4 - 2 * EPS) / welfare
    rec.check_that("gamma-variant ratio at least (2+gamma)(1-eps)",
                   ratio >= (2 + gamma) * (1 - EPS), f"ratio {_show(ratio)}")
    return rec.report("example2")


def _case_bullying():
    rec = _Recorder()
    instance, meta = _load_case("bullying.json")
    bids = BidProfile(instance.m, tuple(
        valuation_from_json(b) for b in meta["aggressive_bids"]))

    out = run_mechanism(PaymentRule.VCG, bids)
    rec.check("winner", (0, 1), out.allocation.bundles)
    rec.check("payments", (ZERO, ZERO), out.payments)
    welfare = assignment_value(instance.true_valuations, out.allocation.bundles)
    rec.check("equilibrium welfare", _expected(meta, "equilibrium_welfare"),
              welfare)
    rec.check("optimal welfare", _expected(meta, "optimal_welfare"),
              instance.optimal()[0])
    report = verify_nash(instance, PaymentRule.VCG, bids,
                         BidGrid.default_for(instance))
    rec.check_that("aggressive profile is grid-Nash", report.is_nash)
    bound = exposure_factor_bound(instance.true_valuations.bids[1], bids.bids[1])
    rec.check_that("bully carries a large exposure factor", bound >= 1,
                   f"bound {_show(bound)}")
    return rec.report("bullying")


def _case_payment_ranking():
    rec = _Recorder()
    instance = load_fixture("payment_ranking.json")
    ranking = check_payment_ordering(instance.true_valuations)
    rec.check_that("ranking report computed on the submodular instance",
                   len(ranking.payments_by_rule) == 4,
                   f"chain_ok={ranking.chain_ok}")
    gs = ordering_suite(runs=50, seed=7)
    rec.check_that("ranking chain exact on 50 GS profiles", gs.ok,
                   f"failures {gs.failures}")
    search = search_vcg_english_inversion()
    rec.check_that("family search completed",
                   search.instances_checked > 0,
                   f"checked {search.instances_checked}, "
                   f"externality-above-english witness "
                   f"{'found' if search.witness_found else 'not found'}")
    return rec.report("payment-ranking")


_HANDLERS = {
    "example1": _case_example1,
    "example2": _case_example2,
    "overbidding": _case_overbidding,
    "bullying": _case_bullying,
    "payment-ranking": _case_payment_ranking,
}
CASES = tuple(_HANDLERS)
