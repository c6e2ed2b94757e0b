"""Command-line front end.

Subcommands: solve, prices, mechanism, verify-nash, poa, property-test,
reproduce.  Every numeric output is an exact decimal or fraction string.
Exit codes: 0 success, 1 assertion or property failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from .analysis import (BidGrid, EnumerationBudgetExceeded, count_profiles,
                       poa_search, verify_nash)
from .bundles import iter_bits, ms_ones
from .instancefile import InstanceFormatError, load_instance
from .mechanisms import PaymentRule, allocate_declared, run_mechanism
from .money import format_money
from .reproduce import CASES, run_case
from .serialize import jsonable
from .suites import _SUITES, run_suites
from .walrasian import (
    max_walrasian_prices,
    min_walrasian_prices,
    verify_walrasian_equilibrium,
)
from .welfare import BidProfile, welfare_max


def _emit(payload) -> None:
    print(json.dumps(jsonable(payload), indent=2, sort_keys=True))


def _emit_csv(header, rows) -> None:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(out.getvalue())


def _grid_args(instance, args) -> tuple | None:
    """The arguments of ``BidGrid.additive`` that --grid-delta and --grid-cap
    give, or None for the instance's default grid."""
    if args.grid_delta is not None and args.grid_cap is not None:
        return instance.m, instance.n, args.grid_delta, args.grid_cap
    if args.grid_delta is not None or args.grid_cap is not None:
        raise InstanceFormatError("--grid-delta and --grid-cap go together")
    return None


def _grid_for(instance, args) -> BidGrid:
    grid = _grid_args(instance, args)
    return BidGrid.default_for(instance) if grid is None else BidGrid.additive(*grid)


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    value, bundles = welfare_max(instance.true_valuations, ms_ones(instance.m))
    _emit({"welfare": value,
           "allocation": [list(iter_bits(b)) for b in bundles]})
    return 0


def _cmd_prices(args) -> int:
    instance = load_instance(args.instance)
    profile = instance.true_valuations
    low = min_walrasian_prices(profile)
    high = max_walrasian_prices(profile)
    alloc = allocate_declared(profile)
    _emit({
        "min_prices": low,
        "max_prices": high,
        "allocation": alloc,
        "min_verified": verify_walrasian_equilibrium(profile, alloc, low),
        "max_verified": verify_walrasian_equilibrium(profile, alloc, high),
    })
    return 0


def _cmd_mechanism(args) -> int:
    instance = load_instance(args.instance)
    _emit(run_mechanism(args.rule, instance.true_valuations))
    return 0


def _load_bids(args, instance) -> BidProfile:
    if args.bids:
        bid_instance = load_instance(args.bids)
        if bid_instance.m != instance.m or bid_instance.n != instance.n:
            raise InstanceFormatError("bid profile shape does not match instance")
        return bid_instance.true_valuations
    return instance.true_valuations


def _cmd_verify_nash(args) -> int:
    instance = load_instance(args.instance)
    profile = _load_bids(args, instance)
    _emit(verify_nash(instance, args.rule, profile, _grid_for(instance, args),
                      args.eps_dev))
    return 0


def _cmd_poa(args) -> int:
    instance = load_instance(args.instance)
    grid = _grid_args(instance, args)
    if grid is not None:  # refused on its size before any bid is built
        count_profiles(BidGrid.additive_sizes(*grid))
    report = poa_search(instance, args.rule, _grid_for(instance, args),
                        args.gamma, eps_dev=args.eps_dev, jobs=args.jobs)
    if args.format == "csv":
        _emit_csv(["instance", "rule", "gamma", "ratio", "witness", "equilibria",
                   "profiles"], [[
            instance.name or args.instance,
            report.rule.value,
            format_money(report.gamma),
            jsonable(report.worst_ratio),
            json.dumps(jsonable(report.witness)) if report.witness else "",
            report.equilibrium_count,
            report.profiles_checked,
        ]])
    else:
        _emit(report)
    return 0


def _cmd_property_test(args) -> int:
    reports = run_suites(args.suite, args.seeds, args.seed)
    rows = [{"suite": r.name, "runs": r.runs, "failures": r.failures,
             "first_counterexample": r.first_failure, "detail": r.detail}
            for r in reports]
    if args.format == "csv":
        _emit_csv(["suite", "runs", "failures", "first_counterexample"],
                  ([row["suite"], row["runs"], row["failures"],
                    json.dumps(row["first_counterexample"])] for row in rows))
    else:
        _emit({"suites": rows, "ok": all(r.ok for r in reports)})
    return 0 if all(r.ok for r in reports) else 1


def _cmd_reproduce(args) -> int:
    ok, report = run_case(args.case)
    _emit(report)
    return 0 if ok else 1


@cache  # built once per process: main runs it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walras",
        description="Exact desk laboratory for market-clearing auction "
                    "mechanisms over indivisible items.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, *, rule=False, grid=False):
        """A subcommand on one instance file.  Money flags stay strings: the
        library parses them exactly and a bad value exits 2 via main."""
        p = sub.add_parser(name, help=help)
        p.add_argument("instance")
        if rule:
            p.add_argument("--rule", choices=[r.value for r in PaymentRule],
                           default="english")
        if grid:
            p.add_argument("--grid-delta", help="bid grid step (exact rational)")
            p.add_argument("--grid-cap", help="bid grid per-item cap")
            p.add_argument("--eps-dev", default="0",
                           help="deviation tolerance, default 0")
        p.set_defaults(handler=handler)
        return p

    add("solve", _cmd_solve, "exact declared-welfare maximum")
    add("prices", _cmd_prices, "price lattice endpoints + verification")
    add("mechanism", _cmd_mechanism, "run one payment rule", rule=True)
    p = add("verify-nash", _cmd_verify_nash, "grid deviation check of a profile",
            rule=True, grid=True)
    p.add_argument("--bids", help="bid profile file; default: truthful")
    p = add("poa", _cmd_poa, "exhaustive grid equilibrium/ratio search",
            rule=True, grid=True)
    p.add_argument("--gamma", default="0", help="exposure-factor budget, default 0")
    p.add_argument("--jobs", type=int, default=1,
                   help="grid chunks in min(chunks, CPUs) processes, one inline; default 1")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("property-test", help="seeded exact property suites")
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p.add_argument("--seeds", type=int, default=100,
                   help="number of seeded runs per suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_property_test)

    p = sub.add_parser("reproduce", help="scripted desk scenarios")
    p.add_argument("case", choices=list(CASES))
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InstanceFormatError, FileNotFoundError, ValueError,
            EnumerationBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
