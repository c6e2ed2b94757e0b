import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from walras.analysis import (BidGrid, EnumerationBudgetExceeded, MAX_PROFILES,
                             count_profiles)
from walras.cli import build_parser, main
from walras.instancefile import (
    InstanceFormatError,
    eval_money_expr,
    fixture_path,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    read_json,
)
from fractions import Fraction as F


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(fixture_path(name))


def test_solve_overbidding_fixture(capsys):
    code, out, _ = run_cli(capsys, "solve", fixture("appendix_overbidding.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["welfare"] == "8"
    assert payload["allocation"] == [[0, 2], [1], []]


def test_solve_demand_reduction_fixture(capsys):
    code, out, _ = run_cli(capsys, "solve", fixture("example1_eps_0.125.json"))
    assert code == 0
    assert json.loads(out)["welfare"] == "4"


def test_solve_single_zero_bidder(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "m": 2,
        "players": [{"valuation": {"type": "additive", "weights": ["0", "0"]}}],
    }))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert json.loads(out)["welfare"] == "0"


def test_prices_subcommand(capsys):
    code, out, _ = run_cli(capsys, "prices", fixture("appendix_overbidding.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["min_prices"] == ["1", "1", "1"]
    assert payload["min_verified"]["is_equilibrium"]
    assert payload["max_verified"]["is_equilibrium"]


def test_prices_reports_failure_for_the_pair_bidder(capsys):
    code, out, _ = run_cli(capsys, "prices", fixture("and_bidder.json"))
    assert code == 0
    payload = json.loads(out)
    assert not payload["min_verified"]["is_equilibrium"]


@pytest.mark.parametrize("rule,expected", [
    ("english", ["2", "1", "0"]),
    ("vcg", ["1", "1", "0"]),
    ("dutch", ["6", "2", "0"]),
    ("paybid", ["6", "2", "0"]),
])
def test_mechanism_rules(capsys, rule, expected):
    code, out, _ = run_cli(capsys, "mechanism",
                           fixture("appendix_overbidding.json"), "--rule", rule)
    assert code == 0
    assert json.loads(out)["payments"] == expected


def test_verify_nash_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify-nash",
                           fixture("example1_eps_0.125.json"),
                           "--rule", "english",
                           "--grid-delta", "1/8", "--grid-cap", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_nash"] is False
    assert payload["welfare"] == "4"


def test_verify_nash_runs_a_default_grid_over_the_poa_budget(capsys):
    """verify-nash checks one profile, so its grid may hold more profiles
    than poa's budget: appendix_overbidding's default grid has 125 bids for
    each of its three agents, 1,953,125 profiles."""
    instance = load_instance(fixture("appendix_overbidding.json"))
    sizes = BidGrid.default_for(instance).sizes()
    assert sizes == (125,) * 3 and 125 ** 3 > MAX_PROFILES
    with pytest.raises(EnumerationBudgetExceeded):
        count_profiles(sizes)
    code, out, _ = run_cli(capsys, "verify-nash", fixture("appendix_overbidding.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_nash"] is False and payload["welfare"] == "8"


def test_poa_subcommand_json_and_csv(capsys):
    args = ("poa", fixture("example2_eps_0.125.json"), "--rule", "vcg",
            "--grid-delta", "1/4", "--grid-cap", "2")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["worst_ratio"] == "1.875"
    assert payload["equilibrium_count"] > 0

    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("instance,rule,gamma,ratio")
    assert row.startswith("example2,vcg,0,1.875")


def test_poa_rejects_jobs_below_one(capsys):
    code, out, err = run_cli(capsys, "poa", fixture("example2_eps_0.125.json"),
                             "--grid-delta", "1/2", "--grid-cap", "1",
                             "--jobs", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "jobs" in err


@pytest.mark.parametrize("argv, message", [
    (("poa", "X", "--gamma", "-1"), "gamma must be non-negative, got -1"),
    (("poa", "X", "--eps-dev", "-1"),
     "deviation tolerance must be non-negative, got -1"),
    (("verify-nash", "X", "--eps-dev=-1/2"),
     "deviation tolerance must be non-negative, got -0.5"),
    (("poa", "X", "--grid-delta", "1", "--grid-cap=-1"),
     "grid cap must be non-negative, got -1"),
    (("property-test", "--suite", "ordering", "--seeds", "-3"),
     "runs must be at least 1, got -3"),
    (("property-test", "--suite", "ordering", "--seeds", "0"),
     "runs must be at least 1, got 0"),
    (("poa", "X", "--grid-delta", "1/2"), "--grid-delta and --grid-cap go together"),
    (("verify-nash", "X", "--bids", fixture("appendix_overbidding.json")),
     "bid profile shape does not match instance"),
])
def test_out_of_range_inputs_exit_2_naming_the_input(argv, message, capsys):
    argv = tuple(fixture("example2_eps_0.125.json") if a == "X" else a
                 for a in argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_an_oversize_grid_exits_2_before_it_is_scaled(capsys, monkeypatch):
    from walras.analysis import _Scaled

    def no_scaling(*args, **kwargs):
        raise AssertionError("the grid was scaled before the budget check")

    monkeypatch.setattr(_Scaled, "of", no_scaling)
    code, out, err = run_cli(capsys, "poa", fixture("example2_eps_0.125.json"),
                             "--grid-delta", "1/300", "--grid-cap", "1")
    assert code == 2 and out == ""
    assert err == ("error: 8208541201 grid profiles exceed the budget "
                   "of 200000\n")


def test_an_oversize_grid_exits_2_before_a_bid_is_built(capsys, monkeypatch):
    # 301^2 = 90,601 bids per agent fit the budget; their square does not.
    import walras.analysis as analysis

    def no_bids(*args, **kwargs):
        raise AssertionError("a grid bid was built")

    monkeypatch.setattr(analysis, "Additive", no_bids)
    code, out, err = run_cli(capsys, "poa", fixture("example2_eps_0.125.json"),
                             "--grid-delta", "1/300", "--grid-cap", "1")
    assert code == 2 and out == ""
    assert err == ("error: 8208541201 grid profiles exceed the budget "
                   "of 200000\n")
    assert analysis.BidGrid.additive_sizes(2, 2, "1/300", 1) == (301 ** 2,) * 2


def test_the_profile_budget_holds_at_its_edge():
    # 200,000 bids per agent or grid profiles fit the budget; one more does not.
    assert BidGrid.additive_sizes(1, 1, 1, 199_999) == (MAX_PROFILES,)
    with pytest.raises(EnumerationBudgetExceeded,
                       match="m=1 give 200001 bids per agent, over 200000$"):
        BidGrid.additive_sizes(1, 1, 1, 200_000)
    assert count_profiles((400, 500)) == MAX_PROFILES
    with pytest.raises(EnumerationBudgetExceeded,
                       match="^200400 grid profiles exceed the budget of 200000$"):
        count_profiles((400, 501))


def test_solve_takes_sixteen_items_and_refuses_seventeen(tmp_path, capsys):
    path = tmp_path / "wide.json"
    for n in (1, 2):
        for m in (16, 17):
            weights = [[k % 3 + i for k in range(m)] for i in range(n)]
            path.write_text(json.dumps({"m": m, "players": [
                {"valuation": {"type": "additive", "weights": [str(w) for w in row]}}
                for row in weights]}))
            code, out, err = run_cli(capsys, "solve", str(path))
            if m == 16:
                assert code == 0 and err == ""
                assert json.loads(out)["welfare"] == str(sum(map(max, zip(*weights))))
            else:
                assert code == 2 and out == ""
                assert err == "error: m must be an integer in 1..16\n"


def test_an_infinite_worst_ratio_prints_inf(capsys, tmp_path):
    # Bidder 0 values nothing and takes the item when both bid 0; with a
    # wide tolerance that profile is an equilibrium of welfare zero.
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"m": 1, "players": [
        {"valuation": {"type": "additive", "weights": [w]}} for w in ("0", "1")]}))
    args = ("poa", str(path), "--grid-delta", "1", "--grid-cap", "1",
            "--eps-dev", "5", "--gamma", "5")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["worst_ratio"] == "inf"
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0 and out.splitlines()[1].split(",")[3] == "inf"


def test_a_grid_that_does_not_fit_the_instance_exits_2(capsys, monkeypatch):
    import walras.cli as cli
    from walras.analysis import BidGrid

    monkeypatch.setattr(cli, "_grid_for",
                        lambda instance, args: BidGrid.additive(3, instance.n, 1, 1))
    for command in ("poa", "verify-nash"):
        code, out, err = run_cli(capsys, command, fixture("example2_eps_0.125.json"))
        assert code == 2 and out == ""
        assert err == ("error: grid bid 0 of agent 0 is over 3 items, "
                       "the instance has 2\n")


def test_bad_money_flag_exits_2(capsys):
    path = fixture("example2_eps_0.125.json")
    for argv in (("poa", path, "--gamma", "x"),
                 ("poa", path, "--grid-delta", "1/0", "--grid-cap", "1"),
                 ("verify-nash", path, "--eps-dev", "0.1.2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: not an exact rational")


@pytest.mark.parametrize("argv", [
    ("solve", "X", "--jobs", "2"),
    ("solve", "X", "--jobs", "99", "--seed", "4", "--format", "csv"),
    ("prices", "X", "--format", "csv"),
    ("mechanism", "X", "--seed", "1"),
    ("verify-nash", "X", "--format", "csv"),
    ("verify-nash", "X", "--jobs", "2"),
    ("poa", "X", "--seed", "1"),
    ("property-test", "--jobs", "2"),
    ("reproduce", "example1", "--format", "csv"),
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    argv = tuple(fixture("example2_eps_0.125.json") if a == "X" else a
                 for a in argv)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    # A reused parser starts every parse afresh: no value carries over.
    assert run_cli(capsys, "mechanism", fixture("example2_eps_0.125.json"),
                   "--rule", "vcg")[0] == 0
    code, out, _ = run_cli(capsys, "mechanism", fixture("example2_eps_0.125.json"))
    assert code == 0 and json.loads(out)["rule"] == "english"


def test_property_test_subcommand(capsys):
    code, out, _ = run_cli(capsys, "property-test", "--suite", "lattice",
                           "--seeds", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["failures"] == 0


def test_property_test_deterministic_output(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "property-test", "--suite", "lemmas",
                               "--seeds", "5", "--seed", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("case", ["overbidding", "example1", "example2",
                                  "bullying", "payment-ranking"])
def test_reproduce_cases(capsys, case):
    code, out, _ = run_cli(capsys, "reproduce", case)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["first_failure"] is None


def test_bad_instance_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "solve", str(missing))
    assert code == 2 and "error" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, _, err = run_cli(capsys, "solve", str(garbage))
    assert code == 2

    oversize = tmp_path / "oversize.json"
    oversize.write_text(json.dumps({
        "m": 99,
        "players": [{"valuation": {"type": "additive", "weights": ["1"] * 99}}],
    }))
    code, _, err = run_cli(capsys, "solve", str(oversize))
    assert code == 2


def test_non_monotone_tabular_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "m": 2,
        "players": [{"valuation": {"type": "tabular",
                                   "values": ["0", "2", "1", "1"]}}],
    }))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and "monotone" in err


def test_a_tabular_bid_worth_something_at_the_empty_bundle_exits_2(tmp_path, capsys):
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps({
        "m": 2,
        "players": [{"valuation": {"type": "tabular", "values": ["1", "1", "1", "2"]}},
                    {"valuation": {"type": "additive", "weights": ["1/2", "1/2"]}}],
    }))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and out == "" and "player 0" in err


def test_fixture_dir_override(tmp_path, monkeypatch, capsys):
    shutil.copy(fixture("bullying.json"), tmp_path / "bullying.json")
    monkeypatch.setenv("WALRAS_FIXTURES", str(tmp_path))
    code, out, _ = run_cli(capsys, "reproduce", "bullying")
    assert code == 0
    monkeypatch.setenv("WALRAS_FIXTURES", str(tmp_path / "missing"))
    with pytest.raises(FileNotFoundError):
        fixture_path("bullying.json")


def test_instance_round_trip():
    for name in ("appendix_overbidding.json", "example1_eps_0.125.json",
                 "example2_eps_0.125.json", "payment_ranking.json"):
        first = load_instance(fixture_path(name))
        again = instance_from_dict(instance_to_dict(first))
        assert again.m == first.m
        assert again.true_valuations == first.true_valuations


def test_eps_expression_parser():
    eps = F(1, 8)
    assert eval_money_expr("2-2*eps", eps) == F(7, 4)
    assert eval_money_expr("(1+eps)/2", eps) == F(9, 16)
    assert eval_money_expr("-3/4", None) == F(-3, 4)
    assert eval_money_expr(5, None) == 5
    with pytest.raises(InstanceFormatError):
        eval_money_expr("1+eps", None)  # unbound
    with pytest.raises(InstanceFormatError):
        eval_money_expr("2**3", None)
    with pytest.raises(InstanceFormatError):
        eval_money_expr("(1+2", None)
    with pytest.raises(InstanceFormatError):
        eval_money_expr("1/0", None)


def test_alternate_epsilon_rederives_expectations():
    eps = F(1, 16)
    data = read_json(fixture_path("example1_eps_0.125.json"))
    inst = instance_from_dict(data, epsilon=eps)
    assert inst.true_valuations.bids[0].weights == (1 + eps, 1 + eps)


def test_console_entry_point(capsys, monkeypatch):
    """The installed ``walras`` command or, where it is not installed, the
    function ``pyproject.toml`` names for it, called in-process as the
    command would call it."""
    argv = ["solve", fixture("appendix_overbidding.json")]
    exe = shutil.which("walras")
    if exe is None:
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["walras"]
        monkeypatch.setattr(sys, "argv", ["walras", *argv])
        code = EntryPoint("walras", target, "console_scripts").load()()
        out = capsys.readouterr().out
    else:
        proc = subprocess.run([exe, *argv], capture_output=True, text=True)
        code, out = proc.returncode, proc.stdout
    assert code == 0
    assert json.loads(out)["welfare"] == "8"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "walras", "reproduce", "overbidding"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_run_suites_dispatch():
    from walras.suites import run_suites
    reports = run_suites("all", runs=3, seed=1)
    assert [r.name for r in reports] == ["lemma_gs", "lemma_xos", "ordering",
                                         "smoothness", "lattice"]
    with pytest.raises(ValueError):
        run_suites("mystery", runs=1)


@pytest.mark.parametrize("payload, message", [
    ({"m": 2, "players": 5}, "players must be a list"),
    ({"m": 1, "players": [{"valuation": {"type": "xos", "clauses": 3}}]},
     "'clauses' must be a list of lists"),
    ({"m": 1, "players": [{"valuation": {"type": "xos", "clauses": [3]}}]},
     "'clauses' must be a list of lists"),
    ({"m": 2, "players": [{"valuation": {"type": "additive",
                                         "weights": [True, False]}}]},
     "'weights': expected a number"),
    ({"m": True, "players": [{"valuation": {"type": "additive",
                                            "weights": ["1"]}}]},
     "m must be an integer"),
    ({"m": 1, "epsilon": True, "players": []}, "epsilon: expected a number"),
    ({"m": 1, "name": 5, "players": []}, "name must be a string"),
    ({"m": 1, "players": [{"valuation": {"type": ["additive"], "weights": [1]}}]},
     "unknown valuation type ['additive']"),
    ([], "instance file must hold a JSON object"),
    ({"players": []}, "instance file missing field 'm'"),
    ({"m": 1}, "instance file missing field 'players'"),
    ({"m": 1, "players": [{"bid": {}}]}, "player 0 needs a 'valuation' object"),
    ({"m": 2, "players": [{"valuation": {"type": "additive", "weights": ["1"]}}]},
     "player 0 is over 1 items, file says m=2"),
    ({"m": 1, "players": []}, "instance file needs at least one player"),
    ({"m": 1, "players": [{"valuation": {"type": "additive"}}]},
     "player 0: valuation JSON missing field 'weights'"),
    ({"m": 1, "players": [{"valuation": {"type": "additive", "weights": ["1 $ 2"]}}]},
     "bad character '$' in expression '1 $ 2'"),
    ({"m": 1, "players": [{"valuation": {"type": "additive", "weights": ["1 2"]}}]},
     "trailing junk in expression '1 2'"),
    ({"m": 1, "players": [{"valuation": {"type": "additive", "weights": ["1+"]}}]},
     "unexpected end of expression"),
])
def test_fields_of_the_wrong_type_exit_2(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize("kind, field", [("xos", "clauses"), ("oxs", "matrix")])
@pytest.mark.parametrize("rows", [[], [["1", "2"], ["1"]], [[], []]],
                         ids=["no-rows", "unequal-rows", "empty-rows"])
def test_malformed_rows_exit_2_naming_the_kind_and_field(tmp_path, capsys, kind,
                                                         field, rows):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 2, "players": [
        {"valuation": {"type": kind, field: rows}}]}))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: player 0: {kind} valuation field {field!r} needs "
                   "one or more rows of one non-zero length\n")


def _one_weight(text):
    return json.dumps({"m": 1, "players": [
        {"valuation": {"type": "additive", "weights": [text]}}]})


@pytest.mark.parametrize("text, message", [
    (_one_weight("(" * 3000 + "1" + ")" * 3000),
     "player 0: valuation field 'weights': expression nested too deeply"),
    (_one_weight("-" * 3000 + "1"),
     "player 0: valuation field 'weights': expression nested too deeply"),
    ('{"m": 1, "players": ' + "[" * 100_000 + "]" * 100_000 + "}",
     "bad.json: JSON nested too deeply"),
], ids=["parentheses", "minus-signs", "players"])
def test_deep_nesting_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and line.endswith(message)
