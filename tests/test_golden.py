"""Golden outputs: the stdout and exit code of every ``reproduce`` case, of
``solve``, ``prices`` and ``mechanism --rule R`` on every shipped fixture, and
of ``verify-nash`` (every rule, and bids off the grid), ``poa`` (every rule,
two and three agents, serial and parallel) and ``property-test`` on a few
pinned inputs.

A refactor must leave these byte-identical.  To record them afresh (only when
an output is meant to change), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from walras.cli import main
from walras.instancefile import fixture_path
from walras.reproduce import CASES

GOLDEN = Path(__file__).with_name("golden")
FIXTURES = ("and_bidder", "appendix_overbidding", "bullying",
            "example1_eps_0.125", "example2_eps_0.125", "payment_ranking")
RULES = ("vcg", "english", "dutch", "paybid")


def _commands() -> dict[str, tuple[str, ...]]:
    """Golden file stem -> walras argv (fixtures given by name)."""
    out = {f"reproduce__{case}": ("reproduce", case) for case in CASES}
    for fx in FIXTURES:
        out[f"solve__{fx}"] = ("solve", fx)
        out[f"prices__{fx}"] = ("prices", fx)
        for rule in RULES:
            out[f"mechanism_{rule}__{fx}"] = ("mechanism", fx, "--rule", rule)
    grid = ("--grid-delta", "1/8", "--grid-cap", "4")
    for fx in ("example1_eps_0.125", "example2_eps_0.125"):
        out[f"verify-nash__{fx}"] = ("verify-nash", fx) + grid
    for rule in ("vcg", "dutch", "paybid"):
        out[f"verify-nash_{rule}__example1_eps_0.125"] = (
            "verify-nash", "example1_eps_0.125", "--rule", rule) + grid
    # Unit-demand bids off the additive grid: pins the current-bid deviation.
    out["verify-nash_bids_example2__example1_eps_0.125"] = (
        "verify-nash", "example1_eps_0.125", "--bids", "example2_eps_0.125") + grid
    for rule in RULES:
        out[f"poa_{rule}__example2_eps_0.125"] = (
            "poa", "example2_eps_0.125", "--rule", rule, "--grid-delta", "1/4",
            "--grid-cap", "2")
    out["poa_vcg_csv__example2_eps_0.125"] = (
        out["poa_vcg__example2_eps_0.125"] + ("--format", "csv"))
    # A tabular bidder on the default grid, and three agents over three items
    # (middle-agent vcg merges, english folds over 1 + 1_j at n = 3), serial
    # and parallel.
    tolerant = ("--gamma", "1", "--eps-dev", "1")
    for rule in RULES:
        out[f"poa_{rule}__and_bidder"] = (
            "poa", "and_bidder", "--rule", rule) + tolerant
        out[f"poa_{rule}__appendix_overbidding"] = (
            "poa", "appendix_overbidding", "--rule", rule, "--grid-delta", "1",
            "--grid-cap", "1") + tolerant
    out["poa_dutch_jobs2__appendix_overbidding"] = (
        out["poa_dutch__appendix_overbidding"] + ("--jobs", "2"))
    suites = ("property-test", "--suite", "all", "--seeds", "3", "--seed", "1")
    out["property-test__all_seeds3_seed1"] = suites
    out["property-test_csv__all_seeds3_seed1"] = suites + ("--format", "csv")
    out["property-test__all_seeds25_seed7919"] = (
        "property-test", "--suite", "all", "--seeds", "25", "--seed", "7919")
    return out


COMMANDS = _commands()


def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    if argv[0] not in ("reproduce", "property-test"):
        argv = (argv[0], str(fixture_path(argv[1] + ".json"))) + argv[2:]
    if "--bids" in argv:
        k = argv.index("--bids") + 1
        argv = argv[:k] + (str(fixture_path(argv[k] + ".json")),) + argv[k + 1:]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_golden_output(stem):
    code, out = _run(COMMANDS[stem])
    assert code == _exit_codes()[stem]
    # Bytes, not text: the csv module ends its rows with \r\n.
    assert out == (GOLDEN / f"{stem}.txt").read_bytes().decode("utf-8")


def test_every_golden_file_has_a_command_and_an_exit_code():
    """A renamed or dropped command must not leave a golden that no test reads."""
    stems = {path.stem for path in GOLDEN.glob("*.txt")}
    assert stems == set(COMMANDS) == set(_exit_codes())


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for stem, argv in sorted(COMMANDS.items()):
        codes[stem], out = _run(argv)
        (GOLDEN / f"{stem}.txt").write_bytes(out.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(record())
