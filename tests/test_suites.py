"""The failure reports of the property suites.

On correct code no suite fails, so each test below makes the one call a
suite checks report a failure (in the ``suites`` namespace, where the suite
looks it up) and pins what the suite then counts and keeps.
"""

import csv
import dataclasses
import io
import json

import pytest

from walras import suites
from walras.cli import main
from walras.walrasian import WalrasianCertificate

RUNS = 2


def _failing(monkeypatch, name, **broken):
    """Replace ``suites.<name>`` by the real call with ``broken`` fields."""
    real = getattr(suites, name)

    def fake(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), **broken)

    monkeypatch.setattr(suites, name, fake)


def _check_first(report, keys):
    """The first counterexample is from run 0 and has ``keys`` in order: the
    CSV column dumps it without sorting its keys."""
    first = report.first_failure
    assert first["run"] == 0
    assert list(first) == keys
    assert json.loads(json.dumps(first)) == first  # plain JSON values only
    assert not report.ok


LEMMA_KEYS = ["run", "partition", "total", "bound", "profile"]


def test_lemma_gs_suite_counts_every_failing_partition(monkeypatch):
    _failing(monkeypatch, "marginal_sum_bound", factor1_ok=False)
    report = suites.lemma_gs_suite(RUNS, seed=1)
    assert report.failures == RUNS * suites.PARTITIONS
    assert report.detail == {"partitions_per_run": suites.PARTITIONS}
    _check_first(report, LEMMA_KEYS)
    assert isinstance(report.first_failure["total"], str)


def test_lemma_xos_suite_counts_every_failing_partition(monkeypatch):
    _failing(monkeypatch, "marginal_sum_bound", factor1_ok=False, factor2_ok=False)
    report = suites.lemma_xos_suite(RUNS, seed=1)
    assert report.failures == RUNS * suites.PARTITIONS
    assert report.detail == {
        "partitions_per_run": suites.PARTITIONS,
        "factor1_interesting_witnesses": RUNS * suites.PARTITIONS}
    _check_first(report, LEMMA_KEYS)
    first = report.first_failure
    assert len(first["partition"]) == len(first["profile"]["players"])


def test_ordering_suite_counts_every_broken_chain(monkeypatch):
    _failing(monkeypatch, "check_payment_ordering", chain_ok=False)
    report = suites.ordering_suite(RUNS, seed=1)
    assert report.failures == RUNS
    _check_first(report, ["run", "profile", "payments"])
    assert list(report.first_failure["payments"]) == ["vcg", "english",
                                                       "dutch", "paybid"]


def test_smoothness_suite_counts_every_failing_rule(monkeypatch):
    # The suite certifies a draw's four rules in one call.
    real = suites.smoothness_certificates
    monkeypatch.setattr(suites, "smoothness_certificates", lambda *args: tuple(
        dataclasses.replace(cert, holds=False) for cert in real(*args)))
    report = suites.smoothness_suite(RUNS, seed=1)
    assert report.failures == RUNS * 4
    _check_first(report, ["run", "rule", "lhs", "rhs", "dwm_ok", "per_agent_ok",
                          "types", "bids"])
    assert report.first_failure["rule"] == "vcg"


def test_lattice_suite_counts_every_failing_run(monkeypatch):
    monkeypatch.setattr(suites, "verify_walrasian_equilibrium",
                        lambda *args: WalrasianCertificate(False, ()))
    report = suites.lattice_suite(RUNS, seed=1)
    assert report.failures == RUNS
    _check_first(report, ["run", "problems", "profile", "low", "high",
                          "tatonnement"])
    assert report.first_failure["problems"] == ["verify low", "verify high"]


@pytest.fixture
def broken_ordering(monkeypatch):
    _failing(monkeypatch, "check_payment_ordering", chain_ok=False)


def test_property_test_exits_1_on_a_failing_suite(broken_ordering, capsys):
    code = main(["property-test", "--suite", "ordering", "--seeds", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    (row,) = payload["suites"]
    assert row["failures"] == 2 and row["first_counterexample"]["run"] == 0


def test_property_test_csv_carries_the_counterexample(broken_ordering, capsys):
    code = main(["property-test", "--suite", "ordering", "--seeds", "2",
                 "--seed", "27", "--format", "csv"])
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert code == 1
    assert header == ["suite", "runs", "failures", "first_counterexample"]
    assert row[:3] == ["ordering", "2", "2"]
    assert row[3] == (
        '{"run": 0, "profile": {"m": 2, "players": ['
        '{"valuation": {"type": "additive", "weights": ["1", "1"]}}, '
        '{"valuation": {"type": "additive", "weights": ["1", "0"]}}]}, '
        '"payments": {"vcg": ["0", "1"], "english": ["0", "1"], '
        '"dutch": ["1", "1"], "paybid": ["1", "1"]}}')
