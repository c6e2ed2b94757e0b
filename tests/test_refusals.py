"""Refusals of bad arguments that no instance file or CLI flag reaches: each
raises its own error type, with a message that names the input."""

import re

import pytest

from walras.analysis import BidGrid, Instance, exposure_factor_bound
from walras.money import parse_money
from walras.reproduce import run_case
from walras.serialize import jsonable
from walras.valuations import Additive, Tabular, Valuation, sample_valuation, valuation_to_json
from walras.walrasian import tatonnement
from walras.welfare import BidProfile, welfare_value

PAIR = BidProfile(2, (Additive((1, 2)),))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: Instance(3, PAIR), ValueError,
                 "instance m does not match its valuations", id="instance-m"),
    pytest.param(lambda: BidGrid(((Additive((1, 2)),), ())), ValueError,
                 "every agent needs a non-empty bid grid", id="empty-grid"),
    pytest.param(lambda: exposure_factor_bound(Additive((1, 2)), Additive((1, 2, 3))),
                 ValueError, "type and bid are over different item counts",
                 id="exposure-m"),
    pytest.param(lambda: welfare_value(PAIR, (1,)), ValueError,
                 "multiset length 1 != m=2", id="multiset-length"),
    pytest.param(lambda: welfare_value(PAIR, (1, -1)), ValueError,
                 "negative multiplicity at item 1", id="negative-multiplicity"),
    pytest.param(lambda: BidProfile(2, ("1",)), TypeError,
                 "bid 0 is not a Valuation", id="bid-type"),
    pytest.param(lambda: Tabular((0, 1, 2)), ValueError,
                 "table length 3 is not a power of two >= 2", id="table-length"),
    pytest.param(lambda: valuation_to_json(Valuation()), TypeError,
                 "cannot serialize Valuation", id="valuation-kind"),
    pytest.param(lambda: parse_money(True), TypeError,
                 "bool is not a money amount", id="money-bool"),
    pytest.param(lambda: parse_money([1]), TypeError,
                 "cannot parse money from list", id="money-type"),
    pytest.param(lambda: jsonable(object()), TypeError,
                 "cannot serialize object", id="jsonable-type"),
    pytest.param(lambda: tatonnement(PAIR, "1/64", max_steps=True), ValueError,
                 "max_steps must be an int of at least 0, got True", id="max-steps"),
    pytest.param(lambda: sample_valuation("additive", 2, 4, 1, denominators=(0,)),
                 ValueError, "denominators must be one or more ints of at least 1, got (0,)",
                 id="denominators"),
    pytest.param(lambda: run_case("nope"), ValueError,
                 "unknown case 'nope'; choose from ('example1',", id="reproduce-case"),
])
def test_a_bad_argument_is_refused_naming_it(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
