"""Conversion of report objects to JSON-friendly structures.

Everything numeric is emitted as an exact decimal or fraction string; no
float formatting anywhere.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .bundles import iter_bits
from .money import INFINITY, format_money
from .valuations import Valuation, valuation_to_json
from .welfare import Allocation, BidProfile


def jsonable(obj):
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, Fraction):
        return format_money(obj)
    if obj is INFINITY:
        return "inf"
    if isinstance(obj, Valuation):
        return valuation_to_json(obj)
    if isinstance(obj, Allocation):
        return {"bundles": [list(iter_bits(b)) for b in obj.bundles]}
    # The one encoder of a bid profile: instance files and suite
    # counterexamples are written through this branch too.
    if isinstance(obj, BidProfile):
        return {"m": obj.m,
                "players": [{"valuation": valuation_to_json(b)} for b in obj.bids]}
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")
