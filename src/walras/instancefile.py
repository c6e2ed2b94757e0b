"""Instance files.

An instance file is JSON:

    {
      "name": "...",                       optional
      "m": 3,
      "epsilon": "1/8",                    optional binding, see below
      "players": [{"valuation": {...}}, ...],
      "metadata": {...}                    optional, scenario extras
    }

Valuation JSON follows the schema in :mod:`walras.valuations`.  Numeric
fields may additionally be small expressions in ``eps`` ("2-2*eps"), which
are evaluated exactly against the file's epsilon binding (or the ``epsilon``
argument of :func:`instance_from_dict`): that keeps parametric fixtures
honest when the parameter moves.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .analysis import Instance
from .bundles import MAX_ITEMS
from .money import parse_money
from .serialize import jsonable
from .valuations import valuation_from_json
from .welfare import BidProfile


class InstanceFormatError(ValueError):
    pass


# -- tiny expression evaluator --------------------------------------------------

# Operators, number literals and names; any other non-space character is bad.
_TOKEN = re.compile(r"[-+*/()]|[0-9.]+|[A-Za-z]+|(\S)")


def eval_money_expr(text, eps: Fraction | None = None) -> Fraction:
    """Evaluate ``+ - * /`` over exact literals and the symbol ``eps``.

    >>> eval_money_expr("2-2*eps", Fraction(1, 8))
    Fraction(7, 4)
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise InstanceFormatError(f"expected a number or expression, got {text!r}")
    tokens = []
    for match in _TOKEN.finditer(text):
        if match[1]:
            raise InstanceFormatError(
                f"bad character {match[1]!r} in expression {text!r}")
        tokens.append(match[0])
    try:
        value, pos = _parse_sum(tokens, 0, eps)
    except RecursionError:
        raise InstanceFormatError("expression nested too deeply") from None
    if pos != len(tokens):
        raise InstanceFormatError(f"trailing junk in expression {text!r}")
    return value


def _parse_sum(tokens, pos, eps):
    value, pos = _parse_product(tokens, pos, eps)
    while pos < len(tokens) and tokens[pos] in "+-":
        op = tokens[pos]
        rhs, pos = _parse_product(tokens, pos + 1, eps)
        value = value + rhs if op == "+" else value - rhs
    return value, pos


def _parse_product(tokens, pos, eps):
    value, pos = _parse_atom(tokens, pos, eps)
    while pos < len(tokens) and tokens[pos] in "*/":
        op = tokens[pos]
        rhs, pos = _parse_atom(tokens, pos + 1, eps)
        if op == "/" and rhs == 0:
            raise InstanceFormatError("division by zero in expression")
        value = value * rhs if op == "*" else value / rhs
    return value, pos


def _parse_atom(tokens, pos, eps):
    if pos >= len(tokens):
        raise InstanceFormatError("unexpected end of expression")
    tok = tokens[pos]
    if tok == "-":
        value, pos = _parse_atom(tokens, pos + 1, eps)
        return -value, pos
    if tok == "(":
        value, pos = _parse_sum(tokens, pos + 1, eps)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise InstanceFormatError("unbalanced parentheses")
        return value, pos + 1
    if tok == "eps":
        if eps is None:
            raise InstanceFormatError("expression uses 'eps' but the file binds "
                                      "no epsilon")
        return eps, pos + 1
    try:
        return Fraction(tok), pos + 1
    except ValueError:
        raise InstanceFormatError(f"bad token {tok!r} in expression") from None


# -- instance files --------------------------------------------------------------

def instance_from_dict(data: dict, *, epsilon=None) -> Instance:
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    try:
        m = data["m"]
        players = data["players"]
    except KeyError as exc:
        raise InstanceFormatError(f"instance file missing field {exc}") from exc
    if type(m) is not int or not 1 <= m <= MAX_ITEMS:
        raise InstanceFormatError(f"m must be an integer in 1..{MAX_ITEMS}")
    if not isinstance(players, list):
        raise InstanceFormatError("players must be a list of player objects")
    if not isinstance(data.get("name", ""), str):
        raise InstanceFormatError("name must be a string")
    eps = None
    if epsilon is not None:
        eps = parse_money(epsilon)
    elif "epsilon" in data:
        try:
            eps = eval_money_expr(data["epsilon"])
        except InstanceFormatError as exc:
            raise InstanceFormatError(f"epsilon: {exc}") from exc

    bids = []
    for k, entry in enumerate(players):
        try:
            payload = entry["valuation"]
        except (TypeError, KeyError):
            raise InstanceFormatError(f"player {k} needs a 'valuation' object")
        try:
            v = valuation_from_json(payload,
                                    number=lambda x: eval_money_expr(x, eps))
        except ValueError as exc:
            raise InstanceFormatError(f"player {k}: {exc}") from exc
        if v.m != m:
            raise InstanceFormatError(f"player {k} is over {v.m} items, "
                                      f"file says m={m}")
        bids.append(v)
    if not bids:
        raise InstanceFormatError("instance file needs at least one player")
    return Instance(m, BidProfile(m, tuple(bids)), name=data.get("name", ""))


def read_json(path) -> dict:
    """The parsed JSON of an instance file (metadata included)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise InstanceFormatError(f"{path}: JSON nested too deeply") from None


def load_instance(path) -> Instance:
    return instance_from_dict(read_json(path))


def instance_to_dict(instance: Instance) -> dict:
    out = jsonable(instance.true_valuations)
    if instance.name:
        out["name"] = instance.name
    return out


# -- fixtures --------------------------------------------------------------------

FIXTURES_ENV = "WALRAS_FIXTURES"


def fixture_path(name: str) -> Path:
    """Locate a shipped fixture; WALRAS_FIXTURES overrides the package data."""
    override = os.environ.get(FIXTURES_ENV)
    if override:
        candidate = Path(override) / name
        if not candidate.exists():
            raise FileNotFoundError(f"fixture {name} not found under "
                                    f"{FIXTURES_ENV}={override}")
        return candidate
    ref = resources.files("walras") / "fixtures" / name
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def load_fixture(name: str) -> Instance:
    return load_instance(fixture_path(name))
