import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import walras
import walras.valuations
from walras.money import format_money, parse_money


def test_parse_int_and_strings():
    assert parse_money(3) == Fraction(3)
    assert parse_money("0.125") == Fraction(1, 8)
    assert parse_money("-2/3") == Fraction(-2, 3)
    assert parse_money(" 7/2 ") == Fraction(7, 2)


def test_parse_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        parse_money(0.1)
    with pytest.raises(ValueError):
        parse_money("abc")
    with pytest.raises(ValueError):
        parse_money("1/0")


def test_no_module_holds_a_float_constant_or_calls_float():
    """The no-float rule, read from the source of every walras module."""
    found = []
    for path in sorted(Path(walras.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if ((isinstance(node, ast.Constant) and isinstance(node.value, float))
                    or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "float")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_imports_outside_the_standard_library():
    """``dependencies = []``, read from the imports of every walras module:
    each absolute import names a standard-library module, and the relative
    ones stay inside the package."""
    found = []
    for path in sorted(Path(walras.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def _own_scope(function):
    """The nodes of ``function``'s body outside the functions, lambdas and
    classes nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _reads(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_no_module_imports_or_assigns_a_name_it_never_reads():
    """Every name a walras module imports is read in it (``__init__``'s
    imports are the package's exports), and every local a function assigns
    is read in it or in a function nested in it; ``_`` is exempt."""
    found = []
    for path in sorted(Path(walras.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = _reads(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py"
                    and getattr(node, "module", None) != "__future__"):
                found += [f"{path.name}:{node.lineno} imports {name}" for name in (
                    alias.asname or alias.name.partition(".")[0] for alias in node.names)
                    if name not in read]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = list(_own_scope(node))
                kept = _reads(node) | {"_"} | {name for n in scope if isinstance(
                    n, (ast.Global, ast.Nonlocal)) for name in n.names}
                found += [f"{path.name}:{n.lineno} {node.name} assigns {n.id}" for n in scope
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                          and n.id not in kept]
    assert found == []


def test_every_private_function_is_read_in_the_package():
    """Every private module-level function and private method of a walras
    module is read somewhere in ``src/walras``, as a name or an attribute,
    so no helper outlives its last caller; dunder methods are exempt."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(walras.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= _reads(tree) | {n.attr for n in ast.walk(tree)
                                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    found = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
             for scope in (tree, *(n for n in tree.body if isinstance(n, ast.ClassDef)))
             for node in scope.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith("_") and not node.name.endswith("__")
             and node.name not in read]
    assert found == []


def test_every_private_default_is_set_by_some_call_in_the_package():
    """No setting that only its default ever reaches: each parameter with a
    default of a private function, or of a method of a private class, is
    set by at least one call in ``src/walras``, by keyword or by position.
    Calls match by name, ``f(...)`` or ``x.f(...)``; a method's positions
    start after ``self`` or ``cls``, and a starred argument sets them all."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(walras.__file__).parent.glob("*.py"))}
    targets, calls = [], {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
            elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                method = isinstance(node, ast.ClassDef)
                targets += [(name, fn, int(method and not any(
                    getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)))
                    for fn in node.body if isinstance(fn, ast.FunctionDef)
                    and not fn.name.endswith("__") and (fn.name.startswith("_") or (
                        method and node.name.startswith("_")))]
    found = []
    for name, fn, skip in targets:
        args = fn.args
        pos = [p.arg for p in args.posonlyargs + args.args]
        defaults = [(i - skip, p) for i, p in enumerate(pos)
                    if i >= len(pos) - len(args.defaults)]
        defaults += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None]
        for i, param in defaults:
            if not any(any(k.arg in (param, None) for k in call.keywords)
                       or any(isinstance(a, ast.Starred) for a in call.args)
                       or i is not None and len(call.args) > i
                       for call in calls.get(fn.name, ())):
                found.append(f"{name}:{fn.lineno} {fn.name}({param})")
    assert {"of", "run", "check_that"} <= {fn.name for _, fn, _ in targets}
    assert found == []


def test_no_module_outside_valuations_tests_a_kind_by_class():
    """A valuation's kind is read from its declaration (``_slots``,
    ``_type``): outside ``valuations`` no walras module calls ``isinstance``
    against a kind class, here or in a tuple of classes."""
    kinds = {name for name, cls in vars(walras.valuations).items() if isinstance(cls, type)
             and issubclass(cls, walras.valuations.Valuation)
             and cls is not walras.valuations.Valuation}
    found = []
    for path in sorted(Path(walras.__file__).parent.glob("*.py")):
        if path.name == "valuations.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                found += [f"{path.name}:{node.lineno} {n.id}" for n in ast.walk(node.args[1])
                          if isinstance(n, ast.Name) and n.id in kinds]
    assert kinds >= {"Additive", "UnitDemand", "Xos", "Oxs", "Tabular"}
    assert found == []


@pytest.mark.parametrize("value,text", [
    (Fraction(8), "8"),
    (Fraction(25, 8), "3.125"),
    (Fraction(1, 2), "0.5"),
    (Fraction(3, 10), "0.3"),
    (Fraction(-1, 4), "-0.25"),
    (Fraction(1, 3), "1/3"),
    (Fraction(-7, 12), "-7/12"),
])
def test_format(value, text):
    assert format_money(value) == text


def test_format_parse_round_trip():
    for num in range(-12, 13):
        for den in range(1, 9):
            q = Fraction(num, den)
            assert parse_money(format_money(q)) == q


@settings(max_examples=200)
@given(st.one_of(
    st.fractions(),
    st.builds(lambda n, a, b: Fraction(n, 2**a * 5**b),
              st.integers(), st.integers(0, 12), st.integers(0, 12))))
def test_format_parse_round_trip_on_any_fraction(q):
    assert parse_money(format_money(q)) == q
