import ast
import re
import sys
from fractions import Fraction
from functools import cache
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


PACKAGE = Path(walras.__file__).parent
README = PACKAGE.parents[1] / "README.md"


@cache
def _package_trees() -> dict:
    """The parsed source of every walras module, by file name; read only."""
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_holds_a_float_constant_or_calls_float():
    """The no-float rule, read from the source of every walras module."""
    found = []
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Constant) and isinstance(node.value, float))
                    or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "float")):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_module_imports_outside_the_standard_library():
    """``dependencies = []``, read from the imports of every walras module:
    each absolute import names a standard-library module, and the relative
    ones stay inside the package."""
    found = []
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}:{node.lineno} {name}" for name in names
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


def _loads(tree):
    """Every name and attribute ``tree`` reads."""
    return _reads(tree) | {n.attr for n in ast.walk(tree)
                           if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_no_module_imports_or_assigns_a_name_it_never_reads():
    """Every name a walras module imports is read in it (``__init__``'s
    imports are the package's exports), and every local a function assigns
    is read in it or in a function nested in it; ``_`` is exempt."""
    found = []
    for module, tree in _package_trees().items():
        read = _reads(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and module != "__init__.py"
                    and getattr(node, "module", None) != "__future__"):
                found += [f"{module}:{node.lineno} imports {name}" for name in (
                    alias.asname or alias.name.partition(".")[0] for alias in node.names)
                    if name not in read]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = list(_own_scope(node))
                kept = _reads(node) | {"_"} | {name for n in scope if isinstance(
                    n, (ast.Global, ast.Nonlocal)) for name in n.names}
                found += [f"{module}:{n.lineno} {node.name} assigns {n.id}" for n in scope
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                          and n.id not in kept]
    assert found == []


def test_every_private_function_is_read_in_the_package():
    """Every private module-level function and private method of a walras
    module is read somewhere in ``src/walras``, as a name or an attribute,
    so no helper outlives its last caller; dunder methods are exempt."""
    trees = _package_trees()
    read = set().union(*map(_loads, trees.values()))
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
    trees = _package_trees()
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
    for module, tree in _package_trees().items():
        if module == "valuations.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                found += [f"{module}:{node.lineno} {n.id}" for n in ast.walk(node.args[1])
                          if isinstance(n, ast.Name) and n.id in kinds]
    assert kinds >= {"Additive", "UnitDemand", "Xos", "Oxs", "Tabular"}
    assert found == []


# Public calls that no module of the package reads, each kept for the
# paper concept the README section beside it shows.
SHOWN_IN_README = {
    "best_response_dynamics": "walras",
    "vcg_deviation_certificate": "walras",
    "demand_set": "What is inside",
    "smoothness_certificate": "What is inside",
    "instance_to_dict": "Instance files",
    "construct_efficient_profile": "Library example",
    "half_clause_deviation": "Library example",
    "is_submodular": "Library example",
    "welfare_marginal": "Library example",
}


def _readme_sections(text: str) -> dict:
    """README's text by heading, the part above the first ``##`` under the
    title's; a ``#`` line in a code block is no heading."""
    sections, title, fenced = {}, None, False
    for line in text.splitlines():
        fenced ^= line.startswith("```")
        if line.startswith("#") and not fenced:
            title = line.lstrip("#").strip()
        sections[title] = sections.get(title, "") + line + "\n"
    return sections


def _defined(node) -> list:
    """The names a module-level statement binds: a def's or a class's, or
    an assignment's plain targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    return [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(t, ast.Name)]


def _unread_public_names(trees: dict, readme: str) -> list:
    """Public top-level names no module but ``__init__`` reads and
    :data:`SHOWN_IN_README` does not list, and listed names that are read or
    that their section does not show."""
    read = set().union(*(_loads(t) for name, t in trees.items() if name != "__init__.py"))
    known, sections = read | set(SHOWN_IN_README), _readme_sections(readme)
    found = [f"{name} {public}" for name, tree in trees.items() for node in tree.body
             for public in _defined(node) if not public.startswith("_") and public not in known]
    return found + [
        f"{public} listed for {section}" for public, section in SHOWN_IN_README.items()
        if public in read or not re.search(rf"\b{public}\b", sections.get(section, ""))]


def test_every_public_name_is_read_in_the_package_or_shown_in_the_readme():
    """No public helper that only tests call: a public function, class or
    constant of a walras module is read by some module other than
    ``__init__``, or README shows it in the section :data:`SHOWN_IN_README`
    names."""
    assert _unread_public_names(_package_trees(), README.read_text()) == []


def test_the_public_name_lint_finds_a_planted_helper():
    trees = {**_package_trees(), "planted.py": ast.parse("def helper():\n    pass\n")}
    readme = README.read_text().replace("demand_set", "demand")
    assert _unread_public_names(trees, readme) == [
        "planted.py helper", "demand_set listed for What is inside"]


def _unread_public_members(trees: dict) -> list:
    """Public methods and properties of public classes that no module reads."""
    read = set().union(*map(_loads, trees.values()))
    return [f"{name} {cls.name}.{node.name}" for name, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in read]


def test_every_public_member_is_read_in_the_package():
    """A public method or property of a public class is read somewhere in
    ``src/walras``, as an attribute or a name."""
    assert _unread_public_members(_package_trees()) == []


def test_the_public_member_lint_finds_a_planted_property():
    planted = ast.parse("class Report:\n    @property\n    def verdict(self):\n        pass\n")
    assert _unread_public_members({**_package_trees(), "planted.py": planted}) == [
        "planted.py Report.verdict"]


def _unread_cli_dests(tree) -> list:
    """The dests of ``add_argument`` calls in ``tree`` that it never reads as
    ``args.<dest>``."""
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "args"}
    dests = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            flags = [a.value for a in node.args]
            dest = next((k.value.value for k in node.keywords if k.arg == "dest"),
                        next((f for f in flags if f.startswith("--")), flags[0]))
            dests.append(dest.lstrip("-").replace("-", "_"))
    return [dest for dest in dests if dest not in read]


def test_every_cli_flag_is_read_by_a_handler():
    """No CLI flag that does nothing: each ``add_argument`` dest in ``cli.py``
    is read as ``args.<dest>``."""
    assert _unread_cli_dests(_package_trees()["cli.py"]) == []


def test_the_cli_flag_lint_finds_a_planted_flag():
    tree = _package_trees()["cli.py"]
    planted = ast.Module(tree.body + ast.parse(
        'parser.add_argument("-q", "--quiet-mode")\n'
        'parser.add_argument("-k", dest="keep")\n').body, [])
    assert _unread_cli_dests(planted) == ["quiet_mode", "keep"]


def _limits(trees: dict):
    """(``module.NAME``, value) of each module-level ``MAX_*`` constant."""
    for name, tree in trees.items():
        for node in tree.body:
            for limit in _defined(node):
                if re.fullmatch(r"([A-Z]+_)*MAX_[A-Z_]+", limit):
                    yield f"{name[:-3]}.{limit}", ast.literal_eval(node.value)


def _unstated_limits(trees: dict, readme: str) -> list:
    """The limits of :func:`_limits` that README does not name, in
    backquotes, with the number they hold, thousands by commas, in the 80
    characters before."""
    text = " ".join(readme.split())
    found = []
    for qualified, value in _limits(trees):
        number = re.compile(rf"(?<![\d,]){re.escape(f'{value:,}')}(?![\d,])")
        if not any(number.search(text, max(0, at.start() - 80), at.start())
                   for at in re.finditer(re.escape(f"`{qualified}`"), text)):
            found.append(qualified)
    return found


def test_every_stated_limit_is_named_in_the_readme_beside_its_number():
    """Each module-level ``MAX_*`` constant is named in README after the
    number it holds, so a changed limit fails here until README says so."""
    trees = _package_trees()
    assert {"bundles.MAX_ITEMS", "welfare.MAX_TABLE_STATES", "valuations.CHECKER_MAX_ITEMS",
            "analysis.MAX_PROFILES"} <= dict(_limits(trees)).keys()
    assert _unstated_limits(trees, README.read_text()) == []


def test_the_limit_lint_finds_a_planted_limit_and_a_stale_number():
    trees = {**_package_trees(), "planted.py": ast.parse("MAX_WIDGETS = 5\n")}
    readme = README.read_text().replace("16 items (`bundles", "15 items (`bundles")
    assert _unstated_limits(trees, readme) == ["bundles.MAX_ITEMS", "planted.MAX_WIDGETS"]


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
