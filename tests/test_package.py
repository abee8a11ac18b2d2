"""The package is the verifier: every module under src/qhecke is reached
from the command line, every function from the command line or the
benchmark's tracer, and no module imports the test oracles."""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "qhecke"


def imports(path: Path) -> tuple[set[str], set[str]]:
    """(package modules, other top-level modules) that a source file imports.

    ``from . import name`` counts as the module ``name`` when the package has
    one, and as ``__init__`` (an attribute of the package) otherwise.
    """
    package: set[str] = set()
    other: set[str] = set()

    def absolute(name: str) -> None:
        top, _, rest = name.partition(".")
        if top == "qhecke":
            package.add(rest.split(".")[0] or "__init__")
        else:
            other.add(top)

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                absolute(alias.name)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            absolute(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            package.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            package.update(
                a.name if (PACKAGE / f"{a.name}.py").is_file() else "__init__"
                for a in node.names
            )
    return package, other


def test_every_module_is_reached_from_the_cli():
    # __init__ is reached (cli reads __version__) but not followed: its own
    # import of suite would reach the engine without the CLI running it
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    reached: set[str] = set()
    todo = ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        if name != "__init__":
            todo.extend(imports(PACKAGE / f"{name}.py")[0])
    assert modules - reached == set()


def test_no_module_imports_the_tests():
    test_modules = {p.stem for p in TESTS.glob("*.py")} | {"tests"}
    for path in sorted(PACKAGE.glob("*.py")):
        assert imports(path)[1] & test_modules == set(), path.name



TRACER = TESTS.parent / "perfbench" / "tracer.py"

# The functions that only the benchmark's tracer reaches: it looks them up
# by name, so they stay until the tracer stops naming them.
TRACER_ONLY = {
    ("hecke", "eval_fabc"),
    ("polyring", "lp_add"),
    ("polyring", "lp_mul"),
    ("polyring", "lp_scale"),
    ("qseries", "div_factor"),
    ("qseries", "gauss_binomial"),
    ("qseries", "mul_factor"),
    ("qseries", "pochhammer"),
    ("qseries", "qs_add"),
    ("qseries", "qs_collapse_z"),
    ("qseries", "qs_invert"),
    ("qseries", "qs_mul"),
    ("qseries", "qs_mul_monomial"),
    ("qseries", "qs_neg"),
    ("qseries", "qs_scale_poly"),
    ("qseries", "qs_sub"),
    ("qseries", "qs_zero"),
    ("qseries", "span_cap"),
    ("qseries", "zf_pochhammer_inf"),
    ("qseries", "zf_shift"),
}


def tracer_names() -> set[tuple[str, str]]:
    """The (module, function) pairs perfbench/tracer.py wraps by name: the
    entries of SPECS and the names in _SPECFUN_BUILDERS, read from its
    source without importing it."""
    tree = ast.parse(TRACER.read_text())
    strings = {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
    }

    def string(node: ast.expr) -> str:
        return strings[node.id] if isinstance(node, ast.Name) else ast.literal_eval(node)

    names: set[tuple[str, str]] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)):
            target = node.targets[0].id
            for entry in node.value.elts:
                if target == "SPECS":
                    module, name = map(string, entry.elts[:2])
                    names.add((module.rpartition(".")[2], name))
                elif target == "_SPECFUN_BUILDERS":
                    names.add(("specfun", string(entry)))
    return names


def functions_and_reached(roots: set[tuple[str, str]]) -> tuple[set, set]:
    """(every module-level function of src/qhecke, those reached), as
    (module, name) pairs. The walk follows the names a function body reads,
    from cli.main, from roots, and from the module-level statements and
    class bodies. A private name resolves in its own module, a public one
    in every module that defines it."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    defs = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    by_name: dict[str, list] = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)

    def reads(module: str, nodes) -> list[tuple[str, str]]:
        out = []
        for node in nodes:
            for n in ast.walk(node):
                name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else ""
                if (module, name) in defs:
                    out.append((module, name))
                elif name and not name.startswith("_"):
                    out += by_name.get(name, [])
        return out

    todo = [("cli", "main"), *roots]
    for module, tree in trees.items():
        todo += reads(module, [n for n in tree.body if not isinstance(n, ast.FunctionDef)])
    reached: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo += reads(key[0], defs[key].body)
    return set(defs), reached


def test_every_function_is_reached_from_the_cli_or_the_tracer():
    traced = tracer_names()
    # the parse found the tracer's tables
    assert {("qseries", "qs_invert"), ("specfun", "build_g_cleared")} <= traced
    functions, reached = functions_and_reached(traced)
    assert functions - reached == set()


def test_tracer_only_functions_are_the_listed_ones():
    # a function that leaves every command-line path shows up here, and so
    # does one that the tracer no longer needs to keep alive
    functions, from_cli = functions_and_reached(set())
    assert functions - from_cli == TRACER_ONLY
