"""The package is the verifier: every module under src/qhecke is reached
from the command line, and no module imports the test oracles."""

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
