"""Every module under ``src/repro`` is reachable from a run, benchmark or example.

The import graph is built statically with :mod:`ast`, counting imports
inside functions too (the CLI and the system facade import lazily).
The roots are the CLI entry point, the chapter-5 benchmarks, the
repository benchmark and the shipped examples.  A module that only
tests reach is dead weight: delete it, or give it a run that uses it.
:mod:`tests.test_function_reach` applies the same rule, from the same
roots, to every function, method and class.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {module_name(path): path for path in PACKAGE.rglob("*.py")}


def with_parents(name: str) -> set[str]:
    """A module and every package its import initialises."""
    parts = name.split(".")
    return {".".join(parts[:end]) for end in range(1, len(parts) + 1)} & set(MODULES)


def imported_modules(path: pathlib.Path, package: str) -> set[str]:
    """The ``repro`` modules one file imports, anywhere in its body."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                source = f"{base}.{source}" if source else base
            found |= with_parents(source)
            for alias in node.names:
                found |= with_parents(f"{source}.{alias.name}")
    return found


def package_of(name: str) -> str:
    path = MODULES[name]
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def reachable() -> set[str]:
    frontier = with_parents("repro.__main__")
    for directory in ("benchmarks", "perf", "examples"):
        for root in sorted((ROOT / directory).glob("*.py")):
            frontier |= imported_modules(root, package="")
    seen: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name not in seen:
            seen.add(name)
            frontier |= imported_modules(MODULES[name], package_of(name)) - seen
    return seen


def test_every_module_is_reachable():
    unreachable = sorted(set(MODULES) - reachable())
    assert unreachable == [], f"modules no run, benchmark or example imports: {unreachable}"

