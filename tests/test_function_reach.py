"""Every function, method and class in ``src/repro`` is used by a run.

The function-level sibling of :mod:`tests.test_module_reach`, with the
same roots: the CLI entry point, the chapter-5 benchmarks, the
repository benchmark and the shipped examples, plus every module they
reach.  A definition passes when one of those files calls or reads its
name outside its own body: as a name, an attribute, an import alias or
an identifier-like string constant.  Four mentions do not count, as
none of them calls or reads anything: a string in ``__all__``, an
import in a package ``__init__`` (a re-export), a name inside the
second argument of ``isinstance`` (a type test that no value of a
never-built class can pass), and, for a method, a bare name (a local
variable that happens to share the method's name; a method is reached
only as an attribute or through a string).  The
scan is by name, not by type, so it passes anything some run could
call; what it flags, no run can.

Dunders are exempt.  The only other exemption is :data:`ORACLES`: code
that no run calls but a test keeps as an independent check of one that
does.  An entry that a run references again, or that is no longer
defined, fails the gate, so the list cannot go stale.
"""

import ast
import pathlib

import pytest

from tests.test_module_reach import MODULES, ROOT, reachable

#: qualname -> why a test keeps it: each checks code that runs.
ORACLES = {
    "repro.bench.bounds.check_simulation_against_bounds":
        "checks every simulated receipt's gas or opcode cost against the static absint cost bounds",
    "repro.chain.algorand.consensus.Sortition.verify_credential":
        "re-checks every credential Sortition.run_round reveals in the pinned rounds",
    "repro.chain.ethereum.evm.deserialize_code":
        "inverse of serialize_code, the EVM create payload; tests round-trip compiled code",
    "repro.faults.adversary.AdversarySchedule.from_payload":
        "reads the _schedule_payload of an MC-CEX lint finding; tests replay it on chain",
    "repro.faults.adversary.run_adversary":
        "replays model-checker counterexamples as real transactions on the production stack",
    "repro.ipfs.cid.parse_cid":
        "inverse of compute_cid, which names every IPFS block; tests recover the digest",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def root_files() -> list[pathlib.Path]:
    roots = [path for directory in ("benchmarks", "perf", "examples")
             for path in sorted((ROOT / directory).glob("*.py"))]
    return roots + [MODULES[name] for name in sorted(reachable())]


def definitions(tree: ast.Module, module: str):
    """(qualname, node, method) for each function, class, method,
    nested class and module-level ``UPPER_CASE`` constant; ``method``
    marks a function defined in a class body."""
    def walk(body, prefix, in_class):
        for node in body:
            if isinstance(node, DEFINITIONS):
                method = in_class and not isinstance(node, ast.ClassDef)
                yield f"{prefix}.{node.name}", node, method
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}.{node.name}", True)

    yield from walk(tree.body, module, False)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield f"{module}.{target.id}", node, False


def mentions(tree: ast.Module, package_init: bool):
    """(name, line, bare) for every name a file calls or reads; ``bare``
    marks a plain variable name, which never reaches a method.

    Strings in ``__all__`` are not mentions, and neither are the
    imports of a package ``__init__``: both only re-export a name.
    Nor are the names in ``isinstance``'s second argument: testing for
    a class builds none of it."""
    exports = {id(node) for statement in tree.body
               if isinstance(statement, ast.Assign)
               and any(isinstance(target, ast.Name) and target.id == "__all__"
                       for target in statement.targets)
               for node in ast.walk(statement.value)}
    type_tests = {id(node) for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                  and call.func.id == "isinstance" and len(call.args) == 2
                  for node in ast.walk(call.args[1])}
    for node in ast.walk(tree):
        if id(node) in type_tests:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.alias) and not package_init:
            for name in (node.name.rpartition(".")[2], node.asname):
                if name:
                    yield name, node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exports):
            yield node.value, node.lineno, False


def uses(sources) -> dict[str, list[tuple[pathlib.Path, int, bool]]]:
    """name -> (path, line, bare) of each mention in ``(path, text)`` sources."""
    used: dict[str, list[tuple[pathlib.Path, int, bool]]] = {}
    for path, text in sources:
        tree = ast.parse(text, filename=str(path))
        for name, line, bare in mentions(tree, package_init=path.name == "__init__.py"):
            used.setdefault(name, []).append((path, line, bare))
    return used


def unused(module: str, path: pathlib.Path, text: str, used) -> list[str]:
    """The qualnames defined in ``text`` that no mention in ``used`` reaches."""
    dead = []
    for qualname, node, method in definitions(ast.parse(text), module):
        name = qualname.rpartition(".")[2]
        if name.startswith("__") and name.endswith("__"):
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        if not any((where != path or line not in inside) and not (method and bare)
                   for where, line, bare in used.get(name, ())):
            dead.append(qualname)
    return dead


def dead_definitions() -> list[str]:
    used = uses((path, path.read_text()) for path in root_files())
    return [qualname for module, path in sorted(MODULES.items())
            for qualname in unused(module, path, path.read_text(), used)]


DEFINER = """
def helper():
    pass


class Box:
    def size(self):
        return 1
"""


@pytest.mark.parametrize(
    "user_path, user, flagged",
    [
        ("run.py", "from m import helper, Box\nhelper(); Box().size()", []),
        ("run.py", "from m import helper, Box\nhelper(); getattr(Box(), 'size')()", []),
        ("pkg/__init__.py", "from m import helper, Box\nBox().size()", ["m.helper"]),
        ("run.py", "from m import Box\n__all__ = ['helper']\nBox().size()", ["m.helper"]),
        ("run.py", "from m import helper, Box\nhelper(); size = Box; print(size)", ["m.Box.size"]),
        ("run.py", "import m\nm.helper(); print(isinstance(m.helper, (int, m.Box)))",
         ["m.Box", "m.Box.size"]),
    ],
    ids=["called", "method-by-string", "init-re-export", "all-string", "method-as-local",
         "isinstance-only"],
)
def test_only_a_call_or_read_counts_as_a_use(user_path, user, flagged):
    used = uses([(pathlib.Path(user_path), user)])
    assert unused("m", pathlib.Path("m.py"), DEFINER, used) == flagged


def test_every_definition_is_used_by_a_run():
    unused = [name for name in dead_definitions() if name not in ORACLES]
    assert unused == [], f"definitions only tests reach: {unused}"


def test_oracles_are_defined_and_unused_by_runs():
    dead = set(dead_definitions())
    stale = sorted(name for name in ORACLES if name not in dead)
    assert stale == [], f"oracles a run now uses, or no longer defined: {stale}"


def test_every_oracle_has_a_reason():
    assert all(reason.strip() for reason in ORACLES.values())
