"""Every function, method and class in ``src/repro`` is used by a run.

The function-level sibling of :mod:`tests.test_module_reach`, with the
same roots: the CLI entry point, the chapter-5 benchmarks, the
repository benchmark and the shipped examples, plus every module they
reach.  A definition passes when its name appears in one of those files
outside its own body, as a name, an attribute, an import alias or an
identifier-like string constant.  The scan is by name, not by type, so
it passes anything some run could call; what it flags, no run can.

Dunders are exempt.  The only other exemption is :data:`ORACLES`: code
that no run calls but a test keeps as an independent check of one that
does.  An entry that a run references again, or that is no longer
defined, fails the gate, so the list cannot go stale.
"""

import ast
import pathlib

from tests.test_module_reach import MODULES, ROOT, reachable

#: qualname -> why a test keeps it: each checks code that runs.
ORACLES = {
    "repro.chain.algorand.consensus.Sortition.verify_credential":
        "re-checks every credential Sortition.run_round reveals in the pinned rounds",
    "repro.chain.ethereum.evm.deserialize_code":
        "inverse of serialize_code, the EVM create payload; tests round-trip compiled code",
    "repro.faults.adversary.AdversarySchedule.from_payload":
        "reads the _schedule_payload of an MC-CEX lint finding; tests replay it on chain",
    "repro.ipfs.cid.parse_cid":
        "inverse of compute_cid, which names every IPFS block; tests recover the digest",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def root_files() -> list[pathlib.Path]:
    roots = [path for directory in ("benchmarks", "perf", "examples")
             for path in sorted((ROOT / directory).glob("*.py"))]
    return roots + [MODULES[name] for name in sorted(reachable())]


def definitions(tree: ast.Module, module: str):
    """(qualname, node) for each function, class, method, nested class
    and module-level ``UPPER_CASE`` constant."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, DEFINITIONS):
                yield f"{prefix}.{node.name}", node
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}.{node.name}")

    yield from walk(tree.body, module)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield f"{module}.{target.id}", node


def mentions(tree: ast.Module):
    """(name, line) for every name a file mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (node.name.rpartition(".")[2], node.asname):
                if name:
                    yield name, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def dead_definitions() -> list[str]:
    used: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path in root_files():
        for name, line in mentions(ast.parse(path.read_text(), filename=str(path))):
            used.setdefault(name, []).append((path, line))
    dead = []
    for module, path in sorted(MODULES.items()):
        for qualname, node in definitions(ast.parse(path.read_text()), module):
            name = qualname.rpartition(".")[2]
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(where != path or line not in inside
                       for where, line in used.get(name, ())):
                dead.append(qualname)
    return dead


def test_every_definition_is_used_by_a_run():
    unused = [name for name in dead_definitions() if name not in ORACLES]
    assert unused == [], f"definitions only tests reach: {unused}"


def test_oracles_are_defined_and_unused_by_runs():
    dead = set(dead_definitions())
    stale = sorted(name for name in ORACLES if name not in dead)
    assert stale == [], f"oracles a run now uses, or no longer defined: {stale}"


def test_every_oracle_has_a_reason():
    assert all(reason.strip() for reason in ORACLES.values())
