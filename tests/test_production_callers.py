"""Production code is what production calls.

Every module-level function and class under ``src/``, and every method
whose name is defined only once there, must have a caller in ``src/``,
``examples/`` or ``perfbench/``.  A caller is a name or attribute load
outside the definition's own body: import lines (the package
re-exports), ``__all__`` entries and docstrings do not count.  Functions
registered by a decorator call (the lint rules' ``@rule(...)``) are
called through their registry.

The exceptions are listed below, each with the document that names it:
documented API that production itself never calls.  Code only the tests
call belongs in the tests: the slow oracles and everything only they use
live in ``tests/oracles/``, which no production file may import, so the
scan flags any ``src/`` definition that only an oracle calls.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PRODUCTION = ("src", "examples", "perfbench")

#: Documented API without a production caller -> the document naming it.
DOCUMENTED = {
    "with_kernel": "ARCHITECTURE.md",
    "with_policy": "ARCHITECTURE.md",
    "with_scale": "ARCHITECTURE.md",
    "validate_report": "ARCHITECTURE.md",
    # Process-wide caches and sinks the tests reset or swap.
    "clear_sample_cursors": "ARCHITECTURE.md",
    "close_shard_writers": "ARCHITECTURE.md",
    "reset_recorder": "ARCHITECTURE.md",
    "set_console": "ARCHITECTURE.md",
}


def _definitions():
    """(name, module path, node) of every checked definition."""
    found = []
    counts = collections.Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.name, module, node, True))
                counts[node.name] += 1
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        found.append((member.name, module, member, False))
                        counts[member.name] += 1
    return [
        (name, module, node)
        for name, module, node, top_level in found
        if top_level or counts[name] == 1
    ]


def _loads(tree):
    """Names loaded by ``tree``: bare names and attribute accesses."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _registered(node) -> bool:
    return any(isinstance(decorator, ast.Call) for decorator in node.decorator_list)


def _uncalled():
    callers = collections.Counter()
    for directory in PRODUCTION:
        for path in sorted((ROOT / directory).rglob("*.py")):
            callers.update(_loads(ast.parse(path.read_text())))
    uncalled = []
    for name, module, node in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        if _registered(node):
            continue
        if callers[name] - _loads(node)[name] <= 0:
            uncalled.append((name, f"{module}:{node.lineno}"))
    return uncalled


def test_every_definition_has_a_production_caller():
    unexplained = [
        f"{name} ({where})" for name, where in _uncalled() if name not in DOCUMENTED
    ]
    assert unexplained == [], (
        "no caller in src/, examples/ or perfbench/: delete these, or move "
        "them into the tests that use them"
    )


def test_allow_list_is_current_and_documented():
    uncalled = {name for name, _ in _uncalled()}
    assert sorted(set(DOCUMENTED) - uncalled) == [], "allow-listed but called"
    for name, document in DOCUMENTED.items():
        assert name in (ROOT / document).read_text(), f"{document} does not name {name}"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_production_imports_no_oracle():
    importers = [
        path.relative_to(ROOT).as_posix()
        for directory in PRODUCTION
        for path in sorted((ROOT / directory).rglob("*.py"))
        if any(
            module.split(".")[0] == "oracles"
            for module in _imported_modules(ast.parse(path.read_text()))
        )
    ]
    assert importers == [], "the test oracles (tests/oracles/) are test-only"
