"""Production code is what production calls.

Every module-level function and class under ``src/``, and every method
whose name is defined only once there, must have a caller in ``src/``,
``examples/`` or ``perfbench/``.  A caller is a name or attribute load
outside the definition's own body: import lines (the package
re-exports), ``__all__`` entries and docstrings do not count.  Functions
registered by a decorator call (the lint rules' ``@rule(...)``) are
called through their registry.

The exceptions are listed below, each with the document that names it:
the test oracles, and documented API that production itself never calls.
Code only the tests call belongs in the tests.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PRODUCTION = ("src", "examples", "perfbench")

#: Slow oracles of a production fast path, run only by the tests
#: (module path relative to the package -> the document listing it).
ORACLE_MODULES = {
    "campaign/reference.py": "ARCHITECTURE.md",
    "ecc/reference.py": "ARCHITECTURE.md",
    "functional/reference.py": "ARCHITECTURE.md",
    "memory/reference_cache.py": "ARCHITECTURE.md",
    "pipeline/reference_timing.py": "ARCHITECTURE.md",
}

#: Documented API without a production caller -> the document naming it.
DOCUMENTED = {
    "with_kernel": "ARCHITECTURE.md",
    "with_policy": "ARCHITECTURE.md",
    "with_scale": "ARCHITECTURE.md",
    "validate_report": "ARCHITECTURE.md",
    "clear_kernel_trace_cache": "PERFORMANCE.md",
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
        if module in ORACLE_MODULES or _registered(node):
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
    for module, document in ORACLE_MODULES.items():
        assert (PACKAGE / module).exists(), module
        assert module in (ROOT / document).read_text(), f"{document} omits {module}"
