"""D-rules: determinism.

The campaign's headline invariant is byte-identical summaries and
store payloads across serial/pooled/sharded/resumed/traced runs.  Any
value derived from wall-clock, entropy, the process id or hash-seeded
iteration order that reaches a persisted payload breaks it.  These
rules fence the *sources*: inside modules the manifest classifies as
deterministic (``core``/``serialization``), such reads are flagged at
the call site — a legitimate use (a console heartbeat, a telemetry
envelope) carries an inline waiver stating why it never reaches a
payload.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.lint.rules import ModuleContext, rule

#: Wall-clock reads (canonical dotted form after import resolution).
#: ``time.perf_counter`` is deliberately absent: a *duration* is fine
#: to measure, as long as it flows to telemetry — durations that reach
#: payloads are caught by differential tests, not a source fence.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Entropy sources.  Calls through the module-level ``random.*`` API
#: use the process-global, time-seeded RNG; deterministic code threads
#: explicitly seeded ``random.Random(seed)`` instances instead.
ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})
ENTROPY_PREFIXES = ("secrets.",)


def _call_name(context: ModuleContext, node: ast.Call) -> Optional[str]:
    return context.imports.dotted(node.func)


@rule("D101", "wall-clock read in deterministic code")
def check_wall_clock(context: ModuleContext) -> None:
    cls = context.classification
    if not cls.deterministic or cls.has_tag("allow-wallclock"):
        return
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            name = _call_name(context, node)
            if name in WALL_CLOCK_CALLS:
                context.add(
                    "D101",
                    node,
                    f"wall-clock read '{name}()' in "
                    f"{cls.module_class} module — nothing derived from it "
                    f"may reach spec JSON, store payloads or summaries",
                )


@rule("D102", "entropy source in deterministic code")
def check_entropy(context: ModuleContext) -> None:
    cls = context.classification
    if not cls.deterministic:
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(context, node)
        if name is None:
            continue
        if name in ENTROPY_CALLS or name.startswith(ENTROPY_PREFIXES):
            context.add(
                "D102", node, f"entropy source '{name}()' in deterministic code"
            )
        elif name == "random.Random":
            # Seedless Random() falls back to OS entropy; Random(seed)
            # is the sanctioned deterministic form.
            if not node.args:
                context.add(
                    "D102",
                    node,
                    "seedless 'random.Random()' — pass an explicit seed",
                )
        elif name.startswith("random.") and name.count(".") == 1:
            context.add(
                "D102",
                node,
                f"process-global RNG call '{name}()' — thread a seeded "
                f"random.Random instance instead",
            )
        elif name == "hash" and not _is_int_literal(node):
            context.add(
                "D102",
                node,
                "builtin hash() is salted per process (PYTHONHASHSEED) — "
                "use hashlib for stable digests",
            )


def _is_int_literal(node: ast.Call) -> bool:
    return (
        len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, int)
    )


@rule("D104", "process id escaping into deterministic code")
def check_pid(context: ModuleContext) -> None:
    cls = context.classification
    if not cls.deterministic or cls.has_tag("allow-pid"):
        return
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call) and _call_name(context, node) == "os.getpid":
            context.add(
                "D104",
                node,
                "os.getpid() in deterministic code — pids are sanctioned "
                "only in telemetry and shard naming (manifest tag "
                "'allow-pid')",
            )


# --------------------------------------------------------------------- #
# D103: unsorted set/dict iteration in serialization modules            #
# --------------------------------------------------------------------- #
_DICT_VIEWS = frozenset({"items", "keys", "values"})
_SET_CALLS = frozenset({"set", "frozenset"})


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SET_CALLS
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        # set algebra: a | b, a & b, a - b over tracked sets
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEWS
        and not node.args
        and not node.keywords
    )


def _scope_set_names(scope_body: List[ast.stmt]) -> Set[str]:
    """Names assigned a set expression anywhere in this scope body
    (nested function bodies are separate scopes and excluded)."""
    names: Set[str] = set()
    empty: Set[str] = set()
    for stmt in scope_body:
        for node in _walk_scope(stmt):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, empty):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and isinstance(node.target, ast.Name)
                and _is_set_expr(node.value, empty)
            ):
                names.add(node.target.id)
    return names


def _walk_scope(root: ast.stmt):
    """Walk a statement without descending into nested function/class
    scopes (their iteration order concerns are their own).  A root
    that itself introduces a scope contributes nothing: its body is
    visited when :func:`_scopes` yields it as a scope of its own."""
    if isinstance(
        root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    ):
        return
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def _iteration_sites(scope_body: List[ast.stmt]):
    """(iterable expression, anchor node) pairs in one scope."""
    for stmt in scope_body:
        for node in _walk_scope(stmt):
            if isinstance(node, ast.For):
                yield node.iter, node
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    yield generator.iter, node
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
            ):
                yield node.args[0], node
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and len(node.args) == 1
            ):
                yield node.args[0], node


def _scopes(tree: ast.Module):
    """Every lexical scope body in the module (module + functions)."""
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


@rule("D103", "unsorted set/dict iteration in a serialization module")
def check_unsorted_iteration(context: ModuleContext) -> None:
    if context.classification.module_class != "serialization":
        return
    for body in _scopes(context.tree):
        set_names = _scope_set_names(body)
        for iterable, anchor in _iteration_sites(body):
            if (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Name)
                and iterable.func.id in ("sorted", "enumerate")
            ):
                # sorted(...) is the fix; enumerate(sorted(...)) handled
                # by recursing once into enumerate's first argument.
                if iterable.func.id == "enumerate" and iterable.args:
                    inner = iterable.args[0]
                    if not (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "sorted"
                    ) and (
                        _is_set_expr(inner, set_names) or _is_dict_view(inner)
                    ):
                        context.add(
                            "D103",
                            anchor,
                            "iteration over an unsorted set/dict view in a "
                            "serialization module — wrap in sorted(...)",
                        )
                continue
            if _is_set_expr(iterable, set_names) or _is_dict_view(iterable):
                context.add(
                    "D103",
                    anchor,
                    "iteration over an unsorted set/dict view in a "
                    "serialization module — wrap in sorted(...)",
                )


__all__ = [
    "ENTROPY_CALLS",
    "WALL_CLOCK_CALLS",
    "check_entropy",
    "check_pid",
    "check_unsorted_iteration",
    "check_wall_clock",
]
