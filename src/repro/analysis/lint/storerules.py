"""S-rules: store and schema discipline.

S301 keeps every write to the ``results`` table inside the sanctioned
checksum API (:mod:`repro.store.result_store`): a raw INSERT anywhere
else would create rows the integrity scan calls corrupt.  S302/S303
pin the observability *name* contract both ways: every metric, span,
event and phase name emitted in code must appear in the architecture
doc's tables, and every documented name must still be emitted
somewhere — so the tables can never drift again (they already had:
PR 9's ``merge`` phase and shard counters were missing when this rule
first ran).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional, Set, Tuple

from repro.analysis.lint.rules import (
    DocumentedNames,
    ModuleContext,
    ProjectContext,
    rule,
)

# --------------------------------------------------------------------- #
# S301: raw SQL against the results table                               #
# --------------------------------------------------------------------- #
_SQL_WRITE_RE = re.compile(
    r"\b(INSERT|REPLACE|UPDATE|DELETE)\b[^;]*\bresults\b", re.IGNORECASE
)


def _sql_text(node: ast.AST) -> Optional[str]:
    """The literal text of a (possibly f-string) SQL argument."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = [
            value.value
            for value in node.values
            if isinstance(value, ast.Constant) and isinstance(value.value, str)
        ]
        return "".join(parts)
    return None


@rule("S301", "results-table write outside the checksum API")
def check_store_bypass(context: ModuleContext) -> None:
    if context.classification.has_tag("store-api"):
        return
    for node in ast.walk(context.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("execute", "executemany", "executescript")
            and node.args
        ):
            continue
        sql = _sql_text(node.args[0])
        if sql is not None and _SQL_WRITE_RE.search(sql):
            context.add(
                "S301",
                node,
                "raw SQL write to the results table outside the "
                "checksum API — rows written here bypass payload "
                "checksums and will be dropped as corrupt",
            )


# --------------------------------------------------------------------- #
# documented-name extraction (the architecture doc's tables)            #
# --------------------------------------------------------------------- #
_METRIC_TOKEN_RE = re.compile(r"`((?:campaign|store)_[a-z0-9_]+)`")
_LABEL_ENUM_RE = re.compile(r"`phase=([a-z0-9_|\\]+)`")
_BACKTICK_RE = re.compile(r"`([a-z0-9_-]+)`")


def parse_documented_names(text: str, path: str) -> DocumentedNames:
    """Extract the observability name tables from the architecture doc.

    Only the ``## Observability`` section is scanned, so experiment or
    artifact names mentioned elsewhere never masquerade as metrics.
    Span and event names come from the dedicated ``| span |`` /
    ``| event |`` table rows; phase names from the
    ``phase=a|b|c`` label cell of the phase histogram row.
    """
    documented = DocumentedNames(path=path)
    in_section = False
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("## "):
            in_section = stripped.lower() == "## observability"
            continue
        if not in_section or not stripped.startswith("|"):
            continue
        cell_kind = stripped.strip("|").split("|")[0].strip().strip("`")
        if cell_kind in ("span", "event"):
            bucket = documented.spans if cell_kind == "span" else documented.events
            rest = stripped.split("|", 2)[2]
            for token in _BACKTICK_RE.findall(rest):
                bucket.add(token)
                documented.lines.setdefault(f"{cell_kind}:{token}", number)
            continue
        for token in _METRIC_TOKEN_RE.findall(stripped):
            documented.metrics.add(token)
            documented.lines.setdefault(f"metric:{token}", number)
        for enum in _LABEL_ENUM_RE.findall(stripped):
            for phase in re.split(r"\\\||\|", enum):
                if phase:
                    documented.phases.add(phase)
                    documented.lines.setdefault(f"phase:{phase}", number)
    return documented


# --------------------------------------------------------------------- #
# emitted-name extraction (call sites in code)                          #
# --------------------------------------------------------------------- #
#: kind -> dotted-call suffixes whose first literal argument names one
#: observability object.  Resolution goes through the import map, so
#: ``_metrics.inc`` and ``repro.telemetry.metrics.inc`` both match.
_EMITTERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("metric", (".inc", ".observe")),
    ("phase", (".observe_phase", ".phase_timer")),
    ("span", (".begin_span", ".emit_span")),
    ("event", ("trace.event",)),
)
_BARE_EMITTERS = {
    "inc": "metric",
    "observe": "metric",
    "observe_phase": "phase",
    "phase_timer": "phase",
    "begin_span": "span",
    "emit_span": "span",
}


def emitted_names(
    context: ModuleContext,
) -> Iterable[Tuple[str, str, ast.Call]]:
    """``(kind, name, call node)`` for every literal-named emission."""
    for node in ast.walk(context.tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        dotted = context.imports.dotted(node.func)
        if dotted is None:
            continue
        kind = None
        for candidate, suffixes in _EMITTERS:
            if any(dotted.endswith(suffix) for suffix in suffixes):
                kind = candidate
                break
        if kind is None:
            kind = _BARE_EMITTERS.get(dotted)
        if kind is None:
            continue
        name = context.literal_str(node.args[0])
        if name is not None:
            yield kind, name, node


_KIND_SETS = {
    "metric": "metrics",
    "phase": "phases",
    "span": "spans",
    "event": "events",
}


@rule("S302", "observability name emitted but not documented", scope="project")
def check_undocumented_names(project: ProjectContext) -> None:
    documented = project.documented
    if documented is None:
        return
    for context in project.modules:
        if context.classification.module_class == "tool":
            continue
        for kind, name, node in emitted_names(context):
            known: Set[str] = getattr(documented, _KIND_SETS[kind])
            if name not in known:
                context.add(
                    "S302",
                    node,
                    f"{kind} name {name!r} is emitted here but missing "
                    f"from the {documented.path} observability tables",
                )


@rule("S303", "observability name documented but never emitted", scope="project")
def check_unemitted_names(project: ProjectContext) -> None:
    documented = project.documented
    if documented is None:
        return
    emitted: Set[Tuple[str, str]] = set()
    for context in project.modules:
        for kind, name, _node in emitted_names(context):
            emitted.add((kind, name))
    for kind, attr in _KIND_SETS.items():
        for name in sorted(getattr(documented, attr)):
            if (kind, name) not in emitted:
                line = documented.lines.get(f"{kind}:{name}", 0)
                project.add(
                    "S303",
                    documented.path,
                    line,
                    f"documented {kind} name {name!r} is never emitted "
                    f"by the scanned modules — stale table row?",
                )


__all__ = [
    "check_store_bypass",
    "check_undocumented_names",
    "check_unemitted_names",
    "emitted_names",
    "parse_documented_names",
]
