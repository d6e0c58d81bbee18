"""The rule registry and the per-module analysis context.

A rule is a function registered under a stable id (``D101``, ``P201``,
``S302``...).  Module rules see one :class:`ModuleContext` (parsed AST,
classification, import map); project rules see the whole
:class:`ProjectContext` after every module was scanned — that is where
cross-module checks (documented-vs-emitted names, exception taxonomies
spanning files) live.

The registry is the single source of the rule catalogue: ids, titles
and the families the documentation renders come from here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.findings import Finding, finding
from repro.analysis.lint.manifest import ModuleClassification


# --------------------------------------------------------------------- #
# import resolution                                                     #
# --------------------------------------------------------------------- #
class ImportMap:
    """Resolves local names to canonical dotted paths.

    ``import time`` maps ``time`` → ``time``; ``from time import
    monotonic`` maps ``monotonic`` → ``time.monotonic``; ``import
    datetime as dt`` maps ``dt`` → ``datetime``.  :meth:`dotted` then
    canonicalises a call target: ``dt.datetime.now`` →
    ``datetime.datetime.now``.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    name = alias.asname or alias.name
                    self.aliases[name] = f"{node.module}.{alias.name}"

    def dotted(self, node: ast.AST) -> Optional[str]:
        """The canonical dotted path of a Name/Attribute chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = self.aliases.get(parts[0], parts[0])
        return ".".join([root] + parts[1:])


# --------------------------------------------------------------------- #
# contexts                                                              #
# --------------------------------------------------------------------- #
@dataclass
class ModuleContext:
    """Everything a module rule can see about one file."""

    path: str  # display path (as given to the engine)
    classification: ModuleClassification
    tree: ast.Module
    source_lines: Sequence[str]
    imports: ImportMap
    #: Module-level ``NAME = "literal"`` string constants (S302 uses
    #: them to resolve names like ``PHASE_METRIC``).
    str_constants: Dict[str, str] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    def __post_init__(self) -> None:
        for node in self.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self.str_constants[node.targets[0].id] = node.value.value

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""

    def add(self, rule_id: str, node_or_line, message: str) -> None:
        line = (
            node_or_line
            if isinstance(node_or_line, int)
            else getattr(node_or_line, "lineno", 0)
        )
        self.findings.append(
            finding(rule_id, self.path, line, message, self.snippet(line))
        )

    def literal_str(self, node: ast.AST) -> Optional[str]:
        """A string literal or module-level string constant, else None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.str_constants.get(node.id)
        return None


@dataclass
class ProjectContext:
    """The whole lint run, for cross-module rules."""

    modules: List[ModuleContext]
    #: Documented observability names (None: no doc source available,
    #: the S-rules that need it skip).
    documented: Optional["DocumentedNames"] = None
    findings: List[Finding] = field(default_factory=list)

    def add(self, rule_id: str, path: str, line: int, message: str, snippet: str = "") -> None:
        self.findings.append(finding(rule_id, path, line, message, snippet))


@dataclass
class DocumentedNames:
    """Observability names extracted from the architecture doc."""

    path: str
    metrics: Set[str] = field(default_factory=set)
    phases: Set[str] = field(default_factory=set)
    spans: Set[str] = field(default_factory=set)
    events: Set[str] = field(default_factory=set)
    #: Doc line each name was found on (for anchoring S303 findings).
    lines: Dict[str, int] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# the registry                                                          #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RuleInfo:
    id: str
    title: str
    scope: str  # "module" | "project"
    func: Callable


RULES: Dict[str, RuleInfo] = {}


def rule(rule_id: str, title: str, *, scope: str = "module"):
    """Register a rule implementation under its stable id."""

    def decorate(func: Callable) -> Callable:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = RuleInfo(id=rule_id, title=title, scope=scope, func=func)
        return func

    return decorate


#: Rule ids that exist only as findings (no registered checker): waiver
#: hygiene and parse errors are produced by the engine itself.
SYNTHETIC_RULES: Dict[str, str] = {
    "W401": "stale waiver (suppresses nothing)",
    "W402": "malformed waiver (unknown rule id or missing reason)",
    "E001": "file failed to parse",
}


def all_rule_ids() -> List[str]:
    """Every id a waiver may name, sorted."""
    return sorted(set(RULES) | set(SYNTHETIC_RULES))


def rule_catalogue() -> List[Tuple[str, str]]:
    """``(id, title)`` rows for docs and ``--list-rules``."""
    rows = [(info.id, info.title) for info in RULES.values()]
    rows.extend(SYNTHETIC_RULES.items())
    return sorted(rows)


def module_rules() -> List[RuleInfo]:
    return [info for info in RULES.values() if info.scope == "module"]


def project_rules() -> List[RuleInfo]:
    return [info for info in RULES.values() if info.scope == "project"]


__all__ = [
    "DocumentedNames",
    "ImportMap",
    "ModuleContext",
    "ProjectContext",
    "RULES",
    "RuleInfo",
    "SYNTHETIC_RULES",
    "all_rule_ids",
    "module_rules",
    "project_rules",
    "rule",
    "rule_catalogue",
]
