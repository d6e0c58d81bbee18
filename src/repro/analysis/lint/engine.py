"""The lint engine: file collection, rule execution, waivers, baseline.

The pipeline per run:

1. collect ``.py`` files under the given paths (sorted walk, so the
   report order is machine-independent);
2. parse each file — a ``SyntaxError`` becomes an ``E001`` finding
   rather than aborting the run;
3. run every module rule against every module;
4. run every project rule (cross-module checks need all modules and
   the documented-name tables);
5. apply inline waivers — after the project rules, so cross-module
   findings like S302 are waivable too — and emit W401/W402 for
   stale/malformed waivers;
6. apply the baseline (line-number-independent fingerprints), sort,
   and assemble the :class:`~repro.analysis.lint.findings.LintReport`.
"""

from __future__ import annotations

import ast
import json
import pathlib
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.analysis.lint.findings import LintReport, finding
from repro.analysis.lint.manifest import classify
from repro.analysis.lint.rules import (
    DocumentedNames,
    ImportMap,
    ModuleContext,
    ProjectContext,
    all_rule_ids,
    module_rules,
    project_rules,
)
from repro.analysis.lint.waivers import apply_waivers, parse_waivers

# Importing the rule modules registers their checks.
import repro.analysis.lint.determinism  # noqa: F401  (registration)
import repro.analysis.lint.pickling  # noqa: F401  (registration)
import repro.analysis.lint.storerules  # noqa: F401  (registration)

from repro.analysis.lint.storerules import parse_documented_names

#: Version key of the baseline file format.
BASELINE_VERSION = 1

Overrides = Sequence[Tuple[str, str, FrozenSet[str]]]


# --------------------------------------------------------------------- #
# file collection                                                       #
# --------------------------------------------------------------------- #
def collect_files(paths: Sequence[Union[str, pathlib.Path]]) -> List[pathlib.Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    seen = {}
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if "__pycache__" not in child.parts:
                    seen[child.as_posix()] = child
        elif path.suffix == ".py":
            seen[path.as_posix()] = path
    return [seen[key] for key in sorted(seen)]


def find_architecture_doc(
    start: Union[str, pathlib.Path],
) -> Optional[pathlib.Path]:
    """``ARCHITECTURE.md`` in ``start`` or the nearest ancestor, if any."""
    current = pathlib.Path(start).resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        doc = candidate / "ARCHITECTURE.md"
        if doc.is_file():
            return doc
    return None


# --------------------------------------------------------------------- #
# the run                                                               #
# --------------------------------------------------------------------- #
def lint_sources(
    sources: Dict[str, str],
    *,
    documented: Optional[DocumentedNames] = None,
    overrides: Optional[Overrides] = None,
) -> LintReport:
    """Lint in-memory sources (``display path -> source text``).

    This is the testable core: :func:`lint_paths` reads files and
    delegates here.  ``overrides`` prepends manifest rules so fixtures
    can pin their module class.
    """
    report = LintReport()
    modules: List[ModuleContext] = []
    waivers_by_module: Dict[str, list] = {}
    known_rules = all_rule_ids()

    for path in sorted(sources):
        source = sources[path]
        report.files_scanned += 1
        source_lines = source.splitlines()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            report.parse_errors += 1
            report.findings.append(
                finding(
                    "E001",
                    path,
                    exc.lineno or 0,
                    f"file failed to parse: {exc.msg}",
                )
            )
            continue
        context = ModuleContext(
            path=path,
            classification=classify(path, overrides=overrides),
            tree=tree,
            source_lines=source_lines,
            imports=ImportMap(tree),
        )
        modules.append(context)
        waivers, malformed = parse_waivers(source_lines, path, known_rules)
        waivers_by_module[path] = waivers
        report.findings.extend(malformed)

    for context in modules:
        for info in module_rules():
            info.func(context)

    project = ProjectContext(modules=modules, documented=documented)
    for info in project_rules():
        info.func(project)
    report.findings.extend(project.findings)

    # Waivers apply after the project rules so cross-module findings
    # (S302 anchors at emission sites) are waivable like any other.
    for context in modules:
        stale = apply_waivers(
            context.findings, waivers_by_module[context.path], context.path
        )
        report.findings.extend(context.findings)
        report.findings.extend(stale)

    report.sort()
    return report


def lint_paths(
    paths: Sequence[Union[str, pathlib.Path]],
    *,
    doc_path: Optional[Union[str, pathlib.Path]] = None,
    baseline_path: Optional[Union[str, pathlib.Path]] = None,
    overrides: Optional[Overrides] = None,
) -> LintReport:
    """Lint files/directories on disk.

    ``doc_path`` points at the architecture doc for the S302/S303
    cross-check; when omitted the nearest ``ARCHITECTURE.md`` above the
    first path is used, and when none exists those rules skip.
    """
    files = collect_files(paths)
    sources: Dict[str, str] = {}
    for path in files:
        sources[path.as_posix()] = path.read_text(encoding="utf-8")

    documented: Optional[DocumentedNames] = None
    doc = pathlib.Path(doc_path) if doc_path else (
        find_architecture_doc(files[0]) if files else None
    )
    if doc is not None and doc.is_file():
        documented = parse_documented_names(
            doc.read_text(encoding="utf-8"), doc.as_posix()
        )

    report = lint_sources(sources, documented=documented, overrides=overrides)
    if baseline_path is not None:
        apply_baseline(report, load_baseline(baseline_path))
    return report


# --------------------------------------------------------------------- #
# baseline                                                              #
# --------------------------------------------------------------------- #
def load_baseline(path: Union[str, pathlib.Path]) -> FrozenSet[str]:
    """Fingerprints recorded in a baseline file (empty if absent)."""
    baseline = pathlib.Path(path)
    if not baseline.is_file():
        return frozenset()
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    return frozenset(payload.get("fingerprints", ()))


def apply_baseline(report: LintReport, fingerprints: FrozenSet[str]) -> None:
    for item in report.findings:
        if item.fingerprint() in fingerprints:
            item.baselined = True


def write_baseline(report: LintReport, path: Union[str, pathlib.Path]) -> int:
    """Record every *active* finding's fingerprint; returns the count."""
    fingerprints = sorted({item.fingerprint() for item in report.active})
    payload = {"v": BASELINE_VERSION, "fingerprints": fingerprints}
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(fingerprints)


__all__ = [
    "BASELINE_VERSION",
    "apply_baseline",
    "collect_files",
    "find_architecture_doc",
    "lint_paths",
    "lint_sources",
    "load_baseline",
    "write_baseline",
]
