"""The lint data model: findings, their JSON form, and its schema.

A :class:`Finding` is one rule violation at one source location.  The
engine collects findings, applies waivers and baselines, and renders
them either as human-readable text or as a JSON report whose shape is
pinned by :data:`REPORT_SCHEMA` — the same stdlib-only structural
validation idiom as :mod:`repro.telemetry.schema`, so CI can assert the
``--json`` output never drifts silently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

#: Bump when the JSON report shape changes.
REPORT_VERSION = 1


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str  # e.g. "D101"
    path: str  # repo-relative (or as-given) posix path
    line: int  # 1-based; 0 for file-level findings
    message: str
    #: The stripped source line the finding anchors to ("" when the
    #: file has no such line, e.g. project-level doc findings).
    snippet: str = ""
    #: Set once a waiver comment covers this finding.
    waived: bool = False
    waive_reason: str = ""
    #: Set once a baseline entry covers this finding.
    baselined: bool = False

    @property
    def suppressed(self) -> bool:
        """Whether the finding blocks a ``--strict`` run."""
        return self.waived or self.baselined

    def fingerprint(self) -> str:
        """Line-number-independent identity used by baseline files.

        Hashing the *snippet* rather than the line number keeps a
        baseline stable across unrelated edits above the finding.
        """
        basis = "\x1f".join((self.rule, self.path, self.snippet, self.message))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}" if self.line else self.path

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
            "waived": self.waived,
            "baselined": self.baselined,
        }
        if self.waived:
            payload["waive_reason"] = self.waive_reason
        return payload

    def describe(self) -> str:
        suffix = ""
        if self.waived:
            suffix = f"  [waived: {self.waive_reason}]"
        elif self.baselined:
            suffix = "  [baselined]"
        return f"{self.location()}: {self.rule} {self.message}{suffix}"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Files that failed to parse (reported as E001 findings too).
    parse_errors: int = 0

    @property
    def active(self) -> List[Finding]:
        """Findings that count against ``--strict`` (not suppressed)."""
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def waived(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.waived]

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    def to_payload(self) -> Dict[str, object]:
        return {
            "v": REPORT_VERSION,
            "files_scanned": self.files_scanned,
            "parse_errors": self.parse_errors,
            "findings": [finding.to_payload() for finding in self.findings],
            "summary": {
                "total": len(self.findings),
                "active": len(self.active),
                "waived": len(self.waived),
                "baselined": sum(1 for f in self.findings if f.baselined),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)

    def render(self) -> str:
        """The human-readable report."""
        lines: List[str] = []
        for finding in self.findings:
            lines.append(finding.describe())
        active = len(self.active)
        lines.append(
            f"{self.files_scanned} file(s) scanned: "
            f"{len(self.findings)} finding(s), {active} active, "
            f"{len(self.waived)} waived, "
            f"{sum(1 for f in self.findings if f.baselined)} baselined"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# the JSON report schema (stdlib structural validation)                 #
# --------------------------------------------------------------------- #

#: Structural schema of :meth:`LintReport.to_payload` — the contract CI
#: validates the ``--json`` output against.
REPORT_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["v", "files_scanned", "parse_errors", "findings", "summary"],
    "properties": {
        "v": {"type": "integer"},
        "files_scanned": {"type": "integer"},
        "parse_errors": {"type": "integer"},
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "rule",
                    "path",
                    "line",
                    "message",
                    "snippet",
                    "fingerprint",
                    "waived",
                    "baselined",
                ],
                "properties": {
                    "rule": {"type": "string", "pattern_prefixes": "DPSWE"},
                    "path": {"type": "string"},
                    "line": {"type": "integer"},
                    "message": {"type": "string"},
                    "snippet": {"type": "string"},
                    "fingerprint": {"type": "string"},
                    "waived": {"type": "boolean"},
                    "baselined": {"type": "boolean"},
                    "waive_reason": {"type": "string"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "active", "waived", "baselined"],
            "properties": {
                "total": {"type": "integer"},
                "active": {"type": "integer"},
                "waived": {"type": "integer"},
                "baselined": {"type": "integer"},
            },
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
}


def _check(value: object, schema: Dict[str, object], where: str, problems: List[str]) -> None:
    expected = _TYPES[str(schema["type"])]
    if expected is int and isinstance(value, bool):
        problems.append(f"{where}: expected integer, got bool")
        return
    if not isinstance(value, expected):
        problems.append(
            f"{where}: expected {schema['type']}, got {type(value).__name__}"
        )
        return
    if expected is dict:
        assert isinstance(value, dict)
        for key in schema.get("required", ()):  # type: ignore[union-attr]
            if key not in value:
                problems.append(f"{where}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():  # type: ignore[union-attr]
            if key in value:
                _check(value[key], sub, f"{where}.{key}", problems)
    elif expected is list:
        assert isinstance(value, list)
        item_schema = schema.get("items")
        if item_schema is not None:
            for index, item in enumerate(value):
                _check(item, item_schema, f"{where}[{index}]", problems)  # type: ignore[arg-type]
    elif expected is str:
        prefixes = schema.get("pattern_prefixes")
        if prefixes and (not value or str(value)[0] not in str(prefixes)):
            problems.append(f"{where}: rule id {value!r} has an unknown family")


def validate_report(payload: object) -> List[str]:
    """Structural problems of a JSON report payload ([] when valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"report: expected object, got {type(payload).__name__}"]
    _check(payload, REPORT_SCHEMA, "report", problems)
    if not problems and payload.get("v") != REPORT_VERSION:
        problems.append(
            f"report.v: version {payload.get('v')!r} != {REPORT_VERSION}"
        )
    return problems


def finding(rule: str, path: str, line: int, message: str, snippet: str = "") -> Finding:
    """Shorthand constructor used by the rule implementations."""
    return Finding(rule=rule, path=path, line=line, message=message, snippet=snippet)


__all__ = [
    "Finding",
    "LintReport",
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "finding",
    "validate_report",
]
