"""Validation of trace-file records against the ``repro-trace/1`` schema.

Hand-rolled field checks (stdlib only — the repo bakes in no JSON-schema
library) used two ways: the test suite validates every line a traced
campaign emits, and ``python -m repro trace --validate``
gives the same check to users.  :data:`RECORD_SCHEMAS` doubles as the
machine-readable description of the trace format for the docs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.telemetry.trace import TRACE_SCHEMA

_NUMBER = (int, float)

#: record kind -> field name -> (accepted types, required).  ``None`` in
#: the accepted-types tuple marks a nullable field.
RECORD_SCHEMAS: Dict[str, Dict[str, Tuple[tuple, bool]]] = {
    "meta": {
        "schema": ((str,), True),
        "created_unix": (_NUMBER, True),
        "pid": ((int,), True),
        "config": ((dict,), True),
    },
    "span": {
        "name": ((str,), True),
        "id": ((int,), True),
        "parent": ((int, None), True),
        "t_start": (_NUMBER, True),
        "t_end": (_NUMBER, True),
        "pid": ((int,), True),
        "worker": ((int, None), True),
        "attrs": ((dict,), True),
    },
    "event": {
        "name": ((str,), True),
        "t": (_NUMBER, True),
        "pid": ((int,), True),
        "fields": ((dict,), True),
    },
    "metrics": {
        "t": (_NUMBER, True),
        "metrics": ((list,), True),
    },
    "flight": {
        "t": (_NUMBER, True),
        "pid": ((int,), True),
        "reason": ((str,), True),
        "entries": ((list,), True),
    },
}

#: Span names the engine emits, in hierarchy order.
SPAN_NAMES = ("campaign", "batch", "point")

_METRIC_FIELDS: Dict[str, Dict[str, Tuple[tuple, bool]]] = {
    "counter": {"value": (_NUMBER, True)},
    "histogram": {
        "bounds": ((list,), True),
        "buckets": ((list,), True),
        "sum": (_NUMBER, True),
        "count": ((int,), True),
    },
}


def _check_fields(
    record: Mapping[str, object],
    fields: Mapping[str, Tuple[tuple, bool]],
    context: str,
) -> List[str]:
    errors = []
    for field, (types, required) in fields.items():
        if field not in record:
            if required:
                errors.append(f"{context}: missing field {field!r}")
            continue
        value = record[field]
        nullable = None in types
        concrete = tuple(t for t in types if t is not None)
        if value is None:
            if not nullable:
                errors.append(f"{context}: field {field!r} must not be null")
        elif concrete and not isinstance(value, concrete):
            # bool passes isinstance(..., int); a boolean pid/id/count is
            # always a bug.
            errors.append(
                f"{context}: field {field!r} has type "
                f"{type(value).__name__}, expected "
                + "/".join(t.__name__ for t in concrete)
            )
        if isinstance(value, bool) and bool not in concrete and float in concrete:
            errors.append(f"{context}: field {field!r} is a bool, expected number")
    return errors


def validate_metric(entry: object, context: str = "metric") -> List[str]:
    """Validate one entry of a metrics snapshot (``to_payload`` form)."""
    if not isinstance(entry, dict):
        return [f"{context}: not an object"]
    errors = _check_fields(
        entry,
        {"name": ((str,), True), "type": ((str,), True), "labels": ((dict,), True)},
        context,
    )
    metric_type = entry.get("type")
    fields = _METRIC_FIELDS.get(metric_type) if isinstance(metric_type, str) else None
    if fields is None:
        errors.append(f"{context}: unknown metric type {metric_type!r}")
    else:
        errors.extend(_check_fields(entry, fields, context))
    if entry.get("type") == "histogram":
        bounds = entry.get("bounds")
        buckets = entry.get("buckets")
        if isinstance(bounds, list) and isinstance(buckets, list):
            if len(buckets) != len(bounds) + 1:
                errors.append(
                    f"{context}: histogram needs len(bounds)+1 buckets, "
                    f"got {len(buckets)} for {len(bounds)} bounds"
                )
    return errors


def validate_record(record: object, line: Optional[int] = None) -> List[str]:
    """Validate one parsed trace record; returns a list of problems
    (empty = valid)."""
    context = f"line {line}" if line is not None else "record"
    if not isinstance(record, dict):
        return [f"{context}: not a JSON object"]
    kind = record.get("event")
    fields = RECORD_SCHEMAS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        return [f"{context}: unknown record kind {kind!r}"]
    errors = _check_fields(record, fields, context)
    if kind == "meta" and record.get("schema") not in (None, TRACE_SCHEMA):
        errors.append(
            f"{context}: schema {record.get('schema')!r} is not {TRACE_SCHEMA!r}"
        )
    if kind == "span":
        t_start, t_end = record.get("t_start"), record.get("t_end")
        if (
            isinstance(t_start, _NUMBER)
            and isinstance(t_end, _NUMBER)
            and t_end < t_start
        ):
            errors.append(f"{context}: span ends before it starts")
    if kind == "metrics" and isinstance(record.get("metrics"), list):
        for index, entry in enumerate(record["metrics"]):
            errors.extend(validate_metric(entry, f"{context}: metrics[{index}]"))
    return errors


__all__ = ["RECORD_SCHEMAS", "SPAN_NAMES", "validate_metric", "validate_record"]
