"""The module-classification manifest.

Every module under ``src/repro/`` belongs to exactly one **class** that
decides which rule families apply to it, plus optional capability
**tags** that grant narrow exemptions.  The manifest is the single
place where "this module is allowed wall-clock" lives — rules never
hard-code module names.

Classes
-------
``core``
    Deterministic-core: anything whose computation can reach canonical
    spec JSON, store payloads or summary rendering.  Wall-clock,
    entropy and pid rules (D101/D102/D104) apply.  This is the default.
``serialization``
    Core modules that additionally canonicalise, merge or serialise
    payloads — the D103 unsorted-iteration rule applies on top of the
    core rules.
``telemetry``
    The observability side channel: wall-clock timestamps and pids are
    its *job*; D-rules are off (S-rules still apply).
``console``
    Console/CLI formatting seams — human-facing, never persisted.
``cli``
    Entry points (``__main__``): argument parsing and process exit.
``tool``
    The static analyzer itself.

Tags
----
``allow-pid``
    ``os.getpid()`` is legitimate here (shard naming, self-signalling).
``allow-wallclock``
    Wall-clock reads are legitimate here.
``store-api``
    The sanctioned home of raw SQL against the ``results`` table; S301
    flags such SQL everywhere else.
"""

from __future__ import annotations

import fnmatch
import pathlib
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Sequence, Tuple, Union

#: Module classes whose members get the determinism rules (D1xx).
DETERMINISTIC_CLASSES = frozenset({"core", "serialization"})

#: All recognised module classes.
MODULE_CLASSES = frozenset(
    {"core", "serialization", "telemetry", "console", "cli", "tool"}
)

#: All recognised capability tags.
KNOWN_TAGS = frozenset({"allow-pid", "allow-wallclock", "store-api"})

#: Exception taxonomies whose instances cross process-pool boundaries
#: pickled; the P-rules enforce ``__reduce__`` fidelity over every
#: class rooted here (the PR 8 bug class).
PICKLED_EXCEPTION_ROOTS = frozenset({"CampaignError"})

#: Functions the process pool runs as warm-worker initializers —
#: module-level mutable state they assign is fork-safe by construction.
WORKER_INITIALIZERS = frozenset({"warm_lean_golden"})

#: ``(glob pattern, class, tags)`` triples, first match wins.  Patterns
#: match the module path relative to the ``repro`` package root, posix
#: separators.
_RULES: Tuple[Tuple[str, str, FrozenSet[str]], ...] = (
    ("analysis/lint/*", "tool", frozenset()),
    ("telemetry/*", "telemetry", frozenset()),
    ("__main__.py", "cli", frozenset()),
    # Shard files are named by pid — the one sanctioned pid sink
    # outside telemetry (ISSUE 10 rule scope).
    ("store/sharding.py", "serialization", frozenset({"allow-pid", "store-api"})),
    ("store/result_store.py", "serialization", frozenset({"store-api"})),
    ("store/canonical.py", "serialization", frozenset()),
    ("store/serialize.py", "serialization", frozenset()),
    # The failure taxonomy serialises structured payloads into the
    # store's quarantine table.
    ("campaign/errors.py", "serialization", frozenset()),
    ("*", "core", frozenset()),
)


@dataclass(frozen=True)
class ModuleClassification:
    """The manifest's verdict for one module."""

    module: str  # path relative to the repro package root (posix)
    module_class: str
    tags: FrozenSet[str] = field(default_factory=frozenset)

    @property
    def deterministic(self) -> bool:
        return self.module_class in DETERMINISTIC_CLASSES

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


def _package_relative(path: Union[str, pathlib.Path]) -> str:
    """The path relative to the ``repro`` package root, best effort.

    ``src/repro/store/canonical.py`` → ``store/canonical.py``; paths
    outside any ``repro`` directory are returned as-is (their posix
    form), so fixture files simply fall through to the default class.
    """
    parts = pathlib.PurePosixPath(pathlib.Path(path).as_posix()).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return "/".join(parts)


def classify(
    path: Union[str, pathlib.Path],
    *,
    overrides: Optional[Sequence[Tuple[str, str, FrozenSet[str]]]] = None,
) -> ModuleClassification:
    """Classify one module path against the manifest.

    ``overrides`` prepends extra ``(pattern, class, tags)`` rules —
    the fixture tests use it to pin a snippet's class explicitly.
    """
    module = _package_relative(path)
    rules = tuple(overrides or ()) + _RULES
    for pattern, module_class, tags in rules:
        if fnmatch.fnmatchcase(module, pattern):
            return ModuleClassification(
                module=module, module_class=module_class, tags=frozenset(tags)
            )
    return ModuleClassification(module=module, module_class="core")


__all__ = [
    "DETERMINISTIC_CLASSES",
    "KNOWN_TAGS",
    "MODULE_CLASSES",
    "ModuleClassification",
    "PICKLED_EXCEPTION_ROOTS",
    "WORKER_INITIALIZERS",
    "classify",
]
