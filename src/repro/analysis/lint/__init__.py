"""Determinism & fork-safety static analyzer.

Rule-driven AST lint for the repro codebase.  Three rule families
tailored to the project's invariants:

* **D-rules** — determinism: wall-clock, entropy, pids and unsorted
  set/dict iteration fenced out of deterministic modules;
* **P-rules** — pickle & pool safety: ``__reduce__`` fidelity across
  the campaign error taxonomy, pool-submitted closures over module
  mutables, sqlite connections crossing fork boundaries;
* **S-rules** — store & schema: raw SQL bypassing the checksum API,
  observability names drifting from the architecture doc's tables.

Entry points: ``python -m repro lint`` (CLI) and
:func:`~repro.analysis.lint.engine.lint_paths` /
:func:`~repro.analysis.lint.engine.lint_sources` (API).
"""
