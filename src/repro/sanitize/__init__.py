"""Structural sanitizer: machine-checkable invariants for every index.

The paper's claims are structural — the BMEH-tree is height-balanced, a
region's overall depth is exactly ``consumed[j] + h[j]``, Theorem 1's
mapping ``G`` is a bijection over the allocated directory — and a subtle
split bug would silently corrupt every measurement built on top.  This
subpackage makes those claims machine-checkable:

* :mod:`repro.sanitize.invariants` — deep structural validators for each
  index scheme plus the storage layer, raising a structured
  :class:`~repro.errors.InvariantViolation` naming the failing node path;
* :mod:`repro.sanitize.hooks` — an opt-in debug mode (``REPRO_SANITIZE=1``
  or the :func:`sanitized` context manager) that re-validates the index
  after every mutating operation, with a configurable sampling rate;
* :mod:`repro.sanitize.static` — the one static analysis engine, behind
  ``repro analyze``: per-function CFGs, alias/type-fact tracking (the
  typed REP101/REP105/REP106 storage-bypass and served-mutation rules),
  the REP2xx concurrency rules (blocking-in-async, latch leaks,
  lock-order cycles) and the REP3xx durability rules (group-commit
  pairing);
* :mod:`repro.sanitize.lint` — the analyzer's value rules, which need
  only the syntax tree: no float equality on key codes, no mutable
  default arguments, full type annotations on the public ``core`` API,
  no JSON on the service hot path, and no direct mutation in replica
  code.
"""

from repro.sanitize.invariants import (
    check_extendible_array,
    check_gridfile,
    check_hashtree,
    check_kdb,
    check_mdeh,
    check_storage,
    check_structure,
)
from repro.sanitize.hooks import (
    Sanitizer,
    disable_global_sanitizer,
    enable_global_sanitizer,
    global_sanitizer,
    sanitize_enabled,
    sanitize_rate,
    sanitized,
)
from repro.sanitize.lint import LintIssue, format_issues
from repro.sanitize.static import (
    AnalysisReport,
    LockOrderGraph,
    analyze_paths,
    analyze_source,
)

__all__ = [
    "check_extendible_array",
    "check_gridfile",
    "check_hashtree",
    "check_kdb",
    "check_mdeh",
    "check_storage",
    "check_structure",
    "Sanitizer",
    "disable_global_sanitizer",
    "enable_global_sanitizer",
    "global_sanitizer",
    "sanitize_enabled",
    "sanitize_rate",
    "sanitized",
    "LintIssue",
    "format_issues",
    "AnalysisReport",
    "LockOrderGraph",
    "analyze_paths",
    "analyze_source",
]
