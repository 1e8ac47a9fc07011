"""The analyzer driver: scoping, suppressions, and the public API.

``analyze_paths`` is what ``repro analyze`` runs: per-file dataflow
rules, the value rules of :mod:`repro.sanitize.lint`, and one
whole-program lock-order pass, with ``repro: allow[REPxxx]``
suppression comments honoured and unused suppressions reported as
REP400.

Rule scoping by path (every rule but REP2xx/REP3xx needs ``src/repro``):

* typed REP101/REP105 — everywhere but the accounting-layer files in
  ``BACKEND_ALLOWED``;
* REP102/REP103 — everywhere;
* REP104 — ``core/`` only;
* typed REP106 — ``server/`` minus the write aggregator and the
  migrator (typed receiver);
* REP107 — ``server/`` minus ``binpayload.py`` and ``shard.py``;
* REP108 — ``server/replica.py`` only;
* REP2xx / REP3xx — everywhere the analyzer is pointed, including
  ``tests/`` and ``benchmarks/``: latch leaks and blocked event loops
  in test code deadlock CI just as hard.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Sequence

from repro.sanitize.lint import LintIssue, lint_tree, repo_source_root
from repro.sanitize.static.lockorder import LockOrderAnalyzer, LockOrderGraph
from repro.sanitize.static.rules import Scope, analyze_module

__all__ = [
    "AnalysisReport",
    "analyze_paths",
    "analyze_source",
    "Suppressions",
]

#: Files allowed to touch a Backend directly: the accounting layer itself,
#: and the WAL wrapper that interposes between the store and the page file.
BACKEND_ALLOWED = ("storage/disk.py", "storage/wal.py")

#: Service-layer files allowed to issue index mutations: the write
#: aggregator, where concurrent mutations coalesce into group commits,
#: and the shard migrator, which mutates no in-process index — its
#: ``insert``/``delete`` calls are :class:`QueryClient` wire requests
#: that the *receiving* worker routes through its own aggregator.
SERVER_MUTATION_ALLOWED = ("server/aggregator.py", "server/migrate.py")

#: Service-layer files allowed to call ``json.*`` (REP107): the
#: migration digest's canonical blob and the on-disk topology file.
SERVER_JSON_ALLOWED = ("server/binpayload.py", "server/shard.py")

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


class Suppressions:
    """``repro: allow[REPxxx]``-style comments for one source file.

    A trailing comment suppresses matching findings on its own line; a
    standalone comment line suppresses the line below it.  Suppressions
    that never fire are themselves findings (REP400) — stale allowances
    are how real violations sneak back in.
    """

    def __init__(self, source: str) -> None:
        #: line → codes allowed there.
        self.by_line: dict[int, set[str]] = {}
        #: (declaration line, code) → used?
        self.sites: dict[tuple[int, str], bool] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if not match:
                continue
            codes = {
                c.strip().upper()
                for c in match.group(1).split(",")
                if c.strip()
            }
            targets = [lineno]
            if line.strip().startswith("#"):
                targets.append(lineno + 1)
            for code in codes:
                self.sites.setdefault((lineno, code), False)
                for target in targets:
                    self.by_line.setdefault(target, set()).add(code)

    def filter(self, issues: list[LintIssue], path: str) -> list[LintIssue]:
        """Drop suppressed findings, then report unused suppressions."""
        kept: list[LintIssue] = []
        for issue in issues:
            allowed = self.by_line.get(issue.line, ())
            if issue.code in allowed:
                for (decl, code), _ in list(self.sites.items()):
                    if code == issue.code and issue.line in (decl, decl + 1):
                        self.sites[(decl, code)] = True
                continue
            kept.append(issue)
        for (decl, code), used in sorted(self.sites.items()):
            if not used:
                kept.append(
                    LintIssue(
                        path, decl, 0, "REP400",
                        f"unused suppression: no {code} finding on this "
                        "line — remove the stale allow comment",
                    )
                )
        return kept


class AnalysisReport:
    """Findings plus the lock-order graph they were derived with."""

    def __init__(
        self, issues: list[LintIssue], graph: LockOrderGraph
    ) -> None:
        self.issues = issues
        self.graph = graph


def _scope_for(path: str) -> Scope:
    """The rule scope of one file path."""
    posix = path.replace("\\", "/")
    in_src = "src/repro/" in posix or posix.startswith("repro/")
    backend_allowed = any(posix.endswith(a) for a in BACKEND_ALLOWED)
    in_server = in_src and "/server/" in posix
    return Scope(
        in_src=in_src,
        backend_allowed=backend_allowed,
        server_scope=in_server
        and not any(posix.endswith(a) for a in SERVER_MUTATION_ALLOWED),
        storage_internal=backend_allowed,
        annotations=in_src and "/core/" in posix,
        hot_json=in_server
        and not any(posix.endswith(a) for a in SERVER_JSON_ALLOWED),
        replica=in_src and posix.endswith("server/replica.py"),
    )


def _analyze_one(
    source: str, path: str
) -> tuple[list[LintIssue], ast.Module | None]:
    """All per-file findings (unsuppressed) plus the parsed tree."""
    scope = _scope_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return (
            [
                LintIssue(
                    path, exc.lineno or 0, exc.offset or 0,
                    "REP100", f"syntax error: {exc.msg}",
                )
            ],
            None,
        )
    issues: list[LintIssue] = []
    if scope.in_src:
        issues.extend(lint_tree(tree, path, scope))
    issues.extend(analyze_module(tree, path, scope))
    return issues, tree


def analyze_source(source: str, path: str = "src/repro/module.py") -> list[LintIssue]:
    """Analyze one module's source text (tests and tooling).

    The fake ``path`` selects rule scoping exactly as for a real file,
    and the lock-order pass runs over just this module.
    """
    issues, tree = _analyze_one(source, path)
    if tree is not None:
        lockorder = LockOrderAnalyzer()
        lockorder.add_module(tree, path)
        issues.extend(lockorder.build().findings())
    return Suppressions(source).filter(
        sorted(issues, key=lambda i: (i.line, i.col, i.code)), path
    )


def analyze_paths(
    paths: Sequence[str | Path] | None = None,
) -> AnalysisReport:
    """Analyze files or directory trees (default: installed ``repro``)."""
    roots = [Path(p) for p in paths] if paths else [repo_source_root()]
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    issues: list[LintIssue] = []
    lockorder = LockOrderAnalyzer()
    suppressions: dict[str, Suppressions] = {}
    per_file: dict[str, list[LintIssue]] = {}
    for file in files:
        path = str(file)
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            issues.append(
                LintIssue(path, 0, 0, "REP100", f"unreadable: {exc}")
            )
            continue
        suppressions[path] = Suppressions(source)
        file_issues, tree = _analyze_one(source, path)
        per_file[path] = file_issues
        if tree is not None:
            lockorder.add_module(tree, path)
    graph = lockorder.build()
    for issue in graph.findings():
        per_file.setdefault(issue.path, []).append(issue)
    for path, file_issues in per_file.items():
        supp = suppressions.get(path)
        if supp is not None:
            issues.extend(supp.filter(file_issues, path))
        else:
            issues.extend(file_issues)
    issues.sort(key=lambda i: (i.path, i.line, i.col, i.code))
    return AnalysisReport(issues, graph)
