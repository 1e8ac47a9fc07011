"""The value rules of ``repro analyze``: one AST pass per module.

Five rules, each guarding an invariant the runtime sanitizer cannot
see.  They need no dataflow, only the syntax tree and the file's path
scope, which :func:`repro.sanitize.static.engine._scope_for` computes:

* **REP102 float-equality** — ``==`` / ``!=`` against a float literal.
  Pseudo-key codes are exact integers; a float comparison anywhere near
  key handling indicates a lossy encode step leaking into index logic.
* **REP103 mutable-default** — a mutable object (list/dict/set display,
  comprehension, or a constructor call — including dotted forms like
  ``collections.defaultdict(list)`` and ``bytearray()``) as a default
  argument: shared across calls, the classic aliasing bug.
* **REP104 missing-annotations** — a public function in ``core/``
  without full parameter and return annotations.  The core API is the
  contract every later layer builds on; annotations are load-bearing
  documentation there.
* **REP107 hot-path-json** — calling ``json.dumps`` / ``json.loads``
  (or their file-object forms) from service-layer code (``server/``).
  Every frame payload travels in the binary encoding of
  ``server/binpayload.py``; a stray ``json.*`` call in a session,
  aggregator, router or client quietly reintroduces the per-request
  cost the binary codec removed.  Two files are exempt:
  ``server/binpayload.py``, whose JSON is the migration digest's
  canonical record blob, and ``server/shard.py``, whose JSON is the
  on-disk topology file — both administrative cold paths, not wire
  traffic.
* **REP108 replica-mutation** — follower code (``server/replica.py``)
  calling an index mutator (``insert`` / ``delete`` / ``*_many``), a
  store mutator (``allocate`` / ``free`` / ``mark_dirty``), or
  ``.write()`` on a store/index-named receiver.  A read replica's state
  must change **only** by applying the primary's committed WAL batches
  through ``PageStore.apply_replicated`` (which keeps open snapshot
  scans on their pinned pages) — any other mutation forks
  the follower's state from the primary's history, and the divergence
  survives promotion.  The mirror of REP106: that rule keeps served
  mutations inside the aggregator; this one keeps replicas read-only.

The storage-bypass and served-mutation rules (REP101/REP105/REP106)
track receiver types, so they live with the dataflow pass in
:mod:`repro.sanitize.static.rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.sanitize.static.rules import Scope

__all__ = ["LintIssue", "format_issues", "lint_tree", "repo_source_root"]

_JSON_CODEC_FUNCS = frozenset({"dumps", "loads", "dump", "load"})
_INDEX_MUTATORS = frozenset(
    {"insert", "delete", "insert_many", "delete_many"}
)
#: REP108: beyond the index mutators, the store-level mutation surface a
#: replica must never touch directly (``apply_replicated`` is the one
#: sanctioned channel — replicated state changes only by replaying the
#: primary's committed batches).
_REPLICA_STORE_MUTATORS = frozenset({"allocate", "free", "mark_dirty"})
#: Constructor names (terminal identifier, so dotted forms like
#: ``collections.defaultdict`` match) whose call as a default argument
#: shares one mutable object across every call.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray",
     "defaultdict", "OrderedDict", "Counter", "deque"}
)


@dataclass(frozen=True)
class LintIssue:
    """One finding of the static pass."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def repo_source_root() -> Path:
    """The ``src/repro`` package directory this module is installed in."""
    return Path(__file__).resolve().parent.parent


def _terminal_name(node: ast.expr) -> str | None:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, scope: Scope) -> None:
        self.path = path
        self.scope = scope
        self.issues: list[LintIssue] = []
        # Nesting stack of 'class' / 'function' scopes: REP104 applies to
        # module-level functions and methods, not to nested helpers.
        self._scopes: list[str] = []
        # REP107 alias tracking: names bound to the json module
        # (``import json [as j]``) and to its codec functions
        # (``from json import dumps [as d]``).
        self._json_modules: set[str] = set()
        self._json_funcs: set[str] = set()

    # -- REP107 import tracking ------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "json":
                self._json_modules.add(alias.asname or "json")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "json":
            for alias in node.names:
                if alias.name in _JSON_CODEC_FUNCS:
                    self._json_funcs.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _issue(self, node: ast.AST, code: str, message: str) -> None:
        self.issues.append(
            LintIssue(self.path, node.lineno, node.col_offset, code, message)
        )

    # -- REP107 / REP108: calls ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.scope.replica and isinstance(node.func, ast.Attribute):
            receiver = _terminal_name(node.func.value)
            lowered = receiver.lower() if receiver is not None else ""
            method = node.func.attr
            store_write = method == "write" and (
                "store" in lowered or "index" in lowered
            )
            if (
                method in _INDEX_MUTATORS
                or method in _REPLICA_STORE_MUTATORS
                or store_write
            ):
                self._issue(
                    node,
                    "REP108",
                    f"replica code calls .{method}() — a read replica's "
                    "state changes only by replaying the primary's "
                    "committed batches through "
                    "PageStore.apply_replicated(); any direct mutation "
                    "forks the follower from the primary's history",
                )
        if self.scope.hot_json:
            hot_json = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _JSON_CODEC_FUNCS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in self._json_modules
            ) or (
                isinstance(node.func, ast.Name)
                and node.func.id in self._json_funcs
            )
            if hot_json:
                name = _terminal_name(node.func)
                self._issue(
                    node,
                    "REP107",
                    f"json.{name}() on the service hot path — frame "
                    "payloads travel in the binary encoding of "
                    "server/binpayload.py",
                )
        self.generic_visit(node)

    # -- REP102: float equality ------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Constant) and isinstance(
                    side.value, float
                ):
                    self._issue(
                        node,
                        "REP102",
                        f"equality comparison against float literal "
                        f"{side.value!r}; key codes are exact integers — "
                        "compare with a tolerance or restate in integers",
                    )
                    break
        self.generic_visit(node)

    # -- REP103 / REP104: function definitions ----------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scopes.append("class")
        self.generic_visit(node)
        self._scopes.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._check_annotations(node)
        self._scopes.append("function")
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_mutable_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set,
                 ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and _terminal_name(default.func) in _MUTABLE_CONSTRUCTORS
            )
            if mutable:
                self._issue(
                    default,
                    "REP103",
                    f"mutable default argument in {node.name}(); the "
                    "object is shared across calls — default to None",
                )

    def _check_annotations(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if not self.scope.annotations or node.name.startswith("_"):
            return
        if "function" in self._scopes:
            return  # nested helper, not public API
        args = [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]
        if node.args.vararg is not None:
            args.append(node.args.vararg)
        if node.args.kwarg is not None:
            args.append(node.args.kwarg)
        missing = [
            a.arg
            for a in args
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if node.returns is None:
            missing.append("return")
        if missing:
            self._issue(
                node,
                "REP104",
                f"public core function {node.name}() missing annotations "
                f"for: {', '.join(missing)}",
            )


def lint_tree(tree: ast.Module, path: str, scope: Scope) -> list[LintIssue]:
    """Run the value rules ``scope`` enables over one parsed module."""
    linter = _Linter(path, scope)
    linter.visit(tree)
    return linter.issues


def format_issues(issues: Iterable[LintIssue]) -> str:
    """Render findings one per line, compiler style."""
    return "\n".join(str(issue) for issue in issues)
