"""The dataflow rule pass: typed REP101/105/106, REP2xx, REP3xx.

One :class:`FunctionAnalysis` per function (plus one for the module's
top-level statements): build the CFG, run a forward dataflow whose
state is *(type facts, held tokens)*, then walk the fixpoint emitting
findings.

Tokens model acquisitions the rules must pair:

* ``latch`` — ``acquire_read`` / ``acquire_write`` or ``with
  latch.read()/write()``;
* ``lock`` — plain ``Lock``/``Condition`` acquire or ``with lock:``;
* ``gate`` — ``async with gate.read_locked()/write_locked()``;
* ``group`` — ``begin_group()`` or ``with store.group(...)`` (and any
  ``*group*``/``*commit*``-named context manager).

``with``-generated tokens are killed by their own ``leave`` nodes, so
they can never leak; only *manual* tokens (explicit acquire / begin
calls) feed REP202 and REP301.  On an exception edge the statement's
kills apply but its gens do not — a failed acquire holds nothing, a
release that raises has already released.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.sanitize.lint import LintIssue
from repro.sanitize.static.cfg import CFG, EXC, Node, build_cfg, is_swallowing
from repro.sanitize.static import facts as F
from repro.sanitize.static.facts import (
    ClassContext,
    Env,
    FactEvaluator,
    bind_with_target,
    initial_env,
    transfer_assign,
)

# -- token model -----------------------------------------------------------

K_LATCH = "latch"
K_LOCK = "lock"
K_GATE = "gate"
K_GROUP = "group"


@dataclass(frozen=True)
class Token:
    kind: str
    side: str  # "read"/"write" for latches, else == kind
    recv: str  # receiver source text, for matching and messages
    line: int
    manual: bool  # explicit acquire/begin (leak-checkable)
    site: int = -1  # generating CFG node index for ``with`` tokens


@dataclass(frozen=True)
class Scope:
    """Path-derived rule scoping, computed by the engine."""

    in_src: bool = False  # typed REP101/REP105, REP102/REP103 apply
    backend_allowed: bool = False  # storage/disk.py, storage/wal.py
    server_scope: bool = False  # typed REP106 applies
    storage_internal: bool = False  # REP303 exempt (the machinery itself)
    annotations: bool = False  # REP104 applies (core/)
    hot_json: bool = False  # REP107 applies (server/ hot path)
    replica: bool = False  # REP108 applies (server/replica.py)


_BACKEND_METHODS = frozenset({"load", "store", "discard"})
_INDEX_MUTATORS = frozenset({"insert", "delete", "insert_many", "delete_many"})
_BATCH_EXECUTORS = frozenset({"insert_many", "delete_many", "_apply_window"})

_FILE_BLOCKING = frozenset(
    {"read", "write", "flush", "seek", "readline", "readlines",
     "writelines", "truncate", "close"}
)
_STORE_BLOCKING = frozenset(
    {"read", "write", "read_shared", "allocate", "free", "flush", "close"}
)
_LATCH_BLOCKING = frozenset({"acquire_read", "acquire_write", "read", "write"})

#: Functions that intentionally end while holding — guard helpers.
_LEAK_EXEMPT_PREFIXES = ("acquire", "_acquire")
_LEAK_EXEMPT_NAMES = frozenset({"__enter__", "__aenter__", "begin_group"})


def _source_text(expr: ast.expr) -> str:
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on real ASTs
        return "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


def _awaited_call_ids(payload: ast.AST) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(payload):
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            out.add(id(node.value))
    return out


def _calls_in(payload: ast.AST | None) -> list[ast.Call]:
    if payload is None:
        return []
    return [n for n in ast.walk(payload) if isinstance(n, ast.Call)]


def _swallowed_stmts(func: ast.AST) -> set[int]:
    """ids of statements lexically inside a swallowing ``with`` body
    (``pytest.raises`` / ``contextlib.suppress``): an acquire there is
    *expected* to fail, so it generates no token."""
    out: set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            is_swallowing(item) for item in node.items
        ):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.stmt):
                        out.add(id(sub))
    return out


# -- event extraction ------------------------------------------------------


@dataclass
class Events:
    gens: list[Token] = field(default_factory=list)
    #: (kind, side, recv) specs; recv-matched first, then unique-of-kind.
    kills: list[tuple[str, str, str]] = field(default_factory=list)


def _call_events(
    call: ast.Call, evaluator: FactEvaluator, env: Env, node_index: int
) -> Events:
    events = Events()
    func = call.func
    if isinstance(func, ast.Name):
        tags = env.get(func.id, frozenset())
        if "callable:begin_group" in tags:
            events.gens.append(
                Token(K_GROUP, K_GROUP, func.id, call.lineno, True)
            )
        elif "callable:end_group" in tags:
            events.kills.append((K_GROUP, K_GROUP, func.id))
        return events
    if not isinstance(func, ast.Attribute):
        return events
    recv = func.value
    recv_tags = evaluator.tags(recv, env)
    recv_text = _source_text(recv)
    attr = func.attr
    if attr == "acquire_read":
        events.gens.append(Token(K_LATCH, "read", recv_text, call.lineno, True))
    elif attr == "acquire_write":
        events.gens.append(Token(K_LATCH, "write", recv_text, call.lineno, True))
    elif attr == "release_read":
        events.kills.append((K_LATCH, "read", recv_text))
    elif attr == "release_write":
        events.kills.append((K_LATCH, "write", recv_text))
    elif attr == "acquire" and (
        {F.LOCK, F.CONDITION} & recv_tags
    ):
        events.gens.append(Token(K_LOCK, K_LOCK, recv_text, call.lineno, True))
    elif attr == "release" and ({F.LOCK, F.CONDITION} & recv_tags):
        events.kills.append((K_LOCK, K_LOCK, recv_text))
    elif attr == "begin_group":
        events.gens.append(Token(K_GROUP, K_GROUP, recv_text, call.lineno, True))
    elif attr == "end_group":
        events.kills.append((K_GROUP, K_GROUP, recv_text))
    return events


def _with_token(
    item: ast.withitem, evaluator: FactEvaluator, env: Env, node_index: int
) -> Token | None:
    """The token a ``with`` item acquires, if it is an acquisition."""
    expr = item.context_expr
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        attr = expr.func.attr
        recv = expr.func.value
        recv_tags = evaluator.tags(recv, env)
        recv_text = _source_text(recv)
        if F.LATCH in recv_tags and attr in ("read", "write"):
            return Token(K_LATCH, attr, recv_text, expr.lineno, False, node_index)
        if F.GATE in recv_tags and attr in ("read_locked", "write_locked"):
            side = "read" if attr == "read_locked" else "write"
            return Token(K_GATE, side, recv_text, expr.lineno, False, node_index)
        if "group" in attr or "commit" in attr:
            return Token(K_GROUP, K_GROUP, recv_text, expr.lineno, False, node_index)
    elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if "group" in expr.func.id or "commit" in expr.func.id:
            return Token(
                K_GROUP, K_GROUP, expr.func.id, expr.lineno, False, node_index
            )
    elif isinstance(expr, (ast.Name, ast.Attribute)):
        tags = evaluator.tags(expr, env)
        if {F.LOCK, F.CONDITION} & tags:
            return Token(
                K_LOCK, K_LOCK, _source_text(expr), expr.lineno, False, node_index
            )
        if F.LATCH in tags:
            return Token(
                K_LATCH, "write", _source_text(expr), expr.lineno, False, node_index
            )
    return None


def _apply_kills(
    tokens: frozenset[Token], kills: list[tuple[str, str, str]]
) -> frozenset[Token]:
    out = set(tokens)
    for kind, side, recv in kills:
        matched = {
            t for t in out if t.kind == kind and t.side == side and t.recv == recv
        }
        if not matched:
            of_kind = [t for t in out if t.kind == kind and t.side == side]
            if len(of_kind) == 1:
                matched = {of_kind[0]}
        out -= matched
    return frozenset(out)


# -- the per-function analysis --------------------------------------------


@dataclass
class _State:
    env: Env
    tokens: frozenset[Token]


def _merge_env(a: Env, b: Env) -> Env:
    if not a:
        return dict(b)
    out = dict(a)
    for name, tags in b.items():
        out[name] = out.get(name, frozenset()) | tags
    return out


class FunctionAnalysis:
    """Dataflow + rule findings for one function (or module) body."""

    _MAX_PASSES = 50

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
        path: str,
        scope: Scope,
        cls: ClassContext | None = None,
    ) -> None:
        self.func = func
        self.path = path
        self.scope = scope
        self.cls = cls
        self.evaluator = FactEvaluator(cls)
        self.is_async = isinstance(func, ast.AsyncFunctionDef)
        self.name = getattr(func, "name", "<module>")
        self.cfg: CFG = build_cfg(func)  # type: ignore[arg-type]
        self._index = {id(n): i for i, n in enumerate(self.cfg.nodes)}
        self._swallowed = _swallowed_stmts(func)
        self._in: dict[int, _State] = {}
        self.issues: list[LintIssue] = []
        self._reported: set[tuple[str, int, str]] = set()

    # -- dataflow ----------------------------------------------------------

    def _transfer(self, node: Node, state: _State) -> tuple[_State, _State]:
        """Returns (normal-out, exceptional-out)."""
        env, tokens = state.env, state.tokens
        gens: list[Token] = []
        kills: list[tuple[str, str, str]] = []
        idx = self._index[id(node)]
        if node.kind == "stmt" and node.payload is not None:
            for call in _calls_in(node.payload):
                ev = _call_events(call, self.evaluator, env, idx)
                gens.extend(ev.gens)
                kills.extend(ev.kills)
            if isinstance(node.payload, ast.stmt):
                env = transfer_assign(self.evaluator, node.payload, env)
        elif node.kind == "enter" and isinstance(node.payload, ast.withitem):
            token = _with_token(node.payload, self.evaluator, env, idx)
            if token is not None:
                gens.append(token)
            env = bind_with_target(self.evaluator, node.payload, env)
        elif node.kind == "leave" and node.enter_node is not None:
            enter_idx = self._index[id(node.enter_node)]
            kills_sites = {
                t for t in tokens if t.site == enter_idx
            }
            base = frozenset(tokens - kills_sites)
            return _State(env, base), _State(env, base)
        if node.stmt is not None and id(node.stmt) in self._swallowed:
            gens = []  # an acquire under pytest.raises is expected to fail
        base = _apply_kills(tokens, kills)
        normal = _State(env, base | frozenset(gens))
        exc = _State(env, base)
        return normal, exc

    def run(self) -> None:
        entry_env = (
            initial_env(self.func)  # type: ignore[arg-type]
            if not isinstance(self.func, ast.Module)
            else {}
        )
        self._in[self._index[id(self.cfg.entry)]] = _State(
            entry_env, frozenset()
        )
        worklist = [self.cfg.entry]
        passes = 0
        while worklist and passes < self._MAX_PASSES * len(self.cfg.nodes):
            passes += 1
            node = worklist.pop()
            idx = self._index[id(node)]
            state = self._in.get(idx)
            if state is None:
                continue
            normal, exc = self._transfer(node, state)
            for succ, kind in node.succ:
                out = exc if kind == EXC else normal
                sidx = self._index[id(succ)]
                prev = self._in.get(sidx)
                if prev is None:
                    self._in[sidx] = _State(dict(out.env), out.tokens)
                    worklist.append(succ)
                else:
                    env = _merge_env(prev.env, out.env)
                    tokens = prev.tokens | out.tokens
                    if env != prev.env or tokens != prev.tokens:
                        self._in[sidx] = _State(env, tokens)
                        worklist.append(succ)
        self._emit()

    # -- findings ----------------------------------------------------------

    def _issue(
        self, code: str, line: int, col: int, message: str
    ) -> None:
        key = (code, line, message[:40])
        if key in self._reported:
            return
        self._reported.add(key)
        self.issues.append(LintIssue(self.path, line, col, code, message))

    def _emit(self) -> None:
        for node in self.cfg.nodes:
            state = self._in.get(self._index[id(node)])
            if state is None:
                continue  # unreachable
            if node.kind == "stmt" and node.payload is not None:
                self._check_calls(node, state)
            elif node.kind == "enter" and isinstance(node.payload, ast.withitem):
                self._check_enter(node, state)
        self._check_leaks()

    # REP202 / REP301 — tokens surviving to an exit.
    def _check_leaks(self) -> None:
        if self.name.startswith(_LEAK_EXEMPT_PREFIXES) or (
            self.name in _LEAK_EXEMPT_NAMES
        ):
            return
        for exit_node, on_exc in ((self.cfg.exit, False), (self.cfg.raise_exit, True)):
            state = self._in.get(self._index[id(exit_node)])
            if state is None:
                continue
            for token in sorted(state.tokens, key=lambda t: t.line):
                if not token.manual:
                    continue
                if token.kind in (K_LATCH, K_LOCK):
                    where = (
                        "on exception paths — move the release into a "
                        "finally block"
                        if on_exc
                        else "on every path out of this function"
                    )
                    self._issue(
                        "REP202",
                        token.line,
                        0,
                        f"{token.kind} acquired on {token.recv!r} "
                        f"(line {token.line}) is not released {where}",
                    )
                elif token.kind == K_GROUP and not on_exc:
                    self._issue(
                        "REP301",
                        token.line,
                        0,
                        f"begin_group() on {token.recv!r} (line {token.line}) "
                        "has no matching end_group() on every normal path — "
                        "an unpaired group never commits its batch",
                    )

    def _check_enter(self, node: Node, state: _State) -> None:
        assert isinstance(node.payload, ast.withitem)
        if not self.is_async or not isinstance(node.stmt, ast.With):
            return
        token = _with_token(
            node.payload, self.evaluator, state.env, self._index[id(node)]
        )
        if token is not None and token.kind in (K_LATCH, K_LOCK):
            self._issue(
                "REP201",
                node.payload.context_expr.lineno,
                node.payload.context_expr.col_offset,
                f"sync `with {_source_text(node.payload.context_expr)}:` "
                "blocks the event loop inside an async function — use the "
                "async gate or move the work to an executor",
            )

    def _check_calls(self, node: Node, state: _State) -> None:
        payload = node.payload
        assert payload is not None
        awaited = _awaited_call_ids(payload) if self.is_async else set()
        for call in _calls_in(payload):
            self._check_one_call(call, state, awaited)

    def _check_one_call(
        self, call: ast.Call, state: _State, awaited: set[int]
    ) -> None:
        env = state.env
        func = call.func
        group_held = any(t.kind == K_GROUP for t in state.tokens)

        if isinstance(func, ast.Name):
            # REP201: blocking builtins on the event-loop path.
            if self.is_async and func.id == "open":
                self._issue(
                    "REP201", call.lineno, call.col_offset,
                    "open() performs blocking file I/O inside an async "
                    "function — run it in an executor",
                )
            if (
                self.is_async
                and func.id == "sleep"
                and id(call) not in awaited
            ):
                self._issue(
                    "REP201", call.lineno, call.col_offset,
                    "sleep() blocks the event loop inside an async "
                    "function — use `await asyncio.sleep(...)`",
                )
            # REP303: an explicit checkpoint is a durability point.
            if group_held and func.id == "checkpoint" and not (
                self.scope.storage_internal
            ):
                self._issue(
                    "REP303", call.lineno, call.col_offset,
                    "checkpoint() inside a group-commit scope splits the "
                    "coalesced batch into extra durability points — "
                    "checkpoint after the group closes",
                )
            return

        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        recv_tags = self.evaluator.tags(func.value, env)
        recv_text = _source_text(func.value)
        backend_tagged = bool({F.BACKEND, F.WAL_BACKEND} & recv_tags)

        # -- typed REP101 / REP105 (src-only, accounting layer exempt) ----
        if self.scope.in_src and not self.scope.backend_allowed:
            if attr in _BACKEND_METHODS and backend_tagged:
                self._issue(
                    "REP101", call.lineno, call.col_offset,
                    f"direct Backend.{attr}() on {recv_text!r} bypasses "
                    "PageStore I/O accounting — route the access through "
                    "the store",
                )
            if attr == "flush" and backend_tagged and F.PAGE_STORE not in recv_tags:
                self._issue(
                    "REP105", call.lineno, call.col_offset,
                    f"direct WAL/backend flush() on {recv_text!r} is a "
                    "durability point that bypasses group commit — use "
                    "PageStore.flush(), PageStore.group() or checkpoint()",
                )

        # -- typed REP106 (server scope, aggregator exempt) ----------------
        if self.scope.server_scope and attr in _INDEX_MUTATORS:
            innocuous = recv_tags and not (
                {F.INDEX, F.MULTIKEY_FILE, F.PAGE_STORE} & recv_tags
            )
            if not innocuous:
                self._issue(
                    "REP106", call.lineno, call.col_offset,
                    f"server code calls .{attr}() directly — every served "
                    "mutation must flow through the write aggregator "
                    "(server/aggregator.py) so concurrent writes coalesce "
                    "into one group commit",
                )

        # -- REP201: blocking calls inside ``async def`` -------------------
        if self.is_async:
            is_time_sleep = (
                attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            )
            blocking = (
                is_time_sleep
                or (F.FILE in recv_tags and attr in _FILE_BLOCKING)
                or (F.PAGE_STORE in recv_tags and attr in _STORE_BLOCKING)
                or (F.LATCH in recv_tags and attr in _LATCH_BLOCKING)
                or ({F.LOCK, F.CONDITION} & recv_tags and attr == "acquire")
            )
            if blocking:
                what = (
                    "time.sleep()" if is_time_sleep
                    else f"{recv_text}.{attr}()"
                )
                self._issue(
                    "REP201", call.lineno, call.col_offset,
                    f"{what} blocks the event loop inside an async "
                    "function — await an async equivalent or run it in "
                    "an executor",
                )

        # -- REP302: mutation outside the group in a batch executor --------
        if (
            self.scope.in_src
            and self.name in _BATCH_EXECUTORS
            and attr in ("insert", "delete")
            and not group_held
            and ({F.INDEX, F.MULTIKEY_FILE} & recv_tags or not recv_tags)
        ):
            self._issue(
                "REP302", call.lineno, call.col_offset,
                f".{attr}() in batch executor {self.name}() runs outside "
                "a group-commit scope — wrap the batch in "
                "store.group()/_group_commit() or each mutation pays its "
                "own durability point",
            )

        # -- REP303: flush inside a group splits the batch -----------------
        if (
            group_held
            and not self.scope.storage_internal
            and attr == "flush"
            and backend_tagged
            and F.PAGE_STORE not in recv_tags
        ):
            self._issue(
                "REP303", call.lineno, call.col_offset,
                f"{recv_text}.flush() inside a group-commit scope forces a "
                "durability point mid-batch, splitting the coalesced "
                "commit — let end_group() flush once at the boundary",
            )


# -- module driver ---------------------------------------------------------


def _immediate_defs(node: ast.AST) -> list[ast.AST]:
    """Function/class definitions directly inside ``node``'s body —
    descent stops at the first definition boundary so each nested scope
    is analyzed exactly once."""
    defs: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop(0)
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            defs.append(child)
        elif not isinstance(child, ast.Lambda):
            stack.extend(ast.iter_child_nodes(child))
    return defs


def analyze_module(
    tree: ast.Module, path: str, scope: Scope
) -> list[LintIssue]:
    """Run the dataflow rules over every function in a module (and the
    module's own top level)."""
    issues: list[LintIssue] = []

    top = FunctionAnalysis(tree, path, scope, None)
    top.run()
    issues.extend(top.issues)

    def visit(node: ast.AST, cls: ClassContext | None) -> None:
        for child in _immediate_defs(node):
            if isinstance(child, ast.ClassDef):
                visit(child, ClassContext(child))
            else:
                analysis = FunctionAnalysis(
                    child, path, scope, cls  # type: ignore[arg-type]
                )
                analysis.run()
                issues.extend(analysis.issues)
                visit(child, cls)

    visit(tree, None)
    return sorted(issues, key=lambda i: (i.line, i.col, i.code))
