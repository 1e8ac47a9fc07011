"""Type-fact inference for the dataflow analyzer.

The rules care about a handful of *tags* — "this expression is a
``Backend``", "this is a ``ReadWriteLatch``" — not about full types.
Facts come from three sources, strongest first:

1. **Constructor calls and annotations** — ``latch = ReadWriteLatch()``,
   ``def f(store: PageStore)``, ``x: Backend | None``.
2. **The attribute protocol** — a small table of known attribute types:
   ``PageStore.backend → Backend``, ``PageStore.latch → ReadWriteLatch``,
   ``MultiKeyFile.store → PageStore``, plus per-class ``self._x = expr``
   assignments collected in a pre-pass over each class body.
3. **Name heuristics** — the legacy substring conventions (a name
   segment ``backend`` means Backend, ``latch`` means latch, …), kept
   as a weak fallback so un-annotated code is still covered.

An assignment-tracked fact (source 1/2 propagated through ``x = y``)
always wins over a name heuristic at a use site: that is exactly the
``store = self._backend; store.flush()`` alias case a receiver-name
matcher misses.
"""

from __future__ import annotations

import ast

# -- tags ------------------------------------------------------------------

BACKEND = "Backend"
WAL_BACKEND = "WALBackend"
PAGE_STORE = "PageStore"
BUFFER_POOL = "BufferPool"
LATCH = "ReadWriteLatch"
GATE = "ReadWriteGate"
MULTIKEY_FILE = "MultiKeyFile"
LOCK = "Lock"
CONDITION = "Condition"
INDEX = "Index"
FILE = "File"

Env = dict[str, frozenset[str]]

#: Constructor / annotation name → tags it confers.
CONSTRUCTOR_TAGS: dict[str, frozenset[str]] = {
    "MemoryBackend": frozenset({BACKEND}),
    "FileBackend": frozenset({BACKEND}),
    "WALBackend": frozenset({WAL_BACKEND, BACKEND}),
    "Backend": frozenset({BACKEND}),
    "PageStore": frozenset({PAGE_STORE}),
    "BufferPool": frozenset({BUFFER_POOL}),
    "ReadWriteLatch": frozenset({LATCH}),
    "ReadWriteGate": frozenset({GATE}),
    "MultiKeyFile": frozenset({MULTIKEY_FILE}),
    "Lock": frozenset({LOCK}),
    "RLock": frozenset({LOCK}),
    "Condition": frozenset({CONDITION}),
    "Semaphore": frozenset({LOCK}),
    "BoundedSemaphore": frozenset({LOCK}),
    "HashTree": frozenset({INDEX}),
    "MDEH": frozenset({INDEX}),
    "open": frozenset({FILE}),
}

#: (owner tag, attribute) → tags of the attribute value.
ATTRIBUTE_PROTOCOL: dict[tuple[str, str], frozenset[str]] = {
    (PAGE_STORE, "backend"): frozenset({BACKEND}),
    (PAGE_STORE, "latch"): frozenset({LATCH}),
    (PAGE_STORE, "pool"): frozenset({BUFFER_POOL}),
    (MULTIKEY_FILE, "store"): frozenset({PAGE_STORE}),
    (MULTIKEY_FILE, "index"): frozenset({INDEX}),
}

#: Methods that return ``self``-ish handles keep their owner's tags —
#: none currently; placeholder for future chaining.


def name_heuristic_tags(name: str) -> frozenset[str]:
    """The legacy naming conventions, as weak facts."""
    tags: set[str] = set()
    for seg in name.lower().split("_"):
        if not seg:
            continue
        if seg.startswith("backend"):
            tags.add(BACKEND)
        elif seg == "wal":
            tags.update({WAL_BACKEND, BACKEND})
        elif "latch" in seg:
            tags.add(LATCH)
        elif "gate" in seg:
            tags.add(GATE)
        elif seg == "store":
            tags.add(PAGE_STORE)
        elif seg in {"fh", "fp", "fd"}:
            tags.add(FILE)
        elif seg == "file":
            tags.update({MULTIKEY_FILE, FILE})
        elif seg in {"index", "tree"}:
            tags.add(INDEX)
        elif seg in {"lock", "mutex"}:
            tags.add(LOCK)
    return frozenset(tags)


def annotation_tags(annotation: ast.expr | None) -> frozenset[str]:
    """Tags conferred by a type annotation (handles unions/Optional
    and string annotations)."""
    if annotation is None:
        return frozenset()
    tags: set[str] = set()
    stack: list[ast.expr] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                continue
        elif isinstance(node, ast.Name):
            tags |= CONSTRUCTOR_TAGS.get(node.id, frozenset())
        elif isinstance(node, ast.Attribute):
            tags |= CONSTRUCTOR_TAGS.get(node.attr, frozenset())
        elif isinstance(node, ast.Subscript):
            stack.append(node.value)
            stack.append(node.slice)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, ast.Tuple):
            stack.extend(node.elts)
    return tags


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class ClassContext:
    """Per-class facts: ``self.<attr>`` tags collected in a pre-pass.

    ``self_tags`` holds the tags the class itself confers on ``self``
    (its own name looked up in the constructor table, so methods of
    ``PageStore`` see ``self`` as a PageStore).
    """

    def __init__(self, cls: ast.ClassDef) -> None:
        self.name = cls.name
        self.self_tags = CONSTRUCTOR_TAGS.get(cls.name, frozenset())
        base_tags: set[str] = set(self.self_tags)
        for base in cls.bases:
            base_name = (
                base.id if isinstance(base, ast.Name)
                else base.attr if isinstance(base, ast.Attribute) else None
            )
            if base_name:
                base_tags |= CONSTRUCTOR_TAGS.get(base_name, frozenset())
        self.self_tags = frozenset(base_tags)
        self.attr_tags: dict[str, frozenset[str]] = {}
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        tags = frozenset()
                        if isinstance(node, ast.AnnAssign):
                            tags = annotation_tags(node.annotation)
                        value = node.value
                        if not tags and value is not None:
                            tags = self._value_tags(value)
                        if tags:
                            merged = self.attr_tags.get(
                                target.attr, frozenset()
                            )
                            self.attr_tags[target.attr] = merged | tags

    @staticmethod
    def _value_tags(value: ast.expr) -> frozenset[str]:
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name:
                return CONSTRUCTOR_TAGS.get(name, frozenset())
        if isinstance(value, ast.Name):
            return name_heuristic_tags(value.id)
        return frozenset()


EMPTY: frozenset[str] = frozenset()


class FactEvaluator:
    """Evaluate the tags of an expression under an environment.

    The environment maps local names (from tracked assignments and
    ``with ... as x`` bindings) to tag sets; unknown names fall back to
    the name heuristics.  ``self.<attr>`` resolves through the class
    context, then the attribute protocol, then heuristics on the
    attribute name.
    """

    def __init__(self, cls: ClassContext | None = None) -> None:
        self.cls = cls

    def tags(self, expr: ast.expr, env: Env) -> frozenset[str]:
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.cls is not None:
                return self.cls.self_tags
            if expr.id in env:
                return env[expr.id]
            return name_heuristic_tags(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._attribute_tags(expr, env)
        if isinstance(expr, ast.Call):
            return self._call_tags(expr, env)
        if isinstance(expr, ast.Await):
            return self.tags(expr.value, env)
        if isinstance(expr, (ast.IfExp,)):
            return self.tags(expr.body, env) | self.tags(expr.orelse, env)
        if isinstance(expr, ast.BoolOp):
            out: frozenset[str] = EMPTY
            for value in expr.values:
                out |= self.tags(value, env)
            return out
        if isinstance(expr, ast.NamedExpr):
            return self.tags(expr.value, env)
        return EMPTY

    def _attribute_tags(self, expr: ast.Attribute, env: Env) -> frozenset[str]:
        owner = self.tags(expr.value, env)
        out: set[str] = set()
        for tag in owner:
            out |= ATTRIBUTE_PROTOCOL.get((tag, expr.attr), EMPTY)
        if (
            not out
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.cls is not None
        ):
            out |= self.cls.attr_tags.get(expr.attr, EMPTY)
        if not out:
            out |= set(name_heuristic_tags(expr.attr))
        return frozenset(out)

    def _call_tags(self, expr: ast.Call, env: Env) -> frozenset[str]:
        name = _call_name(expr)
        if name == "getattr" and len(expr.args) >= 2:
            # ``getattr(x, "begin_group", None)`` — tag the result as a
            # bound method of that name so a later call is recognised.
            attr = expr.args[1]
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                return frozenset({f"callable:{attr.value}"})
        if name in CONSTRUCTOR_TAGS:
            return CONSTRUCTOR_TAGS[name]
        # A call on a tagged receiver that returns a context manager
        # keeps the receiver visible: ``store.group(...)`` carries the
        # group token through ``with self._group_commit():``-style use.
        return EMPTY


def transfer_assign(
    evaluator: FactEvaluator, stmt: ast.stmt, env: Env
) -> Env:
    """Flow an environment through one simple statement (assignment
    tracking only — all other statements leave facts unchanged)."""
    if isinstance(stmt, ast.Assign):
        value_tags = evaluator.tags(stmt.value, env)
        new = dict(env)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                if value_tags:
                    new[target.id] = value_tags
                else:
                    new.pop(target.id, None)
            elif isinstance(target, ast.Tuple):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        new.pop(elt.id, None)
        return new
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        tags = annotation_tags(stmt.annotation)
        if not tags and stmt.value is not None:
            tags = evaluator.tags(stmt.value, env)
        new = dict(env)
        if tags:
            new[stmt.target.id] = tags
        else:
            new.pop(stmt.target.id, None)
        return new
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        new = dict(env)
        new.pop(stmt.target.id, None)
        return new
    return env


def bind_with_target(
    evaluator: FactEvaluator, item: ast.withitem, env: Env
) -> Env:
    """``with open(p) as fh:`` binds ``fh`` to the manager's tags."""
    if item.optional_vars is None or not isinstance(
        item.optional_vars, ast.Name
    ):
        return env
    tags = evaluator.tags(item.context_expr, env)
    new = dict(env)
    if tags:
        new[item.optional_vars.id] = tags
    else:
        new.pop(item.optional_vars.id, None)
    return new


def initial_env(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Env:
    """Seed the environment from parameter annotations."""
    env: Env = {}
    args = func.args
    all_args = (
        list(args.posonlyargs) + list(args.args)
        + list(args.kwonlyargs)
    )
    if args.vararg:
        all_args.append(args.vararg)
    if args.kwarg:
        all_args.append(args.kwarg)
    for arg in all_args:
        tags = annotation_tags(arg.annotation)
        if tags:
            env[arg.arg] = tags
    return env
