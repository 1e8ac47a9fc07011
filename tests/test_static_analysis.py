"""Seeded-violation suite for the dataflow static analyzer.

Every REP2xx/REP3xx rule is proven to *fire* on at least two seeded
reproducers — one plain, one obscured through an alias or ``getattr``
laundering — and to stay silent on the disciplined variant of the same
code.  A rule that never fires is vacuous; a rule that fires on clean
code is noise.  Both directions are pinned here.

The suite also locks down the analyzer's supporting machinery: CFG
exception edges, suppression comments (including REP400 for stale
ones), path scoping (POSIX and Windows-style separators), the
lock-order DOT rendering, and the zero-findings contract over the
shipped tree.
"""

from __future__ import annotations

import ast
import pathlib

from repro.sanitize import analyze_paths, analyze_source
from repro.sanitize.static import (
    LockOrderAnalyzer,
    Suppressions,
    build_cfg,
)

SRC = "src/repro/core/mod.py"      # src-scoped rules active
TEST = "tests/test_mod.py"         # only REP2xx/REP3xx active


def codes(source: str, path: str = TEST) -> list[str]:
    return [i.code for i in analyze_source(source, path)]


class TestREP201BlockingInAsync:
    def test_time_sleep_in_async(self):
        source = (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"
        )
        assert codes(source) == ["REP201"]

    def test_blocking_store_read_through_alias(self):
        source = (
            "async def handler():\n"
            "    s = PageStore(MemoryBackend())\n"
            "    t = s\n"
            "    return t.read(7)\n"
        )
        assert codes(source) == ["REP201"]

    def test_sync_latch_with_in_async(self):
        source = (
            "async def handler(latch):\n"
            "    with latch.write():\n"
            "        pass\n"
        )
        assert codes(source) == ["REP201"]

    def test_await_and_executor_are_clean(self):
        source = (
            "import asyncio\n"
            "async def handler(loop, store):\n"
            "    await asyncio.sleep(1)\n"
            "    return await loop.run_in_executor(None, store.read, 7)\n"
        )
        assert codes(source) == []

    def test_sync_function_may_block(self):
        assert codes("import time\ndef work():\n    time.sleep(1)\n") == []


class TestREP202LatchLeak:
    def test_acquire_without_release_on_exception_path(self):
        source = (
            "def update(latch, store):\n"
            "    latch.acquire_write()\n"
            "    store.write(7, 'x')\n"  # may raise: latch held forever
            "    latch.release_write()\n"
        )
        found = analyze_source(source, TEST)
        assert [i.code for i in found] == ["REP202"]
        assert "exception" in found[0].message

    def test_alias_obscured_leak(self):
        source = (
            "def leak():\n"
            "    l = ReadWriteLatch()\n"
            "    m = l\n"
            "    m.acquire_write()\n"
        )
        assert codes(source) == ["REP202"]

    def test_release_in_finally_is_clean(self):
        source = (
            "def update(latch, store):\n"
            "    latch.acquire_write()\n"
            "    try:\n"
            "        store.write(7, 'x')\n"
            "    finally:\n"
            "        latch.release_write()\n"
        )
        assert codes(source) == []

    def test_with_block_is_clean(self):
        source = (
            "def update(latch, store):\n"
            "    with latch.write():\n"
            "        store.write(7, 'x')\n"
        )
        assert codes(source) == []

    def test_async_with_gate_is_clean(self):
        source = (
            "async def serve(gate, results):\n"
            "    async with gate.read_locked():\n"
            "        return results[7]\n"
        )
        assert codes(source) == []


class TestREP203LockOrder:
    CYCLE = (
        "import threading\n"
        "a_lock = threading.Lock()\n"
        "b_lock = threading.Lock()\n"
        "def forward():\n"
        "    with a_lock:\n"
        "        with b_lock:\n"
        "            pass\n"
        "def backward():\n"
        "    with b_lock:\n"
        "        with a_lock:\n"
        "            pass\n"
    )

    def test_opposite_order_cycle(self):
        found = analyze_source(self.CYCLE, TEST)
        assert [i.code for i in found] == ["REP203"]
        assert "a_lock" in found[0].message and "b_lock" in found[0].message

    def test_cycle_through_callee(self):
        # backward() only takes b then *calls* a helper that takes a:
        # the cycle exists only in the interprocedural closure.
        source = (
            "import threading\n"
            "a_lock = threading.Lock()\n"
            "b_lock = threading.Lock()\n"
            "def forward():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
            "def helper():\n"
            "    with a_lock:\n"
            "        pass\n"
            "def backward():\n"
            "    with b_lock:\n"
            "        helper()\n"
        )
        assert codes(source) == ["REP203"]

    def test_consistent_order_is_clean(self):
        source = (
            "import threading\n"
            "a_lock = threading.Lock()\n"
            "b_lock = threading.Lock()\n"
            "def one():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
            "def two():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
        )
        assert codes(source) == []

    def test_dot_rendering_marks_cycle(self):
        analyzer = LockOrderAnalyzer()
        analyzer.add_module(ast.parse(self.CYCLE), TEST)
        graph = analyzer.build()
        dot = graph.to_dot()
        assert dot.startswith("digraph lockorder")
        assert '"a_lock" -> "b_lock"' in dot
        assert '"b_lock" -> "a_lock"' in dot
        assert 'color="red"' in dot  # cyclic edges are highlighted
        # Witness locations ride along as edge labels.
        assert f"{TEST}:6" in dot


class TestREP301UnpairedGroup:
    def test_begin_without_end(self):
        source = (
            "def batch(backend):\n"
            "    backend.begin_group()\n"
            "    backend.store(1, 'x')\n"
        )
        found = analyze_source(source, TEST)
        assert "REP301" in [i.code for i in found]

    def test_getattr_obscured_begin(self):
        source = (
            "def batch(store):\n"
            "    begin = getattr(store.backend, 'begin_group', None)\n"
            "    begin()\n"
        )
        assert codes(source) == ["REP301"]

    def test_paired_on_all_paths_is_clean(self):
        source = (
            "def batch(backend, items):\n"
            "    backend.begin_group()\n"
            "    try:\n"
            "        for page_id, obj in items:\n"
            "            backend.store(page_id, obj)\n"
            "    except Exception:\n"
            "        backend.end_group(commit=False)\n"
            "        raise\n"
            "    else:\n"
            "        backend.end_group(commit=True)\n"
        )
        assert codes(source) == []


class TestREP302MutationOutsideGroup:
    def test_batch_executor_mutates_without_group(self):
        source = (
            "class Runner:\n"
            "    def insert_many(self, pairs: list) -> None:\n"
            "        for k, v in pairs:\n"
            "            self._index.insert(k, v)\n"
        )
        assert codes(source, SRC) == ["REP302"]

    def test_alias_obscured_index(self):
        source = (
            "class Runner:\n"
            "    def delete_many(self, keys: list) -> None:\n"
            "        target = self._index\n"
            "        for k in keys:\n"
            "            target.delete(k)\n"
        )
        assert codes(source, SRC) == ["REP302"]

    def test_mutation_inside_group_is_clean(self):
        source = (
            "class Runner:\n"
            "    def insert_many(self, pairs: list) -> None:\n"
            "        with self._store.group():\n"
            "            for k, v in pairs:\n"
            "                self._index.insert(k, v)\n"
        )
        assert codes(source, SRC) == []

    def test_non_executor_function_exempt(self):
        # Only the named batch executors carry the group obligation.
        source = (
            "class Runner:\n"
            "    def insert_one(self, k: int, v: str) -> None:\n"
            "        self._index.insert(k, v)\n"
        )
        assert codes(source, SRC) == []


class TestREP303FlushInsideGroup:
    def test_backend_flush_inside_group(self):
        source = (
            "def batch(store, backend):\n"
            "    with store.group():\n"
            "        backend.flush()\n"
        )
        assert codes(source) == ["REP303"]

    def test_checkpoint_inside_group(self):
        source = (
            "def batch(store, index):\n"
            "    with store.group():\n"
            "        checkpoint(index)\n"
        )
        assert codes(source) == ["REP303"]

    def test_alias_obscured_flush(self):
        source = (
            "def batch(store):\n"
            "    b = store.backend\n"
            "    with store.group():\n"
            "        b.flush()\n"
        )
        assert codes(source) == ["REP303"]

    def test_flush_after_group_is_clean(self):
        source = (
            "def batch(store, backend):\n"
            "    with store.group():\n"
            "        pass\n"
            "    backend.flush()\n"
        )
        assert codes(source) == []


class TestSuppressions:
    # The marker is assembled at runtime: a literal one in this file
    # would register as a suppression site when the analyzer scans the
    # test suite itself.
    ALLOW = "# repro: " + "allow"

    def test_trailing_comment_suppresses(self):
        source = (
            "import time\n"
            "async def handler():\n"
            f"    time.sleep(1)  {self.ALLOW}[REP201]\n"
        )
        assert codes(source) == []

    def test_standalone_comment_covers_next_line(self):
        source = (
            "import time\n"
            "async def handler():\n"
            f"    {self.ALLOW}[REP201] — the block is deliberate\n"
            "    time.sleep(1)\n"
        )
        assert codes(source) == []

    def test_unused_suppression_is_rep400(self):
        source = (
            "import time\n"
            "def handler():\n"
            f"    time.sleep(1)  {self.ALLOW}[REP201]\n"
        )
        found = analyze_source(source, TEST)
        assert [i.code for i in found] == ["REP400"]
        assert "REP201" in found[0].message

    def test_suppression_is_code_specific(self):
        source = (
            "import time\n"
            "async def handler():\n"
            f"    time.sleep(1)  {self.ALLOW}[REP303]\n"
        )
        found = analyze_source(source, TEST)
        assert sorted(i.code for i in found) == ["REP201", "REP400"]

    def test_multiple_codes_in_one_comment(self):
        supp = Suppressions(f"x = 1  {self.ALLOW}[REP201, REP303]\n")
        assert supp.by_line[1] == {"REP201", "REP303"}


class TestPathScoping:
    ALIAS = (
        "class Reader:\n"
        "    def __init__(self) -> None:\n"
        "        self._backend = FileBackend('x.db')\n"
        "\n"
        "    def sneaky(self, pid: int) -> object:\n"
        "        alias = self._backend\n"
        "        alias.load(pid)\n"
    )

    def test_typed_rep101_only_in_src(self):
        assert codes(self.ALIAS, SRC) == ["REP101"]
        assert codes(self.ALIAS, TEST) == []

    def test_storage_allowlist_exempt(self):
        assert codes(self.ALIAS, "src/repro/storage/wal.py") == []

    def test_windows_style_core_path(self, tmp_path):
        # Path scoping normalizes backslash separators; a literal
        # 'repro\\core\\mod.py' file name on POSIX exercises it.
        (tmp_path / "src").mkdir()
        victim = tmp_path / "src" / "repro\\core\\mod.py"
        victim.write_text("def public(x):\n    return x\n")
        found = analyze_paths([victim]).issues
        assert [i.code for i in found] == ["REP104"]

    def test_windows_style_server_path(self, tmp_path):
        (tmp_path / "src").mkdir()
        victim = tmp_path / "src" / "repro\\server\\handlers.py"
        victim.write_text("def go(file, k, v):\n    file.insert(k, v)\n")
        found = analyze_paths([victim]).issues
        assert [i.code for i in found] == ["REP106"]


class TestCFG:
    def _cfg(self, source: str):
        func = ast.parse(source).body[0]
        return build_cfg(func)

    def test_call_has_exception_edge(self):
        cfg = self._cfg("def f(x):\n    x.go()\n    return 1\n")
        exc_targets = {
            dst.kind
            for node in cfg.nodes
            for dst, kind in node.succ
            if kind == "exc"
        }
        # The call may raise: its exc edge must route to the function's
        # raise-exit, where leak checks run.
        assert "raise" in exc_targets

    def test_finally_reached_from_both_paths(self):
        source = (
            "def f(x):\n"
            "    try:\n"
            "        x.go()\n"
            "    finally:\n"
            "        x.done()\n"
        )
        cfg = self._cfg(source)
        (done,) = [
            n for n in cfg.nodes
            if n.kind == "stmt" and "done" in ast.dump(n.payload)
        ]
        # The finally body is built once; its tails fan out to both the
        # normal continuation and the exception propagation path, so
        # dataflow facts reach it from either side.
        succ_kinds = {dst.kind for dst, _ in done.succ}
        assert "raise" in succ_kinds          # re-raise after cleanup
        assert succ_kinds & {"exit", "join"}  # normal fall-through

    def test_pytest_raises_swallows_exception(self):
        # Code after a pytest.raises block is reachable even though the
        # body raised — the manager swallows; a latch released *after*
        # the block therefore still counts on the exc path.
        source = (
            "def f(latch, store):\n"
            "    latch.acquire_read()\n"
            "    try:\n"
            "        with pytest.raises(ValueError):\n"
            "            store.write(1, 'x')\n"
            "    finally:\n"
            "        latch.release_read()\n"
        )
        assert codes(source) == []


class TestShippedTree:
    def test_repo_analyzes_clean(self):
        root = pathlib.Path(__file__).parent.parent
        report = analyze_paths(
            [root / "src", root / "tests", root / "benchmarks"]
        )
        assert report.issues == []

    def test_lock_order_graph_is_acyclic_dag(self):
        root = pathlib.Path(__file__).parent.parent
        report = analyze_paths([root / "src"])
        graph = report.graph
        assert graph.cycles() == []
        # The documented discipline: gate before latch before the
        # server read-mutex; latch before the pool frame lock.
        edges = {(a, b) for (a, b) in graph.edges}
        assert ("ReadWriteGate", "ReadWriteLatch") in edges
        assert ("ReadWriteLatch", "PageStore._frame_lock") in edges
        dot = graph.to_dot()
        assert "color=red" not in dot
