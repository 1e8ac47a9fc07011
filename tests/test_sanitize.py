"""The structural sanitizer: property workloads, mutation detection, hooks
and the static analyzer's per-path rules.

The mutation tests are the sanitizer's own test bed: each one corrupts a
structure in a specific way and asserts the matching invariant — by name —
fires.  A checker that never fires is vacuous; these tests prove every
advertised invariant actually bites.
"""

from __future__ import annotations

import pathlib
import random
import subprocess
import sys

import pytest

from repro import (
    BMEHTree,
    GridFile,
    InvariantViolation,
    KDBTree,
    MDEH,
    MEHTree,
    sanitized,
)
from repro.core.node import Node
from repro.extarray import ExtendibleArray
from repro.sanitize import (
    Sanitizer,
    check_extendible_array,
    check_structure,
    disable_global_sanitizer,
    enable_global_sanitizer,
    analyze_paths,
    analyze_source,
    global_sanitizer,
    sanitize_enabled,
    sanitize_rate,
)

from tests.conftest import make_index


def fill(index, rng, n, domain=256):
    """Insert ``n`` unique random keys, returning them in order."""
    keys = []
    while len(keys) < n:
        key = (rng.randrange(domain), rng.randrange(domain))
        if key in index:
            continue
        index.insert(key, len(keys))
        keys.append(key)
    return keys


def violation(index):
    """The InvariantViolation ``index`` currently provokes."""
    with pytest.raises(InvariantViolation) as excinfo:
        check_structure(index)
    return excinfo.value


def tree_nodes(index):
    """Every directory node of a hash tree, root first."""
    frontier = [index.store.peek(index.root_id)]
    while frontier:
        node = frontier.pop()
        yield node
        for entry, _ in distinct_entries(node):
            if entry.is_node and entry.ptr is not None:
                frontier.append(index.store.peek(entry.ptr))


def distinct_entries(node):
    """The distinct DirEntry objects of one node, by first address."""
    seen = {}
    for address in range(len(node.array)):
        entry = node.array.get_at(address)
        seen.setdefault(id(entry), (entry, node.array.index_of(address)))
    return list(seen.values())


class TestPropertyWorkloads:
    """Seeded random insert/delete/range runs under full validation."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_workload_stays_valid(self, scheme, seed):
        cls, options = scheme
        index = make_index(cls, options)
        rng = random.Random(seed)
        live = []
        inserted = 0
        with sanitized(index) as sanitizer:
            while len(index) < 150:
                key = (rng.randrange(256), rng.randrange(256))
                if key in index:
                    continue
                index.insert(key, inserted)
                inserted += 1
                live.append(key)
                if inserted % 3 == 0:
                    index.delete(live.pop(rng.randrange(len(live))))
            low = rng.randrange(128)
            list(index.range_search((low, low), (low + 64, low + 64)))
            # Drain completely: merges collapse all the way to the root.
            while live:
                index.delete(live.pop(rng.randrange(len(live))))
        assert len(index) == 0
        assert sanitizer.checks_run == sanitizer.mutations_seen > 0

    def test_delete_heavy_merge_paths(self, scheme):
        """A 45% deletion mix keeps the merge machinery honest."""
        cls, options = scheme
        index = make_index(cls, options)
        rng = random.Random(1986)
        live = []
        with sanitized(index) as sanitizer:
            for step in range(400):
                if live and rng.random() < 0.45:
                    index.delete(live.pop(rng.randrange(len(live))))
                else:
                    key = (rng.randrange(256), rng.randrange(256))
                    if key in index:
                        continue
                    index.insert(key, step)
                    live.append(key)
        assert sanitizer.checks_run > 0
        assert len(index) == len(live)


class TestMutationDetection:
    """Corrupt each structure; assert the right invariant fires by name."""

    def build_tree(self, n=200):
        index = BMEHTree(2, 4, widths=8)
        fill(index, random.Random(11), n)
        return index

    def page_entries(self, index):
        """(node, entry, anchor) triples for data-page entries."""
        for node in tree_nodes(index):
            for entry, anchor in distinct_entries(node):
                if not entry.is_node and entry.ptr is not None:
                    yield node, entry, anchor

    def test_baseline_is_clean(self):
        check_structure(self.build_tree())

    def test_dangling_page_pointer(self):
        index = self.build_tree()
        _, entry, _ = next(self.page_entries(index))
        entry.ptr = 9999
        assert violation(index).invariant == "dangling-pointer"

    def test_local_depth_out_of_range(self):
        index = self.build_tree()
        node, entry, _ = next(self.page_entries(index))
        entry.h[0] = node.array.depths[0] + 1
        assert violation(index).invariant == "local-depth"

    def test_broken_buddy_sharing(self):
        index = self.build_tree()
        for node in tree_nodes(index):
            for address in range(len(node.array)):
                entry = node.array.get_at(address)
                if entry.h != list(node.array.depths):
                    # A multi-cell region: break the object sharing.
                    node.array.set_at(address, entry.clone())
                    assert violation(index).invariant == "region-uniform"
                    return
        pytest.skip("no multi-cell region in this tree")

    def test_unbalanced_leaf_depth(self):
        # A small tree keeps data pages directly under the root, so the
        # root is at level 1; faking a higher level breaks the balance
        # property (Theorem 3) without touching level arithmetic.
        index = BMEHTree(2, 4, widths=8)
        fill(index, random.Random(5), 10)
        root = index.store.peek(index.root_id)
        assert root.level == 1
        root.level = 2
        assert violation(index).invariant == "balance"

    def test_child_level_arithmetic(self):
        index = self.build_tree(400)
        root = index.store.peek(index.root_id)
        assert root.level > 1, "need a multi-level tree"
        child_entry = next(
            e for e, _ in distinct_entries(root) if e.is_node
        )
        child = index.store.peek(child_entry.ptr)
        child.level += 1
        assert violation(index).invariant == "level-arithmetic"

    def test_key_in_wrong_region(self):
        index = self.build_tree()
        entries = [e for _, e, _ in self.page_entries(index)]
        entries[0].ptr, entries[1].ptr = entries[1].ptr, entries[0].ptr
        assert violation(index).invariant == "key-prefix"

    def test_counter_drift(self):
        index = self.build_tree()
        index._num_keys += 1
        assert violation(index).invariant == "counter"

    def test_unpinned_root(self):
        index = self.build_tree()
        index.store.unpin(index.root_id)
        assert violation(index).invariant == "pinned-live"

    def test_orphaned_page_leaks(self):
        index = self.build_tree()
        index.store.allocate(object())  # a stranded sibling, say
        assert violation(index).invariant == "page-leak"

    def test_mdeh_bijectivity(self):
        index = MDEH(2, 4, widths=8)
        fill(index, random.Random(7), 120)
        check_structure(index)
        index._dir._cells.append(None)
        assert violation(index).invariant == "mapping-bijective"

    def test_mdeh_region_corruption(self):
        index = MDEH(2, 4, widths=8)
        fill(index, random.Random(7), 120)
        directory = index._dir
        for address in range(len(directory)):
            entry = directory.get_at(address)
            if entry.h != list(directory.depths):
                directory.set_at(address, entry.clone())
                assert violation(index).invariant == "region-uniform"
                return
        pytest.skip("no multi-cell region in this directory")

    def test_mdeh_counter_drift(self):
        index = MDEH(2, 4, widths=8)
        fill(index, random.Random(7), 120)
        index._num_keys -= 1
        assert violation(index).invariant == "counter"

    def test_extendible_array_roundtrip(self):
        array = ExtendibleArray(2)
        for axis in (0, 1, 0, 0):
            array.grow(axis)
        check_extendible_array(array)
        array._cells.append(None)
        with pytest.raises(InvariantViolation) as excinfo:
            check_extendible_array(array)
        assert excinfo.value.invariant == "mapping-bijective"

    def test_gridfile_unsorted_scale(self):
        index = GridFile(2, 4, widths=8)
        fill(index, random.Random(13), 150)
        scale = index._scales[0]
        assert len(scale) >= 2, "need at least two boundaries"
        scale[0], scale[1] = scale[1], scale[0]
        assert violation(index).invariant == "region-uniform"

    def test_gridfile_dangling_pointer(self):
        index = GridFile(2, 4, widths=8)
        fill(index, random.Random(13), 150)
        region = next(r for r in index._grid if r.ptr is not None)
        region.ptr = 9999
        assert violation(index).invariant == "dangling-pointer"

    def test_kdb_non_dyadic_box(self):
        index = KDBTree(2, 4, widths=8)
        fill(index, random.Random(17), 150)
        root = index.store.peek(index.root_id)
        entry = next(
            e for e in root.entries
            if e.box.highs[0] - e.box.lows[0] + 1 >= 4
        )
        entry.box = type(entry.box)(
            entry.box.lows,
            (entry.box.lows[0] + 2,) + tuple(entry.box.highs[1:]),
        )
        assert violation(index).invariant == "region-uniform"

    def test_kdb_dangling_pointer(self):
        index = KDBTree(2, 4, widths=8)
        fill(index, random.Random(17), 150)

        def leaf_entries(page):
            for entry in page.entries:
                if entry.is_region:
                    yield from leaf_entries(index.store.peek(entry.ptr))
                elif entry.ptr is not None:
                    yield entry

        entry = next(leaf_entries(index.store.peek(index.root_id)))
        entry.ptr = 9999
        assert violation(index).invariant == "dangling-pointer"

    def test_violation_reports_path(self):
        index = self.build_tree()
        _, entry, _ = next(self.page_entries(index))
        entry.ptr = 9999
        exc = violation(index)
        assert exc.scheme == "BMEHTree"
        assert exc.path, "the failure path must name the node chain"
        assert "dangling-pointer" in str(exc)


class TestSanitizerSampling:
    def test_rate_one_checks_every_mutation(self):
        sanitizer = Sanitizer(1.0)
        assert all(sanitizer.should_check() for _ in range(10))

    def test_fractional_rate_is_deterministic(self):
        first, second = (
            [s.should_check() for _ in range(100)]
            for s in (Sanitizer(0.25), Sanitizer(0.25))
        )
        assert sum(first) == 25
        assert first == second, "sampling must be reproducible"

    def test_rate_zero_never_checks(self):
        sanitizer = Sanitizer(0.0)
        assert not any(sanitizer.should_check() for _ in range(50))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Sanitizer(1.5)

    def test_amortized_mode_bounds_check_frequency(self):
        index = BMEHTree(2, 4, widths=8)
        sanitizer = Sanitizer(1.0, amortize=True)
        small = BMEHTree(2, 4, widths=8)
        for _ in range(20):  # under 48 keys: still checked every mutation
            sanitizer.run(small)
        assert sanitizer.checks_run == 20
        fill(index, random.Random(21), 150)
        before = sanitizer.checks_run
        for _ in range(48):
            sanitizer.run(index)
        ran = sanitizer.checks_run - before
        # 150 keys -> a deep walk only every 150 // 48 = 3 mutations.
        assert 0 < ran < 48
        assert ran == 48 // (150 // 48)

    def test_sampled_context_still_ends_validated(self):
        index = BMEHTree(2, 4, widths=8)
        with sanitized(index, rate=0.1) as sanitizer:
            fill(index, random.Random(3), 50)
        assert sanitizer.mutations_seen == 50
        assert sanitizer.checks_run == 5  # plus the final deep check

    def test_env_flag_parsing(self, monkeypatch):
        for value, expected in [
            ("1", True), ("true", True), ("yes", True),
            ("0", False), ("false", False), ("off", False), ("", False),
        ]:
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert sanitize_enabled() is expected
        monkeypatch.delenv("REPRO_SANITIZE")
        assert sanitize_enabled() is False

    def test_env_rate_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_RATE", "2.5")
        assert sanitize_rate() == 1.0
        monkeypatch.setenv("REPRO_SANITIZE_RATE", "0.25")
        assert sanitize_rate() == 0.25
        monkeypatch.setenv("REPRO_SANITIZE_RATE", "junk")
        assert sanitize_rate() == 1.0


class TestGlobalHooks:
    @pytest.fixture(autouse=True)
    def _clean_hooks(self):
        disable_global_sanitizer()
        yield
        disable_global_sanitizer()

    def test_install_and_uninstall(self):
        from repro.core.hashtree import HashTreeBase

        original = HashTreeBase.insert
        sanitizer = enable_global_sanitizer()
        assert global_sanitizer() is sanitizer
        assert getattr(HashTreeBase.insert, "__repro_sanitized__", False)
        assert enable_global_sanitizer() is sanitizer  # idempotent
        disable_global_sanitizer()
        assert HashTreeBase.insert is original
        assert global_sanitizer() is None

    def test_hooks_check_after_each_mutation(self):
        sanitizer = enable_global_sanitizer()
        index = BMEHTree(2, 4, widths=8)
        fill(index, random.Random(9), 30)
        assert sanitizer.checks_run >= 30

    def test_hooks_catch_corruption_on_next_insert(self):
        enable_global_sanitizer()
        index = BMEHTree(2, 4, widths=8)
        fill(index, random.Random(9), 30)
        index._num_keys += 3
        fresh = next(
            (a, b) for a in range(256) for b in range(256)
            if (a, b) not in index
        )
        with pytest.raises(InvariantViolation):
            index.insert(fresh, 0)

    def test_env_var_activates_on_import(self):
        code = (
            "import repro\n"
            "from repro.sanitize import global_sanitizer\n"
            "print(global_sanitizer() is not None)\n"
        )
        for flag, expected in [("1", "True"), ("0", "False")]:
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"REPRO_SANITIZE": flag, "PYTHONPATH": "src",
                     "PATH": "/usr/bin:/bin"},
                cwd=str(pathlib.Path(__file__).parent.parent),
            )
            assert out.stdout.strip() == expected


#: Paths selecting each rule scope of the one analysis engine.
PLAIN = "src/repro/bench/x.py"          # REP101-103, REP105
CORE = "src/repro/core/x.py"            # + REP104
SERVER = "src/repro/server/handlers.py"  # + REP106, REP107
REPLICA = "src/repro/server/replica.py"  # + REP108
SERVER_ROOT = pathlib.Path(__file__).parent.parent / "src" / "repro" / "server"


def lint_codes(source: str, path: str = PLAIN) -> list[str]:
    return [i.code for i in analyze_source(source, path)]


class TestLint:
    def test_backend_bypass_flagged(self):
        source = (
            "def read(backend, pid):\n"
            "    return backend.load(pid)\n"
        )
        assert lint_codes(source) == ["REP101"]

    def test_backend_allowed_in_pagestore(self):
        source = "def read(backend, pid):\n    return backend.load(pid)\n"
        assert lint_codes(source, "src/repro/storage/disk.py") == []

    def test_float_equality_flagged(self):
        assert lint_codes("ok = fill == 0.75\n") == ["REP102"]
        assert lint_codes("ok = fill >= 0.75\n") == []

    def test_mutable_default_flagged(self):
        for default in ("[]", "{}", "dict()", "list()", "set()"):
            codes = lint_codes(f"def f(x={default}):\n    pass\n")
            assert codes == ["REP103"], default
        assert lint_codes("def f(x=()):\n    pass\n") == []

    def test_missing_annotation_flagged(self):
        source = "def public(x):\n    return x\n"
        assert lint_codes(source, CORE) == ["REP104"]
        assert lint_codes(source) == []  # outside core/
        annotated = "def public(x: int) -> int:\n    return x\n"
        assert lint_codes(annotated, CORE) == []
        private = "def _helper(x):\n    return x\n"
        assert lint_codes(private, CORE) == []

    def test_wal_flush_bypass_flagged(self):
        for receiver in ("self._wal", "wal", "backend", "self._backend"):
            codes = lint_codes(f"{receiver}.flush()\n")
            assert codes == ["REP105"], receiver

    def test_store_flush_not_flagged(self):
        # PageStore.flush() is the sanctioned durability entry point.
        assert lint_codes("store.flush()\n") == []
        assert lint_codes("self._store.flush()\n") == []

    def test_wal_flush_allowed_in_storage_layer(self):
        assert lint_codes(
            "self._wal.flush()\n", "src/repro/storage/wal.py"
        ) == []

    def test_server_mutation_flagged(self):
        for call in (
            "file.insert(key, value)",
            "self._file.delete(key)",
            "index.insert_many(pairs)",
            "f.delete_many(keys)",
        ):
            assert lint_codes(f"{call}\n", SERVER) == ["REP106"], call

    def test_server_reads_not_flagged(self):
        for call in ("file.search(key)", "file.range_search(lo, hi)"):
            assert lint_codes(f"{call}\n", SERVER) == [], call

    def test_server_mutation_allowed_outside_server(self):
        assert lint_codes("file.insert(key, value)\n") == []

    def test_server_tree_is_clean_but_would_be_flagged(self):
        # The real server modules pass only because the aggregator is
        # the sanctioned mutation site: its own source analyzed under
        # another server path must trip on its apply thunks — proving
        # the rule has teeth.
        assert analyze_paths([SERVER_ROOT]).issues == []
        source = (SERVER_ROOT / "aggregator.py").read_text()
        assert "REP106" in lint_codes(source, SERVER)

    def test_hot_path_json_flagged(self):
        # REP107: every spelling that reaches the json codec functions.
        for snippet in (
            "import json\njson.dumps(payload)\n",
            "import json\njson.loads(body)\n",
            "import json as j\nj.dumps(payload)\n",
            "from json import dumps\ndumps(payload)\n",
            "from json import loads as parse\nparse(body)\n",
            "import json\njson.dump(payload, fh)\n",
        ):
            assert lint_codes(snippet, SERVER) == ["REP107"], snippet

    def test_hot_path_json_not_flagged_without_flag(self):
        # Outside server/, and in the two exempt server files, JSON is
        # no hot-path concern.
        snippet = "import json\njson.dumps(payload)\n"
        for path in (PLAIN, "src/repro/server/binpayload.py",
                     "src/repro/server/shard.py"):
            assert lint_codes(snippet, path) == [], path

    def test_hot_path_json_ignores_other_modules(self):
        # pickle.loads, struct.pack, a local loads() helper: not json.
        for snippet in (
            "import pickle\npickle.loads(blob)\n",
            "def loads(x):\n    return x\nloads(body)\n",
            "obj.dumps(payload)\n",
        ):
            assert lint_codes(snippet, SERVER) == [], snippet

    def test_hot_path_json_scoping(self):
        # The server tree is clean only because binpayload.py is exempt:
        # its canonical-blob JSON analyzed under a hot-path name trips.
        assert analyze_paths([SERVER_ROOT]).issues == []
        source = (SERVER_ROOT / "binpayload.py").read_text()
        assert "REP107" in lint_codes(source, SERVER)
        # The frame codec itself needs no JSON at all.
        source = (SERVER_ROOT / "protocol.py").read_text()
        assert lint_codes(source, SERVER) == []

    def test_hot_path_json_in_session_flagged(self):
        source = (
            "import json\n"
            "\n"
            "def reply(result):\n"
            "    return json.dumps(result)\n"
        )
        assert lint_codes(source, "src/repro/server/session.py") == [
            "REP107"
        ]

    def test_replica_mutation_flagged(self):
        # REP108: the full mutation surface a follower must not touch —
        # index mutators, store-level mutators, and .write() on a
        # store/index-named receiver.
        for call in (
            "self._file.insert(key, value)",
            "file.delete(key)",
            "index.insert_many(pairs)",
            "self._store.allocate(page)",
            "store.free(pid)",
            "self._store.mark_dirty(pid)",
            "store.write(pid, page)",
            "self._index.write(pid, page)",
        ):
            assert "REP108" in lint_codes(f"{call}\n", REPLICA), call

    def test_replica_store_free_flagged(self):
        source = "def drop(store, pid):\n    store.free(pid)\n"
        assert lint_codes(source, REPLICA) == ["REP108"]
        assert lint_codes(source, SERVER) == []

    def test_replica_replication_channel_not_flagged(self):
        # apply_replicated is the one sanctioned mutation channel, and
        # reads plus non-store .write() receivers stay clean.
        for call in (
            "backend.apply_replicated(ops, meta)",
            "self._backend.apply_replicated(ops, None)",
            "file.search(key)",
            "file.range_search(lo, hi)",
            "store.read(pid)",
            "writer.write(frame)",  # a socket, not a store
            "conn.write(data)",
        ):
            assert lint_codes(f"{call}\n", REPLICA) == [], call

    def test_replica_mutation_scoped_to_replica_module(self):
        # REP108 applies only to server/replica.py: the real replica
        # module is clean under its own rule, while a seeded mutation in
        # its source is caught.
        replica = SERVER_ROOT / "replica.py"
        assert analyze_paths([replica]).issues == []
        source = replica.read_text()
        seeded = source + (
            "\n\ndef _rogue(self):\n"
            "    self._store.allocate({})\n"
        )
        assert "REP108" in lint_codes(seeded, REPLICA)
        assert "REP108" not in lint_codes(seeded, SERVER)

    def test_syntax_error_reported(self):
        assert lint_codes("def broken(:\n") == ["REP100"]

    def test_issue_format(self):
        issue = analyze_source("ok = x == 1.5\n", "src/repro/y.py")[0]
        assert str(issue).startswith("src/repro/y.py:1:")
        assert "REP102" in str(issue)

    def test_repo_lints_clean(self):
        assert analyze_paths().issues == []

    def test_dotted_mutable_default_flagged(self):
        # REP103 must see through dotted constructors: the matcher is on
        # the terminal name, so module-qualified forms and bytearray()
        # are the same aliasing bug as a bare dict().
        for default in (
            "collections.defaultdict(list)",
            "collections.OrderedDict()",
            "bytearray()",
            "collections.deque()",
        ):
            codes = lint_codes(
                f"import collections\ndef f(x={default}):\n    pass\n"
            )
            assert codes == ["REP103"], default
        # Immutable / unknown dotted calls stay clean.
        for default in ("collections.abc.Hashable", "frozenset()", "f()"):
            assert lint_codes(f"def g(x={default}):\n    pass\n") == [], (
                default
            )


class TestAliasRegression:
    """The false negative that motivated the dataflow engine.

    A receiver-*name* match on ``backend``/``wal`` misses a bypass
    laundered through a neutral local.  The typed analyzer tracks the
    assignment, so the same source is caught.
    """

    SOURCE = (
        "class Reader:\n"
        "    def __init__(self) -> None:\n"
        "        self._backend = FileBackend('x.db')\n"
        "\n"
        "    def sneaky(self, pid: int) -> object:\n"
        "        alias = self._backend\n"
        "        alias.flush()\n"
        "        return alias.load(pid)\n"
    )

    def test_dataflow_analyzer_catches_alias(self):
        issues = analyze_source(self.SOURCE, "src/repro/core/x.py")
        codes = sorted(i.code for i in issues)
        assert codes == ["REP101", "REP105"]
        # Findings land on the use sites, not the assignment.
        by_code = {i.code: i for i in issues}
        assert by_code["REP105"].line == 7
        assert by_code["REP101"].line == 8

    def test_analyzer_respects_storage_allowlist(self):
        # The same source inside the accounting layer is sanctioned.
        assert analyze_source(
            self.SOURCE, "src/repro/storage/disk.py"
        ) == []
