"""The concurrent query service layer, end to end over real TCP.

Covers the wire protocol (framing, structured errors, fuzz), the
asyncio server (pipelining, admission control, write coalescing), the
satellites (latch timeouts, the ``items()`` snapshot fix) and the
graceful-shutdown durability contract.
"""

import asyncio
import pathlib
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import KeyCodec, UIntEncoder
from repro.core import MultiKeyFile
from repro.errors import (
    DuplicateKeyError,
    KeyDimensionError,
    KeyNotFoundError,
    LatchTimeout,
    ProtocolError,
)
from repro.sanitize import check_structure
from repro.server import (
    MAX_FRAME,
    Opcode,
    QueryClient,
    QueryServer,
    ServerBusy,
    decode_frame,
    encode_frame,
)
from repro.server import protocol as proto
from repro.server.admission import AdmissionController
from repro.storage import PageStore
from repro.storage.latch import ReadWriteLatch
from repro.storage.wal import WALBackend, recover_index


def make_file(tmp_path=None, page_capacity=8):
    """A 2-d uint16 file; WAL-backed when given a directory."""
    codec = KeyCodec([UIntEncoder(16), UIntEncoder(16)])
    store = None
    if tmp_path is not None:
        store = PageStore(backend=WALBackend(str(tmp_path / "pages.db")))
    return MultiKeyFile(codec, page_capacity=page_capacity, store=store)


# ---------------------------------------------------------------------------
# wire protocol

#: Retired wire shapes every endpoint must refuse with a structured
#: error: a v1 PING (no epoch field), a v2 PING (epoch, JSON body), and
#: a current-version INSERT whose payload uses the retired 0x01 JSON
#: format.
V1_PING = struct.pack("<IBBI", 6, 1, int(Opcode.PING), 11)
V2_PING = struct.pack("<IBBII", 10, 2, int(Opcode.PING), 12, 0)
JSON_FORMAT_PAYLOAD = b'\x01{"key":[1,2]}'
JSON_INSERT = struct.pack(
    "<IBBII", 10 + len(JSON_FORMAT_PAYLOAD), 3, int(Opcode.INSERT), 13, 0
) + JSON_FORMAT_PAYLOAD


class TestProtocol:
    def test_frame_roundtrip(self):
        payload = {"key": [1, 2], "value": "café"}
        frame = encode_frame(Opcode.INSERT, 7, payload, epoch=4)
        (length,) = struct.unpack_from("<I", frame)
        assert length == len(frame) - 4
        decoded = decode_frame(frame[4:])
        assert decoded.opcode == Opcode.INSERT
        assert decoded.request_id == 7
        assert decoded.payload == payload
        assert decoded.epoch == 4

    def test_empty_payload_roundtrip(self):
        frame = decode_frame(encode_frame(Opcode.PING, 1)[4:])
        assert (frame.opcode, frame.request_id, frame.payload) == (
            Opcode.PING, 1, None
        )

    def test_bad_version_rejected(self):
        # Any version byte but the one frame layout's is refused — the
        # retired v1 (no epoch) and v2 (JSON body) headers included.
        good = encode_frame(Opcode.PING, 1)[4:]
        for body in (
            bytes([99]) + good[1:],
            V1_PING[4:],
            V2_PING[4:],
        ):
            with pytest.raises(ProtocolError) as caught:
                decode_frame(body)
            assert caught.value.code == "bad-version", body

    def test_garbage_payload_rejected(self):
        head = struct.pack("<BBII", 3, int(Opcode.PING), 1, 0)
        for raw in (
            b"\xff\xfe",            # unknown format byte
            b"\x02\xff",            # binary format, garbage tag
            JSON_FORMAT_PAYLOAD,     # the retired 0x01 JSON format
        ):
            with pytest.raises(ProtocolError) as caught:
                decode_frame(head + raw)
            assert caught.value.code == "bad-payload", raw

    def test_unencodable_payload_rejected(self):
        # Outside the tagged binary universe there is no fallback.
        with pytest.raises(ProtocolError) as caught:
            encode_frame(Opcode.INSERT, 1, {"key": [1, 2], "value": {1, 2}})
        assert caught.value.code == "bad-payload"


# ---------------------------------------------------------------------------
# satellites: latch timeouts, items() snapshot


class TestLatchTimeout:
    def test_read_timeout_under_writer(self):
        latch = ReadWriteLatch()
        latch.acquire_write()
        try:
            started = time.perf_counter()
            with pytest.raises(LatchTimeout):
                latch.acquire_read(timeout=0.05)
            assert time.perf_counter() - started < 2.0
        finally:
            latch.release_write()
        # the latch is still usable afterwards
        with latch.read(timeout=0.5):
            pass

    def test_write_timeout_under_reader(self):
        latch = ReadWriteLatch()
        latch.acquire_read()
        try:
            with pytest.raises(LatchTimeout):
                latch.acquire_write(timeout=0.05)
        finally:
            latch.release_read()
        with latch.write(timeout=0.5):
            pass

    def test_timed_out_writer_wakes_blocked_readers(self):
        # A writer that gives up must withdraw its preference claim and
        # wake readers that were parked behind it.
        latch = ReadWriteLatch()
        results = []

        def impatient_writer():
            try:
                latch.acquire_write(timeout=0.1)
            except LatchTimeout:
                results.append("timed-out")
            else:  # unexpected success must still pair the acquire
                latch.release_write()

        def late_reader():
            time.sleep(0.02)  # arrive while the writer is waiting
            with latch.read(timeout=2.0):
                results.append("read")

        latch.acquire_read()
        try:
            threads = [
                threading.Thread(target=impatient_writer),
                threading.Thread(target=late_reader),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
        finally:
            latch.release_read()
        assert sorted(results) == ["read", "timed-out"]

    def test_untimed_acquire_still_blocks(self):
        latch = ReadWriteLatch()
        with latch.write():
            assert latch.write_active


class TestItemsSnapshot:
    def test_items_sees_consistent_snapshot_under_writer(self):
        file = make_file()
        for i in range(64):
            file.insert((i, i), i)
        stop = threading.Event()
        errors = []

        def churn():
            i = 64
            while not stop.is_set():
                with file.store.latch.write():
                    file.insert((i, i), i)
                    file.delete((i - 64, i - 64))
                i += 1
                # yield between write windows: the latch is
                # writer-preferring, so a zero-gap reacquire loop would
                # starve the reader side outright
                time.sleep(0.001)

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            for _ in range(20):
                seen = list(file.items())
                # every yielded pair must be self-consistent
                for key, value in seen:
                    if key[0] != value:
                        errors.append((key, value))
        finally:
            stop.set()
            writer.join(timeout=5.0)
        assert not errors


# ---------------------------------------------------------------------------
# the served API end to end


def run(coro):
    return asyncio.run(coro)


class TestServedApi:
    def test_ping_and_stats(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    pong = await client.ping()
                    assert pong["pong"] and pong["version"] == 3
                    stats = await client.stats()
                    assert stats["scheme"] == "BMEHTree"
                    assert stats["dims"] == 2 and stats["keys"] == 0
                    assert "wal" in stats and "server" in stats

        run(scenario())

    def test_crud_and_error_mapping(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    await client.insert((1, 2), "a")
                    assert await client.search((1, 2)) == "a"
                    with pytest.raises(DuplicateKeyError):
                        await client.insert((1, 2), "again")
                    with pytest.raises(KeyNotFoundError):
                        await client.search((9, 9))
                    with pytest.raises(KeyDimensionError):
                        await client.insert((1, 2, 3), "wrong-arity")
                    assert await client.delete((1, 2)) == "a"
                    with pytest.raises(KeyNotFoundError):
                        await client.delete((1, 2))

        run(scenario())

    def test_batch_forms_and_range(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    pairs = [((i, 100 - i), i) for i in range(32)]
                    assert await client.insert_many(pairs) == 32
                    values = await client.search_many(
                        [key for key, _ in pairs[:5]]
                    )
                    assert values == [0, 1, 2, 3, 4]
                    hits = await client.range_search((0, 0), (10, 200))
                    assert sorted(hits) == sorted(
                        (key, value) for key, value in pairs if key[0] <= 10
                    )
                    par = await client.range_search(
                        (0, 0), (10, 200), parallelism=3
                    )
                    assert par == hits
                    assert await client.delete_many(
                        [key for key, _ in pairs[:3]]
                    ) == [0, 1, 2]

        run(scenario())

    def test_pipelined_requests_interleave(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    await asyncio.gather(
                        *(client.insert((i, i), i) for i in range(16))
                    )
                    got = await asyncio.gather(
                        *(client.search((i, i)) for i in range(16))
                    )
                    assert got == list(range(16))

        run(scenario())


# ---------------------------------------------------------------------------
# write coalescing


class TestCoalescing:
    def test_concurrent_writes_share_commits(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            backend = file.store.backend
            async with QueryServer(
                file, coalesce_window=0.005, max_inflight=256
            ) as server:
                host, port = server.address
                clients = [
                    await QueryClient.connect(host, port) for _ in range(8)
                ]
                try:
                    commits0 = backend.checkpoints
                    jobs = []
                    for c, client in enumerate(clients):
                        jobs.extend(
                            client.insert((c * 100 + i, c), c * 100 + i)
                            for i in range(12)
                        )
                    await asyncio.gather(*jobs)
                    commits = backend.checkpoints - commits0
                    stats = await clients[0].stats()
                finally:
                    for client in clients:
                        await client.close()
                # 96 acked mutations, strictly fewer commits
                assert commits < 96, commits
                assert stats["keys"] == 96
                assert stats["server"]["groups_committed"] == commits
                assert stats["server"]["largest_group"] > 1
            return file

        file = run(scenario())
        check_structure(file.index)

    def test_key_level_failure_does_not_poison_window(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file, coalesce_window=0.01) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    await client.insert((5, 5), "kept")
                    results = await asyncio.gather(
                        client.insert((5, 5), "dup"),   # fails
                        client.insert((6, 6), "ok-1"),  # same window
                        client.insert((7, 7), "ok-2"),
                        return_exceptions=True,
                    )
                    assert isinstance(results[0], DuplicateKeyError)
                    assert results[1] is None and results[2] is None
                    assert await client.search((6, 6)) == "ok-1"
                    assert await client.search((5, 5)) == "kept"

        run(scenario())


# ---------------------------------------------------------------------------
# stress: concurrent clients vs a serial oracle


class TestStress:
    def test_mixed_traffic_matches_oracle(self, tmp_path):
        clients_n = 8
        per_client = 40

        async def scenario():
            file = make_file(tmp_path)
            oracle = {}
            async with QueryServer(
                file, max_inflight=256, coalesce_window=0.002
            ) as server:
                host, port = server.address
                clients = [
                    await QueryClient.connect(host, port)
                    for _ in range(clients_n)
                ]

                async def one_client(c, client):
                    # Disjoint key ranges keep the oracle race-free.
                    base = c * 1000
                    for i in range(per_client):
                        key = (base + i, c)
                        await client.insert(key, base + i)
                        oracle[key] = base + i
                        if i % 5 == 4:
                            victim = (base + i - 2, c)
                            await client.delete(victim)
                            del oracle[victim]
                        if i % 7 == 6:
                            assert await client.search(
                                (base + i, c)
                            ) == base + i

                try:
                    await asyncio.gather(
                        *(one_client(c, cl) for c, cl in enumerate(clients))
                    )
                    ranged = await clients[0].range_search(
                        (0, 0), ((1 << 16) - 1, (1 << 16) - 1),
                        parallelism=4,
                    )
                finally:
                    for client in clients:
                        await client.close()
            assert sorted(ranged) == sorted(oracle.items())
            return file

        file = run(scenario())
        check_structure(file.index)
        assert len(file.index) == clients_n * (per_client - per_client // 5)


# ---------------------------------------------------------------------------
# fuzz: nothing a client sends may kill the server or leak a latch


async def send_raw(host, port, blob, await_reply=True):
    """Write raw bytes; return (reply_bytes, eof) best-effort."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(blob)
    await writer.drain()
    writer.write_eof()
    try:
        data = await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
    except asyncio.TimeoutError:
        data = b""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return data


def parse_error_reply(data):
    """Decode the first frame of ``data`` as a REPLY_ERR payload."""
    assert len(data) >= 4
    (length,) = struct.unpack_from("<I", data)
    frame = decode_frame(data[4:4 + length])
    assert frame.opcode == Opcode.REPLY_ERR
    return frame.payload


class TestFuzz:
    BLOBS = [
        b"\x00" * 4,                                   # zero-length frame
        struct.pack("<I", MAX_FRAME + 1) + b"x" * 64,  # oversized claim
        struct.pack("<I", 100) + b"short",             # truncated body
        b"\xff\xff\xff",                               # truncated prefix
        struct.pack("<IBBII", 10, 9, 2, 1, 0),         # bad version
        V1_PING,                                       # retired v1 header
        V2_PING,                                       # retired v2 header
        struct.pack("<IBBII", 10, 3, 77, 1, 0),        # bad opcode
        struct.pack("<IBBII", 10, 3, 128, 1, 0),       # reply op
        struct.pack("<IBBII", 13, 3, 2, 1, 0) + b"\x02\xff\xfe",  # garbage
        JSON_INSERT,                                   # retired 0x01 format
        encode_frame(Opcode.INSERT, 3, {"nope": 1}),   # missing key field
        encode_frame(Opcode.INSERT, 4, {"key": "zap"}),  # key not a list
    ]

    def test_fuzz_frames_never_kill_the_server(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                for blob in self.BLOBS:
                    data = await send_raw(host, port, blob)
                    if data:
                        payload = parse_error_reply(data)
                        assert payload["code"], blob
                # after all that, the server still serves correctly
                async with await QueryClient.connect(host, port) as client:
                    await client.insert((1, 1), "alive")
                    assert await client.search((1, 1)) == "alive"
                    stats = await client.stats()
                    assert stats["server"]["protocol_errors"] >= 6
            return file

        file = run(scenario())
        # no latch leaked: both sides acquire instantly
        with file.store.latch.write(timeout=0.5):
            pass
        with file.store.latch.read(timeout=0.5):
            pass

    def test_malformed_but_framed_stream_continues(self, tmp_path):
        # Well-framed garbage requests must not close the connection:
        # a bad payload field, the retired v1 and v2 headers and the
        # retired JSON payload format each get a structured error.
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(Opcode.INSERT, 1, {"bad": 1}))
                writer.write(V1_PING + V2_PING + JSON_INSERT)
                writer.write(encode_frame(Opcode.PING, 2))
                await writer.drain()
                frames = proto.FrameReader(reader)
                codes = []
                pong = None
                for _ in range(5):
                    body = await asyncio.wait_for(
                        frames.next_frame(), timeout=5.0
                    )
                    frame = decode_frame(body)
                    if frame.opcode == Opcode.REPLY_OK:
                        pong = frame
                        continue
                    assert frame.opcode == Opcode.REPLY_ERR
                    codes.append(frame.payload["code"])
                assert pong is not None and pong.request_id == 2
                assert sorted(codes) == [
                    "bad-payload", "bad-payload", "bad-version", "bad-version"
                ]
                writer.close()
                await writer.wait_closed()

        run(scenario())


# ---------------------------------------------------------------------------
# admission control and backpressure


class TestAdmission:
    def test_controller_limits(self):
        admission = AdmissionController(max_inflight=3, per_session=2)
        assert admission.try_admit(1) is None
        assert admission.try_admit(1) is None
        assert admission.try_admit(1) == "pipeline-limit"
        assert admission.try_admit(2) is None
        assert admission.try_admit(3) == "busy"
        admission.release(1)
        assert admission.try_admit(3) is None
        admission.release(1)
        admission.release(2)
        admission.release(3)
        assert admission.inflight == 0

    def test_latch_timeout_becomes_backpressure(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file, latch_timeout=0.1) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    await client.insert((1, 1), "x")
                    # an outside writer wedges the store latch; the
                    # block is the point of the test
                    file.store.latch.acquire_write()  # repro: allow[REP201]
                    try:
                        with pytest.raises(ServerBusy) as caught:
                            await client.search((1, 1))
                        assert caught.value.code == "latch-timeout"
                    finally:
                        file.store.latch.release_write()
                    # backpressure, not failure: the next try succeeds
                    assert await client.search((1, 1)) == "x"
                    stats = await client.stats()
                    assert stats["server"]["latch_timeouts"] == 1

        run(scenario())

    def test_pipeline_limit_rejects_excess(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(
                file, session_pipeline=4, latch_timeout=0.5
            ) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    # repro: allow[REP201] — make requests slow on purpose
                    file.store.latch.acquire_write()
                    try:
                        results = await asyncio.gather(
                            *(client.search((i, i)) for i in range(12)),
                            return_exceptions=True,
                        )
                    finally:
                        file.store.latch.release_write()
                    rejected = [
                        r for r in results
                        if isinstance(r, ServerBusy)
                        and r.code == "pipeline-limit"
                    ]
                    assert rejected, "no request hit the pipelining limit"

        run(scenario())


# ---------------------------------------------------------------------------
# graceful shutdown and durability


class TestShutdown:
    def test_acked_writes_survive_shutdown(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    await asyncio.gather(
                        *(client.insert((i, i), i) for i in range(16))
                    )

        run(scenario())
        index = recover_index(str(tmp_path / "pages.db"))
        check_structure(index)
        assert len(index) == 16
        codec = KeyCodec([UIntEncoder(16), UIntEncoder(16)])
        reopened = MultiKeyFile.from_index(codec, index)
        assert reopened.search((7, 7)) == 7

    def test_draining_server_rejects_new_requests(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            server = QueryServer(file)
            await server.start()
            host, port = server.address
            client = await QueryClient.connect(host, port)
            await client.insert((1, 1), "x")
            server.draining = True
            with pytest.raises(ServerBusy) as caught:
                await client.search((1, 1))
            assert caught.value.code == "shutting-down"
            server.draining = False
            await client.close()
            await server.shutdown()

        run(scenario())

    def test_sigterm_under_load_leaves_recoverable_state(self, tmp_path):
        """kill -TERM mid-load: every acked key survives recovery."""
        wal = str(tmp_path / "served.db")
        repo = pathlib.Path(__file__).parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--wal", wal,
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(repo),
        )
        try:
            line = proc.stdout.readline().strip()
            matched = re.match(r"serving on (\S+):(\d+)", line)
            assert matched, line
            host, port = matched.group(1), int(matched.group(2))

            async def load():
                async with await QueryClient.connect(host, port) as client:
                    await asyncio.gather(
                        *(client.insert((i, i + 1), i) for i in range(14))
                    )

            asyncio.run(load())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        index = recover_index(wal)
        check_structure(index)
        assert len(index) == 14
        codec = KeyCodec([UIntEncoder(w) for w in index.widths])
        reopened = MultiKeyFile.from_index(codec, index)
        assert reopened.search((5, 6)) == 5


# ---------------------------------------------------------------------------
# bugfix regressions: request-id wraparound, admission underflow,
# malformed-reply validation — the long-lived-cluster-traffic fixes


class TestRequestIdWraparound:
    def test_allocator_wraps_across_the_u32_boundary(self):
        # Offline unit on the allocator: no connection required.
        client = QueryClient.__new__(QueryClient)
        client._pending = {}
        client._next_id = (1 << 32) - 2
        assert client._allocate_id() == (1 << 32) - 1
        # the wire id is u32 and 0 is reserved for server-initiated
        # errors, so the wrap lands on 1 — not 2^32, not 0
        assert client._allocate_id() == 1
        assert client._allocate_id() == 2

    def test_allocator_skips_ids_still_in_flight(self):
        client = QueryClient.__new__(QueryClient)
        client._pending = {2: object(), 3: object()}
        client._next_id = 1
        assert client._allocate_id() == 4

    def test_allocator_raises_when_every_id_is_pending(self):
        client = QueryClient.__new__(QueryClient)
        client._pending = {1: object(), 2: object(), 3: object()}
        client._next_id = 0
        # a synthetic full window: the scan must terminate with a
        # structured error, not loop forever
        import repro.server.client as client_mod

        real_space = client_mod._ID_SPACE
        client_mod._ID_SPACE = 4
        try:
            with pytest.raises(ProtocolError):
                client._allocate_id()
        finally:
            client_mod._ID_SPACE = real_space

    def test_live_connection_survives_the_wrap(self, tmp_path):
        # Regression: pre-fix the counter grew past 2^32 and the next
        # encode blew up, killing the connection mid-traffic.
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    client._next_id = (1 << 32) - 3
                    for i in range(8):
                        await client.insert((i, i), i)
                    assert 0 < client._next_id < (1 << 32)
                    got = await asyncio.gather(
                        *(client.search((i, i)) for i in range(8))
                    )
                    assert got == list(range(8))

        run(scenario())


class TestAdmissionUnderflow:
    # The clamp tests pin sanitizing off: a sanitized run raises on the
    # first underflow by design (test_sanitized_runs_raise_on_underflow).

    def test_double_release_clamps_at_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        admission = AdmissionController(max_inflight=4, per_session=2)
        assert admission.try_admit(1) is None
        admission.release(1)
        admission.release(1)  # the double release — must not underflow
        assert admission.inflight == 0
        assert admission.underflows == 1
        # capacity is not corrupted: the full budget is still admittable
        for session in (1, 2, 3, 4):
            assert admission.try_admit(session) is None
        assert admission.try_admit(5) == "busy"

    def test_release_for_a_session_holding_nothing_is_ignored(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        admission = AdmissionController(max_inflight=4, per_session=2)
        assert admission.try_admit(1) is None
        # session 2 never admitted anything; its spurious release must
        # not steal session 1's slot
        admission.release(2)
        assert admission.inflight == 1
        assert admission.underflows == 1
        admission.release(1)
        assert admission.inflight == 0

    def test_seeded_interleaving_never_corrupts_the_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        # Reproducer for the production shape: racing session teardowns
        # firing releases that sometimes lack a matching admit.
        rng = random.Random(20260807)
        admission = AdmissionController(max_inflight=8, per_session=4)
        held = {session: 0 for session in range(4)}
        for _ in range(5000):
            session = rng.randrange(4)
            if rng.random() < 0.48:
                if admission.try_admit(session) is None:
                    held[session] += 1
            else:
                admission.release(session)
                if held[session] > 0:
                    held[session] -= 1
        # the controller's ledger must track the true holdings exactly —
        # pre-fix, spurious releases drove inflight negative and the
        # "full" gate never fired again
        assert admission.inflight == sum(held.values())
        assert 0 <= admission.inflight <= 8
        assert admission.underflows > 0

    def test_sanitized_runs_raise_on_underflow(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from repro.errors import InvariantViolation

        admission = AdmissionController(max_inflight=2, per_session=2)
        assert admission.try_admit(1) is None
        admission.release(1)
        with pytest.raises(InvariantViolation):
            admission.release(1)


async def _canned_reply_server(replies):
    """A fake peer answering every request with the next canned
    ``REPLY_OK`` payload, malformed or not."""
    queue = list(replies)

    async def handle(reader, writer):
        frames = proto.FrameReader(reader)
        try:
            while queue:
                body = await frames.next_frame()
                if body is None:
                    return
                frame = decode_frame(body)
                writer.write(
                    encode_frame(
                        Opcode.REPLY_OK, frame.request_id, queue.pop(0)
                    )
                )
                await writer.drain()
        except (ProtocolError, ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, host, port


class TestMalformedReplyValidation:
    # (call on the client, canned REPLY_OK payload the peer returns)
    CASES = [
        (lambda c: c.search((1, 1)), {"nothing": True}),       # no "value"
        (lambda c: c.delete((1, 1)), []),                      # not an object
        (lambda c: c.insert_many([((1, 1), "x")]),
         {"inserted": "lots"}),                                # wrong type
        (lambda c: c.search_many([(1, 1)]), {"values": 7}),    # not a list
        (lambda c: c.delete_many([(1, 1)]), {"values": None}),
        (lambda c: c.range_search((0, 0), (1, 1)),
         {"items": [["unpaired"]]}),                           # bad items
        (lambda c: c.range_search((0, 0), (1, 1)), {"items": 3}),
        (lambda c: c.stats(), ["not", "an", "object"]),
        (lambda c: c.ping(), 7),
    ]

    def test_malformed_ok_replies_raise_structured_errors(self):
        # Regression: pre-fix these surfaced as raw TypeError/KeyError
        # from payload indexing, tearing down the caller's pipeline.
        async def scenario():
            for call, payload in self.CASES:
                server, host, port = await _canned_reply_server([payload])
                try:
                    async with await QueryClient.connect(
                        host, port
                    ) as client:
                        with pytest.raises(ProtocolError) as caught:
                            await call(client)
                        assert caught.value.code in (
                            "bad-payload",
                            "bad-frame",
                        ), payload
                finally:
                    server.close()
                    await server.wait_closed()

        run(scenario())

    def test_well_formed_replies_still_pass(self):
        async def scenario():
            server, host, port = await _canned_reply_server(
                [{"value": "v"}, {"values": [1]}, {"items": [[[3, 4], "r"]]}]
            )
            try:
                async with await QueryClient.connect(host, port) as client:
                    assert await client.search((1, 1)) == "v"
                    assert await client.search_many([(1, 1)]) == [1]
                    assert await client.range_search((0, 0), (9, 9)) == [
                        ((3, 4), "r")
                    ]
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())


# ---------------------------------------------------------------------------
# buffered framing, negotiated frame caps


def feed_reader(*chunks, eof=True):
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


class TestFrameReader:
    def test_many_frames_in_one_chunk_then_clean_eof(self):
        async def scenario():
            frames = [encode_frame(Opcode.PING, i) for i in range(3)]
            frames.append(encode_frame(Opcode.INSERT, 3, {"key": [1, 2]}))
            reader = feed_reader(b"".join(frames))
            frs = proto.FrameReader(reader)
            for i, frame in enumerate(frames):
                body = await frs.next_frame()
                assert body == frame[4:]
                assert decode_frame(body).request_id == i
            assert await frs.next_frame() is None
            # EOF is sticky.
            assert await frs.next_frame() is None

        run(scenario())

    def test_byte_at_a_time_delivery(self):
        async def scenario():
            frame = encode_frame(Opcode.SEARCH, 9, {"key": [4, 5]})
            reader = asyncio.StreamReader()
            frs = proto.FrameReader(reader)
            task = asyncio.ensure_future(frs.next_frame())
            for i in range(len(frame)):
                reader.feed_data(frame[i : i + 1])
                await asyncio.sleep(0)
            assert await task == frame[4:]
            reader.feed_eof()
            assert await frs.next_frame() is None

        run(scenario())

    def test_truncated_length_prefix_rejected(self):
        async def scenario():
            frs = proto.FrameReader(feed_reader(b"\x05\x00"))
            with pytest.raises(ProtocolError) as caught:
                await frs.next_frame()
            assert caught.value.code == "bad-frame"

        run(scenario())

    def test_truncated_body_rejected(self):
        async def scenario():
            frame = encode_frame(Opcode.PING, 1)
            frs = proto.FrameReader(feed_reader(frame[:-1]))
            with pytest.raises(ProtocolError) as caught:
                await frs.next_frame()
            assert caught.value.code == "bad-frame"

        run(scenario())

    def test_zero_length_frame_rejected(self):
        async def scenario():
            frs = proto.FrameReader(feed_reader(struct.pack("<I", 0)))
            with pytest.raises(ProtocolError) as caught:
                await frs.next_frame()
            assert caught.value.code == "bad-frame"

        run(scenario())

    def test_oversized_honours_the_passed_cap(self):
        async def scenario():
            frame = encode_frame(Opcode.INSERT, 1, {"key": [1] * 50})
            assert len(frame) - 4 > 64
            frs = proto.FrameReader(feed_reader(frame + frame))
            with pytest.raises(ProtocolError) as caught:
                await frs.next_frame(64)
            assert caught.value.code == "oversized"
            # The same stream parses fine under the default cap.
            frs2 = proto.FrameReader(feed_reader(frame + frame))
            assert await frs2.next_frame() == frame[4:]
            assert await frs2.next_frame(None) == frame[4:]

        run(scenario())


class TestFrameCapNegotiation:
    def test_client_adopts_the_advertised_cap(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file, max_frame=4096) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    assert client.max_frame == MAX_FRAME  # pre-negotiation
                    pong = await client.ping()
                    assert pong["max_frame"] == 4096
                    assert await client.negotiate() == 4096
                    assert client.max_frame == 4096

        run(scenario())

    def test_un_negotiated_connection_keeps_the_default(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    await client.insert((1, 1), "v")
                    assert client.max_frame == MAX_FRAME
                    pong = await client.ping()
                    assert pong["max_frame"] == MAX_FRAME

        run(scenario())

    def test_client_refuses_an_oversized_send(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file, max_frame=1024) as server:
                host, port = server.address
                client = await QueryClient.connect(host, port, negotiate=True)
                async with client:
                    with pytest.raises(ProtocolError) as caught:
                        await client.insert((2, 2), "x" * 4000)
                    assert caught.value.code == "oversized"
                    # The connection itself is still healthy.
                    await client.insert((2, 2), "small")
                    assert await client.search((2, 2)) == "small"

        run(scenario())

    def test_server_enforces_its_cap_on_the_wire(self, tmp_path):
        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file, max_frame=1024) as server:
                host, port = server.address
                blob = struct.pack("<I", 2000) + b"\x01" * 2000
                payload = parse_error_reply(await send_raw(host, port, blob))
                assert payload["code"] == "oversized"

        run(scenario())


class TestWireCoexistence:
    def test_v3_carries_values_json_cannot(self, tmp_path):
        """bytes survive a round-trip verbatim — the binary payload
        codec carries every frame."""

        async def scenario():
            file = make_file(tmp_path)
            async with QueryServer(file) as server:
                host, port = server.address
                client = await QueryClient.connect(host, port, negotiate=True)
                async with client:
                    value = b"\x00\xff\xfe" * 5
                    await client.insert((7, 7), value)
                    assert await client.search((7, 7)) == value

        run(scenario())
