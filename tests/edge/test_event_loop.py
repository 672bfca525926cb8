"""Event-loop fan-out: reactor, decoder, and backpressure tests.

Covers the single-threaded non-blocking delivery path (DESIGN.md
section 11) end to end:

* :class:`~repro.edge.socket_transport.FrameDecoder` — torn-frame
  fuzzing against a naive bytes-append reference decoder (the old
  implementation), proving the zero-copy ring buffer yields the exact
  same frame sequence under arbitrary TCP fragmentation.
* :class:`~repro.edge.event_loop.EdgeEventLoop` — vectored-write
  coalescing (a whole queued batch rides **one** ``sendmsg``), inbound
  decoding, gate parking, and same-spin handler replies.
* :class:`~repro.edge.event_loop.ReactorTransport` — fault-injection
  outcome and byte-metering parity with
  :class:`~repro.edge.link.InProcessTransport`.
* Reactor deployments — :class:`~repro.edge.event_loop.EdgeHost` edges
  over real loopback TCP against a :class:`~repro.edge.deploy.Deployment`:
  end-to-end replication + verified queries, the slow-edge
  backpressure regression (a held edge parks its queue and never
  delays a healthy edge), syscall coalescing, and exact
  delta/snapshot byte parity between in-process links and reactor
  TCP.

Everything here is single-process and hermetic (socketpairs and
loopback listeners, no subprocesses), so unlike ``test_deploy.py``
these tests run in tier-1; the ``event_loop`` marker additionally
selects them as the first step of CI's ``socket`` job.
"""

import random
import select as select_mod
import socket
import time

import pytest

from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.edge.event_loop import EdgeEventLoop, EdgeHost, ReactorTransport
from repro.edge.link import FaultInjector, InProcessTransport
from repro.edge.socket_transport import FRAME_HEADER, FrameDecoder
from repro.edge.transport import MAX_FRAME_BYTES, DeltaFrame, frame_to_bytes
from repro.exceptions import ReplicationError, TransportError
from repro.workloads.generator import TableSpec, generate_table

pytestmark = [pytest.mark.event_loop, pytest.mark.timeout(120)]


# ---------------------------------------------------------------------------
# FrameDecoder: torn-frame fuzzing against the bytes-append reference
# ---------------------------------------------------------------------------


class _NaiveDecoder:
    """The decoder this PR replaced: append every recv to a ``bytes``.

    Kept inline as the fuzz oracle — quadratic and allocation-happy,
    but obviously correct."""

    def __init__(self):
        self.buf = b""

    def feed(self, data):
        self.buf += bytes(data)

    def next_frame(self):
        if len(self.buf) < FRAME_HEADER.size:
            return None
        (length,) = FRAME_HEADER.unpack_from(self.buf, 0)
        end = FRAME_HEADER.size + length
        if len(self.buf) < end:
            return None
        data = self.buf[FRAME_HEADER.size:end]
        self.buf = self.buf[end:]
        return data


def _drain(decoder):
    frames = []
    while (frame := decoder.next_frame()) is not None:
        frames.append(frame)
    return frames


class TestFrameDecoder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torn_frame_fuzz_matches_reference(self, seed):
        """Random frame sizes, random split points: the ring buffer and
        the naive reference must pop byte-identical frame sequences at
        every step, whichever way TCP fragments the stream."""
        rng = random.Random(seed)
        sizes = [0, 1, 2, 3, FRAME_HEADER.size, 64, 1000, 5000]
        frames = [
            rng.randbytes(rng.choice(sizes) if rng.random() < 0.8
                          else rng.randint(0, 200))
            for _ in range(250)
        ]
        stream = b"".join(
            FRAME_HEADER.pack(len(f)) + f for f in frames
        )
        ring = FrameDecoder(initial=8)  # tiny: force growth + compaction
        naive = _NaiveDecoder()
        got_ring, got_naive = [], []
        pos = 0
        while pos < len(stream):
            chunk = stream[pos:pos + rng.randint(1, 97)]
            pos += len(chunk)
            if rng.random() < 0.5:
                naive.feed(chunk)
                ring.feed(chunk)
            else:
                # The recv_into path: ask for a (possibly larger) view,
                # commit only what "arrived".
                view = ring.writable(len(chunk) + rng.randint(0, 64))
                view[:len(chunk)] = chunk
                ring.wrote(len(chunk))
                naive.feed(chunk)
            got_ring.extend(_drain(ring))
            got_naive.extend(_drain(naive))
            assert got_ring == got_naive
        assert got_ring == frames
        assert len(ring) == 0 and naive.buf == b""

    def test_implausible_length_header_raises(self):
        decoder = FrameDecoder()
        decoder.feed(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError):
            decoder.next_frame()

    def test_empty_frames_and_rewind(self):
        decoder = FrameDecoder()
        decoder.feed(FRAME_HEADER.pack(0) * 3)
        assert _drain(decoder) == [b"", b"", b""]
        # Fully drained: the buffer rewound instead of compacting.
        assert len(decoder) == 0
        assert decoder._head == 0 and decoder._tail == 0

    def test_growth_beyond_initial_capacity(self):
        payload = bytes(range(256)) * 512  # 128 KiB through an 8-byte buffer
        decoder = FrameDecoder(initial=8)
        decoder.feed(FRAME_HEADER.pack(len(payload)))
        for i in range(0, len(payload), 4096):
            decoder.feed(payload[i:i + 4096])
        assert decoder.next_frame() == payload
        assert decoder.next_frame() is None


# ---------------------------------------------------------------------------
# EdgeEventLoop: coalescing, inbound decode, gates
# ---------------------------------------------------------------------------


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "peer closed mid-frame"
        data += chunk
    return data


def _read_frames(sock, count, timeout=5.0):
    sock.settimeout(timeout)
    frames = []
    for _ in range(count):
        (length,) = FRAME_HEADER.unpack(_recv_exact(sock, FRAME_HEADER.size))
        frames.append(_recv_exact(sock, length))
    return frames


@pytest.fixture
def loop_pair():
    loop = EdgeEventLoop()
    ours, theirs = socket.socketpair()
    yield loop, ours, theirs
    loop.close()
    try:
        theirs.close()
    except OSError:
        pass


class TestEdgeEventLoop:
    def test_whole_batch_ships_in_one_sendmsg(self, loop_pair):
        """The tentpole's syscall claim, at the unit level: fifty frames
        queued across pump cycles leave in exactly one vectored write."""
        loop, ours, theirs = loop_pair
        conn = loop.register("edge", ours)
        frames = [b"frame-%03d" % i for i in range(50)]
        for frame in frames:
            loop.enqueue(conn, frame)
        # Read-collect mode (what the pump uses): nothing may leave.
        loop.run_once(0.0, flush_writes=False)
        assert loop.syscalls["sendmsg"] == 0
        assert conn.queued_bytes > 0
        # The flush: one spin, one syscall, all fifty frames.
        loop.run_once(0.0)
        assert loop.syscalls["sendmsg"] == 1
        assert _read_frames(theirs, 50) == frames
        assert not conn.out and not conn.want_write

    def test_inbound_frames_land_in_inbox(self, loop_pair):
        loop, ours, theirs = loop_pair
        conn = loop.register("edge", ours)
        sent = [b"a", b"bb" * 1000, b""]
        theirs.sendall(
            b"".join(FRAME_HEADER.pack(len(f)) + f for f in sent)
        )
        deadline = time.monotonic() + 5.0
        while len(conn.inbox) < 3 and time.monotonic() < deadline:
            loop.run_once(0.05)
        assert conn.inbox == sent

    def test_gate_parks_queue_without_syscalls(self, loop_pair):
        """A gated (held/partitioned) connection costs zero syscalls per
        spin: its queue simply stays put until the gate opens."""
        loop, ours, theirs = loop_pair
        conn = loop.register("edge", ours)
        gate_open = [False]
        conn.gate = lambda: gate_open[0]
        loop.enqueue(conn, b"parked")
        for _ in range(3):
            loop.run_once(0.0)
        assert loop.syscalls["sendmsg"] == 0
        assert conn.queued_bytes > 0
        gate_open[0] = True
        loop.run_once(0.0)
        assert _read_frames(theirs, 1) == [b"parked"]

    def test_handler_reply_flushes_same_spin(self, loop_pair):
        """An edge-side handler's replies leave on the spin that read
        the request (end-of-spin flush) — no extra latency turn."""
        loop, ours, theirs = loop_pair
        loop.register("edge", ours, handler=lambda data: [data.upper()])
        theirs.sendall(FRAME_HEADER.pack(5) + b"hello")
        deadline = time.monotonic() + 5.0
        ready = []
        while not ready and time.monotonic() < deadline:
            loop.run_once(0.05)
            ready, _, _ = select_mod.select([theirs], [], [], 0)
        assert _read_frames(theirs, 1) == [b"HELLO"]

    def test_peer_reset_closes_connection(self, loop_pair):
        loop, ours, theirs = loop_pair
        conn = loop.register("edge", ours)
        loop.run_once(0.0)  # admit the registration
        theirs.close()
        deadline = time.monotonic() + 5.0
        while not conn.closed and time.monotonic() < deadline:
            loop.enqueue(conn, b"x" * 4096)
            loop.run_once(0.05)
        assert conn.closed
        assert not conn.out  # queue discarded with the link


# ---------------------------------------------------------------------------
# ReactorTransport: fault + metering parity with InProcessTransport
# ---------------------------------------------------------------------------


FRAME = DeltaFrame(table="items", payload=b"payload-bytes" * 10)


def _in_process():
    transport = InProcessTransport("edge")
    transport.connect(lambda data: [])
    return transport


class TestReactorTransportFaultParity:
    """Every fault must produce the same outcome *and the same metered
    bytes* as the in-process link — that identity is what makes byte
    benches comparable across media."""

    def test_partitioned_fails_unmetered(self, loop_pair):
        loop, ours, _theirs = loop_pair
        reactor = ReactorTransport(
            "edge", loop, ours, faults=FaultInjector(partitioned=True)
        )
        inproc = _in_process()
        inproc.faults.partitioned = True
        for transport in (reactor, inproc):
            outcome = transport.send(FRAME)
            assert outcome.status == "failed"
            assert transport.down_channel.total_bytes == 0

    def test_drop_meters_then_loses(self, loop_pair):
        loop, ours, theirs = loop_pair
        reactor = ReactorTransport(
            "edge", loop, ours, faults=FaultInjector(drop_next=1)
        )
        inproc = _in_process()
        inproc.faults.drop_next = 1
        outcomes = [reactor.send(FRAME), inproc.send(FRAME)]
        assert all(o.status == "dropped" for o in outcomes)
        assert (
            reactor.down_channel.total_bytes
            == inproc.down_channel.total_bytes
            == len(frame_to_bytes(FRAME))
        )
        loop.run_once(0.0)
        ready, _, _ = select_mod.select([theirs], [], [], 0.2)
        assert not ready, "a dropped frame must never reach the wire"

    def test_hold_queues_metered_then_drains(self, loop_pair):
        loop, ours, theirs = loop_pair
        faults = FaultInjector(hold=True)
        reactor = ReactorTransport("edge", loop, ours, faults=faults)
        inproc = _in_process()
        inproc.faults.hold = True
        assert reactor.send(FRAME).status == inproc.send(FRAME).status == "queued"
        assert (
            reactor.down_channel.total_bytes == inproc.down_channel.total_bytes
        )
        loop.run_once(0.0)
        assert reactor._conn.queued_bytes > 0  # parked, not lost
        # A synchronous request cannot wait out a held link — identical
        # error contract on both media.
        for transport in (reactor, inproc):
            with pytest.raises(TransportError, match="holding frames"):
                transport.request(FRAME)
        faults.clear()
        loop.run_once(0.0)
        wire = _read_frames(theirs, 2)  # the held delta + the request
        assert wire[0] == frame_to_bytes(FRAME)

    def test_send_never_syscalls(self, loop_pair):
        """The enqueue-only contract: a hundred sends, zero syscalls."""
        loop, ours, _theirs = loop_pair
        reactor = ReactorTransport("edge", loop, ours)
        for _ in range(100):
            assert reactor.send(FRAME).status == "queued"
        assert loop.syscalls["sendmsg"] == 0
        assert reactor.queued_frames == 100


# ---------------------------------------------------------------------------
# Reactor deployments: EdgeHost fleets over real loopback TCP
# ---------------------------------------------------------------------------


DB = "reactordb"


def make_central(rows=60, **kwargs):
    server = CentralServer(db_name=DB, rsa_bits=512, seed=71, **kwargs)
    schema, data = generate_table(
        TableSpec(name="items", rows=rows, columns=4, seed=5)
    )
    server.create_table(schema, data, fanout_override=6)
    return server


def _tcp_fleet(n_edges, **central_kwargs):
    central = make_central(**central_kwargs)
    deploy = Deployment(central)
    host_addr, port = deploy.address
    host = EdgeHost(host_addr, port)
    names = [f"edge-{i}" for i in range(n_edges)]
    host.launch_fleet(names)
    for name in names:
        deploy.wait_for_edge(name)
    return central, deploy, host, names


class TestReactorDeployment:
    def test_end_to_end_replication_and_queries(self):
        """An EdgeHost fleet against the central listener: replicate,
        settle to cursor parity, answer verified queries."""
        central, deploy, host, names = _tcp_fleet(4)
        try:
            client = central.make_client()
            for key in range(9001, 9006):
                central.insert("items", (key, "a", "b", "c"))
            deploy.sync()
            for name in names:
                assert central.staleness(name, "items") == 0
                resp = deploy.range_query(name, "items", low=9001, high=9005)
                assert len(resp.result.rows) == 5
                assert client.verify(resp).ok
        finally:
            host.close()
            deploy.shutdown()

    def test_sync_of_an_unknown_table_raises_before_touching_anything(self):
        """A mistyped table name fails loudly and leaves no trace —
        with a peer attached and with none (where a bare pump would
        have returned silently)."""
        central, deploy, host, _names = _tcp_fleet(1)
        try:
            with pytest.raises(ReplicationError, match="no VB-tree"):
                deploy.sync("typo")
            assert "typo" not in central.replicator.logs
            assert deploy.sync("items") == 1
        finally:
            host.close()
            deploy.shutdown()
        with Deployment(make_central()) as alone:
            with pytest.raises(ReplicationError, match="no VB-tree"):
                alone.sync("typo")

    def test_held_edge_parks_queue_and_never_delays_healthy_edges(self):
        """Satellite regression (ISSUE: backpressure): a slow /
        partitioned edge under the event loop parks its queue; healthy
        edges' delivery is never delayed beyond one loop iteration.
        Timing-asserted: a blocking path would eat the held peer's
        drain timeout (5 s) or the socket timeout (10 s) per round."""
        central, deploy, host, names = _tcp_fleet(2)
        try:
            held = deploy.edges["edge-0"].transport
            assert isinstance(held, ReactorTransport)
            held.faults.hold = True

            start = time.perf_counter()
            for key in range(9001, 9006):
                central.insert("items", (key, "a", "b", "c"))
            deploy.sync()
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0, (
                f"healthy edge waited {elapsed:.1f}s behind a held peer"
            )
            # The healthy edge is current; the held edge is stale with
            # its frames parked in the connection queue, not lost.
            assert central.staleness("edge-1", "items") == 0
            assert central.staleness("edge-0", "items") > 0
            assert held._conn.queued_bytes > 0
            assert held.connected  # held is weather, not death

            # Clearing the fault drains the parked queue and heals.
            held.faults.clear()
            deploy.sync()
            assert central.staleness("edge-0", "items") == 0
            client = central.make_client()
            resp = deploy.range_query("edge-0", "items", low=9001, high=9005)
            assert len(resp.result.rows) == 5
            assert client.verify(resp).ok
        finally:
            host.close()
            deploy.shutdown()

    def test_delta_batches_coalesce_into_few_syscalls(self):
        """The tentpole's acceptance shape at test scale: an 8-edge
        fleet absorbing 8 eager inserts settles with far fewer
        ``sendmsg`` calls than the 64 frames it ships — queued frames
        ride one vectored write per edge — and without busy polling
        (bounded selects)."""
        central, deploy, host, names = _tcp_fleet(8)
        try:
            before = dict(deploy.reactor.syscalls)
            for key in range(9001, 9009):
                central.insert("items", (key, "a", "b", "c"))
            deploy.sync()
            sent = deploy.reactor.syscalls["sendmsg"] - before["sendmsg"]
            selects = deploy.reactor.syscalls["select"] - before["select"]
            frames = 8 * len(names)  # deltas actually shipped
            assert sent < frames / 2, (
                f"{sent} sendmsg for {frames} frames — coalescing broken"
            )
            assert sent <= 2 * len(names) + 8
            assert selects <= 80, f"{selects} selects for one sync"
            for name in names:
                assert central.staleness(name, "items") == 0
        finally:
            host.close()
            deploy.shutdown()

    def test_delta_and_snapshot_bytes_identical_across_media(self):
        """Exact byte parity (ISSUE acceptance): the same workload
        ships byte-identical snapshot and delta traffic whether edges
        are in-process objects or reactor TCP links — same frames on
        the wire, only the syscall schedule differs."""

        def run_tcp():
            central, deploy, host, names = _tcp_fleet(2)
            try:
                for key in range(9001, 9006):
                    central.insert("items", (key, "a", "b", "c"))
                deploy.sync()
                return {
                    name: deploy.edges[name].transport.down_channel
                    .bytes_by_kind()
                    for name in names
                }
            finally:
                host.close()
                deploy.shutdown()

        def run_in_process():
            central = make_central()
            for i in range(2):
                central.spawn_edge_server(f"edge-{i}")
            for key in range(9001, 9006):
                central.insert("items", (key, "a", "b", "c"))
            central.fanout.drain(wait=True)
            return {
                f"edge-{i}": central.fanout.peer(f"edge-{i}")
                .transport.down_channel.bytes_by_kind()
                for i in range(2)
            }

        in_process = run_in_process()
        reactor = run_tcp()
        for name in in_process:
            for kind in ("snapshot", "delta"):
                assert (
                    in_process[name].get(kind, 0)
                    == reactor[name].get(kind, 0)
                ), f"{kind} bytes diverge across media for {name}"
            assert in_process[name].get("delta", 0) > 0
