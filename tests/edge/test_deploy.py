"""Multi-process deployment over loopback TCP (``-m socket``).

The acceptance scenario for the real-socket transport: central + edge
servers as **separate OS processes**, replication and authenticated
queries over real sockets, and process-level fault injection (SIGKILL
mid-stream) healing through the ordinary nack→retry→snapshot path.

These tests spawn subprocesses, so they are marked ``socket`` and
deselected by default (see ``pytest.ini``); CI runs them in their own
job with ``pytest-timeout`` so a hung subprocess fails fast.
"""

import subprocess
import sys

import pytest

from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.workloads.generator import TableSpec, generate_table

pytestmark = [pytest.mark.socket, pytest.mark.timeout(120)]

DB = "deploydb"


def make_central(rows=120, **kwargs):
    server = CentralServer(db_name=DB, rsa_bits=512, seed=61, **kwargs)
    schema, data = generate_table(
        TableSpec(name="items", rows=rows, columns=4, seed=3)
    )
    server.create_table(schema, data, fanout_override=6)
    return server


@pytest.fixture
def deployment(tmp_path):
    central = make_central()
    deploy = Deployment(central, log_dir=str(tmp_path / "edge-logs"))
    yield central, deploy
    deploy.shutdown()


class TestMultiProcessDeployment:
    def test_end_to_end_two_edges_kill_and_heal(self, deployment):
        """The PR's acceptance scenario, end to end: launch central + 2
        edge OS processes over loopback TCP, insert and query through a
        real socket with client-side VO verification, kill one edge
        mid-stream, restart it, and observe snapshot heal to cursor
        parity."""
        central, deploy = deployment
        client = central.make_client()
        deploy.launch_edge("edge-0")
        deploy.launch_edge("edge-1")
        deploy.wait_for_edge("edge-0")
        deploy.wait_for_edge("edge-1")
        assert deploy.edges["edge-0"].alive and deploy.edges["edge-1"].alive
        # A remote dialer is a fan-out peer and nothing more: the
        # central holds no server object for it — the trust boundary
        # is now the OS process boundary.
        assert set(central.fanout.peers) == {"edge-0", "edge-1"}
        assert central.edges == []

        # Inserts replicate over the wire to both processes.
        for key in range(9001, 9006):
            central.insert("items", (key, "a", "b", "c"))
        deploy.sync()
        assert central.staleness("edge-0", "items") == 0
        assert central.staleness("edge-1", "items") == 0

        # An authenticated range query through a real socket, verified
        # client-side.
        resp = deploy.range_query("edge-0", "items", low=9001, high=9005)
        assert len(resp.result.rows) == 5
        assert client.verify(resp).ok

        # Kill edge-1 mid-stream: the write path must keep going.
        deploy.kill_edge("edge-1")
        for key in range(9006, 9011):
            central.insert("items", (key, "x", "y", "z"))
        deploy.sync()
        assert central.staleness("edge-0", "items") == 0
        resp = deploy.range_query("edge-0", "items", low=9001, high=9010)
        assert len(resp.result.rows) == 10
        assert client.verify(resp).ok

        # Restart: the fresh process registers with no cursors and the
        # fan-out engine heals it via snapshot to cursor parity.
        deploy.restart_edge("edge-1")
        deploy.wait_for_edge("edge-1")
        assert central.staleness("edge-1", "items") == 0
        kinds = deploy.edges["edge-1"].transport.down_channel.bytes_by_kind()
        assert kinds.get("snapshot", 0) > 0, "heal must ship a snapshot"
        resp = deploy.range_query("edge-1", "items", low=9001, high=9010)
        assert len(resp.result.rows) == 10
        assert client.verify(resp).ok

    def test_killed_edge_fails_sends_without_blocking(self, deployment):
        central, deploy = deployment
        deploy.launch_edge("edge-0")
        deploy.wait_for_edge("edge-0")
        deploy.kill_edge("edge-0")
        # Eager replication against a dead process: sends map to
        # ``failed`` outcomes (never exceptions) and cursors fall behind.
        for key in range(9001, 9004):
            central.insert("items", (key, "a", "b", "c"))
        assert central.staleness("edge-0", "items") > 0
        assert not deploy.edges["edge-0"].connected

    def test_secondary_index_query_over_socket(self, deployment):
        central, deploy = deployment
        client = central.make_client()
        central.create_secondary_index("items", "a1", fanout_override=6)
        deploy.launch_edge("edge-0")
        deploy.wait_for_edge("edge-0")
        resp = deploy.secondary_range_query(
            "edge-0", "items", "a1", low="a", high="zzzz"
        )
        assert client.verify(resp).ok

    def test_stopped_edge_does_not_stall_eager_writes(self, deployment):
        """A SIGSTOPped (alive but unresponsive) edge process must not
        slow the eager write path: the non-blocking drain leaves its
        acks outstanding and the in-flight window absorbs the lag."""
        import signal
        import time

        central, deploy = deployment
        deploy.launch_edge("edge-0")
        deploy.wait_for_edge("edge-0")
        proc = deploy.edges["edge-0"].process
        proc.send_signal(signal.SIGSTOP)
        try:
            start = time.perf_counter()
            for key in range(9001, 9006):
                central.insert("items", (key, "a", "b", "c"))
            elapsed = time.perf_counter() - start
            # Pre-fix this took io_timeout (10 s) per pump; post-fix the
            # writes never wait on the wedged peer.
            assert elapsed < 5.0, f"writes stalled {elapsed:.1f}s on a slow edge"
            assert central.staleness("edge-0", "items") > 0
        finally:
            proc.send_signal(signal.SIGCONT)
        deploy.sync()
        assert central.staleness("edge-0", "items") == 0
        resp = deploy.range_query("edge-0", "items", low=9001, high=9005)
        assert len(resp.result.rows) == 5

    def test_key_rotation_reaches_remote_edges(self, deployment):
        central, deploy = deployment
        client = central.make_client()
        deploy.launch_edge("edge-0")
        deploy.wait_for_edge("edge-0")
        central.rotate_key(seed=62)
        deploy.sync()
        assert central.staleness("edge-0", "items") == 0
        resp = deploy.range_query("edge-0", "items", low=None, high=None)
        assert client.verify(resp).ok


class TestKillMidWindow:
    @pytest.mark.event_loop
    def test_peer_killed_mid_window_nacks_heals_and_drops_no_tail(
        self, tmp_path
    ):
        """Satellite regression (DESIGN.md section 10.4): pipelined
        sends under *deferred* acks, then SIGKILL the edge with the
        window full.  The failure must surface as failed sends and a
        forgotten optimistic tail — never a hang in the settle loop
        (the old one-reply-per-frame drain would block on acks that
        are never coming) and never a silently-dropped tail: after the
        restart the snapshot heal must reach cursor parity with every
        committed row present.  The kill is discovered by a failed
        vectored flush (or the RST read event), and the
        readiness-driven settle must forget the tail at once."""
        import time

        central = make_central(ack_every=64)  # acks far beyond the window
        deploy = Deployment(central, log_dir=str(tmp_path / "edge-logs"))
        try:
            client = central.make_client()
            deploy.launch_edge("edge-0")
            deploy.wait_for_edge("edge-0")
            # Pipeline a window of deltas the edge will never ack (the
            # coalescing threshold is far away), then kill it.
            for key in range(9001, 9006):
                central.insert("items", (key, "a", "b", "c"))
            assert central.fanout.peer("edge-0").inflight > 0
            deploy.kill_edge("edge-0")
            # Mid-batch writes against the dead peer: ECONNRESET/EPIPE
            # must map to failed sends, never an exception or a stall.
            start = time.perf_counter()
            for key in range(9006, 9011):
                central.insert("items", (key, "x", "y", "z"))
            deploy.sync()
            elapsed = time.perf_counter() - start
            assert elapsed < 8.0, f"settle hung {elapsed:.1f}s on a dead peer"
            assert not deploy.edges["edge-0"].connected
            # The optimistic tail was forgotten, not silently dropped:
            # nothing is left pretending to be in flight.
            assert central.fanout.peer("edge-0").inflight == 0
            assert central.staleness("edge-0", "items") > 0

            deploy.restart_edge("edge-0")
            deploy.wait_for_edge("edge-0")
            assert central.staleness("edge-0", "items") == 0
            kinds = deploy.edges["edge-0"].transport.down_channel.bytes_by_kind()
            assert kinds.get("snapshot", 0) > 0, "heal must ship a snapshot"
            resp = deploy.range_query("edge-0", "items", low=9001, high=9010)
            assert len(resp.result.rows) == 10  # the full tail survived
            assert client.verify(resp).ok
        finally:
            deploy.shutdown()


class TestRestartHygiene:
    def test_restart_reresolves_connections_and_leaks_no_fds(self, tmp_path):
        """Regression: every relaunch under a ``log_dir`` opened a new
        per-edge log handle while the superseded one stayed open until
        shutdown — one leaked file descriptor per restart.  Restart
        must re-resolve the query connection to the new process and
        return the process-wide fd count to its baseline."""
        import os

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc (Linux)")

        def fd_count() -> int:
            return len(os.listdir("/proc/self/fd"))

        central = make_central()
        deploy = Deployment(central, log_dir=str(tmp_path / "edge-logs"))
        try:
            client = central.make_client()
            deploy.launch_edge("edge-0")
            deploy.wait_for_edge("edge-0")
            baseline = fd_count()
            first_transport = deploy.edges["edge-0"].transport
            for round_ in range(4):
                deploy.restart_edge("edge-0")
                deploy.wait_for_edge("edge-0")
                central.insert("items", (9100 + round_, "a", "b", "c"))
                deploy.sync()
                resp = deploy.range_query(
                    "edge-0", "items", low=9100, high=9100 + round_
                )
                assert len(resp.result.rows) == round_ + 1
                assert client.verify(resp).ok
            # The query path resolved a fresh connection, and the old
            # one is closed — not lingering as a stale socket.
            assert deploy.edges["edge-0"].transport is not first_transport
            assert not first_transport.connected
            # Four restarts must not accumulate descriptors (old log
            # handles + old sockets are closed on relaunch).
            assert fd_count() <= baseline + 1, (
                f"fd leak: baseline {baseline}, now {fd_count()}"
            )
        finally:
            deploy.shutdown()


    def test_failed_bind_leaks_no_reactor_and_no_fds(self):
        """Regression: ``Deployment.__init__`` used to create the event
        loop and assign ``central.fanout.reactor`` *before* binding, so
        a port already in use raised ``OSError`` and left the fan-out
        engine pointing at an orphaned, never-closed loop (+4 fds: the
        selector, the wake pipe pair and the listener).  The bind goes
        first; a failed construction leaves nothing behind."""
        import gc
        import os
        import socket

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc (Linux)")

        def fd_count() -> int:
            return len(os.listdir("/proc/self/fd"))

        central = make_central()
        squatter = socket.socket()
        squatter.bind(("127.0.0.1", 0))
        squatter.listen()
        try:
            gc.collect()
            baseline = fd_count()
            for _ in range(3):
                with pytest.raises(OSError):
                    Deployment(central, port=squatter.getsockname()[1])
            gc.collect()
            assert central.fanout.reactor is None
            assert fd_count() == baseline
        finally:
            squatter.close()


class TestServeCli:
    def test_handshake_failure_exits_nonzero(self):
        """`python -m repro.edge.serve` against a dead port must fail
        fast with a non-zero exit code, not hang."""
        import os

        from repro.edge.deploy import _src_root

        env = dict(os.environ)
        env["PYTHONPATH"] = _src_root()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.edge.serve",
                "--name", "cli-edge", "--host", "127.0.0.1", "--port", "1",
                "--retry-attempts", "2", "--retry-delay", "0.01",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 1
        assert "fatal" in proc.stderr
