"""Edge-server process entrypoint: ``python -m repro.edge.serve``.

Runs one :class:`~repro.edge.edge_server.EdgeServer` as a standalone OS
process that dials the central listener, performs the registration
handshake (DESIGN.md section 8), and then serves frames until the
connection drops — reconnecting with its current replica cursors so a
*transient* disconnect resumes via deltas, while a killed-and-restarted
process (fresh, replica-less) re-registers empty and heals via
snapshot.

Quickstart (central side is :class:`repro.edge.deploy.Deployment`)::

    python -m repro.edge.serve --name edge-0 --host 127.0.0.1 --port 7401

The process exits 0 when the central server closes the connection and
the reconnect budget is exhausted, non-zero on handshake failure.
"""

from __future__ import annotations

import argparse
import socket
import sys

from repro.edge import telemetry
from repro.edge.socket_transport import (
    connect_with_retry,
    dial_handshake,
    recv_frame,
    send_frames,
)
from repro.edge.transport import (
    HelloFrame,
    QueryResponseFrame,
    config_from_frame,
    frame_to_bytes,
)
from repro.exceptions import TransportError

__all__ = ["serve_connection", "run_edge", "main"]


def serve_connection(sock: socket.socket, name: str, edge=None):
    """Handshake then serve frames on one connection until EOF.

    Sends a :class:`~repro.edge.transport.HelloFrame` (with resume
    cursors when ``edge`` already holds replicas), expects a
    :class:`~repro.edge.transport.ConfigFrame` back, then answers every
    incoming frame with the edge server's replies.

    Args:
        sock: Connected socket to the central listener.
        name: This edge server's name.
        edge: An existing :class:`~repro.edge.edge_server.EdgeServer`
            to resume with, or ``None`` to build one from the handshake
            config.

    Returns:
        The (possibly newly constructed) edge server, once the central
        server closes the connection.

    Raises:
        TransportError: If the handshake does not complete.
    """
    from repro.edge.edge_server import EdgeServer

    cursors = edge.replication_cursors() if edge is not None else ()
    reply = dial_handshake(sock, HelloFrame(edge=name, cursors=cursors))
    if edge is None:
        edge = EdgeServer(
            name=name,
            config=config_from_frame(reply),
            ack_every=reply.ack_every,
            ack_bytes=reply.ack_bytes,
        )
    else:
        # A reconnect's handshake carries the *current* verification
        # bundle — apply it so a key rotation that happened while this
        # edge was disconnected is already known before any frame.
        # Ack-coalescing policy travels with it.
        edge.config = config_from_frame(reply)
        edge.ack_every = max(1, reply.ack_every)
        edge.ack_bytes = max(1, reply.ack_bytes)
    while True:
        try:
            data = recv_frame(sock)
        except TimeoutError:
            continue  # idle link (no writes lately): keep serving
        except (TransportError, OSError):
            break  # torn frame / reset: treat as a disconnect, resync later
        if data is None:
            break
        try:
            replies = edge.handle_frame(data)
        except Exception as exc:
            # Broad by design: one bad frame must not kill the process
            # (and the central expects exactly one reply per frame, so
            # answer with an error response).  Counted per FL002.
            telemetry.note("serve.handle_frame", exc)
            replies = [
                frame_to_bytes(
                    QueryResponseFrame(
                        edge=name,
                        payload=b"",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
            ]
        try:
            # One frame can yield several replies (a delta's ack plus a
            # nack, a heal's cursor ack): gather them into one vectored
            # write instead of one syscall per reply.
            send_frames(sock, replies)
        except OSError:
            break
    return edge


def run_edge(
    name: str,
    host: str,
    port: int,
    *,
    max_reconnects: int | None = None,
    retry_attempts: int = 40,
    retry_delay: float = 0.25,
    io_timeout: float = 30.0,
    verbose: bool = False,
):
    """Connect-serve-reconnect loop for one edge process.

    Args:
        name: Edge server name (registered in the handshake).
        host / port: The central listener's address.
        max_reconnects: How many times to re-dial after a disconnect
            (``None`` = until dialing itself fails).
        retry_attempts / retry_delay: Per-dial retry budget while the
            listener comes up (or back up).
        io_timeout: Socket receive timeout while serving.
        verbose: Narrate connections on stdout (useful under ``-m``).

    Returns:
        The edge server with whatever replicas it accumulated.
    """
    edge = None
    reconnects = 0
    while True:
        try:
            sock = connect_with_retry(
                host, port, attempts=retry_attempts, delay=retry_delay,
                timeout=io_timeout,
            )
        except TransportError:
            if edge is not None:
                # Served at least once: the central going away for good
                # is a normal shutdown, not a fatal error.
                return edge
            raise
        sock.settimeout(io_timeout)
        if verbose:
            print(f"[edge {name}] connected to {host}:{port}", flush=True)
        try:
            edge = serve_connection(sock, name, edge)
        except (TransportError, OSError):
            # Handshake timed out / tore mid-frame (e.g. the central's
            # accept loop was busy): treat as a disconnect and re-dial,
            # don't kill the process.
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if verbose:
            print(f"[edge {name}] disconnected", flush=True)
        reconnects += 1
        if max_reconnects is not None and reconnects > max_reconnects:
            return edge


def main(argv: list[str] | None = None) -> int:
    """CLI wrapper for :func:`run_edge` / :func:`~repro.edge.relay.run_relay`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.edge.serve",
        description="Run one edge server (or relay) process against an "
        "upstream listener.",
    )
    parser.add_argument("--name", required=True, help="edge/relay name")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--max-reconnects", type=int, default=None,
        help="stop after this many disconnects (default: keep re-dialing "
        "until the listener is gone for good)",
    )
    parser.add_argument("--retry-attempts", type=int, default=40)
    parser.add_argument("--retry-delay", type=float, default=0.25)
    parser.add_argument("--io-timeout", type=float, default=30.0)
    parser.add_argument(
        "--relay", action="store_true",
        help="run as an unkeyed store-and-forward relay instead of an edge: "
        "dial --host/--port upstream, fan out to edges dialing "
        "--listen-host/--listen-port",
    )
    parser.add_argument(
        "--listen-host", default="127.0.0.1",
        help="(relay) downstream listen address",
    )
    parser.add_argument(
        "--listen-port", type=int, default=0,
        help="(relay) downstream listen port (0 = ephemeral)",
    )
    parser.add_argument(
        "--spot-check-every", type=int, default=0,
        help="(relay) verify every Nth ingested delta signature (0 = never)",
    )
    parser.add_argument(
        "--max-store-bytes", type=int, default=0,
        help="(relay) per-table frame-store byte cap; exceeding it "
        "evicts the chain and heals by snapshot (0 = unbounded)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.relay:
            from repro.edge.relay import run_relay

            run_relay(
                args.name,
                args.host,
                args.port,
                listen_host=args.listen_host,
                listen_port=args.listen_port,
                max_reconnects=args.max_reconnects,
                retry_attempts=args.retry_attempts,
                retry_delay=args.retry_delay,
                io_timeout=args.io_timeout,
                spot_check_every=args.spot_check_every,
                max_store_bytes=args.max_store_bytes,
                verbose=not args.quiet,
            )
        else:
            run_edge(
                args.name,
                args.host,
                args.port,
                max_reconnects=args.max_reconnects,
                retry_attempts=args.retry_attempts,
                retry_delay=args.retry_delay,
                io_timeout=args.io_timeout,
                verbose=not args.quiet,
            )
    except TransportError as exc:
        print(f"[edge {args.name}] fatal: {exc}", file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
