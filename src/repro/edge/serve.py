"""Edge-server process entrypoint: ``python -m repro.edge.serve``.

Runs one :class:`~repro.edge.edge_server.EdgeServer` as a standalone OS
process that dials the central listener, performs the registration
handshake (DESIGN.md section 8 — the only thing that blocks), and then
serves frames from a reactor handler until the connection drops: the
seat an :class:`~repro.edge.event_loop.EdgeHost` edge and a relay's
upstream face take (:func:`~repro.edge.event_loop.join`), in the redial
loop they share (:func:`~repro.edge.event_loop.serve_dialed`).  It
reconnects with its current replica cursors so a *transient* disconnect
resumes via deltas, while a killed-and-restarted process (fresh,
replica-less) re-registers empty and heals via snapshot.

Quickstart (central side is :class:`repro.edge.deploy.Deployment`)::

    python -m repro.edge.serve --name edge-0 --host 127.0.0.1 --port 7401

The process exits 0 when the central server closes the connection and
the reconnect budget is exhausted, non-zero if it never got to serve.
"""

from __future__ import annotations

import argparse
import sys

from repro.edge.edge_server import EdgeServer
from repro.edge.event_loop import EdgeEventLoop, join, serve_dialed
from repro.exceptions import TransportError

__all__ = ["run_edge", "main"]


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
        io_timeout: Connect and handshake timeout.
        verbose: Narrate connections on stdout (useful under ``-m``).

    Returns:
        The edge server with whatever replicas it accumulated, or
        ``None`` if it never joined.
    """
    loop = EdgeEventLoop()
    edge = EdgeServer(name)
    try:
        serve_dialed(
            loop, host, port, lambda sock: join(loop, sock, edge),
            label=f"edge {name}",
            max_reconnects=max_reconnects, retry_attempts=retry_attempts,
            retry_delay=retry_delay, io_timeout=io_timeout, verbose=verbose,
        )
    finally:
        loop.close()
    # Only a handshake's reply gives the edge a config.
    return edge if edge.config is not None else None


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
    dial = dict(
        max_reconnects=args.max_reconnects,
        retry_attempts=args.retry_attempts,
        retry_delay=args.retry_delay,
        io_timeout=args.io_timeout,
        verbose=not args.quiet,
    )
    try:
        if args.relay:
            from repro.edge.relay import run_relay

            run_relay(
                args.name, args.host, args.port,
                listen_host=args.listen_host,
                listen_port=args.listen_port,
                spot_check_every=args.spot_check_every,
                max_store_bytes=args.max_store_bytes,
                **dial,
            )
        else:
            run_edge(args.name, args.host, args.port, **dial)
    except TransportError as exc:
        print(f"[edge {args.name}] fatal: {exc}", file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
