"""Where a verified in-process query spends its time, layer by layer.

Builds the e2e benchmark's recipe (``items``: ``--rows`` × 10 columns of
20 B, keys 0, 4, 8, …, 512-bit RSA) with one in-process edge, and times
a narrow (7-row) and a wide (400-row, or the whole table if smaller)
full-row range query through ``central.make_router().range_query``.
Each repetition then times every layer alone on the same payload:

* edge build — ``QueryAuthenticator(edge.replica(t)).range_query``;
* result encode / decode — ``result_to_bytes`` / ``result_from_bytes``;
* verify — ``Client.verify`` on the decoded result (a warm client, as
  the router's is);
* … of which SHA-256 — ``hashlib.sha256`` over exactly the byte strings
  that verification hashed (recorded once through a
  ``DigestEngine(commutative=…)`` whose hash keeps its inputs);
* frames — the request and response frames, each encoded and decoded;
* router remainder — timed inside the routed call: the router's own
  work before its request goes out and after the verdict is back
  (ordering, commit, the ``VerifiedResponse``), i.e. the routed total
  less the time from the channel's ``request`` to the client's verdict
  (channel and client are wrapped to note those two instants).

Prints one row per layer: the median over the repetitions, in µs.  The
rows need not sum to the total: the link's own accounting, the cursor
echo and the router's success bookkeeping are in no row, and a
difference of separately timed medians would be noise-dominated on a
shared machine, so none is printed.

    python tools/query_layers.py                      # finds src/ itself
    python tools/query_layers.py --rows 200 --reps 5  # the tier-1 smoke's size
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.digests import DigestEngine  # noqa: E402
from repro.core.query_auth import QueryAuthenticator  # noqa: E402
from repro.core.verify import ResultVerifier  # noqa: E402
from repro.core.wire import result_from_bytes, result_to_bytes  # noqa: E402
from repro.crypto.commutative import ExponentialCommutativeHash  # noqa: E402
from repro.edge.central import CentralServer  # noqa: E402
from repro.edge.router import VerifyingRouter, in_process_query_channel  # noqa: E402
from repro.edge.transport import (  # noqa: E402
    QueryResponseFrame,
    frame_from_bytes,
    frame_to_bytes,
    range_query_frame,
)
from repro.workloads.generator import TableSpec, generate_table  # noqa: E402

TABLE = "items"
KEY_STEP = 4
LAYERS = (
    "edge build",
    "result encode",
    "result decode",
    "verify",
    "… of which SHA-256",
    "frames (2 encodes, 2 decodes)",
    "router remainder",
    "total, measured",
)


class _TimedChannel:
    """A query channel that notes when its request went out."""

    def __init__(self, inner) -> None:
        self.name, self._inner, self.sent = inner.name, inner, 0.0

    def request(self, frame):
        self.sent = time.perf_counter()
        return self._inner.request(frame)


class _TimedClient:
    """A client that notes when its verdict was back."""

    def __init__(self, inner) -> None:
        self._inner, self.done = inner, 0.0

    def verify(self, result):
        try:
            return self._inner.verify(result)
        finally:
            self.done = time.perf_counter()


class _KeepsInputs(ExponentialCommutativeHash):
    """The paper's hash, remembering every byte string it digests."""

    def __init__(self) -> None:
        super().__init__()
        self.inputs: list[bytes] = []

    def digest_block(self, chunks):
        self.inputs.extend(chunks)
        return super().digest_block(chunks)


def _us(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return (time.perf_counter() - start) * 1e6, out


def measure(central, edge, width: int, reps: int) -> dict[str, float]:
    """Median µs per layer of a ``width``-row full-row range query."""
    channel = _TimedChannel(in_process_query_channel(edge))
    verifier = _TimedClient(central.make_client())
    router, client = VerifyingRouter([channel], verifier), central.make_client()
    sig_len = central.public_key.signature_len
    low, high = 0, (width - 1) * KEY_STEP
    request = range_query_frame(TABLE, low, high)
    recording = _KeepsInputs()
    ResultVerifier(
        DigestEngine(central.db_name, commutative=recording, policy=central.policy),
        keyring=central.keyring,
    ).verify(router.range_query(TABLE, low=low, high=high).result)
    inputs = recording.inputs
    samples: dict[str, list[float]] = {name: [] for name in LAYERS}

    def routed() -> tuple[float, float]:
        total, answer = _us(lambda: router.range_query(TABLE, low=low, high=high))
        assert answer.verdict.ok and len(answer.result.rows) == width
        inside = (verifier.done - channel.sent) * 1e6
        return total, total - inside

    def alone() -> dict[str, float]:
        layers = {}
        layers["edge build"], built = _us(
            lambda: QueryAuthenticator(edge.replica(TABLE)).range_query(low=low, high=high)
        )
        layers["result encode"], payload = _us(lambda: result_to_bytes(built, sig_len))
        layers["result decode"], decoded = _us(lambda: result_from_bytes(payload))
        layers["verify"], verdict = _us(lambda: client.verify(decoded))
        assert verdict.ok
        response = QueryResponseFrame(edge=edge.name, payload=payload)
        layers["frames (2 encodes, 2 decodes)"], _ = _us(
            lambda: (
                frame_from_bytes(frame_to_bytes(request)),
                frame_from_bytes(frame_to_bytes(response)),
            )
        )
        return layers

    # As timeit does: no collector pause inside one timing and not the
    # next.  The routed query goes first on even repetitions and last on
    # odd ones, so neither side always meets the caches the other left.
    gc.collect()
    gc.disable()
    try:
        for rep in range(reps + 1):
            if rep % 2:
                layers, (total, remainder) = alone(), routed()
            else:
                (total, remainder), layers = routed(), alone()
            sha, _ = _us(lambda: [hashlib.sha256(chunk).digest() for chunk in inputs])
            if rep:  # the first repetition only warms the caches
                for name, value in layers.items():
                    samples[name].append(value)
                samples["… of which SHA-256"].append(sha)
                samples["router remainder"].append(remainder)
                samples["total, measured"].append(total)
    finally:
        gc.enable()
    return {name: statistics.median(values) for name, values in samples.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2000, help="table rows")
    parser.add_argument("--reps", type=int, default=40, help="repetitions per query")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    central = CentralServer(db_name="benchdb", rsa_bits=512, seed=args.seed)
    schema, rows = generate_table(
        TableSpec(name=TABLE, rows=args.rows, columns=10, attr_size=20,
                  key_step=KEY_STEP, seed=args.seed)
    )
    central.create_table(schema, rows)
    edge = central.spawn_edge_server("edge-0")
    widths = (7, min(400, args.rows))
    columns = [measure(central, edge, width, args.reps) for width in widths]
    print(f"| layer (µs, median of {args.reps}) | "
          + " | ".join(f"{width} rows" for width in widths) + " |")
    print("|---|" + "---|" * len(widths))
    for name in LAYERS:
        print(f"| {name} | " + " | ".join(f"{col[name]:,.0f}" for col in columns) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
