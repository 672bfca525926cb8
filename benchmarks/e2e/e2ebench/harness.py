"""Closed-loop runner: one client, one process, one operation in flight.

Verification runs in the caller's thread, so a client *is* a closed
loop; the only other thread is the ``EdgeHost`` reactor serving the TCP
edges.  Each operation is timed with ``perf_counter_ns`` from issue to
verified ACCEPT (queries) or to ``sync`` returning with every edge at
cursor parity (writes); the oracle comparison, byte accounting and
counter reads all happen outside the timed interval.  GC stays on.

A run is one set-up, then per phase a fixed warm-up, a fixed *window*
whose byte and operation counts are seed-determined (the exact
metrics), and recorded cycles until the phase's share of ``--seconds``
is used.

**Speed normalisation.**  The sandbox this benchmark runs in executes
identical CPU work at speeds that differ by up to 40 % and hold for
seconds to minutes (CPU time tracks wall time, so it is the core, not
preemption): raw medians of ten 20-second runs spread by 4-22 % of
their median, more than the widest bound the benchmark contract allows,
let alone the third of a bound it asks for.  So after every operation
the runner times one calibration tick (:class:`Ticker`, no code of the
repository) and each end-to-end latency is divided by ``median of the
ticks around it / Ticker.NOMINAL_NS``.  A change to the repository's
code cannot move the tick, so it moves the normalised number exactly as
it moves the raw one, whose median is printed beside it.  ``setup_s``
(one long call) and every per-layer time stay raw.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.communication import vbtree_comm_cost
from repro.analysis.computation import vbtree_comp_cost
from repro.analysis.params import Parameters
from repro.core.digests import DigestEngine
from repro.crypto.meter import CostMeter
from repro.edge import telemetry
from repro.workloads.generator import generate_table

from .fabric import (
    DEFAULT_RECIPE,
    PROJECTION,
    TABLE,
    Fabric,
    Oracle,
    Recipe,
    SetupTimes,
    build_fabric,
    run_canaries,
)
from .trace import HOT_TARGETS, SETUP_TARGETS, OpStats, Tracer, aggregate
from .workloads import Phase, Workload

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Recorder",
    "Result",
    "Ticker",
    "percentile",
    "pick_percentiles",
    "run_untraced",
    "run_traced",
]

_now = time.perf_counter_ns


class Ticker:
    """A fixed unit of CPU work, timed: the machine's speed right now.

    One big-integer ``pow`` (what signing and recovery do), then a
    slice-allocate-hash-multiply loop over a private blob (what decoding
    an answer, digesting its attributes and folding them do): memory-heavy
    operations slow down more in a noisy spell than a bare ``pow``
    does, and this mix tracked every operation class best.
    """

    #: What one tick takes at the speed the reported milliseconds refer
    #: to.  Only its constancy matters: it is the same in every run of
    #: every commit, so normalised values compare.
    NOMINAL_NS = 320_000
    _MODULUS = (1 << 511) + 111
    _EXPONENT = (1 << 100) + 12345
    _RING = 1 << 512
    _CHUNKS = 100
    _CHUNK_BYTES = 24

    def __init__(self) -> None:
        self._base = pow(3, 65537, self._MODULUS)
        self._blob = random.Random(0).randbytes(1 << 16)
        self._at = 0

    def __call__(self) -> int:
        """Run one tick; returns its duration in ns."""
        start = _now()
        product = pow(self._base, self._EXPONENT, self._MODULUS) | 1
        blob, size, at = self._blob, self._CHUNK_BYTES, self._at
        rows = []
        for i in range(self._CHUNKS):
            text = blob[at + i * size:at + (i + 1) * size].hex()
            rows.append((i, text))
            digest = hashlib.sha256(b"benchdb|items|a1|" + text.encode()).digest()
            product = product * (int.from_bytes(digest, "big") | 1) % self._RING
        span = self._CHUNKS * size
        self._at = (at + span) % (len(blob) - span)
        return _now() - start


#: ``name -> unit``, in the order ``run.py`` prints them.  Directions
#: and bounds live in ``BENCHMARK.json``.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "projected_query_ms_p50": "ms",
    "projected_query_ms_p90": "ms",
    "insert_visible_ms_p50": "ms",
    "insert_visible_ms_p90": "ms",
    "delete_visible_ms_p50": "ms",
    "signed_insert_ms_p50": "ms",
    "batch_visible_ms_p50": "ms",
    "ops_per_s": "1/s",
    "response_bytes_per_row": "bytes",
    "replication_bytes_per_update": "bytes",
    "snapshot_bytes_per_user_byte": "ratio",
    "peak_rss_mib": "MiB",
    "verified_ops_share": "share",
}

PER_LAYER: dict[str, str] = {
    "crypto.sign_us": "us",
    "crypto.signs_per_insert": "count",
    "crypto.signs_per_delete": "count",
    "crypto.pk_ms_per_insert": "ms",
    "crypto.recover_us": "us",
    "crypto.recovers_per_query": "count",
    "crypto.recovers_per_projected_query": "count",
    "crypto.pk_ms_per_projected_query": "ms",
    "crypto.hashes_per_query": "count",
    "crypto.combines_per_query": "count",
    "core.digests.tuple_ms_per_query": "ms",
    "core.digests.tuple_ms_per_projected_query": "ms",
    "core.vbtree.build_s": "s",
    "core.update.insert_self_ms": "ms",
    "core.update.delete_self_ms": "ms",
    "core.update.path_nodes_per_insert": "count",
    "core.query_auth.build_ms_per_query": "ms",
    "core.query_auth.build_ms_per_projected_query": "ms",
    "core.query_auth.vo_digests_per_query": "count",
    "core.query_auth.node_reads_per_query": "count",
    "core.wire.result_encode_us_per_kib": "us/KiB",
    "core.wire.result_decode_us_per_kib": "us/KiB",
    "core.wire.result_bytes_per_query": "bytes",
    "core.wire.delta_encode_us": "us",
    "core.wire.delta_decode_us": "us",
    "core.wire.snapshot_encode_s": "s",
    "core.wire.snapshot_decode_s": "s",
    "core.verify.self_ms_per_query": "ms",
    "core.verify.self_ms_per_projected_query": "ms",
    "db.table.insert_us": "us",
    "db.table.delete_us": "us",
    "edge.central.insert_self_ms": "ms",
    "edge.central.delete_self_ms": "ms",
    "edge.fanout.pump_self_ms_per_batch": "ms",
    "edge.fanout.frames_per_update": "count",
    "edge.fanout.ack_frames_per_update": "count",
    "edge.fanout.drain_wait_ms_per_batch": "ms",
    "edge.transport.request_self_ms": "ms",
    "edge.transport.frame_codec_us": "us",
    "edge.event_loop.sendmsg_per_query": "count",
    "edge.event_loop.recv_per_query": "count",
    "edge.event_loop.sendmsg_per_update": "count",
    "edge.event_loop.recv_per_update": "count",
    "edge.event_loop.select_per_update": "count",
    "edge.edge_server.apply_delta_us": "us",
    "edge.edge_server.apply_ms_per_batch": "ms",
    "edge.edge_server.apply_batch_growth": "ratio",
    "edge.edge_server.query_self_us": "us",
    "edge.edge_server.install_snapshot_s": "s",
    "edge.router.self_us_per_query": "us",
    "edge.router.failovers": "count",
    "edge.deploy.bootstrap_s": "s",
    "edge.telemetry.unexpected": "count",
    "analysis.comp_ratio": "ratio",
    "analysis.comm_ratio": "ratio",
    "trace.overhead_share": "share",
    "trace.attributed_share": "share",
}

#: Operation kinds with a root span; writes become visible at ``sync``.
OP_KINDS = ("query", "projected", "insert", "delete", "sync")

_WARM, _WINDOW, _REST = 0, 1, 2


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def percentile(samples: list, p: float) -> float:
    """Nearest-rank percentile of ``samples`` (any order); 0.0 when a
    run failed so badly that there are none."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _per(total: float, count: float) -> float:
    """``total / count``, or 0.0 for a run that recorded nothing."""
    return total / count if count else 0.0


def pick_percentiles(n: int, listed=(50, 90, 99)) -> list[int]:
    """The percentile rule: the median, plus the highest listed
    percentile that still has at least ten samples beyond it."""
    beyond = [p for p in listed if p != 50 and n * (100 - p) / 100.0 >= 10]
    return [50, *([max(beyond)] if beyond else [])]


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


@dataclass
class Recorder:
    """Everything one pass over the phases measured."""

    #: ``(ns, tick before, tick after)`` per sample: the five op kinds
    #: plus ``insert_visible`` / ``delete_visible`` (write call →
    #: covering sync returned, less the ticks in between).
    samples: dict[str, list[tuple[int, int, int]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: Calibration ticks (ns): one before a phase, one after every op.
    ticks: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    verified: int = 0        # recorded ops that were correct
    #: ``verified`` and ``timed_s()`` when the main phase ended:
    #: ``ops_per_s`` is the throughput of the traffic the workload
    #: exists for, not of the tail the contract's metric list adds.
    main_verified: int = 0
    main_timed_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    # Exact window accumulators.
    response_bytes: int = 0
    response_rows: int = 0
    delta_bytes: int = 0
    delta_frames: int = 0
    ack_frames: int = 0
    updates: int = 0
    #: Traced-window counters: ``counts[kind][field]`` and ``n[kind]``.
    counts: dict[str, dict[str, int]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(int))
    )
    n: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Payload bytes of every recorded query, by kind (pairs with the
    #: codec span times, which cover the same operations).
    payload_bytes: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def raw_ms(self, kind: str) -> list[float]:
        return [ns / 1e6 for ns, _first, _last in self.samples[kind]]

    def ms(self, kind: str) -> list[float]:
        """Speed-normalised samples: each divided by the machine's
        slowness around it (1.0 = nominal), the median of its
        bracketing ticks and one more on each side."""
        ticks = self.ticks
        return [
            ns / 1e6 * Ticker.NOMINAL_NS
            / statistics.median(ticks[max(0, first - 1):last + 2])
            for ns, first, last in self.samples[kind]
        ]

    def timed_s(self) -> float:
        """Normalised seconds spent inside timed operations."""
        return sum(sum(self.ms(kind)) for kind in OP_KINDS) / 1e3


class Runner:
    """Executes cycles against one fabric, checking every answer."""

    def __init__(
        self,
        fabric: Fabric,
        oracle: Oracle,
        recorder: Recorder,
        tracer: Optional[Tracer] = None,
        reference: Optional[Recorder] = None,
    ) -> None:
        self.fabric = fabric
        self.oracle = oracle
        #: Where the exact window accumulators always go.
        self.primary = recorder
        #: Where the current cycle's samples go: ``primary``, or — on
        #: the untraced cycles of a traced run — ``reference``.
        self.rec = recorder
        self.reference = reference
        self.tick = Ticker()
        self.tracer = tracer
        self._traced = False
        self.window_ops: set[int] = set()
        #: Writes not yet synced: ``(kind, issued at, mode, tick before)``.
        self._pending: list[tuple[str, int, int, int]] = []
        self._exact = False
        self._log = fabric.central.replicator.log_for(TABLE)
        #: Private twin of the client's digest engine (metered, like
        #: the client's), for :meth:`_rehash_ns`.
        self._engine = DigestEngine("benchdb", meter=CostMeter())

    # -- phases ----------------------------------------------------------

    def run_phase(self, phase: Phase, deadline_ns: int) -> None:
        """Warm-up, window, then recorded cycles until the deadline
        (always at least ``phase.minimum`` recorded cycles).

        A phase without a window starts from a state the clock shaped
        (how far the previous phase got), so it feeds no exact byte
        metric; a traced run still counts operations over its first
        ``minimum`` cycles, as the best available per-op averages.
        """
        self.rec.ticks.append(self.tick())
        for index in range(phase.warmup):
            self._cycle(next(phase.cycles), _WARM, index)
        self._exact = bool(phase.window)
        counted = phase.window or (phase.minimum if self.tracer else 0)
        if self.tracer is not None and not self._exact:
            counted *= 2  # every other cycle of a traced run is untraced
        before = self._replication_marks() if self._exact else None
        for index in range(counted):
            self._cycle(next(phase.cycles), _WINDOW, index)
        if before is not None:
            after = self._replication_marks()
            rec = self.primary
            rec.delta_bytes += after[0] - before[0]
            rec.delta_frames += after[1] - before[1]
            rec.ack_frames += after[2] - before[2]
        recorded = counted
        while recorded < phase.minimum or _now() < deadline_ns:
            self._cycle(next(phase.cycles), _REST, recorded)
            recorded += 1

    def _replication_marks(self) -> tuple[int, int, int]:
        deltas, acks = self.fabric.replication_frames()
        return self.fabric.replication_bytes("delta"), deltas, acks

    # -- one cycle -------------------------------------------------------

    def _cycle(self, cycle: list, mode: int, index: int) -> None:
        if self.tracer is not None:
            # A traced run alternates traced (even) and untraced (odd)
            # cycles, so the two sets of op times it compares (tracing
            # overhead) saw the same machine, tree and heap.
            self._traced = index % 2 == 0
            if self._traced:
                self.tracer.enable()
                self.rec = self.primary
            else:
                self.tracer.disable()
                self.rec = self.reference
        for op in cycle:
            kind = op[0]
            if kind == "sync":
                self._sync(mode)
            elif kind == "insert" or kind == "delete":
                self._write(op, mode)
            else:
                self._query(op, mode)

    def _open(self, kind: str, mode: int) -> None:
        tracer = self.tracer
        if self._traced and mode != _WARM:
            tracer.begin(kind)
            if mode == _WINDOW:
                self.window_ops.add(tracer.op)

    def _close(self, kind: str, mode: int, start: int, end: int) -> int:
        """Record the sample and take the tick that follows it; returns
        the index of the tick that preceded the op."""
        ticks = self.rec.ticks
        before = len(ticks) - 1
        if mode != _WARM:
            if self._traced:
                self.tracer.end(start, end)
            self.rec.samples[kind].append((end - start, before, before + 1))
        ticks.append(self.tick())
        return before

    def _query(self, op: tuple, mode: int) -> None:
        kind, low, high = op
        rec = self.rec
        columns = PROJECTION if kind == "projected" else None
        counting = self._traced and mode == _WINDOW
        router = self.fabric.router
        if counting:
            meter = router.client.meter
            hashes, combines = meter.hashes, meter.combines
            calls = self.fabric.syscalls()
        rec.attempted += 1
        self._open(kind, mode)
        answer = error = None
        start = _now()
        try:
            answer = router.range_query(TABLE, low=low, high=high, columns=columns)
        except Exception as exc:  # any failure is a failed op, not a crash
            error = f"{kind} [{low}, {high}] raised {type(exc).__name__}: {exc}"
        end = _now()
        self._close(kind, mode, start, end)
        if answer is not None:
            if answer.rejected:
                error = f"{kind} [{low}, {high}]: REJECTed on {answer.rejected}"
            elif not self.oracle.matches(answer.result, low, high, columns):
                error = f"{kind} [{low}, {high}] from {answer.edge}: oracle mismatch"
        if error is not None:
            rec.fail(error)
            return
        if mode == _WARM:
            return
        rec.verified += 1
        nbytes = self.fabric.response_bytes(answer.edge)
        rec.payload_bytes[kind] += nbytes
        if mode == _WINDOW and self._exact:
            self.primary.response_bytes += nbytes
            self.primary.response_rows += len(answer.result.rows)
        if counting:
            after = self.fabric.syscalls()
            counts = rec.counts[kind]
            counts["recovers"] += answer.verdict.digests_decrypted
            counts["vo_digests"] += answer.result.vo.digest_count()
            counts["hashes"] += meter.hashes - hashes
            counts["combines"] += meter.combines - combines
            counts["node_reads"] += self.fabric.edges[answer.edge].io_reads_last_query
            counts["payload_bytes"] += nbytes
            counts["hash_ns"] += self._rehash_ns(answer.result)
            for call, value in after.items():
                counts[call] += value - calls[call]
            rec.n[kind] += 1

    def _rehash_ns(self, result) -> int:
        """Time the attribute hashing ``Client.verify`` just did for
        ``result``, again, as one block.

        The FLAT_SET verifier hashes attribute by attribute in a loop
        the tracer leaves unwrapped (a wrapper per 3-µs hash would
        dominate it), so the digest layer's share of a query is
        measured by replaying exactly those hashes, outside the timed
        interval, under one pair of clock reads.
        """
        hash_one = self._engine.attribute_value
        table, columns = result.table, result.columns
        start = _now()
        for key, row in zip(result.keys, result.rows, strict=True):
            for column, value in zip(columns, row, strict=True):
                hash_one(table, column, key, value)
        return _now() - start

    def _write(self, op: tuple, mode: int) -> None:
        kind = op[0]
        rec = self.rec
        central = self.fabric.central
        counting = self._traced and mode == _WINDOW
        if counting:
            calls = self.fabric.syscalls()
        rec.attempted += 1
        self._open(kind, mode)
        error = None
        start = _now()
        try:
            if kind == "insert":
                central.insert(TABLE, op[1])
            else:
                central.delete(TABLE, op[1])
        except Exception as exc:  # any failure is a failed op, not a crash
            error = f"{kind} {op[1]!r} raised {type(exc).__name__}: {exc}"
        end = _now()
        before = self._close(kind, mode, start, end)
        if error is not None:
            rec.fail(error)
            return
        if kind == "insert":
            self.oracle.insert(op[1])
        else:
            self.oracle.delete(op[1])
        self._pending.append((kind, start, mode, before))
        if mode == _WINDOW and self._exact:
            self.primary.updates += 1
        if counting:
            self._count_syscalls("update", calls)
            if kind == "insert":
                entry = self._log.entries_since(self._log.last_lsn - 1)[-1]
                rec.counts["insert"]["path_nodes"] += len(entry.delta.node_updates)
            rec.n[kind] += 1

    def _sync(self, mode: int) -> None:
        rec = self.rec
        counting = self._traced and mode == _WINDOW
        if counting:
            calls = self.fabric.syscalls()
        rec.attempted += 1
        self._open("sync", mode)
        error = None
        start = _now()
        try:
            self.fabric.sync()
        except Exception as exc:  # any failure is a failed op, not a crash
            error = f"sync raised {type(exc).__name__}: {exc}"
        end = _now()
        before = self._close("sync", mode, start, end)
        if error is None and not self.fabric.at_parity():
            error = "sync returned with an edge behind the log"
        if error is not None:
            rec.fail(error)
        # ``verified`` counts the writes a sync makes visible, not the
        # sync: ops_per_s is about what a caller asked for.
        for kind, issued, issued_mode, first in self._pending:
            if error is not None:
                rec.fail(f"{kind} not visible: {error}")
            elif issued_mode != _WARM:
                # No tick is part of a reported interval.
                ticking = sum(rec.ticks[first + 1:before + 1])
                rec.samples[f"{kind}_visible"].append(
                    (end - issued - ticking, first, before + 1)
                )
                rec.verified += 1
        self._pending.clear()
        if counting:
            self._count_syscalls("update", calls)
            rec.n["sync"] += 1

    def _count_syscalls(self, bucket: str, before: dict[str, int]) -> None:
        counts = self.rec.counts[bucket]
        for call, value in self.fabric.syscalls().items():
            counts[call] += value - before[call]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class Result:
    """What one run reports (``run.py`` prints and serialises it)."""

    workload: str
    seed: int
    traced: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Sample count behind each metric that has one.
    samples: dict[str, int]
    #: Unnamed diagnostics (p99/max per timing), never gated.
    diagnostics: dict[str, float]
    problems: list[str]
    wall_s: float

    def to_contract(self, units: dict[str, str]) -> dict:
        """The one-line JSON object the benchmark contract asks for."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }


def _end_to_end(
    rec: Recorder,
    setup: SetupTimes,
    snapshot_bytes: int,
    fabric: Fabric,
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    metrics: dict[str, float] = {}
    counts: dict[str, int] = {}
    diagnostics: dict[str, float] = {}

    def timing(prefix: str, key: str, listed: tuple[int, ...]) -> None:
        values = rec.ms(key)
        for p in listed:
            name = f"{prefix}_ms_p{p}"
            metrics[name] = percentile(values, p)
            counts[name] = len(values)
            if p not in pick_percentiles(len(values), listed):
                # Only a smoke-sized run gets here: Phase.minimum keeps
                # ten samples beyond every named percentile.
                diagnostics[f"{name}_undersampled"] = float(len(values))
        diagnostics[f"{prefix}_ms_p50_raw"] = percentile(rec.raw_ms(key), 50)
        diagnostics[f"{prefix}_ms_p99"] = percentile(values, 99)
        diagnostics[f"{prefix}_ms_max"] = max(values, default=0.0)

    metrics["setup_s"] = setup.total_s
    timing("query", "query", (50, 90))
    timing("projected_query", "projected", (50, 90))
    timing("insert_visible", "insert_visible", (50, 90))
    timing("delete_visible", "delete_visible", (50,))
    timing("signed_insert", "insert", (50,))
    timing("batch_visible", "sync", (50,))
    metrics["ops_per_s"] = _per(rec.main_verified, rec.main_timed_s)
    counts["ops_per_s"] = rec.main_verified
    diagnostics["tick_us_p50"] = statistics.median(rec.ticks) / 1e3
    metrics["response_bytes_per_row"] = _per(rec.response_bytes, rec.response_rows)
    counts["response_bytes_per_row"] = rec.response_rows
    metrics["replication_bytes_per_update"] = _per(
        rec.delta_bytes, rec.updates * fabric.shape.edges
    )
    counts["replication_bytes_per_update"] = rec.updates
    metrics["snapshot_bytes_per_user_byte"] = (
        snapshot_bytes / fabric.recipe.user_bytes()
    )
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    metrics["verified_ops_share"] = 1.0 - _per(rec.failed, rec.attempted)
    counts["verified_ops_share"] = rec.attempted
    return {name: metrics[name] for name in END_TO_END}, counts, diagnostics


def _run_phases(
    runner: Runner, phases: list[Phase], seconds: float
) -> None:
    start = _now()
    used = 0.0
    for phase in phases:
        used += phase.share
        deadline = start + int(used * seconds * 1e9)
        runner.run_phase(phase, deadline)
        if phase.name == "main":
            rec = runner.primary
            rec.main_verified, rec.main_timed_s = rec.verified, rec.timed_s()


def _snapshot_bytes(fabric: Fabric) -> int:
    link = fabric.replication_link(fabric.shape.edge_names[0])
    return link.down_channel.bytes_by_kind()["snapshot"]


def run_untraced(
    workload: Workload, seed: int, seconds: float, recipe: Recipe = DEFAULT_RECIPE
) -> Result:
    """One untraced run: the end-to-end metrics."""
    wall = time.perf_counter()
    telemetry.reset()
    schema, rows = generate_table(recipe.table_spec(seed))
    fabric, setup = build_fabric(workload.shape, seed, recipe, schema, rows)
    try:
        oracle = Oracle(rows)
        snapshot_bytes = _snapshot_bytes(fabric)
        rec = Recorder()
        runner = Runner(fabric, oracle, rec)
        _run_phases(runner, workload.phases(seed, recipe), seconds)
        problems = list(rec.errors) + run_canaries(fabric, oracle, seed)
        metrics, counts, diagnostics = _end_to_end(
            rec, setup, snapshot_bytes, fabric
        )
    finally:
        fabric.close()
    return Result(
        workload=workload.name,
        seed=seed,
        traced=False,
        correct=rec.failed == 0 and not problems,
        attempted=rec.attempted,
        failed=rec.failed,
        metrics=metrics,
        samples=counts,
        diagnostics=diagnostics,
        problems=problems,
        wall_s=time.perf_counter() - wall,
    )


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

_SIGN = "crypto:DigestSigner.sign"
_RECOVER = "crypto:DigestVerifier.recover"
_APPLY = "edge.edge_server:EdgeServer.apply_delta"
_HANDLE = "edge.edge_server:EdgeServer.handle_frame"
_PUMP = "edge.fanout:FanoutEngine.pump"
_DRAIN = "edge.fanout:FanoutEngine.drain"
_REQUESTS = (
    "edge.transport:DeploymentQueryChannel.request",
    "edge.transport:TransportQueryChannel.request",
)
_FRAME_CODEC = (
    "edge.transport:frame_to_bytes",
    "edge.transport:frame_from_bytes",
)
_DELTA_ENCODE = ("core.wire:delta_body_bytes", "core.wire:delta_to_bytes")


def _mean_us(stats: dict[str, OpStats], names, kinds=OP_KINDS) -> float:
    """Mean inclusive duration of the named spans, in µs."""
    total = calls = 0
    for kind in kinds:
        entry = stats.get(kind)
        if entry is None:
            continue
        for name in names:
            total += entry.total_ns.get(name, 0)
            calls += entry.calls.get(name, 0)
    return total / calls / 1e3 if calls else 0.0


def _per_layer(
    workload: Workload,
    recipe: Recipe,
    rec: Recorder,
    reference: Recorder,
    stats: dict[str, OpStats],
    times: SetupTimes,
    fabric: Fabric,
) -> tuple[dict[str, float], dict[str, float]]:
    """``(per-layer metrics, Section-4 reconciliation diagnostics)``."""
    blank = OpStats()
    q, p = stats.get("query", blank), stats.get("projected", blank)
    ins, dele = stats.get("insert", blank), stats.get("delete", blank)
    sync, setup = stats.get("sync", blank), stats.get("setup", blank)
    qw, pw = stats.get("query@window", blank), stats.get("projected@window", blank)
    iw, dw = stats.get("insert@window", blank), stats.get("delete@window", blank)
    counts, n = rec.counts, rec.n

    def per(kind: str, key: str) -> float:
        return counts[kind][key] / n[kind] if n[kind] else 0.0

    def per_update(key: str) -> float:
        updates = n["insert"] + n["delete"]
        return counts["update"][key] / updates if updates else 0.0

    def per_batch(name: str, exclusive: bool) -> float:
        """Time in ``name`` over every write and sync, per sync."""
        table = "self_ns" if exclusive else "total_ns"
        total = sum(getattr(e, table).get(name, 0) for e in (ins, dele, sync))
        return total / sync.ops / 1e6 if sync.ops else 0.0

    def codec_us_per_kib(name: str) -> float:
        nbytes = rec.payload_bytes["query"] + rec.payload_bytes["projected"]
        spent = q.total_ns.get(name, 0) + p.total_ns.get(name, 0)
        return spent / 1e3 / (nbytes / 1024.0) if nbytes else 0.0

    hash_ms = per("query", "hash_ns") / 1e6
    projected_hash_ms = per("projected", "hash_ns") / 1e6
    verify = "core.verify:Client.verify"
    build = "core.query_auth:QueryAuthenticator.range_query"

    # Section-4 reconciliation at this deployment's parameters.
    sig_len = fabric.central.public_key.signature_len
    params = Parameters(
        digest_len=sig_len + 2,
        num_rows=recipe.rows,
        num_cols=recipe.columns,
        query_cols=recipe.columns,
        attr_size=recipe.attr_size + 5,  # canonical encoding: tag + length
    )
    selectivity = workload.query_rows(recipe) / recipe.rows
    comp = vbtree_comp_cost(params, selectivity)
    measured_comp = (
        per("query", "hashes") * params.cost_hash
        + per("query", "recovers") * params.cost_verify
        + per("query", "combines") * params.cost_combine
    )
    comm = vbtree_comm_cost(params, selectivity)

    # Growth of edge apply time across the traced syncs (fan-out's
    # append-only batches get dearer as the tree's right edge grows).
    series = sync.series.get(_APPLY, [])
    quarter = max(1, len(series) // 4)
    growth = (
        statistics.fmean(series[-quarter:]) / statistics.fmean(series[:quarter])
        if series and statistics.fmean(series[:quarter]) > 0
        else 0.0
    )

    # Tracing overhead: traced vs untraced medians, weighted by how
    # often each kind ran in the traced pass.
    traced_ns = untraced_ns = 0.0
    for kind in OP_KINDS:
        if rec.samples[kind] and reference.samples[kind]:
            weight = len(rec.samples[kind])
            traced_ns += weight * statistics.median(rec.ms(kind))
            untraced_ns += weight * statistics.median(reference.ms(kind))
    root_ns = sum(stats[k].root_ns for k in OP_KINDS if k in stats)
    root_self_ns = sum(stats[k].root_self_ns for k in OP_KINDS if k in stats)

    out = {
        "crypto.sign_us": _mean_us(stats, (_SIGN,)),
        "crypto.signs_per_insert": iw.calls_per_op(_SIGN),
        "crypto.signs_per_delete": dw.calls_per_op(_SIGN),
        "crypto.pk_ms_per_insert": ins.total_ms(_SIGN),
        "crypto.recover_us": _mean_us(stats, (_RECOVER,)),
        "crypto.recovers_per_query": per("query", "recovers"),
        "crypto.recovers_per_projected_query": per("projected", "recovers"),
        "crypto.pk_ms_per_projected_query": p.total_ms(_RECOVER),
        "crypto.hashes_per_query": per("query", "hashes"),
        "crypto.combines_per_query": per("query", "combines"),
        "core.digests.tuple_ms_per_query": hash_ms,
        "core.digests.tuple_ms_per_projected_query": projected_hash_ms,
        "core.vbtree.build_s": setup.total_ns.get("core.vbtree:VBTree.build", 0) / 1e9,
        "core.update.insert_self_ms": ins.self_ms(
            "core.update:AuthenticatedUpdater.insert"
        ),
        "core.update.delete_self_ms": dele.self_ms(
            "core.update:AuthenticatedUpdater.delete"
        ),
        "core.update.path_nodes_per_insert": per("insert", "path_nodes"),
        "core.query_auth.build_ms_per_query": q.self_ms(build),
        "core.query_auth.build_ms_per_projected_query": p.self_ms(build),
        "core.query_auth.vo_digests_per_query": per("query", "vo_digests"),
        "core.query_auth.node_reads_per_query": per("query", "node_reads"),
        "core.wire.result_encode_us_per_kib": codec_us_per_kib(
            "core.wire:result_to_bytes"
        ),
        "core.wire.result_decode_us_per_kib": codec_us_per_kib(
            "core.wire:result_from_bytes"
        ),
        "core.wire.result_bytes_per_query": per("query", "payload_bytes"),
        "core.wire.delta_encode_us": _mean_us(stats, _DELTA_ENCODE),
        "core.wire.delta_decode_us": _mean_us(stats, ("core.wire:delta_from_bytes",)),
        "core.wire.snapshot_encode_s": setup.total_ns.get(
            "core.wire:snapshot_to_bytes", 0
        ) / 1e9,
        "core.wire.snapshot_decode_s": _mean_us(
            stats, ("core.wire:snapshot_from_bytes",), ("setup",)
        ) / 1e6,
        "core.verify.self_ms_per_query": max(0.0, q.self_ms(verify) - hash_ms),
        "core.verify.self_ms_per_projected_query": max(
            0.0, p.self_ms(verify) - projected_hash_ms
        ),
        "db.table.insert_us": ins.self_ms("db:Table.insert") * 1e3,
        "db.table.delete_us": dele.self_ms("db:Table.delete") * 1e3,
        "edge.central.insert_self_ms": ins.self_ms(
            "edge.central:CentralServer.insert"
        ),
        "edge.central.delete_self_ms": dele.self_ms(
            "edge.central:CentralServer.delete"
        ),
        "edge.fanout.pump_self_ms_per_batch": per_batch(_PUMP, exclusive=True),
        "edge.fanout.frames_per_update": (
            rec.delta_frames / rec.updates / fabric.shape.edges
            if rec.updates else 0.0
        ),
        "edge.fanout.ack_frames_per_update": (
            rec.ack_frames / rec.updates / fabric.shape.edges
            if rec.updates else 0.0
        ),
        "edge.fanout.drain_wait_ms_per_batch": per_batch(_DRAIN, exclusive=True),
        "edge.transport.request_self_ms": sum(q.self_ms(r) for r in _REQUESTS),
        "edge.transport.frame_codec_us": _mean_us(stats, _FRAME_CODEC),
        "edge.event_loop.sendmsg_per_query": per("query", "sendmsg"),
        "edge.event_loop.recv_per_query": per("query", "recv"),
        "edge.event_loop.sendmsg_per_update": per_update("sendmsg"),
        "edge.event_loop.recv_per_update": per_update("recv"),
        "edge.event_loop.select_per_update": per_update("select"),
        "edge.edge_server.apply_delta_us": _mean_us(stats, (_APPLY,)),
        "edge.edge_server.apply_ms_per_batch": per_batch(_APPLY, exclusive=False),
        "edge.edge_server.apply_batch_growth": growth,
        "edge.edge_server.query_self_us": q.self_ms(_HANDLE) * 1e3,
        "edge.edge_server.install_snapshot_s": setup.total_ns.get(_HANDLE, 0) / 1e9,
        "edge.router.self_us_per_query": q.self_ms(
            "edge.router:VerifyingRouter.query"
        ) * 1e3,
        "edge.router.failovers": float(fabric.router.router.failovers),
        "edge.deploy.bootstrap_s": times.bootstrap_s,
        "edge.telemetry.unexpected": float(telemetry.unexpected_total()),
        "analysis.comp_ratio": measured_comp / comp.total if comp.total else 0.0,
        "analysis.comm_ratio": (
            per("query", "payload_bytes") / comm.total if comm.total else 0.0
        ),
        "trace.overhead_share": (
            traced_ns / untraced_ns - 1.0 if untraced_ns else 0.0
        ),
        "trace.attributed_share": (
            1.0 - root_self_ns / root_ns if root_ns else 0.0
        ),
    }
    # The Section-4 reconciliation, count by count (printed beside the
    # two ratios): what a main-phase full-row query cost, and what
    # formulas (9) and (10) predict for it.
    reconciliation = {
        "analysis.hashes.measured": per("query", "hashes"),
        "analysis.hashes.formula": float(comp.hashes),
        "analysis.recovers.measured": per("query", "recovers"),
        "analysis.recovers.formula": float(comp.decryptions),
        "analysis.combines.measured": per("query", "combines"),
        "analysis.combines.formula": float(comp.combines),
        "analysis.response_bytes.measured": per("query", "payload_bytes"),
        "analysis.response_bytes.formula": comm.total,
    }
    return {name: out[name] for name in PER_LAYER}, reconciliation


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    recipe: Recipe = DEFAULT_RECIPE,
    trace_path: Optional[str] = None,
) -> Result:
    """One traced run: the per-layer metrics.

    Set-up runs once under the coarse set-up wrappers.  The phases
    then run as in :func:`run_untraced`, except that the hot wrappers
    are switched on for every other cycle only: the untraced cycles in
    between are the reference the tracing overhead is measured against.
    """
    wall = time.perf_counter()
    telemetry.reset()
    schema, rows = generate_table(recipe.table_spec(seed))
    tracer = Tracer()
    tracer.install(SETUP_TARGETS)
    try:
        tracer.begin("setup")
        start = _now()
        fabric, times = build_fabric(workload.shape, seed, recipe, schema, rows)
        tracer.end(start, _now())
    finally:
        tracer.uninstall()
    try:
        oracle = Oracle(rows)
        rec = Recorder()
        reference = Recorder(ticks=rec.ticks)  # their cycles alternate
        runner = Runner(fabric, oracle, rec, tracer, reference)
        tracer.install(HOT_TARGETS)
        try:
            _run_phases(runner, workload.phases(seed, recipe), seconds)
        finally:
            tracer.uninstall()
        problems = (
            list(reference.errors) + list(rec.errors)
            + run_canaries(fabric, oracle, seed)
        )

        def labels(op: int) -> tuple[str, ...]:
            kind = tracer.op_kinds[op]
            if kind == "setup":
                return ("setup",)
            if op in runner.window_ops:
                return (kind, f"{kind}@window")
            return (kind,)

        stats = aggregate(
            tracer.spans, tracer.op_kinds, tracer.main_thread, labels,
            series=(_APPLY,),
        )
        metrics, reconciliation = _per_layer(
            workload, recipe, rec, reference, stats, times, fabric
        )
    finally:
        fabric.close()
    if trace_path is not None:
        tracer.dump(trace_path)
    failed = reference.failed + rec.failed
    return Result(
        workload=workload.name,
        seed=seed,
        traced=True,
        correct=failed == 0 and not problems,
        attempted=reference.attempted + rec.attempted,
        failed=failed,
        metrics=metrics,
        samples={},
        diagnostics={
            **reconciliation,
            **{
                f"self_ms.{kind}.{name}": stats[kind].self_ms(name)
                for kind in OP_KINDS if kind in stats
                for name in sorted(stats[kind].self_ns)
            },
        },
        problems=problems,
        wall_s=time.perf_counter() - wall,
    )
