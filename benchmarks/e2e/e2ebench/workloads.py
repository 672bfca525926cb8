"""The four seeded workloads (names are permanent).

A workload is a fabric :class:`~e2ebench.fabric.Shape` plus two endless
streams of *cycles* — lists of operations that leave no write
unsynced — one for its **main** phase, the traffic the workload exists
to measure, and one for a short **tail** phase that issues the
operation classes the main phase lacks, so that every end-to-end
metric is measured on every workload (the benchmark contract reports
the full metric list per workload).  On the two read workloads the
tail runs strictly after the reads: every main-phase query sees a tree
unchanged since bootstrap.

Operations are plain tuples, so two op lists compare with ``==``::

    ("query", low, high)        full-row verified range query
    ("projected", low, high)    the same with columns=("id", "a1")
    ("insert", values)          signed insert at the central server
    ("delete", key)             signed delete at the central server
    ("sync",)                   bring every edge to cursor parity

Every random choice comes from a ``random.Random`` seeded from
``--seed`` and a stream label; the system under test only ever sees
the generated operations.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.workloads.generator import zipf_ranks

from .fabric import DEFAULT_RECIPE, Recipe, Shape, random_values

__all__ = ["Phase", "Workload", "WORKLOADS"]

Op = tuple
Cycle = list


@dataclass
class Phase:
    """One phase of a run.

    Attributes:
        name: ``"main"`` or ``"tail"``.
        share: Fraction of the run's ``--seconds`` this phase may use.
        warmup: Cycles executed first and not recorded (fixed, so the
            state the recorded cycles start from is seed-determined).
        window: The first recorded cycles, whose byte and operation
            counts feed the exact metrics.
        minimum: Recorded cycles that always run, however slow the
            machine, so each listed percentile keeps >= 10 samples
            beyond it.
        cycles: The endless cycle stream.
    """

    name: str
    share: float
    warmup: int
    window: int
    minimum: int
    cycles: Iterator[Cycle] = field(default_factory=lambda: iter(()))


def _phase(
    name: str, share: float, recipe: Recipe, warmup: int, window: int, minimum: int
) -> Phase:
    """A phase whose fixed cycle counts are those of the benchmark's
    table; a smaller table (the smoke test's) shrinks them with it."""
    scale = min(1.0, recipe.rows / DEFAULT_RECIPE.rows)
    window = max(1, round(window * scale)) if window else 0
    return Phase(
        name, share,
        warmup=max(1, round(warmup * scale)),
        window=window,
        minimum=max(window, 1, round(minimum * scale)),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    #: ``(seed, recipe) -> fresh phases``.
    phases: Callable[[int, Recipe], list[Phase]]
    #: Rows a main-phase full-row query returns (for the Section-4
    #: reconciliation).
    query_rows: Callable[[Recipe], int]


# ----------------------------------------------------------------------
# Seeded building blocks
# ----------------------------------------------------------------------


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{label}:{seed}")


def _narrow_width(recipe: Recipe) -> int:
    return min(7, recipe.rows)


def _zipf_narrow(
    seed: int, label: str, recipe: Recipe, lead: int = 0, chunk: int = 1000
) -> Iterator[tuple[int, int]]:
    """Endless ``(low, high)`` ranges of 7 consecutive rows whose start
    is Zipf(0.99)-popular.

    Which rows are popular is part of the workload, not of the seed: a
    fixed permutation scatters the hot starts over the key space.  So
    is *how often* each is asked for: after ``lead`` seeded draws (a
    phase's warm-up), every ``chunk`` consecutive ranges (its exact
    window, or a divisor of it) are one fixed Zipf sample, and the seed
    only orders them.  (With the sample itself seeded, bytes per row
    swung by 2-3 % between seeds — which hot range's VO the window
    happened to favour — against a bound of 1 %.)
    """
    width = _narrow_width(recipe)
    starts = list(range(recipe.rows - width + 1))
    random.Random("zipf-popularity").shuffle(starts)
    rng = _rng(seed, label)
    ranks = zipf_ranks(len(starts), lead, theta=0.99, seed=rng.getrandbits(32))
    sample = zipf_ranks(len(starts), chunk, theta=0.99, seed=0)
    while True:
        for rank in ranks:
            offset = starts[rank]
            yield (
                offset * recipe.key_step,
                (offset + width - 1) * recipe.key_step,
            )
        ranks = sample[:]
        rng.shuffle(ranks)


def _uniform_range(rng: random.Random, recipe: Recipe, width: int) -> tuple[int, int]:
    offset = rng.randint(0, recipe.rows - width)
    return offset * recipe.key_step, (offset + width - 1) * recipe.key_step


class _HoleWriter:
    """Seeded in-place writes: inserts land in the key lattice's holes,
    deletes remove the oldest key this stream inserted."""

    def __init__(self, seed: int, label: str, recipe: Recipe) -> None:
        self.rng = _rng(seed, label)
        self.recipe = recipe
        self.live: deque[int] = deque()

    def insert(self) -> Op:
        recipe = self.recipe
        while True:
            key = (
                self.rng.randrange(recipe.rows) * recipe.key_step
                + self.rng.randint(1, recipe.key_step - 1)
            )
            if key not in self.live:
                break
        self.live.append(key)
        return ("insert", random_values(self.rng, key, recipe))

    def delete(self) -> Op:
        return ("delete", self.live.popleft())


def _write_pairs(seed: int, label: str, recipe: Recipe) -> Iterator[Cycle]:
    writer = _HoleWriter(seed, label, recipe)
    while True:
        yield [writer.insert(), ("sync",), writer.delete(), ("sync",)]


# ----------------------------------------------------------------------
# read_narrow_tcp
# ----------------------------------------------------------------------


_TAIL_PROJECTED = 4


def _read_narrow_tcp(seed: int, recipe: Recipe) -> list[Phase]:
    main = _phase("main", 0.70, recipe, warmup=150, window=1000, minimum=1000)
    main.cycles = (
        [("query", low, high)]
        for low, high in _zipf_narrow(
            seed, "narrow.main", recipe, lead=main.warmup, chunk=main.window
        )
    )

    def tail_cycles() -> Iterator[Cycle]:
        ranges = _zipf_narrow(
            seed, "narrow.tail", recipe,
            lead=tail.warmup * _TAIL_PROJECTED, chunk=tail.window * _TAIL_PROJECTED,
        )
        writes = _write_pairs(seed, "narrow.tail.writes", recipe)
        while True:
            yield [
                *(("projected", *next(ranges)) for _ in range(_TAIL_PROJECTED)),
                *next(writes),
            ]

    tail = _phase("tail", 0.30, recipe, warmup=6, window=60, minimum=105)
    tail.cycles = tail_cycles()
    return [main, tail]


# ----------------------------------------------------------------------
# read_wide_inproc
# ----------------------------------------------------------------------


def _wide_rows(recipe: Recipe) -> int:
    return max(1, recipe.rows // 5)


def _read_wide_inproc(seed: int, recipe: Recipe) -> list[Phase]:
    def main_cycles() -> Iterator[Cycle]:
        rng = _rng(seed, "wide.main")
        full, projected = _wide_rows(recipe), max(1, recipe.rows // 20)
        while True:
            yield [
                ("query", *_uniform_range(rng, recipe, full)),
                ("projected", *_uniform_range(rng, recipe, projected)),
            ]

    main = _phase("main", 0.80, recipe, warmup=5, window=60, minimum=100)
    main.cycles = main_cycles()
    tail = _phase("tail", 0.20, recipe, warmup=8, window=60, minimum=105)
    tail.cycles = _write_pairs(seed, "wide.tail.writes", recipe)
    return [main, tail]


# ----------------------------------------------------------------------
# mixed_rw_tcp
# ----------------------------------------------------------------------

#: Inserted keys kept live before deletes start, so a delete removes a
#: key inserted 8 writes ago, not the one just inserted.
_MIXED_BACKLOG = 8


_MIXED_READS = 4  # per cycle: R R W R R W


def _mixed_rw_tcp(seed: int, recipe: Recipe) -> list[Phase]:
    def main_cycles() -> Iterator[Cycle]:
        # The first cycle (always inside the warm-up) builds the
        # backlog and reads nothing.
        reads = _zipf_narrow(
            seed, "mixed.main", recipe,
            lead=(main.warmup - 1) * _MIXED_READS, chunk=main.window * _MIXED_READS,
        )
        writer = _HoleWriter(seed, "mixed.main.writes", recipe)

        def read() -> Op:
            return ("query", *next(reads))

        yield [*(writer.insert() for _ in range(_MIXED_BACKLOG)), ("sync",)]
        while True:
            yield [
                read(), read(), writer.insert(), ("sync",),
                read(), read(), writer.delete(), ("sync",),
            ]

    main = _phase("main", 0.85, recipe, warmup=12, window=150, minimum=150)
    main.cycles = main_cycles()
    tail = _phase("tail", 0.15, recipe, warmup=20, window=0, minimum=105)
    tail.cycles = (
        [("projected", low, high)]
        for low, high in _zipf_narrow(seed, "mixed.tail", recipe)
    )
    return [main, tail]


# ----------------------------------------------------------------------
# fanout_lazy_tcp
# ----------------------------------------------------------------------

_BATCH = 32
_BATCH_DELETES = 2
_FANOUT_EDGES = 8


def _fanout_lazy_tcp(seed: int, recipe: Recipe) -> list[Phase]:
    def main_cycles() -> Iterator[Cycle]:
        rng = _rng(seed, "fanout.main")
        appended: deque[int] = deque()
        key = recipe.max_key
        width = _narrow_width(recipe)
        while True:
            cycle: Cycle = []
            for _ in range(_BATCH):
                key += recipe.key_step
                appended.append(key)
                cycle.append(("insert", random_values(rng, key, recipe)))
            # Two deletes of the oldest appended keys ride in every
            # batch, so delete visibility is measured under the same
            # lazy policy as the appends (net growth stays +30 a batch).
            cycle.extend(
                ("delete", appended.popleft()) for _ in range(_BATCH_DELETES)
            )
            cycle.append(("sync",))
            low = key - (width - 1) * recipe.key_step
            # One tail query per edge (round-robin): every replica
            # proves it serves the batch it just applied.
            cycle.extend(("query", low, key) for _ in range(_FANOUT_EDGES))
            yield cycle

    main = _phase("main", 0.88, recipe, warmup=2, window=8, minimum=21)
    main.cycles = main_cycles()
    tail = _phase("tail", 0.12, recipe, warmup=10, window=0, minimum=105)
    tail.cycles = (
        [("projected", low, high)]
        for low, high in _zipf_narrow(seed, "fanout.tail", recipe)
    )
    return [main, tail]


#: Why each exists is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "read_narrow_tcp", Shape(edges=2, tcp=True),
            _read_narrow_tcp, _narrow_width,
        ),
        Workload(
            # Lazy, so that the tail's ``sync`` does something to time
            # (an eager in-process write has already been applied);
            # the main phase only reads and cannot tell.
            "read_wide_inproc", Shape(edges=1, tcp=False, lazy=True),
            _read_wide_inproc, _wide_rows,
        ),
        Workload(
            "mixed_rw_tcp", Shape(edges=2, tcp=True),
            _mixed_rw_tcp, _narrow_width,
        ),
        Workload(
            "fanout_lazy_tcp", Shape(edges=_FANOUT_EDGES, tcp=True, lazy=True),
            _fanout_lazy_tcp, _narrow_width,
        ),
    )
}
