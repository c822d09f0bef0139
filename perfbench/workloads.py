"""The benchmark's four workloads over one ``sales`` fact table.

Every workload draws its columns and its whole op stream from the
seed before anything is timed, builds a warmed database (the timed
set-up), then replays the stream with one client thread and explicit
``QueryOptions(workers=1)``.  ``perfbench/README.md`` gives the
reason for each workload's shape.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.stats import (
    Fingerprint,
    Spec,
    answer,
    due_times,
    expected_answer,
    permute_columns,
    scan,
    sleep_until,
)
from perfbench.tracer import Tracer
from repro import Database
from repro.database import WAL_NAME
from repro.boolean.reduction import clear_reduction_cache
from repro.kernels import clear_compile_cache
from repro.query.options import QueryOptions
from repro.query.predicates import Equals, InList, Predicate, Range
from repro.serving import Server
from repro.serving.server import Request

TABLE = "sales"
CARDINALITY = {"product": 1000, "region": 32, "day": 365}
#: Every query runs single-threaded: on a 2-core VM, more threads than
#: cores only added noise.
READ_OPTIONS = QueryOptions(workers=1)
SETUP_REPEATS = 3
WRITE_BATCH_ROWS = 64
#: Batches appended after the read phase of the read-only workloads,
#: so every workload reports ``write_p50_ms`` without mixing writes
#: into its reads.
WRITE_PHASE_BATCHES = 48
WRITE_PHASE_SECONDS = 3.0
#: Ops drawn per run; more than any run is expected to consume.
STREAM_LENGTH = 6000
WRONG_IDS = "wrong row ids"


def shuffled(rng: np.random.Generator, pool: Sequence[int], count: int) -> List[int]:
    """``count`` draws that cycle through ``pool`` in seeded order.

    Stratified in place of i.i.d. draws: every seed sees the same mix
    of sizes, so run-to-run spread comes from the system, not from a
    lucky draw of large IN-lists.
    """
    reps = -(-count // len(pool))
    values = np.tile(np.asarray(pool), reps)
    rng.shuffle(values)
    return [int(v) for v in values[:count]]


def fixed_day_range(i: int, widths: Sequence[int]) -> Tuple:
    """The ``i``-th day range of one fixed, seed-independent sequence.

    Day ranges are not drawn from the seed: reducing a range's day codes
    costs from under 1 ms to over 1 s (Petrick's exact cover blows up on
    some code sets), so drawn ranges made set-up time, p95 and
    throughput a property of the seed.  A fixed sequence puts the same
    reductions in every run.
    """
    width = int(widths[i % len(widths)])
    low = (i * 151) % (CARDINALITY["day"] - width + 1)
    return ("range", "day", low, low + width - 1)


def to_predicate(spec: Spec) -> Predicate:
    """The engine predicate for a generated conjunction."""
    leaves: List[Predicate] = []
    for leaf in spec:
        if leaf[0] == "in":
            leaves.append(InList(leaf[1], leaf[2]))
        elif leaf[0] == "eq":
            leaves.append(Equals(leaf[1], leaf[2]))
        else:
            leaves.append(Range(leaf[1], leaf[2], leaf[3]))
    predicate = leaves[0]
    for leaf in leaves[1:]:
        predicate = predicate & leaf
    return predicate


@dataclass(slots=True)
class ReadRecord:
    spec: int
    latency: float
    universe: int = 0
    fp: Optional[Fingerprint] = None
    error: Optional[str] = None
    vectors: int = 0
    #: Rows acknowledged before the read was issued / after it ended;
    #: the answer's universe must lie between them.
    rows_min: int = 0
    rows_max: int = 0
    submitted_at: float = 0.0


@dataclass(slots=True)
class WriteRecord:
    latency: float
    error: Optional[str] = None


@dataclass
class Phase:
    """What one timed (or traced) stretch of a run observed."""

    seconds: float = 0.0
    reads: List[ReadRecord] = field(default_factory=list)
    writes: List[WriteRecord] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """Shared data generation, set-up timing, oracle and write phase."""

    name = ""
    rows = 0
    partitions: Optional[int] = None
    open_loop = False

    def __init__(self, seed: int, home: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.home = home
        self.columns = {
            column: self.rng.integers(0, m, self.rows).astype(np.int32)
            for column, m in CARDINALITY.items()
        }
        self.lists = {c: v.tolist() for c, v in self.columns.items()}
        self.specs: List[Spec] = []
        self.stream: List[int] = []
        self.make_stream()
        self.predicates = [to_predicate(spec) for spec in self.specs]
        self.batches = [self.make_batch() for _ in range(self.write_batches())]
        self.rows_now = self.rows
        #: Rows acknowledged by appends, in row-id order.
        self.appended: List[Dict[str, int]] = []
        self.oracle_columns: Dict[str, np.ndarray] = {}
        self.db: Optional[Database] = None
        self.db_home = ""
        self.setup_times: List[float] = []

    # -- generation ----------------------------------------------------
    def make_stream(self) -> None:
        raise NotImplementedError

    def write_batches(self) -> int:
        return WRITE_PHASE_BATCHES

    def make_batch(self) -> List[Dict[str, int]]:
        values = {
            column: self.rng.integers(0, m, WRITE_BATCH_ROWS)
            for column, m in CARDINALITY.items()
        }
        return [
            {column: int(values[column][i]) for column in CARDINALITY}
            for i in range(WRITE_BATCH_ROWS)
        ]

    def in_leaf(self, column: str, size: int) -> Tuple:
        values = self.rng.choice(CARDINALITY[column], size, replace=False)
        return ("in", column, tuple(sorted(int(v) for v in values)))

    # -- set-up --------------------------------------------------------
    def build(self, home: str) -> Database:
        """Columns to a warmed, queryable database (timed as set-up)."""
        raise NotImplementedError

    def warm(self, db: Database) -> None:
        """Untimed-read warm-up: every pooled predicate once."""
        for predicate in self.predicates[: self.warm_count()]:
            db.query(TABLE, predicate, READ_OPTIONS).row_ids()

    def warm_count(self) -> int:
        return len(self.predicates)

    def setup(self, repeats: int = SETUP_REPEATS) -> Database:
        """Build ``repeats`` times from cold process caches; keep the
        last database.  Each build is timed on its own."""
        for attempt in range(repeats):
            self.close()
            gc.collect()
            self.db_home = os.path.join(self.home, f"db{attempt}")
            clear_reduction_cache()
            clear_compile_cache()
            start = time.perf_counter()
            self.db = self.build(self.db_home)
            self.setup_times.append(time.perf_counter() - start)
        assert self.db is not None
        self.oracle_columns = self.columns
        info = self.db.reorder_metadata(TABLE)
        if info is not None:
            table = self.db.table(TABLE)
            offsets = [p.offset for p in getattr(table, "partitions", [])] or [0]
            self.oracle_columns = permute_columns(
                self.columns, info["permutations"], offsets
            )
        return self.db

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def wal_path(self) -> Optional[str]:
        """The write-ahead log appends go to (``None``: not logged)."""
        return None

    def index_bytes_per_row(self) -> float:
        """Plane bytes over every index and partition per live row."""
        assert self.db is not None
        total = 0
        for index in self.db.catalog.all_indexes():
            for child in getattr(index, "children", None) or [index]:
                total += child.planes().nbytes()
        return total / self.db.table(TABLE).live_count()

    # -- the timed phase -----------------------------------------------
    def run(self, seconds: float, position: int,
            tracer: Optional[Tracer] = None) -> Tuple[Phase, int]:
        """Replay the stream from ``position`` for ``seconds``, closed
        loop; returns the phase and the next stream position."""
        assert self.db is not None
        db = self.db
        phase = Phase()
        deadline = time.perf_counter() + seconds
        begin = time.perf_counter()
        while position < len(self.stream) and time.perf_counter() < deadline:
            spec = self.stream[position]
            position += 1
            if tracer is not None:
                tracer.set_read(position)
            predicate = self.predicates[spec]
            start = time.perf_counter()
            try:
                result = db.query(TABLE, predicate, READ_OPTIONS)
                ids = result.row_ids()
            except Exception as exc:  # every failure is counted
                phase.reads.append(ReadRecord(
                    spec, time.perf_counter() - start, error=_error(exc)
                ))
                continue
            latency = time.perf_counter() - start
            phase.reads.append(ReadRecord(
                spec, latency, len(result.vector),
                answer(len(ids), result.vector.words),
                vectors=result.cost.vectors_accessed,
                rows_min=self.rows_now, rows_max=self.rows_now,
            ))
        phase.seconds = time.perf_counter() - begin
        if tracer is not None:
            tracer.set_read(None)
        return phase, position

    def write_phase(self, tracer: Optional[Tracer] = None) -> Phase:
        """Appends after the reads (read-only workloads), spread evenly
        over ``WRITE_PHASE_SECONDS`` so that their median samples more
        than a moment of the host's speed."""
        assert self.db is not None
        phase = Phase()
        begin = time.monotonic()
        rate = len(self.batches) / WRITE_PHASE_SECONDS
        schedule = due_times(begin, rate, len(self.batches))
        for number, (due, batch) in enumerate(zip(schedule, self.batches)):
            sleep_until(due)
            if tracer is not None:
                tracer.set_read(-(number + 1))
            phase.writes.append(self.append(batch, due))
        phase.seconds = time.monotonic() - begin
        if tracer is not None:
            tracer.set_read(None)
        return phase

    def append(self, batch: List[Dict[str, int]], due: float) -> WriteRecord:
        """Append one batch, timed from ``due`` (``time.monotonic``);
        correct when the acknowledged row ids are the next
        ``len(batch)`` ids."""
        assert self.db is not None
        expected = list(range(self.rows_now, self.rows_now + len(batch)))
        try:
            ids = self.db.append_rows(TABLE, batch)
        except Exception as exc:  # every failure is counted
            return WriteRecord(time.monotonic() - due, _error(exc))
        latency = time.monotonic() - due
        self.rows_now += len(batch)
        self.appended.extend(batch)
        return WriteRecord(latency, None if ids == expected else WRONG_IDS)

    # -- oracle --------------------------------------------------------
    def verify(self, phases: Sequence[Phase]) -> Dict[str, Any]:
        """Check every read against numpy over the benchmark's own
        copy of the columns; time each distinct predicate's scan."""
        columns = {
            column: np.concatenate([
                values,
                np.asarray([row[column] for row in self.appended], dtype=np.int32),
            ])
            for column, values in self.oracle_columns.items()
        }
        matches: Dict[int, np.ndarray] = {}
        expected: Dict[Tuple[int, int], Fingerprint] = {}
        scan_seconds: Dict[int, float] = {}
        wrong = torn = raised = 0
        for phase in phases:
            for read in phase.reads:
                if read.error is not None:
                    raised += 1
                    continue
                if read.spec not in matches:
                    start = time.perf_counter()
                    ids = scan(columns, self.specs[read.spec], self.rows_now)
                    scan_seconds[read.spec] = time.perf_counter() - start
                    matches[read.spec] = ids
                key = (read.spec, read.universe)
                if key not in expected and read.universe <= self.rows_now:
                    expected[key] = expected_answer(matches[read.spec], read.universe)
                if not read.rows_min <= read.universe <= read.rows_max:
                    read.error = (f"universe {read.universe} outside "
                                  f"[{read.rows_min}, {read.rows_max}]")
                    wrong += 1
                elif expected[key] != read.fp:
                    read.error = "wrong rows"
                    wrong += 1
                elif (read.universe - self.rows) % WRITE_BATCH_ROWS:
                    # Right rows for a universe that splits an append
                    # batch: the read saw half of a batch.
                    read.error = "torn read: universe splits an append batch"
                    torn += 1
            for write in phase.writes:
                if write.error == WRONG_IDS:
                    wrong += 1
                elif write.error is not None:
                    raised += 1
        return {"wrong": wrong, "torn": torn, "raised": raised,
                "scan_seconds": scan_seconds}


class AdhocCold(Workload):
    """Fresh, never-repeated conjunctions on a 16-partition table."""

    name = "adhoc_cold"
    rows = 1 << 20
    partitions = 16
    WARM_READS = 16

    def make_stream(self) -> None:
        count = STREAM_LENGTH + self.WARM_READS
        sizes = shuffled(self.rng, range(2, 65), count)
        regions = shuffled(self.rng, [0, 0, 2, 4], count)
        seen = set()
        while len(self.specs) < count:
            i = len(self.specs)
            spec: Spec = (
                self.in_leaf("product", sizes[i]),
                fixed_day_range(i, range(7, 92, 4)),
            )
            if regions[i]:
                spec += (self.in_leaf("region", regions[i]),)
            if spec not in seen:
                seen.add(spec)
                self.specs.append(spec)
        # The first specs warm the engine; the stream never repeats them.
        self.stream = list(range(self.WARM_READS, count))

    def warm_count(self) -> int:
        return self.WARM_READS

    def build(self, home: str) -> Database:
        db = Database()
        db.create_table(TABLE, self.lists, partitions=self.partitions)
        for column in CARDINALITY:
            db.create_index(TABLE, column)
        self.warm(db)
        return db


class ArchiveBudget(Workload):
    """A 2^21-row table whose planes exceed the memory budget 4x."""

    name = "archive_budget"
    rows = 1 << 21
    partitions = 32
    POOL = 16
    BUDGET_SHARE = 0.25
    INDEXED = ("product", "day")

    def make_stream(self) -> None:
        self.specs = [
            (self.in_leaf("product", 8), fixed_day_range(i, range(7, 62, 4)))
            for i in range(self.POOL)
        ]
        self.stream = shuffled(self.rng, range(self.POOL), STREAM_LENGTH)

    def packed_plane_bytes(self) -> int:
        """Bytes of every packed plane matrix (planes plus negations):
        ``2 * ceil(log2(m + 1))`` rows of ``nwords`` words per
        partition and index."""
        bounds = np.linspace(0, self.rows, self.partitions + 1)
        total = 0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            nwords = -(-int(hi - lo) // 64)
            for column in self.INDEXED:
                width = math.ceil(math.log2(CARDINALITY[column] + 1))
                total += 2 * width * nwords * 8
        return total

    def build(self, home: str) -> Database:
        budget = int(self.BUDGET_SHARE * self.packed_plane_bytes())
        db = Database(memory_budget_bytes=budget)
        db.create_table(TABLE, self.lists, partitions=self.partitions)
        for column in self.INDEXED:
            db.create_index(TABLE, column)
        self.warm(db)
        return db


class ArchiveCompressed(Workload):
    """Lex-reordered partitions with a compressed ``day`` index."""

    name = "archive_compressed"
    rows = 1 << 17
    partitions = 2
    POOL = 16

    def make_stream(self) -> None:
        self.specs = [
            (fixed_day_range(i, range(7, 62, 4)), self.in_leaf("region", 4))
            for i in range(self.POOL)
        ]
        self.stream = shuffled(self.rng, range(self.POOL), STREAM_LENGTH)

    def build(self, home: str) -> Database:
        db = Database()
        db.create_table(TABLE, self.lists, partitions=self.partitions)
        db.reorder(TABLE, ["day", "region"], ordering="lex")
        db.create_index(TABLE, "day", plane_format="compressed")
        db.create_index(TABLE, "region")
        self.warm(db)
        return db


@contextmanager
def completion_stamps(stamps: Dict[int, float]) -> Iterator[None]:
    """Stamp when the server answers each request (the open-loop
    latency ends there, not when the client gets round to it)."""
    fulfil, fail = Request.fulfil, Request.fail

    def stamped_fulfil(self: Request, result: Any) -> None:
        stamps[id(self)] = time.monotonic()
        fulfil(self, result)

    def stamped_fail(self: Request, error: BaseException) -> None:
        stamps[id(self)] = time.monotonic()
        fail(self, error)

    Request.fulfil, Request.fail = stamped_fulfil, stamped_fail
    try:
        yield
    finally:
        Request.fulfil, Request.fail = fulfil, fail


class DashboardMixed(Workload):
    """Open-loop Zipf reads plus WAL-logged appends, served by one
    worker with the result cache on."""

    name = "dashboard_mixed"
    rows = 1 << 20
    open_loop = True
    RATE = 100.0
    WRITE_SHARE = 0.1
    POOL = 48
    ZIPF = 1.1
    #: Pool ranks cycle through these shapes, and a rank fixes its
    #: IN-list size and range width, so every seed has the same mix of
    #: costs at every popularity; the seed draws only the values.
    SHAPES = ("eq", "conj", "in", "conj")

    def __init__(self, seed: int, home: str) -> None:
        super().__init__(seed, home)
        self.server: Optional[Server] = None
        self.stamps: Dict[int, float] = {}
        self.next_batch = 0

    def make_stream(self) -> None:
        regions = self.rng.permutation(CARDINALITY["region"])
        for rank in range(self.POOL):
            shape = self.SHAPES[rank % len(self.SHAPES)]
            if shape == "eq":
                self.specs.append((("eq", "region", int(regions[rank // 4])),))
            elif shape == "in":
                self.specs.append((self.in_leaf("region", 2 + rank % 3),))
            else:
                self.specs.append((self.in_leaf("product", 2 + rank % 7),
                                   fixed_day_range(rank, range(7, 31))))
        weights = 1.0 / np.arange(1, self.POOL + 1) ** self.ZIPF
        reads = self.rng.choice(self.POOL, STREAM_LENGTH, p=weights / weights.sum())
        # One write at a seeded place in every block of ``every`` ops:
        # evenly spread invalidations keep the cache hit ratio, and with
        # it the median read, the same from seed to seed.
        every = round(1 / self.WRITE_SHARE)
        slots = self.rng.integers(0, every, -(-STREAM_LENGTH // every))
        # -1 marks a write; reads carry their pool index.
        self.stream = [
            -1 if i % every == slots[i // every] else int(read)
            for i, read in enumerate(reads)
        ]

    def write_batches(self) -> int:
        return sum(1 for op in self.stream if op < 0)

    def build(self, home: str) -> Database:
        db = Database()
        db.create_table(TABLE, self.lists)
        for column in CARDINALITY:
            db.create_index(TABLE, column)
        db.save(home)
        for predicate in self.predicates:
            db.query(TABLE, predicate, READ_OPTIONS.replace(use_cache=True))
        return db

    def setup(self, repeats: int = SETUP_REPEATS) -> Database:
        db = super().setup(repeats)
        self.server = Server(database=db, workers=1, use_cache=True)
        return db

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        super().close()

    def wal_path(self) -> Optional[str]:
        return os.path.join(self.db_home, WAL_NAME)

    def run(self, seconds, position, tracer=None):
        """Issue ops on schedule for ``seconds``; latency runs from
        each op's due time to the server's answer."""
        assert self.db is not None and self.server is not None
        phase = Phase()
        pending: List[Tuple[ReadRecord, Request, float]] = []
        schedule = due_times(time.monotonic() + 0.005, self.RATE,
                             round(seconds * self.RATE))
        with completion_stamps(self.stamps):
            for due, op in zip(schedule, self.stream[position:]):
                self._drain(pending, phase, until=due - 0.001)
                phase.lateness.append(sleep_until(due))
                position += 1
                if op < 0:
                    if tracer is not None:
                        tracer.set_read(-position)
                    batch = self.batches[self.next_batch]
                    self.next_batch += 1
                    phase.writes.append(self.append(batch, due))
                    if tracer is not None:
                        tracer.set_read(None)
                    continue
                read = ReadRecord(op, 0.0, rows_min=self.rows_now)
                try:
                    request = self.server.submit(
                        TABLE, self.predicates[op], options=READ_OPTIONS
                    )
                except Exception as exc:  # every failure is counted
                    read.error = _error(exc)
                    phase.reads.append(read)
                    continue
                read.submitted_at = request.submitted_at
                pending.append((read, request, due))
            self._drain(pending, phase, until=None)
        # Until the last answer: a server that falls behind the schedule
        # completes fewer reads per second than were offered.
        phase.seconds = time.monotonic() - schedule[0]
        return phase, position

    def _drain(self, pending: List[Tuple[ReadRecord, Request, float]],
               phase: Phase, until: Optional[float]) -> None:
        """Check answers in order until ``until`` (``None``: wait for
        every outstanding answer).

        Checking starts only once the server is idle (its newest
        request answered), so the client's own work never competes
        with the worker for the interpreter lock.
        """
        while pending:
            read, request, due = pending[0]
            if until is not None:
                left = until - time.monotonic()
                newest = pending[-1][1]
                if left <= 0:
                    return
                if not newest.done():
                    try:
                        newest.result(timeout=left)
                    except Exception:  # recorded when its turn comes
                        pass
                    continue
            pending.pop(0)
            try:
                result = request.result()
            except Exception as exc:  # every failure is counted
                read.error = _error(exc)
            else:
                read.universe = len(result.vector)
                read.fp = answer(result.count(), result.vector.words)
                read.vectors = result.cost.vectors_accessed
            read.latency = self.stamps.pop(id(request)) - due
            read.rows_max = self.rows_now
            phase.reads.append(read)


WORKLOADS = {
    cls.name: cls
    for cls in (AdhocCold, DashboardMixed, ArchiveBudget, ArchiveCompressed)
}


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
