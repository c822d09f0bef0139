"""Pure-numpy helpers: percentiles, due-time latency, the row oracle.

Nothing here imports the engine, so the tests in ``perfbench/tests``
exercise these without building a database.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A predicate as the benchmark generates it: a conjunction of leaves,
#: each ``("in", column, values)``, ``("eq", column, value)`` or
#: ``("range", column, low, high)`` with both bounds inclusive.
Leaf = Tuple
Spec = Tuple[Leaf, ...]

#: ``(row count, digest of the result bitmap)``.
Fingerprint = Tuple[int, str]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``q``-th percentile (the tail the percentile rests on)."""
    return count - max(1, math.ceil(q / 100.0 * count))


def due_times(start: float, rate: float, count: int) -> List[float]:
    """Open-loop schedule: op ``i`` is due at ``start + i / rate``."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + i / rate for i in range(count)]


def sleep_until(due: float) -> float:
    """Sleep until ``time.monotonic()`` reaches ``due``; returns how
    late the caller woke (0 or more seconds)."""
    now = time.monotonic()
    if now < due:
        time.sleep(due - now)
    return max(0.0, time.monotonic() - due)


def answer(count: int, words: np.ndarray) -> Fingerprint:
    """A read's answer as the oracle compares it: the row count and a
    digest of the result bitmap's words (bit ``j`` of word ``w`` is row
    ``64 * w + j``; bits past the universe are zero)."""
    data = np.ascontiguousarray(words, dtype="<u8").tobytes()
    return (int(count), hashlib.blake2b(data, digest_size=16).hexdigest())


def expected_answer(ids: np.ndarray, rows: int) -> Fingerprint:
    """The :func:`answer` of a correct read over the first ``rows``
    rows, given every matching row id in ascending order."""
    ids = ids[: int(np.searchsorted(ids, rows))]
    mask = np.zeros(-(-rows // 64) * 64, dtype=bool)
    mask[ids] = True
    return answer(ids.size, np.packbits(mask, bitorder="little").view("<u8"))


def scan(columns: Dict[str, np.ndarray], spec: Spec, rows: int) -> np.ndarray:
    """Row ids among the first ``rows`` that satisfy ``spec``:
    ``np.isin`` / range masks ANDed, then ``flatnonzero`` — the
    honest floor a plain numpy column scan sets."""
    mask: Optional[np.ndarray] = None
    for leaf in spec:
        column = columns[leaf[1]][:rows]
        if leaf[0] == "in":
            part = np.isin(column, np.asarray(leaf[2], dtype=column.dtype))
        elif leaf[0] == "eq":
            part = column == leaf[2]
        elif leaf[0] == "range":
            part = (column >= leaf[2]) & (column <= leaf[3])
        else:
            raise ValueError(f"unknown leaf kind {leaf[0]!r}")
        mask = part if mask is None else mask & part
    if mask is None:
        return np.arange(rows)
    return np.flatnonzero(mask)


def permute_columns(
    columns: Dict[str, np.ndarray],
    permutations: Sequence[Sequence[int]],
    offsets: Sequence[int],
) -> Dict[str, np.ndarray]:
    """Apply per-partition row permutations (new local position ->
    old local row id) to the benchmark's copy of the columns, so row
    ids of a reordered table index the copy directly."""
    order = np.arange(len(next(iter(columns.values()))))
    for offset, permutation in zip(offsets, permutations):
        local = np.asarray(permutation, dtype=np.int64)
        order[offset: offset + local.size] = offset + local
    return {name: values[order] for name, values in columns.items()}


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time stolen by the hypervisor between two
    ``/proc/stat`` ``cpu`` lines (fields after the label)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def read_cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty when the
    file is unavailable, e.g. off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return []
    return [int(value) for value in fields[1:]]


def host_probe_ms(repeats: int = 5) -> float:
    """Best time of a fixed pure-Python loop, in ms.

    Steal time misses contention from a busy sibling hyperthread; this
    probe does not.  Taken before and after a timed phase, it tells a
    slow run on a slow host from a slow program.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value
        best = min(best, time.perf_counter() - start)
    return 1e3 * best
