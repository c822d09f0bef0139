"""The workloads end to end on tiny tables: every read and append
checked by the oracle, and a tampered answer caught."""

from __future__ import annotations

import time

import pytest

from perfbench import workloads
from perfbench.workloads import AdhocCold, ArchiveCompressed, DashboardMixed


@pytest.fixture(autouse=True)
def short_write_phase(monkeypatch):
    monkeypatch.setattr(workloads, "WRITE_PHASE_SECONDS", 0.05)


def tiny(cls, **attrs):
    return type("Tiny" + cls.__name__, (cls,), {"rows": 4096, **attrs})


def run_closed(cls, tmp_path):
    workload = tiny(cls, partitions=2)(1, str(tmp_path))
    try:
        workload.setup(repeats=1)
        reads, _ = workload.run(0.3, 0)
        writes = workload.write_phase()
        checked = workload.verify([reads, writes])
    finally:
        workload.close()
    return workload, reads, writes, checked


@pytest.mark.parametrize("cls", [AdhocCold, ArchiveCompressed])
def test_closed_loop_reads_and_appends_pass_the_oracle(cls, tmp_path):
    workload, reads, writes, checked = run_closed(cls, tmp_path)
    assert reads.reads and len(writes.writes) == workloads.WRITE_PHASE_BATCHES
    assert (checked["wrong"], checked["torn"], checked["raised"]) == (0, 0, 0)
    assert workload.rows_now == 4096 + 64 * workloads.WRITE_PHASE_BATCHES
    assert all(read.latency > 0 for read in reads.reads)


def test_oracle_catches_a_wrong_answer(tmp_path):
    workload, reads, writes, _ = run_closed(AdhocCold, tmp_path)
    first = reads.reads[0]
    first.fp = (first.fp[0], "0" * 32)
    checked = workload.verify([reads, writes])
    assert checked["wrong"] == 1 and first.error == "wrong rows"


def test_open_loop_latency_runs_from_the_due_time(tmp_path):
    workload = tiny(DashboardMixed, RATE=200.0)(1, str(tmp_path))
    try:
        workload.setup(repeats=1)
        start = time.monotonic()
        phase, position = workload.run(0.5, 0)
        elapsed = time.monotonic() - start
        checked = workload.verify([phase])
    finally:
        workload.close()
    assert position == 100 == len(phase.lateness)
    assert len(phase.reads) + len(phase.writes) == 100
    assert phase.writes and checked["wrong"] == 0
    # Each latency ends at the server's answer, after the op was due.
    assert all(0 < read.latency < elapsed for read in phase.reads
               if read.error is None)
