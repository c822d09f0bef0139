"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload adhoc_cold --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (an untraced half and a traced half of ``--seconds``,
so the tracing overhead is measured too).  The last line of standard
output is the result object; the line before it is a health record
(steal time, generator lateness, failures) for explaining a noisy run.
Spans of a traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: End-to-end metric name -> unit, as listed in ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "read_qps": "1/s",
    "write_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "index_bytes_per_row": "B",
    "ok_rate": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def latencies_ms(reads):
    return [1e3 * read.latency for read in reads if read.error is None]


def p50(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: engine sources not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, ROOT]
    from perfbench import layers
    from perfbench.stats import (
        host_probe_ms, percentile, read_cpu_times, samples_beyond, steal_share,
    )
    from perfbench.tracer import Tracer
    from perfbench.workloads import SETUP_REPEATS, TABLE, WORKLOADS, remove_tree

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # WAL, plane and residency files of this run live in one directory
    # inside the checkout, removed when the run ends.
    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS_DIR)
    tempfile.tempdir = run_dir
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            layers.install(tracer)
        db = workload.setup(SETUP_REPEATS)
        if tracer is not None:
            tracer.unwrap_all()
        index_bytes = workload.index_bytes_per_row()

        gc.collect()
        probe_before = host_probe_ms()
        cpu_before = read_cpu_times()
        if tracer is None:
            phase, _ = workload.run(args.seconds, 0)
            phases = [phase]
        else:
            untraced, position = workload.run(args.seconds / 2, 0)
            gc.collect()
            before = layers.counters(db, TABLE)
            wal_before = layers.wal_size(workload.wal_path())
            traced_since = time.monotonic()
            layers.install(tracer)
            phase, _ = workload.run(args.seconds / 2, position, tracer)
            phases = [untraced, phase]
        cpu_after = read_cpu_times()
        probe_after = host_probe_ms()
        if not workload.open_loop:
            phases.append(workload.write_phase(tracer))
        if tracer is not None:
            tracer.unwrap_all()
            after = layers.counters(db, TABLE)
            wal_bytes = layers.wal_size(workload.wal_path()) - wal_before

        checked = workload.verify(phases)
        reads = [read for p in phases for read in p.reads]
        writes = [write for p in phases for write in p.writes]
        attempted = len(reads) + len(writes)
        failed = checked["wrong"] + checked["torn"] + checked["raised"]
        error_rate = failed / max(1, attempted)
        steal = steal_share(cpu_before, cpu_after)
        read_ms = latencies_ms(phase.reads)
        lateness = [1e3 * late for late in phase.lateness]

        health = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "reads": len(reads),
            "writes": len(writes),
            "wrong": checked["wrong"],
            "torn": checked["torn"],
            "raised": checked["raised"],
            "errors": sorted({r.error for r in reads if r.error}
                             | {w.error for w in writes if w.error})[:5],
            "p95_tail_samples": samples_beyond(len(read_ms), 95),
            "steal_pct": round(100 * steal, 3),
            "host_probe_ms": [round(probe_before, 3), round(probe_after, 3)],
            "gen_late_ms_p95": round(percentile(lateness, 95), 3) if lateness else 0.0,
            "gen_late_ms_p99": round(percentile(lateness, 99), 3) if lateness else 0.0,
            "setup_s": [round(t, 4) for t in workload.setup_times],
        }
        if tracer is None:
            values = {
                "setup_s": statistics.median(workload.setup_times),
                "read_p50_ms": p50(read_ms),
                "read_p95_ms": percentile(read_ms, 95) if read_ms else 0.0,
                "read_qps": len(read_ms) / phase.seconds,
                "write_p50_ms": p50([1e3 * w.latency for w in writes if w.error is None]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "index_bytes_per_row": index_bytes,
                "ok_rate": 1.0 - error_rate,
            }
            units = END_TO_END
        else:
            values = layers.layer_metrics(
                tracer=tracer,
                workload=workload,
                traced_since=traced_since,
                reads=phase.reads,
                writes=sum(len(p.writes) for p in phases[1:]),
                before=before,
                after=after,
                setups=SETUP_REPEATS,
                untraced_p50=p50(latencies_ms(untraced.reads)),
                traced_p50=p50(read_ms),
                scan_seconds=checked["scan_seconds"],
                lateness=lateness,
                wal_bytes=wal_bytes,
                error_rate=error_rate,
                steal=steal,
            )
            units = layers.UNITS
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print("health " + json.dumps(health), flush=True)
        result = {
            "correct": checked["wrong"] == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if workload is not None:
            workload.close()
        remove_tree(run_dir)


if __name__ == "__main__":
    sys.exit(main())
