"""Run one workload in this interpreter and print its result as JSON.

Started by ``run.py`` in a fresh interpreter per workload, so the peak
RSS and the garbage collector's state belong to that workload alone.
Prints exactly one line on stdout: a JSON object with the metrics, the
operation counts, every failed check and the host facts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import warnings
from pathlib import Path

import layers
from tracer import CLOCK, Tracer
from workloads import MIB, WORKLOADS

from repro.mapreduce.backend import usable_cores
from repro.mapreduce.counters import perf_stats

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-ups per untraced round; set-up is short, so it is sampled more
#: often than the operations.
SETUPS_PER_ROUND = 2

#: Rounds a run makes at least, however long they take.
MIN_ROUNDS = 2

#: Jobs the pooled workload replays on the serial backend to prove the
#: two give identical simulated seconds and Counters.
SERIAL_REPLAY_JOBS = 2


class Round:
    """Timings and checks of one round."""

    def __init__(self, setup_s, op_times, check, perf_delta, caught, retained_per_job):
        self.setup_s = setup_s
        self.op_times = op_times
        self.wall = sum(op_times)
        self.check = check
        self.perf_delta = perf_delta
        self.warnings = caught
        self.retained_per_job = retained_per_job


def census() -> int:
    """Live objects after a full collection."""
    gc.collect()
    return len(gc.get_objects())


def timed_setup(workload, tracer: Tracer | None = None) -> tuple[object, float, dict]:
    """Set up once: (state, seconds, tracer tallies).

    With a tracer, the layer wrappers are installed after any pool has
    forked its workers (so they run untraced) but before the cluster is
    built (daemons bind their callbacks then).
    """
    tallies: dict = {}
    start = CLOCK()
    prestarted = workload.prestart()
    seconds = CLOCK() - start
    if tracer is not None:
        tallies = layers.install(tracer)
    start = CLOCK()
    state = workload.setup(prestarted)
    return state, seconds + CLOCK() - start, tallies


def run_round(workload, tracer: Tracer | None = None) -> tuple[Round, dict]:
    """Set up, run every operation back to back, check, tear down.

    An untraced round sets up SETUPS_PER_ROUND times (all timed) and
    keeps the last; a traced round drops the timings taken during
    set-up, and the wrappers come off before the checks.
    """
    gc.collect()
    setups = 1 if tracer is not None else SETUPS_PER_ROUND
    setup_s = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(setups - 1):
            state, seconds, _ = timed_setup(workload)
            setup_s.append(seconds)
            workload.teardown(state)
        state, seconds, tallies = timed_setup(workload, tracer)
        setup_s.append(seconds)
    objects_before = census() if tracer is not None else 0
    if tracer is not None:
        tracer.reset()
    perf = perf_stats()
    perf_before = perf.snapshot()
    op_times: list[float] = []
    results = []
    try:
        with warnings.catch_warnings(record=True) as running:
            warnings.simplefilter("always")
            try:
                for operation in workload.operations(state):
                    t0 = CLOCK()
                    result = operation()
                    op_times.append(CLOCK() - t0)
                    results.append(result)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        perf_delta = perf.delta_since(perf_before)
        objects_after = census() if tracer is not None else 0
        check = workload.check(state, results)
    finally:
        workload.teardown(state)
    growth = (objects_after - objects_before) / max(1, check.jobs)
    messages = [f"{w.category.__name__}: {w.message}" for w in [*caught, *running]]
    return Round(setup_s, op_times, check, perf_delta, messages, growth), tallies


def round_failures(workload, rounds: list[Round]) -> list[tuple]:
    """Failed checks: per-operation output checks, warnings, digests
    that do not repeat across rounds, and the pooled-transport proof."""
    failures = []
    reference = rounds[0].check.digests
    for number, rnd in enumerate(rounds):
        failures += rnd.check.failures
        failures += [(None, f"round {number}: {message}") for message in rnd.warnings]
        for index, (got, want) in enumerate(zip(rnd.check.digests, reference)):
            if got != want:
                failures.append((index, f"round {number}: digest {got} != round 0 {want}"))
        if len(rnd.check.digests) != len(reference):
            failures.append((None, f"round {number}: operation count differs from round 0"))
        if workload.pooled:
            if not rnd.perf_delta.get("blobs_encoded") or not rnd.perf_delta.get("bytes_framed"):
                failures.append((None, f"round {number}: no framed blobs crossed the pool"))
    return failures


def end_to_end(rounds: list[Round]) -> tuple[dict, dict]:
    op_times = [t for rnd in rounds for t in rnd.op_times]
    tail, percentile, samples = layers.tail(op_times)
    metrics = {
        "setup_s": (statistics.median(t for r in rounds for t in r.setup_s), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_tail_s": (tail, "s"),
        "input_mb_per_s": (
            statistics.median(r.check.input_bytes / MIB / r.wall for r in rounds),
            "MiB/s",
        ),
        "wall_s_per_sim_hour": (
            statistics.median(r.wall / (r.check.sim_seconds / 3600.0) for r in rounds),
            "s/h",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    info = {
        "rounds": len(rounds),
        "operations": len(op_times),
        "op_tail_percentile": percentile,
        "op_samples": samples,
        "jobs_per_round": rounds[0].check.jobs,
        "sim_seconds_per_round": rounds[0].check.sim_seconds,
        "round_wall_s": [r.wall for r in rounds],
        "round_setup_s": [r.setup_s for r in rounds],
    }
    return metrics, info


def traced(workload, args) -> tuple[dict, dict, list[Round]]:
    """One untraced round, then the same round traced; the digests must
    match and the wall-time difference is the tracing overhead."""
    plain, _ = run_round(workload)
    tracer = Tracer()
    traced_round, tallies = run_round(workload, tracer)
    tallies["retained_objects_per_job"] = traced_round.retained_per_job
    tallies["inline_fallbacks"] = sum(
        "fell back to inline" in message for message in traced_round.warnings
    )
    metrics = layers.derive(tracer, tallies, traced_round.wall, traced_round.perf_delta)
    metrics["trace.untraced_wall_s"] = (plain.wall, "s")
    metrics["trace.overhead_s"] = (traced_round.wall - plain.wall, "s")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    trace_path = OUT_DIR / f"{stem}.trace.json"
    tracer.write_chrome_trace(
        trace_path, {"workload": workload.name, "seed": args.seed}
    )
    info = {
        "trace_file": str(trace_path.relative_to(Path.cwd())),
        "layer_self_s": tracer.layer_self_seconds(),
        "spans": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
    }
    return metrics, info, [plain, traced_round]


def timed_rounds(workload, seconds: float) -> list[Round]:
    """Rounds until the next one would end past ``seconds`` (judged by
    the last round's length), and at least MIN_ROUNDS."""
    start = CLOCK()
    rounds = []
    while True:
        round_start = CLOCK()
        rounds.append(run_round(workload)[0])
        now = CLOCK()
        if len(rounds) >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, info, rounds = traced(workload, args)
    else:
        rounds = timed_rounds(workload, args.seconds)
        metrics, info = end_to_end(rounds)
    failures = round_failures(workload, rounds)
    if workload.pooled:
        replay = workload.replay_digests(SERIAL_REPLAY_JOBS, "serial")
        for index, (pooled, serial) in enumerate(zip(rounds[0].check.digests, replay)):
            if pooled != serial:
                failures.append((index, f"pooled digest {pooled} != serial {serial}"))
    attempted = sum(len(rnd.op_times) for rnd in rounds)
    failed_ops = {index for index, _ in failures if index is not None}
    failed = min(attempted, len(failed_ops) + sum(index is None for index, _ in failures))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failures": [message for _, message in failures],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": {
            **info,
            "host_cores": usable_cores(),
            "python": platform.python_version(),
            "pid": os.getpid(),
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
