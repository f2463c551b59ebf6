"""Runs one workload in its own process and prints its figures as JSON.

``run.py`` starts this with single-threaded BLAS. In ``probe`` mode the
process only sets up (imports, inputs, one warm-up operation with its
checks) and reports when it became ready; ``run`` mode then measures whole
rounds of operations for the given seconds, each followed by the fixed
reference computation and the checks; ``trace`` mode does the same with
spans on and writes one trace file.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import resource
import statistics
import time

import tracer
import workloads

COUNT_SEED = 0
# Another round is started only while this many times the longest round so far
# still fits before ``--until``: the round itself, the counting round after the
# timed ones, and room to spare.
ROUND_RESERVE = 3.0


class Run:
    """Samples of one measured run: per operation its kind, time, reference time and outcome."""

    def __init__(self):
        self.kinds: list[str] = []
        self.op_s: list[float] = []
        self.ref_s: list[float] = []
        self.ok: list[bool] = []
        self.jobs: list = []

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def per_kind_median(self, values) -> float:
        """Median within each operation kind, averaged over kinds (a plain median for one kind).

        Only completed operations count: the time of an operation that raised
        says nothing about the speed of a design.
        """
        by_kind: dict[str, list[float]] = {}
        for kind, value, ok in zip(self.kinds, values, self.ok):
            if ok:
                by_kind.setdefault(kind, []).append(value)
        return statistics.fmean(statistics.median(v) for v in by_kind.values())


def _execute(op, failures):
    try:
        return op.run(), None
    except failures as exc:
        return None, exc


def _finish(op, outcome, error, failures) -> None:
    """Check a completed operation; a failure must be one of the program's typed errors."""
    if error is None:
        op.check(outcome)
    elif not isinstance(error, failures):
        raise error


def measure(wl, seconds: float, traced: bool, rec=None, until: float = math.inf) -> Run:
    """Whole rounds until ``seconds`` have passed: operation, reference, checks.

    At least one round runs. A run also stops early, after a whole round,
    when another one might not end in time before ``until`` (a
    ``time.monotonic()`` instant). In-process operations are traced through
    ``rec``; CLI jobs trace themselves when started in ``trace`` mode.
    """
    run = Run()
    failures = wl.failures
    job_mode = "trace" if traced else "plain"
    deadline = time.perf_counter() + seconds
    index = 0
    longest = 0.0
    while index == 0 or (
        time.perf_counter() < deadline and time.monotonic() + ROUND_RESERVE * longest < until
    ):
        round_start = time.perf_counter()
        for op in wl.round(index, job_mode):
            op_id = len(run.op_s)
            if rec is not None:
                rec.op = op_id
                rec.active = True
                sid = rec.open("bench.op")
            start = time.perf_counter()
            outcome, error = _execute(op, failures)
            elapsed = time.perf_counter() - start
            if rec is not None:
                rec.close(sid)
                rec.active = False
            ref = wl.reference()
            _finish(op, outcome, error, failures)
            run.kinds.append(op.kind)
            run.op_s.append(elapsed)
            run.ref_s.append(ref)
            run.ok.append(error is None)
            if not wl.in_process:
                run.jobs.append(outcome)
        longest = max(longest, time.perf_counter() - round_start)
        index += 1
    return run


def count_linalg(workload: str) -> tuple[float, float]:
    """Exact linalg calls and computed Mflop per operation, over round 0 of ``COUNT_SEED``.

    The inputs are the same on every run, so the counts repeat exactly (the
    calls of a design depend a little on the plant drawn). CLI jobs run
    under the tracing bootstrap, which counts with the same wrappers and
    hands its counts back.
    """
    wl = workloads.make(workload, COUNT_SEED)
    failures = wl.failures
    rec = tracer.Recorder(spans=False)
    if wl.in_process:
        rec.install()
    calls, flops = 0.0, 0.0
    ops = wl.round(0, "trace")
    try:
        for op in ops:
            rec.active = True
            outcome, error = _execute(op, failures)
            rec.active = False
            _finish(op, outcome, error, failures)
            if not wl.in_process:
                calls += outcome.probe["linalg_calls"]
                flops += outcome.probe["linalg_flops"]
    finally:
        rec.uninstall()
        wl.close()
    calls += sum(rec.linalg_calls.values())
    flops += rec.linalg_flops
    return calls / len(ops), flops / 1e6 / len(ops)


def end_to_end(workload: str, wl, run: Run) -> dict:
    calls, mflop = count_linalg(workload)
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(job.rss_kb for job in run.jobs)
    ratios = [op / ref for op, ref in zip(run.op_s, run.ref_s)]
    return {
        "op_median_ref": (run.per_kind_median(ratios), "ref"),
        "linalg_calls_per_op": (calls, "count"),
        "linalg_mflop_per_op": (mflop, "Mflop"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def wall_clock(run: Run) -> dict:
    """Raw wall-clock figures of a run and its operations.

    They are written next to the result rather than reported: on a shared
    machine they drift by more than a tenth between sets of runs (README).
    """
    return {
        "op_median_ms": run.per_kind_median(run.op_s) * 1e3,
        "throughput_ops_s": len(run.op_s) / sum(run.op_s),
        "reference_median_ms": statistics.median(run.ref_s) * 1e3,
        "ops": [{"kind": k, "op_s": o, "ref_s": r} for k, o, r in zip(run.kinds, run.op_s, run.ref_s)],
    }


def per_layer(wl, run: Run, rec, trace_path) -> dict:
    """Per-layer metrics of a traced run; writes the trace file.

    CLI jobs hand back their spans; they are merged here, each job under a
    ``bench.op`` root span covering its process's wall time.
    """
    if not wl.in_process:
        rec = tracer.Recorder(spans=True)
        for op_id, job in enumerate(run.jobs):
            rec.absorb(job.probe["spans"], op_id, job.started, job.started + job.wall_s)
    metrics = tracer.summarise(rec, len(run.op_s))
    library_ms = metrics.pop("library_ms")
    if wl.in_process:
        metrics.update({"cli.import_ms": 0.0, "cli.self_ms": 0.0, "cli.artifact_kb": 0.0})
    else:
        metrics["cli.import_ms"] = statistics.fmean(job.probe["import_ms"] for job in run.jobs)
        metrics["cli.self_ms"] = statistics.fmean(job.wall_s for job in run.jobs) * 1e3 - library_ms
        metrics["cli.artifact_kb"] = statistics.fmean(job.artifact_kb for job in run.jobs)
    metrics["machine.reference_ms"] = statistics.median(run.ref_s) * 1e3
    with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
        json.dump({"per_layer": metrics, "wall_clock": wall_clock(run), "spans": rec.columns()}, fh)
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_kb"):
        return "KiB"
    if name.endswith(("cond_v", "gain_norm")):
        return "1"
    return "count"


def _measure(args, wl, ready: float) -> dict:
    rec = None
    if args.mode == "trace" and wl.in_process:
        rec = tracer.Recorder(spans=True)
        rec.install()
    run = measure(wl, args.seconds, args.mode == "trace", rec, args.until)
    stem = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if args.mode == "trace":
        metrics = per_layer(wl, run, rec, workloads.OUT / f"trace-{stem}.json.gz")
    else:
        metrics = end_to_end(args.workload, wl, run)
        tracer.dump(workloads.OUT / f"run-{stem}.json", wall_clock(run))
    return {"ready": ready, "attempted": len(run.op_s), "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--until", type=float, default=math.inf, help="time.monotonic() by which to stop")
    args = parser.parse_args(argv)

    workloads.OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed)
    try:
        warm = wl.round(0, "plain")[0]
        outcome, error = _execute(warm, wl.failures)
        _finish(warm, outcome, error, wl.failures)
        ready = time.monotonic()
        result = {"ready": ready} if args.mode == "probe" else _measure(args, wl, ready)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
