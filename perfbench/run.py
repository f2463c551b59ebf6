"""Closed-loop benchmark of monotrack: one client, one operation at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload demo-design --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload wide-outputs --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A wrong program
output stops the run with a nonzero exit and no result. ``--self-check``
runs one round of every workload, untraced and traced, with every check on.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("demo-design", "wide-outputs", "generated-ladder", "cli-jobs")
END_TO_END = (
    "setup_s",
    "op_median_ref",
    "linalg_calls_per_op",
    "linalg_mflop_per_op",
    "peak_rss_mb",
)
PER_LAYER = (
    "sysmodel.invariant_zeros.calls",
    "sysmodel.normal_rank.calls",
    "sysmodel.audit_assumptions.calls",
    "sysmodel.self_ms",
    "solvability.rank_tests",
    "solvability.self_ms",
    "subspaces.vstar_g.calls",
    "subspaces.rstar_at.calls",
    "subspaces.rstar.calls",
    "subspaces.self_ms",
    "synthesis.retries",
    "synthesis.cond_v",
    "synthesis.gain_norm",
    "synthesis.self_ms",
    "simverify.simulate.calls",
    "simverify.self_ms",
    "ensemble.self_ms",
    "cli.import_ms",
    "cli.self_ms",
    "cli.artifact_kb",
    "numkernel.rank_of.calls",
    "numkernel.nullspace.calls",
    "numkernel.min_norm_solve.calls",
    "numkernel.self_ms",
    "linalg.svd.calls",
    "linalg.eig.calls",
    "linalg.solve.calls",
    "linalg.lstsq.calls",
    "linalg.expm.calls",
    "linalg.self_ms",
    "machine.reference_ms",
)
# Set-up is measured in this many processes per run and reported as the median.
SETUP_PROCESSES = 5
# Every run ends well within the 180 s a run may take.
RUN_BUDGET_S = 170.0
# The measuring worker stops starting rounds so that it ends this long before
# the budget, and set-up processes are only launched in this share of it: on a
# machine slowed by other load, every process start can take many times as long.
WORKER_MARGIN_S = 10.0
SETUP_SHARE = 0.3


class WorkerFailed(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    """Single-threaded BLAS (fixed before numpy is imported) and the checkout's sources."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(root: Path, args: list[str], deadline: float) -> tuple[dict, float]:
    """Run ``worker.py`` to its end; returns its JSON result and the monotonic launch time."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root,
        env=worker_env(root),
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        # The worker's own job processes share its session; end them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), launched


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool, setup_processes: int) -> dict:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # time.monotonic() is one clock for every process of the machine.
    until = ["--until", repr(deadline - WORKER_MARGIN_S)]
    if trace:
        payload, _ = run_worker(root, [*common, *until, "--mode", "trace"], deadline)
        return {"correct": True, "attempted": payload["attempted"], "failed": payload["failed"],
                "metrics": payload["metrics"]}
    setups = []
    for _ in range(setup_processes - 1):
        if time.monotonic() - start > SETUP_SHARE * RUN_BUDGET_S:
            break
        payload, launched = run_worker(root, [*common, "--mode", "probe"], deadline)
        setups.append(payload["ready"] - launched)
    payload, launched = run_worker(root, [*common, *until, "--mode", "run"], deadline)
    setups.append(payload["ready"] - launched)
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **payload["metrics"]}
    return {"correct": True, "attempted": payload["attempted"], "failed": payload["failed"], "metrics": metrics}


def self_check(root: Path) -> int:
    """One round of every workload, untraced and traced, with every check on."""
    for workload in WORKLOADS:
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            result = measure(root, workload, 0, 0.0, trace, setup_processes=1)
            missing = set(names) ^ set(result["metrics"])
            if missing:
                print(f"{workload}: metrics differ from the declared set: {sorted(missing)}", file=sys.stderr)
                return 1
            print(json.dumps({"workload": workload, "trace": int(trace), **result}))
    print(json.dumps({"self_check": "ok"}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "monotrack" / "__init__.py").is_file():
        print("perfbench: run from the root of a monotrack checkout (src/monotrack is missing)", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(root)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), SETUP_PROCESSES)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
