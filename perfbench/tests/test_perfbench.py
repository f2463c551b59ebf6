"""Tests of the benchmark itself: each correctness check rejects a wrong result,
the wrappers see calls made through every module that binds a function, and
the short self-check runs every workload with all checks on.

Run from the root of the repository: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

DEMO_MODES = {0: -1.0, 1: -2.0, 2: -1.0}


@pytest.fixture(scope="module")
def demo():
    payload = json.loads((ROOT / "src" / "monotrack" / "fixtures" / "demo_biproper.json").read_text())
    A, B, C, D = (np.asarray(payload[k], dtype=float) for k in "ABCD")
    r = np.array([2.0, 2.0, 2.0])
    sol, *_ = np.linalg.lstsq(np.block([[A, B], [C, D]]), np.concatenate([np.zeros(5), r]), rcond=None)
    return A, B, C, D, sol[:5], sol[5:], r


def test_design_check_accepts_the_exact_gain(demo):
    A, B, C, D, x_ss, u_ss, r = demo
    checks.check_design(A, B, C, D, checks.DEMO_GAIN, x_ss, u_ss, r, DEMO_MODES)
    checks.check_simulation(A, B, C, D, checks.DEMO_GAIN, x_ss, [np.full(5, 0.3), np.arange(5.0) - 2.0], DEMO_MODES)


def test_design_check_rejects_a_perturbed_gain(demo):
    A, B, C, D, x_ss, u_ss, r = demo
    F = checks.DEMO_GAIN.copy()
    F[1, 2] += 1e-6 * np.linalg.norm(F)
    with pytest.raises(checks.CheckFailed, match="left eigenvector"):
        checks.check_design(A, B, C, D, F, x_ss, u_ss, r, DEMO_MODES)


def test_design_check_rejects_a_wrong_steady_state(demo):
    A, B, C, D, x_ss, u_ss, r = demo
    with pytest.raises(checks.CheckFailed, match="steady state"):
        checks.check_design(A, B, C, D, checks.DEMO_GAIN, x_ss, u_ss, r + 1e-3, DEMO_MODES)


def test_design_check_rejects_a_nonvanishing_instantaneous_row(demo):
    A, B, C, D, x_ss, u_ss, r = demo
    modes = {**DEMO_MODES, 1: "instantaneous"}
    with pytest.raises(checks.CheckFailed, match="instantaneously"):
        checks.check_design(A, B, C, D, checks.DEMO_GAIN, x_ss, u_ss, r, modes)


def _silent_start(A, B, C, D, F, x_ss, modes):
    """An initial state whose assigned output error starts at zero but leaves it under a wrong gain.

    It takes the output j whose row of C+DF is furthest from a left
    eigenvector, and the residual direction made orthogonal to that row: a
    correct gain keeps e_j at zero from there, a wrong one moves it.
    """
    closed, out = A + B @ F, C + D @ F
    residuals = {j: out[j] @ closed - lam * out[j] for j, lam in modes.items()}
    j = max(residuals, key=lambda k: np.linalg.norm(residuals[k]))
    row, xi = out[j], residuals[j]
    xi = xi - (xi @ row) / (row @ row) * row
    return x_ss + xi / np.linalg.norm(xi)


def test_simulation_check_rejects_a_perturbed_gain(demo):
    A, B, C, D, x_ss, u_ss, r = demo
    exact = _silent_start(A, B, C, D, checks.DEMO_GAIN, x_ss, DEMO_MODES)
    checks.check_simulation(A, B, C, D, checks.DEMO_GAIN, x_ss, [exact], DEMO_MODES)
    # Its noise level is a worst-case bound, so it needs a coarser error than check_design (1e-6).
    F = checks.DEMO_GAIN.copy()
    F[1, 2] += 1e-4 * np.linalg.norm(F)
    x0 = _silent_start(A, B, C, D, F, x_ss, DEMO_MODES)
    with pytest.raises(checks.CheckFailed, match="grows"):
        checks.check_simulation(A, B, C, D, F, x_ss, [x0], DEMO_MODES)


def test_monotone_check_rejects_a_sign_change():
    t = np.linspace(0.0, 8.0, 120)
    checks.check_monotone(np.vstack([np.exp(-t), -2.0 * np.exp(-2.0 * t)]))
    with pytest.raises(checks.CheckFailed, match="changes sign"):
        checks.check_monotone(np.vstack([np.exp(-t), np.exp(-t) * np.cos(2.0 * t)]))


def test_monotone_check_rejects_growth():
    t = np.linspace(0.0, 8.0, 120)
    with pytest.raises(checks.CheckFailed, match="grows"):
        checks.check_monotone(2.0 * np.exp(-t) - np.exp(-3.0 * t))


def test_zero_check_rejects_a_wrong_zero(demo):
    A, B, C, D = demo[:4]
    checks.check_demo_zeros(A, B, C, D, [complex(z) for z in checks.DEMO_ZEROS])
    with pytest.raises(checks.CheckFailed, match="does not drop the pencil rank"):
        checks.check_demo_zeros(A, B, C, D, [-6.001, 2.0, 3.0, 5.0])


def test_replay_gain_check_rejects_a_perturbed_gain():
    checks.check_replay_gain(checks.DEMO_GAIN)
    with pytest.raises(checks.CheckFailed):
        checks.check_replay_gain(checks.DEMO_GAIN + 1e-8)


def test_a_failing_cli_job_stops_the_run(tmp_path, monkeypatch):
    # A rate faster than every assigned mode: verify.json reports a miss and the CLI exits 4.
    monkeypatch.setattr(workloads, "SRC", ROOT / "src")
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    wl = workloads.CliJobs(0)
    argv = ["--command", "verify", "--system", str(workloads.DEMO_SYSTEM), "--lambdas=-1,-2,-1",
            "--reference=1,1,1", "--x0=0.5,0.1,-0.2,0.3,0.4", "--rho=-5"]
    monkeypatch.setattr(wl, "round", lambda index, mode: [wl._op("verify", argv, wl._check_verify, mode)])
    try:
        with pytest.raises(checks.CheckFailed, match="exited with code 4"):
            worker.measure(wl, 0.0, traced=False)
    finally:
        wl.close()


class _SleepingWorkload:
    """Rounds of two 50 ms operations, for the run's stopping rules."""

    in_process = True
    failures = ()

    @staticmethod
    def reference():
        return 1.0

    def round(self, index, mode):
        return [workloads.Operation("sleep", lambda: time.sleep(0.05), lambda outcome: None)] * 2


def test_a_run_stops_early_when_its_budget_runs_short():
    start = time.monotonic()
    run_ = worker.measure(_SleepingWorkload(), 60.0, traced=False, until=start + 0.5)
    assert time.monotonic() - start < 1.0
    assert len(run_.op_s) % 2 == 0 and 2 <= len(run_.op_s) <= 6
    # At least one whole round, whatever the budget.
    assert len(worker.measure(_SleepingWorkload(), 60.0, traced=False, until=start).op_s) == 2


def test_failed_operations_are_left_out_of_the_medians():
    r = worker.Run()
    r.kinds, r.ok = ["a", "a", "a", "b", "b"], [True, True, False, True, False]
    assert r.failed == 2
    assert r.per_kind_median([1.0, 3.0, 100.0, 4.0, 100.0]) == 3.0


def test_wrappers_see_calls_through_importing_modules():
    import monotrack as mt

    plant = mt.LtiSystem.load(ROOT / "src" / "monotrack" / "fixtures" / "demo_biproper.json")
    spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
    original_svd = np.linalg.svd
    rec = tracer.Recorder(spans=True)
    rec.install()
    try:
        rec.active = True
        root = rec.open("bench.op")
        mt.synthesize(plant, spec)
        rec.close(root)
        rec.active = False
        # The benchmark's own calls outside an operation are not counted.
        np.linalg.svd(np.eye(3))
    finally:
        rec.uninstall()
    names = [rec.names[i] for i in rec.name_id]
    synth = names.index("synthesis.synthesize")
    zeros_parents = {rec.parent[i] for i, name in enumerate(names) if name == "sysmodel.invariant_zeros"}
    assert synth in zeros_parents  # bound by name inside synthesis
    assert "numkernel.subspace_sum_dim" in names  # bound by name inside solvability
    assert rec.linalg_calls["svd"] == names.count("linalg.svd") > 0
    assert rec.linalg_flops > 0.0
    assert np.linalg.svd is original_svd
    metrics = tracer.summarise(rec, ops=1)
    assert metrics["synthesis.cond_v"] > 1.0


def test_flop_formulas():
    assert tracer.svd_flops((8, 9), compute_uv=False) == 4 * 9 * 8 * 8 - 4 * 8**3 / 3
    assert tracer.linalg_flops("svd", "svd", (np.zeros((3, 2), complex),), {"compute_uv": False}) == 4 * (
        4 * 3 * 4 - 4 * 8 / 3
    )
    assert tracer.linalg_flops("eig", "eigvals", (np.zeros((4, 4)), np.eye(4)), {}) == 30 * 64
    assert tracer.linalg_flops("solve", "solve", (np.eye(5), np.ones(5)), {}) == 2 * 125 / 3 + 2 * 25


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo-design", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_check_runs_every_workload():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert lines[-1] == {"self_check": "ok"}
    results = {(line["workload"], line["trace"]): line for line in lines[:-1]}
    assert set(results) == {(w, t) for w in run.WORKLOADS for t in (0, 1)}
    assert all(line["correct"] and line["attempted"] >= 1 for line in results.values())
    assert results[("generated-ladder", 0)]["failed"] >= 1
    assert all(line["failed"] == 0 for (w, _), line in results.items() if w != "generated-ladder")
