"""The four workloads: their inputs, operations and checks.

Every input is made from the workload seed given on the command line, except
the ``generated-ladder`` plants, whose generator seeds are fixed so that the
plants that fail do so on every run. An operation is a closure that calls
the program; its check recomputes what the result must satisfy with
``checks``. Rounds are lists of operations; every run attempts whole rounds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from reference import reference_seconds

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DEMO_SYSTEM = SRC / "monotrack" / "fixtures" / "demo_biproper.json"
DEMO_REPLAY = SRC / "monotrack" / "fixtures" / "demo_replay.json"
DEMO_MODES = (-1.0, -2.0, -1.0)
WIDE_OUTPUTS = (8, 10, 12)
# (n, m, p, planted zeros): bi-proper plants with m > p, growing in n. The
# generator seed is fixed at 0 for every rung (see README: the rungs from
# n = 10 up fail on the vstar_g conditioning fault).
LADDER = (
    (6, 3, 2, ()),
    (6, 3, 2, (-3.0,)),
    (6, 3, 2, (2.0,)),
    (8, 4, 3, ()),
    (8, 4, 3, (-3.0,)),
    (8, 4, 3, (2.0,)),
    (10, 4, 3, ()),
    (12, 5, 4, (-3.0,)),
    (16, 6, 5, (2.0,)),
    (24, 8, 6, ()),
)
LADDER_GENERATOR_SEED = 0
X0_PER_OP = 2
ENSEMBLE_TRIALS = 200
WORKLOADS = ("demo-design", "wide-outputs", "generated-ladder", "cli-jobs")


@dataclass
class Operation:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def ladder_modes(p: int) -> tuple:
    """Distinct modes -1, -1.25, ...; they stay clear of the planted zeros at -3 and 2."""
    return tuple(-1.0 - 0.25 * k for k in range(p))


def _matrices(plant):
    return plant.A, plant.B, plant.C, plant.D


def _design_and_verify(plant, spec, x0s, rho: float):
    """One design as a user runs it: synthesize, simulate, and the program's own verdicts.

    The verdicts are part of the operation's work but are not checked: their
    tolerances do not scale with the closed loop's roundoff (see CHANGES.md),
    so the design is checked with ``checks`` instead.
    """
    import monotrack as mt

    fb = mt.synthesize(plant, spec)
    verdicts = []
    for x0 in x0s:
        trace = mt.simulate(plant, fb, x0)
        verdicts.append(
            (mt.check_monotonic(trace), mt.check_rate(trace, mt.RateSpec(rho)), mt.fit_single_mode(trace))
        )
    return fb, verdicts


def _check_design(plant, modes, reference, x0s, outcome) -> None:
    fb, _verdicts = outcome
    A, B, C, D = _matrices(plant)
    for j, mode in fb.assigned_modes.items():
        checks.require(mode in ("instantaneous", modes[j]), f"output {j} got mode {mode}, requested {modes[j]}")
    checks.check_design(A, B, C, D, fb.F, fb.x_ss, fb.u_ss, reference, fb.assigned_modes)
    checks.check_simulation(A, B, C, D, fb.F, fb.x_ss, x0s, fb.assigned_modes)


def _x0s(rng, n: int) -> list:
    return [rng.uniform(-1.0, 1.0, n) for _ in range(X0_PER_OP)]


def _design_op(kind, plant, modes, reference, x0s, seed=None) -> Operation:
    import monotrack as mt

    kwargs = {} if seed is None else {"seed": seed}
    spec = mt.SynthesisSpec(lambdas=modes, reference=reference, **kwargs)
    rho = max(modes)
    return Operation(
        kind,
        lambda: _design_and_verify(plant, spec, x0s, rho),
        lambda outcome: _check_design(plant, modes, reference, x0s, outcome),
    )


class _InProcess:
    """Workloads whose operations call the library in the benchmark's own process."""

    in_process = True

    def close(self) -> None:
        pass

    @staticmethod
    def reference() -> float:
        return reference_seconds()

    @property
    def failures(self):
        import monotrack as mt

        return (mt.MonotrackError,)


# -- demo-design -----------------------------------------------------------
class DemoDesign(_InProcess):
    """The paper's 5-state, 4-input, 3-output bi-proper plant, a fresh synthesis seed per operation."""

    def __init__(self, seed: int):
        import monotrack as mt

        self.seed = seed
        self.plant = mt.LtiSystem.load(DEMO_SYSTEM)

    def round(self, index: int, mode: str) -> list[Operation]:
        rng = np.random.default_rng([self.seed, index, 1])
        design_seed = int(rng.integers(0, 2**31))
        reference = rng.uniform(-2.0, 2.0, 3)
        return [_design_op("demo", self.plant, DEMO_MODES, reference, _x0s(rng, 5), design_seed)]


# -- wide-outputs ----------------------------------------------------------
def wide_plant(seed: int, index: int, p: int):
    """Strictly proper plant, n = p + 2, m = p + 1; A / sqrt(n), B and C standard normal."""
    import monotrack as mt

    n, m = p + 2, p + 1
    rng = np.random.default_rng([seed, index, n, m, p])
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    return mt.LtiSystem(A, B, C, np.zeros((p, m)))


class WideOutputs(_InProcess):
    """Two free modes and p outputs, so the 2^p subset enumeration dominates."""

    PLANTS_PER_SIZE = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.plants = {
            p: [wide_plant(seed, k, p) for k in range(self.PLANTS_PER_SIZE)] for p in WIDE_OUTPUTS
        }

    def round(self, index: int, mode: str) -> list[Operation]:
        rng = np.random.default_rng([self.seed, index, 2])
        ops = []
        for p in WIDE_OUTPUTS:
            plant = self.plants[p][index % self.PLANTS_PER_SIZE]
            ops.append(_design_op(f"p{p}", plant, ladder_modes(p), rng.uniform(-2.0, 2.0, p), _x0s(rng, plant.n)))
        return ops


# -- generated-ladder ------------------------------------------------------
class GeneratedLadder(_InProcess):
    """generate() then design and verify, over a ladder of plants n = 6 ... 24."""

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int, mode: str) -> list[Operation]:
        rng = np.random.default_rng([self.seed, index, 3])
        ops = []
        for n, m, p, planted in LADDER:
            kind = f"n{n}m{m}p{p}" + "".join(f"z{z:+g}" for z in planted)
            ops.append(self._op(kind, n, m, p, planted, rng.uniform(-2.0, 2.0, p), _x0s(rng, n)))
        return ops

    @staticmethod
    def _op(kind, n, m, p, planted, reference, x0s) -> Operation:
        import monotrack as mt

        modes = ladder_modes(p)
        gen = mt.GeneratorSpec(n=n, m=m, p=p, planted_zero_values=planted, seed=LADDER_GENERATOR_SEED)
        spec = mt.SynthesisSpec(lambdas=modes, reference=reference)

        def run():
            plant = mt.generate(gen)
            return plant, _design_and_verify(plant, spec, x0s, max(modes))

        def check(outcome):
            plant, design = outcome
            checks.require((plant.n, plant.m, plant.p) == (n, m, p), f"generated plant has shape {(plant.n, plant.m, plant.p)}")
            A, B, C, D = _matrices(plant)
            for z in planted:
                checks.require(checks.pencil_rank_drop(A, B, C, D, z), f"planted zero {z} does not drop the pencil rank")
            _check_design(plant, modes, reference, x0s, design)

        return Operation(kind, run, check)


# -- cli-jobs --------------------------------------------------------------
@dataclass
class JobResult:
    started: float
    wall_s: float
    rss_kb: int
    out: Path
    artifact_kb: float
    probe: dict


def job_env() -> dict:
    """The job's environment: the checkout's sources, and the CLI's own BLAS thread choice."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_job(argv: list[str], out: Path, mode: str, op_id: int) -> JobResult:
    """Run one CLI job in its own process and wait for it.

    ``plain`` runs the shipped interface; ``trace`` runs it under the tracing
    bootstrap, which hands back its spans and linalg counts. Any exit code
    but 0 is a wrong result: the CLI exits nonzero when its own verify or
    ensemble verdict reports a failure, on a failed audit and on bad flags.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = [*argv, "--out", str(out)]
    probe_file = out.parent / f"{out.name}.probe.json"
    if mode == "plain":
        cmd = [sys.executable, "-m", "monotrack.cli", *argv]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "clijob.py"), "--op", str(op_id), "--probe", str(probe_file), "--", *argv]
    with tempfile.TemporaryFile(dir=out.parent) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=job_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if proc.returncode != 0:
        raise checks.CheckFailed(f"job {' '.join(argv[:2])} exited with code {proc.returncode}: {stderr[-400:]}")
    probe = {}
    if mode == "trace":
        probe = json.loads(probe_file.read_text())
        probe_file.unlink()
    artifact_kb = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / 1024.0
    return JobResult(start, wall, usage.ru_maxrss, out, artifact_kb, probe)


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class CliJobs:
    """One process per job on the demo plant: analyze, verify, replayed synthesize, ensemble."""

    # No job failure is expected: every nonzero exit stops the run (run_job).
    failures = ()
    in_process = False

    def __init__(self, seed: int):
        self.seed = seed
        self.plant = _read(DEMO_SYSTEM)
        self.base = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.config = self.base / "ensemble-job.json"
        self.config.write_text(json.dumps({"ensemble": {"trials": ENSEMBLE_TRIALS}}), encoding="utf-8")
        self.ops_started = 0

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)

    @staticmethod
    def reference() -> float:
        """Wall time of the reference computation in a fresh interpreter, started like a job."""
        start = time.perf_counter()
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "reference.py")], env=job_env(), check=True)
        return time.perf_counter() - start

    def _matrices(self):
        return tuple(np.asarray(self.plant[k], dtype=float) for k in "ABCD")

    def round(self, index: int, mode: str) -> list[Operation]:
        rng = np.random.default_rng([self.seed, index, 4])
        job_seed = int(rng.integers(0, 2**31))
        reference = rng.uniform(-2.0, 2.0, 3)
        x0s = _x0s(rng, 5)
        system = ["--system", str(DEMO_SYSTEM)]
        fmt = lambda v: ",".join(f"{x:.17g}" for x in v)
        design = [f"--lambdas={fmt(DEMO_MODES)}", f"--reference={fmt(reference)}"]
        jobs = {
            "analyze": ["--command", "analyze", *system],
            "verify": ["--command", "verify", *system, *design, *[f"--x0={fmt(x)}" for x in x0s],
                       "--rho=-1", "--seed", str(job_seed)],
            "synthesize": ["--command", "synthesize", *system, *design, "--replay-vg", str(DEMO_REPLAY)],
            "ensemble": ["--command", "ensemble", *system, "--config", str(self.config), "--seed", str(job_seed)],
        }
        checkers = {
            "analyze": self._check_analyze,
            "verify": self._check_verify,
            "synthesize": lambda res: self._check_synthesize(res, reference),
            "ensemble": self._check_ensemble,
        }
        return [self._op(kind, argv, checkers[kind], mode) for kind, argv in jobs.items()]

    def _op(self, kind, argv, checker, mode) -> Operation:
        out = self.base / kind
        op_id = self.ops_started
        self.ops_started += 1
        return Operation(kind, lambda: run_job(argv, out, mode, op_id), checker)

    def _check_analyze(self, res: JobResult) -> None:
        payload = _read(res.out / "analysis.json")
        zeros = [complex(z["value"][0], z["value"][1]) for z in payload["zeros"]]
        checks.check_demo_zeros(*self._matrices(), zeros)

    def _check_verify(self, res: JobResult) -> None:
        payload = _read(res.out / "verify.json")
        for j, entry in enumerate(payload["per_output"]):
            checks.require(entry["monotone"] and entry["rate_ok"], f"verify.json reports a failure on output {j}")

    def _check_synthesize(self, res: JobResult, reference) -> None:
        F = np.loadtxt(res.out / "gain.csv", delimiter=",", ndmin=2)
        checks.check_replay_gain(F)
        fb = _read(res.out / "feedback.json")
        modes = {int(j): m for j, m in fb["assigned_modes"].items()}
        checks.check_design(*self._matrices(), F, fb["x_ss"], fb["u_ss"], reference, modes)

    def _check_ensemble(self, res: JobResult) -> None:
        payload = _read(res.out / "ensemble.json")
        checks.require(payload["trials"] == ENSEMBLE_TRIALS and payload["failures"] == 0,
                        f"ensemble.json reports {payload['failures']} failures in {payload['trials']} trials")


def make(workload: str, seed: int):
    return {
        "demo-design": DemoDesign,
        "wide-outputs": WideOutputs,
        "generated-ladder": GeneratedLadder,
        "cli-jobs": CliJobs,
    }[workload](seed)
