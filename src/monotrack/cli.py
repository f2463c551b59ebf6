"""Batch command-line front-end.

One process runs one job described by a JSON config file plus flag
overrides; artifacts land in the output directory and the exit code is the
only pass/fail channel: 0 success, 1 config or I/O error, 2 not solvable,
3 assumption failure, 4 numerical failure. Each ``_cmd_*`` imports the
layers only its command runs, so a job pays no import for a layer it does
not use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# A job works on small matrices in a process of its own, so BLAS threads buy
# nothing. This must run before NumPy is first imported; a value already set
# is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from .errors import (
    AssumptionViolation,
    IllConditionedPencil,
    LambdaAtZero,
    MonotrackError,
    NotSolvable,
    UnstableLambda,
)
from .numkernel import TolerancePolicy
from .seeding import DEFAULT_SEED
from .sysmodel import LtiSystem, audit_assumptions

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_SOLVABLE = 2
EXIT_ASSUMPTIONS = 3
EXIT_NUMERICAL = 4

_COMMANDS = ("analyze", "synthesize", "simulate", "verify", "ensemble")


@dataclass
class JobConfig:
    command: str
    system_path: str | None = None
    lambdas: tuple | None = None
    reference: tuple | None = None
    x0_list: tuple = ()
    horizon: float | None = None
    samples: int | None = None
    rho: float | None = None
    seed: int = DEFAULT_SEED
    out_dir: str = "."
    tol_rank: float | None = None
    replay_vg: str | None = None
    free_pool: tuple | None = None
    ensemble_options: dict = field(default_factory=dict)

    def __post_init__(self):
        """Read each field as its type: a malformed one raises ValueError, a config error, so no job meets it."""
        for key, value, kind in (
            ("system", self.system_path, str), ("out", self.out_dir, str), ("replay_vg", self.replay_vg, str),
            ("ensemble", self.ensemble_options, dict), ("x0", self.x0_list, (list, tuple)),
        ):
            if value is not None:
                _typed(key, value, kind)
        self.x0_list = tuple(_vector("x0", x0) for x0 in self.x0_list or ())
        for key in ("lambdas", "reference", "free_pool"):
            setattr(self, key, _vector(key, getattr(self, key)) or None)
        for key, kind in (("horizon", float), ("samples", int), ("rho", float), ("seed", int), ("tol_rank", float)):
            setattr(self, key, _number(key, getattr(self, key), kind))

    def policy(self) -> TolerancePolicy:
        return TolerancePolicy(relative_rank_tol=self.tol_rank)


def _write_json(path: Path, payload: dict) -> None:
    body = dict(payload)
    body["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_gain_csv(path: Path, F: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in F:
            fh.write(",".join(f"{x:.15g}" for x in row) + "\n")


def _load_replay(path: str):
    from .synthesis import Replay

    with open(path, "r", encoding="utf-8") as fh:
        payload = _typed("replay", json.load(fh), dict)
    directions = {}
    for entry in _typed("directions", payload.get("directions", []), list):
        entry = _typed("direction", entry, dict)
        directions[_typed("output", entry["output"], int)] = (_vector("v", entry["v"]), _vector("w", entry["w"]))
    return Replay(vg_state=_matrix("V_g", payload["V_g"]), vg_input=_matrix("W_g", payload["W_g"]), directions=directions)


def _require(config: JobConfig, *names: str) -> None:
    missing = [n for n in names if getattr(config, n) in (None, (), "")]
    if missing:
        raise ValueError(f"command '{config.command}' requires {', '.join(missing)}")


def _cmd_analyze(config: JobConfig, out: Path) -> int:
    from .solvability import check_solvable
    from .subspaces import discover_rstar, discover_vstar_g

    policy = config.policy()
    system = LtiSystem.load(config.system_path)
    report = audit_assumptions(system, policy)
    zeros = report.zeros
    if zeros is None:
        raise IllConditionedPencil(report.details["distinct_min_phase_zeros"])
    # Dimensions and solvability depend only on the spans, so no paired basis is drawn.
    rs = discover_rstar(system, tol=policy, zeros=zeros)
    rs_j = [discover_rstar(system, j, tol=policy, zeros=zeros) for j in range(system.p)]
    vg = discover_vstar_g(system, config.free_pool, policy, zeros=zeros)
    payload = {
        "system": system.to_json_dict(),
        "normal_rank_full": report.right_invertible,
        "zeros": [
            {
                "value": [z.value.real, z.value.imag],
                "geometric_multiplicity": z.geometric_multiplicity,
                "minimum_phase": z.is_minimum_phase,
            }
            for z in zeros
        ],
        "assumptions": {
            "right_invertible": report.right_invertible,
            "stabilizable": report.stabilizable,
            "no_zero_at_tracking_frequency": report.no_zero_at_tracking_frequency,
            "distinct_min_phase_zeros": report.distinct_min_phase_zeros,
            "details": report.details,
        },
        "dims": {
            "rstar": rs.dim,
            "vstar_g": vg.dim,
            "rstar_j": [b.dim for b in rs_j],
        },
    }
    if vg.dim <= system.n - system.p:
        verdict = check_solvable(system, vg, rs_j, policy)
        payload["lambda_free"] = verdict.to_json_dict()
    else:
        payload["lambda_free"] = {"note": "dim V*g exceeds n - p; use a mode tuple for the generalized test"}
    _write_json(out / "analysis.json", payload)
    lines = [
        f"outputs: {system.p}  inputs: {system.m}  states: {system.n}  domain: {system.domain.value}",
        "zeros: " + ", ".join(f"{z.value:.6g} (mult {z.geometric_multiplicity}, {'min' if z.is_minimum_phase else 'non-min'}-phase)" for z in zeros),
        f"dim R* = {rs.dim}; dim V*g = {vg.dim}; per-output dims = {[b.dim for b in rs_j]}",
        f"assumption audit: {'PASS' if report.all_pass else 'FAIL'}",
    ]
    if "solvable" in payload["lambda_free"]:
        lines.append(f"mode-free solvability: {'PASS' if payload['lambda_free']['solvable'] else 'FAIL'}")
    (out / "analysis.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    if not report.all_pass:
        return EXIT_ASSUMPTIONS
    if payload["lambda_free"].get("solvable") is False:
        return EXIT_NOT_SOLVABLE
    return EXIT_OK


def _synthesize_from_config(config: JobConfig):
    from .synthesis import SynthesisSpec, synthesize

    system = LtiSystem.load(config.system_path)
    spec = SynthesisSpec(
        lambdas=config.lambdas,
        reference=config.reference,
        free_pool=config.free_pool,
        seed=config.seed,
    )
    replay = _load_replay(config.replay_vg) if config.replay_vg else None
    fb = synthesize(system, spec, config.policy(), replay)
    return system, fb


def _cmd_synthesize(config: JobConfig, out: Path) -> int:
    _require(config, "system_path", "lambdas", "reference")
    system, fb = _synthesize_from_config(config)
    _write_json(out / "feedback.json", fb.to_json_dict())
    _write_gain_csv(out / "gain.csv", fb.F)
    print(f"gain written; closed-loop spectrum: {[f'{z.real:.6g}{z.imag:+.2g}j' for z in fb.closed_loop_spectrum]}")
    return EXIT_OK


def _cmd_simulate(config: JobConfig, out: Path) -> int:
    from .simverify import simulate, trace_to_csv

    _require(config, "system_path", "lambdas", "reference", "x0_list")
    system, fb = _synthesize_from_config(config)
    # Every trace is computed before any is written, so a bad initial state writes nothing.
    traces = [simulate(system, fb, x0, config.horizon, config.samples) for x0 in config.x0_list]
    manifest = {"traces": []}
    for idx, (x0, trace) in enumerate(zip(config.x0_list, traces)):
        name = f"trace_{idx}.csv"
        trace_to_csv(trace, out / name)
        manifest["traces"].append({"x0": list(x0), "file": name, "samples": trace.num_samples})
    _write_json(out / "simulate.json", manifest)
    print(f"{len(config.x0_list)} trace(s) written to {out}")
    return EXIT_OK


def _cmd_verify(config: JobConfig, out: Path) -> int:
    from .simverify import RateSpec, check_monotonic, check_rate, fit_single_mode, simulate

    _require(config, "system_path", "lambdas", "reference", "x0_list")
    system, fb = _synthesize_from_config(config)
    rate = RateSpec(config.rho) if config.rho is not None else None
    per_output = [
        {"mode": fb.assigned_modes[j], "monotone": True, "rate_ok": True, "fit_residual": 0.0}
        for j in range(system.p)
    ]
    for x0 in config.x0_list:
        trace = simulate(system, fb, x0, config.horizon, config.samples)
        mono = check_monotonic(trace)
        rates = check_rate(trace, rate) if rate else [True] * system.p
        fits = fit_single_mode(trace)
        for j in range(system.p):
            if mono[j] == "not_monotone":
                per_output[j]["monotone"] = False
            if not rates[j]:
                per_output[j]["rate_ok"] = False
            per_output[j]["fit_residual"] = max(per_output[j]["fit_residual"], fits[j].relative_residual)
    verdict = {
        "h": fb.V.shape[1] - len(fb.delta),
        "delta": list(fb.delta),
        "per_output": per_output,
        "certification": (
            "strict monotonicity certified by sampled monotone decay together "
            "with single-mode structure; a nonzero single real mode cannot have "
            "stationary points between samples"
        ),
    }
    _write_json(out / "verify.json", verdict)
    all_ok = all(entry["monotone"] and entry["rate_ok"] for entry in per_output)
    for j, entry in enumerate(per_output):
        print(
            f"output {j}: mode={entry['mode']} monotone={entry['monotone']} "
            f"rate_ok={entry['rate_ok']} fit_residual={entry['fit_residual']:.3g}"
        )
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def _cmd_ensemble(config: JobConfig, out: Path) -> int:
    from .ensemble import GeneratorSpec, batch_report, generate, genericity_trial

    policy = config.policy()
    options = dict(config.ensemble_options)
    trials = _number("trials", options.pop("trials", 100), int)
    if config.system_path:
        system = LtiSystem.load(config.system_path)
    else:
        plant_keys = {"n", "m", "p"}
        if not plant_keys <= options.keys():
            raise ValueError("ensemble without a system file needs n, m, p")
        spec = GeneratorSpec(
            n=_number("n", options["n"], int),
            m=_number("m", options["m"], int),
            p=_number("p", options["p"], int),
            domain=options.get("domain", "continuous"),
            planted_zero_values=_vector("planted_zeros", options.get("planted_zeros", []), complex),
            planted_uncontrollable_modes=_vector("planted_uncontrollable", options.get("planted_uncontrollable", [])),
            seed=config.seed,
        )
        system = generate(spec, policy)
    stats = genericity_trial(system, trials, config.seed, policy)
    _write_json(out / "ensemble.json", batch_report(system, stats))
    print(f"genericity: {stats.trials - stats.failures}/{stats.trials} draws succeeded")
    return EXIT_OK if stats.failures == 0 else EXIT_NUMERICAL


def run(config: JobConfig) -> int:
    """Execute one job; artifacts in config.out_dir; exit status per contract."""
    try:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if config.command == "analyze":
            _require(config, "system_path")
            return _cmd_analyze(config, out)
        if config.command == "synthesize":
            return _cmd_synthesize(config, out)
        if config.command == "simulate":
            return _cmd_simulate(config, out)
        if config.command == "verify":
            return _cmd_verify(config, out)
        if config.command == "ensemble":
            return _cmd_ensemble(config, out)
        raise ValueError(f"unknown command {config.command!r}")
    except NotSolvable as exc:
        print(f"not solvable: {exc}", file=_sys.stderr)
        if exc.verdict is not None:
            print(json.dumps(exc.verdict.to_json_dict(), sort_keys=True), file=_sys.stderr)
        return EXIT_NOT_SOLVABLE
    except AssumptionViolation as exc:
        print(f"assumption failure: {exc}", file=_sys.stderr)
        return EXIT_ASSUMPTIONS
    except np.linalg.LinAlgError as exc:
        # A LAPACK failure (no SVD convergence, a singular solve) is numerical,
        # though LinAlgError subclasses ValueError.
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except (UnstableLambda, LambdaAtZero, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except MonotrackError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


def _number(key: str, value, kind: type):
    """``value`` as ``kind`` (float, int for a whole number, complex from a number or an [re, im] pair), None kept."""
    if value is None:
        return None
    try:
        number = kind(*value) if kind is complex and isinstance(value, list) and len(value) == 2 else kind(value)
        exact = kind is not int or float(value) == number
    except (TypeError, ValueError):
        exact = False
    if not exact:
        raise ValueError(f"{key} must be a {kind.__name__}, got {value!r}")
    return number


def _typed(key: str, value, kind):
    """``value`` when it is a ``kind``; anything else, None included, raises ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"{key} has the wrong type: {value!r}")
    return value


def _matrix(key: str, value) -> np.ndarray:
    """A list of rows, each read by :func:`_vector`, as a float array; ragged rows raise ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of rows, got {value!r}")
    return np.array([_vector(key, row) for row in value], dtype=float)


def _vector(key: str, value, kind: type = float) -> tuple:
    """A list of numbers, or a comma-separated string of them, as a tuple of ``kind`` read by :func:`_number`; None is ()."""
    items = () if value is None else value.split(",") if isinstance(value, str) else value
    if not isinstance(items, (list, tuple)) or any(x is None for x in items):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_number(key, x, kind) for x in items)


def build_config(argv=None) -> JobConfig:
    parser = argparse.ArgumentParser(prog="monotrack", description="Globally monotonic tracking toolbox")
    parser.add_argument("--config", help="JSON job file; flags override its fields")
    parser.add_argument("--command", choices=_COMMANDS)
    parser.add_argument("--system", help="system JSON file")
    parser.add_argument("--lambdas", help="comma-separated closed-loop modes, one per output")
    parser.add_argument("--reference", help="comma-separated step reference")
    parser.add_argument("--x0", action="append", help="comma-separated initial state (repeatable)")
    parser.add_argument("--rho", type=float, help="decay-rate bound for verification")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--replay-vg", help="JSON file with V_g/W_g (and optional directions) to replay")
    parser.add_argument("--tol-rank", type=float, help="relative rank tolerance override")
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--samples", type=int)
    args = parser.parse_args(argv)

    payload: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)

    def pick(flag, key, default=None):
        return flag if flag is not None else payload.get(key, default)

    command = pick(args.command, "command")
    if command is None:
        parser.error("a command is required (flag --command or config field)")
    return JobConfig(
        command=command,
        system_path=pick(args.system, "system"),
        lambdas=pick(args.lambdas, "lambdas"),
        reference=pick(args.reference, "reference"),
        x0_list=args.x0 if args.x0 else payload.get("x0", []),
        horizon=pick(args.horizon, "horizon"),
        samples=pick(args.samples, "samples"),
        rho=pick(args.rho, "rho"),
        seed=pick(args.seed, "seed", DEFAULT_SEED),
        out_dir=pick(args.out, "out", "."),
        tol_rank=pick(args.tol_rank, "tol_rank"),
        replay_vg=pick(args.replay_vg, "replay_vg"),
        free_pool=payload.get("free_pool"),
        ensemble_options=payload.get("ensemble", {}),
    )


def main(argv=None) -> None:
    try:
        config = build_config(argv)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
