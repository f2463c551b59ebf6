import json

import numpy as np
import pytest

import monotrack as mt
from monotrack import cli, subspaces
from monotrack.fixtures import demo_replay_path, demo_system_path

from .conftest import DEMO_GAIN, count_calls


def run_cli(argv):
    config = cli.build_config(argv)
    return cli.run(config)


def read_json(path):
    payload = json.loads(path.read_text())
    payload.pop("timestamp", None)
    return payload


class TestAnalyze:
    def test_demo_report(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["--command", "analyze", "--system", str(demo_system_path()), "--out", str(out)])
        assert code == 0
        payload = read_json(out / "analysis.json")
        values = sorted(z["value"][0] for z in payload["zeros"])
        assert values == pytest.approx([-6.0, 2.0, 3.0, 5.0], abs=1e-6)
        assert payload["dims"]["vstar_g"] == 2
        assert payload["dims"]["rstar_j"] == [4, 3, 4]
        assert payload["lambda_free"]["solvable"] is True
        assert (out / "analysis.txt").exists()

    @pytest.mark.parametrize("seed", [1729, 0])
    def test_reads_spans_without_drawing_a_basis(self, tmp_path, monkeypatch, seed):
        calls = count_calls(monkeypatch, (subspaces, "mixing_coefficients"))
        out = tmp_path / "run"
        code = run_cli(["--command", "analyze", "--system", str(demo_system_path()), "--seed", str(seed), "--out", str(out)])
        assert code == 0
        assert calls["mixing_coefficients"] == 0
        payload = read_json(out / "analysis.json")
        assert payload["dims"] == {"rstar": 1, "vstar_g": 2, "rstar_j": [4, 3, 4]}
        assert payload["lambda_free"]["solvable"] is True
        assert payload["lambda_free"]["delta"] == [0, 1, 2]

    def test_artifacts_do_not_depend_on_the_seed(self, tmp_path):
        payloads = []
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            code = run_cli(["--command", "analyze", "--system", str(demo_system_path()), "--seed", str(seed), "--out", str(out)])
            assert code == 0
            payloads.append(read_json(out / "analysis.json"))
        assert payloads[0] == payloads[1]
        assert json.dumps(payloads[0], sort_keys=True) == json.dumps(payloads[1], sort_keys=True)
        assert "np." not in json.dumps(payloads[0]["assumptions"])

    def test_missing_system_is_config_error(self, tmp_path):
        code = run_cli(["--command", "analyze", "--out", str(tmp_path)])
        assert code == 1

    def test_unreadable_system_is_config_error(self, tmp_path):
        code = run_cli(["--command", "analyze", "--system", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 1

    def test_rank_tolerance_override(self, tmp_path):
        out = tmp_path / "tol"
        code = run_cli([
            "--command", "analyze",
            "--system", str(demo_system_path()),
            "--tol-rank", "1e-10",
            "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out / "analysis.json")
        assert payload["dims"]["vstar_g"] == 2

    def test_ill_conditioned_zeros_are_a_numerical_failure(self, tmp_path, ill_conditioned_zeros, capsys):
        code = run_cli(["--command", "analyze", "--system", str(demo_system_path()), "--out", str(tmp_path)])
        assert code == 4
        assert ill_conditioned_zeros in capsys.readouterr().err
        assert not (tmp_path / "analysis.json").exists()


class TestSynthesize:
    def test_replay_gain_csv(self, tmp_path):
        out = tmp_path / "syn"
        code = run_cli([
            "--command", "synthesize",
            "--system", str(demo_system_path()),
            "--lambdas=-1,-2,-1",
            "--reference", "2,2,2",
            "--replay-vg", str(demo_replay_path()),
            "--out", str(out),
        ])
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in (out / "gain.csv").read_text().strip().splitlines()]
        assert np.max(np.abs(np.array(rows) - DEMO_GAIN)) <= 1e-9
        payload = read_json(out / "feedback.json")
        assert payload["delta"] == [0, 1, 2]

    def test_not_solvable_exit_code(self, tmp_path):
        from .test_solvability import UNSOLVABLE_A, UNSOLVABLE_B, UNSOLVABLE_C, UNSOLVABLE_D
        import monotrack as mt

        sys_path = tmp_path / "bad.json"
        mt.LtiSystem(UNSOLVABLE_A, UNSOLVABLE_B, UNSOLVABLE_C, UNSOLVABLE_D).save(sys_path)
        code = run_cli([
            "--command", "synthesize",
            "--system", str(sys_path),
            "--lambdas=-0.5,-0.9",
            "--reference", "1,1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_assumption_failure_exit_code(self, tmp_path):
        import monotrack as mt

        sys_path = tmp_path / "unstab.json"
        mt.LtiSystem(
            np.diag([1.0, -2.0]), np.array([[0.0], [1.0]]), np.array([[1.0, 1.0]]), np.array([[1.0]])
        ).save(sys_path)
        code = run_cli([
            "--command", "synthesize",
            "--system", str(sys_path),
            "--lambdas=-1",
            "--reference", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_unstable_lambda_is_config_error(self, tmp_path):
        code = run_cli([
            "--command", "synthesize",
            "--system", str(demo_system_path()),
            "--lambdas=1,-2,-1",
            "--reference", "2,2,2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    @pytest.mark.parametrize("lambdas", ["-inf,-2,-1", "-1,nan,-1"])
    def test_a_mode_that_is_not_finite_is_a_config_error(self, tmp_path, capsys, lambdas):
        code = run_cli([
            "--command", "synthesize",
            "--system", str(demo_system_path()),
            f"--lambdas={lambdas}",
            "--reference", "2,2,2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == cli.EXIT_CONFIG
        assert "is not finite" in capsys.readouterr().err

    def test_lambda_at_zero_is_config_error(self, tmp_path):
        # -6 is an invariant zero of the demo plant.
        code = run_cli([
            "--command", "synthesize",
            "--system", str(demo_system_path()),
            "--lambdas=-6,-2,-1",
            "--reference", "1,1,1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1


class TestSimulateAndVerify:
    def test_simulate_writes_traces(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli([
            "--command", "simulate",
            "--system", str(demo_system_path()),
            "--lambdas=-1,-2,-1",
            "--reference", "2,2,2",
            "--x0=0.1,-0.2,0.1,0.1,0",
            "--x0=0.6,0.2,0.2,-0.2,1",
            "--samples", "50",
            "--out", str(out),
        ])
        assert code == 0
        manifest = read_json(out / "simulate.json")
        assert len(manifest["traces"]) == 2
        header = (out / "trace_0.csv").read_text().splitlines()[0]
        assert header == "t,eps_1,eps_2,eps_3,xi_1,xi_2,xi_3,xi_4,xi_5"

    def test_verify_report_structure(self, tmp_path):
        out = tmp_path / "ver"
        code = run_cli([
            "--command", "verify",
            "--system", str(demo_system_path()),
            "--lambdas=-1,-2,-1",
            "--reference", "2,2,2",
            "--x0=0.1,-0.2,0.1,0.1,0",
            "--rho=-1",
            "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out / "verify.json")
        assert payload["delta"] == [0, 1, 2]
        assert payload["h"] == 2
        for entry in payload["per_output"]:
            assert entry["monotone"] and entry["rate_ok"]
            assert entry["fit_residual"] <= 1e-6


    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("horizon", ["-5", "0", "nan", "inf"])
    def test_a_horizon_that_is_not_positive_and_finite_is_a_config_error(self, tmp_path, capsys, command, horizon):
        out = tmp_path / "run"
        code = run_cli([
            "--command", command,
            "--system", str(demo_system_path()),
            "--lambdas=-1,-2,-1",
            "--reference", "2,2,2",
            "--x0=0.1,-0.2,0.1,0.1,0",
            f"--horizon={horizon}",
            "--out", str(out),
        ])
        assert code == cli.EXIT_CONFIG
        assert "horizon must be positive and finite" in capsys.readouterr().err
        assert not list(out.glob("trace_*.csv"))
        assert not (out / "simulate.json").exists() and not (out / "verify.json").exists()


    def test_a_discrete_horizon_sets_the_trace_length(self, tmp_path, capsys):
        system = tmp_path / "discrete.json"
        mt.generate(mt.GeneratorSpec(4, 3, 2, domain="discrete", seed=3)).save(system)
        argv = [
            "--command", "simulate", "--system", str(system), "--lambdas=0.5,0.3", "--reference=1,-1",
            "--x0=1,1,1,1", "--horizon=5",
        ]
        assert run_cli(argv + ["--out", str(tmp_path / "run")]) == 0
        assert [trace["samples"] for trace in read_json(tmp_path / "run" / "simulate.json")["traces"]] == [6]
        assert len((tmp_path / "run" / "trace_0.csv").read_text().splitlines()) == 1 + 6
        bad = tmp_path / "bad"
        assert run_cli(argv + ["--samples=200", "--out", str(bad)]) == cli.EXIT_CONFIG
        assert "disagree with the discrete horizon" in capsys.readouterr().err
        assert not (bad / "simulate.json").exists()

    def test_a_discrete_horizon_below_one_is_a_config_error(self, tmp_path, capsys):
        system = tmp_path / "discrete.json"
        mt.generate(mt.GeneratorSpec(4, 3, 2, domain="discrete", seed=3)).save(system)
        out = tmp_path / "run"
        code = run_cli([
            "--command", "simulate", "--system", str(system), "--lambdas=0.5,0.3", "--reference=1,-1",
            "--x0=1,1,1,1", "--horizon=0.5", "--out", str(out),
        ])
        assert code == cli.EXIT_CONFIG
        assert "config error: a discrete horizon must be at least 1, got 0.5" in capsys.readouterr().err
        assert not list(out.glob("trace_*.csv")) and not (out / "simulate.json").exists()


class TestEnsembleCommand:
    def test_batch_report(self, tmp_path):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "command": "ensemble",
            "system": str(demo_system_path()),
            "out": str(tmp_path / "ens"),
            "ensemble": {"trials": 20},
        }))
        code = run_cli(["--config", str(config)])
        assert code == 0
        payload = read_json(tmp_path / "ens" / "ensemble.json")
        assert payload["trials"] == 20
        assert payload["failures"] == 0

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"trials": -3}, "trials must be non-negative"),
            ({"trials": 2.5}, "trials must be a int"),
            ({"trials": 2, "n": 8.5, "m": 4, "p": 3}, "n must be a int"),
        ],
    )
    def test_a_bad_trial_count_or_size_is_a_config_error(self, tmp_path, capsys, options, message):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"ensemble": options}))
        out = tmp_path / "ens"
        system = [] if "n" in options else ["--system", str(demo_system_path())]
        code = run_cli(["--command", "ensemble", *system, "--config", str(config), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "ensemble.json").exists()

    def test_whole_numbers_from_json_are_coerced(self, tmp_path):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"ensemble": {"trials": "4", "n": 3.0, "m": "2", "p": 2}}))
        out = tmp_path / "ens"
        assert run_cli(["--command", "ensemble", "--seed", "7", "--config", str(config), "--out", str(out)]) == 0
        assert read_json(out / "ensemble.json")["trials"] == 4

    def test_generated_plant_report(self, tmp_path):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "command": "ensemble",
            "out": str(tmp_path / "ens2"),
            "seed": 7,
            "ensemble": {"trials": 10, "n": 3, "m": 2, "p": 2},
        }))
        code = run_cli(["--config", str(config)])
        assert code == 0


class TestDeterminism:
    def test_identical_configs_produce_identical_artifacts(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli([
                "--command", "synthesize",
                "--system", str(demo_system_path()),
                "--lambdas=-1,-2,-1",
                "--reference", "2,2,2",
                "--seed", "42",
                "--out", str(out),
            ])
            assert code == 0
            outputs.append((read_json(out / "feedback.json"), (out / "gain.csv").read_text()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "command": "analyze",
            "system": str(demo_system_path()),
            "out": str(tmp_path / "first"),
        }))
        code = run_cli(["--config", str(config), "--out", str(tmp_path / "second")])
        assert code == 0
        assert (tmp_path / "second" / "analysis.json").exists()
        assert not (tmp_path / "first").exists()


class TestConfigFields:
    @pytest.mark.parametrize("samples", ["50", 50.0])
    def test_numeric_fields_from_json_are_coerced(self, tmp_path, samples):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "command": "simulate",
            "system": str(demo_system_path()),
            "lambdas": [-1, -2, -1],
            "reference": [2, 2, 2],
            "x0": [[0.1, -0.2, 0.1, 0.1, 0.0]],
            "tol_rank": "1e-10",
            "horizon": "5",
            "samples": samples,
            "rho": "-1",
            "seed": "42",
            "out": str(tmp_path / "sim"),
        }))
        parsed = cli.build_config(["--config", str(config)])
        assert (parsed.tol_rank, parsed.horizon, parsed.samples, parsed.rho, parsed.seed) == (1e-10, 5.0, 50, -1.0, 42)
        assert type(parsed.samples) is int and type(parsed.horizon) is float
        assert cli.run(parsed) == 0
        assert read_json(tmp_path / "sim" / "simulate.json")["traces"][0]["samples"] == 50

    @pytest.mark.parametrize("field, value", [("tol_rank", "tight"), ("samples", 50.5), ("rho", [1])])
    def test_a_malformed_numeric_field_is_a_config_error(self, tmp_path, capsys, field, value):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"command": "analyze", "system": str(demo_system_path()), field: value}))
        with pytest.raises(SystemExit) as info:
            cli.main(["--config", str(config), "--out", str(tmp_path / "out")])
        assert info.value.code == 1
        assert capsys.readouterr().err.startswith(f"config error: {field} must be")
