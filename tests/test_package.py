import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import monotrack as mt
from monotrack.fixtures import demo_system_path


def test_star_import_binds_the_public_api_only():
    namespace = {}
    exec("from monotrack import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(mt.__all__)
    submodules = {info.name for info in pkgutil.iter_modules(mt.__path__)}
    assert {"numkernel", "solvability", "seeding"} <= submodules
    assert not bound & submodules


def source_env() -> dict:
    """The environment of a subprocess that imports this checkout's monotrack."""
    source_root = str(Path(mt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_scipy():
    # Every CLI job is its own process, so whatever the import graph pulls in
    # is paid by each job; SciPy alone took more than half of one.
    env = source_env()
    probe = "import sys, monotrack.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# A job runs with SciPy made unimportable, so an import inside a function
# (which the import probe above cannot see) fails the job.
_WITHOUT_SCIPY = "import sys; sys.modules['scipy'] = None; from monotrack.cli import main; main(sys.argv[1:])"


@pytest.mark.parametrize("command", ["analyze", "verify", "ensemble"])
def test_cli_job_runs_on_numpy_alone(command, tmp_path):
    system = ["--system", str(demo_system_path())]
    design = ["--lambdas=-1,-2,-1", "--reference=2,2,2"]
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"ensemble": {"trials": 20}}), encoding="utf-8")
    argv = {
        "analyze": system,
        "verify": [*system, *design, "--x0=0.1,-0.2,0.1,0.1,0", "--rho=-1"],
        "ensemble": [*system, "--config", str(config)],
    }[command]
    cmd = [sys.executable, "-c", _WITHOUT_SCIPY, "--command", command, *argv, "--out", str(tmp_path / "out")]
    result = subprocess.run(cmd, env=source_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-800:]
