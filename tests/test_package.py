import importlib
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


def test_every_public_name_is_its_submodules_value():
    assert len(mt.__all__) == len(set(mt.__all__))
    for name in mt.__all__:
        assert getattr(mt, name) is getattr(importlib.import_module(f"monotrack.{mt._SOURCE[name]}"), name), name


def test_a_public_name_is_looked_up_once(monkeypatch):
    monkeypatch.delitem(vars(mt), "synthesize", raising=False)
    lookups = []
    lookup = mt.__getattr__
    monkeypatch.setattr(mt, "__getattr__", lambda name: lookups.append(name) or lookup(name))
    first = mt.synthesize
    assert mt.synthesize is first
    assert lookups == ["synthesize"]
    with pytest.raises(AttributeError, match="no_such_name"):
        mt.no_such_name


def source_env() -> dict:
    """The environment of a subprocess that imports this checkout's monotrack."""
    source_root = str(Path(mt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))


def run_probe(code: str, *argv: str, options=(), env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *options, "-c", code, *argv]
    result = subprocess.run(cmd, env=env or source_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-800:]
    return result


def test_package_import_loads_no_numpy():
    probe = "import sys, monotrack as mt; print('numpy' in sys.modules, set(mt.__all__) <= set(dir(mt)))"
    assert run_probe(probe).stdout.split() == ["False", "True"]


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_defaults_blas_to_one_thread(preset):
    env = {k: v for k, v in source_env().items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    probe = "import os, monotrack.cli; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    assert run_probe(probe, env=env).stdout.split() == [preset or "1"] * 2


def test_cli_import_loads_no_scipy():
    # Every CLI job is its own process, so whatever the import graph pulls in
    # is paid by each job; SciPy alone took more than half of one.
    probe = "import sys, monotrack.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert run_probe(probe).stdout.strip() == "[]"


# A job runs with SciPy made unimportable, so an import inside a function
# (which the import probe above cannot see) fails the job. It prints its exit
# code and the monotrack modules it loaded.
_WITHOUT_SCIPY = (
    "import json, sys\nsys.modules['scipy'] = None\nfrom monotrack.cli import main\n"
    "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('monotrack.'))]))"
)
# The layers each command runs, and so the only monotrack modules its job loads.
_COMMON = {"cli", "errors", "numkernel", "seeding", "sysmodel", "subspaces", "solvability"}
_LAYERS = {
    "analyze": _COMMON,
    "synthesize": _COMMON | {"synthesis"},
    "simulate": _COMMON | {"synthesis", "simverify"},
    "verify": _COMMON | {"synthesis", "simverify"},
    "ensemble": _COMMON | {"synthesis", "ensemble"},
}


def enclosing_imports(log: str, name: str) -> set:
    """Every module whose import was under way when ``name`` was loaded, read from a ``-X importtime`` log.

    The log lists each import after the imports nested in it, indented one
    step deeper.
    """
    fields = [line.split("|")[2] for line in log.splitlines() if line.startswith("import time:")][1:]
    rows = [(len(f) - len(f.lstrip()), f.strip()) for f in fields]
    index = [n for _, n in rows].index(name)
    depth, enclosing = rows[index][0], set()
    for d, n in rows[index + 1 :]:
        if d < depth:
            enclosing.add(n)
            depth = d
    return enclosing


@pytest.mark.parametrize("command", sorted(_LAYERS))
def test_cli_job_runs_on_numpy_alone(command, tmp_path):
    system = ["--system", str(demo_system_path())]
    design = ["--lambdas=-1,-2,-1", "--reference=2,2,2"]
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"ensemble": {"trials": 20}}), encoding="utf-8")
    argv = {
        "analyze": system,
        "synthesize": [*system, *design],
        "simulate": [*system, *design, "--x0=0.1,-0.2,0.1,0.1,0"],
        "verify": [*system, *design, "--x0=0.1,-0.2,0.1,0.1,0", "--rho=-1"],
        "ensemble": [*system, "--config", str(config)],
    }[command]
    argv = ["--command", command, *argv, "--out", str(tmp_path / "out")]
    result = run_probe(_WITHOUT_SCIPY, *argv, options=["-X", "importtime"])
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr[-800:]
    assert {m.removeprefix("monotrack.") for m in loaded} == _LAYERS[command]
    if command == "analyze":
        # NumPy's random module loads hashlib (through secrets); no layer of the job does.
        assert any(m.startswith("numpy.random") for m in enclosing_imports(result.stderr, "hashlib"))


def test_a_failing_hypothesis_test_reports_failed_not_an_internal_error(tmp_path):
    # The project's warning filters turn every warning into an error; one
    # raised inside Hypothesis's report hook would make pytest print
    # INTERNALERROR in place of the failure.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given\n"
        "from hypothesis import strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path), "test_fails.py"]
    result = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 1, result.stdout[-800:] + result.stderr[-800:]
    assert "FAILED test_fails.py::test_fails" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
