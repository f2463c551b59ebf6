import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import monotrack as mt


def test_star_import_binds_the_public_api_only():
    namespace = {}
    exec("from monotrack import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(mt.__all__)
    submodules = {info.name for info in pkgutil.iter_modules(mt.__path__)}
    assert {"numkernel", "solvability", "seeding"} <= submodules
    assert not bound & submodules


def test_cli_import_loads_no_scipy():
    # Every CLI job is its own process, so whatever the import graph pulls in
    # is paid by each job; SciPy alone took more than half of one.
    source_root = str(Path(mt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))
    probe = "import sys, monotrack.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
