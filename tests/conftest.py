import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import monotrack as mt
from monotrack import sysmodel
from monotrack.fixtures import demo_replay_path, demo_system_path

# Property tests draw the same examples on every run and never fail on
# wall-clock time, so the suite gives the same result on a loaded machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def demo_system() -> mt.LtiSystem:
    """Bundled bi-proper 5-state continuous plant used across the suite."""
    return mt.LtiSystem.load(demo_system_path())


@pytest.fixture
def fresh_demo() -> mt.LtiSystem:
    """The demo plant as a new object, with none of its facts computed yet, for tests that count work."""
    return mt.LtiSystem.load(demo_system_path())


@pytest.fixture(scope="session")
def demo_zeros(demo_system):
    return mt.invariant_zeros(demo_system)


@pytest.fixture
def ill_conditioned_zeros(monkeypatch) -> str:
    """Make every confirmation, of the zeros and of stabilizability, raise IllConditionedPencil; returns the reason.

    A plant that already holds its zeros does not confirm them again: use a new plant object.
    """
    reason = "forced gray-zone candidate"

    def raise_ill_conditioned(*args):
        raise mt.IllConditionedPencil(reason)

    monkeypatch.setattr(sysmodel, "_confirm", raise_ill_conditioned)
    return reason


@pytest.fixture(scope="session")
def demo_replay() -> mt.Replay:
    payload = json.loads(demo_replay_path().read_text())
    return mt.Replay(
        vg_state=np.asarray(payload["V_g"], dtype=float),
        vg_input=np.asarray(payload["W_g"], dtype=float),
        directions={e["output"]: (e["v"], e["w"]) for e in payload["directions"]},
    )


@pytest.fixture(scope="session")
def demo_feedback(demo_system) -> mt.FeedbackResult:
    spec = mt.SynthesisSpec(lambdas=(-1.0, -2.0, -1.0), reference=(2.0, 2.0, 2.0))
    return mt.synthesize(demo_system, spec)


# Reference values for the bundled demo plant, frozen as exact rationals.
DEMO_GAIN = np.array(
    [
        [68419 / 8250, 802 / 125, -1121 / 125, -6, -1639 / 250],
        [-5351 / 2475, -16 / 75, 6 / 25, 0, 127 / 25],
        [5537 / 4950, -12 / 225, -36 / 25, 0, -162 / 25],
        [4 / 9, 4 / 3, 0, 0, 0],
    ]
)

DEMO_XSS = np.array([0.0, -2.0, 10 / 3, 0.0, -7 / 15])
DEMO_USS = np.array([-48 / 5, -14 / 15, -1.0, -2.0])

DEMO_ZEROS = (-6.0, 2.0, 3.0, 5.0)


# Pure integrators, A = 0 with B of full row rank, each with its modes: as
# factories, so every test gets a plant with no kept fact.
INTEGRATORS = [
    pytest.param(lambda: mt.LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2))), (-1.0, -2.0), id="two-state"),
    pytest.param(lambda: mt.LtiSystem([[0.0]], [[1.0]], [[1.0]], [[0.0]]), (-1.0,), id="siso"),
]


def source_env() -> dict:
    """The environment of a subprocess that imports this checkout's monotrack."""
    source_root = str(Path(mt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))


def wide_plant(seed, index, p):
    """Strictly proper plant, n = p + 2, m = p + 1, as in the benchmark's wide-outputs workload."""
    n, m = p + 2, p + 1
    rng = np.random.default_rng([seed, index, n, m, p])
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    return mt.LtiSystem(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)), np.zeros((p, m)))


def count_calls(monkeypatch, *targets):
    """Wrap each (owner, name) function with monkeypatch; returns the live call counts by name."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def kept_pencils(plant, tol=mt.DEFAULT_POLICY) -> dict:
    """The plant's store of pencil factors for ``tol``, a dict from value to factor; empty when it keeps none."""
    held = plant._facts.get("pencils")
    return held[1] if held is not None and held[0] == tol else {}


def record_calls(monkeypatch, owner, name, read):
    """Wrap ``owner.name`` with monkeypatch; returns the live list of ``read(*args)``, one entry per call."""
    seen = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        seen.append(read(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return seen
