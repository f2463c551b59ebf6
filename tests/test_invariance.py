"""The audit does not depend on state coordinates, input units, output order or the time unit.

Each transformation is exact in floating point: powers of two scale without
rounding, and a permutation moves entries. The audit verdicts, the normal
rank, the zeros' count, phases and values, and the uncontrollable unstable
modes of the transformed plant must be those of the plant, the zeros and
modes times 2^k under the time scaling (A, B) -> 2^k (A, B).
"""

import ast

import numpy as np
import pytest

import monotrack as mt
from monotrack.fixtures import demo_system_path

# The rungs of the benchmark's generated-ladder workload (generator seed 0).
LADDER = (
    (6, 3, 2, ()), (6, 3, 2, (-3.0,)), (6, 3, 2, (2.0,)), (8, 4, 3, ()), (8, 4, 3, (-3.0,)),
    (8, 4, 3, (2.0,)), (10, 4, 3, ()), (12, 5, 4, (-3.0,)), (16, 6, 5, (2.0,)), (24, 8, 6, ()),
)
STRICT = ((4, 2, 2), (6, 3, 2), (8, 4, 3), (10, 4, 3), (12, 5, 4))
RTOL = 1e-8


def plants() -> dict:
    """The demo, the ladder rungs, strictly proper draws and a plant with an uncontrollable unstable pair, by name."""
    named = {"demo": mt.LtiSystem.load(demo_system_path())}
    for n, m, p, z in LADDER:
        named[f"ladder-{n}-{m}-{p}" + "".join(f"-z{v:g}" for v in z)] = mt.generate(
            mt.GeneratorSpec(n, m, p, planted_zero_values=z, seed=0)
        )
    for n, m, p in STRICT:
        for seed in range(3):
            rng = np.random.default_rng([seed, n, m, p])
            A = rng.standard_normal((n, n)) / np.sqrt(n)
            B, C = rng.standard_normal((n, m)), rng.standard_normal((p, n))
            named[f"strict-{n}-{m}-{p}-s{seed}"] = mt.LtiSystem(A, B, C, np.zeros((p, m)))
    A = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    named["hidden-pair"] = mt.LtiSystem(A, [[0.0], [0.0], [1.0]], [[1.0, 0.0, 1.0]], [[1.0]])
    return named


def scale_states(plant, k):
    """The plant in the coordinates x = T x', T = diag(2^k)."""
    t = 2.0 ** np.asarray(k, dtype=float)
    return mt.LtiSystem(plant.A * t / t[:, None], plant.B / t[:, None], plant.C * t, plant.D, plant.domain)


def scale_inputs(plant, k):
    """The plant with input i measured in units of 2^-k_i."""
    s = 2.0 ** np.asarray(k, dtype=float)
    return mt.LtiSystem(plant.A, plant.B * s, plant.C, plant.D * s, plant.domain)


def permute_outputs(plant, order):
    return mt.LtiSystem(plant.A, plant.B, plant.C[order], plant.D[order], plant.domain)


def scale_time(plant, k):
    """(A, B) -> 2^k (A, B): a continuous plant on a time axis 2^k times faster; zeros and modes scale by 2^k."""
    return mt.LtiSystem(plant.A * 2.0**k, plant.B * 2.0**k, plant.C, plant.D, plant.domain)


def transformations(plant, name: str) -> dict:
    """Seeded exact transformations of ``plant``, by name, each with the factor it scales zeros and modes by."""
    rng = np.random.default_rng(sum(map(ord, name)))
    return {
        "states": (scale_states(plant, rng.integers(-7, 8, plant.n)), 1.0),
        "inputs": (scale_inputs(plant, rng.integers(-7, 8, plant.m)), 1.0),
        "outputs": (permute_outputs(plant, rng.permutation(plant.p) if plant.p > 2 else [*range(plant.p)][::-1]), 1.0),
        "time-up": (scale_time(plant, 7), 2.0**7),
        "time-down": (scale_time(plant, -7), 2.0**-7),
    }


PLANTS = plants()
KINDS = ("states", "inputs", "outputs", "time-up", "time-down")


def unstable_modes(report) -> list[complex]:
    """The uncontrollable unstable modes ``details["stabilizable"]`` lists; none when the plant is stabilizable."""
    text = report.details["stabilizable"]
    if report.stabilizable:
        return []
    return [complex(z) for z in ast.literal_eval(text.removeprefix("uncontrollable unstable modes "))]


def assert_matched(values, expected, what):
    """Each of ``expected`` within RTOL (relative to 1 + its modulus) of its own one of ``values``."""
    assert len(values) == len(expected), (what, values, expected)
    remaining = list(values)
    for target in expected:
        best = min(remaining, key=lambda v: abs(v - target))
        assert abs(best - target) <= RTOL * (1.0 + abs(target)), (what, values, expected)
        remaining.remove(best)


@pytest.mark.parametrize("name, kind", [(name, kind) for name in PLANTS for kind in KINDS], ids=lambda v: v)
def test_the_audit_is_invariant(name, kind):
    plant = PLANTS[name]
    other, factor = transformations(plant, name)[kind]
    before, after = mt.audit_assumptions(plant), mt.audit_assumptions(other)
    verdicts = ("right_invertible", "stabilizable", "no_zero_at_tracking_frequency", "distinct_min_phase_zeros")
    assert [getattr(after, v) for v in verdicts] == [getattr(before, v) for v in verdicts]
    assert after.normal_rank == before.normal_rank
    assert (after.zeros is None) == (before.zeros is None)
    if before.zeros is not None:
        phases = sorted(z.is_minimum_phase for z in before.zeros)
        assert sorted(z.is_minimum_phase for z in after.zeros) == phases
        assert_matched([z.value for z in after.zeros], [factor * z.value for z in before.zeros], "zeros")
    assert_matched(unstable_modes(after), [factor * z for z in unstable_modes(before)], "uncontrollable modes")
