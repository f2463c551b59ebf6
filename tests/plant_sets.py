"""The five plant sets of ROADMAP "The plant sets", and one design record per plant.

Each set is a list of ``(label, plant, modes, seed)``; every plant is
designed at its modes with reference ones and the synthesis seed ``seed``:
that of the generator or the random draw, or the default seed where the set
has none. :func:`record` gives what the outcome gate fixes for one plant.
Run ``PYTHONPATH=src python -m tests.plant_sets`` to print every record as
the JSON that ``tests/plant_sets_expected.json`` holds.
"""

import json

import numpy as np
from scipy.signal import tf2ss

import monotrack as mt
from monotrack.seeding import DEFAULT_SEED

SWEEP_SIZES = ((4, 2, 2), (6, 3, 2), (8, 4, 3), (10, 4, 3), (12, 5, 4), (16, 6, 5))
STRICTLY_PROPER_SIZES = (
    [(size, range(6)) for size in ((4, 2, 2), (6, 3, 2), (8, 4, 3), (10, 4, 3), (12, 5, 4), (12, 7, 6), (16, 6, 5), (20, 10, 8))]
    + [(size, range(3)) for size in ((24, 14, 10), (32, 18, 14), (48, 26, 20), (64, 34, 26))]
)
# A design whose V has a larger condition number may move to UnstableResult, and back, by roundoff alone.
ILL_CONDITIONED = 1e8


def continuous_modes(p: int) -> tuple:
    return tuple(-1.0 - 0.25 * k for k in range(p))


def discrete_modes(p: int) -> tuple:
    return tuple(0.5 - 0.05 * k for k in range(p))


def sweep(domain: mt.TimeDomain) -> list:
    """The 108 generated plants of one domain: six sizes, planted zeros none, -3 (-0.3 in discrete time) or +2, seeds 0-5."""
    stable_zero, modes = (-3.0, continuous_modes) if domain is mt.TimeDomain.CONTINUOUS else (-0.3, discrete_modes)
    return [
        (f"{(n, m, p)} z{planted} s{seed}", mt.generate(mt.GeneratorSpec(n, m, p, domain, planted_zero_values=planted, seed=seed)), modes(p), seed)
        for n, m, p in SWEEP_SIZES
        for planted in ((), (stable_zero,), (2.0,))
        for seed in range(6)
    ]


def strictly_proper() -> list:
    """A/sqrt(n), B and C standard normal and D = 0, from ``default_rng([seed, n, m, p])``."""
    plants = []
    for (n, m, p), seeds in STRICTLY_PROPER_SIZES:
        for seed in seeds:
            rng = np.random.default_rng([seed, n, m, p])
            A = rng.standard_normal((n, n)) / np.sqrt(n)
            plant = mt.LtiSystem(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)), np.zeros((p, m)))
            plants.append((f"{(n, m, p)} s{seed}", plant, continuous_modes(p), seed))
    return plants


def filtered() -> list:
    """A generated plant with a zero at +2 and a 1/(s+1) filter on each of its p outputs, p = 4, 6, ..., 18."""
    plants = []
    for p in range(4, 20, 2):
        g = mt.generate(mt.GeneratorSpec(p + 4, p + 2, p, planted_zero_values=(2.0,), seed=0))
        A = np.block([[g.A, np.zeros((g.n, p))], [g.C, -np.eye(p)]])
        plant = mt.LtiSystem(A, np.vstack([g.B, g.D]), np.hstack([np.zeros((p, g.n)), np.eye(p)]), np.zeros((p, g.m)))
        plants.append((f"p{p}", plant, continuous_modes(p), DEFAULT_SEED))
    return plants


def _channels(first, second, mix=None) -> mt.LtiSystem:
    """Two decoupled SISO channels, each ``(numerator, denominator)``; ``mix`` M mixes the inputs by M, the outputs by M^-1."""
    (A1, B1, C1, D1), (A2, B2, C2, D2) = (tf2ss(*channel) for channel in (first, second))
    A = np.block([[A1, np.zeros((A1.shape[0], A2.shape[1]))], [np.zeros((A2.shape[0], A1.shape[1])), A2]])
    B = np.block([[B1, np.zeros_like(B1)], [np.zeros_like(B2), B2]])
    C = np.block([[C1, np.zeros_like(C2)], [np.zeros_like(C1), C2]])
    D = np.diag([D1[0, 0], D2[0, 0]])
    if mix is not None:
        B, C, D = B @ mix, np.linalg.solve(mix, C), np.linalg.solve(mix, D @ mix)
    return mt.LtiSystem(A, B, C, D)


def multiplicity() -> list:
    """Square plants of two decoupled channels whose minimum-phase zeros repeat or nearly repeat."""
    poly = np.polymul
    lag = ([1.0, 2.0], poly([1.0, 1.0], [1.0, 3.0]))  # (s+2)/((s+1)(s+3))
    plants = [("defective", _channels((poly([1.0, 2.0], [1.0, 2.0]), poly(poly([1.0, 1.0], [1.0, 3.0]), [1.0, 4.0])), ([1.0], [1.0, 5.0])))]
    for d in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        plants.append((f"close {d:g}", _channels(lag, ([1.0, 2.0 + d], poly([1.0, 2.0], [1.0, 4.0])))))
    plants.append(("identical", _channels(lag, lag)))
    plants.append(("identical mixed", _channels(lag, lag, np.random.default_rng(0).standard_normal((2, 2)))))
    return [(label, plant, (-1.5, -2.5), DEFAULT_SEED) for label, plant in plants]


PLANT_SETS = {
    "sweep": lambda: sweep(mt.TimeDomain.CONTINUOUS),
    "discrete": lambda: sweep(mt.TimeDomain.DISCRETE),
    "strictly-proper": strictly_proper,
    "filtered": filtered,
    "multiplicity": multiplicity,
}


def reference_dim(plant, zeros) -> int:
    """dim V*g by the recursion: dim ``vstar_recursive`` less the multiplicities of the zeros that are not minimum phase."""
    return mt.vstar_recursive(plant).shape[1] - sum(z.geometric_multiplicity for z in zeros if not z.is_minimum_phase)


def record(plant, modes, seed: int):
    """``(record, design)`` of one plant: what the outcome gate fixes, and the design or None.

    The record holds the audit verdict, the zero count, the outcome class
    (``design`` or the error's name), the dim of the V*g discovery over the
    pool that avoids ``modes`` (or the error's name) and whether a design's V
    has a condition number above ``ILL_CONDITIONED``.
    """
    report = mt.audit_assumptions(plant)
    spec = mt.SynthesisSpec(lambdas=modes, reference=np.ones(plant.p), seed=seed)
    try:
        fb = mt.synthesize(plant, spec)
        outcome = "design"
    except mt.MonotrackError as exc:
        fb, outcome = None, type(exc).__name__
    try:
        dim_vg = mt.discover_vstar_g(plant, zeros=report.zeros, avoid=modes).dim
    except mt.MonotrackError as exc:
        dim_vg = type(exc).__name__
    ill = fb is not None and bool(np.linalg.cond(fb.V) > ILL_CONDITIONED)
    zero_count = None if report.zeros is None else len(report.zeros)
    return {"all_pass": report.all_pass, "zeros": zero_count, "outcome": outcome, "dim_vg": dim_vg, "ill": ill}, fb


def records() -> dict:
    return {name: {label: record(*case)[0] for label, *case in build()} for name, build in PLANT_SETS.items()}


if __name__ == "__main__":
    # One line per plant.
    sets = [
        f" {json.dumps(name)}: {{\n" + ",\n".join(f"  {json.dumps(label)}: {json.dumps(r)}" for label, r in plants.items()) + "\n }"
        for name, plants in records().items()
    ]
    print("{\n" + ",\n".join(sets) + "\n}")
