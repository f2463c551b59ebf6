"""The outcome gate on the five plant sets of ROADMAP "The plant sets", judged plant by plant.

Each plant keeps its audit verdict, its zero count, its outcome class and
the dim of its V*g discovery, as ``plant_sets_expected.json`` records them.
A plant may move only between a design and ``UnstableResult``, and only
where the side that designs has cond(V) above ``ILL_CONDITIONED``: such a
move is roundoff in V. Changes that move outcomes on purpose rewrite the
records with ``python -m tests.plant_sets``. Each plant that designs is
designed a second time on the same object at a second reference, and must
equal a fresh plant's design there.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import monotrack as mt
from perfbench import checks

from .plant_sets import PLANT_SETS, record, reference_dim

EXPECTED = json.loads(Path(__file__).with_name("plant_sets_expected.json").read_text())
# The outcome counts of the records, per set.
COUNTS = {
    "sweep": {"design": 46, "UnstableResult": 37, "NotSolvable": 25},
    "discrete": {"design": 94, "UnstableResult": 7, "RankDeficientAfterRetries": 1, "LambdaAtZero": 6},
    "strictly-proper": {"design": 24, "UnstableResult": 17, "NotSolvable": 14, "RankDeficientAfterRetries": 5},
    "filtered": {"NotSolvable": 8},
    "multiplicity": {"design": 3, "NotSolvable": 3, "AssumptionViolation": 2},
}


@pytest.mark.parametrize("name", list(PLANT_SETS))
def test_every_plant_keeps_its_record(name):
    cases, expected = PLANT_SETS[name](), EXPECTED[name]
    assert [label for label, *_ in cases] == list(expected)
    assert Counter(want["outcome"] for want in expected.values()) == COUNTS[name]
    for label, plant, modes, seed in cases:
        got, fb = record(plant, modes, seed)
        want = expected[label]
        assert (got["all_pass"], got["zeros"], got["dim_vg"]) == (want["all_pass"], want["zeros"], want["dim_vg"]), label
        if isinstance(got["dim_vg"], int):
            assert got["dim_vg"] <= reference_dim(plant, mt.invariant_zeros(plant)), label
        if got["outcome"] != want["outcome"]:
            assert {got["outcome"], want["outcome"]} == {"design", "UnstableResult"} and (got["ill"] or want["ill"]), label
        if fb is None:
            continue
        # A second design on the same object, at a second reference, reads the kept gain.
        spec = mt.SynthesisSpec(lambdas=modes, reference=np.linspace(-1.0, 2.0, plant.p), seed=seed)
        again = mt.synthesize(plant, spec)
        fresh = mt.LtiSystem(plant.A, plant.B, plant.C, plant.D, plant.domain)
        assert again.to_json_dict() == mt.synthesize(fresh, spec).to_json_dict(), label
        if plant.domain is mt.TimeDomain.CONTINUOUS:
            for design, r in ((fb, np.ones(plant.p)), (again, spec.reference)):
                checks.check_design(plant.A, plant.B, plant.C, plant.D, design.F, design.x_ss, design.u_ss, r, design.assigned_modes)
