"""labeling.verify against perfbench/rbcheck.py, the benchmark's independent
checker, on constructed labelings and on seeded corruptions of them.

rbcheck shares no code with the package, so the two must agree on validity
and on the missing edge label wherever both give a verdict.
"""

import importlib.util
import json
import pathlib
import random

import pytest

from rainbowcat import constructor, labeling, oracle
from rainbowcat.errors import InvalidElementError, PartitionShapeMismatchError
from rainbowcat.group import GroupParams
from rainbowcat.labeling import HAIR_ROLES

RBCHECK = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "rbcheck.py"


def _rbcheck():
    spec = importlib.util.spec_from_file_location("perfbench_rbcheck", RBCHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rbcheck = _rbcheck()
GROUPS = [(2, 4), (3, 3), (5, 2), (7, 2)]


def _labelings(p, k):
    params = GroupParams(p, k)
    for shape in oracle.all_shapes(params):
        if constructor.feasibility(params, shape).feasible:
            yield params, shape, constructor.construct(params, shape)


def _agree(params, shape, lab):
    """verify and rbcheck give the same verdict; returns it."""
    verdict = rbcheck.check(params.p, params.k, shape.h, lab.spine, lab.x, lab.y, lab.z)
    report = labeling.verify(params, shape, lab)
    assert report.valid == verdict.ok, (shape.h, report, verdict)
    if report.valid:
        assert params.element(report.missing_edge_label) == verdict.missing
    return report.valid


def _roles(lab):
    return {role: list(lab.hair_ix(role)) for role in HAIR_ROLES}


def _move_hair(params, shape, lab, rng):
    """One hair moved to another role; the shape follows the new counts."""
    roles = _roles(lab)
    src = rng.choice([r for r in HAIR_ROLES if roles[r]])
    dst = rng.choice([r for r in HAIR_ROLES if r != src])
    roles[dst].append(roles[src].pop(rng.randrange(len(roles[src]))))
    moved = labeling.make_labeling(params, lab.spine_ix, roles["x"], roles["y"], roles["z"])
    return labeling.make_shape(params, tuple(len(roles[r]) for r in HAIR_ROLES)), moved


def _duplicate_vertex(params, lab, rng):
    """One hair relabeled with the label of another vertex."""
    roles = _roles(lab)
    role = rng.choice([r for r in HAIR_ROLES if roles[r]])
    i = rng.randrange(len(roles[role]))
    others = list(lab.spine_ix) + [e for r in HAIR_ROLES for e in roles[r] if e != roles[role][i]]
    roles[role][i] = rng.choice(others)
    return labeling.make_labeling(params, lab.spine_ix, roles["x"], roles["y"], roles["z"])


def _out_of_range(params, shape, lab, rng):
    """The labeling's JSON payload with one coordinate of one label set to p,
    and the labeling with that label's index moved out of [0, p^k)."""
    data = json.loads(labeling.labeling_to_json(params, shape, lab))
    labels = [data["spine"]] + [data["hairs"][r] for r in HAIR_ROLES]
    cells = [list(lab.spine_ix)] + [list(lab.hair_ix(r)) for r in HAIR_ROLES]
    j = rng.choice([j for j, ls in enumerate(labels) if ls])
    i = rng.randrange(len(labels[j]))
    labels[j][i][rng.randrange(params.k)] = params.p
    cells[j][i] = rng.choice((-1 - cells[j][i], params.order + cells[j][i]))
    return data, labeling.Labeling(params, tuple(cells[0]), *map(tuple, cells[1:]))


@pytest.mark.parametrize("p, k", GROUPS, ids=[f"Z{p}^{k}" for p, k in GROUPS])
def test_verify_agrees_with_rbcheck(p, k):
    outcomes = {"moved_valid": 0, "moved_invalid": 0}
    for params, shape, lab in _labelings(p, k):
        rng = random.Random(f"{p}/{k}/{shape.h}")
        assert _agree(params, shape, lab), shape.h

        moved_shape, moved = _move_hair(params, shape, lab, rng)
        with pytest.raises(PartitionShapeMismatchError):
            labeling.verify(params, shape, moved)
        valid = _agree(params, moved_shape, moved)
        outcomes["moved_valid" if valid else "moved_invalid"] += 1

        assert not _agree(params, shape, _duplicate_vertex(params, lab, rng)), shape.h

        bad_data, bad = _out_of_range(params, shape, lab, rng)
        assert not rbcheck.check_payload(bad_data).ok
        with pytest.raises(InvalidElementError):
            labeling.labeling_from_dict(bad_data)
        with pytest.raises(InvalidElementError):
            labeling.verify(params, shape, bad)
    assert outcomes["moved_invalid"] > 0
