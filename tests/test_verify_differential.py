"""labeling.verify against perfbench/rbcheck.py, the benchmark's independent
checker, and against testkit.reference_verify, the list-based verifier, on
constructed labelings and on corruptions of them.

rbcheck shares no code with the package, so the two must agree on validity
and on the missing edge label wherever both give a verdict.  The reference
must give the same whole report, or raise the same error with the same
message.
"""

import importlib.util
import json
import pathlib
import random
import sys

import pytest

from rainbowcat import constructor, labeling, oracle
from rainbowcat.errors import InvalidElementError, PartitionShapeMismatchError, RainbowError
from rainbowcat.group import GroupParams
from rainbowcat.labeling import HAIR_ROLES, Labeling
from testkit import reference_verify

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _rbcheck():
    spec = importlib.util.spec_from_file_location("perfbench_rbcheck", PERFBENCH / "rbcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corrupt():
    """perfbench/workloads.py's corrupt, which imports its siblings."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module.corrupt, module.CORRUPTIONS


rbcheck = _rbcheck()
corrupt, CORRUPTIONS = _corrupt()
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


def _outcome(verify, params, shape, lab):
    try:
        return verify(params, shape, lab)
    except RainbowError as exc:
        return type(exc), str(exc)


def _same(params, shape, lab):
    """verify and reference_verify give the same report or the same error."""
    got = _outcome(labeling.verify, params, shape, lab)
    assert got == _outcome(reference_verify, params, shape, lab), (shape.h, lab)
    return got


def _replaced(lab, old, new):
    """The labeling with label old, wherever it sits, replaced by new; the
    hair tuples keep their order."""
    swap = lambda cells: tuple(new if v == old else v for v in cells)
    return Labeling(lab.params, swap(lab.spine_ix), *map(swap, (lab.x_ix, lab.y_ix, lab.z_ix)))


def _hand_built(params, lab):
    """Labelings a reader or a caller can hand to verify: -1 for p^k - 1,
    the index p^k, a repeated spine label, a hair that repeats a spine
    label, and the hair tuples reversed, valid and with a repeat."""
    n, (a1, a2, a3) = params.order, lab.spine_ix
    hairs = (lab.x_ix, lab.y_ix, lab.z_ix)
    role = next(j for j, cells in enumerate(hairs) if cells)
    hair = hairs[role][-1]
    repeated = list(hairs)
    repeated[role] = hairs[role][:-1] + (a2,)
    yield _replaced(lab, n - 1, -1)
    yield _replaced(lab, hair, n)
    yield _replaced(lab, a3, -n)
    yield Labeling(params, (a1, a2, a1), *hairs)
    yield Labeling(params, lab.spine_ix, *repeated)
    yield Labeling(params, lab.spine_ix, *(cells[::-1] for cells in hairs))
    yield Labeling(params, lab.spine_ix, *(cells[::-1] for cells in repeated))


@pytest.mark.parametrize("p, k", GROUPS, ids=[f"Z{p}^{k}" for p, k in GROUPS])
def test_verify_matches_reference(p, k):
    rng = random.Random(f"reference/{p}/{k}")
    labelings = list(_labelings(p, k))
    for params, shape, lab in labelings:
        assert _same(params, shape, lab).valid
        moved_shape, moved = _move_hair(params, shape, lab, rng)
        assert _same(params, shape, moved)[0] is PartitionShapeMismatchError
        _same(params, moved_shape, moved)
        _same(params, shape, _duplicate_vertex(params, lab, rng))
        assert _same(params, shape, _out_of_range(params, shape, lab, rng)[1])[0] is InvalidElementError
        for bad in _hand_built(params, lab):
            _same(params, shape, bad)
    kinds = set()
    for params, shape, lab in rng.sample(labelings, 20):
        text = labeling.labeling_to_json(params, shape, lab)
        for kind in CORRUPTIONS:
            try:
                read = labeling.labeling_from_dict(json.loads(corrupt(text, kind, rng)))
            except (ValueError, RainbowError):
                assert kind in ("truncated", "out_of_range")
                continue
            kinds.add(kind)
            assert not _same(*read).valid
    assert kinds == {"duplicate_vertex", "duplicate_edge"}
