"""labeling.verify and labeling.verify_labels against perfbench/rbcheck.py,
the benchmark's independent checker, and against testkit.reference_verify,
the list-based verifier, on constructed labelings and on corruptions of
them given as label lists; on random role maps, the views a Labeling
gives, verify_labels on them and the JSON round trip; and the exit code of
the verify command on mutated payloads against rbcheck's verdict.

rbcheck shares no code with the package, so the two must agree on validity
and on the missing edge label wherever both give a verdict.  The reference
must give the same whole report, or raise the same error with the same
message.
"""

import contextlib
import functools
import importlib.util
import io
import json
import operator
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rainbowcat import cli, constructor, labeling, oracle
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


def _labels(lab):
    """The labeling's spine and x, y, z labels as lists of indices."""
    return [list(lab.spine_ix)] + [list(lab.hair_ix(role)) for role in HAIR_ROLES]


def _agree(params, shape, *labels):
    """verify_labels and rbcheck give the same verdict; returns it."""
    verdict = rbcheck.check(params.p, params.k, shape.h, *([params.element(v) for v in ls] for ls in labels))
    report = labeling.verify_labels(params, shape, *labels)
    assert report.valid == verdict.ok, (shape.h, report, verdict)
    if report.valid:
        assert params.element(report.missing_edge_label) == verdict.missing
    return report.valid


def _move_hair(params, shape, lab, rng):
    """One hair moved to another role; the shape follows the new counts."""
    roles = dict(zip(HAIR_ROLES, _labels(lab)[1:]))
    src = rng.choice([r for r in HAIR_ROLES if roles[r]])
    dst = rng.choice([r for r in HAIR_ROLES if r != src])
    roles[dst].append(roles[src].pop(rng.randrange(len(roles[src]))))
    moved = labeling.make_labeling(params, lab.spine_ix, roles["x"], roles["y"], roles["z"])
    return labeling.make_shape(params, tuple(len(roles[r]) for r in HAIR_ROLES)), moved


def _duplicate_vertex(params, lab, rng):
    """One hair relabeled with the label of another vertex, as label lists."""
    labels = _labels(lab)
    j = rng.choice([j for j in (1, 2, 3) if labels[j]])
    i = rng.randrange(len(labels[j]))
    others = [e for ls in labels for e in ls if e != labels[j][i]]
    labels[j][i] = rng.choice(others)
    return labels


def _out_of_range(params, shape, lab, rng):
    """The labeling's JSON payload with one coordinate of one label set to p,
    and its label lists with that label's index moved out of [0, p^k)."""
    data = json.loads(labeling.labeling_to_json(params, shape, lab))
    labels = [data["spine"]] + [data["hairs"][r] for r in HAIR_ROLES]
    cells = _labels(lab)
    j = rng.choice([j for j, ls in enumerate(labels) if ls])
    i = rng.randrange(len(labels[j]))
    labels[j][i][rng.randrange(params.k)] = params.p
    cells[j][i] = rng.choice((-1 - cells[j][i], params.order + cells[j][i]))
    return data, cells


@pytest.mark.parametrize("p, k", GROUPS, ids=[f"Z{p}^{k}" for p, k in GROUPS])
def test_verify_agrees_with_rbcheck(p, k):
    outcomes = {"moved_valid": 0, "moved_invalid": 0}
    for params, shape, lab in _labelings(p, k):
        rng = random.Random(f"{p}/{k}/{shape.h}")
        assert _agree(params, shape, *_labels(lab)), shape.h

        moved_shape, moved = _move_hair(params, shape, lab, rng)
        with pytest.raises(PartitionShapeMismatchError):
            labeling.verify(params, shape, moved)
        valid = _agree(params, moved_shape, *_labels(moved))
        outcomes["moved_valid" if valid else "moved_invalid"] += 1

        assert not _agree(params, shape, *_duplicate_vertex(params, lab, rng)), shape.h

        bad_data, bad = _out_of_range(params, shape, lab, rng)
        assert not rbcheck.check_payload(bad_data).ok
        with pytest.raises(InvalidElementError):
            labeling.labeling_from_dict(bad_data)
        with pytest.raises(InvalidElementError):
            labeling.verify_labels(params, shape, *bad)
    assert outcomes["moved_invalid"] > 0


def _outcome(verify, params, shape, *labels):
    try:
        return verify(params, shape, *labels)
    except RainbowError as exc:
        return type(exc), str(exc)


def _same(params, shape, *labels):
    """verify_labels and reference_verify give the same report or the same
    error on label lists."""
    got = _outcome(labeling.verify_labels, params, shape, *labels)
    assert got == _outcome(reference_verify, params, shape, *labels), (shape.h, labels)
    return got


def _replaced(lab, old, new):
    """The labeling's label lists with label old, wherever it sits,
    replaced by new."""
    return [[new if v == old else v for v in cells] for cells in _labels(lab)]


def _hand_built(params, lab):
    """Label lists a reader or a caller can hand to verify_labels: -1 for
    p^k - 1, the index p^k, a repeated spine label, a hair that repeats a
    spine label, and the hair lists reversed, valid and with a repeat."""
    n, (spine, *hairs) = params.order, _labels(lab)
    a1, a2, a3 = spine
    role = next(j for j, cells in enumerate(hairs) if cells)
    repeated = list(hairs)
    repeated[role] = hairs[role][:-1] + [a2]
    yield _replaced(lab, n - 1, -1)
    yield _replaced(lab, hairs[role][-1], n)
    yield _replaced(lab, a3, -n)
    yield [[a1, a2, a1], *hairs]
    yield [spine, *repeated]
    yield [spine, *(cells[::-1] for cells in hairs)]
    yield [spine, *(cells[::-1] for cells in repeated)]


@pytest.mark.parametrize("p, k", GROUPS, ids=[f"Z{p}^{k}" for p, k in GROUPS])
def test_verify_matches_reference(p, k):
    rng = random.Random(f"reference/{p}/{k}")
    labelings = list(_labelings(p, k))
    for params, shape, lab in labelings:
        assert _same(params, shape, *_labels(lab)).valid
        moved_shape, moved = _move_hair(params, shape, lab, rng)
        assert _same(params, shape, *_labels(moved))[0] is PartitionShapeMismatchError
        assert _outcome(labeling.verify, params, shape, moved) == _same(params, shape, *_labels(moved))
        assert labeling.verify(params, moved_shape, moved) == _same(params, moved_shape, *_labels(moved))
        _same(params, shape, *_duplicate_vertex(params, lab, rng))
        assert _same(params, shape, *_out_of_range(params, shape, lab, rng)[1])[0] is InvalidElementError
        for bad in _hand_built(params, lab):
            _same(params, shape, *bad)
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


@st.composite
def _role_maps(draw):
    """A random labeling of a random shape on one of GROUPS: a role map
    that gives s1, s2, s3 and the hair roles to a random order of the
    elements.  Most are not rainbow."""
    params = GroupParams(*draw(st.sampled_from(GROUPS)))
    n = params.order
    h1 = draw(st.integers(0, n - 3))
    h2 = draw(st.integers(0, n - 3 - h1))
    shape = labeling.make_shape(params, (h1, h2, n - 3 - h1 - h2))
    roles = bytearray(n)
    codes = [1, 2, 3] + [c for c, h in zip((4, 5, 6), shape.h) for _ in range(h)]
    for code, v in zip(codes, draw(st.permutations(range(n)))):
        roles[v] = code
    return params, shape, Labeling(params, bytes(roles))


@settings(max_examples=150, deadline=None)
@given(_role_maps())
def test_role_map_views_and_round_trip(case):
    """The hair views are sorted and with the spine cover the role map's
    classes; verify_labels on the views is verify on the Labeling and
    reference_verify; the JSON round trip gives the Labeling back."""
    params, shape, lab = case
    views = _labels(lab)
    assert all(cells == sorted(cells) for cells in views[1:])
    assert [labeling.ROLES[lab.role_map[v] - 1] for v in lab.vertices()] == list(lab.roles())
    assert lab.roles() == labeling.SPINE_ROLES + sum(((r,) * h for r, h in zip(HAIR_ROLES, shape.h)), ())
    report = labeling.verify(params, shape, lab)
    assert labeling.verify_labels(params, shape, *views) == report == reference_verify(params, shape, *views)
    read = labeling.labeling_from_dict(json.loads(labeling.labeling_to_json(params, shape, lab)))
    assert read[:2] == (params, shape)
    assert labeling.make_labeling(params, *read[2:]) == lab


def _json_values(ints):
    floats = st.floats(allow_nan=False, allow_infinity=False)
    leaves = st.none() | st.booleans() | ints | floats | st.text(max_size=3)
    # keys avoid "p", "k" and "h", so no drawn dict is read as a group or shape
    return st.recursive(
        leaves,
        lambda children: (
            st.lists(children, max_size=4) | st.dictionaries(st.text("abxyz", max_size=2), children, max_size=3)
        ),
        max_leaves=8,
    )


def _paths(node, path=()):
    """Every key and list index of a JSON document, as paths from its root."""
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


# rbcheck computes p ** k before any bound, so group.p and group.k stay small.
_SMALL = _json_values(st.integers(-3, 12))
_ANY = _json_values(st.integers(-3, 12) | st.sampled_from([2**64, -2**70, 10**30]))
_PAYLOADS = [
    labeling.labeling_to_json(params, shape, constructor.construct(params, shape))
    for params, shape in (
        (GroupParams(p, k), labeling.make_shape(GroupParams(p, k), h))
        for p, k, h in ((2, 3, (0, 1, 4)), (3, 2, (1, 3, 2)), (5, 2, (3, 5, 14)), (2, 4, (2, 3, 8)))
    )
]
_PAYLOAD_PATHS = [list(_paths(json.loads(text))) for text in _PAYLOADS]


def _verify_cli(text):
    """rainbowcat verify on the text as stdin, in process."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_exit_code_follows_rbcheck(data):
    """A valid payload with one key or list entry replaced by a JSON value
    or deleted: verify exits 0 (with rbcheck's missing label) exactly when
    rbcheck accepts it, 1 with an invalid line, or 2 with one parse error
    line."""
    i = data.draw(st.integers(0, len(_PAYLOADS) - 1))
    doc = json.loads(_PAYLOADS[i])
    path = data.draw(st.sampled_from(_PAYLOAD_PATHS[i]))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_SMALL if path[0] == "group" else _ANY)
    text = json.dumps(doc)
    code, out, err = _verify_cli(text)
    verdict = rbcheck.check_payload(json.loads(text))
    assert code in (0, 1, 2)
    assert (code == 0) == verdict.ok, (text, out, err, verdict)
    if code == 0:
        assert out == "valid missing=(%s)\n" % ",".join(map(str, verdict.missing))
    elif code == 1:
        assert out.startswith("invalid")
    else:
        assert (out, err.count("\n"), err[:13]) == ("", 1, "parse error: ")
