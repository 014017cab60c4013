"""Shapes, the partition/labeling correspondence, the verifier, forbidden
assignments, symmetry transforms, and the JSON schema."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from rainbowcat import constructor, labeling, oracle
from rainbowcat.errors import InvalidShapeError, PartitionShapeMismatchError, RainbowError
from rainbowcat.group import GroupParams
from rainbowcat.labeling import HAIR_ROLES, S1, S2, S3, SPINE_ROLES, X, Y, Z
from testkit import (
    ModelMismatchError,
    TupleGroup,
    apply_automorphism,
    check_forbidden,
    elements,
    reflect,
    role_classes,
    translate,
    zero,
)


def _feasible_labelings(pairs=((3, 2), (2, 3))):
    """Constructed labelings for every feasible shape at the given (p,k)."""
    out = []
    for p, k in pairs:
        params = GroupParams(p, k)
        for shape in oracle.all_shapes(params):
            if constructor.feasibility(params, shape).feasible:
                out.append((params, shape, constructor.construct(params, shape)))
    return out


VALID = _feasible_labelings()


class TestShape:
    def test_residue_examples(self):
        assert labeling.residues(GroupParams(5, 2), labeling.Shape((0, 3, 19))) == (0, 3, 4)
        assert labeling.residues(GroupParams(3, 2), labeling.Shape((1, 3, 2))) == (1, 0, 2)
        assert labeling.residues(GroupParams(2, 3), labeling.Shape((2, 1, 2))) == (0, 1, 0)

    def test_make_shape_rejects_bad_sum(self):
        with pytest.raises(InvalidShapeError):
            labeling.make_shape(GroupParams(3, 2), (1, 1, 1))

    def test_make_shape_rejects_negative(self):
        with pytest.raises(InvalidShapeError):
            labeling.make_shape(GroupParams(3, 2), (-1, 3, 4))

    def test_make_shape_rejects_tiny_group(self):
        with pytest.raises(InvalidShapeError):
            labeling.make_shape(GroupParams(2, 1), (0, 0, 0))

    def test_residue_sum_identity(self):
        for params, shape, _ in VALID:
            r = labeling.residues(params, shape)
            assert sum(r) % params.p == (params.p - 3) % params.p


@pytest.mark.parametrize(
    "value, field",
    [
        (labeling.Shape((1, 3, 2)), "h"),
        (VALID[0][2], "x_ix"),
        (VALID[0][2], "spine"),
        (constructor.plan_components(GroupParams(5, 2), labeling.Shape((3, 5, 14))), "patterns"),
    ],
    ids=["Shape.h", "Labeling.x_ix", "Labeling.spine", "ComponentPlan.patterns"],
)
def test_values_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = None


class TestPartitionCorrespondence:
    def test_p2_example(self):
        params = GroupParams(2, 2)
        part = {(1, 0): S1, (0, 0): S2, (0, 1): S3, (1, 1): Y}
        shape = labeling.make_shape(params, (0, 1, 0))
        lab = labeling.partition_to_labeling(params, shape, role_classes(params, part))
        assert lab.spine == ((1, 0), (0, 0), (0, 1))
        assert lab.y == ((1, 1),)

    def test_roundtrip_on_valid_labelings(self):
        # the role classes read from a labeling give the same labeling back
        for params, shape, lab in VALID:
            part = {role: [] for role in SPINE_ROLES + HAIR_ROLES}
            for v, role in zip(lab.vertices(), lab.roles()):
                part[role].append(v)
            assert labeling.partition_to_labeling(params, shape, part) == lab

    @pytest.mark.parametrize("s1", [[], [1, 2]], ids=["empty", "two-cells"])
    def test_spine_class_needs_one_cell(self, s1):
        params = GroupParams(2, 2)
        shape = labeling.make_shape(params, (0, 1, 0))
        part = {S1: s1, S2: [0], S3: [1], X: [], Y: [3], Z: []}
        with pytest.raises(PartitionShapeMismatchError):
            labeling.partition_to_labeling(params, shape, part)

    def test_hair_classes_come_out_sorted(self):
        params = GroupParams(3, 2)
        shape = labeling.make_shape(params, (2, 3, 1))
        part = {S1: [3], S2: [0], S3: [6], X: [8, 1], Y: [7, 5, 2], Z: [4]}
        lab = labeling.partition_to_labeling(params, shape, part)
        assert lab == labeling.Labeling(params, (3, 0, 6), (1, 8), (2, 5, 7), (4,))

    def test_size_mismatch(self):
        params = GroupParams(2, 2)
        part = {(1, 0): S1, (0, 0): S2, (0, 1): S3, (1, 1): Y}
        shape = labeling.make_shape(params, (1, 0, 0))
        with pytest.raises(PartitionShapeMismatchError):
            labeling.partition_to_labeling(params, shape, role_classes(params, part))


class TestVerify:
    def test_constructed_labelings_are_valid(self):
        for params, shape, lab in VALID:
            assert labeling.verify(params, shape, lab).valid

    def test_duplicate_edge_hand_case(self):
        # spine 1,0,2 with hairs x=3, z=4: edge labels 4+... collide (1 twice)
        params = GroupParams(5, 1)
        shape = labeling.make_shape(params, (1, 0, 1))
        lab = labeling.make_labeling(params, (1, 0, 2), [3], [], [4])
        report = labeling.verify(params, shape, lab)
        assert not report.valid
        assert report.duplicate_edge is not None
        assert report == labeling.VerifyReport(False, None, ((1, 0), (2, 4)), None)

    def test_duplicate_vertex(self):
        params = GroupParams(5, 1)
        shape = labeling.make_shape(params, (1, 0, 1))
        lab = labeling.make_labeling(params, (1, 0, 2), [1], [], [4])
        report = labeling.verify(params, shape, lab)
        assert not report.valid
        assert report.duplicate_vertex is not None
        assert report == labeling.VerifyReport(
            False, ("spine1", "hair x (1,)"), ((0, 2), (1, 1)), None
        )

    def test_hair_counts_must_match_shape(self):
        # a rainbow labeling of (2,5,15) declared as (3,5,14): a bijection
        # with distinct edge sums, but not a caterpillar of that shape
        params = GroupParams(5, 2)
        lab = constructor.construct(params, labeling.make_shape(params, (2, 5, 15)))
        with pytest.raises(PartitionShapeMismatchError):
            labeling.verify(params, labeling.make_shape(params, (3, 5, 14)), lab)

    def test_missing_edge_label_matches_set_difference(self):
        for params, shape, lab in VALID:
            report = labeling.verify(params, shape, lab)
            assert report.missing_edge_label == labeling.missing_edge_label(params, shape, lab.spine_ix)

    def test_missing_is_zero_at_p2(self):
        # coefficients h1, h2+1, h3 all vanish mod 2 on feasible p=2 shapes
        for params, shape, lab in VALID:
            if params.p == 2:
                assert labeling.missing_edge_label(params, shape, lab.spine_ix) == 0


class TestCheckForbidden:
    def test_x_at_b_minus_a(self):
        params = GroupParams(3, 2)
        a, b = (1, 0), (0, 1)
        bad = TupleGroup(params).sub(b, a)
        part = {a: S1, zero(params): S2, b: S3, bad: X}
        out = check_forbidden(params, (a, b), part)
        assert ("x=b-a", bad) in out

    def test_all_y_partition_clean(self):
        params = GroupParams(3, 2)
        a, b = (1, 0), (2, 0)
        part = {a: S1, zero(params): S2, b: S3}
        for e in elements(params):
            if e not in part:
                part[e] = Y
        assert check_forbidden(params, (a, b), part) == []

    def test_model_mismatch(self):
        params = GroupParams(3, 2)
        part = {(0, 1): S1, zero(params): S2, (0, 2): S3}
        with pytest.raises(ModelMismatchError):
            check_forbidden(params, ((1, 0), (2, 0)), part)


class TestTransforms:
    def test_translate_zero_is_identity(self):
        for params, _, lab in VALID[:5]:
            assert translate(params, lab, zero(params)) == lab

    def test_translate_to_model_form(self):
        params, shape, lab = VALID[0]
        tg = TupleGroup(params)
        a1, a2, a3 = lab.spine
        shifted = translate(params, lab, tg.neg(a2))
        assert shifted.spine == (
            tg.sub(a1, a2),
            zero(params),
            tg.sub(a3, a2),
        )

    def test_reflect_involution_and_shape(self):
        for params, shape, lab in VALID[:5]:
            assert reflect(params, reflect(params, lab)) == lab
        params, shape, lab = next(v for v in VALID if v[1].h[0] != v[1].h[2])
        r = reflect(params, lab)
        rshape = labeling.make_shape(params, shape.h[::-1])
        assert labeling.verify(params, rshape, r).valid

    def test_transforms_preserve_validity(self):
        rng = random.Random(7)
        for _ in range(100):
            params, shape, lab = rng.choice(VALID)
            c = rng.choice(elements(params))
            assert labeling.verify(params, shape, translate(params, lab, c)).valid

    def test_automorphism_identity_and_swap(self):
        params, shape, lab = next(v for v in VALID if v[0].k == 2)
        ident = [[1, 0], [0, 1]]
        assert apply_automorphism(params, lab, ident) == lab
        swap = [[0, 1], [1, 0]]
        out = apply_automorphism(params, lab, swap)
        assert labeling.verify(params, shape, out).valid

    def test_automorphism_composition(self):
        params, shape, lab = next(v for v in VALID if v[0] == GroupParams(3, 2))
        m1, m2 = [[1, 1], [0, 1]], [[2, 0], [1, 1]]
        lhs = apply_automorphism(params, apply_automorphism(params, lab, m1), m2)
        prod = [
            [sum(m2[i][t] * m1[t][j] for t in range(2)) % 3 for j in range(2)]
            for i in range(2)
        ]
        assert lhs == apply_automorphism(params, lab, prod)

    def test_singular_matrix_rejected(self):
        params, shape, lab = next(v for v in VALID if v[0].k == 2)
        with pytest.raises(ValueError):
            apply_automorphism(params, lab, [[1, 1], [1, 1]] if params.p == 2 else [[1, 2], [2, 4]])


class TestJsonSchema:
    def test_roundtrip(self):
        for params, shape, lab in VALID:
            data = json.loads(labeling.labeling_to_json(params, shape, lab))
            p2, s2, l2 = labeling.labeling_from_dict(data)
            assert (p2, s2, l2) == (params, shape, lab)

    def test_schema_fields(self):
        params, shape, lab = VALID[0]
        data = json.loads(labeling.labeling_to_json(params, shape, lab))
        assert set(data) == {"group", "shape", "spine", "hairs"}
        assert data["group"] == {"p": params.p, "k": params.k}
        assert data["shape"] == {"h": list(shape.h)}
        for role in (X, Y, Z):
            arrs = data["hairs"][role]
            assert arrs == sorted(arrs)

    def test_malformed_payload(self):
        with pytest.raises(RainbowError):
            labeling.labeling_from_dict({"group": {"p": 3}})
