"""constructor._realize, which writes a plan into a role map one strided
coset at a time, against testkit.reference_realize, which places every cell
by itself on cosets built in tuple arithmetic.

The plans are the ones build picks for a seeded sample of shapes on the
groups of the label-recipes and label-corners benchmark workloads: the
recipes at p >= 5, reflected plans, the plans of empty-X twins and the block
menus at p in {2, 3}.  Plans of the block menus on models outside the top
coordinates, which only oracle.search(models=...) places, cover the listed
coset layout.
"""

import random

import pytest

from rainbowcat import constructor, group, labeling, oracle
from rainbowcat.group import GroupParams
from testkit import naive_models, reference_realize

RECIPE_GROUPS = [(2, 7), (2, 8), (3, 4), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)]
CORNER_GROUPS = [(5, 2), (7, 2), (11, 2)]
PER_GROUP = 100


def _feasible(params, shape):
    return constructor.feasibility(params, shape).feasible


def _random_shapes(params, rng):
    """PER_GROUP feasible shapes, each drawn uniformly over all shapes."""
    n = params.order - 3
    out = []
    while len(out) < PER_GROUP:
        h1, h2 = rng.randint(0, n), rng.randint(0, n)
        if h1 + h2 <= n:
            shape = labeling.make_shape(params, (h1, h2, n - h1 - h2))
            if _feasible(params, shape):
                out.append(shape)
    return out


def _is_corner(params, shape):
    """Empty-X corners, and residue sum 2p-3 with beta below alpha and gamma
    (the parity and beta_neg plans, reflected when alpha < gamma)."""
    a, b, g = labeling.residues(params, shape)
    if constructor.empty_x_twin(params, shape) is not None:
        return True
    return a + b + g == 2 * params.p - 3 and b < min(a, g)


def _corner_shapes(params, rng):
    corners = [
        s for s in oracle.all_shapes(params) if _feasible(params, s) and _is_corner(params, s)
    ]
    return rng.sample(corners, min(PER_GROUP, len(corners)))


CASES = [
    pytest.param(GroupParams(p, k), sample, id=f"{name}-Z{p}^{k}")
    for name, sample, groups in (
        ("recipes", _random_shapes, RECIPE_GROUPS),
        ("corners", _corner_shapes, CORNER_GROUPS),
    )
    for p, k in groups
]


def _plans(params, sample):
    """(shape the plan was made for, empty-X twin or None, plan) per shape
    of the group's seeded sample."""
    rng = random.Random(f"realize/{params.p}/{params.k}/{sample.__name__}")
    for shape in sample(params, rng):
        twin, plan, _ = constructor.build(params, shape)
        yield twin or shape, twin, plan


@pytest.mark.parametrize("params, sample", CASES)
def test_realize_matches_cell_by_cell(params, sample):
    for target, _, plan in _plans(params, sample):
        assert constructor._realize(params, target, plan) == reference_realize(
            params, target, plan
        ), (target.h, plan)


def test_sample_covers_every_plan_kind():
    """The sample reaches each kind of plan that _realize places: block
    menus, reflected plans, empty-X twins and plans with mixed blocks."""
    kinds = set()
    for params, sample in (case.values for case in CASES):
        for _, twin, plan in _plans(params, sample):
            kinds |= {"menus"} if params.p in (2, 3) else set()
            kinds |= {"reflected"} if plan.reflected else set()
            kinds |= {"twin"} if twin is not None else set()
            kinds |= {"mixed"} if plan.mixed else set()
    assert kinds == {"menus", "reflected", "twin", "mixed"}


LISTED_GROUPS = [(2, 4), (3, 2), (3, 3), (5, 2)]


def _listed_plans(params):
    """Block-menu plans on a seeded sample of the models of naive_models
    whose span is a proper subgroup other than the top coordinates'."""
    rng = random.Random(f"listed/{params.p}/{params.k}")
    n, shapes, models = params.order, oracle.all_shapes(params), []
    for a, b in sorted(set(naive_models(params))):
        size = len(group.span(params, [a, b]))
        if size < n and (a % (n // size) or b % (n // size)):
            models.append((a, b))
    for a, b in rng.sample(models, min(20, len(models))):
        for shape in rng.sample(shapes, min(10, len(shapes))):
            plan = constructor._block_plan(params, shape, a, b)
            if plan is not None:
                yield shape, plan


@pytest.mark.parametrize(
    "params", [GroupParams(p, k) for p, k in LISTED_GROUPS], ids=[f"Z{p}^{k}" for p, k in LISTED_GROUPS]
)
def test_listed_layout_matches_cell_by_cell(params):
    plans = list(_listed_plans(params))
    assert len(plans) >= 20
    for shape, plan in plans:
        assert constructor._realize(params, shape, plan) == reference_realize(params, shape, plan), (
            shape.h, plan
        )
