"""Exhaustive search engine: canonical models, budgets, tables."""

import itertools

import pytest

from rainbowcat import constructor, labeling, oracle
from rainbowcat.errors import OrderLimitError
from rainbowcat.group import GroupParams
from testkit import enumerate_table, index, model_param, naive_models, role_classes, tuple_models


class TestCanonicalModels:
    def test_counts(self):
        assert len(constructor.canonical_models(GroupParams(5, 2))) == 4
        for params, models in (
            (GroupParams(2, 2), [((1, 0), (0, 1))]),
            (GroupParams(3, 1), [((1,), (2,))]),
        ):
            assert tuple_models(params, constructor.canonical_models(params)) == models

    def test_naive_models_count(self):
        params = GroupParams(2, 2)
        assert len(naive_models(params)) == 4 * 3 * 2


class TestSearch:
    def test_p2_all_shapes(self):
        params = GroupParams(2, 2)
        outcomes = {
            tuple(s.h): oracle.search(params, s).outcome for s in oracle.all_shapes(params)
        }
        assert outcomes == {
            (0, 0, 1): oracle.INFEASIBLE,
            (0, 1, 0): oracle.FOUND,
            (1, 0, 0): oracle.INFEASIBLE,
        }

    def test_p3_examples(self):
        params = GroupParams(3, 2)
        assert oracle.search(params, labeling.make_shape(params, (0, 1, 5))).outcome == oracle.INFEASIBLE
        v = oracle.search(params, labeling.make_shape(params, (1, 3, 2)))
        assert v.outcome == oracle.FOUND
        assert labeling.verify(params, labeling.make_shape(params, (1, 3, 2)), v.labeling).valid

    def test_found_always_verifies(self):
        params = GroupParams(3, 2)
        for shape in oracle.all_shapes(params):
            v = oracle.search(params, shape)
            if v.outcome == oracle.FOUND:
                assert labeling.verify(params, shape, v.labeling).valid

    def test_budget_exhaustion(self):
        # the cyclic models are decided per coset; (e1, e2) needs more than
        # 10 whole-group nodes on this shape
        params = GroupParams(5, 2)
        shape = labeling.make_shape(params, (9, 1, 12))
        v = oracle.search(params, shape, oracle.SearchBudget(node_limit=10))
        assert v.outcome == oracle.BUDGETED
        assert v.labeling is None
        # exactly the limit: no node is counted while the search unwinds
        assert v.nodes == 10

    def test_node_limit_counts_each_descent_once(self):
        # the search descends node_limit times; every later tick reports the
        # budget gone and counts nothing
        params = GroupParams(5, 2)
        shape = labeling.make_shape(params, (9, 1, 12))
        a, b = constructor.canonical_models(params)[-1]
        for limit in (1, 10, 57):
            budget = oracle._Budget(oracle.SearchBudget(node_limit=limit))
            tick, descents = budget.tick, []

            def counting_tick():
                gone = tick()
                if not gone:
                    descents.append(budget.nodes)
                return gone

            budget.tick = counting_tick
            assert oracle._search_model(params, shape, a, b, budget) is None
            assert budget.exhausted and budget.nodes == limit
            assert descents == list(range(1, limit + 1))

    def test_models_tried(self):
        params = GroupParams(3, 2)
        models = tuple(constructor.canonical_models(params))
        # (1,3,2) is realized by the last model, (0,1,5) by none
        for h in ((1, 3, 2), (0, 1, 5)):
            v = oracle.search(params, labeling.make_shape(params, h))
            assert v.models_tried == models
        v = oracle.search(params, labeling.make_shape(params, (1, 3, 2)), models=models[::-1])
        assert v.outcome == oracle.FOUND and v.models_tried == (models[-1],)

    def test_verdict_is_immutable(self):
        params = GroupParams(3, 2)
        v = oracle.search(params, labeling.make_shape(params, (1, 3, 2)))
        for field in oracle.OracleVerdict._fields:
            with pytest.raises(AttributeError):
                setattr(v, field, getattr(v, field))
        assert oracle.OracleVerdict(oracle.INFEASIBLE).models_tried == ()

    def test_infeasible_stable_under_model_order(self):
        params = GroupParams(3, 2)
        shape = labeling.make_shape(params, (0, 1, 5))
        models = constructor.canonical_models(params)
        for ms in (models, models[::-1]):
            assert oracle.search(params, shape, models=ms).outcome == oracle.INFEASIBLE


def _rainbow_counts(params, a, b):
    """Role counts of every rainbow role assignment of the model [a,0,b],
    by trying all 3^n assignments of the free cells against the verifier."""
    free = [v for v in range(params.order) if v not in (0, a, b)]
    counts = set()
    for roles in itertools.product(labeling.HAIR_ROLES, repeat=len(free)):
        h = tuple(roles.count(r) for r in labeling.HAIR_ROLES)
        if h in counts:
            continue
        shape = labeling.make_shape(params, h)
        part = {a: labeling.S1, 0: labeling.S2, b: labeling.S3}
        part.update(zip(free, roles))
        lab = labeling.partition_to_labeling(params, shape, role_classes(params, part))
        if labeling.verify(params, shape, lab).valid:
            counts.add(h)
    return counts


def _canonical_model_params():
    for p, k in ((2, 3), (3, 2), (7, 1)):
        params = GroupParams(p, k)
        for a, b in constructor.canonical_models(params):
            yield model_param(params, a, b)


@pytest.mark.parametrize("params, a, b", _canonical_model_params())
def test_search_model_matches_brute_force(params, a, b):
    rainbow = _rainbow_counts(params, a, b)
    assert rainbow
    for shape in oracle.all_shapes(params):
        plan = oracle._search_model(params, shape, a, b, oracle._Budget(None))
        assert (plan is not None) == (shape.h in rainbow), shape.h
        if plan is not None:
            lab = constructor._realize(params, shape, plan)
            assert labeling.verify(params, shape, lab).valid, shape.h
        # search's decision of the single model, missing-label prune included
        verdict = oracle.search(params, shape, models=[(a, b)])
        assert (verdict.outcome == oracle.FOUND) == (shape.h in rainbow), shape.h
    ta, tb = params.element(a), params.element(b)
    for h1, _, h3 in rainbow:
        # the prune never fires on a realizable model
        missing = tuple(-(h1 * x + h3 * y) % params.p for x, y in zip(ta, tb))
        assert missing not in (ta, tb)


def _decision_cases():
    for p, k in ((2, 3), (2, 4), (3, 2), (5, 2)):
        params = GroupParams(p, k)
        for a, b in constructor.canonical_models(params):
            yield model_param(params, a, b)
    # the cyclic model of Z_3^3 costs 14.5 M whole-group nodes; left out
    z33 = GroupParams(3, 3)
    yield model_param(z33, index(z33, (1, 0, 0)), index(z33, (0, 1, 0)))


@pytest.mark.parametrize("params, a, b", _decision_cases())
def test_model_decision_matches_search_model(params, a, b):
    for shape in oracle.all_shapes(params):
        verdict = oracle.search(params, shape, models=[(a, b)])
        plan = oracle._search_model(params, shape, a, b, oracle._Budget(None))
        assert (verdict.outcome == oracle.FOUND) == (plan is not None), shape.h
        if verdict.outcome == oracle.FOUND:
            assert labeling.verify(params, shape, verdict.labeling).valid, shape.h


def test_search_model_recursion_at_order_limit():
    # Z_2^9 has order 512 = MAX_ORDER; the all-Y shape is found on the
    # first descent, 509 recursion levels deep
    params = GroupParams(2, 9)
    shape = labeling.make_shape(params, (0, 509, 0))
    a, b = constructor.canonical_models(params)[0]
    budget = oracle._Budget(oracle.SearchBudget(node_limit=600))
    plan = oracle._search_model(params, shape, a, b, budget)
    assert plan is not None
    assert budget.nodes == 509
    lab = constructor._realize(params, shape, plan)
    assert labeling.verify(params, shape, lab).valid


def test_z7_3_refused_before_menu_search(monkeypatch):
    # the block menus of the model (e1, e2) of Z_7^3 cover 49 cells, a
    # search no budget counts; check_order refuses the group before it
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a block menu")

    monkeypatch.setattr(constructor, "_component_patterns", refuse)
    params = GroupParams(7, 3)
    budget = oracle.SearchBudget(timeout_ms=1000, node_limit=1000)
    with pytest.raises(OrderLimitError):
        oracle.search(params, labeling.make_shape(params, (6, 0, 334)), budget)


def test_z5_3_row_decided():
    # a row of Z_5^3 still goes through the 25-cell menus of (e1, e2)
    params = GroupParams(5, 3)
    row = oracle.table_row(params, labeling.make_shape(params, (9, 1, 112)))
    assert (row["predicate"], row["oracle"], row["agree"]) == ("infeasible:E3_Y1", oracle.INFEASIBLE, True)


class TestShapesAndTable:
    def test_all_shapes_counts(self):
        assert len(oracle.all_shapes(GroupParams(2, 2))) == 3
        assert len(oracle.all_shapes(GroupParams(3, 2))) == 28
        assert len(oracle.all_shapes(GroupParams(5, 2))) == 276

    def test_all_shapes_lexicographic(self):
        shapes = [s.h for s in oracle.all_shapes(GroupParams(3, 2))]
        assert shapes == sorted(shapes)

    def test_table_2_3(self):
        rows = list(enumerate_table(GroupParams(2, 3)))
        assert len(rows) == 21
        feasible = [r for r in rows if r["oracle"] == "found"]
        assert len(feasible) == 6
        assert all(r["agree"] is True for r in rows)
        for r in feasible:
            h1, h2, h3 = r["h"]
            assert h1 % 2 == 0 and h3 % 2 == 0 and h2 % 2 == 1

    def test_row_schema(self):
        row = oracle.table_row(GroupParams(2, 2), labeling.make_shape(GroupParams(2, 2), (0, 1, 0)))
        assert set(row) == {"h", "predicate", "oracle", "agree", "nodes", "ms"}
        assert row["predicate"] == "feasible"
        assert row["oracle"] == "found"
