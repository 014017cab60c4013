"""Acceptance suite: fifteen end-to-end criteria, one test (and one pass/fail
line under pytest -v) each.  Runtime bounds are asserted where stated."""

import itertools
import random
import time

import pytest

from rainbowcat import constructor, group, labeling, oracle
from rainbowcat.group import GroupParams
from rainbowcat.labeling import HAIR_ROLES, S1, S2, S3, X, Y, Z
from testkit import (
    TupleGroup,
    apply_automorphism,
    check_forbidden,
    elements,
    enumerate_table,
    matrix_is_invertible,
    naive_models,
    role_classes,
    translate,
    tuple_models,
    zero,
)


def _full_table(p, k):
    params = GroupParams(p, k)
    return params, list(enumerate_table(params))


def _checked_table(p, k, monkeypatch):
    """Full table of Z_p^k; every labeling the oracle finds must verify."""
    params = GroupParams(p, k)
    search = oracle.search

    def verified_search(params, shape, budget=None):
        verdict = search(params, shape, budget)
        if verdict.outcome == oracle.FOUND:
            assert labeling.verify(params, shape, verdict.labeling).valid, shape.h
        return verdict

    monkeypatch.setattr(oracle, "search", verified_search)
    return params, list(enumerate_table(params))


def _constructed_pool(pairs):
    pool = []
    for p, k in pairs:
        params = GroupParams(p, k)
        for shape in oracle.all_shapes(params):
            if constructor.feasibility(params, shape).feasible:
                pool.append((params, shape, constructor.construct(params, shape)))
    return pool


def test_criterion_1_full_table_agreement_2_2():
    start = time.monotonic()
    params, rows = _full_table(2, 2)
    assert len(rows) == 3
    assert all(r["agree"] is True for r in rows)
    feasible = [tuple(r["h"]) for r in rows if r["oracle"] == "found"]
    assert feasible == [(0, 1, 0)]
    assert time.monotonic() - start < 1.0


def test_criterion_2_full_table_agreement_2_3():
    start = time.monotonic()
    params, rows = _full_table(2, 3)
    assert len(rows) == 21
    assert all(r["agree"] is True for r in rows)
    feasible = {tuple(r["h"]) for r in rows if r["oracle"] == "found"}
    expected = {
        (h1, h2, h3)
        for h1, h2, h3 in (tuple(r["h"]) for r in rows)
        if h1 % 2 == 0 and h3 % 2 == 0 and h2 % 2 == 1
    }
    assert feasible == expected and len(feasible) == 6
    assert time.monotonic() - start < 10.0


def test_criterion_3_full_table_agreement_3_2():
    start = time.monotonic()
    params, rows = _full_table(3, 2)
    assert len(rows) == 28
    assert all(r["agree"] is True for r in rows)
    for r in rows:
        shape = labeling.make_shape(params, r["h"])
        v = constructor.feasibility(params, shape)
        if v.feasible:
            lab = constructor.construct(params, shape)
            assert labeling.verify(params, shape, lab).valid
        else:
            assert v.exception in ("P3_E1", "P3_E2")
            a, g = shape.h[0] % 3, shape.h[2] % 3
            if v.exception == "P3_E1":
                assert (a, g) in ((0, 2), (2, 0))
            else:
                assert shape.h[1] == 0 and (a, g) in ((1, 2), (2, 1))
    assert time.monotonic() - start < 60.0


def test_criterion_4_construction_soundness_5_2():
    start = time.monotonic()
    params = GroupParams(5, 2)
    shapes = oracle.all_shapes(params)
    assert len(shapes) == 276
    for shape in shapes:
        v = constructor.feasibility(params, shape)
        if v.feasible:
            lab = constructor.construct(params, shape)
            assert labeling.verify(params, shape, lab).valid, shape.h
        else:
            assert v.exception in ("E1_beta_pm2", "E2_Y0", "E3_Y1"), shape.h
    # oracle confirmation for the three infeasible representatives,
    # under a shared budget; Budgeted outcomes are reported, not failures
    budget = oracle.SearchBudget(timeout_ms=600_000)
    for h in ((0, 3, 19), (4, 0, 18), (9, 1, 12)):
        verdict = oracle.search(params, labeling.make_shape(params, h), budget)
        assert verdict.outcome in (oracle.INFEASIBLE, oracle.BUDGETED)
        assert verdict.outcome != oracle.FOUND
    assert time.monotonic() - start < 1800.0


def test_criterion_5_fa_equivalence_exhaustive_3_2():
    start = time.monotonic()
    params = GroupParams(3, 2)
    free_template = [e for e in elements(params)]
    for a, b in tuple_models(params, constructor.canonical_models(params)):
        free = [e for e in free_template if e not in (zero(params), a, b)]
        for roles in itertools.product(HAIR_ROLES, repeat=len(free)):
            part = {a: S1, zero(params): S2, b: S3}
            part.update(zip(free, roles))
            counts = (roles.count(X), roles.count(Y), roles.count(Z))
            shape = labeling.make_shape(params, counts)
            lab = labeling.partition_to_labeling(params, shape, role_classes(params, part))
            fa_clean = check_forbidden(params, (a, b), part) == []
            assert fa_clean == labeling.verify(params, shape, lab).valid, (a, b, roles)
    assert time.monotonic() - start < 60.0


def test_criterion_6_structural_invariants_3_2():
    start = time.monotonic()
    params = GroupParams(3, 2)
    tg = TupleGroup(params)
    e1, e2 = (1, 0), (0, 1)
    for a, b in (((1, 0), (2, 0)), (e1, e2)):
        in_span = b in tg.span([a])
        subgroup = tg.span([a, b])
        regular = tg.cosets(subgroup)[1:]
        free = [e for e in elements(params) if e not in (zero(params), a, b)]
        for roles in itertools.product(HAIR_ROLES, repeat=len(free)):
            part = {a: S1, zero(params): S2, b: S3}
            part.update(zip(free, roles))
            counts = (roles.count(X), roles.count(Y), roles.count(Z))
            shape = labeling.make_shape(params, counts)
            lab = labeling.partition_to_labeling(params, shape, role_classes(params, part))
            if not labeling.verify(params, shape, lab).valid:
                continue
            if in_span:
                # each regular component carries all three roles or only one
                for comp in regular:
                    present = {part[v] for v in comp}
                    assert len(present) in (1, 3), (a, b, comp, present)
            else:
                # independent spine generators force at least p-1 Y labels
                assert counts[1] >= params.p - 1, (counts, roles)
    assert time.monotonic() - start < 60.0


def test_criterion_7_invariance_1000_trials():
    pool = _constructed_pool(((2, 2), (2, 3), (3, 2)))
    rng = random.Random(20260823)
    for _ in range(1000):
        params, shape, lab = rng.choice(pool)
        c = rng.choice(elements(params))
        assert labeling.verify(params, shape, translate(params, lab, c)).valid
    for _ in range(1000):
        params, shape, lab = rng.choice(pool)
        mirror = labeling.make_shape(params, shape.h[::-1])
        assert labeling.verify(params, mirror, labeling.reflect(params, lab)).valid
    for _ in range(1000):
        params, shape, lab = rng.choice(pool)
        while True:
            M = [
                [rng.randrange(params.p) for _ in range(params.k)]
                for _ in range(params.k)
            ]
            if matrix_is_invertible(M, params.p):
                break
        assert labeling.verify(params, shape, apply_automorphism(params, lab, M)).valid


def test_criterion_8_missing_label_closed_form():
    # exact agreement of the double-count formula with the set difference on
    # every valid labeling produced at the four table sizes
    pool = _constructed_pool(((2, 2), (2, 3), (3, 2), (5, 2)))
    assert pool
    for params, shape, lab in pool:
        report = labeling.verify(params, shape, lab)
        assert report.valid
        assert labeling.missing_edge_label(params, shape, lab.spine_ix) == report.missing_edge_label


def test_criterion_9_symmetry_breaking_validation():
    start = time.monotonic()
    for p, k in ((2, 2), (3, 2)):
        params = GroupParams(p, k)
        for shape in oracle.all_shapes(params):
            canonical = oracle.search(params, shape)
            naive = oracle.search(params, shape, models=naive_models(params))
            assert canonical.outcome == naive.outcome, shape.h
    assert time.monotonic() - start < 300.0


def test_criterion_10_full_table_agreement_2_4(monkeypatch):
    start = time.monotonic()
    params, rows = _checked_table(2, 4, monkeypatch)
    assert len(rows) == 105
    assert all(r["agree"] is True for r in rows)
    for r in rows:
        assert r["oracle"] in (oracle.FOUND, oracle.INFEASIBLE)
        if r["oracle"] == oracle.INFEASIBLE:
            assert r["predicate"] == "infeasible:P2_parity", r["h"]
    assert time.monotonic() - start < 60.0


def test_criterion_11_full_table_agreement_5_2(monkeypatch):
    start = time.monotonic()
    params, rows = _checked_table(5, 2, monkeypatch)
    assert len(rows) == 276
    assert all(r["agree"] is True for r in rows)
    infeasible = [r for r in rows if r["oracle"] == oracle.INFEASIBLE]
    assert len(infeasible) == 36
    assert len(rows) - len(infeasible) == sum(r["oracle"] == oracle.FOUND for r in rows)
    for r in infeasible:
        assert r["predicate"] in (
            "infeasible:E1_beta_pm2",
            "infeasible:E2_Y0",
            "infeasible:E3_Y1",
        ), r["h"]
    assert time.monotonic() - start < 300.0


def _assert_infeasible_families(rows, families):
    for r in rows:
        assert r["oracle"] in (oracle.FOUND, oracle.INFEASIBLE)
        if r["oracle"] == oracle.INFEASIBLE:
            assert r["predicate"] in families, r["h"]


def test_criterion_12_full_table_agreement_2_5(monkeypatch):
    start = time.monotonic()
    params, rows = _checked_table(2, 5, monkeypatch)
    assert len(rows) == 465
    assert all(r["agree"] is True for r in rows)
    assert sum(r["oracle"] == oracle.INFEASIBLE for r in rows) == 345
    _assert_infeasible_families(rows, ("infeasible:P2_parity",))
    assert time.monotonic() - start < 60.0


def test_criterion_13_full_table_agreement_2_6(monkeypatch):
    start = time.monotonic()
    params, rows = _checked_table(2, 6, monkeypatch)
    assert len(rows) == 1953
    assert all(r["agree"] is True for r in rows)
    assert sum(r["oracle"] == oracle.INFEASIBLE for r in rows) == 1457
    _assert_infeasible_families(rows, ("infeasible:P2_parity",))
    assert time.monotonic() - start < 60.0


def test_criterion_14_full_table_agreement_3_4(monkeypatch):
    start = time.monotonic()
    params, rows = _checked_table(3, 4, monkeypatch)
    assert len(rows) == 3160
    assert all(r["agree"] is True for r in rows)
    assert sum(r["oracle"] == oracle.INFEASIBLE for r in rows) == 754
    _assert_infeasible_families(rows, ("infeasible:P3_E1", "infeasible:P3_E2"))
    assert time.monotonic() - start < 300.0


def test_criterion_15_full_table_agreement_7_2(monkeypatch):
    start = time.monotonic()
    params, rows = _checked_table(7, 2, monkeypatch)
    assert len(rows) == 1128
    assert all(r["agree"] is True for r in rows)
    assert sum(r["oracle"] == oracle.INFEASIBLE for r in rows) == 66
    _assert_infeasible_families(
        rows, ("infeasible:E1_beta_pm2", "infeasible:E2_Y0", "infeasible:E3_Y1")
    )
    assert time.monotonic() - start < 300.0
