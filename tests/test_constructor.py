"""Feasibility predicate, pattern realizers, component planning, and the
constructive engine."""

import itertools

import pytest

from rainbowcat import constructor, group, labeling, oracle
from rainbowcat.constructor import (
    E1_BETA_PM2,
    E2_Y0,
    E3_Y1,
    P2_PARITY,
    P3_E1,
    P3_E2,
)
from rainbowcat.errors import (
    ConstructionError,
    InfeasibleShapeError,
    UnsupportedInstanceError,
)
from rainbowcat.group import GroupParams
from rainbowcat.labeling import S1, S2, S3, SPINE_ROLES, X, Y, Z
from testkit import TupleGroup, check_forbidden, decompose_bfs, model_param, tuple_keys, zero


def shp(p, k, h):
    return labeling.make_shape(GroupParams(p, k), h)


class TestFeasibility:
    def test_exception_family_examples(self):
        assert constructor.feasibility(GroupParams(5, 2), shp(5, 2, (0, 3, 19))).exception == E1_BETA_PM2
        assert constructor.feasibility(GroupParams(5, 2), shp(5, 2, (4, 0, 18))).exception == E2_Y0
        assert constructor.feasibility(GroupParams(5, 2), shp(5, 2, (9, 1, 12))).exception == E3_Y1
        assert constructor.feasibility(GroupParams(2, 3), shp(2, 3, (2, 1, 2))).feasible
        assert constructor.feasibility(GroupParams(2, 3), shp(2, 3, (1, 1, 3))).exception == P2_PARITY
        assert constructor.feasibility(GroupParams(3, 2), shp(3, 2, (0, 1, 5))).exception == P3_E1
        assert constructor.feasibility(GroupParams(3, 2), shp(3, 2, (5, 0, 1))).exception == P3_E2
        assert constructor.feasibility(GroupParams(3, 2), shp(3, 2, (1, 3, 2))).feasible

    def test_exception_iff_infeasible(self):
        params = GroupParams(5, 2)
        for shape in oracle.all_shapes(params):
            v = constructor.feasibility(params, shape)
            assert v.feasible == (v.exception is None)

    def test_tiny_group_feasible(self):
        # Z_3^1 carries only the bare spine C(0,0,0), labeled (1, 0, 2)
        params = GroupParams(3, 1)
        assert constructor.feasibility(params, labeling.make_shape(params, (0, 0, 0))).feasible

    def test_reflection_coherence(self):
        for p, k in ((3, 2), (5, 2), (2, 3)):
            params = GroupParams(p, k)
            for shape in oracle.all_shapes(params):
                mirror = labeling.make_shape(params, shape.h[::-1])
                assert (
                    constructor.feasibility(params, shape).feasible
                    == constructor.feasibility(params, mirror).feasible
                )


def _fa_check_pattern(p, pattern, a_scalar, b_scalar, spine=True):
    """FA-check a positional pattern over the e1-generated cycle, k=2.

    Spine patterns are placed on the cycle through 0; regular patterns on the
    coset e2 + <e1>.  Returns the violation list.
    """
    params = GroupParams(p, 2)
    tg = TupleGroup(params)
    e1, e2 = (1, 0), (0, 1)
    a = tg.scale(a_scalar, e1)
    b = tg.scale(b_scalar, e1)
    part = {a: S1, zero(params): S2, b: S3}
    offset = zero(params) if spine else e2
    for m, role in enumerate(pattern):
        v = tg.add(offset, tg.scale(m, e1))
        if role in (S1, S2, S3):
            assert part[{"s1": a, "s2": zero(params), "s3": b}[role]] == role
        else:
            part[v] = role
    return check_forbidden(params, (a, b), part)


class TestRealizers:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_spine_symmetric_grid(self, p):
        for alpha in range((p - 3) // 2 + 1):
            beta = p - 3 - 2 * alpha
            pat = constructor.realize_spine_symmetric(p, alpha, beta)
            assert constructor.pattern_counts(pat) == (alpha, beta, alpha)
            assert _fa_check_pattern(p, pat, 1, p - 1) == []

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_regular_symmetric(self, p):
        pat = constructor.realize_regular_symmetric(p)
        assert constructor.pattern_counts(pat) == ((p - 1) // 2, 1, (p - 1) // 2)
        assert _fa_check_pattern(p, pat, 1, p - 1, spine=False) == []

    def test_regular_symmetric_rejects_p2(self):
        with pytest.raises(UnsupportedInstanceError):
            constructor.realize_regular_symmetric(2)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_spine_skew_grid(self, p):
        for gamma in range((p - 3) // 2 + 1):
            for r in range(p - 3 - 2 * gamma + 1):
                alpha = p - 3 - 2 * gamma - r
                pat = constructor.realize_spine_skew(p, alpha, gamma, r)
                assert constructor.pattern_counts(pat) == (alpha, gamma + r, gamma)
                assert _fa_check_pattern(p, pat, 1, 2) == []

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_regular_skew_grid(self, p):
        for j in range((p - 1) // 2 + 1):
            pat = constructor.realize_regular_skew(p, j)
            assert constructor.pattern_counts(pat) == (p - 2 * j, j, j)
            assert _fa_check_pattern(p, pat, 1, 2, spine=False) == []

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_spine_general_base_grid(self, p):
        for a_, b_ in itertools.combinations(range(1, p), 2):
            pat = constructor.realize_spine_general(p, a_, b_, "base")
            assert constructor.pattern_counts(pat) == (p - b_ - 1, b_ - a_ - 1, a_ - 1)
            assert _fa_check_pattern(p, pat, a_, b_) == []

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_spine_general_variants_grid(self, p):
        for a_, b_ in itertools.combinations(range(1, p), 2):
            if not (b_ < 2 * a_ and a_ + b_ < p):
                continue
            base = constructor.pattern_counts(constructor.realize_spine_general(p, a_, b_))
            for variant, delta in (
                ("plus_y", (-1, 1, 0)),
                ("swap_z", (-2, 1, 1)),
                ("double_y", (-1, 2, -1)),
            ):
                if variant == "double_y" and b_ + 2 * a_ < p + 1:
                    with pytest.raises(ValueError):
                        constructor.realize_spine_general(p, a_, b_, variant)
                    continue
                pat = constructor.realize_spine_general(p, a_, b_, variant)
                want = tuple(x + d for x, d in zip(base, delta))
                assert constructor.pattern_counts(pat) == want
                assert _fa_check_pattern(p, pat, a_, b_) == []

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_regular_general_grid(self, p):
        for a_, b_ in itertools.combinations(range(1, p), 2):
            pat = constructor.realize_regular_general(p, a_, b_)
            assert constructor.pattern_counts(pat) == (p - b_, b_ - a_, a_)
            assert _fa_check_pattern(p, pat, a_, b_, spine=False) == []

    def test_specific_triples_frozen(self):
        assert constructor.pattern_counts(constructor.realize_spine_general(7, 2, 4)) == (2, 1, 1)
        assert constructor.pattern_counts(constructor.realize_regular_general(7, 2, 4)) == (3, 2, 2)
        assert constructor.pattern_counts(constructor.realize_spine_general(11, 4, 6, "plus_y")) == (3, 2, 3)
        # double_y needs the full beta < gamma < alpha hypothesis on top of
        # b' + 2a' >= p+1; (4,6) is the smallest p=11 instance satisfying both
        assert constructor.pattern_counts(constructor.realize_spine_general(11, 4, 6, "double_y")) == (3, 3, 2)

    def test_arity_violations(self):
        with pytest.raises(ValueError):
            constructor.realize_spine_symmetric(5, 2, 0)
        with pytest.raises(ValueError):
            constructor.realize_spine_skew(5, 1, 1, 1)
        with pytest.raises(ValueError):
            constructor.realize_regular_skew(5, 3)
        with pytest.raises(ValueError):
            constructor.realize_spine_general(5, 3, 3)
        with pytest.raises(ValueError):
            constructor.realize_spine_general(7, 2, 5, "plus_y")  # beta >= gamma


class TestPlanning:
    def test_identity_3p_minus_3(self):
        params = GroupParams(5, 2)
        plan = constructor.plan_components(params, shp(5, 2, (9, 4, 9)))
        assert plan.spine_triple == (0, 2, 0)
        assert plan.mixed_triples == [(2, 1, 2), (2, 1, 2)]

    def test_three_block_identity(self):
        params = GroupParams(5, 2)
        plan = constructor.plan_components(params, shp(5, 2, (5, 4, 13)))
        assert plan.spine_triple == (1, 1, 0)
        assert sorted(plan.mixed_triples) == [(1, 2, 2), (3, 1, 1)]

    def test_alpha_equals_gamma(self):
        params = GroupParams(7, 2)
        plan = constructor.plan_components(params, shp(7, 2, (5, 8, 33)))
        assert plan.spine_triple == (2, 0, 2)
        assert plan.mixed_triples == [(3, 1, 3)]

    def test_base_case_k1(self):
        params = GroupParams(7, 1)
        plan = constructor.plan_components(params, shp(7, 1, (2, 1, 1)))
        assert tuple(map(params.element, plan.model)) == ((2,), (4,))
        assert plan.spine_triple == (2, 1, 1)
        assert plan.mixed == ()

    def test_plan_totals_match_shape(self):
        params = GroupParams(5, 2)
        for shape in oracle.all_shapes(params):
            if not constructor.feasibility(params, shape).feasible:
                continue
            try:
                plan = constructor.plan_components(params, shape)
            except ConstructionError:
                continue
            assert _plan_totals(params, plan) == shape.h

    def test_debug_dump_shape(self):
        params = GroupParams(5, 2)
        d = constructor.plan_components(params, shp(5, 2, (9, 4, 9))).to_debug_dict(params)
        assert set(d) == {"model", "reflected", "spine", "mixed", "uniform"}


def _plan_totals(params, plan):
    """Role counts the plan places, in the order of the shape it was made for."""
    totals = [0, 0, 0]
    for tri in [plan.spine_triple] + plan.mixed_triples:
        totals = [t + c for t, c in zip(totals, tri)]
    for i, role in enumerate((X, Y, Z)):
        totals[i] += params.p * plan.uniform[role]
    return tuple(totals[::-1]) if plan.reflected else tuple(totals)


def _is_corner(params, shape):
    """Empty-X corners and beta_neg corners (residues (p-3,1,p-1),
    (p-2,0,p-1) and mirrors): the shapes no parity or skew case covers."""
    p = params.p
    res = labeling.residues(params, shape)
    beta_neg = {(p - 3, 1, p - 1), (p - 2, 0, p - 1)}
    return (
        constructor.empty_x_twin(params, shape) is not None
        or res in beta_neg
        or res[::-1] in beta_neg
    )


@pytest.fixture
def no_search(monkeypatch):
    """Make any oracle search fail the test: construct must not search."""

    def refuse(*args, **kwargs):
        raise AssertionError("construct called oracle.search")

    monkeypatch.setattr(oracle, "search", refuse)


@pytest.fixture
def no_walk(monkeypatch):
    """Make the spine-model walk fail the test: at p >= 5 construct must take
    a recipe or the empty-X twin."""

    def refuse(*args, **kwargs):
        raise AssertionError("construct walked the spine models")

    monkeypatch.setattr(constructor, "small_p_patterns", refuse)


class TestConstruct:
    @pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 1), (7, 2)])
    def test_soundness_all_feasible(self, p, k, no_search):
        params = GroupParams(p, k)
        for shape in oracle.all_shapes(params):
            if constructor.feasibility(params, shape).feasible:
                lab = constructor.construct(params, shape)
                assert labeling.verify(params, shape, lab).valid, shape.h

    def test_p2_forced_y_vertex(self):
        params = GroupParams(2, 2)
        lab = constructor.construct(params, shp(2, 2, (0, 1, 0)))
        a, _, b = lab.spine
        assert lab.y == (TupleGroup(params).add(a, b),)

    def test_infeasible_raises_with_verdict(self):
        params = GroupParams(5, 2)
        with pytest.raises(InfeasibleShapeError) as exc:
            constructor.construct(params, shp(5, 2, (0, 3, 19)))
        assert exc.value.verdict.exception == E1_BETA_PM2

    def test_determinism(self):
        for p, k, h in ((5, 2, (3, 5, 14)), (3, 2, (1, 3, 2)), (2, 3, (0, 5, 0))):
            params = GroupParams(p, k)
            shape = shp(p, k, h)
            assert constructor.construct(params, shape) == constructor.construct(params, shape)

    def test_fallback_shape_beta_zero(self):
        # residues (3,0,4): the parity split would need beta' < 0, so the
        # beta_neg recipe plans it
        params = GroupParams(5, 2)
        shape = shp(5, 2, (3, 5, 14))
        plan = constructor.plan_components(params, shape)
        assert _plan_totals(params, plan) == shape.h
        lab = constructor.construct(params, shape)
        assert labeling.verify(params, shape, lab).valid

    def test_small_p_rejects_large_p(self):
        params = GroupParams(5, 2)
        with pytest.raises(UnsupportedInstanceError):
            constructor.small_p_patterns(params, shp(5, 2, (9, 4, 9)))

    @pytest.mark.parametrize(
        "p,h",
        [(17, (117, 17, 152)), (17, (0, 16, 270)), (29, (26, 30, 782))],
        ids=["h0", "h1", "h2"],
    )
    def test_p17_corners(self, p, h, no_search, no_walk):
        # beta_neg and empty-X corners: the beta_neg recipe and the
        # isomorphic twin build them without a search at any p
        params = GroupParams(p, 2)
        shape = shp(p, 2, h)
        lab = constructor.construct(params, shape)
        assert labeling.verify(params, shape, lab).valid

    @pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (11, 2), (13, 2), (5, 3)])
    def test_every_recipe_less_shape(self, p, k, no_search, no_walk):
        params = GroupParams(p, k)
        corners = [
            s
            for s in oracle.all_shapes(params)
            if constructor.feasibility(params, s).feasible and _is_corner(params, s)
        ]
        assert corners
        for shape in corners:
            lab = constructor.construct(params, shape)
            assert labeling.verify(params, shape, lab).valid, shape.h

    @pytest.mark.parametrize(
        "p,k,h",
        [
            (3, 6, (49, 74, 603)),
            (3, 6, (548, 96, 82)),
            (3, 6, (59, 519, 148)),
            (7, 3, (117, 91, 132)),
            (5, 3, (0, 79, 43)),
        ],
    )
    def test_formerly_slow_shapes(self, p, k, h, no_search):
        # each took seconds to a minute in a decomposition search or the oracle
        params = GroupParams(p, k)
        shape = shp(p, k, h)
        lab = constructor.construct(params, shape)
        assert labeling.verify(params, shape, lab).valid

    def test_big_reflected_case(self):
        params = GroupParams(5, 2)
        shape = shp(5, 2, (22, 0, 0))
        lab = constructor.construct(params, shape)
        assert labeling.verify(params, shape, lab).valid

    @pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (5, 2), (7, 2)])
    def test_build_reports_the_plan_it_placed(self, p, k):
        # every feasible shape; at Z_7^2 the residue corners only
        params = GroupParams(p, k)
        for shape in oracle.all_shapes(params):
            if not constructor.feasibility(params, shape).feasible:
                continue
            if p == 7 and not _is_corner(params, shape):
                continue
            twin, plan, lab = constructor.build(params, shape)
            assert lab == constructor.construct(params, shape), shape.h
            assert sorted(r for r in plan.spine_pattern if r in SPINE_ROLES) == [S1, S2, S3]
            # the plan's role counts are the shape it was made for: the
            # empty-X twin, or the mirror when reflected
            h = (twin or shape).h
            counts = tuple(sum(pat.count(role) for pat in plan.patterns) for role in (X, Y, Z))
            assert counts == (h[::-1] if plan.reflected else h), shape.h


def _brute_force_menu(params, a, b, spine):
    """Lex-first clean assignment per role-count triple, by trying every role
    tuple against check_forbidden, on tuple elements.  The regular component
    is placed on the coset e_{k+1} + <a,b> of Z_p^(k+1), away from the spine."""
    a, b = params.element(a), params.element(b)
    cells = TupleGroup(params).span([a, b])
    if spine:
        host, place = params, lambda c: c
        free = [c for c in cells if c not in (a, zero(params), b)]
    else:
        host, place = GroupParams(params.p, params.k + 1), lambda c: c + (1,)
        a, b = a + (0,), b + (0,)
        free = cells
    menu = {}
    for roles in itertools.product((X, Y, Z), repeat=len(free)):
        part = {a: S1, zero(host): S2, b: S3}
        for c, role in zip(free, roles):
            part[place(c)] = role
        if not check_forbidden(host, (a, b), part):
            triple = (roles.count(X), roles.count(Y), roles.count(Z))
            menu.setdefault(triple, dict(zip(free, roles)))
    return menu


def _menu_models():
    for p, k, cyclic_only in ((2, 3, False), (3, 2, False), (5, 2, True), (7, 2, True)):
        params = GroupParams(p, k)
        models = constructor.canonical_models(params)
        for a, b in models[:-1] if cyclic_only else models:
            yield model_param(params, a, b)


class TestBlockMenus:
    @pytest.mark.parametrize("params,a,b", list(_menu_models()))
    @pytest.mark.parametrize("spine", [True, False], ids=["spine", "regular"])
    def test_menu_matches_brute_force(self, params, a, b, spine):
        # each pattern lists the roles of H = span(a, b) in order, markers
        # at a, 0, b on the spine coset; as a role map over the free cells
        # it is the brute force's representative
        cells = group.span(params, [a, b])
        menu = constructor._component_patterns(params, a, b, spine)
        assert list(menu) == sorted(menu)
        markers = {a: S1, 0: S2, b: S3} if spine else {}
        for pattern in menu.values():
            assert {v: r for v, r in zip(cells, pattern) if r in SPINE_ROLES} == markers
        tuple_menu = {
            t: tuple_keys(params, {v: r for v, r in zip(cells, pattern) if v not in markers})
            for t, pattern in menu.items()
        }
        assert tuple_menu == _brute_force_menu(params, a, b, spine)


def _decompose_models(groups):
    """Canonical models of the groups; at p >= 5 the cyclic ones only."""
    for p, k in groups:
        params = GroupParams(p, k)
        for a, b in constructor.canonical_models(params):
            if p >= 5 and b not in group.span(params, [a]):
                continue
            yield model_param(params, a, b)


def _targets(total):
    for t1 in range(total + 1):
        for t2 in range(total - t1 + 1):
            yield (t1, t2, total - t1 - t2)


class TestDecompose:
    @pytest.mark.parametrize(
        "params,a,b",
        list(_decompose_models(((2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)))),
    )
    def test_matches_brute_force(self, params, a, b):
        comps = group.cosets(params, [a, b])
        menu = constructor._component_patterns(params, a, b, False)
        blocks, n = len(comps) - 1, len(comps[0])
        reachable = {
            tuple(map(sum, zip((0, 0, 0), *combo)))
            for combo in itertools.combinations_with_replacement(sorted(menu), blocks)
        }
        for target in _targets(blocks * n):
            found = constructor._decompose(target, tuple(menu))
            assert (found is not None) == (target in reachable), target
            if found is not None:
                assert len(found) == blocks and all(t in menu for t in found)
                assert tuple(map(sum, zip((0, 0, 0), *found))) == target

    @pytest.mark.parametrize(
        "params,a,b",
        list(_decompose_models([(2, k) for k in range(3, 7)] + [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])),
    )
    def test_matches_reference_search(self, params, a, b):
        """The table lookup returns the very list, or None, that the
        breadth-first search bounded by the target returns."""
        comps = group.cosets(params, [a, b])
        menu = constructor._component_patterns(params, a, b, False)
        blocks, n = len(comps) - 1, len(comps[0])
        for target in _targets(blocks * n):
            assert constructor._decompose(target, tuple(menu)) == decompose_bfs(
                target, list(menu), blocks
            ), target
        assert sum(map(len, constructor._menu_sums(tuple(menu)).values())) == n


_ISOMORPHISM_GROUPS = [(2, k) for k in range(2, 7)] + [(3, k) for k in range(2, 5)] + [
    (5, 2),
    (7, 2),
    (11, 2),
    (13, 2),
    (5, 3),
]


def _isomorphic_pairs(params):
    """C(0,h2,h3) ~ C(h2+1,h3-1,0) and the mirror C(h3,h2,0) ~ C(0,h3-1,h2+1)
    for every h3 >= 1: the same tree, so the same verdict."""
    total = params.order - 3
    for h3 in range(1, total + 1):
        h2 = total - h3
        yield (0, h2, h3), (h2 + 1, h3 - 1, 0)
        yield (h3, h2, 0), (0, h3 - 1, h2 + 1)


class TestIsomorphism:
    @pytest.mark.parametrize("p,k", _ISOMORPHISM_GROUPS)
    def test_predicate_agrees_across_isomorphism(self, p, k):
        params = GroupParams(p, k)
        for h, twin in _isomorphic_pairs(params):
            assert (
                constructor.feasibility(params, shp(p, k, h)).feasible
                == constructor.feasibility(params, shp(p, k, twin)).feasible
            ), (h, twin)

    def test_oracle_agrees_across_isomorphism(self):
        params = GroupParams(5, 2)
        for h, twin in _isomorphic_pairs(params):
            assert (
                oracle.search(params, shp(5, 2, h)).outcome
                == oracle.search(params, shp(5, 2, twin)).outcome
            ), (h, twin)

    def test_empty_x_twin(self):
        params = GroupParams(5, 2)
        assert constructor.empty_x_twin(params, shp(5, 2, (0, 9, 13))).h == (10, 12, 0)
        assert constructor.empty_x_twin(params, shp(5, 2, (13, 9, 0))).h == (0, 12, 10)
        assert constructor.empty_x_twin(params, shp(5, 2, (5, 4, 13))) is None
