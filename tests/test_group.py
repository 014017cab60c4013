"""Group arithmetic, span/coset structure, and the element-index bijection:
JSON elements in through element_from_json, coordinates out through
format_elements.

The package computes on integer indices; the tests written in coordinates go
through testkit.TupleGroup.
"""

import json
import re
import time

import pytest
from hypothesis import example, given, strategies as st

from rainbowcat import constructor, group, labeling
from rainbowcat.errors import InvalidElementError
from rainbowcat.group import GroupParams
from testkit import (
    TupleGroup, apply_matrix, elements, index, matrix_is_invertible, neg, payload,
    reference_cosets, span_closure, sub, zero,
)

PARAMS = [GroupParams(2, 2), GroupParams(2, 3), GroupParams(3, 2), GroupParams(5, 1)]


def params_and_elem(n=1):
    return st.sampled_from(PARAMS).flatmap(
        lambda prm: st.tuples(
            st.just(prm), *[st.sampled_from(elements(prm)) for _ in range(n)]
        )
    )


class TestGroupParams:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            GroupParams(4, 1)
        with pytest.raises(ValueError):
            GroupParams(1, 2)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            GroupParams(3, 0)

    def test_rejects_non_integer_p_and_k(self):
        for p, k in ((5.7, 2), (5, 2.0), (True, 2), ("5", 2), (5, True)):
            with pytest.raises(ValueError):
                GroupParams(p, k)

    def test_large_prime_accepted_quickly(self):
        start = time.monotonic()
        assert GroupParams(2 ** 61 - 1, 1).order == 2 ** 61 - 1
        assert time.monotonic() - start < 1.0

    def test_oversized_group_rejected_before_primality(self):
        start = time.monotonic()
        for p, k in ((10 ** 16 + 61, 2), (2 ** 61 - 1, 10 ** 9), (10 ** 40 + 1, 1)):
            with pytest.raises(ValueError, match="64 bits"):
                GroupParams(p, k)
        assert time.monotonic() - start < 1.0

    def test_rejects_strong_pseudoprime(self):
        # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5, 7
        assert not group._is_prime(3215031751)
        with pytest.raises(ValueError, match="prime"):
            GroupParams(3215031751, 1)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(10 ** 4) if group._is_prime(n)] == [
            n for n in range(10 ** 4) if trial(n)
        ]

    def test_value_semantics(self):
        prm = GroupParams(5, 2)
        with pytest.raises(AttributeError):
            prm.p = 7
        with pytest.raises(AttributeError):
            prm.order_cache = 25
        assert prm == GroupParams(5, 2) and hash(prm) == hash(GroupParams(5, 2))
        assert prm != GroupParams(5, 3)
        assert repr(prm) == "GroupParams(p=5, k=2)"

    def test_order_zero(self):
        prm = GroupParams(3, 2)
        assert prm.order == 9
        assert zero(prm) == (0, 0)

    @given(params_and_elem())
    def test_index_element_roundtrip(self, t):
        prm, e = t
        assert prm.element(index(prm, e)) == e

    def test_index_is_lex_order(self):
        prm = GroupParams(3, 2)
        elems = elements(prm)
        assert [index(prm, e) for e in elems] == list(range(9))
        assert elems == sorted(elems)


class TestArithmetic:
    def test_add_examples(self):
        assert TupleGroup(GroupParams(3, 2)).add((1, 2), (2, 2)) == (0, 1)
        assert TupleGroup(GroupParams(5, 1)).add((4,), (1,)) == (0,)
        assert TupleGroup(GroupParams(2, 3)).add((1, 0, 1), (1, 0, 1)) == (0, 0, 0)

    def test_add_rejects_bad_element(self):
        # group.add takes indices; a tuple is validated on its way in
        with pytest.raises(InvalidElementError):
            TupleGroup(GroupParams(3, 2)).add((1, 2), (1, 2, 0))
        with pytest.raises(InvalidElementError):
            TupleGroup(GroupParams(3, 2)).add((1, 3), (0, 0))

    def test_scale_examples(self):
        assert TupleGroup(GroupParams(5, 1)).scale(2, (3,)) == (1,)
        assert TupleGroup(GroupParams(3, 2)).scale(0, (1, 2)) == (0, 0)
        assert TupleGroup(GroupParams(7, 1)).scale(6, (1,)) == (6,)

    @given(params_and_elem(2))
    def test_add_commutative(self, t):
        prm, e1, e2 = t
        tg = TupleGroup(prm)
        assert tg.add(e1, e2) == tg.add(e2, e1)

    @given(params_and_elem(3))
    def test_add_associative(self, t):
        prm, e1, e2, e3 = t
        tg = TupleGroup(prm)
        lhs = tg.add(tg.add(e1, e2), e3)
        assert lhs == tg.add(e1, tg.add(e2, e3))

    @given(params_and_elem())
    def test_identity_and_inverse(self, t):
        prm, e = t
        tg = TupleGroup(prm)
        assert tg.add(e, zero(prm)) == e
        assert tg.add(e, tg.neg(e)) == zero(prm)
        assert tg.sub(e, e) == zero(prm)

    @given(params_and_elem(), st.integers(-10, 10), st.integers(-10, 10))
    def test_scale_additive_in_scalar(self, t, c1, c2):
        prm, e = t
        tg = TupleGroup(prm)
        assert tg.scale(c1 + c2, e) == tg.add(tg.scale(c1, e), tg.scale(c2, e))


_EXHAUSTIVE = [GroupParams(2, 3), GroupParams(3, 2), GroupParams(3, 3), GroupParams(5, 2), GroupParams(7, 1)]


def _group_id(prm):
    return f"Z{prm.p}^{prm.k}"


@pytest.mark.parametrize("prm", _EXHAUSTIVE, ids=_group_id)
class TestIndexArithmetic:
    """The operations on indices against coordinate-wise arithmetic, on
    every element and every pair."""

    def test_pairs_match_coordinates(self, prm):
        p, elems = prm.p, elements(prm)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                assert elems[group.add(prm, i, j)] == tuple((x + y) % p for x, y in zip(a, b))
                assert elems[sub(prm, i, j)] == tuple((x - y) % p for x, y in zip(a, b))
            assert group.translate(prm, i, range(prm.order)) == [
                group.add(prm, i, j) for j in range(prm.order)
            ]

    def test_neg_and_scale_match_coordinates(self, prm):
        p, elems = prm.p, elements(prm)
        for i, a in enumerate(elems):
            assert elems[neg(prm, i)] == tuple(-x % p for x in a)
            for c in range(-p, 2 * p):
                assert elems[group.scale(prm, c, i)] == tuple(c * x % p for x in a)

    def test_index_element_roundtrip(self, prm):
        elems = elements(prm)
        assert [index(prm, e) for e in elems] == list(range(prm.order))
        assert [prm.element(i) for i in range(prm.order)] == elems
        assert [group.element_from_json(prm, list(e)) for e in elems] == list(range(prm.order))
        assert group.format_elements(prm, range(prm.order), ",", "()") == [
            "(" + ",".join(map(str, e)) + ")" for e in elems
        ]

    def test_indices_raise_on_first_invalid(self, prm):
        elems = elements(prm)
        shape = labeling.make_shape(prm, (0, prm.order - 3, 0))
        for bad in ((prm.p,) + elems[1][1:], (-1,) * prm.k, elems[1] + (0,)):
            data = payload(prm, shape, elems[:3], z=elems[:2] + [bad, (prm.p,) * (prm.k + 1)])
            with pytest.raises(InvalidElementError, match=re.escape(repr(list(bad)))):
                labeling.labeling_from_dict(data)

    def test_indices_table_matches_validating_path(self, prm):
        # the writer's digit tables give json.dumps of the coordinates, and
        # the validating reader takes that text back to the index
        written = group.format_elements(prm, range(prm.order), ", ", "[]")
        assert written == [json.dumps(list(e)) for e in elements(prm)]
        assert [group.element_from_json(prm, json.loads(t)) for t in written] == list(range(prm.order))
        # bool coordinates equal 0 and 1 but are not JSON integers
        for e in elements(prm):
            if max(e) <= 1:
                with pytest.raises(InvalidElementError):
                    group.element_from_json(prm, [bool(c) for c in e])

    def test_indices_invalid_raise_for_first(self, prm):
        valid = elements(prm)[1]
        wrong_length, out_of_range = valid + (0,), (prm.p,) + valid[1:]
        negative, boolean = valid[:-1] + (-1,), (True,) + valid[1:]
        shape = labeling.make_shape(prm, (0, prm.order - 3, 0))
        spine = elements(prm)[2:5]
        for bad in (wrong_length, out_of_range, negative, boolean):
            for case in ([bad], [valid, bad], [valid, bad, (prm.p,) * (prm.k + 1)]):
                message = "^" + re.escape(repr(list(bad))) + " is not an element"
                for data in (payload(prm, shape, case), payload(prm, shape, spine, y=case)):
                    with pytest.raises(InvalidElementError, match=message):
                        labeling.labeling_from_dict(data)


def _coset_cases():
    for p, k in ((2, 4), (3, 3), (5, 2)):
        prm = GroupParams(p, k)
        for a, b in constructor.canonical_models(prm):
            yield pytest.param(prm, [a, b], id=f"Z{p}^{k}-{a}-{b}")
    prm = GroupParams(2, 3)
    yield pytest.param(prm, [index(prm, (1, 1, 0))], id="Z2^3-110")


@pytest.mark.parametrize("prm, gens", _coset_cases())
def test_cosets_layout_on_indices(prm, gens):
    comps = group.cosets(prm, gens)
    assert comps[0] == group.span(prm, gens)
    mins = [min(c) for c in comps]
    assert mins[0] == 0 and mins == sorted(mins)
    for comp in comps:
        assert comp == [group.add(prm, min(comp), h) for h in comps[0]]
    assert sorted(v for comp in comps for v in comp) == list(range(prm.order))


@st.composite
def group_and_gens(draw):
    """Z_p^k with p in {2, 3, 5, 7} and k <= 3, and one to three generators
    as coordinate tuples, most with several nonzero digits."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k = draw(st.integers(1, 3))
    digits = st.tuples(*[st.integers(0, p - 1)] * k)
    return GroupParams(p, k), draw(st.lists(digits, min_size=1, max_size=3))


class TestSpan:
    @given(group_and_gens())
    @example((GroupParams(7, 3), [(3, 5, 6), (1, 2, 4)]))
    @example((GroupParams(5, 3), [(2, 3, 4), (4, 1, 3), (1, 2, 2)]))
    @example((GroupParams(3, 3), [(1, 2, 2), (2, 1, 1)]))
    @example((GroupParams(2, 3), [(1, 1, 1), (0, 1, 1), (1, 0, 0)]))
    def test_span_matches_closure(self, t):
        prm, gens = t
        assert group.span(prm, [index(prm, g) for g in gens]) == span_closure(prm, gens)

    @given(group_and_gens())
    def test_cosets_match_reference_layout(self, t):
        prm, gens = t
        ix = [index(prm, g) for g in gens]
        assert [list(c) for c in group.cosets(prm, ix)] == reference_cosets(prm, ix)

    def test_span_examples(self):
        tg = TupleGroup(GroupParams(3, 2))
        assert tg.span([(0, 1)]) == [(0, 0), (0, 1), (0, 2)]
        assert len(tg.span([(0, 1), (1, 0)])) == 9
        tg2 = TupleGroup(GroupParams(2, 3))
        assert tg2.span([(1, 1, 0)]) == [(0, 0, 0), (1, 1, 0)]

    @given(params_and_elem())
    def test_span_of_nonzero_has_order_p(self, t):
        prm, e = t
        if e != zero(prm):
            assert len(TupleGroup(prm).span([e])) == prm.p


def _byte_set(prm, cells):
    """A set of indices as translate_set holds it: byte v is 1 iff v is in it."""
    return int.from_bytes(bytes(v in cells for v in range(prm.order)), "little")


@st.composite
def group_element_and_set(draw):
    """Z_p^k with p in {2, 3, 5, 7} and k <= 3, a coordinate tuple a, most
    with several nonzero digits, and a set of indices, often empty or full."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k = draw(st.integers(1, 3))
    prm = GroupParams(p, k)
    a = draw(st.tuples(*[st.integers(0, p - 1)] * k))
    cells = st.frozensets(st.integers(0, prm.order - 1))
    return prm, a, draw(st.sampled_from((frozenset(), frozenset(range(prm.order)))) | cells)


class TestTranslateSet:
    @given(group_element_and_set())
    @example((GroupParams(7, 3), (3, 5, 6), frozenset({0, 1, 48, 49, 300, 342})))
    @example((GroupParams(5, 3), (4, 4, 4), frozenset(range(0, 125, 3))))
    @example((GroupParams(3, 3), (1, 2, 2), frozenset(range(27))))
    @example((GroupParams(2, 3), (1, 1, 1), frozenset()))
    def test_translate_set_matches_tuple_sums(self, t):
        prm, a, cells = t
        shifted = {
            index(prm, [(x + y) % prm.p for x, y in zip(a, prm.element(v))]) for v in cells
        }
        got = group.translate_set(prm, index(prm, a), _byte_set(prm, cells))
        assert got == _byte_set(prm, shifted)


class TestCosets:
    def test_coset_examples(self):
        tg = TupleGroup(GroupParams(3, 2))
        comps = tg.cosets(tg.span([(0, 1)]))
        assert len(comps) == 3
        assert all(len(c) == 3 for c in comps)
        assert (0, 0) in comps[0]

        tg5 = TupleGroup(GroupParams(5, 1))
        assert len(tg5.cosets(tg5.span([(1,)]))) == 1

        tg22 = TupleGroup(GroupParams(2, 2))
        whole = tg22.span([(1, 0), (0, 1)])
        assert len(tg22.cosets(whole)) == 1

    def test_cosets_partition_group(self):
        prm = GroupParams(2, 3)
        tg = TupleGroup(prm)
        comps = tg.cosets(tg.span([(1, 1, 0)]))
        flat = [e for c in comps for e in c]
        assert sorted(flat) == elements(prm)
        assert len(set(flat)) == len(flat)

    def test_cosets_list_min_plus_subgroup(self):
        prm = GroupParams(5, 2)
        tg = TupleGroup(prm)
        for gens in ([(1, 2)], [(1, 0), (2, 0)], [(0, 1), (1, 0)]):
            comps = tg.cosets(gens)
            assert comps[0] == tg.span(gens)
            mins = [min(c) for c in comps]
            assert mins[0] == zero(prm) and mins[1:] == sorted(mins[1:])
            for comp in comps:
                assert comp == [tg.add(min(comp), h) for h in comps[0]]

    def test_span_of_subgroup_gives_same_cosets(self):
        tg = TupleGroup(GroupParams(3, 2))
        sub = tg.span([(1, 2)])
        assert tg.cosets(sub) == tg.cosets([(1, 2)])


class TestMatrices:
    def test_invertibility(self):
        assert matrix_is_invertible([[1, 0], [0, 1]], 3)
        assert not matrix_is_invertible([[1, 2], [2, 4]], 3)
        assert matrix_is_invertible([[0, 1], [1, 0]], 2)

    def test_apply_matrix(self):
        prm = GroupParams(3, 2)
        assert apply_matrix(prm, [[0, 1], [1, 0]], (1, 2)) == (2, 1)


class TestJson:
    @given(params_and_elem())
    def test_element_json_roundtrip(self, t):
        prm, e = t
        (text,) = group.format_elements(prm, [index(prm, e)], ", ", "[]")
        assert prm.element(group.element_from_json(prm, json.loads(text))) == e

    def test_bad_payload(self):
        with pytest.raises(InvalidElementError):
            group.element_from_json(GroupParams(3, 2), [1])

    @pytest.mark.parametrize("coord", [1.9, 1.0, True, "1", None])
    def test_rejects_non_integer_coordinate(self, coord):
        with pytest.raises(InvalidElementError):
            group.element_from_json(GroupParams(3, 2), [0, coord])
