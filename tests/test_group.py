"""Group arithmetic, span/coset structure, and the element-index bijection."""

import time

import pytest
from hypothesis import given, strategies as st

from rainbowcat import group
from rainbowcat.errors import InvalidElementError
from rainbowcat.group import GroupParams
from testkit import apply_matrix, matrix_is_invertible

PARAMS = [GroupParams(2, 2), GroupParams(2, 3), GroupParams(3, 2), GroupParams(5, 1)]


def params_and_elem(n=1):
    return st.sampled_from(PARAMS).flatmap(
        lambda prm: st.tuples(
            st.just(prm), *[st.sampled_from(group.elements(prm)) for _ in range(n)]
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

    def test_order_zero(self):
        prm = GroupParams(3, 2)
        assert prm.order == 9
        assert prm.zero == (0, 0)

    @given(params_and_elem())
    def test_index_element_roundtrip(self, t):
        prm, e = t
        assert prm.element(prm.index(e)) == e

    def test_index_is_lex_order(self):
        prm = GroupParams(3, 2)
        elems = group.elements(prm)
        assert [prm.index(e) for e in elems] == list(range(9))
        assert elems == tuple(sorted(elems))


class TestArithmetic:
    def test_add_examples(self):
        assert group.add(GroupParams(3, 2), (1, 2), (2, 2)) == (0, 1)
        assert group.add(GroupParams(5, 1), (4,), (1,)) == (0,)
        assert group.add(GroupParams(2, 3), (1, 0, 1), (1, 0, 1)) == (0, 0, 0)

    def test_add_rejects_bad_element(self):
        with pytest.raises(InvalidElementError):
            group.add(GroupParams(3, 2), (1, 2), (1, 2, 0))
        with pytest.raises(InvalidElementError):
            group.add(GroupParams(3, 2), (1, 3), (0, 0))

    def test_scale_examples(self):
        assert group.scale(GroupParams(5, 1), 2, (3,)) == (1,)
        assert group.scale(GroupParams(3, 2), 0, (1, 2)) == (0, 0)
        assert group.scale(GroupParams(7, 1), 6, (1,)) == (6,)

    @given(params_and_elem(2))
    def test_add_commutative(self, t):
        prm, e1, e2 = t
        assert group.add(prm, e1, e2) == group.add(prm, e2, e1)

    @given(params_and_elem(3))
    def test_add_associative(self, t):
        prm, e1, e2, e3 = t
        lhs = group.add(prm, group.add(prm, e1, e2), e3)
        assert lhs == group.add(prm, e1, group.add(prm, e2, e3))

    @given(params_and_elem())
    def test_identity_and_inverse(self, t):
        prm, e = t
        assert group.add(prm, e, prm.zero) == e
        assert group.add(prm, e, group.neg(prm, e)) == prm.zero
        assert group.sub(prm, e, e) == prm.zero

    @given(params_and_elem(), st.integers(-10, 10), st.integers(-10, 10))
    def test_scale_additive_in_scalar(self, t, c1, c2):
        prm, e = t
        assert group.scale(prm, c1 + c2, e) == group.add(
            prm, group.scale(prm, c1, e), group.scale(prm, c2, e)
        )


class TestSpan:
    def test_span_examples(self):
        prm = GroupParams(3, 2)
        assert group.span(prm, [(0, 1)]) == [(0, 0), (0, 1), (0, 2)]
        assert len(group.span(prm, [(0, 1), (1, 0)])) == 9
        prm2 = GroupParams(2, 3)
        assert group.span(prm2, [(1, 1, 0)]) == [(0, 0, 0), (1, 1, 0)]

    @given(params_and_elem())
    def test_span_of_nonzero_has_order_p(self, t):
        prm, e = t
        if e != prm.zero:
            assert len(group.span(prm, [e])) == prm.p


class TestCosets:
    def test_coset_examples(self):
        prm = GroupParams(3, 2)
        comps = group.cosets(prm, group.span(prm, [(0, 1)]))
        assert len(comps) == 3
        assert all(len(c) == 3 for c in comps)
        assert (0, 0) in comps[0]

        prm5 = GroupParams(5, 1)
        assert len(group.cosets(prm5, group.span(prm5, [(1,)]))) == 1

        prm22 = GroupParams(2, 2)
        whole = group.span(prm22, [(1, 0), (0, 1)])
        assert len(group.cosets(prm22, whole)) == 1

    def test_cosets_partition_group(self):
        prm = GroupParams(2, 3)
        comps = group.cosets(prm, group.span(prm, [(1, 1, 0)]))
        flat = [e for c in comps for e in c]
        assert sorted(flat) == sorted(group.elements(prm))
        assert len(set(flat)) == len(flat)

    def test_cosets_list_min_plus_subgroup(self):
        prm = GroupParams(5, 2)
        for gens in ([(1, 2)], [(1, 0), (2, 0)], [(0, 1), (1, 0)]):
            comps = group.cosets(prm, gens)
            assert comps[0] == group.span(prm, gens)
            mins = [min(c) for c in comps]
            assert mins[0] == prm.zero and mins[1:] == sorted(mins[1:])
            for comp in comps:
                assert comp == [group.add(prm, min(comp), h) for h in comps[0]]

    def test_span_of_subgroup_gives_same_cosets(self):
        prm = GroupParams(3, 2)
        sub = group.span(prm, [(1, 2)])
        assert group.cosets(prm, sub) == group.cosets(prm, [(1, 2)])


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
        assert group.element_from_json(prm, group.element_to_json(e)) == e

    def test_bad_payload(self):
        with pytest.raises(InvalidElementError):
            group.element_from_json(GroupParams(3, 2), [1])

    @pytest.mark.parametrize("coord", [1.9, 1.0, True, "1", None])
    def test_rejects_non_integer_coordinate(self, coord):
        with pytest.raises(InvalidElementError):
            group.element_from_json(GroupParams(3, 2), [0, coord])
