"""Helpers that only the tests use: a second, rule-by-rule statement of the
rainbow constraint, labeling transforms under the group's symmetries, every
translated spine model (the reference for the canonical reduction), and the
full predicate-vs-oracle table of a group."""

from typing import Iterable, List, Optional, Sequence, Tuple

from rainbowcat import group, labeling, oracle
from rainbowcat.errors import RainbowError
from rainbowcat.group import Element, GroupParams
from rainbowcat.labeling import S1, S2, S3, X, Y, Z, Labeling, Partition


class ModelMismatchError(RainbowError, ValueError):
    """Partition spine roles are not placed at the elements a, 0, b of the model."""


Violation = Tuple[str, Element]


def check_forbidden(params: GroupParams, model: Tuple[Element, Element], part: Partition) -> List[Violation]:
    """Forbidden assignments in the model [a,0,b].

    Violations: X at b-a; Z at a-b; X at u with Y at u+a; Z at u with Y at u+b;
    Z at u with X at u+(b-a).  Empty result is equivalent to verifier validity
    for a full role assignment.
    """
    a, b = model
    if part.get(a) != S1 or part.get(params.zero) != S2 or part.get(b) != S3:
        raise ModelMismatchError("spine roles must sit at a, 0, b")

    b_minus_a = group.sub(params, b, a)
    out: List[Violation] = []
    if part.get(b_minus_a) == X:
        out.append(("x=b-a", b_minus_a))
    a_minus_b = group.sub(params, a, b)
    if part.get(a_minus_b) == Z:
        out.append(("z=a-b", a_minus_b))
    for u in sorted(part):
        role = part[u]
        if role == X and part.get(group.add(params, u, a)) == Y:
            out.append(("x->a->y", u))
        elif role == Z:
            if part.get(group.add(params, u, b)) == Y:
                out.append(("z->b->y", u))
            if part.get(group.add(params, u, b_minus_a)) == X:
                out.append(("z->(b-a)->x", u))
    return out


def _map_labels(lab: Labeling, f) -> Labeling:
    return labeling.make_labeling(
        tuple(f(e) for e in lab.spine),
        (f(e) for e in lab.x),
        (f(e) for e in lab.y),
        (f(e) for e in lab.z),
    )


def translate(params: GroupParams, lab: Labeling, c: Element) -> Labeling:
    """Shift every vertex label by c; validity is preserved."""
    params.validate(c)
    return _map_labels(lab, lambda e: group.add(params, e, c))


def matrix_is_invertible(M: Sequence[Sequence[int]], p: int) -> bool:
    """Invertibility of a k x k integer matrix mod p (Gaussian elimination)."""
    k = len(M)
    rows = [[c % p for c in row] for row in M]
    if any(len(row) != k for row in rows):
        return False
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] % p != 0), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], p - 2, p) if p > 2 else rows[col][col]
        rows[col] = [(c * inv) % p for c in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[col])]
    return True


def apply_matrix(params: GroupParams, M: Sequence[Sequence[int]], e: Element) -> Element:
    params.validate(e)
    return tuple(sum(M[i][j] * e[j] for j in range(params.k)) % params.p for i in range(params.k))


def apply_automorphism(params: GroupParams, lab: Labeling, M: Sequence[Sequence[int]]) -> Labeling:
    """Apply an invertible k x k matrix mod p to every label."""
    if not matrix_is_invertible(M, params.p):
        raise ValueError("matrix is singular mod p")
    return _map_labels(lab, lambda e: apply_matrix(params, M, e))


def enumerate_table(
    params: GroupParams,
    budget_per_shape: Optional[oracle.SearchBudget] = None,
    cross_check: bool = True,
) -> Iterable[dict]:
    """Feasibility table rows (JSON-lines schema), one per shape."""
    for shape in oracle.all_shapes(params):
        yield oracle.table_row(params, shape, budget_per_shape, cross_check)


def naive_models(params: GroupParams) -> List[Tuple[Element, Element]]:
    """Translated forms (a1-a2, a3-a2) of every distinct spine triple, the
    reference that oracle.canonical_models is checked against."""
    out = []
    elems = group.elements(params)
    for a1 in elems:
        for a2 in elems:
            if a2 == a1:
                continue
            for a3 in elems:
                if a3 == a1 or a3 == a2:
                    continue
                out.append((group.sub(params, a1, a2), group.sub(params, a3, a2)))
    return out
