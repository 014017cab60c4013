"""Helpers that only the tests use: the group's elements as tuples and the
conversions between them and the package's integer elements, a second,
rule-by-rule statement of the rainbow constraint, labeling transforms under
the group's symmetries, every translated spine model (the reference for the
canonical reduction), the full predicate-vs-oracle table of a group, the
subgroup closure, coset layout, cell-by-cell placement of a plan, mapping
of an empty-X twin's labeling back to its corner and list-based verifier
that span, cosets, _realize and verify are checked against, and the
tuple-based label writers that the package's writers are checked
against."""

import itertools
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import pytest

from rainbowcat import group, labeling, oracle
from rainbowcat.errors import InvalidElementError, PartitionShapeMismatchError, RainbowError
from rainbowcat.group import Element, GroupParams
from rainbowcat.labeling import HAIR_ROLES, S1, S2, S3, SPINE_ROLES, X, Y, Z, Labeling, Shape


def elements(params: GroupParams) -> List[Element]:
    """Every element as a tuple: entry i is the tuple of index i."""
    return list(itertools.product(range(params.p), repeat=params.k))


def zero(params: GroupParams) -> Element:
    """The identity as a tuple; its index is 0."""
    return (0,) * params.k


def index(params: GroupParams, e: Sequence[int]) -> int:
    """The index of a tuple element, unvalidated."""
    i = 0
    for c in e:
        i = i * params.p + c
    return i


def neg(params: GroupParams, a: int) -> int:
    return group.scale(params, -1, a)


def sub(params: GroupParams, a: int, b: int) -> int:
    return group.add(params, a, neg(params, b))


class TupleGroup:
    """The package's group functions on tuple elements, for tests written in
    coordinates.  A tuple goes in through a table of the group's elements
    built once per instance, and any tuple the table lacks through
    GroupParams.validate, which rejects it; results come back through
    params.element."""

    def __init__(self, params: GroupParams):
        self.params = params
        self._index = {e: i for i, e in enumerate(elements(params))}

    def ix(self, e: Element) -> int:
        i = self._index.get(e)
        if i is None:
            self.params.validate(e)
            i = index(self.params, e)
        return i

    def add(self, a: Element, b: Element) -> Element:
        return self.params.element(group.add(self.params, self.ix(a), self.ix(b)))

    def sub(self, a: Element, b: Element) -> Element:
        return self.params.element(sub(self.params, self.ix(a), self.ix(b)))

    def neg(self, a: Element) -> Element:
        return self.params.element(neg(self.params, self.ix(a)))

    def scale(self, c: int, a: Element) -> Element:
        return self.params.element(group.scale(self.params, c, self.ix(a)))

    def span(self, gens: Sequence[Element]) -> List[Element]:
        return [self.params.element(v) for v in group.span(self.params, map(self.ix, gens))]

    def cosets(self, gens: Sequence[Element]) -> List[List[Element]]:
        comps = group.cosets(self.params, [self.ix(g) for g in gens])
        return [[self.params.element(v) for v in comp] for comp in comps]


def _add_tuples(params: GroupParams, a: Element, b: Element) -> Element:
    return tuple((x + y) % params.p for x, y in zip(a, b))


def span_closure(params: GroupParams, gens: Sequence[Element]) -> List[int]:
    """The subgroup generated by tuple elements, sorted by index: the closure
    of {0} under adding a generator, by coordinate-wise arithmetic mod p.
    The reference that group.span is checked against."""
    seen = {zero(params)}
    frontier = list(seen)
    while frontier:
        grown = []
        for e in frontier:
            for g in gens:
                f = _add_tuples(params, e, g)
                if f not in seen:
                    seen.add(f)
                    grown.append(f)
        frontier = grown
    return sorted(index(params, e) for e in seen)


def reference_cosets(params: GroupParams, gens: Sequence[int]) -> List[List[int]]:
    """The coset layout group.cosets documents, in tuple arithmetic: H =
    span(gens) first, then every other coset in order of its minimum r,
    listed as r + h for h in H."""
    subgroup = [params.element(h) for h in span_closure(params, [params.element(g) for g in gens])]
    seen = set()
    out = []
    for rep in range(params.order):
        if rep not in seen:
            coset = [index(params, _add_tuples(params, params.element(rep), h)) for h in subgroup]
            seen.update(coset)
            out.append(coset)
    return out


def reference_realize(params: GroupParams, shape: Shape, plan) -> Labeling:
    """A constructor.ComponentPlan placed cell by cell: every pattern zipped
    with its coset of reference_cosets into the role classes, reflected back
    when the plan was made for the mirror shape.  The reference that
    constructor._realize, which places uniform blocks whole, is checked
    against."""
    part: labeling.Partition = {role: [] for role in SPINE_ROLES + HAIR_ROLES}
    for pattern, comp in zip(plan.patterns, reference_cosets(params, plan.model)):
        for role, v in zip(pattern, comp):
            part[role].append(v)
    if not plan.reflected:
        return labeling.partition_to_labeling(params, shape, part)
    mirror = labeling.make_shape(params, shape.h[::-1])
    return reflect(params, labeling.partition_to_labeling(params, mirror, part))


def reference_from_twin(params: GroupParams, shape: Shape, twin: Labeling) -> Labeling:
    """Map a labeling of constructor.empty_x_twin(shape) back to the corner
    shape, on Labeling tuples: the reference that constructor._realize,
    which writes the twin's plan with the corner's roles, is checked
    against.

    For C(0,h2,h3) from C(h2+1,h3-1,0) with spine (b1,b2,b3): a1 is the
    first X hair, a2 = b1, a3 = b2, Y is the other X hairs and Z is the Y
    hairs plus b3.  The mirror corner goes through the reflection.
    """
    mirrored = shape.h[0] != 0
    if mirrored:
        twin = reflect(params, twin)
    b1, b2, b3 = twin.spine_ix
    a1, *y = twin.x_ix
    lab = labeling.make_labeling(params, (a1, b1, b2), (), y, twin.y_ix + (b3,))
    return reflect(params, lab) if mirrored else lab


def reference_verify(params: GroupParams, shape: Shape, spine, x, y, z) -> labeling.VerifyReport:
    """labeling.verify_labels by lists, each hair class sorted: a range
    check, then the first repeat among the vertices and among the edge
    labels of group.translate, each found by a set and a scan in canonical
    order.  The reference that labeling.verify_labels, which checks labels
    that are a bijection on their role map and translated sets, is checked
    against."""
    labeling._check_shape(params, shape)
    sizes = (len(x), len(y), len(z))
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"hair counts {sizes} != shape {shape.h}")
    spine, hairs = tuple(spine), (tuple(sorted(x)), tuple(sorted(y)), tuple(sorted(z)))
    idx = spine + hairs[0] + hairs[1] + hairs[2]
    n = params.order
    if min(idx) < 0 or max(idx) >= n:
        bad = next(v for v in idx if not 0 <= v < n)
        raise InvalidElementError(f"{bad} is not an element index of Z_{params.p}^{params.k}")

    dup_vertex = labeling._first_repeat(idx)
    if dup_vertex is not None:
        roles = SPINE_ROLES + tuple(role for role, cells in zip(HAIR_ROLES, hairs) for _ in cells)
        dup_vertex = tuple(
            f"spine{i + 1}" if i < 3 else f"hair {roles[i]} {params.element(idx[i])}"
            for i in dup_vertex
        )
    elif len(idx) != n:
        raise PartitionShapeMismatchError(f"labeling has {len(idx)} vertices, group has {n}")

    sums = labeling.edge_labels(params, spine, hairs)
    dup_edge = labeling._first_repeat(sums)
    if dup_edge is not None:
        edges = list(labeling._edges(spine, hairs))
        dup_edge = tuple(edges[i] for i in dup_edge)

    valid = dup_vertex is None and dup_edge is None
    missing = n * (n - 1) // 2 - sum(sums) if valid else None
    return labeling.VerifyReport(valid, dup_vertex, dup_edge, missing)


def payload(params: GroupParams, shape: Shape, spine, x=(), y=(), z=()) -> dict:
    """A labeling in the JSON schema, labels given as coordinate sequences."""
    return {
        "group": {"p": params.p, "k": params.k},
        "shape": {"h": list(shape.h)},
        "spine": [list(e) for e in spine],
        "hairs": {role: [list(e) for e in cells] for role, cells in zip(HAIR_ROLES, (x, y, z))},
    }


def role_classes(params: GroupParams, part: Dict[Union[Element, int], str]) -> labeling.Partition:
    """A role per element, keyed by tuple element or by index, as the
    package's role partition: each role -> the indices of its cells."""
    ix = TupleGroup(params).ix
    classes: labeling.Partition = {role: [] for role in SPINE_ROLES + HAIR_ROLES}
    for e, role in part.items():
        classes[role].append(e if type(e) is int else ix(e))
    return classes


def tuple_keys(params: GroupParams, d: Dict[int, object]) -> Dict[Element, object]:
    """A mapping keyed by index (a role partition or menu entry), keyed by
    tuple element."""
    return {params.element(v): x for v, x in d.items()}


def tuple_models(params: GroupParams, models: Iterable[Tuple[int, int]]) -> List[Tuple[Element, Element]]:
    return [(params.element(a), params.element(b)) for a, b in models]


def model_param(params: GroupParams, a: int, b: int):
    """pytest.param of (params, a, b) for the spine model of indices a, b,
    named by its coordinates: Z3^2-a10-b20."""
    ta, tb = params.element(a), params.element(b)
    return pytest.param(
        params, a, b, id=f"Z{params.p}^{params.k}-a{''.join(map(str, ta))}-b{''.join(map(str, tb))}"
    )


class ModelMismatchError(RainbowError, ValueError):
    """Partition spine roles are not placed at the elements a, 0, b of the model."""


Violation = Tuple[str, Element]


def check_forbidden(
    params: GroupParams, model: Tuple[Element, Element], part: Dict[Element, str]
) -> List[Violation]:
    """Forbidden assignments in the model [a,0,b], on a role partition keyed
    by tuple elements.

    Violations: X at b-a; Z at a-b; X at u with Y at u+a; Z at u with Y at u+b;
    Z at u with X at u+(b-a).  Empty result is equivalent to verifier validity
    for a full role assignment.
    """
    a, b = model
    if part.get(a) != S1 or part.get(zero(params)) != S2 or part.get(b) != S3:
        raise ModelMismatchError("spine roles must sit at a, 0, b")

    tg = TupleGroup(params)
    b_minus_a = tg.sub(b, a)
    out: List[Violation] = []
    if part.get(b_minus_a) == X:
        out.append(("x=b-a", b_minus_a))
    a_minus_b = tg.sub(a, b)
    if part.get(a_minus_b) == Z:
        out.append(("z=a-b", a_minus_b))
    for u in sorted(part):
        role = part[u]
        if role == X and part.get(tg.add(u, a)) == Y:
            out.append(("x->a->y", u))
        elif role == Z:
            if part.get(tg.add(u, b)) == Y:
                out.append(("z->b->y", u))
            if part.get(tg.add(u, b_minus_a)) == X:
                out.append(("z->(b-a)->x", u))
    return out


def _map_labels(lab: Labeling, f) -> Labeling:
    """Apply f to every label, as a tuple."""
    ix = TupleGroup(lab.params).ix
    return labeling.make_labeling(
        lab.params, *([ix(f(e)) for e in cells] for cells in (lab.spine, lab.x, lab.y, lab.z))
    )


_MIRROR_CODES = bytes.maketrans(b"\x01\x03\x04\x06", b"\x03\x01\x06\x04")


def reflect(params: GroupParams, lab: Labeling) -> Labeling:
    """Reverse the spine: swap the role codes of a1<->a3 and of the X/Z hair
    sets."""
    return Labeling(params, lab.role_map.translate(_MIRROR_CODES))


def translate(params: GroupParams, lab: Labeling, c: Element) -> Labeling:
    """Shift every vertex label by c; validity is preserved."""
    tg = TupleGroup(params)
    return _map_labels(lab, lambda e: tg.add(e, c))


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


def naive_models(params: GroupParams) -> List[Tuple[int, int]]:
    """Translated forms (a1-a2, a3-a2) of every distinct spine triple, as
    index pairs: the reference that constructor.canonical_models is checked
    against."""
    out = []
    elems = range(params.order)
    for a1 in elems:
        for a2 in elems:
            if a2 == a1:
                continue
            for a3 in elems:
                if a3 == a1 or a3 == a2:
                    continue
                out.append((sub(params, a1, a2), sub(params, a3, a2)))
    return out


def decompose_bfs(
    target: Tuple[int, int, int],
    triples: Sequence[Tuple[int, int, int]],
    blocks: int,
) -> Optional[List[Tuple[int, int, int]]]:
    """Write target as a sum of exactly ``blocks`` triples of a regular menu
    by the breadth-first search bounded by the target: the reference that
    constructor._decompose, a lookup in a per-menu table, is checked
    against.

    Every triple sums to n = |H|, and the uniform triples (n,0,0), (0,n,0),
    (0,0,n) are always in the menu (a + C = C for a in H), so only the mixed
    triples need a search.  It runs breadth-first by the number of mixed
    blocks and keeps, per residue class (s1 mod n, s2 mod n), only the sums
    that no kept sum lies below in every coordinate: the difference would be
    uniform blocks.  The first sum s <= target with target - s = 0 (mod n)
    is completed with uniform blocks.
    """
    n = sum(triples[0])
    mixed = sorted(t for t in triples if n not in t)
    parent: Dict[Tuple[int, int, int], Tuple] = {(0, 0, 0): ()}
    kept: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {(0, 0): [(0, 0, 0)]}
    frontier = [(0, 0, 0)]
    for level in range(blocks + 1):
        grown = []
        for s in frontier:
            if all((t - v) % n == 0 for t, v in zip(target, s)):
                fx, fy, fz = ((t - v) // n for t, v in zip(target, s))
                out = [(n, 0, 0)] * fx + [(0, n, 0)] * fy + [(0, 0, n)] * fz
                while parent[s]:
                    s, tri = parent[s]
                    out.append(tri)
                return out
            if level == blocks:
                continue
            for tri in mixed:
                nxt = (s[0] + tri[0], s[1] + tri[1], s[2] + tri[2])
                if any(v > t for v, t in zip(nxt, target)):
                    continue
                cls = kept.setdefault((nxt[0] % n, nxt[1] % n), [])
                if any(all(o <= v for o, v in zip(old, nxt)) for old in cls):
                    continue
                cls.append(nxt)
                parent[nxt] = (s, tri)
                grown.append(nxt)
        frontier = grown
    return None


# --- the label writers on tuple elements: the reference for the package's ---


def _tuple_text(e: Element) -> str:
    return "(" + ",".join(str(c) for c in e) + ")"


def reference_json(params: GroupParams, shape: Shape, lab: Labeling) -> str:
    """``label --format json``: json.dumps of the schema, labels as lists."""
    return json.dumps({
        "group": {"p": params.p, "k": params.k},
        "shape": {"h": list(shape.h)},
        "spine": [list(e) for e in lab.spine],
        "hairs": {role: [list(e) for e in cells] for role, cells in zip(HAIR_ROLES, (lab.x, lab.y, lab.z))},
    }) + "\n"


def reference_text(params: GroupParams, shape: Shape, lab: Labeling) -> str:
    """``label --format text``; the missing label is verify's set difference."""
    missing = params.element(labeling.verify(params, shape, lab).missing_edge_label)
    rows = [("spine", lab.spine), ("x", lab.x), ("y", lab.y), ("z", lab.z), ("missing", (missing,))]
    return "".join(f"{name}: " + " ".join(map(_tuple_text, cells)) + "\n" for name, cells in rows)


def reference_dot(params: GroupParams, shape: Shape, lab: Labeling) -> str:
    """``label --format dot``: a node per element in index order, then the
    edges spine-first, each labeled with the sum of its ends."""
    tg = TupleGroup(params)
    roles = dict(zip(lab.spine, (S1, S2, S3)))
    for role, cells in zip(HAIR_ROLES, (lab.x, lab.y, lab.z)):
        roles.update(dict.fromkeys(cells, role))
    a1, a2, a3 = lab.spine
    edges = [(a1, a2), (a2, a3)]
    edges += [(a, e) for a, cells in zip(lab.spine, (lab.x, lab.y, lab.z)) for e in cells]
    lines = ["graph caterpillar {"]
    lines += [f'  n{tg.ix(e)} [label="{_tuple_text(e)}" role="{roles[e]}"];' for e in sorted(roles)]
    lines += [
        f'  n{tg.ix(u)} -- n{tg.ix(v)} [label="{_tuple_text(tg.add(u, v))}"];' for u, v in edges
    ]
    return "\n".join(lines) + "\n}\n"
