"""Caterpillar data model: shapes, labelings, role partitions, the verifier,
the edge-label bit table, reflection, and the JSON schema.

The caterpillar C(h1,h2,h3) has three spine vertices carrying h1, h2, h3
pendant hairs; its order equals the group order p^k.  A labeling assigns a
distinct group element to every vertex; hair vertices are anonymous, so hair
labels are stored as sets.  The verifier is the ground truth: a labeling is
valid iff vertex labels are a bijection onto the group and the p^k - 1 edge
sums are pairwise distinct.

A Labeling, a VerifyReport, a role partition (the cells of each role) and
the edge-label bit table all hold elements as integer indices (see group).
Coordinates appear only in the JSON schema, whose reader validates each
element as it converts it and whose writer formats the indices as it prints
them.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import group
from .errors import (
    InvalidElementError, InvalidShapeError, PartitionShapeMismatchError, RainbowError
)
from .group import Element, GroupParams

# Role tags: the keys of a role partition.
X = "x"
Y = "y"
Z = "z"
S1 = "s1"
S2 = "s2"
S3 = "s3"
HAIR_ROLES = (X, Y, Z)
SPINE_ROLES = (S1, S2, S3)


class Shape(NamedTuple):
    """Hair counts (h1, h2, h3) of the caterpillar."""

    h: Tuple[int, int, int]


def make_shape(params: GroupParams, h: Sequence[int]) -> Shape:
    h = tuple(h)
    if len(h) != 3 or any(type(v) is not int or v < 0 for v in h):
        raise InvalidShapeError(f"need three non-negative hair counts, got {h}")
    if params.order < 3:
        raise InvalidShapeError("no three-spine caterpillar on fewer than 3 vertices")
    if sum(h) != params.order - 3:
        raise InvalidShapeError(
            f"hair counts {h} sum to {sum(h)}, expected {params.order - 3} for Z_{params.p}^{params.k}"
        )
    return Shape(h)


class ResidueTriple(NamedTuple):
    alpha: int
    beta: int
    gamma: int


def residues(params: GroupParams, shape: Shape) -> ResidueTriple:
    """Hair counts reduced mod p; their sum is p-3 mod p by construction."""
    _check_shape(params, shape)
    a, b, c = (v % params.p for v in shape.h)
    return ResidueTriple(a, b, c)


def _check_shape(params: GroupParams, shape: Shape) -> None:
    if sum(shape.h) != params.order - 3 or min(shape.h) < 0:
        raise InvalidShapeError(f"shape {shape.h} invalid for Z_{params.p}^{params.k}")


class Labeling(NamedTuple):
    """Tree-side picture: spine labels (a1,a2,a3) plus sorted hair label
    sets, as element indices of the group of ``params``.

    spine, x, y and z are read-only views of the same labels as coordinate
    tuples, computed on each access and never stored.
    """

    params: GroupParams
    spine_ix: Tuple[int, int, int]
    x_ix: Tuple[int, ...]
    y_ix: Tuple[int, ...]
    z_ix: Tuple[int, ...]

    def hair_ix(self, role: str) -> Tuple[int, ...]:
        return {X: self.x_ix, Y: self.y_ix, Z: self.z_ix}[role]

    def vertices(self) -> Tuple[int, ...]:
        """Every label in vertex order: the spine, then the x, y, z hairs."""
        return self.spine_ix + self.x_ix + self.y_ix + self.z_ix

    def roles(self) -> Tuple[str, ...]:
        """The role of every label, in vertices() order."""
        return SPINE_ROLES + (X,) * len(self.x_ix) + (Y,) * len(self.y_ix) + (Z,) * len(self.z_ix)

    def _tuples(self, cells: Sequence[int]) -> Tuple[Element, ...]:
        return tuple(map(self.params.element, cells))

    spine = property(lambda self: self._tuples(self.spine_ix))
    x = property(lambda self: self._tuples(self.x_ix))
    y = property(lambda self: self._tuples(self.y_ix))
    z = property(lambda self: self._tuples(self.z_ix))


def make_labeling(params: GroupParams, spine, x, y, z) -> Labeling:
    return Labeling(params, tuple(spine), tuple(sorted(x)), tuple(sorted(y)), tuple(sorted(z)))


# A role map holds one code per element in a bytearray of the group order:
# role i of ROLES has code i + 1 (s1, s2, s3 are 1-3; x, y, z 4-6), 0 is none.
# _PICK[codes] is the bytes.translate table that maps those codes to 1.
ROLES = SPINE_ROLES + HAIR_ROLES
_PICK = {c: bytes(b in c for b in range(256)) for c in ((4,), (5,), (6,), (1, 3, 5))}


def role_map_to_labeling(params: GroupParams, shape: Shape, roles: bytearray) -> Labeling:
    """The labeling of a role map of the shape.  A hair class is read in
    index order through a list: a tuple built from the iterator keeps more
    memory."""
    cells = range(params.order)
    hairs = [tuple(list(itertools.compress(cells, roles.translate(_PICK[(c,)])))) for c in (4, 5, 6)]
    sizes = tuple(map(len, hairs))
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"role-class sizes {sizes} != shape {shape.h}")
    return Labeling(params, tuple(map(roles.index, (1, 2, 3))), *hairs)


# Role classes: each of S1, S2, S3, X, Y, Z -> its cells, in any order.
Partition = Dict[str, List[int]]


def partition_to_labeling(params: GroupParams, shape: Shape, part: Partition) -> Labeling:
    """The labeling whose role classes are ``part``: one cell per spine role,
    hair classes of the shape's sizes, which come out sorted."""
    _check_shape(params, shape)
    spine = [part.get(role, ()) for role in SPINE_ROLES]
    if any(len(c) != 1 for c in spine):
        raise PartitionShapeMismatchError(f"spine roles hold {spine}, need one label each")
    hairs = [part.get(role, ()) for role in HAIR_ROLES]
    sizes = tuple(map(len, hairs))
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"role-class sizes {sizes} != shape {shape.h}")
    return make_labeling(params, [c[0] for c in spine], *hairs)


class VerifyReport(NamedTuple):
    """verify's verdict; edges and the missing edge label are element indices."""

    valid: bool
    duplicate_vertex: Optional[Tuple[str, str]] = None
    duplicate_edge: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None
    missing_edge_label: Optional[int] = None


def _edges(lab: Labeling):
    """Caterpillar edges as (endpoint label, endpoint label) pairs, canonical order."""
    a1, a2, a3 = lab.spine_ix
    yield (a1, a2)
    yield (a2, a3)
    for spine_label, role in ((a1, X), (a2, Y), (a3, Z)):
        for e in lab.hair_ix(role):
            yield (spine_label, e)


def edge_labels(params: GroupParams, lab: Labeling) -> List[int]:
    """The label of every edge, in _edges order."""
    a1, a2, a3 = lab.spine_ix
    return (
        group.translate(params, a2, (a1, a3))
        + group.translate(params, a1, lab.x_ix)
        + group.translate(params, a2, lab.y_ix)
        + group.translate(params, a3, lab.z_ix)
    )


def _first_repeat(keys: Sequence[int]) -> Optional[Tuple[int, int]]:
    """Positions (i, j), i < j, of the first key seen twice, scanning in
    order; None if the keys are distinct."""
    if len(set(keys)) == len(keys):
        return None
    first: Dict[int, int] = {}
    for j, key in enumerate(keys):
        if key in first:
            return first[key], j
        first[key] = j
    return None


def verify(params: GroupParams, shape: Shape, lab: Labeling) -> VerifyReport:
    """Check hair counts against the shape, vertex bijectivity and edge-label
    distinctness; report the first failure found in canonical scan order, or
    the missing edge label if valid.  A count mismatch raises
    PartitionShapeMismatchError, a label outside [0, p^k) InvalidElementError.

    The labels are scattered once into a role map.  p^k labels are a
    bijection when no cell is left empty and they sum to 0 + 1 + ... +
    (p^k - 1), which a negative index, wrapped around in the map, does not.
    The edge labels are then three translated sets (group.translate_set),
    distinct when they miss exactly one cell, the missing edge label.  Only
    on a failure are the labels scanned one by one, in order.
    """
    _check_shape(params, shape)
    sizes = (len(lab.x_ix), len(lab.y_ix), len(lab.z_ix))
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"hair counts {sizes} != shape {shape.h}")
    n, roles = params.order, bytearray(params.order)
    classes = (*zip(lab.spine_ix), lab.x_ix, lab.y_ix, lab.z_ix)  # codes 1 to 6
    try:
        for code, cells in enumerate(classes, 1):
            for v in cells:
                roles[v] = code
    except IndexError:  # the scan names the index
        pass
    else:
        if len(classes) == 6 and 0 not in roles and sum(map(sum, classes)) == n * (n - 1) // 2:
            edges = 0  # a1 + X, a2 + (a1, a3, Y), a3 + Z
            for a, codes in zip(lab.spine_ix, ((4,), (1, 3, 5), (6,))):
                edges |= group.translate_set(params, a, int.from_bytes(roles.translate(_PICK[codes]), "little"))
            covered = edges.to_bytes(n, "little")
            if covered.count(0) == 1:
                return VerifyReport(True, missing_edge_label=covered.index(0))
    idx = lab.vertices()
    if min(idx) < 0 or max(idx) >= n:
        bad = next(v for v in idx if not 0 <= v < n)
        raise InvalidElementError(f"{bad} is not an element index of Z_{params.p}^{params.k}")

    dup_vertex = _first_repeat(idx)
    if dup_vertex is not None:
        roles = lab.roles()
        dup_vertex = tuple(
            f"spine{i + 1}" if i < 3 else f"hair {roles[i]} {params.element(idx[i])}"
            for i in dup_vertex
        )
    elif len(idx) != n:
        # sizes off: report against shape rather than guessing a pair
        raise PartitionShapeMismatchError(
            f"labeling has {len(idx)} vertices, group has {n}"
        )

    sums = edge_labels(params, lab)
    dup_edge = _first_repeat(sums)
    if dup_edge is not None:
        edges = list(_edges(lab))
        dup_edge = tuple(edges[i] for i in dup_edge)

    valid = dup_vertex is None and dup_edge is None
    # the n - 1 distinct edge labels miss exactly one index
    missing = n * (n - 1) // 2 - sum(sums) if valid else None
    return VerifyReport(valid, dup_vertex, dup_edge, missing)


def missing_edge_label(params: GroupParams, shape: Shape, spine: Sequence[int]) -> int:
    """Closed form for the unique group element absent from the edge labels
    of a rainbow labeling of shape with spine labels (a1, a2, a3):
    -(h1*a1 + (h2+1)*a2 + h3*a3), from double-counting the group sum.  In
    the model [a,0,b] it is -(h1*a + h3*b).

    Only a rainbow labeling misses exactly one label; for any other spine
    the result names no missing label.
    """
    h1, h2, h3 = shape.h
    a1, a2, a3 = spine
    acc = group.add(params, group.scale(params, -h1, a1), group.scale(params, -h3, a3))
    # a2 is 0 in the oracle's spine models [a,0,b]
    return group.add(params, acc, group.scale(params, -h2 - 1, a2)) if a2 else acc


def role_label_bits(
    params: GroupParams, a: int, b: int, cells: Sequence[int]
) -> Tuple[int, Dict[int, Tuple[int, int, int]]]:
    """Edge labels of the model [a,0,b] as bits over the element indices.

    Returns the bits of the two spine-edge labels a and b, and for every cell
    v the bits that roles x, y, z at v put on an edge: a+v, v, b+v.  A role
    partition is rainbow iff no two of its bits coincide.
    """
    table = {
        v: (1 << x, 1 << v, 1 << z)
        for v, x, z in zip(
            cells, group.translate(params, a, cells), group.translate(params, b, cells)
        )
    }
    return (1 << a) | (1 << b), table


def reflect(params: GroupParams, lab: Labeling) -> Labeling:
    """Reverse the spine: swap a1<->a3 and the X/Z hair sets."""
    a1, a2, a3 = lab.spine_ix
    return Labeling(params, (a3, a2, a1), lab.z_ix, lab.y_ix, lab.x_ix)


# --- JSON schema (bit-exact CLI contract) ---------------------------------

# json.dumps of {"group", "shape", "spine", "hairs"}, every element a list of
# its coordinates; the label arrays are written by group.format_elements.
_JSON = (
    '{"group": {"p": %d, "k": %d}, "shape": {"h": [%d, %d, %d]}, '
    '"spine": %s, "hairs": {"x": %s, "y": %s, "z": %s}}'
)


def labeling_to_json(params: GroupParams, shape: Shape, lab: Labeling) -> str:
    arrays = [
        "[" + ", ".join(group.format_elements(params, cells, ", ", "[]")) + "]"
        for cells in (lab.spine_ix, lab.x_ix, lab.y_ix, lab.z_ix)
    ]
    return _JSON % (params.p, params.k, *shape.h, *arrays)


def labeling_from_dict(data: dict) -> Tuple[GroupParams, Shape, Labeling]:
    """Parse the JSON schema; every element is validated as it is converted
    to its index (group.element_from_json), the first invalid one raising
    InvalidElementError."""
    try:
        params = GroupParams(data["group"]["p"], data["group"]["k"])
        shape = make_shape(params, data["shape"]["h"])
        spine = [group.element_from_json(params, e) for e in data["spine"]]
        if len(spine) != 3:
            raise InvalidShapeError("spine must have three labels")
        hairs = [
            [group.element_from_json(params, e) for e in data["hairs"][role]]
            for role in HAIR_ROLES
        ]
    except (KeyError, TypeError) as exc:
        raise RainbowError(f"malformed labeling payload: {exc}") from exc
    return params, shape, make_labeling(params, spine, *hairs)
