"""Caterpillar data model: shapes, labelings, role partitions, the verifier,
the edge-label bit table, reflection, and the JSON schema.

The caterpillar C(h1,h2,h3) has three spine vertices carrying h1, h2, h3
pendant hairs; its order equals the group order p^k.  A labeling assigns a
distinct group element to every vertex; hair vertices are anonymous, so hair
labels are stored as sets.  The verifier is the ground truth: a labeling is
valid iff vertex labels are a bijection onto the group and the p^k - 1 edge
sums are pairwise distinct.

A Labeling and a VerifyReport hold elements in the tuple boundary form; a
role partition and the edge-label bit table are keyed by integer index.
verify converts the labels to indices once and computes on those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import group
from .errors import InvalidShapeError, PartitionShapeMismatchError, RainbowError
from .group import Element, GroupParams

# Role tags for partition maps.
X = "x"
Y = "y"
Z = "z"
S1 = "s1"
S2 = "s2"
S3 = "s3"
HAIR_ROLES = (X, Y, Z)
SPINE_ROLES = (S1, S2, S3)


@dataclass(frozen=True)
class Shape:
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


@dataclass(frozen=True)
class ResidueTriple:
    alpha: int
    beta: int
    gamma: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)


def residues(params: GroupParams, shape: Shape) -> ResidueTriple:
    """Hair counts reduced mod p; their sum is p-3 mod p by construction."""
    _check_shape(params, shape)
    a, b, c = (v % params.p for v in shape.h)
    return ResidueTriple(a, b, c)


def _check_shape(params: GroupParams, shape: Shape) -> None:
    if sum(shape.h) != params.order - 3 or any(v < 0 for v in shape.h):
        raise InvalidShapeError(f"shape {shape.h} invalid for Z_{params.p}^{params.k}")


@dataclass(frozen=True)
class Labeling:
    """Tree-side picture: spine labels (a1,a2,a3) plus hair label sets."""

    spine: Tuple[Element, Element, Element]
    x: Tuple[Element, ...]
    y: Tuple[Element, ...]
    z: Tuple[Element, ...]

    def hairs(self, role: str) -> Tuple[Element, ...]:
        return {X: self.x, Y: self.y, Z: self.z}[role]


def make_labeling(spine, x, y, z) -> Labeling:
    return Labeling(tuple(spine), tuple(sorted(x)), tuple(sorted(y)), tuple(sorted(z)))


# Role of every element, keyed by index.
Partition = Dict[int, str]


def labeling_to_partition(params: GroupParams, lab: Labeling) -> Partition:
    roles = list(SPINE_ROLES) + [role for role in HAIR_ROLES for _ in lab.hairs(role)]
    return dict(zip(group.indices(params, lab.spine + lab.x + lab.y + lab.z), roles))


def partition_to_labeling(params: GroupParams, shape: Shape, part: Partition) -> Labeling:
    """Inverse of labeling_to_partition; hair sets come out in canonical order."""
    _check_shape(params, shape)
    elems = group.elements(params)
    spine: Dict[str, Element] = {}
    hairs: Dict[str, List[Element]] = {X: [], Y: [], Z: []}
    for v in sorted(part):
        role = part[v]
        if role in SPINE_ROLES:
            if role in spine:
                raise PartitionShapeMismatchError(f"duplicate spine role {role}")
            spine[role] = elems[v]
        else:
            hairs[role].append(elems[v])
    if set(spine) != set(SPINE_ROLES):
        raise PartitionShapeMismatchError("partition misses a spine role")
    sizes = tuple(len(hairs[r]) for r in HAIR_ROLES)
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"role-class sizes {sizes} != shape {shape.h}")
    # index order is lex order, so the hair sets are already sorted
    return Labeling((spine[S1], spine[S2], spine[S3]), *(tuple(hairs[r]) for r in HAIR_ROLES))


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    duplicate_vertex: Optional[Tuple[str, str]] = None
    duplicate_edge: Optional[Tuple[Tuple[Element, Element], Tuple[Element, Element]]] = None
    missing_edge_label: Optional[Element] = None


def _edges(params: GroupParams, lab: Labeling):
    """Caterpillar edges as (endpoint label, endpoint label) pairs, canonical order."""
    a1, a2, a3 = lab.spine
    yield (a1, a2)
    yield (a2, a3)
    for spine_label, role in ((a1, X), (a2, Y), (a3, Z)):
        for e in lab.hairs(role):
            yield (spine_label, e)


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
    PartitionShapeMismatchError, an invalid label InvalidElementError.

    Every label is converted to its index once (group.indices, the only
    validation); the checks then run on integer sets and sums.
    """
    _check_shape(params, shape)
    sizes = (len(lab.x), len(lab.y), len(lab.z))
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"hair counts {sizes} != shape {shape.h}")
    idx = group.indices(params, lab.spine + lab.x + lab.y + lab.z)
    n = params.order

    dup_vertex = _first_repeat(idx)
    if dup_vertex is not None:
        slots = [f"spine{i + 1}" for i in range(len(lab.spine))]
        slots += [f"hair {role} {e}" for role in HAIR_ROLES for e in lab.hairs(role)]
        dup_vertex = tuple(slots[i] for i in dup_vertex)
    elif len(idx) != n:
        # sizes off: report against shape rather than guessing a pair
        raise PartitionShapeMismatchError(
            f"labeling has {len(idx)} vertices, group has {n}"
        )

    # edge labels in _edges order: a1+a2, a2+a3, then each spine label plus
    # its hairs
    a1, a2, a3 = idx[:3]
    h1, h2, _ = shape.h
    hairs = idx[3:]
    sums = (
        group.translate(params, a2, (a1, a3))
        + group.translate(params, a1, hairs[:h1])
        + group.translate(params, a2, hairs[h1:h1 + h2])
        + group.translate(params, a3, hairs[h1 + h2:])
    )
    dup_edge = _first_repeat(sums)
    if dup_edge is not None:
        edges = list(_edges(params, lab))
        dup_edge = tuple(edges[i] for i in dup_edge)

    valid = dup_vertex is None and dup_edge is None
    missing = None
    if valid:
        # the n - 1 distinct edge labels miss exactly one index
        missing = params.element(n * (n - 1) // 2 - sum(sums))
    return VerifyReport(valid, dup_vertex, dup_edge, missing)


def missing_edge_label(params: GroupParams, shape: Shape, lab: Labeling) -> Element:
    """Closed form for the unique group element absent from the edge labels:
    -(h1*a1 + (h2+1)*a2 + h3*a3), from double-counting the group sum."""
    report = verify(params, shape, lab)
    if not report.valid:
        raise RainbowError("missing_edge_label requires a valid labeling")
    h1, h2, h3 = shape.h
    # verify validated the spine; group.indices would list the whole group
    a1, a2, a3 = map(params.index, lab.spine)
    acc = 0
    for c, e in ((h1, a1), (h2 + 1, a2), (h3, a3)):
        acc = group.add(params, acc, group.scale(params, c, e))
    return params.element(group.neg(params, acc))


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
    a1, a2, a3 = lab.spine
    return make_labeling((a3, a2, a1), lab.z, lab.y, lab.x)


# --- JSON schema (bit-exact CLI contract) ---------------------------------


def labeling_to_dict(params: GroupParams, shape: Shape, lab: Labeling) -> dict:
    return {
        "group": {"p": params.p, "k": params.k},
        "shape": {"h": list(shape.h)},
        "spine": [group.element_to_json(e) for e in lab.spine],
        "hairs": {
            role: [group.element_to_json(e) for e in lab.hairs(role)]
            for role in HAIR_ROLES
        },
    }


def labeling_from_dict(data: dict) -> Tuple[GroupParams, Shape, Labeling]:
    try:
        params = GroupParams(data["group"]["p"], data["group"]["k"])
        shape = make_shape(params, data["shape"]["h"])
        spine = tuple(group.element_from_json(params, e) for e in data["spine"])
        if len(spine) != 3:
            raise InvalidShapeError("spine must have three labels")
        hairs = {
            role: [group.element_from_json(params, e) for e in data["hairs"][role]]
            for role in HAIR_ROLES
        }
    except (KeyError, TypeError) as exc:
        raise RainbowError(f"malformed labeling payload: {exc}") from exc
    return params, shape, make_labeling(spine, hairs[X], hairs[Y], hairs[Z])
