"""Caterpillar data model: shapes, labelings, role partitions, the verifier,
the edge-label bit table, reflection, and the JSON schema.

The caterpillar C(h1,h2,h3) has three spine vertices carrying h1, h2, h3
pendant hairs; its order equals the group order p^k.  A labeling assigns a
distinct group element to every vertex; hair vertices are anonymous, so hair
labels are stored as sets.  The verifier is the ground truth: a labeling is
valid iff vertex labels are a bijection onto the group and the p^k - 1 edge
sums are pairwise distinct.
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


Partition = Dict[Element, str]


def labeling_to_partition(params: GroupParams, lab: Labeling) -> Partition:
    part: Partition = {}
    for role, e in zip(SPINE_ROLES, lab.spine):
        part[e] = role
    for role in HAIR_ROLES:
        for e in lab.hairs(role):
            part[e] = role
    return part


def partition_to_labeling(params: GroupParams, shape: Shape, part: Partition) -> Labeling:
    """Inverse of labeling_to_partition; hair sets come out in canonical order."""
    _check_shape(params, shape)
    spine: Dict[str, Element] = {}
    hairs: Dict[str, List[Element]] = {X: [], Y: [], Z: []}
    for e in sorted(part):
        role = part[e]
        if role in SPINE_ROLES:
            if role in spine:
                raise PartitionShapeMismatchError(f"duplicate spine role {role}")
            spine[role] = e
        else:
            hairs[role].append(e)
    if set(spine) != set(SPINE_ROLES):
        raise PartitionShapeMismatchError("partition misses a spine role")
    sizes = tuple(len(hairs[r]) for r in HAIR_ROLES)
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"role-class sizes {sizes} != shape {shape.h}")
    return make_labeling((spine[S1], spine[S2], spine[S3]), hairs[X], hairs[Y], hairs[Z])


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


def verify(params: GroupParams, shape: Shape, lab: Labeling) -> VerifyReport:
    """Check hair counts against the shape, vertex bijectivity and edge-label
    distinctness; report the first failure found in canonical scan order, or
    the missing edge label if valid.  A count mismatch raises
    PartitionShapeMismatchError."""
    _check_shape(params, shape)
    sizes = (len(lab.x), len(lab.y), len(lab.z))
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"hair counts {sizes} != shape {shape.h}")
    slots = [(e, f"spine{i + 1}") for i, e in enumerate(lab.spine)]
    for role in HAIR_ROLES:
        slots.extend((e, f"hair {role} {e}") for e in lab.hairs(role))

    dup_vertex = None
    seen_v: Dict[Element, str] = {}
    for e, slot in slots:
        params.validate(e)
        if e in seen_v:
            dup_vertex = (seen_v[e], slot)
            break
        seen_v[e] = slot
    if dup_vertex is None and len(seen_v) != params.order:
        # sizes off: report against shape rather than guessing a pair
        raise PartitionShapeMismatchError(
            f"labeling has {len(seen_v)} vertices, group has {params.order}"
        )

    dup_edge = None
    seen_e: Dict[Element, Tuple[Element, Element]] = {}
    for u, v in _edges(params, lab):
        s = group.add(params, u, v)
        if s in seen_e:
            dup_edge = (seen_e[s], (u, v))
            break
        seen_e[s] = (u, v)

    valid = dup_vertex is None and dup_edge is None
    missing = None
    if valid:
        missing = next(e for e in group.elements(params) if e not in seen_e)
    return VerifyReport(valid, dup_vertex, dup_edge, missing)


def missing_edge_label(params: GroupParams, shape: Shape, lab: Labeling) -> Element:
    """Closed form for the unique group element absent from the edge labels:
    -(h1*a1 + (h2+1)*a2 + h3*a3), from double-counting the group sum."""
    report = verify(params, shape, lab)
    if not report.valid:
        raise RainbowError("missing_edge_label requires a valid labeling")
    h1, h2, h3 = shape.h
    a1, a2, a3 = lab.spine
    acc = params.zero
    for c, e in ((h1, a1), (h2 + 1, a2), (h3, a3)):
        acc = group.add(params, acc, group.scale(params, c, e))
    return group.neg(params, acc)


def role_label_bits(
    params: GroupParams, a: Element, b: Element, cells: Sequence[Element]
) -> Tuple[int, Dict[Element, Tuple[int, int, int]]]:
    """Edge labels of the model [a,0,b] as bits over params.index.

    Returns the bits of the two spine-edge labels a and b, and for every cell
    v the bits that roles x, y, z at v put on an edge: a+v, v, b+v.  A role
    partition is rainbow iff no two of its bits coincide.
    """
    idx = params.index
    table = {
        v: (
            1 << idx(group.add(params, a, v)),
            1 << idx(v),
            1 << idx(group.add(params, b, v)),
        )
        for v in cells
    }
    return (1 << idx(a)) | (1 << idx(b)), table


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
