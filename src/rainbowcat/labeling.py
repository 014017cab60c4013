"""Caterpillar data model: shapes, labelings as role maps, the verifier, the
edge-label bit table, and the JSON schema.

The caterpillar C(h1,h2,h3) has three spine vertices carrying h1, h2, h3
pendant hairs; its order equals the group order p^k.  A labeling assigns a
distinct group element to every vertex.  Hair vertices are anonymous, so a
labeling is a map from the group onto the roles s1, s2, s3, x, y, z with
class sizes (1, 1, 1, h1, h2, h3): its role map, one byte per element,
which is what a Labeling holds.  The verifier is the ground truth: a
labeling is valid iff vertex labels are a bijection onto the group and the
p^k - 1 edge sums are pairwise distinct.  A role map is a bijection by its
form, so verify checks its class sizes and its edge labels; labels from
outside, which may repeat or fall outside the group, go to verify_labels.

A Labeling, a VerifyReport and the edge-label bit table hold elements as
integer indices (see group).  Coordinates appear only in the JSON schema,
whose reader validates each element as it converts it and whose writer
formats the role map's classes a chunk at a time as it prints them.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import group
from .errors import (
    InvalidElementError, InvalidShapeError, PartitionShapeMismatchError, RainbowError
)
from .group import Element, GroupParams

# Role tags: the roles of a plan's patterns and the keys of a role partition.
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
    """Hair counts reduced mod p; their sum is p-3 mod p by construction.
    The shape is not checked: its callers run after a check of it."""
    a, b, c = (v % params.p for v in shape.h)
    return ResidueTriple(a, b, c)


def _check_shape(params: GroupParams, shape: Shape) -> None:
    if sum(shape.h) != params.order - 3 or min(shape.h) < 0:
        raise InvalidShapeError(f"shape {shape.h} invalid for Z_{params.p}^{params.k}")


# A role map holds one code per element in bytes of the group order: role i
# of ROLES has code i + 1 (s1, s2, s3 are 1-3; x, y, z 4-6).
# _PICK[codes] is the bytes.translate table that maps those codes to 1.
ROLES = SPINE_ROLES + HAIR_ROLES
_PICK = {c: bytes(b in c for b in range(256)) for c in ((4,), (5,), (6,), (1, 3, 5))}


class Labeling(NamedTuple):
    """A labeling as its role map: role_map[v] is the code (ROLES) of the
    vertex labeled by the element of index v.

    spine_ix and the hair classes x_ix, y_ix, z_ix (sorted) are read-only
    views of it as element indices, spine, x, y and z the same as coordinate
    tuples, computed on each access and never stored.
    """

    params: GroupParams
    role_map: bytes

    spine_ix = property(lambda self: tuple(map(self.role_map.index, (1, 2, 3))))

    def hair_ix(self, role: str) -> Tuple[int, ...]:
        return tuple(hair_cells(self, role))

    x_ix = property(lambda self: self.hair_ix(X))
    y_ix = property(lambda self: self.hair_ix(Y))
    z_ix = property(lambda self: self.hair_ix(Z))

    def vertices(self) -> Tuple[int, ...]:
        """Every label in vertex order: the spine, then the x, y, z hairs."""
        return self.spine_ix + self.x_ix + self.y_ix + self.z_ix

    def roles(self) -> Tuple[str, ...]:
        """The role of every label, in vertices() order."""
        return SPINE_ROLES + sum(((r,) * self.role_map.count(c) for c, r in enumerate(HAIR_ROLES, 4)), ())

    def _tuples(self, cells: Sequence[int]) -> Tuple[Element, ...]:
        return tuple(map(self.params.element, cells))

    spine = property(lambda self: self._tuples(self.spine_ix))
    x = property(lambda self: self._tuples(self.x_ix))
    y = property(lambda self: self._tuples(self.y_ix))
    z = property(lambda self: self._tuples(self.z_ix))


def hair_cells(lab: Labeling, role: str) -> Iterator[int]:
    """The labels of a hair class, in index order."""
    pick = _PICK[(4 + HAIR_ROLES.index(role),)]
    return itertools.compress(range(len(lab.role_map)), lab.role_map.translate(pick))


def make_labeling(params: GroupParams, spine, x, y, z) -> Labeling:
    """The labeling with spine labels (a1, a2, a3) and hair classes x, y, z
    (element indices, in any order); ValueError unless they are a bijection
    onto the group.  n = p^k labels are one when they leave no cell of the
    role map empty and sum to 0 + 1 + ... + (n - 1), which a negative index,
    wrapped around in the map, does not."""
    n, classes = params.order, (*zip(spine), x, y, z)  # codes 1 to 6
    roles = bytearray(n)
    if len(classes) == 6 and sum(map(len, classes)) == n:
        try:
            for code, cells in enumerate(classes, 1):
                for v in cells:
                    roles[v] = code
        except IndexError:  # the label not written leaves a cell empty
            pass
    if 0 in roles or sum(map(sum, classes)) != n * (n - 1) // 2:
        raise ValueError(f"labels are not a bijection onto Z_{params.p}^{params.k}")
    return Labeling(params, bytes(roles))


# Role classes: each of S1, S2, S3, X, Y, Z -> its cells, in any order.
# The package builds none; they stay because perfbench/spans.py traces partition_to_labeling.
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


def _edges(spine: Sequence[int], hairs: Sequence[Sequence[int]]):
    """Caterpillar edges as (endpoint label, endpoint label) pairs, canonical
    order, for spine labels and the x, y, z hair classes."""
    a1, a2, a3 = spine
    yield (a1, a2)
    yield (a2, a3)
    for spine_label, cells in zip(spine, hairs):
        for e in cells:
            yield (spine_label, e)


def edge_labels(params: GroupParams, spine: Sequence[int], hairs: Sequence[Sequence[int]]) -> List[int]:
    """The label of every edge, in _edges order."""
    a1, a2, a3 = spine
    x, y, z = hairs
    return (
        group.translate(params, a2, (a1, a3))
        + group.translate(params, a1, x)
        + group.translate(params, a2, y)
        + group.translate(params, a3, z)
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
    """Check the role classes' sizes against the shape and the edge labels'
    distinctness; report the first repeated edge label in canonical scan
    order, or the missing edge label if valid.  A size mismatch raises
    PartitionShapeMismatchError.

    A role map whose classes have the shape's sizes is a bijection onto the
    group.  Its edge labels are three translated sets (group.translate_set),
    distinct when they miss exactly one cell, the missing edge label.  Only
    on a repeat are the edges scanned one by one, in order.
    """
    _check_shape(params, shape)
    roles, n = lab.role_map, params.order
    counts = tuple(map(roles.count, range(1, 7)))
    if counts[3:] != shape.h:
        raise PartitionShapeMismatchError(f"hair counts {counts[3:]} != shape {shape.h}")
    if counts[:3] != (1, 1, 1) or len(roles) != n:
        raise PartitionShapeMismatchError(f"spine role counts {counts[:3]} in {len(roles)} cells, not 1 in {n}")
    spine = lab.spine_ix
    edges = 0  # a1 + X, a2 + (a1, a3, Y), a3 + Z
    for a, codes in zip(spine, ((4,), (1, 3, 5), (6,))):
        edges |= group.translate_set(params, a, int.from_bytes(roles.translate(_PICK[codes]), "little"))
    covered = edges.to_bytes(n, "little")
    if covered.count(0) == 1:
        return VerifyReport(True, missing_edge_label=covered.index(0))
    return _scan(params, spine, tuple(map(lab.hair_ix, HAIR_ROLES)))


def verify_labels(params: GroupParams, shape: Shape, spine, x, y, z) -> VerifyReport:
    """verify for labels from outside: spine labels (a1, a2, a3) and hair
    classes x, y, z as element indices, which may repeat or fall outside
    [0, p^k).  A hair count off the shape raises PartitionShapeMismatchError.
    Labels that are a bijection go to verify as their role map; any others
    are scanned in canonical order, each hair class sorted, and a label
    outside [0, p^k) raises InvalidElementError."""
    _check_shape(params, shape)
    sizes = (len(x), len(y), len(z))
    if sizes != shape.h:
        raise PartitionShapeMismatchError(f"hair counts {sizes} != shape {shape.h}")
    try:
        lab = make_labeling(params, spine, x, y, z)
    except ValueError:
        return _scan(params, spine, tuple(map(sorted, (x, y, z))))
    return verify(params, shape, lab)


def _scan(params: GroupParams, spine: Sequence[int], hairs: Sequence[Sequence[int]]) -> VerifyReport:
    """The first failure in canonical scan order of labels that fail: a
    label outside [0, p^k), a repeated vertex label, a repeated edge
    label."""
    idx = [*spine, *itertools.chain.from_iterable(hairs)]
    n = params.order
    if min(idx) < 0 or max(idx) >= n:
        bad = next(v for v in idx if not 0 <= v < n)
        raise InvalidElementError(f"{bad} is not an element index of Z_{params.p}^{params.k}")

    dup_vertex = _first_repeat(idx)
    if dup_vertex is not None:
        roles = [*SPINE_ROLES, *(role for role, cells in zip(HAIR_ROLES, hairs) for _ in cells)]
        dup_vertex = tuple(
            f"spine{i + 1}" if i < 3 else f"hair {roles[i]} {params.element(idx[i])}"
            for i in dup_vertex
        )
    elif len(idx) != n:
        # sizes off: report against shape rather than guessing a pair
        raise PartitionShapeMismatchError(
            f"labeling has {len(idx)} vertices, group has {n}"
        )

    sums = edge_labels(params, spine, hairs)
    dup_edge = _first_repeat(sums)
    if dup_edge is not None:
        edges = list(_edges(spine, hairs))
        dup_edge = tuple(edges[i] for i in dup_edge)
    return VerifyReport(False, dup_vertex, dup_edge)


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


# --- JSON schema (bit-exact CLI contract) ---------------------------------

# Labels per piece of writer output: a writer holds the text of one chunk of
# a class at a time, not the whole labeling's.
CHUNK = 65536


def format_cells(
    params: GroupParams, cells: Iterable[int], sep: str, brackets: str, between: str
) -> Iterator[str]:
    """The coordinates of the indices (group.format_elements with sep and
    brackets), joined by ``between``, in pieces of CHUNK labels."""
    cells, lead = iter(cells), ""
    for chunk in iter(lambda: list(itertools.islice(cells, CHUNK)), []):
        yield lead + between.join(group.format_elements(params, chunk, sep, brackets))
        lead = between


def json_pieces(params: GroupParams, shape: Shape, lab: Labeling) -> Iterator[str]:
    """``label --format json`` in pieces: json.dumps of {"group", "shape",
    "spine", "hairs"}, every element a list of its coordinates."""
    head = '{"group": {"p": %d, "k": %d}, "shape": {"h": [%d, %d, %d]}, "spine": ['
    yield head % (params.p, params.k, *shape.h)
    classes = [lab.spine_ix] + [hair_cells(lab, role) for role in HAIR_ROLES]
    for cells, tail in zip(classes, ('], "hairs": {"x": [', '], "y": [', '], "z": [', "]}}")):
        yield from format_cells(params, cells, ", ", "[]", ", ")
        yield tail


def labeling_to_json(params: GroupParams, shape: Shape, lab: Labeling) -> str:
    return "".join(json_pieces(params, shape, lab))


def _indices(params: GroupParams, cells, name: str) -> List[int]:
    if type(cells) is not list:
        raise RainbowError(f"malformed labeling payload: {name} is a {type(cells).__name__}, not a list")
    return [group.element_from_json(params, e) for e in cells]


def labeling_from_dict(data: dict) -> Tuple[GroupParams, Shape, List[int], List[int], List[int], List[int]]:
    """Parse the JSON schema into the group, the shape, and the spine and
    x, y, z labels as element indices in payload order (verify_labels'
    arguments).  Every label array must be a list; every element is
    validated as it is converted to its index (group.element_from_json),
    the first invalid one raising InvalidElementError."""
    try:
        params = GroupParams(data["group"]["p"], data["group"]["k"])
        shape = make_shape(params, data["shape"]["h"])
        spine = _indices(params, data["spine"], "spine")
        if len(spine) != 3:
            raise InvalidShapeError("spine must have three labels")
        hairs = [_indices(params, data["hairs"][role], f"hairs {role}") for role in HAIR_ROLES]
    except (KeyError, TypeError) as exc:
        raise RainbowError(f"malformed labeling payload: {exc}") from exc
    return (params, shape, spine, *hairs)
