"""Feasibility predicate and constructive engine for three-spine caterpillars.

Feasibility is a closed-form residue test (three exception families for
p >= 5, two for p = 3, a parity rule for p = 2).  Construction picks one
plan, a ComponentPlan: a spine model [a,0,b] and a role pattern per coset of
H = span(a, b), in group.cosets order, the spine coset first with its
markers s1, s2, s3.  build picks the plan once, realizes it once (_realize:
strided byte slices of a role map, written with relabeled roles for a plan
made for the mirror or the twin shape) and verifies it once; nothing in it
searches over labelings.  The plans come from:

* residue sum p-3: one spine-component pattern in a general model [a,0,b];
* residue sum 2p-3: spine pattern plus one or two mixed regular cycles,
  chosen by the case split on (alpha, beta, gamma);
* residue sum 3p-3: the (p-1,p-1,p-1) identity in the model [a,0,-a];
* the empty-X corner, residues (0, p-1, p-2) with h1 = 0: C(0,h2,h3) is the
  same tree as C(h2+1, h3-1, 0), whose residues (0, p-3, 0) take the first
  recipe (empty_x_twin; the mirror likewise).

So at p >= 5 every feasible shape takes a recipe or the empty-X twin.  Only
p in {2,3} walks the canonical spine models (small_p_patterns).
Each model is decided by per-coset menus: per role-count triple, one role
pattern in H's order, found by a depth-first search on the shared edge-label
bits (labeling.role_label_bits).  A decomposition of the hair counts into
menu triples (_decompose) is a lookup in a table, filled once per menu, of
the minimal sums of its mixed triples per residue class (|H| sums),
completed with uniform blocks.  build refuses groups of order above
MAX_ORDER, after the closed-form verdict.

Models, cosets, role classes and the Labeling build returns all hold
elements as integer indices (see group).
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import group, labeling
from .errors import (
    ConstructionError,
    InfeasibleShapeError,
    OrderLimitError,
    UnsupportedInstanceError,
)
from .group import GroupParams
from .labeling import HAIR_ROLES, S1, S2, S3, X, Y, Z, Labeling, Shape

E1_BETA_PM2 = "E1_beta_pm2"
E2_Y0 = "E2_Y0"
E3_Y1 = "E3_Y1"
P3_E1 = "P3_E1"
P3_E2 = "P3_E2"
P2_PARITY = "P2_parity"

# construct lists every element and coset, so it refuses larger groups
# rather than exhaust memory; Z_1009^2 (order 1,018,081) still fits.
MAX_ORDER = 2**20


class FeasibilityVerdict(NamedTuple):
    feasible: bool
    exception: Optional[str] = None
    detail: str = ""


def feasibility(params: GroupParams, shape: Shape) -> FeasibilityVerdict:
    """Decide realizability from the hair counts alone."""
    labeling._check_shape(params, shape)
    p = params.p
    h1, h2, h3 = shape.h
    a, b, g = labeling.residues(params, shape)

    if p == 2:
        if h1 % 2 == 0 and h3 % 2 == 0 and h2 % 2 == 1:
            return FeasibilityVerdict(True)
        return FeasibilityVerdict(
            False, P2_PARITY, f"needs |X|,|Z| even and |Y| odd, got {shape.h}"
        )
    if p == 3:
        if (a, g) in ((0, 2), (2, 0)):
            return FeasibilityVerdict(
                False, P3_E1, f"residues (alpha,gamma)=({a},{g}) are never realizable"
            )
        if h2 == 0 and (a, g) in ((1, 2), (2, 1)):
            return FeasibilityVerdict(
                False, P3_E2, f"|Y|=0 with residues (alpha,gamma)=({a},{g})"
            )
        return FeasibilityVerdict(True)

    if b == p - 2 and (a, g) in ((0, p - 1), (p - 1, 0)):
        return FeasibilityVerdict(
            False, E1_BETA_PM2, f"beta={p - 2} with (alpha,gamma)=({a},{g})"
        )
    if h2 == 0 and (a, g) in ((p - 1, p - 2), (p - 2, p - 1)):
        return FeasibilityVerdict(
            False, E2_Y0, f"|Y|=0 with (alpha,gamma)=({a},{g})"
        )
    if h2 == 1 and (a, g) in ((p - 1, p - 3), (p - 3, p - 1)):
        return FeasibilityVerdict(
            False, E3_Y1, f"|Y|=1 with (alpha,gamma)=({a},{g})"
        )
    return FeasibilityVerdict(True)


# --- positional role patterns on p-cycles (p >= 5 machinery) ---------------
#
# A pattern is a tuple of length p; entry m is the role of the vertex at
# position m on the oriented cycle u, u+i, u+2i, ... for the model generator
# i.  Spine patterns carry the markers s1/s2/s3 at the spine positions.


def realize_spine_symmetric(p: int, alpha: int, beta: int) -> Tuple[str, ...]:
    """Spine-component pattern in the model [a,0,-a] for 2*alpha+beta = p-3."""
    if alpha < 0 or beta < 0 or 2 * alpha + beta != p - 3:
        raise ValueError(f"need 2*alpha+beta = p-3, got alpha={alpha} beta={beta} p={p}")
    return (S2, S1) + (Y,) * beta + (X, Z) * alpha + (S3,)


def realize_regular_symmetric(p: int) -> Tuple[str, ...]:
    """One Y then (p-1)/2 consecutive XZ pairs; realizes ((p-1)/2, 1, (p-1)/2)."""
    if p % 2 == 0:
        raise UnsupportedInstanceError("symmetric regular pattern needs odd p")
    return (Y,) + (X, Z) * ((p - 1) // 2)


def realize_spine_skew(p: int, alpha: int, gamma: int, r: int) -> Tuple[str, ...]:
    """Spine pattern in the model [a,0,2a]; realizes (alpha, gamma+r, gamma)."""
    if min(alpha, gamma, r) < 0 or alpha + 2 * gamma + r != p - 3:
        raise ValueError(
            f"need alpha+2*gamma+r = p-3, got ({alpha},{gamma},{r}) for p={p}"
        )
    return (S2, S1, S3) + (Y,) * r + (X,) * alpha + (Z, Y) * gamma


def realize_regular_skew(p: int, j: int) -> Tuple[str, ...]:
    """j consecutive ZY pairs then p-2j X's; realizes (p-2j, j, j)."""
    if not 0 <= j <= (p - 1) // 2:
        raise ValueError(f"j={j} out of range for p={p}")
    return (Z, Y) * j + (X,) * (p - 2 * j)


def realize_spine_general(p: int, a_prime: int, b_prime: int, variant: str = "base") -> Tuple[str, ...]:
    """Spine pattern in the model [a,0,b] with a = a'*i, b = b'*i.

    base realizes (p-b'-1, b'-a'-1, a'-1); the variants relabel one or two
    vertices (a+b to Y, additionally 2a to Z, or a+b and b+2a to Y) and
    require the beta < gamma < alpha hypothesis (b' < 2a' and a' + b' < p).
    """
    if not 1 <= a_prime < b_prime <= p - 1:
        raise ValueError(f"need 1 <= a' < b' <= p-1, got a'={a_prime} b'={b_prime}")
    pat = (
        [S2]
        + [Z] * (a_prime - 1)
        + [S1]
        + [Y] * (b_prime - a_prime - 1)
        + [S3]
        + [X] * (p - 1 - b_prime)
    )
    if variant == "base":
        return tuple(pat)
    if not (b_prime < 2 * a_prime and a_prime + b_prime < p):
        raise ValueError(
            f"variant {variant} needs beta<gamma<alpha (b'<2a' and a'+b'<p)"
        )
    assert pat[a_prime + b_prime] == X
    pat[a_prime + b_prime] = Y
    if variant == "plus_y":
        return tuple(pat)
    if variant == "swap_z":
        assert pat[2 * a_prime] == X
        pat[2 * a_prime] = Z
        return tuple(pat)
    if variant == "double_y":
        if b_prime + 2 * a_prime < p + 1:
            raise ValueError("double_y needs b'+2a' >= p+1")
        pos = b_prime + 2 * a_prime - p
        assert pat[pos] == Z
        pat[pos] = Y
        return tuple(pat)
    raise ValueError(f"unknown variant {variant!r}")


def realize_regular_general(p: int, a_prime: int, b_prime: int) -> Tuple[str, ...]:
    """Regular-cycle pattern realizing (p-b', b'-a', a'+1) counts, i.e. one more
    of each role than the base spine pattern."""
    if not 1 <= a_prime < b_prime <= p - 1:
        raise ValueError(f"need 1 <= a' < b' <= p-1, got a'={a_prime} b'={b_prime}")
    return (X,) + (Z,) * a_prime + (Y,) * (b_prime - a_prime) + (X,) * (p - 1 - b_prime)


def pattern_counts(pat: Sequence[str]) -> Tuple[int, int, int]:
    return (pat.count(X), pat.count(Y), pat.count(Z))


class ComponentPlan(NamedTuple):
    """Blueprint of a labeling: the spine model [a,0,b] and a role pattern per
    coset of span(a, b).

    patterns[j] lists the roles of coset j of group.cosets(params, model) in
    order; patterns[0], on the spine coset, holds the markers s1, s2, s3 at
    a, 0, b.  When reflected, the patterns place the mirror shape.
    """

    model: Tuple[int, int]
    patterns: Tuple[Tuple[str, ...], ...]
    reflected: bool

    @property
    def spine_pattern(self) -> Tuple[str, ...]:
        return self.patterns[0]

    @property
    def mixed(self) -> Tuple[Tuple[str, ...], ...]:
        """The regular patterns that hold more than one role."""
        return tuple(pat for pat in self.patterns[1:] if len(set(pat)) > 1)

    @property
    def uniform(self) -> Dict[str, int]:
        """The number of regular patterns that hold one role only, per role."""
        n = len(self.spine_pattern)
        return {role: self.patterns[1:].count((role,) * n) for role in HAIR_ROLES}

    @property
    def spine_triple(self) -> Tuple[int, int, int]:
        return pattern_counts(self.spine_pattern)

    @property
    def mixed_triples(self) -> List[Tuple[int, int, int]]:
        return [pattern_counts(p) for p in self.mixed]

    def to_debug_dict(self, params: GroupParams) -> dict:
        """The plan as JSON-ready values, elements as coordinate lists."""
        return {
            "model": [list(params.element(e)) for e in self.model],
            "reflected": self.reflected,
            "spine": {"pattern": list(self.spine_pattern), "triple": list(self.spine_triple)},
            "mixed": [{"pattern": list(p), "triple": list(t)}
                      for p, t in zip(self.mixed, self.mixed_triples)],
            "uniform": self.uniform,
        }


def _finish_plan(params, h, a_prime, b_prime, spine, mixed, reflected) -> ComponentPlan:
    """Append the uniform patterns that fill the plan up to h, after the
    spine and mixed ones; reject plans whose totals cannot meet h.  The model
    is (a'*e1, b'*e1), whose cosets are those of e1, so position m of a
    pattern is m*e1 on its coset."""
    p = params.p
    patterns = [spine, *mixed]
    totals = [sum(c) for c in zip(*map(pattern_counts, patterns))]
    for role, total, want in zip(HAIR_ROLES, totals, h):
        rem = want - total
        if rem < 0 or rem % p:
            raise ConstructionError(f"plan totals {totals} cannot be filled to {h}")
        patterns += [(role,) * p] * (rem // p)
    if len(patterns) != params.order // p:
        raise ConstructionError("component count mismatch")
    e1 = group.basis_vector(params, 0)
    model = (group.scale(params, a_prime, e1), group.scale(params, b_prime, e1))
    return ComponentPlan(model, tuple(patterns), reflected)


def plan_components(params: GroupParams, shape: Shape) -> ComponentPlan:
    """Select model and per-component triples for a feasible shape, p >= 5.

    Raises ConstructionError for the empty-X corner, which construct builds
    as its empty_x_twin.
    """
    p = params.p
    h = shape.h
    a, b, g = labeling.residues(params, shape)
    total = a + b + g

    if total == p - 3:
        ap, bp = g + 1, p - 1 - a
        spine = realize_spine_general(p, ap, bp, "base")
        return _finish_plan(params, h, ap, bp, spine, [], False)

    if total == 3 * p - 3:
        spine = realize_spine_symmetric(p, 0, p - 3)
        mixed = [realize_regular_symmetric(p)] * 2
        return _finish_plan(params, h, 1, p - 1, spine, mixed, False)

    # total == 2p-3 from here on
    if a == g:
        # beta is odd in this branch
        spine = realize_spine_symmetric(p, (p - 2 - b) // 2, b - 1)
        mixed = [realize_regular_symmetric(p)]
        return _finish_plan(params, h, 1, p - 1, spine, mixed, False)

    if b >= g:
        return _plan_skew(params, h, a, b, g, reflected=False)
    if b >= a:
        return _plan_skew(params, h[::-1], g, b, a, reflected=True)
    return _plan_general(params, h, a, b, g)


def _plan_skew(params, h, a, b, g, reflected) -> ComponentPlan:
    """Model [a,0,2a] cases (beta >= gamma after optional reflection)."""
    p = params.p
    if (a, b, g) == (p - 2, p - 1, 0):
        return _plan_skew(params, h[::-1], 0, p - 1, p - 2, not reflected)
    if (a, b, g) == (p - 3, p - 1, 1):
        return _plan_skew(params, h[::-1], 1, p - 1, p - 3, not reflected)
    r = b - g
    if g <= (p - 1) // 2 and r <= p - 3:
        spine = realize_spine_skew(p, p - 3 - r, 0, r)
        mixed = [realize_regular_skew(p, g)]
        return _finish_plan(params, h, 1, 2, spine, mixed, reflected)
    if g >= (p + 1) // 2:
        if a > 0:
            spine = realize_spine_skew(p, a - 1, g - (p - 1) // 2, r)
            mixed = [realize_regular_skew(p, (p - 1) // 2)]
            return _finish_plan(params, h, 1, 2, spine, mixed, reflected)
        # (0, p-1, p-2): three-component identity, needs |X| >= p
        if h[0] >= p:
            spine = realize_spine_skew(p, p - 4, 0, 1)
            mixed = [
                realize_regular_skew(p, (p - 1) // 2),
                realize_regular_skew(p, (p - 3) // 2),
            ]
            return _finish_plan(params, h, 1, 2, spine, mixed, reflected)
        raise ConstructionError("(0,p-1,p-2) with empty X class")
    raise ConstructionError(f"skew case gap at residues ({a},{b},{g})")


def _plan_general(params, h, a, b, g) -> ComponentPlan:
    """Model [a,0,b] parity decomposition (beta < alpha and beta < gamma).

    beta <= 1 is the beta_neg family (p-3,1,p-1), (p-2,0,p-1) and mirrors,
    whose parity split would need beta' < 0; after reflecting to gamma = p-1
    it takes the model [a,0,2a] with two mixed cycles, realizing
    (p-2-beta, p+beta, p-1).  The Y class holds at least p+beta hairs
    because h2 = beta is infeasible (E2_Y0, E3_Y1).
    """
    p = params.p
    if b <= 1:
        reflected = g < a
        if reflected:
            h = h[::-1]
        spine = realize_spine_skew(p, 1 - b, (p - 5) // 2, 1 + b)
        mixed = [realize_regular_skew(p, (p - 1) // 2), realize_regular_skew(p, 2)]
        return _finish_plan(params, h, 1, 2, spine, mixed, reflected)
    reflected = False
    if a < g:
        a, g, h, reflected = g, a, h[::-1], True
    if a % 2 and b % 2 and g % 2:
        ap_, bp_, gp_ = (a - 1) // 2, (b - 1) // 2, (g - 1) // 2
        variant = "base"
    elif g % 2:
        ap_, bp_, gp_ = a // 2, (b - 2) // 2, (g - 1) // 2
        variant = "plus_y"
    elif a % 2:
        ap_, bp_, gp_ = (a + 1) // 2, (b - 2) // 2, (g - 2) // 2
        variant = "swap_z"
    else:
        ap_, bp_, gp_ = a // 2, (b - 3) // 2, g // 2
        variant = "double_y"
    a_prime, b_prime = gp_ + 1, p - 1 - ap_
    try:
        spine = realize_spine_general(p, a_prime, b_prime, variant)
        mixed = [realize_regular_general(p, a_prime, b_prime)]
    except ValueError as exc:
        raise ConstructionError(str(exc))
    return _finish_plan(params, h, a_prime, b_prime, spine, mixed, reflected)


# _realize's codes (labeling.ROLES) for the plan roles s1, s2, s3, x, y, z and
# the spine code the lowest y-coded cell then takes (0: none), for a plan as
# made, reflected, and of the twin of an h1 = 0 or h3 = 0 empty-X corner.
_DIRECT = dict(zip(labeling.ROLES, (1, 2, 3, 4, 5, 6))), 0
_MIRROR = dict(zip(labeling.ROLES, (3, 2, 1, 6, 5, 4))), 0
_TWIN = dict(zip(labeling.ROLES, (2, 3, 6, 5, 6, 6))), 1
_MIRROR_TWIN = dict(zip(labeling.ROLES, (4, 1, 2, 5, 4, 5))), 3


def _realize(params: GroupParams, shape: Shape, plan: ComponentPlan, twin: bool = False) -> Labeling:
    """The labeling of the shape that the plan places, written into a role
    map (labeling.ROLES).  Mirror and twin are relabelings of the roles at
    write time: a reflected plan is written with the mirror roles' codes,
    and with twin set the plan of the shape's empty_x_twin with the
    corner's.  From C(h2+1,h3-1,0) with spine (b1,b2,b3), C(0,h2,h3) has
    a2 = b1, a3 = b2, a1 the lowest X hair, Y the other X hairs and Z the Y
    hairs and b3; the mirror corner likewise.  On a model in the top
    coordinates coset r is the slice roles[r::q]: the uniform cosets fill a
    q-byte period repeated |H| times, the others are written over it one
    slice each (a whole-group model, q = 1, is one slice).  Any other model
    is written cell by cell on its listed cosets."""
    n, size = params.order, len(plan.spine_pattern)
    q = n // size
    if twin:
        code, spine = _TWIN if shape.h[0] == 0 else _MIRROR_TWIN
    else:
        code, spine = _MIRROR if plan.reflected else _DIRECT
    if all(g % q == 0 for g in plan.model):
        uniform = {(role,) * size: code[role] for role in HAIR_ROLES}
        period = bytearray(map(uniform.get, plan.patterns, itertools.repeat(0)))
        roles, r = period * size, period.find(0)
        while r >= 0:
            roles[r::q] = bytes(map(code.get, plan.patterns[r]))
            r = period.find(0, r + 1)
    else:
        roles = bytearray(n)
        for pattern, comp in zip(plan.patterns, group.cosets(params, plan.model)):
            for role, v in zip(pattern, comp):
                roles[v] = code[role]
    if spine:
        roles[roles.index(5)] = spine  # the lowest cell coded y
    return labeling.role_map_to_labeling(params, shape, roles)


def empty_x_twin(params: GroupParams, shape: Shape) -> Optional[Shape]:
    """The shape of the same tree that a recipe builds, for an empty-X corner.

    With h1 = 0 the vertex a1 is one more leaf of a2, so C(0,h2,h3) is the
    tree C(h2+1, h3-1, 0) whose third spine vertex is a leaf of a3; the
    mirror C(h1,h2,0) is C(0, h1-1, h2+1).  Both twins have residues
    (0, p-3, 0), which the residue-sum p-3 recipe covers.  None for every
    other shape (and for p < 5).
    """
    p = params.p
    h1, h2, h3 = shape.h
    res = labeling.residues(params, shape)
    if p >= 5 and h1 == 0 and res == (0, p - 1, p - 2):
        return labeling.make_shape(params, (h2 + 1, h3 - 1, 0))
    if p >= 5 and h3 == 0 and res == (p - 2, p - 1, 0):
        return labeling.make_shape(params, (0, h1 - 1, h2 + 1))
    return None


# --- small-group machinery: enumerate per-component patterns ----------------


@functools.lru_cache(maxsize=None)
def _component_patterns(
    params: GroupParams,
    a: int,
    b: int,
    spine: bool,
) -> Dict[Tuple[int, int, int], Tuple[str, ...]]:
    """All realizable role-count triples on one coset of H = span(a, b), in
    triple order, with one representative rainbow assignment each (first in
    lex enumeration order) as a role pattern in H's order.

    A depth-first search over the free cells of H, in order, tries roles x,
    y, z and prunes a role whose edge label (labeling.role_label_bits) is
    already used.  On the spine coset the cells a, 0, b hold the markers s1,
    s2, s3 and the spine-edge labels a, b start used; regular cosets start
    with no label used, and a pattern of H fits any of them.
    """
    cells = group.span(params, [a, b])
    markers = {a: S1, 0: S2, b: S3} if spine else {}
    free = [c for c in cells if c not in markers]
    spine_bits, table = labeling.role_label_bits(params, a, b, free)
    found: Dict[Tuple[int, int, int], Tuple[str, ...]] = {}
    roles: List[str] = []

    def extend(used: int) -> None:
        if len(roles) == len(free):
            triple = pattern_counts(roles)
            if triple not in found:
                found[triple] = tuple(roles)
            return
        for role, bit in zip(HAIR_ROLES, table[free[len(roles)]]):
            if not used & bit:
                roles.append(role)
                extend(used | bit)
                roles.pop()

    def placed(hair_roles: Tuple[str, ...]) -> Tuple[str, ...]:
        rest = iter(hair_roles)
        return tuple(markers[c] if c in markers else next(rest) for c in cells)

    extend(spine_bits if spine else 0)
    return {t: placed(found[t]) for t in sorted(found)}


@functools.lru_cache(maxsize=None)
def _menu_sums(
    triples: Tuple[Tuple[int, int, int], ...],
) -> Dict[Tuple[int, int, int], List[Tuple]]:
    """The minimal sums of a regular menu's mixed triples per residue class
    (s mod n coordinate-wise, n = |H|), for _decompose: breadth-first by the
    number of mixed blocks, a sum is kept unless an earlier kept sum of its
    class lies below it.  A class lists (s, mixed blocks of s, last added
    first) in that order."""
    n = sum(triples[0])
    mixed = sorted(t for t in triples if n not in t)
    zero = (0, 0, 0)
    table = {zero: [(zero, ())]}
    frontier = [(zero, ())]
    while frontier:
        grown = []
        for s, blocks in frontier:
            for tri in mixed:
                nxt = (s[0] + tri[0], s[1] + tri[1], s[2] + tri[2])
                cls = table.setdefault((nxt[0] % n, nxt[1] % n, nxt[2] % n), [])
                if any(o[0] <= nxt[0] and o[1] <= nxt[1] and o[2] <= nxt[2] for o, _ in cls):
                    continue
                entry = (nxt, (tri,) + blocks)
                cls.append(entry)
                grown.append(entry)
        frontier = grown
    return table


def _decompose(
    target: Tuple[int, int, int],
    triples: Sequence[Tuple[int, int, int]],
) -> Optional[List[Tuple[int, int, int]]]:
    """Write target as a sum of sum(target)/n triples of a regular menu, or
    return None.  The uniform triples (n,0,0), (0,n,0), (0,0,n) are in every
    menu (a + C = C for a in H), so the first s <= target of the target's
    class in the menu's table (_menu_sums, filled once) is completed with
    them.

    This is the breadth-first search bounded by the target: a kept sum below
    one <= target is itself <= target, so that search keeps the same sums
    <= target in the same order.  The table is finite by Dickson's lemma:
    each class keeps an antichain, since a kept sum lies above no earlier
    one, and below an earlier one, whose total is at most its own, only if
    equal to it.  On every canonical menu, up to the 25-cell ones of Z_5^3,
    it holds exactly |H| sums and fills in under a millisecond.
    """
    n = sum(triples[0])
    cls = _menu_sums(tuple(triples)).get((target[0] % n, target[1] % n, target[2] % n), ())
    for s, mixed in cls:
        if s[0] <= target[0] and s[1] <= target[1] and s[2] <= target[2]:
            fx, fy, fz = ((t - v) // n for t, v in zip(target, s))
            return [(n, 0, 0)] * fx + [(0, n, 0)] * fy + [(0, 0, n)] * fz + list(mixed)
    return None


def _block_plan(params: GroupParams, shape: Shape, a: int, b: int) -> Optional[ComponentPlan]:
    """Complete per-model decision procedure: the first spine-menu entry,
    in triple order, whose remainder of the hair counts decomposes into
    regular-menu triples gives the plan.  None means unrealizable in this
    model.  oracle.search decides every model that spans a proper subgroup
    with it."""
    spine_menu = _component_patterns(params, a, b, True)
    reg_menu = _component_patterns(params, a, b, False)
    triples = tuple(reg_menu)
    for s, spine in spine_menu.items():
        rest = tuple(hv - sv for hv, sv in zip(shape.h, s))
        if min(rest) < 0:
            continue
        blocks = _decompose(rest, triples)
        if blocks is not None:
            return ComponentPlan((a, b), (spine, *map(reg_menu.__getitem__, blocks)), False)
    return None


def canonical_models(params: GroupParams) -> List[Tuple[int, int]]:
    """Spine models [a,0,b] sufficient up to translation and automorphism:
    (e1, m*e1) for m in [2, p-1], plus the independent pair (e1, e2) when k >= 2."""
    e1 = group.basis_vector(params, 0)
    models = [(e1, group.scale(params, m, e1)) for m in range(2, params.p)]
    if params.k >= 2:
        models.append((e1, group.basis_vector(params, 1)))
    return models


def small_p_patterns(params: GroupParams, shape: Shape) -> ComponentPlan:
    """The plan for p in {2,3}: that of the first canonical spine model whose
    block menus decide the shape.  The shape must be feasible (build checks
    it); on an infeasible one no model decides and ConstructionError says so."""
    if params.p not in (2, 3):
        raise UnsupportedInstanceError("small_p_patterns handles p in {2,3} only")
    for a, b in canonical_models(params):
        plan = _block_plan(params, shape, a, b)
        if plan is not None:
            return plan
    raise ConstructionError(
        f"no canonical spine model realizes shape {shape.h} "
        f"over Z_{params.p}^{params.k}"
    )


def build(params: GroupParams, shape: Shape) -> Tuple[Optional[Shape], ComponentPlan, Labeling]:
    """Plan, realize and verify a labeling of a feasible shape (deterministic).

    Returns the empty-X twin the plan was made for (None for every other
    shape), the plan, and the verified labeling of the shape.  Raises
    InfeasibleShapeError, and OrderLimitError for a feasible shape over a
    group of order above MAX_ORDER."""
    verdict = feasibility(params, shape)
    if not verdict.feasible:
        raise InfeasibleShapeError(verdict)
    if params.order > MAX_ORDER:
        raise OrderLimitError(
            f"Z_{params.p}^{params.k} has order {params.order}; construct "
            f"handles groups of order at most {MAX_ORDER}"
        )
    twin = empty_x_twin(params, shape)
    if params.p in (2, 3):
        plan = small_p_patterns(params, shape)
    else:
        plan = plan_components(params, twin or shape)
    lab = _realize(params, shape, plan, twin is not None)
    report = labeling.verify(params, shape, lab)
    if not report.valid:
        raise ConstructionError(f"internal: construction failed verification: {report}")
    return twin, plan, lab


def construct(params: GroupParams, shape: Shape) -> Labeling:
    """Produce a verified labeling for any feasible shape: build's labeling."""
    return build(params, shape)[2]
