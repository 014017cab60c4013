"""Exhaustive ground truth: a decision per spine model.

For a fixed spine model [a,0,b] every free element takes one of the roles
x/y/z.  Role x at v puts a+v on an edge, y puts v, z puts b+v; the two spine
edges put a and b.  A labeling is valid iff all these edge labels are
distinct.  Translation plus group automorphisms reduce the spine models to a
canonical family, and search decides each model in order:

* Missing-label prune.  The edge labels sum to h1*a + h3*b, since the group
  elements sum to 0, so the one element no edge carries is -(h1*a + h3*b),
  labeling.missing_edge_label of the spine (a, 0, b).  The spine edges
  carry a and b, so a model missing a or b is impossible; it costs O(1).
* Coset lemma.  Each role keeps a cell's label in the cell's coset of
  H = span(a, b), so the model is realizable exactly when the spine coset H
  realizes some count triple s and h - s is a sum of triples realizable on
  the regular cosets.  When H is a proper subgroup the constructor's per-coset
  menus and decomposition (constructor._block_plan) decide it, and only the
  plan of the model that succeeds is realized.
* Whole group.  When H is the whole group, _search_model backtracks.  Its
  state is one bitset of unassigned cells and, per role, a bitset of the
  cells where that role would reuse a consumed label; giving a cell a role
  consumes one label and so blocks at most one cell per role.  A few integer
  operations per node find the legal cells of each role, prune against the
  remaining role quotas, and pick the most constrained cell, ties to the
  lowest canonical index.  A SearchBudget counts these nodes only.

No budget counts the per-coset menus.  At k >= 3 those of the model
(e1, e2) cover p^2 cells, too many to enumerate at p >= 7 (Z_7^3 below
MAX_ORDER), so check_order refuses those groups as well as larger ones.

Spine models, role classes, and the labeling and models an OracleVerdict
reports, hold elements as integer indices (see group).
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import constructor, labeling
from .errors import OrderLimitError
from .group import GroupParams
from .labeling import Labeling, Shape


class SearchBudget(NamedTuple):
    """Limits on the whole-group backtracking of one search call: its nodes
    and its wall time.  Models decided by pruning or per coset are not
    budgeted."""

    timeout_ms: Optional[int] = None
    node_limit: Optional[int] = None


# The search recurses once per free element and Python's default recursion
# limit is 1000 frames, so groups above this order are refused.
MAX_ORDER = 512

FOUND = "found"
INFEASIBLE = "infeasible"
BUDGETED = "budgeted"


class OracleVerdict(NamedTuple):
    outcome: str
    labeling: Optional[Labeling] = None
    nodes: int = 0
    models_tried: Tuple[Tuple[int, int], ...] = ()
    elapsed_ms: float = 0.0


def check_order(params: GroupParams) -> None:
    """Raise OrderLimitError when the group is too large to search: above
    MAX_ORDER, or at k >= 3 with p >= 7 (see the module docstring)."""
    if params.order > MAX_ORDER or (params.k >= 3 and params.p >= 7):
        raise OrderLimitError(
            f"Z_{params.p}^{params.k} has order {params.order}; the exhaustive search "
            f"handles groups of order at most {MAX_ORDER}, and k >= 3 only for p <= 5"
        )


class _Budget:
    def __init__(self, budget: Optional[SearchBudget]):
        budget = budget or SearchBudget()
        self.deadline = (
            time.monotonic() + budget.timeout_ms / 1000.0
            if budget.timeout_ms is not None
            else None
        )
        self.node_limit = budget.node_limit
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        """Count a node; True, counting nothing, once the budget is gone, so
        a search stopped by the node limit reports exactly node_limit nodes."""
        if self.exhausted:
            return True
        if self.node_limit is not None and self.nodes >= self.node_limit:
            self.exhausted = True
        elif (
            self.deadline is not None
            and self.nodes % 256 == 255
            and time.monotonic() > self.deadline
        ):
            self.exhausted = True
        else:
            self.nodes += 1
        return self.exhausted


def _search_model(
    params: GroupParams,
    shape: Shape,
    a: int,
    b: int,
    budget: _Budget,
) -> Optional[labeling.Partition]:
    """Backtracking over one model; returns its role classes or None.

    The model must be non-degenerate (a != b, both nonzero); search checks
    that and calls it only when a, b span the whole group.  None means
    exhausted unless budget.exhausted was set.  The state is four bitsets
    over the element indices: U, the unassigned free cells, and bx, by, bz, the
    cells where role x, y or z would reuse a consumed edge label.  A node
    fails when some cell has no legal role or some role has fewer legal cells
    than its quota.  Otherwise it branches on the cell with the fewest legal
    roles, ties to the lowest canonical index, and tries roles x, y, z.
    """
    free = [v for v in range(params.order) if v not in (0, a, b)]
    _, lab_bit = labeling.role_label_bits(params, a, b, free)
    # blocks[L][r]: the cells where role r would put label L on an edge
    blocks = [[0, 0, 0] for _ in range(params.order)]
    for v in free:
        for r, bit in enumerate(lab_bit[v]):
            blocks[bit.bit_length() - 1][r] |= 1 << v
    # moves[v][r]: what role r at cell v adds to (bx, by, bz)
    moves = {
        v: tuple(tuple(blocks[bit.bit_length() - 1]) for bit in lab_bit[v])
        for v in free
    }
    bx, by, bz = (blocks[a][r] | blocks[b][r] for r in range(3))
    quotas = list(shape.h)
    role_of = [0] * params.order

    def backtrack(U: int, bx: int, by: int, bz: int) -> bool:
        if not U:
            return True
        qx, qy, qz = quotas
        A = U & ~bx if qx else 0
        B = U & ~by if qy else 0
        C = U & ~bz if qz else 0
        if (A | B | C) != U or A.bit_count() < qx or B.bit_count() < qy or C.bit_count() < qz:
            return False
        two = (A & B) | (A & C) | (B & C)
        # cells with one legal role, else two, else three
        pick = U & ~two or two & ~(A & B & C) or U
        low = pick & -pick
        i = low.bit_length() - 1
        rest = U ^ low
        for r, legal in enumerate((A, B, C)):
            if not legal & low:
                continue
            if budget.tick():
                break
            quotas[r] -= 1
            role_of[i] = r
            x, y, z = moves[i][r]
            if backtrack(rest, bx | x, by | y, bz | z):
                return True
            quotas[r] += 1
        return False

    if backtrack(sum(1 << v for v in free), bx, by, bz):
        roles = labeling.SPINE_ROLES + labeling.HAIR_ROLES
        part: labeling.Partition = dict(zip(roles, ([a], [0], [b], [], [], [])))
        for v in free:
            part[labeling.HAIR_ROLES[role_of[v]]].append(v)
        return part
    return None


def _spans_group(params: GroupParams, a: int, b: int) -> bool:
    """Whether the nonzero elements a, b generate the whole group."""
    if params.k == 1:
        return True
    (a0, a1), (b0, b1) = divmod(a, params.p), divmod(b, params.p)
    return params.k == 2 and (a0 * b1 - a1 * b0) % params.p != 0


def search(
    params: GroupParams,
    shape: Shape,
    budget: Optional[SearchBudget] = None,
    models: Optional[Sequence[Tuple[int, int]]] = None,
) -> OracleVerdict:
    """Decide realizability of the shape model by model (the canonical spine
    models unless ``models``, pairs of element indices, is given); see the
    module docstring.

    Raises OrderLimitError where check_order does."""
    labeling._check_shape(params, shape)
    check_order(params)
    start = time.monotonic()
    state = _Budget(budget)
    if models is None:
        models = constructor.canonical_models(params)
    tried: List[Tuple[int, int]] = []
    for a, b in models:
        tried.append((a, b))
        if a == b or 0 in (a, b):
            continue  # degenerate model: two spine vertices share a label
        if labeling.missing_edge_label(params, shape, (a, 0, b)) in (a, b):
            continue
        if _spans_group(params, a, b):
            part = _search_model(params, shape, a, b, state)
            if state.exhausted:
                return OracleVerdict(BUDGETED, None, state.nodes, tuple(tried), _ms(start))
            lab = None if part is None else labeling.partition_to_labeling(params, shape, part)
        else:
            plan = constructor._block_plan(params, shape, a, b)
            lab = None if plan is None else constructor._realize(params, shape, plan)
        if lab is not None:
            return OracleVerdict(FOUND, lab, state.nodes, tuple(tried), _ms(start))
    return OracleVerdict(INFEASIBLE, None, state.nodes, tuple(tried), _ms(start))


def all_shapes(params: GroupParams) -> List[Shape]:
    """All hair-count triples summing to p^k - 3, lexicographic."""
    total = params.order - 3
    return [
        labeling.make_shape(params, (h1, h2, total - h1 - h2))
        for h1 in range(total + 1)
        for h2 in range(total - h1 + 1)
    ]


def table_row(
    params: GroupParams,
    shape: Shape,
    budget: Optional[SearchBudget] = None,
    cross_check: bool = True,
) -> dict:
    """One feasibility-table row (JSON-lines schema)."""
    verdict = constructor.feasibility(params, shape)
    row: dict = {"h": list(shape.h)}
    row["predicate"] = (
        "feasible" if verdict.feasible else f"infeasible:{verdict.exception}"
    )
    oracle_verdict = search(params, shape, budget)
    row["oracle"] = oracle_verdict.outcome
    if oracle_verdict.outcome == BUDGETED or not cross_check:
        row["agree"] = None
    else:
        row["agree"] = verdict.feasible == (oracle_verdict.outcome == FOUND)
    row["nodes"] = oracle_verdict.nodes
    row["ms"] = round(oracle_verdict.elapsed_ms, 3)
    return row


def _ms(start: float) -> float:
    return (time.monotonic() - start) * 1000.0
