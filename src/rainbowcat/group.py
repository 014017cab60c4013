"""Arithmetic and structural queries for the elementary abelian group Z_p^k.

Elements are length-k tuples of residues mod p, ordered lexicographically.
A fixed mixed-radix bijection element <-> index in [0, p^k) (most significant
coordinate first, so index order equals lex order) supports bitset membership
in the exhaustive search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    InvalidElementError,
    InvalidGeneratorError,
    NotASubgroupError,
)

Element = Tuple[int, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GroupParams:
    """The group Z_p^k."""

    p: int
    k: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.p ** self.k >= 2 ** 64:
            raise ValueError(f"group order {self.p}^{self.k} does not fit in 64 bits")

    @property
    def order(self) -> int:
        return self.p ** self.k

    @property
    def zero(self) -> Element:
        return (0,) * self.k

    def validate(self, e: Element) -> None:
        if len(e) != self.k or any(not (0 <= c < self.p) for c in e):
            raise InvalidElementError(f"{e!r} is not an element of Z_{self.p}^{self.k}")

    def index(self, e: Element) -> int:
        i = 0
        for c in e:
            i = i * self.p + c
        return i

    def element(self, idx: int) -> Element:
        coords = []
        for _ in range(self.k):
            idx, c = divmod(idx, self.p)
            coords.append(c)
        return tuple(reversed(coords))


@functools.lru_cache(maxsize=None)
def elements(params: GroupParams) -> Tuple[Element, ...]:
    """All group elements in canonical (lexicographic) order."""
    return tuple(itertools.product(range(params.p), repeat=params.k))


def add(params: GroupParams, e1: Element, e2: Element) -> Element:
    params.validate(e1)
    params.validate(e2)
    return tuple((a + b) % params.p for a, b in zip(e1, e2))


def neg(params: GroupParams, e: Element) -> Element:
    params.validate(e)
    return tuple((-a) % params.p for a in e)


def sub(params: GroupParams, e1: Element, e2: Element) -> Element:
    params.validate(e1)
    params.validate(e2)
    return tuple((a - b) % params.p for a, b in zip(e1, e2))


def scale(params: GroupParams, c: int, e: Element) -> Element:
    params.validate(e)
    return tuple((c * a) % params.p for a in e)


def span(params: GroupParams, gens: Iterable[Element]) -> list:
    """Subgroup generated by ``gens``, as a lex-sorted list of elements."""
    gens = list(gens)
    for g in gens:
        params.validate(g)
    seen = {params.zero}
    frontier = [params.zero]
    while frontier:
        u = frontier.pop()
        for g in gens:
            v = add(params, u, g)
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return sorted(seen)


def in_span(params: GroupParams, b: Element, a: Element) -> bool:
    """True iff b = m*a for some scalar m."""
    params.validate(b)
    params.validate(a)
    if a == params.zero:
        raise InvalidGeneratorError("span membership needs a nonzero generator")
    return any(scale(params, m, a) == b for m in range(params.p))


def subgroup_basis(params: GroupParams, subgroup: Sequence[Element]) -> list:
    """Greedy independent generators, lex-smallest first."""
    basis: list = []
    covered = {params.zero}
    for e in sorted(subgroup):
        if e not in covered:
            basis.append(e)
            covered = set(span(params, basis))
    return basis


def cosets(
    params: GroupParams,
    subgroup: Sequence[Element],
    generators: Optional[Sequence[Element]] = None,
) -> list:
    """Partition of the group into cosets of ``subgroup``.

    The coset containing 0 comes first; the rest follow in lex order of their
    smallest representative.  Within a coset, elements are listed row-major in
    the coefficients of the orientation generators (the lex-smallest nonzero
    element of the subgroup first unless overridden), so single-generator
    cosets read as the oriented cycle u, u+i, u+2i, ...
    """
    gens = list(generators) if generators is not None else subgroup_basis(params, subgroup)
    if set(span(params, gens)) != set(subgroup):
        raise NotASubgroupError("generators do not generate the given subgroup")

    p = params.p
    offsets = [
        tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) % p for j in range(params.k))
        for coeffs in itertools.product(range(p), repeat=len(gens))
    ]
    seen = set()
    out = []
    for rep in elements(params):
        if rep in seen:
            continue
        coset = [tuple((x + y) % p for x, y in zip(rep, off)) for off in offsets]
        seen.update(coset)
        out.append(coset)
    return out


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


def basis_vector(params: GroupParams, i: int) -> Element:
    return tuple(1 if j == i else 0 for j in range(params.k))


def element_to_json(e: Element) -> list:
    return list(e)


def element_from_json(params: GroupParams, data) -> Element:
    if not isinstance(data, list) or len(data) != params.k:
        raise InvalidElementError(f"bad element payload {data!r}")
    e = tuple(int(c) for c in data)
    params.validate(e)
    return e
