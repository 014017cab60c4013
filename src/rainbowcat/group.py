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
from typing import Iterable, Sequence, Tuple

from .errors import InvalidElementError

Element = Tuple[int, ...]


# Miller-Rabin with the first twelve primes as bases is exact below
# 3.18 * 10**23, which covers every p with p**k < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """The group Z_p^k."""

    p: int
    k: int

    def __post_init__(self):
        if type(self.p) is not int or type(self.k) is not int:
            raise ValueError(f"p and k must be integers, got {self.p!r}, {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        # size before primality; k >= 64 alone rules out p**k < 2**64
        if self.k >= 64 or self.p ** self.k >= 2 ** 64:
            raise ValueError(f"group order {self.p}^{self.k} does not fit in 64 bits")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

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


def cosets(params: GroupParams, gens: Sequence[Element]) -> list:
    """Partition of the group into cosets of H = span(gens).

    H comes first, in lex order.  Every other coset C follows in lex order of
    min(C) and is listed as min(C) + h for h in H, so position i of every
    coset corresponds to H[i].
    """
    subgroup = span(params, gens)
    p = params.p
    seen = set(subgroup)
    out = [subgroup]
    for rep in elements(params):
        if rep in seen:
            continue
        coset = [tuple((x + y) % p for x, y in zip(rep, h)) for h in subgroup]
        seen.update(coset)
        out.append(coset)
    return out


def basis_vector(params: GroupParams, i: int) -> Element:
    return tuple(1 if j == i else 0 for j in range(params.k))


def element_to_json(e: Element) -> list:
    return list(e)


def element_from_json(params: GroupParams, data) -> Element:
    if (
        not isinstance(data, list)
        or len(data) != params.k
        or any(type(c) is not int for c in data)
    ):
        raise InvalidElementError(f"bad element payload {data!r}")
    e = tuple(data)
    params.validate(e)
    return e
