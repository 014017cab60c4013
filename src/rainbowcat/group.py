"""Arithmetic and structural queries for the elementary abelian group Z_p^k.

Inside the package an element is an integer index in [0, p^k): its base-p
digits are the coordinates, most significant first, so index order is
lexicographic order.  Addition is XOR at p = 2 and digit-wise mod p
otherwise.  Length-k tuples of residues are the boundary form, used by JSON,
the command line and the public values (Labeling fields, reports, plan
dumps).  GroupParams.index/element convert one element, ``elements`` lists
the boundary form of every index, and ``indices`` converts and validates the
tuples that come in.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import InvalidElementError

# The boundary form of an element; the package computes on indices (int).
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
        """The identity in boundary form; its index is 0."""
        return (0,) * self.k

    def validate(self, e: Element) -> None:
        if len(e) != self.k or any(not (0 <= c < self.p) for c in e):
            raise InvalidElementError(f"{e!r} is not an element of Z_{self.p}^{self.k}")

    def index(self, e: Element) -> int:
        """Index of a tuple element, unvalidated; ``indices`` validates."""
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
    """Every element in boundary form: entry i is the tuple of index i."""
    return tuple(itertools.product(range(params.p), repeat=params.k))


def indices(params: GroupParams, elems: Sequence[Element]) -> List[int]:
    """The index of every tuple in ``elems``, validating each: the one way
    from the boundary form into the package.  Raises InvalidElementError for
    the first invalid element.

    The tuples are looked up in a table of every element, built per call and
    not kept, so a call costs the group's order.  On a miss (an invalid
    element, or one that cannot be a key, such as a list) the whole input
    goes through the validating conversion: a range check over every
    coordinate, then GroupParams.index per element.
    """
    try:
        return list(map(dict(zip(elements(params), range(params.order))).__getitem__, elems))
    except (KeyError, TypeError):
        pass
    coords = itertools.chain.from_iterable
    if (
        set(map(len, elems)) != {params.k}
        or min(coords(elems)) < 0
        or max(coords(elems)) >= params.p
    ):
        for e in elems:
            params.validate(e)
    return list(map(params.index, elems))


def translate(params: GroupParams, a: int, cells: Sequence[int]) -> List[int]:
    """a + v for every v in ``cells``.

    XOR at p = 2.  Otherwise the integer sum a + v is right except at the
    digits where the two digits reach p, where it carried; one pass per
    nonzero digit of a subtracts p at those digits.
    """
    p = params.p
    if p == 2:
        return [a ^ v for v in cells]
    out = [a + v for v in cells]
    w = 1
    while a:
        a, d = divmod(a, p)
        if d:
            pw, low = p * w, p - d
            out = [s - pw if v // w % p >= low else s for s, v in zip(out, cells)]
        w *= p
    return out


def add(params: GroupParams, a: int, b: int) -> int:
    return translate(params, a, (b,))[0]


def scale(params: GroupParams, c: int, a: int) -> int:
    """c * a, digit by digit."""
    p, c = params.p, c % params.p
    out, w = 0, 1
    while a:
        a, d = divmod(a, p)
        out += d * c % p * w
        w *= p
    return out


def neg(params: GroupParams, a: int) -> int:
    return scale(params, -1, a)


def sub(params: GroupParams, a: int, b: int) -> int:
    return add(params, a, neg(params, b))


def span(params: GroupParams, gens: Iterable[int]) -> List[int]:
    """Subgroup generated by ``gens``, sorted.  Each generator g outside the
    current subgroup H gives H + mg for m in [0, p)."""
    subgroup = [0]
    for g in gens:
        if g not in subgroup:
            subgroup = [
                v for m in range(params.p)
                for v in translate(params, scale(params, m, g), subgroup)
            ]
    return sorted(subgroup)


def cosets(params: GroupParams, gens: Sequence[int]) -> List[List[int]]:
    """Partition of the group into cosets of H = span(gens).

    H comes first, in order.  Every other coset C follows in order of
    min(C) and is listed as min(C) + h for h in H, so position i of every
    coset corresponds to H[i].
    """
    subgroup = span(params, gens)
    q = params.order // len(subgroup)
    if subgroup == list(range(0, params.order, q)):
        # H is the subspace of the top coordinates, as for every canonical
        # model: the coset minima are 0..q-1 and min(C) + h never carries
        return [[r + h for h in subgroup] for r in range(q)]
    seen = bytearray(params.order)
    out = []
    for rep in range(params.order):
        if not seen[rep]:
            coset = translate(params, rep, subgroup)
            for v in coset:
                seen[v] = 1
            out.append(coset)
    return out


def basis_vector(params: GroupParams, i: int) -> int:
    """The i-th coordinate vector e_(i+1)."""
    return params.p ** (params.k - 1 - i)


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
