"""Arithmetic and structural queries for the elementary abelian group Z_p^k.

Inside the package an element is an integer index in [0, p^k): its base-p
digits are the coordinates, most significant first, so index order is
lexicographic order.  Addition is XOR at p = 2 and digit-wise mod p
otherwise; coset r of the top coordinates' subspace of index q is the
stride r, r + q, ...  A set of elements can be an int, byte v nonzero iff v
is in it: adding a nonzero digit d at weight w rotates every block of p*w
elements by d*w, so translate_set moves the whole set at once.  Coordinates
are the boundary form, and they appear only where elements come in or go
out: element_from_json validates and converts one JSON element,
format_elements writes the coordinates of many indices as text, and
GroupParams.element gives the tuple of one index (plan dumps, verify's
vertex names, the Labeling's tuple views).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, List, NamedTuple, Sequence, Tuple

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


class _Group(NamedTuple):
    """The fields of GroupParams, which validates them in __new__."""

    p: int
    k: int


class GroupParams(_Group):
    """The group Z_p^k."""

    __slots__ = ()

    def __new__(cls, p: int, k: int):
        if type(p) is not int or type(k) is not int:
            raise ValueError(f"p and k must be integers, got {p!r}, {k!r}")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        # size before primality; k >= 64 alone rules out p**k < 2**64
        if k >= 64 or p ** k >= 2 ** 64:
            raise ValueError(f"group order {p}^{k} does not fit in 64 bits")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        return super().__new__(cls, p, k)

    @property
    def order(self) -> int:
        return self.p ** self.k

    def validate(self, e: Element) -> None:
        if len(e) != self.k or any(not (0 <= c < self.p) for c in e):
            raise InvalidElementError(f"{e!r} is not an element of Z_{self.p}^{self.k}")

    def element(self, idx: int) -> Element:
        coords = []
        for _ in range(self.k):
            idx, c = divmod(idx, self.p)
            coords.append(c)
        return tuple(reversed(coords))


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


def translate_set(params: GroupParams, a: int, s: int) -> int:
    """{a + v : v in s} for a set s held as one byte per element: per nonzero
    digit d of a at weight w, the bytes whose digit is below p - d move up
    by d*w and the others wrap down by (p - d)*w, within their p*w block."""
    p, n, w = params.p, params.order, 1
    below = _below if n <= 4096 else _below.__wrapped__  # at most 2 MB cached
    while a:
        a, d = divmod(a, p)
        if d:
            s = ((s & below(p, n, w, p - d)) << 8 * d * w) | ((s >> 8 * (p - d) * w) & below(p, n, w, d))
        w *= p
    return s


@functools.lru_cache(maxsize=512)
def _below(p: int, n: int, w: int, j: int) -> int:
    """Byte 0xff at every index in [0, n) whose digit at weight w is below j."""
    return int.from_bytes((b"\xff" * (j * w) + bytes((p - j) * w)) * (n // (p * w)), "little")


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


def span(params: GroupParams, gens: Iterable[int]) -> List[int]:
    """Subgroup generated by ``gens``, sorted.  A generator g outside the
    current subgroup H gives H + mg for m in [0, p); digit i of mg is
    m * g_i mod p, so the multiples take one pass per nonzero digit of g."""
    p, subgroup = params.p, [0]
    for g in gens:
        if g not in subgroup:
            multiples, w = [0] * p, 1
            while g:
                g, d = divmod(g, p)
                if d:
                    multiples = [s + m * d % p * w for m, s in enumerate(multiples)]
                w *= p
            if subgroup != [0]:
                multiples = [v for mg in multiples for v in translate(params, mg, subgroup)]
            subgroup = multiples
    return sorted(subgroup)


def cosets(params: GroupParams, gens: Sequence[int]) -> List[List[int]]:
    """Partition of the group into cosets of H = span(gens).

    H comes first, in order.  Every other coset C follows in order of
    min(C) and is listed as min(C) + h for h in H, so position i of every
    coset corresponds to H[i].  If the gens lie in the subspace of the top
    coordinates, as every canonical and recipe model does, H is that
    subspace and coset r is the stride r, r + q, ... (q = p^k / |H|).
    """
    subgroup, seen, out = span(params, gens), set(), []
    for rep in range(params.order):
        if rep not in seen:
            out.append(translate(params, rep, subgroup))
            seen.update(out[-1])
    return out


def basis_vector(params: GroupParams, i: int) -> int:
    """The i-th coordinate vector e_(i+1)."""
    return params.p ** (params.k - 1 - i)


def element_from_json(params: GroupParams, data) -> int:
    """The index of a JSON element, a list of k integer coordinates in
    [0, p): the one way from the boundary form into the package.  The
    coordinates are checked and folded into the index in one pass; anything
    else raises InvalidElementError."""
    if type(data) is list and len(data) == params.k:
        p, i = params.p, 0
        for c in data:
            if type(c) is not int or not 0 <= c < p:
                break
            i = i * p + c
        else:
            return i
    raise InvalidElementError(f"{data!r} is not an element of Z_{params.p}^{params.k}")


def format_elements(params: GroupParams, cells: Iterable[int], sep: str, brackets: str) -> List[str]:
    """The coordinates of every index in ``cells`` as text: with sep "," and
    brackets "()" the index of (1, 0, 2) gives "(1,0,2)".  The one way from
    indices to printed coordinates.

    An index is split into its high and low halves of base-p digits, and
    each half is looked up in a table of digit strings built per call; the
    two tables hold about sqrt(order) entries each.
    """
    digits = [str(c) for c in range(params.p)]
    low_k = params.k // 2
    high = [brackets[0] + sep.join(t) for t in itertools.product(digits, repeat=params.k - low_k)]
    low = ["".join(sep + d for d in t) + brackets[1] for t in itertools.product(digits, repeat=low_k)]
    w = params.p ** low_k
    return [high[i // w] + low[i % w] for i in cells]
