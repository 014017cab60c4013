"""Independent rainbow checker: shares no code with the package it checks.

A labeling of the caterpillar C(h1,h2,h3) over Z_p^k is rainbow when its
vertex labels are exactly the group, its hair counts match the shape, and
its p^k - 1 edge sums f(u)+f(v) are pairwise distinct.  The one group
element missing from the edge sums then equals -(h1*a1 + (h2+1)*a2 + h3*a3)
for spine labels (a1, a2, a3), since the group's elements sum to zero.
"""

from typing import NamedTuple, Optional, Tuple

OK = "ok"
MALFORMED = "malformed"
HAIR_COUNT = "hair_count"
DUPLICATE_VERTEX = "duplicate_vertex"
DUPLICATE_EDGE = "duplicate_edge"
MISSING_LABEL = "missing_label"


class Verdict(NamedTuple):
    ok: bool
    reason: str
    missing: Optional[Tuple[int, ...]] = None


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _element(v, p, k):
    if not isinstance(v, (list, tuple)) or len(v) != k:
        return None
    if not all(type(c) is int and 0 <= c < p for c in v):
        return None
    return tuple(v)


def check(p, k, h, spine, x, y, z) -> Verdict:
    """Check one labeling given as plain integers and integer sequences."""
    if type(p) is not int or type(k) is not int or not _is_prime(p) or k < 1:
        return Verdict(False, MALFORMED)
    n = p ** k
    if len(h) != 3 or any(type(v) is not int or v < 0 for v in h) or sum(h) != n - 3:
        return Verdict(False, MALFORMED)
    if len(spine) != 3:
        return Verdict(False, MALFORMED)
    spine = [_element(v, p, k) for v in spine]
    hairs = [[_element(v, p, k) for v in role] for role in (x, y, z)]
    if None in spine or any(None in role for role in hairs):
        return Verdict(False, MALFORMED)
    if tuple(len(role) for role in hairs) != tuple(h):
        return Verdict(False, HAIR_COUNT)
    labels = spine + [v for role in hairs for v in role]
    if len(set(labels)) != n:
        return Verdict(False, DUPLICATE_VERTEX)

    def plus(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    a1, a2, a3 = spine
    sums = [plus(a1, a2), plus(a2, a3)]
    for centre, role in zip(spine, hairs):
        sums.extend(plus(centre, v) for v in role)
    seen = set(sums)
    if len(seen) != n - 1:
        return Verdict(False, DUPLICATE_EDGE)
    weighted = [
        sum(c * e[i] for c, e in ((h[0], a1), (h[1] + 1, a2), (h[2], a3))) for i in range(k)
    ]
    missing = tuple((-w) % p for w in weighted)
    if missing in seen:
        return Verdict(False, MISSING_LABEL)
    return Verdict(True, OK, missing)


def check_payload(data) -> Verdict:
    """Check a labeling in the JSON form the command line reads and writes:
    {"group": {"p", "k"}, "shape": {"h"}, "spine": [...], "hairs": {"x","y","z"}}."""
    try:
        p, k = data["group"]["p"], data["group"]["k"]
        h = data["shape"]["h"]
        spine = data["spine"]
        x, y, z = (data["hairs"][role] for role in ("x", "y", "z"))
        if not all(isinstance(v, list) for v in (h, spine, x, y, z)):
            return Verdict(False, MALFORMED)
    except (KeyError, TypeError):
        return Verdict(False, MALFORMED)
    return check(p, k, h, spine, x, y, z)
