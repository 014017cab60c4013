"""Shape populations for the benchmark, written apart from the program.

The closed-form feasibility rule and the residue classes of the two corner
families are restated here from the paper's case analysis, so that the
benchmark chooses its inputs without asking the code it measures.  A later
change that gives a corner a recipe therefore leaves every workload's inputs
as they are.
"""

import random


def order(p, k):
    return p ** k


def feasible(p, k, h):
    """Closed-form realizability of C(h1,h2,h3) over Z_p^k (order >= 4)."""
    h1, h2, h3 = h
    if p == 2:
        return h1 % 2 == 0 and h3 % 2 == 0 and h2 % 2 == 1
    a, b, g = (v % p for v in h)
    if p == 3:
        if (a, g) in ((0, 2), (2, 0)):
            return False
        return not (h2 == 0 and (a, g) in ((1, 2), (2, 1)))
    if b == p - 2 and (a, g) in ((0, p - 1), (p - 1, 0)):
        return False
    if h2 == 0 and (a, g) in ((p - 1, p - 2), (p - 2, p - 1)):
        return False
    return not (h2 == 1 and (a, g) in ((p - 1, p - 3), (p - 3, p - 1)))


def exception_family(p, k, h):
    """Name of the exception family an infeasible shape falls in, or None."""
    if feasible(p, k, h):
        return None
    if p == 2:
        return "P2_parity"
    a, b, g = (v % p for v in h)
    if p == 3:
        return "P3_E1" if (a, g) in ((0, 2), (2, 0)) else "P3_E2"
    if b == p - 2 and (a, g) in ((0, p - 1), (p - 1, 0)):
        return "E1_beta_pm2"
    return "E2_Y0" if h[1] == 0 else "E3_Y1"


def corner_class(p, h):
    """Residue corner without an explicit recipe (p >= 5), or None.

    ``empty_x``: residues (0, p-1, p-2) with fewer than p X hairs, or the
    mirror (p-2, p-1, 0) with fewer than p Z hairs.  ``beta_neg``: residue
    sum 2p-3 with beta below both alpha and gamma and too small for the
    parity decomposition (beta < 2 when alpha or gamma is odd but not all
    three residues are, beta < 3 when alpha and gamma are both even).
    """
    a, b, g = (v % p for v in h)
    if a + b + g != 2 * p - 3 or a == g:
        return None
    if (a, b, g) == (0, p - 1, p - 2) and h[0] < p:
        return "empty_x"
    if (a, b, g) == (p - 2, p - 1, 0) and h[2] < p:
        return "empty_x"
    if b >= min(a, g):
        return None
    hi, lo = max(a, g), min(a, g)
    if hi % 2 and b % 2 and lo % 2:
        return None
    limit = 3 if hi % 2 == 0 and lo % 2 == 0 else 2
    return "beta_neg" if b < limit else None


def all_shapes(p, k):
    n = order(p, k) - 3
    return [(h1, h2, n - h1 - h2) for h1 in range(n + 1) for h2 in range(n - h1 + 1)]


def corners(p, k):
    """Every feasible corner shape of Z_p^k, in lexicographic order."""
    return [h for h in all_shapes(p, k) if feasible(p, k, h) and corner_class(p, h)]


def random_shape(rng, p, k):
    """Uniform draw over all hair-count triples of the group."""
    n = order(p, k) - 3
    while True:
        h1, h2 = rng.randint(0, n), rng.randint(0, n)
        if h1 + h2 <= n:
            return (h1, h2, n - h1 - h2)


def random_feasible_shape(rng, p, k):
    while True:
        h = random_shape(rng, p, k)
        if feasible(p, k, h):
            return h


def recipe_shapes(p, k):
    """Every feasible shape of Z_p^k that takes an explicit path."""
    return [h for h in all_shapes(p, k)
            if feasible(p, k, h) and (p < 5 or corner_class(p, h) is None)]


def random_infeasible_shape(rng, p, k):
    while True:
        h = random_shape(rng, p, k)
        if not feasible(p, k, h):
            return h


def rng_for(seed, *parts):
    """Independent, reproducible stream for one purpose within a run."""
    return random.Random("/".join(str(v) for v in (seed,) + parts))
