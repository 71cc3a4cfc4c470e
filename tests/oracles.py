"""Independent test-side oracles.

Nothing in here may import solver internals: these are the reference answers
the package is checked against, so they stay deliberately dumb (exhaustive
enumeration, direct substitution).
"""

from __future__ import annotations

from itertools import product

from farkaskit.rational import ZERO, as_q


def brute_force_box_min(c, bounds):
    """Minimize c.x over the box given as [(lo_1, hi_1), ...].

    A linear function on a compact box attains its minimum at a corner, so
    enumerating all 2^n corners is a complete oracle. Returns (value, corner).
    """
    c = [as_q(v) for v in c]
    bounds = [(as_q(lo), as_q(hi)) for lo, hi in bounds]
    for lo, hi in bounds:
        if lo > hi:
            raise ValueError("empty box")
    best_val = None
    best_x = None
    for corner in product(*[(lo, hi) for lo, hi in bounds]):
        val = ZERO
        for cj, xj in zip(c, corner):
            val += cj * xj
        if best_val is None or val < best_val:
            best_val = val
            best_x = list(corner)
    return best_val, best_x


def eval_affine(row, x, shift=ZERO):
    val = shift
    for a, b in zip(row, x):
        val += as_q(a) * as_q(b)
    return val


def satisfies_rows(G, h, E, e, x):
    """Whether G x <= h and E x = e, by direct substitution."""
    return (all(eval_affine(row, x) <= as_q(b) for row, b in zip(G, h))
            and all(eval_affine(row, x) == as_q(b) for row, b in zip(E, e)))


def certifies_empty(G, h, E, e, mu, nu):
    """Whether (mu, nu) is a Farkas certificate that {x : G x <= h, E x = e}
    is empty: mu >= 0, G^T mu + E^T nu = 0 and h . mu + e . nu < 0."""
    if len(mu) != len(G) or len(nu) != len(E):
        return False
    if any(as_q(v) < ZERO for v in mu):
        return False
    rows = list(G) + list(E)
    weights = list(mu) + list(nu)
    width = len(rows[0]) if rows else 0
    for j in range(width):
        if sum((as_q(w) * as_q(row[j]) for w, row in zip(weights, rows)),
               ZERO) != ZERO:
            return False
    return eval_affine(list(h) + list(e), weights) < ZERO
