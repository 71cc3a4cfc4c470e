"""Independent test-side oracles.

Nothing in here may import solver internals: these are the reference answers
the package is checked against, so they stay deliberately dumb (exhaustive
enumeration, direct substitution). `cone_two_lps` alone solves LPs, through
the public entries, since it keeps a former formulation as the reference
for the one that replaced it.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from farkaskit import lp, sets
from farkaskit.rational import NEG_INF, Q, ZERO, as_q


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


def tilted_function(f, shift, lift=0):
    """x -> f(x) - shift . x - lift as a new `PiecewiseAffine` on f's own
    domain, through its constructor."""
    if len(shift) != f.dim:
        raise ValueError("shift dimension mismatch")
    shift, lift = [as_q(s) for s in shift], as_q(lift)
    return replace(f, slopes=[[a - s for a, s in zip(row, shift)]
                              for row in f.slopes],
                   offsets=[b - lift for b in f.offsets])


def tilted(inst, shift, lift=0):
    """The instance with objective f - shift . x - lift, through its
    constructor: ground, map and target are the instance's own objects."""
    return replace(inst, objective=tilted_function(inst.objective, shift,
                                                   lift))


def eval_affine(row, x, shift=ZERO):
    val = shift
    for a, b in zip(row, x):
        val += as_q(a) * as_q(b)
    return val


def satisfies_rows(G, h, E, e, x):
    """Whether G x <= h and E x = e, by direct substitution."""
    return (all(eval_affine(row, x) <= as_q(b) for row, b in zip(G, h))
            and all(eval_affine(row, x) == as_q(b) for row, b in zip(E, e)))


def _column_sum(rows, weights, j):
    """Entry j of rows^T weights."""
    return sum((as_q(w) * as_q(row[j]) for w, row in zip(weights, rows)),
               ZERO)


def certifies_empty(G, h, E, e, mu, nu, nonneg=None):
    """Whether (mu, nu) is a Farkas certificate that {x : G x <= h, E x = e,
    x_j >= 0 where nonneg[j]} is empty: mu >= 0, s = G^T mu + E^T nu is
    zero at free variables and >= 0 at flagged ones (all free when nonneg
    is None), and h . mu + e . nu < 0. Then every x of the set would give
    0 <= s.x = mu.(G x) + nu.(E x) <= h . mu + e . nu < 0."""
    if len(mu) != len(G) or len(nu) != len(E):
        return False
    if any(as_q(v) < ZERO for v in mu):
        return False
    rows = list(G) + list(E)
    weights = list(mu) + list(nu)
    width = len(rows[0]) if rows else 0
    for j in range(width):
        s = _column_sum(rows, weights, j)
        if s < ZERO or (s != ZERO and not (nonneg and nonneg[j])):
            return False
    return eval_affine(list(h) + list(e), weights) < ZERO


def _feasible(G, h, E, e, nonneg, x):
    return (len(x) == len(nonneg)
            and all(as_q(v) >= ZERO for v, f in zip(x, nonneg) if f)
            and satisfies_rows(G, h, E, e, x))


def certifies_optimal(c, G, h, E, e, nonneg, x, value, mu, nu):
    """Whether x minimizes c.x over {x : G x <= h, E x = e, x_j >= 0 where
    nonneg[j]} with minimum `value`, as the multipliers (mu, nu) prove: x
    is feasible with c.x = value, mu >= 0, s = c + G^T mu + E^T nu is zero
    at free variables and >= 0 at flagged ones, and -(h.mu + e.nu) = value.
    Then every feasible y has c.y = s.y - mu.(G y) - nu.(E y) >= value."""
    if len(mu) != len(G) or len(nu) != len(E):
        return False
    if not _feasible(G, h, E, e, nonneg, x) or eval_affine(c, x) != value:
        return False
    if any(as_q(v) < ZERO for v in mu):
        return False
    rows = list(G) + list(E)
    weights = list(mu) + list(nu)
    for j, flag in enumerate(nonneg):
        s = as_q(c[j]) + _column_sum(rows, weights, j)
        if s < ZERO or (s != ZERO and not flag):
            return False
    return -eval_affine(list(h) + list(e), weights) == value


def certifies_unbounded(c, G, h, E, e, nonneg, x, ray):
    """Whether x is feasible and `ray` a recession direction (G ray <= 0,
    E ray = 0, ray_j >= 0 where nonneg[j]) along which c.x falls: then
    c.x is unbounded below on the set."""
    zeros_h = [ZERO] * len(G)
    zeros_e = [ZERO] * len(E)
    return (_feasible(G, h, E, e, nonneg, x)
            and _feasible(G, zeros_h, E, zeros_e, nonneg, ray)
            and eval_affine(c, ray) < ZERO)


def certifies_outcome(program, out):
    """Whether a solver outcome proves its status on the program, read by
    attribute (c, G, h, E, e, nonneg; status and the fields it sets) with
    the oracle its status calls for."""
    data = (program.G, program.h, program.E, program.e)
    if out.status == "optimal":
        return certifies_optimal(program.c, *data, program.nonneg, out.x,
                                 out.value, out.dual_ineq, out.dual_eq)
    if out.status == "unbounded":
        # the value is read as the minimum, so it must be -oo
        return out.value is NEG_INF and certifies_unbounded(
            program.c, *data, program.nonneg, out.x, out.ray)
    return (out.status == "infeasible"
            and certifies_empty(*data, out.farkas_ineq, out.farkas_eq,
                                program.nonneg))


def with_equality_row(p: sets.Polyhedron) -> sets.Polyhedron:
    """A box polyhedron with its first coordinate also pinned by an equality
    row to the midpoint of its bounds, so it stays nonempty."""
    row = [Q(1)] + [Q(0)] * (p.dim - 1)
    return sets.Polyhedron(dim=p.dim, G=p.G, h=p.h, E=p.E + [row],
                           e=p.e + [(p.h[0] - p.h[1]) / 2])


def spoiled(out):
    """An outcome of `out`'s status with none of its proof, which fails
    every substitution check (None stays None)."""
    return None if out is None else lp.LPOutcome(out.status)


# the fields an outcome's answer reads, per program: a membership answer
# is its status, proved by a witness or a Farkas pair (the cost is 0, so
# its multipliers prove nothing more), and a scale answer also reads the
# value, proved by the point, the ray or the multipliers
MEMBERSHIP_FIELDS = ("x", "farkas_ineq", "farkas_eq")
SCALE_FIELDS = ("x", "value", "ray", "dual_ineq", "dual_eq", "farkas_ineq",
                "farkas_eq")


def mutations(out, fields):
    """(label, copy of `out` with one field spoiled) for each of `fields`
    that `out` sets: each entry of a point or ray shifted by one, the
    ray's last entry (the scale t) set to 0, each nonzero multiplier's
    sign flipped, a value -oo made 0 and a finite one raised by one, and
    each list one entry too long."""
    for name in fields:
        old = getattr(out, name)
        if old is None:
            continue
        if name == "value":
            yield name, replace(out, value=ZERO if old is NEG_INF
                                else old + 1)
            continue
        changed = [old + [ZERO]]
        if name in ("x", "ray"):
            changed += [old[:j] + [v + 1] + old[j + 1:]
                        for j, v in enumerate(old)]
        else:
            changed += [old[:j] + [-v] + old[j + 1:]
                        for j, v in enumerate(old) if v]
        if name == "ray" and old:
            changed.append(old[:-1] + [ZERO])
        for new in changed:
            yield name, replace(out, **{name: new})


def cone_two_lps(s, p):
    """(p in R+ S, p in cl(R+ S)) for a `sets.LiftedSet` S, by two LPs.
    Closure membership: S is nonempty and some (w, t >= 0) has
    G (p, w) <= t h and E (p, w) = t e (S's rows, each right-hand side
    scaled by t; t = 0 adds the recession directions that close the cone).
    Cone membership: the largest tau >= 0 with tau p in S (for p != 0, p is
    in R+ S iff tau > 0; p = 0 is in it iff S is nonempty)."""
    p = [as_q(v) for v in p]
    d = s.dim
    nonempty = not s.is_empty()
    scaled = lp.solve(lp.LinearProgram(
        c=[0] * (s.witness_dim + 1),
        G=[r[d:] + [-b] for r, b in zip(s.G, s.h)],
        h=[-eval_affine(r[:d], p) for r in s.G],
        E=[r[d:] + [-b] for r, b in zip(s.E, s.e)],
        e=[-eval_affine(r[:d], p) for r in s.E],
        nonneg=list(s.witness_nonneg) + [True]))
    closure = nonempty and scaled.status != "infeasible"
    if all(v == ZERO for v in p):
        return nonempty, closure
    out = lp.solve(lp.LinearProgram(
        c=[-1] + [0] * s.witness_dim,
        G=[[eval_affine(r[:d], p)] + r[d:] for r in s.G],
        h=s.h,
        E=[[eval_affine(r[:d], p)] + r[d:] for r in s.E],
        e=s.e, nonneg=[True] + list(s.witness_nonneg)))
    strict = (out.status == "unbounded"
              or (out.status == "optimal" and out.value < ZERO))
    return strict, closure
