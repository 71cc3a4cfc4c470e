"""Finite grids of two-sided linear constraints alpha_t <= <a_t, x> <= beta_t.

A grid is a Farkas instance whose map rows are the functionals a_t and
whose target is the box prod [alpha_t, beta_t]; `grid` builds it, and the
generic checks of `engine` and `duality` take it as it is. That box is
compact, so every multiplier has finite support value, in closed form
(`Box.support`) over the canonical split lam = plus - minus (`decompose`):

    sigma(lam) = sum_t (plus_t * beta_t - minus_t * alpha_t).

The grid also carries its moment cone, generated by (a_t, beta_t) and
(-a_t, -alpha_t): it is sandwiched between the multiplier graph and the
graph plus vertical rays, and adding the verticals makes the two coincide.
check_moment_sandwich verifies that sandwich computationally, and
check_grid_dual adds the moment-cone form of the certificate cone to the
generic dual criterion.

Whether the band {x in ground : alpha_t <= <a_t, x> <= beta_t for all t} is
nonempty is decided by an exchange (cutting-plane) method, the classic one
for semi-infinite systems (Hettich & Kortanek, SIAM Review 35, 1993): solve
a small working set of rows, add the most violated row of the whole grid,
repeat. The working set lives on one kept tableau (`lp.System`): phase 1
runs once, and each appended row is restored by the dual simplex. A
point that satisfies every row, or a Farkas vector that is zero off the
working set, certifies the whole system; both are checked by substitution
against all of it, and `band_point` returns the one it found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from . import calculus, engine, lp, sets
from .calculus import PiecewiseAffine
from .errors import InvariantViolation
from .rational import ONE, Q, ZERO, as_q_vector, over_lcm
from .sets import Box, Polyhedron


def grid(rows, ground: Polyhedron,
         objective: PiecewiseAffine) -> engine.FarkasInstance:
    """The grid of rows (a_t, alpha_t, beta_t), one per node, over the
    ground set: the instance with map rows a_t and the box target
    prod [alpha_t, beta_t]. At least one row is required."""
    if not rows:
        raise ValueError("grid needs at least one row")
    return engine.FarkasInstance(
        ground=ground, matrix=[a for a, _, _ in rows],
        target=Box([(lo, hi) for _, lo, hi in rows]), objective=objective)


def _most_violated(rows, x):
    """Index of the band row x violates most, in the row order of
    `Box.pullback` (2t: a_t . x <= beta_t, 2t + 1: -a_t . x <= -alpha_t),
    or None when x satisfies every node. Node t comes as (A, s_t) =
    `over_lcm(a_t + [alpha_t, beta_t])`. Violations are compared exactly,
    in the rows' own units, in integers: x = X / D, and row t's excess
    over its bound is e / (s_t D) for the integer e below. Ties go to the
    least row index."""
    X, D = over_lcm(x)
    best, best_e, best_s = None, 0, 1
    for t, (A, s) in enumerate(rows):
        p = sum(map(mul, A, X))  # a_t . X: X is 2 entries shorter than A
        if p > A[-1] * D:
            e, k = p - A[-1] * D, 2 * t
        elif p < A[-2] * D:
            e, k = A[-2] * D - p, 2 * t + 1
        else:
            continue
        if e * best_s > best_e * s:
            best, best_e, best_s = k, e, s
    return best


def band_point(inst: engine.FarkasInstance) -> lp.LPOutcome:
    """Whether {x in ground : lower_t <= a_t . x <= upper_t at every node}
    is nonempty, by the exchange method: OPTIMAL with a point x of it, or
    INFEASIBLE with a Farkas vector over the rows of `feasible_polyhedron`
    (the ground's, then a_t . x <= beta_t, -a_t . x <= -alpha_t per node).

    The working set starts empty, and the ground's rows are in it at every
    round. Each round takes a solution of the working rows (cost 0) and
    adds the band row it violates most; the first round's rows are the
    ground's alone, so its solution is the ground's kept point (the origin
    when the ground has no rows, else from the LP solved when the instance
    checked the ground). The rounds after it run on one `lp.System` of the
    ground's rows: one phase 1 over them at the first append, then each
    added row is appended (`System.append`) and restored by the dual
    simplex, and the next solution is read off the basis. A new row joins
    each round, so at most 2N rounds run; a few more than n is typical. The
    answer is certified against the whole system: a point by substitution
    into every node and the ground, an empty band by the working set's
    Farkas vector, padded with zeros to all rows, through
    `lp.verify_certificate`. A failed check raises InvariantViolation."""
    n = inst.n
    full = inst.feasible_polyhedron()
    first = len(inst.ground.G)
    rows = [over_lcm(a + [lo, hi])
            for a, (lo, hi) in zip(inst.matrix, inst.target.bounds)]
    working = []
    kept = lp.System(lp.LinearProgram(
        c=[ZERO] * n, G=full.G[:first], h=full.h[:first], E=full.E, e=full.e))
    x = inst.ground.a_point()
    while True:
        k = _most_violated(rows, x)
        if k is None:
            if not (inst.ground.contains(x)
                    and inst.target.contains(inst.apply(x))):
                raise InvariantViolation(
                    "exchange point misses a row of the band")
            return lp.LPOutcome(lp.OPTIMAL, x=x, value=ZERO)
        if k in working:
            raise InvariantViolation("working-set solution violates its rows")
        working.append(k)
        out = kept.append(full.G[first + k], full.h[first + k])
        if out.status == lp.INFEASIBLE:
            mu = [ZERO] * len(full.G)
            active = list(range(first)) + [first + j for j in working]
            for i, v in zip(active, out.farkas_ineq):
                mu[i] = v
            whole = lp.LinearProgram(c=[ZERO] * n, G=full.G, h=full.h,
                                     E=full.E, e=full.e)
            cert = lp.LPOutcome(lp.INFEASIBLE, farkas_ineq=mu,
                                farkas_eq=out.farkas_eq)
            if not lp.verify_certificate(whole, cert):
                raise InvariantViolation(
                    "working-set Farkas vector does not certify the band")
            return cert
        x = out.x


@dataclass
class SignedMultiplier:
    """Canonical split of a grid multiplier: plus and minus are nonnegative
    and never both positive at the same node. Constructed values that break
    canonicality are rejected."""

    plus: list
    minus: list

    def __post_init__(self):
        self.plus = as_q_vector(self.plus)
        self.minus = as_q_vector(self.minus, len(self.plus),
                                 "plus/minus length mismatch")
        for p, m in zip(self.plus, self.minus):
            if p < ZERO or m < ZERO:
                raise ValueError("signed parts must be nonnegative")
            if p and m:
                raise ValueError("non-canonical split: both parts positive")

    def value(self) -> list:
        return [p - m for p, m in zip(self.plus, self.minus)]


def decompose(lam) -> SignedMultiplier:
    """Canonical split lam = plus - minus with plus_t * minus_t = 0."""
    lam = as_q_vector(lam)
    plus = [v if v > ZERO else ZERO for v in lam]
    minus = [-v if v < ZERO else ZERO for v in lam]
    return SignedMultiplier(plus=plus, minus=minus)


def moment_cone(inst: engine.FarkasInstance) -> sets.GeneratedSet:
    """cone of {(a_t, beta_t)} and {(-a_t, -alpha_t)} in R^{n+1}."""
    rays = []
    for a, (lo, hi) in zip(inst.matrix, inst.target.bounds):
        rays.append(list(a) + [hi])
        rays.append([-v for v in a] + [-lo])
    return sets.GeneratedSet(dim=inst.n + 1,
                             points=[[ZERO] * (inst.n + 1)], rays=rays)


def lifted_moment_cone(inst: engine.FarkasInstance) -> sets.LiftedSet:
    """The moment cone plus the vertical ray (0, 1), as a lifted set: the
    form that coincides with the multiplier cone."""
    cone = moment_cone(inst)
    return sets.as_lifted(sets.GeneratedSet(
        dim=inst.n + 1, points=cone.points,
        rays=cone.rays + [[ZERO] * inst.n + [ONE]]))


def grid_certificate_cone(inst: engine.FarkasInstance) -> sets.LiftedSet:
    """Moment cone plus the ground support epigraph: the grid-shaped form
    of the certificate cone (the epigraph's vertical rays absorb the gap
    between the moment cone and the multiplier graph)."""
    return sets.minkowski_sum(sets.as_lifted(moment_cone(inst)),
                              calculus.support_epigraph(inst.ground))


@dataclass
class SandwichReport:
    generators_checked: int
    graph_points_checked: int
    probe_directions: int
    verdict: str = "consistent"


def check_moment_sandwich(inst: engine.FarkasInstance, n_random: int = 20,
                          seed: int = 0) -> SandwichReport:
    """Verify the moment cone sandwich on the grid: every generator is a
    multiplier graph point (unit multipliers realize it with exact support
    value), every sampled multiplier graph point lies in the moment cone
    once vertical rays are added, and the two cones then have identical
    supports along the probe grid. A negative n_random raises
    ValueError."""
    if n_random < 0:
        raise ValueError("the number of random multipliers must be >= 0")
    # Each loop decides its points' membership in one sweep, then raises at
    # the first failed identity in the order of the points, each point's
    # closed form before its membership.
    mult_cone = engine.multiplier_cone(inst)
    identities, gens = [], []
    for t, (a, (lo, hi)) in enumerate(zip(inst.matrix, inst.target.bounds)):
        for sign, val in ((ONE, hi), (-ONE, lo)):
            lam = [ZERO] * inst.m
            lam[t] = sign
            sup = inst.target.support(lam)
            identities.append(sup == sign * val)
            gens.append([sign * v for v in a] + [sup])
    for holds, inside in zip(identities, sets.members(mult_cone, gens)):
        if not holds:
            raise InvariantViolation(
                "unit multiplier support differs from its bound")
        if not inside:
            raise InvariantViolation(
                "moment cone generator escapes the multiplier cone")
    n_vert = lifted_moment_cone(inst)
    rng = random.Random(seed)
    lams = [[Q(rng.randint(-3, 3)) for _ in range(inst.m)]
            for _ in range(n_random)]
    # the closed form `Box.support` against LPs over the box's rows
    lp_sups = sets.supports(inst.target_polyhedron(), lams)
    identities, graphs = [], []
    for lam, lp_sup in zip(lams, lp_sups):
        sup = inst.target.support(lam)
        identities.append(sup == lp_sup)
        graphs.append(inst.adjoint(lam) + [sup])
    for holds, inside in zip(identities, sets.members(n_vert, graphs)):
        if not holds:
            raise InvariantViolation(
                "closed-form box support differs from the LP value")
        if not inside:
            raise InvariantViolation(
                "multiplier graph point escapes the lifted moment cone")
    dirs = sets.probe_directions(inst.n + 1, n_random=min(n_random, 10),
                                 seed=seed + 1)
    sets.require_equal_supports(n_vert, mult_cone, dirs,
                                "moment cone vs multiplier cone")
    return SandwichReport(generators_checked=2 * inst.m,
                          graph_points_checked=n_random,
                          probe_directions=len(dirs))


def check_grid_dual(inst: engine.FarkasInstance, n_random: int = 8,
                    seed: int = 0) -> engine.CheckReport:
    """Third criterion on the grid, plus the grid-specific identity that
    the moment-cone form of the certificate cone matches the generic one.
    Needs a feasible point inside the objective's domain."""
    rep, dirs, cone_values = engine._dual_criterion(inst, n_random, seed)
    sets.require_equal_values(
        dirs, sets.supports(grid_certificate_cone(inst), dirs), cone_values,
        "grid certificate cone vs generic certificate cone")
    rep.details["moment_cone_probes"] = len(dirs)
    return rep
