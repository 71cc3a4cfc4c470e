"""Finite grids of two-sided linear constraints alpha_t <= <a_t, x> <= beta_t.

A grid system is the specialization of a Farkas instance where the map rows
are the functionals a_t and the target is the box prod [alpha_t, beta_t].
That box is compact, so every multiplier has finite support value, computed
in closed form from the canonical split lam = plus - minus:

    sigma(lam) = sum_t (plus_t * beta_t - minus_t * alpha_t).

The grid also carries its moment cone, generated by (a_t, beta_t) and
(-a_t, -alpha_t): it is sandwiched between the multiplier graph and the
graph plus vertical rays, and adding the verticals makes the two coincide.
check_moment_sandwich verifies that sandwich computationally; the three
check_grid_* entry points delegate to the generic engine checks on the
embedded instance.

Whether the band {x in ground : alpha_t <= <a_t, x> <= beta_t for all t} is
nonempty is decided by an exchange (cutting-plane) method, the classic one
for semi-infinite systems (Hettich & Kortanek, SIAM Review 35, 1993): solve
a small working set of rows, add the most violated row of the whole grid,
repeat. A point that satisfies every row, or a Farkas vector that is zero
off the working set, certifies the whole system, and both are checked by
substitution against all of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from operator import mul

from . import calculus, duality, engine, lp, sets
from .calculus import PiecewiseAffine
from .errors import InvariantViolation
from .rational import ONE, Q, ZERO, as_q, as_q_vector, dot
from .sets import Box, Polyhedron, kept


@dataclass
class GridRow:
    functional: list
    lower: object
    upper: object

    def __post_init__(self):
        self.functional = as_q_vector(self.functional)
        self.lower = as_q(self.lower)
        self.upper = as_q(self.upper)
        if self.lower > self.upper:
            raise ValueError("grid row with lower bound above upper bound")


@dataclass
class GridSystem:
    """n variables, one GridRow per grid node, a ground polyhedron, and the
    tested function."""

    n: int
    rows: list
    ground: Polyhedron
    objective: PiecewiseAffine

    def __post_init__(self):
        if not self.rows:
            raise ValueError("grid needs at least one row")
        self.rows = [r if isinstance(r, GridRow) else GridRow(*r)
                     for r in self.rows]
        for r in self.rows:
            if len(r.functional) != self.n:
                raise ValueError("grid row width != variable count")
        if self.ground.dim != self.n or self.objective.dim != self.n:
            raise ValueError("ground or objective dimension mismatch")

    @property
    def size(self) -> int:
        return len(self.rows)


@kept
def to_instance(system: GridSystem) -> engine.FarkasInstance:
    """The grid as a generic instance: rows become the map, the interval
    bounds become a box target. Built on the first call and kept in the
    grid, with what the instance keeps, for every later check of it, so the
    rows must not change."""
    return engine.FarkasInstance(
        ground=system.ground,
        matrix=[r.functional for r in system.rows],
        target=Box([(r.lower, r.upper) for r in system.rows]),
        objective=system.objective)


def _integer_rows(system: GridSystem):
    """Per node, (A, L, H, s): the row alpha <= a . x <= beta times the lcm
    s of its denominators, so that A, L and H are integers."""
    out = []
    for r in system.rows:
        data = r.functional + [r.lower, r.upper]
        s = lcm(*[v.denominator for v in data])
        ints = [int(v.numerator * (s // v.denominator)) for v in data]
        out.append((ints[:-2], ints[-2], ints[-1], s))
    return out


def _most_violated(rows, x):
    """Index of the band row x violates most, in the row order of
    `Box.pullback` (2t: a_t . x <= beta_t, 2t + 1: -a_t . x <= -alpha_t),
    or None when x satisfies every node. Violations are compared exactly,
    in the rows' own units, in integers: x = X / D, and row t's excess
    over its bound is e / (s_t D) for the integer e below. Ties go to the
    least row index."""
    D = lcm(*[v.denominator for v in x])
    X = [int(v.numerator * (D // v.denominator)) for v in x]
    best, best_e, best_s = None, 0, 1
    for t, (A, L, H, s) in enumerate(rows):
        p = sum(map(mul, A, X))
        if p > H * D:
            e, k = p - H * D, 2 * t
        elif p < L * D:
            e, k = L * D - p, 2 * t + 1
        else:
            continue
        if e * best_s > best_e * s:
            best, best_e, best_s = k, e, s
    return best


def band_point(system: GridSystem):
    """A point of {x in ground : lower_t <= a_t . x <= upper_t at every
    node}, or None when that band is empty, by the exchange method.

    The working set starts empty, and the ground's rows are in it at every
    round. Each round solves the working rows (cost 0) and adds the band
    row the solution violates most. A new row joins each round, so at most
    2N rounds run; a few more than n is typical. The answer is certified
    against the whole system: a point by substitution into every node and
    the ground, an empty band by the working set's Farkas vector, padded
    with zeros to all rows, through `lp.verify_certificate`. A failed
    check raises InvariantViolation."""
    n = system.n
    full = system.ground.intersect(Box(
        [(r.lower, r.upper) for r in system.rows]).pullback(
        [r.functional for r in system.rows], n))
    first = len(system.ground.G)
    rows = _integer_rows(system)
    working = []
    while True:
        active = list(range(first)) + [first + k for k in working]
        out = lp.solve(lp.LinearProgram(
            c=[ZERO] * n, G=[full.G[i] for i in active],
            h=[full.h[i] for i in active], E=full.E, e=full.e))
        if out.status == lp.INFEASIBLE:
            mu = [ZERO] * len(full.G)
            for i, v in zip(active, out.farkas_ineq):
                mu[i] = v
            whole = lp.LinearProgram(c=[ZERO] * n, G=full.G, h=full.h,
                                     E=full.E, e=full.e)
            if not lp.verify_certificate(whole, lp.LPOutcome(
                    lp.INFEASIBLE, farkas_ineq=mu, farkas_eq=out.farkas_eq)):
                raise InvariantViolation(
                    "working-set Farkas vector does not certify the band")
            return None
        x = out.x
        k = _most_violated(rows, x)
        if k is None:
            if not (system.ground.contains(x) and all(
                    r.lower <= dot(r.functional, x) <= r.upper
                    for r in system.rows)):
                raise InvariantViolation(
                    "exchange point misses a row of the band")
            return x
        if k in working:
            raise InvariantViolation("working-set solution violates its rows")
        working.append(k)


@dataclass
class SignedMultiplier:
    """Canonical split of a grid multiplier: plus and minus are nonnegative
    and never both positive at the same node. Constructed values that break
    canonicality are rejected."""

    plus: list
    minus: list

    def __post_init__(self):
        self.plus = as_q_vector(self.plus)
        self.minus = as_q_vector(self.minus)
        if len(self.plus) != len(self.minus):
            raise ValueError("plus/minus length mismatch")
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


def box_support(system: GridSystem, multiplier: SignedMultiplier):
    """sigma of the grid's box target at the multiplier, in closed form.
    Always finite: the box is compact, so its barrier cone is everything."""
    if len(multiplier.plus) != system.size:
        raise ValueError("multiplier length != grid size")
    total = ZERO
    for p, m, row in zip(multiplier.plus, multiplier.minus, system.rows):
        total += p * row.upper - m * row.lower
    return total


def moment_cone(system: GridSystem) -> sets.GeneratedSet:
    """cone of {(a_t, beta_t)} and {(-a_t, -alpha_t)} in R^{n+1}."""
    rays = []
    for r in system.rows:
        rays.append(list(r.functional) + [r.upper])
        rays.append([-v for v in r.functional] + [-r.lower])
    return sets.GeneratedSet(dim=system.n + 1,
                             points=[[ZERO] * (system.n + 1)], rays=rays)


def lifted_moment_cone(system: GridSystem) -> sets.LiftedSet:
    """The moment cone plus the vertical ray (0, 1), as a lifted set: the
    form that coincides with the multiplier cone."""
    cone = moment_cone(system)
    return sets.as_lifted(sets.GeneratedSet(
        dim=system.n + 1, points=cone.points,
        rays=cone.rays + [[ZERO] * system.n + [ONE]]))


def grid_certificate_cone(system: GridSystem) -> sets.LiftedSet:
    """Moment cone plus the ground support epigraph: the grid-shaped form
    of the certificate cone (the epigraph's vertical rays absorb the gap
    between the moment cone and the multiplier graph)."""
    return sets.minkowski_sum(sets.as_lifted(moment_cone(system)),
                              calculus.support_epigraph(system.ground))


@dataclass
class SandwichReport:
    generators_checked: int
    graph_points_checked: int
    probe_directions: int
    verdict: str = "consistent"


def check_moment_sandwich(system: GridSystem, n_random: int = 20,
                          seed: int = 0) -> SandwichReport:
    """Verify the moment cone sandwich on the grid: every generator is a
    multiplier graph point (unit multipliers realize it with exact support
    value), every sampled multiplier graph point lies in the moment cone
    once vertical rays are added, and the two cones then have identical
    supports along the probe grid."""
    inst = to_instance(system)
    mult_cone = engine.multiplier_cone(inst)
    for t, row in enumerate(system.rows):
        for sign, val in ((ONE, row.upper), (-ONE, row.lower)):
            lam = [ZERO] * system.size
            lam[t] = sign
            sm = decompose(lam)
            sup = box_support(system, sm)
            if sup != sign * val:
                raise InvariantViolation(
                    "unit multiplier support differs from its bound")
            gen = [sign * v for v in row.functional] + [sup]
            if not sets.member(mult_cone, gen):
                raise InvariantViolation(
                    "moment cone generator escapes the multiplier cone")
    n_vert = lifted_moment_cone(system)
    rng = random.Random(seed)
    lams = [[Q(rng.randint(-3, 3)) for _ in range(system.size)]
            for _ in range(n_random)]
    # LPs over the box's rows: inst.target_support is box_support's closed
    # form again, so it could not catch a wrong one
    lp_sups = sets.supports(inst.target_polyhedron().to_lifted(), lams)
    for lam, lp_sup in zip(lams, lp_sups):
        sm = decompose(lam)
        assert sm.value() == as_q_vector(lam)
        sup = box_support(system, sm)
        if sup != lp_sup:
            raise InvariantViolation(
                "closed-form box support differs from the LP value")
        graph = inst.adjoint(lam) + [sup]
        if not sets.member(n_vert, graph):
            raise InvariantViolation(
                "multiplier graph point escapes the lifted moment cone")
    dirs = sets.probe_directions(system.n + 1, n_random=min(n_random, 10),
                                 seed=seed + 1)
    sets.require_equal_supports(n_vert, mult_cone, dirs,
                                "moment cone vs multiplier cone")
    return SandwichReport(generators_checked=2 * system.size,
                          graph_points_checked=n_random,
                          probe_directions=len(dirs))


def check_grid_primal(system: GridSystem) -> engine.CheckReport:
    """First criterion on the embedded instance (no extra hypothesis)."""
    return engine.check_primal_criterion(to_instance(system))


def check_grid_reduced(system: GridSystem) -> engine.CheckReport:
    """Second criterion on the embedded instance; the ground set must meet
    the objective's domain."""
    return engine.check_reduced_criterion(to_instance(system))


def check_grid_dual(system: GridSystem, n_random: int = 8,
                    seed: int = 0) -> engine.CheckReport:
    """Third criterion on the embedded instance, plus the grid-specific
    identity that the moment-cone form of the certificate cone matches the
    generic one. Needs a feasible point inside the objective's domain."""
    inst = to_instance(system)
    rep = engine.check_dual_criterion(inst, n_random=n_random, seed=seed)
    dirs = sets.probe_directions(system.n + 1, n_random=n_random, seed=seed)
    sets.require_equal_supports(
        grid_certificate_cone(system), engine.certificate_cone(inst), dirs,
        "grid certificate cone vs generic certificate cone")
    rep.details["moment_cone_probes"] = len(dirs)
    return rep


def check_grid_stability(system: GridSystem, tilts=None,
                         seed: int = 0) -> duality.StabilityReport:
    """Stable criterion on the embedded instance (same hypothesis as the
    dual check), read off the strong-duality pass over its shifts."""
    return duality.check_stability(to_instance(system), tilts=tilts,
                                   seed=seed)
