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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import calculus, engine, sets
from .calculus import PiecewiseAffine
from .errors import InvariantViolation
from .rational import ONE, Q, ZERO, as_q, as_q_vector
from .sets import Box, Polyhedron


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


def to_instance(system: GridSystem) -> engine.FarkasInstance:
    """The grid as a generic instance: rows become the map, the interval
    bounds become a box target."""
    return engine.FarkasInstance(
        ground=system.ground,
        matrix=[r.functional for r in system.rows],
        target=Box([(r.lower, r.upper) for r in system.rows]),
        objective=system.objective)


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
                         seed: int = 0) -> engine.StabilityReport:
    """Stable criterion on the embedded instance (same hypothesis as the
    dual check)."""
    return engine.check_stability(to_instance(system), tilts=tilts,
                                  seed=seed)
