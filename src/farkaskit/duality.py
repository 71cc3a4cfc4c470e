"""Constrained minimization over a Farkas instance and its multiplier dual.

The primal problem minimizes the objective over ground intersected with the
target's preimage. Its Lagrangian dual maximizes

    -( f*(u) + sigma_ground(v) + sigma_target(lam) )

over the linked triples u + v = -map^T lam. That is the program of the full
certificate search in `engine` (one linear program over the multipliers of
the polyhedral epigraphs of f*, sigma_ground and sigma_target), with its
budget row as the cost to minimize. Weak duality always bounds the
dual value by the primal one and is asserted on every solve. Strong duality
(dual attainment at the primal value) is governed by the same closedness
criterion as the dual Farkas characterization; with polyhedral data the
criterion set is closed, so whenever the primal value is not +infinity the
attainment is forced and its absence raises InvariantViolation. An
unbounded primal counts as strong duality by convention, with the dual then
necessarily infeasible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import calculus, engine, lp, sets
from .engine import FarkasInstance
from .errors import InvariantViolation
from .rational import (INF, NEG_INF, ONE, Q, ZERO, as_q_vector, dot, is_finite,
                       transpose_apply)

OPTIMAL = lp.OPTIMAL
UNBOUNDED = lp.UNBOUNDED
INFEASIBLE = lp.INFEASIBLE


@dataclass
class PrimalSolution:
    """status OPTIMAL carries the exact minimum and a minimizer; UNBOUNDED
    carries a feasible point and an improving ray; INFEASIBLE means the
    feasible set misses dom f (value +infinity)."""

    status: str
    value: object
    point: list | None = None
    ray: list | None = None


def solve_primal(inst: FarkasInstance) -> PrimalSolution:
    best = calculus.minimize_over(inst.objective, inst.feasible_polyhedron())
    if best.value is INF:
        return PrimalSolution(status=INFEASIBLE, value=INF)
    if best.value is NEG_INF:
        return PrimalSolution(status=UNBOUNDED, value=NEG_INF,
                              point=best.point, ray=best.ray)
    return PrimalSolution(status=OPTIMAL, value=best.value, point=best.point)


@dataclass
class DualSolution:
    """status OPTIMAL carries the linked triple and the exact dual value
    recomputed from it; UNBOUNDED means the dual improves without bound
    (value +infinity, forcing an infeasible primal); INFEASIBLE means no
    linked triple exists (value -infinity)."""

    status: str
    value: object
    u: list | None = None
    v: list | None = None
    lam: list | None = None


def _dual_lp(inst: FarkasInstance):
    """The full certificate program of `engine`, with its budget row as the
    cost to minimize. Returns the LP plus the extractor for (u, lam)."""
    E, e, cost, nonneg, extract = engine._full_program(inst)
    return lp.LinearProgram(c=cost, G=[], h=[], E=E, e=e, nonneg=nonneg), \
        extract


def solve_dual(inst: FarkasInstance,
               primal_value=None) -> DualSolution:
    """Maximize the dual; weak duality against the primal value is always
    asserted (the primal is solved here if its value is not supplied)."""
    if primal_value is None:
        primal_value = solve_primal(inst).value
    program, extract = _dual_lp(inst)
    out = lp.solve(program)
    if out.status == INFEASIBLE:
        return DualSolution(status=INFEASIBLE, value=NEG_INF)
    if out.status == UNBOUNDED:
        if primal_value is not INF:
            raise InvariantViolation(
                "dual unbounded above a finite or unbounded primal")
        return DualSolution(status=UNBOUNDED, value=INF)
    u, lam = extract(out.x)
    v = [-a - b for a, b in zip(u, inst.adjoint(lam))]
    conj = calculus.fenchel_value(inst.objective, u)
    gsup = sets.support(inst.ground.to_lifted(), v)
    tsup = inst.target_support(lam)
    if not (is_finite(conj) and is_finite(gsup) and is_finite(tsup)):
        raise InvariantViolation("dual solution with infinite component")
    if conj + gsup + tsup != out.value:
        raise InvariantViolation(
            "recomputed dual objective differs from the solver's")
    value = -(conj + gsup + tsup)
    if primal_value is not INF and not (value <= primal_value):
        raise InvariantViolation("weak duality violated")
    return DualSolution(status=OPTIMAL, value=value, u=u, v=v, lam=lam)


@dataclass
class StrongDualityReport:
    """equal records whether the dual attains the primal value (True by
    convention for an unbounded primal). With an infeasible primal the
    equivalence is not forced; note then explains the open hypothesis and
    equal reports the factual comparison of the two values."""

    primal: PrimalSolution
    dual: DualSolution
    equal: bool
    criterion_holds: bool = True
    note: str | None = None


def check_strong_duality(inst: FarkasInstance) -> StrongDualityReport:
    primal = solve_primal(inst)
    dual = solve_dual(inst, primal_value=primal.value)
    if primal.value is NEG_INF:
        if dual.status != INFEASIBLE:
            raise InvariantViolation(
                "dual feasible although the primal is unbounded below")
        return StrongDualityReport(
            primal=primal, dual=dual, equal=True,
            note="primal unbounded below: strong duality by convention")
    if primal.value is INF:
        return StrongDualityReport(
            primal=primal, dual=dual, equal=dual.value is INF,
            note="primal infeasible: the closedness criterion does not "
                 "force attainment here")
    if dual.status != OPTIMAL or dual.value != primal.value:
        raise InvariantViolation(
            "strong duality must hold: the criterion set is closed and the "
            "primal value is finite")
    return StrongDualityReport(primal=primal, dual=dual, equal=True)


@dataclass
class OptimalityReport:
    """The three equivalent optimality statements for a feasible point,
    each decided independently; disagreement raises instead of returning."""

    optimal: bool
    value: object
    by_comparison: bool
    by_certificate: bool
    by_subdifferential: bool
    certificate: object = None
    verdict: str = "consistent"


def _subdifferential_route(inst: FarkasInstance, point, fx) -> bool:
    """0 in conv(active slopes) + N(dom f, x) + N(ground, x) +
    map^T N(target, map x), as one LP feasibility question."""
    f = inst.objective
    active = [a for a, b in zip(f.slopes, f.offsets)
              if dot(a, point) + b == fx]
    cols = [list(a) for a in active]
    nonneg = [True] * len(active)
    simplex_flags = [True] * len(active)

    def add_cone(rows_g, rhs_g, rows_e, rhs_e, at, mapped=False):
        for row, rhs in zip(rows_g, rhs_g):
            if dot(row, at) == rhs:
                col = inst.adjoint(row) if mapped else list(row)
                cols.append(col)
                nonneg.append(True)
                simplex_flags.append(False)
        for row in rows_e:
            col = inst.adjoint(row) if mapped else list(row)
            cols.append(col)
            nonneg.append(False)
            simplex_flags.append(False)

    if f.domain is not None:
        add_cone(f.domain.G, f.domain.h, f.domain.E, f.domain.e, point)
    add_cone(inst.ground.G, inst.ground.h, inst.ground.E, inst.ground.e,
             point)
    t = inst.target_polyhedron()
    image = inst.apply(point)
    add_cone(t.G, t.h, t.E, t.e, image, mapped=True)
    total = len(cols)
    E = [[cols[c][j] for c in range(total)] for j in range(inst.n)]
    e = [ZERO] * inst.n
    E.append([ONE if flag else ZERO for flag in simplex_flags])
    e.append(ONE)
    out = lp.solve(lp.LinearProgram(c=[ZERO] * total, G=[], h=[],
                                    E=E, e=e, nonneg=nonneg))
    return out.status != INFEASIBLE


def check_optimality(inst: FarkasInstance, point) -> OptimalityReport:
    """Prop-style three-way test at a feasible point of dom f: value
    comparison with the exact minimum, existence of a certificate for the
    objective shifted down by its value there, and the subdifferential
    condition. The three must agree (the criterion set is closed); any
    split raises InvariantViolation. An infeasible point is a usage error."""
    point = as_q_vector(point)
    if len(point) != inst.n:
        raise ValueError("point dimension mismatch")
    if not inst.feasible_polyhedron().contains(point):
        raise ValueError("optimality queried at an infeasible point")
    fx = inst.objective.value(point)
    if fx is INF:
        raise ValueError("optimality queried outside the objective's domain")
    primal = solve_primal(inst)
    by_comparison = primal.status == OPTIMAL and primal.value == fx
    shifted = FarkasInstance(
        ground=inst.ground, matrix=inst.matrix, target=inst.target,
        objective=inst.objective.tilted([ZERO] * inst.n, fx))
    cert = engine.find_certificate(shifted)
    by_certificate = cert is not None
    by_subdiff = _subdifferential_route(inst, point, fx)
    if not (by_comparison == by_certificate == by_subdiff):
        raise InvariantViolation(
            "the three optimality statements split although the criterion "
            "set is closed")
    return OptimalityReport(optimal=by_comparison, value=fx,
                            by_comparison=by_comparison,
                            by_certificate=by_certificate,
                            by_subdifferential=by_subdiff,
                            certificate=cert)


@dataclass
class StableDualityReport:
    """per_tilt holds the StrongDualityReport of each checked tilt, in the
    order of the tilts; it is detail for callers and left out of the CLI's
    JSON form."""

    tilts_checked: int
    all_strong: bool
    containment_points: int
    criterion_holds: bool = True
    note: str | None = None
    per_tilt: list = field(default_factory=list, metadata={"json": False})


def default_dual_tilts(n: int, count: int = 25, seed: int = 0):
    return [shift for shift, _ in engine.default_tilts(n, count, seed)]


def _sum_point_sample(inst: FarkasInstance, rng):
    """A random point of epi f* + certificate cone, built from generators."""
    f = inst.objective
    conj = calculus.conjugate_epigraph(f)
    weights = [Q(rng.randint(0, 3)) for _ in conj.points]
    if not any(weights):
        weights[0] = ONE
    total = sum(weights, ZERO)
    z = [v / total
         for v in transpose_apply(conj.points, weights, inst.n + 1)]
    for ray in conj.rays:
        c = Q(rng.randint(0, 2))
        if c:
            z = [a + c * b for a, b in zip(z, ray)]
    for ray in calculus.support_epigraph_generators(inst.ground):
        c = Q(rng.randint(0, 2))
        if c:
            z = [a + c * b for a, b in zip(z, ray)]
    lam = [Q(rng.randint(-2, 2)) for _ in range(inst.m)]
    graph = inst.adjoint(lam) + [inst.target_support(lam)]
    return [a + b for a, b in zip(z, graph)]


def check_stable_strong_duality(inst: FarkasInstance, tilts=None,
                                seed: int = 0,
                                n_points: int = 20) -> StableDualityReport:
    """Strong duality under every sampled linear tilt of the objective,
    plus the one-sided containment of epi f* + cone in the restricted
    conjugate epigraph, sampled at random sum points. Tilting shifts the
    conjugate, so the criterion set only translates and stays closed; with
    a primal value below +infinity every tilt must then close the duality
    gap, and a miss raises. An infeasible primal leaves the tilt grid
    unforced, which the note records."""
    if tilts is None:
        tilts = default_dual_tilts(inst.n, seed=seed)
    rng = random.Random(seed + 1)
    restricted = calculus.restricted_conjugate_epigraph(
        inst.objective, inst.feasible_polyhedron())
    for _ in range(n_points):
        z = _sum_point_sample(inst, rng)
        if not sets.member(restricted, z):
            raise InvariantViolation(
                "a sum point escapes the restricted conjugate epigraph")
    note = None
    if solve_primal(inst).value is INF:
        note = ("primal infeasible: per-tilt attainment is not forced; "
                "containment sampling only")
        return StableDualityReport(tilts_checked=0, all_strong=True,
                                   containment_points=n_points, note=note)
    per_tilt = []
    for shift in tilts:
        tilted = FarkasInstance(
            ground=inst.ground, matrix=inst.matrix, target=inst.target,
            objective=inst.objective.tilted(shift))
        rep = check_strong_duality(tilted)
        if not rep.equal:
            raise InvariantViolation(
                f"strong duality failed under tilt {shift}")
        per_tilt.append(rep)
    return StableDualityReport(tilts_checked=len(tilts), all_strong=True,
                               containment_points=n_points, note=note,
                               per_tilt=per_tilt)
