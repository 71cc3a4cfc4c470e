"""One-sided polynomial approximation on a grid, swept over tolerances.

Approximate a sampled function g from above by a polynomial of degree
< degree_bound while minimizing the integral of the polynomial over [0, 1]
(the integral of t^{i-1} is 1/i, so the objective is sum x_i / i). The
tolerance eps caps the overshoot:

    g(t) <= sum_i x_i t^{i-1} <= g(t) + eps     at every grid node.

Each tolerance is one grid (`semiinf.grid`): Vandermonde rows, interval
bounds [g, g + eps], free ground space. Whether any polynomial fits the
band ((0, -1) outside the lifted moment cone) is read off the certificate
of the exchange method `semiinf.band_point`, checked again by substitution
in moment coordinates. Solving works on the dual
side, whose program has only degree_bound + 1 rows: the node multipliers
come out directly and satisfy the moment conditions

    sum_t lam_t t^{i-1} = -1/i,   i = 1..degree_bound,

certifying the objective value through the box's support, -sigma(lam) =
-sum_t (lam_t g(t) + eps lam_t+) (`Box.support`);
the optimal coefficients are recovered from the equality multipliers and
revalidated against the band row by row. All of it is exact and asserted.
A sweep solves the ascending tolerance list and checks that the frontier
of objectives never increases.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import mul

from . import engine, lp, semiinf
from .calculus import PiecewiseAffine
from .errors import InvariantViolation
from .rational import (NEG_INF, ONE, Q, ZERO, as_q, as_q_vector, dot,
                       over_lcm, q_str, transpose_apply)
from .semiinf import SignedMultiplier
from .sets import whole_space


def uniform_nodes(count: int):
    """count evenly spaced rational nodes spanning [0, 1]."""
    if count < 2:
        raise ValueError("need at least two nodes")
    return [Q(j, count - 1) for j in range(count)]


@dataclass
class ApproxProblem:
    degree_bound: int
    nodes: list
    values: list
    epsilons: list

    def __post_init__(self):
        if self.degree_bound < 1:
            raise ValueError("degree bound must be at least 1")
        self.nodes = as_q_vector(self.nodes)
        self.values = as_q_vector(self.values, len(self.nodes),
                                  "one value per node required")
        if not self.nodes:
            raise ValueError("empty node grid")
        for prev, cur in zip(self.nodes, self.nodes[1:]):
            if cur <= prev:
                raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] < ZERO or self.nodes[-1] > ONE:
            raise ValueError("nodes must lie in [0, 1]")
        self.epsilons = as_q_vector(self.epsilons)
        for eps in self.epsilons:
            if eps <= ZERO:
                raise ValueError("tolerances must be positive")
        for prev, cur in zip(self.epsilons, self.epsilons[1:]):
            if cur <= prev:
                raise ValueError("tolerances must be strictly increasing")

    def vandermonde_row(self, t):
        row = [ONE]
        for _ in range(self.degree_bound - 1):
            row.append(row[-1] * t)
        return row

    def objective_slope(self):
        return [Q(1, i) for i in range(1, self.degree_bound + 1)]


def to_grid(problem: ApproxProblem, epsilon) -> engine.FarkasInstance:
    epsilon = as_q(epsilon)
    return semiinf.grid(
        [(problem.vandermonde_row(t), g, g + epsilon)
         for t, g in zip(problem.nodes, problem.values)],
        whole_space(problem.degree_bound),
        PiecewiseAffine(dim=problem.degree_bound,
                        slopes=[problem.objective_slope()], offsets=[ZERO]))


def _consistent(inst: engine.FarkasInstance) -> bool:
    """Whether some polynomial fits the band, read off the certificate of
    `semiinf.band_point` and checked over the generators of the moment cone
    ((a_t, beta_t), (-a_t, -alpha_t)): a band point x makes (x, -1) <= 0 on
    each and 1 at (0, -1); an empty band's Farkas vector combines them into
    (0, s) with s < 0. A failed check (a point or Farkas vector of the
    wrong length included), or a ground with rows, raises
    InvariantViolation."""
    if inst.ground.G or inst.ground.E:
        raise InvariantViolation("a band grid has rows in its ground")
    rays = semiinf.moment_cone(inst).rays
    cert = semiinf.band_point(inst)
    if cert.x is not None:
        # in integers: each side over its own lcm keeps every product's sign
        X, _ = over_lcm(cert.x + [-ONE])
        holds = len(cert.x) == inst.n and all(
            sum(map(mul, over_lcm(r)[0], X)) <= 0 for r in rays)
    else:
        mu = cert.farkas_ineq
        holds = len(mu) == len(rays) and min(mu) >= ZERO
        if holds:
            *moments, s = transpose_apply(rays, mu, inst.n + 1)
            holds = not any(moments) and s < ZERO
    if not holds:
        raise InvariantViolation(
            "the exchange's certificate fails in moment coordinates")
    return cert.x is not None


def check_consistency(problem: ApproxProblem, epsilon) -> bool:
    """Whether some polynomial fits the eps band, read off the certificate
    of the exchange method on its grid and checked in moment coordinates."""
    return _consistent(to_grid(problem, epsilon))


@dataclass
class FrontierRow:
    epsilon: object
    objective: object
    coefficients: list
    dual: SignedMultiplier


def solve_eps(problem: ApproxProblem, epsilon) -> FrontierRow:
    """Best objective at one tolerance, with the certifying multipliers.
    Raises ValueError when no polynomial fits the band."""
    epsilon = as_q(epsilon)
    inst = to_grid(problem, epsilon)
    if not _consistent(inst):
        raise ValueError(f"no polynomial fits the band at {epsilon}")
    program, extract = engine.full_program(inst)
    out = lp.solve(program)
    if out.status == lp.INFEASIBLE:
        # no multiplier satisfies the moment conditions, so nothing bounds
        # the objective from below over the (consistent) band
        return FrontierRow(epsilon=epsilon, objective=NEG_INF,
                           coefficients=None, dual=None)
    if out.status == lp.UNBOUNDED:
        raise InvariantViolation("dual unbounded over a consistent band")
    value = -out.value
    n = problem.degree_bound
    coeffs = [-v for v in out.dual_eq[:n]]
    if dot(problem.objective_slope(), coeffs) != value:
        raise InvariantViolation(
            "recovered coefficients miss the optimal value")
    for t, g in zip(problem.nodes, problem.values):
        p = dot(problem.vandermonde_row(t), coeffs)
        if not (g <= p <= g + epsilon):
            raise InvariantViolation("recovered coefficients leave the band")
    _, lam = extract(out.x)
    moments = inst.adjoint(lam)
    expected = [-v for v in problem.objective_slope()]
    if moments != expected:
        raise InvariantViolation(
            "optimal multipliers break the moment conditions")
    if -inst.target_support(lam) != value:
        raise InvariantViolation(
            "multiplier bound differs from the optimal value")
    return FrontierRow(epsilon=epsilon, objective=value,
                       coefficients=coeffs, dual=semiinf.decompose(lam))


def sweep(problem: ApproxProblem) -> list:
    """Solve every tolerance in ascending order; widening the band can
    only improve the objective, which is asserted."""
    if not problem.epsilons:
        raise ValueError("no tolerances to sweep")
    rows = [solve_eps(problem, eps) for eps in problem.epsilons]
    for prev, cur in zip(rows, rows[1:]):
        if cur.objective > prev.objective:  # NEG_INF orders below all
            raise InvariantViolation("frontier objective increased")
    return rows


def write_frontier(rows, path, degree_bound: int):
    """CSV with header epsilon,objective,x1,...,xn; rationals as p/q; each
    row ends in a bare newline."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epsilon", "objective"]
                        + [f"x{i}" for i in range(1, degree_bound + 1)])
        for row in rows:
            if row.coefficients is None:
                writer.writerow([q_str(row.epsilon), "-inf"]
                                + [""] * degree_bound)
            else:
                writer.writerow([q_str(row.epsilon), q_str(row.objective)]
                                + [q_str(v) for v in row.coefficients])
