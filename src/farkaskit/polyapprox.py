"""One-sided polynomial approximation on a grid, swept over tolerances.

Approximate a sampled function g from above by a polynomial of degree
< degree_bound while minimizing the integral of the polynomial over [0, 1]
(the integral of t^{i-1} is 1/i, so the objective is sum x_i / i). The
tolerance eps caps the overshoot:

    g(t) <= sum_i x_i t^{i-1} <= g(t) + eps     at every grid node.

Each tolerance is one instance of the grid machinery: Vandermonde rows,
interval bounds [g, g + eps], free ground space. Solving works on the dual
side, whose program has only degree_bound + 1 rows: the node multipliers
come out directly and satisfy the moment conditions

    sum_t lam_t t^{i-1} = -1/i,   i = 1..degree_bound,

certifying the objective value through -sum_t (lam_t g(t) + eps lam_t+);
the optimal coefficients are recovered from the equality multipliers and
revalidated against the band row by row. All of it is exact and asserted.
A sweep solves the ascending tolerance list and checks that the frontier
of objectives never increases.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from . import duality, lp, semiinf, sets
from .calculus import PiecewiseAffine
from .errors import InvariantViolation
from .rational import NEG_INF, ONE, Q, ZERO, as_q, as_q_vector, dot, q_str
from .semiinf import GridSystem, SignedMultiplier
from .sets import whole_space_polyhedron


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
        self.values = as_q_vector(self.values)
        if len(self.nodes) != len(self.values):
            raise ValueError("one value per node required")
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


def to_grid(problem: ApproxProblem, epsilon) -> GridSystem:
    epsilon = as_q(epsilon)
    return GridSystem(
        n=problem.degree_bound,
        rows=[(problem.vandermonde_row(t), g, g + epsilon)
              for t, g in zip(problem.nodes, problem.values)],
        ground=whole_space_polyhedron(problem.degree_bound),
        objective=PiecewiseAffine(dim=problem.degree_bound,
                                  slopes=[problem.objective_slope()],
                                  offsets=[ZERO]))


def _band_rows(problem: ApproxProblem, epsilon):
    G, h = [], []
    for t, g in zip(problem.nodes, problem.values):
        row = problem.vandermonde_row(t)
        G.append(row)
        h.append(g + epsilon)
        G.append([-v for v in row])
        h.append(-g)
    return G, h


def check_consistency(problem: ApproxProblem, epsilon) -> bool:
    """Whether some polynomial fits the eps band, decided by a direct LP
    and by the depth probe against the moment cone; the two must agree."""
    epsilon = as_q(epsilon)
    n = problem.degree_bound
    G, h = _band_rows(problem, epsilon)
    out = lp.solve(lp.LinearProgram(c=[ZERO] * n, G=G, h=h, E=[], e=[],
                                    nonneg=[False] * n))
    direct = out.status != lp.INFEASIBLE
    n_cone = semiinf.moment_cone(to_grid(problem, epsilon))
    with_vert = sets.as_lifted(sets.GeneratedSet(
        dim=n + 1, points=n_cone.points,
        rays=n_cone.rays + [[ZERO] * n + [ONE]]))
    probe_escapes = not sets.member(with_vert, [ZERO] * n + [-ONE])
    if direct != probe_escapes:
        raise InvariantViolation(
            "feasibility LP and the moment cone probe disagree")
    return direct


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
    if not check_consistency(problem, epsilon):
        raise ValueError(f"no polynomial fits the band at {epsilon}")
    inst = semiinf.to_instance(to_grid(problem, epsilon))
    program, extract = duality._dual_lp(inst)
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
    split = semiinf.decompose(lam)
    moments = inst.adjoint(lam)
    expected = [-v for v in problem.objective_slope()]
    if moments != expected:
        raise InvariantViolation(
            "optimal multipliers break the moment conditions")
    certified = ZERO
    for l, p, g in zip(lam, split.plus, problem.values):
        certified -= l * g + epsilon * p
    if certified != value:
        raise InvariantViolation(
            "multiplier bound differs from the optimal value")
    return FrontierRow(epsilon=epsilon, objective=value,
                       coefficients=coeffs, dual=split)


def sweep(problem: ApproxProblem) -> list:
    """Solve every tolerance in ascending order; widening the band can
    only improve the objective, which is asserted."""
    if not problem.epsilons:
        raise ValueError("no tolerances to sweep")
    rows = [solve_eps(problem, eps) for eps in problem.epsilons]
    for prev, cur in zip(rows, rows[1:]):
        if prev.objective is NEG_INF and cur.objective is not NEG_INF:
            raise InvariantViolation("frontier objective increased")
        if cur.objective is not NEG_INF and prev.objective is not NEG_INF \
                and cur.objective > prev.objective:
            raise InvariantViolation("frontier objective increased")
    return rows


def write_frontier(rows, path, degree_bound: int):
    """CSV with header epsilon,objective,x1,...,xn; rationals as p/q."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "objective"]
                        + [f"x{i}" for i in range(1, degree_bound + 1)])
        for row in rows:
            if row.coefficients is None:
                writer.writerow([q_str(row.epsilon), "-inf"]
                                + [""] * degree_bound)
            else:
                writer.writerow([q_str(row.epsilon), q_str(row.objective)]
                                + [q_str(v) for v in row.coefficients])
