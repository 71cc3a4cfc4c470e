"""Solver unit tests: hand-checked optima, certificates, degenerate cases."""

from __future__ import annotations

import dataclasses
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farkaskit import polyapprox
from farkaskit.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    System,
    _Tableau,
    solve,
    verify_certificate,
)
from farkaskit.rational import INF, NEG_INF, Q, ZERO, over_lcm
from farkaskit.sets import Box

from oracles import (brute_force_box_min, certifies_empty, certifies_optimal,
                     certifies_outcome, certifies_unbounded, satisfies_rows)


def _certified(lp, out):
    """Assert that out certifies itself on lp, through the kernel's own
    check and through the oracle that the status calls for."""
    assert verify_certificate(lp, out), f"certificate failed for status {out.status}"
    assert certifies_outcome(lp, out), f"oracle rejects status {out.status}"


def _solved(lp):
    out = solve(lp)
    _certified(lp, out)
    return out


def test_bounded_inequalities():
    lp = LinearProgram(c=[-1, -1],
                       G=[[1, 1], [1, 0], [0, 1]], h=[4, 2, 3],
                       E=[], e=[])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.value == -4


def test_equalities_unique_point():
    lp = LinearProgram(c=[1, 1], G=[], h=[],
                       E=[[1, 1], [1, -1]], e=[3, 1])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.x == [2, 1]
    assert out.value == 3
    # c + E^T nu = 0 pins nu = (-1, 0)
    assert out.dual_eq == [-1, 0]


def test_infeasible_inequalities():
    lp = LinearProgram(c=[0], G=[[1], [-1]], h=[1, -2], E=[], e=[])
    out = _solved(lp)
    assert out.status == INFEASIBLE


def test_infeasible_equalities():
    lp = LinearProgram(c=[0], G=[], h=[], E=[[1], [1]], e=[1, 2])
    out = _solved(lp)
    assert out.status == INFEASIBLE


def test_unbounded_nonneg():
    lp = LinearProgram(c=[-1], G=[], h=[], E=[], e=[], nonneg=[True])
    out = _solved(lp)
    assert out.status == UNBOUNDED
    assert out.value is NEG_INF


def test_unbounded_free_with_rows():
    lp = LinearProgram(c=[0, -1], G=[[1, 0]], h=[5], E=[], e=[])
    out = _solved(lp)
    assert out.status == UNBOUNDED


def test_no_constraints_zero_objective():
    lp = LinearProgram(c=[0, 0], G=[], h=[], E=[], e=[])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.value == 0


def test_zero_variables_feasible():
    lp = LinearProgram(c=[], G=[[]], h=[3], E=[[]], e=[0])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.x == []
    assert out.value == 0


def test_zero_variables_infeasible():
    lp = LinearProgram(c=[], G=[], h=[], E=[[]], e=[1])
    out = _solved(lp)
    assert out.status == INFEASIBLE


def test_redundant_equalities_inert_rows():
    # second row is twice the first; the third pins the point
    lp = LinearProgram(c=[1, 0], G=[], h=[],
                       E=[[1, 1], [2, 2], [1, -1]], e=[2, 4, 0])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.x == [1, 1]


def test_degenerate_rhs_zero():
    lp = LinearProgram(c=[-1, 0], G=[[1, -1], [1, 1], [1, 0]], h=[0, 0, 1],
                       E=[], e=[])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.value == 0


def test_beale_cycling_example_terminates():
    # classic cycling instance for the naive most-negative rule; Bland's rule
    # must terminate at value -1/20
    lp = LinearProgram(
        c=[Q(-3, 4), 150, Q(-1, 50), 6],
        G=[[Q(1, 4), -60, Q(-1, 25), 9],
           [Q(1, 2), -90, Q(-1, 50), 3],
           [0, 0, 1, 0]],
        h=[0, 0, 1],
        E=[], e=[],
        nonneg=[True, True, True, True],
    )
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.value == Q(-1, 20)


def test_beale_1955_cycling_example_ties_in_ratio_test(count_pivots):
    # Beale's original cycling example: the first entering column meets two
    # zero right-hand sides, so the cross-multiplied ratio test ties and
    # Bland's smallest-basic-column tie-break decides the leaving row
    lp = LinearProgram(
        c=[Q(-3, 4), 20, Q(-1, 2), 6],
        G=[[Q(1, 4), -8, -1, 9],
           [Q(1, 2), -12, Q(-1, 2), 3],
           [0, 0, 1, 0]],
        h=[0, 0, 1],
        E=[], e=[],
        nonneg=[True, True, True, True],
    )
    out, pivots = count_pivots(solve, lp)
    _certified(lp, out)
    assert out.status == OPTIMAL
    assert out.value == Q(-5, 4)
    assert out.x == [1, 0, 1, 0]
    assert out.dual_ineq == [0, Q(3, 2), Q(5, 4)]
    # the smallest-basic-column tie-break takes six pivots here; breaking
    # the tie the other way reaches the same optimum in two
    assert pivots == 6


def _klee_minty(d):
    # max sum 2^(d-j) x_j  s.t.  sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i, x >= 0,
    # as a minimization; the optimum is the vertex x = 5^d e_d
    G = [[2 ** (i - j + 1) for j in range(1, i)] + [1] + [0] * (d - i)
         for i in range(1, d + 1)]
    return LinearProgram(c=[-(2 ** (d - j)) for j in range(1, d + 1)],
                         G=G, h=[5 ** i for i in range(1, d + 1)], E=[], e=[],
                         nonneg=[True] * d)


@pytest.mark.parametrize("d, pivots", [(3, 5), (4, 9), (5, 15)])
def test_klee_minty_cube_bland_path(count_pivots, d, pivots):
    # Bland's rule on the Klee-Minty cube (Klee & Minty 1972; Bland 1977):
    # every slack starts basic, so phase 1 makes no pivot, and the value and
    # the length of the phase-2 path from the origin are pinned
    lp = _klee_minty(d)
    out, made = count_pivots(solve, lp)
    _certified(lp, out)
    assert out.status == OPTIMAL
    assert out.value == -(5 ** d)
    assert out.x == [0] * (d - 1) + [5 ** d]
    assert made == pivots


def test_mixed_flags_duals():
    # min -x - 2y, x free in [-1, 5] via rows, y >= 0 flagged, y <= 2
    lp = LinearProgram(c=[-1, -2],
                       G=[[1, 0], [-1, 0], [0, 1]], h=[5, 1, 2],
                       E=[], e=[], nonneg=[False, True])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.x == [5, 2]
    assert out.value == -9


def test_negative_rhs_row_flip():
    lp = LinearProgram(c=[1], G=[[-1]], h=[-3], E=[], e=[])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.x == [3]
    assert out.value == 3


def test_tall_band_feasibility_program_certifies():
    # the direct feasibility LP of the degree-3 band around t^2 at eps 1/100
    # on 101 nodes: 202 rows, 3 free variables, a wide tableau whose pivot
    # rows are mostly zero, so nearly every entry is skipped by the update
    nodes = polyapprox.uniform_nodes(101)
    problem = polyapprox.ApproxProblem(
        degree_bound=3, nodes=nodes, values=[t * t for t in nodes],
        epsilons=[Q(1, 100)])
    band = Box([(g, g + Q(1, 100)) for g in problem.values]).pullback(
        [problem.vandermonde_row(t) for t in nodes], 3)
    G, h = band.G, band.h
    lp = LinearProgram(c=[ZERO] * 3, G=G, h=h, E=[], e=[],
                       nonneg=[False] * 3)
    out = solve(lp)
    assert len(lp.G) == 202
    assert out.status == OPTIMAL
    _certified(lp, out)
    # the same rows under the band objective (the integral of p over [0, 1]),
    # whose duals the certificate check also substitutes: optimum 1/3 at t^2
    lp = LinearProgram(c=problem.objective_slope(), G=G, h=h, E=[], e=[])
    out = _solved(lp)
    assert out.status == OPTIMAL
    assert out.value == Q(1, 3)


def test_solver_is_deterministic():
    rng = random.Random(20240817)
    for _ in range(25):
        n = rng.randint(1, 4)
        mg = rng.randint(0, 4)
        me = rng.randint(0, 2)
        lp = LinearProgram(
            c=[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)],
            G=[[rng.randint(-4, 4) for _ in range(n)] for _ in range(mg)],
            h=[rng.randint(-6, 6) for _ in range(mg)],
            E=[[rng.randint(-3, 3) for _ in range(n)] for _ in range(me)],
            e=[rng.randint(-4, 4) for _ in range(me)],
            nonneg=[rng.random() < 0.5 for _ in range(n)],
        )
        a, b = solve(lp), solve(lp)
        assert (a.status, a.x, a.value, a.dual_ineq, a.dual_eq, a.ray,
                a.farkas_ineq, a.farkas_eq) == \
               (b.status, b.x, b.value, b.dual_ineq, b.dual_eq, b.ray,
                b.farkas_ineq, b.farkas_eq)
        _certified(lp, a)


def test_box_instances_match_corner_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        bounds = []
        for _ in range(n):
            lo = Q(rng.randint(-8, 4), rng.randint(1, 4))
            hi = lo + Q(rng.randint(0, 9), rng.randint(1, 3))
            bounds.append((lo, hi))
        c = [Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
        G, h = [], []
        for j, (lo, hi) in enumerate(bounds):
            row = [ZERO] * n
            row[j] = Q(1)
            G.append(row)
            h.append(hi)
            row = [ZERO] * n
            row[j] = Q(-1)
            G.append(row)
            h.append(-lo)
        lp = LinearProgram(c=c, G=G, h=h, E=[], e=[])
        out = _solved(lp)
        assert out.status == OPTIMAL
        expect, _ = brute_force_box_min(c, bounds)
        assert out.value == expect


def _mixed_fraction(rng):
    den = rng.choice((1, 7, 360, rng.randint(2, 10**6), 10**6))
    return Q(rng.randint(-20 * den, 20 * den), den)


def _mixed_denominator_lp(rng):
    # fractional data with denominators up to 10^6, some rows (and their
    # right-hand sides) scaled by an integer above 2^64, equality rows and
    # mixed sign flags; half the draws plant a point so that every status
    # occurs, and right-hand sides of both signs (flipped rows) occur in both
    n = rng.randint(2, 12)
    me = rng.randint(0, min(4, n - 1))
    mg = rng.randint(1, 20 - me)
    c = [_mixed_fraction(rng) for _ in range(n)]
    G = [[_mixed_fraction(rng) for _ in range(n)] for _ in range(mg)]
    E = [[_mixed_fraction(rng) for _ in range(n)] for _ in range(me)]
    if rng.random() < 0.5:
        x0 = [abs(_mixed_fraction(rng)) for _ in range(n)]
        h = [sum(a * b for a, b in zip(row, x0)) + abs(_mixed_fraction(rng)) / 8
             for row in G]
        e = [sum(a * b for a, b in zip(row, x0)) for row in E]
    else:
        h = [_mixed_fraction(rng) for _ in range(mg)]
        e = [_mixed_fraction(rng) for _ in range(me)]
    for rows, rhs in ((G, h), (E, e)):
        for i in range(len(rows)):
            if rng.random() < 0.25:
                k = 2**64 + rng.randint(1, 2**64)
                rows[i] = [k * v for v in rows[i]]
                rhs[i] *= k
    return LinearProgram(c=c, G=G, h=h, E=E, e=e,
                         nonneg=[rng.random() < 0.5 for _ in range(n)])


def _float_rows(rows, rhs):
    # each row over its largest magnitude, so huge scale factors do not
    # reach the float solver (which reads |b| >= 1e20 as infinite)
    A, b = [], []
    for row, bi in zip(rows, rhs):
        s = max(abs(v) for v in [*row, bi]) or 1
        A.append([float(v / s) for v in row])
        b.append(float(bi / s))
    return A or None, b or None


def test_mixed_denominator_programs_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    highs_status = {OPTIMAL: 0, INFEASIBLE: 2, UNBOUNDED: 3}
    seen = set()
    for seed in range(60):
        lp = _mixed_denominator_lp(random.Random(seed))
        out = solve(lp)
        _certified(lp, out)
        scalars = [v for f in (out.x, out.dual_ineq, out.dual_eq, out.ray,
                               out.farkas_ineq, out.farkas_eq) if f for v in f]
        if out.status == OPTIMAL:
            scalars.append(out.value)
        assert all(isinstance(v, Q) for v in scalars), seed
        A_ub, b_ub = _float_rows(lp.G, lp.h)
        A_eq, b_eq = _float_rows(lp.E, lp.e)
        res = linprog([float(v) for v in lp.c], A_ub=A_ub, b_ub=b_ub,
                      A_eq=A_eq, b_eq=b_eq, method="highs",
                      bounds=[(0, None) if f else (None, None) for f in lp.nonneg])
        assert res.status == highs_status[out.status], (seed, out.status, res.message)
        if out.status == OPTIMAL:
            assert res.fun == pytest.approx(float(out.value), rel=1e-6, abs=1e-6), seed
        seen.add(out.status)
    assert seen == {OPTIMAL, UNBOUNDED, INFEASIBLE}


def _int_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _degenerate_lp(rng, status):
    """(program, x0): 30 variables with mixed sign flags and 60 rows of
    integers in -3..3 (four of them equalities), each row through the
    planted point x0 except a fifth of the inequality rows, which get a
    slack of 1 or 2. `status` shapes the data so that the program has that
    outcome: OPTIMAL prices the cost out by nonnegative row multipliers,
    UNBOUNDED plants a ray that every row allows and the cost descends
    along, INFEASIBLE replaces the last row by one that a nonnegative
    combination of the others contradicts."""
    n, me = 30, 4
    mg = 60 - me - (status == INFEASIBLE)
    nonneg = [rng.random() < 0.5 for _ in range(n)]
    x0 = [rng.randint(0, 2) if f else rng.randint(-2, 2) for f in nonneg]
    ray = [rng.randint(0, 1) if f else rng.randint(-1, 1) for f in nonneg]
    j = rng.randrange(n)
    ray[j] = 1

    def row():
        return [rng.randint(-3, 3) for _ in range(n)]

    G = [row() for _ in range(mg)]
    E = [row() for _ in range(me)]
    c = row()
    if status == UNBOUNDED:
        G = [r if _int_dot(r, ray) <= 0 else [-v for v in r] for r in G]
        for r in E:
            r[j] -= _int_dot(r, ray)
        c[j] -= _int_dot(c, ray) + 1
    h = [_int_dot(r, x0) + (rng.randint(1, 2) if rng.random() < 0.2 else 0)
         for r in G]
    e = [_int_dot(r, x0) for r in E]
    if status == INFEASIBLE:
        y = [rng.randint(0, 2) for _ in G]
        G.append([-sum(w * r[k] for w, r in zip(y, G)) for k in range(n)])
        h.append(-_int_dot(y, h) - 1)
    if status == OPTIMAL:
        y = [rng.randint(1, 2) if rng.random() < 0.3 else 0 for _ in G]
        mu = [rng.randint(-2, 2) for _ in E]
        c = [-sum(w * r[k] for w, r in zip(y + mu, G + E))
             + (rng.randint(0, 2) if f else 0) for k, f in enumerate(nonneg)]
    return LinearProgram(c=c, G=G, h=h, E=E, e=e, nonneg=nonneg), x0


def test_degenerate_30_by_60_programs_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    highs_status = {OPTIMAL: 0, INFEASIBLE: 2, UNBOUNDED: 3}
    for status in (OPTIMAL, UNBOUNDED, INFEASIBLE):
        for seed in range(2):
            lp, x0 = _degenerate_lp(random.Random(seed), status)
            tight = sum(_int_dot(r, x0) == b for r, b in zip(lp.G, lp.h))
            assert tight >= 40, (status, seed, tight)
            out = solve(lp)
            assert out.status == status, seed
            _certified(lp, out)
            A_ub, b_ub = _float_rows(lp.G, lp.h)
            A_eq, b_eq = _float_rows(lp.E, lp.e)
            res = linprog([float(v) for v in lp.c], A_ub=A_ub, b_ub=b_ub,
                          A_eq=A_eq, b_eq=b_eq, method="highs",
                          bounds=[(0, None) if f else (None, None)
                                  for f in lp.nonneg])
            assert res.status == highs_status[status], (seed, res.message)
            if status == OPTIMAL:
                assert res.fun == pytest.approx(float(out.value), rel=1e-6,
                                                abs=1e-6), seed


def _small_fraction(rng):
    den = rng.choice((1, 1, 2, 3, 7, 360))
    return Q(rng.randint(-6 * den, 6 * den), den)


def _shared_constraints(rng):
    # rows over n variables: inequality rows with right-hand sides of both
    # signs (flipped rows), equality rows, sometimes a multiple of the first
    # equality row (a redundant row that stays inert after phase 1), mixed
    # sign flags; half the draws plant a point so that feasible systems occur
    n = rng.randint(1, 6)
    G = [[_small_fraction(rng) for _ in range(n)]
         for _ in range(rng.randint(0, 6))]
    E = [[_small_fraction(rng) for _ in range(n)]
         for _ in range(rng.randint(0, 3))]
    nonneg = [rng.random() < 0.5 for _ in range(n)]
    if rng.random() < 0.5:
        x0 = [abs(_small_fraction(rng)) if f else _small_fraction(rng)
              for f in nonneg]
        h = [sum(a * b for a, b in zip(row, x0)) + abs(_small_fraction(rng))
             for row in G]
        e = [sum(a * b for a, b in zip(row, x0)) for row in E]
    else:
        h = [_small_fraction(rng) for _ in G]
        e = [_small_fraction(rng) for _ in E]
    redundant = bool(E) and rng.random() < 0.4
    if redundant:
        k = _small_fraction(rng) or Q(2)
        E.append([k * v for v in E[0]])
        e.append(k * e[0])
    return n, G, h, E, e, nonneg, redundant


def test_solve_each_matches_solve_per_cost():
    rng = random.Random(20261018)
    statuses = set()
    flipped = redundant_feasible = 0
    for _ in range(400):
        n, G, h, E, e, nonneg, redundant = _shared_constraints(rng)
        costs = [[_small_fraction(rng) for _ in range(n)] for _ in range(3)]
        costs.append([ZERO] * n)
        rng.shuffle(costs)
        shared = LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e, nonneg=nonneg)
        kept = System(shared)
        outs = [kept.outcome(c) for c in costs]
        assert len(outs) == len(costs)
        for c, out in zip(costs, outs):
            lp = LinearProgram(c=c, G=G, h=h, E=E, e=e, nonneg=nonneg)
            assert out == solve(lp)
            _certified(lp, out)
            statuses.add(out.status)
        flipped += any(b < 0 for b in h)
        redundant_feasible += redundant and outs[0].status != INFEASIBLE
    assert statuses == {OPTIMAL, UNBOUNDED, INFEASIBLE}
    assert flipped and redundant_feasible


def test_rows_keep_basic_entry_and_lowest_terms(monkeypatch):
    # every constraint row holds its basic column's numerator at D[i] and
    # shares no factor with D[i], at set-up and after every pivot, so a
    # pivot row never has a common factor to take out
    def check(tab):
        for i in range(tab.m):
            assert tab.T[i][tab.basis[i]] == tab.D[i] > 0
            assert gcd(tab.D[i], *tab.T[i]) == 1

    pivot = _Tableau.pivot
    pivots = 0

    def checked_pivot(tab, r, q):
        nonlocal pivots
        pivot(tab, r, q)
        pivots += 1
        check(tab)

    monkeypatch.setattr(_Tableau, "pivot", checked_pivot)
    rng = random.Random(20261019)
    for _ in range(200):
        n, G, h, E, e, nonneg, _ = _shared_constraints(rng)
        lp = LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e, nonneg=nonneg)
        check(_Tableau(lp))
        costs = [[_small_fraction(rng) for _ in range(n)] for _ in range(2)]
        kept = System(lp)
        runs = [kept._phase2(*kept._cost(c)) for c in costs]
        for t in [kept._tab] + [run[0] for run in runs if run]:
            check(t)
        # an appended row enters reduced in the kept basis, then is pivoted
        # on by the dual simplex
        for _ in range(2):
            kept.append([_small_fraction(rng) for _ in range(n)],
                        _small_fraction(rng))
            check(kept._tab)
        # a new right-hand side is set on a kept basis, then pivoted on
        sweep = System(lp)
        for b in [h + e] + [[_small_fraction(rng) for _ in h + e]
                            for _ in range(3)]:
            sweep.feasible(b)
    assert pivots > 500


def _raises_value_error(fn, *args):
    with pytest.raises(ValueError):
        fn(*args)


def test_feasible_each_matches_solve_per_rhs(count_phase1):
    # sequences of right-hand sides over shared rows: planted points (so a
    # basis is kept), their moves along seeded directions and random ones,
    # with signs that differ from the first feasible one's row flips
    rng = random.Random(20261021)
    on_kept_basis = set()
    for _ in range(200):
        n, G, _, E, _, nonneg, _ = _shared_constraints(rng)
        rhss = []
        for _ in range(6):
            if rng.random() < 0.5:
                x0 = [abs(_small_fraction(rng)) if f else _small_fraction(rng)
                      for f in nonneg]
                rhss.append([sum(a * b for a, b in zip(row, x0))
                             + abs(_small_fraction(rng)) for row in G]
                            + [sum(a * b for a, b in zip(row, x0))
                               for row in E])
            else:
                rhss.append([_small_fraction(rng) for _ in G + E])
        shared = LinearProgram(c=[ZERO] * n, G=G, h=[ZERO] * len(G), E=E,
                               e=[ZERO] * len(E), nonneg=nonneg)
        kept = System(shared)
        got = [kept.feasible(b) for b in rhss]
        for k, (b, verdict) in enumerate(zip(rhss, got)):
            h, e = b[:len(G)], b[len(G):]
            lp = LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e,
                               nonneg=nonneg)
            out = solve(lp)
            _certified(lp, out)
            assert verdict == (out.status != INFEASIBLE)
            if any(got[:k]):
                on_kept_basis.add(verdict)
    assert on_kept_basis == {True, False}
    # a System asked nothing builds no tableau, and a wrong length raises
    # before any phase 1
    assert count_phase1(System, shared)[1] == 0
    assert count_phase1(_raises_value_error, System(shared).feasible,
                        [ZERO] * (len(G) + len(E) + 1))[1] == 0


def test_growing_system_matches_solve_per_append(count_phase1):
    # rows appended to one kept tableau, as the exchange method poses them:
    # cuts through the last point (degenerate), past it or short of it, and
    # random rows, over programs with flipped and redundant rows; after each
    # append the decision equals a fresh solve of the grown program and
    # certifies by substitution
    rng = random.Random(20261022)
    seen = set()
    for _ in range(200):
        n, G, h, E, e, nonneg, redundant = _shared_constraints(rng)
        start = LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e, nonneg=nonneg)
        kept = System(start)
        seen.add(("start", solve(start).status))
        G, h = list(G), list(h)
        x = None
        for _ in range(5):
            a = [_small_fraction(rng) for _ in range(n)]
            if x is not None and rng.random() < 0.7:
                b = sum(u * v for u, v in zip(a, x)) + rng.choice(
                    (ZERO, abs(_small_fraction(rng)), -abs(_small_fraction(rng))))
            else:
                b = _small_fraction(rng)
            out = kept.append(a, b)
            G.append(a)
            h.append(b)
            lp = LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e, nonneg=nonneg)
            assert (out.status == INFEASIBLE) == \
                (solve(lp).status == INFEASIBLE)
            _certified(lp, out)
            if out.status == OPTIMAL:
                assert satisfies_rows(G, h, E, e, out.x)
            seen.add((x is not None, out.status, redundant))
            x = out.x
    assert {("start", OPTIMAL), ("start", INFEASIBLE), (True, OPTIMAL, True),
            (True, INFEASIBLE, False), (False, INFEASIBLE, False),
            (False, OPTIMAL, False)} <= seen
    assert count_phase1(_raises_value_error, System(start).append,
                        [ZERO] * (n + 1), ZERO)[1] == 0


def _minima(system, costs):
    """min c.x over the rows of `system` for each c in `costs`, by the
    kernel's one value question: minus `System.maxima` of -c, which poses
    c's own integers to a phase 2."""
    return [-v for v in system.maxima([[-a for a in c] for c in costs])]


def test_system_mixed_questions_match_fresh_solves():
    # one System per draw answers several outcomes and value calls, over
    # repeated and zero costs, and then rows appended between further
    # calls (cuts near the last point it returned, or random rows). Before
    # any append each answer equals a fresh solve bit for bit; after each
    # append it has a fresh solve's status and value and certifies
    rng = random.Random(20261023)
    seen = set()
    for _ in range(150):
        n, G, h, E, e, nonneg, _ = _shared_constraints(rng)
        kept = System(LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e,
                                    nonneg=nonneg))
        G, h = list(G), list(h)
        costs = [[_small_fraction(rng) for _ in range(n)] for _ in range(3)]
        costs.append([ZERO] * n)
        asked = costs + [costs[0]]
        x = None
        for k in range(6):
            appended = k >= 3
            if appended:
                a = [_small_fraction(rng) for _ in range(n)]
                if x is not None and rng.random() < 0.7:
                    b = sum(u * v for u, v in zip(a, x)) + rng.choice(
                        (ZERO, abs(_small_fraction(rng)),
                         -abs(_small_fraction(rng))))
                else:
                    b = _small_fraction(rng)
                kept.append(a, b)
                G.append(a)
                h.append(b)
            outs = [kept.outcome(c) for c in asked]
            values = _minima(kept, asked)
            for c, out, value in zip(asked, outs, values):
                lp = LinearProgram(c=c, G=G, h=h, E=E, e=e, nonneg=nonneg)
                fresh = solve(lp)
                if appended:
                    assert out.status == fresh.status
                    _certified(lp, out)
                else:
                    assert out == fresh
                assert value == {OPTIMAL: fresh.value, UNBOUNDED: NEG_INF,
                                 INFEASIBLE: INF}[fresh.status]
                seen.add((appended, out.status))
                if out.status != INFEASIBLE:
                    x = out.x
            asked = rng.sample(costs, 2)
            asked.append(asked[0])
    assert seen == {(a, s) for a in (False, True)
                    for s in (OPTIMAL, UNBOUNDED, INFEASIBLE)}



def test_system_feasible_between_other_questions_matches_fresh_solves():
    # feasible sweeps interleaved with append, outcomes and values on one
    # System, feasible asked first: each verdict equals a fresh solve at its
    # right-hand side, and every other answer a fresh solve at the program's
    # own right-hand sides, bit for bit before any append and, after one,
    # the fresh solve's status and value, certified
    rng = random.Random(20261024)
    verdicts, seen = set(), set()
    for _ in range(100):
        n, G, h, E, e, nonneg, _ = _shared_constraints(rng)
        kept = System(LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e,
                                    nonneg=nonneg))
        rows, rhs = list(G), list(h)
        costs = [[_small_fraction(rng) for _ in range(n)] for _ in range(2)]
        costs.append([ZERO] * n)
        for k in range(5):
            b = [_small_fraction(rng) for _ in G + E]
            at_b = LinearProgram(c=[ZERO] * n, G=G, h=b[:len(G)], E=E,
                                 e=b[len(G):], nonneg=nonneg)
            verdict = kept.feasible(b)
            assert verdict == (solve(at_b).status != INFEASIBLE)
            verdicts.add(verdict)
            appended = k >= 2
            if appended:
                a, beta = ([_small_fraction(rng) for _ in range(n)],
                           _small_fraction(rng))
                out = kept.append(a, beta)
                rows.append(a)
                rhs.append(beta)
                grown = LinearProgram(c=[ZERO] * n, G=rows, h=rhs, E=E, e=e,
                                      nonneg=nonneg)
                assert out.status == solve(grown).status
                _certified(grown, out)
            outs = [kept.outcome(c) for c in costs]
            values = _minima(kept, costs)
            for c, out, value in zip(costs, outs, values):
                lp = LinearProgram(c=c, G=rows, h=rhs, E=E, e=e,
                                   nonneg=nonneg)
                fresh = solve(lp)
                if appended:
                    assert out.status == fresh.status
                    _certified(lp, out)
                else:
                    assert out == fresh
                assert value == {OPTIMAL: fresh.value, UNBOUNDED: NEG_INF,
                                 INFEASIBLE: INF}[fresh.status]
                seen.add((appended, out.status))
    assert verdicts == {True, False}
    assert seen == {(a, s) for a in (False, True)
                    for s in (OPTIMAL, UNBOUNDED, INFEASIBLE)}


def _reduced_oracle(row, d, T, D, basis):
    # row/d - sum_i (row[basis[i]]/d) T[i]/D[i] in rationals, from the
    # constraint rows alone
    out = [Q(v, d) for v in row]
    for Ti, Di, q in zip(T, D, basis):
        f = Q(row[q], d)
        if f:
            out = [u - f * Q(v, Di) for u, v in zip(out, Ti)]
    return out


def _assert_reduced(row, d, T, D, basis, want):
    # row/d is want in lowest terms over a positive denominator, with a zero
    # at every basic column
    assert d > 0 and gcd(d, *row) == 1
    assert [Q(v, d) for v in row] == want
    assert all(row[q] == 0 for q in basis)


def test_reduced_rows_match_a_rational_oracle(monkeypatch):
    # the phase-1 row as phase 1 starts to pivot on it, random rows reduced
    # after phase 1 and after an append, and the appended row as it enters,
    # each against rationals computed from the constraint rows alone
    caught = []
    run = _Tableau._run

    def catching(tab, ncand):
        caught.append((tab.T[tab.m][:], tab.D[tab.m]))
        return run(tab, ncand)

    def random_row(tab):
        # in lowest terms, as every row that enters the tableau is
        return over_lcm([rng.choice((ZERO, ZERO, _small_fraction(rng)))
                         for _ in range(tab.ncols + 1)])

    rng = random.Random(20261025)
    flipped = equalities = appends = 0
    for _ in range(200):
        n, G, h, E, e, nonneg, _ = _shared_constraints(rng)
        lp = LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e, nonneg=nonneg)
        flipped += any(b < 0 for b in h)
        equalities += bool(E)
        start = _Tableau(lp)
        # cost 1 at each artificial column minus the artificial rows
        want = [Q(0)] * (start.ncols + 1)
        for k, col in enumerate(start.art_col):
            if col is not None:
                want[col] += 1
                want = [u - Q(v, start.D[k]) for u, v in zip(want, start.T[k])]
        kept = System(lp)
        caught.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_Tableau, "_run", catching)
            kept._kept()
        assert len(caught) == 1
        _assert_reduced(*caught[0], start.T, start.D, start.basis, want)
        tab = kept._tab
        for _ in range(3):
            row, d = random_row(tab)
            want = _reduced_oracle(row, d, tab.T, tab.D, tab.basis)
            _assert_reduced(*tab._reduced(row[:], d), tab.T, tab.D,
                            tab.basis, want)
        if kept._farkas is not None:
            continue
        # the appended row enters at index mG, its slack at column nreal;
        # the other rows are the old ones with a zero at that column
        grown = tab.copy()
        a, b = [_small_fraction(rng) for _ in range(n)], _small_fraction(rng)
        grown.append_row(a, b)
        r, at = grown.mG - 1, grown.nreal - 1
        others = [i for i in range(grown.m) if i != r]
        T = [grown.T[i] for i in others]
        D = [grown.D[i] for i in others]
        basis = [grown.basis[i] for i in others]
        entered = [Q(0)] * (grown.ncols + 1)
        for (p, m), v in zip(grown.var_cols, a):
            entered[p] += v
            if m is not None:
                entered[m] -= v
        entered[at], entered[grown.RHS] = Q(1), b
        num, den = over_lcm(entered)
        want = _reduced_oracle(num, den, T, D, basis)
        _assert_reduced(grown.T[r], grown.D[r], T, D, basis, want)
        assert grown.basis[r] == at
        for _ in range(3):
            row, d = random_row(grown)
            want = _reduced_oracle(row, d, grown.T, grown.D, grown.basis)
            _assert_reduced(*grown._reduced(row[:], d), grown.T, grown.D,
                            grown.basis, want)
        appends += 1
    assert flipped and equalities and appends


def test_solve_each_outcomes_are_independent():
    lp = LinearProgram(c=[0, 0], G=[[1, 0], [0, 1]], h=[1, 1], E=[], e=[],
                       nonneg=[True, True])
    kept = System(lp)
    outs = [kept.outcome(c) for c in ([-1, 0], [0, -1], [-1, 0])]
    assert [o.x for o in outs] == [[1, 0], [0, 1], [1, 0]]
    outs[0].x[0] = Q(5)
    assert outs[2].x == [1, 0]
    infeasible = LinearProgram(c=[0], G=[[1], [-1]], h=[1, -2], E=[], e=[])
    rows = System(infeasible)
    a, b = rows.outcome([1]), rows.outcome([-1])
    assert a == b == solve(infeasible)
    assert a.farkas_ineq is not b.farkas_ineq
    with pytest.raises(ValueError):
        System(lp).outcome([1])


def test_minima_equal_solve_values_and_outcomes_certify():
    # every sixth draw a mixed-denominator program (its own cost first),
    # the others shared constraints; each cost list ends with the zero cost
    # and a repeat of its first cost
    rng = random.Random(20261019)
    statuses = set()
    for k in range(120):
        if k % 6 == 0:
            drawn = _mixed_denominator_lp(rng)
            n, G, h, E, e, nonneg = (drawn.n, drawn.G, drawn.h, drawn.E,
                                     drawn.e, drawn.nonneg)
            costs = [drawn.c, [_mixed_fraction(rng) for _ in range(n)]]
        else:
            n, G, h, E, e, nonneg, _ = _shared_constraints(rng)
            costs = [[_small_fraction(rng) for _ in range(n)]
                     for _ in range(3)]
        costs += [[ZERO] * n, costs[0]]
        shared = LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e,
                               nonneg=nonneg)
        values = _minima(System(shared), costs)
        assert len(values) == len(costs)
        for c, value in zip(costs, values):
            lp = LinearProgram(c=c, G=G, h=h, E=E, e=e, nonneg=nonneg)
            out = solve(lp)
            assert verify_certificate(lp, out)
            if out.status == OPTIMAL:
                assert certifies_optimal(c, G, h, E, e, nonneg, out.x,
                                         out.value, out.dual_ineq,
                                         out.dual_eq)
                assert value == out.value and type(value) is Q
            elif out.status == UNBOUNDED:
                assert certifies_unbounded(c, G, h, E, e, nonneg, out.x,
                                           out.ray)
                assert value is NEG_INF
            else:
                assert certifies_empty(G, h, E, e, out.farkas_ineq,
                                       out.farkas_eq, nonneg)
                assert value is INF
            statuses.add(out.status)
    assert statuses == {OPTIMAL, UNBOUNDED, INFEASIBLE}


def test_minima_edge_cases(count_phase1, count_pivots):
    square = LinearProgram(c=[0, 0], G=[[1, 0], [0, 1]], h=[1, 1], E=[],
                           e=[], nonneg=[True, True])
    assert count_phase1(_minima, System(square), []) == ([], 0)
    # a repeated cost: one phase 1, and no phase 2 of its own
    once = [[-1, 0], [0, -2]]
    values, runs = count_phase1(_minima, System(square), once + [[-1, 0]])
    assert values == [Q(-1), Q(-2), Q(-1)] and runs == 1
    assert (count_pivots(_minima, System(square), once + [[-1, 0]])[1]
            == count_pivots(_minima, System(square), once)[1])
    # later questions on the same System run no phase 1 again
    kept = System(square)
    assert count_phase1(_minima, kept, once)[1] == 1
    assert count_phase1(_minima, kept, [[0, -1]]) == ([Q(-1)], 0)
    assert count_phase1(_raises_value_error, System(square).maxima,
                        [[1]])[1] == 0
    ray = LinearProgram(c=[0], G=[[1]], h=[1], E=[], e=[])
    assert _minima(System(ray), [[1], [-1]]) == [NEG_INF, Q(-1)]
    infeasible = LinearProgram(c=[0], G=[[1], [-1]], h=[1, -2], E=[], e=[])
    assert _minima(System(infeasible), [[1], [-1]]) == [INF, INF]


def _swept_costs(rng, n):
    # 24 distinct costs: small integers, so that many share a ray or an
    # optimal basis, then fractions, then the zero cost
    costs = {tuple(Q(rng.randint(-2, 2)) for _ in range(n)) for _ in range(60)}
    costs = sorted(costs)[:15]
    while len(costs) < 23:
        c = tuple(_small_fraction(rng) for _ in range(n))
        if c not in costs:
            costs.append(c)
    costs = [list(c) for c in costs if any(c)][:23]
    rng.shuffle(costs)
    return costs + [[ZERO] * n]


def _reuse_draws(rng, count):
    """(program, costs) pairs: seeded `_shared_constraints` rows, and the
    same rows with zero right-hand sides (a cone, degenerate at the
    origin), each with its swept costs."""
    for _ in range(count):
        n, G, h, E, e, nonneg, _ = _shared_constraints(rng)
        costs = _swept_costs(rng, n)
        yield LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e,
                            nonneg=nonneg), costs
        yield LinearProgram(c=[ZERO] * n, G=G, h=[ZERO] * len(G), E=E,
                            e=[ZERO] * len(E), nonneg=nonneg), costs


def _fresh_value(program, c, memo):
    # the value of a fresh solve with cost c, whose outcome must certify
    key = tuple(c)
    if key not in memo:
        lp = LinearProgram(c=c, G=program.G, h=program.h, E=program.E,
                           e=program.e, nonneg=program.nonneg)
        out = solve(lp)
        assert certifies_outcome(lp, out), out.status
        memo[key] = {OPTIMAL: out.value, UNBOUNDED: NEG_INF,
                     INFEASIBLE: INF}[out.status]
    return memo[key]


def test_minima_from_kept_rays_and_bases_match_fresh_solves(phase2_costs):
    # each System is asked its costs in seeded order, and a second System
    # the same costs shuffled; every value equals a fresh solve's, and
    # most costs are decided by a ray or a basis that an earlier cost of
    # the same System found, without a phase 2 of their own
    rng = random.Random(20261025)
    decided = {"fresh": 0, "ray": 0, "basis": 0}
    for program, costs in _reuse_draws(rng, 100):
        memo = {}
        for order in (costs, rng.sample(costs, len(costs))):
            phase2_costs.clear()
            values = _minima(System(program), order)
            ran = {c for _, c in phase2_costs}
            assert len(ran) == len(phase2_costs)
            for c, value in zip(order, values):
                assert value == _fresh_value(program, c, memo)
                if value is INF:
                    continue
                if tuple(c) in ran:
                    decided["fresh"] += 1
                else:
                    decided["ray" if value is NEG_INF else "basis"] += 1
    assert decided["fresh"] < min(decided["ray"], decided["basis"])


def test_maxima_are_minima_of_the_negated_costs(phase2_costs):
    # maxima negates each cost's integers after putting it over its lcm:
    # each cost it poses to a phase 2 is -c's own, and each value is minus
    # a fresh solve's of -c, bit for bit
    rng = random.Random(20261020)
    seen = set()
    for program, costs in _reuse_draws(rng, 12):
        phase2_costs.clear()
        got = System(program).maxima(costs)
        negated = [[-a for a in c] for c in costs]
        posed = [c for _, c in phase2_costs]
        assert set(posed) <= {tuple(c) for c in negated}
        seen.update(["posed"] if posed else [])
        memo = {}
        assert got == [-_fresh_value(program, c, memo) for c in negated]
        assert all(type(v) is Q or v in (INF, NEG_INF) for v in got)
        seen.update("INF" if v is INF else "value" for v in got)
    assert seen == {"INF", "value", "posed"}
    ray = LinearProgram(c=[0], G=[[1]], h=[1], E=[], e=[])
    assert System(ray).maxima([[1], [-1], [Q(1, 3)]]) == [Q(1), INF,
                                                          Q(1, 3)]
    infeasible = LinearProgram(c=[0], G=[[1], [-1]], h=[1, -2], E=[], e=[])
    assert System(infeasible).maxima([[1]]) == [NEG_INF]
    assert System(ray).maxima([]) == []


def test_minima_reuse_by_hand(phase2_costs, count_pivots):
    # x, y >= 0, x + y >= 1, y <= 2. (-1, 0) is unbounded along (1, 0),
    # which also decides (-1, 5); (2, 1) is optimal at (0, 1), whose basis
    # is optimal for (3, 1) too. The second and fourth costs run no phase
    # 2 and make no pivot, although (3, 1) alone pivots in its phase 2.
    rows = LinearProgram(c=[0, 0], G=[[-1, -1], [0, 1]], h=[-1, 2], E=[],
                         e=[], nonneg=[True, True])
    costs = [[-1, 0], [-1, 5], [2, 1], [3, 1]]
    values, pivots = count_pivots(_minima, System(rows), costs)
    assert values == [NEG_INF, NEG_INF, Q(1), Q(1)]
    assert [c for _, c in phase2_costs] == [(-1, 0), (2, 1)]
    assert pivots == count_pivots(_minima, System(rows), costs[::2])[1]
    phase1 = count_pivots(_minima, System(rows), [[0, 0]])[1]
    assert count_pivots(_minima, System(rows), [costs[3]])[1] > phase1
    for c, value in zip(costs, values):
        assert value == _fresh_value(rows, c, {})


def test_append_drops_kept_rays_and_bases():
    # the ray (1, 0) of (-1, 0) would call -x + y unbounded after x <= 3
    # is appended, and the basis at (0, 1) of (2, 1) would give 3x + y the
    # value 1 after y <= 1/2 cuts that point off
    rows = LinearProgram(c=[0, 0], G=[[-1, -1], [0, 1]], h=[-1, 2], E=[],
                         e=[], nonneg=[True, True])
    kept = System(rows)
    assert _minima(kept, [[-1, 0], [2, 1]]) == [NEG_INF, Q(1)]
    assert _minima(kept, [[-1, 1], [3, 1]]) == [NEG_INF, Q(1)]
    kept.append([1, 0], 3)
    kept.append([0, 1], Q(1, 2))
    assert _minima(kept, [[-1, 1], [3, 1]]) == [Q(-3), Q(2)]
    grown = LinearProgram(c=[0, 0], G=rows.G + [[1, 0], [0, 1]],
                          h=rows.h + [3, Q(1, 2)], E=[], e=[],
                          nonneg=[True, True])
    assert [_fresh_value(grown, c, {}) for c in ([-1, 1], [3, 1])] == \
        [Q(-3), Q(2)]


def test_minima_reuse_between_feasible_sweeps(phase2_costs):
    # right-hand sides swept on the same System between chunks of costs:
    # each verdict equals a fresh solve at its right-hand side, each value
    # a fresh solve at the program's own, and kept proofs still decide
    # costs after a sweep
    rng = random.Random(20261026)
    verdicts, reused = set(), 0
    for program, costs in _reuse_draws(rng, 25):
        kept, memo = System(program), {}
        mG = len(program.G)
        for k in range(0, len(costs), 6):
            b = [_small_fraction(rng) for _ in range(mG + len(program.E))]
            at_b = LinearProgram(c=program.c, G=program.G, h=b[:mG],
                                 E=program.E, e=b[mG:], nonneg=program.nonneg)
            verdict = kept.feasible(b)
            assert verdict == (solve(at_b).status != INFEASIBLE)
            verdicts.add(verdict)
            phase2_costs.clear()
            chunk = costs[k:k + 6]
            values = _minima(kept, chunk)
            reused += k > 0 and len(phase2_costs) < len(chunk)
            for c, value in zip(chunk, values):
                assert value == _fresh_value(program, c, memo)
    assert verdicts == {True, False} and reused


def test_unique_optima_match_fresh_solves():
    # wherever the kernel accepts, its point and value are the fresh
    # solve's, bit for bit; accepted optima include free variables off
    # zero (a basic split part, whose twin the test exempts), and some
    # optimal costs are refused
    rng = random.Random(20261023)
    seen = set()
    for _ in range(300):
        n, G, h, E, e, nonneg, _ = _shared_constraints(rng)
        costs = [[_small_fraction(rng) for _ in range(n)] for _ in range(3)]
        shared = LinearProgram(c=[ZERO] * n, G=G, h=h, E=E, e=e,
                               nonneg=nonneg)
        for c, got in zip(costs, System(shared).unique_optima(costs)):
            lp = LinearProgram(c=c, G=G, h=h, E=E, e=e, nonneg=nonneg)
            out = solve(lp)
            assert certifies_outcome(lp, out)
            if got is None:
                seen.add(f"refused {out.status}")
                continue
            assert got == (out.x, out.value) and type(got[1]) is Q
            if any(v and not f for v, f in zip(out.x, nonneg)):
                seen.add("accepted, basic split variable")
    assert {"accepted, basic split variable", "refused optimal"} <= seen


def test_unique_optima_by_hand(count_phase1):
    # min x1 over the unit square ties along an edge; x >= 2 (free) has
    # its one minimizer with x+ basic and x- its exempt twin
    square = System(LinearProgram(c=[0, 0], G=[[1, 0], [0, 1]], h=[1, 1],
                                  E=[], e=[], nonneg=[True, True]))
    assert square.unique_optima([[1, 0], [-1, -1]]) == [None,
                                                        ([1, 1], Q(-2))]
    free = System(LinearProgram(c=[0], G=[[-1]], h=[-2], E=[], e=[]))
    assert free.unique_optima([[1], [-1], [1]]) == [([2], Q(2)), None,
                                                    ([2], Q(2))]
    infeasible = System(LinearProgram(c=[0], G=[[1], [-1]], h=[1, -2],
                                      E=[], e=[]))
    assert count_phase1(infeasible.unique_optima, [[1], [0]]) == (
        [None, None], 1)


def _only_minimizer(program, c, x, value, rng):
    """Whether x is the only point of the program's rows with c.x <= value
    as far as a seeded direction r can tell: min and max of r.x there both
    sit at x (two solves that share no tableau with the kernel's answer)."""
    r = [Q(rng.randint(-3, 3)) for _ in x]
    rx = sum(a * b for a, b in zip(r, x))
    for sign in (1, -1):
        face = LinearProgram(c=[sign * a for a in r], G=program.G + [list(c)],
                             h=program.h + [value], E=program.E, e=program.e,
                             nonneg=program.nonneg)
        out = solve(face)
        if out.status != OPTIMAL or out.value != sign * rx:
            return False
    return True


def test_unique_optima_between_minima_match_fresh_solves(phase2_costs):
    # minima and unique_optima asked in turn on one System, in chunks of
    # its swept costs: every accepted point and value is a fresh solve's
    # and the only minimizer along a seeded direction, some come from a
    # basis that an earlier cost of either question kept (no phase 2 of
    # their own), and a cost refused without a phase 2 was decided by a
    # kept ray, so its fresh solve is unbounded
    rng, directions = random.Random(20261027), random.Random(1027)
    decided = {"fresh": 0, "basis": 0, "ray": 0, "refused": 0}
    for program, costs in _reuse_draws(rng, 60):
        kept, memo = System(program), {}
        for k in range(0, len(costs), 4):
            chunk = costs[k:k + 4]
            phase2_costs.clear()
            if k % 8:
                for c, value in zip(chunk, _minima(kept, chunk)):
                    assert value == _fresh_value(program, c, memo)
                continue
            answers = kept.unique_optima(chunk)
            # the fresh solves below pose phase 2s of their own
            ran = {c for _, c in phase2_costs}
            for c, got in zip(chunk, answers):
                lp = LinearProgram(c=c, G=program.G, h=program.h,
                                   E=program.E, e=program.e,
                                   nonneg=program.nonneg)
                out = solve(lp)
                assert certifies_outcome(lp, out), out.status
                if got is not None:
                    assert got == (out.x, out.value) and type(got[1]) is Q
                    assert _only_minimizer(program, c, *got, directions)
                    decided["fresh" if tuple(c) in ran else "basis"] += 1
                elif tuple(c) in ran:
                    decided["refused"] += 1
                elif out.status == UNBOUNDED:
                    decided["ray"] += 1
                else:
                    assert out.status == INFEASIBLE
    assert min(decided.values()) > 0, decided
    assert decided["basis"] > decided["fresh"], decided


def test_unique_optima_from_kept_proofs_by_hand(phase2_costs, count_pivots):
    # x, y >= 0, x + y >= 1, y <= 2. (2, 1) has its one minimizer (0, 1),
    # whose basis proves (3, 1) unique there too, with no phase 2 or
    # pivot; (1, 1) ties along x + y = 1, so that basis is optimal but
    # refused, and its phase 2 still runs; (-1, 5) descends the ray (1, 0)
    # of (-1, 0). Appended rows drop both proofs: after x <= 3 and
    # y <= 1/2, (3, 1) and (-1, 5) run phase 2s again, with new optima.
    rows = LinearProgram(c=[0, 0], G=[[-1, -1], [0, 1]], h=[-1, 2], E=[],
                         e=[], nonneg=[True, True])
    kept = System(rows)
    assert kept.unique_optima([[2, 1], [-1, 0]]) == [([0, 1], Q(1)), None]
    phase2_costs.clear()
    got, pivots = count_pivots(kept.unique_optima, [[3, 1], [-1, 5]])
    assert got == [([0, 1], Q(1)), None] and pivots == 0
    assert phase2_costs == []
    assert kept.unique_optima([[1, 1]]) == [None]
    assert phase2_costs == [(rows, (1, 1))]
    kept.append([1, 0], 3)
    kept.append([0, 1], Q(1, 2))
    phase2_costs.clear()
    got = kept.unique_optima([[3, 1], [-1, 5]])
    assert got == [([Q(1, 2), Q(1, 2)], Q(2)), ([3, 0], Q(-3))]
    assert [c for _, c in phase2_costs] == [(3, 1), (-1, 5)]
    grown = LinearProgram(c=[0, 0], G=rows.G + [[1, 0], [0, 1]],
                          h=rows.h + [3, Q(1, 2)], E=[], e=[],
                          nonneg=[True, True])
    for c, answer in zip(([3, 1], [-1, 5]), got):
        out = solve(LinearProgram(c=c, G=grown.G, h=grown.h, E=[], e=[],
                                  nonneg=grown.nonneg))
        assert answer == (out.x, out.value)


def _at_rhs(program, c, b):
    """The program with cost c and right-hand side b (h entries, then e
    entries)."""
    mG = len(program.G)
    return LinearProgram(c=c, G=program.G, h=b[:mG], E=program.E, e=b[mG:],
                         nonneg=program.nonneg)


def test_outcomes_at_by_hand(phase2_costs, count_pivots):
    # x, y >= 0, x + y >= 1 and x <= 3 (its own right-hand side (-1, 3)).
    # min x + 2y has its one minimizer (1, 0); at (-2, 3) that basis is
    # still feasible, (2, 0) with no pivot; at (-4, 3) it is not (x = 4 >
    # 3), and a copy of it reaches (3, 1) by one dual simplex pivot and a
    # phase 2, whose basis then answers (-4, 5/2) with no pivot; at
    # (-1, -1) the rows ask x <= -1. min x + y ties along x + y = 1, so its
    # seed proves nothing and only its own right-hand side is answered;
    # min -y is unbounded, and rows infeasible at their own right-hand side
    # answer their Farkas outcome there and None elsewhere.
    rows = LinearProgram(c=[0, 0], G=[[-1, -1], [1, 0]], h=[-1, 3], E=[],
                         e=[], nonneg=[True, True])
    kept = System(rows)
    own = [-1, 3]
    assert kept.outcomes_at([1, 2], [own]) == [solve(_at_rhs(rows, [1, 2],
                                                             own))]
    phase2_costs.clear()
    got, pivots = count_pivots(kept.outcomes_at, [1, 2], [[-2, 3]])
    assert pivots == 0 and phase2_costs == [(rows, (1, 2))]
    assert (got[0].x, got[0].value) == ([2, 0], 2)
    got, pivots = count_pivots(kept.outcomes_at, [1, 2],
                               [[-4, 3], [-4, Q(5, 2)]])
    assert pivots == 1
    assert [(g.x, g.value) for g in got] == [([3, 1], 5),
                                             ([Q(5, 2), Q(3, 2)], Q(11, 2))]
    assert kept.outcomes_at([1, 2], [[-1, -1]]) == [None]
    assert solve(_at_rhs(rows, [1, 2], [-1, -1])).status == INFEASIBLE
    for b, g in zip([[-4, 3], [-4, Q(5, 2)]], got):
        lp = _at_rhs(rows, [1, 2], b)
        _certified(lp, g)
        assert (g.x, g.value) == (solve(lp).x, solve(lp).value)
    ties = kept.outcomes_at([1, 1], [own, [-2, 3], [-4, 3]])
    assert ties == [solve(_at_rhs(rows, [1, 1], own)), None, None]
    assert solve(_at_rhs(rows, [1, 1], [-2, 3])).status == OPTIMAL
    unbounded = kept.outcomes_at([0, -1], [[-2, 3], own])
    assert unbounded == [None, solve(_at_rhs(rows, [0, -1], own))]
    assert unbounded[1].status == UNBOUNDED
    infeasible = System(LinearProgram(c=[0], G=[[1], [-1]], h=[1, -2],
                                      E=[], e=[]))
    got = infeasible.outcomes_at([1], [[3, -2], [1, -2]])
    assert got[0] is None and got[1].status == INFEASIBLE
    assert kept.outcomes_at([1, 2], []) == []


def test_tableau_layout_by_hand():
    # x0 free (columns 0 and 1), x1 nonnegative (column 2); slacks 3 and 4;
    # artificials on the flipped row (column 5) and the equality row
    # (column 6); right-hand sides in column 7. Each row is over the lcm of
    # its denominators: 12 = lcm(2, 3, 4), 10 = lcm(5, 1, 10) and
    # 24 = lcm(4, 6, 8).
    lp = LinearProgram(c=[0, 0],
                       G=[[Q(1, 2), Q(1, 3)], [Q(-2, 5), 1]],
                       h=[Q(1, 4), Q(-3, 10)],
                       E=[[Q(3, 4), Q(-1, 6)]], e=[Q(5, 8)],
                       nonneg=[False, True])
    tab = _Tableau(lp)
    assert tab.var_cols == [(0, 1), (2, None)]
    assert (tab.slack0, tab.nreal, tab.ncols, tab.RHS) == (3, 5, 7, 7)
    assert tab.sigma == [1, -1, 1] and tab.art_col == [None, 5, 6]
    assert tab.T == [
        [6, -6, 4, 12, 0, 0, 0, 3],
        # -2/5 x0 + x1 + s = -3/10, times -10
        [4, -4, -10, 0, -10, 10, 0, 3],
        [18, -18, -4, 0, 0, 0, 24, 15],
    ]
    assert tab.D == [12, 10, 24]
    assert tab.basis == [3, 5, 6]
    assert all(type(v) is int for row in tab.T for v in row + tab.D)
    # a phase-2 cost row before elimination: (-1/3, 5/6) over 6
    assert tab._integer_row([Q(-1, 3), Q(5, 6)], ZERO) == \
        ([-2, 2, 5, 0, 0, 0, 0, 0], 6)


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 3))
    mg = draw(st.integers(0, 3))
    me = draw(st.integers(0, 2))
    coeff = st.integers(-4, 4)
    c = draw(st.lists(coeff, min_size=n, max_size=n))
    G = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=mg, max_size=mg))
    h = draw(st.lists(coeff, min_size=mg, max_size=mg))
    E = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=me, max_size=me))
    e = draw(st.lists(coeff, min_size=me, max_size=me))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return LinearProgram(c=c, G=G, h=h, E=E, e=e, nonneg=flags)


@settings(max_examples=150, deadline=None)
@given(small_lps())
def test_every_outcome_certifies(lp):
    out = solve(lp)
    assert out.status in (OPTIMAL, UNBOUNDED, INFEASIBLE)
    _certified(lp, out)


@settings(max_examples=60, deadline=None)
@given(small_lps(), st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_optimal_value_is_a_lower_bound(lp, probe):
    # any feasible point the adversary names must score >= the reported min
    out = solve(lp)
    if out.status != OPTIMAL:
        return
    x = [Q(v) for v in probe[:lp.n]] + [ZERO] * max(0, lp.n - len(probe))
    feas = all(not lp.nonneg[j] or x[j] >= ZERO for j in range(lp.n))
    feas = feas and all(sum(a * b for a, b in zip(row, x)) <= bb for row, bb in zip(lp.G, lp.h))
    feas = feas and all(sum(a * b for a, b in zip(row, x)) == bb for row, bb in zip(lp.E, lp.e))
    if feas:
        assert sum(a * b for a, b in zip(lp.c, x)) >= out.value


@settings(max_examples=150, deadline=None)
@given(small_lps(), st.lists(st.lists(st.integers(-4, 4), min_size=5,
                                      max_size=5), min_size=1, max_size=4))
def test_outcomes_at_equal_solves_at_each_right_hand_side(lp, draws):
    # the program's own right-hand side first, then drawn ones cut to its
    # row count: every answer is the solve at its b in x and value, and
    # where that solve is not optimal the answer is None
    m = len(lp.G) + len(lp.E)
    bs = [lp.h + lp.e] + [[Q(v) for v in b[:m]] for b in draws]
    got = System(lp).outcomes_at(lp.c, bs)
    assert got[0] == solve(lp)
    for b, answer in zip(bs[1:], got[1:]):
        at = _at_rhs(lp, lp.c, b)
        out = solve(at)
        if b == bs[0]:
            assert answer == out
        elif out.status != OPTIMAL:
            assert answer is None
        elif answer is not None:
            assert (answer.x, answer.value) == (out.x, out.value)
            _certified(at, answer)


def test_verify_rejects_corrupted_certificates():
    lp = LinearProgram(c=[1, 1], G=[], h=[], E=[[1, 1], [1, -1]], e=[3, 1])
    out = solve(lp)
    assert verify_certificate(lp, out)
    out.value = out.value + 1
    assert not verify_certificate(lp, out)
    out.value = out.value - 1
    out.dual_eq = [out.dual_eq[0] + 1, out.dual_eq[1]]
    assert not verify_certificate(lp, out)


# One program per status, each with a nonneg and a free column, inequality
# and equality rows: min x0 + x1 (x0 >= 0) over -x1 <= 0, -x0 <= 0 and
# x0 - x1 = 1 is optimal at (1, 0) with the unique duals (2, 0) and -1;
# min -x0 over x0 + x1 <= 5 and x2 = 0 is unbounded along (1, -1, 0); and
# x0 <= 1, x0 >= 2 is infeasible.
_VERIFY_PROGRAMS = {
    OPTIMAL: LinearProgram(c=[1, 1], G=[[0, -1], [-1, 0]], h=[0, 0],
                           E=[[1, -1]], e=[1], nonneg=[True, False]),
    UNBOUNDED: LinearProgram(c=[-1, 0, 0], G=[[1, 1, 0]], h=[5],
                             E=[[0, 0, 1]], e=[0],
                             nonneg=[True, False, False]),
    INFEASIBLE: LinearProgram(c=[0, 0], G=[[1, 0], [-1, 0]], h=[1, -2],
                              E=[[0, 1]], e=[0], nonneg=[True, False]),
}


@pytest.mark.parametrize("status, change", [
    # optimal: each corruption passes every check but the one it targets,
    # so a check that stopped rejecting would let it through
    (OPTIMAL, {"x": None}),
    (OPTIMAL, {"dual_ineq": None}),
    (OPTIMAL, {"dual_eq": None}),
    (OPTIMAL, {"dual_ineq": [2, 0, 0]}),
    (OPTIMAL, {"dual_eq": [-1, 0]}),
    (OPTIMAL, {"x": [1, -1]}),
    (OPTIMAL, {"value": 2}),
    (OPTIMAL, {"dual_ineq": [-1, 0]}),
    (OPTIMAL, {"dual_ineq": [3, 0]}),  # stationarity off at free x1
    (OPTIMAL, {"dual_ineq": [2, 1]}),  # stationarity off at nonneg x0
    # unbounded: the ray is checked apart from the point, so each point
    # corruption reaches only the point's checks
    (UNBOUNDED, {"x": None}),
    (UNBOUNDED, {"x": [0, 0]}),
    (UNBOUNDED, {"x": [-1, 0, 0]}),  # off the sign flag
    (UNBOUNDED, {"x": [0, 6, 0]}),  # off the G row
    (UNBOUNDED, {"x": [0, 0, 1]}),  # off the E row
    (UNBOUNDED, {"ray": None}),
    (UNBOUNDED, {"ray": [1, -1]}),
    (UNBOUNDED, {"ray": [1, 0, 0]}),  # breaks the G row
    (UNBOUNDED, {"ray": [1, -1, 1]}),  # breaks the E row
    (UNBOUNDED, {"ray": [-1, 1, 0]}),  # breaks the sign flag
    (UNBOUNDED, {"ray": [0, -1, 0]}),  # does not improve
    # infeasible
    (INFEASIBLE, {"farkas_ineq": None}),
    (INFEASIBLE, {"farkas_eq": None}),
    (INFEASIBLE, {"farkas_ineq": [1, 1, 0]}),
    (INFEASIBLE, {"farkas_eq": []}),
    (INFEASIBLE, {"farkas_ineq": [-1, -1]}),
    (INFEASIBLE, {"farkas_eq": [1]}),  # combines to nonzero at free x1
    (INFEASIBLE, {"farkas_ineq": [0, 0]}),  # value 0, not negative
    (OPTIMAL, {"status": "bogus"}),
    # last, so the ids above keep their numbers: an unbounded outcome's
    # value must be -oo, which callers read as its value
    (UNBOUNDED, {"value": 0}),
])
def test_verify_rejects_each_corrupted_field(status, change):
    lp = _VERIFY_PROGRAMS[status]
    out = solve(lp)
    assert out.status == status and verify_certificate(lp, out)
    assert not verify_certificate(lp, dataclasses.replace(out, **change))


def test_verify_rejects_wrong_farkas():
    lp = LinearProgram(c=[0], G=[[1], [-1]], h=[1, -2], E=[], e=[])
    out = solve(lp)
    out.farkas_ineq = [out.farkas_ineq[0], -out.farkas_ineq[1]]
    assert not verify_certificate(lp, out)
