"""Primal/dual solving, strong duality, optimality, and stability."""

import pytest
from hypothesis import given, settings, strategies as st

from farkaskit import duality, engine
from farkaskit.calculus import PiecewiseAffine
from farkaskit.duality import INFEASIBLE, OPTIMAL, UNBOUNDED
from farkaskit.engine import FarkasInstance
from farkaskit.rational import INF, NEG_INF, Q
from farkaskit.sets import Box, Polyhedron, whole_space_polyhedron


def bounded_instance(offset=0):
    return FarkasInstance(
        ground=Box([(0, 1), (0, 1)]).to_polyhedron(),
        matrix=[[1, 0], [1, 1]],
        target=Box([(0, 2), (0, 2)]),
        objective=PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[offset]))


def unbounded_instance():
    return FarkasInstance(
        ground=whole_space_polyhedron(1), matrix=[[1]],
        target=Polyhedron(dim=1, G=[[-1]], h=[0], E=[], e=[]),
        objective=PiecewiseAffine(dim=1, slopes=[[-1]], offsets=[0]))


def infeasible_dual_infeasible():
    # no feasible point and no linked dual triple either: infinite gap
    return FarkasInstance(
        ground=whole_space_polyhedron(1), matrix=[[0]],
        target=Box([(1, 1)]),
        objective=PiecewiseAffine(dim=1, slopes=[[-1]], offsets=[0]))


def infeasible_dual_unbounded():
    return FarkasInstance(
        ground=Polyhedron(dim=1, G=[], h=[], E=[[1]], e=[0]),
        matrix=[[1]], target=Box([(1, 2)]),
        objective=PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0]))


class TestSolvePrimal:
    def test_bounded(self):
        sol = duality.solve_primal(bounded_instance())
        assert sol.status == OPTIMAL
        assert sol.value == 0
        assert sol.point == [0, 0]

    def test_unbounded(self):
        sol = duality.solve_primal(unbounded_instance())
        assert sol.status == UNBOUNDED
        assert sol.value is NEG_INF
        assert sol.ray is not None

    def test_infeasible(self):
        sol = duality.solve_primal(infeasible_dual_infeasible())
        assert sol.status == INFEASIBLE
        assert sol.value is INF


class TestSolveDual:
    def test_attains_primal_value(self):
        inst = bounded_instance()
        sol = duality.solve_dual(inst)
        assert sol.status == OPTIMAL
        assert sol.value == 0
        link = [a + b + c for a, b, c in
                zip(sol.u, sol.v, inst.adjoint(sol.lam))]
        assert all(v == 0 for v in link)

    def test_shifted_objective_still_tight(self):
        sol = duality.solve_dual(bounded_instance(offset=-3))
        assert sol.status == OPTIMAL and sol.value == -3

    def test_infeasible_when_primal_unbounded(self):
        sol = duality.solve_dual(unbounded_instance())
        assert sol.status == INFEASIBLE
        assert sol.value is NEG_INF

    def test_infeasible_dual(self):
        sol = duality.solve_dual(infeasible_dual_infeasible())
        assert sol.status == INFEASIBLE

    def test_unbounded_dual(self):
        sol = duality.solve_dual(infeasible_dual_unbounded())
        assert sol.status == UNBOUNDED
        assert sol.value is INF

    def test_weak_duality_on_samples(self):
        for inst in (bounded_instance(), bounded_instance(offset=2)):
            p = duality.solve_primal(inst)
            d = duality.solve_dual(inst, primal_value=p.value)
            assert d.value <= p.value


class TestStrongDuality:
    def test_finite_attained(self):
        rep = duality.check_strong_duality(bounded_instance())
        assert rep.equal and rep.criterion_holds
        assert rep.note is None
        assert rep.dual.value == rep.primal.value == 0

    def test_unbounded_convention(self):
        rep = duality.check_strong_duality(unbounded_instance())
        assert rep.equal
        assert rep.dual.status == INFEASIBLE
        assert "convention" in rep.note

    def test_infeasible_primal_gap_is_noted(self):
        rep = duality.check_strong_duality(infeasible_dual_infeasible())
        assert not rep.equal  # infinite gap, allowed: hypothesis fails
        assert rep.note is not None

    def test_infeasible_primal_unbounded_dual(self):
        rep = duality.check_strong_duality(infeasible_dual_unbounded())
        assert rep.equal  # both infinite
        assert rep.note is not None


class TestOptimality:
    def test_at_the_minimizer(self):
        rep = duality.check_optimality(bounded_instance(), [0, 0])
        assert rep.optimal
        assert rep.by_comparison and rep.by_certificate
        assert rep.by_subdifferential
        assert rep.certificate is not None
        assert rep.value == 0

    def test_at_a_suboptimal_point(self):
        rep = duality.check_optimality(bounded_instance(), [1, 0])
        assert not rep.optimal
        assert not (rep.by_comparison or rep.by_certificate
                    or rep.by_subdifferential)
        assert rep.value == 1

    def test_fractional_point(self):
        rep = duality.check_optimality(bounded_instance(),
                                       [Q(1, 3), Q(1, 2)])
        assert not rep.optimal

    def test_infeasible_point_is_an_error(self):
        with pytest.raises(ValueError):
            duality.check_optimality(bounded_instance(), [2, 0])

    def test_point_outside_domain_is_an_error(self):
        inst = FarkasInstance(
            ground=Box([(0, 2)]).to_polyhedron(), matrix=[[1]],
            target=Box([(0, 2)]),
            objective=PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0],
                                      domain=Box([(1, 2)]).to_polyhedron()))
        with pytest.raises(ValueError):
            duality.check_optimality(inst, [0])
        rep = duality.check_optimality(inst, [1])
        assert rep.optimal

    def test_kinked_objective(self):
        # f = |x - 1| over [0, 3]: optimal exactly at the kink
        inst = FarkasInstance(
            ground=Box([(0, 3)]).to_polyhedron(), matrix=[[1]],
            target=Box([(-5, 5)]),
            objective=PiecewiseAffine(dim=2 - 1, slopes=[[1], [-1]],
                                      offsets=[-1, 1]))
        assert duality.check_optimality(inst, [1]).optimal
        assert not duality.check_optimality(inst, [2]).optimal


class TestStableStrongDuality:
    def test_full_grid(self):
        rep = duality.check_stable_strong_duality(bounded_instance(), seed=2)
        assert rep.all_strong
        assert rep.tilts_checked == 25
        assert rep.containment_points == 20

    def test_explicit_tilts(self):
        rep = duality.check_stable_strong_duality(
            bounded_instance(), tilts=[[Q(1), Q(0)], [Q(-2), Q(3)]])
        assert rep.tilts_checked == 2

    def test_per_tilt_reports_match_a_fresh_solve(self):
        inst = bounded_instance()
        shifts = [[Q(1), Q(0)], [Q(-2), Q(3)], [Q(0), Q(1, 2)]]
        rep = duality.check_stable_strong_duality(inst, tilts=shifts)
        assert len(rep.per_tilt) == len(shifts)
        for shift, row in zip(shifts, rep.per_tilt):
            fresh = duality.check_strong_duality(FarkasInstance(
                ground=inst.ground, matrix=inst.matrix, target=inst.target,
                objective=inst.objective.tilted(shift)))
            assert row == fresh

    def test_infeasible_primal_noted(self):
        rep = duality.check_stable_strong_duality(
            infeasible_dual_infeasible(), seed=1)
        assert rep.tilts_checked == 0
        assert rep.per_tilt == []
        assert rep.note is not None
        assert rep.containment_points == 20

    def test_domain_restricted(self):
        inst = FarkasInstance(
            ground=Box([(0, 5)]).to_polyhedron(), matrix=[[1]],
            target=Box([(0, 4)]),
            objective=PiecewiseAffine(dim=1, slopes=[[1], [-2]],
                                      offsets=[0, 3],
                                      domain=Box([(0, 3)]).to_polyhedron()))
        rep = duality.check_stable_strong_duality(inst, seed=6)
        assert rep.all_strong


small_int = st.integers(min_value=-2, max_value=2)


@st.composite
def bounded_instances(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    m = draw(st.integers(min_value=1, max_value=2))
    lo = [draw(small_int) for _ in range(n)]
    wid = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    ground = Box([(a, a + w) for a, w in zip(lo, wid)]).to_polyhedron()
    matrix = [[draw(small_int) for _ in range(n)] for _ in range(m)]
    tlo = [draw(small_int) for _ in range(m)]
    twid = [draw(st.integers(min_value=0, max_value=4)) for _ in range(m)]
    target = Box([(a, a + w) for a, w in zip(tlo, twid)])
    k = draw(st.integers(min_value=1, max_value=2))
    f = PiecewiseAffine(
        dim=n,
        slopes=[[draw(small_int) for _ in range(n)] for _ in range(k)],
        offsets=[draw(small_int) for _ in range(k)])
    return FarkasInstance(ground=ground, matrix=matrix, target=target,
                          objective=f)


@settings(max_examples=30, deadline=None)
@given(bounded_instances())
def test_random_duality_consistency(inst):
    rep = duality.check_strong_duality(inst)
    if rep.primal.status == OPTIMAL:
        assert rep.equal
        # the optimizer passes the three-way test, agreeing everywhere
        opt = duality.check_optimality(inst, rep.primal.point)
        assert opt.optimal and opt.verdict == "consistent"


@settings(max_examples=15, deadline=None)
@given(bounded_instances())
def test_random_suboptimal_points_agree(inst):
    primal = duality.solve_primal(inst)
    if primal.status != OPTIMAL:
        return
    # probe the worst point instead: three-way must still agree
    worst = engine.FarkasInstance(
        ground=inst.ground, matrix=inst.matrix, target=inst.target,
        objective=PiecewiseAffine(
            dim=inst.n,
            slopes=[[-v for v in a] for a in inst.objective.slopes[:1]],
            offsets=[inst.objective.offsets[0]]))
    anti = duality.solve_primal(worst)
    if anti.status != OPTIMAL:
        return
    rep = duality.check_optimality(inst, anti.point)
    assert rep.verdict == "consistent"
    assert rep.optimal == (inst.objective.value(anti.point) == primal.value)
