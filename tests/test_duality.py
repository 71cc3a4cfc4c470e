"""Primal/dual solving, strong duality, optimality, and stability."""

import copy
import dataclasses
import hashlib
import itertools
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from farkaskit import calculus, duality, engine, instances, lp, sets
from farkaskit.calculus import PiecewiseAffine
from farkaskit.duality import INFEASIBLE, OPTIMAL, UNBOUNDED
from farkaskit.engine import FarkasInstance
from farkaskit.errors import InvariantViolation
from farkaskit.rational import INF, NEG_INF, Q
from farkaskit.sets import Box, Polyhedron, whole_space

from oracles import satisfies_rows, tilted, with_equality_row


def bounded_instance(offset=0):
    return FarkasInstance(
        ground=Box([(0, 1), (0, 1)]).to_polyhedron(),
        matrix=[[1, 0], [1, 1]],
        target=Box([(0, 2), (0, 2)]),
        objective=PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[offset]))


def pivoting_instance():
    # the ground's lower bounds flip its rows, so the phase 1 of the kept
    # epigraph system pivots
    return FarkasInstance(
        ground=Box([(1, 2), (1, 3)]).to_polyhedron(),
        matrix=[[1, 0], [1, 1]],
        target=Box([(0, 2), (0, 4)]),
        objective=PiecewiseAffine(dim=2, slopes=[[1, 1], [2, -1]],
                                  offsets=[0, 1]))


def unbounded_instance():
    return FarkasInstance(
        ground=whole_space(1), matrix=[[1]],
        target=Polyhedron(dim=1, G=[[-1]], h=[0], E=[], e=[]),
        objective=PiecewiseAffine(dim=1, slopes=[[-1]], offsets=[0]))


def infeasible_dual_infeasible():
    # no feasible point and no linked dual triple either: infinite gap
    return FarkasInstance(
        ground=whole_space(1), matrix=[[0]],
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

    @pytest.mark.parametrize("make", [bounded_instance, unbounded_instance,
                                      infeasible_dual_infeasible])
    def test_status_is_the_kept_minimum_status(self, make):
        inst = make()
        assert duality.solve_primal(inst).status == inst.minimum().status

    def test_returned_point_and_ray_are_copies(self):
        for inst in (bounded_instance(), unbounded_instance()):
            kept = repr(inst.minimum())
            sol = duality.solve_primal(inst)
            sol.point[0] += 1
            if sol.ray is not None:
                sol.ray[0] += 1
            assert repr(inst.minimum()) == kept


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

    def test_weak_duality_on_samples(self, monkeypatch):
        for inst in (bounded_instance(), bounded_instance(offset=2)):
            p = duality.solve_primal(inst)
            d = duality.solve_dual(inst)
            assert d.value <= p.value
        # the bound asserted is the instance's kept minimum
        kept = inst.minimum()
        monkeypatch.setattr(inst, "minimum", lambda: dataclasses.replace(
            kept, value=d.value - 1))
        with pytest.raises(InvariantViolation, match="weak duality"):
            duality.solve_dual(inst)


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
            fresh = duality.check_strong_duality(tilted(inst, shift))
            assert row == fresh

    def test_infeasible_primal_noted(self):
        rep = duality.check_stable_strong_duality(
            infeasible_dual_infeasible(), seed=1)
        assert rep.tilts_checked == 0
        assert rep.per_tilt == []
        assert rep.note is not None
        assert rep.containment_points == 20

    def test_negative_point_count_raises(self):
        # a negative count once reported containment_points=-4 and
        # sampled nothing
        with pytest.raises(ValueError, match="sum points"):
            duality.check_stable_strong_duality(bounded_instance(),
                                                n_points=-4)
        rep = duality.check_stable_strong_duality(bounded_instance(),
                                                  tilts=[], n_points=0)
        assert rep.containment_points == 0

    def test_tilt_count_below_one_raises(self):
        # count=0 once returned the zero tilt alone
        for count in (0, -3):
            with pytest.raises(ValueError, match="tilt count"):
                duality.default_tilts(2, count=count)
        assert duality.default_tilts(2, count=1) == [([Q(0), Q(0)], Q(0))]

    def test_domain_restricted(self):
        inst = FarkasInstance(
            ground=Box([(0, 5)]).to_polyhedron(), matrix=[[1]],
            target=Box([(0, 4)]),
            objective=PiecewiseAffine(dim=1, slopes=[[1], [-2]],
                                      offsets=[0, 3],
                                      domain=Box([(0, 3)]).to_polyhedron()))
        rep = duality.check_stable_strong_duality(inst, seed=6)
        assert rep.all_strong

    @pytest.mark.parametrize("target", [
        Polyhedron(dim=2, G=[[-1, 0]], h=[0]),
        Polyhedron(dim=2, G=[[-1, 0]], h=[0], E=[[0, 1]], e=[1]),
    ], ids=["half-plane", "equality row"])
    def test_unbounded_target_draws_finite_supports(self, target,
                                                    monkeypatch):
        # sigma_target is +infinity off the target's barrier cone, so the
        # sum points must draw lam inside it: lam = t^T mu over the
        # target's rows, mu >= 0 on y1 >= 0 and free on y2 = 1
        inst = FarkasInstance(
            ground=Box([(0, 1), (0, 1)]).to_polyhedron(),
            matrix=[[1, 0], [1, 1]], target=target,
            objective=PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[0]))
        drawn = []
        supports = FarkasInstance.target_supports

        def recorded(self, lams):
            drawn.extend(lams)
            return supports(self, lams)

        monkeypatch.setattr(FarkasInstance, "target_supports", recorded)
        for seed in range(3):
            rep = duality.check_stable_strong_duality(inst, seed=seed)
            assert rep.all_strong
            assert rep.tilts_checked == 25
        monkeypatch.undo()
        assert any(any(lam) for lam in drawn)
        assert INF not in inst.target_supports(drawn)


def _tilt_pool():
    """About 60 seeded instances: domain-restricted objectives, polyhedral
    targets with equality rows, grounds open upwards (so some primals are
    unbounded) and infeasible ones."""
    rng = random.Random(606)
    for k in range(15):
        inst = instances.random_feasible_instance(rng)
        yield inst
        yield FarkasInstance(
            ground=with_equality_row(inst.ground), matrix=inst.matrix,
            target=with_equality_row(inst.target_polyhedron()),
            objective=inst.objective)
        ground = inst.ground
        yield FarkasInstance(
            ground=Polyhedron(dim=ground.dim, G=ground.G[1::2],
                              h=ground.h[1::2]),
            matrix=inst.matrix, target=inst.target, objective=inst.objective)
        yield instances.random_infeasible_instance(rng)


def _redrawn_sum_points(inst, seed, count):
    """The (z, lam) of each of the first `count` sum points of
    check_stable_strong_duality(inst, seed=seed), redrawn in the same order
    from random.Random(seed + 1) and recomputed in plain Fractions as
    sum w P / total + sum r R + (map^T lam, 0), before sigma_target(lam)
    is added to the last entry."""
    rng = random.Random(seed + 1)
    conj = calculus.conjugate_epigraph(inst.objective)
    rays = conj.rays + calculus.support_epigraph_generators(inst.ground)
    t = inst.target
    box = isinstance(t, Box)
    free = [True] * inst.m if box else [False] * len(t.G) + [True] * len(t.E)
    drawn = []
    for _ in range(count):
        w = [rng.randint(0, 3) for _ in conj.points]
        if not any(w):
            w[0] = 1
        total = sum(w)
        r = [rng.randint(0, 2) for _ in rays]
        mu = [rng.randint(-2, 2) if f else rng.randint(0, 2) for f in free]
        lam = ([Q(k) for k in mu] if box else
               [sum(k * row[i] for k, row in zip(mu, t.G + t.E))
                for i in range(inst.m)])
        z = [sum(Q(wk) * p[j] for wk, p in zip(w, conj.points)) / total
             + sum(rk * ray[j] for rk, ray in zip(r, rays))
             + sum(lam[i] * inst.matrix[i][j] for i in range(inst.m))
             for j in range(inst.n)]
        z.append(sum(Q(wk) * p[-1] for wk, p in zip(w, conj.points)) / total
                 + sum(rk * ray[-1] for rk, ray in zip(r, rays)))
        drawn.append((z, lam))
    return drawn


def test_sum_points_match_a_plain_fraction_redraw(monkeypatch):
    # the stable check forms each sum point as one integer combination
    # over one denominator; redrawn from the same seed and summed term by
    # term in Fractions, every point and multiplier must come out the same
    fractional = FarkasInstance(
        ground=Box([(0, Q(1, 2)), (0, 1)]).to_polyhedron(),
        matrix=[[Q(1, 3), 1], [1, Q(-2, 5)]],
        target=Polyhedron(dim=2, G=[[Q(-1, 2), 0]], h=[Q(1, 3)],
                          E=[[0, Q(3, 4)]], e=[Q(1, 6)]),
        objective=PiecewiseAffine(dim=2, slopes=[[Q(1, 2), Q(-1, 3)],
                                                 [Q(1, 5), 1]],
                                  offsets=[Q(1, 7), 0]))
    pool = [fractional] + list(itertools.islice(_tilt_pool(), 8))
    sample = duality._sum_point_sample
    seen = set()
    for k, inst in enumerate(pool):
        made = []

        def recorded(*args):
            z, lam, weights = sample(*args)
            made.append((list(z), lam))
            return z, lam, weights

        monkeypatch.setattr(duality, "_sum_point_sample", recorded)
        duality.check_stable_strong_duality(inst, tilts=[], seed=k,
                                            n_points=6)
        monkeypatch.undo()
        assert made == _redrawn_sum_points(inst, k, 6)
        if isinstance(inst.target, Box):
            seen.add("box")
        elif inst.target.E:
            seen.add("equality row")
        if any(v.denominator > 1 for z, _ in made for v in z):
            seen.add("fractional")
    assert seen == {"box", "equality row", "fractional"}


def test_per_tilt_matches_fresh_solves_on_seeded_instances():
    seen = set()
    for k, inst in enumerate(_tilt_pool()):
        shifts = [shift for shift, _ in
                  duality.default_tilts(inst.n, count=6, seed=k)]
        rep = duality.check_stable_strong_duality(inst, tilts=shifts,
                                                  n_points=2)
        fresh = [duality.check_strong_duality(tilted(inst, shift))
                 for shift in shifts]
        if rep.tilts_checked == 0:
            # an infeasible primal checks no tilt
            assert rep.per_tilt == []
            assert all(r.primal.status == INFEASIBLE for r in fresh)
            seen.add("infeasible")
            continue
        assert rep.per_tilt == fresh
        seen.update(r.primal.status for r in fresh)
        if inst.objective.domain is not None:
            seen.add("domain")
        if isinstance(inst.target, Polyhedron) and inst.target.E:
            seen.add("equality rows")
    assert seen == {OPTIMAL, UNBOUNDED, "infeasible", "domain",
                    "equality rows"}


def test_tilt_programs_are_the_builders_at_the_tilted_slopes():
    # a tilt's multiplier program is full_program at its shift, row for
    # row the program of the tilted instance, and reads the same (u, lam)
    # off the tilt's optimal multipliers; a nonzero tilt that the kept
    # epigraph system refuses is minimized fresh, to the tilted instance's
    # own minimum
    rng = random.Random(808)
    seen = set()
    for inst in _tilt_pool():
        n = inst.n
        shifts = [[Q(rng.randint(-2, 2)) for _ in range(n)],
                  [Q(rng.randint(-6, 6), rng.choice((2, 3, 7)))
                   for _ in range(n)]]
        for shift in shifts:
            twin = tilted(inst, shift)
            program, extract = engine.full_program(inst, shift)
            fresh, fresh_extract = engine.full_program(twin)
            assert repr(program) == repr(fresh)
            out = lp.solve(program)
            if out.status == OPTIMAL:
                assert extract(out.x) == fresh_extract(out.x)
                seen.add("optimal dual")
            if not any(shift):
                continue
            seen.add("rational shift" if any(s.denominator > 1 for s in shift)
                     else "integer shift")
            warm, = calculus.unique_tilted_minima(inst.epigraph_system(),
                                                  [shift])
            if warm is None:
                primal, = duality._tilted_primals(inst, [shift])
                assert primal == duality.solve_primal(twin)
                seen.add("refused tilt")
        assert list(duality._tilt_reports(inst, shifts)) == [
            duality.check_strong_duality(tilted(inst, shift))
            for shift in shifts]
        if inst.objective.domain is not None:
            seen.add("domain")
        if isinstance(inst.target, Polyhedron):
            seen.add("polyhedral target")
        if inst.ground.E and inst.target_polyhedron().E:
            seen.add("equality rows")
    assert seen == {"domain", "polyhedral target", "equality rows",
                    "integer shift", "rational shift", "optimal dual",
                    "refused tilt"}


def test_tilt_duals_answered_at_a_right_hand_side_are_the_tilted_programs():
    # the piece weights sum to 1, so the multiplier program of f - s.x is
    # the untilted one at the right-hand side (s, 1): every tilt answered
    # there certifies itself on that program, and its point is feasible on
    # the tilted program, full_program at s, with the same value, which is
    # the fresh solve's point and value
    rng = random.Random(31)
    seen = set()
    for inst in _tilt_pool():
        n = inst.n
        shifts = [shift for shift, _ in
                  duality.default_tilts(n, count=8, seed=rng.randrange(99))]
        shifts += [[Q(rng.randint(-6, 6), rng.choice((2, 3, 7)))
                    for _ in range(n)] for _ in range(3)]
        program, _ = engine.full_program(inst)
        rhs = [[*shift, Q(1)] for shift in shifts]
        answers = lp.System(program).outcomes_at(program.c, rhs)
        assert answers[0] == lp.solve(program)
        for shift, b, out in zip(shifts[1:], rhs[1:], answers[1:]):
            if not any(shift):
                assert out == answers[0]
                continue
            if out is None:
                seen.add("refused")
                continue
            at_b = dataclasses.replace(program, e=b)
            assert lp.verify_certificate(at_b, out)
            tilted_program, _ = engine.full_program(inst, shift)
            assert satisfies_rows(tilted_program.G, tilted_program.h,
                                  tilted_program.E, tilted_program.e, out.x)
            assert all(x >= 0 for x, flag in zip(out.x, tilted_program.nonneg)
                       if flag)
            assert sum(a * x for a, x in zip(tilted_program.c, out.x)) \
                == out.value
            fresh = lp.solve(tilted_program)
            assert (out.x, out.value) == (fresh.x, fresh.value)
            seen.add("box" if isinstance(inst.target, Box) else "polyhedral")
            if inst.ground.E or inst.target_polyhedron().E:
                seen.add("equality row")
            if inst.objective.domain is not None:
                seen.add("domain")
            if any(s.denominator > 1 for s in shift):
                seen.add("rational shift")
    assert seen == {"box", "polyhedral", "equality row", "domain",
                    "rational shift", "refused"}


def test_stable_check_answers_tilt_duals_at_right_hand_sides(count_phase1,
                                                             monkeypatch):
    # a seeded instance whose zero tilt's final basis passes the uniqueness
    # test: its 13 distinct nonzero shifts are right-hand sides answered
    # from that basis, so `_solve_duals` runs 3 phase 1s (the multiplier
    # rows, then the conjugate and ground support sweeps of the triples),
    # 16 when each shift's multiplier program ran a phase 1 of its own
    rng = random.Random(7)
    for _ in range(4):
        inst = instances.random_feasible_instance(rng)
    program, _ = engine.full_program(inst)
    kept = lp.System(program)
    seed, z, _, q = kept._phase2(*kept._cost(program.c))
    assert q is None and seed.unique_point(z)
    shifts = [shift for shift, _ in duality.default_tilts(inst.n, seed=2)]
    runs = []
    solve_duals = duality._solve_duals

    def counted(inst, shifts):
        got, n = count_phase1(solve_duals, inst, shifts)
        runs.append((len([s for s in shifts if any(s)]), n))
        return got

    monkeypatch.setattr(duality, "_solve_duals", counted)
    rep = duality.check_stable_strong_duality(inst, seed=2)
    assert rep.tilts_checked == 25
    assert runs == [(13, 3)]
    assert rep.per_tilt == [duality.check_strong_duality(tilted(inst, shift))
                            for shift in shifts]


def test_stability_reading_matches_the_certificate_route():
    # the reference route: one nonnegativity check and one certificate
    # program per (shift, lift), against the lift reading of the shift's
    # strong-duality report, with the boundary lifts min and min + 1/2
    verdicts = set()
    for k, inst in enumerate(_tilt_pool()):
        if inst.feasible_in_domain().is_empty():
            continue
        tilts = duality.default_tilts(inst.n, count=6, seed=k)
        rep = duality.check_stable_strong_duality(
            inst, tilts=[shift for shift, _ in tilts], n_points=2)
        checked = []
        for (shift, lift), row in zip(tilts, rep.per_tilt):
            lifts = [lift]
            if row.primal.status == OPTIMAL:
                lifts += [row.primal.value, row.primal.value + Q(1, 2)]
            checked += [(shift, lf, row) for lf in lifts]
        for shift, lift, row in checked:
            twin = tilted(inst, shift, lift)
            holds = engine.check_nonnegativity(twin).verdict.holds
            certified = engine.find_certificate(twin) is not None
            assert holds == certified == (row.primal.value >= lift) \
                == (row.dual.value >= lift)
            verdicts.add(holds)
        stab = duality.check_stability(
            inst, tilts=[(shift, lift) for shift, lift, _ in checked])
        assert stab.all_equivalent
        assert stab.tilts_checked == len(checked)
    assert verdicts == {True, False}


def test_stability_mismatch_raises(monkeypatch):
    inst = bounded_instance()
    tilts = [([Q(0), Q(0)], duality.solve_primal(inst).value + Q(1, 2))]
    assert duality.check_stability(inst, tilts=tilts).all_equivalent
    real = duality._tilt_reports

    def one_too_high(inst, shifts):
        for rep in real(inst, shifts):
            yield dataclasses.replace(rep, dual=dataclasses.replace(
                rep.dual, value=rep.dual.value + 1))

    monkeypatch.setattr(duality, "_tilt_reports", one_too_high)
    with pytest.raises(InvariantViolation, match="equivalence broke"):
        duality.check_stability(inst, tilts=tilts)


def test_tilted_instance_solves_nothing(count_phase1):
    # an instance rebuilt through `dataclasses.replace` with a new
    # objective, as check_optimality builds f - f(x), reruns the
    # constructors' emptiness checks on the same ground, target and domain,
    # and their kept points answer them
    rng = random.Random(8)
    for _ in range(20):
        inst = instances.random_feasible_instance(rng)
        shift = [Q(rng.randint(-2, 2), 2) for _ in range(inst.n)]
        lift = Q(rng.randint(-2, 2))
        before = copy.deepcopy(inst)
        twin, runs = count_phase1(tilted, inst, shift, lift)
        assert runs == 0
        assert twin.ground is inst.ground and twin.target is inst.target
        assert twin.objective.domain is inst.objective.domain
        assert inst == before


def test_optimality_certificate_is_the_lifted_instance_certificate():
    # the certificate route of check_optimality is the certificate program
    # of f - f(x) on an instance rebuilt through the constructors
    rng = random.Random(909)
    checked, seen = 0, set()
    for _ in range(25):
        inst = instances.random_feasible_instance(rng)
        pair = (inst, FarkasInstance(
            ground=inst.ground, matrix=inst.matrix,
            target=with_equality_row(inst.target_polyhedron()),
            objective=inst.objective))
        for inst in pair:
            if inst.feasible_in_domain().is_empty():
                continue
            points = instances.sample_feasible_points(inst, rng)
            primal = duality.solve_primal(inst)
            if primal.status == OPTIMAL:
                points.insert(0, primal.point)
            for point in points:
                rep = duality.check_optimality(inst, point)
                lifted = tilted(inst, [Q(0)] * inst.n,
                                inst.objective.value(point))
                cert = engine.find_certificate(lifted)
                assert rep.certificate == cert
                assert rep.optimal == (cert is not None)
                seen.add("optimal" if rep.optimal else "suboptimal")
            checked += 1
            if inst.objective.domain is not None:
                seen.add("domain")
            if isinstance(inst.target, Polyhedron):
                seen.add("polyhedral target")
    assert checked >= 40
    assert seen == {"optimal", "suboptimal", "domain", "polyhedral target"}


def test_stable_check_solves_each_constraint_set_once(count_phase1,
                                                      count_pivots):
    # counted with the instance's construction: 149 phase-1 runs when each
    # tilt was built as a new instance and posed its conjugate and ground
    # support as programs of their own (260 pivots before and after), 76
    # when a repeated shift was solved again (177 pivots once it was not),
    # 53 when the untilted primal was solved twice and a repeated point of
    # a conjugate or support batch had a phase 2 of its own (177 pivots),
    # 52 when each sum point ran a phase 1 of its own (161 pivots); its
    # kept epigraph's phase 1 makes no pivot, so its nonzero shifts were
    # solved fresh (33 runs, 105 pivots) until the tilts shared the kept
    # system's bases; posed there first they take 25 runs and 104 pivots
    # (130 pivots before the bases were shared), and 24 runs and 86 pivots
    # once the sum points were proved members by their drawn witnesses
    # instead of one membership sweep (bounds 33 and 119 before)
    def check():
        return duality.check_stable_strong_duality(bounded_instance(), seed=2)

    rep, runs = count_phase1(check)
    assert rep.tilts_checked == 25
    assert runs <= 24
    _, pivots = count_pivots(check)
    assert pivots <= 86


def test_tilts_are_answered_on_the_kept_epigraph(count_phase1, count_pivots):
    # counted with the instance's construction: 33 phase-1 runs and 173
    # pivots when each nonzero shift's primal was a program of its own;
    # most are now costs on the kept epigraph system, and the reports are
    # still those of fresh tilted instances
    def check():
        return duality.check_stable_strong_duality(pivoting_instance(),
                                                   seed=2)

    rep, runs = count_phase1(check)
    assert rep.tilts_checked == 25
    assert runs <= 27
    _, pivots = count_pivots(check)
    assert pivots <= 142
    inst = pivoting_instance()
    tilts = duality.default_tilts(inst.n, seed=2)
    assert rep.per_tilt == [duality.check_strong_duality(tilted(inst, shift))
                            for shift, _ in tilts]


def test_sum_points_share_one_phase_1(count_phase1, monkeypatch):
    # a box target's 20 sampled sum points are proved members by the
    # weights they were drawn from, with no membership sweep (one sweep
    # and one phase 1 before); a polyhedral target's 20 are decided on the
    # basis the first one leaves: one phase 1 for all of them
    sweeps = []
    members = sets.members

    def counted(s, points):
        got, runs = count_phase1(members, s, points)
        sweeps.append((len(points), all(got), runs))
        return got

    monkeypatch.setattr(sets, "members", counted)
    duality.check_stable_strong_duality(bounded_instance(), seed=2)
    assert sweeps == []
    duality.check_stable_strong_duality(pentagon_target_instance(), seed=2)
    assert sweeps == [(20, True, 1)]


def _box_witness_pool():
    """Seeded box-target instances: each random feasible instance, its
    twin with an equality row on the ground and on dom f, and a twin with
    fractional map, box, slopes and offsets."""
    rng = random.Random(2910)
    for _ in range(14):
        inst = instances.random_feasible_instance(rng)
        yield inst
        f = inst.objective
        yield FarkasInstance(
            ground=with_equality_row(inst.ground), matrix=inst.matrix,
            target=inst.target,
            objective=f if f.domain is None else dataclasses.replace(
                f, domain=with_equality_row(f.domain)))
        yield FarkasInstance(
            ground=inst.ground,
            matrix=[[a / 3 for a in row] for row in inst.matrix],
            target=Box([(lo / 3 - Q(1, 5), hi / 3 + Q(2, 7))
                        for lo, hi in inst.target.bounds]),
            objective=dataclasses.replace(
                f, slopes=[[a / 2 for a in row] for row in f.slopes],
                offsets=[b + Q(1, 3) for b in f.offsets]))


def test_box_sum_points_proved_by_their_witnesses_are_members(monkeypatch):
    # every sum point of a box target is proved a member by substituting
    # the weights it was drawn from, and sets.members, an LP on the same
    # rows, agrees on each. sets.satisfied also answers the membership
    # sweeps and polars of polyhedra inside sets, so only the calls the
    # stable check makes itself, on the restricted epigraph, are recorded:
    # duality sees a copy of the sets module whose satisfied records
    build = engine.restricted_epigraph
    restricted, proved = [], []

    def built(inst):
        restricted.append(build(inst))
        return restricted[-1]

    def recorded(s, stacked):
        assert s is restricted[-1]
        got = sets.satisfied(s, stacked)
        proved.extend((s, x, d, ok) for (x, d), ok in zip(stacked, got))
        return got

    view = types.ModuleType(sets.__name__)
    view.__dict__.update(vars(sets), satisfied=recorded)
    monkeypatch.setattr(engine, "restricted_epigraph", built)
    monkeypatch.setattr(duality, "sets", view)
    seen = set()
    for k, inst in enumerate(_box_witness_pool()):
        before = len(proved)
        duality.check_stable_strong_duality(inst, tilts=[], seed=k,
                                            n_points=6)
        if inst.feasible_in_domain().is_empty():
            assert len(proved) == before
            seen.add("infeasible")
            continue
        assert len(proved) == before + 6
        f = inst.objective
        if f.domain is not None:
            seen.add("domain equality row" if f.domain.E else "domain")
        if inst.ground.E:
            seen.add("ground equality row")
        if any(v.denominator > 1 for row in inst.matrix for v in row):
            seen.add("fractional")
    assert seen == {"infeasible", "domain", "domain equality row",
                    "ground equality row", "fractional"}
    assert all(ok for *_, ok in proved)
    points = [(s, [Q(a, d) for a in x[:s.dim]]) for s, x, d, _ in proved]
    assert all(sets.member(s, z) for s, z in points)
    assert any(v.denominator > 1 for _, z in points for v in z)


def test_box_sum_point_below_its_budget_raises(monkeypatch):
    # a sum point lowered far below the budget of its witness escapes the
    # restricted epigraph, which the membership LP confirms
    sample = duality._sum_point_sample

    def lowered(*args):
        z, lam, weights = sample(*args)
        z[-1] -= 100
        return z, lam, weights

    monkeypatch.setattr(duality, "_sum_point_sample", lowered)
    with pytest.raises(InvariantViolation, match="escapes"):
        duality.check_stable_strong_duality(bounded_instance(), seed=2)


def test_box_witness_in_the_wrong_columns_raises(monkeypatch):
    # a witness shifted by one column fails the rows, while the point is
    # still a member by LP: the layout, not the point, is wrong
    witness = duality._box_witness

    def shifted(*args):
        w = witness(*args)
        return w[1:] + w[:1]

    monkeypatch.setattr(duality, "_box_witness", shifted)
    with pytest.raises(InvariantViolation, match="witness layout"):
        duality.check_stable_strong_duality(bounded_instance(), seed=2)


def pentagon_target_instance():
    # bounded_instance with a polyhedron of five rows as its target, whose
    # supports are LPs
    return FarkasInstance(
        ground=Box([(0, 1), (0, 1)]).to_polyhedron(),
        matrix=[[1, 0], [1, 1]],
        target=Polyhedron(dim=2, G=[[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]],
                          h=[2, 2, 0, 0, 3]),
        objective=PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[0]))


# the sum points of pentagon_target_instance at seed 2, each lam drawn as
# t^T mu over the pentagon's rows t
PENTAGON_SUM_POINTS = ("bcab6872aaf7702ee32c76c620c8eff0"
                       "b65ff9d9bcf227847256bf9dbd21afc1")


def test_target_supports_are_one_sweep_per_batch(count_phase1, monkeypatch):
    # counted after the instance's construction: 66 phase-1 runs when each
    # of the 20 sum points and each of the 14 certificates posed its target
    # support as a one-direction program of its own; now the sum points
    # take one sweep and each certificate batch another, and the drawn
    # points are pinned
    inst = pentagon_target_instance()
    sweeps, drawn = [], []
    supports, members = sets.supports, sets.members

    def sweeping(s, directions):
        sweeps.append(len(directions))
        return supports(s, directions)

    def drawing(s, points):
        drawn.append([list(p) for p in points])
        return members(s, points)

    monkeypatch.setattr(sets, "supports", sweeping)
    monkeypatch.setattr(sets, "members", drawing)
    rep, runs = count_phase1(duality.check_stable_strong_duality, inst, None,
                             2)
    assert rep.tilts_checked == 25 and rep.all_strong
    assert runs <= 34
    assert sweeps == [20, 14, 14]
    assert hashlib.sha256(repr(drawn).encode()).hexdigest() == \
        PENTAGON_SUM_POINTS
    lams = [[Q(1), Q(-2)], [Q(0), Q(0)], [Q(-1, 3), Q(1)]]
    assert inst.target_supports(lams) == [
        sets.support(inst.target, lam) for lam in lams] == \
        [Q(2), Q(0), Q(2)]
    box = bounded_instance()
    assert box.target_supports(lams) == [box.target.support(lam)
                                         for lam in lams]
    assert box.target_supports([]) == inst.target_supports([]) == []


# 525573d2...048960 (331 programs) before the ground and f kept the systems
# of their support and conjugate sweeps; the 304 programs now posed are a
# sub-multiset of those 331
OPTIMALITY_PROGRAMS = ("dbcbb2e4949b3b144c5f5a5eb4af9c7f"
                       "ebb83a589371255022cb20ff86304ff9")


def _optimality_programs(phase2_costs):
    """sha256 over the sorted reprs of every program, with its cost, that
    reaches a phase 2 of the kernel (`lp.System._phase2`, behind `solve`,
    `System.outcome` and `System.maxima`, recorded by the `phase2_costs`
    fixture) inside check_optimality, at the minimizer and two sampled
    feasible points of each feasible instance of the tilt pool, and the
    kinds of data reached on the way."""
    rng = random.Random(707)
    cases, seen = [], set()
    for inst in _tilt_pool():
        if inst.feasible_polyhedron().is_empty():
            continue
        points = instances.sample_feasible_points(inst, rng)
        # solved on a copy, so that check_optimality poses the primal itself
        primal = duality.solve_primal(copy.copy(inst))
        if primal.status == OPTIMAL:
            points.insert(0, primal.point)
        cases.append((inst, points))
    phase2_costs.clear()
    for inst, points in cases:
        for point in points:
            rep = duality.check_optimality(inst, point)
            seen.add("optimal" if rep.optimal else "suboptimal")
            if inst.objective.domain is not None:
                seen.add("domain")
            if inst.ground.E and inst.target_polyhedron().E:
                seen.add("equality rows")
    # each cost as the one-entry list that the hash was recorded over
    programs = [f"{program!r} {[c]!r}" for program, c in phase2_costs]
    digest = hashlib.sha256("\n".join(sorted(programs)).encode())
    return digest.hexdigest(), seen


def test_optimality_programs_match_recorded_hash(phase2_costs):
    # pins the rows of the primal, certificate and subdifferential programs
    # and their costs (entries, column order, sign flags), which decide the
    # pivots taken
    digest, seen = _optimality_programs(phase2_costs)
    assert seen == {"optimal", "suboptimal", "domain", "equality rows"}
    assert digest == OPTIMALITY_PROGRAMS


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
