"""Engine checks against hand-worked instances and random consistency."""

import collections
import gc
import random
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from farkaskit import calculus, duality, engine, lp, sets
from farkaskit.calculus import PiecewiseAffine
from farkaskit.engine import FarkasInstance, TriVerdict
from farkaskit.instances import (random_feasible_instance, random_grid,
                                 random_infeasible_instance)
from farkaskit.errors import InvariantViolation
from farkaskit.rational import INF, NEG_INF, ONE, Q, ZERO, is_finite
from farkaskit.sets import Box, Polyhedron

from oracles import (MEMBERSHIP_FIELDS, SCALE_FIELDS, certifies_outcome,
                     mutations, spoiled, tilted, tilted_function,
                     with_equality_row)


def unit_square():
    return Box([(0, 1), (0, 1)]).to_polyhedron()


def whole_line():
    return sets.whole_space(1)


def plain(fn_slopes, fn_offsets, dim=None):
    dim = dim if dim is not None else len(fn_slopes[0])
    return PiecewiseAffine(dim=dim, slopes=fn_slopes, offsets=fn_offsets)


def basic_instance(offset=0):
    # ground [0,1]^2, map (x1, x1+x2), target [0,2]^2, f = x1 + x2 + offset
    return FarkasInstance(
        ground=unit_square(),
        matrix=[[1, 0], [1, 1]],
        target=Box([(0, 2), (0, 2)]),
        objective=plain([[1, 1]], [offset]))


def vacuous_no_cert():
    # ground = R, map = 0, target = {1}: infeasible, f = -x kills any tilt
    return FarkasInstance(
        ground=whole_line(), matrix=[[0]], target=Box([(1, 1)]),
        objective=plain([[-1]], [0]))


def vacuous_with_cert():
    # ground = {0}, map = id, target = [1,2]: infeasible, f = x certified
    return FarkasInstance(
        ground=Polyhedron(dim=1, G=[], h=[], E=[[1]], e=[0]),
        matrix=[[1]], target=Box([(1, 2)]),
        objective=plain([[1]], [0]))


class TestStatements:
    def test_nonnegative_holds(self):
        rep = engine.check_nonnegativity(basic_instance())
        assert rep.verdict is TriVerdict.TRUE
        assert rep.minimum == 0

    def test_negative_with_witness(self):
        rep = engine.check_nonnegativity(basic_instance(offset=-1))
        assert rep.verdict is TriVerdict.FALSE
        assert rep.minimum == -1
        x = rep.witness
        assert basic_instance().objective.value(x) - 1 < 0

    def test_vacuous(self):
        rep = engine.check_nonnegativity(vacuous_no_cert())
        assert rep.verdict is TriVerdict.VACUOUS
        assert rep.minimum is INF
        assert rep.verdict.holds

    def test_unbounded_below_walks_to_witness(self):
        inst = FarkasInstance(
            ground=whole_line(), matrix=[[1]],
            target=Polyhedron(dim=1, G=[[-1]], h=[0], E=[], e=[]),
            objective=plain([[-1]], [0]))
        rep = engine.check_nonnegativity(inst)
        assert rep.verdict is TriVerdict.FALSE
        assert rep.minimum is NEG_INF
        assert rep.witness is not None
        assert inst.objective.value(rep.witness) < 0
        assert rep.witness[0] >= 0  # stays feasible

    def test_domain_outside_feasible_is_plain_true(self):
        # feasible nonempty but misses dom f: implication holds, not vacuous
        inst = FarkasInstance(
            ground=Box([(0, 1)]).to_polyhedron(), matrix=[[1]],
            target=Box([(0, 1)]),
            objective=PiecewiseAffine(
                dim=1, slopes=[[-1]], offsets=[0],
                domain=Box([(5, 6)]).to_polyhedron()))
        rep = engine.check_nonnegativity(inst)
        assert rep.verdict is TriVerdict.TRUE
        assert rep.minimum is INF


class TestCertificates:
    def test_found_and_validated(self):
        inst = basic_instance()
        cert = engine.find_certificate(inst)
        assert cert is not None
        assert cert.total() <= 0
        link = [a + b + c for a, b, c in
                zip(cert.u, cert.v, inst.adjoint(cert.lam))]
        assert all(v == 0 for v in link)

    def test_absent_when_implication_fails(self):
        assert engine.find_certificate(basic_instance(offset=-1)) is None

    def test_vacuous_instance_may_still_have_one(self):
        cert = engine.find_certificate(vacuous_with_cert())
        assert cert is not None
        assert cert.total() <= 0

    def test_vacuous_instance_may_lack_one(self):
        assert engine.find_certificate(vacuous_no_cert()) is None

    def test_tampering_is_caught(self):
        inst = basic_instance()
        cert = engine.find_certificate(inst)
        cert.u[0] += 1
        with pytest.raises(InvariantViolation):
            engine._validate_certificate(inst, cert)

    def test_domain_restricted_objective(self):
        inst = FarkasInstance(
            ground=Box([(0, 10)]).to_polyhedron(), matrix=[[1]],
            target=Box([(0, 10)]),
            objective=PiecewiseAffine(
                dim=1, slopes=[[1], [-1]], offsets=[0, 0],
                domain=Box([(1, 3)]).to_polyhedron()))
        rep = engine.check_nonnegativity(inst)
        assert rep.verdict is TriVerdict.TRUE and rep.minimum == 1
        cert = engine.find_certificate(inst)
        assert cert is not None
        assert is_finite(cert.conjugate_value)

    def test_reduced_matches_full_when_domains_meet(self):
        for inst in (basic_instance(), basic_instance(offset=-1)):
            full = engine.find_certificate(inst)
            red = engine.find_reduced_certificate(inst)
            assert (full is None) == (red is None)
            if red is not None:
                assert red.total() <= 0

    def test_reduced_trivial_when_ground_misses_domain(self):
        inst = FarkasInstance(
            ground=Box([(0, 1)]).to_polyhedron(), matrix=[[1]],
            target=Box([(0, 1)]),
            objective=PiecewiseAffine(
                dim=1, slopes=[[1]], offsets=[0],
                domain=Box([(5, 6)]).to_polyhedron()))
        red = engine.find_reduced_certificate(inst)
        assert red is not None
        assert red.lam == [0]
        assert red.restricted_conjugate is NEG_INF

    def test_reduced_meaning(self):
        # lam certifies f(x) + lam . map(x) >= sigma_target(lam) on ground
        inst = basic_instance()
        red = engine.find_reduced_certificate(inst)
        tilt = [-v for v in inst.adjoint(red.lam)]
        worst = calculus.minimize_over(
            tilted_function(inst.objective, tilt), inst.ground)
        assert worst.value >= inst.target_support(red.lam)


class TestPrimalCriterion:
    def test_consistent_on_true_instance(self):
        rep = engine.check_primal_criterion(basic_instance())
        assert rep.criterion_holds
        assert rep.certificate is not None
        assert rep.verdict == "consistent"
        assert not rep.details["probe_in_cone"]

    def test_consistent_on_false_instance(self):
        rep = engine.check_primal_criterion(basic_instance(offset=-1))
        assert rep.criterion_holds  # fails A, fails B: equivalence intact
        assert rep.certificate is None
        assert rep.details["probe_in_cone"]

    def test_gap_detected(self):
        rep = engine.check_primal_criterion(vacuous_no_cert())
        assert not rep.criterion_holds
        assert rep.certificate is None
        assert rep.nonnegativity.verdict is TriVerdict.VACUOUS
        assert not rep.details["probe_in_cone"]
        assert rep.details["probe_in_closure"]
        assert rep.probe_point == [0, 0, -1]

    def test_no_gap_when_vacuous_but_certified(self):
        rep = engine.check_primal_criterion(vacuous_with_cert())
        assert rep.criterion_holds
        assert rep.certificate is not None


class TestReducedCriterion:
    def test_consistent(self):
        rep = engine.check_reduced_criterion(basic_instance())
        assert rep.criterion_holds
        assert rep.certificate is not None

    def test_gap_detected(self):
        rep = engine.check_reduced_criterion(vacuous_no_cert())
        assert not rep.criterion_holds
        assert rep.probe_point == [0, -1]

    def test_hypothesis_error(self):
        inst = FarkasInstance(
            ground=Box([(0, 1)]).to_polyhedron(), matrix=[[1]],
            target=Box([(0, 1)]),
            objective=PiecewiseAffine(
                dim=1, slopes=[[1]], offsets=[0],
                domain=Box([(5, 6)]).to_polyhedron()))
        with pytest.raises(ValueError):
            engine.check_reduced_criterion(inst)
        with pytest.raises(ValueError):
            engine.residual_epigraph(inst)


    def test_full_and_reduced_certificates_coexist(self, monkeypatch):
        # with a domain meeting the ground, the check also poses the full
        # certificate search and requires it to agree with the reduced one
        found, real = [], engine.find_certificate

        def recorded(inst):
            cert = real(inst)
            found.append(cert is not None)
            return cert

        monkeypatch.setattr(engine, "find_certificate", recorded)
        rng = random.Random(20261020)
        checked = []
        while len(checked) < 20:
            inst = random_feasible_instance(rng)
            if inst.objective.domain is None:
                continue
            rep = engine.check_reduced_criterion(inst)
            assert found.pop() == (rep.certificate is not None)
            assert not found
            checked.append(inst)
        # the sample reaches both outcomes, and a split is caught
        assert {bool(engine.check_reduced_criterion(i).certificate)
                for i in checked} == {True, False}
        monkeypatch.setattr(engine, "find_certificate", lambda inst: None)
        with pytest.raises(InvariantViolation, match="coexist"):
            for inst in checked:
                engine.check_reduced_criterion(inst)


class TestDualCriterion:
    def test_consistent_true(self):
        rep = engine.check_dual_criterion(basic_instance())
        assert rep.criterion_holds
        assert rep.details["origin_in_sum"]
        assert rep.certificate is not None

    def test_consistent_false(self):
        rep = engine.check_dual_criterion(basic_instance(offset=-1))
        assert rep.criterion_holds
        assert not rep.details["origin_in_sum"]
        assert rep.certificate is None

    def test_hypothesis_error_on_infeasible(self):
        with pytest.raises(ValueError):
            engine.check_dual_criterion(vacuous_no_cert())

    def test_negative_random_count_raises(self, count_phase1):
        # the count reaches `sets.probe_directions`, which refuses it
        # before any LP
        inst = basic_instance()

        def refused():
            with pytest.raises(ValueError, match="random directions must"):
                engine.check_dual_criterion(inst, n_random=-1)

        assert count_phase1(refused)[1] == 0

    def test_polyhedral_target_and_domain(self):
        inst = FarkasInstance(
            ground=unit_square(), matrix=[[1, 2], [0, 1]],
            target=Polyhedron(dim=2, G=[[1, 1]], h=[5], E=[], e=[]),
            objective=PiecewiseAffine(
                dim=2, slopes=[[1, 0], [0, 1]], offsets=[0, 0],
                domain=unit_square()))
        rep = engine.check_dual_criterion(inst)
        assert rep.criterion_holds and rep.certificate is not None


def unit_interval_instance():
    # ground R, map id, target [0, 1], f = 1: the implication, its
    # certificate and the origin's membership hold on any interval, so
    # among the dual criterion's checks only the support identities see
    # an interval changed
    return FarkasInstance(ground=whole_line(), matrix=[[1]],
                          target=Box([(0, 1)]), objective=plain([[0]], [1]))


class TestDualIdentityCatchesMutations:
    # the multiplier cone's supports come from an LP sweep, the preimage
    # support epigraph's from its polar, with no LP: a change on either
    # side moves some probe direction's value, and the criterion raises

    def test_mutated_multiplier_cone_row(self, monkeypatch):
        inst = unit_interval_instance()
        cone = engine.multiplier_cone(inst)
        epi = calculus.support_epigraph(inst.preimage_polyhedron())
        dirs = sets.probe_directions(2)
        assert sets.support_mismatches(cone, epi, dirs) == []
        # every target row's right-hand side on the budget row plus 1:
        # the cone of the target [-1, 2]
        budget = cone.G[0]
        k = len(inst.target_polyhedron().G)
        mutated = replace(cone, G=[budget[:-k] + [v + 1 for v in budget[-k:]]])
        assert sets.support_mismatches(mutated, epi, dirs) != []
        monkeypatch.setattr(engine, "multiplier_cone", lambda inst: mutated)
        with pytest.raises(InvariantViolation,
                           match="multiplier cone vs preimage"):
            engine.check_dual_criterion(unit_interval_instance())

    def test_mutated_preimage_row(self, monkeypatch):
        inst = unit_interval_instance()
        pre = inst.preimage_polyhedron()
        # the row -x <= 0 of the preimage made -x <= 1: the interval [-1, 1]
        mutated = Polyhedron(dim=1, G=pre.G, h=[pre.h[0], pre.h[1] + 1])
        assert sets.support_mismatches(
            engine.multiplier_cone(inst), calculus.support_epigraph(mutated),
            sets.probe_directions(2)) != []
        monkeypatch.setattr(FarkasInstance, "preimage_polyhedron",
                            lambda inst: mutated)
        with pytest.raises(InvariantViolation,
                           match="multiplier cone vs preimage"):
            engine.check_dual_criterion(unit_interval_instance())


def test_one_multiplier_program_per_instance(monkeypatch):
    # the certificate search of the primal criterion and the dual of
    # strong duality read the one untilted program the instance keeps
    built = []
    program = calculus.multiplier_program

    def counting(*args):
        built.append(args)
        return program(*args)

    monkeypatch.setattr(calculus, "multiplier_program", counting)
    for inst in (basic_instance(), vacuous_with_cert()):
        built.clear()
        engine.check_primal_criterion(inst)
        duality.check_strong_duality(inst)
        assert len(built) == 1


def test_box_target_multiplier_cone_runs_no_lp(count_phase1):
    # the cone is built on the box itself, which needs no emptiness LP,
    # not on its polyhedron
    inst = unit_interval_instance()
    cone, runs = count_phase1(engine.multiplier_cone, inst)
    assert runs == 0 and cone.dim == 2


def test_checked_instance_is_freed_by_reference_counting():
    # an instance keeps its untilted program with its extract, which must
    # not hold the instance: a cycle would leave every instance, with its
    # kept sets and systems, to the cyclic garbage collector
    inst = basic_instance()
    engine.check_primal_criterion(inst)
    duality.check_strong_duality(inst)
    ref = weakref.ref(inst)
    gc.disable()
    try:
        del inst
        assert ref() is None
    finally:
        gc.enable()


class TestBuildersAreFaithful:
    def test_decoupled_set_carries_definition_points(self):
        inst = basic_instance()
        F = engine.decoupled_residual_epigraph(inst)
        # x in ground, v anywhere (full domain), d in target, r >= f(v)
        for x, v, d, eta in [
            ([Q(0), Q(1)], [Q(3), Q(-2)], [Q(2), Q(0)], Q(0)),
            ([Q(1), Q(1)], [Q(0), Q(0)], [Q(0), Q(2)], Q(5)),
        ]:
            z = ([a - b for a, b in zip(x, v)]
                 + [a - b for a, b in zip(inst.apply(x), d)]
                 + [inst.objective.value(v) + eta])
            assert sets.member(F, z)
        # r below f(v) must be rejected
        bad = [Q(0), Q(0), Q(0), Q(0), Q(-1)]
        assert not sets.member(F, bad)

    def test_residual_set_carries_definition_points(self):
        inst = basic_instance()
        F0 = engine.residual_epigraph(inst)
        for x, d, eta in [
            ([Q(1), Q(0)], [Q(0), Q(0)], Q(0)),
            ([Q(0), Q(0)], [Q(2), Q(2)], Q(3)),
        ]:
            z = ([a - b for a, b in zip(inst.apply(x), d)]
                 + [inst.objective.value(x) + eta])
            assert sets.member(F0, z)
        assert not sets.member(F0, [Q(0), Q(0), Q(-1)])

    def test_multiplier_cone_graph_points(self):
        inst = basic_instance()
        lam = [Q(1), Q(-2)]
        cone = engine.multiplier_cone(inst)
        sup = inst.target_support(lam)
        z = inst.adjoint(lam) + [sup]
        assert sets.member(cone, z)
        below = inst.adjoint(lam) + [sup - 1]
        assert not sets.member(cone, below)

    def test_certificate_cone_matches_feasible_supports(self):
        inst = basic_instance()
        cone = engine.certificate_cone(inst)
        feas = calculus.support_epigraph(inst.feasible_polyhedron())
        dirs = sets.probe_directions(3, n_random=10, seed=7)
        assert sets.support_mismatches(cone, feas, dirs) == []


    def test_box_preimage_matches_polyhedral_target(self):
        # the box rows +-e_i pull back to +-A_i: same rows, same order and
        # the same values as pulling the box's polyhedron back row by row
        rng = random.Random(17)
        for k in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            matrix = [[Q(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(n)] for _ in range(m)]
            if k % 3 == 0:
                matrix[rng.randrange(m)] = [Q(0)] * n
            bounds = []
            for _ in range(m):
                lo = Q(rng.randint(-3, 3), rng.randint(1, 3))
                bounds.append((lo, lo if rng.random() < 0.3
                               else lo + rng.randint(0, 4)))
            box = Box(bounds)
            ground = Box([(-1, 1)] * n).to_polyhedron()
            f = PiecewiseAffine(dim=n, slopes=[[0] * n], offsets=[0])
            fast = FarkasInstance(ground=ground, matrix=matrix, target=box,
                                  objective=f).preimage_polyhedron()
            generic = FarkasInstance(ground=ground, matrix=matrix,
                                     target=box.to_polyhedron(),
                                     objective=f).preimage_polyhedron()
            assert fast == generic
            assert repr(fast) == repr(generic)

    def test_box_multipliers_read_without_densifying(self, monkeypatch):
        # lam of a box target is read off its row pairs, never through the
        # box's 2m x m polyhedron, and equals the polyhedral target's t^T mu
        def densified(inst):
            raise AssertionError("box target densified")

        monkeypatch.setattr(FarkasInstance, "target_polyhedron", densified)
        rng = random.Random(23)
        found = 0
        for _ in range(40):
            n, m = rng.randint(1, 2), rng.randint(1, 3)
            matrix = [[Q(rng.randint(-3, 3)) for _ in range(n)]
                      for _ in range(m)]
            bounds = [(lo, lo + rng.randint(0, 3))
                      for lo in (Q(rng.randint(-3, 3), 2) for _ in range(m))]
            ground = Box([(-1, 1)] * n).to_polyhedron()
            f = PiecewiseAffine(
                dim=n, slopes=[[Q(rng.randint(-2, 2)) for _ in range(n)]],
                offsets=[Q(rng.randint(-4, 2))])
            box, generic = (
                FarkasInstance(ground=ground, matrix=matrix, target=t,
                               objective=f)
                for t in (Box(bounds), Box(bounds).to_polyhedron()))
            a, b = engine.find_certificate(box), engine.find_certificate(generic)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.u, a.v, a.lam) == (b.u, b.v, b.lam)
                found += 1
            a = engine.find_reduced_certificate(box)
            b = engine.find_reduced_certificate(generic)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.lam == b.lam
            (program, read), (_, dense) = map(engine.full_program,
                                              (box, generic))
            w = [Q(rng.randint(-3, 3)) for _ in range(program.n)]
            assert read(w) == dense(w)
        assert found


class TestExistence:
    def test_feasible(self):
        rep = engine.check_existence(basic_instance())
        assert rep.feasible and rep.preimage_nonempty
        assert rep.point is not None
        assert basic_instance().feasible_polyhedron().contains(rep.point)

    def test_infeasible_via_empty_preimage(self):
        rep = engine.check_existence(vacuous_no_cert())
        assert not rep.feasible
        assert not rep.preimage_nonempty
        assert rep.point is None

    def test_infeasible_with_nonempty_preimage(self):
        rep = engine.check_existence(vacuous_with_cert())
        assert not rep.feasible
        assert rep.preimage_nonempty


class TestStability:
    def test_survives_tilt_grid(self):
        rep = duality.check_stability(basic_instance(), seed=3)
        assert rep.criterion_holds and rep.all_equivalent
        assert rep.tilts_checked == 25

    def test_explicit_tilts(self):
        tilts = [([Q(0), Q(0)], Q(0)), ([Q(1), Q(-1)], Q(2))]
        rep = duality.check_stability(basic_instance(), tilts=tilts)
        assert rep.tilts_checked == 2

    def test_hypothesis_error(self):
        with pytest.raises(ValueError):
            duality.check_stability(vacuous_no_cert())

    def test_one_emptiness_check_for_all_tilts(self, count_phase1):
        # counted with the instance's construction: 128 phase-1 runs when
        # each tilt was a new instance with its own emptiness checks,
        # conjugate and ground support programs, 54 when a repeated tilt
        # was solved again, 52 when each (shift, lift) posed a certificate
        # program of its own
        rep, runs = count_phase1(
            lambda: duality.check_stability(basic_instance(), seed=3))
        assert rep.tilts_checked == 25
        assert runs <= 34


class TestSublevel:
    def _inst(self, offset):
        return FarkasInstance(
            ground=whole_line(), matrix=[[1]], target=Box([(-2, -1)]),
            objective=plain([[1]], [offset]))

    def test_hand_example_true(self):
        rep = engine.check_sublevel(self._inst(0))
        assert rep.nonpositive and rep.epigraph_contained
        assert rep.maximum == -1
        assert rep.simili_closed

    def test_hand_example_false(self):
        rep = engine.check_sublevel(self._inst(3))
        assert not rep.nonpositive and not rep.epigraph_contained
        assert rep.maximum == 2

    def test_generator_that_escapes(self):
        # the conjugate epigraph vertex (1, -3) must fall outside the cone
        inst = self._inst(3)
        cone = engine.certificate_cone(inst)
        assert not sets.member(cone, [Q(1), Q(-3)])
        assert sets.member(cone, [Q(1), Q(-1)])  # the support graph point

    def test_needs_full_domain(self):
        inst = FarkasInstance(
            ground=whole_line(), matrix=[[1]], target=Box([(-2, -1)]),
            objective=PiecewiseAffine(
                dim=1, slopes=[[1]], offsets=[0],
                domain=Box([(-5, 5)]).to_polyhedron()))
        with pytest.raises(ValueError):
            engine.check_sublevel(inst)

    def test_needs_feasible_point(self):
        with pytest.raises(ValueError):
            engine.check_sublevel(vacuous_no_cert())

    def test_unbounded_maximum(self):
        inst = FarkasInstance(
            ground=whole_line(), matrix=[[0]], target=Box([(0, 0)]),
            objective=plain([[1]], [0]))
        rep = engine.check_sublevel(inst)
        assert rep.maximum is INF
        assert not rep.nonpositive and not rep.epigraph_contained


class TestKeptSets:
    DERIVED = ("target_polyhedron", "domain", "preimage_polyhedron",
               "feasible_polyhedron", "ground_in_domain", "feasible_in_domain")

    def test_same_object_on_repeat_calls(self):
        inst = basic_instance()
        for name in self.DERIVED:
            kept = getattr(inst, name)()
            assert getattr(inst, name)() is kept

    def test_multiplier_cone_built_once(self, monkeypatch):
        # check_existence and the dual criterion each built it twice, once
        # inside certificate_cone and once directly
        inst = basic_instance()
        built = []
        image = sets.linear_image

        def counted(s, M):
            built.append(M)
            return image(s, M)

        monkeypatch.setattr(sets, "linear_image", counted)
        engine.check_existence(inst)
        engine.check_dual_criterion(inst, n_random=2)
        assert len(built) == 1
        assert engine.multiplier_cone(inst) is engine.multiplier_cone(inst)

    def test_second_emptiness_check_solves_nothing(self, count_phase1):
        inst = basic_instance()
        for p in (inst.preimage_polyhedron(), inst.feasible_polyhedron()):
            _, runs = count_phase1(p.is_empty)
            assert runs == 1
            assert count_phase1(p.is_empty) == (False, 0)
        # the constructor already solved the ground's emptiness
        assert count_phase1(inst.ground_in_domain().is_empty) == (False, 0)

    def test_ground_in_domain(self):
        inst = basic_instance()
        assert inst.ground_in_domain() is inst.ground
        dom = Polyhedron(dim=2, G=[[1, 1]], h=[1], E=[], e=[])
        restricted = FarkasInstance(
            ground=unit_square(), matrix=inst.matrix, target=inst.target,
            objective=PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[0],
                                      domain=dom))
        assert restricted.ground_in_domain() == \
            restricted.ground.intersect(dom)

    def test_feasible_in_domain(self, count_phase1):
        inst = basic_instance()
        assert inst.feasible_in_domain() is inst.feasible_polyhedron()
        dom = Polyhedron(dim=2, G=[[1, 1]], h=[1], E=[], e=[])

        def restricted():
            return FarkasInstance(
                ground=unit_square(), matrix=inst.matrix, target=inst.target,
                objective=PiecewiseAffine(dim=2, slopes=[[1, 1]],
                                          offsets=[0], domain=dom))

        r = restricted()
        meet = r.feasible_in_domain()
        assert meet == r.feasible_polyhedron().intersect(dom)
        assert count_phase1(meet.is_empty) == (False, 1)
        # the restricted conjugate epigraph reads the kept emptiness
        _, runs = count_phase1(engine.restricted_epigraph, r)
        assert runs == 0
        # counted with the instance's construction: 18 when the dual
        # criterion built and solved the meet twice
        _, runs = count_phase1(
            lambda: engine.check_dual_criterion(restricted(), n_random=2))
        assert runs <= 17

    def test_minimum_is_kept_and_tilts_drop_it(self, count_phase1):
        inst = basic_instance(offset=-1)
        assert not inst.feasible_polyhedron().is_empty()
        best, runs = count_phase1(inst.minimum)
        assert runs == 1 and count_phase1(inst.minimum) == (best, 0)
        rep, runs = count_phase1(engine.check_nonnegativity, inst)
        assert runs == 0 and rep.minimum == best.value == Q(-1)
        primal, runs = count_phase1(duality.solve_primal, inst)
        assert runs == 0 and primal.value == Q(-1)
        assert primal.point == best.point
        # the witness and the point are copies: changing them leaves the
        # kept minimum alone
        rep.witness[0] = primal.point[0] = Q(7)
        assert inst.minimum().point == [ZERO, ZERO]
        twin = tilted(inst, [Q(1), Q(2)], Q(1))
        assert twin.minimum() == calculus.minimize_over(
            twin.objective, twin.feasible_polyhedron())
        assert twin.minimum().value == Q(-3)
        assert inst.minimum() is best

    def test_stable_pass_leaves_the_kept_minimum_alone(self):
        # the tilts posed on the kept epigraph system move neither it nor
        # the kept minimum
        inst = FarkasInstance(
            ground=Box([(1, 2), (1, 3)]).to_polyhedron(),
            matrix=[[1, 0], [1, 1]], target=Box([(0, 2), (0, 4)]),
            objective=PiecewiseAffine(dim=2, slopes=[[1, 1], [2, -1]],
                                      offsets=[0, 1]))
        best = inst.minimum()
        kept = repr(best)
        system = inst.epigraph_system()
        duality.check_stable_strong_duality(inst, seed=2)
        assert inst.epigraph_system() is system
        assert inst.minimum() is best and repr(best) == kept

    def test_checks_share_the_kept_sets(self, count_phase1):
        # counted with the instance's construction: 20 and 13 phase-1 runs
        # when every check rebuilt these sets and solved their emptiness
        # LPs again, 17 when the strong-duality check solved the minimum
        # that the nonnegativity check had solved
        def primal_existence_duality():
            inst = basic_instance()
            engine.check_primal_criterion(inst)
            engine.check_existence(inst)
            duality.check_strong_duality(inst)

        # 14 when the scale LP and both cone memberships ran an LP each
        # and the preimage's emptiness LP ran although the feasible set
        # had a point; 10 once their candidates answer
        _, runs = count_phase1(primal_existence_duality)
        assert runs <= 10
        # 11 when a domain-free objective solved the reduced certificate
        # program a second time as the full one
        _, runs = count_phase1(
            lambda: engine.check_reduced_criterion(basic_instance()))
        assert runs <= 8


def _candidate_families():
    """(family, instance) pairs, seeded: the certify workload's two
    generators (whose objectives may have a domain), grids, polyhedral
    targets with an equality row, and two hand-built infeasible
    instances, one with an empty preimage."""
    rng = random.Random(3030)
    for _ in range(30):
        yield "certify", random_feasible_instance(rng)
        yield "certify", random_infeasible_instance(rng)
        yield "grid", random_grid(rng)
        inst = random_feasible_instance(rng)
        yield "polyhedral", FarkasInstance(
            ground=inst.ground, matrix=inst.matrix,
            target=with_equality_row(inst.target_polyhedron()),
            objective=inst.objective)
    yield "hand", vacuous_no_cert()
    yield "hand", vacuous_with_cert()


def _candidates(inst):
    """The three candidates of the primal criterion and the existence
    check, each with the program it stands in for and that program's set
    and point, and the nonnegativity report the scale candidate is read
    from."""
    rep = engine.check_nonnegativity(inst)
    probe = [ZERO] * (inst.n + inst.m) + [-ONE]
    depth = [ZERO] * inst.n + [-ONE]
    residual = engine.decoupled_residual_epigraph(inst)
    certificates = engine.certificate_cone(inst)
    multipliers = engine.multiplier_cone(inst)
    return rep, [
        ("scale", engine._scale_candidate(inst, rep),
         sets.scale_program(residual, probe), residual, probe),
        ("certificate cone",
         engine._certificate_cone_candidate(inst, certificates),
         sets.membership_program(certificates, depth), certificates, depth),
        ("multiplier cone",
         engine._multiplier_cone_candidate(inst, multipliers),
         sets.membership_program(multipliers, depth), multipliers, depth)]



class TestCandidates:
    def test_candidates_verify_and_match_the_lp_route(self):
        # every candidate is a proof, checked by the kernel's substitution
        # and by the test oracle, and the checks it answers report what
        # the LPs report with no candidate
        seen = set()
        for family, inst in _candidate_families():
            rep, candidates = _candidates(inst)
            for name, out, program, _, _ in candidates:
                if out is None:
                    # only the scale question of a vacuous statement
                    assert name == "scale" and rep.minimum is INF
                    seen.add((name, "none"))
                    continue
                assert lp.verify_certificate(program, out), (family, name)
                assert certifies_outcome(program, out), (family, name)
                seen.add((name, out.status))
            if rep.minimum is NEG_INF:
                seen.add(("scale", "from an unbounded minimum"))
            seen.add(family)
            n, m = inst.n, inst.m
            report = engine.check_primal_criterion(inst)
            assert (report.details["probe_in_cone"],
                    report.details["probe_in_closure"]) == (
                sets.cone_closed_regarding(
                    engine.decoupled_residual_epigraph(inst),
                    [ZERO] * (n + m) + [-ONE]))
            depth = [ZERO] * n + [-ONE]
            fresh = FarkasInstance(ground=inst.ground, matrix=inst.matrix,
                                   target=inst.target,
                                   objective=inst.objective)
            assert engine.check_existence(inst) == engine.ExistenceReport(
                feasible=not sets.member(engine.certificate_cone(inst),
                                         depth),
                point=fresh.feasible_polyhedron().a_point(),
                preimage_nonempty=not sets.member(
                    engine.multiplier_cone(inst), depth))
        assert seen == {
            "certify", "grid", "polyhedral", "hand",
            ("scale", lp.UNBOUNDED), ("scale", lp.INFEASIBLE),
            ("scale", "none"), ("scale", "from an unbounded minimum"),
            ("certificate cone", lp.INFEASIBLE),
            ("certificate cone", lp.OPTIMAL),
            ("multiplier cone", lp.INFEASIBLE),
            ("multiplier cone", lp.OPTIMAL)}

    def test_substitution_checks_agree_with_the_kernel_verifier(self):
        # each candidate, and each mutation of a field its answer reads,
        # gets the same verdict from the integer check on the set's own
        # rows as from lp.verify_certificate, and from the test oracle, on
        # the program it replaces
        checks = {"scale": (sets._proves_scale, SCALE_FIELDS),
                  "certificate cone": (sets._proves_membership,
                                       MEMBERSHIP_FIELDS),
                  "multiplier cone": (sets._proves_membership,
                                      MEMBERSHIP_FIELDS)}
        seen = set()
        for _, inst in _candidate_families():
            _, candidates = _candidates(inst)
            for name, out, program, s, z in candidates:
                if out is None:
                    continue
                proves, fields = checks[name]
                assert proves(s, z, out)
                for field, bad in mutations(out, fields):
                    verdict = lp.verify_certificate(program, bad)
                    assert proves(s, z, bad) == verdict, (name, field)
                    assert certifies_outcome(program, bad) == verdict
                    seen.add((name, out.status, verdict))
        assert {(name, status) for name, status, _ in seen} == {
            ("scale", lp.UNBOUNDED), ("scale", lp.INFEASIBLE),
            ("certificate cone", lp.INFEASIBLE),
            ("certificate cone", lp.OPTIMAL),
            ("multiplier cone", lp.INFEASIBLE),
            ("multiplier cone", lp.OPTIMAL)}
        assert {verdict for *_, verdict in seen} == {True, False}

    def test_passing_candidates_build_no_program(self, monkeypatch):
        # a candidate that passes answers its cone question with no
        # lp.LinearProgram built, no phase 1 run and no
        # lp.verify_certificate: a profile hook counts those calls into
        # lp.py made inside sets.member and sets.cone_closed_regarding
        counted = collections.Counter()

        def hook(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_filename == lp.__file__
                    and code.co_name in ("__post_init__", "phase1",
                                         "verify_certificate")):
                counted[code.co_name] += 1

        def counting(check):
            def run(s, p, candidate=None, layout=""):
                assert candidate is not None
                counted["questions"] += 1
                previous = sys.getprofile()
                sys.setprofile(hook)
                try:
                    return check(s, p, candidate, layout)
                finally:
                    sys.setprofile(previous)
            return run

        for name in ("member", "cone_closed_regarding"):
            monkeypatch.setattr(sets, name, counting(getattr(sets, name)))
        rng = random.Random(3535)
        feasible = set()
        for inst in (random_feasible_instance(rng),
                     random_feasible_instance(rng),
                     random_infeasible_instance(rng)):
            if not inst.feasible_polyhedron().is_empty():
                # the vacuous scale question has no candidate
                engine.check_primal_criterion(inst)
            feasible.add(engine.check_existence(inst).feasible)
        assert counted == {"questions": 8}
        assert feasible == {True, False}

    @pytest.mark.parametrize("builder, check, layout", [
        ("_scale_candidate", engine.check_primal_criterion,
         "scale candidate"),
        ("_certificate_cone_candidate", engine.check_existence,
         "certificate cone's candidate"),
        ("_multiplier_cone_candidate", engine.check_existence,
         "multiplier cone's candidate")])
    def test_spoiled_candidate_with_an_honest_lp_raises(
            self, monkeypatch, builder, check, layout):
        # the LP then reaches the status the candidate claimed, so its
        # answer was right and its proof wrong: the layout alarm
        build = getattr(engine, builder)
        monkeypatch.setattr(engine, builder,
                            lambda *args: spoiled(build(*args)))
        for inst in (basic_instance(), basic_instance(offset=-1),
                     vacuous_no_cert(), vacuous_with_cert()):
            if builder == "_scale_candidate" and inst.feasible_polyhedron(
                    ).is_empty():
                continue  # the vacuous scale question has no candidate
            with pytest.raises(InvariantViolation,
                               match=f"^the {layout} .* the layout is wrong"):
                check(inst)

    def test_scale_candidate_cases_by_hand(self):
        # f = x1 + x2 + offset over the unit square, map (x1, x1 + x2):
        # columns (x, v, d, t), rows 1 piece, 4 ground, 4 target G rows
        rep = engine.check_nonnegativity(basic_instance(offset=-1))
        out = engine._scale_candidate(basic_instance(offset=-1), rep)
        # the minimizer y = 0, f(y) = -1: k = 1
        assert out.status == lp.UNBOUNDED and out.value is NEG_INF
        assert out.ray == [0, 0, 0, 0, 0, 0, 1] == out.x
        inst = basic_instance(offset=2)
        out = engine._scale_candidate(inst, engine.check_nonnegativity(inst))
        # theta = 1, and the minimum 2 is reached at 0, where the ground's
        # second and fourth rows, -x1 <= 0 and -x2 <= 0, carry the slope
        # (1, 1); the link v = x takes -(1, 1), the link d = map(x) 0
        assert out.status == lp.INFEASIBLE
        assert out.farkas_ineq == [1] + [0, 1, 0, 1] + [0] * 4
        assert out.farkas_eq == [-1, -1, 0, 0]

    def test_minimum_duals_cost_no_second_phase_2(self, phase2_costs):
        inst = basic_instance()
        engine.check_primal_criterion(inst)
        kept = inst.epigraph_system().program
        assert [c for p, c in phase2_costs if p is kept] == [
            tuple(kept.c)]


class TestInstanceValidation:
    def test_rejects_empty_ground(self):
        with pytest.raises(ValueError):
            FarkasInstance(
                ground=Polyhedron(dim=1, G=[[1], [-1]], h=[0, -1], E=[], e=[]),
                matrix=[[1]], target=Box([(0, 1)]),
                objective=plain([[1]], [0]))

    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            FarkasInstance(
                ground=whole_line(), matrix=[[1]],
                target=Polyhedron(dim=1, G=[[1], [-1]], h=[0, -1], E=[], e=[]),
                objective=plain([[1]], [0]))

    def test_rejects_a_target_of_another_kind(self):
        # [0, 1] as the image of the segment {w : 0 <= w <= 1} under z = w:
        # a lifted set with a witness column, which is no Polyhedron
        segment = sets.LiftedSet(dim=1, witness_dim=1,
                                 G=[[0, 1], [0, -1]], h=[1, 0],
                                 E=[[1, -1]], e=[0])
        with pytest.raises(ValueError) as caught:
            FarkasInstance(ground=whole_line(), matrix=[[1]], target=segment,
                           objective=plain([[1]], [0]))
        assert str(caught.value) == "target must be a Box or a Polyhedron"

    def test_rejects_a_ground_of_another_kind(self):
        # the segment [0, 2] as the image of the unit square under [1, 1]
        # has witness columns, and a box has no rows of its own: neither
        # is a Polyhedron, which every check reads the ground as
        segment = sets.linear_image(Box([(0, 1), (0, 1)]).to_polyhedron(),
                                    [[1, 1]])
        for ground in (segment, Box([(0, 2)])):
            with pytest.raises(ValueError) as caught:
                FarkasInstance(ground=ground, matrix=[[1]],
                               target=Box([(0, 1)]),
                               objective=plain([[1]], [0]))
            assert str(caught.value) == "ground must be a Polyhedron"

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FarkasInstance(
                ground=whole_line(), matrix=[[1, 2]], target=Box([(0, 1)]),
                objective=plain([[1]], [0]))
        with pytest.raises(ValueError):
            FarkasInstance(
                ground=whole_line(), matrix=[[1]], target=Box([(0, 1)]),
                objective=plain([[1, 1]], [0]))


small_int = st.integers(min_value=-2, max_value=2)


def _random_instance(draw, n, m):
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


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    m = draw(st.integers(min_value=1, max_value=2))
    return _random_instance(draw, n, m)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_random_instances_stay_consistent(inst):
    # every forced agreement inside the checks would raise on violation
    rep1 = engine.check_primal_criterion(inst)
    rep2 = engine.check_reduced_criterion(inst)
    assert rep1.verdict == rep2.verdict == "consistent"
    assert (rep1.certificate is None) == (rep2.certificate is None)
    engine.check_existence(inst)
    if not inst.feasible_polyhedron().is_empty():
        rep3 = engine.check_dual_criterion(inst, n_random=2, seed=11)
        assert rep3.criterion_holds


@settings(max_examples=25, deadline=None)
@given(instances())
def test_random_certificates_bound_the_objective(inst):
    cert = engine.find_certificate(inst)
    if cert is None:
        rep = engine.check_nonnegativity(inst)
        assert rep.verdict is not TriVerdict.TRUE or rep.minimum is INF
    else:
        rep = engine.check_nonnegativity(inst)
        assert rep.verdict.holds
