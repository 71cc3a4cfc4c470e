"""Geometry layer: membership, supports, sums, images, conic hulls.

Reference values are hand computations on small figures (a triangle, unit
boxes, a shifted segment) so every assertion is checkable by hand.
"""

import copy
import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from farkaskit import calculus, engine, instances, lp, sets
from farkaskit.errors import InvariantViolation
from farkaskit.rational import INF, NEG_INF, Q, ZERO

from oracles import (MEMBERSHIP_FIELDS, SCALE_FIELDS, certifies_empty,
                     certifies_outcome, cone_two_lps, mutations,
                     satisfies_rows)


def triangle_poly():
    # conv{(0,0), (2,0), (0,2)}:  x >= 0, y >= 0, x + y <= 2
    return sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1], [1, 1]], h=[0, 0, 2])


def triangle_gen():
    return sets.GeneratedSet(dim=2, points=[[0, 0], [2, 0], [0, 2]])


class TestMembership:
    def test_triangle_contains_interior_point(self):
        s = triangle_poly()
        assert sets.member(s, [Q(1, 2), Q(1, 2)])

    def test_triangle_contains_vertices(self):
        s = triangle_poly()
        for v in ([0, 0], [2, 0], [0, 2]):
            assert sets.member(s, v)

    def test_triangle_excludes_outside_point(self):
        s = triangle_poly()
        assert not sets.member(s, [2, 1])
        assert not sets.member(s, [-1, 0])

    def test_generated_triangle_matches_h_form(self):
        lifted = sets.as_lifted(triangle_gen())
        for p in ([Q(1, 2), Q(1, 2)], [0, 0], [2, 0], [1, 1]):
            assert sets.member(lifted, p)
        for p in ([2, 1], [Q(-1, 7), 0], [0, Q(9, 4)]):
            assert not sets.member(lifted, p)

    def test_empty_set_has_no_members(self):
        s = sets.empty_set(3)
        assert s.is_empty()
        assert not sets.member(s, [0, 0, 0])
        assert s.a_point() is None

    def test_whole_space_has_all_members(self):
        s = sets.whole_space(2)
        assert not s.is_empty()
        assert sets.member(s, [Q(-31, 7), Q(10, 3)])

    def test_a_point_of_returns_a_member(self):
        s = triangle_poly()
        p = s.a_point()
        assert p is not None and sets.member(s, p)

    def test_dimension_mismatch_is_rejected(self):
        s = triangle_poly()
        with pytest.raises(ValueError):
            sets.member(s, [1, 2, 3])

    def test_intersect_keeps_row_order(self):
        band = sets.Polyhedron(dim=2, G=[[1, 0]], h=[1], E=[[0, 1]], e=[1])
        meet = triangle_poly().intersect(band)
        assert meet.G == [[-1, 0], [0, -1], [1, 1], [1, 0]]
        assert meet.h == [0, 0, 2, 1]
        assert meet.E == [[0, 1]] and meet.e == [1]
        assert meet.contains([1, 1]) and not meet.contains([Q(3, 2), 0])

    def test_intersect_with_whole_space_is_the_set(self):
        tri = triangle_poly()
        assert tri.intersect(None) is tri


class TestSupport:
    def test_triangle_supports(self):
        s = triangle_poly()
        assert sets.support(s, [1, 1]) == Q(2)
        assert sets.support(s, [1, 0]) == Q(2)
        assert sets.support(s, [-1, -1]) == Q(0)
        assert sets.support(s, [1, -1]) == Q(2)
        assert sets.support(s, [-3, -5]) == Q(0)

    def test_unbounded_direction_gives_inf(self):
        # {x >= 1} in one dimension
        s = sets.Polyhedron(dim=1, G=[[-1]], h=[-1])
        assert sets.support(s, [1]) is INF
        assert sets.support(s, [-1]) == Q(-1)

    def test_empty_set_support_is_neg_inf(self):
        assert sets.support(sets.empty_set(2), [1, 0]) is NEG_INF

    def test_whole_space_support(self):
        s = sets.whole_space(2)
        assert sets.support(s, [0, 0]) == Q(0)
        assert sets.support(s, [1, 0]) is INF

    def test_supports_negate_no_direction_entry(self, monkeypatch):
        # sup d.z is min -d.z negated; the directions are negated as the
        # kernel's integers, and each value is read off the kernel's
        # integers with the other sign, so no Fraction is negated (each
        # direction's entries were negated before, and then each finite
        # value, one per direction)
        s = triangle_poly()
        dirs = sets.probe_directions(2, n_random=6, seed=3)
        want = [sets.support(s, d) for d in dirs]
        negations = []
        neg = Q.__neg__

        def counted(x):
            negations.append(x)
            return neg(x)

        monkeypatch.setattr(Q, "__neg__", counted)
        assert sets.supports(s, dirs) == want
        assert negations == []

    def test_box_support_closed_form_matches_lp(self):
        box = sets.Box(bounds=[(-1, 2), (0, 3), (Q(1, 2), Q(1, 2))])
        lifted = box.to_polyhedron()
        for d in sets.probe_directions(3, n_random=6, seed=11):
            assert box.support(d) == sets.support(lifted, d)

    def test_box_support_hand_value(self):
        box = sets.Box(bounds=[(-1, 2), (0, 3)])
        # d = (2, -5): 2*hi1 + (-5)*lo2 = 4 + 0 = 4
        assert box.support([2, -5]) == Q(4)
        assert box.support([-1, 1]) == Q(4)


def recedes(s, d):
    """Whether d is a recession direction of the nonempty set S, as
    `contains_generated` decides it for a point of S plus the ray d."""
    ray = sets.GeneratedSet(dim=s.dim, points=[s.a_point()], rays=[d])
    return sets.contains_generated(s, ray)


class TestRecession:
    def test_recession_of_shifted_quadrant(self):
        # {x >= 1, y >= 2}: recession cone is the nonnegative quadrant
        s = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1]], h=[-1, -2])
        assert recedes(s, [1, 0])
        assert recedes(s, [3, 7])
        assert recedes(s, [0, 0])
        assert not recedes(s, [-1, 0])

    def test_bounded_set_recession_is_origin_only(self):
        s = triangle_poly()
        assert recedes(s, [0, 0])
        assert not recedes(s, [1, 0])

    def test_generated_ray_is_recession_direction(self):
        g = sets.GeneratedSet(dim=2, points=[[1, 1]], rays=[[1, 2]])
        s = sets.as_lifted(g)
        assert recedes(s, [1, 2])
        assert recedes(s, [Q(1, 2), 1])
        assert not recedes(s, [1, 0])


class TestMinkowskiAndImages:
    def test_sum_of_unit_boxes(self):
        box = sets.Box(bounds=[(0, 1), (0, 1)]).to_polyhedron()
        s = sets.minkowski_sum(box, box)
        assert sets.member(s, [2, 2])
        assert sets.member(s, [Q(3, 2), 0])
        assert not sets.member(s, [Q(9, 4), 2])
        assert sets.support(s, [1, 1]) == Q(4)
        assert sets.support(s, [-1, 0]) == Q(0)

    def test_sum_with_point_equals_translate(self):
        tri = triangle_poly()
        point = sets.as_lifted(sets.GeneratedSet(dim=2, points=[[1, -1]]))
        summed = sets.minkowski_sum(tri, point)
        # conv{(1,-1), (3,-1), (1,1)}: the triangle moved by (1, -1)
        shifted = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1], [1, 1]],
                                  h=[-1, 1, 2])
        dirs = sets.probe_directions(2, n_random=4, seed=3)
        assert sets.support_mismatches(summed, shifted, dirs) == []
        assert sets.member(summed, [1, -1]) and sets.member(shifted, [1, -1])
        assert not sets.member(summed, [0, 0])

    def test_sum_with_empty_is_empty(self):
        tri = triangle_poly()
        s = sets.minkowski_sum(tri, sets.empty_set(2))
        assert s.is_empty()

    def test_projection_of_triangle(self):
        s = sets.linear_image(triangle_poly(), [[1, 1]])
        assert sets.member(s, [2])
        assert sets.member(s, [0])
        assert not sets.member(s, [Q(5, 2)])
        assert sets.support(s, [1]) == Q(2)
        assert sets.support(s, [-1]) == Q(0)

    def test_embedding_image(self):
        # x |-> (x1, x2, x1 + x2) of the triangle
        s = sets.linear_image(triangle_poly(), [[1, 0], [0, 1], [1, 1]])
        assert sets.member(s, [1, 0, 1])
        assert not sets.member(s, [1, 0, 0])
        assert sets.support(s, [0, 0, 1]) == Q(2)

    def test_image_of_empty_is_empty(self):
        s = sets.linear_image(sets.empty_set(2), [[1, 1]])
        assert s.is_empty()


def in_cone(s, p):
    """Whether p is in R+ S itself, as `cone_closed_regarding` reports."""
    strict, _ = sets.cone_closed_regarding(s, p)
    return strict


def in_closure(s, p):
    """Whether p is in cl(R+ S), as `cone_closed_regarding` reports."""
    _, closed = sets.cone_closed_regarding(s, p)
    return closed


class TestConicHull:
    def test_cone_of_segment(self):
        # segment x = 1, 0 <= y <= 1; closed conic hull is {0 <= y <= x}
        seg = sets.Polyhedron(dim=2, G=[[0, -1], [0, 1]], h=[0, 1],
                              E=[[1, 0]], e=[1])
        assert in_closure(seg, [0, 0])
        assert in_closure(seg, [3, 3])
        assert in_closure(seg, [5, 2])
        assert not in_closure(seg, [1, 2])
        assert not in_closure(seg, [-1, 0])
        assert in_cone(seg, [2, 1])
        assert in_cone(seg, [0, 0])

    def test_half_open_cone_from_horizontal_line(self):
        # line y = 1: conic hull is the open upper half plane plus the origin;
        # its closure also holds the whole x-axis
        line = sets.Polyhedron(dim=2, E=[[0, 1]], e=[1])
        assert in_cone(line, [4, 2])
        assert in_cone(line, [0, 0])
        assert not in_cone(line, [1, 0])
        assert in_closure(line, [1, 0])
        assert not in_closure(line, [0, -1])
        assert [sets.cone_closed_regarding(line, p)
                for p in ([1, 0], [4, 2], [0, -1])] == [
            (False, True), (True, True), (False, False)]

    def test_cone_of_empty_set_is_empty(self):
        # a cone is empty iff it misses the origin
        assert not in_closure(sets.empty_set(2), [0, 0])
        assert not in_cone(sets.empty_set(2), [0, 0])

    def test_cone_strict_unbounded_scale(self):
        # quadrant through the probe: any positive multiple works
        quad = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1]], h=[0, 0])
        assert in_cone(quad, [1, 1])

    def test_closed_regarding_never_contradicts(self):
        tri = triangle_poly()
        for p in sets.probe_directions(2):
            strict, closed = sets.cone_closed_regarding(tri, p)
            assert closed or not strict

    def test_one_lp_per_point_two_when_closure_only(self, count_phase1):
        def line():
            return sets.Polyhedron(dim=2, E=[[0, 1]], e=[1])

        kept = line()
        # [1, 0] asks the scale LP and then the emptiness LP, which the set
        # keeps: the origin before it has solved it, so it runs only the
        # scale LP here, and both on a set of its own
        for p, answer, runs in (([4, 2], (True, True), 1),
                                ([0, -1], (False, False), 1),
                                ([0, 0], (True, True), 1),
                                ([1, 0], (False, True), 1)):
            assert count_phase1(sets.cone_closed_regarding, kept, p) == (
                answer, runs)
        assert count_phase1(sets.cone_closed_regarding, line(), [1, 0]) == (
            (False, True), 2)
        with pytest.raises(ValueError):
            sets.cone_closed_regarding(kept, [1])

    def test_tampered_scale_lp_raises(self, tamper_scale_lp):
        line = sets.Polyhedron(dim=2, E=[[0, 1]], e=[1])
        with pytest.raises(InvariantViolation, match="scale LP"):
            sets.cone_closed_regarding(line, [4, 2])
        # the origin asks only the emptiness LP, which goes untampered
        assert sets.cone_closed_regarding(line, [0, 0]) == (True, True)


def _random_lifted(rng, kinds):
    """A small seeded LiftedSet with entries in -2..2, noting in `kinds`
    which of its features the oracle test requires."""
    dim = rng.randint(1, 3)
    if rng.random() < 0.05:
        kinds.add("empty")
        return sets.empty_set(dim)
    wd = rng.randint(0, 2)
    nonneg = [rng.random() < 0.5 for _ in range(wd)]
    kinds.update("nonneg witness" if f else "free witness" for f in nonneg)

    def rows(count, width):
        return [[rng.randint(-2, 2) for _ in range(width)]
                for _ in range(count)]

    def joint(count):  # rows over (z, w), the z parts drawn first
        z_parts = rows(count, dim)
        return [rz + rw for rz, rw in zip(z_parts, rows(count, wd))]

    mG, mE = rng.randint(0, 3), rng.randint(0, 1 + (rng.random() < 0.3))
    if mE:
        kinds.add("equality rows")
    s = sets.LiftedSet(dim=dim, witness_dim=wd,
                       G=joint(mG), h=[rng.randint(-2, 2) for _ in range(mG)],
                       E=joint(mE), e=[rng.randint(-2, 2) for _ in range(mE)],
                       witness_nonneg=nonneg)
    if s.is_empty():
        kinds.add("empty")
    return s


def test_scale_lp_matches_the_two_lp_reference(monkeypatch):
    verify = lp.verify_certificate

    def checked(program, out):
        assert certifies_outcome(program, out)
        return verify(program, out)

    monkeypatch.setattr(lp, "verify_certificate", checked)
    rng = random.Random(20261019)
    kinds, answers = set(), set()
    for _ in range(1000):
        s = _random_lifted(rng, kinds)
        points = [[0] * s.dim] + [[rng.randint(-2, 2) for _ in range(s.dim)]
                                  for _ in range(2)]
        for p in points:
            answer = sets.cone_closed_regarding(s, p)
            assert answer == cone_two_lps(s, p)
            answers.add(answer)
    assert kinds == {"empty", "free witness", "nonneg witness",
                     "equality rows"}
    assert answers == {(False, False), (True, True), (False, True)}


class TestGeneratedContainment:
    def test_generated_inside_its_own_h_form(self):
        assert sets.contains_generated(triangle_poly(), triangle_gen())

    def test_extra_ray_breaks_containment(self):
        g = sets.GeneratedSet(dim=2, points=[[0, 0]], rays=[[1, 0]])
        assert not sets.contains_generated(triangle_poly(), g)

    def test_outside_point_breaks_containment(self):
        g = sets.GeneratedSet(dim=2, points=[[0, 0], [3, 0]])
        assert not sets.contains_generated(triangle_poly(), g)

    def test_pointless_generated_set_is_contained_everywhere(self):
        g = sets.GeneratedSet(dim=2, rays=[[1, 0]])
        assert sets.contains_generated(sets.empty_set(2), g)
        assert sets.as_lifted(g).is_empty()

    def test_ray_containment_in_unbounded_set(self):
        quad = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1]], h=[0, 0])
        g = sets.GeneratedSet(dim=2, points=[[1, 1]], rays=[[2, 3], [0, 1]])
        assert sets.contains_generated(quad, g)


PROBE_DIRECTIONS = ("bf6fe3fc0cc689ec91dcd21e91087338"
                    "50f4689dd98dfc44106e5a8ae1782d5d")


class TestProbesAndBoxes:
    def test_probe_grid_size_dim2(self):
        dirs = sets.probe_directions(2)
        assert len(dirs) == 8
        assert [1, 0] in [[int(a), int(b)] for a, b in dirs]

    def test_probe_grid_with_random_extras(self):
        dirs = sets.probe_directions(3, n_random=5, seed=7)
        assert len(dirs) >= 18
        assert len({tuple(d) for d in dirs}) == len(dirs)
        assert dirs == sets.probe_directions(3, n_random=5, seed=7)

    def test_probe_directions_match_recorded_hash(self):
        # the directions, their order and their duplicates skipped, as
        # drawn when the draws were told apart by their `Q` entries; dim 1
        # has 6 nonzero draws, so most of its 200 are duplicates
        draws = [sets.probe_directions(dim, n_random=count, seed=seed)
                 for dim in (1, 2, 3, 4)
                 for count, seed in ((0, 0), (8, 3), (50, 11), (200, 7))]
        assert sum(map(len, draws)) == 765
        assert all(type(v) is Q for draw in draws for direction in draw
                   for v in direction)
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == \
            PROBE_DIRECTIONS

    @pytest.mark.parametrize("dim", [0, -1])
    def test_probe_directions_below_dimension_one_raise(self, dim):
        # every draw below dimension 1 is the empty vector, which is never
        # kept, so drawing one would not end
        for count in (0, 1):
            with pytest.raises(ValueError, match="dimension >= 1"):
                sets.probe_directions(dim, n_random=count)

    def test_negative_random_count_raises(self):
        # a negative count used to draw nothing, silently
        with pytest.raises(ValueError, match="random directions must be"):
            sets.probe_directions(2, n_random=-4)
        assert len(sets.probe_directions(2, n_random=0)) == 8

    def test_support_mismatch_detects_difference(self):
        tri = triangle_poly()
        box = sets.Box(bounds=[(0, 2), (0, 2)]).to_polyhedron()
        bad = sets.support_mismatches(tri, box, [[1, 1], [1, 0]])
        assert bad == [([Q(1), Q(1)], Q(2), Q(4))]
        sets.require_equal_supports(tri, tri, [[1, 1], [1, 0]], "same")
        with pytest.raises(InvariantViolation,
                           match=r"^triangle vs box: support 2 vs 4 along"):
            sets.require_equal_supports(tri, box, [[1, 0], [1, 1]],
                                        "triangle vs box")

    def test_box_validation(self):
        with pytest.raises(ValueError):
            sets.Box(bounds=[(1, 0)])
        with pytest.raises(ValueError):
            sets.Box(bounds=[(0, 1, 2)])

    def test_degenerate_box_is_a_point(self):
        box = sets.Box(bounds=[(Q(1, 3), Q(1, 3))])
        assert box.contains([Q(1, 3)])
        assert not box.contains([Q(1, 2)])
        assert box.support([6]) == Q(2)

    def test_pullback_row_order(self):
        # each bound gives row <= hi, then -row <= -lo; the identity map
        # gives the box's own polyhedron
        box = sets.Box(bounds=[(-1, 2), (0, 3)])
        p = box.pullback([[1, 1], [2, -1]], 2)
        assert p.G == [[1, 1], [-1, -1], [2, -1], [-2, 1]]
        assert p.h == [2, 1, 3, 0]
        assert p.contains([1, 1]) and not p.contains([2, 1])
        assert box.to_polyhedron() == box.pullback([[1, 0], [0, 1]], 2)
        with pytest.raises(ValueError):
            box.pullback([[1, 1]], 2)


def test_polyhedron_solves_its_point_once(count_phase1):
    tri = triangle_poly()
    point, runs = count_phase1(tri.a_point)
    assert runs == 1 and tri.contains(point)
    assert count_phase1(tri.is_empty) == (False, 0)
    point[0] += 5  # the caller's own list, not the kept point
    again, runs = count_phase1(tri.a_point)
    assert runs == 0 and tri.contains(again)
    empty = sets.Polyhedron(dim=1, G=[[1], [-1]], h=[0, -1])
    assert count_phase1(empty.a_point) == (None, 1)
    assert count_phase1(empty.is_empty) == (True, 0)
    assert count_phase1(copy.deepcopy(empty).is_empty) == (True, 0)


def test_polyhedron_keeps_its_emptiness_proof(count_phase1):
    # the kept outcome is the emptiness LP's, a point or a Farkas pair
    # over the rows, and a second reading solves nothing
    for p in (triangle_poly(),
              sets.Polyhedron(dim=2, G=[[1, 0], [-1, 0]], h=[0, -1],
                              E=[[1, 1]], e=[3])):
        program = lp.LinearProgram(c=[0] * p.dim, G=p.G, h=p.h, E=p.E,
                                   e=p.e)
        out, runs = count_phase1(p.emptiness)
        assert runs == 1 and lp.verify_certificate(program, out)
        assert count_phase1(p.emptiness) == (out, 0)
        assert (out.status == lp.INFEASIBLE) == p.is_empty()


def test_membership_and_scale_programs_are_the_swept_rows():
    # members poses membership_program's rows, and the scale LP is the
    # membership program of the homogenized set with the cost -t
    rng = random.Random(77)
    for _ in range(30):
        s = _random_lifted(rng, set())
        z = [Q(rng.randint(-2, 2)) for _ in range(s.dim)]
        if s.witness_dim:
            out = lp.solve(sets.membership_program(s, z))
            assert (out.status != lp.INFEASIBLE) == sets.member(s, z)
        if any(z):
            scale = sets.scale_program(s, z)
            assert scale.c == [0] * s.witness_dim + [-1]
            assert scale.nonneg == s.witness_nonneg + [True]
            out = lp.solve(scale)
            strict = out.status != lp.INFEASIBLE and out.value < 0
            assert strict == sets.cone_closed_regarding(s, z)[0]


def test_substitution_checks_agree_with_the_kernel_verifier():
    # the integer checks that answer a candidate without its program give
    # lp.verify_certificate's verdict on that program, and so does the
    # test oracle, on the LP's own outcomes and on every mutation of a
    # field the answer reads
    rng = random.Random(35)
    seen = set()
    for _ in range(150):
        s = _random_lifted(rng, set())
        z = [Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(s.dim)]
        checks = [("membership", sets.membership_program(s, z),
                   sets._proves_membership, MEMBERSHIP_FIELDS)]
        if any(z):
            checks.append(("scale", sets.scale_program(s, z),
                           sets._proves_scale, SCALE_FIELDS))
        for name, program, proves, fields in checks:
            out = lp.solve(program)
            assert certifies_outcome(program, out)
            assert proves(s, z, out) and lp.verify_certificate(program, out)
            for field, bad in mutations(out, fields):
                verdict = lp.verify_certificate(program, bad)
                assert proves(s, z, bad) == verdict, (name, field, bad)
                assert certifies_outcome(program, bad) == verdict
                seen.add((name, out.status, field, verdict))
    statuses = {(name, status) for name, status, _, _ in seen}
    assert statuses == {("membership", lp.OPTIMAL),
                        ("membership", lp.INFEASIBLE),
                        ("scale", lp.OPTIMAL), ("scale", lp.UNBOUNDED),
                        ("scale", lp.INFEASIBLE)}
    assert {verdict for *_, verdict in seen} == {True, False}


def test_an_unbounded_scale_candidate_must_carry_the_value_neg_inf():
    # the ray proves max t = +oo, and a finite value would read as t = 0:
    # outside the cone, although 2 is in it. The proof fails, and the LP
    # then reaches the candidate's status, so its layout is called wrong
    s = sets.Polyhedron(dim=1, G=[[-1]], h=[0])
    out = lp.solve(sets.scale_program(s, [2]))
    assert out.status == lp.UNBOUNDED and out.value is NEG_INF
    assert sets.cone_closed_regarding(s, [2], candidate=out,
                                      layout="x") == (True, True)
    with pytest.raises(InvariantViolation, match="^the x fails"):
        sets.cone_closed_regarding(
            s, [2], candidate=dataclasses.replace(out, value=ZERO),
            layout="x")


def test_a_candidate_does_not_excuse_a_wrong_width_point():
    s = sets.linear_image(sets.Polyhedron(dim=2, G=[[1, 1]], h=[1]),
                          [[1, 0]])
    witness = lp.LPOutcome(lp.OPTIMAL, x=[0, 0], value=ZERO, dual_ineq=[0],
                           dual_eq=[0])
    ray = lp.LPOutcome(lp.UNBOUNDED, x=[0, 0, 1], value=NEG_INF,
                       ray=[0, 0, 1])
    for z in ([0, 0], []):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            sets.member(s, z, witness, "x")
        with pytest.raises(ValueError, match="point dimension mismatch"):
            sets.cone_closed_regarding(s, z, ray, "x")


@st.composite
def small_generated(draw):
    dim = draw(st.integers(1, 3))
    coords = st.integers(-3, 3)
    points = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                           min_size=1, max_size=4))
    rays = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                         min_size=0, max_size=2))
    rays = [r for r in rays if any(v != 0 for v in r)]
    return sets.GeneratedSet(dim=dim, points=points, rays=rays)


class TestGeneratedProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_generated())
    def test_generators_are_members(self, g):
        s = sets.as_lifted(g)
        for p in g.points:
            assert sets.member(s, p)
        for r in g.rays:
            assert recedes(s, r)

    @settings(max_examples=60, deadline=None)
    @given(small_generated(), st.data())
    def test_support_dominates_generators(self, g, data):
        s = sets.as_lifted(g)
        d = data.draw(st.lists(st.integers(-2, 2), min_size=g.dim, max_size=g.dim))
        d = [Q(v) for v in d]
        sup = sets.support(s, d)
        for p in g.points:
            assert sup >= sum(a * b for a, b in zip(d, p))
        for r in g.rays:
            if sum(a * b for a, b in zip(d, r)) > 0:
                assert sup is INF

    @settings(max_examples=40, deadline=None)
    @given(small_generated())
    def test_midpoints_are_members(self, g):
        s = sets.as_lifted(g)
        p, q = g.points[0], g.points[-1]
        mid = [(a + b) / 2 for a, b in zip(p, q)]
        assert sets.member(s, mid)
        if g.rays:
            pushed = [a + 2 * r for a, r in zip(mid, g.rays[0])]
            assert sets.member(s, pushed)


def test_supports_run_phase_1_once(count_pivots):
    # the support sweep of a fixed cone: the image of a polyhedron's support
    # epigraph, whose equality rows start phase 1 on artificials
    p = sets.Polyhedron(dim=2, G=[[1, 2], [-3, 1], [1, -1], [0, -1]],
                        h=[4, 3, 2, 1])
    cone = sets.linear_image(calculus.support_epigraph(p),
                             [[2, -1, 0], [1, 3, 0], [0, 0, 1]])
    dirs = sets.probe_directions(3, n_random=50, seed=11)[:50]
    assert len(dirs) == 50
    values, swept = count_pivots(sets.supports, cone, dirs)
    # each single on a fresh copy of the cone, which keeps no sweep system
    singles = [count_pivots(sets.support, dataclasses.replace(cone), d)
               for d in dirs]
    assert values == [v for v, _ in singles]
    assert INF in values and Q(0) in values
    # a zero cost makes no phase-2 pivot, so this is one phase-1 run
    _, phase1 = count_pivots(cone.is_empty)
    per_direction = sum(n for _, n in singles)
    assert (phase1, swept, per_direction) == (6, 22, 442)
    # one phase 1, and fewer phase-2 pivots than one phase 2 per direction
    # (148 = 6 + 142 when each direction ran one): most directions are
    # decided by a ray or an optimal basis an earlier direction found
    assert swept < phase1 + sum(n - phase1 for _, n in singles)
    # the cone kept its sweep system, so a single now costs no pivot
    assert [count_pivots(sets.support, cone, d) for d in dirs] == \
        [(v, 0) for v in values]


def test_repeated_directions_cost_no_pivots(count_pivots):
    p = sets.Polyhedron(dim=2, G=[[1, 2], [-3, 1], [1, -1], [0, -1]],
                        h=[4, 3, 2, 1])
    cone = sets.linear_image(calculus.support_epigraph(p),
                             [[2, -1, 0], [1, 3, 0], [0, 0, 1]])
    dirs = sets.probe_directions(3, n_random=10, seed=11)
    repeated = dirs + dirs[::2] + [dirs[0]] * 3
    once, pivots = count_pivots(sets.supports, cone, dirs)
    again, pivots_again = count_pivots(sets.supports, cone, repeated)
    # the cone kept the system of its first sweep, whose rays and bases
    # decide every direction posed there
    assert (pivots, pivots_again) == (22, 0)
    assert again == once + once[::2] + [once[0]] * 3
    # on a fresh copy, which keeps no system, the repeats cost no pivot
    # beyond the distinct directions
    fresh = dataclasses.replace(cone)
    assert count_pivots(sets.supports, fresh, repeated) == (again, pivots)


def test_supports_checks_every_direction():
    s = sets.Polyhedron(dim=2, G=[[1, 0], [0, 1]], h=[1, 2])
    assert sets.supports(s, [[1, 0], [0, 1], [-1, 0]]) == [1, 2, INF]
    assert sets.supports(sets.empty_set(2), [[1, 0], [0, -1]]) == \
        [NEG_INF, NEG_INF]
    assert sets.supports(s, []) == []
    with pytest.raises(ValueError):
        sets.supports(s, [[1, 0], [1, 0, 0]])


def test_empty_witnessed_set_keeps_a_farkas_pair(count_phase1):
    # an empty set with witness columns: its kept emptiness outcome is a
    # Farkas pair over the lifted rows, which substitution checks, and a
    # fresh solve's bit for bit
    s = sets.linear_image(sets.empty_set(2), [[1, 2], [0, -1], [3, 1]])
    assert (s.dim, s.witness_dim) == (3, 2)
    out, runs = count_phase1(s.emptiness)
    assert out.status == lp.INFEASIBLE and runs == 1
    assert lp.verify_certificate(sets._joint_lp(s), out)
    assert out == lp.solve(sets._joint_lp(s))
    assert s.is_empty() and s.a_point() is None
    assert sets.supports(s, [[1, 0, 0], [0, 0, 0]]) == [NEG_INF, NEG_INF]


def _seeded_polyhedron(rng):
    """A polyhedron of dimension 1 to 3 with up to three inequality rows
    and at most one equality row, small integer or half-integer data."""
    n = rng.randint(1, 3)

    def rows(count):
        return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(count)]

    G, E = rows(rng.randint(0, 3)), rows(rng.randint(0, 1))
    return sets.Polyhedron(
        dim=n, G=G, h=[Q(rng.randint(-3, 5), rng.randint(1, 2)) for _ in G],
        E=E, e=[rng.randint(-2, 2) for _ in E])


def _sign(v):
    return (v > 0) - (v < 0)


def test_support_epigraph_polar_matches_its_lp(count_phase1):
    # a support epigraph is answered by its polyhedron's polar, with no
    # LP; the LP sweep of the same lifted rows, with nothing recorded,
    # gives the same value along every direction: for delta < 0, = 0
    # and > 0, on bounded and unbounded polyhedra, with equality rows
    rng = random.Random(29)
    seen, checked = set(), 0
    while checked < 60:
        p = _seeded_polyhedron(rng)
        if p.is_empty():
            continue
        checked += 1
        n = p.dim
        dirs = sets.probe_directions(n + 1, n_random=6,
                                     seed=rng.randrange(1000))
        dirs += [[Q(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n + 1)] for _ in range(6)]
        values, runs = count_phase1(sets.supports,
                                    calculus.support_epigraph(p), dirs)
        lifted = calculus._dual_epigraph(n, [], [p])
        pad = [ZERO] * lifted.witness_dim
        assert values == lp.System(sets._joint_lp(lifted)).maxima(
            [list(d) + pad for d in dirs])
        assert runs == 0
        seen.update((_sign(d[-1]), v) for d, v in zip(dirs, values))
        if p.E:
            seen.add("equality rows")
        if INF in sets.supports(p, sets.probe_directions(n)):
            seen.add("unbounded")
    assert seen == {"equality rows", "unbounded", (-1, ZERO), (-1, INF),
                    (0, ZERO), (0, INF), (1, INF)}


def _set_around(rng, point, ray, dim):
    """A seeded set over the columns of `point`, its first `dim` the z
    part and the rest the witness (a Polyhedron when there is none), whose
    rows hold at `point` and along `ray`: up to three inequality rows,
    each signed so that row . ray <= 0, with right-hand sides at or above
    row . point, and up to two equality rows through `point` and made
    orthogonal to `ray` by one fractional entry. A witness entry may be
    flagged only where `point` and `ray` are both >= 0."""
    width = len(point)
    k = next(j for j, v in enumerate(ray) if v)

    def dot(r, x):
        return sum((a * v for a, v in zip(r, x)), Q(0))

    def row():
        return [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(width)]

    G = [row() for _ in range(rng.randint(0, 3))]
    G = [[-a for a in r] if dot(r, ray) > 0 else r for r in G]
    E = [row() for _ in range(rng.randint(0, 2))]
    for r in E:
        r[k] -= dot(r, ray) / ray[k]
    h = [dot(r, point) + Q(rng.randint(0, 2), rng.randint(1, 2)) for r in G]
    e = [dot(r, point) for r in E]
    if width == dim:
        return sets.Polyhedron(dim=dim, G=G, h=h, E=E, e=e)
    flags = [point[j] >= 0 and ray[j] >= 0 and rng.random() < 0.7
             for j in range(dim, width)]
    return sets.LiftedSet(dim=dim, witness_dim=width - dim, G=G, h=h, E=E,
                          e=e, witness_nonneg=flags)


def _oracle_satisfied(s, x, d):
    """Whether the integer pair (x, d) meets S's rows and sign flags, by
    Fraction substitution: x / d into the rows at d > 0, x into the rows
    with zero right-hand sides at d = 0."""
    if len(x) != s.dim + s.witness_dim:
        return False
    if any(v < 0 for v, f in zip(x[s.dim:], s.witness_nonneg) if f):
        return False
    if d:
        return satisfies_rows(s.G, s.h, s.E, s.e, [Q(v, d) for v in x])
    return satisfies_rows(s.G, [0] * len(s.G), s.E, [0] * len(s.E), x)


def test_satisfied_matches_the_fraction_oracle():
    # the one integer row test against Fraction substitution, on polyhedra
    # and lifted sets with and without equality rows and with fractional
    # entries: at scale d > 0 (points) and d = 0 (recession directions),
    # at a point and a direction the rows hold for, at moved copies of
    # both, with a flagged witness entry below 0 and at a wrong width
    rng = random.Random(34)
    seen = set()
    for _ in range(120):
        dim, wd = rng.randint(1, 3), rng.randint(0, 2)
        scale = rng.choice([1, 2, 3, 6])
        x0 = [rng.randint(-4, 4) for _ in range(dim + wd)]
        ray = [rng.randint(-2, 2) for _ in range(dim + wd)]
        ray[rng.randrange(dim + wd)] = rng.choice([-1, 1])
        for j in range(dim, dim + wd):
            if rng.random() < 0.5:
                x0[j], ray[j] = abs(x0[j]), abs(ray[j])
        s = _set_around(rng, [Q(v, scale) for v in x0], ray, dim)
        pairs = [(x0, scale), (ray, 0)]
        for x, d in list(pairs):
            moved = list(x)
            moved[rng.randrange(len(x))] += rng.choice([-1, 1])
            pairs += [(moved, d), (x + [0], d), (x[:-1], d)]
            for j, flag in enumerate(s.witness_nonneg):
                if flag:
                    pairs.append((x[:dim + j] + [-1] + x[dim + j + 1:], d))
                    seen.add("flagged below 0")
        pairs += [([rng.randint(-3, 3) for _ in x0], rng.randint(0, 3))
                  for _ in range(4)]
        got = sets.satisfied(s, pairs)
        assert got == [_oracle_satisfied(s, x, d) for x, d in pairs]
        assert got[:2] == [True, True]
        seen.update(("scale 0" if d == 0 else "scale > 0", ok)
                    for (_, d), ok in zip(pairs, got))
        seen.add(type(s).__name__ + (" with equality rows" if s.E else ""))
        if any(v.denominator > 1 for r in s.G + s.E for v in r):
            seen.add("fractional")
    assert seen == {
        "Polyhedron", "Polyhedron with equality rows", "LiftedSet",
        "LiftedSet with equality rows", "fractional", "flagged below 0",
        ("scale > 0", True), ("scale > 0", False), ("scale 0", True),
        ("scale 0", False)}
    assert sets.satisfied(triangle_poly(), []) == []


def test_replaced_support_epigraph_answers_by_its_own_rows(count_phase1):
    # the recorded polyhedron is kept state, which a set that
    # dataclasses.replace builds starts without: the copy runs its own LP,
    # on its own rows
    p = sets.Polyhedron(dim=2, G=[[1, 2], [-3, 1], [1, -1], [0, -1]],
                        h=[4, 3, 2, 1])
    epi = calculus.support_epigraph(p)
    dirs = sets.probe_directions(3, n_random=20, seed=3)
    polar, runs = count_phase1(sets.supports, epi, dirs)
    assert runs == 0 and ZERO in polar and INF in polar
    assert count_phase1(sets.supports, dataclasses.replace(epi), dirs) == \
        (polar, 1)
    # the budget row with every right-hand side doubled: the rows of the
    # support epigraph of 2p, whose polar differs from p's
    budget = epi.G[0]
    doubled = dataclasses.replace(epi, G=[
        budget[:epi.dim] + [2 * v for v in budget[epi.dim:]]])
    twice = sets.Polyhedron(dim=2, G=p.G, h=[2 * b for b in p.h])
    values, runs = count_phase1(sets.supports, doubled, dirs)
    assert values == sets.supports(calculus.support_epigraph(twice), dirs)
    assert runs == 1 and values != polar


def _membership_rows(s, z):
    """(G, h, E, e, nonneg) of the witness program of z in S: z is a member
    iff some w, nonnegative where flagged, has G w <= h and E w = e."""
    d = s.dim

    def rhs(rows, b):
        return [bi - sum((a * v for a, v in zip(r[:d], z)), Q(0))
                for r, bi in zip(rows, b)]
    return ([r[d:] for r in s.G], rhs(s.G, s.h), [r[d:] for r in s.E],
            rhs(s.E, s.e), s.witness_nonneg)


def _solved_verdict(s, z):
    """Membership of z in S by `lp.solve` of its witness program, each
    outcome confirmed by the independent oracles."""
    G, h, E, e, nonneg = _membership_rows(s, z)
    out = lp.solve(lp.LinearProgram(c=[0] * s.witness_dim, G=G, h=h, E=E,
                                    e=e, nonneg=nonneg))
    if out.status == lp.INFEASIBLE:
        assert certifies_empty(G, h, E, e, out.farkas_ineq, out.farkas_eq,
                               nonneg)
        return False
    assert satisfies_rows(G, h, E, e, out.x)
    assert all(v >= 0 for v, f in zip(out.x, nonneg) if f)
    return True


def _with_dependent_rows(s, rng):
    """S cut by two equality rows whose witness parts are proportional
    (q and k q) and whose z parts are not, both through a point (z0, w0)
    of S: after phase 1 one of them is an inert row, whose right-hand side
    is nonzero at every point off the hyperplane the two rows leave."""
    x = lp.solve(sets._joint_lp(s)).x
    z0, w0 = x[:s.dim], x[s.dim:]
    q = [Q(rng.randint(-2, 2)) for _ in range(s.witness_dim)]
    q[rng.randrange(s.witness_dim)] = Q(1)
    k = Q(rng.choice([-2, -1, 2, 3]), rng.choice([1, 2]))
    z1 = [Q(rng.randint(-2, 2)) for _ in range(s.dim)]
    z2 = [Q(rng.randint(-2, 2)) for _ in range(s.dim)]
    kq = [k * v for v in q]

    def through(zr, wr):
        return (sum((a * v for a, v in zip(zr, z0)), Q(0))
                + sum((a * v for a, v in zip(wr, w0)), Q(0)))

    return sets.LiftedSet(
        dim=s.dim, witness_dim=s.witness_dim, G=s.G, h=s.h,
        E=s.E + [z1 + q, z2 + kq],
        e=s.e + [through(z1, q), through(z2, kq)],
        witness_nonneg=s.witness_nonneg)


def _test_points(s, rng, count):
    """Points of a nonempty S (one of its own, moved along seeded
    directions) and seeded integer points, shuffled: members and
    non-members both."""
    zs = [[Q(rng.randint(-3, 3)) for _ in range(s.dim)]
          for _ in range(count // 3)]
    z0 = s.a_point()
    zs.append(z0)
    while len(zs) < count:
        d = [Q(rng.randint(-2, 2)) for _ in range(s.dim)]
        t = rng.choice([Q(1, 3), Q(1), Q(2)])
        zs.append([a + t * b for a, b in zip(z0, d)])
    rng.shuffle(zs)
    return zs


def test_members_match_a_fresh_member_and_the_kernel():
    # every lifted-set family the checks sweep, plus sets cut by dependent
    # equality rows (inert rows) and sets without witnesses
    rng = random.Random(20261020)
    verdicts = set()
    families = set()
    for _ in range(12):
        inst = instances.random_feasible_instance(rng)
        candidates = [
            ("restricted", lambda: engine.restricted_epigraph(inst)),
            ("certificate", lambda: engine.certificate_cone(inst)),
            ("multiplier", lambda: engine.multiplier_cone(inst)),
            ("support", lambda: calculus.support_epigraph(inst.ground)),
            ("decoupled", lambda: engine.decoupled_residual_epigraph(inst)),
            ("no witness", lambda: inst.ground),
        ]
        for name, build in candidates:
            s = build()
            if s.is_empty():
                continue
            family = [(name, s)]
            if s.witness_dim:
                family.append(("dependent rows", _with_dependent_rows(s, rng)))
            for kind, t in family:
                points = _test_points(t, rng, 9)
                got = sets.members(t, points)
                assert len(got) == len(points)
                for z, verdict in zip(points, got):
                    assert verdict == sets.member(t, z) == \
                        _solved_verdict(t, z)
                    verdicts.add((kind, verdict))
                families.add(kind)
    assert {(kind, v) for kind in families for v in (True, False)} <= verdicts
    assert len(families) == 7
    s = engine.certificate_cone(instances.random_feasible_instance(rng))
    assert sets.members(s, []) == []
    with pytest.raises(ValueError):
        sets.members(s, [[0] * s.dim, [0] * (s.dim + 1)])


def test_members_on_beale_rows_terminate_and_match(count_pivots):
    # Beale's cycling example as the witness rows of {z : exists w >= 0,
    # B w <= h - z}: zero right-hand sides tie the ratio tests, and each
    # negative entry of h - z starts a dual simplex on the kept basis
    beale = [[Q(1, 4), -8, -1, 9], [Q(1, 2), -12, Q(-1, 2), 3], [0, 0, 1, 0]]
    units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    s = sets.LiftedSet(dim=3, witness_dim=4,
                       G=[u + row for u, row in zip(units, beale)],
                       h=[0, 0, 1], witness_nonneg=[True] * 4)
    rng = random.Random(1955)
    points = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 2],
              [1, 1, 2], [-1, 0, 1]]
    points += [[Q(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                for _ in range(3)] for _ in range(40)]
    got, pivots = count_pivots(sets.members, s, points)
    assert got == [sets.member(s, z) for z in points]
    assert got == [_solved_verdict(s, z) for z in points]
    assert True in got and False in got
    assert pivots < 10 * len(points)


def _directions(rng, dim, count):
    # the probe grid, then distinct seeded directions with integer and
    # fractional entries, up to `count`
    dirs = sets.probe_directions(dim)[:count]
    seen = {tuple(d) for d in dirs}
    while len(dirs) < count:
        d = tuple(Q(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                  for _ in range(dim))
        if any(d) and d not in seen:
            seen.add(d)
            dirs.append(list(d))
    return dirs


def _large_cone(rng, k):
    # the image of the support epigraph of a polyhedron in R^k through a
    # square map: a cone in R^(k+1) whose supports are 0 or INF
    p = sets.Polyhedron(dim=k, G=[[rng.randint(-3, 3) for _ in range(k)]
                                  for _ in range(2 * k)],
                        h=[rng.randint(0, 4) for _ in range(2 * k)])
    return sets.linear_image(
        calculus.support_epigraph(p),
        [[rng.randint(-2, 2) for _ in range(k + 1)] for _ in range(k + 1)])


def _large_polytope(rng, dim):
    # conv of eight seeded points plus a box: bounded, with free and
    # nonnegative witnesses and equality rows
    hull = sets.as_lifted(sets.GeneratedSet(
        dim=dim, points=[[rng.randint(-4, 4) for _ in range(dim)]
                         for _ in range(8)]))
    box = sets.Box([(-rng.randint(0, 2), rng.randint(0, 2))
                    for _ in range(dim)])
    return sets.minkowski_sum(hull, box.to_polyhedron())


def test_large_set_supports_match_highs():
    # sets in dimension 5 and 6, 200 directions each, swept on one System
    # (so most directions are answered by a ray or a basis that an earlier
    # one found) against a HiGHS solve per direction of the same rows
    linprog = pytest.importorskip("scipy.optimize").linprog
    highs_status = {0: "finite", 2: NEG_INF, 3: INF}
    seen = set()
    for seed in range(2):
        rng = random.Random(20261027 + seed)
        for s in (_large_cone(rng, 4 + seed), _large_polytope(rng, 5 + seed)):
            assert s.dim in (5, 6)
            dirs = _directions(rng, s.dim, 200)
            bounds = ([(None, None)] * s.dim
                      + [(0, None) if f else (None, None)
                         for f in s.witness_nonneg])
            rows = {"A_ub": [[float(v) for v in r] for r in s.G] or None,
                    "b_ub": [float(v) for v in s.h] or None,
                    "A_eq": [[float(v) for v in r] for r in s.E] or None,
                    "b_eq": [float(v) for v in s.e] or None}
            for d, value in zip(dirs, sets.supports(s, dirs)):
                cost = [-float(v) for v in d] + [0.0] * s.witness_dim
                res = linprog(cost, bounds=bounds, method="highs", **rows)
                status = highs_status[res.status]
                if status == "finite":
                    assert value not in (INF, NEG_INF), (seed, d)
                    assert -res.fun == pytest.approx(float(value), rel=1e-6,
                                                     abs=1e-6), (seed, d)
                else:
                    assert value is status, (seed, d, res.message)
                seen.add(status if status != "finite" else
                          "zero" if value == 0 else "nonzero")
    assert seen == {INF, "zero", "nonzero"}
