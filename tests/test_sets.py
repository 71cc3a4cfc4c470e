"""Geometry layer: membership, supports, sums, images, conic hulls.

Reference values are hand computations on small figures (a triangle, unit
boxes, a shifted segment) so every assertion is checkable by hand.
"""

import pytest
from hypothesis import given, settings, strategies as st

from farkaskit import sets
from farkaskit.errors import InvariantViolation
from farkaskit.rational import INF, NEG_INF, Q


def triangle_poly():
    # conv{(0,0), (2,0), (0,2)}:  x >= 0, y >= 0, x + y <= 2
    return sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1], [1, 1]], h=[0, 0, 2])


def triangle_gen():
    return sets.GeneratedSet(dim=2, points=[[0, 0], [2, 0], [0, 2]])


class TestMembership:
    def test_triangle_contains_interior_point(self):
        s = triangle_poly().to_lifted()
        assert sets.member(s, [Q(1, 2), Q(1, 2)])

    def test_triangle_contains_vertices(self):
        s = triangle_poly().to_lifted()
        for v in ([0, 0], [2, 0], [0, 2]):
            assert sets.member(s, v)

    def test_triangle_excludes_outside_point(self):
        s = triangle_poly().to_lifted()
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
        assert sets.is_empty(s)
        assert not sets.member(s, [0, 0, 0])
        assert sets.a_point_of(s) is None

    def test_whole_space_has_all_members(self):
        s = sets.whole_space(2)
        assert not sets.is_empty(s)
        assert sets.member(s, [Q(-31, 7), Q(10, 3)])

    def test_a_point_of_returns_a_member(self):
        s = triangle_poly().to_lifted()
        p = sets.a_point_of(s)
        assert p is not None and sets.member(s, p)

    def test_dimension_mismatch_is_rejected(self):
        s = triangle_poly().to_lifted()
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
        s = triangle_poly().to_lifted()
        assert sets.support(s, [1, 1]) == Q(2)
        assert sets.support(s, [1, 0]) == Q(2)
        assert sets.support(s, [-1, -1]) == Q(0)
        assert sets.support(s, [1, -1]) == Q(2)
        assert sets.support(s, [-3, -5]) == Q(0)

    def test_unbounded_direction_gives_inf(self):
        # {x >= 1} in one dimension
        s = sets.Polyhedron(dim=1, G=[[-1]], h=[-1]).to_lifted()
        assert sets.support(s, [1]) is INF
        assert sets.support(s, [-1]) == Q(-1)

    def test_empty_set_support_is_neg_inf(self):
        assert sets.support(sets.empty_set(2), [1, 0]) is NEG_INF

    def test_whole_space_support(self):
        s = sets.whole_space(2)
        assert sets.support(s, [0, 0]) == Q(0)
        assert sets.support(s, [1, 0]) is INF

    def test_box_support_closed_form_matches_lp(self):
        box = sets.Box(bounds=[(-1, 2), (0, 3), (Q(1, 2), Q(1, 2))])
        lifted = box.to_polyhedron().to_lifted()
        for d in sets.probe_directions(3, n_random=6, seed=11):
            assert box.support(d) == sets.support(lifted, d)

    def test_box_support_hand_value(self):
        box = sets.Box(bounds=[(-1, 2), (0, 3)])
        # d = (2, -5): 2*hi1 + (-5)*lo2 = 4 + 0 = 4
        assert box.support([2, -5]) == Q(4)
        assert box.support([-1, 1]) == Q(4)


class TestRecession:
    def test_recession_of_shifted_quadrant(self):
        # {x >= 1, y >= 2}: recession cone is the nonnegative quadrant
        s = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1]], h=[-1, -2]).to_lifted()
        assert sets.recession_member(s, [1, 0])
        assert sets.recession_member(s, [3, 7])
        assert sets.recession_member(s, [0, 0])
        assert not sets.recession_member(s, [-1, 0])

    def test_bounded_set_recession_is_origin_only(self):
        s = triangle_poly().to_lifted()
        assert sets.recession_member(s, [0, 0])
        assert not sets.recession_member(s, [1, 0])

    def test_generated_ray_is_recession_direction(self):
        g = sets.GeneratedSet(dim=2, points=[[1, 1]], rays=[[1, 2]])
        s = sets.as_lifted(g)
        assert sets.recession_member(s, [1, 2])
        assert sets.recession_member(s, [Q(1, 2), 1])
        assert not sets.recession_member(s, [1, 0])


class TestMinkowskiAndImages:
    def test_sum_of_unit_boxes(self):
        box = sets.Box(bounds=[(0, 1), (0, 1)]).to_polyhedron().to_lifted()
        s = sets.minkowski_sum(box, box)
        assert sets.member(s, [2, 2])
        assert sets.member(s, [Q(3, 2), 0])
        assert not sets.member(s, [Q(9, 4), 2])
        assert sets.support(s, [1, 1]) == Q(4)
        assert sets.support(s, [-1, 0]) == Q(0)

    def test_sum_with_point_equals_translate(self):
        tri = triangle_poly().to_lifted()
        point = sets.as_lifted(sets.GeneratedSet(dim=2, points=[[1, -1]]))
        summed = sets.minkowski_sum(tri, point)
        shifted = sets.translate(tri, [1, -1])
        dirs = sets.probe_directions(2, n_random=4, seed=3)
        assert sets.support_mismatches(summed, shifted, dirs) == []
        assert sets.member(summed, [1, -1]) and sets.member(shifted, [1, -1])
        assert not sets.member(summed, [0, 0])

    def test_translate_support_shifts_linearly(self):
        tri = triangle_poly().to_lifted()
        shifted = sets.translate(tri, [1, 1])
        assert sets.support(shifted, [1, 1]) == Q(4)
        assert sets.member(shifted, [1, 1])
        assert not sets.member(shifted, [0, 0])

    def test_sum_with_empty_is_empty(self):
        tri = triangle_poly().to_lifted()
        s = sets.minkowski_sum(tri, sets.empty_set(2))
        assert sets.is_empty(s)

    def test_projection_of_triangle(self):
        s = sets.linear_image(triangle_poly().to_lifted(), [[1, 1]])
        assert sets.member(s, [2])
        assert sets.member(s, [0])
        assert not sets.member(s, [Q(5, 2)])
        assert sets.support(s, [1]) == Q(2)
        assert sets.support(s, [-1]) == Q(0)

    def test_embedding_image(self):
        # x |-> (x1, x2, x1 + x2) of the triangle
        s = sets.linear_image(triangle_poly().to_lifted(), [[1, 0], [0, 1], [1, 1]])
        assert sets.member(s, [1, 0, 1])
        assert not sets.member(s, [1, 0, 0])
        assert sets.support(s, [0, 0, 1]) == Q(2)

    def test_image_of_empty_is_empty(self):
        s = sets.linear_image(sets.empty_set(2), [[1, 1]])
        assert sets.is_empty(s)


class TestConicHull:
    def test_cone_of_segment(self):
        # segment x = 1, 0 <= y <= 1; closed conic hull is {0 <= y <= x}
        seg = sets.Polyhedron(dim=2, G=[[0, -1], [0, 1]], h=[0, 1],
                              E=[[1, 0]], e=[1]).to_lifted()
        cone = sets.conic_hull_closure(seg)
        assert sets.member(cone, [0, 0])
        assert sets.member(cone, [3, 3])
        assert sets.member(cone, [5, 2])
        assert not sets.member(cone, [1, 2])
        assert not sets.member(cone, [-1, 0])
        assert sets.cone_member_strict(seg, [2, 1])
        assert sets.cone_member_strict(seg, [0, 0])

    def test_half_open_cone_from_horizontal_line(self):
        # line y = 1: conic hull is the open upper half plane plus the origin;
        # its closure also holds the whole x-axis
        line = sets.Polyhedron(dim=2, E=[[0, 1]], e=[1]).to_lifted()
        assert sets.cone_member_strict(line, [4, 2])
        assert sets.cone_member_strict(line, [0, 0])
        assert not sets.cone_member_strict(line, [1, 0])
        closure = sets.conic_hull_closure(line)
        assert sets.member(closure, [1, 0])
        assert not sets.member(closure, [0, -1])
        report = sets.cone_closed_regarding(line, [[1, 0], [4, 2], [0, -1]])
        assert report == [([Q(1), Q(0)], False, True),
                          ([Q(4), Q(2)], True, True),
                          ([Q(0), Q(-1)], False, False)]

    def test_cone_of_empty_set_is_empty(self):
        cone = sets.conic_hull_closure(sets.empty_set(2))
        assert sets.is_empty(cone)
        assert not sets.cone_member_strict(sets.empty_set(2), [0, 0])

    def test_cone_strict_unbounded_scale(self):
        # quadrant through the probe: any positive multiple works
        quad = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1]], h=[0, 0]).to_lifted()
        assert sets.cone_member_strict(quad, [1, 1])

    def test_closed_regarding_never_contradicts(self):
        tri = triangle_poly().to_lifted()
        report = sets.cone_closed_regarding(tri, sets.probe_directions(2))
        for _p, strict, closed in report:
            assert closed or not strict


class TestGeneratedContainment:
    def test_generated_inside_its_own_h_form(self):
        assert sets.contains_generated(triangle_poly().to_lifted(), triangle_gen())

    def test_extra_ray_breaks_containment(self):
        g = sets.GeneratedSet(dim=2, points=[[0, 0]], rays=[[1, 0]])
        assert not sets.contains_generated(triangle_poly().to_lifted(), g)

    def test_outside_point_breaks_containment(self):
        g = sets.GeneratedSet(dim=2, points=[[0, 0], [3, 0]])
        assert not sets.contains_generated(triangle_poly().to_lifted(), g)

    def test_pointless_generated_set_is_contained_everywhere(self):
        g = sets.GeneratedSet(dim=2, rays=[[1, 0]])
        assert sets.contains_generated(sets.empty_set(2), g)
        assert sets.is_empty(sets.as_lifted(g))

    def test_ray_containment_in_unbounded_set(self):
        quad = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1]], h=[0, 0]).to_lifted()
        g = sets.GeneratedSet(dim=2, points=[[1, 1]], rays=[[2, 3], [0, 1]])
        assert sets.contains_generated(quad, g)


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

    def test_support_mismatch_detects_difference(self):
        tri = triangle_poly().to_lifted()
        box = sets.Box(bounds=[(0, 2), (0, 2)]).to_polyhedron().to_lifted()
        bad = sets.support_mismatches(tri, box, [[1, 1], [1, 0]])
        assert bad == [([Q(1), Q(1)], Q(2), Q(4))]

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
            assert sets.recession_member(s, r)

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
