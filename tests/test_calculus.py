"""Conjugate calculus on piecewise affine functions.

Reference values are hand-derived: |x| has conjugate 0 on [-1, 1] (+infinity
outside), x restricted to [0, 2] has conjugate max(0, 2u - 2), and the
conjugate epigraph of a max of pieces is the hull of (slope, -offset) points
plus the vertical ray.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from farkaskit import calculus, instances, lp, sets
from farkaskit.rational import INF, NEG_INF, Q

from oracles import tilted_function


def abs_fn():
    return calculus.PiecewiseAffine(dim=1, slopes=[[1], [-1]], offsets=[0, 0])


def interval(lo, hi):
    return sets.Box(bounds=[(lo, hi)]).to_polyhedron()


class TestEvaluation:
    def test_abs_values(self):
        f = abs_fn()
        assert f.value([Q(-3, 2)]) == Q(3, 2)
        assert f.value([0]) == Q(0)
        assert f.value([2]) == Q(2)

    def test_outside_domain_is_inf(self):
        f = calculus.PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0],
                                     domain=interval(0, 2))
        assert f.value([1]) == Q(1)
        assert f.value([3]) is INF

    def test_tilt_shifts_value(self):
        f = abs_fn()
        g = tilted_function(f, [Q(1, 2)], lift=Q(3))
        # |x| - x/2 - 3 at x = 2: 2 - 1 - 3 = -2
        assert g.value([2]) == Q(-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            calculus.PiecewiseAffine(dim=1, slopes=[], offsets=[])
        with pytest.raises(ValueError):
            calculus.PiecewiseAffine(dim=2, slopes=[[1]], offsets=[0])
        with pytest.raises(ValueError):
            calculus.PiecewiseAffine(
                dim=1, slopes=[[1]], offsets=[0],
                domain=sets.Polyhedron(dim=1, G=[[1], [-1]], h=[-1, 0]))

    def test_domain_of_another_kind_is_refused(self):
        segment = sets.linear_image(interval(0, 1), [[2]])
        for domain in (segment, sets.Box([(0, 2)])):
            with pytest.raises(ValueError) as caught:
                calculus.PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0],
                                         domain=domain)
            assert str(caught.value) == "domain must be a Polyhedron"


class TestMinimize:
    def test_min_of_abs_over_shifted_interval(self):
        m = calculus.minimize_over(abs_fn(), interval(-3, -1))
        assert m.value == Q(1)
        assert m.point == [Q(-1)]
        assert m.ray is None

    def test_min_over_empty_is_inf(self):
        empty = sets.Polyhedron(dim=1, G=[[1], [-1]], h=[-1, 0])
        m = calculus.minimize_over(abs_fn(), empty)
        assert m.value is INF and m.point is None

    def test_unbounded_min_reports_ray(self):
        f = calculus.PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0])
        half = sets.Polyhedron(dim=1, G=[[1]], h=[0])
        m = calculus.minimize_over(f, half)
        assert m.value is NEG_INF
        assert m.point is not None and m.point[0] <= 0
        assert m.ray is not None and m.ray[0] < 0

    def test_domain_restricts_minimization(self):
        f = calculus.PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0],
                                     domain=interval(2, 5))
        m = calculus.minimize_over(f, sets.whole_space(1))
        assert m.value == Q(2) and m.point == [Q(2)]

    def test_two_dim_min(self):
        # max(x + y, -x - y + 1) over the unit box: value 1/2 on the
        # crossing line x + y = 1/2
        f = calculus.PiecewiseAffine(dim=2, slopes=[[1, 1], [-1, -1]],
                                     offsets=[0, 1])
        m = calculus.minimize_over(
            f, sets.Box(bounds=[(0, 1), (0, 1)]).to_polyhedron())
        assert m.value == Q(1, 2)
        assert sum(m.point) == Q(1, 2)


class TestFenchel:
    def test_abs_conjugate_values(self):
        f = abs_fn()
        assert calculus.fenchel_value(f, [Q(1, 2)]) == Q(0)
        assert calculus.fenchel_value(f, [1]) == Q(0)
        assert calculus.fenchel_value(f, [-1]) == Q(0)
        assert calculus.fenchel_value(f, [2]) is INF
        assert calculus.fenchel_value(f, [Q(-3, 2)]) is INF

    def test_restricted_linear_conjugate(self):
        # f(x) = x on [0, 2]: f*(u) = max(0, 2(u - 1))
        f = calculus.PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0],
                                     domain=interval(0, 2))
        assert calculus.fenchel_value(f, [0]) == Q(0)
        assert calculus.fenchel_value(f, [1]) == Q(0)
        assert calculus.fenchel_value(f, [2]) == Q(2)
        assert calculus.fenchel_value(f, [3]) == Q(4)
        assert calculus.fenchel_value(f, [Q(-7, 2)]) == Q(0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fenchel_young_inequality(self, data):
        dim = data.draw(st.integers(1, 3))
        coords = st.integers(-3, 3)
        k = data.draw(st.integers(1, 3))
        f = calculus.PiecewiseAffine(
            dim=dim,
            slopes=[data.draw(st.lists(coords, min_size=dim, max_size=dim))
                    for _ in range(k)],
            offsets=data.draw(st.lists(coords, min_size=k, max_size=k)))
        x = [Q(v) for v in data.draw(st.lists(coords, min_size=dim, max_size=dim))]
        u = [Q(v) for v in data.draw(st.lists(coords, min_size=dim, max_size=dim))]
        star = calculus.fenchel_value(f, u)
        if star is not INF:
            pairing = sum(a * b for a, b in zip(u, x))
            assert f.value(x) + star >= pairing


def conjugate_by_minimum(f, u):
    """f*(u) the per-point way, one program per point: minus the minimum
    of the tilted f - u.x over the whole space."""
    m = calculus.minimize_over(tilted_function(f, u),
                               sets.whole_space(f.dim))
    return INF if m.value is NEG_INF else -m.value


class TestFenchelValues:
    def test_matches_one_program_per_point(self):
        rng = random.Random(61)
        seen = set()
        for _ in range(40):
            n = rng.randint(1, 3)
            anchor = [Q(rng.randint(-2, 2)) for _ in range(n)]
            f = instances.random_objective(rng, n, anchor)
            points = [[Q(rng.randint(-8, 8), rng.randint(1, 2))
                       for _ in range(n)] for _ in range(6)]
            # each slope is a point where the conjugate is finite
            points += [list(a) for a in f.slopes]
            values = calculus.fenchel_values(f, points)
            assert values == [conjugate_by_minimum(f, u) for u in points]
            seen.add("domain" if f.domain is not None else "whole")
            seen.update("inf" if v is INF else "finite" for v in values)
        assert seen == {"domain", "whole", "inf", "finite"}

    def test_one_phase_1_for_all_points(self, count_phase1):
        f = calculus.PiecewiseAffine(dim=2, slopes=[[1, 0], [0, 1], [-1, -1]],
                                     offsets=[0, 1, 2])
        points = [[Q(a), Q(b)] for a in range(-2, 3) for b in range(-2, 3)]
        values, runs = count_phase1(calculus.fenchel_values, f, points)
        assert runs == 1
        assert values == [calculus.fenchel_value(f, u) for u in points]

    def test_repeated_points_cost_no_pivots(self, count_pivots):
        f = calculus.PiecewiseAffine(dim=2, slopes=[[1, 0], [0, 1], [-1, -1]],
                                     offsets=[0, 1, 2])
        points = [[Q(a), Q(b)] for a in range(-2, 3) for b in range(-2, 3)]
        repeated = points + points[::3] + [points[4]] * 3
        once, pivots = count_pivots(calculus.fenchel_values, f, points)
        again, pivots_again = count_pivots(calculus.fenchel_values, f,
                                           repeated)
        # f kept the system of the first call, whose rays and bases decide
        # every point posed there
        assert pivots > 0 and pivots_again == 0
        assert again == once + once[::3] + [once[4]] * 3
        # on a fresh copy of f, which keeps no system, the repeats cost no
        # pivot beyond the distinct points
        fresh = dataclasses.replace(f)
        assert count_pivots(calculus.fenchel_values, fresh, repeated) == \
            (again, pivots)

    def test_poses_the_minimum_costs_and_negates_no_rational(
            self, phase2_costs, monkeypatch):
        # fenchel_values asks maxima of (u, -1), which poses the costs
        # (-u, 1) of min t - u.x, each value minus a fresh solve's there,
        # and the only Fraction negations left build the epigraph rows
        f = calculus.PiecewiseAffine(dim=2, slopes=[[1, 0], [0, 1], [-1, -1]],
                                     offsets=[0, 1, 2])
        whole = sets.whole_space(2)
        points = [[Q(a, 2), Q(b)] for a in range(-3, 4) for b in range(-2, 3)]
        program = calculus.epigraph_system(f, whole).program
        costs = [[-a for a in u] + [1] for u in points]
        want = []
        for c in costs:
            out = lp.solve(dataclasses.replace(program, c=c))
            want.append(-out.value if out.status == lp.OPTIMAL else INF)
        phase2_costs.clear()
        negations = []
        neg = Q.__neg__

        def counted(x):
            negations.append(x)
            return neg(x)

        monkeypatch.setattr(Q, "__neg__", counted)
        calculus.epigraph_system(f, whole)
        rows = len(negations)
        assert calculus.fenchel_values(f, points) == want
        assert len(negations) == 2 * rows
        posed = [c for _, c in phase2_costs]
        assert set(posed) <= {tuple(c) for c in costs}
        assert posed[0] == (Q(3, 2), Q(2), Q(1))

    def test_no_points_and_bad_width(self, count_phase1):
        assert count_phase1(calculus.fenchel_values, abs_fn(), []) == ([], 0)
        with pytest.raises(ValueError):
            calculus.fenchel_values(abs_fn(), [[1, 2]])


def _fresh_support(s, d):
    """sup d.z over S by one fresh `lp.solve` of its rows."""
    program = sets._joint_lp(s)
    out = lp.solve(dataclasses.replace(
        program, c=[-a for a in d] + [0] * s.witness_dim))
    if out.status == lp.INFEASIBLE:
        return NEG_INF
    return INF if out.status == lp.UNBOUNDED else -out.value


def _fresh_conjugate(f, u):
    """f*(u) by one fresh `lp.solve` of f's epigraph rows over the whole
    space with the cost (-u, 1): minus its minimum."""
    program = calculus._epigraph_program(f, sets.whole_space(f.dim))
    out = lp.solve(dataclasses.replace(program, c=[-a for a in u] + [1]))
    return INF if out.status == lp.UNBOUNDED else -out.value


def test_interleaved_sweeps_equal_fresh_solves(count_phase1):
    # one set and one f, each keeping the system of its sweeps, swept in
    # turns with overlapping batches: every value is a fresh solve's, and
    # each keeps one phase 1 for all its batches
    rng = random.Random(83)
    s = sets.linear_image(
        sets.Polyhedron(dim=3, G=[[1, 1, 0], [-1, 0, 1], [0, -1, -1]],
                        h=[2, 1, 3], E=[[1, -1, 2]], e=[1]),
        [[1, 0, 1], [0, 2, -1]])
    f = instances.random_objective(rng, 2, [Q(1), Q(-1)])
    f = dataclasses.replace(f, domain=sets.Polyhedron(
        dim=2, G=[[1, 0], [0, 1]], h=[3, 3]))
    runs = values = 0
    kinds = set()
    for _ in range(5):
        dirs = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
                for _ in range(4)]
        got, k = count_phase1(sets.supports, s, dirs)
        assert got == [_fresh_support(s, d) for d in dirs]
        points = dirs[:2] + [[Q(rng.randint(-3, 3)) for _ in range(2)]
                             for _ in range(3)]
        conj, j = count_phase1(calculus.fenchel_values, f, points)
        assert conj == [_fresh_conjugate(f, u) for u in points]
        runs += k + j
        values += len(got) + len(conj)
        kinds.update("inf" if v is INF else "finite" for v in got + conj)
    assert (runs, values) == (2, 45) and kinds == {"inf", "finite"}


class TestTilt:
    def test_tilt_of_restricted_function_solves_nothing(self, count_phase1):
        # the constructor checks the domain it is handed again, and the
        # domain's kept point answers that check
        f = calculus.PiecewiseAffine(dim=1, slopes=[[1], [-2]], offsets=[0, 3],
                                     domain=interval(0, 3))
        g, runs = count_phase1(tilted_function, f, [Q(1, 2)], Q(3))
        assert runs == 0
        assert g == calculus.PiecewiseAffine(
            dim=1, slopes=[[Q(1, 2)], [Q(-5, 2)]], offsets=[-3, 0],
            domain=interval(0, 3))
        assert g.domain is f.domain
        assert f.slopes == [[1], [-2]] and f.offsets == [0, 3]


class TestConjugateEpigraph:
    def test_abs_conjugate_epigraph_is_band(self):
        # epi f* for |x| is [-1, 1] x R+
        s = sets.as_lifted(calculus.conjugate_epigraph(abs_fn()))
        assert sets.member(s, [0, 0])
        assert sets.member(s, [Q(1, 2), 5])
        assert sets.member(s, [-1, 0])
        assert not sets.member(s, [2, 0])
        assert not sets.member(s, [0, -1])

    def test_epigraph_carries_fenchel_values(self):
        f = calculus.PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0],
                                     domain=interval(0, 2))
        s = sets.as_lifted(calculus.conjugate_epigraph(f))
        for u in ([0], [1], [2], [3], [Q(-7, 2)]):
            v = calculus.fenchel_value(f, u)
            assert sets.member(s, list(u) + [v])
            assert not sets.member(s, list(u) + [v - 1])

    def test_generated_and_lp_forms_agree(self):
        f = calculus.PiecewiseAffine(dim=2, slopes=[[1, 0], [0, 1], [-1, -1]],
                                     offsets=[0, Q(1, 2), -1])
        a = sets.as_lifted(calculus.conjugate_epigraph(f))
        b = calculus.restricted_conjugate_epigraph(
            f, sets.whole_space(2))
        dirs = sets.probe_directions(3, n_random=8, seed=5)
        assert sets.support_mismatches(a, b, dirs) == []

    def test_restriction_matches_minkowski_sum(self):
        # epi (f + indicator)* must equal epi f* + epi of the support
        # function, exactly, when the domains meet
        f = abs_fn()
        p = interval(1, 3)
        direct = calculus.restricted_conjugate_epigraph(f, p)
        summed = sets.minkowski_sum(
            sets.as_lifted(calculus.conjugate_epigraph(f)),
            calculus.support_epigraph(p))
        dirs = sets.probe_directions(2, n_random=8, seed=9)
        assert sets.support_mismatches(direct, summed, dirs) == []
        # hand values: (f + indicator)*(u) = max(u - 1, 3u - 3)
        for u, v in ((Q(0), Q(-1)), (Q(1), Q(0)), (Q(2), Q(3)), (Q(-2), Q(-3))):
            assert sets.member(direct, [u, v])
            assert not sets.member(direct, [u, v - Q(1, 100)])

    def test_restriction_missing_domain_gives_whole_space(self):
        f = calculus.PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0],
                                     domain=interval(0, 1))
        s = calculus.restricted_conjugate_epigraph(f, interval(2, 3))
        assert sets.member(s, [5, Q(-1000)])


class TestSupportEpigraph:
    def test_triangle_support_epigraph(self):
        tri = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1], [1, 1]], h=[0, 0, 2])
        s = calculus.support_epigraph(tri)
        assert sets.member(s, [1, 1, 2])
        assert not sets.member(s, [1, 1, Q(3, 2)])
        assert sets.member(s, [-1, -1, 0])
        assert not sets.member(s, [-1, -1, Q(-1, 2)])

    def test_box_support_epigraph_matches_closed_form(self, count_phase1):
        box = sets.Box(bounds=[(-1, 2), (0, 3)])
        # a box is nonempty by construction: no emptiness LP
        s, runs = count_phase1(calculus.support_epigraph, box)
        assert runs == 0
        for d in sets.probe_directions(2, n_random=5, seed=2):
            v = box.support(d)
            assert sets.member(s, list(d) + [v])
            assert not sets.member(s, list(d) + [v - 1])

    def test_empty_set_support_epigraph_is_everything(self):
        empty = sets.Polyhedron(dim=1, G=[[1], [-1]], h=[-1, 0])
        s = calculus.support_epigraph(empty)
        assert sets.member(s, [7, -100])

    def test_generator_form_matches_lifted_form(self):
        tri = sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1], [1, 1]], h=[0, 0, 2],
                              E=[[1, -1]], e=[0])
        lifted = calculus.support_epigraph(tri)
        gens = sets.GeneratedSet(
            dim=3, points=[[0, 0, 0]],
            rays=calculus.support_epigraph_generators(tri))
        dirs = sets.probe_directions(3, n_random=6, seed=4)
        assert sets.support_mismatches(lifted, sets.as_lifted(gens), dirs) == []

    def test_lifted_set_with_witness_columns_is_refused(self):
        # the segment [0, 2] as the image of the unit square under [1, 1]:
        # 1 is in it, so its support epigraph's support along (1, -1) is
        # 0, but the rows built from its z columns alone sweep +oo there
        square = sets.Box([(0, 1), (0, 1)]).to_polyhedron()
        segment = sets.linear_image(square, [[1, 1]])
        with pytest.raises(ValueError, match="Polyhedron or a Box"):
            calculus.support_epigraph(segment)

    def test_generators_of_empty_set_rejected(self):
        empty = sets.Polyhedron(dim=1, G=[[1], [-1]], h=[-1, 0])
        with pytest.raises(ValueError):
            calculus.support_epigraph_generators(empty)
