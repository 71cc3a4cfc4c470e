"""Grid systems: canonical splits, closed-form supports, moment cones."""

import pytest
from hypothesis import given, settings, strategies as st

from farkaskit import calculus, engine, semiinf, sets
from farkaskit.calculus import PiecewiseAffine
from farkaskit.engine import TriVerdict
from farkaskit.errors import InvariantViolation
from farkaskit.rational import Q, ZERO
from farkaskit.semiinf import GridRow, GridSystem, SignedMultiplier
from farkaskit.sets import Box, Polyhedron


def simple_grid():
    # 0 <= x1 <= 2, -1 <= x1 - x2 <= 1, ground = [-3,3]^2, f = x1 + x2
    return GridSystem(
        n=2,
        rows=[([1, 0], 0, 2), ([1, -1], -1, 1)],
        ground=Box([(-3, 3), (-3, 3)]).to_polyhedron(),
        objective=PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[0]))


class TestValidation:
    def test_row_bounds_ordered(self):
        with pytest.raises(ValueError):
            GridRow([1, 0], 2, 0)

    def test_row_width(self):
        with pytest.raises(ValueError):
            GridSystem(n=2, rows=[([1], 0, 1)],
                       ground=Box([(0, 1), (0, 1)]).to_polyhedron(),
                       objective=PiecewiseAffine(dim=2, slopes=[[1, 0]],
                                                 offsets=[0]))

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            GridSystem(n=1, rows=[],
                       ground=Box([(0, 1)]).to_polyhedron(),
                       objective=PiecewiseAffine(dim=1, slopes=[[1]],
                                                 offsets=[0]))

    def test_signed_multiplier_canonical(self):
        SignedMultiplier(plus=[1, 0], minus=[0, 2])
        with pytest.raises(ValueError):
            SignedMultiplier(plus=[1], minus=[1])
        with pytest.raises(ValueError):
            SignedMultiplier(plus=[-1], minus=[0])


class TestSplitAndSupport:
    def test_decompose_recompose(self):
        lam = [Q(3), Q(-2), ZERO]
        sm = semiinf.decompose(lam)
        assert sm.plus == [3, 0, 0] and sm.minus == [0, 2, 0]
        assert sm.value() == lam

    def test_box_support_hand_value(self):
        g = simple_grid()
        # lam = (2, -3): 2*beta_1 - 3*... minus part hits alpha_2 = -1
        sm = semiinf.decompose([2, -3])
        assert semiinf.box_support(g, sm) == 2 * 2 - 3 * (-1)

    def test_box_support_matches_lp(self):
        g = simple_grid()
        box = semiinf.to_instance(g).target_polyhedron().to_lifted()
        for lam in ([0, 0], [1, 1], [-2, 5], [Q(1, 2), Q(-7, 3)]):
            sm = semiinf.decompose(lam)
            assert semiinf.box_support(g, sm) == sets.support(box, lam)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            semiinf.box_support(simple_grid(), semiinf.decompose([1]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-6, max_value=6),
                    min_size=2, max_size=2))
    def test_split_is_lossless_and_support_exact(self, lam):
        g = simple_grid()
        sm = semiinf.decompose(lam)
        assert sm.value() == [Q(v) for v in lam]
        box = semiinf.to_instance(g).target_polyhedron().to_lifted()
        assert semiinf.box_support(g, sm) == sets.support(box, lam)


class TestMomentCone:
    def test_generators(self):
        cone = semiinf.moment_cone(simple_grid())
        assert cone.rays == [[1, 0, 2], [-1, 0, 0], [1, -1, 1], [-1, 1, 1]]

    def test_sandwich(self):
        rep = semiinf.check_moment_sandwich(simple_grid(), seed=5)
        assert rep.verdict == "consistent"
        assert rep.generators_checked == 4
        assert rep.graph_points_checked == 20

    def test_sandwich_consults_an_lp(self, monkeypatch):
        # the same wrong closed form in both places, one too large when two
        # or more entries are nonzero: only an LP value can tell
        grid_support, box_support = semiinf.box_support, Box.support

        def bump(values):
            return Q(1) if sum(1 for v in values if v) >= 2 else ZERO

        monkeypatch.setattr(semiinf, "box_support", lambda system, sm:
                            grid_support(system, sm) + bump(sm.value()))
        monkeypatch.setattr(Box, "support",
                            lambda self, d: box_support(self, d) + bump(d))
        with pytest.raises(InvariantViolation, match="LP value"):
            semiinf.check_moment_sandwich(simple_grid(), seed=5)

    def test_grid_cone_matches_generic(self):
        g = simple_grid()
        inst = semiinf.to_instance(g)
        dirs = sets.probe_directions(3, n_random=12, seed=2)
        assert sets.support_mismatches(
            semiinf.grid_certificate_cone(g),
            engine.certificate_cone(inst), dirs) == []


class TestGridChecks:
    def test_primal_consistent(self):
        rep = semiinf.check_grid_primal(simple_grid())
        assert rep.verdict == "consistent"
        # f = x1 + x2 dips below zero on the feasible region
        assert rep.nonnegativity.verdict is TriVerdict.FALSE
        assert rep.certificate is None
        assert rep.criterion_holds

    def test_reduced_consistent(self):
        rep = semiinf.check_grid_reduced(simple_grid())
        assert rep.verdict == "consistent"

    def test_dual_consistent(self):
        rep = semiinf.check_grid_dual(simple_grid(), n_random=4, seed=1)
        assert rep.criterion_holds
        assert rep.details["moment_cone_probes"] > 0

    def test_certified_grid(self):
        g = GridSystem(
            n=1, rows=[([1], 1, 4)],
            ground=Box([(0, 10)]).to_polyhedron(),
            objective=PiecewiseAffine(dim=1, slopes=[[1]], offsets=[-1]))
        rep = semiinf.check_grid_dual(g)
        assert rep.certificate is not None
        assert rep.nonnegativity.minimum == 0
        stab = semiinf.check_grid_stability(g, seed=4)
        assert stab.all_equivalent

    def test_infeasible_grid_hypothesis_error(self):
        g = GridSystem(
            n=1, rows=[([0], 1, 1)],
            ground=sets.whole_space_polyhedron(1),
            objective=PiecewiseAffine(dim=1, slopes=[[-1]], offsets=[0]))
        rep = semiinf.check_grid_primal(g)
        assert not rep.criterion_holds  # genuine closedness gap
        with pytest.raises(ValueError):
            semiinf.check_grid_dual(g)
        with pytest.raises(ValueError):
            semiinf.check_grid_stability(g)


@st.composite
def grids(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    size = draw(st.integers(min_value=1, max_value=3))
    rows = []
    for _ in range(size):
        a = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)]
        lo = draw(st.integers(min_value=-3, max_value=3))
        wid = draw(st.integers(min_value=0, max_value=4))
        rows.append((a, lo, lo + wid))
    lo = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)]
    wid = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    ground = Box([(a, a + w) for a, w in zip(lo, wid)]).to_polyhedron()
    k = draw(st.integers(min_value=1, max_value=2))
    f = PiecewiseAffine(
        dim=n,
        slopes=[[draw(st.integers(min_value=-2, max_value=2))
                 for _ in range(n)] for _ in range(k)],
        offsets=[draw(st.integers(min_value=-2, max_value=2))
                 for _ in range(k)])
    return GridSystem(n=n, rows=rows, ground=ground, objective=f)


@settings(max_examples=25, deadline=None)
@given(grids())
def test_random_grids_stay_consistent(g):
    semiinf.check_moment_sandwich(g, n_random=6, seed=9)
    rep = semiinf.check_grid_primal(g)
    assert rep.verdict == "consistent"
    inst = semiinf.to_instance(g)
    if not inst.feasible_polyhedron().is_empty():
        semiinf.check_grid_dual(g, n_random=2, seed=3)
