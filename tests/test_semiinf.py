"""Grid systems: canonical splits, closed-form supports, moment cones,
and the exchange method for band consistency."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import certifies_empty, satisfies_rows

from farkaskit import (duality, engine, instances, lp, polyapprox, semiinf,
                       sets)
from farkaskit.calculus import PiecewiseAffine
from farkaskit.engine import TriVerdict
from farkaskit.errors import InvariantViolation
from farkaskit.rational import Q, ZERO
from farkaskit.semiinf import SignedMultiplier
from farkaskit.sets import Box, Polyhedron


def simple_grid():
    # 0 <= x1 <= 2, -1 <= x1 - x2 <= 1, ground = [-3,3]^2, f = x1 + x2
    return semiinf.grid(
        [([1, 0], 0, 2), ([1, -1], -1, 1)],
        Box([(-3, 3), (-3, 3)]).to_polyhedron(),
        PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[0]))


class TestValidation:
    def test_row_bounds_ordered(self):
        with pytest.raises(ValueError, match="lo > hi"):
            semiinf.grid([([1, 0], 2, 0)],
                         Box([(0, 1), (0, 1)]).to_polyhedron(),
                         PiecewiseAffine(dim=2, slopes=[[1, 0]], offsets=[0]))

    def test_row_width(self):
        with pytest.raises(ValueError, match="row width"):
            semiinf.grid([([1], 0, 1)],
                         Box([(0, 1), (0, 1)]).to_polyhedron(),
                         PiecewiseAffine(dim=2, slopes=[[1, 0]], offsets=[0]))

    def test_needs_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            semiinf.grid([], Box([(0, 1)]).to_polyhedron(),
                         PiecewiseAffine(dim=1, slopes=[[1]], offsets=[0]))

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
        assert g.target.support([2, -3]) == 2 * 2 - 3 * (-1)
        assert g.target_support([2, -3]) == 2 * 2 - 3 * (-1)

    def test_box_support_matches_lp(self):
        g = simple_grid()
        box = g.target_polyhedron()
        for lam in ([0, 0], [1, 1], [-2, 5], [Q(1, 2), Q(-7, 3)]):
            assert g.target.support(lam) == sets.support(box, lam)

    def test_length_checked(self):
        with pytest.raises(ValueError, match="direction dimension mismatch"):
            simple_grid().target_support([1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-6, max_value=6),
                    min_size=2, max_size=2))
    def test_split_is_lossless_and_support_exact(self, lam):
        # sigma(lam) = sum_t (plus_t beta_t - minus_t alpha_t) over the
        # canonical split is Box.support, and both are the LP value
        g = simple_grid()
        sm = semiinf.decompose(lam)
        assert sm.value() == [Q(v) for v in lam]
        by_split = sum(p * hi - m * lo for p, m, (lo, hi)
                       in zip(sm.plus, sm.minus, g.target.bounds))
        box = g.target_polyhedron()
        assert by_split == g.target.support(lam) == sets.support(box, lam)


class TestMomentCone:
    def test_generators(self):
        cone = semiinf.moment_cone(simple_grid())
        assert cone.rays == [[1, 0, 2], [-1, 0, 0], [1, -1, 1], [-1, 1, 1]]

    def test_sandwich(self):
        rep = semiinf.check_moment_sandwich(simple_grid(), seed=5)
        assert rep.verdict == "consistent"
        assert rep.generators_checked == 4
        assert rep.graph_points_checked == 20

    def test_sandwich_refuses_a_negative_count(self, count_phase1):
        # a negative count reported graph_points_checked=-5 having checked
        # none; it raises, before any LP
        grid = simple_grid()

        def refused():
            with pytest.raises(ValueError, match="random multipliers must"):
                semiinf.check_moment_sandwich(grid, n_random=-5)

        assert count_phase1(refused)[1] == 0
        rep = semiinf.check_moment_sandwich(grid, n_random=0)
        assert rep.graph_points_checked == 0

    def test_sandwich_consults_an_lp(self, monkeypatch):
        # a wrong closed form, one too large when two or more entries are
        # nonzero: only an LP value can tell
        box_support = Box.support

        def bump(values):
            return Q(1) if sum(1 for v in values if v) >= 2 else ZERO

        monkeypatch.setattr(Box, "support",
                            lambda self, d: box_support(self, d) + bump(d))
        with pytest.raises(InvariantViolation, match="LP value"):
            semiinf.check_moment_sandwich(simple_grid(), seed=5)

    def test_grid_cone_matches_generic(self):
        g = simple_grid()
        dirs = sets.probe_directions(3, n_random=12, seed=2)
        assert sets.support_mismatches(
            semiinf.grid_certificate_cone(g),
            engine.certificate_cone(g), dirs) == []


class TestGridChecks:
    def test_primal_consistent(self):
        rep = engine.check_primal_criterion(simple_grid())
        assert rep.verdict == "consistent"
        # f = x1 + x2 dips below zero on the feasible region
        assert rep.nonnegativity.verdict is TriVerdict.FALSE
        assert rep.certificate is None
        assert rep.criterion_holds

    def test_reduced_consistent(self):
        rep = engine.check_reduced_criterion(simple_grid())
        assert rep.verdict == "consistent"

    def test_dual_consistent(self):
        rep = semiinf.check_grid_dual(simple_grid(), n_random=4, seed=1)
        assert rep.criterion_holds
        assert rep.details["moment_cone_probes"] > 0

    def test_checks_share_the_embedded_instance(self, count_phase1):
        # the grid is the instance: rows become the map, bounds the box
        g = simple_grid()
        assert g.matrix == [[1, 0], [1, -1]]
        assert g.target.bounds == [(0, 2), (-1, 1)]
        semiinf.check_grid_dual(g)
        # after the dual check, the stability check reads the emptiness of
        # the feasible set meet dom f and the untilted minimum it kept: 38
        # phase-1 runs on a grid of its own
        _, runs = count_phase1(duality.check_stability, g)
        assert runs <= 35

    def test_grid_dual_reads_the_criterion_cone_supports(self, phase2_costs):
        # phase 2s that pose a (program, cost) pair already posed on the
        # same grid, from its construction through check_grid_dual and
        # check_stability, on 11 seeded grids: 20 before the kernel's value
        # sweep (now `System.maxima`) answered costs from the rays and
        # bases that earlier costs found.
        # Counted per (program, cost list) before that: 31 when
        # check_grid_dual swept the certificate cone again along the
        # criterion's probe directions, 20 when the 6 grids with a
        # whole-space ground swept the feasible set's support epigraph
        # after the preimage's, the same set, and 14 after both. 17 before
        # each set kept the system of its support sweeps and f the system
        # of its conjugate values, and before support epigraphs were
        # answered by their polar
        rng = random.Random(5)
        checked = repeats = 0
        for _ in range(30):
            phase2_costs.clear()
            g = instances.random_grid(rng)
            if g.feasible_in_domain().is_empty():
                continue
            semiinf.check_grid_dual(g)
            duality.check_stability(g)
            checked += 1
            posed = [f"{program!r} {c!r}" for program, c in phase2_costs]
            repeats += len(posed) - len(set(posed))
        assert (checked, repeats) == (11, 12)

    def test_whole_space_ground_sweeps_the_preimage_once(self, monkeypatch):
        # with no ground rows the feasible set is the preimage, so its
        # support epigraph is swept once; a ground with one row that every
        # point satisfies takes the second sweep, and the reports agree
        sweep = sets.supports
        calls = []

        def counting(s, directions):
            calls.append(s)
            return sweep(s, directions)

        monkeypatch.setattr(sets, "supports", counting)
        rows = [([1, 0], 0, 2), ([1, -1], -1, 1), ([0, 1], -2, 2)]
        f = PiecewiseAffine(dim=2, slopes=[[1, 0]], offsets=[0])
        reports = []
        for ground in (sets.whole_space(2),
                       Polyhedron(dim=2, G=[[0, 0]], h=[1])):
            calls.clear()
            reports.append(semiinf.check_grid_dual(
                semiinf.grid(rows, ground, f)))
            reports.append(len(calls))
        whole, whole_sweeps, rowed, rowed_sweeps = reports
        assert (whole_sweeps, rowed_sweeps) == (7, 8)
        assert whole == rowed
        assert whole.certificate is not None

    def test_certified_grid(self):
        g = semiinf.grid(
            [([1], 1, 4)], Box([(0, 10)]).to_polyhedron(),
            PiecewiseAffine(dim=1, slopes=[[1]], offsets=[-1]))
        rep = semiinf.check_grid_dual(g)
        assert rep.certificate is not None
        assert rep.nonnegativity.minimum == 0
        stab = duality.check_stability(g, seed=4)
        assert stab.all_equivalent

    def test_infeasible_grid_hypothesis_error(self):
        g = semiinf.grid(
            [([0], 1, 1)], sets.whole_space(1),
            PiecewiseAffine(dim=1, slopes=[[-1]], offsets=[0]))
        rep = engine.check_primal_criterion(g)
        assert not rep.criterion_holds  # genuine closedness gap
        with pytest.raises(ValueError):
            semiinf.check_grid_dual(g)
        with pytest.raises(ValueError):
            duality.check_stability(g)


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
    return semiinf.grid(rows, ground, f)


@settings(max_examples=25, deadline=None)
@given(grids())
def test_random_grids_stay_consistent(g):
    semiinf.check_moment_sandwich(g, n_random=6, seed=9)
    rep = engine.check_primal_criterion(g)
    assert rep.verdict == "consistent"
    if not g.feasible_polyhedron().is_empty():
        semiinf.check_grid_dual(g, n_random=2, seed=3)


def _exchange_system(rng):
    """A seeded grid of 1 to 60 nodes in n = 1..4 variables, built
    around a point x0 it often contains: some rows repeat an earlier
    functional, some have lower == upper, and the ground is the whole
    space, a box, or a box with an equality row. One row is pushed off x0
    in about half of the systems."""
    n = rng.randint(1, 4)
    x0 = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 60)):
        if rows and rng.random() < 1 / 4:
            a = rng.choice(rows)[0]
        else:
            a = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        v = sum((x * y for x, y in zip(a, x0)), ZERO)
        lo = v - Q(rng.randint(0, 3), rng.randint(1, 4))
        hi = v if rng.random() < 1 / 5 else v + Q(rng.randint(0, 3), 2)
        rows.append((a, lo, hi))
    if rng.random() < 1 / 2:
        t = rng.randrange(len(rows))
        a, lo, hi = rows[t]
        shift = Q(rng.randint(1, 4), rng.randint(1, 8))
        rows[t] = (a, hi + shift, hi + shift + Q(rng.randint(0, 1), 4))
    kind = rng.randrange(3)
    if kind == 0:
        ground = sets.whole_space(n)
    else:
        ground = Box([(v - rng.randint(0, 2), v + rng.randint(0, 2))
                      for v in x0]).to_polyhedron()
        if kind == 2:
            row = [Q(rng.randint(-2, 2)) for _ in range(n)]
            ground = ground.intersect(Polyhedron(
                dim=n, E=[row],
                e=[sum((x * y for x, y in zip(row, x0)), ZERO)]))
    return semiinf.grid(rows, ground, PiecewiseAffine(
        dim=n, slopes=[[ZERO] * n], offsets=[ZERO]))


def _full_rows(system):
    """The ground's rows, then the band's in `Box.pullback` order, built
    apart from the grid's kept feasible polyhedron."""
    band = Box(system.target.bounds).pullback(system.matrix, system.n)
    return system.ground.intersect(band)


class TestBandPoint:
    def test_agrees_with_dense_lp_and_certifies(self, monkeypatch):
        posed, checked = [], []
        real_init = lp.System.__init__
        real_append = lp.System.append
        real_verify = lp.verify_certificate

        def init(kept, program):
            posed[:] = zip(map(tuple, program.G), program.h)
            real_init(kept, program)

        def append(kept, a, b):
            posed.append((tuple(a), b))
            return real_append(kept, a, b)

        def verify(program, out):
            checked.append((program, out))
            return real_verify(program, out)

        rng = random.Random(20261018)
        kinds = set()
        for _ in range(60):
            system = _exchange_system(rng)
            full = _full_rows(system)
            posed.clear()
            checked.clear()
            monkeypatch.setattr(lp.System, "__init__", init)
            monkeypatch.setattr(lp.System, "append", append)
            monkeypatch.setattr(lp, "verify_certificate", verify)
            cert = semiinf.band_point(system)
            monkeypatch.undo()
            x = cert.x
            assert (x is None) == full.is_empty()
            if x is not None:
                assert cert.status == lp.OPTIMAL and cert.value == ZERO
                assert satisfies_rows(full.G, full.h, full.E, full.e, x)
                assert not checked
                kinds.add("point")
                continue
            (program, out), = checked
            assert out is cert
            assert program.G == full.G and program.E == full.E
            mu, nu = out.farkas_ineq, out.farkas_eq
            assert certifies_empty(full.G, full.h, full.E, full.e, mu, nu)
            used = {(tuple(full.G[i]), full.h[i])
                    for i, v in enumerate(mu) if v != ZERO}
            assert used <= set(posed)
            kinds.add("empty")
            if len(system.ground.E):
                kinds.add("equality ground")
        assert kinds == {"point", "empty", "equality ground"}

    def test_bad_farkas_vector_raises(self, monkeypatch):
        system = semiinf.grid([([1], 0, 1), ([1], 2, 3)],
                              sets.whole_space(1),
                              PiecewiseAffine(dim=1, slopes=[[0]],
                                              offsets=[0]))
        assert semiinf.band_point(system).x is None
        monkeypatch.setattr(lp, "verify_certificate", lambda p, o: False)
        with pytest.raises(InvariantViolation):
            semiinf.band_point(system)

    def test_point_is_checked_against_every_row(self, monkeypatch):
        system = simple_grid()
        full = _full_rows(system)
        x = semiinf.band_point(system).x
        assert satisfies_rows(full.G, full.h, full.E, full.e, x)
        # a scan that sees no violation must not let a bad point through:
        # the first scan adds a row, and the second passes the LP's point
        scans = iter([0])
        monkeypatch.setattr(semiinf, "_most_violated",
                            lambda rows, x: next(scans, None))
        monkeypatch.setattr(lp.System, "append",
                            lambda kept, a, b: lp.LPOutcome(
                                lp.OPTIMAL, x=[Q(9), Q(9)]))
        with pytest.raises(InvariantViolation):
            semiinf.band_point(system)

    @pytest.mark.parametrize("values, degree, eps, consistent, bounds", [
        ("square", 3, Q(1, 100), True, (1, 4)),
        ("inverse", 4, Q(2, 1000), False, (1, 7)),
    ])
    def test_growth_at_1001_nodes(self, count_phase1, count_pivots, values,
                                  degree, eps, consistent, bounds):
        # the dense feasibility LP this replaced took one phase 1 with about
        # one pivot per node (104 and 193 at 101 nodes), each over all rows;
        # a fresh LP per round took 11 and 8 phase-1 runs, 30 and 31 pivots
        nodes = polyapprox.uniform_nodes(1001)
        g = [t * t if values == "square" else 1 / (1 + t) for t in nodes]
        problem = polyapprox.ApproxProblem(degree_bound=degree, nodes=nodes,
                                           values=g, epsilons=[eps])
        system = polyapprox.to_grid(problem, eps)
        cert, runs = count_phase1(semiinf.band_point, system)
        _, pivots = count_pivots(semiinf.band_point, system)
        assert (cert.x is not None) == consistent
        assert runs <= bounds[0] and pivots <= bounds[1]
        # the whole consistency check adds no LP to the exchange and the
        # grid's construction (which checks the ground); the moment cone
        # probe it replaced added one phase 1 and, at 101 nodes, 29 and 174
        # pivots
        grid_runs = count_phase1(polyapprox.to_grid, problem, eps)[1]
        grid_pivots = count_pivots(polyapprox.to_grid, problem, eps)[1]
        verdict, runs = count_phase1(polyapprox.check_consistency,
                                     problem, eps)
        _, pivots = count_pivots(polyapprox.check_consistency, problem, eps)
        assert verdict == consistent
        assert runs - grid_runs <= bounds[0]
        assert pivots - grid_pivots <= bounds[1]
