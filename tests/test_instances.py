"""Generator guarantees: size bounds, worthiness, and determinism."""

import random

from farkaskit import instances, lp
from farkaskit.rational import Q, ZERO
from farkaskit.sets import Box


def test_random_lp_size_bounds():
    rng = random.Random(11)
    for _ in range(200):
        prog, bounds = instances.random_lp(rng)
        assert 1 <= prog.n <= 6
        assert len(prog.G) + len(prog.E) <= 8
        if bounds is not None:
            assert len(bounds) == prog.n
            assert all(lo <= hi for lo, hi in bounds)
            assert not prog.E  # box draws are pure inequality programs


def test_random_lp_deterministic():
    a, _ = instances.random_lp(random.Random(5))
    b, _ = instances.random_lp(random.Random(5))
    assert a == b


def test_feasible_instances_are_feasible():
    rng = random.Random(12)
    for _ in range(30):
        inst = instances.random_feasible_instance(rng)
        assert not inst.feasible_polyhedron().is_empty()
        assert 1 <= inst.n <= 3 and 1 <= inst.m <= 3


def test_infeasible_instances_are_infeasible():
    rng = random.Random(13)
    for _ in range(30):
        inst = instances.random_infeasible_instance(rng)
        assert inst.feasible_polyhedron().is_empty()


def test_row_range_is_exact():
    # row (2, -3) over [0,1] x [-1, 2]
    row = [Q(2), Q(-3)]
    box = Box([(Q(0), Q(1)), (Q(-1), Q(2))])
    assert (-box.support([-v for v in row]), box.support(row)) == (-6, 5)


def test_infeasible_targets_lie_past_the_ground_range():
    rng = random.Random(13)
    for _ in range(30):
        inst = instances.random_infeasible_instance(rng)
        h = inst.ground.h  # hi_j, then -lo_j, per coordinate (Box.pullback)
        ground = Box([(-lo, hi) for hi, lo in zip(h[0::2], h[1::2])])
        assert any(lo > ground.support(row)
                   for row, (lo, _) in zip(inst.matrix, inst.target.bounds))


def test_random_grid_size_bounds():
    rng = random.Random(14)
    for _ in range(30):
        grid = instances.random_grid(rng)
        assert 1 <= grid.n <= 4
        assert 1 <= grid.m <= 6
        for lo, hi in grid.target.bounds:
            assert lo <= hi


def test_concave_instances_have_full_domain():
    rng = random.Random(15)
    for _ in range(20):
        inst = instances.random_concave_instance(rng)
        assert inst.objective.domain is None
        assert not inst.feasible_polyhedron().is_empty()


def test_sample_feasible_points():
    rng = random.Random(16)
    for _ in range(20):
        inst = instances.random_feasible_instance(rng)
        pts = instances.sample_feasible_points(inst, rng, count=3)
        assert pts
        feas = inst.feasible_polyhedron()
        for p in pts:
            assert feas.contains(p)
            assert inst.objective.value(p) is not None
            if inst.objective.domain is not None:
                assert inst.objective.domain.contains(p)
        keys = {tuple(p) for p in pts}
        assert len(keys) == len(pts)
