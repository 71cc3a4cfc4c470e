"""The rows of every derived set, hashed and pinned.

The residual epigraphs, the multiplier and certificate cones, the support
and restricted conjugate epigraphs and the full certificate program are
all row surgery on the instance data, and the LP kernel sees those rows
exactly as they are built. Two builders that describe the same set with
rows in another order, or with another sign flag, give the same verdicts
but other pivots, so other certificates. This test hashes every such set
as the program it poses (a lifted set, a polyhedron included, as its
dimensions and the rows, right-hand sides and sign flags of
`sets._joint_lp`, a program as its repr) over a seeded pool of feasible, infeasible and
equality-pinned instances, plus instances whose ground misses dom f, and
compares the hash with the recorded one. Hashing the posed program, not
the set's fields, keeps the pin valid across a change of how a set holds
its rows.

To re-record after an intended change of rows, print `_digest()[0]` and
replace GOLDEN, saying in the change why the rows moved.
"""

import dataclasses
import functools
import hashlib
import random

from farkaskit import calculus, engine, instances, lp, polyapprox, sets
from farkaskit.calculus import PiecewiseAffine
from farkaskit.engine import FarkasInstance
from farkaskit.rational import Q
from farkaskit.sets import Box, LiftedSet, Polyhedron

from test_golden_certificates import _pinned

GOLDEN = "b2419d1ef750fd1757c51381d74eac7590c5749eb8e890506dbe1c4f4b76f306"
POOL = 40  # instances of each kind


def _missed(inst: FarkasInstance) -> FarkasInstance:
    """The same instance with f's domain moved off the ground box."""
    f = inst.objective
    far = Box([(Q(10), Q(11))] * f.dim).to_polyhedron()
    return FarkasInstance(
        ground=inst.ground, matrix=inst.matrix, target=inst.target,
        objective=PiecewiseAffine(dim=f.dim, slopes=f.slopes,
                                  offsets=f.offsets, domain=far))


def _pool():
    rng = random.Random(20261)
    for k in range(POOL):
        inst = instances.random_feasible_instance(rng)
        yield inst
        if k % 2 == 0:
            yield _pinned(inst)
        inst = instances.random_infeasible_instance(rng)
        yield inst
        if k % 2 == 1:
            yield _pinned(inst)
        if k % 4 == 0:
            yield _missed(inst)
    for k in range(POOL // 4):
        yield instances.random_grid(rng)


def _sets(inst: FarkasInstance):
    f = inst.objective
    pre = inst.preimage_polyhedron()
    feas = inst.ground.intersect(pre)
    yield "preimage", pre
    yield "decoupled", engine.decoupled_residual_epigraph(inst)
    try:
        yield "residual", engine.residual_epigraph(inst)
    except ValueError as err:
        yield "residual error", str(err)
    yield "multiplier cone", engine.multiplier_cone(inst)
    yield "certificate cone", engine.certificate_cone(inst)
    yield "target support", calculus.support_epigraph(inst.target)
    for p in (inst.ground, pre, feas):
        yield "support", calculus.support_epigraph(p)
    for over in (inst.ground, feas, Polyhedron(dim=inst.n)):
        yield "restricted", calculus.restricted_conjugate_epigraph(f, over)
    p, _ = engine.full_program(inst)
    yield "full program", (p.E, p.e, p.c, p.nonneg)


def _band():
    nodes = polyapprox.uniform_nodes(5)
    problem = polyapprox.ApproxProblem(
        degree_bound=3, nodes=nodes, values=[t * t for t in nodes],
        epsilons=[Q(1, 10)])
    inst = polyapprox.to_grid(problem, Q(1, 10))
    yield "band preimage", inst.preimage_polyhedron()


def _posed(obj):
    """A lifted set, a polyhedron included (by `to_lifted`, the lifted
    set it is), as the program the kernel solves for it; anything else as
    it is."""
    if isinstance(obj, Polyhedron):
        obj = obj.to_lifted()
    if not isinstance(obj, LiftedSet):
        return obj
    p = sets._joint_lp(obj)
    return obj.dim, obj.witness_dim, p.G, p.h, p.E, p.e, p.nonneg


@functools.lru_cache(maxsize=None)
def _digest():
    """The hash over every posed set, and the kinds of data the pool
    reached on the way."""
    h = hashlib.sha256()
    seen = set()
    for inst in _pool():
        if inst.ground.E and inst.target_polyhedron().E:
            seen.add("pinned")
        if inst.objective.domain is not None and inst.objective.domain.E:
            seen.add("pinned domain")
        if isinstance(inst.target, Box):
            seen.add("box target")
        for tag, obj in _sets(inst):
            if tag == "residual error":
                seen.add("missed domain")
            h.update(repr((tag, _posed(obj))).encode() + b"\n")
    for tag, obj in _band():
        h.update(repr((tag, _posed(obj))).encode() + b"\n")
    return h.hexdigest(), frozenset(seen)


def test_pool_reaches_every_block():
    assert _digest()[1] == {"pinned", "pinned domain", "box target",
                              "missed domain"}


def test_set_rows_match_recorded_hash():
    assert _digest()[0] == GOLDEN


def _pool_sets():
    """Every set of the pool, lifted sets and polyhedra alike."""
    for inst in _pool():
        yield from ((tag, obj) for tag, obj in _sets(inst)
                    if isinstance(obj, LiftedSet))
    yield from _band()


def test_every_pool_set_keeps_one_fresh_emptiness(count_phase1):
    # each set's kept emptiness outcome is a fresh solve's, bit for bit;
    # its LP runs once per set, on a copy that `dataclasses.replace` built
    # with nothing kept; a point is a new list each time, a member; and an
    # empty set's Farkas pair passes substitution into its rows
    kinds = set()
    # every lifted set the pool builds holds a point, so an empty one with
    # witness columns is added here, outside the hashed pool
    empty_image = sets.linear_image(sets.empty_set(2), [[1, 1]])
    for tag, s in [*_pool_sets(), ("empty image", empty_image)]:
        fresh = lp.solve(sets._joint_lp(s))
        t = dataclasses.replace(s)
        kept, runs = count_phase1(t.emptiness)
        assert kept == fresh == s.emptiness() and runs == 1
        assert count_phase1(t.emptiness) == (kept, 0)
        point = t.a_point()
        if point is None:
            assert fresh.status == lp.INFEASIBLE
            assert lp.verify_certificate(sets._joint_lp(t), kept)
        else:
            assert point == fresh.x[:t.dim] and point is not t.a_point()
            assert sets.members(t, [point]) == [True]
        kinds.add((type(t).__name__, point is None))
    assert kinds == {("LiftedSet", False), ("LiftedSet", True),
                     ("Polyhedron", False), ("Polyhedron", True)}
