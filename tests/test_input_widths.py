"""One table of wrong-width and wrong-count inputs, one row per public entry.

Each row makes exactly one fault: a vector or a block of rows of the wrong
width, or a count that does not match the rows it belongs to; for the CLI
loaders, also an entry that is not a rational. The entry must refuse it
with a ValueError whose text is pinned byte for byte (the CLI's
InputFormatError is one).
"""

import dataclasses
import random

import pytest

from farkaskit import (calculus, cli, duality, instances, lp, polyapprox,
                       semiinf, sets)
from farkaskit.rational import Q

# a one-dimensional instance document: f(x) = x, A = [1], D = {y <= 1}
DOC = {"f": {"slopes": [[1]], "offsets": [0]}, "A": [[1]],
       "D": {"G": [[1]], "h": [1]}}


def program():
    """min 0 over x <= 1, one variable."""
    return lp.LinearProgram(c=[0], G=[[1]], h=[1], E=[], e=[])


def triangle():
    return sets.Polyhedron(dim=2, G=[[-1, 0], [0, -1], [1, 1]],
                           h=[0, 0, 2])


def unit_square():
    return sets.Box([(0, 1), (0, 1)])


def two_dim_function():
    return calculus.PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[0])


def instance():
    """n = 1, m = 3."""
    return instances.random_feasible_instance(random.Random(3))


CASES = [
    # lp
    pytest.param(lambda: lp.LinearProgram(c=[0, 0], G=[[1]], h=[0],
                                          E=[], e=[]),
                 "inequality row width != number of variables",
                 id="LinearProgram.G"),
    pytest.param(lambda: lp.LinearProgram(c=[0], G=[[1]], h=[0, 1],
                                          E=[], e=[]),
                 "inequality rows and right-hand sides differ in count",
                 id="LinearProgram.h"),
    pytest.param(lambda: lp.LinearProgram(c=[0, 0], G=[], h=[],
                                          E=[[1]], e=[0]),
                 "equality row width != number of variables",
                 id="LinearProgram.E"),
    pytest.param(lambda: lp.LinearProgram(c=[0], G=[], h=[],
                                          E=[[1]], e=[]),
                 "equality rows and right-hand sides differ in count",
                 id="LinearProgram.e"),
    pytest.param(lambda: lp.LinearProgram(c=[0], G=[], h=[], E=[], e=[],
                                          nonneg=[True, False]),
                 "nonneg flag count != number of variables",
                 id="LinearProgram.nonneg"),
    pytest.param(lambda: lp.System(program()).outcome([1, 2]),
                 "cost width != number of variables", id="System.outcome"),
    pytest.param(lambda: lp.System(program()).maxima([[]]),
                 "cost width != number of variables", id="System.maxima"),
    pytest.param(lambda: lp.System(program()).feasible([0, 0]),
                 "right-hand side length != number of rows",
                 id="System.feasible"),
    pytest.param(lambda: lp.System(program()).append([1, 2], 0),
                 "row width != number of variables", id="System.append"),
    # sets
    pytest.param(lambda: sets.LiftedSet(dim=1, witness_dim=1, G=[[1]],
                                        h=[0]),
                 "row width != dim + witness_dim", id="LiftedSet.G"),
    pytest.param(lambda: sets.LiftedSet(dim=1, G=[[1]], h=[]),
                 "row/rhs count mismatch", id="LiftedSet.h"),
    pytest.param(lambda: sets.LiftedSet(dim=1, witness_dim=1,
                                        E=[[1, 0, 0]], e=[0]),
                 "row width != dim + witness_dim", id="LiftedSet.E"),
    pytest.param(lambda: sets.LiftedSet(dim=1, witness_dim=1, E=[[1, 1]],
                                        e=[0, 1]),
                 "row/rhs count mismatch", id="LiftedSet.e"),
    pytest.param(lambda: sets.LiftedSet(dim=1, witness_dim=1,
                                        witness_nonneg=[True, True]),
                 "witness flag count != witness_dim",
                 id="LiftedSet.witness_nonneg"),
    pytest.param(lambda: sets.member(triangle(), [0]),
                 "point dimension mismatch", id="sets.member"),
    pytest.param(lambda: sets.members(triangle(), [[0, 0], [0, 0, 0]]),
                 "point dimension mismatch", id="sets.members"),
    pytest.param(lambda: sets.supports(triangle(), [[1]]),
                 "direction dimension mismatch", id="sets.supports"),
    pytest.param(lambda: sets.linear_image(triangle(), [[1, 1, 1]]),
                 "matrix width != set dimension", id="sets.linear_image"),
    pytest.param(lambda: sets.minkowski_sum(triangle(), sets.whole_space(3)),
                 "dimension mismatch", id="sets.minkowski_sum"),
    pytest.param(lambda: sets.contains_generated(
                     triangle(), sets.GeneratedSet(dim=1, points=[[0]])),
                 "dimension mismatch", id="sets.contains_generated"),
    pytest.param(lambda: sets.cone_closed_regarding(triangle(), [1]),
                 "point dimension mismatch", id="sets.cone_closed_regarding"),
    pytest.param(lambda: sets.GeneratedSet(dim=2, points=[[0]]),
                 "generator width != dim", id="GeneratedSet.points"),
    pytest.param(lambda: sets.GeneratedSet(dim=2, points=[[0, 0]],
                                           rays=[[1]]),
                 "generator width != dim", id="GeneratedSet.rays"),
    pytest.param(lambda: sets.Polyhedron(dim=2, G=[[1]], h=[0]),
                 "row width != dim", id="Polyhedron.G"),
    pytest.param(lambda: sets.Polyhedron(dim=1, G=[[1]], h=[]),
                 "row/rhs count mismatch", id="Polyhedron.h"),
    pytest.param(lambda: sets.Polyhedron(dim=2, E=[[1]], e=[0]),
                 "row width != dim", id="Polyhedron.E"),
    pytest.param(lambda: sets.Polyhedron(dim=1, E=[[1]], e=[0, 1]),
                 "row/rhs count mismatch", id="Polyhedron.e"),
    pytest.param(lambda: sets.Polyhedron(dim=1, witness_dim=1, G=[[1, 1]],
                                         h=[0]),
                 "a polyhedron has no witness columns",
                 id="Polyhedron.witness_dim"),
    pytest.param(lambda: sets.Polyhedron(dim=2, G=[[1, 1]],
                                         h=[0]).contains([-5]),
                 "point dimension mismatch", id="Polyhedron.contains"),
    pytest.param(lambda: sets.Box([(0, 1, 2)]),
                 "each bound must be a (lo, hi) pair", id="Box.bounds"),
    pytest.param(lambda: unit_square().contains([Q(1, 2)]),
                 "point dimension mismatch", id="Box.contains"),
    pytest.param(lambda: unit_square().support([1]),
                 "direction dimension mismatch", id="Box.support"),
    # calculus
    pytest.param(lambda: calculus.PiecewiseAffine(dim=2, slopes=[[1]],
                                                  offsets=[0]),
                 "slope width != dim", id="PiecewiseAffine.slopes"),
    pytest.param(lambda: calculus.PiecewiseAffine(dim=1, slopes=[[1]],
                                                  offsets=[0, 1]),
                 "piece count mismatch between slopes and offsets",
                 id="PiecewiseAffine.offsets"),
    pytest.param(lambda: calculus.PiecewiseAffine(
                     dim=2, slopes=[[1, 1]], offsets=[0],
                     domain=sets.whole_space(1)),
                 "domain dimension mismatch", id="PiecewiseAffine.domain"),
    pytest.param(lambda: two_dim_function().value([3]),
                 "point dimension mismatch", id="PiecewiseAffine.value"),
    pytest.param(lambda: calculus.fenchel_values(two_dim_function(), [[1]]),
                 "point dimension mismatch", id="calculus.fenchel_values"),
    pytest.param(lambda: calculus.minimize_over(
                     two_dim_function(), sets.whole_space(1)),
                 "dimension mismatch", id="calculus.minimize_over"),
    pytest.param(lambda: calculus.restricted_conjugate_epigraph(
                     two_dim_function(), sets.whole_space(1)),
                 "dimension mismatch",
                 id="calculus.restricted_conjugate_epigraph"),
    # engine
    pytest.param(lambda: dataclasses.replace(
                     instance(),
                     matrix=[row + [0] for row in instance().matrix]),
                 "map row width != ground dimension",
                 id="FarkasInstance.matrix"),
    pytest.param(lambda: instance().apply([]),
                 "point dimension mismatch", id="FarkasInstance.apply"),
    pytest.param(lambda: instance().adjoint([1] * 5),
                 "multiplier dimension mismatch",
                 id="FarkasInstance.adjoint"),
    # duality, semiinf, polyapprox
    pytest.param(lambda: duality.check_optimality(instance(), [0, 0]),
                 "point dimension mismatch", id="duality.check_optimality"),
    pytest.param(lambda: semiinf.SignedMultiplier(plus=[1], minus=[0, 0]),
                 "plus/minus length mismatch", id="SignedMultiplier"),
    pytest.param(lambda: polyapprox.ApproxProblem(
                     degree_bound=2, nodes=[0, 1], values=[0],
                     epsilons=[1]),
                 "one value per node required", id="ApproxProblem.values"),
    # cli loaders
    pytest.param(lambda: cli.load_instance(dict(DOC, C={"G": [[1, 1]],
                                                        "h": [0]})),
                 "C: row width != dim", id="cli.load_instance.C"),
    pytest.param(lambda: cli.load_instance(dict(DOC, D={"G": [[1]],
                                                        "h": [1, 2]})),
                 "D: row/rhs count mismatch", id="cli.load_instance.D"),
    pytest.param(lambda: cli.load_instance(dict(DOC, D={"box": [[0, 1],
                                                                [0, 1]]})),
                 "inconsistent instance: map row count != target dimension",
                 id="cli.load_instance.box"),
    pytest.param(lambda: cli.load_instance(dict(DOC, A=[[0.5]])),
                 'A: float 0.5 rejected: exact rationals only (write e.g. '
                 '"1/3")', id="cli.load_instance.A"),
    pytest.param(lambda: cli.load_approx({"approx": {
                     "degree": 1, "nodes": [0, 1], "values": [0],
                     "epsilons": [1]}}),
                 "approx: one value per node required",
                 id="cli.load_approx.values"),
    pytest.param(lambda: cli.load_tilts({"tilts": [[[1, 0], 0]]}, 1),
                 "tilts[0]: shift width != 1", id="cli.load_tilts.shift"),
    pytest.param(lambda: cli.load_tilts({"tilts": [[["1/2", "x"], 0]]}, 2),
                 "tilts[0]: not a rational literal: 'x'",
                 id="cli.load_tilts.entry"),
]


@pytest.mark.parametrize("call, message", CASES)
def test_wrong_width_raises_its_message(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
