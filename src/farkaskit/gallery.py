"""Three worked instances with hand-derived, frozen verdicts.

g1  an inconsistent pair: the feasible set is empty, so the nonnegativity
    statement holds vacuously while no certificate exists, both closedness
    criteria fail at the depth probe, and the minimization problem and its
    dual are infeasible at the same time.
g2  a cone map whose adjoint image is not closed: every verdict is decided
    in closed form (no linear programs), and the statement/certificate
    equivalence fails exactly at the boundary point that closure adds.
g3  an all-clear box instance: finite minimum, certificate present, every
    criterion holds and the dual attains the primal value.

The summaries are compared bit-exactly against tests/fixtures/g*.json,
which were written by hand before this module.
"""

from dataclasses import dataclass

from . import duality, engine, sets
from .calculus import PiecewiseAffine
from .engine import FarkasInstance
from .errors import InputFormatError, InvariantViolation
from .rational import ZERO, as_q, scalar_text

GALLERY_NAMES = ("g1", "g2", "g3")


def _texts(xs):
    return [scalar_text(x) for x in xs]


def _criterion(report: engine.CheckReport) -> dict:
    return {
        "holds": report.criterion_holds,
        "fails_at": None if report.criterion_holds
        else _texts(report.probe_point),
    }


@dataclass
class GalleryReport:
    name: str
    summary: dict
    narrative: list


# --- g1: both problems infeasible, criteria fail at the depth probe ------

def g1_instance() -> FarkasInstance:
    # one free variable; the map collapses everything to 0, which the
    # target {1} never meets, and f = -x defeats every affine minorant
    return FarkasInstance(
        ground=sets.whole_space(1),
        matrix=[[0]],
        target=sets.Box([(1, 1)]),
        objective=PiecewiseAffine(dim=1, slopes=[[-1]], offsets=[0]))


def _summary(name: str, inst: FarkasInstance, dual: dict) -> dict:
    """The summary keys g1 and g3 share, with the one dual entry `dual`
    (its key and value) after the reduced criterion."""
    primal = engine.check_primal_criterion(inst)
    reduced = engine.check_reduced_criterion(inst)
    existence = engine.check_existence(inst)
    pair = duality.check_strong_duality(inst)
    return {
        "name": name,
        "feasible": existence.feasible,
        "preimage_nonempty": existence.preimage_nonempty,
        "statement": primal.nonnegativity.verdict.value,
        "minimum": scalar_text(primal.nonnegativity.minimum),
        "certificate": "present" if primal.certificate is not None
        else "absent",
        "reduced_certificate": "present" if reduced.certificate is not None
        else "absent",
        "primal_criterion": _criterion(primal),
        "reduced_criterion": _criterion(reduced),
        **dual,
        "primal_status": pair.primal.status,
        "dual_status": pair.dual.status,
        "primal_value": scalar_text(pair.primal.value),
        "dual_value": scalar_text(pair.dual.value),
        "strong_duality_equal": pair.equal,
    }


def _g1() -> GalleryReport:
    inst = g1_instance()
    try:
        engine.check_dual_criterion(inst)
        dual_check = "ran"
    except ValueError as exc:
        dual_check = f"hypothesis violated: {exc}"
    summary = _summary("g1", inst, {"dual_check": dual_check})
    narrative = [
        "the map sends every point to 0, which the target {1} never meets:"
        " the feasible set is empty",
        "with nothing left to check, the nonnegativity statement holds"
        " vacuously, yet no certificate exists: the objective -x runs below"
        " every affine minorant a multiplier could offer",
        "both closedness criteria fail at the depth probe, a point the"
        " closures gain but the cones miss",
        "the minimization problem and its dual are infeasible"
        " simultaneously, the classical gap pair",
    ]
    return GalleryReport("g1", summary, narrative)


# --- g2: adjoint image of the quadratic cone, decided in closed form -----

# map x -> (x1, -x2, x2) into the cone {y : y3 >= sqrt(y1^2 + y2^2)};
# the adjoint sends a multiplier mu to (mu1, mu3 - mu2)
G2_MATRIX = [[1, 0], [0, -1], [0, 1]]


def quadratic_cone_member(y) -> bool:
    """y3 >= sqrt(y1^2 + y2^2), decided exactly by squaring."""
    y1, y2, y3 = (as_q(v) for v in y)
    return y3 >= 0 and y3 * y3 >= y1 * y1 + y2 * y2


def adjoint_of(mu):
    m1, m2, m3 = (as_q(v) for v in mu)
    return [m1, m3 - m2]


def adjoint_image_member(point) -> bool:
    """(a, b) has a cone preimage under the adjoint iff b > 0, or a = 0
    and b >= 0: with mu3 >= sqrt(mu1^2 + mu2^2) the gap mu3 - mu2 is
    strictly positive whenever mu1 != 0 and can reach any positive value,
    while mu1 = 0 also allows the gap to close to 0."""
    a, b = as_q(point[0]), as_q(point[1])
    return b > 0 or (a == 0 and b >= 0)


def adjoint_image_closure_member(point) -> bool:
    # the closure is the full upper half-plane: the missing horizontal
    # rays (a, 0), a != 0, are limits of (a, 1/k)
    return as_q(point[1]) >= 0


def image_multiplier(point):
    """A cone member mapping onto the point, None outside the image.

    For b > 0 take mu = (a, (a^2 - b^2)/(2b), (a^2 + b^2)/(2b)): the
    adjoint gives back (a, b), and mu lies on the cone boundary since
    mu3^2 - mu2^2 = a^2.  On the vertical ray use the axis point (0, 0, b).
    """
    a, b = as_q(point[0]), as_q(point[1])
    if a == 0 and b >= 0:
        mu = [ZERO, ZERO, b]
    elif b > 0:
        mu = [a, (a * a - b * b) / (2 * b), (a * a + b * b) / (2 * b)]
    else:
        return None
    if not quadratic_cone_member(mu) or adjoint_of(mu) != [a, b]:
        raise InvariantViolation("constructed multiplier failed its checks")
    return mu


def statement_holds_at(point) -> bool:
    """Whether membership of the mapped point in the cone forces a
    nonnegative pairing with the given functional.

    (x1, -x2, x2) lies in the cone iff x2 >= sqrt(x1^2 + x2^2), which
    forces x1 = 0 and x2 >= 0; on that ray the pairing a*x1 + b*x2 = b*x2
    is nonnegative for all x2 >= 0 iff b >= 0.
    """
    return as_q(point[1]) >= 0


def g2_probe(point) -> dict:
    """All verdicts at one functional, cross-checked for the forced
    equivalence: statement <-> certificate must match one-point closedness."""
    point = [as_q(point[0]), as_q(point[1])]
    statement = statement_holds_at(point)
    mu = image_multiplier(point)
    present = mu is not None
    if present != adjoint_image_member(point):
        raise InvariantViolation(
            "multiplier construction disagrees with image membership")
    in_closure = adjoint_image_closure_member(point)
    criterion = not (in_closure and not present)
    if (statement == present) != criterion:
        raise InvariantViolation(
            "statement/certificate equivalence must match closedness"
            " at the probe functional")
    out = {
        "point": _texts(point),
        "statement": statement,
        "certificate": "present" if present else "absent",
        "criterion": {"holds": criterion,
                      "fails_at": None if criterion else _texts(point)},
        "equivalence_holds": statement == present,
    }
    if present:
        out["multiplier"] = _texts(mu)
    return out


def _g2() -> GalleryReport:
    gap = g2_probe([1, 0])
    interior = g2_probe([0, 1])
    summary = {
        "name": "g2",
        "adjoint_image": "{(a, b) : b > 0} union ({0} x [0, inf))",
        "closure_adds": "the horizontal rays (a, 0) with a != 0",
        "feasible_directions": "{(0, t) : t >= 0}",
        "probes": [gap, interior],
    }
    narrative = [
        "the adjoint image of the quadratic cone misses the horizontal"
        " boundary rays; its closure adds them",
        "at the gap point (1, 0) the statement holds but no multiplier"
        " exists: tilting into the part the closure adds breaks the"
        " equivalence exactly where one-point closedness fails",
        "at the interior point (0, 1) the axis multiplier (0, 0, 1)"
        " certifies the statement and the equivalence holds",
        "every verdict above is closed-form arithmetic on exact rationals;"
        " no linear program is solved",
    ]
    return GalleryReport("g2", summary, narrative)


# --- g3: everything holds ------------------------------------------------

def g3_instance() -> FarkasInstance:
    # ground [0,1]^2, map (x1, x1+x2) into [0,1]^2 (the second row binds),
    # objective x1 + x2 with unique minimizer at the origin
    return FarkasInstance(
        ground=sets.Box([(0, 1), (0, 1)]).to_polyhedron(),
        matrix=[[1, 0], [1, 1]],
        target=sets.Box([(0, 1), (0, 1)]),
        objective=PiecewiseAffine(dim=2, slopes=[[1, 1]], offsets=[0]))


def _g3() -> GalleryReport:
    inst = g3_instance()
    dual = engine.check_dual_criterion(inst)
    summary = _summary("g3", inst, {"dual_criterion": _criterion(dual)})
    summary["optimal_point"] = _texts(duality.solve_primal(inst).point)
    summary["optimality_at_point"] = duality.check_optimality(
        inst, [ZERO, ZERO]).optimal
    narrative = [
        "the box instance passes every check: minimum 0 on the feasible"
        " set, certificate present, all three criteria hold",
        "the dual attains the primal value 0, and the origin passes the"
        " three optimality tests (value comparison, certificate,"
        " subdifferential)",
    ]
    return GalleryReport("g3", summary, narrative)


_BUILDERS = {"g1": _g1, "g2": _g2, "g3": _g3}


def report(name: str) -> GalleryReport:
    if name not in _BUILDERS:
        raise InputFormatError(
            f"unknown gallery entry {name!r}: choose from"
            f" {', '.join(GALLERY_NAMES)}")
    return _BUILDERS[name]()


# Frozen, hand-derived verdicts. These duplicate tests/fixtures/g*.json on
# purpose: the copies below ship with the package so the CLI can verify a
# live run against them, and a test pins the two copies to each other.
FROZEN = {
    "g1": {
        "name": "g1",
        "feasible": False,
        "preimage_nonempty": False,
        "statement": "vacuously_true",
        "minimum": "inf",
        "certificate": "absent",
        "reduced_certificate": "absent",
        "primal_criterion": {"holds": False, "fails_at": ["0", "0", "-1"]},
        "reduced_criterion": {"holds": False, "fails_at": ["0", "-1"]},
        "dual_check": "hypothesis violated: no feasible point inside the"
                      " objective's domain",
        "primal_status": "infeasible",
        "dual_status": "infeasible",
        "primal_value": "inf",
        "dual_value": "-inf",
        "strong_duality_equal": False,
    },
    "g2": {
        "name": "g2",
        "adjoint_image": "{(a, b) : b > 0} union ({0} x [0, inf))",
        "closure_adds": "the horizontal rays (a, 0) with a != 0",
        "feasible_directions": "{(0, t) : t >= 0}",
        "probes": [
            {
                "point": ["1", "0"],
                "statement": True,
                "certificate": "absent",
                "criterion": {"holds": False, "fails_at": ["1", "0"]},
                "equivalence_holds": False,
            },
            {
                "point": ["0", "1"],
                "statement": True,
                "certificate": "present",
                "multiplier": ["0", "0", "1"],
                "criterion": {"holds": True, "fails_at": None},
                "equivalence_holds": True,
            },
        ],
    },
    "g3": {
        "name": "g3",
        "feasible": True,
        "preimage_nonempty": True,
        "statement": "true",
        "minimum": "0",
        "certificate": "present",
        "reduced_certificate": "present",
        "primal_criterion": {"holds": True, "fails_at": None},
        "reduced_criterion": {"holds": True, "fails_at": None},
        "dual_criterion": {"holds": True, "fails_at": None},
        "primal_status": "optimal",
        "dual_status": "optimal",
        "primal_value": "0",
        "dual_value": "0",
        "strong_duality_equal": True,
        "optimal_point": ["0", "0"],
        "optimality_at_point": True,
    },
}


def verify(name: str):
    """Recompute the named entry and compare with its frozen verdicts.
    Returns (matches, report)."""
    rep = report(name)
    return rep.summary == FROZEN[name], rep
