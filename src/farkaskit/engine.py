"""The Farkas engine: implications, multiplier certificates, and the
closedness criteria that separate them.

The question throughout: given a polyhedral ground set in x-space, a linear
map into y-space, a required target set there, and a piecewise affine convex
function f, does

    x in ground  and  map(x) in target   imply   f(x) >= 0,

and when it does, is there a finite multiplier certificate (u, v, lam) with

    f*(u) + sigma_ground(v) + sigma_target(lam) <= 0,   u + v = -map^T lam?

The certificate direction always implies the implication. The reverse holds
exactly when an associated set is closed at a distinguished probe point; this
module materializes those sets, tests the criteria, and raises
InvariantViolation the instant any mathematically forced agreement fails.
For fully polyhedral data the dual-side sets are projections of polyhedra,
hence closed, so their criteria hold structurally; the genuine closure gaps
live on the primal side, in conic hulls, and those are tested for real.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from . import calculus, lp, sets
from .calculus import PiecewiseAffine
from .errors import InvariantViolation
from .rational import (INF, NEG_INF, ONE, Q, ZERO, as_q_matrix, is_finite,
                       mat_vec, transpose_apply)
from .sets import Box, Polyhedron, whole_space_polyhedron


class TriVerdict(Enum):
    """Outcome of a universally quantified implication."""

    TRUE = "true"
    FALSE = "false"
    VACUOUS = "vacuously_true"

    @property
    def holds(self) -> bool:
        return self is not TriVerdict.FALSE


@dataclass
class FarkasInstance:
    """Standing data: ground set in R^n, map rows (m x n), target set in
    R^m, and the tested function. Ground and target must be nonempty and the
    function proper, which the constructor enforces."""

    ground: Polyhedron
    matrix: list
    target: object  # Box or Polyhedron
    objective: PiecewiseAffine

    def __post_init__(self):
        self.matrix = as_q_matrix(self.matrix)
        n = self.ground.dim
        for row in self.matrix:
            if len(row) != n:
                raise ValueError("map row width != ground dimension")
        if isinstance(self.target, Box):
            m = self.target.dim
        elif isinstance(self.target, Polyhedron):
            m = self.target.dim
            if self.target.is_empty():
                raise ValueError("empty target set")
        else:
            raise ValueError("target must be a Box or a Polyhedron")
        if len(self.matrix) != m:
            raise ValueError("map row count != target dimension")
        if self.objective.dim != n:
            raise ValueError("objective dimension != ground dimension")
        if self.ground.is_empty():
            raise ValueError("empty ground set")

    @property
    def n(self) -> int:
        return self.ground.dim

    @property
    def m(self) -> int:
        return len(self.matrix)

    def apply(self, x):
        return mat_vec(self.matrix, x)

    def adjoint(self, lam):
        return transpose_apply(self.matrix, lam, self.n)

    def target_polyhedron(self) -> Polyhedron:
        if isinstance(self.target, Box):
            return self.target.to_polyhedron()
        return self.target

    def target_support(self, lam):
        """sigma_target(lam), by closed form on boxes, LP otherwise."""
        if isinstance(self.target, Box):
            return self.target.support(lam)
        return sets.support(self.target.to_lifted(), lam)

    def preimage_polyhedron(self) -> Polyhedron:
        """{x : map(x) in target}, the target pulled back through the map."""
        t = self.target_polyhedron()
        return Polyhedron(
            dim=self.n,
            G=[self.adjoint(r) for r in t.G], h=t.h,
            E=[self.adjoint(r) for r in t.E], e=t.e)

    def feasible_polyhedron(self) -> Polyhedron:
        """ground intersected with the preimage of target."""
        return self.ground.intersect(self.preimage_polyhedron())

    def domain(self) -> Polyhedron:
        """dom objective, the whole space when it is unrestricted."""
        d = self.objective.domain
        return whole_space_polyhedron(self.n) if d is None else d


# ---------------------------------------------------------------------------
# The dual-side cones and epigraphs, as lifted representations.

def multiplier_cone(inst: FarkasInstance) -> sets.LiftedSet:
    """{(map^T lam, s) : sigma_target(lam) <= s}: the multiplier graph with
    its vertical rays, a convex cone in R^{n+1}. Built as the image of the
    target's support-function epigraph under (lam, s) -> (map^T lam, s)."""
    epi = calculus.support_epigraph(inst.target_polyhedron())
    m = inst.m
    rows = []
    for j in range(inst.n):
        rows.append([inst.matrix[i][j] for i in range(m)] + [ZERO])
    rows.append([ZERO] * m + [ONE])
    return sets.linear_image(epi, rows)


def certificate_cone(inst: FarkasInstance) -> sets.LiftedSet:
    """epi sigma_ground + multiplier cone: the cone whose membership at the
    origin is exactly the existence of a certificate."""
    return sets.minkowski_sum(calculus.support_epigraph(inst.ground),
                              multiplier_cone(inst))


def residual_epigraph(inst: FarkasInstance) -> sets.LiftedSet:
    """{(map(x) - d, r) : x in ground and dom f, d in target, r >= f(x)}
    in R^{m+1}; the reduced primal set whose conic hull carries the
    reduced criterion. Requires ground to meet dom f."""
    meet = inst.ground.intersect(inst.objective.domain)
    if meet.is_empty():
        raise ValueError("ground set misses the objective's domain")
    n, m = inst.n, inst.m
    f = inst.objective
    t = inst.target_polyhedron()
    wd = n + m  # witness (x, d)
    eq_z, eq_w, eq_rhs = [], [], []
    for i in range(m):
        row_z = [ZERO] * (m + 1)
        row_z[i] = ONE
        eq_z.append(row_z)
        eq_w.append([-v for v in inst.matrix[i]]
                    + [ONE if k == i else ZERO for k in range(m)])
        eq_rhs.append(ZERO)
    for r, rhs in zip(meet.E, meet.e):
        eq_z.append([ZERO] * (m + 1))
        eq_w.append(list(r) + [ZERO] * m)
        eq_rhs.append(rhs)
    for r, rhs in zip(t.E, t.e):
        eq_z.append([ZERO] * (m + 1))
        eq_w.append([ZERO] * n + list(r))
        eq_rhs.append(rhs)
    ineq_z, ineq_w, ineq_rhs = [], [], []
    for a, b in zip(f.slopes, f.offsets):
        ineq_z.append([ZERO] * m + [-ONE])
        ineq_w.append(list(a) + [ZERO] * m)
        ineq_rhs.append(-b)
    for r, rhs in zip(meet.G, meet.h):
        ineq_z.append([ZERO] * (m + 1))
        ineq_w.append(list(r) + [ZERO] * m)
        ineq_rhs.append(rhs)
    for r, rhs in zip(t.G, t.h):
        ineq_z.append([ZERO] * (m + 1))
        ineq_w.append([ZERO] * n + list(r))
        ineq_rhs.append(rhs)
    return sets.LiftedSet(dim=m + 1, witness_dim=wd,
                          ineq_z=ineq_z, ineq_w=ineq_w, ineq_rhs=ineq_rhs,
                          eq_z=eq_z, eq_w=eq_w, eq_rhs=eq_rhs)


def decoupled_residual_epigraph(inst: FarkasInstance) -> sets.LiftedSet:
    """{(x - v, map(x) - d, r) : x in ground, v in dom f, d in target,
    r >= f(v)} in R^{n+m+1}; the decoupled primal set whose conic hull
    carries the first closedness criterion."""
    n, m = inst.n, inst.m
    f = inst.objective
    t = inst.target_polyhedron()
    dom = inst.domain()
    dim = n + m + 1
    wd = 2 * n + m  # witness (x, v, d)
    zeros_n = [ZERO] * n
    zeros_m = [ZERO] * m
    eq_z, eq_w, eq_rhs = [], [], []
    for j in range(n):
        row_z = [ZERO] * dim
        row_z[j] = ONE
        eq_z.append(row_z)
        ej = [ONE if k == j else ZERO for k in range(n)]
        eq_w.append([-v for v in ej] + ej + zeros_m)
        eq_rhs.append(ZERO)
    for i in range(m):
        row_z = [ZERO] * dim
        row_z[n + i] = ONE
        eq_z.append(row_z)
        eq_w.append([-v for v in inst.matrix[i]] + zeros_n
                    + [ONE if k == i else ZERO for k in range(m)])
        eq_rhs.append(ZERO)
    for r, rhs in zip(inst.ground.E, inst.ground.e):
        eq_z.append([ZERO] * dim)
        eq_w.append(list(r) + zeros_n + zeros_m)
        eq_rhs.append(rhs)
    for r, rhs in zip(dom.E, dom.e):
        eq_z.append([ZERO] * dim)
        eq_w.append(zeros_n + list(r) + zeros_m)
        eq_rhs.append(rhs)
    for r, rhs in zip(t.E, t.e):
        eq_z.append([ZERO] * dim)
        eq_w.append(zeros_n + zeros_n + list(r))
        eq_rhs.append(rhs)
    ineq_z, ineq_w, ineq_rhs = [], [], []
    for a, b in zip(f.slopes, f.offsets):
        row_z = [ZERO] * dim
        row_z[-1] = -ONE
        ineq_z.append(row_z)
        ineq_w.append(zeros_n + list(a) + zeros_m)
        ineq_rhs.append(-b)
    for r, rhs in zip(inst.ground.G, inst.ground.h):
        ineq_z.append([ZERO] * dim)
        ineq_w.append(list(r) + zeros_n + zeros_m)
        ineq_rhs.append(rhs)
    for r, rhs in zip(dom.G, dom.h):
        ineq_z.append([ZERO] * dim)
        ineq_w.append(zeros_n + list(r) + zeros_m)
        ineq_rhs.append(rhs)
    for r, rhs in zip(t.G, t.h):
        ineq_z.append([ZERO] * dim)
        ineq_w.append(zeros_n + zeros_n + list(r))
        ineq_rhs.append(rhs)
    return sets.LiftedSet(dim=dim, witness_dim=wd,
                          ineq_z=ineq_z, ineq_w=ineq_w, ineq_rhs=ineq_rhs,
                          eq_z=eq_z, eq_w=eq_w, eq_rhs=eq_rhs)


# ---------------------------------------------------------------------------
# Statements.

@dataclass
class NonnegativityReport:
    """Verdict on 'f >= 0 over the feasible set', with the exact minimum
    (INF when the feasible set misses dom f, NEG_INF when unbounded below)
    and a feasible witness with f(witness) < 0 whenever the verdict is
    FALSE."""

    verdict: TriVerdict
    minimum: object
    witness: list | None = None


def check_nonnegativity(inst: FarkasInstance) -> NonnegativityReport:
    feas = inst.feasible_polyhedron()
    if feas.is_empty():
        return NonnegativityReport(verdict=TriVerdict.VACUOUS, minimum=INF)
    best = calculus.minimize_over(inst.objective, feas)
    if best.value is INF or best.value >= ZERO:
        return NonnegativityReport(verdict=TriVerdict.TRUE, minimum=best.value)
    if best.value is NEG_INF:
        point = best.point
        step = ONE
        while inst.objective.value(point) >= ZERO:
            point = [p + step * r for p, r in zip(point, best.ray)]
            step *= 2
        return NonnegativityReport(verdict=TriVerdict.FALSE,
                                   minimum=NEG_INF, witness=point)
    return NonnegativityReport(verdict=TriVerdict.FALSE,
                               minimum=best.value, witness=best.point)


@dataclass
class Certificate:
    """Multiplier triple witnessing the certificate statement. All three
    values are the true recomputed ones, not the solver's bounds."""

    u: list
    v: list
    lam: list
    conjugate_value: object
    ground_support: object
    target_support: object

    def total(self):
        return self.conjugate_value + self.ground_support + self.target_support


def _validate_certificate(inst: FarkasInstance, cert: Certificate):
    link = [a + b + c for a, b, c in
            zip(cert.u, cert.v, inst.adjoint(cert.lam))]
    if any(v != ZERO for v in link):
        raise InvariantViolation("certificate multipliers fail the linear link")
    for val in (cert.conjugate_value, cert.ground_support, cert.target_support):
        if not is_finite(val):
            raise InvariantViolation("certificate component value not finite")
    if cert.total() > ZERO:
        raise InvariantViolation("certificate value budget exceeded")


def _multiplier_program(f: PiecewiseAffine, blocks):
    """The linked-multiplier program behind every certificate search.

    Its variables are weights theta >= 0 on f's pieces (a_i, b_i), then one
    multiplier per row of each block polyhedron, >= 0 on an inequality row
    and free on an equality row. The equality rows are the n cancellation
    rows u + sum over blocks of rows^T mu = 0, with u = sum theta_i a_i,
    then sum theta_i = 1. The budget row (-b on theta, the right-hand sides
    on the multipliers) bounds f*(u) plus each block's support function at
    its rows^T mu from above, tightly for the best multipliers: a
    certificate asks budget . w <= 0, and the dual program minimizes it.
    Returns (E, e, budget, nonneg, split); split(w) cuts a solution into
    theta and one slice per block, its G rows then its E rows."""
    cols = [(a, -b, True) for a, b in zip(f.slopes, f.offsets)]
    for p in blocks:
        cols += [(r, rhs, True) for r, rhs in zip(p.G, p.h)]
        cols += [(r, rhs, False) for r, rhs in zip(p.E, p.e)]
    k = len(f.slopes)
    E = [[r[j] for r, _, _ in cols] for j in range(f.dim)]
    E.append([ONE] * k + [ZERO] * (len(cols) - k))
    e = [ZERO] * f.dim + [ONE]
    cuts = [0, k]
    for p in blocks:
        cuts.append(cuts[-1] + len(p.G) + len(p.E))

    def split(w):
        return [w[a:b] for a, b in zip(cuts, cuts[1:])]

    return (E, e, [rhs for _, rhs, _ in cols], [flag for _, _, flag in cols],
            split)


def _full_program(inst: FarkasInstance):
    """The program of the full triple: blocks dom f, ground and the
    preimage of target. Returns (E, e, budget, nonneg, extract), where
    extract(w) gives (u, lam)."""
    f, dom, t = inst.objective, inst.domain(), inst.target_polyhedron()
    E, e, budget, nonneg, split = _multiplier_program(
        f, [dom, inst.ground, inst.preimage_polyhedron()])

    def extract(w):
        theta, mu_dom, _, mu_t = split(w)
        return (transpose_apply(f.slopes + dom.G + dom.E, theta + mu_dom,
                                inst.n),
                transpose_apply(t.G + t.E, mu_t, inst.m))

    return E, e, budget, nonneg, extract


def find_certificate(inst: FarkasInstance) -> Certificate | None:
    """Search for (u, v, lam) with f*(u) + sigma_ground(v) +
    sigma_target(lam) <= 0 and u + v = -map^T lam, as one feasibility LP
    over the dual representations of all three epigraphs."""
    E, e, budget, nonneg, extract = _full_program(inst)
    out = lp.solve(lp.LinearProgram(c=[ZERO] * len(budget), G=[budget],
                                    h=[ZERO], E=E, e=e, nonneg=nonneg))
    if out.status == lp.INFEASIBLE:
        return None
    u, lam = extract(out.x)
    v = [-a - b for a, b in zip(u, inst.adjoint(lam))]
    cert = Certificate(
        u=u, v=v, lam=lam,
        conjugate_value=calculus.fenchel_value(inst.objective, u),
        ground_support=sets.support(inst.ground.to_lifted(), v),
        target_support=inst.target_support(lam))
    _validate_certificate(inst, cert)
    return cert


@dataclass
class ReducedCertificate:
    """Single multiplier lam witnessing the reduced statement:
    (f + indicator of ground)*(-map^T lam) + sigma_target(lam) <= 0,
    i.e. f(x) + lam . map(x) >= sigma_target(lam) for every ground x."""

    lam: list
    restricted_conjugate: object  # may be NEG_INF when ground misses dom f
    target_support: object

    def total(self):
        if self.restricted_conjugate is NEG_INF:
            return NEG_INF
        return self.restricted_conjugate + self.target_support


def _restricted_conjugate(inst: FarkasInstance, w):
    """(f + indicator of ground)*(w), exactly."""
    best = calculus.minimize_over(inst.objective.tilted(w), inst.ground)
    if best.value is INF:
        return NEG_INF
    if best.value is NEG_INF:
        return INF
    return -best.value


def find_reduced_certificate(inst: FarkasInstance) -> ReducedCertificate | None:
    meet = inst.ground.intersect(inst.objective.domain)
    if meet.is_empty():
        # the restriction is identically +infinity, so its conjugate is
        # -infinity everywhere and lam = 0 certifies trivially
        lam = [ZERO] * inst.m
        return ReducedCertificate(lam=lam, restricted_conjugate=NEG_INF,
                                  target_support=inst.target_support(lam))
    E, e, budget, nonneg, split = _multiplier_program(
        inst.objective, [meet, inst.preimage_polyhedron()])
    out = lp.solve(lp.LinearProgram(c=[ZERO] * len(budget), G=[budget],
                                    h=[ZERO], E=E, e=e, nonneg=nonneg))
    if out.status == lp.INFEASIBLE:
        return None
    _, _, mu_t = split(out.x)
    t = inst.target_polyhedron()
    lam = transpose_apply(t.G + t.E, mu_t, inst.m)
    cert = ReducedCertificate(
        lam=lam,
        restricted_conjugate=_restricted_conjugate(
            inst, [-v for v in inst.adjoint(lam)]),
        target_support=inst.target_support(lam))
    if cert.total() > ZERO:
        raise InvariantViolation("reduced certificate budget exceeded")
    return cert


# ---------------------------------------------------------------------------
# Criteria checks.

@dataclass
class CheckReport:
    """One theorem check: the implication verdict, the certificate search
    outcome, the closedness criterion with its probe point, and supporting
    detail. verdict is always 'consistent' on return; inconsistency raises
    InvariantViolation instead."""

    nonnegativity: NonnegativityReport
    certificate: object
    criterion_holds: bool
    probe_point: list
    verdict: str = "consistent"
    details: dict = field(default_factory=dict)


def _closed_regarding_probe(s: sets.LiftedSet, point):
    strict = sets.cone_member_strict(s, point)
    closure = sets.member(sets.conic_hull_closure(s), point)
    if strict and not closure:
        raise InvariantViolation("a conic hull escaped its own closure")
    return strict, closure


def check_primal_criterion(inst: FarkasInstance) -> CheckReport:
    """First characterization: the implication is equivalent to the
    certificate's existence exactly when the conic hull of the decoupled
    residual set is closed at the depth probe (0, 0, -1)."""
    probe = [ZERO] * (inst.n + inst.m) + [-ONE]
    strict, closure = _closed_regarding_probe(
        decoupled_residual_epigraph(inst), probe)
    criterion = strict or not closure
    rep = check_nonnegativity(inst)
    cert = find_certificate(inst)
    if strict == rep.verdict.holds:
        raise InvariantViolation(
            "depth probe membership must mirror a negative feasible value")
    if cert is not None and not rep.verdict.holds:
        raise InvariantViolation(
            "certificate present although the implication fails")
    if criterion != ((not rep.verdict.holds) or (cert is not None)):
        raise InvariantViolation(
            "primal closedness criterion disagrees with the equivalence")
    return CheckReport(nonnegativity=rep, certificate=cert,
                       criterion_holds=criterion, probe_point=probe,
                       details={"probe_in_cone": strict,
                                "probe_in_closure": closure})


def check_reduced_criterion(inst: FarkasInstance) -> CheckReport:
    """Second characterization, in the target space: same equivalence
    against the reduced certificate, criterion on the conic hull of the
    residual set at (0, -1). Requires ground to meet dom f."""
    probe = [ZERO] * inst.m + [-ONE]
    strict, closure = _closed_regarding_probe(residual_epigraph(inst), probe)
    criterion = strict or not closure
    rep = check_nonnegativity(inst)
    reduced = find_reduced_certificate(inst)
    full = find_certificate(inst)
    if strict == rep.verdict.holds:
        raise InvariantViolation(
            "depth probe membership must mirror a negative feasible value")
    if reduced is not None and not rep.verdict.holds:
        raise InvariantViolation(
            "reduced certificate present although the implication fails")
    if (full is None) != (reduced is None):
        raise InvariantViolation(
            "full and reduced certificates must coexist when ground meets dom f")
    if criterion != ((not rep.verdict.holds) or (reduced is not None)):
        raise InvariantViolation(
            "reduced closedness criterion disagrees with the equivalence")
    return CheckReport(nonnegativity=rep, certificate=reduced,
                       criterion_holds=criterion, probe_point=probe,
                       details={"probe_in_cone": strict,
                                "probe_in_closure": closure})


def _probe_equal_or_raise(a, b, directions, what):
    bad = sets.support_mismatches(a, b, directions)
    if bad:
        d, sa, sb = bad[0]
        raise InvariantViolation(
            f"{what}: support {sa} vs {sb} along {d}")


def check_dual_criterion(inst: FarkasInstance, n_random: int = 8,
                         seed: int = 0) -> CheckReport:
    """Third characterization, in the dual space: the criterion set
    epi f* + certificate cone is a polyhedral projection, hence closed, so
    the criterion holds structurally and the equivalence must follow; the
    probe equalities behind it (the multiplier cone matching the preimage's
    support epigraph, the certificate cone matching the feasible set's, and
    their f*-sum matching the restricted conjugate) are sampled and
    enforced. Requires a feasible point inside dom f."""
    feas = inst.feasible_polyhedron()
    if feas.intersect(inst.objective.domain).is_empty():
        raise ValueError("no feasible point inside the objective's domain")
    omega = sets.minkowski_sum(
        sets.as_lifted(calculus.conjugate_epigraph(inst.objective)),
        certificate_cone(inst))
    origin = [ZERO] * (inst.n + 1)
    origin_in = sets.member(omega, origin)
    rep = check_nonnegativity(inst)
    cert = find_certificate(inst)
    if origin_in != (cert is not None):
        raise InvariantViolation(
            "origin membership in epi f* + cone must match the certificate")
    if rep.verdict.holds != (cert is not None):
        raise InvariantViolation(
            "closed dual criterion requires the equivalence to hold")
    dirs = sets.probe_directions(inst.n + 1, n_random=n_random, seed=seed)
    preimage = inst.preimage_polyhedron()
    if not preimage.is_empty():
        _probe_equal_or_raise(
            multiplier_cone(inst), calculus.support_epigraph(preimage), dirs,
            "multiplier cone vs preimage support epigraph")
    _probe_equal_or_raise(
        certificate_cone(inst), calculus.support_epigraph(feas), dirs,
        "certificate cone vs feasible support epigraph")
    _probe_equal_or_raise(
        omega, calculus.restricted_conjugate_epigraph(inst.objective, feas),
        dirs, "epi f* + cone vs restricted conjugate epigraph")
    return CheckReport(nonnegativity=rep, certificate=cert,
                       criterion_holds=True, probe_point=origin,
                       details={"origin_in_sum": origin_in,
                                "criterion_reason":
                                    "polyhedral projections are closed",
                                "probe_directions": len(dirs)})


@dataclass
class ExistenceReport:
    feasible: bool
    point: list | None
    preimage_nonempty: bool


def check_existence(inst: FarkasInstance) -> ExistenceReport:
    """Feasibility decided twice: a direct LP, and the dual route testing
    whether (0, -1) escapes the certificate cone. Their forced agreement is
    checked, as is the map-only variant against the multiplier cone."""
    point = sets.a_point_of(inst.feasible_polyhedron().to_lifted())
    direct = point is not None
    depth = [ZERO] * inst.n + [-ONE]
    via_cone = not sets.member(certificate_cone(inst), depth)
    if direct != via_cone:
        raise InvariantViolation(
            "feasibility LP and the (0,-1) cone probe disagree")
    b_direct = not inst.preimage_polyhedron().is_empty()
    b_cone = not sets.member(multiplier_cone(inst), depth)
    if b_direct != b_cone:
        raise InvariantViolation(
            "preimage feasibility and the multiplier cone probe disagree")
    return ExistenceReport(feasible=direct, point=point,
                           preimage_nonempty=b_direct)


def default_tilts(n: int, count: int = 25, seed: int = 0):
    """(0, 0) followed by seeded integer tilt pairs (shift vector, lift)."""
    rng = random.Random(seed)
    tilts = [([ZERO] * n, ZERO)]
    while len(tilts) < count:
        tilts.append(([Q(rng.randint(-2, 2)) for _ in range(n)],
                      Q(rng.randint(-2, 2))))
    return tilts


@dataclass
class StabilityReport:
    criterion_holds: bool
    criterion_reason: str
    tilts_checked: int
    all_equivalent: bool
    verdict: str = "consistent"


def check_stability(inst: FarkasInstance, tilts=None,
                    seed: int = 0) -> StabilityReport:
    """Stable version: the equivalence must survive every affine tilt of
    the objective exactly when epi f* + cone is closed everywhere, which
    polyhedrality grants; each sampled tilt is verified outright.
    Requires a feasible point inside dom f."""
    if inst.feasible_polyhedron().intersect(inst.objective.domain).is_empty():
        raise ValueError("no feasible point inside the objective's domain")
    if tilts is None:
        tilts = default_tilts(inst.n, seed=seed)
    for shift, lift in tilts:
        tilted = FarkasInstance(ground=inst.ground, matrix=inst.matrix,
                                target=inst.target,
                                objective=inst.objective.tilted(shift, lift))
        rep = check_nonnegativity(tilted)
        cert = find_certificate(tilted)
        if rep.verdict.holds != (cert is not None):
            raise InvariantViolation(
                f"tilt {shift}, {lift}: equivalence broke although the "
                "criterion set is closed")
    return StabilityReport(
        criterion_holds=True,
        criterion_reason="polyhedral projections are closed, so the "
                         "criterion set is closed everywhere; full "
                         "stability is certified on the tilt sample only",
        tilts_checked=len(tilts), all_equivalent=True)


# ---------------------------------------------------------------------------
# Sublevel (concave-side) variant.

@dataclass
class SublevelReport:
    """f <= 0 over the feasible set versus epi f* contained in the
    certificate cone, with the conditional closedness property that ties
    them."""

    maximum: object
    nonpositive: bool
    epigraph_contained: bool
    simili_closed: bool
    verdict: str = "consistent"


def check_sublevel(inst: FarkasInstance) -> SublevelReport:
    """Containment of the feasible set in {f <= 0} versus containment of
    epi f* in the certificate cone. Needs full-domain f (so epi f* is
    finitely generated) and a nonempty feasible set (the converse half of
    the characterization demands it)."""
    if inst.objective.domain is not None:
        raise ValueError("sublevel check needs a full-domain objective")
    feas = inst.feasible_polyhedron()
    if feas.is_empty():
        raise ValueError("sublevel check needs a nonempty feasible set")
    lifted = feas.to_lifted()
    maximum = NEG_INF
    for a, b in zip(inst.objective.slopes, inst.objective.offsets):
        s = sets.support(lifted, a)
        val = s if s is INF else s + b
        if val > maximum:
            maximum = val
    nonpositive = maximum <= ZERO
    cone = certificate_cone(inst)
    gens = calculus.conjugate_epigraph(inst.objective)
    contained = sets.contains_generated(cone, gens)
    # the cone is a polyhedral projection, hence closed: containment in its
    # closure is the same test, so the conditional property holds outright
    simili = True
    if contained and not nonpositive:
        raise InvariantViolation(
            "epigraph containment must force the sublevel containment")
    if nonpositive != contained:
        raise InvariantViolation(
            "sublevel equivalence broke although the cone is closed")
    return SublevelReport(maximum=maximum, nonpositive=nonpositive,
                          epigraph_contained=contained, simili_closed=simili)
