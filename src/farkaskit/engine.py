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
The stable version, under every tilt of f, is `duality.check_stability`,
which reads each tilt off the strong-duality pass instead of posing a
certificate program per tilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from . import calculus, lp, sets
from .calculus import PiecewiseAffine
from .errors import InvariantViolation
from .rational import (INF, NEG_INF, ONE, ZERO, as_q_matrix, as_q_vector,
                       is_finite, mat_vec, transpose_apply)
from .sets import Box, Polyhedron, kept, whole_space_polyhedron


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
    function proper, which the constructor enforces. The derived sets are
    built on first use and kept, with their points, so the data must not
    change after construction. A tilt f - s.x - l is posed as a cost on
    the instance's kept epigraph system, or on programs built from the
    tilted slopes (see `duality`)."""

    ground: Polyhedron
    matrix: list
    target: object  # Box or Polyhedron
    objective: PiecewiseAffine

    def __post_init__(self):
        self.matrix = as_q_matrix(self.matrix, self.ground.dim,
                                  "map row width != ground dimension")
        if not isinstance(self.target, (Box, Polyhedron)):
            raise ValueError("target must be a Box or a Polyhedron")
        if isinstance(self.target, Polyhedron) and self.target.is_empty():
            raise ValueError("empty target set")
        if len(self.matrix) != self.target.dim:
            raise ValueError("map row count != target dimension")
        if self.objective.dim != self.n:
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
        return mat_vec(self.matrix,
                       as_q_vector(x, self.n, "point dimension mismatch"))

    def adjoint(self, lam):
        return transpose_apply(
            self.matrix,
            as_q_vector(lam, self.m, "multiplier dimension mismatch"), self.n)

    @kept
    def target_polyhedron(self) -> Polyhedron:
        if isinstance(self.target, Box):
            return self.target.to_polyhedron()
        return self.target

    def target_support(self, lam):
        """sigma_target(lam), by closed form on boxes, LP otherwise."""
        return self.target_supports([lam])[0]

    def target_supports(self, lams) -> list:
        """[target_support(lam) for lam in lams]: by closed form on a box,
        from one `sets.supports` sweep (one phase 1) on a polyhedron."""
        if isinstance(self.target, Box):
            return [self.target.support(lam) for lam in lams]
        return sets.supports(self.target.to_lifted(), lams)

    @kept
    def preimage_polyhedron(self) -> Polyhedron:
        """{x : map(x) in target}, the target pulled back through the map.
        Rows come in the target polyhedron's order; a box's rows are
        +-e_i, so they pull back to +-A_i with no product to form."""
        if isinstance(self.target, Box):
            return self.target.pullback(self.matrix, self.n)
        t = self.target
        return Polyhedron(
            dim=self.n,
            G=[self.adjoint(r) for r in t.G], h=t.h,
            E=[self.adjoint(r) for r in t.E], e=t.e)

    @kept
    def feasible_polyhedron(self) -> Polyhedron:
        """ground intersected with the preimage of target."""
        return self.ground.intersect(self.preimage_polyhedron())

    @kept
    def domain(self) -> Polyhedron:
        """dom objective, the whole space when it is unrestricted."""
        d = self.objective.domain
        return whole_space_polyhedron(self.n) if d is None else d

    @kept
    def ground_in_domain(self) -> Polyhedron:
        """ground intersected with dom objective (ground itself when the
        objective is unrestricted)."""
        return self.ground.intersect(self.objective.domain)

    @kept
    def feasible_in_domain(self) -> Polyhedron:
        """the feasible polyhedron intersected with dom objective (the
        feasible polyhedron itself when the objective is unrestricted)."""
        return self.feasible_polyhedron().intersect(self.objective.domain)

    @kept
    def epigraph_system(self) -> lp.System:
        """The objective's epigraph rows over the feasible set on one kept
        `lp.System` (`calculus.epigraph_system`): the minimum and each tilt
        posed as a cost on it share one phase 1."""
        return calculus.epigraph_system(self.objective,
                                        self.feasible_polyhedron())

    @kept
    def minimum(self) -> calculus.Minimum:
        """The exact minimum of the objective over the feasible set, solved
        on the first call only, as the cost t on the epigraph system: its
        point and ray are shared, so callers copy them before handing them
        out."""
        return calculus.minimum_on(self.epigraph_system())


# ---------------------------------------------------------------------------
# The dual-side cones and epigraphs, as lifted representations.

@kept
def multiplier_cone(inst: FarkasInstance) -> sets.LiftedSet:
    """{(map^T lam, s) : sigma_target(lam) <= s}: the multiplier graph with
    its vertical rays, a convex cone in R^{n+1}. Built as the image of the
    target's support-function epigraph under (lam, s) -> (map^T lam, s),
    once per instance: every caller shares the one set, so none may change
    its rows."""
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


def restricted_epigraph(inst: FarkasInstance) -> sets.LiftedSet:
    """epi (f + indicator of the feasible set)*, built on the kept meet of
    the feasible set with dom f. That meet already holds dom f's rows, so
    f enters without its domain, and the meet's emptiness LP is the one
    the instance keeps."""
    return calculus.restricted_conjugate_epigraph(
        replace(inst.objective, domain=None),
        inst.feasible_in_domain())


def _unit(i: int, size: int, sign=ONE) -> list:
    return [sign if k == i else ZERO for k in range(size)]


def _graph_epigraph(f: PiecewiseAffine, links, blocks, at: int):
    """{(links . w, r) : w = (w_0, w_1, ...), each w_g in blocks[g], and
    r >= f(w_at)} as a lifted set with witness w. Its equality rows are
    the link rows, then the blocks' equality rows; its inequality rows are
    one row per piece of f, then the blocks' inequality rows."""
    starts = [0]
    for p in blocks:
        starts.append(starts[-1] + p.dim)

    def placed(z, g, row):  # z, then row in block g's witness columns
        return (z + [ZERO] * starts[g] + list(row)
                + [ZERO] * (starts[-1] - starts[g + 1]))

    dim = len(links) + 1
    flat = [ZERO] * dim
    E = [_unit(i, dim) + [-v for v in link] for i, link in enumerate(links)]
    e = [ZERO] * len(links)
    G = [placed(_unit(dim - 1, dim, -ONE), at, a) for a in f.slopes]
    h = [-b for b in f.offsets]
    for g, p in enumerate(blocks):
        E += [placed(flat, g, r) for r in p.E]
        e += p.e
        G += [placed(flat, g, r) for r in p.G]
        h += p.h
    return sets.LiftedSet(dim=dim, witness_dim=starts[-1],
                          G=G, h=h, E=E, e=e)


def residual_epigraph(inst: FarkasInstance) -> sets.LiftedSet:
    """{(map(x) - d, r) : x in ground and dom f, d in target, r >= f(x)}
    in R^{m+1}; the reduced primal set whose conic hull carries the
    reduced criterion. Requires ground to meet dom f."""
    meet = inst.ground_in_domain()
    if meet.is_empty():
        raise ValueError("ground set misses the objective's domain")
    links = [row + _unit(i, inst.m, -ONE)
             for i, row in enumerate(inst.matrix)]
    return _graph_epigraph(inst.objective, links,
                           [meet, inst.target_polyhedron()], at=0)


def decoupled_residual_epigraph(inst: FarkasInstance) -> sets.LiftedSet:
    """{(x - v, map(x) - d, r) : x in ground, v in dom f, d in target,
    r >= f(v)} in R^{n+m+1}; the decoupled primal set whose conic hull
    carries the first closedness criterion."""
    n, m = inst.n, inst.m
    links = ([_unit(j, n) + _unit(j, n, -ONE) + [ZERO] * m
              for j in range(n)]
             + [row + [ZERO] * n + _unit(i, m, -ONE)
                for i, row in enumerate(inst.matrix)])
    return _graph_epigraph(
        inst.objective, links,
        [inst.ground, inst.domain(), inst.target_polyhedron()], at=1)


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
    f = inst.objective
    best = inst.minimum()
    if best.value is INF or best.value >= ZERO:
        return NonnegativityReport(verdict=TriVerdict.TRUE, minimum=best.value)
    if best.value is NEG_INF:
        point = best.point
        step = ONE
        while f.value(point) >= ZERO:
            point = [p + step * r for p, r in zip(point, best.ray)]
            step *= 2
        return NonnegativityReport(verdict=TriVerdict.FALSE,
                                   minimum=NEG_INF, witness=list(point))
    return NonnegativityReport(verdict=TriVerdict.FALSE,
                               minimum=best.value, witness=list(best.point))


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


def _target_multiplier(inst: FarkasInstance, mu_t) -> list:
    """lam = t^T mu_t, from the multipliers mu_t of the preimage rows,
    which are the target rows t pulled back. A box's rows come in
    `Box.pullback` order, e_i then -e_i, so there lam_i = mu_t[2i] -
    mu_t[2i + 1], with no dense box to form."""
    if isinstance(inst.target, Box):
        return [p - q for p, q in zip(mu_t[::2], mu_t[1::2])]
    t = inst.target
    return transpose_apply(t.G + t.E, mu_t, inst.m)


def full_program(inst: FarkasInstance, shift=None):
    """The multiplier program of the full triple, over the blocks dom f,
    ground and the preimage of target, minimizing its budget row: the dual
    program of `duality` and `polyapprox`, and with `_within_budget` the
    certificate search. Given a shift s, it is the program of the tilt
    f - s.x, whose pieces have the slopes a - s. Returns (program,
    extract), where extract(w) gives (u, lam), u read off the slopes the
    program was built on."""
    f, dom = inst.objective, inst.domain()
    slopes = f.slopes if shift is None else calculus.tilted_slopes(f, shift)
    program, split = calculus.multiplier_program(
        inst.n, list(zip(slopes, f.offsets)),
        [dom, inst.ground, inst.preimage_polyhedron()])

    def extract(w):
        theta, mu_dom, _, mu_t = split(w)
        return (transpose_apply(slopes + dom.G + dom.E, theta + mu_dom,
                                inst.n),
                _target_multiplier(inst, mu_t))

    return program, extract


def _within_budget(program: lp.LinearProgram) -> lp.LPOutcome:
    """A multiplier program's rows plus its budget row budget . w <= 0,
    solved with cost 0: whether multipliers within the budget exist."""
    return lp.solve(replace(program, c=[ZERO] * program.n,
                            G=program.G + [program.c], h=program.h + [ZERO]))


def _certificates(inst: FarkasInstance, shifts, found) -> list:
    """The linked triples of the tilts f - shift . x of inst, with their
    recomputed values: found[k] is (u, lam) from the multiplier program of
    the tilt f - shifts[k] . x, or None, which stays None. The conjugate
    of a tilt is f*(u + shift), so every conjugate value comes from one
    `fenchel_values` call on the untilted f, every ground support from one
    `sets.supports` sweep, and every target support from one
    `target_supports` call. Not validated."""
    hits = [k for k, x in enumerate(found) if x is not None]
    us = [found[k][0] for k in hits]
    lams = [found[k][1] for k in hits]
    vs = [[-a - b for a, b in zip(u, inst.adjoint(lam))]
          for u, lam in zip(us, lams)]
    conj = calculus.fenchel_values(
        inst.objective,
        [[a + s for a, s in zip(u, shifts[k])] for k, u in zip(hits, us)])
    gsup = sets.supports(inst.ground.to_lifted(), vs)
    tsup = inst.target_supports(lams)
    certs = [None] * len(found)
    for k, u, v, lam, c, g, t in zip(hits, us, vs, lams, conj, gsup, tsup):
        certs[k] = Certificate(u=u, v=v, lam=lam, conjugate_value=c,
                               ground_support=g, target_support=t)
    return certs


def find_certificate(inst: FarkasInstance) -> Certificate | None:
    """Search for (u, v, lam) with f*(u) + sigma_ground(v) +
    sigma_target(lam) <= 0 and u + v = -map^T lam, as one feasibility LP
    over the dual representations of all three epigraphs."""
    program, extract = full_program(inst)
    out = _within_budget(program)
    if out.status == lp.INFEASIBLE:
        return None
    cert, = _certificates(inst, [[ZERO] * inst.n], [extract(out.x)])
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


def find_reduced_certificate(inst: FarkasInstance) -> ReducedCertificate | None:
    meet = inst.ground_in_domain()
    if meet.is_empty():
        # the restriction is identically +infinity, so its conjugate is
        # -infinity everywhere and lam = 0 certifies trivially
        lam = [ZERO] * inst.m
        return ReducedCertificate(lam=lam, restricted_conjugate=NEG_INF,
                                  target_support=inst.target_support(lam))
    f = inst.objective
    program, split = calculus.multiplier_program(
        inst.n, list(zip(f.slopes, f.offsets)),
        [meet, inst.preimage_polyhedron()])
    out = _within_budget(program)
    if out.status == lp.INFEASIBLE:
        return None
    _, _, mu_t = split(out.x)
    lam = _target_multiplier(inst, mu_t)
    cert = ReducedCertificate(
        lam=lam,
        restricted_conjugate=calculus.fenchel_values(
            inst.objective, [[-v for v in inst.adjoint(lam)]], inst.ground)[0],
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


def _criterion_report(inst: FarkasInstance, epigraph, probe, cert,
                      kind: str) -> CheckReport:
    """A primal characterization: the implication is equivalent to the
    existence of `cert`, found by the `kind` ("primal" or "reduced") search,
    exactly when the conic hull of `epigraph` is closed at `probe`: one
    scale LP, two if the probe is in the closure only (`sets`)."""
    strict, closure = sets.cone_closed_regarding(epigraph, probe)
    criterion = strict or not closure
    rep = check_nonnegativity(inst)
    if strict == rep.verdict.holds:
        raise InvariantViolation(
            "depth probe membership must mirror a negative feasible value")
    if cert is not None and not rep.verdict.holds:
        named = "certificate" if kind == "primal" else f"{kind} certificate"
        raise InvariantViolation(
            f"{named} present although the implication fails")
    if criterion != ((not rep.verdict.holds) or (cert is not None)):
        raise InvariantViolation(
            f"{kind} closedness criterion disagrees with the equivalence")
    return CheckReport(nonnegativity=rep, certificate=cert,
                       criterion_holds=criterion, probe_point=probe,
                       details={"probe_in_cone": strict,
                                "probe_in_closure": closure})


def check_primal_criterion(inst: FarkasInstance) -> CheckReport:
    """First characterization: the implication is equivalent to the
    certificate's existence exactly when the conic hull of the decoupled
    residual set is closed at the depth probe (0, 0, -1)."""
    return _criterion_report(
        inst, decoupled_residual_epigraph(inst),
        [ZERO] * (inst.n + inst.m) + [-ONE], find_certificate(inst),
        "primal")


def check_reduced_criterion(inst: FarkasInstance) -> CheckReport:
    """Second characterization, in the target space: same equivalence
    against the reduced certificate, criterion on the conic hull of the
    residual set at (0, -1). Requires ground to meet dom f."""
    epigraph = residual_epigraph(inst)
    reduced = find_reduced_certificate(inst)
    # without a domain, dom f adds no rows and the full program is the one
    # just solved, so the two can only split when f has a domain
    if (inst.objective.domain is not None
            and (find_certificate(inst) is None) != (reduced is None)):
        raise InvariantViolation(
            "full and reduced certificates must coexist when ground meets dom f")
    return _criterion_report(inst, epigraph, [ZERO] * inst.m + [-ONE],
                             reduced, "reduced")


def check_dual_criterion(inst: FarkasInstance, n_random: int = 8,
                         seed: int = 0) -> CheckReport:
    """Third characterization, in the dual space: the criterion set
    epi f* + certificate cone is a polyhedral projection, hence closed, so
    the criterion holds structurally and the equivalence must follow; the
    probe equalities behind it (the multiplier cone matching the preimage's
    support epigraph, the certificate cone matching the feasible set's, and
    their f*-sum matching the restricted conjugate) are sampled and
    enforced. Requires a feasible point inside dom f."""
    return _dual_criterion(inst, n_random, seed)[0]


def _dual_criterion(inst: FarkasInstance, n_random: int, seed: int):
    """check_dual_criterion's report, its probe directions and the
    certificate cone's support values along them."""
    if inst.feasible_in_domain().is_empty():
        raise ValueError("no feasible point inside the objective's domain")
    cone = certificate_cone(inst)
    omega = sets.minkowski_sum(
        sets.as_lifted(calculus.conjugate_epigraph(inst.objective)), cone)
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
    # the preimage holds the feasible point the hypothesis asks for
    multiplier_values = sets.supports(multiplier_cone(inst), dirs)
    feasible_values = preimage_values = sets.supports(
        calculus.support_epigraph(inst.preimage_polyhedron()), dirs)
    sets.require_equal_values(dirs, multiplier_values, preimage_values,
                              "multiplier cone vs preimage support epigraph")
    cone_values = sets.supports(cone, dirs)
    if inst.ground.G or inst.ground.E:  # else the preimage is the feasible set
        feasible_values = sets.supports(
            calculus.support_epigraph(inst.feasible_polyhedron()), dirs)
    sets.require_equal_values(
        dirs, cone_values, feasible_values,
        "certificate cone vs feasible support epigraph")
    sets.require_equal_supports(
        omega, restricted_epigraph(inst), dirs,
        "epi f* + cone vs restricted conjugate epigraph")
    report = CheckReport(nonnegativity=rep, certificate=cert,
                         criterion_holds=True, probe_point=origin,
                         details={"origin_in_sum": origin_in,
                                  "criterion_reason":
                                      "polyhedral projections are closed",
                                  "probe_directions": len(dirs)})
    return report, dirs, cone_values


@dataclass
class ExistenceReport:
    feasible: bool
    point: list | None
    preimage_nonempty: bool


def check_existence(inst: FarkasInstance) -> ExistenceReport:
    """Feasibility decided twice: a direct LP, and the dual route testing
    whether (0, -1) escapes the certificate cone. Their forced agreement is
    checked, as is the map-only variant against the multiplier cone."""
    point = inst.feasible_polyhedron().a_point()
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
    for s, b in zip(sets.supports(lifted, inst.objective.slopes),
                    inst.objective.offsets):
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
