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
                       dot, is_finite, mat_vec, transpose_apply)
from .sets import Box, Polyhedron, kept, whole_space


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
    """Standing data: ground polyhedron in R^n, map rows (m x n), target
    set in R^m, and the tested function. Ground and target must be
    nonempty and the function proper, which the constructor enforces. The
    derived sets are built on first use and kept, with their points, so
    the data must not change after construction. A tilt f - s.x - l is
    posed as a cost on the instance's kept epigraph system, or on programs
    built from the tilted slopes (see `duality`)."""

    ground: Polyhedron
    matrix: list
    target: object  # Box or Polyhedron
    objective: PiecewiseAffine

    def __post_init__(self):
        if not isinstance(self.ground, Polyhedron):
            raise ValueError("ground must be a Polyhedron")
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
        return sets.supports(self.target, lams)

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
        return whole_space(self.n) if d is None else d

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
    def minimum_outcome(self) -> lp.LPOutcome:
        """The outcome of the cost t on the epigraph system, solved on the
        first call only: at a finite minimum it carries the rows'
        multipliers, which prove it (`_scale_candidate`). Shared, so
        callers must not change it."""
        system = self.epigraph_system()
        return system.outcome(system.program.c)

    @kept
    def minimum(self) -> calculus.Minimum:
        """The exact minimum of the objective over the feasible set, read
        off the kept `minimum_outcome`: its point and ray are shared, so
        callers copy them before handing them out."""
        return calculus.minimum_of(self.minimum_outcome(), self.n)


# ---------------------------------------------------------------------------
# The dual-side cones and epigraphs, as lifted representations.

@kept
def multiplier_cone(inst: FarkasInstance) -> sets.LiftedSet:
    """{(map^T lam, s) : sigma_target(lam) <= s}: the multiplier graph with
    its vertical rays, a convex cone in R^{n+1}. Built as the image of the
    target's support-function epigraph under (lam, s) -> (map^T lam, s),
    once per instance: every caller shares the one set, so none may change
    its rows."""
    epi = calculus.support_epigraph(inst.target)
    m = inst.m
    rows = []
    for j in range(inst.n):
        rows.append([inst.matrix[i][j] for i in range(m)] + [ZERO])
    rows.append([ZERO] * m + [ONE])
    return sets.linear_image(epi, rows)


MULTIPLIER_CONE_LAYOUT = (
    "multiplier cone's candidate at (0, -1) (columns lam, s, then the "
    "target rows' multipliers; rows the budget, then the links to "
    "(map^T lam, s), then lam = target rows^T mu)")


def _unit_farkas(out: lp.LPOutcome, blocks) -> list:
    """The Farkas pair `out` of the emptiness LP of the meet of `blocks`
    (G rows block by block, then E rows block by block), scaled to value
    -1, as one slice per block of its G rows then its E rows: the
    multipliers of that block's support-epigraph columns."""
    mu, nu = out.farkas_ineq, out.farkas_eq
    k = -1 / (dot([b for p in blocks for b in p.h], mu)
              + dot([b for p in blocks for b in p.e], nu))
    mus, _ = _cut(mu, [len(p.G) for p in blocks])
    nus, _ = _cut(nu, [len(p.E) for p in blocks])
    return [[k * w for w in a + b] for a, b in zip(mus, nus)]


def _cut(values, sizes):
    """(slices of `values` of the given sizes, in turn; the rest)."""
    out, i = [], 0
    for k in sizes:
        out.append(values[i:i + k])
        i += k
    return out, values[i:]


def _multiplier_witness(inst: FarkasInstance, mu_t) -> list:
    """The witness (lam, s, mu_t) over `multiplier_cone`'s columns of
    target multipliers mu_t, one per target row, G rows then E rows:
    lam = target rows^T mu_t, and s the budget of mu_t, which bounds
    sigma_target(lam)."""
    pre = inst.preimage_polyhedron()  # the target's rows, pulled back
    return (_target_multiplier(inst.target, mu_t)
            + [dot(pre.h + pre.e, mu_t)] + mu_t)


def _witness_outcome(witness, cone: sets.LiftedSet) -> lp.LPOutcome:
    """A witness of a point of `cone` as the outcome of its membership
    program, whose cost is 0: optimal, value 0, zero multipliers."""
    return lp.LPOutcome(lp.OPTIMAL, x=witness, value=ZERO,
                        dual_ineq=[ZERO] * len(cone.G),
                        dual_eq=[ZERO] * len(cone.E))


def _multiplier_cone_candidate(inst: FarkasInstance,
                               cone: sets.LiftedSet) -> lp.LPOutcome:
    """A proof, for `sets.membership_program(multiplier_cone(inst),
    (0, -1))`, that (0, -1) is in the cone exactly when the preimage is
    empty, read off a kept emptiness LP: the feasible set's, else the
    preimage's. From a preimage point x, the Farkas pair 1 on the budget
    row, (x, -1) on the links and Ax on the rows lam = t^T mu; from the
    preimage's Farkas pair scaled to value -1, the witness of its target
    multipliers (`_multiplier_witness`)."""
    out = inst.feasible_polyhedron().emptiness()
    if out.status == lp.INFEASIBLE:
        out = inst.preimage_polyhedron().emptiness()
    if out.status != lp.INFEASIBLE:
        return lp.LPOutcome(lp.INFEASIBLE, farkas_ineq=[ONE],
                            farkas_eq=out.x + [-ONE] + inst.apply(out.x))
    mu_t, = _unit_farkas(out, [inst.preimage_polyhedron()])
    return _witness_outcome(_multiplier_witness(inst, mu_t), cone)


def certificate_cone(inst: FarkasInstance) -> sets.LiftedSet:
    """epi sigma_ground + multiplier cone: the cone whose membership at the
    origin is exactly the existence of a certificate."""
    return sets.minkowski_sum(calculus.support_epigraph(inst.ground),
                              multiplier_cone(inst))


CERTIFICATE_CONE_LAYOUT = (
    "certificate cone's candidate at (0, -1) (columns z1 = (v, r), the "
    "ground rows' multipliers, then the multiplier cone's; rows the two "
    "budgets, then v = ground rows^T mu, then the multiplier cone's "
    "links and rows)")


def _certificate_cone_candidate(inst: FarkasInstance,
                                cone: sets.LiftedSet) -> lp.LPOutcome:
    """A proof, for `sets.membership_program(certificate_cone(inst),
    (0, -1))`, that (0, -1) is in the cone exactly when the feasible set
    is empty, read off its kept emptiness LP. From a feasible point x, the
    Farkas pair 1 on both budget rows, x on the rows v = ground rows^T mu,
    then (x, -1) on the links and Ax on the rows lam = t^T mu; from the
    Farkas pair scaled to value -1, the witness of its multipliers mu_g on
    the ground rows and mu_t on the preimage's: z1 = (ground rows^T mu_g,
    budget of mu_g), mu_g, then `_multiplier_witness` of mu_t."""
    g = inst.ground
    out = inst.feasible_polyhedron().emptiness()
    if out.status != lp.INFEASIBLE:
        x = out.x
        return lp.LPOutcome(lp.INFEASIBLE, farkas_ineq=[ONE, ONE],
                            farkas_eq=x + x + [-ONE] + inst.apply(x))
    mu_g, mu_t = _unit_farkas(out, [g, inst.preimage_polyhedron()])
    z1 = (transpose_apply(g.G + g.E, mu_g, inst.n)
          + [dot(g.h + g.e, mu_g)])
    return _witness_outcome(z1 + mu_g + _multiplier_witness(inst, mu_t),
                            cone)


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


SCALE_LAYOUT = (
    "scale candidate of the decoupled residual epigraph (columns x, v, d, "
    "t; rows the pieces, then ground, domain and target G rows; the links "
    "v = x and d = map(x), then ground, domain and target E rows)")


def _scale_candidate(inst: FarkasInstance,
                     rep: NonnegativityReport) -> lp.LPOutcome | None:
    """A proof for the scale LP of `decoupled_residual_epigraph` at the
    depth probe (`sets.scale_program`), over its columns (x, v, d, t) and
    rows as `_graph_epigraph` lays them out, read off what the
    nonnegativity check `rep` solved; None when the feasible set misses
    dom f.

    A feasible y with f(y) < 0 gives the unbounded outcome: the point
    k (y, y, Ay, 1), k = -1/f(y), and the ray (y, y, Ay, 1). A finite
    minimum >= 0 gives a Farkas pair, the epigraph LP's multipliers: the
    pieces' weights theta, mu on the ground, domain and target rows (the
    preimage's are the target's, pulled back), and on the links v = x and
    d = map(x) minus what they sum to on v and on d, -(theta^T slopes +
    dom rows^T mu) and -(target rows^T mu). Its weight on t is the minimum
    and its value -sum theta = -1."""
    f, n = inst.objective, inst.n
    if rep.witness is not None:
        y = rep.witness
        value = f.value(y)
        if not value < ZERO:
            return None
        ray = y + y + inst.apply(y) + [ONE]
        k = -1 / value
        return lp.LPOutcome(lp.UNBOUNDED, x=[k * v for v in ray],
                            value=NEG_INF, ray=ray)
    out = inst.minimum_outcome()
    if out.status != lp.OPTIMAL:
        return None
    g, dom, t = inst.ground, inst.domain(), inst.target_polyhedron()
    (mu_g, mu_t, mu_d), theta = _cut(out.dual_ineq,
                                     [len(g.G), len(t.G), len(dom.G)])
    (nu_g, nu_t, nu_d), _ = _cut(out.dual_eq,
                                 [len(g.E), len(t.E), len(dom.E)])
    on_v = transpose_apply(f.slopes + dom.G + dom.E, theta + mu_d + nu_d, n)
    on_d = transpose_apply(t.G + t.E, mu_t + nu_t, inst.m)
    return lp.LPOutcome(lp.INFEASIBLE, farkas_ineq=theta + mu_g + mu_d + mu_t,
                        farkas_eq=([-a for a in on_v] + [-a for a in on_d]
                                   + nu_g + nu_d + nu_t))

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


def _target_multiplier(target, mu_t) -> list:
    """lam = t^T mu_t, from the multipliers mu_t of the preimage rows,
    which are the rows t of `target` pulled back. A box's rows come in
    `Box.pullback` order, e_i then -e_i, so there lam_i = mu_t[2i] -
    mu_t[2i + 1], with no dense box to form."""
    if isinstance(target, Box):
        return [p - q for p, q in zip(mu_t[::2], mu_t[1::2])]
    return transpose_apply(target.G + target.E, mu_t, target.dim)


def full_program(inst: FarkasInstance, shift=None):
    """The multiplier program of the full triple, over the blocks dom f,
    ground and the preimage of target, minimizing its budget row: the dual
    program of `duality` and `polyapprox`, and with `_within_budget` the
    certificate search. Given a shift s, it is the program of the tilt
    f - s.x, whose pieces have the slopes a - s. Returns (program,
    extract), where extract(w) gives (u, lam), u read off the slopes the
    program was built on. The untilted pair is built once per instance
    and kept, so its callers share it and none may change it."""
    if shift is None:
        return _untilted_program(inst)
    return _sloped_program(inst,
                           calculus.tilted_slopes(inst.objective, shift))


@kept
def _untilted_program(inst: FarkasInstance):
    """`full_program(inst)`, built on the first call only."""
    return _sloped_program(inst, inst.objective.slopes)


def _sloped_program(inst: FarkasInstance, slopes):
    """`full_program` with the pieces' slopes replaced by `slopes`."""
    f, dom = inst.objective, inst.domain()
    program, split = calculus.multiplier_program(
        inst.n, list(zip(slopes, f.offsets)),
        [dom, inst.ground, inst.preimage_polyhedron()])

    # extract holds no reference to inst, which keeps the untilted pair:
    # that cycle would leave each instance to the cyclic garbage collector
    n, target = inst.n, inst.target

    def extract(w):
        theta, mu_dom, _, mu_t = split(w)
        return (transpose_apply(slopes + dom.G + dom.E, theta + mu_dom, n),
                _target_multiplier(target, mu_t))

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
    gsup = sets.supports(inst.ground, vs)
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
    lam = _target_multiplier(inst.target, mu_t)
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


def _criterion_report(rep: NonnegativityReport, closedness, probe, cert,
                      kind: str) -> CheckReport:
    """A primal characterization: the implication, decided in `rep`, is
    equivalent to the existence of `cert`, found by the `kind` ("primal"
    or "reduced") search, exactly when the conic hull of the residual set
    is closed at `probe`, where `sets.cone_closed_regarding` gave
    `closedness`."""
    strict, closure = closedness
    criterion = strict or not closure
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
    residual set is closed at the depth probe (0, 0, -1). Its scale LP
    runs only when the proof that the nonnegativity check holds for it
    (`_scale_candidate`) fails, as it does when that check is vacuous."""
    rep = check_nonnegativity(inst)
    probe = [ZERO] * (inst.n + inst.m) + [-ONE]
    closedness = sets.cone_closed_regarding(
        decoupled_residual_epigraph(inst), probe,
        _scale_candidate(inst, rep), SCALE_LAYOUT)
    return _criterion_report(rep, closedness, probe, find_certificate(inst),
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
    probe = [ZERO] * inst.m + [-ONE]
    return _criterion_report(check_nonnegativity(inst),
                             sets.cone_closed_regarding(epigraph, probe),
                             probe, reduced, "reduced")


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
    # drawn first, so that a bad count raises before any LP
    dirs = sets.probe_directions(inst.n + 1, n_random=n_random, seed=seed)
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
    """Feasibility decided twice: by one direct LP, and by the dual route
    testing whether (0, -1) escapes the certificate cone, answered by a
    proof checked by substitution into the cone's membership program,
    which the direct LP's point or Farkas pair gives
    (`_certificate_cone_candidate`); the membership LP runs only when the
    proof fails. Their forced agreement is checked, as is the map-only
    variant against the multiplier cone, whose proof comes from a kept
    point or Farkas pair too (`_multiplier_cone_candidate`): a feasible
    point is a preimage point, so the preimage's LP runs only for an
    empty feasible set."""
    point = inst.feasible_polyhedron().a_point()
    direct = point is not None
    depth = [ZERO] * inst.n + [-ONE]
    cone = certificate_cone(inst)
    via_cone = not sets.member(cone, depth,
                               _certificate_cone_candidate(inst, cone),
                               CERTIFICATE_CONE_LAYOUT)
    if direct != via_cone:
        raise InvariantViolation(
            "feasibility LP and the (0,-1) cone probe disagree")
    b_direct = direct or not inst.preimage_polyhedron().is_empty()
    cone = multiplier_cone(inst)
    b_cone = not sets.member(cone, depth,
                             _multiplier_cone_candidate(inst, cone),
                             MULTIPLIER_CONE_LAYOUT)
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
    maximum = NEG_INF
    for s, b in zip(sets.supports(feas, inst.objective.slopes),
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
