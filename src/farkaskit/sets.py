"""Polyhedral sets: lifted (projection) form and finitely generated form.

Every set this package reasons about is a projection of a polyhedron,

    S = {z : exists w such that  G (z, w) <= h,  E (z, w) = e},

held as the rows G, E over the stacked columns (z, w), z first, which are
the rows its programs pose to the kernel. So membership, support values,
linear images, Minkowski sums and the exact closed conic hull are single
LPs or plain row surgery on that representation. No numeric closure is
ever taken: the closed conic hull of a nonempty polyhedral projection is
its coned form plus its recession cone, both of which the homogenized
representation captures exactly; one LP on it, the largest scale at
z = p, places p in the hull or its closure. The support epigraph of a
polyhedron is a closed cone, whose supports are read off its polar, the
cone over the polyhedron. That polar, a polyhedron's membership and a
witnessed point of any lifted set are proofs by substitution, all answered
in integers by one row test (`satisfied`), which duality calls too. A
candidate proof for a membership or scale question (`member`,
`cone_closed_regarding`) is substituted into the set's own rows the same
way: a witness, point or ray by `satisfied`, a Farkas pair or an optimum's
multipliers by their integer combination of the rows (`_refuted`), with
the homogenization's scale column read off the right-hand sides. So a
candidate that holds builds no program; `membership_program` and
`scale_program` are the programs an LP solves when one fails, and the
tests' reference for what each check proves.
"""

from __future__ import annotations

import functools
import random
from math import lcm
from dataclasses import dataclass, field, replace

from . import lp
from .errors import InvariantViolation
from .rational import (INF, NEG_INF, ONE, Q, ZERO, as_q_matrix, as_q_vector,
                       dot, over_lcm)


def kept(method):
    """A method of no arguments (or a function of one object) whose first
    result is kept in the object's __dict__ for later calls on the same
    object; one that `dataclasses.replace` builds starts with none kept."""
    key = "_kept_" + method.__name__

    @functools.wraps(method)
    def get(self):
        if key not in self.__dict__:
            self.__dict__[key] = method(self)
        return self.__dict__[key]

    return get


@dataclass
class LiftedSet:
    """{z in R^dim : exists w in R^witness_dim, G (z, w) <= h,
    E (z, w) = e}, each row over the stacked columns (z, w), z first;
    witness_nonneg flags w components known >= 0. It keeps its emptiness
    LP's outcome, solved once, and the system of its support sweeps, so
    its rows must not change after construction."""

    dim: int
    witness_dim: int = 0
    G: list = field(default_factory=list)
    h: list = field(default_factory=list)
    E: list = field(default_factory=list)
    e: list = field(default_factory=list)
    witness_nonneg: list | None = None

    def __post_init__(self):
        width = self.dim + self.witness_dim
        error = "row width != dim" + (" + witness_dim" if self.witness_dim
                                      else "")
        self.G = as_q_matrix(self.G, width, error)
        self.h = as_q_vector(self.h, len(self.G), "row/rhs count mismatch")
        self.E = as_q_matrix(self.E, width, error)
        self.e = as_q_vector(self.e, len(self.E), "row/rhs count mismatch")
        if self.witness_nonneg is None:
            self.witness_nonneg = [False] * self.witness_dim
        if len(self.witness_nonneg) != self.witness_dim:
            raise ValueError("witness flag count != witness_dim")

    @kept
    def emptiness(self) -> lp.LPOutcome:
        """The outcome of this set's emptiness LP (`_joint_lp`, cost 0 over
        its rows), solved on the first call only: optimal with a point
        (z, w), or infeasible with a Farkas pair over its G rows and its E
        rows. Shared, so callers must not change it."""
        return lp.solve(_joint_lp(self))

    def a_point(self):
        """Some point of this set, as a new list, or None when it is empty:
        one LP, solved on the first call only."""
        return None if self.is_empty() else self.emptiness().x[:self.dim]

    def is_empty(self) -> bool:
        return self.emptiness().status == lp.INFEASIBLE


class Polyhedron(LiftedSet):
    """Plain H-form set {x : G x <= h, E x = e}: the lifted set with no
    witness columns."""

    def __post_init__(self):
        if self.witness_dim:
            raise ValueError("a polyhedron has no witness columns")
        super().__post_init__()

    def contains(self, x) -> bool:
        return members(self, [x])[0]

    def intersect(self, other: Polyhedron | None) -> Polyhedron:
        """This set meet `other`, with this set's rows first; None stands
        for the whole space."""
        if other is None:
            return self
        return Polyhedron(dim=self.dim, G=self.G + other.G, h=self.h + other.h,
                          E=self.E + other.E, e=self.e + other.e)

    def active_at(self, x) -> Polyhedron:
        """The inequality rows tight at x and all equality rows: the rows
        whose multipliers span the normal cone at x."""
        tight = [k for k, (r, b) in enumerate(zip(self.G, self.h))
                 if dot(r, x) == b]
        return Polyhedron(dim=self.dim, G=[self.G[k] for k in tight],
                          h=[self.h[k] for k in tight], E=self.E, e=self.e)

    def to_lifted(self) -> LiftedSet:
        """This set, which is a lifted set already."""
        return self


def empty_set(dim: int) -> Polyhedron:
    return Polyhedron(dim=dim, G=[[ZERO] * dim], h=[-1])


def whole_space(dim: int) -> Polyhedron:
    return Polyhedron(dim=dim)


def _joint_lp(s: LiftedSet):
    """Feasibility LP over stacked (z, w) with the set's rows."""
    return lp.LinearProgram(c=[ZERO] * (s.dim + s.witness_dim), G=s.G, h=s.h,
                            E=s.E, e=s.e,
                            nonneg=[False] * s.dim + s.witness_nonneg)


def _witness_program(s: LiftedSet, b, c=None) -> lp.LinearProgram:
    """S's rows over the witness w alone, at the right-hand sides b (G rows
    then E rows), with cost c (0 when None): the rows of every membership
    program of S."""
    d, mG = s.dim, len(s.G)
    return lp.LinearProgram(
        c=[ZERO] * s.witness_dim if c is None else c,
        G=[r[d:] for r in s.G], h=b[:mG], E=[r[d:] for r in s.E], e=b[mG:],
        nonneg=s.witness_nonneg)


def _right_hand_sides(s: LiftedSet, points) -> list:
    """Per point z, the right-hand sides rhs - (z part) z of S's rows, G
    rows then E rows: z is in S iff the witness rows have a solution
    there."""
    d = s.dim
    rows = [(r[:d], b) for r, b in zip(s.G + s.E, s.h + s.e)]
    rhss = []
    for z in points:
        z = as_q_vector(z, d, "point dimension mismatch")
        rhss.append([b - dot(r, z) for r, b in rows])
    return rhss


def membership_program(s: LiftedSet, z) -> lp.LinearProgram:
    """The LP that decides z in S: S's rows over the witness w alone, at
    the right-hand sides that z leaves, with cost 0. It is feasible
    exactly when z is in S, and a solution is a witness of z. `members`
    poses its rows without building it, and `member` checks a candidate
    outcome of it on S's own rows (`_proves_membership`); it is kept as
    the tests' reference program for both."""
    b, = _right_hand_sides(s, [z])
    return _witness_program(s, b)


def _refuse_confirmed(candidate, status, layout):
    """Raise InvariantViolation when a candidate outcome that failed its
    substitution check has the status that the LP then reached: the
    answer was right and its proof was not, so `layout`, the columns and
    rows its builder laid it out on, is wrong."""
    if candidate is not None and candidate.status == status:
        raise InvariantViolation(
            f"the {layout} fails its substitution check although the LP "
            f"reaches its status ({status}): the layout is wrong")


def member(s: LiftedSet, z, candidate=None, layout="") -> bool:
    """Whether z is in S. A `candidate` `lp.LPOutcome` of
    `membership_program(s, z)`, a witness or a Farkas pair, that passes
    its integer substitution into S's own rows (`_proves_membership`)
    answers with no program built and no LP; otherwise the LP decides, and
    one that confirms the candidate's status raises (`_refuse_confirmed`,
    naming `layout`). A z of another width raises ValueError first."""
    z = as_q_vector(z, s.dim, "point dimension mismatch")
    if candidate is not None and _proves_membership(s, z, candidate):
        return candidate.status != lp.INFEASIBLE
    inside = members(s, [z])[0]
    _refuse_confirmed(candidate, lp.OPTIMAL if inside else lp.INFEASIBLE,
                      layout)
    return inside


def _proves_membership(s: LiftedSet, z, out) -> bool:
    """Whether `out`, an outcome of `membership_program(s, z)` at a point z
    of S's width, proves its status by integer substitution into S's own
    rows: a witness w by `satisfied` at (z, w), a Farkas pair by
    `_refuted` at z. The program itself is never built."""
    if out.status == lp.OPTIMAL:
        return out.x is not None and satisfied(s, [over_lcm(z + out.x)])[0]
    return (out.status == lp.INFEASIBLE
            and _refuted(s, out.farkas_ineq, out.farkas_eq, *over_lcm(z)))


def members(s: LiftedSet, points) -> list:
    """[member(s, z) for z in points]: by substitution (`satisfied`) on a
    set with no witness columns; otherwise every point poses the same
    witness rows with right-hand sides of its own (`membership_program`),
    so one kept basis serves them all (`lp.System.feasible`)."""
    if s.witness_dim == 0:
        return satisfied(s, [
            over_lcm(as_q_vector(z, s.dim, "point dimension mismatch"))
            for z in points])
    rows = _witness_program(s, [ZERO] * (len(s.G) + len(s.E)))
    return list(map(lp.System(rows).feasible, _right_hand_sides(s, points)))


def _row_over_lcm(row, b) -> tuple:
    """The row with its right-hand side b appended, over the lcm L of its
    denominators: (its nonzero integer entries as (column, entry) pairs,
    L). Every substitution reads S's rows in this form."""
    nonzero = [(j, a) for j, a in enumerate(row + [b]) if a]
    nums, m = over_lcm([a for _, a in nonzero])
    return [(j, a) for (j, _), a in zip(nonzero, nums)], m


def satisfied(s: LiftedSet, stacked) -> list:
    """Per integer pair (x, d) in `stacked`, d >= 0, whether G x <= d h,
    E x = d e and every flagged witness entry of x is >= 0: at d > 0 a
    proof that x / d, a point z and its witness w stacked over the set's
    columns, is in S, and at d = 0 that x is in S's lifted recession cone.
    An x of another width satisfies nothing. Each row, its right-hand side
    last, is put over its lcm once (`_row_over_lcm`), and a pair's rows are
    tested in plain integers up to the first that fails."""
    G = [_row_over_lcm(r, b)[0] for r, b in zip(s.G, s.h)]
    E = [_row_over_lcm(r, b)[0] for r, b in zip(s.E, s.e)]
    width = s.dim + s.witness_dim
    signed = [s.dim + j for j, flag in enumerate(s.witness_nonneg) if flag]

    def holds(y):  # every row at y = (x, -d)
        return (all(y[j] >= 0 for j in signed)
                and all(sum(a * y[j] for j, a in r) <= 0 for r in G)
                and not any(sum(a * y[j] for j, a in r) for r in E))

    return [len(x) == width and holds([*x, -d]) for x, d in stacked]


def _combination(s: LiftedSet, mu, nu):
    """(c, k), c integers with c / k = G^T mu + E^T nu over S's columns
    (z, w) and h.mu + e.nu last: each row with a nonzero multiplier, its
    right-hand side last, over its lcm L_i (`_row_over_lcm`), weighed by its
    multiplier over the multipliers' one denominator D times L / L_i, L
    the lcm of those L_i, so k = D L. None unless mu has one entry per G
    row and nu one per E row, mu >= 0, and c is 0 at each free witness
    column and >= 0 at each flagged one, as the multipliers of S's rows in
    any program over its witness columns must be."""
    if (mu is None or nu is None or len(mu) != len(s.G)
            or len(nu) != len(s.E) or any(v < 0 for v in mu)):
        return None
    used = [(_row_over_lcm(r, b), v)
            for r, b, v in zip(s.G + s.E, s.h + s.e, [*mu, *nu]) if v]
    weights, d = over_lcm([v for _, v in used])
    scale = lcm(*[m for (_, m), _ in used])
    c = [0] * (s.dim + s.witness_dim + 1)
    for ((row, m), _), w in zip(used, weights):
        w *= scale // m
        for j, a in row:
            c[j] += w * a
    if any(v < 0 if flag else v
           for v, flag in zip(c[s.dim:-1], s.witness_nonneg)):
        return None
    return c, d * scale


def _refuted(s: LiftedSet, mu, nu, x, d) -> bool:
    """The twin of `satisfied` for a Farkas pair, mu on S's G rows and nu
    on its E rows, at an integer pair (x, d), x over S's z columns: whether
    it proves that no witness w has G (x, w) <= d h and E (x, w) = d e.
    It must pass `_combination`, and the right-hand side that x leaves,
    (d h - G_z x).mu + (d e - E_z x).nu, must be negative. At d > 0 that
    puts x / d outside S. At d = 0 the rows are S's homogenized rows, in
    which the scale t >= 0 is one more flagged witness column with entries
    -h and -e, so the combination must also be <= 0 at the right-hand
    side: then no (w, t) has G (x, w) <= t h and E (x, w) = t e, and x is
    outside the closed conic hull of S."""
    comb = _combination(s, mu, nu)
    if comb is None:
        return False
    c, _ = comb
    if d == 0 and c[-1] > 0:
        return False
    return sum(a * v for a, v in zip(c, x)) - c[-1] * d > 0


def _recession_cone(s: LiftedSet) -> LiftedSet:
    """S's rows with zero right-hand sides: the lifted recession cone, whose
    projection is the recession cone of S when S is nonempty."""
    return replace(s, h=[ZERO] * len(s.h), e=[ZERO] * len(s.e))


def support(s: LiftedSet, d):
    """sup {d.z : z in S}; NEG_INF on empty S, INF when unbounded."""
    return supports(s, [d])[0]


# the key under which a support epigraph keeps the polyhedron it supports
_SUPPORTED = "_kept_supported"


def record_support_epigraph(s: LiftedSet, p: Polyhedron) -> LiftedSet:
    """s, recorded as the epigraph of the support function of the nonempty
    polyhedron p, so that `supports` answers s by p's polar. The record is
    kept state: a set that `dataclasses.replace` builds from s answers by
    LP on its own rows."""
    s.__dict__[_SUPPORTED] = p
    return s


@kept
def _sweep(s: LiftedSet) -> lp.System:
    """The set's rows (`_joint_lp`) on one `lp.System`, built on the first
    call only: every `supports` sweep of the set shares its phase 1 and
    the rays and optimal bases that earlier sweeps proved."""
    return lp.System(_joint_lp(s))


def supports(s: LiftedSet, directions) -> list:
    """[support(s, d) for d in directions]. A set recorded as the support
    epigraph of a polyhedron (`record_support_epigraph`) is answered by
    its polar, with no LP (`_polar_supports`). Any other set is answered on
    the one `lp.System` of its rows that it keeps (`lp.System.maxima`):
    phase 1 runs once per set, and a direction runs a phase 2 only when no
    ray or optimal basis that an earlier direction found decides it. An
    empty set gives NEG_INF and an unbounded one INF."""
    p = s.__dict__.get(_SUPPORTED)
    if p is not None:
        return _polar_supports(p, directions)
    pad = [ZERO] * s.witness_dim
    return _sweep(s).maxima(
        [as_q_vector(d, s.dim, "direction dimension mismatch") + pad
         for d in directions])


def _polar_supports(p: Polyhedron, directions) -> list:
    """[support(epi sigma_p, (d, delta)) for (d, delta) in directions],
    for a nonempty polyhedron p, with no LP. epi sigma_p is a closed cone,
    so its support is 0 on its polar cone and INF off it. That polar is
    the closed cone over the points (x, -1), x in p: (d, delta), read as
    integers over its lcm (a positive scale keeps every sign), is in it
    iff delta <= 0 and `satisfied(p, [(d, -delta)])`, where scale 0 asks
    for a recession direction."""
    scaled = [over_lcm(as_q_vector(d, p.dim + 1,
                                   "direction dimension mismatch"))[0]
              for d in directions]
    inside = iter(satisfied(p, [(z[:-1], -z[-1]) for z in scaled
                                if z[-1] <= 0]))
    return [ZERO if z[-1] <= 0 and next(inside) else INF for z in scaled]


def minkowski_sum(a: LiftedSet, b: LiftedSet) -> LiftedSet:
    """{z1 + z2 : z1 in A, z2 in B}; witness is (z1, wA, wB), z2 = z - z1."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d = a.dim
    zeros_a = [ZERO] * a.witness_dim
    zeros_b = [ZERO] * b.witness_dim

    def from_a(rows):  # A's row at (z1, wA)
        return [[ZERO] * d + r + zeros_b for r in rows]

    def from_b(rows):  # B's row at (z - z1, wB)
        return [r[:d] + [-v for v in r[:d]] + zeros_a + r[d:] for r in rows]

    return LiftedSet(dim=d, witness_dim=d + a.witness_dim + b.witness_dim,
                     G=from_a(a.G) + from_b(b.G), h=a.h + b.h,
                     E=from_a(a.E) + from_b(b.E), e=a.e + b.e,
                     witness_nonneg=[False] * d + a.witness_nonneg
                                    + b.witness_nonneg)


def linear_image(s: LiftedSet, M) -> LiftedSet:
    """{M z : z in S}; M given as a list of rows over R^dim."""
    M = as_q_matrix(M, s.dim, "matrix width != set dimension")
    k = len(M)
    flat = [ZERO] * k
    links = [[ONE if j == i else ZERO for j in range(k)]
             + [-v for v in M[i]] + [ZERO] * s.witness_dim for i in range(k)]
    return LiftedSet(dim=k, witness_dim=s.dim + s.witness_dim,
                     G=[flat + r for r in s.G], h=s.h,
                     E=links + [flat + r for r in s.E], e=flat + s.e,
                     witness_nonneg=[False] * s.dim + s.witness_nonneg)


def _homogenized(s: LiftedSet) -> LiftedSet:
    """S's rows, each right-hand side times a last witness, the scale t >= 0
    (the slice t = 0 is the lifted recession cone)."""
    return LiftedSet(dim=s.dim, witness_dim=s.witness_dim + 1,
                     G=[r + [-b] for r, b in zip(s.G, s.h)],
                     h=[ZERO] * len(s.h),
                     E=[r + [-b] for r, b in zip(s.E, s.e)],
                     e=[ZERO] * len(s.e),
                     witness_nonneg=s.witness_nonneg + [True])


def scale_program(s: LiftedSet, p) -> lp.LinearProgram:
    """The scale LP of `cone_closed_regarding` at p: max t, as min -t,
    over the witness w and the scale t >= 0 of the homogenized rows: the
    membership program of p in that set, with the cost -t."""
    cone = _homogenized(s)
    b, = _right_hand_sides(cone, [p])
    return _witness_program(cone, b, [ZERO] * s.witness_dim + [-ONE])


def cone_closed_regarding(s: LiftedSet, p, candidate=None, layout=""):
    """Does cl(R+ S) agree with R+ S at the point p?

    Returns (in_cone, in_closure). At p != 0 one LP, max t over the
    homogenized rows at z = p (`scale_program`), checked by substitution
    (InvariantViolation if not): infeasible puts p outside the closure,
    t > 0 or unbounded puts p/t in S. At t = 0 and at p = 0, p is in the
    closure iff S is nonempty (its kept emptiness LP), and then in the
    cone iff p = 0. A `candidate` outcome of the scale LP that passes its
    integer substitution into S's own rows (`_proves_scale`) stands in for
    the LP, with no program built; one that fails leaves the question to
    the LP, and an LP that reaches the candidate's status raises
    (`_refuse_confirmed`, naming `layout`). A p of another width raises
    ValueError first.
    """
    p = as_q_vector(p, s.dim, "point dimension mismatch")
    if not any(p):
        nonempty = not s.is_empty()
        return nonempty, nonempty
    if candidate is not None and _proves_scale(s, p, candidate):
        out = candidate
    else:
        prog = scale_program(s, p)
        out = lp.solve(prog)
        if not lp.verify_certificate(prog, out):
            raise InvariantViolation(
                "scale LP outcome failed its substitution check")
        _refuse_confirmed(candidate, out.status, layout)
    # max t is -value, +oo when unbounded (value NEG_INF)
    inside = out.status != lp.INFEASIBLE
    strict = inside and out.value < ZERO
    return strict, strict or (inside and not s.is_empty())


def _proves_scale(s: LiftedSet, p, out) -> bool:
    """Whether `out`, an outcome of `scale_program(s, p)` at a nonzero point
    p of S's width, proves its status by integer substitution into S's own
    rows; the program and the homogenized set are never built. Its columns
    are (w, t), and its rows S's rows at z = p, each right-hand side times
    t >= 0. A point (w, t) is `satisfied` at ((p, w), t); a ray (w', t'),
    t' > 0, at ((0, w'), t'), and it makes the value NEG_INF; a Farkas pair
    is `_refuted` at (p, 0). An optimum is a point at t = -value whose
    multipliers pass `_combination`, are <= -1 at the right-hand side (the
    cost -1 on t) and give the value (G_z^T mu + E_z^T nu).p."""
    if out.status == lp.INFEASIBLE:
        return _refuted(s, out.farkas_ineq, out.farkas_eq, over_lcm(p)[0], 0)
    x = out.x
    if x is None or len(x) != s.witness_dim + 1:
        return False
    point, k = over_lcm(p + x)
    if point[-1] < 0:
        return False
    at = (point[:-1], point[-1])
    if out.status == lp.UNBOUNDED:
        ray = out.ray
        if out.value is not NEG_INF or ray is None or len(ray) != len(x):
            return False
        ray, _ = over_lcm(ray)
        return ray[-1] > 0 and all(
            satisfied(s, [at, ([0] * s.dim + ray[:-1], ray[-1])]))
    if out.status != lp.OPTIMAL or not satisfied(s, [at])[0]:
        return False
    comb = _combination(s, out.dual_ineq, out.dual_eq)
    if comb is None:
        return False
    c, m = comb
    at_p, d = over_lcm(p)
    return (c[-1] <= -m and out.value == Q(-point[-1], k)
            == Q(sum(a * v for a, v in zip(c, at_p)), m * d))


@dataclass
class GeneratedSet:
    """conv(points) + cone(rays). With no points the set is empty, whatever
    the rays say."""

    dim: int
    points: list = field(default_factory=list)
    rays: list = field(default_factory=list)

    def __post_init__(self):
        error = "generator width != dim"
        self.points = as_q_matrix(self.points, self.dim, error)
        self.rays = as_q_matrix(self.rays, self.dim, error)


def as_lifted(g: GeneratedSet) -> LiftedSet:
    if not g.points:
        return empty_set(g.dim)
    gens = g.points + g.rays
    E = [[ONE if k == i else ZERO for k in range(g.dim)]
         + [-v[i] for v in gens] for i in range(g.dim)]
    E.append([ZERO] * g.dim + [ONE] * len(g.points) + [ZERO] * len(g.rays))
    return LiftedSet(dim=g.dim, witness_dim=len(gens), E=E,
                     e=[ZERO] * g.dim + [ONE],
                     witness_nonneg=[True] * len(gens))


def contains_generated(s: LiftedSet, g: GeneratedSet) -> bool:
    """conv(points) + cone(rays) subset of S, for convex closed S: every
    point must be a member and every ray a recession direction."""
    if g.dim != s.dim:
        raise ValueError("dimension mismatch")
    if not g.points:
        return True
    return (all(members(s, g.points))
            and all(members(_recession_cone(s), g.rays)))


def probe_directions(dim: int, n_random: int = 0, seed: int = 0):
    """The standard probe grid: +-e_i, then +-e_i +- e_j (i < j), then
    n_random extra seeded integer directions. The grid's directions are
    nonzero and distinct by construction; a draw is told from those kept
    by its integers, before it is made rational. A dimension below 1 has
    no nonzero direction to draw, and a negative n_random no count to
    draw; both raise ValueError."""
    if dim < 1:
        raise ValueError("probe directions need dimension >= 1")
    if n_random < 0:
        raise ValueError("the number of random directions must be >= 0")
    dirs = []
    for i in range(dim):
        for si in (1, -1):
            v = [0] * dim
            v[i] = si
            dirs.append(v)
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * dim
                    v[i] = si
                    v[j] = sj
                    dirs.append(v)
    seen = {tuple(v) for v in dirs}
    rng = random.Random(seed)
    made = 0
    while made < n_random:
        v = [rng.randint(-3, 3) for _ in range(dim)]
        if not any(v):
            continue
        # the draw count moves on duplicates too, so this terminates
        made += 1
        key = tuple(v)
        if key not in seen:
            seen.add(key)
            dirs.append(v)
    rational = {k: Q(k) for k in range(-3, 4)}
    return [[rational[x] for x in v] for v in dirs]


def support_mismatches(a: LiftedSet, b: LiftedSet, directions):
    """Directions where sup over A and sup over B differ."""
    directions = list(directions)
    return [(list(d), sa, sb)
            for d, sa, sb in zip(directions, supports(a, directions),
                                 supports(b, directions))
            if sa != sb]


def require_equal_supports(a: LiftedSet, b: LiftedSet, directions, what):
    """Raise InvariantViolation, naming `what`, at the first direction
    where the supports of A and B differ."""
    directions = list(directions)
    require_equal_values(directions, supports(a, directions),
                         supports(b, directions), what)


def require_equal_values(directions, a_values, b_values, what):
    """Raise InvariantViolation, naming `what`, at the first direction
    where two sets' support values (a_values, b_values) differ."""
    for d, sa, sb in zip(directions, a_values, b_values):
        if sa != sb:
            raise InvariantViolation(
                f"{what}: support {sa} vs {sb} along {list(d)}")


@dataclass
class Box:
    """Product of closed segments [lo_i, hi_i]."""

    bounds: list

    def __post_init__(self):
        rows = as_q_matrix(self.bounds, 2,
                           "each bound must be a (lo, hi) pair")
        self.bounds = [(v[0], v[1]) for v in rows]
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError("box with lo > hi")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, x) -> bool:
        x = as_q_vector(x, self.dim, "point dimension mismatch")
        return all(lo <= v <= hi for v, (lo, hi) in zip(x, self.bounds))

    def support(self, d):
        """sup {d.y : y in box} = sum(d+ hi - d- lo), always finite."""
        d = as_q_vector(d, self.dim, "direction dimension mismatch")
        s = ZERO
        for v, (lo, hi) in zip(d, self.bounds):
            s += v * (hi if v > ZERO else lo)
        return s

    def pullback(self, rows, dim: int) -> Polyhedron:
        """{x in R^dim : lo_i <= rows[i] . x <= hi_i}, the box pulled back
        through the map with these rows. Each bound gives two inequality
        rows in turn: rows[i] with right-hand side hi_i, then -rows[i] with
        -lo_i."""
        if len(rows) != self.dim:
            raise ValueError("one map row per box bound required")
        G, h = [], []
        for row, (lo, hi) in zip(rows, self.bounds):
            G += [row, [-v for v in row]]
            h += [hi, -lo]
        return Polyhedron(dim=dim, G=G, h=h)

    def to_polyhedron(self) -> Polyhedron:
        n = self.dim
        return self.pullback(
            [[ONE if k == j else ZERO for k in range(n)] for j in range(n)], n)
