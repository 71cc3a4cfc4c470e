"""Polyhedral sets: lifted (projection) form and finitely generated form.

Every set this package reasons about is a projection of a polyhedron,

    S = {z : exists w such that  Pz + Qw <= q,  Rz + Sw = r},

so membership, support values, linear images, Minkowski sums and the exact
closed conic hull are single LPs or plain row surgery on that
representation. No numeric closure is ever taken: the closed conic hull of a
nonempty polyhedral projection is its coned form plus its recession cone,
both of which the homogenized representation captures exactly; one LP on
it, the largest scale at z = p, places p in the hull or its closure.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace

from . import lp
from .errors import InvariantViolation
from .rational import ONE, Q, ZERO, as_q_matrix, as_q_vector, dot


@dataclass
class LiftedSet:
    """{z in R^dim : exists w, ineq_z z + ineq_w w <= ineq_rhs,
    eq_z z + eq_w w = eq_rhs}; witness_nonneg flags w components known >= 0."""

    dim: int
    witness_dim: int = 0
    ineq_z: list = field(default_factory=list)
    ineq_w: list = field(default_factory=list)
    ineq_rhs: list = field(default_factory=list)
    eq_z: list = field(default_factory=list)
    eq_w: list = field(default_factory=list)
    eq_rhs: list = field(default_factory=list)
    witness_nonneg: list | None = None

    def __post_init__(self):
        z_error = "z-block row width != dim"
        w_error = "witness-block row width != witness_dim"
        self.ineq_z = as_q_matrix(self.ineq_z, self.dim, z_error)
        self.ineq_w = as_q_matrix(self.ineq_w, self.witness_dim, w_error)
        self.ineq_rhs = as_q_vector(self.ineq_rhs)
        self.eq_z = as_q_matrix(self.eq_z, self.dim, z_error)
        self.eq_w = as_q_matrix(self.eq_w, self.witness_dim, w_error)
        self.eq_rhs = as_q_vector(self.eq_rhs)
        if self.witness_nonneg is None:
            self.witness_nonneg = [False] * self.witness_dim
        if not (len(self.ineq_z) == len(self.ineq_w) == len(self.ineq_rhs)):
            raise ValueError("inequality blocks disagree in row count")
        if not (len(self.eq_z) == len(self.eq_w) == len(self.eq_rhs)):
            raise ValueError("equality blocks disagree in row count")
        if len(self.witness_nonneg) != self.witness_dim:
            raise ValueError("witness flag count != witness_dim")


def kept(method):
    """A method of no arguments (or a function of one object) whose first
    result is kept in the object's __dict__, for later calls and for
    copy.copy or copy.deepcopy of it."""
    key = "_kept_" + method.__name__

    @functools.wraps(method)
    def get(self):
        if key not in self.__dict__:
            self.__dict__[key] = method(self)
        return self.__dict__[key]

    return get


def empty_set(dim: int) -> LiftedSet:
    return LiftedSet(dim=dim, ineq_z=[[ZERO] * dim], ineq_w=[[]], ineq_rhs=[-1])


def whole_space(dim: int) -> LiftedSet:
    return LiftedSet(dim=dim)


def _joint_lp(s: LiftedSet):
    """Feasibility LP over stacked (z, w) with the set's rows."""
    n = s.dim + s.witness_dim
    G = [rz + rw for rz, rw in zip(s.ineq_z, s.ineq_w)]
    E = [rz + rw for rz, rw in zip(s.eq_z, s.eq_w)]
    return lp.LinearProgram(c=[ZERO] * n, G=G, h=s.ineq_rhs,
                            E=E, e=s.eq_rhs,
                            nonneg=[False] * s.dim + list(s.witness_nonneg))


def is_empty(s: LiftedSet) -> bool:
    return a_point_of(s) is None


def a_point_of(s: LiftedSet):
    """Some point of S, or None when S is empty."""
    out = lp.solve(_joint_lp(s))
    if out.status == lp.INFEASIBLE:
        return None
    return out.x[:s.dim]


def member(s: LiftedSet, z) -> bool:
    return members(s, [z])[0]


def members(s: LiftedSet, points) -> list:
    """[member(s, z) for z in points]. z is in S iff the witness rows
    have a solution with right-hand side rhs - (z-block) z, so every point
    poses the same rows with a right-hand side of its own, and one kept
    basis serves them all (`lp.System.feasible`)."""
    rows = list(zip(s.ineq_z + s.eq_z, s.ineq_rhs + s.eq_rhs))
    rhss = []
    for z in points:
        z = as_q_vector(z, s.dim, "point dimension mismatch")
        rhss.append([b - dot(r, z) for r, b in rows])
    mG = len(s.ineq_rhs)
    if s.witness_dim == 0:
        return [all(v >= ZERO for v in b[:mG])
                and all(v == ZERO for v in b[mG:]) for b in rhss]
    prog = lp.LinearProgram(
        c=[ZERO] * s.witness_dim, G=s.ineq_w, h=[ZERO] * mG,
        E=s.eq_w, e=[ZERO] * len(s.eq_rhs), nonneg=s.witness_nonneg)
    return list(map(lp.System(prog).feasible, rhss))


def _recession_cone(s: LiftedSet) -> LiftedSet:
    """S's rows with zero right-hand sides: the lifted recession cone, whose
    projection is the recession cone of S when S is nonempty."""
    return replace(s, ineq_rhs=[ZERO] * len(s.ineq_rhs),
                   eq_rhs=[ZERO] * len(s.eq_rhs))


def support(s: LiftedSet, d):
    """sup {d.z : z in S}; NEG_INF on empty S, INF when unbounded."""
    return supports(s, [d])[0]


def supports(s: LiftedSet, directions) -> list:
    """[support(s, d) for d in directions], from one feasible basis of the
    set's rows (`lp.System.minima`): phase 1 runs once and each direction
    is a phase 2 only.
    sup d.z is minus the minimum of -d.z, so an empty set's INF becomes
    NEG_INF and an unbounded minimum's NEG_INF becomes INF."""
    costs = []
    for d in directions:
        d = as_q_vector(d, s.dim, "direction dimension mismatch")
        costs.append([-v for v in d] + [ZERO] * s.witness_dim)
    return [-v for v in lp.System(_joint_lp(s)).minima(costs)]


def minkowski_sum(a: LiftedSet, b: LiftedSet) -> LiftedSet:
    """{z1 + z2 : z1 in A, z2 in B}; witness is (z1, wA, wB), z2 = z - z1."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d = a.dim
    wd = d + a.witness_dim + b.witness_dim
    zeros_a = [ZERO] * a.witness_dim
    zeros_b = [ZERO] * b.witness_dim
    ineq_z, ineq_w, ineq_rhs = [], [], []
    eq_z, eq_w, eq_rhs = [], [], []
    for rz, rw, rhs in zip(a.ineq_z, a.ineq_w, a.ineq_rhs):
        ineq_z.append([ZERO] * d)
        ineq_w.append(list(rz) + list(rw) + zeros_b)
        ineq_rhs.append(rhs)
    for rz, rw, rhs in zip(a.eq_z, a.eq_w, a.eq_rhs):
        eq_z.append([ZERO] * d)
        eq_w.append(list(rz) + list(rw) + zeros_b)
        eq_rhs.append(rhs)
    for rz, rw, rhs in zip(b.ineq_z, b.ineq_w, b.ineq_rhs):
        ineq_z.append(list(rz))
        ineq_w.append([-v for v in rz] + zeros_a + list(rw))
        ineq_rhs.append(rhs)
    for rz, rw, rhs in zip(b.eq_z, b.eq_w, b.eq_rhs):
        eq_z.append(list(rz))
        eq_w.append([-v for v in rz] + zeros_a + list(rw))
        eq_rhs.append(rhs)
    return LiftedSet(dim=d, witness_dim=wd,
                     ineq_z=ineq_z, ineq_w=ineq_w, ineq_rhs=ineq_rhs,
                     eq_z=eq_z, eq_w=eq_w, eq_rhs=eq_rhs,
                     witness_nonneg=[False] * d + list(a.witness_nonneg)
                                    + list(b.witness_nonneg))


def linear_image(s: LiftedSet, M) -> LiftedSet:
    """{M z : z in S}; M given as a list of rows over R^dim."""
    M = as_q_matrix(M, s.dim, "matrix width != set dimension")
    out_dim = len(M)
    wd = s.dim + s.witness_dim
    eq_z = [[ONE if i == k else ZERO for k in range(out_dim)] for i in range(out_dim)]
    eq_w = [[-v for v in M[i]] + [ZERO] * s.witness_dim for i in range(out_dim)]
    eq_rhs = [ZERO] * out_dim
    for rz, rw, rhs in zip(s.eq_z, s.eq_w, s.eq_rhs):
        eq_z.append([ZERO] * out_dim)
        eq_w.append(list(rz) + list(rw))
        eq_rhs.append(rhs)
    ineq_z = [[ZERO] * out_dim for _ in s.ineq_rhs]
    ineq_w = [list(rz) + list(rw) for rz, rw in zip(s.ineq_z, s.ineq_w)]
    return LiftedSet(dim=out_dim, witness_dim=wd,
                     ineq_z=ineq_z, ineq_w=ineq_w, ineq_rhs=s.ineq_rhs,
                     eq_z=eq_z, eq_w=eq_w, eq_rhs=eq_rhs,
                     witness_nonneg=[False] * s.dim + list(s.witness_nonneg))


def _homogenized(s: LiftedSet) -> LiftedSet:
    """S's rows, each right-hand side times a last witness, the scale t >= 0
    (the slice t = 0 is the lifted recession cone)."""
    return LiftedSet(dim=s.dim, witness_dim=s.witness_dim + 1,
                     ineq_z=s.ineq_z, ineq_rhs=[ZERO] * len(s.ineq_rhs),
                     ineq_w=[rw + [-b] for rw, b in zip(s.ineq_w, s.ineq_rhs)],
                     eq_z=s.eq_z, eq_rhs=[ZERO] * len(s.eq_rhs),
                     eq_w=[rw + [-b] for rw, b in zip(s.eq_w, s.eq_rhs)],
                     witness_nonneg=list(s.witness_nonneg) + [True])


def cone_closed_regarding(s: LiftedSet, points):
    """For each test point p: does cl(R+ S) agree with R+ S at p?

    Returns [(p, in_cone, in_closure)]. At p != 0 one LP, max t over the
    homogenized rows at z = p, checked by substitution (InvariantViolation
    if not): infeasible puts p outside the closure, t > 0 or unbounded puts
    p/t in S. At t = 0 and at p = 0, p is in the closure iff S is nonempty
    (one emptiness LP for all points), and then in the cone iff p = 0.
    """
    cone = _homogenized(s)
    nonempty = functools.cache(lambda: not is_empty(s))
    report = []
    for p in points:
        p = as_q_vector(p, s.dim, "point dimension mismatch")
        if all(v == ZERO for v in p):
            report.append((p, nonempty(), nonempty()))
            continue
        prog = lp.LinearProgram(
            c=[ZERO] * s.witness_dim + [-ONE],
            G=cone.ineq_w, h=[-dot(r, p) for r in s.ineq_z],
            E=cone.eq_w, e=[-dot(r, p) for r in s.eq_z],
            nonneg=cone.witness_nonneg)
        out = lp.solve(prog)
        if not lp.verify_certificate(prog, out):
            raise InvariantViolation(
                "scale LP outcome failed its substitution check")
        # max t is -value, +oo when unbounded (value NEG_INF)
        inside = out.status != lp.INFEASIBLE
        strict = inside and out.value < ZERO
        report.append((p, strict, strict or (inside and nonempty())))
    return report


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
    np_, nr = len(g.points), len(g.rays)
    wd = np_ + nr
    eq_z, eq_w, eq_rhs = [], [], []
    for i in range(g.dim):
        eq_z.append([ONE if k == i else ZERO for k in range(g.dim)])
        eq_w.append([-p[i] for p in g.points] + [-r[i] for r in g.rays])
        eq_rhs.append(ZERO)
    eq_z.append([ZERO] * g.dim)
    eq_w.append([ONE] * np_ + [ZERO] * nr)
    eq_rhs.append(ONE)
    return LiftedSet(dim=g.dim, witness_dim=wd,
                     eq_z=eq_z, eq_w=eq_w, eq_rhs=eq_rhs,
                     witness_nonneg=[True] * wd)


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
    nonzero and distinct by construction."""
    dirs = []
    for i in range(dim):
        for si in (ONE, -ONE):
            v = [ZERO] * dim
            v[i] = si
            dirs.append(v)
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (ONE, -ONE):
                for sj in (ONE, -ONE):
                    v = [ZERO] * dim
                    v[i] = si
                    v[j] = sj
                    dirs.append(v)
    seen = {tuple(v) for v in dirs}
    rng = random.Random(seed)
    made = 0
    while made < n_random:
        v = [Q(rng.randint(-3, 3)) for _ in range(dim)]
        if all(x == ZERO for x in v):
            continue
        key = tuple(v)
        if key in seen:
            # keep the draw count moving even on duplicates so this terminates
            made += 1
            continue
        seen.add(key)
        dirs.append(v)
        made += 1
    return dirs


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
class Polyhedron:
    """Plain H-form set {x : G x <= h, E x = e} (no witnesses). It keeps
    its point, solved once, so its rows must not change after construction."""

    dim: int
    G: list = field(default_factory=list)
    h: list = field(default_factory=list)
    E: list = field(default_factory=list)
    e: list = field(default_factory=list)

    def __post_init__(self):
        self.G = as_q_matrix(self.G, self.dim, "row width != dim")
        self.h = as_q_vector(self.h, len(self.G), "row/rhs count mismatch")
        self.E = as_q_matrix(self.E, self.dim, "row width != dim")
        self.e = as_q_vector(self.e, len(self.E), "row/rhs count mismatch")

    def contains(self, x) -> bool:
        x = as_q_vector(x, self.dim, "point dimension mismatch")
        return (all(dot(r, x) <= b for r, b in zip(self.G, self.h))
                and all(dot(r, x) == b for r, b in zip(self.E, self.e)))

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
        return LiftedSet(dim=self.dim,
                         ineq_z=self.G, ineq_w=[[] for _ in self.G],
                         ineq_rhs=self.h,
                         eq_z=self.E, eq_w=[[] for _ in self.E],
                         eq_rhs=self.e)

    @kept
    def _point(self):
        return a_point_of(self.to_lifted())

    def a_point(self):
        """Some point of this set, as a new list, or None when it is empty:
        one LP, solved on the first call only."""
        return None if self.is_empty() else list(self._point())

    def is_empty(self) -> bool:
        return self._point() is None


def whole_space_polyhedron(dim: int) -> Polyhedron:
    return Polyhedron(dim=dim)


@dataclass
class Box:
    """Product of closed segments [lo_i, hi_i]."""

    bounds: list

    def __post_init__(self):
        rows = as_q_matrix([list(b) for b in self.bounds], 2,
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
