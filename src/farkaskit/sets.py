"""Polyhedral sets: lifted (projection) form and finitely generated form.

Every set this package reasons about is a projection of a polyhedron,

    S = {z : exists w such that  Pz + Qw <= q,  Rz + Sw = r},

so membership, support values, linear images, Minkowski sums and the exact
closed conic hull are single LPs or plain row surgery on that
representation. No numeric closure is ever taken: the closed conic hull of a
nonempty polyhedral projection is its coned form plus its recession cone,
both of which the homogenized representation captures exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import lp
from .errors import InvariantViolation
from .rational import INF, NEG_INF, ONE, Q, ZERO, as_q_matrix, as_q_vector, dot


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
        self.ineq_z = as_q_matrix(self.ineq_z)
        self.ineq_w = as_q_matrix(self.ineq_w)
        self.ineq_rhs = as_q_vector(self.ineq_rhs)
        self.eq_z = as_q_matrix(self.eq_z)
        self.eq_w = as_q_matrix(self.eq_w)
        self.eq_rhs = as_q_vector(self.eq_rhs)
        if self.witness_nonneg is None:
            self.witness_nonneg = [False] * self.witness_dim
        if not (len(self.ineq_z) == len(self.ineq_w) == len(self.ineq_rhs)):
            raise ValueError("inequality blocks disagree in row count")
        if not (len(self.eq_z) == len(self.eq_w) == len(self.eq_rhs)):
            raise ValueError("equality blocks disagree in row count")
        for row in self.ineq_z + self.eq_z:
            if len(row) != self.dim:
                raise ValueError("z-block row width != dim")
        for row in self.ineq_w + self.eq_w:
            if len(row) != self.witness_dim:
                raise ValueError("witness-block row width != witness_dim")
        if len(self.witness_nonneg) != self.witness_dim:
            raise ValueError("witness flag count != witness_dim")


def empty_set(dim: int) -> LiftedSet:
    return LiftedSet(dim=dim, ineq_z=[[ZERO] * dim], ineq_w=[[]], ineq_rhs=[-1])


def whole_space(dim: int) -> LiftedSet:
    return LiftedSet(dim=dim)


def _joint_lp(s: LiftedSet, c_z, c_w):
    """LP over stacked (z, w) with the set's rows."""
    n = s.dim + s.witness_dim
    G = [rz + rw for rz, rw in zip(s.ineq_z, s.ineq_w)]
    E = [rz + rw for rz, rw in zip(s.eq_z, s.eq_w)]
    return lp.LinearProgram(c=list(c_z) + list(c_w), G=G, h=s.ineq_rhs,
                            E=E, e=s.eq_rhs,
                            nonneg=[False] * s.dim + list(s.witness_nonneg))


def is_empty(s: LiftedSet) -> bool:
    out = lp.solve(_joint_lp(s, [ZERO] * s.dim, [ZERO] * s.witness_dim))
    return out.status == lp.INFEASIBLE


def a_point_of(s: LiftedSet):
    """Some point of S, or None when S is empty."""
    out = lp.solve(_joint_lp(s, [ZERO] * s.dim, [ZERO] * s.witness_dim))
    if out.status == lp.INFEASIBLE:
        return None
    return out.x[:s.dim]


def member(s: LiftedSet, z) -> bool:
    z = as_q_vector(z)
    if len(z) != s.dim:
        raise ValueError("point dimension mismatch")
    if s.witness_dim == 0:
        return (all(dot(r, z) <= b for r, b in zip(s.ineq_z, s.ineq_rhs))
                and all(dot(r, z) == b for r, b in zip(s.eq_z, s.eq_rhs)))
    prog = lp.LinearProgram(
        c=[ZERO] * s.witness_dim,
        G=s.ineq_w, h=[b - dot(r, z) for r, b in zip(s.ineq_z, s.ineq_rhs)],
        E=s.eq_w, e=[b - dot(r, z) for r, b in zip(s.eq_z, s.eq_rhs)],
        nonneg=s.witness_nonneg)
    return lp.solve(prog).status != lp.INFEASIBLE


def recession_member(s: LiftedSet, d) -> bool:
    """Is d a recession direction of S? (S must be nonempty for this to mean
    anything; the recession cone of a polyhedral projection is the projection
    of the lifted recession cone, which is what this solves.)"""
    d = as_q_vector(d)
    if len(d) != s.dim:
        raise ValueError("direction dimension mismatch")
    prog = lp.LinearProgram(
        c=[ZERO] * s.witness_dim,
        G=s.ineq_w, h=[-dot(r, d) for r in s.ineq_z],
        E=s.eq_w, e=[-dot(r, d) for r in s.eq_z],
        nonneg=s.witness_nonneg)
    return lp.solve(prog).status != lp.INFEASIBLE


def support(s: LiftedSet, d):
    """sup {d.z : z in S}; NEG_INF on empty S, INF when unbounded."""
    d = as_q_vector(d)
    if len(d) != s.dim:
        raise ValueError("direction dimension mismatch")
    out = lp.solve(_joint_lp(s, [-v for v in d], [ZERO] * s.witness_dim))
    if out.status == lp.INFEASIBLE:
        return NEG_INF
    if out.status == lp.UNBOUNDED:
        return INF
    return -out.value


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


def translate(s: LiftedSet, v) -> LiftedSet:
    """S + {v}."""
    v = as_q_vector(v)
    return LiftedSet(dim=s.dim, witness_dim=s.witness_dim,
                     ineq_z=s.ineq_z, ineq_w=s.ineq_w,
                     ineq_rhs=[b + dot(r, v) for r, b in zip(s.ineq_z, s.ineq_rhs)],
                     eq_z=s.eq_z, eq_w=s.eq_w,
                     eq_rhs=[b + dot(r, v) for r, b in zip(s.eq_z, s.eq_rhs)],
                     witness_nonneg=s.witness_nonneg)


def linear_image(s: LiftedSet, M) -> LiftedSet:
    """{M z : z in S}; M given as a list of rows over R^dim."""
    M = as_q_matrix(M)
    out_dim = len(M)
    for row in M:
        if len(row) != s.dim:
            raise ValueError("matrix width != set dimension")
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


def conic_hull_closure(s: LiftedSet) -> LiftedSet:
    """cl(R+ S), exactly: homogenize with a scale t >= 0. For nonempty
    polyhedral S this set is (R+ S) union (recession cone of S), the t = 0
    slice supplying the recession directions that close the cone."""
    if is_empty(s):
        return empty_set(s.dim)
    wd = s.witness_dim + 1
    ineq_z = list(s.ineq_z)
    ineq_w = [list(rw) + [-rhs] for rw, rhs in zip(s.ineq_w, s.ineq_rhs)]
    ineq_rhs = [ZERO] * len(s.ineq_rhs)
    eq_z = list(s.eq_z)
    eq_w = [list(rw) + [-rhs] for rw, rhs in zip(s.eq_w, s.eq_rhs)]
    eq_rhs = [ZERO] * len(s.eq_rhs)
    return LiftedSet(dim=s.dim, witness_dim=wd,
                     ineq_z=ineq_z, ineq_w=ineq_w, ineq_rhs=ineq_rhs,
                     eq_z=eq_z, eq_w=eq_w, eq_rhs=eq_rhs,
                     witness_nonneg=list(s.witness_nonneg) + [True])


def cone_member_strict(s: LiftedSet, z) -> bool:
    """Is z in R+ S itself (no closure)? z = 0 needs S nonempty; z != 0 needs
    some positive multiple of z to land in S."""
    z = as_q_vector(z)
    if len(z) != s.dim:
        raise ValueError("point dimension mismatch")
    if all(v == ZERO for v in z):
        return not is_empty(s)
    # max tau s.t. tau * z in S (witnessed); tau > 0 iff z in R+ S
    prog = lp.LinearProgram(
        c=[-ONE] + [ZERO] * s.witness_dim,
        G=[[dot(rz, z)] + list(rw) for rz, rw in zip(s.ineq_z, s.ineq_w)],
        h=s.ineq_rhs,
        E=[[dot(rz, z)] + list(rw) for rz, rw in zip(s.eq_z, s.eq_w)],
        e=s.eq_rhs,
        nonneg=[True] + list(s.witness_nonneg))
    out = lp.solve(prog)
    if out.status == lp.INFEASIBLE:
        return False
    if out.status == lp.UNBOUNDED:
        return True
    return -out.value > ZERO


def cone_closed_regarding(s: LiftedSet, points):
    """For each test point p: does cl(R+ S) agree with R+ S at p?

    Returns [(p, in_cone, in_closure)]; raises InvariantViolation if a point
    were in the cone but not its closure, which is impossible.
    """
    closure = conic_hull_closure(s)
    report = []
    for p in points:
        strict = cone_member_strict(s, p)
        closed = member(closure, p)
        if strict and not closed:
            raise InvariantViolation("a conic hull escaped its own closure")
        report.append((list(p), strict, closed))
    return report


@dataclass
class GeneratedSet:
    """conv(points) + cone(rays). With no points the set is empty, whatever
    the rays say."""

    dim: int
    points: list = field(default_factory=list)
    rays: list = field(default_factory=list)

    def __post_init__(self):
        self.points = as_q_matrix(self.points)
        self.rays = as_q_matrix(self.rays)
        for v in self.points + self.rays:
            if len(v) != self.dim:
                raise ValueError("generator width != dim")


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
    for p in g.points:
        if not member(s, p):
            return False
    return all(recession_member(s, r) for r in g.rays)


def probe_directions(dim: int, n_random: int = 0, seed: int = 0):
    """The standard probe grid: +-e_i, then +-e_i +- e_j (i < j), then
    n_random extra seeded integer directions."""
    dirs = []
    seen = set()

    def push(v):
        key = tuple(v)
        if any(x != ZERO for x in v) and key not in seen:
            seen.add(key)
            dirs.append(list(v))

    for i in range(dim):
        for si in (ONE, -ONE):
            v = [ZERO] * dim
            v[i] = si
            push(v)
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (ONE, -ONE):
                for sj in (ONE, -ONE):
                    v = [ZERO] * dim
                    v[i] = si
                    v[j] = sj
                    push(v)
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
    bad = []
    for d in directions:
        sa = support(a, d)
        sb = support(b, d)
        if sa != sb:
            bad.append((list(d), sa, sb))
    return bad


@dataclass
class Polyhedron:
    """Plain H-form set {x : G x <= h, E x = e} (no witnesses)."""

    dim: int
    G: list = field(default_factory=list)
    h: list = field(default_factory=list)
    E: list = field(default_factory=list)
    e: list = field(default_factory=list)

    def __post_init__(self):
        self.G = as_q_matrix(self.G)
        self.h = as_q_vector(self.h)
        self.E = as_q_matrix(self.E)
        self.e = as_q_vector(self.e)
        if len(self.G) != len(self.h) or len(self.E) != len(self.e):
            raise ValueError("row/rhs count mismatch")
        for row in self.G + self.E:
            if len(row) != self.dim:
                raise ValueError("row width != dim")

    def contains(self, x) -> bool:
        x = as_q_vector(x)
        return (all(dot(r, x) <= b for r, b in zip(self.G, self.h))
                and all(dot(r, x) == b for r, b in zip(self.E, self.e)))

    def intersect(self, other: Polyhedron | None) -> Polyhedron:
        """This set meet `other`, with this set's rows first; None stands
        for the whole space."""
        if other is None:
            return self
        return Polyhedron(dim=self.dim, G=self.G + other.G, h=self.h + other.h,
                          E=self.E + other.E, e=self.e + other.e)

    def to_lifted(self) -> LiftedSet:
        return LiftedSet(dim=self.dim,
                         ineq_z=self.G, ineq_w=[[] for _ in self.G],
                         ineq_rhs=self.h,
                         eq_z=self.E, eq_w=[[] for _ in self.E],
                         eq_rhs=self.e)

    def is_empty(self) -> bool:
        return is_empty(self.to_lifted())


def whole_space_polyhedron(dim: int) -> Polyhedron:
    return Polyhedron(dim=dim)


@dataclass
class Box:
    """Product of closed segments [lo_i, hi_i]."""

    bounds: list

    def __post_init__(self):
        rows = as_q_matrix([list(b) for b in self.bounds])
        if any(len(v) != 2 for v in rows):
            raise ValueError("each bound must be a (lo, hi) pair")
        self.bounds = [(v[0], v[1]) for v in rows]
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError("box with lo > hi")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, x) -> bool:
        x = as_q_vector(x)
        return all(lo <= v <= hi for v, (lo, hi) in zip(x, self.bounds))

    def support(self, d):
        """sup {d.y : y in box} = sum(d+ hi - d- lo), always finite."""
        d = as_q_vector(d)
        s = ZERO
        for v, (lo, hi) in zip(d, self.bounds):
            s += v * (hi if v > ZERO else lo)
        return s

    def to_polyhedron(self) -> Polyhedron:
        n = self.dim
        G, h = [], []
        for j, (lo, hi) in enumerate(self.bounds):
            row = [ZERO] * n
            row[j] = ONE
            G.append(row)
            h.append(hi)
            row = [ZERO] * n
            row[j] = -ONE
            G.append(row)
            h.append(-lo)
        return Polyhedron(dim=n, G=G, h=h)
