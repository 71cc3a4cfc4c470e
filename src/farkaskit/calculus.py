"""Piecewise affine convex functions and their conjugate calculus.

A function here is a finite max of affine pieces, optionally restricted to a
polyhedral domain (+infinity outside). For this class every conjugate object
is again polyhedral and every epigraph identity that normally needs a closure
holds exactly, with attainment, so the conjugate epigraphs below are computed
by row surgery and single LPs rather than by approximation:

  * epi of the conjugate of (max of pieces) is the convex hull of the points
    (slope_i, -offset_i) plus the vertical ray,
  * epi of a support function of {x : Gx <= h, Ex = e} (nonempty) is the cone
    generated by the rows (g_i, h_i), +-(e_k rows) and the vertical ray,
  * the conjugate of a sum with an indicator is the Minkowski sum of the two
    epigraphs whenever the domains meet.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lp, sets
from .rational import INF, ONE, ZERO, as_q_matrix, as_q_vector, dot

_MINUS_ONE = -ONE


@dataclass
class PiecewiseAffine:
    """max_i (slopes[i] . x + offsets[i]), restricted to `domain` if given.

    At least one piece is required and a given domain must be nonempty, so
    the function is always proper. It keeps the system of its conjugate
    values (`fenchel_values`), so its data must not change after
    construction.
    """

    dim: int
    slopes: list
    offsets: list
    domain: sets.Polyhedron | None = None

    def __post_init__(self):
        self.slopes = as_q_matrix(self.slopes, self.dim, "slope width != dim")
        if not self.slopes:
            raise ValueError("a piecewise affine function needs at least one piece")
        self.offsets = as_q_vector(
            self.offsets, len(self.slopes),
            "piece count mismatch between slopes and offsets")
        if self.domain is not None:
            if not isinstance(self.domain, sets.Polyhedron):
                raise ValueError("domain must be a Polyhedron")
            if self.domain.dim != self.dim:
                raise ValueError("domain dimension mismatch")
            if self.domain.is_empty():
                raise ValueError("empty domain would make the function improper")

    def value(self, x):
        x = as_q_vector(x, self.dim, "point dimension mismatch")
        if self.domain is not None and not self.domain.contains(x):
            return INF
        return max(dot(a, x) + b for a, b in zip(self.slopes, self.offsets))


@dataclass
class Minimum:
    """Outcome of an exact minimization. status is the LP status (optimal,
    unbounded or infeasible); value is a rational, INF when the feasible
    set is empty, NEG_INF when the objective is unbounded below; point is a
    feasible point whenever one exists (a minimizer when the value is
    finite) and ray an improving feasible direction when unbounded."""

    status: str
    value: object
    point: list | None = None
    ray: list | None = None


def tilted_slopes(f: PiecewiseAffine, shift) -> list:
    """The slopes a - shift of the pieces of f - shift . x, one per piece
    of f; shift must have f's width."""
    shift = as_q_vector(shift, f.dim, "shift dimension mismatch")
    return [[a - s for a, s in zip(row, shift)] for row in f.slopes]


def _epigraph_program(f: PiecewiseAffine, over: sets.Polyhedron):
    """The rows of min t over (x, t) subject to x in `over` and dom f and
    a.x + b <= t for every piece (a, b) of f, with no cost set."""
    if f.dim != over.dim:
        raise ValueError("dimension mismatch")
    n = f.dim
    p = over.intersect(f.domain)
    rows = [row + [ZERO] for row in p.G]
    rhs = list(p.h)
    for a, b in zip(f.slopes, f.offsets):
        rows.append(list(a) + [-ONE])
        rhs.append(-b)
    return lp.LinearProgram(c=[ZERO] * n + [ONE],
                            G=rows, h=rhs,
                            E=[row + [ZERO] for row in p.E], e=p.e,
                            nonneg=[False] * (n + 1))


def _tilt_costs(vectors, n, error):
    """The cost (-v, 1) over an epigraph program's (x, t) per vector v of
    width n, which gives min t - v.x."""
    return [[-a for a in as_q_vector(v, n, error)] + [ONE] for v in vectors]


def epigraph_system(f: PiecewiseAffine, over: sets.Polyhedron) -> lp.System:
    """`_epigraph_program(f, over)` on one kept `lp.System`: the minimum of
    f (the cost t, `minimum_of`), of its tilts (`unique_tilted_minima`) and its
    conjugate values (`fenchel_values`) are costs on it."""
    return lp.System(_epigraph_program(f, over))


def minimum_of(out: lp.LPOutcome, n: int) -> Minimum:
    """The minimum of f over a polyhedron, from the outcome of the cost t
    on their `epigraph_system` (a fresh solve's): its status and value,
    point and ray cut to x, of width n."""
    if out.status == lp.INFEASIBLE:
        return Minimum(out.status, INF)
    return Minimum(out.status, out.value, point=out.x[:n],
                   ray=None if out.ray is None else out.ray[:n])


def minimize_over(f: PiecewiseAffine, over: sets.Polyhedron) -> Minimum:
    """Minimize f over a polyhedron (intersected with dom f), exactly."""
    system = epigraph_system(f, over)
    return minimum_of(system.outcome(system.program.c), f.dim)


def unique_tilted_minima(system: lp.System, shifts) -> list:
    """Per shift s, the minimum of f - s.x over a polyhedron, posed as the
    cost (-s, 1) on their `epigraph_system`, when the kernel proves it
    attained at one point (`lp.System.unique_optima`), else None. The tilt
    only shears (x, t) to (x, t - s.x), so the tilted epigraph program has
    that one point too, and each answer equals `minimize_over` of
    f - s.x over the polyhedron, bit for bit."""
    n = system.program.n - 1
    costs = _tilt_costs(shifts, n, "shift dimension mismatch")
    return [None if got is None else
            Minimum(lp.OPTIMAL, got[1], point=got[0][:n])
            for got in system.unique_optima(costs)]


def fenchel_values(f: PiecewiseAffine, points, over=None) -> list:
    """[(f + indicator of `over`)*(u) for u in points], f*(u) when `over`
    is None; INF where the sup is unbounded, NEG_INF when `over` misses
    dom f.

    The conjugate at u is sup_x (u . x - f(x)) = max (u . x - t) over f's
    epigraph rows (a.x + b <= t per piece, plus dom f and `over`). Only the
    cost (u, -1) depends on u, so one `lp.System` serves every point: phase
    1 runs once per f, and a point runs a phase 2 only when no ray or
    optimal basis of an earlier point decides it (`maxima`, which poses
    the cost (-u, 1) of min (t - u . x) and negates no rational). With no
    `over`, that system is the one f keeps (`_conjugate_system`), which
    later calls share. The optimum value is unique, so each value is the
    one a program per point would give. A tilt needs no program of its own
    either: the conjugate of f - s.x - l at u is f*(u + s) + l."""
    costs = [as_q_vector(u, f.dim, "point dimension mismatch") + [_MINUS_ONE]
             for u in points]
    system = (_conjugate_system(f) if over is None
              else epigraph_system(f, over))
    return system.maxima(costs)


@sets.kept
def _conjugate_system(f: PiecewiseAffine) -> lp.System:
    """f's `epigraph_system` over the whole space, built on the first call
    only: every `fenchel_values` call on f with no `over` shares its phase
    1 and the rays and optimal bases that earlier points proved."""
    return epigraph_system(f, sets.whole_space(f.dim))


def fenchel_value(f: PiecewiseAffine, u):
    """f*(u) = sup_x (u . x - f(x)); INF when the sup is unbounded."""
    return fenchel_values(f, [u])[0]


def multiplier_program(dim: int, pieces, blocks):
    """The linked-multiplier program behind every conjugate, support and
    certificate set.

    Its variables are weights theta >= 0 on the pieces (a_i, b_i) of a max
    of affine functions in R^dim, then one multiplier per row of each block
    polyhedron, >= 0 on an inequality row and free on an equality row. The
    equality rows are the dim cancellation rows u + sum over blocks of
    rows^T mu = 0, with u = sum theta_i a_i, then sum theta_i = 1 when there
    are pieces. The budget row (-b on theta, the right-hand sides on the
    multipliers) bounds the conjugate of the max at u plus each block's
    support function at its rows^T mu from above, tightly for the best
    multipliers; with no pieces it bounds the support function of the
    blocks' meet at their summed rows^T mu. A certificate asks
    budget . w <= 0, and the dual program minimizes it. Returns
    (program, split): the LP of min budget . w over the equality rows, and
    split(w), which cuts a solution into theta and one slice per block, its
    G rows then its E rows."""
    cols = [(a, -b, True) for a, b in pieces]
    for p in blocks:
        cols += [(r, rhs, True) for r, rhs in zip(p.G, p.h)]
        cols += [(r, rhs, False) for r, rhs in zip(p.E, p.e)]
    k = len(pieces)
    E = [[r[j] for r, _, _ in cols] for j in range(dim)]
    e = [ZERO] * dim
    if k:
        E.append([ONE] * k + [ZERO] * (len(cols) - k))
        e.append(ONE)
    cuts = [0, k]
    for p in blocks:
        cuts.append(cuts[-1] + len(p.G) + len(p.E))

    def split(w):
        return [w[a:b] for a, b in zip(cuts, cuts[1:])]

    return lp.LinearProgram(c=[rhs for _, rhs, _ in cols], G=[], h=[], E=E,
                            e=e, nonneg=[flag for _, _, flag in cols]), split


def _dual_epigraph(dim: int, pieces, blocks) -> sets.LiftedSet:
    """{(u, r) : budget . w <= r for some multipliers w of
    `multiplier_program` whose pieces and rows sum to u}: the epigraph of
    (max of the pieces + indicator of the blocks' meet)*, or of the meet's
    support function when there are no pieces. Exact by LP duality when
    the meet is nonempty, which callers check."""
    p, _ = multiplier_program(dim, pieces, blocks)
    E = [[ONE if k == j else ZERO for k in range(dim + 1)]
         + [-v for v in row] for j, row in enumerate(p.E[:dim])]
    E += [[ZERO] * (dim + 1) + row for row in p.E[dim:]]
    return sets.LiftedSet(dim=dim + 1, witness_dim=p.n,
                          G=[[ZERO] * dim + [-ONE] + p.c], h=[ZERO],
                          E=E, e=p.e, witness_nonneg=p.nonneg)


def support_epigraph(p) -> sets.LiftedSet:
    """Epigraph of the support function of a Polyhedron or Box, as a lifted
    set over (direction, value). Exact: for a nonempty polyhedron the LP dual
    of sup is attained, and an empty set has support -infinity everywhere, so
    the epigraph is the whole space. A box is nonempty by construction, so
    its rows run no emptiness LP. The set of a nonempty p records p
    (`sets.record_support_epigraph`), and `sets.supports` answers it by
    p's polar, with no LP. Any other set raises ValueError."""
    if isinstance(p, sets.Box):
        p = p.to_polyhedron()
    elif not isinstance(p, sets.Polyhedron):
        raise ValueError("a support epigraph needs a Polyhedron or a Box")
    elif p.is_empty():
        return sets.whole_space(p.dim + 1)
    return sets.record_support_epigraph(_dual_epigraph(p.dim, [], [p]), p)


def support_epigraph_generators(p: sets.Polyhedron) -> list:
    """Ray generators of the support function epigraph of a nonempty
    polyhedron: its rows paired with their right hand sides, equality rows in
    both signs, and the vertical ray."""
    if p.is_empty():
        raise ValueError("the support epigraph of an empty set is not a cone")
    rays = [list(g) + [b] for g, b in zip(p.G, p.h)]
    for r, b in zip(p.E, p.e):
        rays.append(list(r) + [b])
        rays.append([-v for v in r] + [-b])
    rays.append([ZERO] * p.dim + [ONE])
    return rays


def conjugate_epigraph(f: PiecewiseAffine) -> sets.GeneratedSet:
    """epi f* as points + rays: one point (slope, -offset) per piece, the
    vertical ray, and the domain's support-epigraph rays when f is
    restricted."""
    points = [list(a) + [-b] for a, b in zip(f.slopes, f.offsets)]
    rays = [[ZERO] * f.dim + [ONE]]
    if f.domain is not None:
        rays += support_epigraph_generators(f.domain)
    return sets.GeneratedSet(dim=f.dim + 1, points=points, rays=rays)


def restricted_conjugate_epigraph(f: PiecewiseAffine,
                                  over: sets.Polyhedron) -> sets.LiftedSet:
    """epi (f + indicator of `over`)*, by the LP dual of the sup defining the
    conjugate. Exact whenever `over` meets dom f; if it does not, the
    restriction is identically +infinity and the epigraph of its conjugate is
    the whole space."""
    if f.dim != over.dim:
        raise ValueError("dimension mismatch")
    meet = over.intersect(f.domain)
    if meet.is_empty():
        return sets.whole_space(f.dim + 1)
    return _dual_epigraph(f.dim, list(zip(f.slopes, f.offsets)), [meet])
