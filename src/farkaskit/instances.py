"""Seeded random instance generators for the acceptance suite.

Every generator draws from a caller-supplied random.Random, so a whole run
is reproducible from one integer seed (the test suite and CLI read the
FARKAS_SEED environment variable, defaulting to 0). Sizes stay at desk
scale on purpose: the point is exact cross-checking, not throughput.
"""

import random

from . import calculus, sets
from .calculus import PiecewiseAffine
from .engine import FarkasInstance
from .lp import LinearProgram
from .rational import ONE, Q, ZERO, mat_vec
from .semiinf import GridSystem


def _rint(rng: random.Random, lo: int = -3, hi: int = 3):
    return Q(rng.randint(lo, hi))


def random_lp(rng: random.Random):
    """A small LP (n <= 6, at most 8 rows) for kernel stress tests.

    Returns (program, bounds). About a third of the draws are box programs,
    with bounds the exact (lo, hi) per variable so corner enumeration can
    confirm the optimum independently; general draws return bounds None.
    """
    if rng.random() < 1 / 3:
        n = rng.randint(1, 4)
        G, h, bounds = [], [], []
        for i in range(n):
            lo = Q(rng.randint(-5, 2))
            hi = lo + Q(rng.randint(0, 5))
            bounds.append((lo, hi))
            row = [ZERO] * n
            row[i] = -ONE
            G.append(row)
            h.append(-lo)
            row = [ZERO] * n
            row[i] = ONE
            G.append(row)
            h.append(hi)
        c = [_rint(rng, -4, 4) for _ in range(n)]
        return LinearProgram(c=c, G=G, h=h, E=[], e=[]), bounds
    n = rng.randint(1, 6)
    rows = rng.randint(1, 8)
    n_eq = rng.randint(0, min(2, rows))
    c = [_rint(rng, -4, 4) for _ in range(n)]
    G = [[_rint(rng, -4, 4) for _ in range(n)] for _ in range(rows - n_eq)]
    h = [_rint(rng, -6, 6) for _ in range(rows - n_eq)]
    E = [[_rint(rng, -4, 4) for _ in range(n)] for _ in range(n_eq)]
    e = [_rint(rng, -6, 6) for _ in range(n_eq)]
    nonneg = [rng.random() < 1 / 2 for _ in range(n)]
    return LinearProgram(c=c, G=G, h=h, E=E, e=e, nonneg=nonneg), None


def _box_around(rng: random.Random, center, slack: int):
    return [(v - Q(rng.randint(0, slack)), v + Q(rng.randint(0, slack)))
            for v in center]


def random_objective(rng: random.Random, n: int, anchor=None,
                     allow_domain: bool = True) -> PiecewiseAffine:
    """1-3 integer affine pieces; occasionally a box domain holding the
    anchor, so feasibility never collides with properness."""
    pieces = rng.randint(1, 3)
    slopes = [[_rint(rng) for _ in range(n)] for _ in range(pieces)]
    offsets = [_rint(rng) for _ in range(pieces)]
    domain = None
    if allow_domain and anchor is not None and rng.random() < 1 / 4:
        domain = sets.Box(_box_around(rng, anchor, 3)).to_polyhedron()
    return PiecewiseAffine(dim=n, slopes=slopes, offsets=offsets,
                           domain=domain)


def _random_frame(rng: random.Random):
    """Shared skeleton: integer anchor, ground box around it, integer map,
    and the anchor's exact image."""
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    anchor = [Q(rng.randint(-2, 2)) for _ in range(n)]
    ground_pairs = _box_around(rng, anchor, 2)
    matrix = [[_rint(rng) for _ in range(n)] for _ in range(m)]
    image = mat_vec(matrix, anchor)
    return n, m, anchor, ground_pairs, matrix, image


def random_feasible_instance(rng: random.Random,
                             allow_domain: bool = True) -> FarkasInstance:
    """Guaranteed-feasible polyhedral instance: ground box and target box
    both grow around an integer anchor and its image, so the anchor is
    always a feasible point inside dom f."""
    n, m, anchor, ground_pairs, matrix, image = _random_frame(rng)
    target = sets.Box(_box_around(rng, image, 3))
    return FarkasInstance(
        ground=sets.Box(ground_pairs).to_polyhedron(),
        matrix=matrix,
        target=target,
        objective=random_objective(rng, n, anchor, allow_domain))


def _row_range_over_box(row, pairs):
    """Exact interval arithmetic: the range of row . x over the box."""
    lo = ZERO
    hi = ZERO
    for a, (left, right) in zip(row, pairs):
        if a >= 0:
            lo += a * left
            hi += a * right
        else:
            lo += a * right
            hi += a * left
    return lo, hi


def random_infeasible_instance(rng: random.Random) -> FarkasInstance:
    """Guaranteed-infeasible variant: one target interval is pushed
    strictly past the exact range of that output coordinate over the
    ground box, so no ground point can reach it."""
    n, m, anchor, ground_pairs, matrix, image = _random_frame(rng)
    target_pairs = _box_around(rng, image, 3)
    i = rng.randrange(m)
    _, hi = _row_range_over_box(matrix[i], ground_pairs)
    lo = hi + ONE + Q(rng.randint(0, 2))
    target_pairs[i] = (lo, lo + Q(rng.randint(0, 2)))
    return FarkasInstance(
        ground=sets.Box(ground_pairs).to_polyhedron(),
        matrix=matrix,
        target=sets.Box(target_pairs),
        objective=random_objective(rng, n, anchor))


def random_grid(rng: random.Random) -> GridSystem:
    """A finite two-sided inequality grid (n <= 4, at most 6 rows) over a
    free or box ground set."""
    n = rng.randint(1, 4)
    size = rng.randint(1, 6)
    rows = []
    for _ in range(size):
        functional = [_rint(rng) for _ in range(n)]
        lower = _rint(rng, -4, 2)
        upper = lower + Q(rng.randint(0, 4))
        rows.append((functional, lower, upper))
    if rng.random() < 1 / 2:
        ground = sets.whole_space_polyhedron(n)
    else:
        center = [Q(rng.randint(-2, 2)) for _ in range(n)]
        ground = sets.Box(_box_around(rng, center, 3)).to_polyhedron()
    return GridSystem(n=n, rows=rows, ground=ground,
                      objective=random_objective(rng, n, allow_domain=False))


def random_concave_instance(rng: random.Random) -> FarkasInstance:
    """Feasible instance with a full-domain objective, as the sublevel
    check requires."""
    return random_feasible_instance(rng, allow_domain=False)


def sample_feasible_points(inst: FarkasInstance, rng: random.Random,
                           count: int = 2):
    """Distinct feasible points inside dom f: optimal vertices of random
    linear objectives over the feasible set, plus midpoints of pairs."""
    feas = inst.feasible_polyhedron().intersect(inst.objective.domain)
    points = []
    seen = set()

    def push(p):
        key = tuple(p)
        if key not in seen:
            seen.add(key)
            points.append(list(p))

    half = Q(1, 2)
    tries = 0
    while len(points) < count and tries < 6 * count + 10:
        tries += 1
        probe = PiecewiseAffine(
            dim=inst.n, slopes=[[_rint(rng) for _ in range(inst.n)]],
            offsets=[ZERO])
        best = calculus.minimize_over(probe, feas)
        if best.point is not None:
            push(best.point)
        if len(points) >= 2:
            a, b = rng.sample(points, 2)
            push([half * (x + y) for x, y in zip(a, b)])
    return points[:count]
