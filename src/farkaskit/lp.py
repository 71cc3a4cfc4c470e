"""Exact two-phase simplex over rationals.

Solves min c.x subject to G x <= h, E x = e (variables free unless flagged
nonnegative) and extracts, from the final tableau, either an optimal point
with dual multipliers, a feasible point with an unbounded improving ray, or
a Farkas certificate of infeasibility. Bland's rule in both phases, so
termination is guaranteed and the outcome is deterministic.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): each row, the two
reduced-cost rows included, is a dense list of plain integer numerators, its
right-hand side last, over one positive integer denominator, kept in lowest
terms by one gcd per update. Signs and the ratio test (by
cross-multiplication) are read off the integers, so every pivot decision is
the exact comparison a rational tableau would make. A pivot leaves the rows
with a zero in the entering column untouched, and changes each other row's
numerators only at the nonzero columns of the pivot row before rescaling,
which keeps tall, sparse programs (one row per grid node) cheap. Rationals
appear only at the boundary: the input data and the outcome.

Dual sign convention, used everywhere downstream:

    stationarity   c + G^T mu + E^T nu = 0   (>= 0 at nonneg variables)
    value          c.x* = -(h.mu + e.nu),  mu >= 0

and an infeasibility certificate satisfies G^T mu + E^T nu = 0 (>= 0 at
nonneg variables), mu >= 0, h.mu + e.nu < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import InvariantViolation
from .rational import NEG_INF, ONE, ZERO, Q, as_q_matrix, as_q_vector

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class LinearProgram:
    """min c.x  s.t.  G x <= h,  E x = e.

    nonneg[j] marks x_j >= 0; such variables are not split into two parts
    during standardization, which roughly halves tableau width for encodings
    whose witness variables are nonnegative by construction.
    """

    c: list
    G: list
    h: list
    E: list
    e: list
    nonneg: list | None = None

    def __post_init__(self):
        self.c = as_q_vector(self.c)
        self.G = as_q_matrix(self.G)
        self.h = as_q_vector(self.h)
        self.E = as_q_matrix(self.E)
        self.e = as_q_vector(self.e)
        n = len(self.c)
        if len(self.G) != len(self.h):
            raise ValueError("inequality rows and right-hand sides differ in count")
        if len(self.E) != len(self.e):
            raise ValueError("equality rows and right-hand sides differ in count")
        for row in self.G:
            if len(row) != n:
                raise ValueError("inequality row width != number of variables")
        for row in self.E:
            if len(row) != n:
                raise ValueError("equality row width != number of variables")
        if self.nonneg is None:
            self.nonneg = [False] * n
        else:
            self.nonneg = [bool(f) for f in self.nonneg]
            if len(self.nonneg) != n:
                raise ValueError("nonneg flag count != number of variables")

    @property
    def n(self) -> int:
        return len(self.c)


@dataclass
class LPOutcome:
    """Solver result. Which fields are set depends on status:

    optimal:    x, value, dual_ineq, dual_eq
    unbounded:  x (a feasible point), ray (improving direction), value = -oo
    infeasible: farkas_ineq, farkas_eq
    """

    status: str
    x: list | None = None
    value: object = None
    dual_ineq: list | None = None
    dual_eq: list | None = None
    ray: list | None = None
    farkas_ineq: list | None = None
    farkas_eq: list | None = None


def _dot(a, b):
    s = ZERO
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


def _scaled(entries, width):
    """Rationals given as (column, value) pairs, as a row of `width` integer
    numerators (zero elsewhere) over the lcm of their denominators, so that
    numerators and denominator share no factor."""
    # lcm of a list, not of a generator: a tuple built from a generator is
    # resized, and the interpreter then keeps such tuples on its free lists
    # (about 1 MB more peak memory over some 10^5 solves)
    d = lcm(*[v.denominator for _, v in entries])
    row = [0] * width
    for j, v in entries:
        row[j] = int(v.numerator * (d // v.denominator))
    return row, int(d)


def solve(lp: LinearProgram) -> LPOutcome:
    n = lp.n
    mG = len(lp.G)
    mE = len(lp.E)
    m = mG + mE

    # Real-column layout: variable columns (split in +/- parts unless the
    # variable is flagged nonnegative), then one slack per inequality row.
    col_sign = []  # (variable index, +1/-1) per variable column
    var_cols = []  # per variable: (plus column, minus column or None)
    for j in range(n):
        p = len(col_sign)
        col_sign.append((j, 1))
        if lp.nonneg[j]:
            var_cols.append((p, None))
        else:
            col_sign.append((j, -1))
            var_cols.append((p, p + 1))
    slack0 = len(col_sign)
    nreal = slack0 + mG

    # Artificial columns on every equality row and every flipped inequality
    # row (whose slack coefficient is -1 and cannot start basic). They also
    # stay in the tableau through phase 2 as probe columns: the maintained
    # reduced cost of the artificial of row k is exactly -y_k, which is how
    # equality duals are read off without forming a basis inverse.
    sigma = [-1 if (lp.h[i] if i < mG else lp.e[i - mG]) < ZERO else 1
             for i in range(m)]
    art_col = [None] * m
    nart = 0
    for i in range(m):
        if i >= mG or sigma[i] < 0:
            art_col[i] = nreal + nart
            nart += 1
    ncols = nreal + nart
    RHS = ncols

    # Standardized rows (rhs made nonnegative by row flips, sigma tracks the
    # flip), inequality rows first in original order, then equality rows.
    # Row i holds the values T[i][j] / D[i]: integer numerators with the
    # right-hand side as entry RHS, over one positive denominator sharing no
    # factor with them.
    T = []
    D = []
    for i in range(m):
        orig = lp.G[i] if i < mG else lp.E[i - mG]
        entries = [(cidx, orig[j] if s > 0 else -orig[j])
                   for cidx, (j, s) in enumerate(col_sign) if orig[j]]
        if i < mG:
            entries.append((slack0 + i, ONE))
        b = lp.h[i] if i < mG else lp.e[i - mG]
        if b:
            entries.append((RHS, b))
        Ti, d = _scaled(entries, ncols + 1)
        if sigma[i] < 0:
            Ti = [-v for v in Ti]
        if art_col[i] is not None:
            Ti[art_col[i]] = d
        T.append(Ti)
        D.append(d)

    basis = [art_col[i] if art_col[i] is not None else slack0 + i for i in range(m)]

    # Reduced-cost rows for both phases, kept as rows Z1 and Z2 of the
    # tableau after the m constraint rows and maintained through every pivot.
    # Their entry RHS is minus the current objective value, so it is updated
    # like any other column.
    #
    # Phase 1 minimizes the sum of the artificials: minus the sum of their
    # rows, zero at the artificial columns.
    art_rows = [i for i in range(m) if art_col[i] is not None]
    d1 = lcm(*[D[i] for i in art_rows])
    z1 = [0] * (ncols + 1)
    for i in art_rows:
        f = d1 // D[i]
        for j, v in enumerate(T[i]):
            if v:
                z1[j] -= f * v
    for i in art_rows:
        z1[art_col[i]] += d1
    g = gcd(d1, *z1)
    T.append([v // g for v in z1])
    D.append(d1 // g)
    z2, d2 = _scaled([(cidx, lp.c[j] if s > 0 else -lp.c[j])
                      for cidx, (j, s) in enumerate(col_sign) if lp.c[j]],
                     ncols + 1)
    T.append(z2)
    D.append(d2)
    Z1, Z2 = m, m + 1

    def eliminate(N, d, f, p, nz):
        # N/d minus f/d times the pivot row nz/p: (N*p - f*nz) / (d*p),
        # with the common factor of f and p taken out first and the result
        # reduced to lowest terms
        g = gcd(f, p)
        if g > 1:
            f //= g
            p //= g
        if p > 1:
            N = [v * p for v in N]
            d *= p
        for j, b in nz:
            N[j] -= f * b
        if d > 1:
            g = gcd(d, *N)
            if g > 1:
                N = [v // g for v in N]
                d //= g
        return N, d

    def pivot(r, q):
        rowr = T[r]
        p = rowr[q]
        if p < 0:
            rowr = [-v for v in rowr]
            p = -p
        g = gcd(*rowr)
        if g > 1:
            rowr = [v // g for v in rowr]
            p //= g
        T[r] = rowr
        D[r] = p
        # Rows with a zero in column q are left unchanged by the elimination,
        # and each other row changes only at the nonzero columns of the
        # pivot row before it is brought back to lowest terms.
        nz = [(j, b) for j, b in enumerate(rowr) if b]
        for i in range(m + 2):
            if i == r:
                continue
            f = T[i][q]
            if f:
                T[i], D[i] = eliminate(T[i], D[i], f, p, nz)
        basis[r] = q

    def ratio_row(q):
        # Bland leaving rule: min ratio rhs_i / t_i, compared by
        # cross-multiplication, ties broken by smallest basic column.
        best_row = None
        for i in range(m):
            Ti = T[i]
            t = Ti[q]
            if t > 0:
                if best_row is None:
                    best_row, bn, bt = i, Ti[RHS], t
                    continue
                lhs = Ti[RHS] * bt
                rhs = bn * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best_row]):
                    best_row, bn, bt = i, Ti[RHS], t
        return best_row

    # Phase 1: min sum of artificials, every column eligible.
    while True:
        z1 = T[Z1]
        q = None
        for j in range(ncols):
            if z1[j] < 0:
                q = j
                break
        if q is None:
            break
        r = ratio_row(q)
        if r is None:
            raise InvariantViolation("phase-1 objective cannot be unbounded")
        pivot(r, q)

    z1, d1 = T[Z1], D[Z1]
    if z1[RHS] < 0:
        # The phase-1 duals, read off the probe columns, are a Farkas
        # certificate for the original system.
        mu = [Q(z1[slack0 + i], d1) for i in range(mG)]
        nu = [Q(sigma[mG + k] * (z1[art_col[mG + k]] - d1), d1) for k in range(mE)]
        return LPOutcome(INFEASIBLE, farkas_ineq=mu, farkas_eq=nu)

    # Drive basic artificials (all at value 0 now) out of the basis. A row
    # with no real-column entry left is inert: no later pivot can touch it.
    for i in range(m):
        if basis[i] >= nreal:
            Ti = T[i]
            for j in range(nreal):
                if Ti[j]:
                    pivot(i, j)
                    break

    def current_x():
        val = {basis[i]: Q(T[i][RHS], D[i]) for i in range(m)}
        x = []
        for p, mcol in var_cols:
            v = val.get(p, ZERO)
            if mcol is not None:
                v = v - val.get(mcol, ZERO)
            x.append(v)
        return x

    # Phase 2: artificial columns are ineligible to enter.
    while True:
        z2 = T[Z2]
        q = None
        for j in range(nreal):
            if z2[j] < 0:
                q = j
                break
        if q is None:
            d2 = D[Z2]
            mu = [Q(z2[slack0 + i], d2) for i in range(mG)]
            nu = [Q(sigma[mG + k] * z2[art_col[mG + k]], d2) for k in range(mE)]
            return LPOutcome(OPTIMAL, x=current_x(), value=Q(-z2[RHS], d2),
                             dual_ineq=mu, dual_eq=nu)
        r = ratio_row(q)
        if r is None:
            dz = {q: ONE}
            for i in range(m):
                t = T[i][q]
                if t:
                    dz[basis[i]] = Q(-t, D[i])
            ray = []
            for p, mcol in var_cols:
                v = dz.get(p, ZERO)
                if mcol is not None:
                    v = v - dz.get(mcol, ZERO)
                ray.append(v)
            return LPOutcome(UNBOUNDED, x=current_x(), value=NEG_INF, ray=ray)
        pivot(r, q)


def _point_feasible(lp, x):
    if x is None or len(x) != lp.n:
        return False
    for j in range(lp.n):
        if lp.nonneg[j] and x[j] < ZERO:
            return False
    for row, b in zip(lp.G, lp.h):
        if _dot(row, x) > b:
            return False
    for row, b in zip(lp.E, lp.e):
        if _dot(row, x) != b:
            return False
    return True


def _stationarity(lp, mu, nu, c):
    # c_j + (G^T mu + E^T nu)_j, must vanish at free variables and be
    # nonnegative at nonneg-flagged ones
    for j in range(lp.n):
        s = c[j]
        for row, m_i in zip(lp.G, mu):
            if m_i and row[j]:
                s += row[j] * m_i
        for row, n_k in zip(lp.E, nu):
            if n_k and row[j]:
                s += row[j] * n_k
        if lp.nonneg[j]:
            if s < ZERO:
                return False
        elif s != ZERO:
            return False
    return True


def verify_certificate(lp: LinearProgram, out: LPOutcome) -> bool:
    """Check an LPOutcome by direct substitution into the original data.

    Shares no code with the solver's pivot path, so a passing check is an
    actual proof: optimality via matching primal/dual values, unboundedness
    via a feasible point plus an improving recession direction, infeasibility
    via a Farkas vector.
    """
    if out.status == OPTIMAL:
        if out.x is None or out.dual_ineq is None or out.dual_eq is None:
            return False
        if len(out.dual_ineq) != len(lp.G) or len(out.dual_eq) != len(lp.E):
            return False
        if not _point_feasible(lp, out.x):
            return False
        if _dot(lp.c, out.x) != out.value:
            return False
        if any(v < ZERO for v in out.dual_ineq):
            return False
        if not _stationarity(lp, out.dual_ineq, out.dual_eq, lp.c):
            return False
        return out.value == -(_dot(lp.h, out.dual_ineq) + _dot(lp.e, out.dual_eq))
    if out.status == UNBOUNDED:
        d = out.ray
        if d is None or len(d) != lp.n or not _point_feasible(lp, out.x):
            return False
        if any(_dot(row, d) > ZERO for row in lp.G):
            return False
        if any(_dot(row, d) != ZERO for row in lp.E):
            return False
        if any(lp.nonneg[j] and d[j] < ZERO for j in range(lp.n)):
            return False
        return _dot(lp.c, d) < ZERO
    if out.status == INFEASIBLE:
        mu, nu = out.farkas_ineq, out.farkas_eq
        if mu is None or nu is None:
            return False
        if len(mu) != len(lp.G) or len(nu) != len(lp.E):
            return False
        if any(v < ZERO for v in mu):
            return False
        zero = [ZERO] * lp.n
        if not _stationarity(lp, mu, nu, zero):
            return False
        return _dot(lp.h, mu) + _dot(lp.e, nu) < ZERO
    return False
