"""Exact two-phase simplex over rationals.

Solves min c.x subject to G x <= h, E x = e (variables free unless flagged
nonnegative) and extracts, from the final tableau, either an optimal point
with dual multipliers, a feasible point with an unbounded improving ray, or
a Farkas certificate of infeasibility. Bland's rule in both phases, so
termination is guaranteed and the outcome is deterministic.

Phase 1 reads only the constraints (G, h, E, e and the sign flags): it finds
a feasible basis, or a Farkas certificate, without looking at c. Phase 2 then
forms the reduced-cost row of c from that basis, c - sum_i c_basis[i] T[i],
and pivots on it. Reduced costs depend on the basis only, so this is the row
that carrying c through phase 1 would give, and each pivot updates the
constraint rows plus one objective row. One reduction (`_Tableau._reduced`)
forms every row that enters the tableau: the phase-1 row (cost 1 at each
artificial column), each phase-2 cost row and each appended row.

`System(program)` holds a program's rows (not its c) on one tableau, built
at the first question and kept for every later one. `outcome(c)` runs
phase 1 once and, per cost asked, a phase 2 on its own copy of the kept
tableau, so each answer equals a fresh `solve` (which is `outcome` of the
program's own c) bit for bit.

`maxima` wants only the value max c.x, all that a support or conjugate
value needs. It poses the minimum of -c, and it first tries to decide each
posed cost from what the phase 2s of earlier costs on the same rows
proved. An unbounded phase 2 ends with an improving ray r of the rows'
recession cone, kept in the program's variables as integers: the rows are
feasible, so any later posed cost c with c.r < 0 is unbounded below too.
An optimal phase 2 ends at a basis whose final tableau is kept: a later c
whose reduced-cost row in that basis (`_Tableau.cost_row`) has no
negative entry at a real column meets the kernel's own optimality test
there (Dantzig 1963, postoptimality), so its minimum is that basic
solution's value. Only a cost that no kept ray or basis decides runs a
phase 2, and its ray or basis is kept in turn. The minimum of c.x over the
rows is one number, whatever pivots reach it, so each maximum equals minus
a fresh `solve`'s value of -c bit for bit (`maxima` negates each cost's
integers, and reads each value off the integers of the final objective
row with the other sign); the points and multipliers do depend on the
pivot path, and `outcome` always runs a phase 2. `append` changes the
rows, which may cut a kept ray and which no kept basis holds, so it drops
them all. Every question puts a cost over one denominator once
(`System._cost`, by `over_lcm`): those integers tell costs apart, are
tested against the kept rays and bases, and are the cost that a phase 2
poses.

`unique_optima` reads a cost's optimal point and value only where a basis
proves the optimum attained at one point (Mangasarian 1979): every
nonbasic real column has a positive reduced cost. A feasible point's cost
exceeds the optimum by the sum over nonbasic columns of reduced cost times
value, so only the basic solution costs that little. The one exception is
the twin of a basic split variable's column: the two parts of
x_j = x_j+ - x_j- have opposite columns, so the twin's reduced cost is 0,
and raising it raises the basic part by as much, which moves no variable.
Artificial columns are fixed at zero and not read. Every solve of the
program with that cost, a fresh `solve` with its own phase 1 included,
ends at an optimal point, and there is only one, so the answer equals the
fresh point and value bit for bit (its multipliers need not, and are not
given). The basis need not be c's own: `unique_optima` shares the kept
rays and bases of `maxima`. A kept ray that c descends leaves no optimum,
and a kept basis whose reduced costs for c pass the test holds the one
optimal point. Any other cost runs a phase 2, whose ray or basis is kept.
The test is sufficient, not necessary: a degenerate vertex may fail it
although its optimum is unique, so a kept basis that fails it does not
refuse c, whose phase 2 may end at one that passes; a final tableau that
fails it does, and the caller then solves afresh.

`append` adds an inequality row a.x <= b, as an exchange (cutting-plane)
method does: the row gets a slack column of its own, after the last slack
and before the artificials, and enters reduced in the current basis, its
slack basic, so its value may be negative. `feasible` decides the program's
rows under a right-hand side b of its own, as membership sweeps pose them,
on a tableau of its own: phase 1 runs at b until some b is feasible, and
every later b is set on the basis B the last one left. The starting basis
(the artificial of a row, else its slack) is the identity, and every pivot
is a row operation on the whole tableau, so the current columns of those
starting basic columns hold B^-1, and b becomes B^-1 (sigma b) with the
first row flips sigma kept: the artificials stay nonbasic at zero, so the
flipped rows state the original ones. An inert row (a basic artificial, no
real entry) with a nonzero new value is a row no pivot can meet, so b is
infeasible. Both `append` and `feasible` then restore the signs by one
zero-cost dual simplex on the same tableau and the same `pivot`
(`_Tableau.dual_simplex`), the textbook step for an added row (Lemke 1954):
the least basic column with a negative value leaves, and, every reduced
cost being 0, every dual ratio ties, so the least real column with a
negative entry in that row enters (artificials never enter). This is
Bland's rule applied to the dual program (Bland 1977), which cannot cycle.
A row left negative with no negative real entry combines the rows into
0 <= (negative), and its entries at the starting basic columns, with the
flips sigma applied, are that combination's weights: the Farkas pair, read
by the same multiplier reader as the duals (`_Tableau._duals`).

`outcomes_at(c, rhs)` poses one cost at a list of right-hand sides. A cost
row does not read the right-hand side, so a basis optimal for c at one b
stays dual feasible at every other, and it is optimal at b wherever its
basic point B^-1 (sigma b) is nonnegative, with every basic artificial at
zero (`_Tableau.optimum_at`, through the same reader of B^-1 as
`feasible_at`); its value there is the one number min c.x, and the duals
its cost row holds do not depend on b. At the program's own right-hand side
the answer is `outcome(c)`, and its final tableau is the seed. Any other b
is tried at the bases kept so far, with no pivot, and otherwise on a copy
of the seed, made feasible at b by the zero-cost dual simplex of
`feasible_at` and then run through a phase 2, whose final basis is kept. An
answer away from the program's own right-hand side is taken only where its
basis passes `unique_point`, so its point and value equal a fresh `solve`
at b bit for bit; every other b answers None, and all of them when the seed
itself fails the test (its basis then proves no point unique at any b where
it needs no pivot). The question's bases sit at other right-hand sides than
the kept tableau's, so they stay with the call and never join the bases
that `maxima` and `unique_optima` share and `append` drops.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): each row, the
objective row included, is a dense list of plain integer numerators, its
right-hand side last, over one positive integer denominator, kept in lowest
terms by one gcd per update (`_lowest`). Signs and the ratio test (by
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
from math import gcd

from .errors import InvariantViolation
from .rational import (INF, NEG_INF, ONE, ZERO, Q, as_q, as_q_matrix,
                       as_q_vector, dot, over_lcm)

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
        n = len(self.c)
        self.G = as_q_matrix(self.G, n,
                             "inequality row width != number of variables")
        self.h = as_q_vector(
            self.h, len(self.G),
            "inequality rows and right-hand sides differ in count")
        self.E = as_q_matrix(self.E, n,
                             "equality row width != number of variables")
        self.e = as_q_vector(
            self.e, len(self.E),
            "equality rows and right-hand sides differ in count")
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


def _eliminate(N, d, f, p, nz):
    """The row N/d minus f/d times the pivot row nz/p, where nz lists the
    pivot row's nonzero (column, numerator) pairs: (N*p - f*nz) / (d*p), with
    the common factor of f and p taken out first and the result reduced to
    lowest terms. Updates N in place when p comes down to 1."""
    g = gcd(f, p)
    if g > 1:
        f //= g
        p //= g
    if p > 1:
        N = [v * p for v in N]
        d *= p
    for j, b in nz:
        N[j] -= f * b
    return _lowest(N, d)


def _lowest(N, d):
    """The row N/d in lowest terms: N and the positive denominator d divided
    by their common factor."""
    if d > 1:
        g = gcd(d, *N)
        if g > 1:
            return [v // g for v in N], d // g
    return N, d


class _Tableau:
    """The standardized constraint rows of a program, their basis, and one
    objective row after them (row m): the phase-1 row while phase 1 runs,
    then the reduced costs of one cost vector in phase 2. Row i holds the
    values T[i][j] / D[i]: integer numerators with the right-hand side as
    entry RHS, over one positive denominator sharing no factor with them.
    A constraint row's numerator at its basic column is D[i] itself."""

    def __init__(self, lp: LinearProgram, rhs=None):
        # rhs: the right-hand sides to standardize, h then e; lp's own
        # when None
        self.mG = mG = len(lp.G)
        self.mE = mE = len(lp.E)
        self.m = m = mG + mE

        # Real-column layout: variable columns (split in +/- parts unless the
        # variable is flagged nonnegative), then one slack per inequality row.
        self.var_cols = var_cols = []  # per variable: (plus, minus or None)
        p = 0
        for flag in lp.nonneg:
            var_cols.append((p, None if flag else p + 1))
            p += 1 if flag else 2
        self.slack0 = slack0 = p
        self.nreal = nreal = slack0 + mG

        # Artificial columns on every equality row and every flipped
        # inequality row (whose slack coefficient is -1 and cannot start
        # basic). They also stay in the tableau through phase 2 as probe
        # columns: the reduced cost of the artificial of row k is exactly
        # -y_k, which is how equality duals are read off without forming a
        # basis inverse.
        if rhs is None:
            rhs = lp.h + lp.e
        self.sigma = sigma = [-1 if b < ZERO else 1 for b in rhs]
        self.art_col = art_col = [None] * m
        nart = 0
        for i in range(m):
            if i >= mG or sigma[i] < 0:
                art_col[i] = nreal + nart
                nart += 1
        self.ncols = ncols = nreal + nart
        self.RHS = ncols

        # Standardized rows (rhs made nonnegative by row flips, sigma tracks
        # the flip), inequality rows first in original order, then equality
        # rows.
        self.T = T = []
        self.D = D = []
        for i, row in enumerate(lp.G + lp.E):
            Ti, d = self._integer_row(row, rhs[i])
            if i < mG:
                Ti[slack0 + i] = d
            if sigma[i] < 0:
                Ti = [-v for v in Ti]
            if art_col[i] is not None:
                Ti[art_col[i]] = d
            T.append(Ti)
            D.append(d)
        self.basis = [art_col[i] if art_col[i] is not None else slack0 + i
                      for i in range(m)]

    def _integer_row(self, values, b):
        """Values per variable and right-hand side b as a row of integer
        numerators over the lcm d of their denominators, sharing no factor
        with d (`_placed`)."""
        nums, d = over_lcm([*values, b])
        row = self._placed(nums)
        row[self.RHS] = nums[-1]
        return row, d

    def _placed(self, nums):
        """A row of zeros with one integer per variable from `nums` at its
        plus column, negated at its minus column."""
        row = [0] * (self.ncols + 1)
        for (p, mcol), a in zip(self.var_cols, nums):
            if a:
                row[p] = a
                if mcol is not None:
                    row[mcol] = -a
        return row

    def copy(self) -> _Tableau:
        """The same tableau with rows of its own: `pivot` changes rows in
        place, so each phase 2 runs on a copy of a kept tableau."""
        # copy.copy's generic protocol costs more than this on small tableaux
        twin = object.__new__(_Tableau)
        twin.__dict__.update(self.__dict__)
        twin.T = [row[:] for row in self.T]
        twin.D = self.D[:]
        twin.basis = self.basis[:]
        return twin

    def pivot(self, r, q):
        # pivot-counting profile hooks find this method by its name
        T, D = self.T, self.D
        rowr = T[r]
        p = rowr[q]
        if p < 0:
            rowr = [-v for v in rowr]
            p = -p
        # the numerators share no factor: their gcd divides the basic
        # column's entry D[r], and D[r] shares none with them
        T[r] = rowr
        D[r] = p
        # Rows with a zero in column q are left unchanged by the elimination,
        # and each other row changes only at the nonzero columns of the
        # pivot row before it is brought back to lowest terms.
        nz = [(j, b) for j, b in enumerate(rowr) if b]
        for i in range(len(T)):
            if i == r:
                continue
            f = T[i][q]
            if f:
                T[i], D[i] = _eliminate(T[i], D[i], f, p, nz)
        self.basis[r] = q

    def ratio_row(self, q):
        # Bland leaving rule: min ratio rhs_i / t_i, compared by
        # cross-multiplication, ties broken by smallest basic column.
        T, basis, RHS = self.T, self.basis, self.RHS
        best_row = None
        for i in range(self.m):
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

    def _run(self, ncand):
        # Bland entering rule on the objective row: the first of the first
        # `ncand` columns with a negative reduced cost, until none is left;
        # returns the entering column with no leaving row, if one occurs.
        z = self.T[self.m]
        while True:
            q = None
            for j in range(ncand):
                if z[j] < 0:
                    q = j
                    break
            if q is None:
                return None
            r = self.ratio_row(q)
            if r is None:
                return q
            self.pivot(r, q)
            z = self.T[self.m]

    def phase1(self):
        """Drive the artificials to zero and out of the basis, leaving no
        objective row. Returns the final phase-1 row (z, d) when the system
        is infeasible, else None."""
        T, D, m = self.T, self.D, self.m
        # Minimize the sum of the artificials: cost 1 at each artificial
        # column (the columns after the real ones), reduced in the starting
        # basis. Entry RHS of an objective row is minus the current
        # objective value, updated like any other column.
        nart = self.ncols - self.nreal
        z1, d1 = self._reduced([0] * self.nreal + [1] * nart + [0], 1)
        T.append(z1)
        D.append(d1)
        if self._run(self.ncols) is not None:
            raise InvariantViolation("phase-1 objective cannot be unbounded")
        z1, d1 = T.pop(), D.pop()
        if z1[self.RHS] < 0:
            return z1, d1
        # Drive basic artificials (all at value 0 now) out of the basis. A
        # row with no real-column entry left is inert: no later pivot can
        # touch it.
        basis = self.basis
        for i in range(m):
            if basis[i] >= self.nreal:
                Ti = T[i]
                for j in range(self.nreal):
                    if Ti[j]:
                        self.pivot(i, j)
                        break
        return None

    def _reduced(self, row, d):
        """row/d minus sum_i row[basis[i]] T[i]/D[i], in lowest terms: the
        row reduced in the current basis, as carrying it through every pivot
        so far would give it (such a row is unique). Forms the phase-1 row,
        each phase-2 cost row and each appended row; may update row in
        place."""
        T, D = self.T, self.D
        for i, q in enumerate(self.basis):
            f = row[q]
            if f:
                row, d = _eliminate(row, d, f, D[i],
                                    [(j, v) for j, v in enumerate(T[i]) if v])
        return row, d

    def _rhs_at(self, b, rows):
        """(L, values): L the lcm of the denominators of the right-hand side
        b (h entries, then e entries), and per row of `rows` (rows of this
        tableau: constraint rows, or an objective row in its basis) the
        numerator, over the row's own denominator times L, of its
        right-hand side at b. A row's entries at the columns basic at
        set-up (its artificial, else its slack) hold its row of B^-1, the
        starting basis being the identity, so a constraint row's value is
        its entry of B^-1 (sigma b) and an objective row's is minus
        c_B B^-1 (sigma b), slacks and artificials costing 0 in it."""
        nums, L = over_lcm(b)
        starts = [self.slack0 + k if a is None else a
                  for k, a in enumerate(self.art_col)]
        rhs = [(sigma * v, k)
               for sigma, v, k in zip(self.sigma, nums, starts) if v]
        return L, [sum(w * row[k] for w, k in rhs) for row in rows]

    def feasible_at(self, b):
        """Whether the constraint rows with right-hand side b (h entries,
        then e entries) have a solution, decided from the current basis B
        (see the module docstring): the right-hand side becomes
        B^-1 (sigma b) (`_rhs_at`), each row over its own denominator again
        in lowest terms, and a zero-cost dual simplex restores its signs. B
        is left feasible for b when the answer is True."""
        T, D, basis, RHS, m = self.T, self.D, self.basis, self.RHS, self.m
        L, values = self._rhs_at(b, T)
        for i, value in enumerate(values):
            Ti = T[i]
            if L > 1:
                Ti = [v * L for v in Ti]
            Ti[RHS] = value
            T[i], D[i] = _lowest(Ti, D[i] * L)
        nreal = self.nreal
        # an inert row (a basic artificial, no real entry) holds a
        # right-hand side that no pivot can touch
        if any(basis[i] >= nreal and T[i][RHS] for i in range(m)):
            return False
        return self.dual_simplex() is None

    def optimum_at(self, b, z, d):
        """The outcome of min c.x at right-hand side b read off this basis
        with no pivot, where z/d is c's reduced-cost row in it and `optimal`:
        the basic point B^-1 (sigma b) (`_rhs_at`) when it is nonnegative
        with every basic artificial at zero, its value, and the duals that z
        holds, which do not depend on b. None when the basis is not
        feasible at b."""
        D, basis, m, nreal = self.D, self.basis, self.m, self.nreal
        L, values = self._rhs_at(b, [*self.T, z])
        if any(v < 0 or (v and basis[i] >= nreal)
               for i, v in enumerate(values[:m])):
            return None
        mu, nu = self._duals(z, d, 0)
        x = self._per_variable({q: Q(values[i], D[i] * L)
                                for i, q in enumerate(basis)})
        return LPOutcome(OPTIMAL, x=x, value=Q(-values[m], d * L),
                         dual_ineq=mu, dual_eq=nu)

    def dual_simplex(self):
        """Restore nonnegative values by the zero-cost dual simplex of the
        module docstring. Returns None when every value is nonnegative,
        else the row whose value is negative with no negative real entry:
        the combination of the system's rows it holds is infeasible."""
        T, basis, RHS, m, nreal = self.T, self.basis, self.RHS, self.m, \
            self.nreal
        while True:
            # Bland's rule on the dual, where every ratio ties at cost 0
            r = None
            for i in range(m):
                if T[i][RHS] < 0 and (r is None or basis[i] < basis[r]):
                    r = i
            if r is None:
                return None
            Tr = T[r]
            q = next((j for j in range(nreal) if Tr[j] < 0), None)
            if q is None:
                return r
            self.pivot(r, q)

    def append_row(self, a, b):
        """Add the inequality row a . x <= b with a slack column of its own,
        placed after the last slack (the artificials move one column up),
        as the last inequality row. The row enters reduced in the current
        basis, its slack basic, so its value may be negative."""
        at, mG = self.nreal, self.mG
        for row in self.T:
            row.insert(at, 0)
        self.basis = [c + 1 if c >= at else c for c in self.basis]
        self.nreal += 1
        self.ncols += 1
        self.RHS += 1
        row, d = self._integer_row(a, b)
        row[at] = d
        row, d = self._reduced(row, d)
        T, D, basis = self.T, self.D, self.basis
        T.insert(mG, row)
        D.insert(mG, d)
        basis.insert(mG, at)
        # new lists: a copy of the tableau shares these two
        art = [None if c is None else c + 1 for c in self.art_col]
        self.art_col = art[:mG] + [None] + art[mG:]
        self.sigma = self.sigma[:mG] + [1] + self.sigma[mG:]
        self.mG += 1
        self.m += 1

    def cost_row(self, nums, d):
        """The reduced costs c - sum_i c_basis[i] T[i]/D[i] (slacks and
        artificials cost 0) of the cost c = nums/d, as `over_lcm` gives
        it, as (z, d), which depend on the basis only."""
        return self._reduced(self._placed(nums), d)

    def optimal(self, z):
        """Whether the basis is optimal for the cost row z: no real column
        has a negative reduced cost (artificials never enter)."""
        return min(z[:self.nreal], default=0) >= 0

    def phase2(self, nums, d):
        """Minimize c.x, c = nums/d as `over_lcm` gives it, from the
        feasible basis the tableau holds (the one phase 1 or the last
        append left); artificial columns are ineligible to enter. Returns
        the final reduced-cost row z, its denominator zd and q: None when
        the minimum -z[RHS] / zd is attained, else the entering column
        with no leaving row (c.x unbounded below)."""
        T, D = self.T, self.D
        z, d = self.cost_row(nums, d)
        T.append(z)
        D.append(d)
        q = self._run(self.nreal)
        return T.pop(), D.pop(), q

    def _duals(self, z, d, art):
        # (mu, nu) read off row z/d at the starting basic columns, where
        # each artificial column costs art/d: an objective row's duals, or
        # (art 0) the Farkas pair of a constraint row left negative. A
        # flipped row's slack column is sigma times its artificial one in
        # every row.
        mG, sigma, art_col = self.mG, self.sigma, self.art_col
        mu = [Q(z[self.slack0 + i], d) for i in range(mG)]
        nu = [Q(sigma[mG + k] * (z[art_col[mG + k]] - art), d)
              for k in range(self.mE)]
        return mu, nu

    def outcome(self, z, d, q):
        """Phase 2's result (z, d, q) as an LPOutcome: the optimal point
        with its duals, or a feasible point with an improving ray."""
        if q is None:
            mu, nu = self._duals(z, d, 0)
            return LPOutcome(OPTIMAL, x=self._x(), value=Q(-z[self.RHS], d),
                             dual_ineq=mu, dual_eq=nu)
        return LPOutcome(UNBOUNDED, x=self._x(), value=NEG_INF,
                         ray=self.ray(q))

    def ray(self, q):
        """The improving ray of entering column q with no leaving row, in
        the program's variables: column q rises by 1 and each basic column
        falls by its entry in column q."""
        T, D, basis = self.T, self.D, self.basis
        dz = {q: ONE}
        for i in range(self.m):
            t = T[i][q]
            if t:
                dz[basis[i]] = Q(-t, D[i])
        return self._per_variable(dz)

    def unique_point(self, z):
        """Whether the objective row z proves its optimum attained at one
        point (see the module docstring): every nonbasic real column has a
        positive reduced cost, except the twin of a basic split variable's
        column. Basic columns and such twins have reduced cost 0, so a row
        that passes is also `optimal`."""
        exempt = set(self.basis)
        for p, m in self.var_cols:
            if m is not None and (p in exempt or m in exempt):
                exempt.update((p, m))
        return all(z[j] > 0 for j in range(self.nreal) if j not in exempt)

    def _per_variable(self, by_col):
        # a column vector (as {column: value}) in the program's variables
        get = by_col.get
        return [get(p, ZERO) if m is None else get(p, ZERO) - get(m, ZERO)
                for p, m in self.var_cols]

    def _x(self):
        T, D, RHS = self.T, self.D, self.RHS
        return self._per_variable({q: Q(T[i][RHS], D[i])
                                   for i, q in enumerate(self.basis)})


def solve(lp: LinearProgram) -> LPOutcome:
    """min lp.c . x over lp's constraints."""
    return System(lp).outcome(lp.c)


class System:
    """The rows of a program on one kept tableau, which the first question
    builds; the program's c is not read (see the module docstring).
    `outcome`, `maxima`, `unique_optima` and `append` share one phase 1
    at the program's own right-hand sides, and `feasible` sweeps its own on
    a tableau of its own, so every answer equals a fresh solve."""

    def __init__(self, program: LinearProgram):
        self.program = program
        self._tab = None
        # the tableau of `feasible`, at the last right-hand side it found
        # feasible
        self._sweep = None
        # the Farkas pair (mu, nu) once the rows are infeasible, else None
        self._farkas = None
        # what the fresh phase 2s of `maxima` and `unique_optima` proved
        # about the rows: the improving rays of unbounded costs, as
        # integers in the program's variables, and the final tableaux of
        # optimal ones
        self._rays = []
        self._bases = []

    def _kept(self) -> _Tableau:
        if self._tab is None:
            self._tab = tab = _Tableau(self.program)
            row = tab.phase1()
            if row is not None:
                # the phase-1 duals, where each artificial costs 1 (d over
                # d), are a Farkas certificate for the rows
                self._farkas = tab._duals(*row, art=row[1])
        return self._tab

    def _cost(self, c):
        """The cost c, coerced and width-checked, as (nums, d): its
        integers over one denominator (`over_lcm`), nums a tuple, so that
        the pair is the key that tells costs apart."""
        nums, d = over_lcm(as_q_vector(c, self.program.n,
                                       "cost width != number of variables"))
        return tuple(nums), d

    def _phase2(self, nums, d):
        """The (tableau, z, zd, q) of the phase 2 of the cost nums/d on its
        own copy of the kept tableau; None when the rows are infeasible."""
        tab = self._kept()
        if self._farkas is not None:
            return None
        t = tab.copy()
        return (t, *t.phase2(nums, d))

    def outcome(self, c) -> LPOutcome:
        """`solve` of the program with cost c in place of its c, by a phase
        2 of its own; infeasible rows give their Farkas outcome, with lists
        of its own."""
        return self._answer(self._phase2(*self._cost(c)))

    def _answer(self, run) -> LPOutcome:
        """The outcome of a `_phase2` run: the Farkas outcome, with lists
        of its own, when there is none."""
        if run is None:
            mu, nu = self._farkas
            return LPOutcome(INFEASIBLE, farkas_ineq=list(mu),
                             farkas_eq=list(nu))
        t, z, d, q = run
        return t.outcome(z, d, q)

    def _answers(self, keys, unique):
        """Per cost (nums, d) in `keys`, INF when the rows are infeasible,
        else `_proved` of it, once per distinct cost in order of first
        appearance."""
        if not keys:
            return []
        self._kept()
        if self._farkas is not None:
            return [INF] * len(keys)
        proofs = {key: self._proved(*key, unique)
                  for key in dict.fromkeys(keys)}
        return [proofs[key] for key in keys]

    def _proved(self, nums, d, unique):
        """What the feasible rows prove about min c.x (c = nums/d): NEG_INF
        when it is unbounded below, else (tableau, n, zd) at a basis
        optimal for c, the minimum being -n/zd, and, when `unique`,
        proving that optimum attained at its point alone
        (`_Tableau.unique_point`), else None. A kept ray or basis is tried
        first; only a cost that none decides runs a phase 2, whose ray or
        final tableau is then kept."""
        for r in self._rays:
            if sum(a * b for a, b in zip(nums, r) if a) < 0:
                return NEG_INF
        for t in self._bases:
            z, zd = t.cost_row(nums, d)
            if t.unique_point(z) if unique else t.optimal(z):
                return t, z[t.RHS], zd
        t, z, zd, q = self._phase2(nums, d)
        if q is not None:
            self._rays.append(over_lcm(t.ray(q))[0])
            return NEG_INF
        self._bases.append(t)
        if unique and not t.unique_point(z):
            return None
        return t, z[t.RHS], zd

    def maxima(self, costs) -> list:
        """max c.x over the rows for each c in `costs`: minus the `solve`
        value of -c when it is optimal, INF when c.x is unbounded above,
        NEG_INF when the rows are infeasible. Each cost is negated as the
        integers `_cost` gives, which are -c's own, and each distinct one
        is first tried against the rays and optimal bases that earlier
        costs found (see the module docstring); only a cost that none of
        them decides runs a phase 2, whose ray or final tableau is then
        kept. Each value is read off the integers of the minimum of -c with
        the other sign, so no rational is negated, and no point or
        multiplier is formed."""
        keys = [self._cost(c) for c in costs]
        return [Q(p[1], p[2]) if isinstance(p, tuple) else -p
                for p in self._answers(
                    [(tuple(-a for a in nums), d) for nums, d in keys],
                    False)]

    def unique_optima(self, costs) -> list:
        """Per cost c in `costs`, (x, value) when an optimal basis proves
        min c.x attained at x alone (`_Tableau.unique_point`), else None:
        also when c.x is unbounded below or the rows are infeasible. A kept
        ray that c descends answers None, and a kept basis of an earlier
        cost whose reduced costs for c pass the point test answers with its
        point; any other cost runs a phase 2, whose ray or final tableau is
        kept as `maxima` keeps them. Every solve reaches that one point and
        value, so each answer equals the x and value of `solve` of the
        program with cost c, bit for bit."""
        return [(p[0]._x(), Q(-p[1], p[2])) if isinstance(p, tuple) else None
                for p in self._answers([self._cost(c) for c in costs],
                                       True)]

    def outcomes_at(self, c, rhs) -> list:
        """Per right-hand side b in `rhs` (h entries, then e entries), the
        outcome of min c.x over the program's rows at b, or None (see the
        module docstring). At the program's own h and e it is `outcome(c)`,
        whose final tableau is the seed; c's phase 2 runs once. At any
        other b it is an optimal outcome whose point and value equal those
        of `solve` at b, bit for bit, where a basis optimal for c proves
        that point unique, read with no pivot off a kept basis
        (`_Tableau.optimum_at`) or found on a copy of the seed
        (`_Tableau.feasible_at`, then a phase 2, whose basis is kept). None
        where the rows are infeasible at b, c is unbounded or no such basis
        proves the point unique, and at every other b when the seed itself
        fails that test."""
        own = self.program.h + self.program.e
        bs = [as_q_vector(b, len(own),
                          "right-hand side length != number of rows")
              for b in rhs]
        if not bs:
            return []
        nums, d = self._cost(c)
        run = self._phase2(nums, d)
        fresh = self._answer(run)
        # (tableau, z, zd) of the bases that prove c's point unique, the
        # seed first
        kept = []
        if fresh.status == OPTIMAL:
            seed, z, zd, _ = run
            if seed.unique_point(z):
                kept.append((seed, z, zd))
        answers = []
        for b in bs:
            if b == own:
                answers.append(fresh)
                continue
            got = None
            for t, z, zd in kept:
                got = t.optimum_at(b, z, zd)
                if got is not None:
                    break
            if got is None and kept:
                t = kept[0][0].copy()
                if t.feasible_at(b):
                    z, zd, q = t.phase2(nums, d)
                    if q is None and t.unique_point(z):
                        kept.append((t, z, zd))
                        got = t.outcome(z, zd, q)
            answers.append(got)
        return answers

    def feasible(self, b) -> bool:
        """Whether G x <= b[:len(G)], E x = b[len(G):] has a solution under
        the program's sign flags (its h and e, and rows appended since, are
        not read). Phase 1 runs at b until some b is feasible; every later
        b starts from the basis the last one left (`_Tableau.feasible_at`),
        on a tableau that no other question uses."""
        b = as_q_vector(b, len(self.program.G) + len(self.program.E),
                        "right-hand side length != number of rows")
        if self._sweep is not None:
            return self._sweep.feasible_at(b)
        tab = _Tableau(self.program, b)
        if tab.phase1() is not None:
            return False
        self._sweep = tab
        return True

    def append(self, a, b) -> LPOutcome:
        """Add the row a . x <= b and decide the rows so far under cost 0:
        optimal with a point (value 0, zero multipliers), or infeasible
        with a Farkas pair over every inequality row, the program's first
        and the appended ones after them in order, and its equality rows."""
        a = as_q_vector(a, self.program.n, "row width != number of variables")
        b = as_q(b)
        tab = self._kept()
        # the new row may cut a kept ray, and the kept bases lack it
        self._rays, self._bases = [], []
        if self._farkas is None:
            tab.append_row(a, b)
            r = tab.dual_simplex()
            if r is None:
                return LPOutcome(OPTIMAL, x=tab._x(), value=ZERO,
                                 dual_ineq=[ZERO] * tab.mG,
                                 dual_eq=[ZERO] * tab.mE)
            self._farkas = tab._duals(tab.T[r], tab.D[r], 0)
        else:
            mu, nu = self._farkas
            self._farkas = mu + [ZERO], nu
        mu, nu = self._farkas
        return LPOutcome(INFEASIBLE, farkas_ineq=list(mu), farkas_eq=list(nu))


def _point_feasible(lp, x):
    if x is None or len(x) != lp.n:
        return False
    for j in range(lp.n):
        if lp.nonneg[j] and x[j] < ZERO:
            return False
    for row, b in zip(lp.G, lp.h):
        if dot(row, x) > b:
            return False
    for row, b in zip(lp.E, lp.e):
        if dot(row, x) != b:
            return False
    return True


def _stationarity(lp, mu, nu, c):
    # c + G^T mu + E^T nu, summed row by row over the nonzero multipliers,
    # must vanish at free variables and be nonnegative at nonneg-flagged
    # ones
    s = list(c)
    for rows, weights in ((lp.G, mu), (lp.E, nu)):
        for row, w in zip(rows, weights):
            if w:
                for j, a in enumerate(row):
                    if a:
                        s[j] += a * w
    return all(v >= ZERO if flag else v == ZERO
               for v, flag in zip(s, lp.nonneg))


def verify_certificate(lp: LinearProgram, out: LPOutcome) -> bool:
    """Check an LPOutcome by direct substitution into the original data.

    Shares no code with the solver's pivot path, so a passing check is an
    actual proof: optimality via matching primal/dual values, unboundedness
    via a feasible point plus an improving recession direction (and the
    value -oo), infeasibility via a Farkas vector.
    """
    if out.status == OPTIMAL:
        if out.x is None or out.dual_ineq is None or out.dual_eq is None:
            return False
        if len(out.dual_ineq) != len(lp.G) or len(out.dual_eq) != len(lp.E):
            return False
        if not _point_feasible(lp, out.x):
            return False
        if dot(lp.c, out.x) != out.value:
            return False
        if any(v < ZERO for v in out.dual_ineq):
            return False
        if not _stationarity(lp, out.dual_ineq, out.dual_eq, lp.c):
            return False
        return out.value == -(dot(lp.h, out.dual_ineq) + dot(lp.e, out.dual_eq))
    if out.status == UNBOUNDED:
        d = out.ray
        if out.value is not NEG_INF or d is None or len(d) != lp.n:
            return False
        if not _point_feasible(lp, out.x):
            return False
        if any(dot(row, d) > ZERO for row in lp.G):
            return False
        if any(dot(row, d) != ZERO for row in lp.E):
            return False
        if any(lp.nonneg[j] and d[j] < ZERO for j in range(lp.n)):
            return False
        return dot(lp.c, d) < ZERO
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
        return dot(lp.h, mu) + dot(lp.e, nu) < ZERO
    return False
