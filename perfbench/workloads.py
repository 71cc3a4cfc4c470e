"""The three benchmark workloads: seeded inputs, one op each, exact checks.

Every workload builds a pool of op inputs from the seed, hands the library
only those inputs, and checks each op's output by exact substitution (no
tolerances anywhere). A check that fails counts the op as failed.

Every instance has N_VARS variables and N_ROWS map rows: op cost grows
steeply with both, and a run holds a few hundred certify ops or a few dozen
probe ops, so a mix of sizes would make a run's cost depend on its seed
more than on the code. The pool is also stratified: it is laid out in
blocks, and every block holds the same number of instances of each stratum
(objective pieces, and whether the objective has a domain) in the
proportions the generators draw them, in a seeded order.

All library modules reach this file through the `lib` namespace built by
`run.load_library`, never by import, so set-up can re-import the package
and time it.
"""

from __future__ import annotations

import copy
import json
import random
from collections import defaultdict

N_VARS, N_ROWS = 2, 2
# random_objective draws 1 to 3 pieces, and a domain with probability 1/4
STRATA = [(k, d) for k in (1, 2, 3) for d in (False, False, False, True)]


def _stratum(inst):
    return len(inst.objective.slopes), inst.objective.domain is not None


def _draw(rng, make):
    """An N_VARS x N_ROWS instance built by `make(sub_generator)`.

    The instances module draws n, then m, each from 1 to 3, before anything
    else; peeking at those two draws on a copy of the sub-generator skips
    other sizes without building them. The size is checked again on the
    instance, so a change in that order costs time, not correctness."""
    while True:
        sub = random.Random(rng.getrandbits(64))
        peek = random.Random()
        peek.setstate(sub.getstate())
        if (peek.randint(1, 3), peek.randint(1, 3)) != (N_VARS, N_ROWS):
            continue
        inst = make(sub)
        if (inst.n, inst.m) == (N_VARS, N_ROWS):
            return inst


def _stratified(rng, slots, makers):
    """One instance per slot (source, stratum), built by makers[source].

    Draws of another stratum wait in a buffer for a later slot of theirs,
    so no instance is thrown away before the pool is full."""
    waiting = defaultdict(list)
    out = []
    for source, stratum in slots:
        while not waiting[source, stratum]:
            inst = _draw(rng, makers[source])
            waiting[source, _stratum(inst)].append(inst)
        out.append(waiting[source, stratum].pop(0))
    return out


def _text(lib, x):
    return lib.rational.scalar_text(x)


def _resubstitute(lib, inst, u, v, lam):
    """Whether u + v + A^T lam = 0, then f*(u), sigma_C(v) and
    sigma_D(lam), each recomputed from the instance."""
    zero = lib.rational.ZERO
    linked = all(a + b + c == zero
                 for a, b, c in zip(u, v, inst.adjoint(lam)))
    return (linked, lib.calculus.fenchel_value(inst.objective, u),
            lib.sets.support(inst.ground.to_lifted(), v),
            inst.target_support(lam))


class Certify:
    """Parse an instance document, then run the primal criterion, the
    existence check and strong duality on it. Every 4th op is drawn from
    the infeasible generator."""

    name = "certify"

    def __init__(self, pool=336, count_ops=24):
        self.pool_size = pool
        self.count_ops = count_ops

    def generate(self, lib, seed):
        rng = random.Random(seed)
        slots = []
        while len(slots) < self.pool_size:
            feas = [(True, s) for s in STRATA * 3]
            infeas = [(False, s) for s in STRATA]
            rng.shuffle(feas)
            rng.shuffle(infeas)
            for j in range(4 * len(STRATA)):
                slots.append(infeas.pop() if j % 4 == 3 else feas.pop())
        slots = slots[:self.pool_size]
        insts = _stratified(rng, slots, {
            True: lib.instances.random_feasible_instance,
            False: lib.instances.random_infeasible_instance})
        return [(feasible, json.dumps(lib.cli.instance_document(inst)))
                for (feasible, _), inst in zip(slots, insts)]

    def prepare(self, item):
        return item

    def op(self, lib, item):
        _, text = item
        inst = lib.cli.load_instance(json.loads(text))
        return (inst, lib.engine.check_primal_criterion(inst),
                lib.engine.check_existence(inst),
                lib.duality.check_strong_duality(inst))

    def check(self, lib, item, out):
        feasible, _ = item
        inst, prim, ex, sd = out
        zero = lib.rational.ZERO
        rep, cert = prim.nonnegativity, prim.certificate
        if rep.verdict.holds != (cert is not None):
            return "statement and certificate disagree"
        if cert is not None:
            linked, *values = _resubstitute(lib, inst, cert.u, cert.v,
                                            cert.lam)
            if not linked:
                return "certificate link u + v + A^T lam != 0"
            if values != [cert.conjugate_value, cert.ground_support,
                          cert.target_support]:
                return "certificate values do not re-substitute"
            if not sum(values) <= zero:
                return "certificate budget exceeded"
        if ex.feasible != feasible:
            return "existence differs from how the instance was drawn"
        if (rep.verdict is lib.engine.TriVerdict.VACUOUS) == feasible:
            return "vacuous verdict differs from how the instance was drawn"
        if feasible and not inst.feasible_polyhedron().contains(ex.point):
            return "existence witness is not feasible"
        if not (sd.equal and sd.primal.value == sd.dual.value):
            return "primal and dual values differ"
        if sd.primal.value != rep.minimum:
            return "primal value differs from the nonnegativity minimum"
        dual = sd.dual
        if dual.status == lib.duality.OPTIMAL:
            linked, *values = _resubstitute(lib, inst, dual.u, dual.v,
                                            dual.lam)
            if not linked:
                return "dual link u + v + A^T lam != 0"
            if -sum(values) != dual.value:
                return "dual value does not re-substitute"
        return None

    def digest_item(self, lib, item, out):
        feasible, _ = item
        _, prim, ex, sd = out
        rep = prim.nonnegativity
        return [feasible, rep.verdict.value, _text(lib, rep.minimum),
                prim.certificate is not None, prim.criterion_holds,
                ex.feasible, ex.preimage_nonempty,
                sd.primal.status, _text(lib, sd.primal.value),
                sd.dual.status, _text(lib, sd.dual.value)]


class Probe:
    """Criterion-3 support sweep of the multiplier cone against the
    preimage's support epigraph, then the 25-tilt strong duality check.

    Objectives have no domain here, which removes the largest cost
    difference left between instances of one size."""

    name = "probe"
    n_random = 50
    tilts = 25
    strata = [(k, False) for k in (1, 2, 3)]

    def __init__(self, pool=180, count_ops=3):
        self.pool_size = pool
        self.count_ops = count_ops

    def generate(self, lib, seed):
        rng = random.Random(seed)
        slots = []
        while len(slots) < self.pool_size:
            block = [(True, s) for s in self.strata]
            rng.shuffle(block)
            slots += block
        slots = slots[:self.pool_size]

        def make(r):
            return lib.instances.random_feasible_instance(r, allow_domain=False)

        insts = _stratified(rng, slots, {True: make})
        return [(inst, rng.randrange(1 << 30), rng.randrange(1 << 30))
                for inst in insts]

    def prepare(self, item):
        # a fresh copy per op, so no state the library might attach to an
        # instance object carries over from an earlier op on the same input
        return copy.deepcopy(item)

    def op(self, lib, item):
        inst, dir_seed, tilt_seed = item
        dirs = lib.sets.probe_directions(inst.n + 1, n_random=self.n_random,
                                         seed=dir_seed)
        bad = lib.sets.support_mismatches(
            lib.engine.multiplier_cone(inst),
            lib.calculus.support_epigraph(inst.preimage_polyhedron()), dirs)
        stable = lib.duality.check_stable_strong_duality(inst, seed=tilt_seed)
        return len(dirs), bad, stable

    def check(self, lib, item, out):
        _, bad, stable = out
        if bad:
            return f"{len(bad)} support mismatches"
        if stable.tilts_checked != self.tilts or not stable.all_strong:
            return f"{stable.tilts_checked} tilts checked, not {self.tilts}"
        return None

    def digest_item(self, lib, item, out):
        inst = item[0]
        n_dirs, bad, stable = out
        return [inst.n, inst.m, n_dirs, len(bad), stable.tilts_checked,
                stable.all_strong, stable.containment_points]


class Band:
    """polyapprox.solve_eps at one tolerance. Two targets: t^2 with 3
    coefficients (an exact fit, objective 1/3) and 1/(1+t) with 4, whose
    tolerances straddle the fit frontier."""

    name = "band"
    nodes = 21
    # Tolerances are k / scale, one drawn from each (kind, low k, high k)
    # rung per block. The smallest tolerance 1/(1+t) admits with 4
    # coefficients is about 0.002480 on 21 uniform nodes (0.002523 on 51):
    # "below" rungs must be inconsistent and "above" rungs consistent.
    # Ops near the frontier or below it cost about 1.5 times the others;
    # six cheap rungs to three dear ones keep the median op inside the
    # cheap group, so it does not jump between the two groups by seed.
    scale = 100000
    ladder = (("sq", 1, 100), ("sq", 100, 1000), ("sq", 1000, 2600),
              ("above", 800, 1400), ("above", 1400, 2600),
              ("above", 2600, 5000),
              ("below", 120, 180), ("below", 180, 240), ("above", 261, 400))

    def __init__(self, pool=144, count_ops=9):
        self.pool_size = pool
        self.count_ops = count_ops

    def generate(self, lib, seed):
        Q = lib.rational.Q
        poly = lib.polyapprox
        nodes = poly.uniform_nodes(self.nodes)
        values = {"sq": [t * t for t in nodes],
                  "inv": [1 / (1 + t) for t in nodes]}
        rng = random.Random(seed)
        items = []
        while len(items) < self.pool_size:
            rungs = list(self.ladder)
            rng.shuffle(rungs)
            for kind, lo, hi in rungs:
                eps = Q(rng.randrange(lo, hi), self.scale)
                target = "sq" if kind == "sq" else "inv"
                problem = poly.ApproxProblem(
                    degree_bound=3 if target == "sq" else 4, nodes=nodes,
                    values=values[target], epsilons=[eps])
                items.append((kind, problem, eps))
        return items[:self.pool_size]

    def prepare(self, item):
        return copy.deepcopy(item)

    def op(self, lib, item):
        _, problem, eps = item
        try:
            return lib.polyapprox.solve_eps(problem, eps)
        except ValueError:
            return None  # no polynomial fits the band: an answer, not a failure

    def check(self, lib, item, row):
        kind, problem, eps = item
        zero = lib.rational.ZERO
        Q = lib.rational.Q
        if row is None:
            if kind != "below":
                return "inconsistent above the fit frontier"
            if lib.polyapprox.check_consistency(problem, eps):
                return "inconsistent answer, but check_consistency is True"
            return None
        if kind == "below":
            return "consistent below the fit frontier"
        coeffs = row.coefficients
        if row.epsilon != eps or coeffs is None:
            return "no coefficients for a consistent band"
        for t, g in zip(problem.nodes, problem.values):
            p = sum((c * t ** i for i, c in enumerate(coeffs)), zero)
            if not g <= p <= g + eps:
                return f"band broken at t={t}"
        if sum((c / (i + 1) for i, c in enumerate(coeffs)), zero) \
                != row.objective:
            return "objective is not the integral of the coefficients"
        lam = row.dual.value()
        for i in range(1, problem.degree_bound + 1):
            moment = sum((l * t ** (i - 1)
                          for l, t in zip(lam, problem.nodes)), zero)
            if moment != -Q(1, i):
                return f"moment {i} off"
        bound = -sum((l * g + eps * p for l, g, p in
                      zip(lam, problem.values, row.dual.plus)), zero)
        if bound != row.objective:
            return "multiplier bound differs from the objective"
        if kind == "sq" and (row.objective != Q(1, 3)
                             or coeffs != [zero, zero, Q(1)]):
            return "t^2 is not fitted exactly"
        return None

    def digest_item(self, lib, item, row):
        kind, _, eps = item
        objective = "inconsistent" if row is None else _text(lib, row.objective)
        return [kind, _text(lib, eps), objective]


WORKLOADS = {w.name: w for w in (Certify, Probe, Band)}
