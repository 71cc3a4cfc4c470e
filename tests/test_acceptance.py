"""The nine acceptance criteria, one labeled PASS/FAIL line each.

Run with plain pytest; the verdict lines print through the capture so they
are visible either way. FARKAS_SEED changes the random streams; every
property checked here must hold for any seed.
"""

import json
import os
import random
import time
from pathlib import Path

from farkaskit import (calculus, cli, duality, engine, gallery, instances,
                       lp, polyapprox, semiinf, sets)
from farkaskit.rational import NEG_INF, Q, ZERO, scalar_text

from oracles import brute_force_box_min, certifies_outcome

SEED = int(os.environ.get("FARKAS_SEED", "0"))
FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(capsys, number, label, body):
    try:
        detail = body()
    except BaseException as exc:
        with capsys.disabled():
            print(f"\n[criterion {number}] {label}: FAIL ({exc})")
        raise
    extra = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {number}] {label}: PASS{extra}")


def test_criterion_1_lp_kernel_certificates_and_corner_oracle(capsys):
    def body():
        t0 = time.perf_counter()
        rng = random.Random(SEED)
        boxes = 0
        for k in range(500):
            prog, bounds = instances.random_lp(rng)
            out = lp.solve(prog)
            assert lp.verify_certificate(prog, out), \
                f"draw {k}: certificate failed direct verification"
            assert certifies_outcome(prog, out), \
                f"draw {k}: certificate failed the independent oracle"
            if bounds is not None:
                boxes += 1
                value, _ = brute_force_box_min(prog.c, bounds)
                assert out.status == lp.OPTIMAL, f"draw {k}: not optimal"
                assert out.value == value, \
                    f"draw {k}: solver {out.value} vs corners {value}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"budget blown: {elapsed:.1f}s"
        return f"500 programs, {boxes} corner-checked, {elapsed:.1f}s"
    _verdict(capsys, 1, "LP kernel on seeded programs", body)


def test_criterion_2_statement_iff_certificate_on_feasible_instances(capsys):
    def body():
        t0 = time.perf_counter()
        rng = random.Random(SEED + 1)
        certified = 0
        for k in range(200):
            inst = instances.random_feasible_instance(rng)
            holds = engine.check_nonnegativity(inst).verdict.holds
            cert = engine.find_certificate(inst)
            assert holds == (cert is not None), f"instance {k}: split"
            if cert is None:
                continue
            certified += 1
            # independent substitution of every certificate component
            adj = inst.adjoint(cert.lam)
            assert all(u + v + a == ZERO
                       for u, v, a in zip(cert.u, cert.v, adj)), \
                f"instance {k}: linkage broken"
            conj = calculus.fenchel_value(inst.objective, cert.u)
            gsup = sets.support(inst.ground, cert.v)
            tsup = inst.target_support(cert.lam)
            assert conj == cert.conjugate_value
            assert gsup == cert.ground_support
            assert tsup == cert.target_support
            assert conj + gsup + tsup <= ZERO, f"instance {k}: budget"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"budget blown: {elapsed:.1f}s"
        return f"200 instances, {certified} certified, {elapsed:.1f}s"
    _verdict(capsys, 2, "statement iff certificate, invariants exact", body)


def test_criterion_3_support_equality_of_cones_and_epigraphs(capsys):
    def body():
        rng = random.Random(SEED + 2)
        for k in range(50):
            inst = instances.random_feasible_instance(rng)
            dirs = sets.probe_directions(inst.n + 1, n_random=50,
                                         seed=SEED + k)
            pre = inst.preimage_polyhedron()
            assert not pre.is_empty()
            bad = sets.support_mismatches(
                engine.multiplier_cone(inst),
                calculus.support_epigraph(pre), dirs)
            assert not bad, f"instance {k}, multiplier cone: {bad[0]}"
            bad = sets.support_mismatches(
                engine.certificate_cone(inst),
                calculus.support_epigraph(inst.feasible_polyhedron()), dirs)
            assert not bad, f"instance {k}, certificate cone: {bad[0]}"
        return "50 instances, full probe grid + 50 random directions each"
    _verdict(capsys, 3, "cone supports match the set epigraphs", body)


def test_criterion_4_feasibility_routes_agree(capsys):
    def body():
        rng = random.Random(SEED + 3)
        infeasible = 0
        for k in range(100):
            engineered = k % 2 == 1
            if engineered:
                inst = instances.random_infeasible_instance(rng)
            else:
                inst = instances.random_feasible_instance(rng)
            rep = engine.check_existence(inst)  # route agreement enforced
            assert rep.feasible != engineered, f"instance {k}"
            infeasible += not rep.feasible
        assert infeasible == 50
        return "100 instances, 50 engineered infeasible, routes agree"
    _verdict(capsys, 4, "direct LP route vs depth-probe route", body)


def test_criterion_5_gallery_fixtures_bit_exact(capsys):
    def body():
        for name in gallery.GALLERY_NAMES:
            with open(FIXTURES / f"{name}.json") as fh:
                frozen = json.load(fh)
            live = json.loads(json.dumps(gallery.report(name).summary))
            assert live == frozen, f"{name}: live verdicts drifted"
            shipped = json.loads(json.dumps(gallery.FROZEN[name]))
            assert shipped == frozen, f"{name}: shipped copy drifted"
        return "g1, g2, g3 reproduce their hand-derived verdicts"
    _verdict(capsys, 5, "gallery regression, bit-exact", body)


def test_criterion_6_moment_cone_sandwich_and_box_support(capsys):
    def body():
        rng = random.Random(SEED + 4)
        for k in range(30):
            grid = instances.random_grid(rng)
            semiinf.check_moment_sandwich(grid, n_random=20, seed=SEED + k)
            lifted = grid.target.to_polyhedron()
            for _ in range(100):
                lam = [Q(rng.randint(-4, 4)) for _ in range(grid.m)]
                assert grid.target.support(lam) == sets.support(lifted, lam), \
                    f"grid {k}: closed form vs LP support at {lam}"
        return "30 grids, sandwich + 100 multiplier supports each"
    _verdict(capsys, 6, "grid sandwich and closed-form box support", body)


def test_criterion_7_duality_attainment_optimality_stability(capsys):
    def body():
        rng = random.Random(SEED + 1)  # the criterion-2 instance stream
        for k in range(200):
            inst = instances.random_feasible_instance(rng)
            primal = duality.solve_primal(inst)
            dual = duality.solve_dual(inst)
            assert dual.value is NEG_INF or dual.value <= primal.value, \
                f"instance {k}: weak duality"
            assert dual.status == duality.OPTIMAL, f"instance {k}: attainment"
            assert dual.value == primal.value, f"instance {k}: gap"
        rng = random.Random(SEED + 5)
        for k in range(100):
            inst = instances.random_feasible_instance(rng)
            best = duality.solve_primal(inst)
            rep = duality.check_optimality(inst, best.point)
            assert rep.optimal and rep.by_comparison and \
                rep.by_certificate and rep.by_subdifferential, \
                f"instance {k}: optimum not recognized"
            for p in instances.sample_feasible_points(inst, rng, count=2):
                other = duality.check_optimality(inst, p)  # 3-way enforced
                assert other.optimal == (other.value == best.value)
            stable = duality.check_stable_strong_duality(inst, seed=SEED)
            assert stable.all_strong and stable.tilts_checked == 25
        return ("weak+strong duality on 200, three-way optimality and "
                "25-tilt stability on 100")
    _verdict(capsys, 7, "duality chain end to end", body)


def test_criterion_8_band_approximation_matches_prebuild_oracle(capsys):
    def body():
        t0 = time.perf_counter()
        nodes = polyapprox.uniform_nodes(101)
        problem = polyapprox.ApproxProblem(
            degree_bound=3, nodes=nodes, values=[t * t for t in nodes],
            epsilons=[Q(1, 100), Q(1, 10)])
        rows = polyapprox.sweep(problem)
        # frozen pre-build oracle: objective 1/3, coefficients (0, 0, 1)
        for row in rows:
            assert row.objective == Q(1, 3), f"eps {row.epsilon}: objective"
            assert row.coefficients == [ZERO, ZERO, Q(1)], \
                f"eps {row.epsilon}: coefficients"
            for t, g in zip(problem.nodes, problem.values):
                p = sum((c * t ** i for i, c in enumerate(row.coefficients)),
                        ZERO)
                assert g <= p <= g + row.epsilon, f"band broken at t={t}"
            lam = row.dual.value()
            for i in range(1, 4):
                moment = sum((l * t ** (i - 1)
                              for l, t in zip(lam, problem.nodes)), ZERO)
                assert moment == -Q(1, i), f"moment {i} off"
            bound = -sum((l * g + row.epsilon * p
                          for l, g, p in zip(lam, problem.values,
                                             row.dual.plus)), ZERO)
            assert bound == row.objective, "certificate bound not tight"
        assert rows[0].objective >= rows[1].objective, "not nonincreasing"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"budget blown: {elapsed:.1f}s"
        return f"101 nodes, both tolerances exact, {elapsed:.1f}s"
    _verdict(capsys, 8, "polynomial band frontier vs pre-build oracle", body)


def test_criterion_9_sublevel_equivalence_and_hand_examples(capsys):
    def body():
        rng = random.Random(SEED + 6)
        for k in range(50):
            inst = instances.random_concave_instance(rng)
            rep = engine.check_sublevel(inst)
            assert rep.verdict == "consistent"
            assert rep.nonpositive == rep.epigraph_contained, f"instance {k}"
            assert rep.simili_closed
        with open(FIXTURES / "sublevel_examples.json") as fh:
            doc = json.load(fh)
        for ex in doc["examples"]:
            inst = cli.load_instance(ex["instance"])
            rep = engine.check_sublevel(inst)
            assert scalar_text(rep.maximum) == ex["maximum"], ex["name"]
            assert rep.nonpositive == ex["nonpositive"], ex["name"]
            assert rep.epigraph_contained == ex["epigraph_contained"], \
                ex["name"]
            assert rep.simili_closed == ex["simili_closed"], ex["name"]
            assert rep.verdict == ex["verdict"], ex["name"]
        return "50 random instances + 2 hand-derived examples"
    _verdict(capsys, 9, "sublevel containment equivalence", body)
