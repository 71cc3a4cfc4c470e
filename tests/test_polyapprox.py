"""Tolerance sweeps for one-sided polynomial fitting."""

import csv
import dataclasses
import random

import pytest

from farkaskit import engine, polyapprox, semiinf, sets
from farkaskit.errors import InvariantViolation
from farkaskit.polyapprox import ApproxProblem, uniform_nodes
from farkaskit.rational import NEG_INF, Q
from farkaskit.sets import Box


def square_problem(node_count=11, epsilons=(Q(1, 100), Q(1, 10))):
    nodes = uniform_nodes(node_count)
    return ApproxProblem(degree_bound=3, nodes=nodes,
                         values=[t * t for t in nodes],
                         epsilons=list(epsilons))


def vee_problem(epsilons):
    # g = |t - 1/2| sampled at three nodes, fitted by an affine function
    return ApproxProblem(degree_bound=2, nodes=[0, Q(1, 2), 1],
                         values=[Q(1, 2), 0, Q(1, 2)],
                         epsilons=list(epsilons))


class TestValidation:
    def test_uniform_nodes(self):
        assert uniform_nodes(5) == [0, Q(1, 4), Q(1, 2), Q(3, 4), 1]
        with pytest.raises(ValueError):
            uniform_nodes(1)

    def test_nodes_sorted_and_in_range(self):
        with pytest.raises(ValueError):
            ApproxProblem(degree_bound=1, nodes=[0, 0], values=[1, 1],
                          epsilons=[1])
        with pytest.raises(ValueError):
            ApproxProblem(degree_bound=1, nodes=[0, 2], values=[1, 1],
                          epsilons=[1])

    def test_value_count(self):
        with pytest.raises(ValueError):
            ApproxProblem(degree_bound=1, nodes=[0, 1], values=[1],
                          epsilons=[1])

    @pytest.mark.parametrize("degree, nodes, message", [
        (0, [0, 1], "degree bound must be at least 1"),
        (1, [], "empty node grid"),
    ], ids=["degree", "nodes"])
    def test_degree_and_node_grid(self, degree, nodes, message):
        with pytest.raises(ValueError) as caught:
            ApproxProblem(degree_bound=degree, nodes=nodes,
                          values=[0] * len(nodes), epsilons=[1])
        assert str(caught.value) == message

    def test_sweep_needs_a_tolerance(self):
        problem = ApproxProblem(degree_bound=1, nodes=[0, 1], values=[0, 0],
                                epsilons=[])
        with pytest.raises(ValueError) as caught:
            polyapprox.sweep(problem)
        assert str(caught.value) == "no tolerances to sweep"

    def test_epsilons_positive_ascending(self):
        with pytest.raises(ValueError):
            ApproxProblem(degree_bound=1, nodes=[0, 1], values=[0, 0],
                          epsilons=[0])
        with pytest.raises(ValueError):
            ApproxProblem(degree_bound=1, nodes=[0, 1], values=[0, 0],
                          epsilons=[Q(1, 2), Q(1, 2)])

    def test_vandermonde(self):
        p = square_problem()
        assert p.vandermonde_row(Q(1, 2)) == [1, Q(1, 2), Q(1, 4)]
        assert p.objective_slope() == [1, Q(1, 2), Q(1, 3)]


class TestSolve:
    def test_square_fit_is_exact(self):
        p = square_problem()
        row = polyapprox.solve_eps(p, Q(1, 100))
        assert row.objective == Q(1, 3)
        assert row.coefficients == [0, 0, 1]

    def test_moment_conditions_hold(self):
        p = square_problem()
        row = polyapprox.solve_eps(p, Q(1, 10))
        lam = row.dual.value()
        for i in range(1, 4):
            total = sum(l * t ** (i - 1)
                        for l, t in zip(lam, p.nodes))
            assert total == -Q(1, i)

    def test_certificate_value_matches(self):
        p = square_problem()
        eps = Q(1, 10)
        row = polyapprox.solve_eps(p, eps)
        bound = -sum(l * g + eps * pl for l, pl, g in
                     zip(row.dual.value(), row.dual.plus, p.values))
        assert bound == row.objective

    def test_vee_requires_wide_band(self):
        # the kink value forces p(1/2) <= eps while the ends need >= 1/2
        assert not polyapprox.check_consistency(vee_problem([1]), Q(1, 4))
        assert polyapprox.check_consistency(vee_problem([1]), Q(1, 2))
        with pytest.raises(ValueError):
            polyapprox.solve_eps(vee_problem([1]), Q(1, 4))

    def test_vee_objective(self):
        row = polyapprox.solve_eps(vee_problem([1]), Q(1, 2))
        assert row.objective == Q(1, 2)

    def test_unbounded_objective(self):
        # a single node pins the polynomial nowhere else: value escapes
        p = ApproxProblem(degree_bound=2, nodes=[0], values=[0],
                          epsilons=[1])
        row = polyapprox.solve_eps(p, 1)
        assert row.objective is NEG_INF
        assert row.coefficients is None

    def test_consistency_matches_engine_route(self):
        for prob, eps in ((square_problem(), Q(1, 10)),
                          (vee_problem([1]), Q(1, 4)),
                          (vee_problem([1]), Q(3, 4))):
            mine = polyapprox.check_consistency(prob, eps)
            other = engine.check_existence(polyapprox.to_grid(prob, eps))
            assert mine == other.feasible


class TestSweep:
    def test_square_frontier(self):
        rows = polyapprox.sweep(square_problem())
        assert [r.objective for r in rows] == [Q(1, 3), Q(1, 3)]
        assert all(r.coefficients == [0, 0, 1] for r in rows)

    def test_frontier_not_increasing(self):
        rows = polyapprox.sweep(vee_problem([Q(1, 2), Q(3, 4), Q(2)]))
        objs = [r.objective for r in rows]
        assert objs == sorted(objs, reverse=True)

    @pytest.mark.parametrize("objectives, increased", [
        ((Q(1), Q(2)), True), ((NEG_INF, Q(1)), True),
        ((Q(2), Q(1)), False), ((Q(1), Q(1)), False),
        ((Q(1), NEG_INF), False), ((NEG_INF, NEG_INF), False)])
    def test_increase_is_an_alarm(self, monkeypatch, objectives, increased):
        rows = iter([polyapprox.FrontierRow(epsilon=eps, objective=obj,
                                            coefficients=None, dual=None)
                     for eps, obj in zip((Q(1, 2), Q(1)), objectives)])
        monkeypatch.setattr(polyapprox, "solve_eps",
                            lambda problem, eps: next(rows))
        problem = vee_problem([Q(1, 2), Q(1)])
        if increased:
            with pytest.raises(InvariantViolation):
                polyapprox.sweep(problem)
        else:
            assert len(polyapprox.sweep(problem)) == 2

    def test_csv_output(self, tmp_path):
        out = tmp_path / "frontier.csv"
        rows = polyapprox.sweep(square_problem())
        polyapprox.write_frontier(rows, out, degree_bound=3)
        with open(out) as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["epsilon", "objective", "x1", "x2", "x3"]
        assert got[1] == ["1/100", "1/3", "0", "0", "1"]
        assert got[2] == ["1/10", "1/3", "0", "0", "1"]

    def test_csv_rows_end_in_a_bare_newline(self, tmp_path):
        # the csv module's default row end was CRLF
        out = tmp_path / "frontier.csv"
        polyapprox.write_frontier(polyapprox.sweep(square_problem()), out,
                                  degree_bound=3)
        assert out.read_bytes() == (b"epsilon,objective,x1,x2,x3\n"
                                    b"1/100,1/3,0,0,1\n"
                                    b"1/10,1/3,0,0,1\n")

    def test_csv_unbounded_row(self, tmp_path):
        p = ApproxProblem(degree_bound=2, nodes=[0], values=[0],
                          epsilons=[1])
        out = tmp_path / "frontier.csv"
        polyapprox.write_frontier(polyapprox.sweep(p), out, degree_bound=2)
        with open(out) as fh:
            got = list(csv.reader(fh))
        assert got[1] == ["1", "-inf", "", ""]


def _band(node_count, degree, g, eps):
    nodes = uniform_nodes(node_count)
    return polyapprox.to_grid(
        ApproxProblem(degree_bound=degree, nodes=nodes,
                      values=[g(t) for t in nodes], epsilons=[eps]), eps)


class TestExistenceCertificate:
    def test_verdict_matches_the_moment_cone_probe(self):
        # the LP membership of (0, -1) in the lifted moment cone, which the
        # verdict read off the exchange's certificate replaced
        functions = (lambda t: t * t, lambda t: 1 / (1 + t),
                     lambda t: abs(t - Q(1, 3)))
        rng = random.Random(20261019)
        verdicts = []
        for k in range(40):
            node_count = rng.randint(5, 201)
            inst = _band(node_count, rng.randint(2, 4), functions[k % 3],
                         Q(1, 2 ** rng.randint(1, 12)))
            probe = not sets.member(semiinf.lifted_moment_cone(inst),
                                    [Q(0)] * inst.n + [Q(-1)])
            verdicts.append(polyapprox._consistent(inst))
            assert verdicts[-1] == probe
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("eps, consistent", [(Q(1, 4), False),
                                                 (Q(1, 2), True)])
    def test_corrupted_certificate_raises(self, monkeypatch, eps,
                                          consistent):
        inst = polyapprox.to_grid(vee_problem([1]), eps)
        cert = semiinf.band_point(inst)
        assert polyapprox._consistent(inst) == consistent
        if consistent:
            # the constant term up by eps + 1 lifts p above g + eps at
            # every node
            bad = dataclasses.replace(cert, x=[cert.x[0] + eps + 1]
                                      + cert.x[1:])
        else:
            # one entry moved to its row's partner: the combination keeps
            # a nonzero moment
            mu = list(cert.farkas_ineq)
            k = next(i for i, v in enumerate(mu) if v)
            mu[k], mu[k ^ 1] = mu[k ^ 1], mu[k]
            bad = dataclasses.replace(cert, farkas_ineq=mu)
        monkeypatch.setattr(semiinf, "band_point", lambda inst: bad)
        with pytest.raises(InvariantViolation, match="moment coordinates"):
            polyapprox._consistent(inst)

    @pytest.mark.parametrize("resize", [lambda mu: mu + [Q(0)],
                                        lambda mu: mu[:-1]],
                             ids=["one_more", "one_fewer"])
    def test_farkas_vector_of_wrong_length_raises(self, monkeypatch, resize):
        # the length is checked before the rows are combined, so the
        # certificate's alarm fires, not a ValueError from the combination
        inst = polyapprox.to_grid(vee_problem([1]), Q(1, 4))
        cert = semiinf.band_point(inst)
        bad = dataclasses.replace(cert, farkas_ineq=resize(cert.farkas_ineq))
        monkeypatch.setattr(semiinf, "band_point", lambda inst: bad)
        with pytest.raises(InvariantViolation, match="moment coordinates"):
            polyapprox._consistent(inst)

    def test_band_point_of_wrong_length_raises(self, monkeypatch):
        # pairing the point with each generator stops at the shorter list,
        # so a trailing entry would go unread without the length check
        inst = _band(3, 2, lambda t: t * t, Q(1, 2))
        cert = semiinf.band_point(inst)
        assert polyapprox._consistent(inst)
        bad = dataclasses.replace(cert, x=cert.x + [Q(-1)])
        monkeypatch.setattr(semiinf, "band_point", lambda inst: bad)
        with pytest.raises(InvariantViolation, match="moment coordinates"):
            polyapprox._consistent(inst)

    def test_ground_with_rows_is_refused(self):
        inst = polyapprox.to_grid(vee_problem([1]), Q(1, 2))
        boxed = semiinf.grid(
            [(a, lo, hi) for a, (lo, hi) in zip(inst.matrix,
                                                inst.target.bounds)],
            Box([(-9, 9), (-9, 9)]).to_polyhedron(), inst.objective)
        with pytest.raises(InvariantViolation, match="ground"):
            polyapprox._consistent(boxed)
