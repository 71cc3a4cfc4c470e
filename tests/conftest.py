import sys
from pathlib import Path

import pytest

from farkaskit import engine, lp
from farkaskit.rational import Q, ZERO

# tests import shared oracle helpers as plain modules
sys.path.insert(0, str(Path(__file__).parent))

from oracles import spoiled  # noqa: E402


def _counter(name):
    """run(fn, *args) -> (fn(*args), the number of calls of the LP kernel
    method `name` it made), counted by a profile hook."""

    def run(fn, *args):
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if (event == "call" and code.co_name == name
                    and code.co_filename == lp.__file__):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(previous)
        return result, calls

    return run


@pytest.fixture
def count_pivots():
    """run(fn, *args) -> (fn(*args), the number of simplex pivots it made)."""
    return _counter("pivot")


@pytest.fixture
def count_phase1():
    """run(fn, *args) -> (fn(*args), the number of simplex phase-1 runs it
    made): one per constraint set solved, however many costs share it."""
    return _counter("phase1")


@pytest.fixture
def phase2_costs(monkeypatch):
    """The list that each (program, cost) reaching `lp.System._phase2` is
    appended to, the cost as its `Q` tuple: the costs that the kernel
    solves by a phase 2 of their own."""
    phase2 = lp.System._phase2
    posed = []

    def recording(kept, nums, d):
        posed.append((kept.program, tuple(Q(a, d) for a in nums)))
        return phase2(kept, nums, d)

    monkeypatch.setattr(lp.System, "_phase2", recording)
    return posed


@pytest.fixture
def tamper_scale_lp(monkeypatch):
    """Make each `lp.solve` that `sets.cone_closed_regarding` calls itself
    answer "infeasible" with a zero Farkas pair, which proves nothing, and
    spoil the primal criterion's scale candidate (`spoiled`), which would
    otherwise answer in the LP's place."""
    candidate = engine._scale_candidate
    monkeypatch.setattr(engine, "_scale_candidate",
                        lambda inst, rep: spoiled(candidate(inst, rep)))
    solve = lp.solve

    def tampered(program):
        if sys._getframe(1).f_code.co_name != "cone_closed_regarding":
            return solve(program)
        return lp.LPOutcome(lp.INFEASIBLE,
                            farkas_ineq=[ZERO] * len(program.G),
                            farkas_eq=[ZERO] * len(program.E))

    monkeypatch.setattr(lp, "solve", tampered)
