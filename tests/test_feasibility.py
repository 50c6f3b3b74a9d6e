"""Solver behavior: exactness, determinism, and oracle agreement."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from lexeu.errors import CapExceeded, MalformedSystem
from lexeu.feasibility import ConstraintSystem, Rel, optimize_closure, solve

from conftest import vertex_oracle_2d
from oracles import fourier_motzkin_feasible


def system(variables, *rows):
    sys = ConstraintSystem(tuple(variables))
    for coeffs, rel, rhs in rows:
        sys.add(coeffs, rel, rhs)
    return sys


def test_pinned_point():
    res = solve(system(["x"], ({"x": 1}, Rel.GE, 0), ({"x": -1}, Rel.GE, 0)))
    assert res.feasible
    assert res.assignment == {"x": F(0)}
    assert res.slack is None


def test_strict_contradiction():
    res = solve(system(["x"], ({"x": 1}, Rel.GT, 0), ({"x": -1}, Rel.GT, 0)))
    assert not res.feasible
    assert res.assignment is None


def test_probability_with_strict_gap():
    res = solve(
        system(
            ["p1", "p2"],
            ({"p1": 1, "p2": 1}, Rel.EQ, 1),
            ({"p1": 1, "p2": -1}, Rel.GT, 0),
            ({"p2": 1}, Rel.GT, 0),
        )
    )
    assert res.feasible
    p1, p2 = res.assignment["p1"], res.assignment["p2"]
    assert p1 + p2 == 1 and p1 > p2 > 0
    assert res.slack == min(p1 - p2, p2)
    # margin maximization pins the midpoint of the two strict constraints
    assert (p1, p2) == (F(2, 3), F(1, 3))


def test_empty_system_is_feasible():
    res = solve(ConstraintSystem(("x", "y")))
    assert res.feasible and res.assignment == {"x": F(0), "y": F(0)}


def test_negative_rational_solution():
    res = solve(system(["x"], ({"x": 1}, Rel.EQ, F(-7, 3))))
    assert res.feasible and res.assignment["x"] == F(-7, 3)


def test_strict_cap_does_not_misreport_slack():
    # the margin variable maxes out at 1, but the reported slack is the
    # actual minimum margin of the returned point
    res = solve(system(["x"], ({"x": 1}, Rel.EQ, 5), ({"x": 1}, Rel.GT, 0)))
    assert res.feasible
    assert res.assignment["x"] == 5
    assert res.slack == 5


def test_determinism():
    def build():
        return system(
            ["a", "b", "c"],
            ({"a": 1, "b": 1, "c": 1}, Rel.EQ, 1),
            ({"a": 1, "b": -1}, Rel.GT, 0),
            ({"b": 1, "c": -1}, Rel.GT, 0),
            ({"c": 1}, Rel.GT, 0),
        )

    first = solve(build())
    second = solve(build())
    assert first == second


def test_caps_and_malformed():
    with pytest.raises(CapExceeded) as info:
        solve(ConstraintSystem(tuple(f"x{i}" for i in range(33))))
    assert (info.value.needed, info.value.cap) == (33, 32)
    assert str(info.value) == "system has 33 variables, cap is 32"
    crowded = system(["x"], *[({"x": 1}, Rel.GE, -i) for i in range(5001)])
    with pytest.raises(CapExceeded) as info:
        solve(crowded)
    assert (info.value.needed, info.value.cap) == (5001, 5000)
    assert str(info.value) == "system has 5001 constraints, cap is 5000"
    with pytest.raises(MalformedSystem):
        solve(system(["x"], ({"y": 1}, Rel.GE, 0)))
    with pytest.raises(MalformedSystem):
        ConstraintSystem(("x", "x"))


def test_optimize_closure_bounds():
    sys = system(["x"], ({"x": 1}, Rel.GE, 2), ({"x": -1}, Rel.GE, -5))
    hi = optimize_closure(sys, {"x": F(1)}, maximize=True)
    lo = optimize_closure(sys, {"x": F(1)}, maximize=False)
    assert hi[0] == 5 and lo[0] == 2
    assert hi[1]["x"] == 5 and lo[1]["x"] == 2


def test_optimize_closure_reads_strict_as_weak():
    sys = system(["x"], ({"x": 1}, Rel.GT, 2), ({"x": -1}, Rel.GE, -5))
    lo = optimize_closure(sys, {"x": F(1)}, maximize=False)
    assert lo[0] == 2


def test_optimize_closure_empty():
    sys = system(["x"], ({"x": 1}, Rel.GE, 2), ({"x": -1}, Rel.GE, -1))
    assert optimize_closure(sys, {"x": F(1)}) is None


def test_optimize_closure_unbounded():
    sys = system(["x"], ({"x": 1}, Rel.GE, 2))
    with pytest.raises(MalformedSystem):
        optimize_closure(sys, {"x": F(1)}, maximize=True)


def test_fm_handles_equalities():
    assert fourier_motzkin_feasible(
        system(["x"], ({"x": 1}, Rel.EQ, 3), ({"x": 1}, Rel.GT, 2))
    )
    assert not fourier_motzkin_feasible(
        system(["x"], ({"x": 1}, Rel.EQ, 3), ({"x": 1}, Rel.GT, 3))
    )


def test_fm_strictness_propagates():
    # x > 0 and x <= 0 has an empty intersection though the closure meets
    assert not fourier_motzkin_feasible(
        system(["x", "y"], ({"x": 1}, Rel.GT, 0), ({"x": -1}, Rel.GE, 0))
    )


def test_fm_caps():
    with pytest.raises(CapExceeded) as info:
        fourier_motzkin_feasible(ConstraintSystem(tuple(f"x{i}" for i in range(9))))
    assert (info.value.needed, info.value.cap) == (9, 8)
    assert str(info.value) == "Fourier-Motzkin elimination over 9 variables, cap is 8"


def _random_system(rng: random.Random) -> ConstraintSystem:
    sys = ConstraintSystem(("x", "y"))
    box = 4
    sys.add({"x": 1}, Rel.GE, -box)
    sys.add({"x": -1}, Rel.GE, -box)
    sys.add({"y": 1}, Rel.GE, -box)
    sys.add({"y": -1}, Rel.GE, -box)
    for _ in range(rng.randint(2, 5)):
        coeffs = {}
        while not coeffs:
            coeffs = {
                v: rng.randint(-3, 3) for v in ("x", "y") if rng.random() < 0.8
            }
            coeffs = {v: c for v, c in coeffs.items() if c}
        rel = rng.choice([Rel.GE, Rel.GT, Rel.GT, Rel.EQ])
        sys.add(coeffs, rel, F(rng.randint(-6, 6), 2))
    return sys


def test_solver_agrees_with_oracles():
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(120):
        sys = _random_system(rng)
        got = solve(sys).feasible
        assert got == vertex_oracle_2d(sys)
        assert got == fourier_motzkin_feasible(sys)
        outcomes[got] += 1
    # the generator must actually exercise both verdicts
    assert outcomes[True] > 10 and outcomes[False] > 10
