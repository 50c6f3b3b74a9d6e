"""Shared fixtures: the four-state reference model and a seeded generator."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from lexeu.acts import Act, OutcomeSpace
from lexeu.events import Event, StateSpace
from lexeu.model import GsleuModel, Level


def build_m0() -> GsleuModel:
    """Four states, three outcomes, three levels.

    Level 1: {s1, s2} fifty-fifty, utilities a:0 b:1 c:2.
    Level 2: {s3} certain, utilities a:0 b:3 c:4.
    Level 3: {s4} certain, utilities a:0 b:1 c:2.
    """
    space = StateSpace(("s1", "s2", "s3", "s4"))
    ospace = OutcomeSpace(("a", "b", "c"))
    levels = (
        Level.from_mappings(
            space, ospace, ("s1", "s2"),
            {"s1": F(1, 2), "s2": F(1, 2)},
            {"a": F(0), "b": F(1), "c": F(2)},
        ),
        Level.from_mappings(
            space, ospace, ("s3",), {"s3": F(1)}, {"a": F(0), "b": F(3), "c": F(4)}
        ),
        Level.from_mappings(
            space, ospace, ("s4",), {"s4": F(1)}, {"a": F(0), "b": F(1), "c": F(2)}
        ),
    )
    return GsleuModel(space, ospace, levels)


@pytest.fixture(scope="session")
def m0() -> GsleuModel:
    return build_m0()


@pytest.fixture(scope="session")
def m0_table(m0):
    from lexeu.family import derive_table

    return derive_table(m0)


def act_of(m: GsleuModel, *outcomes: str) -> Act:
    return Act.from_mapping(
        m.space, m.outcome_space, dict(zip(m.space.states, outcomes))
    )


def ev(m: GsleuModel, *labels: str) -> Event:
    return m.space.event(labels)


def vertex_oracle_2d(system) -> bool:
    """Independent feasibility decision for 2-variable systems whose weak
    closure is bounded (callers must include a bounding box).

    All pairwise boundary intersections that satisfy the closure are
    collected; their centroid lies in the closure's relative interior, so
    the strict system is satisfiable iff the centroid satisfies it.
    """
    from fractions import Fraction as F
    from itertools import combinations

    from lexeu.feasibility import Rel

    x, y = system.variables

    def boundary(c):
        return c.coeffs.get(x, F(0)), c.coeffs.get(y, F(0)), c.rhs

    points = []
    for c1, c2 in combinations(system.constraints, 2):
        a1, b1, r1 = boundary(c1)
        a2, b2, r2 = boundary(c2)
        det = a1 * b2 - a2 * b1
        if det:
            points.append(((r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det))

    def weakly_ok(px, py):
        val = {x: px, y: py}
        for c in system.constraints:
            lhs = c.evaluate(val)
            if c.rel is Rel.EQ:
                if lhs != c.rhs:
                    return False
            elif lhs < c.rhs:
                return False
        return True

    hull = [(px, py) for px, py in points if weakly_ok(px, py)]
    if not hull:
        return False
    cx = sum(p for p, _ in hull) / len(hull)
    cy = sum(q for _, q in hull) / len(hull)
    centroid = {x: cx, y: cy}
    return all(c.satisfied_by(centroid) for c in system.constraints)


def coprime_affine_model() -> GsleuModel:
    """Five states, three outcomes, two levels, built so that integer
    scaling has work to do: level 1's probabilities have co-prime
    denominators (7, 11, 13 and their product), and both utility tables
    are positive affine images of a:0 b:1 c:3 with negative fractional
    values."""
    space = StateSpace(("s1", "s2", "s3", "s4", "s5"))
    ospace = OutcomeSpace(("a", "b", "c"))
    base = {"a": F(0), "b": F(1), "c": F(3)}
    maps = ((F(2, 7), F(-9, 5)), (F(5, 3), F(-11, 2)))
    probs = (
        {"s1": F(1, 7), "s2": F(1, 11), "s3": F(1, 13), "s4": F(690, 1001)},
        {"s5": F(1)},
    )
    levels = tuple(
        Level.from_mappings(
            space, ospace, tuple(prob), prob, {o: a * u + b for o, u in base.items()}
        )
        for prob, (a, b) in zip(probs, maps)
    )
    return GsleuModel(space, ospace, levels)


def random_model(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 6,
    n_outcomes: int = 3,
    k_max: int = 4,
    shared_order: bool = True,
) -> GsleuModel:
    """A seeded valid model: random level partition, positive rational
    probabilities, and utilities sharing one strict outcome order (each
    level drawing its own order when shared_order is False)."""
    n = rng.randint(n_min, n_max)
    space = StateSpace(tuple(f"s{i + 1}" for i in range(n)))
    ospace = OutcomeSpace(tuple("abcdefgh"[:n_outcomes]))
    depth = rng.randint(1, min(k_max, n))
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), depth - 1)) if depth > 1 else []
    blocks = [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]

    outcome_rank = list(range(n_outcomes))
    rng.shuffle(outcome_rank)

    levels = []
    for block in blocks:
        if not shared_order:
            rng.shuffle(outcome_rank)
        weights = {i: rng.randint(1, 9) for i in block}
        total = sum(weights.values())
        prob = tuple(
            F(weights[i], total) if i in weights else F(0) for i in range(n)
        )
        values = sorted(rng.sample(range(0, 13), n_outcomes))
        utility = [F(0)] * n_outcomes
        for pos, out_idx in enumerate(outcome_rank):
            utility[out_idx] = F(values[pos])
        mask = 0
        for i in block:
            mask |= 1 << i
        levels.append(Level(Event(space, mask), prob, tuple(utility)))
    return GsleuModel(space, ospace, tuple(levels))
