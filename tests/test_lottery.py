from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import act_of, build_m0, ev, random_model
from oracles import calibration_weight
from lexeu.acts import OutcomeSpace, compose, constant_act, enumerate_acts
from lexeu.errors import AtomGranularity, NotNormalized, SpaceMismatch
from lexeu.events import Event
from lexeu.lottery import (
    Lottery,
    act_from_lottery,
    induced_lottery,
    lottery_compare,
    mix,
    normalize_lottery,
)
from lexeu.preference import Ordering, indexed_prefer

M0 = build_m0()
f = act_of(M0, "b", "a", "c", "a")
g = act_of(M0, "a", "b", "a", "c")


def lot(**weights) -> Lottery:
    return Lottery.from_weights(M0.outcome_space, {k: F(v) for k, v in weights.items()})


def test_lottery_construction_and_normalization():
    l = normalize_lottery(M0.outcome_space, {"a": F(1, 2), "b": F(1, 2), "c": F(0)})
    assert l.support == ("a", "b")
    assert l.weight_of("c") == 0
    with pytest.raises(NotNormalized):
        normalize_lottery(M0.outcome_space, {"a": F(1, 3)})
    with pytest.raises(ValueError):
        normalize_lottery(M0.outcome_space, {"a": F(-1), "b": F(2)})
    # duplicates merge
    merged = normalize_lottery(M0.outcome_space, [("a", F(1, 4)), ("a", F(1, 4)), ("b", F(1, 2))])
    assert merged == lot(a="1/2", b="1/2")


def test_induced_lottery_frozen():
    assert induced_lottery(M0, ev(M0, "s1", "s2"), f) == lot(a="1/2", b="1/2")
    assert induced_lottery(M0, ev(M0, "s3", "s4"), g) == lot(a=1)


def test_lottery_compare_frozen():
    assert lottery_compare(M0, M0.space.full, lot(c=1), lot(a="1/2", b="1/2")) is Ordering.STRICTLY_PREFER
    assert lottery_compare(M0, ev(M0, "s3", "s4"), lot(b=1), lot(a="1/2", c="1/2")) is Ordering.STRICTLY_PREFER


def test_lottery_compare_matches_act_preference():
    # acts inducing the same lottery are indifferent, and lottery order is act order
    rng = random.Random(23)
    acts = list(enumerate_acts(M0.space, M0.outcome_space))
    for _ in range(200):
        a = Event(M0.space, rng.randrange(1, 16))
        x, y = rng.choice(acts), rng.choice(acts)
        lx, ly = induced_lottery(M0, a, x), induced_lottery(M0, a, y)
        assert lottery_compare(M0, a, lx, ly) == indexed_prefer(M0, a, x, y)
        if lx == ly:
            assert indexed_prefer(M0, a, x, y) is Ordering.INDIFFERENT


def test_mix_exact_and_bounds():
    l1, l2 = lot(a=1), lot(b="1/2", c="1/2")
    mixed = mix(F(1, 3), l1, l2)
    assert mixed == lot(a="1/3", b="1/3", c="1/3")
    assert mix(F(0), l1, l2) == l2
    assert mix(F(1), l1, l2) == l1
    with pytest.raises(ValueError):
        mix(F(3, 2), l1, l2)


@given(st.integers(0, 8), st.integers(1, 8))
def test_mix_weight_identity(num, den):
    if num > den:
        num, den = den, num
    rho = F(num, den)
    l1, l2 = lot(a="1/2", c="1/2"), lot(b=1)
    mixed = mix(rho, l1, l2)
    total = sum(mixed.as_mapping().values())
    assert total == 1
    assert mixed.weight_of("a") == rho / 2


def test_act_from_lottery_deterministic_first_solution():
    a = ev(M0, "s1", "s2")
    fill = constant_act("a", M0.space, M0.outcome_space)
    realized = act_from_lottery(M0, a, lot(a="1/2", b="1/2"), fill)
    assert realized.as_mapping() == {"s1": "a", "s2": "b", "s3": "a", "s4": "a"}


def test_act_from_lottery_granularity():
    a = ev(M0, "s1", "s2")
    fill = constant_act("a", M0.space, M0.outcome_space)
    with pytest.raises(AtomGranularity):
        act_from_lottery(M0, a, lot(a="1/3", b="2/3"), fill)


def test_act_from_lottery_roundtrip_random():
    rng = random.Random(29)
    for _ in range(80):
        m = random_model(rng, n_max=5)
        acts = list(enumerate_acts(m.space, m.outcome_space))
        x = rng.choice(acts)
        mask = rng.randrange(1, 1 << m.space.size)
        a = Event(m.space, mask)
        target = induced_lottery(m, a, x)
        fill = rng.choice(acts)
        realized = act_from_lottery(m, a, target, fill)
        # realizes the lottery and equals fill off the event
        assert induced_lottery(m, a, realized) == target
        for i in range(m.space.size):
            if not mask >> i & 1:
                assert realized.assignment[i] == fill.assignment[i]


def test_calibration_weight_unique():
    # mid outcome sits exactly between the extremes at level 1: 1 = rho*2
    rho = calibration_weight(M0, M0.space.full, lot(b=1), lot(c=1), lot(a=1))
    assert rho == F(1, 2)
    mixed = mix(rho, lot(c=1), lot(a=1))
    assert lottery_compare(M0, M0.space.full, mixed, lot(b=1)) is Ordering.INDIFFERENT
    with pytest.raises(ValueError):
        calibration_weight(M0, M0.space.full, lot(b=1), lot(a=1), lot(a=1))


@pytest.mark.parametrize("outcomes", [("x", "y", "z"), ("a", "b")])
def test_calibration_weight_rejects_a_foreign_lottery(outcomes):
    # same size as M0's outcomes, or smaller: never read as M0's utilities
    foreign = Lottery.from_weights(OutcomeSpace(outcomes), {outcomes[-1]: F(1)})
    for args in ((foreign, lot(c=1), lot(a=1)), (lot(b=1), foreign, lot(a=1)),
                 (lot(b=1), lot(c=1), foreign)):
        with pytest.raises(SpaceMismatch):
            calibration_weight(M0, M0.space.full, *args)


def test_mixture_monotonicity():
    # if l1 beats l2 then a higher weight on l1 is strictly better
    l1, l2 = lot(c=1), lot(a=1)
    a = M0.space.full
    assert lottery_compare(M0, a, mix(F(2, 3), l1, l2), mix(F(1, 3), l1, l2)) is Ordering.STRICTLY_PREFER
    # independence: mixing both sides with a common third preserves order
    l3 = lot(b=1)
    rng = random.Random(31)
    for _ in range(50):
        rho = F(rng.randint(1, 7), 8)
        base = lottery_compare(M0, a, l1, l2)
        mixed = lottery_compare(M0, a, mix(rho, l1, l3), mix(rho, l2, l3))
        assert base == mixed
