from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from conftest import act_of, build_m0, coprime_affine_model, ev, random_model
from lexeu.acts import compose, enumerate_acts
from lexeu.conditioning import (
    ConditioningVerdict,
    ObsClass,
    fineness_holds,
    observability_check,
    savage_conditional,
    strong_conditional_strict,
)
from lexeu.events import Event, singleton_partition
from lexeu.model import class_of, conditional_measure
from lexeu.preference import (
    LexVerdict,
    Ordering,
    indexed_prefer,
    lex_prefer,
    lex_prefer_bruteforce,
)

M0 = build_m0()
f = act_of(M0, "b", "a", "c", "a")
g = act_of(M0, "a", "b", "a", "c")
f_wedge = act_of(M0, "b", "a", "c", "a")
g_wedge = act_of(M0, "b", "a", "a", "a")


def test_savage_frozen_values():
    assert savage_conditional(M0, ev(M0, "s3", "s4"), f, g) == LexVerdict(
        Ordering.STRICTLY_PREFER, 2
    )
    assert savage_conditional(M0, ev(M0, "s1", "s3"), f_wedge, g_wedge) == LexVerdict(
        Ordering.STRICTLY_PREFER, 2
    )
    assert savage_conditional(M0, M0.space.empty, f, g) == LexVerdict(
        Ordering.INDIFFERENT, None
    )


def _differential_models():
    """M0, a model whose integer image needs co-prime probability
    denominators and negative fractional utilities, and seeded random
    models."""
    rng = random.Random(3737)
    return [M0, coprime_affine_model()] + [random_model(rng) for _ in range(6)]


def test_savage_equals_composite_comparison_for_every_h():
    # savage_conditional and lex_prefer both run on the compiled kernel;
    # lex_prefer_bruteforce sums Fractions over conditional measures, so it
    # checks the kernel against arithmetic it does not share
    rng = random.Random(37)
    for m in _differential_models():
        acts = list(enumerate_acts(m.space, m.outcome_space))
        for _ in range(40):
            a = Event(m.space, rng.randrange(0, 1 << m.space.size))
            x, y = rng.choice(acts), rng.choice(acts)
            expected = savage_conditional(m, a, x, y)
            for _ in range(6):
                h = rng.choice(acts)
                fx, gy = compose(x, a, h), compose(y, a, h)
                assert lex_prefer(m, fx, gy) == expected
                assert lex_prefer_bruteforce(m, fx, gy) == expected


def test_wedge_instance_frozen():
    # savage-strict yet indexed-indifferent; the best constant breaks the
    # strong test on every partition because some cell contains s1
    a = ev(M0, "s1", "s3")
    assert indexed_prefer(M0, a, f_wedge, g_wedge) is Ordering.INDIFFERENT
    verdict = strong_conditional_strict(M0, a, f_wedge, g_wedge)
    assert verdict.savage_strict is True
    assert verdict.strong_strict is False
    assert verdict.failing_constant == "c"
    assert verdict.witness_partitions is None


def test_strong_holds_with_wide_gap():
    # two atoms and the maximal gap: singleton cells survive every constant
    a = ev(M0, "s1", "s2")
    x = act_of(M0, "c", "c", "a", "a")
    y = act_of(M0, "a", "a", "a", "a")
    verdict = strong_conditional_strict(M0, a, x, y)
    assert verdict.savage_strict and verdict.strong_strict
    assert verdict.failing_constant is None
    assert set(verdict.witness_partitions) == {"a", "b", "c"}
    assert verdict.coarse_constants == ()


def test_singleton_event_never_strong():
    # a one-atom event has only the trivial partition; raising the weaker
    # act to the best outcome on that single cell ties or beats the other
    # composite, so the strong test cannot hold however large the gap
    a = ev(M0, "s3")
    x = act_of(M0, "a", "a", "c", "a")
    y = act_of(M0, "a", "a", "a", "a")
    verdict = strong_conditional_strict(M0, a, x, y)
    assert verdict.savage_strict and not verdict.strong_strict
    assert verdict.failing_constant == "c"


def test_strong_requires_savage():
    verdict = strong_conditional_strict(M0, ev(M0, "s1"), g, g)
    assert verdict == ConditioningVerdict(False, False, None, None)


def test_verdict_invariants_enforced():
    with pytest.raises(ValueError):
        ConditioningVerdict(False, True, None, None)
    with pytest.raises(ValueError):
        ConditioningVerdict(True, False, None, None)


def test_h_invariance_exhaustive_on_samples():
    rng = random.Random(41)
    acts = list(enumerate_acts(M0.space, M0.outcome_space))
    for _ in range(3):
        a = Event(M0.space, rng.randrange(1, 16))
        x, y = rng.choice(acts), rng.choice(acts)
        base = strong_conditional_strict(M0, a, x, y)
        for h in acts:
            assert strong_conditional_strict(M0, a, x, y, h=h) == base


def _fineness_by_fractions(m, a, f, g) -> bool:
    """The fineness condition written out over the Fraction conditional
    measure and the class level's utilities."""
    measure = conditional_measure(m, a)
    utility = m.level(class_of(m, a)).utility
    gap = sum(
        (measure[i] * (utility[f.assignment[i]] - utility[g.assignment[i]]) for i in a.members),
        F(0),
    )
    return max(measure) * (max(utility) - min(utility)) < abs(gap)


def test_fineness_condition_values():
    # wedge instance: indexed tie means zero gap, condition cannot hold
    assert fineness_holds(M0, ev(M0, "s1", "s3"), f_wedge, g_wedge) is False
    # single-atom event: max atom mass 1 and positive range beat any gap
    assert (
        fineness_holds(M0, ev(M0, "s3"), act_of(M0, "a", "a", "c", "a"), act_of(M0, "a", "a", "a", "a"))
        is False
    )
    rng = random.Random(53)
    outcomes = {True: 0, False: 0}
    for m in _differential_models():
        acts = list(enumerate_acts(m.space, m.outcome_space))
        for _ in range(150):
            a = Event(m.space, rng.randrange(1, 1 << m.space.size))
            x, y = rng.choice(acts), rng.choice(acts)
            expected = _fineness_by_fractions(m, a, x, y)
            assert fineness_holds(m, a, x, y) is expected
            outcomes[expected] += 1
    assert min(outcomes.values()) > 20  # both verdicts are exercised


def test_observability_m0_small_sample():
    rng = random.Random(43)
    acts = list(enumerate_acts(M0.space, M0.outcome_space))
    sample = [acts[i] for i in rng.sample(range(81), 8)]
    report = observability_check(M0, acts=sample)
    assert report.ok
    assert report.total_instances == 15 * 8 * 7
    assert report.strong_count == report.strong_and_indexed_count
    assert report.condition_instances == report.condition_equivalent
    assert (
        report.equivalent_count
        + report.fineness_failure_count
        + report.anomaly_count
        == report.total_instances
    )
    for entry in report.fineness_failures:
        assert entry.indexed_strict and not entry.strong_strict
        assert entry.classification is ObsClass.FINENESS_FAILURE


def test_observability_fine_model_all_condition_instances_equivalent():
    rng = random.Random(47)
    m = random_model(rng, n_min=5, n_max=5, k_max=1)
    acts = list(enumerate_acts(m.space, m.outcome_space))
    sample = [acts[i] for i in rng.sample(range(len(acts)), 7)]
    report = observability_check(m, acts=sample)
    assert report.ok
    assert report.condition_equivalent == report.condition_instances
