"""Relabeling changes no verdict.

The paper's objects carry no order, but the library does: states are bit
positions, outcomes are indices and act lists keep their given order.  A
model declared with its states and outcomes in another order, swept over
the same acts listed in another order, must give the same census.
"""
from __future__ import annotations

import random
from collections import Counter

from conftest import random_model
from lexeu.acts import Act, OutcomeSpace, enumerate_acts
from lexeu.conditioning import observability_check
from lexeu.events import StateSpace
from lexeu.model import GsleuModel, Level

COUNTS = (
    "total_instances", "equivalent_count", "fineness_failure_count", "anomaly_count",
    "strong_count", "strong_and_indexed_count", "condition_instances", "condition_equivalent",
)


def relabeled(m: GsleuModel, rng: random.Random) -> GsleuModel:
    """m with its states and outcomes declared in a shuffled order."""
    states = rng.sample(m.space.states, m.space.size)
    outcomes = rng.sample(m.outcome_space.outcomes, m.outcome_space.size)
    space, ospace = StateSpace(tuple(states)), OutcomeSpace(tuple(outcomes))
    state_at = [m.space.index(s) for s in states]
    outcome_at = [m.outcome_space.index(o) for o in outcomes]
    levels = tuple(
        Level(
            space.event(lv.support.labels),
            tuple(lv.prob[i] for i in state_at),
            tuple(lv.utility[o] for o in outcome_at),
        )
        for lv in m.levels
    )
    return GsleuModel(space, ospace, levels)


def by_name(entries) -> Counter:
    """Census entries as a multiset, each event a label set and each act a
    state-to-outcome mapping."""
    return Counter(
        (frozenset(e.event.labels), frozenset(e.f.as_mapping().items()),
         frozenset(e.g.as_mapping().items()), *e[3:])
        for e in entries
    )


def test_census_is_invariant_under_relabeling():
    rng = random.Random(2121)
    failures = 0
    for n in range(40):
        m = random_model(rng, 2, 4, shared_order=n % 2 == 0)
        acts = list(enumerate_acts(m.space, m.outcome_space))
        if len(acts) > 27:
            acts = rng.sample(acts, 16)
        acts.append(rng.choice(acts))  # a repeated act
        other = relabeled(m, rng)
        moved = [Act.from_mapping(other.space, other.outcome_space, a.as_mapping()) for a in acts]
        rng.shuffle(moved)
        before, after = observability_check(m, acts=acts), observability_check(other, acts=moved)
        assert [getattr(before, c) for c in COUNTS] == [getattr(after, c) for c in COUNTS]
        assert by_name(before.fineness_failures) == by_name(after.fineness_failures)
        assert by_name(before.anomalies) == by_name(after.anomalies)
        failures += len(before.fineness_failures)
    assert failures  # the multiset comparison is not vacuous
