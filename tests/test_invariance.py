"""Relabeling changes no verdict.

The paper's objects carry no order, but the library does: states are bit
positions, outcomes are indices and act lists keep their given order.  A
model declared with its states and outcomes in another order, swept over
the same acts listed in another order, must give the same census, the
same rankings and, wherever no quantifier was sampled, the same axiom
verdicts.
"""
from __future__ import annotations

import random
from collections import Counter

from conftest import random_model
from lexeu.acts import Act, OutcomeSpace, enumerate_acts
from lexeu.axioms import AxiomStatus, check_all, replay_witness
from lexeu.conditioning import observability_check
from lexeu.events import Event, StateSpace
from lexeu.family import TableBackedFamily, derive_table
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


def mapping(act: Act) -> frozenset:
    return frozenset(act.as_mapping().items())


def rankings(table: TableBackedFamily) -> dict:
    """The table's rankings keyed by event label set (None for the
    unconditional one), each tier the set of its acts as mappings."""
    def tiers(entry):
        return tuple(frozenset(mapping(table.acts[n]) for n in tier) for tier in entry)

    out = {frozenset(Event(table.space, m).labels): tiers(t) for m, t in table.tiers.items()}
    out[None] = tiers(table.unconditional)
    return out


def moved(table: TableBackedFamily, other: GsleuModel, rng: random.Random) -> TableBackedFamily:
    """The table over the relabeled model's spaces: the same names for the
    same mappings, events by their labels, the act list shuffled."""
    names = list(table.acts)
    rng.shuffle(names)
    acts = {
        n: Act.from_mapping(other.space, other.outcome_space, table.acts[n].as_mapping())
        for n in names
    }
    tiers = {
        other.space.event(Event(table.space, m).labels).mask: t for m, t in table.tiers.items()
    }
    return TableBackedFamily(other.space, other.outcome_space, acts, tiers, table.unconditional)


def swapped(table: TableBackedFamily, rng: random.Random) -> TableBackedFamily:
    """The table with two adjacent tiers exchanged at one seeded event."""
    mask = rng.choice(sorted(m for m, t in table.tiers.items() if len(t) >= 2))
    entry = list(table.tiers[mask])
    i = rng.randrange(len(entry) - 1)
    entry[i], entry[i + 1] = entry[i + 1], entry[i]
    return TableBackedFamily(
        table.space, table.outcome_space, dict(table.acts),
        {**table.tiers, mask: tuple(entry)}, table.unconditional,
    )


def exhaustive(report) -> bool:
    return all(v == "exhaustive" for k, v in report.statistics.items() if k.endswith("_regime"))


def test_derived_table_is_invariant_under_relabeling():
    rng = random.Random(2222)
    for n in range(24):
        m = random_model(rng, 2, 4, n_outcomes=2 + n % 2, shared_order=n % 4 < 2)
        table = derive_table(m)
        other = relabeled(m, rng)
        assert rankings(derive_table(other)) == rankings(table)
        assert rankings(moved(table, other, rng)) == rankings(table)


def test_verdicts_are_invariant_under_relabeling_and_witnesses_replay():
    rng = random.Random(2223)
    compared = violated = 0
    for n in range(12):
        m = random_model(rng, 2, 4, n_outcomes=2 + n % 2, shared_order=n % 4 < 2)
        table = derive_table(m)
        if n % 3:
            table = swapped(table, rng)
        other = moved(table, relabeled(m, rng), rng)
        suites = check_all(table, budget=20_000), check_all(other, budget=20_000)
        for before, after in zip(*(s.reports for s in suites)):
            if exhaustive(before) and exhaustive(after):
                assert before.status is after.status, (n, before.axiom_id)
                compared += 1
                violated += before.status is AxiomStatus.VIOLATED
        for family, suite in zip((table, other), suites):
            for r in suite.reports:
                for w in r.witnesses:
                    assert replay_witness(family, r.axiom_id, w) is False, (n, r.axiom_id, w)
    assert compared and violated  # neither comparison is vacuous
