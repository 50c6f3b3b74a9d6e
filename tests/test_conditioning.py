from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from conftest import act_of, build_m0, coprime_affine_model, ev, random_model
from oracles import enumerate_partitions, singleton_partition
from lexeu import events
from lexeu.acts import Act, OutcomeSpace, compose, constant_act, enumerate_acts
from lexeu.caps import PARTITION_ENUM_CAP
from lexeu.conditioning import (
    ConditioningVerdict,
    ObsClass,
    ObservabilityEntry,
    ObservabilityReport,
    _first_fit,
    fineness_holds,
    observability_check,
    savage_conditional,
    strong_conditional_strict,
)
from lexeu.errors import CapExceeded, SpaceMismatch
from lexeu.events import Event, StateSpace
from lexeu.kernel import Kernel
from lexeu.model import GsleuModel, Level, class_of, conditional_measure
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


def test_kernel_difference_matches_level_fractions():
    # entry k is scale[k] times the level-k expected-utility difference on
    # the event's states in level k's support, summed in Fractions off the
    # levels; the empty event and equal acts give all zeros
    rng = random.Random(4141)
    for m in _differential_models():
        kern = m.kernel
        acts = [x.assignment for x in enumerate_acts(m.space, m.outcome_space)]
        full = (1 << m.space.size) - 1
        for mask in [0, full] + [rng.randrange(1, full + 1) for _ in range(30)]:
            a = Event(m.space, mask)
            x = rng.choice(acts)
            for y in (x, rng.choice(acts)):
                expected = [
                    kern.scale[k]
                    * sum(
                        (
                            lv.prob[i] * (lv.utility[x[i]] - lv.utility[y[i]])
                            for i in Event(m.space, mask & lv.support.mask).members
                        ),
                        F(0),
                    )
                    for k, lv in enumerate(m.levels)
                ]
                diff = kern.difference(mask, x, y)
                assert diff == expected
                k = class_of(m, a)
                assert not any(diff[: m.depth if k is None else k - 1])
                if x == y:
                    assert not any(diff)


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


def test_partition_search_is_capped_before_it_starts(monkeypatch):
    # one level, nine equally likely states: against g = a everywhere,
    # f = b on s1 fails the singleton cell {s1} for the best constant c,
    # and the coarser search would range over Bell(9) partitions
    space = StateSpace(tuple(f"s{i}" for i in range(1, 10)))
    ospace = OutcomeSpace(("a", "b", "c"))
    level = Level.from_mappings(
        space, ospace, space.states,
        {s: F(1, 9) for s in space.states},
        {"a": F(0), "b": F(1), "c": F(2)},
    )
    m = GsleuModel(space, ospace, (level,))
    x, y = act_of(m, "b", *"a" * 8), act_of(m, *"a" * 9)

    def enumerated(members):
        raise AssertionError("partitions enumerated past the cap")

    monkeypatch.setattr(events, "partition_masks", enumerated)
    with pytest.raises(CapExceeded) as strong:
        strong_conditional_strict(m, space.full, x, y)
    with pytest.raises(CapExceeded) as census:
        observability_check(m, acts=[x, y], events=[space.full])
    for info in (strong, census):
        assert (info.value.needed, info.value.cap) == (21147, PARTITION_ENUM_CAP)
    assert str(strong.value) == str(census.value)


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


# -- the census and the partition search against per-instance references --


def _census_reference(m, acts, events):
    """observability_check as a loop over ordered instances that calls the
    public verdicts for each one: the savage-strict direction of a pair
    first (x before y when neither is), classified by the documented rule."""
    counts = dict.fromkeys(
        ("total", "equivalent", "finefail", "anomaly", "strong", "strong_indexed",
         "cond", "cond_equiv"),
        0,
    )
    fails, anomalies = [], []
    for a in events:
        for i, x in enumerate(acts):
            for y in acts[i + 1 :]:
                order = [(x, y), (y, x)]
                if savage_conditional(m, a, x, y).ordering is Ordering.STRICTLY_DISPREFER:
                    order.reverse()
                for p, q in order:
                    savage = savage_conditional(m, a, p, q).ordering is Ordering.STRICTLY_PREFER
                    indexed = indexed_prefer(m, a, p, q) is Ordering.STRICTLY_PREFER
                    strong = savage and strong_conditional_strict(m, a, p, q).strong_strict
                    fine = indexed and fineness_holds(m, a, p, q)
                    if strong == indexed:
                        cls = ObsClass.EQUIVALENT
                    elif indexed and not fine:
                        cls = ObsClass.FINENESS_FAILURE
                    else:
                        cls = ObsClass.ANOMALY
                    counts["total"] += 1
                    counts["strong"] += strong
                    counts["strong_indexed"] += strong and indexed
                    counts["cond"] += fine
                    counts["cond_equiv"] += fine and cls is ObsClass.EQUIVALENT
                    entry = ObservabilityEntry(a, p, q, savage, indexed, strong, fine, cls)
                    if cls is ObsClass.EQUIVALENT:
                        counts["equivalent"] += 1
                    elif cls is ObsClass.FINENESS_FAILURE:
                        counts["finefail"] += 1
                        fails.append(entry)
                    else:
                        counts["anomaly"] += 1
                        anomalies.append(entry)
    return ObservabilityReport(*counts.values(), tuple(fails), tuple(anomalies))


def test_census_matches_per_instance_reference():
    # the census classifies each pair of restrictions to an event once;
    # the reference classifies every ordered instance on its own
    rng = random.Random(5959)
    m0_acts = list(enumerate_acts(M0.space, M0.outcome_space))
    cases = [(M0, rng.sample(m0_acts, 8), None) for _ in range(3)]
    coprime = coprime_affine_model()
    cases.append(
        (coprime, rng.sample(list(enumerate_acts(coprime.space, coprime.outcome_space)), 10), None)
    )
    for m in [random_model(rng, 2, 4) for _ in range(6)] + _mixed_order_models()[:3]:
        acts = list(enumerate_acts(m.space, m.outcome_space))
        cases.append((m, acts if len(acts) <= 27 else rng.sample(acts, 12), None))
    # a repeated act and the empty event
    acts = rng.sample(m0_acts, 6)
    cases.append((M0, acts + acts[:2], list(M0.space.all_events())))
    # one event listed twice, and the empty event, on a mixed-order model
    m = _mixed_order_models()[1]
    all_events = list(m.space.all_events())
    cases.append((
        m, rng.sample(list(enumerate_acts(m.space, m.outcome_space)), 10),
        all_events + [all_events[6]],
    ))
    for m, acts, events in cases:
        event_list = events or [e for e in m.space.all_events() if not e.is_empty]
        expected = _census_reference(m, acts, event_list)
        assert observability_check(m, acts=acts, events=events) == expected
    assert expected.fineness_failures and expected.strong_count  # both branches exercised


def test_census_entry_order_under_interleaved_restriction_classes():
    # a shuffled full act list with three acts repeated, so at each
    # two-state event every restriction class holds acts scattered over the
    # list; the census counts per class and must still list entries in
    # act-pair order, with the empty event among the events
    rng = random.Random(6464)
    m = _mixed_order_models()[0]
    acts = list(enumerate_acts(m.space, m.outcome_space))
    acts += rng.sample(acts, 3)
    rng.shuffle(acts)
    events = [e for e in m.space.all_events() if e.size == 2] + [Event(m.space, 0)]
    expected = _census_reference(m, acts, events)
    assert observability_check(m, acts=acts, events=events) == expected
    assert len(expected.fineness_failures) > 1  # the order of entries shows


def test_observability_entry_contract():
    fields = (
        "event", "f", "g", "savage_strict", "indexed_strict", "strong_strict",
        "fineness_ok", "classification",
    )
    assert ObservabilityEntry._fields == fields
    values = (ev(M0, "s1", "s2"), f, g, True, True, False, False, ObsClass.FINENESS_FAILURE)
    entry = ObservabilityEntry(*values)
    same = ObservabilityEntry(**dict(zip(fields, values)))
    assert entry == same and hash(entry) == hash(same)
    assert entry.g is g and entry.classification is ObsClass.FINENESS_FAILURE
    assert repr(entry).startswith("ObservabilityEntry(event=")


def test_census_rejects_a_foreign_act_or_event():
    # the foreign act has the same assignment as x, so it falls in x's
    # restriction class at every event and no verdict would ever read it:
    # only the up-front check of every act and every event rejects it
    other = StateSpace(("t1", "t2", "t3", "t4"))
    x = act_of(M0, "a", "b", "c", "a")
    c = act_of(M0, "c", "c", "c", "c")
    foreign = Act(other, M0.outcome_space, x.assignment)
    with pytest.raises(SpaceMismatch):
        observability_check(M0, acts=[x, x, c, x, foreign])
    with pytest.raises(SpaceMismatch):
        observability_check(M0, acts=[x, f], events=[ev(M0, "s1"), other.full])


def _beats(m, x, y) -> bool:
    return lex_prefer(m, x, y).ordering is Ordering.STRICTLY_PREFER


def _strong_reference(m, a, x, y, h):
    """The strong conditional by definition: per constant, best first under
    level 1, the first partition (singletons, then enumerate_partitions'
    order) on every cell of which both perturbed composites still lose,
    judged by unconditional lex_prefer."""
    if savage_conditional(m, a, x, y).ordering is not Ordering.STRICTLY_PREFER:
        return ConditioningVerdict(False, False, None, None)
    fah, gah = compose(x, a, h), compose(y, a, h)
    singles = singleton_partition(a)
    candidates = [singles] + [p for p in enumerate_partitions(a) if p != singles]
    utility = m.levels[0].utility
    witnesses, coarse = {}, []
    for o in sorted(range(m.outcome_space.size), key=lambda o: (-utility[o], o)):
        label = m.outcome_space.outcomes[o]
        k = constant_act(label, m.space, m.outcome_space)
        found = next(
            (
                part
                for part in candidates
                if all(
                    _beats(m, compose(k, cell, fah), gah) and _beats(m, fah, compose(k, cell, gah))
                    for cell in part
                )
            ),
            None,
        )
        if found is None:
            return ConditioningVerdict(True, False, label, None)
        witnesses[label] = found
        if found != singles:
            coarse.append(label)
    return ConditioningVerdict(True, True, None, witnesses, tuple(coarse))


def _mixed_order_models():
    """Four-state models whose two levels order the outcomes differently:
    only there can a strong verdict carry a coarse witness."""
    rng = random.Random(6363)
    return [random_model(rng, 4, 4, k_max=2, shared_order=False) for _ in range(4)]


def test_strong_witnesses_match_partition_search_by_definition():
    rng = random.Random(6161)
    strong = coarse = 0
    for m in _differential_models() + _mixed_order_models():
        acts = list(enumerate_acts(m.space, m.outcome_space))
        draws = []
        for _ in range(1500):
            a = Event(m.space, rng.randrange(1, 1 << m.space.size))
            x, y, h = rng.choice(acts), rng.choice(acts), rng.choice(acts)
            if savage_conditional(m, a, x, y).ordering is Ordering.STRICTLY_DISPREFER:
                x, y = y, x
            draws.append((a, x, y, h))
        # the first 40 draws, and the first few later ones with a coarse
        # witness, which are rare
        draws = draws[:40] + [
            d for d in draws[40:] if strong_conditional_strict(m, *d).coarse_constants
        ][:4]
        for a, x, y, h in draws:
            rng.randrange(0, 4)  # unused; keeps the seeded sequence the counts below rest on
            expected = _strong_reference(m, a, x, y, h)
            got = strong_conditional_strict(m, a, x, y, h=h)
            assert got == expected
            strong += got.strong_strict
            coarse += bool(got.coarse_constants)
    assert strong > 20 and coarse >= 5  # coarse witnesses are exercised


def _four_level_coprime_model():
    """Six states, three outcomes, four levels whose probabilities and
    utilities have co-prime denominators, so each level is scaled by its
    own factor and the packed weights grow fast."""
    space = StateSpace(tuple(f"s{i}" for i in range(1, 7)))
    ospace = OutcomeSpace(("a", "b", "c"))
    spec = (
        ({"s1": F(2, 7), "s2": F(5, 7)}, {"a": F(-3, 11), "b": F(1, 13), "c": F(4, 3)}),
        ({"s3": F(1, 5), "s4": F(4, 5)}, {"a": F(7, 2), "b": F(-1, 17), "c": F(0)}),
        ({"s5": F(1)}, {"a": F(0), "b": F(2, 19), "c": F(5, 23)}),
        ({"s6": F(1)}, {"a": F(9, 29), "b": F(-4, 31), "c": F(1)}),
    )
    levels = tuple(
        Level.from_mappings(space, ospace, tuple(prob), prob, utility) for prob, utility in spec
    )
    return GsleuModel(space, ospace, levels)


def _lex_sign(v) -> int:
    """The sign of the first nonzero entry, 0 for none: the lexicographic
    rule on a per-level vector."""
    return next(((d > 0) - (d < 0) for d in v if d), 0)


def test_packed_sign_is_the_lexicographic_sign():
    # the packed form of D ± a cell's steps, summed as ints, against the
    # first-nonzero-level rule on the per-level lists; then vectors whose
    # entries sit at the packing bound of ±2·max_k(P_k·R_k)
    rng = random.Random(7171)
    models = _differential_models() + _mixed_order_models() + [_four_level_coprime_model()]
    signs = set()
    for m in models:
        kern = m.kernel
        weights, packed_steps = kern.packed
        n, o = m.space.size, m.outcome_space.size
        for _ in range(300):
            mask = rng.randrange(1, 1 << n)
            cell = rng.randrange(1, mask + 1) & mask or mask
            x, y = (tuple(rng.randrange(o) for _ in range(n)) for _ in range(2))
            c = rng.randrange(o)
            diff = kern.difference(mask, x, y)
            up, down = diff[:], diff[:]
            packed_up = packed_down = kern.pack(diff)
            for i in kern.members(cell):
                k = kern.level_of[i]
                up[k] += kern.steps[i][c][x[i]]
                down[k] -= kern.steps[i][c][y[i]]
                packed_up += packed_steps[i][c][x[i]]
                packed_down -= packed_steps[i][c][y[i]]
            for vec, packed in ((diff, kern.pack(diff)), (up, packed_up), (down, packed_down)):
                assert _lex_sign([packed]) == _lex_sign(vec)
                signs.add(_lex_sign(vec))
        bound = max(sum(p) * (max(u) - min(u)) for p, u in zip(kern.prob, kern.util))
        assert weights[-1] == 1 and all(w == (4 * bound + 1) * v for w, v in zip(weights, weights[1:]))
        entries = (-2 * bound, -1, 0, 1, 2 * bound)
        for _ in range(200):
            vec = [rng.choice(entries) for _ in range(m.depth)]
            assert _lex_sign([kern.pack(vec)]) == _lex_sign(vec)
    assert signs == {-1, 0, 1}


def test_partition_search_at_six_to_eight_states(monkeypatch):
    # events of 6 to 8 states on which the singletons fail for some
    # constant, so the subset-sum pass over the event's cells and the
    # first-fit scan over its partitions decide the verdict; four draws
    # carry a coarse witness
    built = []
    cells = Kernel.cells
    monkeypatch.setattr(Kernel, "cells", lambda self, mask: built.append(mask) or cells(self, mask))
    rng = random.Random(8181)
    draws = []
    for _ in range(12):
        m = random_model(rng, 6, 8, k_max=3, shared_order=False)
        n, o = m.space.size, m.outcome_space.size
        for _ in range(4):
            dropped = rng.sample(range(n), rng.randint(0, n - 6))
            a = Event(m.space, (1 << n) - 1 - sum(1 << i for i in dropped))
            for _ in range(10):
                x, y, h = (Act(m.space, m.outcome_space, tuple(rng.randrange(o) for _ in range(n)))
                           for _ in range(3))
                if savage_conditional(m, a, x, y).ordering is Ordering.STRICTLY_DISPREFER:
                    x, y = y, x
                built.clear()
                got = strong_conditional_strict(m, a, x, y, h=h)
                if built:
                    draws.append((m, a, x, y, h, got))
    # against the definition: four draws of each event size, and the first
    # four coarse witnesses
    picked = [d for size in (6, 7, 8) for d in [d for d in draws if d[1].size == size][:4]]
    picked += [d for d in draws if d[-1].coarse_constants and d not in picked][:4]
    for m, a, x, y, h, got in picked:
        assert got == _strong_reference(m, a, x, y, h)
    assert len(picked) == 16 and sum(bool(d[-1].coarse_constants) for d in picked) >= 4


def test_extreme_constants_are_settled_by_the_singletons():
    # a constant weakly best, or weakly worst, at every level holding a
    # state of the event: wherever its singletons fail, no partition in the
    # full cell table passes either, so the search can be skipped; then the
    # draws that a mixed constant's coarse partition makes strong, and some
    # that a mixed constant searched in vain, against the definition
    rng = random.Random(9292)
    settled = 0
    coarse, searched = [], []
    for t in range(120):
        o = rng.randint(2, 5)
        m = random_model(rng, 2, 6, n_outcomes=o, k_max=3, shared_order=t % 2 == 0)
        kern, n = m.kernel, m.space.size
        steps = kern.packed[1]
        for _ in range(50):
            mask = rng.randrange(1, 1 << n)
            x, y = (tuple(rng.randrange(o) for _ in range(n)) for _ in range(2))
            diff = kern.difference(mask, x, y)
            if _lex_sign(diff) < 0:
                x, y, diff = y, x, [-v for v in diff]
            d, members = kern.pack(diff), kern.members(mask)
            utilities = [m.levels[k].utility for k in {kern.level_of[i] for i in members}]
            fits = []
            for c in range(o):
                extreme = all(u[c] == max(u) for u in utilities) or all(
                    u[c] == min(u) for u in utilities
                )
                assert kern.extreme(mask)[c] == extreme
                if d <= 0 or all(d + steps[i][c][x[i]] > 0 < d - steps[i][c][y[i]] for i in members):
                    continue
                fit = _first_fit(kern.cells(mask), [row[c] for row in steps], d, x, y)
                if extreme:
                    assert fit is None
                    settled += 1
                fits.append((extreme, fit))
            draw = (m, Event(m.space, mask), x, y)
            if fits and all(fit is not None for _, fit in fits):
                coarse.append(draw)
            elif any(not extreme for extreme, _ in fits):
                searched.append(draw)
    assert settled > 5000 and len(coarse) >= 5 and len(searched) > 1000
    for draws, coarse_witness in ((coarse, True), (searched[:8], False)):
        for m, a, x, y in draws:
            f, g = (Act(m.space, m.outcome_space, v) for v in (x, y))
            expected = _strong_reference(m, a, f, g, g)
            assert strong_conditional_strict(m, a, f, g) == expected
            if coarse_witness:
                assert expected.coarse_constants


def test_extreme_constants_build_no_cell_table(monkeypatch):
    # one level, three states weighted 1:2:3, outcomes a < b < c: the best
    # and the worst constant are extreme, b is mixed; each pair's singletons
    # fail for one constant, and only b's failure builds the cell table
    space = StateSpace(("s1", "s2", "s3"))
    ospace = OutcomeSpace(("a", "b", "c"))
    level = Level.from_mappings(
        space, ospace, space.states,
        {"s1": F(1, 6), "s2": F(2, 6), "s3": F(3, 6)},
        {"a": F(0), "b": F(1), "c": F(2)},
    )
    m = GsleuModel(space, ospace, (level,))
    assert m.kernel.extreme(space.full.mask) == (True, False, True)
    built = []
    cells = Kernel.cells
    monkeypatch.setattr(Kernel, "cells", lambda self, mask: built.append(mask) or cells(self, mask))
    pairs = {
        "c": (("a", "a", "b"), ("a", "a", "a")),
        "b": (("b", "c", "c"), ("a", "b", "c")),
        "a": (("a", "b", "c"), ("a", "a", "b")),
    }
    for constant, (x, y) in pairs.items():
        built.clear()
        got = strong_conditional_strict(m, space.full, act_of(m, *x), act_of(m, *y))
        assert (got.savage_strict, got.failing_constant) == (True, constant)
        assert built == ([space.full.mask] if constant == "b" else [])
