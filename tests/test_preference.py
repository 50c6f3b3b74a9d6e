from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from conftest import act_of, build_m0, ev, random_model
from oracles import ClassMismatch, level_eu, risk_profile
from lexeu.acts import constant_act, enumerate_acts
from lexeu.errors import EmptyEvent, NotSubset
from lexeu.events import Event
from lexeu.family import ModelBackedFamily
from lexeu.model import class_of, top_event_chain
from lexeu.preference import (
    DEGENERATE,
    Dominance,
    LexVerdict,
    Ordering,
    class_partition,
    dominance,
    indexed_prefer,
    is_null_at,
    level_values,
    lex_prefer,
    lex_prefer_bruteforce,
    qual_prob_compare,
)

M0 = build_m0()
f = act_of(M0, "b", "a", "c", "a")
g = act_of(M0, "a", "b", "a", "c")
h = act_of(M0, "a", "a", "a", "b")


def _agree(m, a: Event, b: Event) -> bool:
    """Whether the rankings indexed by a and b coincide, read as the axiom
    checkers read it: equal signatures of the model's family."""
    fam = ModelBackedFamily(m)
    return fam.signature(a.mask) == fam.signature(b.mask)


def test_level_eu_frozen_values():
    assert level_eu(M0, 1, M0.space.full, f) == F(1, 2)
    assert level_eu(M0, 2, ev(M0, "s3", "s4"), f) == F(4)


def test_level_eu_class_mismatch():
    with pytest.raises(ClassMismatch):
        level_eu(M0, 2, M0.space.full, f)
    with pytest.raises(EmptyEvent):
        level_eu(M0, 1, M0.space.empty, f)


def test_level_values_match_chain():
    chain = top_event_chain(M0)
    values = level_values(M0, f)
    assert values == tuple(
        level_eu(M0, k, chain[k - 1], f) for k in range(1, M0.depth + 1)
    )
    assert values == (F(1, 2), F(4), F(0))


def test_indexed_prefer_frozen():
    assert indexed_prefer(M0, ev(M0, "s3", "s4"), f, g) is Ordering.STRICTLY_PREFER
    assert indexed_prefer(M0, ev(M0, "s1", "s2"), f, g) is Ordering.INDIFFERENT
    assert indexed_prefer(M0, M0.space.empty, f, g) is DEGENERATE


def test_indexed_prefer_only_depends_on_event_restriction():
    # values outside the indexing event are irrelevant
    rng = random.Random(5)
    for _ in range(50):
        m = random_model(rng, n_max=5)
        acts = list(enumerate_acts(m.space, m.outcome_space))
        x, y = rng.choice(acts), rng.choice(acts)
        mask = rng.randrange(1, 1 << m.space.size)
        a = Event(m.space, mask)
        z = rng.choice(acts)
        from lexeu.acts import compose

        assert indexed_prefer(m, a, x, y) == indexed_prefer(
            m, a, compose(x, a, z), compose(y, a, z)
        )


def test_lex_prefer_frozen():
    assert lex_prefer(M0, f, g) == LexVerdict(Ordering.STRICTLY_PREFER, 2)
    assert lex_prefer(M0, h, constant_act("a", M0.space, M0.outcome_space)) == LexVerdict(
        Ordering.STRICTLY_PREFER, 3
    )
    assert lex_prefer(M0, f, f) == LexVerdict(Ordering.INDIFFERENT, None)
    assert lex_prefer(M0, g, f) == LexVerdict(Ordering.STRICTLY_DISPREFER, 2)


def test_lex_matches_bruteforce_all_m0_pairs():
    acts = list(enumerate_acts(M0.space, M0.outcome_space))
    assert len(acts) == 81
    for i, x in enumerate(acts):
        for y in acts[i + 1 :]:
            assert lex_prefer(M0, x, y) == lex_prefer_bruteforce(M0, x, y)


def test_nullity_frozen():
    assert is_null_at(M0, ev(M0, "s3"), ev(M0, "s2", "s3")) is True
    assert is_null_at(M0, ev(M0, "s2"), ev(M0, "s2", "s3")) is False
    assert is_null_at(M0, M0.space.empty, M0.space.empty) is True
    with pytest.raises(NotSubset):
        is_null_at(M0, ev(M0, "s1"), ev(M0, "s2", "s3"))


def test_nullity_matches_definitional_agreement():
    # b null at a exactly when preferences at a and a-minus-b coincide
    rng = random.Random(11)
    for _ in range(30):
        m = random_model(rng, n_max=5)
        full = (1 << m.space.size) - 1
        a_mask = rng.randrange(1, full + 1)
        b_mask = a_mask & rng.randrange(0, full + 1)
        a, b = Event(m.space, a_mask), Event(m.space, b_mask)
        assert is_null_at(m, b, a) == _agree(m, a - b, a)


def test_no_nonempty_event_is_null_at_itself():
    rng = random.Random(12)
    for _ in range(30):
        m = random_model(rng)
        mask = rng.randrange(1, 1 << m.space.size)
        a = Event(m.space, mask)
        assert is_null_at(m, a, a) is False


def test_agreement_frozen():
    assert _agree(M0, ev(M0, "s2", "s3"), ev(M0, "s2")) is True
    assert _agree(M0, ev(M0, "s1", "s2"), ev(M0, "s3", "s4")) is False
    assert _agree(M0, M0.space.empty, M0.space.empty) is True
    assert _agree(M0, ev(M0, "s1"), M0.space.empty) is False


def test_agreement_matches_act_enumeration():
    # the analytic criterion equals literal comparison over every act pair
    acts = list(enumerate_acts(M0.space, M0.outcome_space))
    events = [e for e in M0.space.all_events()]
    rng = random.Random(13)
    for _ in range(25):
        a, b = rng.choice(events), rng.choice(events)
        if a.is_empty or b.is_empty:
            literal = a.is_empty and b.is_empty
        else:
            literal = all(
                indexed_prefer(M0, a, x, y) == indexed_prefer(M0, b, x, y)
                for x in acts
                for y in acts
            )
        assert _agree(M0, a, b) == literal


def test_qual_prob_frozen():
    a = ev(M0, "s1", "s2", "s3")
    assert qual_prob_compare(M0, a, ev(M0, "s1"), ev(M0, "s2")) is Ordering.INDIFFERENT
    assert qual_prob_compare(M0, a, ev(M0, "s1"), ev(M0, "s3")) is Ordering.STRICTLY_PREFER
    assert (
        qual_prob_compare(M0, a, M0.space.empty, M0.space.empty) is Ordering.INDIFFERENT
    )
    with pytest.raises(NotSubset):
        qual_prob_compare(M0, a, ev(M0, "s4"), ev(M0, "s1"))
    with pytest.raises(EmptyEvent):
        qual_prob_compare(M0, M0.space.empty, M0.space.empty, M0.space.empty)


def test_qual_prob_equals_bet_comparison():
    # comparing events by mass is the same as comparing bets on them
    from lexeu.acts import compose

    best = constant_act("c", M0.space, M0.outcome_space)
    worst = constant_act("a", M0.space, M0.outcome_space)
    rng = random.Random(17)
    for _ in range(60):
        a_mask = rng.randrange(1, 16)
        a = Event(M0.space, a_mask)
        b = Event(M0.space, a_mask & rng.randrange(0, 16))
        c = Event(M0.space, a_mask & rng.randrange(0, 16))
        bet_b = compose(best, b, worst)
        bet_c = compose(best, c, worst)
        assert qual_prob_compare(M0, a, b, c) == indexed_prefer(M0, a, bet_b, bet_c)


def test_dominance_frozen():
    assert dominance(M0, ev(M0, "s1"), ev(M0, "s3")) is Dominance.A_DOMINATES
    assert dominance(M0, ev(M0, "s1"), ev(M0, "s2", "s3")) is Dominance.EQUIVALENT
    assert dominance(M0, ev(M0, "s4"), M0.space.empty) is Dominance.A_DOMINATES
    assert dominance(M0, M0.space.empty, M0.space.empty) is Dominance.EQUIVALENT


def test_class_partition_m0_sizes():
    part = class_partition(M0)
    assert part.depth == 3
    assert [len(g) for g in part.classes] == [12, 2, 1]
    assert part.supports == (
        ev(M0, "s1", "s2"),
        ev(M0, "s3"),
        ev(M0, "s4"),
    )
    assert part.top_events == (
        M0.space.full,
        ev(M0, "s3", "s4"),
        ev(M0, "s4"),
    )
    assert part.index_of(ev(M0, "s2", "s4")) == 1
    assert part.index_of(M0.space.empty) is None


def test_risk_profile_m0():
    profile = risk_profile(M0)
    r12 = profile.between(1, 2)
    assert r12.ordinally_equivalent and not r12.affinely_related
    r13 = profile.between(1, 3)
    assert r13.affinely_related and r13.witness == (F(1), F(0))
    r23 = profile.between(2, 3)
    assert r23.ordinally_equivalent


def test_outcome_order_best_first():
    assert M0.kernel.outcome_order == (2, 1, 0)  # c, b, a
