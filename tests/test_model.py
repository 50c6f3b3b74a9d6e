from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from conftest import build_m0, ev, random_model
from lexeu.errors import EmptyEvent, SpaceMismatch
from lexeu.events import Event, StateSpace
from lexeu.model import (
    GsleuModel,
    Level,
    class_of,
    conditional_measure,
    top_event_chain,
    validate_model,
)

M0 = build_m0()


def test_m0_is_valid():
    assert validate_model(M0).ok


def test_validation_catches_bad_probability():
    lv = M0.levels[0]
    broken = GsleuModel(
        M0.space,
        M0.outcome_space,
        (Level(lv.support, (F(1, 2), F(1, 3)) + lv.prob[2:], lv.utility),)
        + M0.levels[1:],
    )
    report = validate_model(broken)
    assert not report.ok
    assert any("sum to 1" in v for v in report.violations)


def test_validation_catches_overlap_and_cover():
    lv1, lv2, lv3 = M0.levels
    overlapping = GsleuModel(
        M0.space, M0.outcome_space, (lv1, Level(lv1.support, lv1.prob, lv2.utility), lv3)
    )
    report = validate_model(overlapping)
    assert any("overlaps" in v for v in report.violations)
    missing = GsleuModel(M0.space, M0.outcome_space, (lv1, lv2))
    assert any("cover" in v for v in validate_model(missing).violations)


def test_validation_catches_constant_utility():
    lv1, lv2, lv3 = M0.levels
    broken = GsleuModel(
        M0.space, M0.outcome_space, (lv1, Level(lv2.support, lv2.prob, (F(1), F(1), F(1))), lv3)
    )
    assert any("constant utility" in v for v in validate_model(broken).violations)


def test_validation_catches_ordinal_disagreement():
    lv1, lv2, lv3 = M0.levels
    flipped = Level(lv2.support, lv2.prob, (F(4), F(3), F(0)))
    report = validate_model(GsleuModel(M0.space, M0.outcome_space, (lv1, flipped, lv3)))
    assert any("disagrees with level 1" in v for v in report.violations)


def test_class_of_frozen_values():
    assert class_of(M0, ev(M0, "s2", "s3")) == 1
    assert class_of(M0, ev(M0, "s3", "s4")) == 2
    assert class_of(M0, ev(M0, "s4")) == 3
    assert class_of(M0, M0.space.empty) is None


def test_class_of_space_check():
    other = StateSpace(("t1", "t2"))
    with pytest.raises(SpaceMismatch):
        class_of(M0, other.full)


def test_conditional_measure_frozen_values():
    measure = conditional_measure(M0, ev(M0, "s2", "s3"))
    assert measure == (F(0), F(1), F(0), F(0))
    assert conditional_measure(M0, M0.space.full) == (F(1, 2), F(1, 2), F(0), F(0))
    assert conditional_measure(M0, ev(M0, "s4")) == (F(0), F(0), F(0), F(1))
    with pytest.raises(EmptyEvent):
        conditional_measure(M0, M0.space.empty)


def test_conditional_measure_properties_random():
    rng = random.Random(1041)
    for _ in range(40):
        m = random_model(rng)
        for _ in range(12):
            mask = rng.randrange(1, 1 << m.space.size)
            a = Event(m.space, mask)
            measure = conditional_measure(m, a)
            assert sum(measure) == 1
            k = class_of(m, a)
            core = a.mask & m.level(k).support.mask
            for i in range(m.space.size):
                if core >> i & 1:
                    assert measure[i] > 0
                else:
                    assert measure[i] == 0


def test_conditional_chaining_exact():
    # mass of C given A equals mass of C given B times mass of B given A
    # whenever C <= B <= A share one class
    rng = random.Random(77)
    for _ in range(60):
        m = random_model(rng)
        full = (1 << m.space.size) - 1
        a_mask = rng.randrange(1, full + 1)
        b_mask = a_mask & rng.randrange(0, full + 1)
        c_mask = b_mask & rng.randrange(0, full + 1)
        if not b_mask or not c_mask:
            continue
        a, b, c = (Event(m.space, x) for x in (a_mask, b_mask, c_mask))
        if not (class_of(m, a) == class_of(m, b)):
            continue
        pa = conditional_measure(m, a)
        pb = conditional_measure(m, b)
        mass = lambda p, e: sum(p[i] for i in e.members)
        assert mass(pa, c) == mass(pb, c) * mass(pa, b)


def test_top_event_chain_m0():
    chain = top_event_chain(M0)
    assert [e.labels for e in chain] == [
        ("s1", "s2", "s3", "s4"),
        ("s3", "s4"),
        ("s4",),
    ]
    for k, e in enumerate(chain, start=1):
        assert class_of(M0, e) == k
        # chain events carry full conditional mass on their level support
        measure = conditional_measure(M0, e)
        support = M0.level(k).support
        assert sum(measure[i] for i in support.members) == 1


def test_conditional_measure_keeps_no_model_alive():
    m = build_m0()
    a = ev(m, "s1", "s3")
    measure = conditional_measure(m, a)
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None
    # equal but distinct models give equal measures
    assert conditional_measure(build_m0(), a) == measure == conditional_measure(M0, a)


def test_model_hash_is_stable_and_structural():
    m1, m2 = build_m0(), build_m0()
    assert m1 is not m2 and m1 == m2
    assert hash(m1) == hash(m2)
    assert hash(m1) == hash(m1)
    assert hash(m1) == hash((m1.space, m1.outcome_space, m1.levels))
