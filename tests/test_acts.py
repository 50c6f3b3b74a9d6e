from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import act_of, build_m0, ev
from lexeu.acts import Act, OutcomeSpace, compose, constant_act, enumerate_acts
from lexeu.errors import CapExceeded, SpaceMismatch, UnknownOutcome
from lexeu.events import StateSpace

M0 = build_m0()


def test_outcome_space_invariants():
    with pytest.raises(ValueError):
        OutcomeSpace(("a",))
    with pytest.raises(ValueError):
        OutcomeSpace(("a", "a"))


def test_act_construction_and_lookup():
    f = act_of(M0, "b", "a", "c", "a")
    assert f.outcome_at("s1") == "b"
    assert f.outcome_at("s3") == "c"
    assert f.as_mapping() == {"s1": "b", "s2": "a", "s3": "c", "s4": "a"}
    with pytest.raises(ValueError):
        Act.from_mapping(M0.space, M0.outcome_space, {"s1": "a"})
    with pytest.raises(UnknownOutcome):
        act_of(M0, "z", "a", "a", "a")


def test_compose_pastes_on_event():
    f = act_of(M0, "b", "a", "c", "a")
    g = act_of(M0, "a", "b", "a", "c")
    a = ev(M0, "s1", "s3")
    h = compose(f, a, g)
    assert h.as_mapping() == {"s1": "b", "s2": "b", "s3": "c", "s4": "c"}
    assert compose(f, M0.space.full, g) == f
    assert compose(f, M0.space.empty, g) == g


def test_compose_space_checks():
    f = act_of(M0, "a", "a", "a", "a")
    other = StateSpace(("t1", "t2"))
    g = Act(other, M0.outcome_space, (0, 1))
    with pytest.raises(SpaceMismatch):
        compose(f, M0.space.full, g)


def test_constant_act():
    c = constant_act("b", M0.space, M0.outcome_space)
    assert c.is_constant()
    assert set(c.as_mapping().values()) == {"b"}


def test_enumeration_order_and_count():
    acts = list(enumerate_acts(M0.space, M0.outcome_space))
    assert len(acts) == 81
    assert acts[0] == constant_act("a", M0.space, M0.outcome_space)
    assert acts[1].as_mapping() == {"s1": "a", "s2": "a", "s3": "a", "s4": "b"}
    assert acts[-1] == constant_act("c", M0.space, M0.outcome_space)
    assert len(set(acts)) == 81


def test_enumeration_cap(monkeypatch):
    big = StateSpace(tuple(f"x{i}" for i in range(12)))
    with pytest.raises(CapExceeded):
        list(enumerate_acts(big, M0.outcome_space))  # 3^12 > 1e5
    monkeypatch.setenv("LEXEU_CAP", str(3**12))
    assert len(list(enumerate_acts(big, M0.outcome_space))) == 3**12


events4 = st.integers(min_value=0, max_value=15)
acts4 = st.tuples(*([st.integers(0, 2)] * 4)).map(
    lambda t: Act(M0.space, M0.outcome_space, t)
)


@given(acts4, acts4, events4, events4)
def test_compose_nesting_law(f, h, x, y):
    from lexeu.events import Event

    a, b = Event(M0.space, x), Event(M0.space, y)
    assert compose(compose(f, a, h), b, h) == compose(f, a & b, h)


@given(acts4, acts4, events4)
def test_compose_agrees_pointwise(f, g, x):
    from lexeu.events import Event

    a = Event(M0.space, x)
    h = compose(f, a, g)
    for s in M0.space.states:
        expected = f.outcome_at(s) if s in a else g.outcome_at(s)
        assert h.outcome_at(s) == expected
