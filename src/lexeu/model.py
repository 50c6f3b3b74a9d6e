"""Lexicographic expected-utility models.

A model is an ordered list of levels.  Each level carries a support (the
states that matter at that level), a strictly positive probability on its
support, and a utility table over outcomes.  Levels are ranked: anything
touching an earlier support outranks everything below it, and comparisons
fall through to later levels only on exact ties.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .errors import EmptyEvent, SpaceMismatch
from .events import Event, StateSpace
from .acts import OutcomeSpace
from .kernel import Kernel

ZERO = Fraction(0)
ONE = Fraction(1)


def sign(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class Level:
    """One stratum of the lexicographic hierarchy.

    prob is stored full-length (zero off the support); utility is indexed
    by outcome position.
    """

    support: Event
    prob: tuple[Fraction, ...]
    utility: tuple[Fraction, ...]

    @classmethod
    def from_mappings(
        cls,
        space: StateSpace,
        outcome_space: OutcomeSpace,
        support,
        prob: Mapping[str, Fraction],
        utility: Mapping[str, Fraction],
    ) -> "Level":
        ev = support if isinstance(support, Event) else space.event(support)
        full_prob = [ZERO] * space.size
        for label, value in prob.items():
            full_prob[space.index(label)] = Fraction(value)
        util = [ZERO] * outcome_space.size
        for label, value in utility.items():
            util[outcome_space.index(label)] = Fraction(value)
        return cls(ev, tuple(full_prob), tuple(util))


@dataclass(frozen=True)
class GsleuModel:
    space: StateSpace
    outcome_space: OutcomeSpace
    levels: tuple[Level, ...]

    @cached_property
    def kernel(self) -> Kernel:
        """The integer image every model-side verdict is computed from,
        compiled on first use."""
        return Kernel(self.levels)

    @cached_property
    def _measures(self) -> dict[int, tuple[Fraction, ...]]:
        """Conditional measures already computed, by event mask."""
        return {}

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, k: int) -> Level:
        """1-based level access."""
        if not 1 <= k <= self.depth:
            raise IndexError(f"level {k} out of range 1..{self.depth}")
        return self.levels[k - 1]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(m: GsleuModel) -> ValidationReport:
    """Check every structural invariant; returns all violations found."""
    bad: list[str] = []
    n = m.space.size
    nout = m.outcome_space.size
    if m.depth < 1:
        bad.append("model has no levels")

    covered = 0
    for k, lv in enumerate(m.levels, start=1):
        if lv.support.space != m.space:
            bad.append(f"level {k}: support over a different state space")
            continue
        if lv.support.is_empty:
            bad.append(f"level {k}: empty support")
        if len(lv.prob) != n:
            bad.append(f"level {k}: probability vector has wrong length")
            continue
        if len(lv.utility) != nout:
            bad.append(f"level {k}: utility vector has wrong length")
            continue
        for i in range(n):
            on_support = lv.support.mask >> i & 1
            if on_support and lv.prob[i] <= 0:
                bad.append(f"level {k}: prob({m.space.states[i]}) not positive on support")
            if not on_support and lv.prob[i] != 0:
                bad.append(f"level {k}: prob({m.space.states[i]}) nonzero off support")
        if sum(lv.prob, ZERO) != ONE:
            bad.append(f"level {k}: probabilities do not sum to 1")
        if len(set(lv.utility)) == 1:
            bad.append(f"level {k}: constant utility")
        if covered & lv.support.mask:
            bad.append(f"level {k}: support overlaps an earlier level")
        covered |= lv.support.mask

    if m.levels and covered != m.space.full.mask:
        bad.append("level supports do not cover the state space")

    # Constant acts must be ranked identically at every level: utility
    # tables must induce one shared weak order over outcomes.
    if len(m.levels) > 1 and all(len(lv.utility) == nout for lv in m.levels):
        base = m.levels[0].utility
        for k, lv in enumerate(m.levels[1:], start=2):
            for i in range(nout):
                for j in range(i + 1, nout):
                    if sign(base[i] - base[j]) != sign(lv.utility[i] - lv.utility[j]):
                        bad.append(
                            f"level {k}: outcome order over "
                            f"({m.outcome_space.outcomes[i]}, {m.outcome_space.outcomes[j]}) "
                            "disagrees with level 1"
                        )
    return ValidationReport(tuple(bad))


def class_of(m: GsleuModel, a: Event) -> int | None:
    """Smallest level whose support meets the event; None for the empty event."""
    if a.space != m.space:
        raise SpaceMismatch("event over a different state space")
    if a.is_empty:
        return None
    for k, lv in enumerate(m.levels, start=1):
        if a.mask & lv.support.mask:
            return k
    raise AssertionError("valid models cover the state space")


def _conditional(m: GsleuModel, mask: int) -> tuple[Fraction, ...]:
    a = Event(m.space, mask)
    k = class_of(m, a)
    lv = m.levels[k - 1]
    core = mask & lv.support.mask
    total = sum((lv.prob[i] for i in Event(m.space, core).members), ZERO)
    return tuple(
        lv.prob[i] / total if core >> i & 1 else ZERO for i in range(m.space.size)
    )


def conditional_measure(m: GsleuModel, a: Event) -> tuple[Fraction, ...]:
    """Probability of each state given the event, at the event's class.

    Mass is the class level's probability renormalized on the event's
    intersection with that support; states outside get exactly zero.
    Computed in Fractions from the levels, and kept on the model by mask.
    """
    if a.space != m.space:
        raise SpaceMismatch("event over a different state space")
    if a.is_empty:
        raise EmptyEvent("conditional measure of the empty event")
    table = m._measures
    got = table.get(a.mask)
    if got is None:
        got = table[a.mask] = _conditional(m, a.mask)
    return got


def top_event_chain(m: GsleuModel) -> tuple[Event, ...]:
    """The nested chain of top events, one per level.

    Entry k is the whole space minus all earlier supports; it has class k
    and full conditional mass on level k's support.
    """
    chain = []
    rest = m.space.full.mask
    for lv in m.levels:
        chain.append(Event(m.space, rest))
        rest &= ~lv.support.mask
    return tuple(chain)
