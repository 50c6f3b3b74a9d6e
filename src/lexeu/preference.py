"""Preference computations induced by a model.

Indexed preference at an event compares single-level expected utilities at
the event's class; the unconditional preference compares the per-level
value sequence lexicographically along the top-event chain.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .acts import Act
from .errors import EmptyEvent, NotSubset, SpaceMismatch
from .events import Event
from .model import (
    GsleuModel,
    ZERO,
    class_of,
    conditional_measure,
    top_event_chain,
)


class Ordering(enum.Enum):
    STRICTLY_PREFER = "strictly_prefer"
    INDIFFERENT = "indifferent"
    STRICTLY_DISPREFER = "strictly_disprefer"

    def flip(self) -> "Ordering":
        if self is Ordering.STRICTLY_PREFER:
            return Ordering.STRICTLY_DISPREFER
        if self is Ordering.STRICTLY_DISPREFER:
            return Ordering.STRICTLY_PREFER
        return self

    @staticmethod
    def from_difference(d: int | Fraction) -> "Ordering":
        # An int is its own numerator, and a Fraction's denominator is
        # positive, so the numerator carries the sign either way; reading it
        # skips two mixed-type rich comparisons.
        n = d.numerator
        if n > 0:
            return Ordering.STRICTLY_PREFER
        if n < 0:
            return Ordering.STRICTLY_DISPREFER
        return Ordering.INDIFFERENT


class _Degenerate:
    """Verdict for preferences indexed by the empty event: every act is
    weakly preferred to every act.  A distinct value, not an error."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DEGENERATE"


DEGENERATE = _Degenerate()


@dataclass(frozen=True)
class LexVerdict:
    ordering: Ordering
    deciding_level: int | None

    def __post_init__(self) -> None:
        strict = self.ordering is not Ordering.INDIFFERENT
        if strict != (self.deciding_level is not None):
            raise ValueError("deciding level present iff the verdict is strict")


def _check_act(m: GsleuModel, f: Act) -> None:
    # Acts are usually built on the model's own space objects; the identity
    # test spares the dataclass equality on every comparison.
    if f.space is m.space and f.outcome_space is m.outcome_space:
        return
    if f.space != m.space or f.outcome_space != m.outcome_space:
        raise SpaceMismatch("act over different spaces than the model")


def _check_event(m: GsleuModel, a: Event) -> None:
    if a.space is not m.space and a.space != m.space:
        raise SpaceMismatch("event over a different state space")


def level_values(m: GsleuModel, f: Act) -> tuple[Fraction, ...]:
    """Per-level expected utilities along the top-event chain.

    At chain entry k the conditional measure is exactly level k's
    probability, so this is a plain dot product per level.
    """
    _check_act(m, f)
    kern = m.kernel
    return tuple(Fraction(v, s) for v, s in zip(kern.values(f.assignment), kern.scale))


def indexed_prefer(m: GsleuModel, a: Event, f: Act, g: Act):
    """Preference indexed by an event: single-level comparison at its class.

    Returns DEGENERATE for the empty event.
    """
    _check_act(m, f)
    _check_act(m, g)
    _check_event(m, a)
    if a.is_empty:
        return DEGENERATE
    kern = m.kernel
    return Ordering.from_difference(
        kern.score(a.mask, f.assignment) - kern.score(a.mask, g.assignment)
    )


def _lex_verdict(diff: Sequence[int]) -> LexVerdict:
    """The lexicographic rule on a per-level difference vector: the first
    nonzero level decides."""
    for k, d in enumerate(diff, start=1):
        if d:
            return LexVerdict(Ordering.from_difference(d), k)
    return LexVerdict(Ordering.INDIFFERENT, None)


def lex_prefer(m: GsleuModel, f: Act, g: Act) -> LexVerdict:
    """Lexicographic comparison: first level whose values differ decides.

    The savage conditional at the whole state space; same verdict as
    comparing level_values(m, f) with level_values(m, g) entry by entry.
    """
    _check_act(m, f)
    _check_act(m, g)
    kern = m.kernel
    return _lex_verdict(kern.difference((1 << kern.size) - 1, f.assignment, g.assignment))


def weakly_preferred(signs: Iterable[Ordering], win: Ordering, lose: Ordering) -> bool:
    """The lexicographic rule, read literally off per-chain-event
    verdicts: every chain event at which `lose` holds is preceded
    (inclusively) by one at which `win` holds."""
    signs = list(signs)
    return all(
        any(t is win for t in signs[: k + 1]) for k, s in enumerate(signs) if s is lose
    )


def lex_prefer_bruteforce(m: GsleuModel, f: Act, g: Act) -> LexVerdict:
    """Literal evaluation of the lexicographic rule over the chain.

    f is weakly preferred to g when every chain event at which g wins
    strictly is preceded (inclusively) by one at which f wins strictly.
    Kept deliberately naive as an oracle for lex_prefer: each chain
    event's verdict is a Fraction sum over its conditional measure, with no
    use of the compiled kernel.
    """
    _check_act(m, f)
    _check_act(m, g)
    fa, ga = f.assignment, g.assignment
    strict_at = []
    for ev in top_event_chain(m):
        u = m.level(class_of(m, ev)).utility
        measure = conditional_measure(m, ev)
        diff = sum(
            (
                measure[i] * (u[fa[i]] - u[ga[i]])
                for i in ev.members
                if measure[i] and fa[i] != ga[i]
            ),
            ZERO,
        )
        strict_at.append(Ordering.from_difference(diff))
    fw = weakly_preferred(strict_at, Ordering.STRICTLY_PREFER, Ordering.STRICTLY_DISPREFER)
    gw = weakly_preferred(strict_at, Ordering.STRICTLY_DISPREFER, Ordering.STRICTLY_PREFER)
    if fw and gw:
        return LexVerdict(Ordering.INDIFFERENT, None)
    deciding = next(
        (k for k, s in enumerate(strict_at, start=1) if s is not Ordering.INDIFFERENT),
        None,
    )
    if fw:
        return LexVerdict(Ordering.STRICTLY_PREFER, deciding)
    if gw:
        return LexVerdict(Ordering.STRICTLY_DISPREFER, deciding)
    raise AssertionError("model-backed lexicographic preference is complete")


def is_null_at(m: GsleuModel, b: Event, a: Event) -> bool:
    """Whether b (a subevent of a) carries no weight at a.

    The empty event is null everywhere; otherwise b is null exactly when
    it misses the support of a's class.
    """
    if not b.is_subset(a):
        raise NotSubset("nullity is defined for subevents only")
    if b.is_empty:
        return True
    _check_event(m, a)
    kern = m.kernel
    k, _ = kern.event(a.mask)
    return b.mask & kern.support[k] == 0


def qual_prob_compare(m: GsleuModel, a: Event, b: Event, c: Event) -> Ordering:
    """Compare the conditional masses of two subevents of a."""
    if a.is_empty:
        raise EmptyEvent("qualitative comparison needs a nonempty index event")
    if not b.is_subset(a) or not c.is_subset(a):
        raise NotSubset("compared events must be subevents of the index event")
    _check_event(m, a)
    kern = m.kernel
    k, _ = kern.event(a.mask)
    p = kern.prob[k]
    return Ordering.from_difference(
        sum(p[i] for i in kern.members(b.mask)) - sum(p[i] for i in kern.members(c.mask))
    )


class Dominance(enum.Enum):
    A_DOMINATES = "a_dominates"
    B_DOMINATES = "b_dominates"
    EQUIVALENT = "equivalent"


def dominance(m: GsleuModel, a: Event, b: Event) -> Dominance:
    """Rank two events by class; the empty event sits below everything."""
    ka = class_of(m, a)
    kb = class_of(m, b)
    ia = m.depth + 1 if ka is None else ka
    ib = m.depth + 1 if kb is None else kb
    if ia < ib:
        return Dominance.A_DOMINATES
    if ib < ia:
        return Dominance.B_DOMINATES
    return Dominance.EQUIVALENT


@dataclass(frozen=True)
class ClassPartition:
    """Events grouped by class, highest class first; the empty event forms
    its own trivial cell and is not listed."""

    classes: tuple[tuple[Event, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.classes)

    def index_of(self, a: Event) -> int | None:
        for k, group in enumerate(self.classes, start=1):
            if a in group:
                return k
        return None

    @property
    def supports(self) -> tuple[Event, ...]:
        """Per class, the union of its singleton events (the class atoms)."""
        out = []
        for group in self.classes:
            mask = 0
            space = group[0].space
            for ev in group:
                if ev.size == 1:
                    mask |= ev.mask
            out.append(Event(space, mask))
        return tuple(out)

    @property
    def top_events(self) -> tuple[Event, ...]:
        """Per class, the union of all its events (its largest member)."""
        out = []
        for group in self.classes:
            mask = 0
            for ev in group:
                mask |= ev.mask
            out.append(Event(group[0].space, mask))
        return tuple(out)


def class_partition(m: GsleuModel) -> ClassPartition:
    """Group the whole powerset by class (the empty event is left out)."""
    groups: list[list[Event]] = [[] for _ in range(m.depth)]
    for ev in m.space.all_events():
        k = class_of(m, ev)
        if k is not None:
            groups[k - 1].append(ev)
    return ClassPartition(tuple(tuple(g) for g in groups))
