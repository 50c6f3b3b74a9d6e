"""Simple lotteries over outcomes and their link to acts.

An act restricted to an event pushes the event's conditional measure
forward onto outcomes; the resulting lottery is compared by expected
utility at the event's class.  Lotteries are stored non-redundantly:
strictly positive weights only, summing to one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .acts import Act, OutcomeSpace
from .errors import AtomGranularity, EmptyEvent, NotNormalized, SpaceMismatch
from .events import Event
from .model import GsleuModel, ONE, ZERO, class_of, conditional_measure
from .preference import Ordering, _check_act


@dataclass(frozen=True)
class Lottery:
    outcome_space: OutcomeSpace
    weights: tuple[tuple[int, Fraction], ...]  # (outcome index, weight), index-sorted

    def __post_init__(self) -> None:
        if any(w <= 0 for _, w in self.weights):
            raise ValueError("lottery weights must be strictly positive")
        indices = [i for i, _ in self.weights]
        if indices != sorted(set(indices)):
            raise ValueError("lottery weights must be sorted and unique per outcome")
        if sum((w for _, w in self.weights), ZERO) != ONE:
            raise NotNormalized("lottery weights must sum to 1")

    @classmethod
    def from_weights(
        cls,
        outcome_space: OutcomeSpace,
        weights: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]],
    ) -> "Lottery":
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[int, Fraction] = {}
        for label, w in items:
            w = Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight for outcome {label!r}")
            idx = outcome_space.index(label)
            acc[idx] = acc.get(idx, ZERO) + w
        packed = tuple((i, acc[i]) for i in sorted(acc) if acc[i] > 0)
        return cls(outcome_space, packed)

    def weight_of(self, label: str) -> Fraction:
        idx = self.outcome_space.index(label)
        for i, w in self.weights:
            if i == idx:
                return w
        return ZERO

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(self.outcome_space.outcomes[i] for i, _ in self.weights)

    def as_mapping(self) -> dict[str, Fraction]:
        return {self.outcome_space.outcomes[i]: w for i, w in self.weights}


def normalize_lottery(
    outcome_space: OutcomeSpace,
    weights: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]],
) -> Lottery:
    """Merge duplicates and drop zeros; reject anything not summing to 1."""
    return Lottery.from_weights(outcome_space, weights)


def induced_lottery(m: GsleuModel, a: Event, f: Act) -> Lottery:
    """Pushforward of the event's conditional measure through the act."""
    _check_act(m, f)
    if a.is_empty:
        raise EmptyEvent("no lottery is induced on the empty event")
    measure = conditional_measure(m, a)
    acc: dict[int, Fraction] = {}
    for i in a.members:
        if measure[i]:
            o = f.assignment[i]
            acc[o] = acc.get(o, ZERO) + measure[i]
    return Lottery(m.outcome_space, tuple((o, acc[o]) for o in sorted(acc)))


def _lottery_eu(m: GsleuModel, k: int, lot: Lottery) -> Fraction:
    """Expected utility at level k, times the kernel's utility scale for
    that level: a positive factor shared by every lottery at level k, so
    signs and ratios of differences are exact."""
    utility = m.kernel.util[k - 1]
    den = lcm(*(w.denominator for _, w in lot.weights))
    return Fraction(
        sum(w.numerator * (den // w.denominator) * utility[i] for i, w in lot.weights), den
    )


def lottery_compare(m: GsleuModel, a: Event, l1: Lottery, l2: Lottery) -> Ordering:
    """Expected-utility comparison at the class of the indexing event."""
    if l1.outcome_space != m.outcome_space or l2.outcome_space != m.outcome_space:
        raise SpaceMismatch("lottery over a different outcome space")
    if a.is_empty:
        raise EmptyEvent("lottery comparison needs a nonempty event")
    k = class_of(m, a)
    return Ordering.from_difference(_lottery_eu(m, k, l1) - _lottery_eu(m, k, l2))


def mix(rho: Fraction, l1: Lottery, l2: Lottery) -> Lottery:
    """Exact convex mixture rho*l1 + (1-rho)*l2."""
    rho = Fraction(rho)
    if not 0 <= rho <= 1:
        raise ValueError(f"mixture weight must be in [0, 1], got {rho}")
    if l1.outcome_space != l2.outcome_space:
        raise SpaceMismatch("cannot mix lotteries over different outcome spaces")
    acc: dict[int, Fraction] = {}
    for i, w in l1.weights:
        acc[i] = acc.get(i, ZERO) + rho * w
    for i, w in l2.weights:
        acc[i] = acc.get(i, ZERO) + (ONE - rho) * w
    packed = tuple((i, acc[i]) for i in sorted(acc) if acc[i] > 0)
    return Lottery(l1.outcome_space, packed)


def act_from_lottery(m: GsleuModel, a: Event, lot: Lottery, fill: Act) -> Act:
    """An act realizing the lottery on the event, equal to fill elsewhere.

    Atoms (states carrying conditional mass) are assigned outcomes by a
    depth-first search in state order, trying the lottery's outcomes in
    declaration order, so the first exact solution is deterministic.
    Raises AtomGranularity when no exact assignment exists.
    """
    _check_act(m, fill)
    if lot.outcome_space != m.outcome_space:
        raise SpaceMismatch("lottery over a different outcome space")
    if a.is_empty:
        raise EmptyEvent("cannot realize a lottery on the empty event")
    measure = conditional_measure(m, a)
    atoms = [i for i in a.members if measure[i]]
    remaining = {i: w for i, w in lot.weights}
    order = [i for i, _ in lot.weights]
    assigned: dict[int, int] = {}

    def search(pos: int) -> bool:
        if pos == len(atoms):
            return all(v == 0 for v in remaining.values())
        state = atoms[pos]
        mass = measure[state]
        for o in order:
            if remaining[o] >= mass:
                remaining[o] -= mass
                assigned[state] = o
                if search(pos + 1):
                    return True
                remaining[o] += mass
                del assigned[state]
        return False

    if not search(0):
        raise AtomGranularity(
            f"no assignment of atoms {[m.space.states[i] for i in atoms]} realizes the lottery"
        )
    assignment = tuple(
        assigned.get(i, fill.assignment[i]) for i in range(m.space.size)
    )
    return Act(m.space, m.outcome_space, assignment)

