"""Outcome spaces and acts (state -> outcome assignments)."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from .caps import check_act_count
from .errors import SpaceMismatch, UnknownOutcome
from .events import Event, StateSpace


@dataclass(frozen=True)
class OutcomeSpace:
    """An ordered tuple of at least two distinct outcome labels."""

    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) < 2:
            raise ValueError("outcome space needs at least two outcomes")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, label: str) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise UnknownOutcome(f"unknown outcome {label!r}") from None


@dataclass(frozen=True)
class Act:
    """A total assignment of outcomes to states, stored by index."""

    space: StateSpace
    outcome_space: OutcomeSpace
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.space.size:
            raise ValueError("assignment length must equal number of states")
        m = self.outcome_space.size
        if any(not 0 <= o < m for o in self.assignment):
            raise UnknownOutcome("assignment refers to an outcome outside the space")

    @classmethod
    def from_mapping(
        cls, space: StateSpace, outcome_space: OutcomeSpace, mapping: Mapping[str, str]
    ) -> "Act":
        missing = [s for s in space.states if s not in mapping]
        if missing:
            raise ValueError(f"act does not cover states {missing}")
        extra = [s for s in mapping if s not in space.states]
        if extra:
            raise ValueError(f"act maps unknown states {extra}")
        return cls(space, outcome_space, tuple(outcome_space.index(mapping[s]) for s in space.states))

    def outcome_at(self, state: str) -> str:
        return self.outcome_space.outcomes[self.assignment[self.space.index(state)]]

    def as_mapping(self) -> dict[str, str]:
        return {s: self.outcome_space.outcomes[o] for s, o in zip(self.space.states, self.assignment)}

    def is_constant(self) -> bool:
        return len(set(self.assignment)) == 1

    def __repr__(self) -> str:
        return f"Act({', '.join(f'{s}->{o}' for s, o in self.as_mapping().items())})"


def _check_compatible(f: Act, g: Act) -> None:
    if f.space != g.space or f.outcome_space != g.outcome_space:
        raise SpaceMismatch("acts over different spaces")


def compose(f: Act, a: Event, g: Act) -> Act:
    """The act equal to f on `a` and to g elsewhere."""
    _check_compatible(f, g)
    if a.space != f.space:
        raise SpaceMismatch("event over a different state space")
    return Act(f.space, f.outcome_space, splice(f.assignment, a.mask, g.assignment))


def splice(x: tuple[int, ...], mask: int, y: tuple[int, ...]) -> tuple[int, ...]:
    """The assignment equal to x on the mask's states and to y elsewhere;
    compose() without the checks and the Act."""
    return tuple(xo if mask >> i & 1 else yo for i, (xo, yo) in enumerate(zip(x, y)))


def constant_act(outcome: str, space: StateSpace, outcome_space: OutcomeSpace) -> Act:
    idx = outcome_space.index(outcome)
    return Act(space, outcome_space, (idx,) * space.size)


def enumerate_acts(space: StateSpace, outcome_space: OutcomeSpace) -> Iterator[Act]:
    """All acts in lexicographic assignment order (cap-checked up front)."""
    check_act_count(outcome_space.size ** space.size)
    for assignment in product(range(outcome_space.size), repeat=space.size):
        yield Act(space, outcome_space, assignment)
