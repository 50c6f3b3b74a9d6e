"""Preference families: one ranking per event, plus an unconditional one.

The axiom checkers and the synthesis pipeline quantify over these.  A
family either wraps a model (rankings computed on demand) or is an
explicit table of ranked tiers over a finite act list.  The empty event's
ranking is degenerate by construction — every act ties — and a table
never lists it.

Both kinds answer the same three questions, by event mask and act
assignment, which is all the axiom checkers ask of them: `score` (an int
per act at a nonempty event, higher is better, comparable only at that
event), `uncond_key` (the same for the unconditional ranking) and
`signature` (equal for two events exactly when their rankings agree).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

from .acts import Act, OutcomeSpace, enumerate_acts
from .errors import IncompleteTable, SpaceMismatch, ValidationError
from .events import Event, StateSpace
from .model import GsleuModel

Tiers = tuple[tuple[str, ...], ...]


@dataclass(eq=False)
class TableBackedFamily:
    """Explicit rankings: per nonempty event, tiers of act names listed
    best to worst (names within a tier are mutually indifferent).

    `unconditional` plays the role of the un-indexed ranking; the file
    format carries it under a key of the same name.
    """

    space: StateSpace
    outcome_space: OutcomeSpace
    acts: dict[str, Act]
    tiers: dict[int, Tiers]
    unconditional: Tiers

    def __post_init__(self) -> None:
        self.tiers = {mask: tuple(tuple(t) for t in tiers) for mask, tiers in self.tiers.items()}
        self.unconditional = tuple(tuple(t) for t in self.unconditional)
        if not self.acts:
            raise ValidationError("table lists no acts")
        for name, act in self.acts.items():
            if act.space != self.space or act.outcome_space != self.outcome_space:
                raise SpaceMismatch(f"act {name!r} over different spaces than the table")
        if 0 in self.tiers:
            raise ValidationError("the empty event's ranking is fixed; do not list it")
        full = self.space.full.mask
        for mask in self.tiers:
            if not 0 < mask <= full:
                raise ValidationError(f"tier entry for a mask outside the powerset: {mask}")
        # the keys are masks in 1..full, so the count is exact, and the
        # first gap lies within len(tiers) + 1 of the start
        missing = full - len(self.tiers)
        if missing:
            first = next(m for m in range(1, full + 1) if m not in self.tiers)
            label = ",".join(self.space.states[i] for i in Event(self.space, first).members)
            raise IncompleteTable(f"{missing} events have no ranking (first: {{{label}}})")
        # the oracle is keyed by assignment, so two names for one act would
        # leave one name's rankings unread
        self._name_by_assignment: dict[tuple[int, ...], str] = {}
        for name, act in self.acts.items():
            first = self._name_by_assignment.setdefault(act.assignment, name)
            if first != name:
                raise ValidationError(f"acts {first!r} and {name!r} have the same assignment")
        # the oracle: per event mask, act assignment -> minus the tier
        # index; the empty event ties every act
        self._scores = {
            mask: self._compile(tiers, f"event mask {mask}") for mask, tiers in self.tiers.items()
        }
        self._scores[0] = dict.fromkeys(self._name_by_assignment, 0)
        self._uncond = self._compile(self.unconditional, "unconditional entry")

    def _compile(self, tiers: Tiers, where: str) -> dict[tuple[int, ...], int]:
        depth_of: dict[str, int] = {}
        for depth, tier in enumerate(tiers):
            if not tier:
                raise ValidationError(f"{where}: tier {depth + 1} is empty")
            for name in tier:
                if name not in self.acts:
                    raise ValidationError(f"{where}: unknown act {name!r}")
                if name in depth_of:
                    raise ValidationError(
                        f"{where}: act {name!r} sits in two tiers (not a preorder)"
                    )
                depth_of[name] = depth
        if len(depth_of) != len(self.acts):
            some = next(iter(set(self.acts) - set(depth_of)))
            raise IncompleteTable(f"{where}: act {some!r} is unranked")
        return {act.assignment: -depth_of[name] for name, act in self.acts.items()}

    def act_items(self) -> list[tuple[str, Act]]:
        return list(self.acts.items())

    def name_of(self, f: Act) -> str:
        name = self._name_by_assignment.get(f.assignment)
        if name is None:
            raise IncompleteTable(f"table lists no act equal to {f!r}")
        return name

    # -- the rank oracle: minus tier indices, None for unlisted acts ----

    def score(self, mask: int, x: tuple[int, ...]) -> int | None:
        return self._scores[mask].get(x)

    def uncond_key(self, x: tuple[int, ...]) -> int | None:
        return self._uncond.get(x)

    def signature(self, mask: int) -> dict[tuple[int, ...], int]:
        """The compiled scores: tiers are nonempty, so equal scores mean
        equal rankings."""
        return self._scores[mask]

    def __eq__(self, other: object) -> bool:
        """Entry-for-entry equality of the rankings (tier-internal listing
        order is presentation, not content)."""
        if not isinstance(other, TableBackedFamily):
            return NotImplemented
        return (
            (self.space, self.outcome_space) == (other.space, other.outcome_space)
            and {n: a.assignment for n, a in self.acts.items()}
            == {n: a.assignment for n, a in other.acts.items()}
            and self._uncond == other._uncond
            and self._scores == other._scores
        )


@dataclass(frozen=True)
class ModelBackedFamily:
    """Rankings computed from a model on demand."""

    model: GsleuModel

    @property
    def space(self) -> StateSpace:
        return self.model.space

    @property
    def outcome_space(self) -> OutcomeSpace:
        return self.model.outcome_space

    def act_items(self) -> list[tuple[str, Act]]:
        return [(f"f{i}", act) for i, act in enumerate(enumerate_acts(self.space, self.outcome_space))]

    # -- the rank oracle, read off the compiled kernel ------------------
    # The only oracle that computes its answers, so it keeps them: one memo
    # per family, which lives as long as the family does.

    @cached_property
    def score(self) -> Callable[[int, tuple[int, ...]], int]:
        return cache(self.model.kernel.score)

    @cached_property
    def uncond_key(self) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        return cache(self.model.kernel.values)

    def signature(self, mask: int) -> tuple[int, tuple[int, ...]] | None:
        """Class and core; None for the empty event, whose degenerate
        ranking agrees only with itself.

        Two nonempty events rank alike exactly when their classes and
        conditional measures are equal: utilities are non-constant, so
        distinct conditionals rank some pair of acts differently.  Within
        one class the measure is the level's probability renormalized on
        the core (the states of the event inside the support), and it is
        positive exactly there, so equal measures mean equal cores.
        """
        return self.model.kernel.event(mask) if mask else None


PreferenceFamily = ModelBackedFamily | TableBackedFamily


def derive_table(m: GsleuModel) -> TableBackedFamily:
    """Tabulate every ranking a model induces over the full act universe.

    Act names are f0, f1, ... in enumeration order.  Rankings sort by
    expected utility at each event's class (unconditionally: by the
    per-level value sequence), read off the model's integer kernel: every
    score at one event, and every entry of one level, carries the same
    positive factor, so the order is the exact one.
    """
    named = ModelBackedFamily(m).act_items()
    kern = m.kernel
    tiers: dict[int, Tiers] = {}
    for mask in range(1, m.space.full.mask + 1):
        tiers[mask] = _group_desc(
            [(kern.score(mask, act.assignment), name) for name, act in named]
        )
    uncond = _group_desc([(kern.values(act.assignment), name) for name, act in named])
    return TableBackedFamily(
        space=m.space,
        outcome_space=m.outcome_space,
        acts=dict(named),
        tiers=tiers,
        unconditional=uncond,
    )


def _group_desc(scored: list) -> Tiers:
    """Group names by score, best score first; enumeration order within a
    tier."""
    by_score: dict = {}
    for score, name in scored:
        by_score.setdefault(score, []).append(name)
    return tuple(tuple(by_score[s]) for s in sorted(by_score, reverse=True))
