"""Preference families: one ranking per event, plus an unconditional one.

The axiom checkers and the synthesis pipeline quantify over these.  A
family either wraps a model (rankings computed on demand) or is an
explicit table of ranked tiers over a finite act list.  The empty event's
ranking is degenerate by construction — every act ties — and is never
stored.

Both kinds answer the same three questions, by event mask and act
assignment, which is all the axiom checkers ask of them: `score` (an int
per act at a nonempty event, higher is better, comparable only at that
event), `uncond_key` (the same for the unconditional ranking) and
`signature` (equal for two events exactly when their rankings agree).
"""
from __future__ import annotations

from dataclasses import dataclass

from .acts import Act, OutcomeSpace, enumerate_acts
from .errors import IncompleteTable, SpaceMismatch, ValidationError
from .events import Event, StateSpace
from .model import GsleuModel
from .preference import (
    DEGENERATE,
    Ordering,
    agreement,
    indexed_prefer,
    lex_prefer,
)

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
        names = set(self.acts)
        if not names:
            raise ValidationError(("table lists no acts",))
        for name, act in self.acts.items():
            if act.space != self.space or act.outcome_space != self.outcome_space:
                raise SpaceMismatch(f"act {name!r} over different spaces than the table")
        if 0 in self.tiers:
            raise ValidationError(("the empty event's ranking is fixed; do not list it",))
        full = self.space.full.mask
        for mask in self.tiers:
            if not 0 < mask <= full:
                raise ValidationError((f"tier entry for a mask outside the powerset: {mask}",))
        # the keys are masks in 1..full, so the count is exact, and the
        # first gap lies within len(tiers) + 1 of the start
        missing = full - len(self.tiers)
        if missing:
            first = next(m for m in range(1, full + 1) if m not in self.tiers)
            label = ",".join(self.space.states[i] for i in Event(self.space, first).members)
            raise IncompleteTable(f"{missing} events have no ranking (first: {{{label}}})")
        self._rank: dict[int, dict[str, int]] = {}
        for mask, tiers in self.tiers.items():
            self._rank[mask] = self._check_tiers(tiers, f"event mask {mask}")
        self._uncond_rank = self._check_tiers(self.unconditional, "unconditional entry")
        self._name_by_assignment = {act.assignment: name for name, act in self.acts.items()}
        self._partitions: dict[int, tuple[frozenset[str], ...]] = {}

    def _check_tiers(self, tiers: Tiers, where: str) -> dict[str, int]:
        rank: dict[str, int] = {}
        for depth, tier in enumerate(tiers):
            for name in tier:
                if name not in self.acts:
                    raise ValidationError((f"{where}: unknown act {name!r}",))
                if name in rank:
                    raise ValidationError(
                        (f"{where}: act {name!r} sits in two tiers (not a preorder)",)
                    )
                rank[name] = depth
        if len(rank) != len(self.acts):
            some = next(iter(set(self.acts) - set(rank)))
            raise IncompleteTable(f"{where}: act {some!r} is unranked")
        return rank

    # -- lookups -------------------------------------------------------

    def act_items(self) -> list[tuple[str, Act]]:
        return list(self.acts.items())

    def name_of(self, f: Act | str) -> str:
        if isinstance(f, str):
            if f not in self.acts:
                raise IncompleteTable(f"unknown act name {f!r}")
            return f
        name = self._name_by_assignment.get(f.assignment)
        if name is None:
            raise IncompleteTable(f"table lists no act equal to {f!r}")
        return name

    def has_act(self, f: Act) -> bool:
        return f.assignment in self._name_by_assignment

    def prefer_at(self, a: Event, f: Act | str, g: Act | str):
        if a.space != self.space:
            raise SpaceMismatch("event over a different state space")
        if a.is_empty:
            return DEGENERATE
        rank = self._rank[a.mask]
        return Ordering.from_difference(rank[self.name_of(g)] - rank[self.name_of(f)])

    def unconditional_compare(self, f: Act | str, g: Act | str) -> Ordering:
        r = self._uncond_rank
        return Ordering.from_difference(r[self.name_of(g)] - r[self.name_of(f)])

    # -- the rank oracle: minus tier indices, None for unlisted acts ----

    def score(self, mask: int, x: tuple[int, ...]) -> int | None:
        name = self._name_by_assignment.get(x)
        return None if name is None else -self._rank[mask][name]

    def uncond_key(self, x: tuple[int, ...]) -> int | None:
        name = self._name_by_assignment.get(x)
        return None if name is None else -self._uncond_rank[name]

    def signature(self, mask: int) -> tuple[frozenset[str], ...]:
        """The ranking as an ordered partition, built once per event; the
        empty event's is the single all-acts block."""
        got = self._partitions.get(mask)
        if got is None:
            tiers = self.tiers[mask] if mask else (tuple(self.acts),)
            got = self._partitions[mask] = tuple(frozenset(t) for t in tiers)
        return got

    def partition_at(self, a: Event) -> tuple[frozenset[str], ...]:
        return self.signature(a.mask)

    def agreement(self, a: Event, b: Event) -> bool:
        return self.partition_at(a) == self.partition_at(b)

    def constant_acts(self) -> dict[str, str]:
        """outcome label -> name of the constant act yielding it."""
        out: dict[str, str] = {}
        for name, act in self.acts.items():
            if act.is_constant():
                label = self.outcome_space.outcomes[act.assignment[0]]
                out.setdefault(label, name)
        return out

    def __eq__(self, other: object) -> bool:
        """Entry-for-entry equality of the rankings (tier-internal listing
        order is presentation, not content)."""
        if not isinstance(other, TableBackedFamily):
            return NotImplemented
        if (self.space, self.outcome_space) != (other.space, other.outcome_space):
            return False
        if {n: a.assignment for n, a in self.acts.items()} != {
            n: a.assignment for n, a in other.acts.items()
        }:
            return False
        if tuple(frozenset(t) for t in self.unconditional) != tuple(
            frozenset(t) for t in other.unconditional
        ):
            return False
        return all(
            self.partition_at(ev) == other.partition_at(ev)
            for ev in self.space.all_events()
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

    def prefer_at(self, a: Event, f: Act, g: Act):
        return indexed_prefer(self.model, a, f, g)

    def unconditional_compare(self, f: Act, g: Act) -> Ordering:
        return lex_prefer(self.model, f, g).ordering

    def agreement(self, a: Event, b: Event) -> bool:
        return agreement(self.model, a, b)

    # -- the rank oracle, read off the compiled kernel ------------------

    def score(self, mask: int, x: tuple[int, ...]) -> int:
        return self.model.kernel.score(mask, x)

    def uncond_key(self, x: tuple[int, ...]) -> tuple[int, ...]:
        return self.model.kernel.values(x)

    def signature(self, mask: int) -> tuple[int, tuple[int, ...]] | None:
        """Class and core; equal cores within a class mean equal measures."""
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
    named = [(f"f{i}", act) for i, act in enumerate(enumerate_acts(m.space, m.outcome_space))]
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
