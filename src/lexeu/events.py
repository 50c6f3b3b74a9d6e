"""Finite state spaces and events.

States live in a fixed declaration order; an event is a bitmask over that
order, so set algebra is integer arithmetic and every derived iteration
order (members, powerset, partitions) is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .caps import bell_number, check_state_count  # bell_number: re-exported
from .errors import SpaceMismatch, UnknownState


@dataclass(frozen=True)
class StateSpace:
    """An ordered tuple of distinct state labels.

    The declaration order is canonical: it fixes bit positions for events,
    serialization order, and every enumeration order downstream.
    """

    states: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("state space must be nonempty")
        if len(set(self.states)) != len(self.states):
            raise ValueError("state labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise UnknownState(f"unknown state {label!r}") from None

    def event(self, labels=()) -> "Event":
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return Event(self, mask)

    @property
    def full(self) -> "Event":
        return Event(self, (1 << self.size) - 1)

    @property
    def empty(self) -> "Event":
        return Event(self, 0)

    def all_events(self) -> Iterator["Event"]:
        """Yield the full powerset in mask order (empty event first)."""
        check_state_count(self.size)
        for mask in range(1 << self.size):
            yield Event(self, mask)


@dataclass(frozen=True)
class Event:
    space: StateSpace
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.space.size):
            raise ValueError(f"mask {self.mask} out of range for {self.space.size} states")

    # -- set algebra ---------------------------------------------------
    def _check(self, other: "Event") -> None:
        if self.space != other.space:
            raise SpaceMismatch("events over different state spaces")

    def __or__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask | other.mask)

    def __and__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask & other.mask)

    def __sub__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask & ~other.mask)

    def __xor__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask ^ other.mask)

    def complement(self) -> "Event":
        return Event(self.space, self.space.full.mask & ~self.mask)

    def is_subset(self, other: "Event") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    # -- inspection ----------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> tuple[int, ...]:
        """State indices in declaration order."""
        return tuple(i for i in range(self.space.size) if self.mask >> i & 1)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.states[i] for i in self.members)

    def __contains__(self, label: str) -> bool:
        return self.mask >> self.space.index(label) & 1 == 1

    def __repr__(self) -> str:
        return f"Event({{{', '.join(self.labels)}}})"


Partition = tuple[Event, ...]


def partition_masks(members: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of the given state indices as tuples of block
    masks, in restricted-growth order: state i joins each open block in
    turn, then opens a new one.  So the one-block partition comes first
    and the all-singletons partition last, and each partition's blocks are
    ordered by their smallest member."""
    bits = [1 << i for i in members]
    n = len(bits)
    if not n:
        return
    blocks = [bits[0]]

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(blocks)
            return
        bit = bits[i]
        for b in range(len(blocks)):
            blocks[b] |= bit
            yield from rec(i + 1)
            blocks[b] ^= bit
        blocks.append(bit)
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def first_partition(
    members: Sequence[int], passes: Callable[[int], bool]
) -> tuple[int, ...] | None:
    """The first partition in partition_masks order each of whose cells
    passes, or None.  passes is asked cell by cell, in block order, and a
    partition is dropped at its first failing cell."""
    return next((p for p in partition_masks(members) if all(map(passes, p))), None)
