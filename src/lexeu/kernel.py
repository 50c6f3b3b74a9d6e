"""The integer image of a model, compiled once per model instance.

Every model-side verdict is a sign: of a one-level expected-utility
difference, or of level differences taken in order.  Multiplying level k's
probabilities by the lcm of their denominators, and its utilities by the
lcm of theirs, multiplies every level-k term by one positive constant, so
no sign and no order among level-k terms moves.  At a single event the
normalizing mass is positive and shared by both sides of a comparison, so
it drops out as well.  Scores built here are therefore integers that are
exact stand-ins for the Fraction expressions they replace, as long as only
terms of one level are compared with each other.

A lexicographic verdict on a per-level vector v packs into one int,
Σ v[k]·B^(depth − 1 − k), whose sign is the sign of v's first nonzero
entry as long as every |v[k]| < B/2: the levels after the first nonzero
one sum to less than one unit of its weight.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .caps import check_partition_count


def _scaled(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integer multiples of values by the lcm of their denominators."""
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


class Cells(NamedTuple):
    """The cells of one event, indexed 1, 2, ... by their submask of the
    event read as a |A|-bit number (bit j for the event's j-th state)."""

    members: tuple[int, ...]  # the event's states
    subsets: tuple[tuple[int, int, int], ...]  # per index: (cell mask, lowest state, index of the rest)


class Kernel:
    """Per level: integer probabilities (full length, zero off the support)
    and integer utilities; per event mask, lazily, the class and the states
    of the event that carry weight at it (its core), its members, its
    extreme constants and its cell table."""

    def __init__(self, levels) -> None:
        self.support = tuple(lv.support.mask for lv in levels)
        self.prob: list[tuple[int, ...]] = []
        self.util: list[tuple[int, ...]] = []
        self.scale: list[int] = []  # level value = integer value / scale
        self.util_scale: list[int] = []
        for lv in levels:
            prob, p_scale = _scaled(lv.prob)
            util, u_scale = _scaled(lv.utility)
            self.prob.append(prob)
            self.util.append(util)
            self.scale.append(p_scale * u_scale)
            self.util_scale.append(u_scale)
        self.depth = len(levels)
        self.size = len(levels[0].prob) if levels else 0
        self.level_of = [None] * self.size  # the level whose support holds each state
        for k, s in enumerate(self.support):
            for i in range(self.size):
                if s >> i & 1:
                    self.level_of[i] = k
        u = self.util[0] if levels else ()
        # outcomes best-first under level 1, declaration order breaking ties
        self.outcome_order = tuple(sorted(range(len(u)), key=lambda o: (-u[o], o)))
        self._members: dict[int, tuple[int, ...]] = {}
        self._events: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._cells: dict[int, Cells] = {}
        self._extreme: dict[int, tuple[bool, ...]] = {}

    @cached_property
    def steps(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per state, constant c and outcome o: the change p·(u[c] − u[o]) of
        the value at the state's level when c replaces o there."""
        return tuple(
            tuple(tuple(self.prob[k][i] * (uc - uo) for uo in self.util[k]) for uc in self.util[k])
            for i, k in enumerate(self.level_of)
        )

    @cached_property
    def packed(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
        """(weights, steps): level k's weight B^(depth − 1 − k), and steps
        with each state's entries times the weight of its level.

        B = 4·max_k(P_k·R_k) + 1, where P_k is level k's total mass and R_k
        its utility range.  An entry of a difference vector, or of one
        with a cell's steps added or taken away, is at most 2·P_k·R_k <
        B/2 in magnitude, so pack keeps the first-nonzero-level sign."""
        bound = max(
            (sum(p) * (max(u) - min(u)) for p, u in zip(self.prob, self.util)), default=0
        )
        weights = tuple((4 * bound + 1) ** (self.depth - 1 - k) for k in range(self.depth))
        steps = tuple(
            tuple(tuple(weights[k] * d for d in row) for row in rows)
            for rows, k in zip(self.steps, self.level_of)
        )
        return weights, steps

    def pack(self, vec: Sequence[int]) -> int:
        """One int with the sign of vec's first nonzero entry, for vectors
        within the bound of packed."""
        return sum(map(mul, self.packed[0], vec))

    def members(self, mask: int) -> tuple[int, ...]:
        got = self._members.get(mask)
        if got is None:
            got = self._members[mask] = tuple(i for i in range(self.size) if mask >> i & 1)
        return got

    def extreme(self, mask: int) -> tuple[bool, ...]:
        """Per constant c: whether c is weakly best or weakly worst at every
        state of the nonempty event, that is, its packed steps[i][c][o] share
        one sign over every outcome o and every state i of the event.  A
        partition search of the event reads these first, so the partition
        cap is checked here (caps.check_partition_count)."""
        got = self._extreme.get(mask)
        if got is None:
            members = self.members(mask)
            check_partition_count(len(members))
            rows = [self.packed[1][i] for i in members]
            got = self._extreme[mask] = tuple(
                all(s >= 0 for row in rows for s in row[c])
                or all(s <= 0 for row in rows for s in row[c])
                for c in range(len(rows[0]))
            )
        return got

    def cells(self, mask: int) -> Cells:
        """The cell table of a nonempty event, built once for the
        subset-sum pass of a partition search.  It does not check the
        partition cap: a search reads extreme, which does, first."""
        got = self._cells.get(mask)
        if got is None:
            members = self.members(mask)
            subsets: list[tuple[int, int, int]] = []
            for t in range(1, 1 << len(members)):
                i, rest = members[(t & -t).bit_length() - 1], t & (t - 1)
                subsets.append(((subsets[rest - 1][0] if rest else 0) | 1 << i, i, rest))
            got = self._cells[mask] = Cells(members, tuple(subsets))
        return got

    def event(self, mask: int) -> tuple[int, tuple[int, ...]]:
        """(0-based class, core states) of a nonempty event."""
        got = self._events.get(mask)
        if got is None:
            k = next((k for k, s in enumerate(self.support) if mask & s), None)
            if k is None:
                raise AssertionError("valid models cover the state space")
            got = self._events[mask] = (k, self.members(mask & self.support[k]))
        return got

    def score(self, mask: int, x: Sequence[int]) -> int:
        """Expected utility of assignment x at a nonempty event, scaled by
        a positive constant that depends only on the event."""
        k, core = self.event(mask)
        p, u = self.prob[k], self.util[k]
        return sum(p[i] * u[x[i]] for i in core)

    def values(self, x: Sequence[int]) -> tuple[int, ...]:
        """Per-level values of x along the top-event chain, level k scaled
        by scale[k]."""
        return tuple(
            sum(p[i] * u[x[i]] for i in self.members(s))
            for s, p, u in zip(self.support, self.prob, self.util)
        )

    def difference(self, mask: int, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """Per level k: the value of x minus that of y on the event, scaled
        by scale[k].  Zero before the event's class, and at every level for
        the empty event."""
        steps, level = self.steps, self.level_of
        diff = [0] * self.depth
        for i in self.members(mask):
            diff[level[i]] += steps[i][x[i]][y[i]]
        return diff
