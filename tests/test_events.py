from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from lexeu.errors import CapExceeded, EmptyEvent, SpaceMismatch
from lexeu.events import Event, StateSpace, bell_number, first_partition, partition_masks
from oracles import enumerate_partitions, singleton_partition

S4 = StateSpace(("s1", "s2", "s3", "s4"))


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        StateSpace(())
    with pytest.raises(ValueError):
        StateSpace(("s1", "s1"))


def test_event_basics():
    a = S4.event(["s1", "s3"])
    assert a.labels == ("s1", "s3")
    assert a.size == 2
    assert "s1" in a and "s2" not in a
    assert S4.empty.is_empty
    assert S4.full.labels == S4.states


def test_set_algebra():
    a = S4.event(["s1", "s2"])
    b = S4.event(["s2", "s3"])
    assert (a | b).labels == ("s1", "s2", "s3")
    assert (a & b).labels == ("s2",)
    assert (a - b).labels == ("s1",)
    assert (a ^ b).labels == ("s1", "s3")
    assert a.complement().labels == ("s3", "s4")


def test_space_mismatch_raises():
    other = StateSpace(("t1", "t2"))
    with pytest.raises(SpaceMismatch):
        S4.full | other.full


masks = st.integers(min_value=0, max_value=15)


@given(masks, masks, masks)
def test_algebra_laws(x, y, z):
    a, b, c = Event(S4, x), Event(S4, y), Event(S4, z)
    assert (a | b) == (b | a)
    assert (a & (b | c)) == ((a & b) | (a & c))
    assert (a - b) == (a & b.complement())
    assert a.complement().complement() == a
    assert a.is_subset(a | b)
    assert (a & b).is_subset(a)


def test_powerset_enumeration_and_cap():
    events = list(S4.all_events())
    assert len(events) == 16
    assert events[0].is_empty and events[-1] == S4.full
    big = StateSpace(tuple(f"x{i}" for i in range(20)))
    with pytest.raises(CapExceeded):
        list(big.all_events())


def test_partition_order_two_elements():
    a = S4.event(["s1", "s2"])
    parts = list(enumerate_partitions(a))
    assert parts[0] == (a,)
    assert parts[1] == (S4.event(["s1"]), S4.event(["s2"]))
    assert len(parts) == 2


def test_partition_counts_match_bell_numbers():
    a = S4.event(["s1", "s2", "s3"])
    assert len(list(enumerate_partitions(a))) == bell_number(3) == 5
    assert len(list(enumerate_partitions(S4.full))) == bell_number(4) == 15


def test_partition_blocks_cover_and_disjoint():
    a = S4.event(["s1", "s3", "s4"])
    for part in enumerate_partitions(a):
        union = 0
        for block in part:
            assert union & block.mask == 0
            assert not block.is_empty
            union |= block.mask
        assert union == a.mask


def test_singleton_partition():
    a = S4.event(["s2", "s4"])
    assert singleton_partition(a) == (S4.event(["s2"]), S4.event(["s4"]))
    with pytest.raises(EmptyEvent):
        singleton_partition(S4.empty)
    with pytest.raises(EmptyEvent):
        list(enumerate_partitions(S4.empty))


def _restricted_growth_masks(members):
    """Partitions as block masks from restricted-growth strings, taken
    lexicographically from every code string."""
    n = len(members)
    out = []
    for tail in itertools.product(range(n), repeat=n - 1):
        codes = (0,) + tail
        if any(c > max(codes[:i]) + 1 for i, c in enumerate(codes) if i):
            continue
        blocks = [0] * (max(codes) + 1)
        for state, code in zip(members, codes):
            blocks[code] |= 1 << state
        out.append(tuple(blocks))
    return out


def test_partition_masks_follow_restricted_growth_order():
    space = StateSpace(tuple(f"x{i}" for i in range(8)))
    for n in range(1, 7):
        # low states, high states, and (up to four) every other state
        for members in (tuple(range(n)), tuple(range(8 - n, 8)), tuple(range(0, 8, 2))[:n]):
            a = Event(space, sum(1 << i for i in members))
            expected = _restricted_growth_masks(members)
            assert list(partition_masks(members)) == expected
            assert [tuple(b.mask for b in p) for p in enumerate_partitions(a)] == expected


def _first_passing_by_enumeration(a: Event, passes, calls: list) -> tuple[int, ...] | None:
    """The first partition from enumerate_partitions whose cells all pass,
    asking passes cell by cell and stopping a partition at its first
    failing cell."""
    for partition in enumerate_partitions(a):
        for block in partition:
            calls.append(block.mask)
            if not passes(block.mask):
                break
        else:
            return tuple(block.mask for block in partition)
    return None


def test_first_partition_is_the_first_partition_whose_cells_all_pass():
    # seeded pass tables over events of 1 to 7 of 8 states: arbitrary
    # tables, tables a subset sum decides (as in strong conditioning), and
    # tables no partition passes; the predicate is asked the same cells in
    # the same order as the by-definition walk
    rng = random.Random(7171)
    space = StateSpace(tuple(f"x{i}" for i in range(8)))
    found = missing = 0
    for t in range(600):
        n = 1 + t % 7
        members = tuple(sorted(rng.sample(range(8), n)))
        a = Event(space, sum(1 << i for i in members))
        cells = [c for c in range(1, a.mask + 1) if c & a.mask == c]
        if t % 3 == 0:
            share = rng.random()
            table = {c: rng.random() < share for c in cells}
        elif t % 3 == 1:
            d = rng.randint(1, 9)
            up = {i: rng.randint(-6, 4) for i in members}
            down = {i: rng.randint(-4, 6) for i in members}
            table = {
                c: d + sum(up[i] for i in members if c >> i & 1) > 0
                < d - sum(down[i] for i in members if c >> i & 1)
                for c in cells
            }
        else:
            # the one-state cell of a drawn state fails, and so does every
            # cell holding it
            bad = rng.choice(members)
            table = {c: not c >> bad & 1 and rng.random() < 0.8 for c in cells}
        asked, expected_calls = [], []
        got = first_partition(members, lambda c: asked.append(c) or table[c])
        expected = _first_passing_by_enumeration(a, table.__getitem__, expected_calls)
        assert got == expected
        assert asked == expected_calls
        found += got is not None
        missing += got is None
    assert found > 100 and missing > 200
