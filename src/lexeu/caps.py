"""Enumeration and solver caps.

Full enumeration of acts (m^n), of the event powerset (2^n) and of one
event's partitions (Bell(|A|)) is central to the exhaustive checks, so all
three are guarded, each by one check here.  The partition check guards the
one partition search (events.first_partition) shared by strong
conditioning and P6.5.  The act cap can be overridden with the LEXEU_CAP
environment variable.  The axiom checkers' default instance budget lives
here too, so the CLI's --budget default does not import the checkers.

The exact simplex (feasibility) refuses a system with more than
MAX_VARIABLES variables or MAX_CONSTRAINTS constraints, and one whose
integer tableau could hold numbers wider than LP_BIT_CAP bits: Hadamard's
bound on the scaled rows caps every entry before the first pivot.
"""
from __future__ import annotations

import os

from .errors import CapExceeded

DEFAULT_ACT_CAP = 100_000
DEFAULT_STATE_CAP = 16  # max |S| for powerset enumeration (2^16 events)
PARTITION_ENUM_CAP = 20_000  # max Bell(|A|) for a partition search of one event
DEFAULT_BUDGET = 300_000  # instances per axiom checker
MAX_VARIABLES = 32  # per linear system
MAX_CONSTRAINTS = 5000  # per linear system
LP_BIT_CAP = 4096  # max Hadamard bound, in bits, on the simplex's integers


def act_cap() -> int:
    raw = os.environ.get("LEXEU_CAP")
    if raw is None:
        return DEFAULT_ACT_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise CapExceeded(f"LEXEU_CAP is not an integer: {raw!r}") from exc
    if value <= 0:
        raise CapExceeded(f"LEXEU_CAP must be positive, got {value}")
    return value


def check_act_count(count: int) -> None:
    limit = act_cap()
    if count > limit:
        raise CapExceeded(
            f"act enumeration needs {count} acts, cap is {limit}",
            needed=count,
            cap=limit,
        )


def check_state_count(n: int) -> None:
    if n > DEFAULT_STATE_CAP:
        raise CapExceeded(
            f"powerset enumeration over {n} states exceeds cap {DEFAULT_STATE_CAP}",
            needed=n,
            cap=DEFAULT_STATE_CAP,
        )


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set (triangle recurrence)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def check_partition_count(n: int, search: str = "partition search") -> None:
    """CapExceeded if a set of n states has more than PARTITION_ENUM_CAP
    partitions; search names the search in the message."""
    needed = bell_number(n)
    if needed > PARTITION_ENUM_CAP:
        raise CapExceeded(
            f"{search} over {n} states exceeds cap", needed=needed, cap=PARTITION_ENUM_CAP
        )
