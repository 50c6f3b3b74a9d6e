"""Enumeration caps.

Full enumeration of acts (m^n), of the event powerset (2^n) and of one
event's partitions (Bell(|A|)) is central to the exhaustive checks, so all
three are guarded.  The act cap can be overridden with the LEXEU_CAP
environment variable, or by an explicit cap passed to enumerate_acts.
"""
from __future__ import annotations

import os

from .errors import CapExceeded

DEFAULT_ACT_CAP = 100_000
DEFAULT_STATE_CAP = 16  # max |S| for powerset enumeration (2^16 events)
PARTITION_ENUM_CAP = 20_000  # max Bell(|A|) for a partition search of one event


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


def check_act_count(count: int, cap: int | None = None) -> None:
    limit = act_cap() if cap is None else cap
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
