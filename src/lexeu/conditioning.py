"""Conditional preference read off unconditional comparisons.

Two observable notions are provided: the savage conditional (compare the
composites fAh and gAh; h-independent) and a strong conditional that
additionally survives constant-act perturbations on the cells of some
partition of the conditioning event.  The strong form can fail on coarse
atoms even when the indexed preference is strict; the per-instance
fineness condition tells the two apart.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .acts import Act, compose, enumerate_acts
from .errors import CapExceeded, EmptyEvent
from .events import Event, Partition, bell_number, enumerate_partitions, singleton_partition
from .model import GsleuModel
from .preference import (
    LexVerdict,
    Ordering,
    _check_act,
    _check_event,
    indexed_prefer,
)

PARTITION_ENUM_CAP = 20_000


def savage_conditional(m: GsleuModel, a: Event, f: Act, g: Act) -> LexVerdict:
    """Lexicographic comparison of f and g restricted to the event.

    Equals lex comparison of fAh and gAh for every h: contributions off
    the event cancel level by level.
    """
    _check_act(m, f)
    _check_act(m, g)
    _check_event(m, a)
    diff, k = m.kernel.lex(a.mask, f.assignment, g.assignment)
    return LexVerdict(Ordering.from_difference(diff), k)


@dataclass(frozen=True)
class ConditioningVerdict:
    savage_strict: bool
    strong_strict: bool
    failing_constant: str | None
    witness_partitions: dict[str, Partition] | None
    coarse_constants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.strong_strict and not self.savage_strict:
            raise ValueError("strong conditional implies the savage conditional")
        expected_failing = self.savage_strict and not self.strong_strict
        if expected_failing != (self.failing_constant is not None):
            raise ValueError(
                "failing constant recorded exactly when savage holds but strong fails"
            )


def _lex_strict_with_delta(
    base_hi: Sequence[int], base_lo: Sequence[int], delta_hi, delta_lo
) -> bool:
    """Is (base_hi + delta_hi) lexicographically above (base_lo + delta_lo)?"""
    for bh, bl, dh, dl in zip(base_hi, base_lo, delta_hi, delta_lo):
        d = (bh + dh) - (bl + dl)
        if d > 0:
            return True
        if d < 0:
            return False
    return False


def strong_conditional_strict(
    m: GsleuModel,
    a: Event,
    f: Act,
    g: Act,
    h: Act | None = None,
    partition_budget: int | None = None,
) -> ConditioningVerdict:
    """Strict conditional preference via constant-act perturbations.

    Requires the savage conditional to be strict, and for every constant
    act k a partition of the event such that on each cell both
    k-on-cell(fAh) beats gAh and fAh beats k-on-cell(gAh), unconditionally
    and strictly.  Constants are tried best-first; partitions are searched
    singletons-first, then coarser ones in restricted-growth order.  The
    verdict is independent of the filler act h (g by default).
    """
    if a.is_empty:
        raise EmptyEvent("conditioning on the empty event")
    if h is None:
        h = g
    _check_act(m, h)
    savage = savage_conditional(m, a, f, g)
    if savage.ordering is not Ordering.STRICTLY_PREFER:
        return ConditioningVerdict(False, False, None, None)

    # Every comparison below is level by level between two composites, so
    # the kernel's per-level scaling keeps each verdict exact.
    kern = m.kernel
    fah = compose(f, a, h)
    gah = compose(g, a, h)
    v_f = kern.values(fah.assignment)
    v_g = kern.values(gah.assignment)
    zero = (0,) * m.depth
    singles = singleton_partition(a)

    budget = a.size if partition_budget is None else min(partition_budget, a.size)

    def cell_ok(cell: Event, const_idx: int) -> bool:
        up = kern.delta(cell.mask, const_idx, fah.assignment)
        if not _lex_strict_with_delta(v_f, v_g, up, zero):
            return False
        down = kern.delta(cell.mask, const_idx, gah.assignment)
        return _lex_strict_with_delta(v_f, v_g, zero, down)

    def find_partition(const_idx: int) -> Partition | None:
        if all(cell_ok(cell, const_idx) for cell in singles):
            return singles
        if a.size > 1:
            if bell_number(a.size) > PARTITION_ENUM_CAP:
                raise CapExceeded(
                    f"partition search over {a.size} states exceeds cap",
                    needed=bell_number(a.size),
                    cap=PARTITION_ENUM_CAP,
                )
            for part in enumerate_partitions(a, max_blocks=budget):
                if part == singles:
                    continue
                if all(cell_ok(cell, const_idx) for cell in part):
                    return part
        return None

    witnesses: dict[str, Partition] = {}
    coarse: list[str] = []
    for o in kern.outcome_order:
        label = m.outcome_space.outcomes[o]
        found = find_partition(o)
        if found is None:
            return ConditioningVerdict(True, False, label, None)
        witnesses[label] = found
        if found != singles:
            coarse.append(label)
    return ConditioningVerdict(True, True, None, witnesses, tuple(coarse))


def fineness_holds(m: GsleuModel, a: Event, f: Act, g: Act) -> bool:
    """Per-instance sufficiency condition: the largest conditional atom
    times the utility range at the event's class stays below the
    conditional expected-utility gap.

    Both sides carry the factor 1 / (core mass x utility scale) of the
    class level, so the kernel compares them without it.
    """
    _check_act(m, f)
    _check_act(m, g)
    _check_event(m, a)
    if a.is_empty:
        raise EmptyEvent("fineness condition needs a nonempty event")
    kern = m.kernel
    k, core = kern.event(a.mask)
    utility = kern.util[k]
    max_atom = max(kern.prob[k][i] for i in core)
    gap = kern.score(a.mask, f.assignment) - kern.score(a.mask, g.assignment)
    return max_atom * (max(utility) - min(utility)) < abs(gap)


class ObsClass(enum.Enum):
    EQUIVALENT = "equivalent"
    FINENESS_FAILURE = "fineness_failure"
    ANOMALY = "anomaly"


@dataclass(frozen=True)
class ObservabilityEntry:
    event: Event
    f: Act
    g: Act
    savage_strict: bool
    indexed_strict: bool
    strong_strict: bool
    fineness_ok: bool
    classification: ObsClass


@dataclass(frozen=True)
class ObservabilityReport:
    total_instances: int
    equivalent_count: int
    fineness_failure_count: int
    anomaly_count: int
    strong_count: int
    strong_and_indexed_count: int
    condition_instances: int
    condition_equivalent: int
    fineness_failures: tuple[ObservabilityEntry, ...]
    anomalies: tuple[ObservabilityEntry, ...]

    @property
    def ok(self) -> bool:
        return self.anomaly_count == 0


def _classify(indexed_strict: bool, strong: bool, fine: bool) -> ObsClass:
    if strong == indexed_strict:
        return ObsClass.EQUIVALENT
    if indexed_strict and not strong:
        return ObsClass.ANOMALY if fine else ObsClass.FINENESS_FAILURE
    return ObsClass.ANOMALY


def observability_check(
    m: GsleuModel,
    acts: Iterable[Act] | None = None,
    events: Iterable[Event] | None = None,
    partition_budget: int | None = None,
) -> ObservabilityReport:
    """Sweep events and act pairs comparing the strong conditional with the
    indexed preference.

    Every ordered instance is classified: equivalent (the two agree),
    fineness failure (indexed strict, strong fails, and the per-instance
    fineness condition is violated), or anomaly (anything else; expected
    empty).  Only the savage-strict direction of a pair can be strong, so
    the opposite direction is settled cheaply.
    """
    act_list = list(acts) if acts is not None else list(
        enumerate_acts(m.space, m.outcome_space)
    )
    event_list = (
        list(events)
        if events is not None
        else [e for e in m.space.all_events() if not e.is_empty]
    )
    total = equivalent = finefail = anomaly = 0
    strong_count = strong_and_indexed = 0
    cond_total = cond_equiv = 0
    fail_entries: list[ObservabilityEntry] = []
    anomaly_entries: list[ObservabilityEntry] = []

    def record(ev_: Event, x: Act, y: Act, savage_s: bool, indexed_s: bool, strong_s: bool):
        nonlocal total, equivalent, finefail, anomaly, strong_count
        nonlocal strong_and_indexed, cond_total, cond_equiv
        fine = fineness_holds(m, ev_, x, y) if indexed_s else False
        cls = _classify(indexed_s, strong_s, fine)
        total += 1
        if strong_s:
            strong_count += 1
            if indexed_s:
                strong_and_indexed += 1
        if fine:
            cond_total += 1
            if cls is ObsClass.EQUIVALENT:
                cond_equiv += 1
        if cls is ObsClass.EQUIVALENT:
            equivalent += 1
            return
        entry = ObservabilityEntry(ev_, x, y, savage_s, indexed_s, strong_s, fine, cls)
        if cls is ObsClass.FINENESS_FAILURE:
            finefail += 1
            fail_entries.append(entry)
        else:
            anomaly += 1
            anomaly_entries.append(entry)

    for ev_ in event_list:
        for i, x in enumerate(act_list):
            for y in act_list[i + 1 :]:
                savage = savage_conditional(m, ev_, x, y)
                indexed = indexed_prefer(m, ev_, x, y)
                if savage.ordering is Ordering.INDIFFERENT:
                    # neither direction can be strong or indexed-strict
                    record(ev_, x, y, False, indexed is Ordering.STRICTLY_PREFER, False)
                    record(ev_, y, x, False, indexed is Ordering.STRICTLY_DISPREFER, False)
                    continue
                hi, lo = (x, y) if savage.ordering is Ordering.STRICTLY_PREFER else (y, x)
                hi_indexed = (
                    indexed is Ordering.STRICTLY_PREFER
                    if hi is x
                    else indexed is Ordering.STRICTLY_DISPREFER
                )
                lo_indexed = (
                    indexed is Ordering.STRICTLY_DISPREFER
                    if hi is x
                    else indexed is Ordering.STRICTLY_PREFER
                )
                verdict = strong_conditional_strict(
                    m, ev_, hi, lo, partition_budget=partition_budget
                )
                record(ev_, hi, lo, True, hi_indexed, verdict.strong_strict)
                record(ev_, lo, hi, False, lo_indexed, False)

    return ObservabilityReport(
        total,
        equivalent,
        finefail,
        anomaly,
        strong_count,
        strong_and_indexed,
        cond_total,
        cond_equiv,
        tuple(fail_entries),
        tuple(anomaly_entries),
    )
