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

from .acts import Act, enumerate_acts, splice
from .caps import PARTITION_ENUM_CAP
from .errors import CapExceeded, EmptyEvent
from .events import Event, Partition, bell_number
from .model import GsleuModel
from .preference import (
    LexVerdict,
    Ordering,
    _check_act,
    _check_event,
    indexed_prefer,
)


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
    fah = splice(f.assignment, a.mask, h.assignment)
    gah = splice(g.assignment, a.mask, h.assignment)
    v_f = kern.values(fah)
    v_g = kern.values(gah)
    zero = (0,) * m.depth
    singles = tuple(1 << i for i in kern.members(a.mask))

    verdicts: dict[tuple[int, int], bool] = {}

    def cell_ok(cell: int, const_idx: int) -> bool:
        key = (cell, const_idx)
        ok = verdicts.get(key)
        if ok is None:
            up = kern.delta(cell, const_idx, fah)
            ok = _lex_strict_with_delta(v_f, v_g, up, zero)
            if ok:
                down = kern.delta(cell, const_idx, gah)
                ok = _lex_strict_with_delta(v_f, v_g, zero, down)
            verdicts[key] = ok
        return ok

    def find_partition(const_idx: int) -> tuple[int, ...] | None:
        if all(cell_ok(cell, const_idx) for cell in singles):
            return singles
        if a.size > 1:
            if bell_number(a.size) > PARTITION_ENUM_CAP:
                raise CapExceeded(
                    f"partition search over {a.size} states exceeds cap",
                    needed=bell_number(a.size),
                    cap=PARTITION_ENUM_CAP,
                )
            for part in kern.partitions(a.mask):
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
        witnesses[label] = tuple(Event(a.space, cell) for cell in found)
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
) -> ObservabilityReport:
    """Sweep events and act pairs comparing the strong conditional with the
    indexed preference.

    Every ordered instance is classified: equivalent (the two agree),
    fineness failure (indexed strict, strong fails, and the per-instance
    fineness condition is violated), or anomaly (anything else; expected
    empty).  Only the savage-strict direction of a pair can be strong, so
    the opposite direction is settled cheaply.

    At an event A every verdict reads the two acts on A only: the savage
    and indexed comparisons and the fineness gap are sums over A's states,
    and the strong conditional's perturbation cells lie inside A, so the
    off-A values of fAh and gAh cancel.  Each unordered pair of
    restrictions to A is therefore classified once, and every act pair with
    those restrictions, in either order, reuses the verdicts.
    """
    act_list = list(acts) if acts is not None else list(
        enumerate_acts(m.space, m.outcome_space)
    )
    event_list = (
        list(events)
        if events is not None
        else [e for e in m.space.all_events() if not e.is_empty]
    )
    for x in act_list:
        _check_act(m, x)
    for ev_ in event_list:
        _check_event(m, ev_)
    total = equivalent = finefail = anomaly = 0
    strong_count = strong_and_indexed = 0
    cond_total = cond_equiv = 0
    fail_entries: list[ObservabilityEntry] = []
    anomaly_entries: list[ObservabilityEntry] = []

    def classify(ev_: Event, x: Act, y: Act) -> tuple[tuple, tuple]:
        """(swapped, savage, indexed, strong, fine, class) for the two
        ordered instances of the pair, the savage-strict one first and
        (x, y) first when neither is; swapped marks the instance (y, x)."""
        savage = savage_conditional(m, ev_, x, y).ordering
        indexed = indexed_prefer(m, ev_, x, y)
        out = []
        first_swapped = savage is Ordering.STRICTLY_DISPREFER
        for swap in (first_swapped, not first_swapped):
            p, q = (y, x) if swap else (x, y)
            win = Ordering.STRICTLY_DISPREFER if swap else Ordering.STRICTLY_PREFER
            savage_s, indexed_s = savage is win, indexed is win
            strong_s = savage_s and strong_conditional_strict(m, ev_, p, q).strong_strict
            fine = indexed_s and fineness_holds(m, ev_, p, q)
            cls = _classify(indexed_s, strong_s, fine)
            out.append((swap, savage_s, indexed_s, strong_s, fine, cls))
        return tuple(out)

    for ev_ in event_list:
        members = m.kernel.members(ev_.mask)
        restricted = [tuple(x.assignment[i] for i in members) for x in act_list]
        memo: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple] = {}
        for i, x in enumerate(act_list):
            rx = restricted[i]
            for j in range(i + 1, len(act_list)):
                y = act_list[j]
                ry = restricted[j]
                flip = ry < rx
                key = (ry, rx) if flip else (rx, ry)
                instances = memo.get(key)
                if instances is None:
                    instances = memo[key] = classify(ev_, y, x) if flip else classify(ev_, x, y)
                if flip:
                    # the pair's verdicts, met as (y, x): only the swap marks
                    # change.  When neither instance is savage-strict, at
                    # most one is reported (neither can be strong, and the
                    # indexed preference is strict one way only), so their
                    # order never shows.
                    instances = tuple((not inst[0],) + inst[1:] for inst in instances)
                for swap, savage_s, indexed_s, strong_s, fine, cls in instances:
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
                        continue
                    first, second = (y, x) if swap else (x, y)
                    entry = ObservabilityEntry(
                        ev_, first, second, savage_s, indexed_s, strong_s, fine, cls
                    )
                    if cls is ObsClass.FINENESS_FAILURE:
                        finefail += 1
                        fail_entries.append(entry)
                    else:
                        anomaly += 1
                        anomaly_entries.append(entry)

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
