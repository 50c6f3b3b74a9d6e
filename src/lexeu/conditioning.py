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
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .acts import Act, enumerate_acts
from .errors import EmptyEvent
from .events import Event, Partition, first_partition
from .kernel import Cells, Kernel
from .model import GsleuModel
from .preference import (
    LexVerdict,
    Ordering,
    _check_act,
    _check_event,
    _lex_verdict,
)


def savage_conditional(m: GsleuModel, a: Event, f: Act, g: Act) -> LexVerdict:
    """Lexicographic comparison of f and g restricted to the event.

    Equals lex comparison of fAh and gAh for every h: contributions off
    the event cancel level by level.
    """
    _check_act(m, f)
    _check_act(m, g)
    _check_event(m, a)
    return _lex_verdict(m.kernel.difference(a.mask, f.assignment, g.assignment))


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


def _strong_partitions(
    kern: Kernel, mask: int, diff: list[int], x: Sequence[int], y: Sequence[int]
) -> list[tuple[int, ...] | None]:
    """Per constant c, best first: the first partition of the event
    (singletons, then events.first_partition's order) each of whose cells
    C keeps diff + Σ steps[i][c][x[i]] and diff − Σ steps[i][c][y[i]], over
    i in C at i's level, lexicographically positive.  diff is
    kern.difference(mask, x, y).  The list ends at the first constant with
    none, as None.

    Both sums are taken packed (Kernel.packed), so a cell's verdict is the
    sign of two ints.  When the singletons fail for an extreme constant
    (Kernel.extreme: weakly best or weakly worst at every state of the
    event), every partition fails: for a weakly best c the first sum is at
    least d > 0 and the second only falls as states join a cell, so the
    cell holding the failing state fails too (swap the sums for a weakly
    worst c).  For any other constant one subset-sum pass over the event's
    submasks decides every cell at once, and first_partition asks the set
    of cells that pass.  Kernel.extreme checks the partition cap before
    either."""
    steps = kern.packed[1]
    d = kern.pack(diff)
    members = kern.members(mask)
    found: list[tuple[int, ...] | None] = []
    for c in kern.outcome_order:
        if all(d + steps[i][c][x[i]] > 0 < d - steps[i][c][y[i]] for i in members):
            part = tuple(1 << i for i in members)
        elif len(members) > 1:
            part = None if kern.extreme(mask)[c] else _first_fit(
                kern.cells(mask), [row[c] for row in steps], d, x, y
            )
        else:
            part = None
        found.append(part)
        if part is None:
            break
    return found


def _first_fit(
    table: Cells, step: Sequence[Sequence[int]], d: int, x: Sequence[int], y: Sequence[int]
) -> tuple[int, ...] | None:
    """The first partition of table's event each of whose cells passes,
    where step[i][o] is the packed change at state i when the constant
    replaces o.  Each cell's two sums extend those of the cell without its
    lowest state."""
    up = [d] * (len(table.subsets) + 1)
    down = up[:]
    good = set()
    for t, (cell, i, rest) in enumerate(table.subsets, 1):
        u = up[t] = up[rest] + step[i][x[i]]
        v = down[t] = down[rest] - step[i][y[i]]
        if u > 0 < v:
            good.add(cell)
    return first_partition(table.members, good.__contains__)


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
    singletons-first, then coarser ones in restricted-growth order.  A
    constant weakly best at every state of the event is settled by the
    singletons: putting it on a cell never lowers an act, and raises
    k-on-cell(gAh) the more the larger the cell, so if fAh fails to beat
    k-on-{s}(gAh), it fails on every cell holding s (and k-on-cell(fAh)
    likewise for a weakly worst constant).  The
    verdict is independent of the filler act h (g by default): every
    comparison is between composites that agree off the event, so only
    their level differences on it count.
    """
    if a.is_empty:
        raise EmptyEvent("conditioning on the empty event")
    if h is None:
        h = g
    for act in (h, f, g):
        _check_act(m, act)
    _check_event(m, a)
    kern = m.kernel
    x, y = f.assignment, g.assignment
    diff = kern.difference(a.mask, x, y)
    if _lex_verdict(diff).ordering is not Ordering.STRICTLY_PREFER:
        return ConditioningVerdict(False, False, None, None)
    found = _strong_partitions(kern, a.mask, diff, x, y)
    labels = [m.outcome_space.outcomes[o] for o in kern.outcome_order]
    if found[-1] is None:
        return ConditioningVerdict(True, False, labels[len(found) - 1], None)
    cells = [tuple(Event(a.space, cell) for cell in part) for part in found]
    witnesses = dict(zip(labels, cells))
    coarse = tuple(label for label, part in zip(labels, found) if len(part) < a.size)
    return ConditioningVerdict(True, True, None, witnesses, coarse)


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
    gap = kern.score(a.mask, f.assignment) - kern.score(a.mask, g.assignment)
    return _fineness_bound(kern, a.mask) < abs(gap)


def _fineness_bound(kern: Kernel, mask: int) -> int:
    """The largest atom of the nonempty event times its class's utility range."""
    k, core = kern.event(mask)
    utility = kern.util[k]
    return max(kern.prob[k][i] for i in core) * (max(utility) - min(utility))


class ObsClass(enum.Enum):
    EQUIVALENT = "equivalent"
    FINENESS_FAILURE = "fineness_failure"
    ANOMALY = "anomaly"


class ObservabilityEntry(NamedTuple):
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
    empty).  Each listed event counts, repeats and the empty event
    included: len(events)·N·(N − 1) instances for N acts.

    At an event A every verdict reads the two acts on A only: the savage
    and indexed comparisons and the fineness gap are sums over A's states,
    and the strong conditional's perturbation cells lie inside A, so the
    off-A values of fAh and gAh cancel.  So the acts are grouped by their
    restriction to A, and each pair of classes I, J with a nonzero
    difference vector is classified once, as its savage-strict instance,
    counting |I|·|J| times.  Every other instance is equivalent.  Its
    difference vector is zero, or it is the opposite of a savage-strict
    one: Kernel.difference is zero before A's class, so a nonzero
    class-level gap is the lead, and the opposite instance is neither
    savage- nor indexed-strict.  Entries are built only for non-equivalent
    instances, all savage-strict, one per act pair of the class pair, in
    act-pair order: by the pair's earlier and later list position.  So the
    fineness-failure and anomaly counts are the numbers of entries.
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
    strong_count = strong_and_indexed = cond_total = cond_equiv = 0
    fail_entries: list[ObservabilityEntry] = []
    anomaly_entries: list[ObservabilityEntry] = []
    kern = m.kernel
    n_acts = len(act_list)

    for ev_ in event_list:
        if ev_.is_empty:
            continue
        mask, bound = ev_.mask, _fineness_bound(kern, ev_.mask)
        k, _ = kern.event(mask)
        members = kern.members(mask)
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, act in enumerate(act_list):
            groups.setdefault(tuple(act.assignment[s] for s in members), []).append(i)
        classes = [(act_list[idx[0]].assignment, idx) for idx in groups.values()]
        found: list[tuple[int, ObservabilityEntry]] = []  # (act-pair order, entry)
        for lo, (x, lo_idx) in enumerate(classes):
            for y, hi_idx in classes[lo + 1 :]:
                diff = kern.difference(mask, x, y)
                lead = next((d for d in diff if d), 0)
                if not lead:
                    continue
                swap = lead < 0
                if swap:
                    diff, better, worse = [-d for d in diff], y, x
                else:
                    better, worse = x, y
                strong = _strong_partitions(kern, mask, diff, better, worse)[-1] is not None
                indexed = diff[k] > 0
                fine = indexed and bound < diff[k]
                cls = _classify(indexed, strong, fine)
                n = len(lo_idx) * len(hi_idx)
                if strong:
                    strong_count += n
                    if indexed:
                        strong_and_indexed += n
                if fine:
                    cond_total += n
                    if cls is ObsClass.EQUIVALENT:
                        cond_equiv += n
                if cls is ObsClass.EQUIVALENT:
                    continue
                for a in lo_idx:
                    for b in hi_idx:
                        first, second = (b, a) if swap else (a, b)
                        found.append((
                            min(a, b) * n_acts + max(a, b),
                            ObservabilityEntry(
                                ev_, act_list[first], act_list[second],
                                True, indexed, strong, fine, cls,
                            ),
                        ))
        found.sort(key=itemgetter(0))
        for _, entry in found:
            if entry.classification is ObsClass.FINENESS_FAILURE:
                fail_entries.append(entry)
            else:
                anomaly_entries.append(entry)

    total = len(event_list) * n_acts * (n_acts - 1)
    return ObservabilityReport(
        total,
        total - len(fail_entries) - len(anomaly_entries),
        len(fail_entries),
        len(anomaly_entries),
        strong_count,
        strong_and_indexed,
        cond_total,
        cond_equiv,
        tuple(fail_entries),
        tuple(anomaly_entries),
    )
