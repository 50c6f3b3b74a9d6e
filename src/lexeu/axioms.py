"""Decidable checkers for the axioms and the appendix-level laws.

Every axiom is instantiated over the family's finite act and event
universes.  Where the instance count would explode (three act
quantifiers, or act pairs on larger models), the offending quantifier is
restricted to a deterministic sample — all constants plus seeded random
draws — and the report records which regime ran.  Violations carry
witnesses that can be replayed one instance at a time.

Inside this module an event is its mask and an act its assignment tuple.
`Event`s and `Act`s appear only in witnesses: `_Fam.witness` builds them
and `replay_witness` reads them back.
"""
from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .acts import Act, splice
from .caps import DEFAULT_BUDGET, check_partition_count, check_state_count
from .events import Event, first_partition
from .model import sign
from .preference import DEGENERATE, Ordering, weakly_preferred

MAX_WITNESSES = 5
H_SAMPLE = 20
PAIR_SAMPLE_FLOOR = 24

Assignment = tuple[int, ...]


class AxiomStatus(enum.Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INFORMATIONAL = "Informational"


@dataclass(frozen=True)
class Witness:
    events: tuple[Event, ...]
    acts: tuple[Act, ...]
    note: str = ""


@dataclass(frozen=True)
class AxiomReport:
    axiom_id: str
    status: AxiomStatus
    witnesses: tuple[Witness, ...]
    statistics: dict

    def __post_init__(self) -> None:
        if self.status is AxiomStatus.VIOLATED and not self.witnesses:
            raise ValueError("a violation needs at least one witness")


@dataclass(frozen=True)
class SuiteReport:
    reports: tuple[AxiomReport, ...]

    def report(self, axiom_id: str) -> AxiomReport:
        for r in self.reports:
            if r.axiom_id == axiom_id:
                return r
        raise KeyError(axiom_id)

    @property
    def ok(self) -> bool:
        return all(r.status is not AxiomStatus.VIOLATED for r in self.reports)


class _Fam:
    """The one view of either family kind that the axiom checkers and
    synthesis read.  Every answer comes off the family's own rank oracle
    (`score` and `uncond_key` by event mask and act assignment,
    `signature` by event mask), of which it keeps no copy; only nullity
    verdicts are cached here.  Acts are assignments throughout, the
    constant acts included (`constants`, by outcome label), so composites
    never need to become Acts."""

    def __init__(self, family):
        self.family = family
        self.space = family.space
        self.outcome_space = family.outcome_space
        check_state_count(self.space.size)
        self.full = self.space.full.mask  # also the number of nonempty events
        n = self.space.size
        self.constants = {o: (i,) * n for i, o in enumerate(self.outcome_space.outcomes)}
        # the quantifiers range over these assignments in assignment order,
        # so no report depends on the order a table lists its acts
        self.xs = sorted(act.assignment for _, act in family.act_items())
        self.const_xs = list(self.constants.values())
        self.skipped = 0
        self._null: dict[tuple[int, int], bool] = {}
        # bound once: order() is the checkers' innermost call, and looking
        # the oracle up through the family on each call cost a model-side
        # check_all about 3%
        self.score = family.score

    def witness(self, masks: Iterable[int], xs: Iterable[Assignment], note: str) -> Witness:
        """The reported form of one instance: Events for its masks, Acts
        for its assignments."""
        events = tuple(Event(self.space, m) for m in masks)
        return Witness(events, tuple(Act(self.space, self.outcome_space, x) for x in xs), note)

    # -- comparisons ---------------------------------------------------

    def order(self, mask: int, x: Assignment, y: Assignment):
        """Ordering of x against y at the event; DEGENERATE for the empty
        event, None when the family's table does not list x or y.  Counts
        nothing: an instance that reads a None counts it."""
        if not mask:
            return DEGENERATE
        sx, sy = self.score(mask, x), self.score(mask, y)
        if sx is None or sy is None:
            return None
        return _order(sx, sy)

    def cmp(self, mask: int, x: Assignment, y: Assignment):
        """order(), counting a None as a skipped instance."""
        got = self.order(mask, x, y)
        if got is None:
            self.skipped += 1
        return got

    def orders(self, x: Assignment, y: Assignment) -> list:
        """order() of x against y at every event, indexed by mask."""
        return [self.order(m, x, y) for m in range(self.full + 1)]

    def uncond(self, x: Assignment, y: Assignment):
        """Unconditional ordering of x against y, both listed acts."""
        return _order(self.family.uncond_key(x), self.family.uncond_key(y))

    def agreement(self, a: int, b: int) -> bool:
        return self.family.signature(a) == self.family.signature(b)

    def null_at(self, b: int, a: int) -> bool:
        """b null at a (b must be a subevent): removing b changes nothing."""
        key = (b, a)
        got = self._null.get(key)
        if got is None:
            got = self._null[key] = self.agreement(a & ~b, a)
        return got

    def gg(self, a: int, b: int) -> bool:
        """a dominates b: at their union a matters and b does not."""
        union = a | b
        return bool(union) and not self.null_at(a, union) and self.null_at(b, union)

    # -- quantifier universes -------------------------------------------

    def pair_universe(self, axiom_id: str, outer: int, budget: int,
                      weight: int = 1) -> tuple[list[tuple[Assignment, Assignment]], str]:
        """Unordered act pairs: exhaustive when the instance count fits the
        budget, otherwise all constant pairs plus a seeded sample."""
        acts = self.xs
        n = len(acts)
        total_pairs = n * (n - 1) // 2
        if total_pairs * max(outer, 1) * max(weight, 1) <= budget:
            return [(acts[i], acts[j]) for i in range(n) for j in range(i + 1, n)], "exhaustive"
        quota = min(max(budget // (max(outer, 1) * max(weight, 1)), PAIR_SAMPLE_FLOOR), total_pairs)
        consts = self.const_xs
        pairs = [(x, y) for i, x in enumerate(consts) for y in consts[i + 1 :]]
        rng = random.Random(f"{axiom_id}|{self.space.size}|{n}")
        seen = {tuple(sorted(pair)) for pair in pairs}
        while len(pairs) < quota:
            pair = tuple(rng.sample(acts, 2))
            key = tuple(sorted(pair))
            if key not in seen:
                seen.add(key)
                pairs.append(pair)
        return pairs, f"sample({len(pairs)})"

    def h_universe(self, axiom_id: str, outer: int, budget: int) -> tuple[list[Assignment], str]:
        acts = self.xs
        if len(acts) * max(outer, 1) <= budget:
            return acts, "exhaustive"
        rng = random.Random(f"{axiom_id}:h:{self.space.size}:{len(acts)}")
        sample = list(self.const_xs)
        seen = set(sample)
        while len(sample) < len(self.const_xs) + H_SAMPLE and len(sample) < len(acts):
            h = rng.choice(acts)
            if h not in seen:
                seen.add(h)
                sample.append(h)
        return sample, f"constants+{len(sample) - len(self.const_xs)}"

    def canonical_chain(self) -> tuple[int, ...] | None:
        """Nested top events derived from nullity alone: peel off, at each
        stage, the singletons whose removal changes the stage's ranking."""
        chain = []
        rest = self.full
        while rest:
            chain.append(rest)
            live = sum(1 << i for i in _members(rest) if not self.null_at(1 << i, rest))
            if not live:
                return None
            rest &= ~live
        return tuple(chain)


def _order(x, y) -> Ordering:
    """Ordering of two scores or two unconditional keys."""
    if x == y:
        return Ordering.INDIFFERENT
    return Ordering.STRICTLY_PREFER if x > y else Ordering.STRICTLY_DISPREFER


def _weak(o) -> bool:
    return o is DEGENERATE or o is Ordering.STRICTLY_PREFER or o is Ordering.INDIFFERENT


def _strict(o) -> bool:
    return o is Ordering.STRICTLY_PREFER


def _members(mask: int) -> list[int]:
    """The state indices in the mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _submasks(mask: int) -> list[int]:
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & mask


# -- per-instance evaluators ----------------------------------------------
#
# Each returns True when the instance satisfies the axiom; checkers and
# witness replay share them.  Events are masks and acts are assignments.
# A None comparison (composite missing from a partial table) counts as
# vacuously satisfied and is tallied separately.


def _eval_p0(fam: _Fam, chain: tuple[int, ...], x: Assignment, y: Assignment) -> bool:
    signs = [fam.cmp(e, x, y) for e in chain]
    if any(s is None for s in signs):
        return True
    # every chain event reads a score, so the table lists x and y, and a
    # table ranks every listed act unconditionally
    u = fam.uncond(x, y)
    forward = weakly_preferred(signs, Ordering.STRICTLY_PREFER, Ordering.STRICTLY_DISPREFER)
    backward = weakly_preferred(signs, Ordering.STRICTLY_DISPREFER, Ordering.STRICTLY_PREFER)
    return (_weak(u) == forward) and (_weak(u.flip()) == backward)


def _eval_p1(fam: _Fam, m: int, base, x: Assignment, y: Assignment, z: Assignment) -> bool:
    """base: x against y at m, which does not depend on z."""
    moved = fam.order(m, splice(x, m, z), splice(y, m, z))
    if base is None or moved is None:
        fam.skipped += (base is None) + (moved is None)
        return True
    return base == moved


_UP_DOWN = (
    (Ordering.STRICTLY_PREFER, Ordering.STRICTLY_DISPREFER),
    (Ordering.STRICTLY_DISPREFER, Ordering.STRICTLY_PREFER),
)


def _eval_p2(fam: _Fam, at, a: int, b: int) -> bool:
    """at: the pair's orderings by event mask, f against g; any mapping
    that holds b, a - b and a."""
    at_b, at_rest, at_a = at[b], at[a & ~b], at[a]
    if at_b is None or at_rest is None or at_a is None:
        fam.skipped += (at_b is None) + (at_rest is None) + (at_a is None)
        return True
    # f against g, then g against f: in each direction an ordering is weak
    # unless it is `down` and strict when it is `up`
    for up, down in _UP_DOWN:
        if at_b is not down and at_rest is not down and at_a is down:
            return False
        if at_a is not down and at_b is down and at_rest is down:
            return False
        if at_b is up and at_rest is not down and at_a is not up and not fam.null_at(b, a):
            return False
    return True


def _eval_p3(fam: _Fam, a: int, x: Assignment, y: Assignment) -> bool:
    here = fam.cmp(a, x, y)
    at_s = fam.cmp(fam.full, x, y)
    if here is None or at_s is None:
        return True
    return here == at_s


def _eval_p4(fam: _Fam, a: int, b: int, c: int, x: Assignment, xp: Assignment,
             y: Assignment, yp: Assignment) -> bool:
    first = fam.cmp(a, splice(x, b, xp), splice(x, c, xp))
    second = fam.cmp(a, splice(y, b, yp), splice(y, c, yp))
    if first is None or second is None:
        return True
    return not (_weak(first) and not _weak(second))


def _eval_p5(fam: _Fam) -> bool:
    consts = fam.const_xs
    return any(
        _strict(fam.cmp(fam.full, x, y)) or _strict(fam.cmp(fam.full, y, x))
        for i, x in enumerate(consts)
        for y in consts[i + 1 :]
    )


def _eval_p6(fam: _Fam, a: int, x: Assignment, y: Assignment, z: Assignment) -> bool:
    if not _strict(fam.cmp(a, x, y)):
        return True
    return first_partition(
        _members(a),
        lambda cell: _strict(fam.cmp(a, x, splice(z, cell, y)))
        and _strict(fam.cmp(a, splice(z, cell, x), y)),
    ) is not None


def _eval_se_first(fam: _Fam, chain: tuple[int, ...], b: int) -> bool:
    premise = all(fam.agreement(e, e & ~b) for e in chain if b & e == b)
    if not premise:
        return True
    return all(fam.agreement(a, a & ~b) for a in range(fam.full + 1) if b & a == b)


def _eval_se_second(fam: _Fam, a: int, e: int) -> bool:
    if e & a != e:
        return True
    return fam.agreement(a, a & ~e) or fam.agreement(a, e)


def _eval_nullity(fam: _Fam, a: int, b: int, c: int) -> bool:
    if fam.null_at(b, a) and not fam.null_at(c, a):
        return False
    if fam.null_at(c, a) and fam.null_at(b & ~c, a) and not fam.null_at(b, a):
        return False
    if fam.null_at(c, b) and not fam.null_at(c, a):
        return False
    return True


def _eval_dominance(fam: _Fam, a: int, b: int, c: int) -> bool:
    return not (fam.gg(a, b) and fam.gg(b, c) and not fam.gg(a, c))


_BET_CACHE_NOTE = "bets use the best and worst constants at S"


def _qp_masses(
    fam: _Fam, at: int, within: int, best: Assignment, worst: Assignment
) -> dict[int, int] | None:
    """Scores, at the event `at`, of the bets (best prize on the subevent,
    worst off it) on every subevent of `within`; higher means more
    probable.  None when the table lacks some bet composite."""
    scores = {}
    for m in _submasks(within):
        score = fam.score(at, splice(best, m, worst))
        if score is None:
            fam.skipped += 1
            return None
        scores[m] = score
    return scores


def _eval_qp_additivity(scores: dict[int, int], b: int, c: int, d: int) -> bool:
    return sign(scores[b] - scores[c]) == sign(scores[b | d] - scores[c | d])


# -- checkers ---------------------------------------------------------------


def _report(fam: _Fam, axiom_id, failures, stats, informational=False) -> AxiomReport:
    """failures lists each failing instance as (masks, assignments, note);
    only the first MAX_WITNESSES become Witnesses."""
    if informational:
        status = AxiomStatus.INFORMATIONAL
    elif failures:
        status = AxiomStatus.VIOLATED
    else:
        status = AxiomStatus.HOLDS
    witnesses = tuple(fam.witness(*f) for f in failures[:MAX_WITNESSES])
    return AxiomReport(axiom_id, status, witnesses, stats)


def _no_chain(fam: _Fam, axiom_id: str) -> AxiomReport:
    """The report of a chain-indexed axiom when nullity derives no chain."""
    w = ((fam.full,), (), "no nullity-derived chain exists")
    return _report(fam, axiom_id, [w], {"instances": 0})


def _check_p0(fam: _Fam, budget: int) -> AxiomReport:
    chain = fam.canonical_chain()
    if chain is None:
        return _no_chain(fam, "P0.5")
    pairs, regime = fam.pair_universe("P0.5", len(chain) + 1, budget)
    failures = [
        (chain, pair, "lexicographic rule mismatch")
        for pair in pairs
        if not _eval_p0(fam, chain, *pair)
    ]
    stats = {"instances": len(pairs), "pair_regime": regime, "chain": len(chain)}
    return _report(fam, "P0.5", failures, stats)


def _check_p1(fam: _Fam, budget: int) -> AxiomReport:
    hs, h_regime = fam.h_universe("P1.5", fam.full * PAIR_SAMPLE_FLOOR, budget)
    pairs, regime = fam.pair_universe("P1.5", fam.full * len(hs), budget)
    failures = []
    for m in range(1, fam.full + 1):
        for x, y in pairs:
            base = fam.order(m, x, y)
            for z in hs:
                if not _eval_p1(fam, m, base, x, y, z):
                    failures.append(((m,), (x, y, z), "composition changed the ranking"))
    count = fam.full * len(pairs) * len(hs)
    stats = {"instances": count, "pair_regime": regime, "h_regime": h_regime}
    return _report(fam, "P1.5", failures, stats)


def _check_p2(fam: _Fam, budget: int) -> AxiomReport:
    spans = [(a, b) for a in range(fam.full + 1) for b in _submasks(a)]
    pairs, regime = fam.pair_universe("P2.5", len(spans), budget)
    # the spans visit every mask, so each pair's orderings are read in full
    orders = [fam.orders(x, y) for x, y in pairs]
    failures = [
        ((a, b), pair, "sure-thing failure")
        for a, b in spans
        for pair, at in zip(pairs, orders)
        if not _eval_p2(fam, at, a, b)
    ]
    stats = {"instances": len(spans) * len(pairs), "pair_regime": regime}
    return _report(fam, "P2.5", failures, stats)


def _check_p3(fam: _Fam, budget: int) -> AxiomReport:
    consts = fam.const_xs
    pairs = [(x, y) for i, x in enumerate(consts) for y in consts[i + 1 :]]
    failures = [
        ((a,), pair, "constants reordered by the event")
        for a in range(1, fam.full + 1)
        for pair in pairs
        if not _eval_p3(fam, a, *pair)
    ]
    stats = {"instances": fam.full * len(pairs), "pair_regime": "exhaustive"}
    return _report(fam, "P3.5", failures, stats)


def _check_p4(fam: _Fam, budget: int) -> AxiomReport:
    consts = fam.const_xs
    # tied prizes make the premise vacuous and the implication absurd, so
    # only strictly ordered constant pairs are quantified over
    prize_pairs = [(x, y) for x in consts for y in consts if _strict(fam.cmp(fam.full, x, y))]
    spans, regime = (), "exhaustive"
    if prize_pairs:  # without one no span holds an instance, so none is walked
        spans, regime = _bet_spans(fam, len(prize_pairs) ** 2, budget)
    failures = []
    count = 0
    for span in spans:
        for f in prize_pairs:
            for g in prize_pairs:
                count += 1
                if not _eval_p4(fam, *span, *f, *g):
                    failures.append((span, f + g, "bet order depends on the prize"))
    stats = {"instances": count, "prize_pairs": len(prize_pairs)}
    if regime != "exhaustive":
        stats["pair_regime"] = regime
    return _report(fam, "P4.5", failures, stats)


def _bet_spans(fam: _Fam, weight: int, budget: int):
    """Mask triples (A, B, C), B and C subevents of a nonempty A: all of
    them when weight times their number fits the budget, otherwise a seeded
    sample of max(budget // weight, PAIR_SAMPLE_FLOOR) distinct triples."""
    n = fam.space.size
    total = 5**n - 1  # each state is off A, or on A and in B, C, both or neither
    if weight * total <= budget:
        masks = range(1, fam.full + 1)
        return ((a, b, c) for a in masks for b in _submasks(a) for c in _submasks(a)), "exhaustive"
    quota = min(max(budget // weight, PAIR_SAMPLE_FLOOR), total)
    rng = random.Random(f"P4.5|{n}")
    seen: set[tuple[int, int, int]] = set()
    while len(seen) < quota:
        a = b = c = 0
        for i in range(n):
            r = rng.randrange(5)
            if r:
                a |= 1 << i
                b |= (r & 1) << i
                c |= (r >> 1 & 1) << i
        if a:
            seen.add((a, b, c))
    spans = sorted(seen)
    return spans, f"sample({len(spans)})"


def _check_p5(fam: _Fam, budget: int) -> AxiomReport:
    ok = _eval_p5(fam)
    failures = [] if ok else [((fam.full,), fam.const_xs, "all constant acts tie at S")]
    return _report(fam, "P5.5", failures, {"instances": 1})


def _check_p6(fam: _Fam, budget: int) -> AxiomReport:
    # an instance at S searches up to Bell(n) partitions
    check_partition_count(fam.space.size, "P6.5 partition search")
    consts = fam.const_xs
    # partition search makes each instance heavy, so the pair budget is
    # charged a per-instance weight up front
    pairs, regime = fam.pair_universe("P6.5", fam.full * max(len(consts), 1), budget, weight=40)
    no_partition = []
    count = 0
    for a in range(1, fam.full + 1):
        for f, g in pairs:
            for x, y in ((f, g), (g, f)):
                if not _strict(fam.cmp(a, x, y)):
                    continue
                for z in consts:
                    count += 1
                    if not _eval_p6(fam, a, x, y, z):
                        no_partition.append(((a,), (x, y, z), "no separating partition"))
    stats = {"instances": count, "pair_regime": regime, "failures": len(no_partition)}
    return _report(fam, "P6.5", no_partition, stats, informational=True)


def _check_se(fam: _Fam, budget: int) -> AxiomReport:
    chain = fam.canonical_chain()
    if chain is None:
        return _no_chain(fam, "SE")
    failures = []
    vacuous = 0
    count = 0
    for b in range(fam.full + 1):
        count += 1
        if not any(b & e == b for e in chain):
            vacuous += 1
            continue
        if not _eval_se_first(fam, chain, b):
            failures.append(((b,) + chain, (), "separating subfamily misses an event"))
    for a in range(fam.full + 1):
        for e in chain:
            count += 1
            if not _eval_se_second(fam, a, e):
                failures.append(((a, e), (), "chain event neither null nor total at A"))
    stats = {"instances": count, "vacuous_inner": vacuous, "chain": len(chain)}
    return _report(fam, "SE", failures, stats)


def _check_qp(fam: _Fam, budget: int) -> AxiomReport:
    prizes = _prize_pair(fam)
    if prizes is None:
        w = ((fam.full,), fam.const_xs, "no strict constant pair")
        return _report(fam, "QP", [w], {"instances": 0})
    failures = []
    count = 0
    for a in range(1, fam.full + 1):
        scores = _qp_masses(fam, a, a, *prizes)
        if scores is None:
            continue
        # ranked tiers are a weak order by construction; positivity and
        # additivity are the live clauses
        subs = _submasks(a)
        count += len(subs) + 1
        for b in subs:
            if scores[b] < scores[0]:
                failures.append(((a, b), prizes, "bet below the empty bet"))
        if not scores[a] > scores[0]:
            failures.append(((a,), prizes, "the sure bet does not beat the empty bet"))
        for b in subs:
            for c in subs:
                for d in _submasks(a & ~(b | c)):
                    count += 1
                    if not _eval_qp_additivity(scores, b, c, d):
                        w = ((a, b, c, d), prizes, "disjoint union broke the bet order")
                        failures.append(w)
    stats = {"instances": count, "note": _BET_CACHE_NOTE}
    return _report(fam, "QP", failures, stats)


def _prize_pair(fam: _Fam) -> tuple[Assignment, Assignment] | None:
    """The first best and the first worst constant act at S, or None when
    no constant is strictly above another."""
    consts = fam.const_xs

    def above(x: Assignment, y: Assignment) -> bool:
        return _strict(fam.cmp(fam.full, x, y))

    best = worst = consts[0]
    for c in consts[1:]:
        if above(c, best):
            best = c
        if above(worst, c):
            worst = c
    if above(best, worst):
        return best, worst
    return None


def _check_nullity(fam: _Fam, budget: int) -> AxiomReport:
    failures = [
        ((a, b, c), (), "nullity lattice law failed")
        for a in range(fam.full + 1)
        for b in _submasks(a)
        for c in _submasks(b)
        if not _eval_nullity(fam, a, b, c)
    ]
    # each state is off A, or on A and off B, or in B - C, or in C
    return _report(fam, "NULLITY", failures, {"instances": 4**fam.space.size})


def _check_dominance(fam: _Fam, budget: int) -> AxiomReport:
    events = range(fam.full + 1)
    succ = {a: [b for b in events if fam.gg(a, b)] for a in events}
    failures = [
        ((a, b, c), (), "dominance is not transitive")
        for a in events
        for b in succ[a]
        for c in succ[b]
        if not _eval_dominance(fam, a, b, c)
    ]
    count = sum(len(succ[b]) for a in events for b in succ[a])
    return _report(fam, "DOMINANCE", failures, {"instances": count})


_CHECKERS: dict[str, Callable[[_Fam, int], AxiomReport]] = {
    "P0.5": _check_p0,
    "P1.5": _check_p1,
    "P2.5": _check_p2,
    "P3.5": _check_p3,
    "P4.5": _check_p4,
    "P5.5": _check_p5,
    "P6.5": _check_p6,
    "SE": _check_se,
    "QP": _check_qp,
    "NULLITY": _check_nullity,
    "DOMINANCE": _check_dominance,
}
AXIOM_IDS = tuple(_CHECKERS)
# the axioms of the representation; P6.5 is informational and the last
# three are appendix-level laws
CORE_IDS = tuple(i for i in AXIOM_IDS[:8] if i != "P6.5")


def check_axiom(family, axiom_id: str, budget: int = DEFAULT_BUDGET) -> AxiomReport:
    if axiom_id not in _CHECKERS:
        raise KeyError(f"unknown axiom {axiom_id!r}; expected one of {AXIOM_IDS}")
    return check_all(family, budget, (axiom_id,)).reports[0]


def check_all(
    family, budget: int = DEFAULT_BUDGET, ids: Iterable[str] = AXIOM_IDS
) -> SuiteReport:
    return _suite(_Fam(family), budget, ids)


def _suite(fam: _Fam, budget: int, ids: Iterable[str]) -> SuiteReport:
    """The checkers of ids, in order, on one view."""
    reports = []
    for axiom_id in ids:
        fam.skipped = 0  # each report counts the skips of its own checker
        report = _CHECKERS[axiom_id](fam, budget)
        if fam.skipped:
            report.statistics["skipped_missing_composites"] = fam.skipped
        reports.append(report)
    return SuiteReport(tuple(reports))


def replay_witness(family, axiom_id: str, witness: Witness) -> bool:
    """Re-evaluate one reported instance; False reproduces the violation."""
    fam = _Fam(family)
    ev = [e.mask for e in witness.events]
    xs = [act.assignment for act in witness.acts]
    if axiom_id == "P0.5":
        chain = fam.canonical_chain()
        return chain is not None and _eval_p0(fam, chain, *xs)
    if axiom_id == "P1.5":
        (m,), (x, y, z) = ev, xs
        return _eval_p1(fam, m, fam.order(m, x, y), x, y, z)
    if axiom_id == "P2.5":
        (a, b), (x, y) = ev, xs
        return _eval_p2(fam, {m: fam.order(m, x, y) for m in (b, a & ~b, a)}, a, b)
    if axiom_id == "P3.5":
        return _eval_p3(fam, ev[0], *xs)
    if axiom_id == "P4.5":
        return _eval_p4(fam, *ev, *xs)
    if axiom_id == "P5.5":
        return _eval_p5(fam)
    if axiom_id == "P6.5":
        return _eval_p6(fam, ev[0], *xs)
    if axiom_id == "SE":
        chain = fam.canonical_chain()
        if chain is None:
            return False
        if len(ev) == 2 and not witness.note.startswith("separating"):
            return _eval_se_second(fam, *ev)
        return _eval_se_first(fam, chain, ev[0])
    if axiom_id == "QP":
        prizes = _prize_pair(fam)
        if prizes is None:
            return False
        scores = _qp_masses(fam, ev[0], ev[0], *prizes)
        if scores is None:
            return True
        if len(ev) == 1:
            return scores[ev[0]] > scores[0]
        if len(ev) == 2:
            return scores[ev[1]] >= scores[0]
        return _eval_qp_additivity(scores, *ev[1:])
    if axiom_id == "NULLITY":
        return _eval_nullity(fam, *ev)
    if axiom_id == "DOMINANCE":
        return _eval_dominance(fam, *ev)
    raise KeyError(axiom_id)
