"""Decidable checkers for the axioms and the appendix-level laws.

Every axiom is instantiated over the family's finite act and event
universes.  Where the instance count would explode (three act
quantifiers, or act pairs on larger models), the offending quantifier is
restricted to a deterministic sample — all constants plus seeded random
draws — and the report records which regime ran.  Violations carry
witnesses that can be replayed one instance at a time.
"""
from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .acts import Act, constant_act, splice
from .events import Event, partition_masks
from .model import sign
from .preference import DEGENERATE, Ordering, weakly_preferred

DEFAULT_BUDGET = 300_000
MAX_WITNESSES = 5
H_SAMPLE = 20
PAIR_SAMPLE_FLOOR = 24


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
        return all(
            r.status is not AxiomStatus.VIOLATED for r in self.reports
        )


class _Fam:
    """Cached view over either family kind, through the family's rank
    oracle: scores by act assignment and then by event mask, unconditional
    keys by act assignment, agreement signatures by event mask.
    Comparisons take masks and assignments, so composites never need to
    become Acts."""

    def __init__(self, family):
        self.family = family
        self.space = family.space
        self.outcome_space = family.outcome_space
        self.full = self.space.full.mask
        self.universe = family.act_items()
        self.constants = {
            o: constant_act(o, self.space, self.outcome_space)
            for o in self.outcome_space.outcomes
        }
        self.skipped = 0
        # per act, its scores by mask, filled as they are asked for: a
        # composite that P1.5 or P4.5 meets once costs one entry, not 2^n
        self._scores: dict[tuple[int, ...], dict[int, int | None]] = {}
        self._keys: dict[tuple[int, ...], object] = {}
        self._null: dict[tuple[int, int], bool] = {}

    # -- comparisons ---------------------------------------------------

    def score(self, mask: int, x: tuple[int, ...]) -> int | None:
        """The oracle's score of x at a nonempty event; only compared with
        scores at the same event.  None when a partial table lacks x."""
        row = self._scores.get(x)
        if row is None:
            row = self._scores[x] = {}
        got = row.get(mask, _UNSEEN)
        if got is _UNSEEN:
            got = row[mask] = self.family.score(mask, x)
        return got

    def order(self, mask: int, x: tuple[int, ...], y: tuple[int, ...]):
        """Ordering of x against y at the event; DEGENERATE for the empty
        event, None when the family's table does not list x or y.  Counts
        nothing: an instance that reads a None counts it."""
        if not mask:
            return DEGENERATE
        sx, sy = self.score(mask, x), self.score(mask, y)
        if sx is None or sy is None:
            return None
        return _order(sx, sy)

    def cmp(self, mask: int, x: tuple[int, ...], y: tuple[int, ...]):
        """order(), counting a None as a skipped instance."""
        got = self.order(mask, x, y)
        if got is None:
            self.skipped += 1
        return got

    def orders(self, x: tuple[int, ...], y: tuple[int, ...]) -> list:
        """order() of x against y at every event, indexed by mask."""
        return [self.order(m, x, y) for m in range(self.full + 1)]

    def uncond(self, x: tuple[int, ...], y: tuple[int, ...]):
        kx, ky = self._key(x), self._key(y)
        if kx is None or ky is None:
            self.skipped += 1
            return None
        return _order(kx, ky)

    def _key(self, x: tuple[int, ...]):
        got = self._keys.get(x, _UNSEEN)
        if got is _UNSEEN:
            got = self._keys[x] = self.family.uncond_key(x)
        return got

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

    def events(self) -> list[Event]:
        """The nonempty events in mask order."""
        return [ev for ev in self.space.all_events() if not ev.is_empty]

    def pair_universe(self, axiom_id: str, outer: int, budget: int,
                      weight: int = 1) -> tuple[list[tuple[Act, Act]], str]:
        """Unordered act pairs: exhaustive when the instance count fits the
        budget, otherwise all constant pairs plus a seeded sample."""
        acts = [a for _, a in self.universe]
        n = len(acts)
        total_pairs = n * (n - 1) // 2
        if total_pairs * max(outer, 1) * max(weight, 1) <= budget:
            pairs = [
                (acts[i], acts[j]) for i in range(n) for j in range(i + 1, n)
            ]
            return pairs, "exhaustive"
        quota = max(budget // (max(outer, 1) * max(weight, 1)), PAIR_SAMPLE_FLOOR)
        quota = min(quota, total_pairs)
        consts = list(self.constants.values())
        pairs = [
            (consts[i], consts[j])
            for i in range(len(consts))
            for j in range(i + 1, len(consts))
        ]
        rng = random.Random(f"{axiom_id}|{self.space.size}|{n}")
        seen = {tuple(sorted((f.assignment, g.assignment))) for f, g in pairs}
        while len(pairs) < quota:
            f, g = rng.sample(acts, 2)
            key = tuple(sorted((f.assignment, g.assignment)))
            if key not in seen:
                seen.add(key)
                pairs.append((f, g))
        return pairs, f"sample({len(pairs)})"

    def h_universe(self, axiom_id: str, outer: int, budget: int) -> tuple[list[Act], str]:
        acts = [a for _, a in self.universe]
        if len(acts) * max(outer, 1) <= budget:
            return acts, "exhaustive"
        rng = random.Random(f"{axiom_id}:h:{self.space.size}:{len(acts)}")
        sample = list(self.constants.values())
        seen = {a.assignment for a in sample}
        while len(sample) < len(self.constants) + H_SAMPLE and len(sample) < len(acts):
            h = rng.choice(acts)
            if h.assignment not in seen:
                seen.add(h.assignment)
                sample.append(h)
        return sample, f"constants+{len(sample) - len(self.constants)}"

    def canonical_chain(self) -> tuple[Event, ...] | None:
        """Nested top events derived from nullity alone: peel off, at each
        stage, the singletons whose removal changes the stage's ranking."""
        chain = []
        rest = self.full
        while rest:
            chain.append(Event(self.space, rest))
            live = 0
            for i in chain[-1].members:
                if not self.null_at(1 << i, rest):
                    live |= 1 << i
            if not live:
                return None
            rest &= ~live
        return tuple(chain)


_UNSEEN = object()


def _order(x, y) -> Ordering:
    """Ordering of two scores or two unconditional keys."""
    if x == y:
        return Ordering.INDIFFERENT
    return Ordering.STRICTLY_PREFER if x > y else Ordering.STRICTLY_DISPREFER


def _weak(o) -> bool:
    return o is DEGENERATE or o is Ordering.STRICTLY_PREFER or o is Ordering.INDIFFERENT


def _strict(o) -> bool:
    return o is Ordering.STRICTLY_PREFER


# -- per-instance evaluators ----------------------------------------------
#
# Each returns True when the instance satisfies the axiom; checkers and
# witness replay share them.  A None comparison (composite missing from a
# partial table) counts as vacuously satisfied and is tallied separately.


def _eval_p0(fam: _Fam, chain: tuple[Event, ...], f: Act, g: Act) -> bool:
    x, y = f.assignment, g.assignment
    signs = [fam.cmp(e.mask, x, y) for e in chain]
    if any(s is None for s in signs):
        return True
    u = fam.uncond(x, y)
    if u is None:
        return True
    forward = weakly_preferred(signs, Ordering.STRICTLY_PREFER, Ordering.STRICTLY_DISPREFER)
    backward = weakly_preferred(signs, Ordering.STRICTLY_DISPREFER, Ordering.STRICTLY_PREFER)
    return (_weak(u) == forward) and (_weak(u.flip()) == backward)


def _eval_p1(fam: _Fam, m: int, base, x: tuple[int, ...], y: tuple[int, ...],
             z: tuple[int, ...]) -> bool:
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


def _eval_p3(fam: _Fam, a: Event, f: Act, g: Act) -> bool:
    here = fam.cmp(a.mask, f.assignment, g.assignment)
    at_s = fam.cmp(fam.full, f.assignment, g.assignment)
    if here is None or at_s is None:
        return True
    return here == at_s


def _eval_p4(
    fam: _Fam, a: Event, b: Event, c: Event, f: Act, fp: Act, g: Act, gp: Act
) -> bool:
    bm, cm = b.mask, c.mask
    x, xp, y, yp = f.assignment, fp.assignment, g.assignment, gp.assignment
    first = fam.cmp(a.mask, splice(x, bm, xp), splice(x, cm, xp))
    second = fam.cmp(a.mask, splice(y, bm, yp), splice(y, cm, yp))
    if first is None or second is None:
        return True
    return not (_weak(first) and not _weak(second))


def _eval_p5(fam: _Fam) -> bool:
    consts = [c.assignment for c in fam.constants.values()]
    return any(
        _strict(fam.cmp(fam.full, x, y)) or _strict(fam.cmp(fam.full, y, x))
        for i, x in enumerate(consts)
        for y in consts[i + 1 :]
    )


def _eval_p6(fam: _Fam, a: Event, f: Act, g: Act, h: Act) -> bool:
    m, x, y, z = a.mask, f.assignment, g.assignment, h.assignment
    if not _strict(fam.cmp(m, x, y)):
        return True
    for cells in partition_masks(a.members):
        if all(
            _strict(fam.cmp(m, x, splice(z, cell, y)))
            and _strict(fam.cmp(m, splice(z, cell, x), y))
            for cell in cells
        ):
            return True
    return False


def _eval_se_first(fam: _Fam, chain: tuple[Event, ...], b: Event) -> bool:
    premise = all(
        fam.agreement(e.mask, e.mask & ~b.mask)
        for e in chain
        if b.is_subset(e)
    )
    if not premise:
        return True
    return all(
        fam.agreement(a.mask, a.mask & ~b.mask)
        for a in fam.space.all_events()
        if b.is_subset(a)
    )


def _eval_se_second(fam: _Fam, a: Event, e: Event) -> bool:
    if not e.is_subset(a):
        return True
    return fam.agreement(a.mask, a.mask & ~e.mask) or fam.agreement(a.mask, e.mask)


def _eval_nullity(fam: _Fam, a: Event, b: Event, c: Event) -> bool:
    am, bm, cm = a.mask, b.mask, c.mask
    if fam.null_at(bm, am) and not fam.null_at(cm, am):
        return False
    if fam.null_at(cm, am) and fam.null_at(bm & ~cm, am) and not fam.null_at(bm, am):
        return False
    if fam.null_at(cm, bm) and not fam.null_at(cm, am):
        return False
    return True


def _eval_dominance(fam: _Fam, a: Event, b: Event, c: Event) -> bool:
    return not (fam.gg(a.mask, b.mask) and fam.gg(b.mask, c.mask) and not fam.gg(a.mask, c.mask))


_BET_CACHE_NOTE = "bets use the best and worst constants at S"


def _qp_masses(
    fam: _Fam, at: int, within: int, best: tuple[int, ...], worst: tuple[int, ...]
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


def _report(axiom_id, failures, stats, informational=False) -> AxiomReport:
    if informational:
        status = AxiomStatus.INFORMATIONAL
    elif failures:
        status = AxiomStatus.VIOLATED
    else:
        status = AxiomStatus.HOLDS
    return AxiomReport(axiom_id, status, tuple(failures[:MAX_WITNESSES]), stats)


def _check_p0(fam: _Fam, budget: int) -> AxiomReport:
    chain = fam.canonical_chain()
    if chain is None:
        w = Witness((fam.space.full,), (), "no nullity-derived chain exists")
        return AxiomReport("P0.5", AxiomStatus.VIOLATED, (w,), {"instances": 0})
    pairs, regime = fam.pair_universe("P0.5", len(chain) + 1, budget)
    failures = []
    for f, g in pairs:
        if not _eval_p0(fam, chain, f, g):
            failures.append(Witness(chain, (f, g), "lexicographic rule mismatch"))
    stats = {"instances": len(pairs), "pair_regime": regime, "chain": len(chain)}
    return _report("P0.5", failures, stats)


def _check_p1(fam: _Fam, budget: int) -> AxiomReport:
    events = fam.events()
    hs, h_regime = fam.h_universe("P1.5", len(events) * PAIR_SAMPLE_FLOOR, budget)
    pairs, regime = fam.pair_universe("P1.5", len(events) * len(hs), budget)
    failures = []
    for a in events:
        m = a.mask
        for f, g in pairs:
            x, y = f.assignment, g.assignment
            base = fam.order(m, x, y)
            for h in hs:
                if not _eval_p1(fam, m, base, x, y, h.assignment):
                    failures.append(Witness((a,), (f, g, h), "composition changed the ranking"))
    count = len(events) * len(pairs) * len(hs)
    stats = {"instances": count, "pair_regime": regime, "h_regime": h_regime}
    return _report("P1.5", failures, stats)


def _check_p2(fam: _Fam, budget: int) -> AxiomReport:
    spans = [
        (a, Event(fam.space, b))
        for a in fam.space.all_events()
        for b in _submasks(a.mask)
    ]
    pairs, regime = fam.pair_universe("P2.5", len(spans), budget)
    # the spans visit every mask, so each pair's orderings are read in full
    orders = [fam.orders(f.assignment, g.assignment) for f, g in pairs]
    failures = []
    for a, b in spans:
        for (f, g), at in zip(pairs, orders):
            if not _eval_p2(fam, at, a.mask, b.mask):
                failures.append(Witness((a, b), (f, g), "sure-thing failure"))
    stats = {"instances": len(spans) * len(pairs), "pair_regime": regime}
    return _report("P2.5", failures, stats)


def _submasks(mask: int) -> list[int]:
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & mask


def _check_p3(fam: _Fam, budget: int) -> AxiomReport:
    consts = list(fam.constants.values())
    failures = []
    count = 0
    for a in fam.events():
        for i, f in enumerate(consts):
            for g in consts[i + 1 :]:
                count += 1
                if not _eval_p3(fam, a, f, g):
                    failures.append(Witness((a,), (f, g), "constants reordered by the event"))
    return _report("P3.5", failures, {"instances": count, "pair_regime": "exhaustive"})


def _check_p4(fam: _Fam, budget: int) -> AxiomReport:
    consts = list(fam.constants.values())
    # tied prizes make the premise vacuous and the implication absurd, so
    # only strictly ordered constant pairs are quantified over
    prize_pairs = [
        (x, y) for x in consts for y in consts
        if _strict(fam.cmp(fam.full, x.assignment, y.assignment))
    ]
    spans, regime = _bet_spans(fam, len(prize_pairs) ** 2, budget)
    failures = []
    count = 0
    for a, b, c in spans:
        for f, fp in prize_pairs:
            for g, gp in prize_pairs:
                count += 1
                if not _eval_p4(fam, a, b, c, f, fp, g, gp):
                    failures.append(
                        Witness((a, b, c), (f, fp, g, gp), "bet order depends on the prize")
                    )
    stats = {"instances": count, "prize_pairs": len(prize_pairs)}
    if regime != "exhaustive":
        stats["pair_regime"] = regime
    return _report("P4.5", failures, stats)


def _bet_spans(fam: _Fam, weight: int, budget: int):
    """Event triples (A, B, C), B and C subevents of a nonempty A: all of
    them when weight times their number fits the budget, otherwise a seeded
    sample of max(budget // weight, PAIR_SAMPLE_FLOOR) distinct triples."""
    n = fam.space.size
    total = 5**n - 1  # each state is off A, or on A and in B, C, both or neither
    if weight * total <= budget:
        spans = (
            (a, Event(fam.space, b), Event(fam.space, c))
            for a in fam.events()
            for b in _submasks(a.mask)
            for c in _submasks(a.mask)
        )
        return spans, "exhaustive"
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
    spans = [tuple(Event(fam.space, m) for m in t) for t in sorted(seen)]
    return spans, f"sample({len(spans)})"


def _check_p5(fam: _Fam, budget: int) -> AxiomReport:
    ok = _eval_p5(fam)
    consts = tuple(fam.constants.values())
    failures = (
        []
        if ok
        else [Witness((fam.space.full,), consts, "all constant acts tie at S")]
    )
    return _report("P5.5", failures, {"instances": 1})


def _check_p6(fam: _Fam, budget: int) -> AxiomReport:
    events = fam.events()
    consts = list(fam.constants.values())
    # partition search makes each instance heavy, so the pair budget is
    # charged a per-instance weight up front
    pairs, regime = fam.pair_universe(
        "P6.5", len(events) * max(len(consts), 1), budget, weight=40
    )
    no_partition = []
    count = 0
    for a in events:
        for f, g in pairs:
            for x, y in ((f, g), (g, f)):
                if not _strict(fam.cmp(a.mask, x.assignment, y.assignment)):
                    continue
                for h in consts:
                    count += 1
                    if not _eval_p6(fam, a, x, y, h):
                        no_partition.append(Witness((a,), (x, y, h), "no separating partition"))
    stats = {"instances": count, "pair_regime": regime, "failures": len(no_partition)}
    return _report("P6.5", no_partition, stats, informational=True)


def _check_se(fam: _Fam, budget: int) -> AxiomReport:
    chain = fam.canonical_chain()
    if chain is None:
        w = Witness((fam.space.full,), (), "no nullity-derived chain exists")
        return AxiomReport("SE", AxiomStatus.VIOLATED, (w,), {"instances": 0})
    failures = []
    vacuous = 0
    count = 0
    for b in fam.space.all_events():
        count += 1
        if not any(b.is_subset(e) for e in chain):
            vacuous += 1
            continue
        if not _eval_se_first(fam, chain, b):
            failures.append(Witness((b,) + chain, (), "separating subfamily misses an event"))
    for a in fam.space.all_events():
        for e in chain:
            count += 1
            if not _eval_se_second(fam, a, e):
                failures.append(Witness((a, e), (), "chain event neither null nor total at A"))
    stats = {"instances": count, "vacuous_inner": vacuous, "chain": len(chain)}
    return _report("SE", failures, stats)


def _check_qp(fam: _Fam, budget: int) -> AxiomReport:
    best, worst = _prize_pair(fam)
    failures = []
    count = 0
    if best is None:
        w = Witness((fam.space.full,), tuple(fam.constants.values()), "no strict constant pair")
        return AxiomReport("QP", AxiomStatus.VIOLATED, (w,), {"instances": 0})
    for a in fam.events():
        scores = _qp_masses(fam, a.mask, a.mask, best.assignment, worst.assignment)
        if scores is None:
            continue
        # ranked tiers are a weak order by construction; positivity and
        # additivity are the live clauses
        for b_mask in _submasks(a.mask):
            count += 1
            if scores[b_mask] < scores[0]:
                failures.append(
                    Witness((a, Event(fam.space, b_mask)), (best, worst), "bet below the empty bet")
                )
        count += 1
        if not scores[a.mask] > scores[0]:
            failures.append(Witness((a,), (best, worst), "the sure bet does not beat the empty bet"))
        for b_mask in _submasks(a.mask):
            for c_mask in _submasks(a.mask):
                free = a.mask & ~(b_mask | c_mask)
                for d_mask in _submasks(free):
                    count += 1
                    if not _eval_qp_additivity(scores, b_mask, c_mask, d_mask):
                        failures.append(
                            Witness(
                                (
                                    a,
                                    Event(fam.space, b_mask),
                                    Event(fam.space, c_mask),
                                    Event(fam.space, d_mask),
                                ),
                                (best, worst),
                                "disjoint union broke the bet order",
                            )
                        )
    stats = {"instances": count, "note": _BET_CACHE_NOTE}
    return _report("QP", failures, stats)


def _prize_pair(fam: _Fam) -> tuple[Act | None, Act | None]:
    """The first best and the first worst constant act at S, or a pair of
    Nones when no constant is strictly above another."""
    consts = list(fam.constants.values())

    def above(x: Act, y: Act) -> bool:
        return _strict(fam.cmp(fam.full, x.assignment, y.assignment))

    best = worst = consts[0]
    for c in consts[1:]:
        if above(c, best):
            best = c
        if above(worst, c):
            worst = c
    if above(best, worst):
        return best, worst
    return None, None


def _check_nullity(fam: _Fam, budget: int) -> AxiomReport:
    failures = []
    count = 0
    for a in fam.space.all_events():
        for b_mask in _submasks(a.mask):
            b = Event(fam.space, b_mask)
            for c_mask in _submasks(b_mask):
                c = Event(fam.space, c_mask)
                count += 1
                if not _eval_nullity(fam, a, b, c):
                    failures.append(Witness((a, b, c), (), "nullity lattice law failed"))
    return _report("NULLITY", failures, {"instances": count})


def _check_dominance(fam: _Fam, budget: int) -> AxiomReport:
    failures = []
    count = 0
    events = list(fam.space.all_events())
    succ: dict[int, list[Event]] = {}
    for a in events:
        succ[a.mask] = [b for b in events if fam.gg(a.mask, b.mask)]
    for a in events:
        for b in succ[a.mask]:
            for c in succ[b.mask]:
                count += 1
                if not fam.gg(a.mask, c.mask):
                    failures.append(Witness((a, b, c), (), "dominance is not transitive"))
    return _report("DOMINANCE", failures, {"instances": count})


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
    fam = _Fam(family)
    reports = []
    for axiom_id in ids:
        report = _CHECKERS[axiom_id](fam, budget)
        if fam.skipped:
            report.statistics["skipped_missing_composites"] = fam.skipped
            fam.skipped = 0
        reports.append(report)
    return SuiteReport(tuple(reports))


def replay_witness(family, axiom_id: str, witness: Witness) -> bool:
    """Re-evaluate one reported instance; False reproduces the violation."""
    fam = _Fam(family)
    ev, acts = witness.events, witness.acts
    if axiom_id == "P0.5":
        chain = fam.canonical_chain()
        if chain is None:
            return False
        return _eval_p0(fam, chain, *acts)
    if axiom_id == "P1.5":
        m = ev[0].mask
        x, y, z = (act.assignment for act in acts)
        return _eval_p1(fam, m, fam.order(m, x, y), x, y, z)
    if axiom_id == "P2.5":
        a, b = ev[0].mask, ev[1].mask
        x, y = (act.assignment for act in acts)
        return _eval_p2(fam, {m: fam.order(m, x, y) for m in (b, a & ~b, a)}, a, b)
    if axiom_id == "P3.5":
        return _eval_p3(fam, ev[0], *acts)
    if axiom_id == "P4.5":
        return _eval_p4(fam, ev[0], ev[1], ev[2], *acts)
    if axiom_id == "P5.5":
        return _eval_p5(fam)
    if axiom_id == "P6.5":
        return _eval_p6(fam, ev[0], *acts)
    if axiom_id == "SE":
        chain = fam.canonical_chain()
        if chain is None:
            return False
        if len(ev) == 2 and not witness.note.startswith("separating"):
            return _eval_se_second(fam, ev[0], ev[1])
        return _eval_se_first(fam, chain, ev[0])
    if axiom_id == "QP":
        best, worst = _prize_pair(fam)
        if best is None:
            return False
        scores = _qp_masses(fam, ev[0].mask, ev[0].mask, best.assignment, worst.assignment)
        if scores is None:
            return True
        if len(ev) == 1:
            return scores[ev[0].mask] > scores[0]
        if len(ev) == 2:
            return scores[ev[1].mask] >= scores[0]
        return _eval_qp_additivity(scores, ev[1].mask, ev[2].mask, ev[3].mask)
    if axiom_id == "NULLITY":
        return _eval_nullity(fam, *ev)
    if axiom_id == "DOMINANCE":
        return _eval_dominance(fam, *ev)
    raise KeyError(axiom_id)
