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
from fractions import Fraction
from typing import Callable, Iterable

from .acts import Act, constant_act, compose
from .events import Event, enumerate_partitions
from .family import TableBackedFamily
from .preference import DEGENERATE, Ordering

AXIOM_IDS = (
    "P0.5",
    "P1.5",
    "P2.5",
    "P3.5",
    "P4.5",
    "P5.5",
    "P6.5",
    "SE",
    "QP",
    "NULLITY",
    "DOMINANCE",
)
CORE_IDS = AXIOM_IDS[:8]

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
    """Uniform cached view over either family kind."""

    def __init__(self, family):
        self.family = family
        self.space = family.space
        self.outcome_space = family.outcome_space
        self.is_table = isinstance(family, TableBackedFamily)
        if self.is_table:
            self.universe = family.act_items()
            self._rank = family._rank
            self._uncond = family._uncond_rank
            self._names = family._name_by_assignment
            self._partitions = {
                ev.mask: family.partition_at(ev) for ev in self.space.all_events()
            }
        else:
            self.universe = family.act_items()
            self._kernel = family.model.kernel
            self._scores: dict[tuple[int, tuple[int, ...]], int] = {}
            self._lex: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.constants = {
            o: constant_act(o, self.space, self.outcome_space)
            for o in self.outcome_space.outcomes
        }
        self.skipped = 0
        self._null: dict[tuple[int, int], bool] = {}

    # -- comparisons ---------------------------------------------------

    def _score(self, mask: int, f: Act) -> int:
        """The kernel's score of f at the event; only compared with scores
        at the same event."""
        key = (mask, f.assignment)
        cached = self._scores.get(key)
        if cached is None:
            cached = self._scores[key] = self._kernel.score(mask, f.assignment)
        return cached

    def cmp(self, a: Event, f: Act, g: Act):
        """Ordering of f against g at a; DEGENERATE for the empty event.

        Returns None when the family's table does not list a composite,
        after counting the skip.
        """
        if a.is_empty:
            return DEGENERATE
        if self.is_table:
            rank = self._rank[a.mask]
            fn = self._names.get(f.assignment)
            gn = self._names.get(g.assignment)
            if fn is None or gn is None:
                self.skipped += 1
                return None
            return Ordering.from_difference(Fraction(rank[gn] - rank[fn]))
        diff = self._score(a.mask, f) - self._score(a.mask, g)
        return Ordering.from_difference(diff)

    def uncond(self, f: Act, g: Act):
        if self.is_table:
            fn = self._names.get(f.assignment)
            gn = self._names.get(g.assignment)
            if fn is None or gn is None:
                self.skipped += 1
                return None
            return Ordering.from_difference(Fraction(self._uncond[gn] - self._uncond[fn]))
        vf, vg = self._lex_values(f), self._lex_values(g)
        if vf == vg:
            return Ordering.INDIFFERENT
        return Ordering.STRICTLY_PREFER if vf > vg else Ordering.STRICTLY_DISPREFER

    def _lex_values(self, f: Act) -> tuple[int, ...]:
        cached = self._lex.get(f.assignment)
        if cached is None:
            cached = self._lex[f.assignment] = self._kernel.values(f.assignment)
        return cached

    def agreement(self, a: Event, b: Event) -> bool:
        if self.is_table:
            return self._partitions[a.mask] == self._partitions[b.mask]
        return self.family.agreement(a, b)

    def null_at(self, b: Event, a: Event) -> bool:
        """b null at a (b must be a subevent): removing b changes nothing."""
        key = (b.mask, a.mask)
        cached = self._null.get(key)
        if cached is None:
            cached = self.agreement(Event(self.space, a.mask & ~b.mask), a)
            self._null[key] = cached
        return cached

    # -- quantifier universes -------------------------------------------

    def events(self, nonempty: bool = True) -> list[Event]:
        return [
            ev
            for ev in self.space.all_events()
            if not (nonempty and ev.is_empty)
        ]

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
        rest = self.space.full
        while not rest.is_empty:
            chain.append(rest)
            live = 0
            for i in rest.members:
                single = Event(self.space, 1 << i)
                if not self.null_at(single, rest):
                    live |= single.mask
            if not live:
                return None
            rest = Event(self.space, rest.mask & ~live)
        return tuple(chain)


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
    signs = [fam.cmp(e, f, g) for e in chain]
    if any(s is None for s in signs):
        return True

    def rule_weak(win, lose) -> bool:
        for k, s in enumerate(signs):
            if s is lose and not any(signs[j] is win for j in range(k + 1)):
                return False
        return True

    u = fam.uncond(f, g)
    if u is None:
        return True
    forward = rule_weak(Ordering.STRICTLY_PREFER, Ordering.STRICTLY_DISPREFER)
    backward = rule_weak(Ordering.STRICTLY_DISPREFER, Ordering.STRICTLY_PREFER)
    return (_weak(u) == forward) and (_weak(u.flip()) == backward)


def _eval_p1(fam: _Fam, a: Event, f: Act, g: Act, h: Act) -> bool:
    base = fam.cmp(a, f, g)
    moved = fam.cmp(a, compose(f, a, h), compose(g, a, h))
    if base is None or moved is None:
        return True
    return base == moved


def _eval_p2(fam: _Fam, a: Event, b: Event, f: Act, g: Act) -> bool:
    rest = Event(fam.space, a.mask & ~b.mask)
    for x, y in ((f, g), (g, f)):
        at_b = fam.cmp(b, x, y)
        at_rest = fam.cmp(rest, x, y)
        at_a = fam.cmp(a, x, y)
        if None in (at_b, at_rest, at_a):
            return True
        if _weak(at_b) and _weak(at_rest) and not _weak(at_a):
            return False
        if _weak(at_a) and not (_weak(at_b) or _weak(at_rest)):
            return False
        if not fam.null_at(b, a):
            if _strict(at_b) and _weak(at_rest) and not _strict(at_a):
                return False
    return True


def _eval_p3(fam: _Fam, a: Event, f: Act, g: Act) -> bool:
    here = fam.cmp(a, f, g)
    at_s = fam.cmp(fam.space.full, f, g)
    if here is None or at_s is None:
        return True
    return here == at_s


def _eval_p4(
    fam: _Fam, a: Event, b: Event, c: Event, f: Act, fp: Act, g: Act, gp: Act
) -> bool:
    first = fam.cmp(a, compose(f, b, fp), compose(f, c, fp))
    second = fam.cmp(a, compose(g, b, gp), compose(g, c, gp))
    if first is None or second is None:
        return True
    return not (_weak(first) and not _weak(second))


def _eval_p5(fam: _Fam) -> bool:
    consts = list(fam.constants.values())
    full = fam.space.full
    return any(
        _strict(fam.cmp(full, x, y)) or _strict(fam.cmp(full, y, x))
        for i, x in enumerate(consts)
        for y in consts[i + 1 :]
    )


def _eval_p6(fam: _Fam, a: Event, f: Act, g: Act, h: Act) -> bool:
    if not _strict(fam.cmp(a, f, g)):
        return True
    for cells in enumerate_partitions(a):
        if all(
            _strict(fam.cmp(a, f, compose(h, cell, g)))
            and _strict(fam.cmp(a, compose(h, cell, f), g))
            for cell in cells
        ):
            return True
    return False


def _eval_se_first(fam: _Fam, chain: tuple[Event, ...], b: Event) -> bool:
    premise = all(
        fam.agreement(e, Event(fam.space, e.mask & ~b.mask))
        for e in chain
        if b.is_subset(e)
    )
    if not premise:
        return True
    return all(
        fam.agreement(a, Event(fam.space, a.mask & ~b.mask))
        for a in fam.space.all_events()
        if b.is_subset(a)
    )


def _eval_se_second(fam: _Fam, a: Event, e: Event) -> bool:
    if not e.is_subset(a):
        return True
    return fam.agreement(a, Event(fam.space, a.mask & ~e.mask)) or fam.agreement(a, e)


def _eval_nullity(fam: _Fam, a: Event, b: Event, c: Event) -> bool:
    b_rem = Event(fam.space, b.mask & ~c.mask)
    if fam.null_at(b, a) and not fam.null_at(c, a):
        return False
    if fam.null_at(c, a) and fam.null_at(b_rem, a) and not fam.null_at(b, a):
        return False
    if fam.null_at(c, b) and not fam.null_at(c, a):
        return False
    return True


def _gg(fam: _Fam, a: Event, b: Event) -> bool:
    union = Event(fam.space, a.mask | b.mask)
    if union.is_empty:
        return False
    return (not fam.null_at(a, union)) and fam.null_at(b, union)


def _eval_dominance(fam: _Fam, a: Event, b: Event, c: Event) -> bool:
    if a == b == c and _gg(fam, a, a):
        return False
    if _gg(fam, a, b) and _gg(fam, b, c) and not _gg(fam, a, c):
        return False
    return True


_BET_CACHE_NOTE = "bets use the best and worst constants at S"


def _qp_masses(fam: _Fam, a: Event, best: Act, worst: Act) -> dict[int, int] | None:
    """Ranks of the bet acts for every subevent of a (higher = more
    probable); None when the table lacks some bet composite."""
    ranks: dict[int, int] = {}
    subsets = []
    sub = a.mask
    while True:
        subsets.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & a.mask
    bets = {m: compose(best, Event(fam.space, m), worst) for m in subsets}
    scored: list[tuple] = []
    for m, bet in bets.items():
        if fam.is_table:
            name = fam._names.get(bet.assignment)
            if name is None:
                fam.skipped += 1
                return None
            scored.append((-fam._rank[a.mask][name], m))
        else:
            scored.append((fam._score(a.mask, bet), m))
    order = sorted(scored)
    level = 0
    prev = None
    for sc, m in order:
        if prev is not None and sc != prev:
            level += 1
        ranks[m] = level
        prev = sc
    return ranks


def _eval_qp_additivity(ranks: dict[int, int], b: int, c: int, d: int) -> bool:
    lhs = ranks[b] - ranks[c]
    rhs = ranks[b | d] - ranks[c | d]
    return (lhs > 0) == (rhs > 0) and (lhs == 0) == (rhs == 0)


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
    count = 0
    for a in events:
        for f, g in pairs:
            for h in hs:
                count += 1
                if not _eval_p1(fam, a, f, g, h):
                    failures.append(Witness((a,), (f, g, h), "composition changed the ranking"))
    stats = {"instances": count, "pair_regime": regime, "h_regime": h_regime}
    return _report("P1.5", failures, stats)


def _check_p2(fam: _Fam, budget: int) -> AxiomReport:
    spans = [
        (a, Event(fam.space, b))
        for a in fam.space.all_events()
        for b in _submasks(a.mask)
    ]
    pairs, regime = fam.pair_universe("P2.5", len(spans), budget)
    failures = []
    count = 0
    for a, b in spans:
        for f, g in pairs:
            count += 1
            if not _eval_p2(fam, a, b, f, g):
                failures.append(Witness((a, b), (f, g), "sure-thing failure"))
    stats = {"instances": count, "pair_regime": regime}
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
    full = fam.space.full
    # tied prizes make the premise vacuous and the implication absurd, so
    # only strictly ordered constant pairs are quantified over
    prize_pairs = [
        (x, y) for x in consts for y in consts if _strict(fam.cmp(full, x, y))
    ]
    failures = []
    count = 0
    for a in fam.events():
        for b_mask in _submasks(a.mask):
            for c_mask in _submasks(a.mask):
                b, c = Event(fam.space, b_mask), Event(fam.space, c_mask)
                for f, fp in prize_pairs:
                    for g, gp in prize_pairs:
                        count += 1
                        if not _eval_p4(fam, a, b, c, f, fp, g, gp):
                            failures.append(
                                Witness((a, b, c), (f, fp, g, gp), "bet order depends on the prize")
                            )
    return _report("P4.5", failures, {"instances": count, "prize_pairs": len(prize_pairs)})


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
                if not _strict(fam.cmp(a, x, y)):
                    continue
                for h in consts:
                    count += 1
                    if not _eval_p6(fam, a, x, y, h):
                        no_partition.append(Witness((a,), (x, y, h), "no separating partition"))
    stats = {
        "instances": count,
        "pair_regime": regime,
        "failures": len(no_partition),
    }
    report = AxiomReport(
        "P6.5", AxiomStatus.INFORMATIONAL, tuple(no_partition[:MAX_WITNESSES]), stats
    )
    return report


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
        ranks = _qp_masses(fam, a, best, worst)
        if ranks is None:
            continue
        # ranked tiers are a weak order by construction; positivity and
        # additivity are the live clauses
        for b_mask in _submasks(a.mask):
            count += 1
            if ranks[b_mask] < ranks[0]:
                failures.append(
                    Witness((a, Event(fam.space, b_mask)), (best, worst), "bet below the empty bet")
                )
        count += 1
        if not ranks[a.mask] > ranks[0]:
            failures.append(Witness((a,), (best, worst), "the sure bet does not beat the empty bet"))
        for b_mask in _submasks(a.mask):
            for c_mask in _submasks(a.mask):
                free = a.mask & ~(b_mask | c_mask)
                for d_mask in _submasks(free):
                    count += 1
                    if not _eval_qp_additivity(ranks, b_mask, c_mask, d_mask):
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
    consts = list(fam.constants.values())
    full = fam.space.full
    best = consts[0]
    worst = consts[0]
    for c in consts[1:]:
        if _strict(fam.cmp(full, c, best)):
            best = c
        if _strict(fam.cmp(full, worst, c)):
            worst = c
    if _strict(fam.cmp(full, best, worst)):
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
    for a in events:
        count += 1
        if not _eval_dominance(fam, a, a, a):
            failures.append(Witness((a, a, a), (), "an event dominates itself"))
    gg_pairs: dict[tuple[int, int], bool] = {}

    def gg(x: Event, y: Event) -> bool:
        key = (x.mask, y.mask)
        if key not in gg_pairs:
            gg_pairs[key] = _gg(fam, x, y)
        return gg_pairs[key]

    succ: dict[int, list[Event]] = {}
    for a in events:
        succ[a.mask] = [b for b in events if gg(a, b)]
    for a in events:
        for b in succ[a.mask]:
            for c in succ[b.mask]:
                count += 1
                if not gg(a, c):
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


def check_axiom(family, axiom_id: str, budget: int = DEFAULT_BUDGET) -> AxiomReport:
    if axiom_id not in _CHECKERS:
        raise KeyError(f"unknown axiom {axiom_id!r}; expected one of {AXIOM_IDS}")
    fam = _Fam(family)
    report = _CHECKERS[axiom_id](fam, budget)
    if fam.skipped:
        report.statistics["skipped_missing_composites"] = fam.skipped
    return report


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
        return _eval_p1(fam, ev[0], *acts)
    if axiom_id == "P2.5":
        return _eval_p2(fam, ev[0], ev[1], *acts)
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
        ranks = _qp_masses(fam, ev[0], best, worst)
        if ranks is None:
            return True
        if len(ev) == 1:
            return ranks[ev[0].mask] > ranks[0]
        if len(ev) == 2:
            return ranks[ev[1].mask] >= ranks[0]
        return _eval_qp_additivity(ranks, ev[1].mask, ev[2].mask, ev[3].mask)
    if axiom_id == "NULLITY":
        return _eval_nullity(fam, *ev)
    if axiom_id == "DOMINANCE":
        return _eval_dominance(fam, *ev)
    raise KeyError(axiom_id)
