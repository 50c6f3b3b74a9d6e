"""Independent references that tests hold the library against.

Nothing in the library calls these: each is a second, deliberately plain
computation of something the library computes another way (the simplex,
the partition search over block masks, the integer kernel), or of a
quantity no command reports.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from lexeu.acts import Act
from lexeu.errors import CapExceeded, EmptyEvent, LexeuError, SpaceMismatch
from lexeu.events import Event, Partition, partition_masks
from lexeu.feasibility import ZERO, ConstraintSystem, Rel
from lexeu.lottery import Lottery, _lottery_eu
from lexeu.model import GsleuModel, class_of, sign
from lexeu.preference import _check_act

FM_MAX_VARIABLES = 8


class ClassMismatch(LexeuError):
    """A level index does not match the class of the given event."""


# -- Fourier–Motzkin cross-check ------------------------------------------


def fourier_motzkin_feasible(sys: ConstraintSystem) -> bool:
    """Variable elimination over exact rationals, strictness tracked.

    Exponential; capped to small systems and used as an independent
    oracle for the simplex path.
    """
    sys.check_caps()
    if len(sys.variables) > FM_MAX_VARIABLES:
        raise CapExceeded(
            f"Fourier-Motzkin elimination over {len(sys.variables)} variables, "
            f"cap is {FM_MAX_VARIABLES}",
            needed=len(sys.variables),
            cap=FM_MAX_VARIABLES,
        )
    # (coeffs, strict, rhs) encodes coeffs . x >= rhs (> when strict)
    ineqs: list[tuple[dict[str, Fraction], bool, Fraction]] = []
    eqs: list[tuple[dict[str, Fraction], Fraction]] = []
    for c in sys.constraints:
        if c.rel is Rel.EQ:
            eqs.append((dict(c.coeffs), c.rhs))
        else:
            ineqs.append((dict(c.coeffs), c.rel is Rel.GT, c.rhs))

    # Gaussian-eliminate the equalities first
    while True:
        eqs = [(co, r) for co, r in eqs if co or r != 0]
        pick = next(((co, r) for co, r in eqs if co), None)
        if pick is None:
            break
        coeffs, rhs = pick
        eqs.remove(pick)
        var = sorted(coeffs)[0]
        a = coeffs[var]
        expr = {v: -c / a for v, c in coeffs.items() if v != var}
        const = rhs / a  # var = const + expr . x

        def subst(co: dict[str, Fraction], r: Fraction) -> tuple[dict[str, Fraction], Fraction]:
            if var not in co:
                return co, r
            k = co.pop(var)
            for v, c in expr.items():
                co[v] = co.get(v, ZERO) + k * c
            return {v: c for v, c in co.items() if c != 0}, r - k * const

        eqs = [subst(dict(co), r) for co, r in eqs]
        replaced = []
        for co, strict, r in ineqs:
            co2, r2 = subst(dict(co), r)
            replaced.append((co2, strict, r2))
        ineqs = replaced

    if any(r != 0 for co, r in eqs):
        return False

    while True:
        active = sorted({v for co, _, _ in ineqs for v in co})
        if not active:
            break
        var = min(active, key=lambda v: sum(v in co for co, _, _ in ineqs))
        lowers, uppers, rest = [], [], []
        for co, strict, rhs in ineqs:
            a = co.get(var, ZERO)
            remainder = {v: c for v, c in co.items() if v != var}
            if a > 0:  # var >= (rhs - remainder.x) / a
                lowers.append(({v: -c / a for v, c in remainder.items()}, strict, rhs / a))
            elif a < 0:  # var <= ...
                uppers.append(({v: -c / a for v, c in remainder.items()}, strict, rhs / a))
            else:
                rest.append((co, strict, rhs))
        for lo, lo_strict, lo_c in lowers:
            for up, up_strict, up_c in uppers:
                # lo_c + lo.x <= var <= up_c + up.x
                co = {v: up.get(v, ZERO) - lo.get(v, ZERO) for v in set(lo) | set(up)}
                co = {v: c for v, c in co.items() if c != 0}
                rest.append((co, lo_strict or up_strict, lo_c - up_c))
        ineqs = rest

    for co, strict, rhs in ineqs:
        assert not co
        if strict and not ZERO > rhs:
            return False
        if not strict and not ZERO >= rhs:
            return False
    return True


# -- partitions as events --------------------------------------------------


def enumerate_partitions(a: Event) -> Iterator[Partition]:
    """Yield all partitions of a nonempty event, restricted-growth order.

    Each partition is a tuple of disjoint nonempty events covering `a`,
    blocks ordered by their smallest member.  Restricted-growth strings are
    generated lexicographically, so the one-block partition comes first and
    the all-singletons partition last.
    """
    if a.is_empty:
        raise EmptyEvent("cannot partition the empty event")
    for masks in partition_masks(a.members):
        yield tuple(Event(a.space, m) for m in masks)


def singleton_partition(a: Event) -> Partition:
    if a.is_empty:
        raise EmptyEvent("cannot partition the empty event")
    return tuple(Event(a.space, 1 << i) for i in a.members)


# -- per-level quantities ----------------------------------------------------


def level_eu(m: GsleuModel, k: int, a: Event, f: Act) -> Fraction:
    """Expected utility of f at level k under the conditional measure of a.

    The event must actually live at level k (its class must be k).
    """
    _check_act(m, f)
    if a.is_empty:
        raise EmptyEvent("level expected utility needs a nonempty event")
    if class_of(m, a) != k:
        raise ClassMismatch(f"event {a!r} has class {class_of(m, a)}, not {k}")
    kern = m.kernel
    _, core = kern.event(a.mask)
    mass = sum(kern.prob[k - 1][i] for i in core)
    return Fraction(kern.score(a.mask, f.assignment), mass * kern.util_scale[k - 1])


def calibration_weight(
    m: GsleuModel, a: Event, target: Lottery, hi: Lottery, lo: Lottery
) -> Fraction:
    """The unique mixture weight making hi/lo mix indifferent to target.

    Solves one linear equation at the event's class; endpoints must be
    strictly ranked.
    """
    if any(l.outcome_space != m.outcome_space for l in (target, hi, lo)):
        raise SpaceMismatch("lottery over a different outcome space")
    k = class_of(m, a)
    if k is None:
        raise EmptyEvent("calibration needs a nonempty event")
    eu_hi, eu_lo, eu_t = (_lottery_eu(m, k, l) for l in (hi, lo, target))
    if eu_hi == eu_lo:
        raise ValueError("calibration endpoints must be strictly ranked")
    return (eu_t - eu_lo) / (eu_hi - eu_lo)


@dataclass(frozen=True)
class RiskRelation:
    level_a: int
    level_b: int
    ordinally_equivalent: bool
    affinely_related: bool
    witness: tuple[Fraction, Fraction] | None  # (scale, shift) when affine


@dataclass(frozen=True)
class RiskProfile:
    relations: tuple[RiskRelation, ...]

    def between(self, j: int, k: int) -> RiskRelation:
        lo, hi = min(j, k), max(j, k)
        for r in self.relations:
            if (r.level_a, r.level_b) == (lo, hi):
                return r
        raise KeyError((j, k))


def risk_profile(m: GsleuModel) -> RiskProfile:
    """Pairwise comparison of level utilities: same ranking? same up to a
    positive affine map?"""
    rels = []
    nout = m.outcome_space.size
    for j in range(1, m.depth + 1):
        uj = m.level(j).utility
        for k in range(j + 1, m.depth + 1):
            uk = m.level(k).utility
            ordinal = all(
                sign(uj[x] - uj[y]) == sign(uk[x] - uk[y])
                for x in range(nout)
                for y in range(x + 1, nout)
            )
            witness = None
            if ordinal:
                x, y = next(
                    (x, y)
                    for x in range(nout)
                    for y in range(nout)
                    if uj[x] != uj[y]
                )
                scale = (uk[x] - uk[y]) / (uj[x] - uj[y])
                shift = uk[x] - scale * uj[x]
                if scale > 0 and all(uk[z] == scale * uj[z] + shift for z in range(nout)):
                    witness = (scale, shift)
            rels.append(RiskRelation(j, k, ordinal, witness is not None, witness))
    return RiskProfile(tuple(rels))
