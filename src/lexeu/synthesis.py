"""Reconstruction of a model from a full preference table.

The forward direction evaluates a model; this module inverts it.  From a
table of indexed rankings it recovers the nullity hierarchy, one
probability measure per class (from bet comparisons), and one utility per
class (from expected-utility constraints), then checks on the assembled
model's own rank oracle that it reproduces every input ranking exactly.

The measure-then-utility decomposition keeps every program linear, but it
is a heuristic: the most interior measure can be incompatible with the
utility constraints even when some other feasible measure works.  The
pipeline therefore retries utility fits at extreme points of the measure
polytope and, for three-outcome tables, falls back to a joint search that
scans the one free utility value and solves for the measure at each
candidate.  A table is declared unrepresentable only on the strength of an
infeasible linear system that any solver can re-check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Iterator, Sequence

from .acts import Act, splice
from .axioms import (
    CORE_IDS,
    AxiomReport,
    AxiomStatus,
    _Fam,
    _order,
    _prize_pair,
    _qp_masses,
    _submasks,
    _suite,
)
from .errors import (
    AxiomPrecheckFailed,
    CapExceeded,
    Unrepresentable,
    VerificationFailed,
)
from .events import Event
from .family import ModelBackedFamily, PreferenceFamily, TableBackedFamily, Tiers, _group_desc
from .feasibility import (
    ConstraintSystem,
    FeasibilityResult,
    Rel,
    optimize_closure,
    solve,
)
from .model import GsleuModel, Level, ONE, ZERO, validate_model
from .preference import ClassPartition

# the unconditional P0.5 runs last; the hierarchy needs only the indexed
# rankings' axioms
PRECHECK_IDS = CORE_IDS[1:] + CORE_IDS[:1]
HIERARCHY_IDS = ("P1.5", "P2.5", "P3.5", "P4.5", "P5.5")
PRECHECK_BUDGET = 60_000
VERTEX_RETRY_CAP = 25
T_DENOMINATOR_CAP = 16


@dataclass(frozen=True)
class SynthesisResult:
    model: GsleuModel
    diagnostics: dict
    verified: bool


def _gate(fam: _Fam, ids: Sequence[str], budget: int) -> dict[str, AxiomReport]:
    reports = {r.axiom_id: r for r in _suite(fam, budget, ids).reports}
    violated = tuple(r for r in reports.values() if r.status is AxiomStatus.VIOLATED)
    if violated:
        names = ", ".join(r.axiom_id for r in violated)
        raise AxiomPrecheckFailed(
            f"table fails required axioms: {names}", reports=violated
        )
    return reports


# -- stage 1: hierarchy ------------------------------------------------------


def infer_hierarchy(table: TableBackedFamily) -> ClassPartition:
    """The table's nullity classes, once it passes the axioms of the
    indexed rankings (HIERARCHY_IDS); AxiomPrecheckFailed otherwise."""
    fam = _Fam(table)
    _gate(fam, HIERARCHY_IDS, PRECHECK_BUDGET)
    return _hierarchy(fam)


def _hierarchy(fam: _Fam) -> ClassPartition:
    """Group the nonempty events into classes ordered by relative nullity.

    Nullity is read straight off the table: B is null at A when the
    rankings given A and given A minus B coincide.  One event outranks
    another when, at their union, the first matters and the second does
    not; classes are the mutually non-outranking groups, listed from the
    most probable down.
    """
    groups: list[list[int]] = []
    for mask in range(1, fam.full + 1):
        for group in groups:
            rep = group[0]
            if not fam.gg(mask, rep) and not fam.gg(rep, mask):
                group.append(mask)
                break
        else:
            groups.append([mask])

    def higher_first(a: list[int], b: list[int]) -> int:
        return -1 if fam.gg(a[0], b[0]) else 1

    groups.sort(key=cmp_to_key(higher_first))
    return ClassPartition(
        tuple(tuple(Event(fam.space, m) for m in group) for group in groups)
    )


# -- stage 2: measures -------------------------------------------------------


def measure_from_order(
    atoms: Sequence[str],
    comparisons: Iterable[tuple[Iterable[str], str, Iterable[str]]],
) -> tuple[dict[str, Fraction], ConstraintSystem]:
    """Solve for a strictly positive measure realizing a qualitative order.

    Each comparison is (B, rel, C) with rel in {">", "=", "<"}; rows are
    taken on the set differences, so B and C may overlap.  Returns the
    most interior solution together with the system it satisfies, or
    raises Unrepresentable carrying the infeasible system — qualitative
    orders on five or more atoms need not be additively realizable.
    """
    system = ConstraintSystem(tuple(atoms))
    system.add({a: ONE for a in atoms}, Rel.EQ, ONE)
    for a in atoms:
        system.add({a: ONE}, Rel.GT, ZERO)
    seen: set = set()
    for raw_b, rel, raw_c in comparisons:
        left, right = frozenset(raw_b), frozenset(raw_c)
        if rel == "<":
            left, right, rel = right, left, ">"
        upper, lower = left - right, right - left
        if not upper and not lower:
            if rel == ">":  # X > X: keep the impossible row as evidence
                system.add({}, Rel.GT, ZERO)
            continue
        key = (upper, lower, rel)
        if key in seen or (rel == "=" and (lower, upper, rel) in seen):
            continue
        seen.add(key)
        coeffs = {a: ONE for a in upper}
        coeffs.update({a: -ONE for a in lower})
        system.add(coeffs, Rel.GT if rel == ">" else Rel.EQ, ZERO)
    result = solve(system)
    if not result.feasible:
        raise Unrepresentable(
            "the qualitative order admits no additive measure", certificate=system
        )
    return {a: result.assignment[a] for a in atoms}, system


def _bet_order(
    fam: _Fam, supp: Event, at: Event
) -> list[tuple[tuple[str, ...], str, tuple[str, ...]]]:
    """Rank all bets on subevents of the support by the table's order at
    the given event: bet(B) stakes the best prize on B, the worst off it.

    Only within-tier ties and adjacent-tier strict comparisons are
    emitted; transitivity recovers every other pair, so the realizing
    measures are the same with far fewer rows.
    """
    # synthesize fits only once the gate finds P5.5 holding and the table
    # lists every constant, so the pair exists
    best, worst = _prize_pair(fam)
    space = fam.space
    scores = _qp_masses(fam, at.mask, supp.mask, best, worst)
    if scores is None:  # name the first bet the table lacks
        for m in _submasks(supp.mask):
            fam.family.name_of(Act(space, fam.outcome_space, splice(best, m, worst)))
    ordered = _group_desc([(s, m) for m, s in scores.items()])
    out = []
    for group in ordered:
        rep = Event(space, group[0]).labels
        for other in group[1:]:
            out.append((Event(space, other).labels, "=", rep))
    for hi, lo in zip(ordered, ordered[1:]):
        out.append((Event(space, hi[0]).labels, ">", Event(space, lo[0]).labels))
    return out


# -- stage 3: utilities ------------------------------------------------------


def _canonical_row(coeffs: dict, rel: Rel):
    """Scale-normalized row key, or None when the row says only 0 = 0."""
    items = [(v, c) for v, c in coeffs.items() if c]
    if not items:
        return None if rel is Rel.EQ else ((), rel)
    items.sort()
    scale = abs(items[0][1])
    if rel is Rel.EQ and items[0][1] < 0:
        scale = -scale
    return tuple((v, c / scale) for v, c in items), rel


def _subtract(out: dict[str, Fraction], k: Fraction, row: dict[str, Fraction]) -> None:
    """out -= k * row in place, dropping the entries that cancel."""
    for v, q in row.items():
        left = out.get(v, ZERO) - k * q
        if left:
            out[v] = left
        else:
            out.pop(v, None)


def _compact(system: ConstraintSystem) -> ConstraintSystem | None:
    """Equivalent system with redundant rows removed, or None when the
    rows already contradict each other.

    Equalities are Gaussian-eliminated to a reduced basis; every strict
    row is folded through that basis, scale-normalized, deduplicated, and
    finally pruned by entrywise domination: a.x > b forces c.x > b' when
    c - a is nonnegative, b' <= b, and every coordinate where c exceeds a
    is a variable some kept singleton row makes positive.  Singleton
    positivity rows are never dropped, so the implication always rests on
    surviving rows and the strict-solution set is unchanged.  The point is
    the simplex tableau: phase one spends a row per constraint, so pruning
    is what keeps large instantiated systems affordable.
    """
    eqs: list[tuple[dict[str, Fraction], Fraction]] = []
    gts: list[tuple[dict[str, Fraction], Fraction]] = []
    for c in system.constraints:
        if c.rel is Rel.EQ:
            eqs.append((dict(c.coeffs), c.rhs))
        elif c.rel is Rel.GT:
            gts.append((dict(c.coeffs), c.rhs))
        else:
            return system  # closures are solved rarely and cheaply; skip
    basis: dict[str, tuple[dict[str, Fraction], Fraction]] = {}

    def fold(coeffs: dict[str, Fraction], rhs: Fraction):
        out = {v: c for v, c in coeffs.items() if c}
        for pivot in list(out):
            if pivot in basis and out.get(pivot):
                row, b = basis[pivot]
                k = out[pivot]
                _subtract(out, k, row)
                rhs = rhs - k * b
        return out, rhs

    for coeffs, rhs in eqs:
        co, b = fold(coeffs, rhs)
        if not co:
            if b:
                return None
            continue
        pivot = min(co)
        k = co[pivot]
        row = {v: q / k for v, q in co.items()}
        rb = b / k
        for pv, (pc, pb) in list(basis.items()):
            if pivot in pc:
                kk = pc[pivot]
                nc = dict(pc)
                _subtract(nc, kk, row)
                basis[pv] = (nc, pb - kk * rb)
        basis[pivot] = (row, rb)

    seen: set = set()
    protected: list[tuple[dict[str, Fraction], Fraction]] = []
    open_rows: list[tuple[dict[str, Fraction], Fraction]] = []
    for coeffs, rhs in gts:
        co, b = fold(coeffs, rhs)
        if not co:
            if b >= 0:
                return None
            continue
        lead = min(co)
        k = abs(co[lead])
        co = {v: q / k for v, q in co.items()}
        b = b / k
        key = (tuple(sorted(co.items())), b)
        if key in seen:
            continue
        seen.add(key)
        if len(co) == 1 and co[lead] > 0 and b >= 0:
            protected.append((co, b))
        else:
            open_rows.append((co, b))

    positive = {min(co) for co, _ in protected}
    for pv, (pc, pb) in basis.items():
        if len(pc) == 1 and pb > 0:
            positive.add(pv)

    def dominates(strong, weak) -> bool:
        a, ab = strong
        c, cb = weak
        if cb > ab:
            return False
        for v in a.keys() | c.keys():
            d = c.get(v, ZERO) - a.get(v, ZERO)
            if d < 0 or (d and v not in positive):
                return False
        return True

    surviving = [
        row
        for i, row in enumerate(open_rows)
        if not any(dominates(other, row) for other in protected)
        and not any(dominates(other, row) for j, other in enumerate(open_rows) if j != i)
    ]

    out = ConstraintSystem(system.variables)
    for pv, (pc, pb) in basis.items():
        out.add(pc, Rel.EQ, pb)
    for co, b in protected:
        out.add(co, Rel.GT, b)
    for co, b in surviving:
        out.add(co, Rel.GT, b)
    return out


def _reduced_solve(system: ConstraintSystem) -> FeasibilityResult:
    """solve() after pruning rows the remaining rows already imply."""
    reduced = _compact(system)
    if reduced is None:
        return FeasibilityResult(False, None, None)
    return solve(reduced)


def _constant_tiers(fam: _Fam, at: Event) -> Tiers:
    """Outcome labels grouped and ordered by the constant-act ranking."""
    return _group_desc([(fam.score(at.mask, x), o) for o, x in fam.constants.items()])


def _pinned(tiers: Tiers) -> dict[str, Fraction]:
    """The normalization every fit uses: the best constant tier at 1 and
    the worst at 0."""
    fixed = {o: ONE for o in tiers[0]}
    fixed.update({o: ZERO for o in tiers[-1]})
    return fixed


def _on_t(rows, fixed: dict[str, Fraction], p: dict[str, Fraction] | None = None):
    """Each ranking row as (a, b, rel), read a + b*t rel 0, where t is the
    one utility value left out of `fixed` (shared by every outcome left
    out).  Under a measure p every row folds; without one only the
    single-state rows do, since their lone positive probability factors
    out."""
    for items, rel in rows:
        if p is None and len({s for (s, _), _ in items}) != 1:
            continue
        a = b = ZERO
        for (s, o), cnt in items:
            w = cnt if p is None else cnt * p[s]
            if o in fixed:
                a += w * fixed[o]
            else:
                b += w
        yield a, b, rel


def _t_bounds(folded) -> tuple[Fraction, Fraction, Fraction | None] | None:
    """What folded rows say about t: (low, high, pinned-or-None), with t
    strictly between low (at least 0) and high (at most 1), and equal to
    pinned when that is set; None when the rows leave t no value."""
    lo, hi = ZERO, ONE
    pinned: Fraction | None = None
    for a, b, rel in folded:
        if rel is Rel.EQ:
            if b == 0:
                if a != 0:
                    return None
                continue
            t = -a / b
            if pinned is not None and t != pinned:
                return None
            pinned = t
        elif b == 0:
            if a <= 0:
                return None
        elif b > 0:
            lo = max(lo, -a / b)
        else:
            hi = min(hi, -a / b)
    if lo >= hi or (pinned is not None and not lo < pinned < hi):
        return None
    return lo, hi, pinned


class _ClassRows:
    """The ranking constraints of one class as sparse bilinear forms.

    Each row compares two acts at a subevent of the support; its value
    under a measure p and utility u is sum of count * p[state] * u[outcome]
    over the stored (state, outcome) -> count entries.  Holding either
    coordinate fixed instantiates the rows as a linear system in the
    other, so retries against many candidate measures or utilities cost
    one cheap fold each instead of a rebuild from the table.

    Only the ranking at the support event itself is encoded.  Acts
    agreeing on the support produce identical rows, so distinct
    restrictions are enumerated: within-tier restrictions tie with their
    tier's first restriction and adjacent tiers compare strictly.  Rows
    for smaller events inside the support are telescoping sums of these
    (pad both acts the same way off the small event and walk the ranking
    between them), so they hold automatically and are not generated.
    """

    def __init__(self, fam: _Fam, supp: Event):
        self.fam = fam
        self.supp = supp
        self.const_tiers = _constant_tiers(fam, supp)
        self.rows: list[tuple[tuple[tuple[tuple[str, str], int], ...], Rel]] = []
        seen: set = set()
        outs = fam.outcome_space.outcomes
        members = supp.members
        first: dict[tuple[int, ...], tuple[int, ...]] = {}
        for x in fam.xs:
            first.setdefault(tuple(x[i] for i in members), x)
        ordered = [
            sorted(tier)
            for tier in _group_desc([(fam.score(supp.mask, x), key) for key, x in first.items()])
        ]
        for tier in ordered:
            for other in tier[1:]:
                self._push(members, outs, other, tier[0], Rel.EQ, seen)
        for hi, lo in zip(ordered, ordered[1:]):
            self._push(members, outs, hi[0], lo[0], Rel.GT, seen)

    def _push(self, members, outs, fkey, gkey, rel, seen) -> None:
        counts: dict[tuple[str, str], int] = {}
        states = self.fam.space.states
        for j, i in enumerate(members):
            if fkey[j] == gkey[j]:
                continue
            s = states[i]
            fo, go = outs[fkey[j]], outs[gkey[j]]
            counts[(s, fo)] = counts.get((s, fo), 0) + 1
            counts[(s, go)] = counts.get((s, go), 0) - 1
        # the keys differ somewhere, and each differing position adds a +1
        # and a -1 entry on its own state: no count is 0, items is nonempty
        items = tuple(sorted(counts.items()))
        if rel is Rel.EQ and items[0][1] < 0:
            items = tuple((k, -c) for k, c in items)
        row = (items, rel)
        if row not in seen:
            seen.add(row)
            self.rows.append(row)

    def fit_utility(self, p: dict[str, Fraction]) -> dict[str, Fraction] | None:
        """The most interior utility reproducing the rankings under
        measure p, normalized to best 1 / worst 0; None when none exists.

        With at most one constant tier strictly between the extremes the
        normalization pins every value except one, each row collapses to
        a bound on that value, and the fit is an interval intersection;
        more intermediate tiers fall back to a linear program.
        """
        tiers = self.const_tiers
        if len(tiers) > 3:
            result = _reduced_solve(self.utility_system(p))
            return dict(result.assignment) if result.feasible else None
        if len(tiers) == 1:
            return None  # best and worst coincide: no normalized utility
        fixed = _pinned(tiers)
        bounds = _t_bounds(_on_t(self.rows, fixed, p))
        if bounds is None:
            return None
        lo, hi, pinned = bounds
        t = (lo + hi) / 2 if pinned is None else pinned
        mids = tiers[1] if len(tiers) == 3 else []
        return {**fixed, **{o: t for o in mids}}

    def _instantiate(self, system: ConstraintSystem, term) -> ConstraintSystem:
        """Add every ranking row to system as a linear row, each entry
        contributing the (variable, coefficient) pair term(state, outcome,
        count) gives; rows equal up to scale go in once, rows reading
        0 = 0 not at all."""
        seen: set = set()
        for items, rel in self.rows:
            coeffs: dict[str, Fraction] = {}
            for (s, o), cnt in items:
                v, c = term(s, o, cnt)
                coeffs[v] = coeffs.get(v, ZERO) + c
            row = _canonical_row(coeffs, rel)
            if row is not None and row not in seen:
                seen.add(row)
                system.add(dict(row[0]), rel, ZERO)
        return system

    def utility_system(self, p: dict[str, Fraction]) -> ConstraintSystem:
        """Linear system for u at measure p, normalized so the best
        constant sits at 1 and the worst at 0."""
        tiers = self.const_tiers
        system = ConstraintSystem(tuple(self.fam.outcome_space.outcomes))
        for o in tiers[0]:
            system.add({o: ONE}, Rel.EQ, ONE)
        for o in tiers[-1]:
            system.add({o: ONE}, Rel.EQ, ZERO)
        for hi, lo in zip(tiers, tiers[1:]):
            system.add({hi[0]: ONE, lo[0]: -ONE}, Rel.GT, ZERO)
            for group in (hi, lo):
                for other in group[1:]:
                    system.add({group[0]: ONE, other: -ONE}, Rel.EQ, ZERO)
        return self._instantiate(system, lambda s, o, cnt: (o, cnt * p[s]))

    def measure_system(
        self, msys: ConstraintSystem, utility: dict[str, Fraction]
    ) -> ConstraintSystem:
        """Linear system for p at a fixed utility, on top of the bet rows
        (which measure_from_order starts with the simplex rows)."""
        system = ConstraintSystem(msys.variables, list(msys.constraints))
        return self._instantiate(system, lambda s, o, cnt: (s, cnt * utility[o]))

    def relaxation(
        self, msys: ConstraintSystem, fixed: dict[str, Fraction], mid: str
    ) -> ConstraintSystem:
        """Rows made linear in (p, q) with q standing for t*p: necessary
        for any model, so infeasibility certifies unrepresentability."""
        labels = self.supp.labels
        q_of = {a: f"t*{a}" for a in labels}
        system = ConstraintSystem(tuple(labels) + tuple(q_of[a] for a in labels))
        system.add({a: ONE for a in labels}, Rel.EQ, ONE)
        for a in labels:
            system.add({a: ONE}, Rel.GT, ZERO)
            system.add({q_of[a]: ONE}, Rel.GT, ZERO)
            system.add({a: ONE, q_of[a]: -ONE}, Rel.GT, ZERO)
        for c in msys.constraints:
            if c.coeffs:
                system.add(c.coeffs, c.rel, c.rhs)
        return self._instantiate(
            system,
            lambda s, o, cnt: (q_of[s], cnt) if o == mid else (s, cnt * fixed[o]),
        )

    def tie_candidates(
        self, p0: dict[str, Fraction], fixed: dict[str, Fraction]
    ) -> Iterator[Fraction]:
        """Values of the middle utility solving some tie row under p0."""
        for a, b, rel in _on_t(self.rows, fixed, p0):
            if rel is Rel.EQ and b:
                yield -a / b


def _measure_vertices(
    msys: ConstraintSystem, interior: dict[str, Fraction]
) -> Iterator[dict[str, Fraction]]:
    """Alternative measures to retry a utility fit against: extreme
    points of the bet-order polytope, pulled halfway to the interior
    point when they land on a strict face (atoms must stay positive)."""
    labels = msys.variables
    objectives = [{a: ONE} for a in labels]
    objectives += [{a: ONE, b: -ONE} for a, b in itertools.combinations(labels, 2)]
    seen = set()
    yielded = 0
    for obj in objectives:
        for maximize in (True, False):
            # msys has a strict solution, so its closure is never empty
            _, got = optimize_closure(msys, obj, maximize=maximize)
            vertex = {a: got[a] for a in labels}
            on_face = any(
                not c.satisfied_by(vertex)
                for c in msys.constraints
                if c.rel is Rel.GT
            )
            if on_face:
                vertex = {a: (vertex[a] + interior[a]) / 2 for a in labels}
            key = tuple(vertex[a] for a in labels)
            if key in seen or vertex == interior:
                continue
            seen.add(key)
            yield vertex
            yielded += 1
            if yielded >= VERTEX_RETRY_CAP:
                return


def _fit_class(
    fam: _Fam, supp: Event, top: Event
) -> tuple[dict[str, Fraction], dict[str, Fraction], dict]:
    """(measure, utility, diagnostics) for one class, trying in order the
    interior measure, extreme measures, and the joint parametric search."""
    rows = _ClassRows(fam, supp)
    p, msys = measure_from_order(supp.labels, _bet_order(fam, supp, top))
    diag = {"measure_rows": len(msys.constraints), "ranking_rows": len(rows.rows)}
    u = rows.fit_utility(p)
    if u is not None:
        diag["strategy"] = "direct"
        diag["retries"] = 0
        return p, u, diag
    retries = 0
    for vertex in _measure_vertices(msys, p):
        retries += 1
        u = rows.fit_utility(vertex)
        if u is not None:
            diag["strategy"] = f"vertex({retries})"
            diag["retries"] = retries
            return vertex, u, diag
    diag["retries"] = retries
    return _fit_class_jointly(rows, msys, p, diag)


def _fit_class_jointly(rows: _ClassRows, msys, p0, diag):
    """Joint measure/utility recovery once the staged split has failed.

    With three outcomes and the middle one strictly between the extremes,
    every ranking constraint is linear in (p, t*p) where t is the middle
    utility; if even that relaxation is infeasible no model exists, and
    the relaxation is the certificate.  Otherwise candidate values of t
    are scanned, each reducing to a plain measure program.  With the
    middle outcome tied to an extreme (or fewer outcomes) the utility is
    already pinned and a single program settles the matter.
    """
    tiers = rows.const_tiers
    fixed = _pinned(tiers)
    free = [o for o in rows.fam.outcome_space.outcomes if o not in fixed]
    if not free:
        system = rows.measure_system(msys, fixed)
        result = _reduced_solve(system)
        if not result.feasible:
            raise Unrepresentable(
                "no measure fits the table at the pinned utility",
                certificate=system,
            )
        diag["strategy"] = "fixed-utility"
        return {a: result.assignment[a] for a in rows.supp.labels}, fixed, diag
    if len(free) != 1 or len(tiers) != 3:
        raise CapExceeded(
            "joint recovery handles at most one strictly intermediate outcome",
            needed=len(free),
            cap=1,
        )
    mid = free[0]
    # single-state rows bound t for every measure, since a lone positive
    # probability factors out of its row; a tie among them would pin t to
    # 0 or 1, never strictly between, so surviving bounds leave t free
    bounds = _t_bounds(_on_t(rows.rows, fixed))
    if bounds is None:
        raise Unrepresentable(
            "no middle utility value satisfies the single-state rankings",
            certificate=_middle_system(rows, fixed, mid),
        )
    lo, hi, _ = bounds
    relaxation = rows.relaxation(msys, fixed, mid)
    relaxed = _reduced_solve(relaxation)
    if not relaxed.feasible:
        raise Unrepresentable(
            "no measure/utility pair fits the table", certificate=relaxation
        )
    labels = rows.supp.labels
    # most promising first: the relaxation point's aggregate
    # utility-to-mass ratio and its per-state ratios (exact whenever the
    # relaxed optimum already uses one t throughout), then exact tie
    # solutions, then a denominator-capped grid ordered by distance from
    # the aggregate ratio
    got = relaxed.assignment
    est = sum(got[f"t*{s}"] for s in labels) / sum(got[s] for s in labels)
    ratios = sorted({got[f"t*{s}"] / got[s] for s in labels})
    grid = sorted(
        {
            Fraction(num, den)
            for den in range(2, T_DENOMINATOR_CAP + 1)
            for num in range(1, den)
        },
        key=lambda t: (abs(t - est), t),
    )
    candidates = itertools.chain((est,), ratios, rows.tie_candidates(p0, fixed), grid)
    tried: set[Fraction] = set()
    for t in candidates:
        if t in tried or not lo < t < hi:
            continue
        tried.add(t)
        u_t = {**fixed, mid: t}
        result = _reduced_solve(rows.measure_system(msys, u_t))
        if result.feasible:
            diag["strategy"] = f"parametric(t={t})"
            return {a: result.assignment[a] for a in labels}, u_t, diag
    raise CapExceeded(
        "utility parameter scan exhausted without a fit",
        needed=len(tried) + 1,
        cap=len(tried),
    )


def _middle_system(rows: _ClassRows, fixed: dict[str, Fraction], mid: str) -> ConstraintSystem:
    """The single-state rankings as constraints on the middle utility
    alone; built only when already known to be infeasible."""
    system = ConstraintSystem((mid,))
    system.add({mid: ONE}, Rel.GT, ZERO)
    system.add({mid: -ONE}, Rel.GT, -ONE)
    for a, b, rel in _on_t(rows.rows, fixed):
        if b or a:
            system.add({mid: b}, rel, -a)
    return system


# -- stage 4: assembly and verification --------------------------------------


def _first_mismatch(expected: TableBackedFamily, produced: PreferenceFamily):
    """None when the produced family ranks every act pair of the expected
    table identically at every event and unconditionally; else a
    (event-or-None, f, g) witness.  The produced side is read only through
    its rank oracle (`score`, `uncond_key`), and only on the acts the
    expected table lists."""
    xs = sorted({act.assignment for act in expected.acts.values()})
    for key in [*range(1, expected.space.full.mask + 1), None]:
        if key is None:
            exp = [expected.uncond_key(x) for x in xs]
            got = [produced.uncond_key(x) for x in xs]
        else:
            exp = [expected.score(key, x) for x in xs]
            got = [produced.score(key, x) for x in xs]
        # both sides list each tier in xs order, so equal tiers compare equal
        if _group_desc(zip(exp, xs)) == _group_desc(zip(got, xs)):
            continue
        for i, j in itertools.combinations(range(len(xs)), 2):
            if _order(exp[i], exp[j]) is not _order(got[i], got[j]):
                event = None if key is None else Event(expected.space, key)
                f = Act(expected.space, expected.outcome_space, xs[i])
                g = Act(expected.space, expected.outcome_space, xs[j])
                return event, f, g
    return None


def synthesize(
    table: TableBackedFamily, *, precheck_budget: int = PRECHECK_BUDGET
) -> SynthesisResult:
    """Reconstruct a model reproducing the table, or explain why not.
    Every stage reads one view of the table."""
    fam = _Fam(table)
    reports = _gate(fam, PRECHECK_IDS, precheck_budget)
    partition = _hierarchy(fam)
    space = table.space
    for x in fam.const_xs:  # every fit reads them all
        table.name_of(Act(space, table.outcome_space, x))
    outcomes = table.outcome_space.outcomes

    levels = []
    stages = {}
    for k, (supp, top) in enumerate(zip(partition.supports, partition.top_events), start=1):
        if supp.is_empty:
            raise VerificationFailed(
                "a nullity class contains no single states, so no level "
                "support can realize it",
                witness=(top, None, None),
            )
        p, u, diag = _fit_class(fam, supp, top)
        stages[k] = diag
        prob = tuple(p.get(s, ZERO) for s in space.states)
        utility = tuple(u[o] for o in outcomes)
        levels.append(Level(supp, prob, utility))

    model = GsleuModel(space, table.outcome_space, tuple(levels))
    report = validate_model(model)
    if report.violations:
        raise VerificationFailed(
            "assembled model is structurally invalid: " + "; ".join(report.violations),
            witness=None,
        )

    mismatch = _first_mismatch(table, ModelBackedFamily(model))
    if mismatch is not None:
        event, _, _ = mismatch
        where = "unconditionally" if event is None else f"at {{{', '.join(event.labels)}}}"
        raise VerificationFailed(
            f"synthesized model ranks an act pair differently {where}",
            witness=mismatch,
        )
    diagnostics = {
        "classes": partition.depth,
        "stages": stages,
        "prechecks": {r.axiom_id: r.status.value for r in reports.values()},
    }
    return SynthesisResult(model=model, diagnostics=diagnostics, verified=True)
