"""Exact-rational linear feasibility with strict and weak inequalities.

Strict constraints are handled by a shared margin variable: c·x > r
becomes c·x >= r + eps, and eps (capped at 1 to keep open cones bounded)
is maximized by a two-phase simplex over Fractions with Bland's rule.
The system is feasible exactly when the optimal margin is positive.

No floating point anywhere: strict-versus-weak is what separates a null
event from a live one, so tolerances would change the semantics.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import CapExceeded, MalformedSystem

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_VARIABLES = 32
MAX_CONSTRAINTS = 5000


class Rel(enum.Enum):
    GE = ">="
    GT = ">"
    EQ = "="


@dataclass
class Constraint:
    coeffs: dict[str, Fraction]
    rel: Rel
    rhs: Fraction

    def __post_init__(self) -> None:
        self.coeffs = {v: Fraction(c) for v, c in self.coeffs.items() if c != 0}
        self.rhs = Fraction(self.rhs)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        return sum((c * assignment[v] for v, c in self.coeffs.items()), ZERO)

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        lhs = self.evaluate(assignment)
        if self.rel is Rel.GE:
            return lhs >= self.rhs
        if self.rel is Rel.GT:
            return lhs > self.rhs
        return lhs == self.rhs

    def as_dict(self) -> dict:
        return {
            "coeffs": {v: str(c) for v, c in sorted(self.coeffs.items())},
            "rel": self.rel.value,
            "rhs": str(self.rhs),
        }


@dataclass
class ConstraintSystem:
    variables: tuple[str, ...]
    constraints: list[Constraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.variables = tuple(self.variables)
        if len(set(self.variables)) != len(self.variables):
            raise MalformedSystem("duplicate variable names")

    def add(self, coeffs: Mapping[str, Fraction], rel: Rel, rhs) -> None:
        self.constraints.append(Constraint(dict(coeffs), rel, Fraction(rhs)))

    def check_caps(self) -> None:
        if len(self.variables) > MAX_VARIABLES:
            raise CapExceeded(
                f"system has {len(self.variables)} variables, cap is {MAX_VARIABLES}",
                needed=len(self.variables),
                cap=MAX_VARIABLES,
            )
        if len(self.constraints) > MAX_CONSTRAINTS:
            raise CapExceeded(
                f"system has {len(self.constraints)} constraints, cap is {MAX_CONSTRAINTS}",
                needed=len(self.constraints),
                cap=MAX_CONSTRAINTS,
            )
        declared = set(self.variables)
        for c in self.constraints:
            stray = set(c.coeffs) - declared
            if stray:
                raise MalformedSystem(f"constraint uses undeclared variables {sorted(stray)}")


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    assignment: dict[str, Fraction] | None
    slack: Fraction | None


# -- dense two-phase simplex ---------------------------------------------
#
# maximize c.x subject to A.x = b, x >= 0.  Bland's rule for both the
# entering and the leaving choice, so cycling is impossible and the output
# is a deterministic function of the input.


def _pivot(rows: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    piv = rows[r][c]
    rows[r] = [x / piv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            factor = row[c]
            rows[i] = [x - factor * y for x, y in zip(row, rows[r])]
    basis[r] = c


def _simplex_max(
    rows: list[list[Fraction]], basis: list[int], objective: list[Fraction]
) -> Fraction:
    """Maximize over an already-feasible tableau, in place.

    rows[i] = coefficients + [rhs]; basis[i] = basic column of row i.
    Raises on unboundedness (callers bound every direction they optimize).
    """
    ncols = len(rows[0]) - 1
    reduced = list(objective)
    value = ZERO
    for i, b in enumerate(basis):
        if reduced[b]:
            coef = reduced[b]
            row = rows[i]
            reduced = [x - coef * row[j] for j, x in enumerate(reduced)]
            value += coef * row[-1]
    while True:
        enter = next((j for j in range(ncols) if reduced[j] > 0), None)
        if enter is None:
            return value
        leave = None
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise MalformedSystem("objective unbounded above")
        _pivot(rows, basis, leave, enter)
        coef = reduced[enter]
        row = rows[leave]
        reduced = [x - coef * row[j] for j, x in enumerate(reduced)]
        value += coef * row[-1]


def _standard_form(sys: ConstraintSystem) -> tuple[list[list[Fraction]], list[str], int | None]:
    """Rows in equality form over nonnegative columns.

    Free variables are split v = v+ - v-; GE/GT rows get surplus columns;
    GT rows share one margin column (its index is returned), capped at 1
    by an extra row.
    """
    columns: list[str] = []
    for v in sys.variables:
        columns.append(f"+{v}")
        columns.append(f"-{v}")
    col_of = {v: 2 * i for i, v in enumerate(sys.variables)}
    eps_col = None
    if any(c.rel is Rel.GT for c in sys.constraints):
        eps_col = len(columns)
        columns.append("eps")
    first_surplus = len(columns)
    for i, c in enumerate(sys.constraints):
        if c.rel is not Rel.EQ:
            columns.append(f"s{i}")
    if eps_col is not None:
        columns.append("eps_cap_slack")

    rows: list[list[Fraction]] = []
    scol = first_surplus
    for c in sys.constraints:
        row = [ZERO] * (len(columns) + 1)
        for v, coef in c.coeffs.items():
            row[col_of[v]] += coef
            row[col_of[v] + 1] -= coef
        row[-1] = c.rhs
        if c.rel is not Rel.EQ:
            row[scol] = Fraction(-1)
            scol += 1
        if c.rel is Rel.GT:
            row[eps_col] = Fraction(-1)
        rows.append(row)
    if eps_col is not None:
        row = [ZERO] * (len(columns) + 1)
        row[eps_col] = ONE
        row[-2] = ONE  # the cap's own slack sits in the last column
        row[-1] = ONE
        rows.append(row)
    return rows, columns, eps_col


def _phase_one(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]] | None:
    """Find a basic feasible solution; None when the system is empty."""
    ncols = len(rows[0]) - 1
    work = []
    for row in rows:
        work.append([-x for x in row] if row[-1] < 0 else list(row))
    m = len(work)
    basis = []
    for i, row in enumerate(work):
        art = [ZERO] * m
        art[i] = ONE
        work[i] = row[:-1] + art + [row[-1]]
        basis.append(ncols + i)
    objective = [ZERO] * ncols + [Fraction(-1)] * m
    if _simplex_max(work, basis, objective) != 0:
        return None
    # drive lingering artificials out; a row that is zero over the
    # structural columns is redundant and gets dropped
    keep = []
    for i in range(len(work)):
        if basis[i] < ncols:
            keep.append(i)
            continue
        enter = next((j for j in range(ncols) if work[i][j] != 0), None)
        if enter is None:
            continue
        _pivot(work, basis, i, enter)
        keep.append(i)
    rows2 = [work[i][:ncols] + [work[i][-1]] for i in keep]
    basis2 = [basis[i] for i in keep]
    return rows2, basis2


def _extract(
    columns: list[str],
    rows: list[list[Fraction]],
    basis: list[int],
    variables: Iterable[str],
) -> dict[str, Fraction]:
    values = [ZERO] * len(columns)
    for i, b in enumerate(basis):
        values[b] = rows[i][-1]
    return {v: values[2 * i] - values[2 * i + 1] for i, v in enumerate(variables)}


def solve(sys: ConstraintSystem) -> FeasibilityResult:
    """Feasibility with strict inequalities via margin maximization."""
    sys.check_caps()
    if not sys.constraints:
        return FeasibilityResult(True, {v: ZERO for v in sys.variables}, None)
    strict = [c for c in sys.constraints if c.rel is Rel.GT]
    rows, columns, eps_col = _standard_form(sys)
    started = _phase_one(rows)
    if started is None:
        return FeasibilityResult(False, None, None)
    rows, basis = started
    if not strict:
        assignment = _extract(columns, rows, basis, sys.variables)
        _assert_satisfies(sys, assignment)
        return FeasibilityResult(True, assignment, None)
    objective = [ZERO] * len(columns)
    objective[eps_col] = ONE
    if _simplex_max(rows, basis, objective) <= 0:
        return FeasibilityResult(False, None, None)
    assignment = _extract(columns, rows, basis, sys.variables)
    _assert_satisfies(sys, assignment)
    margin = min(c.evaluate(assignment) - c.rhs for c in strict)
    return FeasibilityResult(True, assignment, margin)


def _assert_satisfies(sys: ConstraintSystem, assignment: dict[str, Fraction]) -> None:
    for c in sys.constraints:
        if not c.satisfied_by(assignment):
            raise AssertionError(f"solver returned a point violating {c.as_dict()}")


def optimize_closure(
    sys: ConstraintSystem, objective: Mapping[str, Fraction], maximize: bool = True
) -> tuple[Fraction, dict[str, Fraction]] | None:
    """Optimize a linear objective over the weak closure (GT read as GE).

    Returns None when the closure is empty; raises MalformedSystem when
    the objective is unbounded.  Used to probe extreme points of the
    feasible polytope one coordinate at a time.
    """
    sys.check_caps()
    closed = ConstraintSystem(sys.variables)
    for c in sys.constraints:
        closed.add(c.coeffs, Rel.GE if c.rel is Rel.GT else c.rel, c.rhs)
    if not closed.constraints:
        raise MalformedSystem("nothing bounds the objective")
    rows, columns, _ = _standard_form(closed)
    started = _phase_one(rows)
    if started is None:
        return None
    rows, basis = started
    sign = ONE if maximize else Fraction(-1)
    obj = [ZERO] * len(columns)
    for i, v in enumerate(closed.variables):
        coef = Fraction(objective.get(v, 0))
        obj[2 * i] = sign * coef
        obj[2 * i + 1] = -sign * coef
    value = _simplex_max(rows, basis, obj)
    assignment = _extract(columns, rows, basis, closed.variables)
    for c in closed.constraints:
        if not c.satisfied_by(assignment):
            raise AssertionError("optimizer left the feasible region")
    return sign * value, assignment
