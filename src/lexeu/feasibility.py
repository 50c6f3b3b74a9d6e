"""Exact-rational linear feasibility with strict and weak inequalities.

Strict constraints are handled by a shared margin variable: c·x > r
becomes c·x >= r + eps, and eps (capped at 1 to keep open cones bounded)
is maximized by a two-phase simplex with Bland's rule.
The system is feasible exactly when the optimal margin is positive.

The tableau holds integers over one positive common denominator, the
current basis determinant, and each pivot divides exactly; Fractions are
built only for the point, margin and value returned.  Every entry is a
minor of the integer-scaled rows, so Hadamard's bound caps its bit size,
and a system whose bound passes caps.LP_BIT_CAP is refused before the
first pivot.

No floating point anywhere: strict-versus-weak is what separates a null
event from a live one, so tolerances would change the semantics.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .caps import LP_BIT_CAP, MAX_CONSTRAINTS, MAX_VARIABLES
from .errors import CapExceeded, MalformedSystem

ZERO = Fraction(0)
ONE = Fraction(1)


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


# -- integer two-phase simplex -------------------------------------------
#
# maximize c.x subject to A.x = b, x >= 0.  Bland's rule for both the
# entering and the leaving choice, so cycling is impossible and the output
# is a deterministic function of the input.
#
# Each tableau row is a list of integers over one positive common
# denominator d, the absolute value of the current basis determinant: the
# entry read is row[j] / d.  A pivot on p = rows[r][c] keeps row r as it
# is, makes p the new denominator and sets every other row to
# (p*row - row[c]*rows[r]) // d, which divides exactly (Edmonds 1967;
# Bareiss 1968).  Signs and ratios are those of the Fraction tableau, so
# Bland's rule takes the same pivots.


def _pivot(rows: list[list[int]], basis: list[int], d: int, r: int, c: int) -> int:
    """Pivot on rows[r][c] over denominator d; returns the new denominator.

    Rows past len(basis) (an objective row) are updated too.  A negative
    pivot negates its row first, so the denominator stays positive.
    """
    if rows[r][c] < 0:
        rows[r] = [-x for x in rows[r]]
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        elif p != d:
            rows[i] = [p * x // d for x in row]
    basis[r] = c
    return p


def _simplex_max(
    rows: list[list[int]], basis: list[int], d: int, objective: list[int]
) -> tuple[int, int]:
    """Maximize over an already-feasible tableau, in place.

    rows[i] = coefficients + [rhs] over denominator d; basis[i] = basic
    column of row i.  Returns (v, d) with the optimum v / d and the final
    denominator.  Raises on unboundedness (callers bound every direction
    they optimize).
    """
    m = len(basis)
    ncols = len(objective)
    # reduced costs times d, and minus the objective's value times d last
    obj = [d * x for x in objective] + [0]
    for i, b in enumerate(basis):
        coef = objective[b]
        if coef:
            obj = [x - coef * y for x, y in zip(obj, rows[i])]
    rows.append(obj)
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            rows.pop()
            return -obj[-1], d
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                b = rows[i][-1]
                # b / a against the best ratio, by cross-multiplying
                if leave is None or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[leave]
                ):
                    leave, best_a, best_b = i, a, b
        if leave is None:
            raise MalformedSystem("objective unbounded above")
        d = _pivot(rows, basis, d, leave, enter)
        obj = rows[-1]


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


def _scaled(row: list[Fraction]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    lam = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (lam // x.denominator) for x in row], lam


def _norm_bits(row: Iterable[int]) -> int:
    """An upper bound on twice log2 of the row's Euclidean norm."""
    return sum(x * x for x in row).bit_length()


def _two_phase(
    rows: list[list[Fraction]], objective: list[Fraction]
) -> tuple[Fraction, list[list[int]], list[int], int] | None:
    """Maximize objective over {x >= 0 : rows}: (value, rows, basis, d) at
    the optimal basis, or None when the system is empty.

    Row i is scaled to integers by lam_i, so its artificial measures lam_i
    times the Fraction one; phase one weights it by L / lam_i (L the lcm
    of the scales) to minimize the same sum, and so take the same pivots.
    """
    ncols = len(rows[0]) - 1
    m = len(rows)
    work, scales = [], []
    for i, row in enumerate(rows):
        ints, lam = _scaled(row)
        if ints[-1] < 0:
            ints = [-x for x in ints]
        art = [0] * m
        art[i] = 1
        work.append(ints[:-1] + art + [ints[-1]])
        scales.append(lam)
    total = math.lcm(*scales)
    phase_one = [0] * ncols + [-(total // lam) for lam in scales]
    target, mu = _scaled(objective)
    # Hadamard's bound on every minor, in bits; the objective rows carry
    # their own basic column, a 1
    needed = (
        sum(_norm_bits(row) for row in work)
        + max(_norm_bits([1, *phase_one]), _norm_bits([1, *target]))
        + 1
    ) // 2
    if needed > LP_BIT_CAP:
        raise CapExceeded(
            f"exact simplex may need {needed}-bit numbers, cap is {LP_BIT_CAP}",
            needed=needed,
            cap=LP_BIT_CAP,
        )
    basis = [ncols + i for i in range(m)]
    value, d = _simplex_max(work, basis, 1, phase_one)
    if value != 0:
        return None
    # drive lingering artificials out; a row that is zero over the
    # structural columns is redundant and gets dropped
    keep = []
    for i in range(m):
        if basis[i] < ncols:
            keep.append(i)
            continue
        enter = next((j for j in range(ncols) if work[i][j]), None)
        if enter is None:
            continue
        d = _pivot(work, basis, d, i, enter)
        keep.append(i)
    work = [work[i][:ncols] + [work[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    value, d = _simplex_max(work, basis, d, target)
    return Fraction(value, d * mu), work, basis, d


def _extract(
    columns: list[str],
    rows: list[list[int]],
    basis: list[int],
    d: int,
    variables: Iterable[str],
) -> dict[str, Fraction]:
    values = [0] * len(columns)
    for i, b in enumerate(basis):
        values[b] = rows[i][-1]
    return {v: Fraction(values[2 * i] - values[2 * i + 1], d) for i, v in enumerate(variables)}


def solve(sys: ConstraintSystem) -> FeasibilityResult:
    """Feasibility with strict inequalities via margin maximization."""
    sys.check_caps()
    if not sys.constraints:
        return FeasibilityResult(True, {v: ZERO for v in sys.variables}, None)
    strict = [c for c in sys.constraints if c.rel is Rel.GT]
    rows, columns, eps_col = _standard_form(sys)
    objective = [ZERO] * len(columns)
    if strict:
        objective[eps_col] = ONE
    found = _two_phase(rows, objective)
    if found is None:
        return FeasibilityResult(False, None, None)
    value, rows, basis, d = found
    if strict and value <= 0:
        return FeasibilityResult(False, None, None)
    assignment = _extract(columns, rows, basis, d, sys.variables)
    _assert_satisfies(sys, assignment)
    if not strict:
        return FeasibilityResult(True, assignment, None)
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
    sign = ONE if maximize else Fraction(-1)
    obj = [ZERO] * len(columns)
    for i, v in enumerate(closed.variables):
        coef = Fraction(objective.get(v, 0))
        obj[2 * i] = sign * coef
        obj[2 * i + 1] = -sign * coef
    found = _two_phase(rows, obj)
    if found is None:
        return None
    value, rows, basis, d = found
    assignment = _extract(columns, rows, basis, d, closed.variables)
    _assert_satisfies(closed, assignment)
    return sign * value, assignment
