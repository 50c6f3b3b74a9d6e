"""Inversion: hierarchy/measure/utility recovery and the verified round trip."""
from __future__ import annotations

import random

from fractions import Fraction as F

import pytest

from conftest import build_m0, random_model
from oracles import fourier_motzkin_feasible
from test_axioms import _p0_defect, _p2_defect, flat2
from lexeu import synthesis
from lexeu.acts import Act, OutcomeSpace, compose, constant_act
from lexeu.axioms import AxiomStatus, Witness, _Fam, _prize_pair, check_axiom, replay_witness
from lexeu.errors import (
    AxiomPrecheckFailed,
    CapExceeded,
    IncompleteTable,
    Unrepresentable,
    VerificationFailed,
)
from lexeu.events import Event, StateSpace
from lexeu.family import TableBackedFamily, derive_table
from lexeu.feasibility import solve
from lexeu.model import GsleuModel, Level
from lexeu.preference import class_partition
from lexeu.synthesis import (
    _first_mismatch,
    _fit_class,
    _hierarchy,
    infer_hierarchy,
    measure_from_order,
    synthesize,
)

M0 = build_m0()
M0_TABLE = derive_table(M0)

# Kraft–Pratt–Seidenberg: each compared pair ties under the almost-additive
# weights (1,2,3,4,6), and this orientation of the ties extends to a monotone
# quasi-additive weak order on all 32 events, yet the strict system has no
# additive solution (the seven difference rows admit a vanishing positive
# combination).
KPS_ATOMS = ("a", "b", "c", "d", "e")
KPS_COMPARISONS = [
    ("c", ">", "ab"),
    ("d", ">", "ac"),
    ("ad", ">", "bc"),
    ("bd", ">", "e"),
    ("abc", ">", "e"),
    ("cd", ">", "ae"),
    ("be", ">", "acd"),
]


def restrict(table: TableBackedFamily, keep: dict) -> TableBackedFamily:
    return TableBackedFamily(
        table.space,
        table.outcome_space,
        keep,
        {
            m: tuple(
                tuple(n for n in tier if n in keep)
                for tier in t
                if any(n in keep for n in tier)
            )
            for m, t in table.tiers.items()
        },
        tuple(
            tuple(n for n in tier if n in keep)
            for tier in table.unconditional
            if any(n in keep for n in tier)
        ),
    )


def test_m0_round_trip_verified():
    result = synthesize(M0_TABLE)
    assert result.verified
    again = derive_table(result.model)
    assert again.tiers == M0_TABLE.tiers
    assert again.unconditional == M0_TABLE.unconditional
    assert result.diagnostics["classes"] == 3
    assert set(result.diagnostics["stages"]) == {1, 2, 3}
    for stage in result.diagnostics["stages"].values():
        assert {"measure_rows", "ranking_rows", "strategy", "retries"} <= set(stage)
    assert all(v == "Holds" for v in result.diagnostics["prechecks"].values())


def test_m0_hierarchy_matches_source_partition():
    assert infer_hierarchy(M0_TABLE) == class_partition(M0)
    assert _hierarchy(_Fam(M0_TABLE)) == class_partition(M0)


def test_one_view_per_call(monkeypatch):
    # the gate, the hierarchy and every class's fit read one view of the table
    built = []
    init = _Fam.__init__

    def counted(self, family):
        built.append(family)
        init(self, family)

    monkeypatch.setattr(_Fam, "__init__", counted)
    synthesize(M0_TABLE)
    assert len(built) == 1
    built.clear()
    infer_hierarchy(M0_TABLE)
    assert len(built) == 1


def test_single_level_table_gives_one_class():
    table = derive_table(flat2())
    part = infer_hierarchy(table)
    assert part.depth == 1
    assert set(part.supports[0].labels) == {"s1", "s2"}


def _fit(table: TableBackedFamily, k: int) -> tuple:
    """_fit_class on the table's k-th class, counted from 1."""
    fam = _Fam(table)
    part = _hierarchy(fam)
    return _fit_class(fam, part.supports[k - 1], part.top_events[k - 1])


def test_m0_frozen_measures():
    assert _fit(M0_TABLE, 1)[0] == {"s1": F(1, 2), "s2": F(1, 2)}
    assert _fit(M0_TABLE, 2)[0] == {"s3": F(1)}
    assert _fit(M0_TABLE, 3)[0] == {"s4": F(1)}


def test_m0_frozen_utilities():
    assert _fit(M0_TABLE, 1)[1] == {"a": F(0), "b": F(1, 2), "c": F(1)}
    # a one-atom class orders the constants but pins nothing between the
    # extremes, so the midpoint of the admissible interval is reported
    assert _fit(M0_TABLE, 2)[1] == {
        "a": F(0),
        "b": F(1, 2),
        "c": F(1),
    }


def test_two_tier_class_utility_is_two_valued():
    space = StateSpace(("s1", "s2"))
    ospace = OutcomeSpace(("a", "b", "c"))
    level = Level.from_mappings(
        space, ospace, ("s1", "s2"),
        {"s1": F(1, 3), "s2": F(2, 3)},
        {"a": F(0), "b": F(1), "c": F(1)},
    )
    table = derive_table(GsleuModel(space, ospace, (level,)))
    assert _fit(table, 1)[1] == {"a": F(0), "b": F(1), "c": F(1)}


def test_measure_from_order_basics():
    uniform, _ = measure_from_order(("x", "y", "z"), [])
    assert uniform == {"x": F(1, 3), "y": F(1, 3), "z": F(1, 3)}
    tilted, _ = measure_from_order(("x", "y"), [(("x",), "<", ("y",))])
    assert tilted["y"] > tilted["x"] > 0
    with pytest.raises(Unrepresentable):
        measure_from_order(("x", "y"), [(("x",), ">", ("x",))])


def test_kps_order_is_unrepresentable():
    with pytest.raises(Unrepresentable) as err:
        measure_from_order(KPS_ATOMS, KPS_COMPARISONS)
    certificate = err.value.certificate
    # normalization + five positivity rows + the seven strict comparisons
    assert len(certificate.constraints) == 13
    assert not solve(certificate).feasible
    assert not fourier_motzkin_feasible(certificate)


def test_kps_certificate_is_tight():
    # dropping the last comparison restores additive realizability
    measure, _ = measure_from_order(KPS_ATOMS, KPS_COMPARISONS[:-1])
    assert sum(measure.values()) == 1


def test_precheck_gate_blocks_bad_tables():
    broken = _p2_defect()
    with pytest.raises(AxiomPrecheckFailed) as err:
        infer_hierarchy(broken)
    assert any(r.axiom_id == "P2.5" for r in err.value.reports)
    with pytest.raises(AxiomPrecheckFailed):
        synthesize(broken)
    # reversing only the unconditional ranking passes the indexed checks
    # but still fails the gate for the full pipeline
    unconditional_defect = _p0_defect()
    infer_hierarchy(unconditional_defect)
    with pytest.raises(AxiomPrecheckFailed) as err:
        synthesize(unconditional_defect)
    assert any(r.axiom_id == "P0.5" for r in err.value.reports)


def _constants_and_bets(skip: int | None = None) -> dict:
    """M0's constant acts and its bets on every event but `skip`, by name."""
    best, worst = (Act(M0_TABLE.space, M0_TABLE.outcome_space, x) for x in _prize_pair(_Fam(M0_TABLE)))
    keep = {}
    for o in M0_TABLE.outcome_space.outcomes:
        c = constant_act(o, M0_TABLE.space, M0_TABLE.outcome_space)
        keep[M0_TABLE.name_of(c)] = c
    for mask in range(1 << 4):
        if mask != skip:
            bet = compose(best, Event(M0_TABLE.space, mask), worst)
            keep[M0_TABLE.name_of(bet)] = bet
    return keep


def test_missing_bet_act_is_reported():
    keep = _constants_and_bets(skip=1)  # no bet on {s1} alone
    with pytest.raises(IncompleteTable):
        synthesize(restrict(M0_TABLE, keep))


def test_qp_skips_the_events_whose_bets_are_missing():
    # without the bet on {s1} alone, no event holding s1 has all its bets;
    # the seven events off s1 hold 3 * 8 + 3 * 30 + 134 instances
    table = restrict(M0_TABLE, _constants_and_bets(skip=1))
    report = check_axiom(table, "QP")
    assert report.status is AxiomStatus.HOLDS
    assert report.statistics["instances"] == 248
    assert report.statistics["skipped_missing_composites"] == 8
    prizes = tuple(Act(table.space, table.outcome_space, x) for x in _prize_pair(_Fam(table)))
    at_s1_s2 = Witness((Event(table.space, 3),), prizes, "the sure bet does not beat the empty bet")
    assert replay_witness(table, "QP", at_s1_s2) is True


def test_partial_table_of_constants_and_bets_synthesizes():
    keep = _constants_and_bets()
    result = synthesize(restrict(M0_TABLE, keep))
    assert result.verified
    # the restricted table constrains less, but what it does say is honored
    again = derive_table(result.model)
    for mask, tiers in restrict(M0_TABLE, keep).tiers.items():
        ranks = {n: i for i, tier in enumerate(again.tiers[mask]) for n in tier}
        got = tuple(
            tuple(n for n in tier if n in keep)
            for tier in again.tiers[mask]
            if any(n in keep for n in tier)
        )
        assert {n for tier in got for n in tier} == {n for tier in tiers for n in tier}


def test_verification_reads_only_the_listed_acts(monkeypatch):
    # the 17 listed acts fit under the cap; the fitted model's act universe
    # (3^4 = 81) does not, so tabulating the model would raise CapExceeded
    table = restrict(M0_TABLE, _constants_and_bets())
    monkeypatch.setenv("LEXEU_CAP", "40")
    monkeypatch.setattr("lexeu.family.derive_table", lambda m: pytest.fail("tabulated the model"))
    result = synthesize(table)
    assert result.verified
    assert not hasattr(synthesis, "derive_table")  # nor through a binding of its own


def test_interior_measure_can_need_a_vertex_retry():
    space = StateSpace(("s1", "s2"))
    ospace = OutcomeSpace(("a", "b", "c"))
    level = Level.from_mappings(
        space, ospace, ("s1", "s2"),
        {"s1": F(1, 4), "s2": F(3, 4)},
        {"a": F(0), "b": F(1, 2), "c": F(1)},
    )
    result = synthesize(derive_table(GsleuModel(space, ospace, (level,))))
    assert result.verified
    assert result.diagnostics["stages"][1]["strategy"].startswith("vertex")


def test_joint_parameter_scan_recovers_five_state_level():
    space = StateSpace(("s1", "s2", "s3", "s4", "s5"))
    ospace = OutcomeSpace(("lo", "md", "hi"))
    level = Level.from_mappings(
        space, ospace, ("s1", "s2", "s3", "s4", "s5"),
        {"s1": F(4, 15), "s2": F(7, 30), "s3": F(1, 10), "s4": F(4, 15), "s5": F(2, 15)},
        {"lo": F(0), "md": F(1, 10), "hi": F(1)},
    )
    result = synthesize(derive_table(GsleuModel(space, ospace, (level,))), precheck_budget=10_000)
    assert result.verified
    assert result.diagnostics["stages"][1]["strategy"] == "parametric(t=1/10)"
    assert result.model.levels[0].prob == level.prob
    assert result.model.levels[0].utility == level.utility


def test_mismatch_reporting():
    assert _first_mismatch(M0_TABLE, M0_TABLE) is None
    tampered = TableBackedFamily(
        M0_TABLE.space,
        M0_TABLE.outcome_space,
        dict(M0_TABLE.acts),
        {**M0_TABLE.tiers, 3: tuple(reversed(M0_TABLE.tiers[3]))},
        M0_TABLE.unconditional,
    )
    where, f, g = _first_mismatch(M0_TABLE, tampered)
    assert where is not None and where.mask == 3
    assert f in M0_TABLE.acts.values() and g in M0_TABLE.acts.values()


def test_partial_table_mismatch_names_a_listed_pair():
    # the produced table ranks all 81 acts; only the listed ones count
    keep = _constants_and_bets()
    for name in ("f5", "f13", "f41", "f50", "f67", "f77"):
        keep[name] = M0_TABLE.acts[name]
    partial = restrict(M0_TABLE, keep)
    assert _first_mismatch(partial, derive_table(M0)) is None
    where, f, g = _first_mismatch(_swapped(partial, 7, 1), derive_table(M0))
    assert where.mask == 7
    assert (f.assignment, g.assignment) == ((0, 2, 0, 0), (1, 2, 1, 2))


def test_random_round_trips():
    rng = random.Random(5)
    for _ in range(10):
        model = random_model(rng, n_min=2, n_max=4)
        result = synthesize(derive_table(model), precheck_budget=10_000)
        assert result.verified


def _swapped(table: TableBackedFamily, mask: int, i: int) -> TableBackedFamily:
    """The table with tiers i and i + 1 of its ranking at mask exchanged."""
    entry = list(table.tiers[mask])
    entry[i], entry[i + 1] = entry[i + 1], entry[i]
    return TableBackedFamily(
        table.space,
        table.outcome_space,
        dict(table.acts),
        {**table.tiers, mask: tuple(entry)},
        table.unconditional,
    )


def test_mismatch_message_lists_labels_in_state_order(monkeypatch):
    monkeypatch.setattr(synthesis, "_gate", lambda *a: {})
    table = derive_table(random_model(random.Random(16), n_min=3, n_max=4, n_outcomes=2))
    with pytest.raises(VerificationFailed) as err:
        synthesize(_swapped(table, 11, 0))
    assert str(err.value) == "synthesized model ranks an act pair differently at {s1, s2, s4}"


def _row(c) -> str:
    terms = " ".join(f"{q}*{v}" for v, q in sorted(c.coeffs.items()))
    return f"{terms} {c.rel.value} {c.rhs}"


def _class_fits(table: TableBackedFamily) -> list[tuple]:
    """_fit_class per class, top class first: (measure, utility, strategy)
    as strings, or (error type, message, certificate row set)."""
    fam = _Fam(table)
    part = _hierarchy(fam)
    out = []
    for supp, top in zip(part.supports, part.top_events):
        try:
            p, u, diag = _fit_class(fam, supp, top)
        except (CapExceeded, Unrepresentable) as exc:
            cert = getattr(exc, "certificate", None)
            rows = None if cert is None else {_row(c) for c in cert.constraints}
            out.append((type(exc).__name__, str(exc), rows))
        else:
            measure = {s: str(q) for s, q in p.items()}
            utility = {o: str(v) for o, v in u.items()}
            out.append((measure, utility, diag["strategy"]))
    return out


JOINT_LIMIT = "joint recovery handles at most one strictly intermediate outcome"
NO_ADDITIVE_MEASURE = (
    "Unrepresentable",
    "the qualitative order admits no additive measure",
    {"-1*s1 = 0", "1*s1 = 1", "1*s1 > 0"},
)

# (seed, outcome count, swapped (event mask, tier) or None, per-class fits);
# tables are derive_table(random_model(Random(seed), 2, 3, outcomes))
FIT_PATHS = [
    # four outcomes: the linear-program utility fit, and the joint search's limit
    (0, 4, None, [
        ("CapExceeded", JOINT_LIMIT, None),
        ({"s1": "1"}, {"a": "0", "b": "2/3", "c": "1/3", "d": "1"}, "direct"),
    ]),
    (2, 4, None, [
        ({"s1": "5/12", "s2": "7/12"},
         {"a": "271/392", "b": "10/49", "c": "1", "d": "0"}, "vertex(1)"),
    ]),
    # two outcomes: no utility is left free
    (0, 2, (6, 0), [
        ("Unrepresentable", "no measure fits the table at the pinned utility",
         {"-1*s3 > 0", "1*s2 -1*s3 > 0", "1*s2 1*s3 = 1", "1*s2 > 0", "1*s3 > 0"}),
        NO_ADDITIVE_MEASURE,
    ]),
    # three outcomes: the middle utility's bounds, relaxation and scan
    (0, 3, (6, 0), [
        ("Unrepresentable", "no middle utility value satisfies the single-state rankings",
         {"-1*c > -1", "1*c > 0", "1*c > 1"}),
        NO_ADDITIVE_MEASURE,
    ]),
    (7, 3, (7, 2), [
        ("Unrepresentable", "no measure/utility pair fits the table", {
            "-1*s1 1*s2 -1*s3 > 0", "-1*s1 1*s3 1*t*s1 -1*t*s2 -1*t*s3 > 0",
            "-1*s1 1*s3 1*t*s1 -1*t*s3 > 0", "-1*s1 1*s3 > 0",
            "-1*s1 1*t*s1 1*t*s2 -1*t*s3 > 0", "-1*s1 1*t*s3 > 0",
            "1*s1 -1*s3 1*t*s2 1*t*s3 = 0", "1*s1 -1*s3 1*t*s3 > 0",
            "1*s1 -1*t*s1 > 0", "1*s1 -1*t*s2 1*t*s3 = 0", "1*s1 1*s2 1*s3 = 1",
            "1*s1 > 0", "1*s2 -1*s3 -1*t*s2 = 0", "1*s2 -1*t*s2 > 0", "1*s2 > 0",
            "1*s3 -1*t*s1 -1*t*s3 > 0", "1*s3 -1*t*s3 > 0", "1*s3 > 0",
            "1*t*s1 > 0", "1*t*s2 > 0", "1*t*s3 > 0",
        }),
    ]),
    (0, 3, (6, 1), [
        ("CapExceeded", "utility parameter scan exhausted without a fit", None),
        NO_ADDITIVE_MEASURE,
    ]),
    (142, 3, None, [
        ({"s1": "3008891/4899468", "s2": "1261793/4899468", "s3": "157196/1224867"},
         {"b": "1", "a": "0", "c": "13/44"}, "parametric(t=13/44)"),
    ]),
]


@pytest.mark.parametrize("seed, n_outcomes, swap, expected", FIT_PATHS)
def test_fit_paths(seed, n_outcomes, swap, expected):
    model = random_model(random.Random(seed), n_min=2, n_max=3, n_outcomes=n_outcomes)
    table = derive_table(model)
    if swap is not None:
        table = _swapped(table, *swap)
    assert _class_fits(table) == expected


def test_parametric_fit_synthesizes():
    # FIT_PATHS' seed-142 table: its one class is fitted by the scan
    table = derive_table(random_model(random.Random(142), n_min=2, n_max=3, n_outcomes=3))
    result = synthesize(table)
    assert result.verified
    assert result.diagnostics["stages"][1]["strategy"] == "parametric(t=13/44)"
    assert derive_table(result.model) == table


def test_fixed_utility_exit():
    # one tier at {s1, s2}: every constant ties at the top class's support,
    # so the pinned utility is all zeros and the measure fits it; the gate
    # rejects such a table
    ranked = tuple(n for tier in M0_TABLE.tiers[3] for n in tier)
    table = TableBackedFamily(
        M0_TABLE.space,
        M0_TABLE.outcome_space,
        dict(M0_TABLE.acts),
        {**M0_TABLE.tiers, 3: (ranked,)},
        M0_TABLE.unconditional,
    )
    assert _class_fits(table) == [
        ({"s1": "1/2", "s2": "1/2"}, {"a": "0", "b": "0", "c": "0"}, "fixed-utility"),
        ("Unrepresentable", "the qualitative order admits no additive measure",
         {"-1*s3 -1*s4 = 0", "-1*s3 = 0", "-1*s4 = 0", "1*s3 1*s4 = 1", "1*s3 > 0",
          "1*s4 > 0"}),
    ]
    with pytest.raises(AxiomPrecheckFailed) as err:
        synthesize(table)
    assert [r.axiom_id for r in err.value.reports] == ["P2.5", "P3.5", "SE"]
