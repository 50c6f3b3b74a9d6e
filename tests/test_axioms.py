"""Axiom suite: clean families pass, tampered tables are caught."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from conftest import build_m0, random_model
from lexeu.acts import OutcomeSpace
from lexeu.axioms import (
    AXIOM_IDS,
    PAIR_SAMPLE_FLOOR,
    AxiomReport,
    AxiomStatus,
    check_all,
    check_axiom,
    replay_witness,
)
from lexeu.events import StateSpace
from lexeu.family import ModelBackedFamily, TableBackedFamily, derive_table
from lexeu.model import GsleuModel, Level


def flat2() -> GsleuModel:
    """Two states, one level, a strictly heavier first state."""
    space = StateSpace(("s1", "s2"))
    ospace = OutcomeSpace(("a", "b", "c"))
    level = Level.from_mappings(
        space, ospace, ("s1", "s2"),
        {"s1": F(2, 3), "s2": F(1, 3)},
        {"a": F(0), "b": F(1), "c": F(2)},
    )
    return GsleuModel(space, ospace, (level,))


def two_level3() -> GsleuModel:
    """Three states split into a fifty-fifty top level and an atom below."""
    space = StateSpace(("s1", "s2", "s3"))
    ospace = OutcomeSpace(("a", "b", "c"))
    levels = (
        Level.from_mappings(
            space, ospace, ("s1", "s2"),
            {"s1": F(1, 2), "s2": F(1, 2)},
            {"a": F(0), "b": F(1), "c": F(2)},
        ),
        Level.from_mappings(
            space, ospace, ("s3",), {"s3": F(1)}, {"a": F(0), "b": F(1), "c": F(2)}
        ),
    )
    return GsleuModel(space, ospace, levels)


def retier(table: TableBackedFamily, replacements, unconditional=None):
    return TableBackedFamily(
        table.space,
        table.outcome_space,
        dict(table.acts),
        {**table.tiers, **replacements},
        unconditional if unconditional is not None else table.unconditional,
    )


def tiers_by(table: TableBackedFamily, key):
    """Regroup every act into tiers by a score, best first."""
    groups: dict = {}
    for name, act in table.act_items():
        groups.setdefault(key(act), []).append(name)
    return tuple(tuple(groups[k]) for k in sorted(groups, reverse=True))


# -- clean families -----------------------------------------------------


def test_m0_suite_passes(m0):
    suite = check_all(ModelBackedFamily(m0), budget=40_000)
    assert suite.ok
    for report in suite.reports:
        if report.axiom_id == "P6.5":
            assert report.status is AxiomStatus.INFORMATIONAL
        else:
            assert report.status is AxiomStatus.HOLDS, report.axiom_id


def test_m0_p2_exhaustive_by_default(m0):
    report = check_axiom(ModelBackedFamily(m0), "P2.5")
    assert report.status is AxiomStatus.HOLDS
    assert report.statistics["pair_regime"] == "exhaustive"
    # 3240 unordered act pairs against every nested event pair
    assert report.statistics["instances"] == 3240 * 81


def test_m0_p1_records_sampled_regime(m0):
    report = check_axiom(ModelBackedFamily(m0), "P1.5", budget=50_000)
    assert report.status is AxiomStatus.HOLDS
    assert report.statistics["pair_regime"].startswith("sample(")


def test_m0_p6_informational_with_atomic_failures(m0):
    fam = ModelBackedFamily(m0)
    report = check_axiom(fam, "P6.5", budget=30_000)
    assert report.status is AxiomStatus.INFORMATIONAL
    assert report.statistics["failures"] > 0
    witness = report.witnesses[0]
    assert replay_witness(fam, "P6.5", witness) is False


def test_p4_honours_its_budget(m0):
    import random

    model = random_model(random.Random(11), 6, 6)
    report = check_axiom(ModelBackedFamily(model), "P4.5", budget=1000)
    assert report.status is AxiomStatus.HOLDS
    assert report.statistics["pair_regime"].startswith("sample(")
    weight = report.statistics["prize_pairs"] ** 2
    assert 0 < report.statistics["instances"] <= max(1000, weight * PAIR_SAMPLE_FLOOR)
    # exhaustive while every instance fits the budget, as before
    assert check_axiom(ModelBackedFamily(m0), "P4.5") == AxiomReport(
        "P4.5", AxiomStatus.HOLDS, (), {"instances": 5616, "prize_pairs": 3}
    )


def test_table_and_model_suites_agree():
    import random

    rng = random.Random(4243)
    cases = [(flat2(), 20_000), (build_m0(), 20_000)]
    cases += [(random_model(rng, 2, 4), 4_000) for _ in range(6)]
    for model, budget in cases:
        by_model = check_all(ModelBackedFamily(model), budget=budget)
        by_table = check_all(derive_table(model), budget=budget)
        # the whole report: status, statistics and witnesses
        assert by_model.reports == by_table.reports


def test_random_models_pass():
    import random

    rng = random.Random(4042)
    for _ in range(5):
        model = random_model(rng, n_max=5)
        suite = check_all(ModelBackedFamily(model), budget=12_000)
        assert suite.ok, [
            (r.axiom_id, r.witnesses) for r in suite.reports
            if r.status is AxiomStatus.VIOLATED
        ]


def test_unknown_axiom_id(m0):
    with pytest.raises(KeyError):
        check_axiom(ModelBackedFamily(m0), "P9")


def test_replay_confirms_holding_instance(m0):
    from lexeu.acts import constant_act
    from lexeu.axioms import Witness

    fam = ModelBackedFamily(m0)
    f = constant_act("c", m0.space, m0.outcome_space)
    g = constant_act("a", m0.space, m0.outcome_space)
    w = Witness((m0.space.full,), (f, g))
    assert replay_witness(fam, "P3.5", w) is True


# -- planted defects ----------------------------------------------------
#
# Each builder returns a table whose rankings were tampered with so that
# exactly the named axiom has a concrete counterexample to find.


def _p0_defect():
    table = derive_table(flat2())
    return retier(table, {}, unconditional=tuple(reversed(table.unconditional)))


def _p1_defect():
    table = derive_table(flat2())
    # the ranking given {s1} illegally peeks at the outcome on s2
    return retier(table, {1: tiers_by(table, lambda a: (a.assignment[0], a.assignment[1]))})


def _p2_defect():
    table = derive_table(flat2())
    # both singletons agree, but the union reverses them
    return retier(table, {3: tuple(reversed(table.tiers[3]))})


def _p3_defect():
    table = derive_table(flat2())
    return retier(table, {1: tiers_by(table, lambda a: -a.assignment[0])})


def _p4_defect():
    table = derive_table(flat2())

    def score(act):
        if act.assignment == (1, 0):
            return F(1, 2)  # the b-prize bet on s1 sinks below its mirror
        return F(2 * act.assignment[0] + act.assignment[1])

    return retier(table, {3: tiers_by(table, score)})


def _p5_defect():
    table = derive_table(flat2())
    everything = (tuple(name for name, _ in table.act_items()),)
    return retier(table, {3: everything}, unconditional=everything)


def _p6_defect():
    # no tampering needed: one-state cells cannot absorb the best prize
    return derive_table(flat2())


def _se_defect():
    table = derive_table(two_level3())
    # given {s1, s3} the ranking mixes both levels, agreeing with neither
    return retier(table, {5: tiers_by(table, lambda a: a.assignment[0] + a.assignment[2])})


def _qp_defect():
    table = derive_table(flat2())

    def score(act):
        # the bet on s2 alone rises to tie the sure bet, so adding s2 to
        # both sides of {s1} > {} collapses a strict comparison
        if act.assignment == (0, 2):
            return F(6)
        return F(2 * act.assignment[0] + act.assignment[1])

    return retier(table, {3: tiers_by(table, score)})


def _nullity_defect():
    table = derive_table(two_level3())
    by_s2 = tiers_by(table, lambda a: a.assignment[1])
    return retier(table, {1: table.tiers[7], 3: by_s2})


def _dominance_defect():
    table = derive_table(two_level3())
    return retier(
        table,
        {
            3: tiers_by(table, lambda a: a.assignment[0]),
            6: tiers_by(table, lambda a: a.assignment[1]),
            5: tiers_by(table, lambda a: a.assignment[2]),
        },
    )


DEFECTS = {
    "P0.5": _p0_defect,
    "P1.5": _p1_defect,
    "P2.5": _p2_defect,
    "P3.5": _p3_defect,
    "P4.5": _p4_defect,
    "P5.5": _p5_defect,
    "P6.5": _p6_defect,
    "SE": _se_defect,
    "QP": _qp_defect,
    "NULLITY": _nullity_defect,
    "DOMINANCE": _dominance_defect,
}


@pytest.mark.parametrize("axiom_id", AXIOM_IDS)
def test_planted_defect_is_caught(axiom_id):
    table = DEFECTS[axiom_id]()
    report = check_axiom(table, axiom_id, budget=20_000)
    if axiom_id == "P6.5":
        assert report.status is AxiomStatus.INFORMATIONAL
    else:
        assert report.status is AxiomStatus.VIOLATED
    assert report.witnesses
    # the gate's single-axiom path is the suite's; every witness of every
    # checker replays, which reaches each QP clause and both kinds of SE
    # witness on these tables
    suite = check_all(table, budget=20_000)
    assert suite.report(axiom_id) == report
    for r in suite.reports:
        for witness in r.witnesses:
            assert replay_witness(table, r.axiom_id, witness) is False, (r.axiom_id, witness)


def test_defect_tables_fail_check_all():
    table = _p2_defect()
    suite = check_all(table, budget=20_000)
    assert not suite.ok
    assert suite.report("P2.5").status is AxiomStatus.VIOLATED
