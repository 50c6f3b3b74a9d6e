"""Axiom suite: clean families pass, tampered tables are caught."""
from __future__ import annotations

import functools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_m0, random_model
from lexeu.acts import Act, OutcomeSpace, compose, constant_act, enumerate_acts
from lexeu.axioms import (
    AXIOM_IDS,
    CORE_IDS,
    PAIR_SAMPLE_FLOOR,
    AxiomReport,
    AxiomStatus,
    _Fam,
    _order,
    _prize_pair,
    check_all,
    check_axiom,
    replay_witness,
)
from lexeu.errors import CapExceeded
from lexeu.events import Event, StateSpace
from lexeu.family import ModelBackedFamily, TableBackedFamily, derive_table
from lexeu.model import GsleuModel, Level
from lexeu.preference import DEGENERATE


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


def uniform(n: int, b: F = F(1)) -> GsleuModel:
    """n equally likely states in one level, two outcomes: a at 0 and b."""
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    ospace = OutcomeSpace(("a", "b"))
    level = Level.from_mappings(
        space, ospace, space.states,
        {s: F(1, n) for s in space.states},
        {"a": F(0), "b": b},
    )
    return GsleuModel(space, ospace, (level,))


def test_p4_without_prize_pairs_walks_no_span():
    # a and b tie, so no constant pair is strictly ranked and none of the
    # 5^10 - 1 spans holds an instance
    start = time.perf_counter()
    report = check_axiom(ModelBackedFamily(uniform(10, b=F(0))), "P4.5")
    assert time.perf_counter() - start < 0.5
    assert report == AxiomReport(
        "P4.5", AxiomStatus.HOLDS, (), {"instances": 0, "prize_pairs": 0}
    )


def test_p6_partition_search_is_capped_before_it_starts():
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        check_axiom(ModelBackedFamily(uniform(9)), "P6.5")
    assert time.perf_counter() - start < 2
    # Bell(9) partitions of S against the cap that strong conditioning uses
    assert (info.value.needed, info.value.cap) == (21147, 20_000)


@pytest.mark.parametrize("budget", [-1, 0])
def test_non_positive_budget_runs_every_checker(budget):
    # no strictly ranked prizes: P4.5 weighs each span by 0 prize pairs
    table = DEFECTS["P5.5"]()
    report = check_axiom(table, "P4.5", budget=budget)
    assert report.status is AxiomStatus.HOLDS
    assert report.statistics["instances"] == 0
    for axiom_id in AXIOM_IDS:
        assert check_axiom(table, axiom_id, budget=budget).axiom_id == axiom_id


def test_table_and_model_suites_agree():
    rng = random.Random(4243)
    cases = [(flat2(), 20_000), (build_m0(), 20_000)]
    cases += [(random_model(rng, 2, 4), 4_000) for _ in range(6)]
    for model, budget in cases:
        by_model = check_all(ModelBackedFamily(model), budget=budget)
        by_table = check_all(derive_table(model), budget=budget)
        # the whole report: status, statistics and witnesses
        assert by_model.reports == by_table.reports


def test_random_models_pass():
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


def test_no_chain_witness_when_every_ranking_is_one_tier():
    # every act ties at every event, so every state is null and nullity
    # derives no chain for P0.5 or SE to run along
    space = StateSpace(("s1", "s2"))
    ospace = OutcomeSpace(("a", "b"))
    acts = {f"f{i}": act for i, act in enumerate(enumerate_acts(space, ospace))}
    one_tier = (tuple(acts),)
    table = TableBackedFamily(
        space, ospace, acts, {m: one_tier for m in range(1, 4)}, one_tier
    )
    suite = check_all(table, ids=("P0.5", "SE"))
    for report in suite.reports:
        assert report.status is AxiomStatus.VIOLATED
        assert report.statistics["instances"] == 0
        (witness,) = report.witnesses
        assert witness.note == "no nullity-derived chain exists"
        assert replay_witness(table, report.axiom_id, witness) is False


# -- exactness pins -----------------------------------------------------
#
# Whole core-suite reports on partial tables, recorded before the checkers
# moved to per-act score caches and per-pair orderings; any change to
# statuses, statistics (skipped composites included) or witness order
# shows here.


def _partial(model: GsleuModel, seed: int, share: float, swap: bool = False):
    """The model's table cut to its constants, its bets and a seeded share
    of the other acts; with swap, two adjacent tiers exchanged at one
    seeded event."""
    rng = random.Random(seed)
    table = derive_table(model)
    best, worst = (Act(table.space, table.outcome_space, x) for x in _prize_pair(_Fam(table)))
    keep = set()
    for o in table.outcome_space.outcomes:
        keep.add(table.name_of(constant_act(o, table.space, table.outcome_space)))
    for m in range(table.space.full.mask + 1):
        keep.add(table.name_of(compose(best, Event(table.space, m), worst)))
    keep |= {name for name in table.acts if rng.random() < share}

    def cut(tiers):
        return tuple(
            tuple(n for n in tier if n in keep) for tier in tiers if any(n in keep for n in tier)
        )

    tiers = {m: cut(t) for m, t in table.tiers.items()}
    if swap:
        mask = rng.choice(sorted(m for m, t in tiers.items() if len(t) >= 2))
        entry = list(tiers[mask])
        i = rng.randrange(len(entry) - 1)
        entry[i], entry[i + 1] = entry[i + 1], entry[i]
        tiers[mask] = tuple(entry)
    acts = {n: a for n, a in table.acts.items() if n in keep}
    return TableBackedFamily(table.space, table.outcome_space, acts, tiers, cut(table.unconditional))


def _digest(suite) -> list:
    return [
        (
            r.axiom_id,
            r.status.value,
            r.statistics,
            [([e.mask for e in w.events], [a.assignment for a in w.acts], w.note) for w in r.witnesses],
        )
        for r in suite.reports
    ]


M0_PARTIAL = [
    ("P0.5", "Holds", {"chain": 3, "instances": 300, "pair_regime": "exhaustive"}, []),
    ("P1.5",
     "Holds",
     {"h_regime": "exhaustive",
      "instances": 19875,
      "pair_regime": "sample(53)",
      "skipped_missing_composites": 9212},
     []),
    ("P2.5", "Holds", {"instances": 19926, "pair_regime": "sample(246)"}, []),
    ("P3.5", "Holds", {"instances": 45, "pair_regime": "exhaustive"}, []),
    ("P4.5",
     "Holds",
     {"instances": 5616, "prize_pairs": 3, "skipped_missing_composites": 6852},
     []),
    ("P5.5", "Holds", {"instances": 1}, []),
    ("SE", "Holds", {"chain": 3, "instances": 64, "vacuous_inner": 0}, []),
]

R3_PARTIAL = [
    ("P0.5", "Holds", {"chain": 1, "instances": 91, "pair_regime": "exhaustive"}, []),
    ("P1.5",
     "Holds",
     {"h_regime": "exhaustive",
      "instances": 8918,
      "pair_regime": "exhaustive",
      "skipped_missing_composites": 2521},
     []),
    ("P2.5", "Holds", {"instances": 2457, "pair_regime": "exhaustive"}, []),
    ("P3.5", "Holds", {"instances": 21, "pair_regime": "exhaustive"}, []),
    ("P4.5",
     "Holds",
     {"instances": 1116, "prize_pairs": 3, "skipped_missing_composites": 1212},
     []),
    ("P5.5", "Holds", {"instances": 1}, []),
    ("SE", "Holds", {"chain": 1, "instances": 16, "vacuous_inner": 0}, []),
]

R3_SWAP = [
    ("P0.5",
     "Violated",
     {"chain": 2, "instances": 105, "pair_regime": "exhaustive"},
     [([7, 1], [(0, 0, 0), (0, 1, 0)], "lexicographic rule mismatch"),
      ([7, 1], [(1, 0, 2), (1, 1, 2)], "lexicographic rule mismatch"),
      ([7, 1], [(1, 0, 2), (1, 2, 2)], "lexicographic rule mismatch"),
      ([7, 1], [(1, 1, 1), (1, 2, 1)], "lexicographic rule mismatch"),
      ([7, 1], [(1, 1, 2), (1, 2, 2)], "lexicographic rule mismatch")]),
    ("P1.5",
     "Holds",
     {"h_regime": "exhaustive",
      "instances": 11025,
      "pair_regime": "exhaustive",
      "skipped_missing_composites": 3356},
     []),
    ("P2.5",
     "Violated",
     {"instances": 2835, "pair_regime": "exhaustive"},
     [([5, 4], [(0, 0, 0), (0, 0, 2)], "sure-thing failure"),
      ([5, 4], [(0, 0, 0), (2, 0, 2)], "sure-thing failure"),
      ([5, 4], [(0, 0, 0), (2, 1, 2)], "sure-thing failure"),
      ([5, 4], [(0, 0, 0), (2, 2, 2)], "sure-thing failure"),
      ([5, 4], [(0, 0, 2), (0, 1, 0)], "sure-thing failure")]),
    ("P3.5",
     "Violated",
     {"instances": 21, "pair_regime": "exhaustive"},
     [([5], [(0, 0, 0), (2, 2, 2)], "constants reordered by the event")]),
    ("P4.5",
     "Violated",
     {"instances": 1116, "prize_pairs": 3, "skipped_missing_composites": 1164},
     [([5, 5, 0],
       [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 0, 0)],
       "bet order depends on the prize"),
      ([5, 5, 0],
       [(2, 2, 2), (1, 1, 1), (2, 2, 2), (0, 0, 0)],
       "bet order depends on the prize"),
      ([5, 4, 0],
       [(2, 2, 2), (1, 1, 1), (2, 2, 2), (0, 0, 0)],
       "bet order depends on the prize"),
      ([5, 0, 5],
       [(2, 2, 2), (0, 0, 0), (0, 0, 0), (1, 1, 1)],
       "bet order depends on the prize"),
      ([5, 0, 5],
       [(2, 2, 2), (0, 0, 0), (2, 2, 2), (1, 1, 1)],
       "bet order depends on the prize")]),
    ("P5.5", "Holds", {"instances": 1}, []),
    ("SE",
     "Violated",
     {"chain": 2, "instances": 24, "vacuous_inner": 0},
     [([3, 7, 1], [], "separating subfamily misses an event"),
      ([5, 1], [], "chain event neither null nor total at A")]),
]

PARTIAL_PINS = {
    "m0": (lambda: _partial(build_m0(), 1, 0.2), M0_PARTIAL),
    "random3": (lambda: _partial(random_model(random.Random(23), 3, 3), 2, 0.3), R3_PARTIAL),
    "random3-swap": (
        lambda: _partial(random_model(random.Random(5), 3, 3), 2, 0.3, swap=True),
        R3_SWAP,
    ),
}


@pytest.mark.parametrize("name", PARTIAL_PINS)
def test_partial_table_core_reports_are_pinned(name):
    make, expected = PARTIAL_PINS[name]
    assert _digest(check_all(make(), 20_000, CORE_IDS)) == expected


@functools.lru_cache(maxsize=None)
def _cmp_families() -> tuple:
    m0 = build_m0()
    return (ModelBackedFamily(m0), derive_table(m0), _partial(m0, 1, 0.2), PARTIAL_PINS["random3"][0]())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cmp_is_the_order_of_the_oracle_scores(data):
    family = data.draw(st.sampled_from(_cmp_families()))
    fam = _Fam(family)
    n, size = family.space.size, family.outcome_space.size
    listed = [a.assignment for _, a in family.act_items()]
    act = st.one_of(st.sampled_from(listed), st.tuples(*[st.integers(0, size - 1)] * n))
    mask = st.integers(0, fam.full)
    # one view across many comparisons, so cached scores are read back too
    for m, x, y in data.draw(st.lists(st.tuples(mask, act, act), min_size=1, max_size=30)):
        before = fam.skipped
        got = fam.cmp(m, x, y)
        assert fam.order(m, x, y) is got and fam.orders(x, y)[m] is got
        if not m:
            assert got is DEGENERATE and fam.skipped == before
            continue
        sx, sy = family.score(m, x), family.score(m, y)
        if sx is None or sy is None:
            assert got is None and fam.skipped == before + 1
        else:
            assert got is _order(sx, sy) and fam.skipped == before


# Each planted defect's own report at budget 20,000: status, statistics, and
# the first witness's event masks, act assignments and note.
DEFECT_PINS = {
    "P0.5": ("Violated", {"instances": 36, "pair_regime": "exhaustive", "chain": 1},
             ([3], [(0, 0), (0, 1)], "lexicographic rule mismatch")),
    "P1.5": ("Violated",
             {"instances": 972, "pair_regime": "exhaustive", "h_regime": "exhaustive"},
             ([1], [(0, 0), (0, 1), (0, 0)], "composition changed the ranking")),
    "P2.5": ("Violated", {"instances": 324, "pair_regime": "exhaustive"},
             ([3, 2], [(0, 0), (0, 1)], "sure-thing failure")),
    "P3.5": ("Violated", {"instances": 9, "pair_regime": "exhaustive"},
             ([1], [(0, 0), (1, 1)], "constants reordered by the event")),
    "P4.5": ("Violated", {"instances": 216, "prize_pairs": 3},
             ([3, 2, 1], [(1, 1), (0, 0), (2, 2), (0, 0)], "bet order depends on the prize")),
    "P5.5": ("Violated", {"instances": 1},
             ([3], [(0, 0), (1, 1), (2, 2)], "all constant acts tie at S")),
    "P6.5": ("Informational", {"instances": 264, "pair_regime": "exhaustive", "failures": 216},
             ([1], [(1, 0), (0, 0), (0, 0)], "no separating partition")),
    "SE": ("Violated", {"instances": 24, "vacuous_inner": 0, "chain": 2},
           ([5, 4], [], "chain event neither null nor total at A")),
    "QP": ("Violated", {"instances": 46, "note": "bets use the best and worst constants at S"},
           ([3, 1, 0, 2], [(2, 2), (0, 0)], "disjoint union broke the bet order")),
    "NULLITY": ("Violated", {"instances": 64},
                ([7, 6, 4], [], "nullity lattice law failed")),
    "DOMINANCE": ("Violated", {"instances": 12},
                  ([1, 2, 4], [], "dominance is not transitive")),
}


@pytest.mark.parametrize("axiom_id", AXIOM_IDS)
def test_defect_reports_are_pinned(axiom_id):
    report = check_axiom(DEFECTS[axiom_id](), axiom_id, budget=20_000)
    first = report.witnesses[0]
    got = (
        report.status.value,
        report.statistics,
        ([e.mask for e in first.events], [a.assignment for a in first.acts], first.note),
    )
    assert got == DEFECT_PINS[axiom_id]
