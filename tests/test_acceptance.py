"""Acceptance suite: nine end-to-end criteria, one test (and one pass/fail
line) each.  Run with `pytest tests/test_acceptance.py -v`; each test also
prints a summary line visible with -s.

Every check is exact rational equality unless a wall-clock budget is stated,
and every randomized sweep is seeded, so failures replay deterministically.
"""
import itertools
import random
import time
from fractions import Fraction as F

import pytest

from conftest import build_m0, random_model, vertex_oracle_2d
from oracles import fourier_motzkin_feasible
from lexeu.acts import enumerate_acts
from lexeu.axioms import AXIOM_IDS, AxiomStatus, check_all, check_axiom, replay_witness
from lexeu.conditioning import observability_check, strong_conditional_strict
from lexeu.errors import Unrepresentable
from lexeu.family import ModelBackedFamily, derive_table
from lexeu.feasibility import solve
from lexeu.lottery import induced_lottery, lottery_compare, mix, normalize_lottery
from lexeu.model import GsleuModel, Level, class_of, conditional_measure, validate_model
from lexeu.preference import (
    Ordering,
    class_partition,
    indexed_prefer,
    is_null_at,
    lex_prefer,
    lex_prefer_bruteforce,
)
from lexeu.synthesis import measure_from_order, synthesize
from test_axioms import DEFECTS
from test_conditioning import f_wedge, g_wedge
from test_feasibility import _random_system
from test_synthesis import KPS_ATOMS, KPS_COMPARISONS

M0 = build_m0()


def _passed(n: int, name: str, detail: str) -> None:
    print(f"criterion {n} ({name}): PASS — {detail}")


# -- 1: the event hierarchy is a classed partition ---------------------------


def _check_hierarchy_clauses(m: GsleuModel) -> int:
    """Every clause of the classed-partition characterization, by exhaustive
    enumeration; returns the number of event pairs examined."""
    part = class_partition(m)
    listed = [e for group in part.classes for e in group]
    nonempty = [e for e in m.space.all_events() if not e.is_empty]

    # partition-ness: the classes tile the nonempty events, each event once
    assert sorted(e.mask for e in listed) == sorted(e.mask for e in nonempty)
    # the trivial cell: the empty event is outside every class and null
    # everywhere
    assert part.index_of(m.space.empty) is None
    assert all(is_null_at(m, m.space.empty, a) for a in nonempty)
    # the whole space sits in the highest (first-listed) class
    assert part.index_of(m.space.full) == 1

    idx = {e: part.index_of(e) for e in nonempty}
    pairs = 0
    for x, y in itertools.combinations(nonempty, 2):
        ix, iy = idx[x], idx[y]
        u = x | y
        null_x = is_null_at(m, x, u)
        null_y = is_null_at(m, y, u)
        if ix == iy:
            # intra-class mutual non-nullity: neither vanishes in the union
            assert not null_x and not null_y
        elif ix < iy:
            # inter-class nullity = the strict dominance order on classes
            assert null_y and not null_x
        else:
            assert null_x and not null_y
        # subevent/superevent monotonicity
        if x.is_subset(y):
            assert ix >= iy
        if y.is_subset(x):
            assert iy >= ix
        # union closure: adding a weakly-lower-class event never moves the
        # class, i.e. the union lives exactly at the more likely of the two
        assert idx[u] == min(ix, iy)
        pairs += 1
    return pairs


def test_criterion_1_hierarchy_partition_suite():
    start = time.monotonic()
    pairs = _check_hierarchy_clauses(M0)
    rng = random.Random(101)
    for _ in range(100):
        pairs += _check_hierarchy_clauses(random_model(rng, 2, 6, k_max=4))
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    _passed(1, "hierarchy partition suite", f"101 models, {pairs} event pairs, {elapsed:.1f}s")


# -- 2: the lexicographic rule equals its brute-force oracle ------------------


def test_criterion_2_lexicographic_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    models = [M0]
    rng = random.Random(202)
    models.extend(random_model(rng, 4, 4) for _ in range(20))
    for m in models:
        acts = list(enumerate_acts(m.space, m.outcome_space))
        for f, g in itertools.combinations(acts, 2):
            assert lex_prefer(m, f, g) == lex_prefer_bruteforce(m, f, g)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 21 * 3240
    assert elapsed <= 10.0
    _passed(2, "lexicographic oracle equivalence", f"{checked} act pairs, {elapsed:.1f}s")


# -- 3: conditional measures chain multiplicatively ---------------------------


def _check_chaining(m: GsleuModel) -> int:
    triples = 0
    events = [e for e in m.space.all_events() if not e.is_empty]
    for a in events:
        ka = class_of(m, a)
        pa = conditional_measure(m, a)
        for b in events:
            if not (b.is_subset(a) and class_of(m, b) == ka):
                continue
            pb = conditional_measure(m, b)
            mass_ab = sum((pa[i] for i in b.members), F(0))
            for c in events:
                if c.is_subset(b) and class_of(m, c) == ka:
                    mass_ac = sum((pa[i] for i in c.members), F(0))
                    mass_bc = sum((pb[i] for i in c.members), F(0))
                    assert mass_ac == mass_bc * mass_ab  # exact, no tolerance
                    triples += 1
    return triples


def test_criterion_3_conditional_chaining():
    triples = _check_chaining(M0)
    rng = random.Random(303)
    for _ in range(50):
        triples += _check_chaining(random_model(rng, 2, 6))
    assert triples > 10_000  # the sweep is not vacuous
    _passed(3, "conditional chaining", f"51 models, {triples} same-class triples, exact")


# -- 4: the axiom suite is sound on models and catches planted defects --------


def _assert_clean_suite(suite) -> None:
    for report in suite.reports:
        if report.axiom_id == "P6.5":
            assert report.status is AxiomStatus.INFORMATIONAL
        else:
            assert report.status is AxiomStatus.HOLDS, (
                report.axiom_id,
                report.witnesses[:1],
            )


def test_criterion_4_axiom_soundness():
    start = time.monotonic()
    _assert_clean_suite(check_all(ModelBackedFamily(M0), budget=20_000))
    rng = random.Random(404)
    for _ in range(100):
        m = random_model(rng, 2, 5)
        _assert_clean_suite(check_all(ModelBackedFamily(m), budget=2_000))

    caught = 0
    for axiom_id in AXIOM_IDS:
        table = DEFECTS[axiom_id]()
        report = check_axiom(table, axiom_id, budget=20_000)
        if axiom_id == "P6.5":
            assert report.status is AxiomStatus.INFORMATIONAL
        else:
            assert report.status is AxiomStatus.VIOLATED
        assert report.witnesses
        # the witness must replay: re-evaluating the recorded instance
        # against the same table reproduces the violation
        assert replay_witness(table, axiom_id, report.witnesses[0]) is False
        caught += 1
    elapsed = time.monotonic() - start
    _passed(
        4,
        "axiom soundness",
        f"101 clean suites, {caught}/{len(AXIOM_IDS)} planted defects caught, {elapsed:.1f}s",
    )


# -- 5: strong conditioning is observable (no anomalies) ----------------------


def _assert_implications(report) -> None:
    """strong ⇒ savage and indexed-strict ⇒ savage on *all* instances.

    Entries classified equivalent are not retained by the report, but they
    satisfy both implications by construction: equivalent means
    strong = indexed, the verdict type rejects strong without savage at
    construction time, and when both flags are False the implications are
    vacuous.  The retained entries are exactly the remaining ones.
    """
    for entry in report.fineness_failures + report.anomalies:
        assert not entry.strong_strict or entry.savage_strict
        assert not entry.indexed_strict or entry.savage_strict


def test_criterion_5_strong_conditioning_observability():
    start = time.monotonic()

    # (a) + (c) on the full M0 census
    census = observability_check(M0)
    _assert_implications(census)
    assert census.anomaly_count == 0
    assert census.total_instances == 97_200
    # the class split, as the Fraction implementation counted it
    assert census.equivalent_count == 67_482
    assert census.fineness_failure_count == 29_718
    assert census.strong_count == census.strong_and_indexed_count == 4_383
    assert census.condition_instances == census.condition_equivalent == 1_620

    # (b) the wedge: savage-strict yet not strong, with the constant recorded
    wedge = strong_conditional_strict(M0, M0.space.event(("s1", "s3")), f_wedge, g_wedge)
    assert wedge.savage_strict and not wedge.strong_strict
    assert wedge.failing_constant is not None

    # (c) 25 random fine models: wherever the fineness sufficiency condition
    # holds, indexed-strict and strong-strict coincide exactly
    rng = random.Random(505)
    condition_instances = 0
    for _ in range(25):
        m = random_model(rng, 4, 5, k_max=1)
        acts = list(enumerate_acts(m.space, m.outcome_space))
        sample = [acts[i] for i in rng.sample(range(len(acts)), 7)]
        report = observability_check(m, acts=sample)
        _assert_implications(report)
        assert report.anomaly_count == 0
        assert report.condition_instances > 0
        assert report.condition_equivalent == report.condition_instances
        condition_instances += report.condition_instances
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    _passed(
        5,
        "strong conditioning observability",
        f"{census.total_instances} census instances, wedge reproduced, "
        f"{condition_instances} fine-model condition instances, {elapsed:.1f}s",
    )


# -- 6: indexed preference is the induced-lottery comparison ------------------


def _random_lottery(rng: random.Random, ospace):
    den = 12
    while True:
        cuts = sorted(rng.randint(0, den) for _ in range(2))
        weights = (cuts[0], cuts[1] - cuts[0], den - cuts[1])
        if any(weights):
            return normalize_lottery(
                ospace, {o: F(w, den) for o, w in zip(ospace.outcomes, weights) if w}
            )


def test_criterion_6_lottery_kernel():
    acts = list(enumerate_acts(M0.space, M0.outcome_space))
    events = [e for e in M0.space.all_events() if not e.is_empty]

    instances = 0
    equal_lottery_pairs = 0
    for a in events:
        lots = [induced_lottery(M0, a, f) for f in acts]
        for i, f in enumerate(acts):
            for j, g in enumerate(acts):
                expected = lottery_compare(M0, a, lots[i], lots[j])
                assert indexed_prefer(M0, a, f, g) == expected
                if lots[i] == lots[j]:
                    # equal induced lotteries force indifference
                    assert expected is Ordering.INDIFFERENT
                    equal_lottery_pairs += 1
                instances += 1
    assert instances == 15 * 81 * 81
    assert equal_lottery_pairs > instances // 81  # the clause is exercised

    # independence and mixture monotonicity on seeded lottery triples
    rng = random.Random(606)
    ospace = M0.outcome_space
    for _ in range(500):
        a = rng.choice(events)
        l1, l2, l3 = (_random_lottery(rng, ospace) for _ in range(3))
        rho = F(rng.randint(1, 12), 12)
        base = lottery_compare(M0, a, l1, l2)
        mixed = lottery_compare(M0, a, mix(rho, l1, l3), mix(rho, l2, l3))
        assert base == mixed  # independence: mixing with l3 changes nothing
        sigma = F(rng.randint(0, 11), 12)
        if sigma >= rho:
            rho, sigma = sigma + F(1, 12), rho
        blend = lottery_compare(M0, a, mix(rho, l1, l2), mix(sigma, l1, l2))
        assert blend == base  # monotone in the mixing weight
    _passed(
        6,
        "lottery kernel",
        f"{instances} exhaustive instances, {equal_lottery_pairs} equal-lottery pairs, "
        "500 mixture instances",
    )


# -- 7: synthesis round-trips tables and certifies impossibility --------------


def test_criterion_7_synthesis_round_trip():
    start = time.monotonic()
    rng = random.Random(707)
    for _ in range(50):
        m = random_model(rng, 2, 5)
        table = derive_table(m)
        result = synthesize(table, precheck_budget=20_000)
        assert result.verified
        assert derive_table(result.model) == table  # entry-for-entry

    with pytest.raises(Unrepresentable) as err:
        measure_from_order(KPS_ATOMS, KPS_COMPARISONS)
    certificate = err.value.certificate
    assert not solve(certificate).feasible
    assert not fourier_motzkin_feasible(certificate)  # independent confirmation
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0
    _passed(
        7,
        "synthesis round trip",
        f"50 verified round trips, non-additive order certified infeasible, {elapsed:.1f}s",
    )


# -- 8: verdicts are invariant under per-level positive affine maps -----------


def _affine_image(m: GsleuModel, maps) -> GsleuModel:
    levels = tuple(
        Level(lv.support, lv.prob, tuple(a * u + b for u in lv.utility))
        for lv, (a, b) in zip(m.levels, maps)
    )
    image = GsleuModel(m.space, m.outcome_space, levels)
    assert not validate_model(image).violations
    return image


def test_criterion_8_affine_invariance():
    acts = list(enumerate_acts(M0.space, M0.outcome_space))
    pairs = list(itertools.combinations(acts, 2))
    rng = random.Random(808)

    for _ in range(3):
        maps = [
            (F(rng.randint(1, 6), rng.randint(1, 4)), F(rng.randint(-8, 8), rng.randint(1, 4)))
            for _ in M0.levels
        ]
        image = _affine_image(M0, maps)
        for f, g in pairs:
            assert lex_prefer(M0, f, g) == lex_prefer(image, f, g)

    # with all levels affinely related, the model reduces to finitely many
    # measures over one shared utility; compare against that rule directly
    shared = {"a": F(0), "b": F(1), "c": F(2)}
    maps = [(F(3, 2), F(1)), (F(2), F(-1, 2)), (F(1, 3), F(4))]
    related = _affine_image(
        GsleuModel(
            M0.space,
            M0.outcome_space,
            tuple(
                Level(lv.support, lv.prob, tuple(shared[o] for o in M0.outcome_space.outcomes))
                for lv in M0.levels
            ),
        ),
        maps,
    )

    def shared_utility_verdict(f, g):
        for k, lv in enumerate(related.levels, start=1):
            diff = sum(
                (
                    lv.prob[i]
                    * (
                        shared[M0.outcome_space.outcomes[f.assignment[i]]]
                        - shared[M0.outcome_space.outcomes[g.assignment[i]]]
                    )
                    for i in lv.support.members
                ),
                F(0),
            )
            if diff:
                return (
                    Ordering.STRICTLY_PREFER if diff > 0 else Ordering.STRICTLY_DISPREFER,
                    k,
                )
        return Ordering.INDIFFERENT, None

    for f, g in pairs:
        verdict = lex_prefer(related, f, g)
        assert (verdict.ordering, verdict.deciding_level) == shared_utility_verdict(f, g)
    _passed(
        8,
        "affine invariance",
        f"3 affine images × {len(pairs)} pairs unchanged; shared-utility reduction exact",
    )


# -- 9: the exact solver agrees with vertex enumeration -----------------------


def test_criterion_9_solver_oracle_agreement():
    rng = random.Random(909)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        system = _random_system(rng)
        result = solve(system)
        assert result.feasible == vertex_oracle_2d(system)
        if result.feasible:
            assert all(c.satisfied_by(result.assignment) for c in system.constraints)
        verdicts[result.feasible] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20
    _passed(
        9,
        "solver oracle agreement",
        f"200 systems ({verdicts[True]} feasible, {verdicts[False]} infeasible), "
        "all solutions re-substituted",
    )
