"""Table- and model-backed families must induce the same rankings."""
from __future__ import annotations

import random

import pytest

from lexeu.acts import constant_act
from lexeu.axioms import _Fam
from lexeu.errors import IncompleteTable, ValidationError
from lexeu.family import ModelBackedFamily, TableBackedFamily, derive_table
from lexeu.preference import DEGENERATE, indexed_prefer, lex_prefer

from conftest import build_m0, ev, random_model

M0 = build_m0()


def test_derived_table_shape(m0_table):
    assert len(m0_table.acts) == 81
    assert set(m0_table.tiers) == set(range(1, 16))
    # lexicographic best and worst acts are the constant extremes
    assert m0_table.unconditional[0] == ("f80",)
    assert m0_table.unconditional[-1] == ("f0",)


def test_table_matches_model_on_events(m0, m0_table):
    rng = random.Random(71)
    names = list(m0_table.acts)
    pairs = [tuple(rng.sample(names, 2)) for _ in range(250)]
    # both families through the view the axiom checkers read them by
    views = _Fam(m0_table), _Fam(ModelBackedFamily(m0))
    for event in m0.space.all_events():
        for fname, gname in pairs:
            f, g = m0_table.acts[fname], m0_table.acts[gname]
            expected = indexed_prefer(m0, event, f, g)
            for view in views:
                assert view.cmp(event.mask, f.assignment, g.assignment) == expected


def test_table_matches_model_unconditionally(m0, m0_table):
    rng = random.Random(72)
    names = list(m0_table.acts)
    views = _Fam(m0_table), _Fam(ModelBackedFamily(m0))
    for _ in range(400):
        fname, gname = rng.sample(names, 2)
        f, g = m0_table.acts[fname], m0_table.acts[gname]
        expected = lex_prefer(m0, f, g).ordering
        for view in views:
            assert view.uncond(f.assignment, g.assignment) == expected


def test_table_agreement_matches_model(m0, m0_table):
    fam = ModelBackedFamily(m0)
    masks = range(16)
    for a in masks:
        for b in masks:
            assert (m0_table.signature(a) == m0_table.signature(b)) == (
                fam.signature(a) == fam.signature(b)
            )


def test_empty_event_is_degenerate(m0, m0_table):
    x = m0_table.acts["f0"].assignment
    y = m0_table.acts["f80"].assignment
    assert _Fam(m0_table).cmp(0, x, y) is DEGENERATE
    assert _Fam(ModelBackedFamily(m0)).cmp(0, x, y) is DEGENERATE
    # the table's empty event ties every act
    assert set(m0_table.signature(0).values()) == {0}


def test_name_lookup(m0_table):
    act = m0_table.acts["f41"]
    assert m0_table.name_of(act) == "f41"


def test_constant_acts_present(m0_table):
    space, ospace = m0_table.space, m0_table.outcome_space
    named = {o: m0_table.name_of(constant_act(o, space, ospace)) for o in "abc"}
    assert named == {"a": "f0", "b": "f40", "c": "f80"}


def _tiny_table(**overrides):
    """Two states, two acts; a minimal well-formed table."""
    m = random_model(random.Random(0), n_min=2, n_max=2, n_outcomes=2, k_max=1)
    table = derive_table(m)
    fields = dict(
        space=table.space,
        outcome_space=table.outcome_space,
        acts=dict(table.acts),
        tiers=dict(table.tiers),
        unconditional=table.unconditional,
    )
    fields.update(overrides)
    return TableBackedFamily(**fields)


def test_rejects_duplicate_rank():
    base = _tiny_table()
    broken = dict(base.tiers)
    first = next(iter(broken))
    name = broken[first][0][0]
    broken[first] = broken[first] + ((name,),)
    with pytest.raises(ValidationError, match="two tiers"):
        _tiny_table(tiers=broken)


@pytest.mark.parametrize("at", [1, -1], ids=["second", "trailing"])
def test_rejects_empty_tier(at):
    base = _tiny_table()
    broken = dict(base.tiers)
    full = max(broken)
    tiers = list(broken[full])
    tiers.insert(at if at > 0 else len(tiers), ())
    broken[full] = tuple(tiers)
    where = at + 1 if at > 0 else len(tiers)
    with pytest.raises(ValidationError, match=f"event mask {full}: tier {where} is empty"):
        _tiny_table(tiers=broken)
    with pytest.raises(ValidationError, match="unconditional entry: tier 1 is empty"):
        _tiny_table(unconditional=((),) + base.unconditional)


def test_rejects_unknown_act():
    base = _tiny_table()
    broken = dict(base.tiers)
    first = next(iter(broken))
    broken[first] = (("ghost",),) + broken[first]
    with pytest.raises(ValidationError, match="unknown act"):
        _tiny_table(tiers=broken)


def test_missing_event_is_incomplete():
    base = _tiny_table()
    broken = dict(base.tiers)
    broken.pop(max(broken))
    with pytest.raises(IncompleteTable, match="no ranking"):
        _tiny_table(tiers=broken)


def test_unranked_act_is_incomplete():
    base = _tiny_table()
    broken = dict(base.tiers)
    first = next(iter(broken))
    broken[first] = tuple(t[1:] if len(t) > 1 else t for t in broken[first])
    if sum(len(t) for t in broken[first]) == sum(len(t) for t in base.tiers[first]):
        broken[first] = broken[first][1:]
    with pytest.raises(IncompleteTable, match="unranked"):
        _tiny_table(tiers=broken)


def test_empty_event_entry_rejected():
    base = _tiny_table()
    broken = dict(base.tiers)
    broken[0] = ((next(iter(base.acts)),),)
    with pytest.raises(ValidationError, match="empty event"):
        _tiny_table(tiers=broken)


def test_rejects_two_names_for_one_act():
    base = _tiny_table()
    name, act = next(iter(base.acts.items()))
    # otherwise well formed: the copy is ranked, strictly last, everywhere
    with pytest.raises(ValidationError, match=f"acts {name!r} and 'dup' have the same assignment"):
        _tiny_table(
            acts={**base.acts, "dup": act},
            tiers={m: t + (("dup",),) for m, t in base.tiers.items()},
            unconditional=base.unconditional + (("dup",),),
        )


def test_equality_ignores_listing_order_within_tiers(m0_table):
    reordered = {
        mask: tuple(tuple(reversed(t)) for t in tiers)
        for mask, tiers in m0_table.tiers.items()
    }
    twin = TableBackedFamily(
        space=m0_table.space,
        outcome_space=m0_table.outcome_space,
        acts=dict(m0_table.acts),
        tiers=reordered,
        unconditional=m0_table.unconditional,
    )
    assert twin == m0_table


def test_equality_sees_swapped_tiers(m0_table):
    mask = ev(M0, "s3").mask
    tiers = dict(m0_table.tiers)
    t = tiers[mask]
    tiers[mask] = (t[1], t[0]) + t[2:]
    other = TableBackedFamily(
        space=m0_table.space,
        outcome_space=m0_table.outcome_space,
        acts=dict(m0_table.acts),
        tiers=tiers,
        unconditional=m0_table.unconditional,
    )
    assert other != m0_table
    u = m0_table.unconditional
    only_uncond = TableBackedFamily(
        space=m0_table.space,
        outcome_space=m0_table.outcome_space,
        acts=dict(m0_table.acts),
        tiers=dict(m0_table.tiers),
        unconditional=(u[1], u[0]) + u[2:],
    )
    assert only_uncond != m0_table


def test_tables_of_random_models_match(m0):
    rng = random.Random(9)
    for _ in range(5):
        m = random_model(rng, n_min=2, n_max=3)
        table = derive_table(m)
        views = _Fam(table), _Fam(ModelBackedFamily(m))
        names = [n for n, _ in table.act_items()]
        for event in m.space.all_events():
            if event.is_empty:
                continue
            for i, fname in enumerate(names):
                for gname in names[i + 1 :]:
                    x, y = table.acts[fname].assignment, table.acts[gname].assignment
                    assert views[0].cmp(event.mask, x, y) == views[1].cmp(event.mask, x, y)
