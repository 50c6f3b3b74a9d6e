"""File-format round trips and the error messages bad files produce."""
import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_m0, random_model
from lexeu import io
from lexeu.acts import Act, OutcomeSpace
from lexeu.errors import LexeuError, NotNormalized, ParseError, ValidationError
from lexeu.events import StateSpace
from lexeu.family import derive_table
from lexeu.synthesis import synthesize
from test_axioms import flat2


def test_model_round_trip():
    m = build_m0()
    assert io.model_from_dict(io.model_to_dict(m)) == m


def test_model_file_round_trip(tmp_path):
    m = build_m0()
    path = tmp_path / "m.json"
    path.write_text(io.dump_json(io.model_to_dict(m)))
    assert io.parse_model(path) == m
    # rationals are strings, never floats
    raw = json.loads(path.read_text())
    assert raw["levels"][0]["prob"]["s1"] == "1/2"
    assert raw["levels"][1]["utility"]["c"] == "4"


def test_random_model_round_trips():
    rng = random.Random(11)
    for _ in range(20):
        m = random_model(rng, 2, 5)
        assert io.model_from_dict(io.model_to_dict(m)) == m


def test_integer_probabilities_accepted():
    data = {
        "states": ["s1"],
        "outcomes": ["a", "b"],
        "levels": [{"support": ["s1"], "prob": {"s1": 1}, "utility": {"a": 0, "b": 1}}],
    }
    m = io.model_from_dict(data)
    assert m.level(1).prob[0] == 1


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ("1/0", "zero denominator"),
        ("one half", "not a rational"),
        ("1e5", "not a rational"),
        ("1.5", "not a rational"),
        ("1_000", "not a rational"),
        ("\u0661/\u0662", "not a rational"),  # Arabic-Indic digits
        ("+1", "not a rational"),
        (" 1/2", "not a rational"),
        pytest.param("9" * 1001, "more than 1000 digits", id="long-numerator"),
        pytest.param("1/" + "9" * 1001, "more than 1000 digits", id="long-denominator"),
        pytest.param(10**1000, "more than 1000 digits", id="long-integer"),
        (True, "expected a rational"),
        (0.5, "expected a rational"),
        (None, "expected a rational"),
    ],
)
def test_bad_rationals(raw, fragment):
    with pytest.raises(ParseError, match=fragment):
        io.parse_rational(raw, "here")


def test_model_errors_name_the_offender():
    good = io.model_to_dict(build_m0())

    missing_prob = json.loads(json.dumps(good))
    del missing_prob["levels"][0]["prob"]["s2"]
    with pytest.raises(ParseError, match="'s2'"):
        io.model_from_dict(missing_prob)

    stray_prob = json.loads(json.dumps(good))
    stray_prob["levels"][1]["prob"]["s1"] = "1/3"
    with pytest.raises(ParseError, match="outside the support"):
        io.model_from_dict(stray_prob)

    missing_util = json.loads(json.dumps(good))
    del missing_util["levels"][2]["utility"]["b"]
    with pytest.raises(ParseError, match="missing outcome 'b'"):
        io.model_from_dict(missing_util)


def test_structurally_invalid_model_raises_validation_error():
    bad = io.model_to_dict(build_m0())
    bad["levels"][0]["prob"]["s1"] = "2/3"  # sums to 7/6
    with pytest.raises(ValidationError) as exc:
        io.model_from_dict(bad)
    assert any("sum to 1" in v for v in exc.value.violations)


def test_act_round_trip(tmp_path):
    m = build_m0()
    act = Act.from_mapping(m.space, m.outcome_space, {"s1": "c", "s2": "a", "s3": "b", "s4": "a"})
    path = tmp_path / "f.json"
    path.write_text(io.dump_json(io.act_to_dict("f", act)))
    name, parsed = io.parse_act(path, m.space, m.outcome_space)
    assert name == "f" and parsed == act


def test_act_name_falls_back_to_file_stem(tmp_path):
    m = build_m0()
    act = Act.from_mapping(m.space, m.outcome_space, {"s1": "a", "s2": "a", "s3": "a", "s4": "a"})
    path = tmp_path / "always_a.json"
    path.write_text(io.dump_json({"map": act.as_mapping()}))
    name, parsed = io.parse_act(path, m.space, m.outcome_space)
    assert name == "always_a" and parsed == act


def test_act_with_unknown_state_is_a_parse_error():
    m = build_m0()
    with pytest.raises(ParseError, match="does not cover"):
        io.act_from_dict(
            {"name": "f", "map": {"s9": "a"}}, m.space, m.outcome_space
        )


def test_lottery_round_trip():
    ospace = OutcomeSpace(("a", "b", "c"))
    lot = io.lottery_from_dict({"a": "1/2", "c": "1/2"}, ospace)
    assert io.lottery_to_dict(lot) == {"a": "1/2", "c": "1/2"}
    assert lot.weight_of("b") == 0


def test_unnormalized_lottery_rejected():
    ospace = OutcomeSpace(("a", "b"))
    with pytest.raises(NotNormalized):
        io.lottery_from_dict({"a": "1/2", "b": "1/3"}, ospace)


def test_table_round_trip():
    table = derive_table(build_m0())
    assert io.table_from_dict(io.table_to_dict(table)) == table


def test_table_file_round_trip(tmp_path):
    table = derive_table(build_m0())
    path = tmp_path / "t.json"
    path.write_text(io.dump_json(io.table_to_dict(table)))
    parsed = io.parse_table(path)
    assert parsed == table
    raw = json.loads(path.read_text())
    assert raw["prefs"][""] == "degenerate"
    assert set(raw) == {"states", "outcomes", "acts", "prefs", "unconditional"}


def test_minimal_table_infers_spaces():
    """states/outcomes/unconditional may be omitted; they are reconstructed
    from the acts (state order from the first map, outcomes by first
    appearance) and, for the ranking, from the full-event entry."""
    full = io.table_to_dict(derive_table(build_m0()))
    minimal = {"acts": full["acts"], "prefs": full["prefs"], "unconditional": full["unconditional"]}
    assert io.table_from_dict(minimal) == io.table_from_dict(full)


def test_single_level_minimal_table_synthesizes():
    # with one level the unconditional ranking equals the full-event entry,
    # so even that fallback loses nothing
    full = io.table_to_dict(derive_table(flat2()))
    minimal = {"acts": full["acts"], "prefs": full["prefs"]}
    table = io.table_from_dict(minimal)
    assert [list(t) for t in table.unconditional] == full["unconditional"]
    assert synthesize(table).verified


def test_empty_event_entry_must_read_degenerate():
    raw = io.table_to_dict(derive_table(flat2()))
    raw["prefs"][""] = [["f0"]]
    with pytest.raises(ParseError, match="degenerate"):
        io.table_from_dict(raw)


@pytest.mark.parametrize(
    "first, second", [("s1", "s1,s1"), ("s1,s2", "s2,s1")], ids=["repeated-label", "reordered"]
)
def test_table_event_under_two_keys(first, second):
    raw = io.table_to_dict(derive_table(flat2()))
    raw["prefs"][second] = list(reversed(raw["prefs"][first]))
    with pytest.raises(ParseError, match=f"'{first}' and '{second}' name the same event"):
        io.table_from_dict(raw)


def test_table_without_any_unconditional_source():
    raw = io.table_to_dict(derive_table(flat2()))
    del raw["unconditional"]
    full_key = ",".join(flat2().space.states)
    del raw["prefs"][full_key]
    with pytest.raises(ParseError, match="unconditional"):
        io.table_from_dict(raw)


def test_table_ranking_with_unknown_act():
    raw = io.table_to_dict(derive_table(flat2()))
    raw["unconditional"] = [["not_an_act"]]
    with pytest.raises(ParseError, match="not_an_act"):
        io.table_from_dict(raw)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"states": [}')
    with pytest.raises(ParseError, match="line 1"):
        io.load_json(path)


def test_top_level_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="object"):
        io.load_json(path)


def test_event_keys():
    space = StateSpace(("s1", "s2", "s3"))
    assert io.event_from_key(space, "").is_empty
    assert io.event_from_key(space, "s3,s1").labels == ("s1", "s3")
    with pytest.raises(ParseError, match="s7"):
        io.event_from_key(space, "s7")


# -- any JSON value parses or raises a LexeuError ---------------------------

_WORDS = ("states", "outcomes", "levels", "support", "prob", "utility", "acts",
          "map", "name", "prefs", "unconditional", "degenerate", "s1", "s2", "a", "b", "1/2")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def _near(draw, valid):
    """A valid document with one value, anywhere in it (the document itself
    included), replaced by any JSON value."""
    replacement = draw(_JSON)
    path = draw(st.sampled_from(list(_paths(valid))))
    if not path:
        return replacement
    data = copy.deepcopy(valid)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = replacement
    return data


_M0 = build_m0()
_PARSERS = {
    "model": (io.model_from_dict, io.model_to_dict(_M0)),
    "table": (io.table_from_dict, io.table_to_dict(derive_table(flat2()))),
    "act": (
        lambda data: io.act_from_dict(data, _M0.space, _M0.outcome_space),
        io.act_to_dict("f", Act(_M0.space, _M0.outcome_space, (0, 1, 2, 0))),
    ),
    "lottery": (
        lambda data: io.lottery_from_dict(data, _M0.outcome_space),
        {"a": "1/2", "b": "1/4", "c": "1/4"},
    ),
}


@pytest.mark.parametrize("kind", sorted(_PARSERS))
def test_any_json_value_parses_or_raises_lexeu_error(kind):
    parse, valid = _PARSERS[kind]
    parse(valid)

    @settings(max_examples=150, deadline=2000, database=None, derandomize=True)
    @given(_near(valid))
    def check(data):
        try:
            parse(data)
        except LexeuError:
            pass

    check()


def test_non_object_documents_are_parse_errors():
    for value in ([], "model", None, 3):
        for parse in (io.model_from_dict, io.table_from_dict):
            with pytest.raises(ParseError, match="object"):
                parse(value)
    # outcomes inferred from the acts must be labels (a list is unhashable)
    raw = {"acts": [{"name": "f", "map": {"s1": ["a"], "s2": "b"}}], "prefs": {}}
    with pytest.raises(ParseError, match="not a label"):
        io.table_from_dict(raw)
    with pytest.raises(ParseError, match="negative weight"):
        io.lottery_from_dict({"a": -1, "b": "1"}, OutcomeSpace(("a", "b")))
