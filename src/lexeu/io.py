"""JSON file formats: models, acts, lotteries, preference tables.

All rationals are canonical strings on output ("p/q" in lowest terms with a
positive denominator, bare integers when the denominator is one); input
additionally accepts JSON integers.  Parsing errors carry enough context to
locate the offending entry without a stack trace.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .acts import Act, OutcomeSpace
from .errors import ParseError, ValidationError
from .events import Event, StateSpace
from .family import TableBackedFamily, Tiers
from .lottery import Lottery, normalize_lottery
from .model import GsleuModel, Level, validate_model

# Digits allowed in a numerator or a denominator.  Checked before any
# conversion, so a hostile number costs nothing; it also bounds the
# integers of the compiled kernel, which grow with the denominators.
MAX_RATIONAL_DIGITS = 1000
_RATIONAL = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")
_INT_LIMIT = 10**MAX_RATIONAL_DIGITS


def format_rational(q: Fraction) -> str:
    return str(q)


def parse_rational(raw, where: str) -> Fraction:
    """A JSON integer or a "p/q" / "p" string of ASCII digits, at most
    MAX_RATIONAL_DIGITS digits a part."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ParseError(f"{where}: expected a rational string or integer, got {raw!r}")
    if isinstance(raw, int):
        too_long = abs(raw) >= _INT_LIMIT
    else:
        match = _RATIONAL.fullmatch(raw)
        if match is None:
            raise ParseError(f"{where}: not a rational: {raw[:40]!r}")
        too_long = any(part and len(part) > MAX_RATIONAL_DIGITS for part in match.groups())
    if too_long:
        raise ParseError(f"{where}: more than {MAX_RATIONAL_DIGITS} digits in a rational")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ParseError(f"{where}: zero denominator in {raw!r}") from None


def load_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # undecodable bytes, or an integer too long to convert
        raise ParseError(f"{path}: unreadable input: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at the top level")
    return data


def _object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected a JSON object")
    return data


def _labels(data: dict, key: str, where: str) -> tuple[str, ...]:
    raw = data.get(key)
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ParseError(f"{where}: {key!r} must be an array of labels")
    return tuple(raw)


def _spaces(states, outcomes, where: str) -> tuple[StateSpace, OutcomeSpace]:
    try:
        return StateSpace(states), OutcomeSpace(outcomes)
    except ValueError as exc:  # empty, too few or repeated labels
        raise ParseError(f"{where}: {exc}") from None


# -- models ----------------------------------------------------------------


def model_from_dict(data: dict, where: str = "model") -> GsleuModel:
    _object(data, where)
    space, ospace = _spaces(
        _labels(data, "states", where), _labels(data, "outcomes", where), where
    )
    raw_levels = data.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise ParseError(f"{where}: 'levels' must be a nonempty array")
    levels = []
    for i, raw in enumerate(raw_levels, start=1):
        at = f"{where}: level {i}"
        if not isinstance(raw, dict):
            raise ParseError(f"{at} must be an object")
        support = _labels(raw, "support", at)
        prob_raw = raw.get("prob")
        util_raw = raw.get("utility")
        if not isinstance(prob_raw, dict) or not isinstance(util_raw, dict):
            raise ParseError(f"{at}: 'prob' and 'utility' must be objects")
        for s in support:
            if s not in prob_raw:
                raise ParseError(f"{at}: prob mapping is missing state {s!r}")
        for s in prob_raw:
            if s not in support:
                raise ParseError(f"{at}: prob mapping names {s!r} outside the support")
        for o in ospace.outcomes:
            if o not in util_raw:
                raise ParseError(f"{at}: utility mapping is missing outcome {o!r}")
        for o in util_raw:
            if o not in ospace.outcomes:
                raise ParseError(f"{at}: utility mapping names unknown outcome {o!r}")
        prob = {s: parse_rational(v, f"{at}, prob[{s!r}]") for s, v in prob_raw.items()}
        utility = {o: parse_rational(v, f"{at}, utility[{o!r}]") for o, v in util_raw.items()}
        try:
            levels.append(Level.from_mappings(space, ospace, support, prob, utility))
        except Exception as exc:
            raise ParseError(f"{at}: {exc}") from None
    model = GsleuModel(space, ospace, tuple(levels))
    report = validate_model(model)
    if report.violations:
        raise ValidationError(
            f"{where}: model is structurally invalid", violations=report.violations
        )
    return model


def parse_model(path) -> GsleuModel:
    return model_from_dict(load_json(path), where=str(path))


def model_to_dict(m: GsleuModel) -> dict:
    levels = []
    for level in m.levels:
        support = level.support.labels
        levels.append(
            {
                "support": list(support),
                "prob": {
                    s: format_rational(level.prob[m.space.index(s)]) for s in support
                },
                "utility": {
                    o: format_rational(level.utility[i])
                    for i, o in enumerate(m.outcome_space.outcomes)
                },
            }
        )
    return {
        "states": list(m.space.states),
        "outcomes": list(m.outcome_space.outcomes),
        "levels": levels,
    }


# -- acts and lotteries ------------------------------------------------------


def act_from_dict(
    data: dict, space: StateSpace, ospace: OutcomeSpace, where: str = "act"
) -> tuple[str, Act]:
    mapping = _object(data, where).get("map")
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: 'map' must be an object of state -> outcome")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"{where}: 'name' must be a string")
    try:
        act = Act.from_mapping(space, ospace, mapping)
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from None
    return name, act


def parse_act(path, space: StateSpace, ospace: OutcomeSpace) -> tuple[str, Act]:
    name, act = act_from_dict(load_json(path), space, ospace, where=str(path))
    return name or Path(path).stem, act


def act_to_dict(name: str, act: Act) -> dict:
    return {"name": name, "map": act.as_mapping()}


def lottery_from_dict(data: dict, ospace: OutcomeSpace, where: str = "lottery") -> Lottery:
    weights = {
        o: parse_rational(v, f"{where}[{o!r}]") for o, v in _object(data, where).items()
    }
    try:
        return normalize_lottery(ospace, weights)
    except ValueError as exc:  # a negative weight
        raise ParseError(f"{where}: {exc}") from None


def lottery_to_dict(lot: Lottery) -> dict:
    return {
        lot.outcome_space.outcomes[i]: format_rational(w) for i, w in lot.weights
    }


# -- preference tables -------------------------------------------------------


def _event_key(event: Event) -> str:
    return ",".join(event.labels)


def event_from_key(space: StateSpace, key: str, where: str = "event") -> Event:
    if key == "":
        return space.empty
    try:
        return space.event(key.split(","))
    except Exception as exc:
        raise ParseError(f"{where}: bad event key {key!r}: {exc}") from None


def _tiers_from_raw(raw, names: set[str], where: str) -> Tiers:
    if not isinstance(raw, list):
        raise ParseError(f"{where}: ranking must be an array of tiers")
    tiers = []
    for tier in raw:
        if not isinstance(tier, list) or not all(isinstance(n, str) for n in tier):
            raise ParseError(f"{where}: each tier must be an array of act names")
        for n in tier:
            if n not in names:
                raise ParseError(f"{where}: ranking names unknown act {n!r}")
        tiers.append(tuple(tier))
    return tuple(tiers)


def table_from_dict(data: dict, where: str = "table") -> TableBackedFamily:
    raw_acts = _object(data, where).get("acts")
    if not isinstance(raw_acts, list) or not raw_acts:
        raise ParseError(f"{where}: 'acts' must be a nonempty array")
    for i, raw in enumerate(raw_acts):
        if not isinstance(raw, dict) or not isinstance(raw.get("map"), dict):
            raise ParseError(f"{where}: acts[{i}] must be an object with a 'map'")
        if not raw.get("name"):
            raise ParseError(f"{where}: acts[{i}] needs a 'name'")
    if "states" in data:
        states = _labels(data, "states", where)
    else:
        states = tuple(raw_acts[0]["map"].keys())
    if "outcomes" in data:
        outcomes = _labels(data, "outcomes", where)
    else:
        seen: dict[str, None] = {}
        for i, raw in enumerate(raw_acts):
            for o in raw["map"].values():
                if not isinstance(o, str):
                    raise ParseError(f"{where}: acts[{i}] maps a state to {o!r}, not a label")
                seen.setdefault(o, None)
        outcomes = tuple(seen)
    space, ospace = _spaces(states, outcomes, where)
    acts: dict[str, Act] = {}
    for i, raw in enumerate(raw_acts):
        name, act = act_from_dict(raw, space, ospace, where=f"{where}: acts[{i}]")
        if name in acts:
            raise ParseError(f"{where}: duplicate act name {name!r}")
        acts[name] = act
    prefs = data.get("prefs")
    if not isinstance(prefs, dict):
        raise ParseError(f"{where}: 'prefs' must be an object keyed by events")
    names = set(acts)
    tiers: dict[int, Tiers] = {}
    key_of: dict[int, str] = {}
    for key, raw in prefs.items():
        event = event_from_key(space, key, where=f"{where}: prefs")
        if event.mask in key_of:
            first = key_of[event.mask]
            raise ParseError(f"{where}: prefs keys {first!r} and {key!r} name the same event")
        key_of[event.mask] = key
        if event.is_empty:
            if raw != "degenerate":
                raise ParseError(f'{where}: the empty-event entry must be "degenerate"')
            continue
        tiers[event.mask] = _tiers_from_raw(raw, names, f"{where}: prefs[{key!r}]")
    if "unconditional" in data:
        unconditional = _tiers_from_raw(data["unconditional"], names, f"{where}: unconditional")
    else:
        full = space.full.mask
        if full not in tiers:
            raise ParseError(f"{where}: no 'unconditional' ranking and no full-event entry")
        unconditional = tiers[full]
    try:
        return TableBackedFamily(space, ospace, acts, tiers, unconditional)
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_table(path) -> TableBackedFamily:
    return table_from_dict(load_json(path), where=str(path))


def table_to_dict(table: TableBackedFamily) -> dict:
    prefs: dict[str, object] = {"": "degenerate"}
    for mask in sorted(table.tiers):
        prefs[_event_key(Event(table.space, mask))] = [list(t) for t in table.tiers[mask]]
    return {
        "states": list(table.space.states),
        "outcomes": list(table.outcome_space.outcomes),
        "acts": [act_to_dict(name, act) for name, act in table.act_items()],
        "prefs": prefs,
        "unconditional": [list(t) for t in table.unconditional],
    }


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"
