"""Seeded job inputs and the benchmark's own reference evaluator.

Nothing here imports lexeu: models are plain dicts with Fraction values,
and preference tables are derived by a direct transcription of the
definitions (class of an event = first level whose support meets it;
indexed score = expected utility under that level's measure restricted to
the event; unconditional order = lexicographic order of per-level expected
utilities).  The job references are therefore independent of the code
under test.

The model generator has the shape of ``random_model`` in the test suite: a
random level partition of the states, positive integer weights 1..9
normalized per level, and utilities drawn from 0..12 that share one strict
outcome order across levels.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

STATE_LABELS = tuple(f"s{i + 1}" for i in range(8))
OUTCOME_LABELS = tuple("abcdefgh")


class Model:
    """A lexicographic expected-utility model in plain Python terms.

    ``levels`` holds (support mask, prob per state, utility per outcome);
    bit i of a mask is state i.
    """

    def __init__(self, states, outcomes, levels):
        self.states = tuple(states)
        self.outcomes = tuple(outcomes)
        self.levels = tuple(levels)

    @property
    def full(self) -> int:
        return (1 << len(self.states)) - 1

    def class_of(self, mask: int) -> int:
        for k, (supp, _, _) in enumerate(self.levels):
            if mask & supp:
                return k
        raise ValueError("levels do not cover the event")

    def score(self, mask: int, act: tuple[int, ...]) -> Fraction:
        """Indexed expected utility at the event, up to the positive
        normalizing mass (which orders nothing)."""
        supp, prob, util = self.levels[self.class_of(mask)]
        core = mask & supp
        return sum(
            (prob[i] * util[act[i]] for i in range(len(self.states)) if core >> i & 1),
            Fraction(0),
        )

    def level_values(self, act: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(
            sum((prob[i] * util[act[i]] for i in range(len(self.states)) if supp >> i & 1), Fraction(0))
            for supp, prob, util in self.levels
        )

    def acts(self) -> list[tuple[int, ...]]:
        """Every act, in the order the CLI enumerates them (last state fastest)."""
        return list(itertools.product(range(len(self.outcomes)), repeat=len(self.states)))

    def to_json(self) -> dict:
        levels = []
        for supp, prob, util in self.levels:
            members = [i for i in range(len(self.states)) if supp >> i & 1]
            levels.append({
                "support": [self.states[i] for i in members],
                "prob": {self.states[i]: str(prob[i]) for i in members},
                "utility": {o: str(util[j]) for j, o in enumerate(self.outcomes)},
            })
        return {"states": list(self.states), "outcomes": list(self.outcomes), "levels": levels}

    @classmethod
    def from_json(cls, data: dict) -> "Model":
        states = data["states"]
        outcomes = data["outcomes"]
        levels = []
        for raw in data["levels"]:
            supp = 0
            prob = [Fraction(0)] * len(states)
            for label in raw["support"]:
                i = states.index(label)
                supp |= 1 << i
                prob[i] = Fraction(raw["prob"][label])
            util = tuple(Fraction(raw["utility"][o]) for o in outcomes)
            levels.append((supp, tuple(prob), util))
        return cls(states, outcomes, levels)


def random_model(rng: random.Random, n: int, n_outcomes: int, depth: int) -> Model:
    """A valid model with n states, the given outcome count and depth."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), depth - 1)) if depth > 1 else []
    blocks = [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]
    outcome_rank = list(range(n_outcomes))
    rng.shuffle(outcome_rank)
    levels = []
    for block in blocks:
        weights = {i: rng.randint(1, 9) for i in block}
        total = sum(weights.values())
        prob = tuple(Fraction(weights.get(i, 0), total) for i in range(n))
        values = sorted(rng.sample(range(0, 13), n_outcomes))
        utility = [Fraction(0)] * n_outcomes
        for pos, out_idx in enumerate(outcome_rank):
            utility[out_idx] = Fraction(values[pos])
        mask = sum(1 << i for i in block)
        levels.append((mask, prob, tuple(utility)))
    return Model(STATE_LABELS[:n], OUTCOME_LABELS[:n_outcomes], levels)


# -- preference tables -------------------------------------------------------

Tiers = tuple[frozenset, ...]


def _group_desc(scored) -> Tiers:
    by_score: dict = {}
    for score, act in scored:
        by_score.setdefault(score, set()).add(act)
    return tuple(frozenset(by_score[s]) for s in sorted(by_score, reverse=True))


def derive_tiers(model: Model) -> dict:
    """Rankings of every act at every nonempty event (keyed by mask) and
    unconditionally (keyed by None), as tiers of act assignments."""
    acts = model.acts()
    tiers: dict = {}
    for mask in range(1, model.full + 1):
        tiers[mask] = _group_desc((model.score(mask, a), a) for a in acts)
    tiers[None] = _group_desc((model.level_values(a), a) for a in acts)
    return tiers


def _event_key(states, mask: int) -> str:
    return ",".join(s for i, s in enumerate(states) if mask >> i & 1)


def table_json(model: Model, tiers: dict) -> dict:
    """The CLI's table file format for the given rankings."""
    acts = model.acts()
    names = {a: f"f{i}" for i, a in enumerate(acts)}

    def ranked(entry: Tiers) -> list[list[str]]:
        return [sorted((names[a] for a in tier), key=lambda n: int(n[1:])) for tier in entry]

    prefs: dict = {"": "degenerate"}
    for mask in range(1, model.full + 1):
        prefs[_event_key(model.states, mask)] = ranked(tiers[mask])
    return {
        "states": list(model.states),
        "outcomes": list(model.outcomes),
        "acts": [
            {"name": names[a], "map": {s: model.outcomes[a[i]] for i, s in enumerate(model.states)}}
            for a in acts
        ],
        "prefs": prefs,
        "unconditional": ranked(tiers[None]),
    }


def swap_adjacent(rng: random.Random, model: Model, tiers: dict) -> dict:
    """A copy of the rankings with two adjacent tiers exchanged at one
    seeded event."""
    masks = [m for m in range(1, model.full + 1) if len(tiers[m]) >= 2]
    mask = rng.choice(masks)
    i = rng.randrange(len(tiers[mask]) - 1)
    entry = list(tiers[mask])
    entry[i], entry[i + 1] = entry[i + 1], entry[i]
    swapped = dict(tiers)
    swapped[mask] = tuple(entry)
    return swapped


def dump(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"
