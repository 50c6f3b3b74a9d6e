"""The four job kinds: how each job's inputs are made and how its output
is checked.

Job i of a run draws its model from ``random.Random(f"{name}/{seed}/{i}")``
and takes its shape and depth from fixed cycles, so every seed runs the
same mix of shapes with different numbers, and no input repeats within a
run.  Runs end on a whole shape cycle, so the shape ratio never varies.  The checks use only :mod:`inputs` (the benchmark's own evaluator),
closed-form counts, and ``lex_prefer_bruteforce``, the library's
deliberately naive oracle.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

import inputs

AXIOM_IDS = ("P0.5", "P1.5", "P2.5", "P3.5", "P4.5", "P5.5", "P6.5", "SE", "QP", "NULLITY", "DOMINANCE")
MAY_BE_INFORMATIONAL = {"P6.5"}
REJECT_LINES = ("precheck failed:", "unrepresentable:", "verification failed:")
BRUTEFORCE_PAIRS = 24


@dataclass
class Job:
    index: int
    argv: list[str]
    files: dict[Path, str]
    source: inputs.Model
    expected: dict | None = None  # the rankings a synthesized model must reproduce
    output: Path | None = None

    def write(self) -> None:
        for path, text in self.files.items():
            path.write_text(text)


@dataclass
class Result:
    code: int | None  # None when main raised
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float


class Workload:
    name = ""
    shapes: tuple[tuple[int, int], ...] = ()  # (states, outcomes), cycled by job index
    max_depth = 3

    def __init__(self, shapes=None):
        if shapes is not None:
            self.shapes = tuple(shapes)

    def model(self, seed: int, i: int) -> tuple[random.Random, inputs.Model]:
        rng = random.Random(f"{self.name}/{seed}/{i}")
        cycle, slot = divmod(i, len(self.shapes))
        n, o = self.shapes[slot]
        # each slot starts the depth cycle at a different point, so every
        # whole shape cycle mixes depths
        depth = 1 + (cycle + slot) % min(self.max_depth, n)
        return rng, inputs.random_model(rng, n, o, depth)

    def make(self, seed: int, i: int, workdir: Path) -> Job:
        raise NotImplementedError

    def check(self, job: Job, result: Result) -> str | None:
        """None when the job's output is right, else the reason it is not."""
        raise NotImplementedError

    @staticmethod
    def _payload(result: Result, want_code: int) -> tuple[dict | None, str | None]:
        if result.code != want_code:
            return None, f"exit {result.code}, expected {want_code}: {result.stderr.strip()[:200]}"
        try:
            return json.loads(result.stdout), None
        except json.JSONDecodeError:
            return None, "stdout is not JSON"


class Census(Workload):
    """``lexeu observability`` on a model: the strong-conditioning census."""

    name = "census"
    shapes = ((3, 3), (3, 3), (4, 2))

    def make(self, seed, i, workdir):
        _, model = self.model(seed, i)
        path = workdir / f"model{i}.json"
        return Job(i, ["observability", str(path), "--json"], {path: inputs.dump(model.to_json())}, model)

    def check(self, job, result):
        data, why = self._payload(result, 0)
        if why:
            return why
        n, o = len(job.source.states), len(job.source.outcomes)
        total = 2 * (2 ** n - 1) * comb(o ** n, 2)
        if data["total_instances"] != total:
            return f"total_instances {data['total_instances']}, expected {total}"
        if data["anomalies"] != 0:
            return f"{data['anomalies']} anomalies"
        if data["equivalent"] + data["fineness_failures"] + data["anomalies"] != total:
            return "classes do not add up to the total"
        return None


class Audit(Workload):
    """``lexeu axioms --suite all`` on a model at the default budget."""

    name = "audit"
    shapes = ((3, 3),)

    def make(self, seed, i, workdir):
        _, model = self.model(seed, i)
        path = workdir / f"model{i}.json"
        argv = ["axioms", str(path), "--suite", "all", "--json"]
        return Job(i, argv, {path: inputs.dump(model.to_json())}, model)

    def check(self, job, result):
        data, why = self._payload(result, 0)
        if why:
            return why
        reports = data["reports"]
        if [r["axiom"] for r in reports] != list(AXIOM_IDS):
            return f"reports for {[r['axiom'] for r in reports]}"
        for r in reports:
            allowed = {"Holds", "Informational"} if r["axiom"] in MAY_BE_INFORMATIONAL else {"Holds"}
            if r["status"] not in allowed:
                return f"{r['axiom']}: {r['status']} on a model-backed family"
        return None

    @staticmethod
    def instances(result: Result) -> int:
        return sum(r["statistics"].get("instances", 0) for r in json.loads(result.stdout)["reports"])


class Synth(Workload):
    """``lexeu synthesize -o`` on the full table of a model."""

    name = "synth"
    shapes = ((3, 3), (3, 3), (4, 3))

    def tables(self, seed, i):
        rng, model = self.model(seed, i)
        return rng, model, inputs.derive_tiers(model)

    def make(self, seed, i, workdir):
        _, model, tiers = self.tables(seed, i)
        return self._job(i, model, tiers, workdir)

    @staticmethod
    def _job(i, model, tiers, workdir):
        table = workdir / f"table{i}.json"
        out = workdir / f"out{i}.json"
        argv = ["synthesize", str(table), "-o", str(out), "--json"]
        text = inputs.dump(inputs.table_json(model, tiers))
        return Job(i, argv, {table: text}, model, expected=tiers, output=out)

    @staticmethod
    def _reproduces(job: Job) -> tuple[inputs.Model | None, str | None]:
        """(the written model, None) when it reproduces the job's expected
        rankings, else (None, the reason)."""
        try:
            produced = inputs.Model.from_json(json.loads(job.output.read_text()))
        except (OSError, ValueError, KeyError) as exc:
            return None, f"unreadable output model: {exc}"
        got = inputs.derive_tiers(produced)
        for key, tiers in job.expected.items():
            if got.get(key) != tiers:
                where = "unconditionally" if key is None else f"at event mask {key}"
                return None, f"output model ranks acts differently {where}"
        return produced, None

    def check(self, job, result):
        data, why = self._payload(result, 0)
        if why:
            return why
        if data.get("verified") is not True:
            return "output not marked verified"
        produced, why = self._reproduces(job)
        if why:
            return why
        return self._bruteforce(job, produced)

    @staticmethod
    def _bruteforce(job: Job, produced: inputs.Model) -> str | None:
        """Unconditional verdicts of the output model on a seeded sample of
        act pairs against the library's brute-force oracle on the source."""
        from lexeu.acts import Act
        from lexeu.io import model_from_dict
        from lexeu.preference import lex_prefer_bruteforce

        source = model_from_dict(job.source.to_json())
        acts = job.source.acts()
        rng = random.Random(f"bruteforce/{job.index}/{len(acts)}")
        sign = {"STRICTLY_PREFER": 1, "INDIFFERENT": 0, "STRICTLY_DISPREFER": -1}
        for _ in range(BRUTEFORCE_PAIRS):
            f, g = rng.sample(acts, 2)
            want = sign[lex_prefer_bruteforce(
                source, Act(source.space, source.outcome_space, f), Act(source.space, source.outcome_space, g)
            ).ordering.name]
            vf, vg = produced.level_values(f), produced.level_values(g)
            if (vf > vg) - (vf < vg) != want:
                return f"unconditional verdict on {f} vs {g} differs from the brute-force oracle"
        return None

    @staticmethod
    def strategies(result: Result) -> list[str]:
        return [stage["strategy"] for stage in json.loads(result.stdout)["stages"].values()]


class Reject(Synth):
    """``lexeu synthesize`` on a model's table with one adjacent-tier swap."""

    name = "reject"

    def make(self, seed, i, workdir):
        rng, model, tiers = self.tables(seed, i)
        return self._job(i, model, inputs.swap_adjacent(rng, model, tiers), workdir)

    def check(self, job, result):
        if result.code == 1:
            first = result.stderr.lstrip().splitlines()[:1]
            if first and first[0].startswith(REJECT_LINES):
                return None
            return f"exit 1 without a rejection line: {result.stderr.strip()[:200]}"
        _, why = self._payload(result, 0)
        if why:
            return why
        # accepted: only right if the model reproduces the tampered table
        return self._reproduces(job)[1]


WORKLOADS = {w.name: w for w in (Census, Audit, Synth, Reject)}
