"""Golden digests: outputs that a refactor must leave byte for byte.

Each case renders one output as bytes, a repr or the CLI's output, and
digests.json maps the case name to the SHA-256 of those bytes.  After an
intended change of output, regenerate the file from the repository root with

    PYTHONPATH=src python tests/golden/golden_cases.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))  # conftest and the test modules' helpers

from conftest import build_m0, coprime_affine_model, random_model  # noqa: E402
from test_axioms import DEFECTS, _partial  # noqa: E402
from test_conditioning import _mixed_order_models  # noqa: E402
from test_synthesis import _swapped  # noqa: E402

from lexeu import io as lexeu_io  # noqa: E402
from lexeu.acts import Act, constant_act, enumerate_acts  # noqa: E402
from lexeu.axioms import check_all  # noqa: E402
from lexeu.cli import main  # noqa: E402
from lexeu.conditioning import (  # noqa: E402
    observability_check,
    savage_conditional,
    strong_conditional_strict,
)
from lexeu.errors import LexeuError  # noqa: E402
from lexeu.events import Event  # noqa: E402
from lexeu.family import ModelBackedFamily, TableBackedFamily, derive_table  # noqa: E402
from lexeu.preference import Ordering  # noqa: E402
from lexeu.synthesis import infer_hierarchy, synthesize  # noqa: E402


def _observability(model, acts=None) -> bytes:
    return repr(observability_check(model, acts=acts)).encode()


def _strong_batch(n: int) -> bytes:
    """Every field of strong_conditional_strict on seeded draws over
    n-state models: levels ordering the outcomes alike and differently, the
    savage-dispreferred direction flipped so the strong search runs."""
    rng = random.Random(f"golden-strong-{n}")
    lines = []
    for t in range(6):
        o = rng.randint(2, 4)
        m = random_model(rng, n, n, n_outcomes=o, k_max=3, shared_order=t % 2 == 0)
        for _ in range(150 if n < 7 else 60):
            a = Event(m.space, rng.randrange(1, 1 << n))
            x, y, h = (Act(m.space, m.outcome_space, tuple(rng.randrange(o) for _ in range(n)))
                       for _ in range(3))
            if savage_conditional(m, a, x, y).ordering is Ordering.STRICTLY_DISPREFER:
                x, y = y, x
            lines.append(repr(strong_conditional_strict(m, a, x, y, h=h)))
    return "\n".join(lines).encode()


def _census_cases() -> dict:
    """Whole observability_check reprs of 20 seeded models shaped like the
    census workload's (3 states with 3 outcomes and 4 states with 2, at
    2:1), and whole-suite check_all reports at budget 20,000 on three
    seeded 3-state and three seeded 4-state models."""
    raw = {}
    for i in range(20):
        n, o = ((3, 3), (3, 3), (4, 2))[i % 3]
        m = random_model(random.Random(f"golden-census-{i}"), n, n, n_outcomes=o)
        raw[f"observability/census/{i}-{n}x{o}"] = _observability(m)
    for n in (3, 4):
        for k in range(3):
            m = random_model(random.Random(f"golden-suite-{n}-{k}"), n, n)
            raw[f"suite/random{n}/{k}"] = repr(check_all(ModelBackedFamily(m), budget=20_000)).encode()
    return raw


def _p6(family) -> bytes:
    return repr(check_all(family, ids=("P6.5",))).encode()


def _cli(*argvs: tuple[str, ...]) -> bytes:
    """Exit code, stdout and stderr of each run, in order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for argv in argvs:
            code = main(list(argv))
            print(f"-- exit {code}")
    return out.getvalue().encode()


@contextlib.contextmanager
def _workdir():
    """A fresh temporary directory as the working directory, so that the
    CLI reads and writes files by names that hold no temporary path."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            yield Path(d)
        finally:
            os.chdir(home)


def _cli_cases() -> dict:
    """The CLI on M0, text and --json: lexeu condition --strong and lexeu
    axioms --suite all; every other command on seeded acts and events; and
    synthesize -o on M0's table and on a table with two adjacent tiers
    swapped, with the model file it writes."""
    m = build_m0()
    acts = list(enumerate_acts(m.space, m.outcome_space))
    rng = random.Random("golden-cli")
    pairs = [tuple(rng.sample(acts, 2)) for _ in range(4)]

    def label(mask: int) -> str:
        return ",".join(Event(m.space, mask).labels)

    events = [label(mask) for mask in range(1, 16)]
    table = derive_table(m)
    rng = random.Random("golden-cli-m0")
    nullity = []
    qualprob = [("s1", "s1,s2", "s2")]  # B is no subevent of A: exit 2
    for _ in range(20):
        a = rng.randrange(1, 16)
        nullity.append((label(a & rng.randrange(16)), label(a)))
        qualprob.append((label(a), label(a & rng.randrange(16)), label(a & rng.randrange(16))))

    def run(fmt: tuple[str, ...]) -> dict:
        out = {}
        with _workdir() as d:
            (d / "M0.json").write_text(lexeu_io.dump_json(lexeu_io.model_to_dict(m)))
            (d / "T0.json").write_text(lexeu_io.dump_json(lexeu_io.table_to_dict(table)))
            (d / "T0-swap.json").write_text(
                lexeu_io.dump_json(lexeu_io.table_to_dict(_swapped(table, 3, 0)))
            )
            files = []
            for k, act in enumerate(act for pair in pairs for act in pair):
                path = f"act{k}.json"
                (d / path).write_text(lexeu_io.dump_json(lexeu_io.act_to_dict(f"act{k}", act)))
                files.append(path)
            duels = [(files[2 * p], files[2 * p + 1]) for p in range(len(pairs))]
            out["condition-strong"] = _cli(*(
                ("condition", "M0.json", event, f, g, "--strong", *fmt)
                for f, g in duels for event in events
            ))
            out["axioms-all"] = _cli(("axioms", "M0.json", "--suite", "all", "--budget", "20000", *fmt))
            out["validate"] = _cli(("validate", "M0.json", *fmt))
            out["compare"] = _cli(*(("compare", "M0.json", f, g, *fmt) for f, g in duels))
            for mode in ("savage", "naive"):
                flag = () if mode == "savage" else ("--naive",)
                out[f"condition-{mode}"] = _cli(*(
                    ("condition", "M0.json", event, f, g, *flag, *fmt)
                    for f, g in duels[:2] for event in events
                ))
            out["classes-enumerate"] = _cli(("classes", "M0.json", "--enumerate", *fmt))
            out["nullity"] = _cli(*(("nullity", "M0.json", b, a, *fmt) for b, a in nullity))
            out["qualprob"] = _cli(*(("qualprob", "M0.json", *t, *fmt) for t in qualprob))
            out["lottery-one"] = _cli(*(("lottery", "M0.json", event, files[0], *fmt) for event in events))
            out["lottery-two"] = _cli(*(
                ("lottery", "M0.json", event, files[0], files[1], *fmt) for event in events
            ))
            out["derive-table"] = _cli(("derive-table", "M0.json", *fmt)) + _cli(
                ("derive-table", "M0.json", "-o", "T1.json", *fmt)
            ) + (d / "T1.json").read_bytes()
            out["observability"] = _cli(("observability", "M0.json", *fmt))
            for name, path in (("M0", "T0.json"), ("swap", "T0-swap.json")):
                written = d / "S.json"
                written.unlink(missing_ok=True)
                got = _cli(("synthesize", path, "-o", "S.json", *fmt))
                out[f"synthesize/{name}"] = got + (written.read_bytes() if written.exists() else b"")
        return out

    cases = {}
    for fmt_name, fmt in (("text", ()), ("json", ("--json",))):
        for command, data in run(fmt).items():
            if command in ("condition-strong", "axioms-all"):
                cases[f"cli/{command}/M0/{fmt_name}"] = data
            else:
                cases[f"cli/M0/{command}/{fmt_name}"] = data
    return cases


def _synthesized(table: TableBackedFamily) -> bytes:
    """synthesize's model bytes and diagnostics; or its error's type,
    message, needed and cap, and the gate's reports or the round trip's
    witness where the error carries them."""
    try:
        result = synthesize(table)
    except LexeuError as exc:
        fields = [type(exc).__name__, str(exc)]
        fields += [getattr(exc, key, None) for key in ("needed", "cap", "reports", "witness")]
        return repr(fields).encode()
    model = lexeu_io.dump_json(lexeu_io.model_to_dict(result.model))
    return (model + repr(result.diagnostics)).encode()


def _without(table: TableBackedFamily, name: str) -> TableBackedFamily:
    """The table with one act taken out of it and of every ranking."""

    def cut(tiers):
        return tuple(t for t in (tuple(n for n in tier if n != name) for tier in tiers) if t)

    acts = {n: a for n, a in table.acts.items() if n != name}
    tiers = {m: cut(t) for m, t in table.tiers.items()}
    return TableBackedFamily(table.space, table.outcome_space, acts, tiers, cut(table.unconditional))


def _synthesis_cases() -> dict:
    """synthesize on M0's table and on seeded full, swapped and partial
    tables of 2-4 states and 2-4 outcomes, on two partial tables without a
    constant act, on a 4-outcome table past the joint search's limit and
    on four seeded full 3x3 and 4x3 tables; infer_hierarchy on the full
    tables of 2-4 states; and the whole suite on each planted-defect
    table."""
    m0 = build_m0()
    full = {"M0": derive_table(m0)}
    raw = {"synthesis/M0/full": _synthesized(full["M0"])}
    for n, o in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2)):
        rng = random.Random(f"golden-synth-{n}-{o}")
        model = random_model(rng, n, n, n_outcomes=o)
        table = full[f"{n}x{o}"] = derive_table(model)
        mask = rng.choice(sorted(k for k, t in table.tiers.items() if len(t) >= 2))
        swapped = _swapped(table, mask, rng.randrange(len(table.tiers[mask]) - 1))
        raw[f"synthesis/{n}x{o}/full"] = _synthesized(table)
        raw[f"synthesis/{n}x{o}/swap"] = _synthesized(swapped)
        raw[f"synthesis/{n}x{o}/partial"] = _synthesized(_partial(model, rng.randrange(1000), 0.5))
    # one such table passes the gate, the other (with a swap) does not
    model = random_model(random.Random("golden-synth-no-constant"), 3, 3)
    for name, swap in (("partial-no-constant", False), ("partial-swap-no-constant", True)):
        partial = _partial(model, 3, 0.5, swap=swap)
        constant = constant_act(partial.outcome_space.outcomes[0], partial.space, partial.outcome_space)
        raw[f"synthesis/3x3/{name}"] = _synthesized(_without(partial, partial.name_of(constant)))
    cap = random_model(random.Random("golden-cap-7"), 2, 2, n_outcomes=4)
    raw["synthesis/2x4/joint-limit"] = _synthesized(derive_table(cap))
    # full tables of the benchmark's synth shapes, which make the most
    # solver calls: vertex retries at 3x3/0, 3x3/5 and 4x3/3, and the joint
    # parametric scan at 4x3/9
    for n, k in ((3, 0), (3, 5), (4, 3), (4, 9)):
        model = random_model(random.Random(f"golden-synth-{n}-3-{k}"), n, n, n_outcomes=3)
        raw[f"synthesis/{n}x3/full-{k}"] = _synthesized(derive_table(model))
    for name, table in full.items():
        raw[f"hierarchy/{name}"] = repr(infer_hierarchy(table)).encode()
    for axiom_id, build in DEFECTS.items():
        raw[f"suite/defect-{axiom_id}"] = repr(check_all(build(), budget=20_000)).encode()
    return raw


def compute() -> dict[str, str]:
    """Case name → SHA-256 hex digest of the case's bytes."""
    m0 = build_m0()
    raw = {
        "observability/M0": _observability(m0),
    }
    # a seeded third of the 243 acts, in enumeration order, keeps the case
    # to a fraction of a second
    cop = coprime_affine_model()
    acts = list(enumerate_acts(cop.space, cop.outcome_space))
    keep = sorted(random.Random("golden-coprime").sample(range(len(acts)), 81))
    raw["observability/coprime_affine"] = _observability(cop, [acts[i] for i in keep])
    for k, m in enumerate(_mixed_order_models()):
        raw[f"observability/mixed_order/{k}"] = _observability(m)
    for n in range(2, 9):
        raw[f"strong/states-{n}"] = _strong_batch(n)
    raw["p6/M0/model"] = _p6(ModelBackedFamily(m0))
    raw["p6/M0/table"] = _p6(derive_table(m0))
    raw["p6/M0/partial"] = _p6(_partial(m0, 1, 0.2))
    raw["p6/random3/partial"] = _p6(_partial(random_model(random.Random(23), 3, 3), 2, 0.3))
    raw.update(_census_cases())
    raw.update(_cli_cases())
    raw.update(_synthesis_cases())
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(raw.items())}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=2) + "\n")
    print(f"wrote {DIGESTS}")
