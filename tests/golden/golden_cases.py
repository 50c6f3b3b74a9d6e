"""Golden digests: outputs that a refactor must leave byte for byte.

Each case renders one output as bytes, a repr or the CLI's stdout, and
digests.json maps the case name to the SHA-256 of those bytes.  After an
intended change of output, regenerate the file from the repository root with

    PYTHONPATH=src python tests/golden/golden_cases.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))  # conftest and the test modules' helpers

from conftest import build_m0, coprime_affine_model, random_model  # noqa: E402
from test_axioms import _partial  # noqa: E402
from test_conditioning import _mixed_order_models  # noqa: E402

from lexeu import io as lexeu_io  # noqa: E402
from lexeu.acts import Act, enumerate_acts  # noqa: E402
from lexeu.axioms import check_all  # noqa: E402
from lexeu.cli import main  # noqa: E402
from lexeu.conditioning import (  # noqa: E402
    observability_check,
    savage_conditional,
    strong_conditional_strict,
)
from lexeu.events import Event  # noqa: E402
from lexeu.family import ModelBackedFamily, derive_table  # noqa: E402
from lexeu.preference import Ordering  # noqa: E402


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


def _p6(family) -> bytes:
    return repr(check_all(family, ids=("P6.5",))).encode()


def _cli(*argvs: tuple[str, ...]) -> bytes:
    """Exit code and stdout of each run, in order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in argvs:
            code = main(list(argv))
            print(f"-- exit {code}")
    return out.getvalue().encode()


def _cli_cases() -> dict:
    """lexeu condition --strong and lexeu axioms --suite all on M0, text and
    --json, from files in a temporary directory named in no output."""
    m = build_m0()
    acts = list(enumerate_acts(m.space, m.outcome_space))
    rng = random.Random("golden-cli")
    pairs = [tuple(rng.sample(acts, 2)) for _ in range(4)]
    events = [",".join(Event(m.space, mask).labels) for mask in range(1, 16)]

    def run(fmt: tuple[str, ...]) -> dict:
        with tempfile.TemporaryDirectory() as d:
            model = str(Path(d) / "M0.json")
            Path(model).write_text(lexeu_io.dump_json(lexeu_io.model_to_dict(m)))
            files = []
            for k, act in enumerate(act for pair in pairs for act in pair):
                path = Path(d) / f"act{k}.json"
                path.write_text(lexeu_io.dump_json(lexeu_io.act_to_dict(f"act{k}", act)))
                files.append(str(path))
            condition = _cli(*(
                ("condition", model, event, files[2 * p], files[2 * p + 1], "--strong", *fmt)
                for p in range(len(pairs)) for event in events
            ))
            axioms = _cli(("axioms", model, "--suite", "all", "--budget", "20000", *fmt))
        return condition, axioms

    cases = {}
    for name, fmt in (("text", ()), ("json", ("--json",))):
        cases[f"cli/condition-strong/M0/{name}"], cases[f"cli/axioms-all/M0/{name}"] = run(fmt)
    return cases


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
    raw.update(_cli_cases())
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(raw.items())}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=2) + "\n")
    print(f"wrote {DIGESTS}")
