"""What the installed library carries: the package and its CLI import on
their own, without the test suite's oracles, and no reference that only
tests read is left in src.  Each child interpreter below starts with only
src on its path, so it sees what a fresh process of the CLI loads."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import build_m0
from lexeu import io as lexeu_io
from lexeu.family import derive_table

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Run in a child whose path holds src and nothing from tests/.  It prints
# the names still present on their old modules, whether the benchmark's
# brute-force reference imports, and every loaded module file under tests/.
CHILD = """
import importlib, inspect, json, sys
from pathlib import Path

import lexeu, lexeu.cli

gone = {
    "lexeu.errors": ["ClassMismatch"],
    "lexeu.events": ["enumerate_partitions", "singleton_partition"],
    "lexeu.feasibility": ["FM_MAX_VARIABLES", "fourier_motzkin_feasible"],
    "lexeu.lottery": ["calibration_weight"],
    "lexeu.preference": [
        "RiskProfile", "RiskRelation", "agreement", "level_eu", "outcome_order", "risk_profile",
    ],
}
members = {
    "lexeu.events": {"StateSpace": ["singleton"]},
    "lexeu.feasibility": {"ConstraintSystem": ["as_dict"], "FeasibilityResult": ["status"]},
}
options = {
    ("lexeu.acts", "enumerate_acts"): "cap",
    ("lexeu.caps", "check_act_count"): "cap",
    ("lexeu.feasibility", "_standard_form"): "eps_cap",
}
left = [f"{mod}.{name}" for mod, names in gone.items() for name in names
        if hasattr(importlib.import_module(mod), name)]
for mod, classes in members.items():
    for cls, names in classes.items():
        owner = getattr(importlib.import_module(mod), cls)
        left += [f"{mod}.{cls}.{name}" for name in names if hasattr(owner, name)]
for (mod, fn), option in options.items():
    if option in inspect.signature(getattr(importlib.import_module(mod), fn)).parameters:
        left.append(f"{mod}.{fn}({option}=)")

from lexeu.preference import lex_prefer_bruteforce

tests = Path(sys.argv[1])
loaded = sorted(
    name for name, module in list(sys.modules.items())
    if getattr(module, "__file__", None) and tests in Path(module.__file__).resolve().parents
)
print(json.dumps({"left": left, "bruteforce": callable(lex_prefer_bruteforce), "loaded": loaded}))
"""


def child(script: str, *args: str, cwd: Path) -> dict:
    """Run script in a fresh interpreter with only src on its path; the
    JSON object it prints last."""
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_library_ships_without_test_oracles(tmp_path):
    got = child(CHILD, str(TESTS), cwd=tmp_path)
    assert got["left"] == []
    assert got["bruteforce"] is True
    assert got["loaded"] == []


# Which of the deferred layers are loaded after importing the CLI, after a
# census, and after a synthesis.
LOADS = """
import contextlib, io, json, sys

import lexeu.cli

deferred = ("lexeu.axioms", "lexeu.feasibility", "lexeu.synthesis")
seen = {"import": [m for m in deferred if m in sys.modules]}
for command, path in (("observability", sys.argv[1]), ("synthesize", sys.argv[2])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = lexeu.cli.main([command, path, "--json"])
    seen[command] = [code, [m for m in deferred if m in sys.modules]]
print(json.dumps(seen))
"""


def test_cli_loads_axioms_and_synthesis_only_where_they_run(tmp_path):
    m = build_m0()
    model, table = tmp_path / "M0.json", tmp_path / "T0.json"
    model.write_text(lexeu_io.dump_json(lexeu_io.model_to_dict(m)))
    table.write_text(lexeu_io.dump_json(lexeu_io.table_to_dict(derive_table(m))))
    got = child(LOADS, str(model), str(table), cwd=tmp_path)
    assert got == {
        "import": [],
        "observability": [0, []],
        "synthesize": [0, ["lexeu.axioms", "lexeu.feasibility", "lexeu.synthesis"]],
    }


# The package's public names, resolved on first access in a fresh process:
# what `import lexeu` loads, `dir`, an unknown name, submodule imports, each
# name against its submodule, and the star import.
EXPORTS = """
import importlib, json, sys

import lexeu

loaded = sorted(m for m in sys.modules if m.startswith("lexeu."))
not_in_dir = sorted(set(lexeu.__all__) - set(dir(lexeu)))
unknown = not hasattr(lexeu, "no_such_name")
from lexeu import io, synthesis
submodules = [io.__name__, synthesis.__name__]
mismatched = [
    name for name in lexeu.__all__
    if getattr(lexeu, name) is not getattr(importlib.import_module(f"lexeu.{lexeu._SOURCE[name]}"), name)
]
star = {}
exec("from lexeu import *", star)
star.pop("__builtins__")
print(json.dumps({
    "loaded": loaded, "not_in_dir": not_in_dir, "unknown": unknown, "submodules": submodules,
    "mismatched": mismatched, "star": sorted(star) == lexeu.__all__, "count": len(lexeu.__all__),
}))
"""


def test_public_names_resolve_lazily(tmp_path):
    got = child(EXPORTS, cwd=tmp_path)
    assert got == {
        "loaded": [],
        "not_in_dir": [],
        "unknown": True,
        "submodules": ["lexeu.io", "lexeu.synthesis"],
        "mismatched": [],
        "star": True,
        "count": 59,
    }
