"""What the installed library carries: the package and its CLI import on
their own, without the test suite's oracles, and no reference that only
tests read is left in src."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_library_ships_without_test_oracles(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(TESTS)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    assert got["left"] == []
    assert got["bruteforce"] is True
    assert got["loaded"] == []
