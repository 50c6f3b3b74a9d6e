"""Exit codes and output formats of every subcommand."""
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import build_m0, random_model
from test_synthesis import _swapped
from lexeu import cli, io, synthesis
from lexeu.acts import Act
from lexeu.cli import main
from lexeu.family import derive_table


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    m = build_m0()
    paths = {"model": d / "M0.json", "f": d / "f.json", "g": d / "g.json", "table": d / "T0.json"}
    paths["model"].write_text(io.dump_json(io.model_to_dict(m)))
    f = Act.from_mapping(m.space, m.outcome_space, {"s1": "c", "s2": "a", "s3": "b", "s4": "a"})
    g = Act.from_mapping(m.space, m.outcome_space, {"s1": "c", "s2": "a", "s3": "a", "s4": "c"})
    paths["f"].write_text(io.dump_json(io.act_to_dict("f", f)))
    paths["g"].write_text(io.dump_json(io.act_to_dict("g", g)))
    paths["table"].write_text(io.dump_json(io.table_to_dict(derive_table(m))))
    paths["dir"] = d
    return {k: str(v) for k, v in paths.items()}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(files, capsys):
    code, out, _ = run(capsys, "validate", files["model"])
    assert code == 0
    assert out.strip() == "valid model: 4 states, 3 outcomes, 3 levels"


def test_validate_invalid_model_exit_1(files, capsys, tmp_path):
    raw = json.loads(open(files["model"]).read())
    raw["levels"][0]["prob"]["s1"] = "2/3"
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "sum to 1" in out


def test_validate_invalid_model_json(files, capsys, tmp_path):
    raw = json.loads(open(files["model"]).read())
    raw["levels"][0]["prob"]["s1"] = "1/3"
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "validate", str(bad), "--json")
    assert code == 1
    assert json.loads(out) == {
        "valid": False, "violations": ["level 1: probabilities do not sum to 1"]
    }


def test_invalid_model_exit_2_outside_validate(files, capsys, tmp_path):
    # validate reports an invalid model itself; every other command leaves
    # it to main, which lists the violations on stderr
    raw = json.loads(open(files["model"]).read())
    raw["levels"][0]["prob"]["s1"] = "1/3"  # the level sums to 5/6
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "compare", str(bad), files["f"], files["g"])
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {bad}: model is structurally invalid\n"
        "  - level 1: probabilities do not sum to 1\n"
    )


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/m.json")
    assert code == 2
    assert "error:" in err


def test_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 1" in err


def _model_with_prob(files, tmp_path, value):
    raw = json.loads(open(files["model"]).read())
    raw["levels"][1]["prob"]["s3"] = value
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize(
    "value", ["1.5", "1_000", "\u0661", "0x1", pytest.param("9" * 1001, id="long")]
)
def test_non_canonical_rational_exit_2(files, capsys, tmp_path, value):
    code, _, err = run(capsys, "validate", str(_model_with_prob(files, tmp_path, value)))
    assert code == 2
    assert "prob['s3']" in err


@pytest.mark.parametrize(
    "kind, key, labels",
    [
        pytest.param("model", "states", [], id="model-no-states"),
        pytest.param("model", "outcomes", ["a"], id="model-one-outcome"),
        pytest.param("model", "states", ["s1", "s1", "s3", "s4"], id="model-duplicate-states"),
        pytest.param("table", "outcomes", ["a"], id="table-one-outcome"),
        pytest.param("table", "states", ["s1", "s1", "s3", "s4"], id="table-duplicate-states"),
    ],
)
def test_malformed_labels_exit_2(files, capsys, tmp_path, kind, key, labels):
    raw = json.loads(open(files[kind]).read())
    raw[key] = labels
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "validate" if kind == "model" else "synthesize", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "key, at", [("s1,s2,s3,s4", 1), ("s4", None)], ids=["second-tier", "trailing-tier"]
)
def test_empty_tier_exit_2(files, capsys, tmp_path, key, at):
    raw = json.loads(open(files["table"]).read())
    ranking = raw["prefs"][key]
    ranking.insert(len(ranking) if at is None else at, [])
    path = tmp_path / "empty_tier.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "synthesize", str(path))
    assert code == 2
    assert "is empty" in err


def test_event_under_two_keys_exit_2(files, capsys, tmp_path):
    raw = json.loads(open(files["table"]).read())
    raw["prefs"]["s2,s1"] = raw["prefs"]["s1,s2"]
    path = tmp_path / "two_keys.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "synthesize", str(path))
    assert code == 2
    assert "'s1,s2' and 's2,s1' name the same event" in err


def test_two_names_for_one_act_exit_2(files, capsys, tmp_path):
    raw = json.loads(open(files["table"]).read())
    f41 = next(a for a in raw["acts"] if a["name"] == "f41")
    # ranked strictly best everywhere, which only the earlier name could show
    raw["acts"].insert(0, {"name": "dup", "map": f41["map"]})
    for key in raw["prefs"]:
        if raw["prefs"][key] != "degenerate":
            raw["prefs"][key].insert(0, ["dup"])
    raw["unconditional"].insert(0, ["dup"])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "synthesize", str(path))
    assert code == 2
    assert out == ""
    assert "acts 'dup' and 'f41' have the same assignment" in err


def test_exponent_rational_exit_2_without_hanging(files, tmp_path):
    # Fraction("1e999999999") would build a billion-digit integer; run it in
    # a child so that a regression fails on the timeout instead of hanging
    path = _model_with_prob(files, tmp_path, "1e999999999")
    result = subprocess.run(
        [sys.executable, "-m", "lexeu.cli", "validate", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "not a rational" in result.stderr


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _synthesize_wide_table(tmp_path, listed):
    """lexeu synthesize, in a child with a timeout and a memory cap, on a
    40-state table that ranks only the listed events: listing the 2^40 - 1
    minus those missing ones would not finish."""
    states = [f"s{i}" for i in range(1, 41)]
    table = {
        "states": states,
        "outcomes": ["a", "b"],
        "acts": [
            {"name": "lo", "map": dict.fromkeys(states, "a")},
            {"name": "hi", "map": dict.fromkeys(states, "b")},
        ],
        "prefs": dict.fromkeys(listed, [["hi"], ["lo"]]),
        "unconditional": [["hi"], ["lo"]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(table))
    return subprocess.run(
        [sys.executable, "-m", "lexeu.cli", "synthesize", str(path)],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_limit_memory,
    )


def test_wide_table_with_missing_rankings_exit_2_without_hanging(tmp_path):
    result = _synthesize_wide_table(tmp_path, ["s1"])
    assert result.returncode == 2
    assert f"{2**40 - 2} events have no ranking (first: {{s2}})" in result.stderr


def test_first_missing_event_written_as_the_cli_writes_events(tmp_path):
    result = _synthesize_wide_table(tmp_path, ["s1", "s2"])
    assert result.returncode == 2
    assert f"{2**40 - 3} events have no ranking (first: {{s1, s2}})" in result.stderr


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b'{"states": [1' + b"0" * 5000 + b"]}", id="5000-digit-integer"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
        pytest.param(b'{"states": ["\xff"]}', id="invalid-utf8"),
    ],
)
def test_unreadable_json_exit_2(capsys, tmp_path, content):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error:" in err


def test_compare_human(files, capsys):
    code, out, _ = run(capsys, "compare", files["model"], files["f"], files["g"])
    assert code == 0
    assert out.strip() == "f ≻ g (deciding level 2)"


def test_compare_json(files, capsys):
    code, out, _ = run(capsys, "compare", files["model"], files["f"], files["g"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "left": "f",
        "right": "g",
        "ordering": "strictly_prefer",
        "deciding_level": 2,
    }


def test_compare_strict_only_exit_codes(files, capsys):
    assert run(capsys, "compare", files["model"], files["f"], files["g"], "--strict-only")[0] == 0
    code, out, _ = run(capsys, "compare", files["model"], files["g"], files["f"], "--strict-only")
    assert code == 1
    assert "g ≺ f" in out


def test_compare_self_is_indifferent(files, capsys):
    code, out, _ = run(capsys, "compare", files["model"], files["f"], files["f"])
    assert code == 0
    assert out.strip() == "f ~ f"


def test_condition_savage(files, capsys):
    code, out, _ = run(capsys, "condition", files["model"], "s3,s4", files["f"], files["g"])
    assert code == 0
    assert out.strip() == "f ≻ g given {s3, s4} (deciding level 2)"


def test_condition_naive_degenerate(files, capsys):
    code, out, _ = run(capsys, "condition", files["model"], "", files["f"], files["g"], "--naive")
    assert code == 0
    assert "degenerate" in out


def test_condition_strong_reports_failing_constant(files, capsys):
    code, out, _ = run(
        capsys, "condition", files["model"], "s3,s4", files["f"], files["g"], "--strong", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["savage_strict"] is True
    assert payload["strong_strict"] is False
    assert payload["failing_constant"] == "c"


def test_condition_strong_lists_witness_partitions(files, capsys, tmp_path):
    m = build_m0()
    f = Act.from_mapping(m.space, m.outcome_space, {"s1": "b", "s2": "c", "s3": "b", "s4": "b"})
    g = Act.from_mapping(m.space, m.outcome_space, dict.fromkeys(m.space.states, "a"))
    paths = []
    for name, act in (("f", f), ("g", g)):
        path = tmp_path / f"{name}.json"
        path.write_text(io.dump_json(io.act_to_dict(name, act)))
        paths.append(str(path))
    code, out, _ = run(capsys, "condition", files["model"], "s1,s2", *paths, "--strong", "--json")
    assert code == 0
    assert json.loads(out)["witness_partitions"] == {
        "c": [["s1"], ["s2"]], "b": [["s1"], ["s2"]], "a": [["s1"], ["s2"]]
    }


def test_classes(files, capsys):
    code, out, _ = run(capsys, "classes", files["model"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 3
    assert payload["classes"][0]["support"] == ["s1", "s2"]
    assert payload["classes"][1]["top_event"] == ["s3", "s4"]
    assert payload["classes"][2]["size"] == 1


def test_classes_enumerate_lists_events(files, capsys):
    code, out, _ = run(capsys, "classes", files["model"], "--enumerate", "--json")
    payload = json.loads(out)
    assert sum(len(c["events"]) for c in payload["classes"]) == 15
    assert payload["classes"][2]["events"] == [["s4"]]


def test_nullity(files, capsys):
    code, out, _ = run(capsys, "nullity", files["model"], "s4", "s3,s4")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "nullity", files["model"], "s2", "s1,s2")
    assert (code, out.strip()) == (0, "false")


def test_qualprob(files, capsys):
    code, out, _ = run(capsys, "qualprob", files["model"], "s1,s2,s3,s4", "s1,s2", "s3")
    assert code == 0
    assert "{s1, s2} is more probable than {s3}" in out


def test_lottery_single_act(files, capsys):
    code, out, _ = run(capsys, "lottery", files["model"], "s1,s2", files["f"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lottery"] == {"a": "1/2", "c": "1/2"}


def test_lottery_human_shows_decimals(files, capsys):
    code, out, _ = run(capsys, "lottery", files["model"], "s1,s2", files["f"])
    assert code == 0
    assert "a: 1/2 (0.5)" in out


def test_lottery_compare(files, capsys):
    code, out, _ = run(capsys, "lottery", files["model"], "s1,s2", files["f"], files["g"], "--json")
    assert code == 0
    assert json.loads(out)["ordering"] == "indifferent"


def test_axioms_core_suite(files, capsys):
    code, out, _ = run(capsys, "axioms", files["model"], "--suite", "core", "--budget", "2000", "--json")
    assert code == 0
    payload = json.loads(out)
    ids = [r["axiom"] for r in payload["reports"]]
    assert ids == ["P0.5", "P1.5", "P2.5", "P3.5", "P4.5", "P5.5", "SE"]
    assert all(r["status"] == "Holds" for r in payload["reports"])


def test_axioms_full_suite(files, capsys):
    code, out, _ = run(capsys, "axioms", files["model"], "--suite", "all", "--budget", "1000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 11
    assert all(r["status"] in ("Holds", "Informational") for r in payload["reports"])


def test_reused_parser_leaks_no_option_between_calls(files, capsys):
    # main builds its parser once per process; each call in a sequence
    # must print what it prints on a parser built just for it
    m, f, g = files["model"], files["f"], files["g"]
    sequences = [
        [("axioms", m, "--budget", "5"), ("axioms", m)],
        [("condition", m, "s3,s4", f, g, "--strong"), ("condition", m, "s3,s4", f, g, "--naive")],
    ]
    for argvs in sequences:
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert fresh[0] != fresh[1]
        parser = cli.build_parser()
        assert [run(capsys, *argv) for argv in argvs] == fresh
        assert cli.build_parser() is parser


@pytest.mark.parametrize("budget", ["0", "-1", "x", "1.5"])
def test_axioms_budget_below_one_exit_2(files, capsys, budget):
    with pytest.raises(SystemExit) as info:
        main(["axioms", files["model"], "--budget", budget])
    assert info.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_derive_table_stdout_parses(files, capsys):
    code, out, _ = run(capsys, "derive-table", files["model"])
    assert code == 0
    assert io.table_from_dict(json.loads(out)) == derive_table(build_m0())


def test_derive_table_cap_exit_3(files, capsys, monkeypatch):
    monkeypatch.setenv("LEXEU_CAP", "10")
    code, _, err = run(capsys, "derive-table", files["model"])
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "value, message",
    [("abc", "LEXEU_CAP is not an integer: 'abc'"), ("0", "LEXEU_CAP must be positive, got 0")],
    ids=["abc", "0"],
)
def test_malformed_cap_exit_2(files, value, message):
    # a cap that cannot be read is an input error: no cap was exceeded
    result = subprocess.run(
        [sys.executable, "-m", "lexeu.cli", "observability", files["model"]],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "LEXEU_CAP": value},
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: {message}"]


def test_synthesize_round_trips_verdicts(files, capsys, tmp_path):
    out_model = tmp_path / "M0r.json"
    code, out, _ = run(capsys, "synthesize", files["table"], "-o", str(out_model), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["classes"] == 3
    code, out, _ = run(capsys, "compare", str(out_model), files["f"], files["g"])
    assert code == 0
    assert out.strip() == "f ≻ g (deciding level 2)"


def test_synthesize_stdout_is_a_behavioral_twin(files, capsys):
    # utilities come back normalized to [0, 1], so compare derived tables,
    # not the level data
    code, out, _ = run(capsys, "synthesize", files["table"])
    assert code == 0
    model = io.model_from_dict(json.loads(out))
    assert derive_table(model) == derive_table(build_m0())


@pytest.mark.parametrize("seed, n_min, n_max, outcomes, swap, message", [
    # test_synthesis.FIT_PATHS' seed-7 table: the joint search's relaxation
    (7, 2, 3, 3, (7, 2), "unrepresentable: no measure/utility pair fits the table"),
    # test_synthesis.test_mismatch_message_lists_labels_in_state_order's table
    (16, 3, 4, 2, (11, 0),
     "verification failed: synthesized model ranks an act pair differently at {s1, s2, s4}"),
])
def test_synthesize_fit_failures_exit_1(capsys, tmp_path, monkeypatch,
                                        seed, n_min, n_max, outcomes, swap, message):
    # the gate rejects both swapped tables first; without it the fit or the
    # round trip fails
    monkeypatch.setattr(synthesis, "_gate", lambda *a: {})
    model = random_model(random.Random(seed), n_min=n_min, n_max=n_max, n_outcomes=outcomes)
    path = tmp_path / "table.json"
    path.write_text(io.dump_json(io.table_to_dict(_swapped(derive_table(model), *swap))))
    code, out, err = run(capsys, "synthesize", str(path))
    assert code == 1
    assert out == ""
    assert err == message + "\n"


def test_observability(files, capsys):
    code, out, _ = run(capsys, "observability", files["model"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["anomalies"] == 0
    assert payload["total_instances"] == payload["equivalent"] + payload["fineness_failures"]


@pytest.mark.skipif(
    shutil.which("lexeu") is None,
    reason="no `lexeu` console script on PATH; install the package with "
    "`pip install -e . --no-build-isolation` (needs setuptools and wheel)",
)
def test_console_entry_point(files):
    result = subprocess.run(
        ["lexeu", "compare", files["model"], files["f"], files["g"]],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "f ≻ g (deciding level 2)"


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lexeu": "lexeu.cli:main"}


def test_module_invocation(files):
    core = ("P0.5", "P1.5", "P2.5", "P3.5", "P4.5", "P5.5", "SE")
    cases = [
        (["nullity", files["model"], "s4", "s3,s4"], ["true"]),
        # the axiom layer is imported inside its command, a relative import
        # that has to work in __main__ too
        (["axioms", files["model"], "--suite", "core", "--budget", "2000"],
         [f"{axiom}: Holds" for axiom in core]),
    ]
    for argv, expected in cases:
        result = subprocess.run(
            [sys.executable, "-m", "lexeu.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert [line.split(" (")[0] for line in result.stdout.splitlines()] == expected


def test_axioms_budget_default(capsys):
    from lexeu.axioms import DEFAULT_BUDGET

    assert DEFAULT_BUDGET == 300_000
    with pytest.raises(SystemExit) as info:
        main(["axioms", "--help"])
    assert info.value.code == 0
    assert "(default: 300000)" in " ".join(capsys.readouterr().out.split())
