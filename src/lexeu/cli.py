"""Command-line surface: one subcommand per library entry point.

Every command accepts --json for machine-readable output; the human format
prints exact rationals with decimal approximations in parentheses (never in
JSON).  Exit codes: 0 success or property holds, 1 property violated or a
strict check came back negative, 2 input error, 3 enumeration cap exceeded.
The axiom and synthesis layers are imported inside the two commands that
run them, so no other command loads them.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import io
from .caps import DEFAULT_BUDGET
from .conditioning import observability_check, savage_conditional, strong_conditional_strict
from .errors import (
    AxiomPrecheckFailed,
    CapExceeded,
    LexeuError,
    Unrepresentable,
    ValidationError,
    VerificationFailed,
)
from .events import Event
from .family import ModelBackedFamily, derive_table
from .lottery import induced_lottery, lottery_compare
from .preference import (
    DEGENERATE,
    Ordering,
    class_partition,
    indexed_prefer,
    is_null_at,
    lex_prefer,
    qual_prob_compare,
)

SYMBOL = {
    Ordering.STRICTLY_PREFER: "≻",     # ≻
    Ordering.INDIFFERENT: "~",
    Ordering.STRICTLY_DISPREFER: "≺",  # ≺
}


def _rat(q: Fraction) -> str:
    """Exact value with a decimal courtesy, for human output only."""
    if q.denominator == 1:
        return str(q)
    return f"{q} ({float(q):.6g})"


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below, like any count under 1
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _set(event: Event) -> str:
    return "{" + ", ".join(event.labels) + "}"


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


def _pair_head(fname: str, gname: str, event: Event) -> dict:
    """The keys every act-pair-at-an-event payload starts with."""
    return {"left": fname, "right": gname, "event": list(event.labels)}


def _output(args, text: str) -> bool:
    """Write text to the -o file, or to stdout when none is given; True
    when it went to the file."""
    if not args.output:
        sys.stdout.write(text)
        return False
    with open(args.output, "w") as handle:
        handle.write(text)
    return True


def _verdict_line(left: str, right: str, ordering: Ordering, level=None, suffix: str = "") -> str:
    """One ordering line, naming the deciding level of a lexicographic verdict."""
    line = f"{left} {SYMBOL[ordering]} {right}{suffix}"
    return line if level is None else f"{line} (deciding level {level})"


# -- commands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        model = io.parse_model(args.model)
    except ValidationError as exc:
        if args.json:
            print(json.dumps({"valid": False, "violations": list(exc.violations)}, indent=2))
        else:
            print("invalid model:")
            for v in exc.violations:
                print(f"  - {v}")
        return 1
    payload = {
        "valid": True,
        "states": len(model.space.states),
        "outcomes": len(model.outcome_space.outcomes),
        "levels": len(model.levels),
    }
    _emit(args, payload, [
        f"valid model: {payload['states']} states, {payload['outcomes']} outcomes, "
        f"{payload['levels']} levels"
    ])
    return 0


def cmd_compare(args) -> int:
    model = io.parse_model(args.model)
    fname, f = io.parse_act(args.f, model.space, model.outcome_space)
    gname, g = io.parse_act(args.g, model.space, model.outcome_space)
    verdict = lex_prefer(model, f, g)
    payload = {
        "left": fname,
        "right": gname,
        "ordering": verdict.ordering.value,
        "deciding_level": verdict.deciding_level,
    }
    _emit(args, payload, [_verdict_line(fname, gname, verdict.ordering, verdict.deciding_level)])
    if args.strict_only and verdict.ordering is not Ordering.STRICTLY_PREFER:
        return 1
    return 0


def cmd_condition(args) -> int:
    model = io.parse_model(args.model)
    event = io.event_from_key(model.space, args.event, where="event argument")
    fname, f = io.parse_act(args.f, model.space, model.outcome_space)
    gname, g = io.parse_act(args.g, model.space, model.outcome_space)
    given = f" given {_set(event)}"
    head = _pair_head(fname, gname, event)
    if args.strong:
        verdict = strong_conditional_strict(model, event, f, g)
        payload = {
            **head,
            "savage_strict": verdict.savage_strict,
            "strong_strict": verdict.strong_strict,
            "failing_constant": verdict.failing_constant,
            "coarse_constants": list(verdict.coarse_constants),
            "witness_partitions": None
            if verdict.witness_partitions is None
            else {
                outcome: [list(cell.labels) for cell in partition]
                for outcome, partition in verdict.witness_partitions.items()
            },
        }
        human = [
            f"savage strict{given}: {'yes' if verdict.savage_strict else 'no'}",
            f"strong strict{given}: {'yes' if verdict.strong_strict else 'no'}",
        ]
        if verdict.failing_constant is not None:
            human.append(f"failing constant: {verdict.failing_constant}")
        _emit(args, payload, human)
        return 0 if verdict.strong_strict else 1
    if args.naive:
        ordering = indexed_prefer(model, event, f, g)
        if ordering is DEGENERATE:  # the empty event: its labels are []
            _emit(args, {**head, "ordering": "degenerate"}, ["degenerate (empty event)"])
            return 0
        _emit(args, {**head, "ordering": ordering.value},
              [_verdict_line(fname, gname, ordering, suffix=given)])
        return 0
    verdict = savage_conditional(model, event, f, g)
    payload = {
        **head,
        "ordering": verdict.ordering.value,
        "deciding_level": verdict.deciding_level,
    }
    _emit(args, payload, [_verdict_line(fname, gname, verdict.ordering, verdict.deciding_level, given)])
    return 0


def cmd_classes(args) -> int:
    model = io.parse_model(args.model)
    partition = class_partition(model)
    classes = []
    human = [f"{partition.depth} classes (most likely first)"]
    rows = zip(partition.classes, partition.supports, partition.top_events)
    for k, (group, support, top) in enumerate(rows, start=1):
        entry = {
            "support": list(support.labels),
            "top_event": list(top.labels),
            "size": len(group),
        }
        human.append(
            f"class {k}: support {_set(support)}, top event {_set(top)}, {entry['size']} events"
        )
        if args.enumerate:
            entry["events"] = [list(e.labels) for e in group]
            human.extend(f"    {_set(e)}" for e in group)
        classes.append(entry)
    _emit(args, {"depth": partition.depth, "classes": classes}, human)
    return 0


def cmd_nullity(args) -> int:
    model = io.parse_model(args.model)
    b = io.event_from_key(model.space, args.b, where="event B")
    a = io.event_from_key(model.space, args.a, where="event A")
    null = is_null_at(model, b, a)
    _emit(args, {"b": list(b.labels), "a": list(a.labels), "null": null},
          ["true" if null else "false"])
    return 0


def cmd_qualprob(args) -> int:
    model = io.parse_model(args.model)
    at = io.event_from_key(model.space, args.at, where="event A")
    b = io.event_from_key(model.space, args.b, where="event B")
    c = io.event_from_key(model.space, args.c, where="event C")
    ordering = qual_prob_compare(model, at, b, c)
    word = {
        Ordering.STRICTLY_PREFER: "more probable than",
        Ordering.INDIFFERENT: "as probable as",
        Ordering.STRICTLY_DISPREFER: "less probable than",
    }[ordering]
    payload = {
        "at": list(at.labels),
        "b": list(b.labels),
        "c": list(c.labels),
        "ordering": ordering.value,
    }
    _emit(args, payload, [f"{_set(b)} is {word} {_set(c)} given {_set(at)}"])
    return 0


def cmd_lottery(args) -> int:
    model = io.parse_model(args.model)
    event = io.event_from_key(model.space, args.event, where="event argument")
    fname, f = io.parse_act(args.f, model.space, model.outcome_space)
    first = induced_lottery(model, event, f)
    if args.g is None:
        payload = {"act": fname, "event": list(event.labels), "lottery": io.lottery_to_dict(first)}
        human = [f"lottery induced by {fname} on {_set(event)}:"]
        human.extend(
            f"  {model.outcome_space.outcomes[i]}: {_rat(w)}" for i, w in first.weights
        )
        _emit(args, payload, human)
        return 0
    gname, g = io.parse_act(args.g, model.space, model.outcome_space)
    second = induced_lottery(model, event, g)
    ordering = lottery_compare(model, event, first, second)
    payload = {
        **_pair_head(fname, gname, event),
        "left_lottery": io.lottery_to_dict(first),
        "right_lottery": io.lottery_to_dict(second),
        "ordering": ordering.value,
    }
    suffix = f" given {_set(event)} (by induced lotteries)"
    _emit(args, payload, [_verdict_line(fname, gname, ordering, suffix=suffix)])
    return 0


def cmd_axioms(args) -> int:
    from .axioms import AXIOM_IDS, CORE_IDS, AxiomStatus, check_all

    model = io.parse_model(args.model)
    family = ModelBackedFamily(model)
    ids = CORE_IDS if args.suite == "core" else AXIOM_IDS
    suite = check_all(family, budget=args.budget, ids=ids)
    reports = []
    human = []
    failed = False
    for report in suite.reports:
        entry = {
            "axiom": report.axiom_id,
            "status": report.status.value,
            "statistics": dict(report.statistics),
            "witnesses": len(report.witnesses),
        }
        reports.append(entry)
        stats = ", ".join(f"{k}={v}" for k, v in report.statistics.items())
        human.append(f"{report.axiom_id}: {report.status.value} ({stats})")
        if report.status is AxiomStatus.VIOLATED:
            failed = True
    _emit(args, {"suite": args.suite, "reports": reports}, human)
    return 1 if failed else 0


def cmd_derive_table(args) -> int:
    table = derive_table(io.parse_model(args.model))
    if _output(args, io.dump_json(io.table_to_dict(table))):
        acts, events = len(table.acts), len(table.tiers)
        _emit(args, {"path": args.output, "acts": acts, "events": events},
              [f"wrote {args.output} ({acts} acts, {events} events)"])
    return 0


def cmd_synthesize(args) -> int:
    from .synthesis import synthesize

    result = synthesize(io.parse_table(args.table))
    if _output(args, io.dump_json(io.model_to_dict(result.model))):
        stages = result.diagnostics["stages"]
        payload = {
            "verified": result.verified,
            "classes": result.diagnostics["classes"],
            "stages": {str(k): v for k, v in stages.items()},
            "prechecks": result.diagnostics["prechecks"],
            "path": args.output,
        }
        human = [f"verified model with {payload['classes']} classes, wrote {args.output}"]
        human.extend(f"  class {k}: {v['strategy']}" for k, v in stages.items())
        _emit(args, payload, human)
    return 0


def cmd_observability(args) -> int:
    model = io.parse_model(args.model)
    report = observability_check(model)
    payload = {
        "total_instances": report.total_instances,
        "equivalent": report.equivalent_count,
        "fineness_failures": report.fineness_failure_count,
        "anomalies": report.anomaly_count,
        "condition_instances": report.condition_instances,
        "condition_equivalent": report.condition_equivalent,
    }
    human = [
        f"{report.total_instances} instances: {report.equivalent_count} equivalent, "
        f"{report.fineness_failure_count} fineness failures, {report.anomaly_count} anomalies",
        f"fineness condition held on {report.condition_equivalent}/{report.condition_instances} instances",
    ]
    if report.anomalies:
        payload["anomaly_entries"] = [
            {
                "event": list(entry.event.labels),
                "f": entry.f.as_mapping(),
                "g": entry.g.as_mapping(),
            }
            for entry in report.anomalies
        ]
        human.extend(
            f"  anomaly at {_set(entry.event)}: {entry.f!r} vs {entry.g!r}"
            for entry in report.anomalies
        )
    _emit(args, payload, human)
    return 0 if report.anomaly_count == 0 else 1


# -- wiring -------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first main call and reused:
    parse_args starts every call from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lexeu",
        description="Lexicographic expected-utility models: compare, check, derive, synthesize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "parse and validate a model file")
    p.add_argument("model")

    p = add("compare", cmd_compare, "compare two acts unconditionally")
    p.add_argument("model")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--strict-only", action="store_true",
                   help="exit 1 unless the first act is strictly preferred")

    p = add("condition", cmd_condition, "compare two acts given an event")
    p.add_argument("model")
    p.add_argument("event", help="comma-joined state labels, e.g. s1,s3")
    p.add_argument("f")
    p.add_argument("g")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strong", action="store_true",
                      help="perturbation-robust strict conditional; exit 1 if not strict")
    mode.add_argument("--naive", action="store_true",
                      help="single-level indexed comparison")

    p = add("classes", cmd_classes, "print the event-class hierarchy")
    p.add_argument("model")
    p.add_argument("--enumerate", action="store_true", help="list every event per class")

    p = add("nullity", cmd_nullity, "is event B null at event A?")
    p.add_argument("model")
    p.add_argument("b")
    p.add_argument("a")

    p = add("qualprob", cmd_qualprob, "compare two events by qualitative probability at A")
    p.add_argument("model")
    p.add_argument("at")
    p.add_argument("b")
    p.add_argument("c")

    p = add("lottery", cmd_lottery, "induced lottery of an act (or compare two)")
    p.add_argument("model")
    p.add_argument("event")
    p.add_argument("f")
    p.add_argument("g", nargs="?", default=None)

    p = add("axioms", cmd_axioms, "run the axiom suite on a model")
    p.add_argument("model")
    p.add_argument("--suite", choices=("core", "all"), default="core")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="per-axiom instance budget (default: %(default)s)")

    p = add("derive-table", cmd_derive_table, "emit the full preference table of a model")
    p.add_argument("model")
    p.add_argument("-o", "--output", default=None)

    p = add("synthesize", cmd_synthesize, "reconstruct a model from a preference table")
    p.add_argument("table")
    p.add_argument("-o", "--output", default=None)

    p = add("observability", cmd_observability, "strong-vs-indexed conditioning census")
    p.add_argument("model")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except AxiomPrecheckFailed as exc:
        print(f"precheck failed: {exc}", file=sys.stderr)
        for report in exc.reports:
            print(f"  - {report.axiom_id}: {report.status.value}", file=sys.stderr)
        return 1
    except Unrepresentable as exc:
        print(f"unrepresentable: {exc}", file=sys.stderr)
        return 1
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (LexeuError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
