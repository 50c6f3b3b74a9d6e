#!/usr/bin/env python3
"""End-to-end benchmark of the lexeu CLI: one client, closed loop, in-process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The program under test is the checkout's
``src/lexeu``; each job calls ``lexeu.cli.main([..., "--json"])`` with
stdout and stderr captured, and the next job starts when the previous one
returns.  Job inputs are made from the seed just before each job, outside
the timed region; every output is checked after the loop against
references that do not come from the code under test (see workloads.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and prints per-layer metrics from the spans of the
first TRACE_JOBS traced jobs (a fixed job set per seed, so counts repeat
exactly), plus the tracing overhead per job.  Spans are written to
``perfbench/work/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``--workload all`` runs the four
workloads one after another, each in its own process.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS, Audit, Result, Synth  # noqa: E402

SETUP_REPEATS = 7
TRACE_JOBS = 3
PRECHECK_IDS = ("P1.5", "P2.5", "P3.5", "P4.5", "P5.5", "SE", "P0.5")


def import_lexeu():
    """Import lexeu from the checkout's src/, never from anywhere else."""
    if not (SRC / "lexeu" / "cli.py").is_file():
        raise SystemExit(f"error: no lexeu sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lexeu.cli

    if Path(lexeu.cli.__file__).resolve().parent != SRC / "lexeu":
        raise SystemExit(f"error: imported lexeu from {lexeu.cli.__file__}, not {SRC}")
    return lexeu.cli


def setup_once(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter: import lexeu, then make and write
    the first job inputs (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def execute(cli, argv: list[str]) -> Result:
    """One job through the CLI entry point; a traceback is a failed job."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return Result(code, out.getvalue(), err.getvalue(), wall, cpu)


def loop(cli, workload, seed: int, seconds: float, workdir: Path, recorder: Recorder | None):
    """Jobs back to back until `seconds` have passed and the shape cycle is
    complete (and, when tracing, TRACE_JOBS jobs were traced).  Returns
    [(job, result, traced)] and, untraced, the set-up times."""
    done, setups = [], []
    start = time.perf_counter()
    i = 0
    while (
        time.perf_counter() - start < seconds
        or i % len(workload.shapes)
        or (recorder is not None and sum(t for *_, t in done) < TRACE_JOBS)
    ):
        # set-ups are spread over the run, so that their median does not
        # hang on one moment's machine load; their time is not counted
        due = len(setups) * seconds / SETUP_REPEATS
        if recorder is None and len(setups) < SETUP_REPEATS and time.perf_counter() - start >= due:
            paused = time.perf_counter()
            setups.append(setup_once(workload.name, seed))
            start += time.perf_counter() - paused
        job = workload.make(seed, i, workdir)
        job.write()
        traced = recorder is not None and i % 2 == 1
        if traced:
            result = recorder.job(i, execute, cli, job.argv)
        else:
            result = execute(cli, job.argv)
        done.append((job, result, traced))
        i += 1
    while recorder is None and len(setups) < SETUP_REPEATS:
        setups.append(setup_once(workload.name, seed))
    return done, setups


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]()
    cli = import_lexeu()
    recorder = Recorder() if trace else None
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    try:
        done, setups = loop(cli, workload, seed, seconds, workdir, recorder)
        failures = {}
        for job, result, _ in done:
            try:
                why = workload.check(job, result)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                why = f"malformed output: {exc!r}"
            if why is not None:
                failures[job.index] = why
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for index, why in list(failures.items())[:5]:
        print(f"job {index} failed: {why}", file=sys.stderr)
    attempted, failed = len(done), len(failures)
    if trace:
        metrics = layer_metrics(workload, done, recorder, failures)
        recorder.write(WORK / f"spans-{workload_name}-{seed}.jsonl")
        if recorder.missing:
            print("trace: missing wrapped names: " + ", ".join(recorder.missing))
    else:
        walls = [r.wall_s for _, r, _ in done]
        metrics = {
            "jobs_per_s": ((attempted - failed) / sum(walls), "1/s"),
            "job_p50_s": (statistics.median(walls), "s"),
            "cpu_per_job_s": (statistics.median(r.cpu_s for _, r, _ in done), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{workload_name:7s} {name:46s} {value:14.6f} {unit}")
    print(f"{workload_name:7s} {'fail_frac':46s} {failed / attempted:14.6f} ratio ({failed}/{attempted} jobs)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(workload, done, recorder, failures) -> dict:
    """Per-job means over the first TRACE_JOBS traced jobs; the counts read
    from a job's JSON output are taken from jobs that passed their check."""
    traced = [(job, result) for job, result, t in done if t][:TRACE_JOBS]
    jobs = [job.index for job, _ in traced]
    n = len(jobs)
    busy = recorder.busy(jobs)
    calls = recorder.calls(jobs)
    self_time = recorder.self_time(jobs)
    gate = sum(busy[f"axioms.check_axiom.{a}"] for a in PRECHECK_IDS)
    out = {
        "io.parse.busy_s": busy["io.parse"],
        "io.dump.busy_s": busy["io.dump"],
        "conditioning.observability_check.busy_s": busy["conditioning.observability_check"],
        "conditioning.strong_conditional_strict.calls": calls["conditioning.strong_conditional_strict"],
        "conditioning.strong_conditional_strict.busy_s": busy["conditioning.strong_conditional_strict"],
        "conditioning.savage_conditional.busy_s": busy["conditioning.savage_conditional"],
        "conditioning.fineness_holds.busy_s": busy["conditioning.fineness_holds"],
        "preference.indexed_prefer.calls": calls["preference.indexed_prefer"],
        "preference.indexed_prefer.busy_s": busy["preference.indexed_prefer"],
        "model.conditional_measure.calls": calls["model.conditional_measure"],
        "axioms.check_all.busy_s": busy["axioms.check_all"],
        "axioms.instances": 0,
    }
    for axiom_id in PRECHECK_IDS:
        out[f"axioms.check_axiom.{axiom_id}.busy_s"] = busy[f"axioms.check_axiom.{axiom_id}"]
    out.update({
        "synthesis.synthesize.busy_s": busy["synthesis.synthesize"],
        "synthesis.gate.busy_s": gate,
        "synthesis.hierarchy.busy_s": busy["synthesis.hierarchy"],
        "synthesis.verify.busy_s": recorder.under(jobs, "family.derive_table", "synthesis.synthesize"),
        "synthesis.fit.self_s": self_time["synthesis.synthesize"],
        "synthesis.strategy.direct": 0,
        "synthesis.strategy.vertex": 0,
        "synthesis.strategy.parametric": 0,
        "feasibility.solve.calls": calls["feasibility.solve"],
        "feasibility.solve.busy_s": busy["feasibility.solve"],
        "feasibility.optimize_closure.calls": calls["feasibility.optimize_closure"],
        "feasibility.optimize_closure.busy_s": busy["feasibility.optimize_closure"],
        "family.derive_table.calls": calls["family.derive_table"],
        "family.derive_table.busy_s": busy["family.derive_table"],
    })
    for job, result in traced:
        if job.index in failures:
            continue
        if isinstance(workload, Audit):
            out["axioms.instances"] += Audit.instances(result)
        if isinstance(workload, Synth) and result.code == 0:
            for strategy in Synth.strategies(result):
                kind = strategy.split("(")[0]
                if f"synthesis.strategy.{kind}" in out:
                    out[f"synthesis.strategy.{kind}"] += 1
    out = {name: value / n for name, value in out.items()}
    synth_busy = out["synthesis.synthesize.busy_s"]
    out["synthesis.gate_share"] = out["synthesis.gate.busy_s"] / synth_busy if synth_busy else 0.0
    out["trace.overhead_s"] = tracing_overhead(workload, done)
    return {name: (value, unit_of(name)) for name, value in out.items()}


def tracing_overhead(workload, done) -> float:
    """Median traced minus median untraced job time, per input shape, then
    averaged over the shapes that have both kinds of job."""
    diffs = []
    for shape in range(len(workload.shapes)):
        walls = {True: [], False: []}
        for job, result, traced in done:
            if job.index % len(workload.shapes) == shape:
                walls[traced].append(result.wall_s)
        if walls[True] and walls[False]:
            diffs.append(statistics.median(walls[True]) - statistics.median(walls[False]))
    return statistics.fmean(diffs) if diffs else 0.0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s/job"
    if name.endswith("_share"):
        return "ratio"
    return "count/job"


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process (so peak RSS and caches are
    its own); metric names are prefixed with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
