#!/usr/bin/env python3
"""Shows that the benchmark's output checks catch wrong results.

    python3 perfbench/selftest.py

On tiny inputs, one job per workload runs through the CLI and must pass
its check; then its output is tampered with (a flipped exit code, or the
written model with one level's utilities permuted) and the check must
fail, so fail_frac of the tampered batch is above 0.  Exits 0 when both
hold.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
from workloads import Audit, Census, Reject, Synth

TINY = {Census: ((2, 2),), Audit: ((2, 2),), Synth: ((2, 3),), Reject: ((2, 3),)}


def flip_exit(job, result):
    return dataclasses.replace(result, code=0 if result.code else 1)


def permute_utilities(job, result):
    """Swap the utilities of the best and worst outcome at the first level."""
    data = json.loads(job.output.read_text())
    utility = data["levels"][0]["utility"]
    best = max(utility, key=lambda o: Fraction(utility[o]))
    worst = min(utility, key=lambda o: Fraction(utility[o]))
    utility[best], utility[worst] = utility[worst], utility[best]
    job.output.write_text(json.dumps(data))
    return result


TAMPER = {Census: flip_exit, Audit: flip_exit, Synth: permute_utilities, Reject: flip_exit}


def main() -> int:
    cli = run.import_lexeu()
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    ok = True
    attempted = failed = 0
    try:
        for kind, shapes in TINY.items():
            workload = kind(shapes)
            job = workload.make(0, 0, workdir)
            job.write()
            result = run.execute(cli, job.argv)
            clean = workload.check(job, result)
            tampered = workload.check(job, TAMPER[kind](job, result))
            attempted += 1
            failed += tampered is not None
            print(f"{workload.name:7s} untampered: {clean or 'passes'}; "
                  f"{TAMPER[kind].__name__}: {tampered or 'passes'}")
            ok &= clean is None and tampered is not None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fail_frac = failed / attempted
    print(f"fail_frac of the tampered batch: {fail_frac:.3f} ({failed}/{attempted})")
    ok &= fail_frac > 0
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
