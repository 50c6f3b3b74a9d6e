"""Spans and counts around lexeu's layer boundaries, from outside the program.

A wrapper is installed on the name that the call site looks up: the CLI
calls ``observability_check`` through ``lexeu.cli``'s namespace, the
observability sweep calls ``indexed_prefer`` through
``lexeu.conditioning``'s, and so on.  Each wrapper either records a span
(name, start, end, parent span, job) or, for the hottest leaf, only counts
calls.  Spans stay in memory until :meth:`Recorder.write`.  A wrapped name
that no longer exists is listed in ``Recorder.missing`` and skipped.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

# (span name, modules whose binding of the attribute is wrapped, attribute)
SPANS = (
    ("io.parse", ("lexeu.io",), "parse_model"),
    ("io.parse", ("lexeu.io",), "parse_table"),
    ("io.parse", ("lexeu.io",), "parse_act"),
    ("io.dump", ("lexeu.io",), "dump_json"),
    ("conditioning.observability_check", ("lexeu.cli",), "observability_check"),
    ("conditioning.strong_conditional_strict", ("lexeu.conditioning",), "strong_conditional_strict"),
    ("conditioning.savage_conditional", ("lexeu.conditioning",), "savage_conditional"),
    ("conditioning.fineness_holds", ("lexeu.conditioning",), "fineness_holds"),
    ("preference.indexed_prefer", ("lexeu.conditioning", "lexeu.family", "lexeu.preference"), "indexed_prefer"),
    ("axioms.check_all", ("lexeu.cli",), "check_all"),
    ("axioms.check_axiom", ("lexeu.synthesis",), "check_axiom"),
    ("synthesis.synthesize", ("lexeu.cli",), "synthesize"),
    ("synthesis.hierarchy", ("lexeu.synthesis",), "infer_hierarchy"),
    ("family.derive_table", ("lexeu.synthesis", "lexeu.cli"), "derive_table"),
    ("feasibility.solve", ("lexeu.synthesis",), "solve"),
    ("feasibility.optimize_closure", ("lexeu.synthesis",), "optimize_closure"),
)

# called ~10^4-10^5 times a job: counted, not spanned
COUNTS = (
    ("model.conditional_measure", ("lexeu.preference", "lexeu.conditioning", "lexeu.axioms", "lexeu.family"),
     "conditional_measure"),
)


def _check_axiom_name(args, kwargs) -> str:
    axiom_id = args[1] if len(args) > 1 else kwargs.get("axiom_id", "?")
    return f"axioms.check_axiom.{axiom_id}"


LABELS = {"axioms.check_axiom": _check_axiom_name}


class Recorder:
    """Spans and counts for the traced jobs of one run."""

    def __init__(self):
        # (span id = index in this list, parent id or -1, job id, name, start, end)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()  # (job id, name) -> calls
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._job = -1
        self._saved: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        label = LABELS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else label(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self._job, span_name, start, end)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self._job, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed name that exists; remember the originals."""
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, modules, attr in table:
                for module_name in modules:
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        module = None
                    original = getattr(module, attr, None)
                    if original is None:
                        where = f"{module_name}.{attr}"
                        if where not in self.missing:
                            self.missing.append(where)
                        continue
                    self._saved.append((module, attr, original))
                    setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def job(self, job_id: int, fn, *args):
        """Run fn(*args) as one traced job under a root span."""
        self._job = job_id
        self.install()
        try:
            return self._span_wrapper("job", fn)(*args)
        finally:
            self.uninstall()
            self._job = -1

    # -- aggregation -----------------------------------------------------

    def busy(self, jobs) -> Counter:
        """Seconds inside spans of each name, over the given jobs; a span
        nested in one of the same name adds nothing."""
        jobs = set(jobs)
        out: Counter = Counter()
        for sid, parent, job, name, start, end in self.spans:
            if job in jobs and not self._below(parent, name):
                out[name] += end - start
        return out

    def _below(self, sid: int, name: str) -> bool:
        """Whether span sid or one of its ancestors is called name."""
        while sid != -1:
            if self.spans[sid][3] == name:
                return True
            sid = self.spans[sid][1]
        return False

    def self_time(self, jobs) -> Counter:
        """Seconds of each span name not covered by its child spans."""
        jobs = set(jobs)
        child_time: Counter = Counter()
        for sid, parent, job, name, start, end in self.spans:
            if job in jobs and parent != -1:
                child_time[parent] += end - start
        out: Counter = Counter()
        for sid, parent, job, name, start, end in self.spans:
            if job in jobs:
                out[name] += (end - start) - child_time[sid]
        return out

    def calls(self, jobs) -> Counter:
        jobs = set(jobs)
        out: Counter = Counter()
        for sid, parent, job, name, start, end in self.spans:
            if job in jobs:
                out[name] += 1
        for (job, name), n in self.counts.items():
            if job in jobs:
                out[name] += n
        return out

    def under(self, jobs, name: str, ancestor: str) -> float:
        """Seconds inside spans called name that run below an ancestor span."""
        jobs = set(jobs)
        return sum(
            end - start
            for sid, parent, job, span_name, start, end in self.spans
            if job in jobs and span_name == name and self._below(parent, ancestor)
        )

    def write(self, path) -> None:
        """Spans as JSON lines [id, parent, job, name, start, end], then
        the counts and the missing names."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            counts = [[job, name, n] for (job, name), n in sorted(self.counts.items())]
            handle.write(json.dumps({"counts": counts, "missing": self.missing}) + "\n")
