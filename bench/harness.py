"""Timing, tracing and job bookkeeping shared by the workloads.

Workloads call the library only through a `Lib`.  Untraced, its attributes
are the library functions themselves.  Traced, each is wrapped so that
every call appends a span (name, start, end, parent job span, job id) to an
in-memory list, and the positive monoids' candidate streams are wrapped so
that the candidates a residual search scans are counted outside the
library.  Nothing inside reslat is patched.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
from time import perf_counter

# Public library functions the workloads and probes call, as module.function.
ENTRY_POINTS = (
    "terms.parse_equation",
    "terms.check_equation",
    "terms.eval_term",
    "terms.gen_Lc",
    "finite.check_named_property",
    "finite.enumerate_chain_models",
    "finite.validate_axioms",
    "finite.structure_to_json",
    "finite.structure_from_json",
    "finite.derive_residuals",
    "models.direct_product",
    "models.model_library",
    "omon.residual_search",
    "omon.s2_residual",
    "omon.m1_residual",
    "ore.frac_cmp_witness",
    "ore.frac_cmp_group",
    "ore.verify_conucleus",
    "battery.run_battery",
    "cli.main",
)

# Calls whose arguments and results the traced run keeps, to derive counts.
RECORDED = ("terms.check_equation", "finite.check_named_property", "finite.enumerate_chain_models")


class Tracer:
    def __init__(self):
        # (name, start, end, parent span index, job id); a job's id is the
        # index of its own span, which parents every library span in it
        self.spans: list = []
        self.job = None
        self.calls = {name: [] for name in RECORDED}
        self.candidates = 0

    def wrap(self, name: str, fn):
        spans, calls = self.spans, self.calls.get(name)

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name, start, perf_counter(), self.job, self.job))
            if calls is not None:
                calls.append((args, result))
            return result

        return traced

    def counting(self, inst):
        """The same ordered-monoid instance with its candidate stream counted."""
        stream = inst.candidates

        def candidates(bound):
            for c in stream(bound):
                self.candidates += 1
                yield c

        return dataclasses.replace(inst, candidates=candidates)


class Lib:
    """The library entry points, looked up when the Lib is made."""

    def __init__(self, tracer: Tracer | None = None):
        for dotted in ENTRY_POINTS:
            module, name = dotted.split(".")
            fn = getattr(importlib.import_module(f"reslat.{module}"), name)
            setattr(self, name, fn if tracer is None else tracer.wrap(dotted, fn))
        omon = importlib.import_module("reslat.omon")
        self.M1Instance, self.S2Instance = omon.M1Instance, omon.S2Instance
        if tracer is not None:
            self.M1Instance = tracer.counting(self.M1Instance)
            self.S2Instance = tracer.counting(self.S2Instance)


class CpuPicker:
    """Keeps this process on the least contended of the CPUs it may use.

    On a shared host the speed of each virtual CPU drifts, independently,
    by up to 1.5x in phases of tens of seconds.  `pick` times a short fixed
    loop on each allowed CPU and pins the process to the fastest; runners
    call it between jobs once INTERVAL seconds have passed.  It changes the
    affinity of this process only, and does nothing with a single CPU.
    """

    INTERVAL = 2.0

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.next = 0.0

    def due(self) -> bool:
        return len(self.cpus) > 1 and perf_counter() >= self.next

    def pick(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {min(self.cpus, key=self._loop_seconds)})
        self.next = perf_counter() + self.INTERVAL

    @staticmethod
    def _loop_seconds(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        best = math.inf
        for _ in range(3):
            start = perf_counter()
            total = 0
            for i in range(20000):
                total += i
            best = min(best, perf_counter() - start)
        return best


@dataclasses.dataclass(frozen=True)
class Failed:
    """Stands in for the answer of a job that raised."""

    error: str


class Runner:
    """Runs jobs one after another, timing each one; a closed loop with a
    single client.  With a tracer, each job is also a span that parents the
    library spans recorded while it runs.

    A runner given `skip` (job kinds) and `reuse` (the runner of an earlier
    pass over the same job list) does not run jobs of those kinds: it
    answers them with the earlier pass's answer, records no time for them
    (infinity), and lists their indices in `skipped`."""

    def __init__(self, tracer: Tracer | None = None, picker: CpuPicker | None = None,
                 skip: frozenset = frozenset(), reuse: "Runner | None" = None):
        self.tracer, self.picker = tracer, picker
        self.skip, self.reuse = skip, reuse
        self.skipped: list[int] = []
        self.kinds: list[str] = []
        self.args: list[tuple] = []
        self.answers: list = []
        self.seconds: list[float] = []
        self.part_seconds: dict = {}  # job list name -> seconds in this pass
        self.part_jobs: dict = {}  # job list name -> range of its job indices

    def job(self, kind: str, fn, *args):
        if kind in self.skip:
            answer = self.reuse.answers[len(self.answers)]
            self.skipped.append(len(self.answers))
            self.kinds.append(kind)
            self.args.append(args)
            self.answers.append(answer)
            self.seconds.append(math.inf)
            return answer
        if self.picker is not None and self.picker.due():
            self.picker.pick()
        tracer = self.tracer
        if tracer is not None:
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.job = index
        start = perf_counter()
        try:
            answer = fn(*args)
        except Exception as exc:  # a job that raises counts as failed
            answer = Failed(f"{type(exc).__name__}: {exc}")
        end = perf_counter()
        if tracer is not None:
            tracer.spans[index] = ("job." + kind, start, end, None, index)
            tracer.job = None
        self.kinds.append(kind)
        self.args.append(args)
        self.answers.append(answer)
        self.seconds.append(end - start)
        return answer


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_times(spans) -> dict:
    """Self time per span name: duration minus the time of child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out
