"""In-memory span recorder that wraps omegalab's module attributes.

Tracing is done from outside the package: ``install`` replaces selected
module attributes (the names callers look up at call time) with wrappers
that record one span per call.  Nothing in ``src/`` changes, and an
untraced process never calls ``install``.

A span is (name, start, end, parent span, run id).  Spans are appended to
flat arrays, so a million of them cost tens of megabytes, and ``dump``
writes them out when the process ends.  Self time (a span's duration minus
the time covered by its child spans) and exact counts are accumulated as
each span closes.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

SETUP_RUN = -1  # run id of spans opened before the first timed operation

COMPLEXITY_QUERIES = (
    "h_upper",
    "h_joint_upper",
    "mutual_info_estimate",
    "randomness_report",
    "h_relative_upper",
    "pair_programs",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._calls_keys: list[str] = []
        # One entry per span, in closing order.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")  # opening ordinal of the parent, -1 at top
        self.span_run = array("i")
        self.run_id = SETUP_RUN
        self.enabled = True
        # Open spans: [name id, start, child seconds, opening ordinal].
        self._stack: list[list] = []
        self._opened = 0
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        # Exact counters, overall and per run id; "<span>.calls" included.
        self.counts: dict[str, int] = {}
        self.run_counts: dict[int, dict[str, int]] = {}
        # Distinct values seen, per key.
        self.distinct: dict[str, set] = {}
        # Seconds covered by top-level spans of timed runs (run id >= 0).
        self.timed_top_s = 0.0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._calls_keys.append(name + ".calls")
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return nid

    @property
    def depth(self) -> int:
        """Number of spans open now."""
        return len(self._stack)

    def count(self, key: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.counts[key] = self.counts.get(key, 0) + n
        per_run = self.run_counts.setdefault(self.run_id, {})
        per_run[key] = per_run.get(key, 0) + n

    def see(self, key: str, value) -> None:
        if self.enabled:
            self.distinct.setdefault(key, set()).add(value)

    def call(self, name: str, fn, args, kwargs):
        """Run fn inside a span called name and return its result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        frame = [self._name_id(name), 0.0, 0.0, self._opened]
        self._opened += 1
        self._stack.append(frame)
        frame[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, perf_counter())

    def _close(self, frame: list, end: float) -> None:
        stack = self._stack
        stack.pop()
        nid, start, child_s, _ = frame
        duration = end - start
        name = self.names[nid]
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_ordinal = parent[3]
        else:
            parent_ordinal = -1
            if self.run_id >= 0:
                self.timed_top_s += duration
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent_ordinal)
        self.span_run.append(self.run_id)
        self.count(self._calls_keys[nid])

    def dump(self, stem: str) -> None:
        """Write the spans as ``stem.spans.bin`` (the columns back to back,
        native byte order) and ``stem.spans.json`` (their layout)."""
        columns = [
            ("name", self.span_name),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
            ("run", self.span_run),
        ]
        with open(stem + ".spans.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        layout = {
            "spans": len(self.span_name),
            "order": "closing order; parent is the opening ordinal of the "
                     "enclosing span (-1 at top); run is the operation index "
                     "(-1 during set-up)",
            "names": self.names,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        with open(stem + ".spans.json", "w", encoding="ascii") as fh:
            json.dump(layout, fh)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every omegalab layer.

    Each module's own binding is replaced, since modules reach each other
    through names they imported (``dovetail.run_program``) or through the
    module object (``sexpr.parse``).
    """
    from omegalab import (
        cli,
        complexity,
        dovetail,
        evaluator,
        incompleteness,
        machine,
        sexpr,
    )
    from omegalab.evaluator import AbortOverrun, Halted, MalformedProgram, OutOfTime
    from omegalab.machine import DecodedProgram

    def patch(module, attr, name, after=None):
        setattr(module, attr, _wrap(tracer, name, getattr(module, attr), after))

    # sexpr: the reader, the cached program reader, the printer.
    patch(sexpr, "parse", "sexpr.parse",
          lambda args, _: tracer.count("sexpr.parse.chars", len(args[0])))
    patch(sexpr, "print_canonical", "sexpr.print_canonical")
    for module in (sexpr, evaluator):
        patch(module, "parse_program_cached", "sexpr.parse_cache",
              lambda args, _: tracer.see("sexpr.parse_cache.texts", args[0]))

    # evaluator: one span per evaluate call, with exact step accounting.
    def after_evaluate(args, outcome):
        kind = type(outcome)
        if kind is Halted:
            tracer.count("evaluator.steps", outcome.steps)
            tracer.count("evaluator.outcome.halted")
        elif kind is AbortOverrun:
            tracer.count("evaluator.steps", outcome.steps)
            tracer.count("evaluator.outcome.aborted")
        elif kind is OutOfTime:
            # The whole budget was spent before the run was cut.
            tracer.count("evaluator.steps", args[2])
            tracer.count("evaluator.outcome.out_of_time")
        elif kind is MalformedProgram:
            tracer.count("evaluator.outcome.malformed")

    patch(machine, "evaluate", "evaluator.evaluate", after_evaluate)

    # machine: decode, run, encode.  Runs made by the dovetail and by the
    # complexity queries are also counted on their own.
    in_dovetail_run = [False]

    def after_decode(_args, decoded):
        if in_dovetail_run[0] and type(decoded) is DecodedProgram:
            tracer.see("dovetail.texts", decoded.text)

    patch(machine, "decode_program", "machine.decode", after_decode)
    patch(machine, "run_program", "machine.run_program")
    patch(incompleteness, "run_program", "machine.run_program")
    patch(complexity, "run_program", "machine.run_program",
          lambda *_: tracer.count("complexity.runs"))
    for module in (machine, complexity, incompleteness):
        patch(module, "encode_program", "machine.encode")

    run_program = dovetail.run_program

    def dovetail_run(*args, **kwargs):
        in_dovetail_run[0] = True
        try:
            result = tracer.call("machine.run_program", run_program, args, kwargs)
        finally:
            in_dovetail_run[0] = False
        tracer.count("dovetail.runs")
        if result.valid_halt:
            tracer.count("dovetail.valid_halts")
        return result

    dovetail.run_program = dovetail_run

    # dovetail: enumeration (a generator, drained inside its span so that
    # the span covers the enumeration work), stages, the omega sum, files
    # and the cached text pools.
    enumerate_programs = dovetail.enumerate_programs

    def drain(*args, **kwargs):
        programs = list(enumerate_programs(*args, **kwargs))
        tracer.count("dovetail.enumerate.programs", len(programs))
        return programs

    dovetail.enumerate_programs = lambda *args, **kwargs: iter(
        tracer.call("dovetail.enumerate", drain, args, kwargs)
    )
    patch(dovetail, "advance", "dovetail.advance")
    patch(dovetail, "omega_lower_bound", "dovetail.omega_sum")
    patch(dovetail, "decide_halting_via_omega", "dovetail.decide")
    patch(dovetail, "save_census", "dovetail.save",
          lambda args, _: tracer.count("dovetail.save.bytes", os.path.getsize(args[1])))
    patch(dovetail, "load_census", "dovetail.load")
    for module, attr in (
        (dovetail, "parseable_texts_of_length"),
        (dovetail, "parseable_texts_upto"),
        (complexity, "parseable_texts_upto"),
        (incompleteness, "parseable_texts_of_length"),
    ):
        patch(module, attr, "dovetail.text_pool")

    def after_query(*_):
        if not tracer.depth:
            tracer.count("complexity.queries")

    for fn in COMPLEXITY_QUERIES:
        patch(complexity, fn, "complexity." + fn, after_query)
    patch(incompleteness, "diagonal_table", "incompleteness.diagonal_table")
    patch(incompleteness, "run_theory", "incompleteness.run_theory")
    patch(cli, "main", "cli.main")
