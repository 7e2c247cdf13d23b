#!/usr/bin/env python3
"""omegalab benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload census|eval-deep|queries \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in ``src/``.
Every session runs in a fresh interpreter (``session.py``).  With
``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` the same fixed operations run once untraced and once with
every layer wrapped, and the per-layer metrics come from the traced
session.  Outputs are checked against pinned values in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it name each metric as ``README.md`` does, with its unit.  A full record
of the run (inputs, metadata, samples, failures) is written to
``perfbench/out/``.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import COMPLEXITY_QUERIES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SESSION = os.path.join(HERE, "session.py")
OUT_DIR = os.path.join(HERE, "out")
PACKAGE = os.path.join(ROOT, "src", "omegalab")

# Sessions per run.  census runs one operation per fresh interpreter;
# the others run whole rounds of operations (see workloads.py).
PLAN = {
    "census": {"min_ops": 3, "trace_ops": 2},
    "eval-deep": {"rounds": 8, "min_rounds": 4, "trace_rounds": 2},
    "queries": {"rounds": 200, "min_rounds": 4, "trace_rounds": 20},
}
PROBE_REFERENCE_S = 0.0003
PROBE_WINDOW_S = 0.1
SETUP_REPEATS = 3  # sessions whose set-up time is measured, per run
# Every run must end within this many seconds, sessions included.
RUN_DEADLINE_S = 170
# What work_per_s counts on each workload.
WORK_UNITS = {
    "census": ("records_per_s", "records/s"),
    "eval-deep": ("steps_per_s", "steps/s"),
    "queries": ("queries_per_s", "queries/s"),
}


class SessionFailed(RuntimeError):
    pass


_deadline = time.monotonic() + RUN_DEADLINE_S


def run_session(workload: str, seed: int, tag: str, *options: str) -> dict:
    """Run one session in a fresh interpreter and return its result."""
    result_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-{tag}.session.json")
    command = [sys.executable, SESSION, "--workload", workload, "--seed", str(seed),
               "--result", result_path, *options]
    started = time.monotonic()
    try:
        # The session's own output goes to stderr; stdout carries the result.
        proc = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, _deadline - started))
    except subprocess.TimeoutExpired:
        raise SessionFailed(f"{tag} session timed out") from None
    if proc.returncode != 0:
        raise SessionFailed(f"{tag} session exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    result["setup_s"] = result["timed_start"] - started
    result["setup_cs"] = result["setup_s"] * PROBE_REFERENCE_S / result["setup_probe_s"]
    if "ops" in result:
        correct_for_host_speed(result["ops"], result["probes"])
    return result


def correct_for_host_speed(ops: list[dict], probes: list[list[float]]) -> None:
    """Add "cs", the operation's time scaled to a host on which the probe
    loop takes PROBE_REFERENCE_S.  The host speed during an operation is
    the mean of the probes taken within one operation length (at least
    PROBE_WINDOW_S) before its start and after its end."""
    times = [t for t, _ in probes]
    for op in ops:
        margin = max(op["s"], PROBE_WINDOW_S)
        lo = bisect.bisect_left(times, op["t"] - margin)
        hi = bisect.bisect_right(times, op["t"] + op["s"] + margin)
        window = [p for _, p in probes[lo:hi]]
        op["cs"] = op["s"] * PROBE_REFERENCE_S / statistics.fmean(window)


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timing_metrics(ops: list[dict], key: str) -> dict[str, float]:
    """Throughput (the median of the rounds' work per second) and latency
    percentiles, from the operation times under key."""
    work: dict[int, float] = {}
    seconds: dict[int, float] = {}
    for op in ops:
        work[op["round"]] = work.get(op["round"], 0) + op["work"]
        seconds[op["round"]] = seconds.get(op["round"], 0.0) + op[key]
    latencies = [op[key] for op in ops]
    return {
        "work_per_s": statistics.median(work[r] / seconds[r] for r in work),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": p90(latencies) * 1000,
    }


# --- untraced runs: end-to-end metrics -------------------------------------


def end_to_end(workload: str, seed: int, seconds: float):
    plan = PLAN[workload]
    if workload == "census":
        # One census per fresh interpreter, as on the command line.
        sessions = []
        started = time.monotonic()
        while len(sessions) < plan["min_ops"] or time.monotonic() - started < seconds:
            sessions.append(run_session(workload, seed, f"op{len(sessions)}",
                                        "--rounds", "1"))
        ops = [{**op, "round": i} for i, s in enumerate(sessions) for op in s["ops"]]
        setup_sessions = sessions
        rss = statistics.median(s["peak_rss_mb"] for s in sessions)
    else:
        setup_sessions = [
            run_session(workload, seed, f"setup{i}", "--rounds", str(plan["rounds"]),
                        "--setup-only")
            for i in range(SETUP_REPEATS - 1)
        ]
        main = run_session(workload, seed, "timed", "--rounds", str(plan["rounds"]),
                           "--min-rounds", str(plan["min_rounds"]),
                           "--seconds", str(seconds))
        sessions = [main]
        setup_sessions.append(main)
        ops = main["ops"]
        rss = main["peak_rss_mb"]
    corrected = timing_metrics(ops, "cs")
    metrics = {
        "setup_s": (statistics.median(s["setup_cs"] for s in setup_sessions), "s"),
        "work_per_s": (corrected["work_per_s"], "work/s"),
        "op_p50_ms": (corrected["op_p50_ms"], "ms"),
        "op_p90_ms": (corrected["op_p90_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    uncorrected = timing_metrics(ops, "s")
    uncorrected["setup_s"] = statistics.median(s["setup_s"] for s in setup_sessions)
    probes = [p for s in sessions for _, p in s["probes"]]
    details = {
        "uncorrected": uncorrected,
        "probe_median_s": statistics.median(probes),
        "setup_samples": len(setup_sessions),
        "rounds": len({op["round"] for op in ops}),
        "op_samples": len(ops),
        "op_samples_beyond_p90": sum(op["cs"] * 1000 > metrics["op_p90_ms"][0] for op in ops),
    }
    return sessions, ops, metrics, details, []


# --- traced runs: per-layer metrics -----------------------------------------


def traced(workload: str, seed: int):
    plan = PLAN[workload]
    if workload == "census":
        fixed = [("--rounds", "1")] * plan["trace_ops"]
    else:
        fixed = [("--rounds", str(plan["trace_rounds"]))]
    plain = [run_session(workload, seed, f"plain{i}", *args, "--trace", "0")
             for i, args in enumerate(fixed)]
    # Span files are large; each traced run replaces the last one's.
    spans_stem = os.path.join(OUT_DIR, f"{workload}-trace")
    traced_sessions = [
        run_session(workload, seed, f"traced{i}", *args, "--trace", "1",
                    "--spans", f"{spans_stem}-session{i}")
        for i, args in enumerate(fixed)
    ]
    ops = [op for s in plain + traced_sessions for op in s["ops"]]
    problems = consistency_problems(workload, plain, traced_sessions)
    layers = layer_metrics([s["trace"] for s in traced_sessions])
    # The two passes run at different moments, so compare host-corrected times.
    plain_cs = sum(op["cs"] for s in plain for op in s["ops"])
    traced_cs = sum(op["cs"] for s in traced_sessions for op in s["ops"])
    traced_s = sum(s["timed_s"] for s in traced_sessions)
    covered = sum(s["trace"]["timed_top_s"] for s in traced_sessions)
    layers["trace.overhead_frac"] = (traced_cs / plain_cs - 1, "fraction")
    layers["trace.uncovered_frac"] = (1 - covered / traced_s, "fraction")
    details = {"plain_timed_s": sum(s["timed_s"] for s in plain), "traced_timed_s": traced_s,
               "exact_counts": exact_counts(traced_sessions)}
    return plain + traced_sessions, ops, layers, details, problems


EXACT_COUNTS = ("evaluator.steps", "dovetail.runs", "machine.decode.calls",
                "sexpr.parse.calls")


def exact_counts(traced_sessions: list[dict]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for session in traced_sessions:
        for key in EXACT_COUNTS:
            totals[key] = totals.get(key, 0) + session["trace"]["counts"].get(key, 0)
    return totals


def consistency_problems(workload: str, plain: list[dict], traced_sessions: list[dict]):
    """Tracing must not change what runs: the outputs of the untraced and
    traced sessions agree, counts that every round repeats do repeat, and
    on eval-deep the traced step count equals the sum of the outcomes'."""
    problems = []
    plain_sigs = [op["signature"] for s in plain for op in s["ops"]]
    traced_sigs = [op["signature"] for s in traced_sessions for op in s["ops"]]
    if plain_sigs != traced_sigs:
        problems.append("traced and untraced outputs differ")
    rounds = [rc for s in traced_sessions for rc in s["trace"]["round_counts"]]
    for key in traced_sessions[0]["round_invariant_counts"]:
        values = {rc.get(key, 0) for rc in rounds}
        if len(values) != 1:
            problems.append(f"{key} differs between rounds: {sorted(values)}")
    if workload == "eval-deep":
        plain_steps = sum(op["work"] for s in plain for op in s["ops"])
        traced_steps = sum(s["trace"]["timed_counts"].get("evaluator.steps", 0)
                           for s in traced_sessions)
        if plain_steps != traced_steps:
            problems.append(f"evaluator.steps {traced_steps} != outcome steps {plain_steps}")
    return problems


def layer_metrics(traces: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the summed aggregates of traced sessions."""
    counts: dict[str, int] = {}
    distinct: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for trace in traces:
        for target, source in ((counts, trace["counts"]), (distinct, trace["distinct"]),
                               (self_s, trace["self_s"]), (total_s, trace["total_s"])):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value

    def n(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(span):
        return n(span + ".calls")

    def own(span):
        return self_s.get(span, 0.0)

    m = {
        "sexpr.parse.calls": (calls("sexpr.parse"), "count"),
        "sexpr.parse.chars_per_s": (
            ratio(n("sexpr.parse.chars"), total_s.get("sexpr.parse", 0.0)), "chars/s"),
        "sexpr.parse_cache.hit_ratio": (
            ratio(calls("sexpr.parse_cache") - distinct.get("sexpr.parse_cache.texts", 0),
                  calls("sexpr.parse_cache")), "fraction"),
        "sexpr.print_canonical.self_s": (own("sexpr.print_canonical"), "s"),
        "machine.decode.calls": (calls("machine.decode"), "count"),
        "machine.decode.self_s": (own("machine.decode"), "s"),
        "machine.decode.us_per_program": (
            ratio(own("machine.decode") * 1e6, calls("machine.decode")), "us"),
        "machine.run_program.calls": (calls("machine.run_program"), "count"),
        "machine.run_program.self_s": (own("machine.run_program"), "s"),
        "machine.encode.self_s": (own("machine.encode"), "s"),
        "evaluator.evaluate.calls": (calls("evaluator.evaluate"), "count"),
        "evaluator.steps": (n("evaluator.steps"), "steps"),
        "evaluator.evaluate.self_s": (own("evaluator.evaluate"), "s"),
        "evaluator.steps_per_s": (
            ratio(n("evaluator.steps"), own("evaluator.evaluate")), "steps/s"),
        "evaluator.us_per_call": (
            ratio(own("evaluator.evaluate") * 1e6, calls("evaluator.evaluate")), "us"),
    }
    for outcome in ("halted", "aborted", "out_of_time", "malformed"):
        m[f"evaluator.outcome.{outcome}"] = (n(f"evaluator.outcome.{outcome}"), "count")
    m.update({
        "dovetail.enumerate.programs": (n("dovetail.enumerate.programs"), "count"),
        "dovetail.enumerate.self_s": (own("dovetail.enumerate"), "s"),
        "dovetail.advance.self_s": (own("dovetail.advance"), "s"),
        "dovetail.omega_sum.self_s": (own("dovetail.omega_sum"), "s"),
        "dovetail.decide.self_s": (own("dovetail.decide"), "s"),
        "dovetail.runs": (n("dovetail.runs"), "count"),
        "dovetail.runs_per_text": (
            ratio(n("dovetail.runs"), distinct.get("dovetail.texts", 0)), "runs/text"),
        "dovetail.valid_halt_ratio": (
            ratio(n("dovetail.valid_halts"), n("dovetail.runs")), "fraction"),
        "dovetail.save.self_s": (own("dovetail.save"), "s"),
        "dovetail.save.bytes": (n("dovetail.save.bytes"), "bytes"),
        "dovetail.load.self_s": (own("dovetail.load"), "s"),
        "dovetail.text_pool.self_s": (own("dovetail.text_pool"), "s"),
    })
    for fn in COMPLEXITY_QUERIES:
        m[f"complexity.{fn}.calls"] = (calls(f"complexity.{fn}"), "count")
        m[f"complexity.{fn}.self_s"] = (own(f"complexity.{fn}"), "s")
    m["complexity.runs_per_query"] = (
        ratio(n("complexity.runs"), n("complexity.queries")), "runs/query")
    m["incompleteness.diagonal_table.self_s"] = (own("incompleteness.diagonal_table"), "s")
    m["incompleteness.run_theory.self_s"] = (own("incompleteness.run_theory"), "s")
    m["cli.main.self_s"] = (own("cli.main"), "s")
    m["trace.spans"] = (sum(t["spans"] for t in traces), "count")
    return m


# --- output -----------------------------------------------------------------


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLAN), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no omegalab package at {PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    meta = metadata(ns.workload, ns.seed, ns.seconds, ns.trace)
    try:
        if ns.trace:
            sessions, ops, metrics, details, problems = traced(ns.workload, ns.seed)
        else:
            sessions, ops, metrics, details, problems = end_to_end(
                ns.workload, ns.seed, ns.seconds)
    except SessionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for s in sessions for f in s["failures"]] + problems
    setup_failed = sum(s.get("setup_failed", 0) for s in sessions)
    attempted = len(ops) + setup_failed
    failed = sum(not op["ok"] for op in ops) + setup_failed + len(problems)
    record = {
        "meta": meta,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:50],
        "details": details,
        "ops": [{k: op[k] for k in ("round", "kind", "s", "cs", "work", "ok")} for op in ops],
    }
    stem = os.path.join(OUT_DIR, f"{ns.workload}-seed{ns.seed}-trace{ns.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for failure in failures[:10]:
        print(f"# FAILED {failure}")
    uncorrected = details.get("uncorrected", {})
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "work_per_s":
            note += "  = {} in {}".format(*WORK_UNITS[ns.workload])
        if name in uncorrected:
            note += f"  (uncorrected {uncorrected[name]:.6g})"
        if name == "op_p90_ms":
            note += (f"  ({details['op_samples_beyond_p90']} of "
                     f"{details['op_samples']} samples beyond)")
        print(f"{ns.workload} {name} = {value:.6g} {unit}{note}")
    print(f"{ns.workload} error_rate = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
