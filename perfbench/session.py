"""One benchmark process: set up a workload, time its operations, check them.

``run.py`` starts this file in a fresh interpreter for every session, so
omegalab's process-wide caches start cold, as they do for a command-line
invocation.  The session writes one JSON document to ``--result``.

    python3 perfbench/session.py --workload eval-deep --seed 1 --rounds 8 \
        --seconds 20 --min-rounds 4 --trace 0 --result out.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import omegalab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import omegalab

    if os.path.dirname(os.path.abspath(omegalab.__file__)) != os.path.join(SRC, "omegalab"):
        raise ImportError(f"omegalab imported from {omegalab.__file__}, not {SRC}")


# On a shared host, speed drifts by tens of percent within seconds.  A
# fixed pure-Python loop, timed after every operation, measures that drift
# so that run.py can correct for it.
PROBE_LOOPS = 5
PROBE_ITERATIONS = 5000


def probe() -> float:
    """Median time of a few runs of a fixed loop that calls no omegalab code."""
    times = []
    for _ in range(PROBE_LOOPS):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERATIONS):
            x += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True,
                        help="rounds of inputs to generate (the most that run)")
    parser.add_argument("--min-rounds", type=int, default=1,
                        help="with --seconds: run at least this many rounds")
    parser.add_argument("--seconds", type=float, default=None,
                        help="stop after the round that passes this time; "
                             "without it every generated round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="file stem for the traced spans")
    ns = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, HERE)
    import workloads

    tracer = None
    if ns.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out_dir = os.path.dirname(os.path.abspath(ns.result))
    rng = random.Random(f"{ns.workload}:{ns.seed}")
    workload = workloads.WORKLOADS[ns.workload](rng, ns.rounds, out_dir)
    timed_start = time.monotonic()
    result = {"timed_start": timed_start, "setup_probe_s": probe()}
    if ns.setup_only:
        _cleanup(workload)
        _write(ns.result, result)
        return 0
    # Each output is checked, and dropped, as soon as its operation ends;
    # only the operation itself is timed, and checks are never traced.
    samples = []
    failures = [f"set-up: {failure}" for failure in workload.setup_failures]
    measured = 0.0
    t0 = time.perf_counter()
    probes = [[0.0, result["setup_probe_s"]]]  # [offset from t0, probe seconds]
    for r, round_ops in enumerate(workload.rounds):
        for op in round_ops:
            if tracer is not None:
                tracer.run_id = len(samples)
            start = time.perf_counter()
            output = op.run()
            seconds = time.perf_counter() - start
            measured += seconds
            if tracer is not None:
                tracer.enabled = False
            probes.append([time.perf_counter() - t0, probe()])
            sample = _judge(r, op, seconds, output, failures)
            sample["t"] = start - t0
            samples.append(sample)
            if tracer is not None:
                tracer.enabled = True
        if (ns.seconds is not None and time.perf_counter() - t0 >= ns.seconds
                and r + 1 >= ns.min_rounds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.enabled = False
    _cleanup(workload)
    result.update(
        timed_s=measured,
        peak_rss_mb=peak_rss_mb,
        ops=samples,
        setup_failed=len(workload.setup_failures),
        probes=probes,
        failures=failures,
        round_invariant_counts=list(workload.round_invariant_counts),
    )
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, samples, measured)
        if ns.spans:
            result["trace"]["spans_file"] = ns.spans + ".spans.bin"
            tracer.dump(ns.spans)
    _write(ns.result, result)
    return 0


def _judge(r: int, op, seconds: float, output, failures: list) -> dict:
    try:
        failure = op.check(output)
        work = op.work(output)
        signature = op.signature(output)
    except Exception as exc:  # a malformed output is a failed check
        failure, work, signature = f"{type(exc).__name__}: {exc}", 0, None
    if failure is not None:
        failures.append(f"round {r} {op.kind}: {failure}")
    return {"round": r, "kind": op.kind, "s": seconds, "work": work,
            "ok": failure is None, "signature": signature}


def _trace_summary(tracer, samples: list, timed_s: float) -> dict:
    """Aggregates of the traced session; spans themselves go to dump()."""
    per_round: dict[int, dict[str, int]] = {}
    for run_id, counts in tracer.run_counts.items():
        if run_id < 0:
            continue
        bucket = per_round.setdefault(samples[run_id]["round"], {})
        for key, n in counts.items():
            bucket[key] = bucket.get(key, 0) + n
    timed_counts: dict[str, int] = {}
    for bucket in per_round.values():
        for key, n in bucket.items():
            timed_counts[key] = timed_counts.get(key, 0) + n
    return {
        "counts": tracer.counts,
        "timed_counts": timed_counts,
        "round_counts": [per_round.get(r, {}) for r in range(samples[-1]["round"] + 1)],
        "distinct": {key: len(values) for key, values in tracer.distinct.items()},
        "total_s": tracer.total_s,
        "self_s": tracer.self_s,
        "timed_top_s": tracer.timed_top_s,
        "timed_s": timed_s,
        "spans": len(tracer.span_name),
    }


def _cleanup(workload) -> None:
    for path in workload.cleanup:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
