"""The benchmark's tracer wraps omegalab names by attribute; each must exist
and each traced layer must still be reached through its wrapped name."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
from tracer import Tracer, install
from omegalab import dovetail, incompleteness

tracer = Tracer()
install(tracer)
dovetail.advance(dovetail.new_census(17), 1)
assert tracer.counts["dovetail.advance.calls"] == 1, tracer.counts

# Each diagonal row is one traced evaluation.
before = tracer.counts.get("evaluator.evaluate.calls", 0)
incompleteness.diagonal_table(5, 64)
calls = tracer.counts["evaluator.evaluate.calls"] - before
assert calls == 5, calls
"""


def test_tracer_installs_against_the_package():
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
