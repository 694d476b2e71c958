"""SHA-256 digests of the benchmark's first answers, to tell whether a
change moved any answer by a single bit.

    python3 scripts/answer_digests.py

Runs each workload of perfbench/workloads.py at its FULL sizes with seed 0,
through the workload's own code, so meshes, hollowings and right-hand sides
are the benchmark's, and keeps the first answer of each request kind:
box-stream's solve `x` and Hodge parts, ring-rebuild's solve `x` and the
harmonic basis of its first state, and sphere-up's solve `x`.  Nothing is
timed or checked.  One line per answer: workload, name, digest of the
array's bytes (C order; the Hodge parts one after another).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tetlap  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class _Done(Exception):
    """Raised once the first answer of every request kind is in."""


class FirstAnswers(workloads.Runner):
    """A runner that keeps the first state built and the first answer of
    each request kind, and ends the workload at the next setup or repeated
    request kind."""

    def __init__(self):
        super().__init__(tetlap, spans.Tracer(), seconds=0.0, seed=0)
        self.state = None
        self.answers = {}

    def setup(self, build):
        if self.answers:
            raise _Done
        out = build()
        self.state = out[1]
        return out

    def request(self, kind, call, check, first):
        if kind in self.answers:
            raise _Done
        self.answers[kind] = call()


def first_answers(workload) -> FirstAnswers:
    """The runner of `workload` at its FULL sizes, once it has ended."""
    run = FirstAnswers()
    try:
        workload(run, workloads.FULL)
    except _Done:
        pass
    return run


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a).tobytes())
    return h.hexdigest()


def main() -> int:
    for name, workload in workloads.WORKLOADS.items():
        run = first_answers(workload)
        rows = {"x": run.answers["solve"]}
        if "hodge" in run.answers:
            rows["hodge"] = run.answers["hodge"]
        if name == "ring-rebuild":
            rows["harmonic"] = run.state.harmonic
        for label, value in rows.items():
            arrays = value if isinstance(value, tuple) else (value,)
            print(f"{name} {label} {digest(*arrays)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
