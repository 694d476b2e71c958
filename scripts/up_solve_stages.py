"""Stage timings of each benchmark workload's first up solve.

    python3 scripts/up_solve_stages.py

Runs each workload of perfbench/workloads.py at its FULL sizes with seed 0,
through `answer_digests.first_answers`, and reads the report of the first
up solve that a request makes (the build's harmonic probes are not
requests).  One line per workload: workload, Schur iterations, then the
seconds of the forward half, the Schur PCG, the back substitution, the
residual check and the whole up solve (`SolveReport.timings`).  The
iterations are deterministic; the timings are not.
"""

from __future__ import annotations

import sys

from answer_digests import FirstAnswers, first_answers, tetlap, workloads

STAGES = ("forward", "schur", "back_substitute", "residual", "total")


class FirstUpSolve(FirstAnswers):
    """`FirstAnswers` that keeps the report of the first up solve made
    inside a request."""

    def __init__(self):
        super().__init__()
        self.report = None
        self._in_request = False

    def request(self, kind, call, check, first):
        self._in_request = True
        try:
            super().request(kind, call, check, first)
        finally:
            self._in_request = False

    def seen(self, report):
        if self._in_request and self.report is None:
            self.report = report


def first_up_report(workload):
    """The report of `workload`'s first requested up solve, at FULL sizes.
    The up solve is reached through `uplap` and through `onelap`'s own
    binding of it, so both are wrapped while the workload runs."""
    run = FirstUpSolve()
    real = tetlap.uplap._up_solve_with_state

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        run.seen(out[1])
        return out
    modules = (tetlap.uplap, tetlap.onelap)
    for mod in modules:
        mod._up_solve_with_state = spy
    try:
        first_answers(workload, run)
    finally:
        for mod in modules:
            mod._up_solve_with_state = real
    return run.report


def main() -> int:
    for name, workload in workloads.WORKLOADS.items():
        report = first_up_report(workload)
        iters = report.stages["schur"].iterations
        times = " ".join(f"{report.timings[s]:.6f}" for s in STAGES)
        print(f"{name} {iters} {times}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
