"""What the factors of each benchmark workload's first state store.

    python3 scripts/factor_bytes.py

Builds the first state of each workload of perfbench/workloads.py at its
FULL sizes with seed 0, through `answer_digests.first_answers`, and
prints one line per factor: workload, factor (`wall`, `interior`, `L0`,
`graph`), bytes stored (`nbytes`), number of solve levels, stored entries
of the level matrices, and the bytes of the root fronts' packed
pseudo-inverses (part of `nbytes`; 0 in a folded factor).  `graph` is the
down solver on the 1-skeleton (a `GraphDownLap`).  A factor without levels
(it, and the sphere reduced wall, a `BlockFactor`) prints `-` for the last
three; sphere-up's state has no L0 factor and no graph.
"""

from __future__ import annotations

import sys

from answer_digests import first_answers, workloads


def factors(state) -> dict:
    """The wall, interior, L0 and graph factors of a full state, or the
    wall and interior of an up-solver state."""
    up = getattr(state, "up_state", state)
    found = {"wall": up.wall, "interior": up.interior}
    if hasattr(state, "down_state"):
        found["L0"] = state.down_state.lap0_factor
        found["graph"] = state.down_state.graph
    return found


def main() -> int:
    for name, workload in workloads.WORKLOADS.items():
        for label, f in factors(first_answers(workload).state).items():
            levels = getattr(f, "_levels", None)
            if levels is None:
                shape = "- - -"
            else:
                pinv = sum(nd.pinv.nbytes for nd in f._nodes
                           if nd.pinv is not None)
                shape = (f"{len(levels)} "
                         f"{sum(level.a.nnz for level in levels)} {pinv}")
            print(f"{name} {label} {f.nbytes} {shape}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
