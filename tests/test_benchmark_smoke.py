"""The benchmark's own calls, at its smoke sizes: a rename in tetlap that
breaks a workload, or a name that perfbench/spans.py hooks, fails here.

Nothing is installed into tetlap and no file is written: each workload
runs untraced, with a tracer that records only its operation spans.
"""

import importlib
import os
import sys

import pytest

import tetlap

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402
import workloads  # noqa: E402


# hooked functions the package deleted on purpose: no build called
# dissection.cholesky, so the metrics its hook fed read 0 before it went;
# spans.install lists it as untraced, and the name leaves this set when
# spans.py drops the hook
DELETED = {"tetlap.dissection.cholesky"}


def test_hooked_names_exist():
    # the functions whose return values the trace counts
    for full in spans.HOOKS:
        modname, attr = full.rsplit(".", 1)
        module = importlib.import_module(modname)
        exists = callable(getattr(module, attr, None))
        assert exists == (full not in DELETED), full


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_at_smoke_sizes(name):
    runner = workloads.Runner(tetlap, spans.Tracer(), seconds=1.0, seed=0)
    workloads.WORKLOADS[name](runner, workloads.SMOKE)
    assert runner.record.errors == []
    assert runner.record.requests
    assert all(request.ok for request in runner.record.requests)
