import os
import re
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
SCRIPT = os.path.join(SCRIPTS, "answer_digests.py")


def test_answer_digests_name_every_answer_and_repeat():
    # one sha256 per answer, the same in two fresh processes
    runs = [subprocess.run([sys.executable, SCRIPT], capture_output=True,
                           text=True, timeout=600) for _ in range(2)]
    for out in runs:
        assert out.returncode == 0, out.stderr
    rows = [line.rsplit(" ", 1) for line in runs[0].stdout.splitlines()]
    assert [label for label, _ in rows] == [
        "box-stream x", "box-stream hodge", "ring-rebuild x",
        "ring-rebuild harmonic", "sphere-up x"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in rows)
    assert runs[1].stdout == runs[0].stdout


def test_factor_bytes_names_each_workloads_factors():
    # workload, factor, bytes, levels, level entries and root
    # pseudo-inverse bytes; the sphere reduced wall and the 1-skeleton
    # graph solver have no levels, a folded wall no root pseudo-inverses,
    # and sphere-up's state no L0 factor and no graph solver
    out = subprocess.run([sys.executable,
                          os.path.join(SCRIPTS, "factor_bytes.py")],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    assert [row[:2] for row in rows] == [
        [name, label] for name in ("box-stream", "ring-rebuild", "sphere-up")
        for label in ("wall", "interior", "L0", "graph")
        if name != "sphere-up" or label in ("wall", "interior")]
    for name, label, nbytes, levels, nnz, pinv in rows:
        assert int(nbytes) > 0
        if (name, label) == ("sphere-up", "wall") or label == "graph":
            assert levels == nnz == pinv == "-"
        else:
            assert int(levels) > 0 and int(nnz) >= 0
            if label == "wall":
                assert int(pinv) == 0
            else:
                assert 0 < int(pinv) < int(nbytes)
