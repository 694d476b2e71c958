import os
import re
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "answer_digests.py")


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
