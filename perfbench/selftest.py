"""Self-test of the benchmark, on tiny meshes (a few seconds of work).

    python3 perfbench/run.py --selftest

1. Every workload, untraced and traced, prints as its last line a result
   with exactly the keys correct, attempted, failed and metrics, carrying
   every metric named in BENCHMARK.json with its unit.
2. The independent checker accepts tetlap's answers and counts deliberately
   perturbed ones as failed, for each kind of check the workloads use.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np

import tetlap
from check import Checker
from run import HERE, ROOT
from workloads import EPS, SMOKE, ring_chunks


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_printed_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in config["end_to_end"]},
              1: {m["name"]: m["unit"] for m in config["per_layer"]}}
    for w in config["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            expect(proc.returncode == 0,
                   f"{w['name']} trace {trace} exited {proc.returncode}: "
                   f"{proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w['name']} trace {trace}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{w['name']} trace {trace} metrics differ: "
                   f"missing {sorted(set(wanted[trace]) - set(got))}, "
                   f"extra {sorted(set(got) - set(wanted[trace]))}, "
                   f"units {got}")
            expect(all(math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{w['name']} trace {trace}: non-finite metric")
            print(f"selftest: {w['name']} trace {trace}: "
                  f"{len(got)} metrics with units")


def perturbed(x, rng, size=1e-3):
    d = rng.standard_normal(len(x))
    return x + size * np.linalg.norm(x) * d / np.linalg.norm(d)


def check_checker():
    rng = np.random.default_rng(3)
    relaxed = tetlap.HollowingConfig(min_shell_width=2,
                                     min_component_separation=2)

    # the independent L1 is the package's L1 (compared on a separate mesh)
    c = tetlap.gen_grid(tetlap.GridSpec((SMOKE.box,) * 3))
    chk = Checker(c)
    expect(abs(chk.lap1 - c.lap1()).max() < 1e-12, "independent L1 differs")

    c = tetlap.gen_grid(tetlap.GridSpec((SMOKE.box,) * 3))
    h = tetlap.find_hollowing(c, c.num_simplexes ** 0.6, relaxed)
    state = tetlap.build_one_lap_solver(c, h)
    chk = Checker(c)
    b = rng.standard_normal(c.num_edges)
    x = tetlap.one_lap_solve(c, h, b, EPS, state=state)[0]
    expect(chk.solve_residual(x, b) <= EPS, "box solve rejected")
    expect(chk.solve_residual(perturbed(x, rng), b) > EPS,
           "perturbed box solve accepted")
    f = rng.standard_normal(c.num_edges)
    g, curl, harm = tetlap.hodge_decompose(c, h, f, EPS, state=state)
    expect(chk.hodge_error(f, (g, curl, harm), EPS) <= 1.0, "Hodge split rejected")
    shift = 1e-3 * np.linalg.norm(g) * curl / np.linalg.norm(curl)
    for name, parts in (("moved", (g + shift, curl - shift, harm)),
                        ("swapped", (curl, g, harm)),
                        ("trivial", (0 * f, 0 * f, f))):
        expect(chk.hodge_error(f, parts, EPS) > 1.0,
               f"{name} Hodge split accepted")
    print("selftest: box checks accept the solver and reject perturbations")

    chunks, groups = ring_chunks(tetlap, SMOKE.ring_chunk)
    hs = [tetlap.find_hollowing(ch, ch.num_simplexes ** 0.6, relaxed)
          for ch in chunks]
    u = tetlap.glue(chunks, groups, hs)
    state = tetlap.build_union_solver(u)
    chk = Checker(u.complex, harmonic=True)
    # a ring of boxes is a solid torus: b0 = b1 = 1, b2 = b3 = 0, so its
    # Euler characteristic V - E + F - T is 0
    euler = (u.complex.num_vertices - u.complex.num_edges
             + u.complex.num_triangles - u.complex.num_tets)
    expect(chk.b1 == 1 and euler == 0,
           f"harmonic basis has dimension {chk.b1} (Euler characteristic "
           f"{euler}); a solid torus has b1 = 1")
    b = rng.standard_normal(u.complex.num_edges)
    x = tetlap.union_one_lap_solve(u, b, EPS, state=state)[0]
    expect(chk.solve_residual(x, b) <= EPS, "ring solve rejected")
    expect(chk.solve_residual(perturbed(x, rng), b) > EPS,
           "perturbed ring solve accepted")
    unprojected = np.linalg.norm(chk.lap1 @ x - b) / np.linalg.norm(b)
    expect(unprojected > EPS, "ring check would pass without projecting P1")
    print(f"selftest: ring checks (b1 = {chk.b1}) accept the solver and "
          "reject perturbations")

    c = tetlap.gen_grid(tetlap.GridSpec((SMOKE.sphere,) * 3))
    h = tetlap.sphere_hollowing(c, c.num_simplexes ** 0.6, relaxed)
    state = tetlap.build_sphere_fast_solver(c, h)
    chk = Checker(c)
    b = chk.lap_up @ rng.standard_normal(c.num_edges)
    x = tetlap.up_lap_solve_fast(c, h, b, EPS, state=state)[0]
    expect(chk.up_residual(x, b) <= EPS, "sphere up-solve rejected")
    expect(chk.up_residual(perturbed(x, rng), b) > EPS,
           "perturbed sphere up-solve accepted")
    print("selftest: sphere checks accept the solver and reject perturbations")


def main():
    check_checker()
    check_printed_metrics()
    print("selftest: ok")
