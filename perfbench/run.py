"""tetlap benchmark: end-to-end solve and setup times, and a per-layer trace.

    python3 perfbench/run.py --workload box-stream --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py                 # every workload, untraced and traced
    python3 perfbench/run.py --selftest      # tiny sizes; checks the checker

One workload runs per process.  The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  Lines
before it carry the environment stamp and the figures that are not bounded
metrics (hodge_s, failed_frac, sample counts, tail percentiles).  The full
result goes to perfbench/out/, and a traced run writes its spans there too.

The package is imported from the checkout's `src/` and nowhere else; BLAS
threads are left at the library default and recorded, never set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# (name, unit, operation kind the per-operation values are a median over,
#  how the per-operation value is taken from the spans)
LAYER_METRICS = [
    ("meshgen.gen_s", "s", "meshgen", ("op",)),
    ("hollowing.s", "s", "setup", ("incl", "bench.hollowing")),
    ("hollowing.regions", "count", None, ("info", "regions")),
    ("hollowing.wall_edges", "count", None, ("info", "wall_edges")),
    ("hollowing.wall_triangles", "count", None, ("info", "wall_triangles")),
    ("complexes.assembly_s", "s", "setup", ("layer", "complexes")),
    ("dissection.nd_ordering_s", "s", "setup", ("incl", "dissection.nd_ordering")),
    ("dissection.cholesky_s", "s", "setup", ("incl", "dissection.cholesky")),
    ("dissection.factor_solve_s", "s", "solve",
     ("incl", "dissection.solve_with_factor")),
    ("dissection.factor_solve_calls", "count", "solve",
     ("calls", "dissection.solve_with_factor")),
    ("dissection.factor_solve_cols", "count", "solve",
     ("counter", "dissection.factor_solve_cols")),
    ("dissection.factors", "count", "setup", ("counter", "dissection.factors")),
    ("dissection.fronts", "count", "setup", ("counter", "dissection.fronts")),
    ("dissection.skipped_pivots", "count", "setup",
     ("counter", "dissection.skipped_pivots")),
    ("dissection.L_nnz", "count", "setup", ("counter", "dissection.L_nnz")),
    ("upproj.project_s", "s", "solve", ("incl", "upproj.up_project")),
    ("upproj.project_calls", "count", "solve", ("calls", "upproj.up_project")),
    ("upproj.tri_schur_iters", "count", "solve", ("counter", "pcg.iters.tri_schur")),
    ("upproj.build_self_s", "s", "setup",
     ("self", "upproj.build_up_projection", "upproj.build_union_proj_state")),
    ("uplap.up_solve_s", "s", "solve", ("incl", "uplap._up_solve_with_state")),
    ("uplap.schur_iters", "count", "solve", ("counter", "pcg.iters.schur")),
    ("uplap.build_self_s", "s", "setup",
     ("self", "uplap.build_up_solver", "uplap.build_sphere_fast_solver",
      "uplap.build_union_up_solver")),
    ("downlap.projection_s", "s", "solve", ("incl", "downlap.down_projection")),
    ("downlap.projection_iters", "count", "solve",
     ("counter", "pcg.iters.down_projection")),
    ("downlap.projection_fallbacks", "count", "total",
     ("counter", "downlap.projection_fallbacks")),
    ("downlap.solve_s", "s", "solve", ("incl", "downlap.down_lap_solve")),
    ("pcg.self_s", "s", "solve", ("self", "pcg.pcg")),
    ("pcg.cond_est_s", "s", "setup", ("incl", "pcg.estimate_rel_condition")),
    ("onelap.self_s", "s", "solve", ("self", "op.solve")),
    ("onelap.first_op_s", "s", None, ("first_op",)),
    ("onelap.max_rel_residual", "ratio", None, ("max_residual",)),
]


def import_tetlap():
    """Import tetlap from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "tetlap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tetlap sources under {src}")
    sys.path.insert(0, str(src))
    import tetlap
    if Path(tetlap.__file__).resolve().parent != (src / "tetlap").resolve():
        sys.exit(f"perfbench: imported tetlap from {tetlap.__file__}, "
                 f"not from {src}")
    return tetlap


# -- environment stamp --------------------------------------------------

def _loaded_libraries(words):
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "/" in line}
    except OSError:
        return []
    return sorted(p for p in paths if any(w in Path(p).name.lower() for w in words))


def blas_stamp():
    """Every loaded OpenBLAS with its config and effective thread count."""
    import ctypes
    out = []
    for path in _loaded_libraries(("openblas", "mkl_rt", "blis")):
        entry = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode(errors="replace").strip()
        out.append(entry)
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_stamp(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# -- metrics --------------------------------------------------------------

def median(values):
    return float(np.median(values)) if len(values) else 0.0


def tail(values):
    """(q, value) of the highest percentile with >= 10 samples beyond it,
    or None when the run has too few samples for one above the median."""
    n = len(values)
    q = math.floor(100 * (1 - 10 / n)) if n else 0
    if q <= 50:
        return None
    return q, float(np.percentile(values, q))


def timing_summary(name, values):
    out = {name: median(values), f"{name}_n": len(values)}
    t = tail(values)
    if t is not None:
        out[f"{name}_p{t[0]}"] = t[1]
    return out


def end_to_end(rec):
    solves = [r.seconds for r in rec.requests if r.kind == "solve"]
    hodges = [r.seconds for r in rec.requests if r.kind == "hodge"]
    attempted = len(rec.requests)
    failed = sum(not r.ok for r in rec.requests)
    metrics = {
        "setup_s": {"value": median(rec.setups), "unit": "s"},
        "solve_s": {"value": median(solves), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0, "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed / max(attempted, 1), "unit": "frac"},
    }
    extra = {"failed_frac": failed / max(attempted, 1)}
    extra.update(timing_summary("setup_s", rec.setups))
    extra.update(timing_summary("solve_s", solves))
    if hodges:
        extra.update(timing_summary("hodge_s", hodges))
    extra["first_op_s"] = median([r.seconds for r in rec.requests if r.first])
    return attempted, failed, metrics, extra


def per_layer(rec, tracer, first_op_s):
    dur, self_time = tracer.arrays()
    names = tracer.names
    kinds = np.asarray(tracer.op_kinds)
    nested_name = np.asarray(tracer.nested_name, dtype=bool)
    nested_layer = np.asarray(tracer.nested_layer, dtype=bool)
    op_dur = np.zeros(len(kinds))
    for op, idx in enumerate(tracer.op_span):
        op_dur[op] = tracer.duration(idx)

    def values(how):
        kind = how[0]
        if kind == "op":
            return op_dur
        if kind == "incl":
            return tracer.per_op(dur, tracer.name_mask(how[1:]) & ~nested_name)
        if kind == "layer":
            mask = np.fromiter((n.split(".", 1)[0] == how[1] for n in names),
                               dtype=bool, count=len(names))
            return tracer.per_op(dur, mask & ~nested_layer)
        if kind == "self":
            return tracer.per_op(self_time, tracer.name_mask(how[1:]))
        if kind == "calls":
            return tracer.per_op(np.ones(len(names)), tracer.name_mask(how[1:]))
        per_op = np.zeros(len(kinds))
        for op, v in tracer.counters.get(how[1], {}).items():
            if op >= 0:
                per_op[op] = v
        return per_op

    metrics = {}
    for name, unit, op_kind, how in LAYER_METRICS:
        if how[0] == "info":
            value = float(rec.info.get(how[1], 0))
        elif how[0] == "first_op":
            value = first_op_s
        elif how[0] == "max_residual":
            # requests that raised carry no residual; `failed` counts them
            value = max((r.error for r in rec.requests
                         if r.kind != "hodge" and math.isfinite(r.error)),
                        default=0.0)
        elif op_kind == "total":
            value = float(values(how).sum())
        else:
            value = median(values(how)[kinds == op_kind])
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def self_time_breakdown(tracer, top=8):
    """Self time per span name, summed over each operation kind, as a share
    of that kind's total operation time."""
    _, self_time = tracer.arrays()
    ops = np.asarray(tracer.op_of)
    kinds = tracer.op_kinds
    out = {}
    for kind in sorted(set(kinds)):
        total = sum(tracer.duration(tracer.op_span[i])
                    for i, k in enumerate(kinds) if k == kind)
        sums = {}
        for i, name in enumerate(tracer.names):
            if ops[i] >= 0 and kinds[ops[i]] == kind:
                sums[name] = sums.get(name, 0.0) + self_time[i]
        ranked = sorted(sums.items(), key=lambda kv: -kv[1])[:top]
        out[kind] = {n: round(v / total, 4) for n, v in ranked if total > 0}
    return out


# -- one workload ------------------------------------------------------------

def run_workload(args):
    tetlap = import_tetlap()
    import spans
    import workloads

    tracer = spans.Tracer()
    if args.trace:
        bound = spans.install(tracer)
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    runner = workloads.Runner(tetlap, tracer, args.seconds, args.seed)
    workloads.WORKLOADS[args.workload](runner, sizes)
    rec = runner.record

    attempted, failed, e2e, extra = end_to_end(rec)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": env, "mesh": rec.info,
              "end_to_end": e2e, "summary": extra, "errors": rec.errors[:20],
              "setups": rec.setups,
              "requests": [[r.kind, r.seconds, r.first, r.error]
                           for r in rec.requests]}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layer = per_layer(rec, tracer, extra["first_op_s"])
        result.update(per_layer=layer, traced_bindings=bound,
                      untraced=tracer.untraced,
                      self_time_share=self_time_breakdown(tracer))
        tracer.write(OUT / f"{stem}-spans.json")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print("mesh " + json.dumps(rec.info))
    print("summary " + json.dumps(extra))
    for err in rec.errors[:20]:
        print("error " + err)
    if args.trace:
        print("self_time_share " + json.dumps(result["self_time_share"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": result["per_layer"] if args.trace else e2e}))


# -- every workload, untraced and traced ------------------------------------

def run_all(args, config):
    seconds = args.seconds
    rows = {}
    for w in config["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"perfbench: {name} (trace {trace}) failed")
            stem = f"{name}-seed{args.seed}-trace{trace}"
            rows[(name, trace)] = json.loads((OUT / f"{stem}.json").read_text())

    print(f"{'workload':14} {'setup_s':>9} {'solve_s':>9} {'hodge_s':>9} "
          f"{'peak_rss_mb':>11} {'failed_frac':>11} {'trace_ovh_s':>11}")
    table = {}
    for w in config["workloads"]:
        name = w["name"]
        plain, traced = rows[(name, 0)], rows[(name, 1)]
        e2e, extra = plain["end_to_end"], plain["summary"]
        t_e2e = traced["end_to_end"]
        # tracing overhead: traced minus untraced end-to-end time, per request
        overhead = {k: t_e2e[k]["value"] - e2e[k]["value"]
                    for k in ("setup_s", "solve_s")}
        hodge = extra.get("hodge_s")
        print(f"{name:14} {e2e['setup_s']['value']:9.3f} "
              f"{e2e['solve_s']['value']:9.3f} "
              f"{hodge if hodge is not None else float('nan'):9.3f} "
              f"{e2e['peak_rss_mb']['value']:11.1f} "
              f"{extra['failed_frac']:11.3f} {overhead['solve_s']:11.3f}")
        table[name] = {"end_to_end": e2e, "summary": extra,
                       "mesh": plain["mesh"],
                       "trace_overhead_s": overhead,
                       "per_layer": traced["per_layer"],
                       "self_time_share": traced["self_time_share"]}
    result = {"seconds": seconds, "seed": args.seed,
              "environment": rows[(config["workloads"][0]["name"], 0)]
              ["environment"], "workloads": table}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny meshes, for the self-test")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", help="with no --workload: write the table here")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = config["run_seconds"]

    if args.selftest:
        import_tetlap()
        import selftest
        selftest.main()
        return
    if args.workload is None:
        run_all(args, config)
        return
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    run_workload(args)


if __name__ == "__main__":
    main()
