"""Command-line front end: mesh generation, validation, hollowing, solving,
Hodge splits, glued unions, and scaling benchmarks.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 numerical
failure, 4 unsupported geometry.  All interchange is JSON (CSV for bench
tables); vectors are flat arrays over the documented lexicographic simplex
order of the mesh file, so runs are reproducible byte for byte given
--seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from .complexes import load_complex, save_complex, validate
from .errors import NumericalError, UnsupportedGeometryError, check_vector
from .hollowing import (
    HollowingConfig,
    find_hollowing,
    load_hollowing,
    save_hollowing,
    sphere_hollowing,
    surface_hollowing,
    validate_hollowing,
)
from .meshgen import GridSpec, gen_grid, mesh_stats
from .onelap import build_one_lap_solver, glue, hodge_decompose, one_lap_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_GEOMETRY = 4


def _load_vector(path, n, what="vector"):
    with open(path) as f:
        data = json.load(f)
    values = data["values"] if isinstance(data, dict) else data
    return check_vector(values, n, what)


def _save_vector(path, vec):
    with open(path, "w") as f:
        json.dump({"values": np.asarray(vec).tolist()}, f)


def _hollowing_config(args) -> HollowingConfig:
    return HollowingConfig(min_shell_width=args.shell_width,
                           min_component_separation=args.separation)


def cmd_gen(args) -> int:
    with open(args.spec) as f:
        spec = GridSpec.from_dict(json.load(f))
    mesh = gen_grid(spec)
    save_complex(mesh, args.out)
    print(f"wrote {args.out}: {mesh.num_simplexes} simplexes "
          f"{mesh.simplex_counts()}")
    return EXIT_OK


def cmd_validate(args) -> int:
    mesh = load_complex(args.mesh)
    violations = validate(mesh)
    stats = mesh_stats(mesh)
    print(json.dumps({"violations": violations, "stats": stats.to_dict()},
                     indent=2))
    return EXIT_OK if not violations else EXIT_VALIDATION


def cmd_hollow(args) -> int:
    mesh = load_complex(args.mesh)
    config = _hollowing_config(args)
    if args.sphere:
        holl = sphere_hollowing(mesh, args.r, config)
    elif args.surface:
        holl = surface_hollowing(mesh, args.r)
    else:
        holl = find_hollowing(mesh, args.r, config)
    violations = validate_hollowing(mesh, holl, config)
    save_hollowing(holl, args.out)
    print(f"wrote {args.out}: {holl.num_regions} regions, "
          f"{len(holl.boundary_edges)} boundary edges")
    if violations:
        print("violations: " + "; ".join(violations))
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_solve(args) -> int:
    mesh = load_complex(args.mesh)
    holl = load_hollowing(args.holl)
    b = _load_vector(args.b, mesh.num_edges, "right-hand side")
    t0 = time.perf_counter()
    x, report = one_lap_solve(mesh, holl, b, args.eps)
    report.timings["solve"] = time.perf_counter() - t0
    _save_vector(args.out, x)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report.to_json(indent=2))
    print(f"solved: residual {report.final_residual:.3e} "
          f"(target scale {args.eps:.1e}), {report.iterations} inner iterations")
    return EXIT_OK


def cmd_hodge(args) -> int:
    mesh = load_complex(args.mesh)
    holl = load_hollowing(args.holl)
    f_vec = _load_vector(args.f, mesh.num_edges, "1-chain")
    gradient, curl, harmonic = hodge_decompose(mesh, holl, f_vec, args.eps)
    with open(args.out, "w") as out:
        json.dump({"gradient": gradient.tolist(),
                   "curl": curl.tolist(),
                   "harmonic": harmonic.tolist()}, out)
    print(f"decomposed: |gradient| {np.linalg.norm(gradient):.4e}, "
          f"|curl| {np.linalg.norm(curl):.4e}, "
          f"|harmonic| {np.linalg.norm(harmonic):.4e}")
    return EXIT_OK


def cmd_union_solve(args) -> int:
    with open(args.union) as f:
        union_spec = json.load(f)
    chunks = [load_complex(p) for p in union_spec["chunks"]]
    holls = [load_hollowing(p) for p in union_spec["hollowings"]]
    identify = [[(int(c), int(v)) for c, v in group]
                for group in union_spec.get("identify", [])]
    u = glue(chunks, identify, holls)
    b = _load_vector(args.b, u.complex.num_edges, "right-hand side")
    x, report = one_lap_solve(u.complex, u.hollowing, b, args.eps)
    _save_vector(args.out, x)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report.to_json(indent=2))
    print(f"solved union of {len(chunks)} chunks: residual "
          f"{report.final_residual:.3e}")
    return EXIT_OK


def cmd_bench(args) -> int:
    """One CSV row per size that meets the contract; a size whose build or
    solve raises NumericalError is named on stderr, and the exit is 3."""
    if args.family != "grid":
        raise ValueError(f"unknown bench family {args.family!r}")
    sizes = [int(s) for s in args.sizes.split(",")]
    rng = np.random.default_rng(args.seed)
    rows, code = [], EXIT_OK
    for k in sizes:
        try:
            rows.append(_bench_row(args, k, rng))
        except NumericalError as exc:
            print(f"numerical failure at k={k}: {exc}", file=sys.stderr)
            code = EXIT_NUMERICAL
    if rows:
        with open(args.out, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return code


def _bench_row(args, k, rng) -> dict:
    mesh = gen_grid(GridSpec((k, k, k)))
    n = mesh.num_simplexes
    r = float(n) ** 0.6 if args.r_rule == "n35" else float(args.r_rule)
    t0 = time.perf_counter()
    holl = find_hollowing(mesh, r, _hollowing_config(args))
    state = build_one_lap_solver(mesh, holl)
    t_pre = time.perf_counter() - t0
    b = rng.standard_normal(mesh.num_edges)
    t0 = time.perf_counter()
    x, report = one_lap_solve(mesh, holl, b, args.eps, state=state)
    t_solve = time.perf_counter() - t0
    schur_iters = 0
    if "up_solve" in report.stages:
        schur_iters = report.stages["up_solve"].stages.get(
            "schur", report.stages["up_solve"]).iterations
    up, wall = state.up_state, state.up_state.wall
    print(f"k={k}: n={n} r={r:.0f} pre={t_pre:.2f}s solve={t_solve:.2f}s "
          f"schur_iters={schur_iters}")
    return {
        "n": n, "r": r, "t_preprocess": t_pre, "t_solve": t_solve,
        "pcg_iters_schur": schur_iters,
        "regions": holl.num_regions, "b1": state.harmonic.shape[1],
        "probes": state.probes, "eps": args.eps,
        "final_residual": report.final_residual,
        "wall_mb": wall.nbytes / 1e6 if wall is not None else 0.0,
        # a Schur iteration solves through the interface rows' fronts
        "interior_rows": len(up.f_all), "iface_rows": len(up.iface),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetlap",
        description="1-Laplacian solvers for well-shaped tetrahedral complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a grid mesh from a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="structural checks on a mesh file")
    p.add_argument("--mesh", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hollow", help="compute a hollowing of a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--sphere", action="store_true",
                   help="surface walls instead of thick shells")
    p.add_argument("--surface", action="store_true",
                   help="single region bounded by the mesh surface")
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_hollow)

    p = sub.add_parser("solve", help="solve a 1-Laplacian system")
    p.add_argument("--mesh", required=True)
    p.add_argument("--holl", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hodge", help="gradient/curl/harmonic split")
    p.add_argument("--mesh", required=True)
    p.add_argument("--holl", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("union-solve", help="solve on glued chunks")
    p.add_argument("--union", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_union_solve)

    p = sub.add_parser("bench", help="scaling benchmark on grid meshes")
    p.add_argument("--family", default="grid")
    p.add_argument("--sizes", required=True, help="comma-separated grid sizes")
    p.add_argument("--r-rule", default="n35",
                   help="'n35' for r = n^(3/5), or an explicit number")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_bench)

    return parser


def _add_config_args(p) -> None:
    p.add_argument("--shell-width", type=int, default=5,
                   help="required wall width in triangle hops")
    p.add_argument("--separation", type=int, default=5,
                   help="required triangle distance between holes")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedGeometryError as exc:
        print(f"unsupported geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
