import csv
import json

import numpy as np
import pytest

from tetlap import cli
from tetlap.cli import main
from tetlap.complexes import load_complex
from tetlap.errors import missed_contract
from tetlap.meshgen import GridSpec, gen_grid
from tetlap.oracle import projection


@pytest.fixture
def grid_files(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dims": [4, 4, 4], "holes": []}))
    mesh = tmp_path / "mesh.json"
    assert main(["gen", "--spec", str(spec), "--out", str(mesh)]) == 0
    holl = tmp_path / "holl.json"
    assert main(["hollow", "--mesh", str(mesh), "--r", "48",
                 "--out", str(holl), "--shell-width", "2",
                 "--separation", "2"]) == 0
    return mesh, holl


def test_gen_round_trip(tmp_path, grid_files):
    mesh_path, _ = grid_files
    mesh = load_complex(mesh_path)
    reference = gen_grid(GridSpec((4, 4, 4)))
    assert np.array_equal(mesh.tets, reference.tets)
    assert np.array_equal(mesh.vertices, reference.vertices)
    assert np.array_equal(mesh.edges, reference.edges)


def test_validate_ok_and_failure(tmp_path, grid_files, capsys):
    mesh_path, _ = grid_files
    assert main(["validate", "--mesh", str(mesh_path)]) == 0
    bad = tmp_path / "bad.json"
    data = json.loads(mesh_path.read_text())
    data["weights"] = {"w0": [0.0] * len(data["vertices"])}
    bad.write_text(json.dumps(data))
    assert main(["validate", "--mesh", str(bad)]) == 1  # rejected at load


def test_usage_errors():
    assert main(["solve", "--mesh", "missing.json", "--holl", "x",
                 "--b", "y", "--out", "z"]) == 1
    assert main(["nonsense"]) == 1


def test_unsupported_geometry_exit_code(tmp_path, grid_files):
    mesh_path, _ = grid_files
    out = tmp_path / "h2.json"
    # walls cannot reach width 5 on a 4-cell grid
    code = main(["hollow", "--mesh", str(mesh_path), "--r", "48",
                 "--out", str(out), "--shell-width", "5"])
    assert code == 4


def test_solve_and_hodge_on_a_sphere_hollowing(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dims": [6, 6, 6], "holes": []}))
    mesh_path = tmp_path / "mesh.json"
    assert main(["gen", "--spec", str(spec), "--out", str(mesh_path)]) == 0
    holl = tmp_path / "holl.json"
    assert main(["hollow", "--mesh", str(mesh_path), "--r", "256", "--sphere",
                 "--out", str(holl)]) == 0
    mesh = load_complex(mesh_path)
    b = np.random.default_rng(5).standard_normal(mesh.num_edges)
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps({"values": b.tolist()}))
    x_path, rep_path = tmp_path / "x.json", tmp_path / "rep.json"
    assert main(["solve", "--mesh", str(mesh_path), "--holl", str(holl),
                 "--b", str(b_path), "--eps", "1e-6", "--out", str(x_path),
                 "--report", str(rep_path)]) == 0
    x = np.asarray(json.loads(x_path.read_text())["values"])
    assert json.loads(rep_path.read_text())["converged"]
    lap1 = mesh.lap1().toarray()
    pi_b = projection(lap1) @ b
    assert np.linalg.norm(lap1 @ x - pi_b) <= 1e-6 * np.linalg.norm(pi_b)

    out = tmp_path / "parts.json"
    assert main(["hodge", "--mesh", str(mesh_path), "--holl", str(holl),
                 "--f", str(b_path), "--eps", "1e-6", "--out", str(out)]) == 0
    parts = {k: np.asarray(v) for k, v in json.loads(out.read_text()).items()}
    for name, lap in (("gradient", mesh.lap_down(1)), ("curl", mesh.lap_up(1))):
        want = projection(lap.toarray()) @ b
        assert np.linalg.norm(parts[name] - want) <= 1e-6 * np.linalg.norm(want)
    assert np.linalg.norm(parts["harmonic"]) <= 1e-9 * np.linalg.norm(b)


def test_sphere_hollowing_of_a_tunnel_mesh_is_unsupported(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dims": [6, 6, 6], "holes": [
        {"lo": [2, 2, 0], "size": [1, 1, 6], "kind": "tunnel"}]}))
    mesh_path = tmp_path / "mesh.json"
    assert main(["gen", "--spec", str(spec), "--out", str(mesh_path)]) == 0
    code = main(["hollow", "--mesh", str(mesh_path), "--r", "64", "--sphere",
                 "--out", str(tmp_path / "holl.json")])
    assert code == 4
    assert "Euler characteristic 1, not 2" in capsys.readouterr().err


def test_solve_names_a_sphere_hollowing_without_discs(tmp_path, grid_files,
                                                       capsys):
    # a hand-written sphere hollowing file with no tri_disc field
    mesh_path, _ = grid_files
    holl = tmp_path / "sphere.json"
    assert main(["hollow", "--mesh", str(mesh_path), "--r", "48", "--sphere",
                 "--out", str(holl)]) == 0
    data = json.loads(holl.read_text())
    del data["tri_disc"]
    holl.write_text(json.dumps(data))
    b_path, _ = write_rhs(tmp_path, mesh_path)
    capsys.readouterr()
    code = main(["solve", "--mesh", str(mesh_path), "--holl", str(holl),
                 "--b", str(b_path), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "tri_disc" in capsys.readouterr().err


def test_solve_meets_reported_contract(tmp_path, grid_files):
    mesh_path, holl_path = grid_files
    mesh = load_complex(mesh_path)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(mesh.num_edges)
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps({"values": b.tolist()}))
    x_path = tmp_path / "x.json"
    rep_path = tmp_path / "rep.json"
    code = main(["solve", "--mesh", str(mesh_path), "--holl", str(holl_path),
                 "--b", str(b_path), "--eps", "1e-6",
                 "--out", str(x_path), "--report", str(rep_path)])
    assert code == 0
    x = np.asarray(json.loads(x_path.read_text())["values"])
    report = json.loads(rep_path.read_text())
    lap1 = mesh.lap1().toarray()
    pi_b = projection(lap1) @ b
    resid = np.linalg.norm(lap1 @ x - pi_b)
    assert resid <= 1e-6 * np.linalg.norm(pi_b)
    # the embedded residual was recomputed from the returned vector and
    # meets the contract against the solver's own projected rhs
    assert report["final_residual"] <= 1e-6 * report["initial_residual"]


def write_rhs(tmp_path, mesh_path, value=1.0):
    n = load_complex(mesh_path).num_edges
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps({"values": [1.0] * (n - 1) + [value]}))
    return b_path, n


@pytest.mark.parametrize("command", ["solve", "union-solve"])
def test_missed_contract_exits_3(tmp_path, grid_files, monkeypatch, capsys,
                                 command):
    mesh_path, holl_path = grid_files
    b_path, n = write_rhs(tmp_path, mesh_path)

    def missed(*args, **kwargs):
        raise missed_contract("1-Laplacian solve", 0.5, "eps * |P1 b|", 1e-6,
                              1e-6, "|L1|_1", 1e-15, "also with the up solve")
    monkeypatch.setattr(cli, "one_lap_solve", missed)
    union = tmp_path / "union.json"
    union.write_text(json.dumps({"chunks": [str(mesh_path)],
                                 "hollowings": [str(holl_path)],
                                 "identify": []}))
    where = (["--mesh", str(mesh_path), "--holl", str(holl_path)]
             if command == "solve" else ["--union", str(union)])
    code = main([command, *where, "--b", str(b_path),
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert "residual 5.000e-01" in capsys.readouterr().err


def test_non_finite_rhs_is_a_usage_error(tmp_path, grid_files, capsys):
    mesh_path, holl_path = grid_files
    b_path, _ = write_rhs(tmp_path, mesh_path, value=float("nan"))
    code = main(["solve", "--mesh", str(mesh_path), "--holl", str(holl_path),
                 "--b", str(b_path), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "right-hand side has non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "hodge", "union-solve"])
def test_invalid_eps_is_a_usage_error(tmp_path, grid_files, capsys, command):
    mesh_path, holl_path = grid_files
    b_path, _ = write_rhs(tmp_path, mesh_path)
    union = tmp_path / "union.json"
    union.write_text(json.dumps({"chunks": [str(mesh_path)],
                                 "hollowings": [str(holl_path)],
                                 "identify": []}))
    where = (["--union", str(union)] if command == "union-solve"
             else ["--mesh", str(mesh_path), "--holl", str(holl_path)])
    rhs = "--f" if command == "hodge" else "--b"
    code = main([command, *where, rhs, str(b_path), "--eps", "0",
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "eps must be finite and positive" in capsys.readouterr().err


def test_solve_on_mislabelled_hollowing_is_a_usage_error(tmp_path, grid_files,
                                                        capsys):
    mesh_path, holl_path = grid_files
    data = json.loads(holl_path.read_text())
    interior = [i for i, k in enumerate(data["edge_class"]) if k >= 0]
    data["edge_class"][interior[0]] = data["num_regions"] + 3
    bad = tmp_path / "bad_holl.json"
    bad.write_text(json.dumps(data))
    b_path, _ = write_rhs(tmp_path, mesh_path)
    code = main(["solve", "--mesh", str(mesh_path), "--holl", str(bad),
                 "--b", str(b_path), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "hollowing edge_class has class" in capsys.readouterr().err


def test_hodge_command(tmp_path, grid_files):
    mesh_path, holl_path = grid_files
    mesh = load_complex(mesh_path)
    f = mesh.boundary(1).T.astype(float) @ np.arange(mesh.num_vertices, dtype=float)
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"values": f.tolist()}))
    out = tmp_path / "parts.json"
    assert main(["hodge", "--mesh", str(mesh_path), "--holl", str(holl_path),
                 "--f", str(f_path), "--eps", "1e-6", "--out", str(out)]) == 0
    parts = json.loads(out.read_text())
    grad = np.asarray(parts["gradient"])
    assert np.linalg.norm(grad - f) <= 1e-5 * np.linalg.norm(f)
    assert np.linalg.norm(np.asarray(parts["curl"])) <= 1e-5 * np.linalg.norm(f)


def test_union_solve_command(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dims": [3, 3, 3], "holes": []}))
    m0, m1 = tmp_path / "m0.json", tmp_path / "m1.json"
    assert main(["gen", "--spec", str(spec), "--out", str(m0)]) == 0
    assert main(["gen", "--spec", str(spec), "--out", str(m1)]) == 0
    h0, h1 = tmp_path / "h0.json", tmp_path / "h1.json"
    assert main(["hollow", "--mesh", str(m0), "--r", "27", "--surface",
                 "--out", str(h0)]) == 0
    assert main(["hollow", "--mesh", str(m1), "--r", "27", "--surface",
                 "--out", str(h1)]) == 0

    c0 = load_complex(m0)
    c1 = load_complex(m1)
    groups = []
    lookup = {}
    for v in np.flatnonzero(np.isclose(c1.vertices[:, 0], 0.0)):
        lookup[tuple(np.round(c1.vertices[v, 1:], 9))] = int(v)
    for v in np.flatnonzero(np.isclose(c0.vertices[:, 0], 3.0)):
        key = tuple(np.round(c0.vertices[v, 1:], 9))
        groups.append([[0, int(v)], [1, lookup[key]]])
    union = tmp_path / "union.json"
    union.write_text(json.dumps({
        "chunks": [str(m0), str(m1)],
        "hollowings": [str(h0), str(h1)],
        "identify": groups,
    }))

    from tetlap.onelap import glue
    from tetlap.hollowing import load_hollowing
    u = glue([c0, c1], [[(int(a[0]), int(a[1])) for a in g] for g in groups],
             [load_hollowing(h0), load_hollowing(h1)])
    rng = np.random.default_rng(9)
    b = rng.standard_normal(u.complex.num_edges)
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps({"values": b.tolist()}))
    out = tmp_path / "x.json"
    assert main(["union-solve", "--union", str(union), "--b", str(b_path),
                 "--eps", "1e-6", "--out", str(out)]) == 0
    x = np.asarray(json.loads(out.read_text())["values"])
    lap1 = u.complex.lap1().toarray()
    pi_b = projection(lap1) @ b
    assert np.linalg.norm(lap1 @ x - pi_b) <= 1e-6 * np.linalg.norm(pi_b)


def test_bench_schema(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "4",
                 "--r-rule", "48", "--eps", "1e-5", "--seed", "3",
                 "--shell-width", "2", "--separation", "2",
                 "--out", str(out)])
    assert code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    for col in ("n", "r", "t_preprocess", "t_solve", "pcg_iters_schur"):
        assert col in rows[0]
    # a solid box: the factors' ranks give b1 = 0, so no probe runs
    assert rows[0]["b1"] == rows[0]["probes"] == "0"
    assert float(rows[0]["final_residual"]) <= 1e-5 * 1e3
    # the wall preconditioner's stored factor, in MB
    assert float(rows[0]["wall_mb"]) > 0
    # the interior rows a Schur iteration reads
    assert 0 <= int(rows[0]["iface_rows"]) <= int(rows[0]["interior_rows"])


def test_bench_missed_contract_exits_3(tmp_path, monkeypatch, capsys):
    # the k = 4 solve misses: its row is left out, the k = 3 row is written
    real = cli.one_lap_solve

    def missed_at_4(mesh, *args, **kwargs):
        if mesh.num_vertices == 5 ** 3:
            raise missed_contract("1-Laplacian solve", 0.5, "eps * |P1 b|",
                                  1e-6, 1e-6, "|L1|_1", 1e-15,
                                  "also with the up solve")
        return real(mesh, *args, **kwargs)
    monkeypatch.setattr(cli, "one_lap_solve", missed_at_4)
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "3,4", "--r-rule", "48",
                 "--shell-width", "2", "--separation", "2",
                 "--out", str(out)])
    assert code == 3
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [row["n"] for row in rows] == ["883"]
    assert ("numerical failure at k=4: 1-Laplacian solve missed its "
            "contract: residual 5.000e-01" in capsys.readouterr().err)
