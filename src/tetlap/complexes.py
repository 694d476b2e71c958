"""Oriented weighted pure 3-complexes and their boundary/Laplacian operators.

A complex stores tetrahedra over explicit 3D vertex coordinates; triangles
and edges are derived, deduplicated and kept in lexicographic order of their
ascending vertex tuples.  That ordering is the canonical row/column indexing
of every matrix built here, so solution vectors are reproducible across runs
and across processes.

Orientation convention: every stored simplex lists its vertices in ascending
index order.  The sign of an entry of a boundary matrix is then determined
solely by the position of the omitted vertex, alternating +,-,+,... starting
from the face that omits the last vertex... concretely column sigma of the
i-th operator holds (-1)^j at the face dropping the j-th vertex of sigma.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Complex3",
    "build_complex",
    "boundary_operator",
    "up_laplacian",
    "down_laplacian",
    "one_laplacian",
    "validate",
    "aspect_ratio",
    "min_enclosing_ball",
    "complex_to_dict",
    "complex_from_dict",
    "save_complex",
    "load_complex",
]


@dataclass
class Complex3:
    """A pure, oriented, weighted simplicial 3-complex embedded in R^3.

    Holds only arrays fixed by `build_complex`; every matrix is computed
    from them, and from the current weights, on each request.
    """

    vertices: np.ndarray          # (nv, 3) float
    tets: np.ndarray              # (nt, 4) int, each row ascending, rows lex-sorted
    triangles: np.ndarray         # (nf, 3) derived, lex-sorted
    edges: np.ndarray             # (ne, 2) derived, lex-sorted
    tri_edges: np.ndarray         # (nf, 3) edge ids, column j omits vertex j
    tet_tris: np.ndarray          # (nt, 4) triangle ids, column j omits vertex j
    tet_edges: np.ndarray         # (nt, 6) edge ids, vertex pairs 01 02 03 12 13 23
    weights: list[np.ndarray]     # [w0, w1, w2, w3], all > 0
    exterior_triangles: np.ndarray  # bool (nf,), True iff in exactly one tet
    exterior_edges: np.ndarray      # bool (ne,)
    exterior_vertices: np.ndarray   # bool (nv,)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_tets(self) -> int:
        return len(self.tets)

    @property
    def num_simplexes(self) -> int:
        return (self.num_vertices + self.num_edges
                + self.num_triangles + self.num_tets)

    def simplex_counts(self) -> tuple[int, int, int, int]:
        return (self.num_vertices, self.num_edges,
                self.num_triangles, self.num_tets)

    # -- index lookups ----------------------------------------------------

    def edge_ids(self, pairs: np.ndarray) -> np.ndarray:
        """Row indices in ``self.edges`` for ascending vertex pairs."""
        return _find_rows(self.edges, np.asarray(pairs), self.num_vertices)

    def triangle_ids(self, triples: np.ndarray) -> np.ndarray:
        """Row indices in ``self.triangles`` for ascending vertex triples."""
        return _find_rows(self.triangles, np.asarray(triples), self.num_vertices)

    # operators, computed on every call

    def boundary(self, i: int) -> sp.csc_matrix:
        return boundary_operator(self, i)

    def lap_up(self, i: int = 1) -> sp.csr_matrix:
        return up_laplacian(self, i)

    def lap_down(self, i: int = 1) -> sp.csr_matrix:
        return down_laplacian(self, i)

    def lap1(self) -> sp.csr_matrix:
        return one_laplacian(self)


def _encode_rows(rows: np.ndarray, base: int) -> np.ndarray:
    """Injective integer key for small fixed-width index rows."""
    rows = np.asarray(rows, dtype=np.int64)
    code = rows[:, 0].copy()
    for k in range(1, rows.shape[1]):
        code = code * base + rows[:, k]
    return code


def _find_rows(table: np.ndarray, query: np.ndarray, base: int) -> np.ndarray:
    """Positions of `query` rows inside lex-sorted `table` (must all exist)."""
    tcode = _encode_rows(table, base)
    qcode = _encode_rows(query, base)
    pos = np.searchsorted(tcode, qcode)
    if pos.size and (pos.max() >= len(tcode) or np.any(tcode[pos] != qcode)):
        raise KeyError("simplex not present in complex")
    return pos


def build_complex(tets, coords, weights=None) -> Complex3:
    """Build a pure 3-complex from tetrahedra over explicit coordinates.

    Faces are derived and deduplicated; missing weights default to 1.
    Rejects duplicate tetrahedra and tetrahedra with repeated vertices.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError("coords must be an (n, 3) array")
    tets = np.asarray(tets, dtype=np.int64)
    if tets.ndim != 2 or tets.shape[1] != 4:
        raise ValueError("tets must be an (m, 4) array")
    nv = len(coords)
    if tets.size and (tets.min() < 0 or tets.max() >= nv):
        raise ValueError("tetrahedron references an invalid vertex index")

    tets = np.sort(tets, axis=1)
    if np.any(tets[:, :-1] == tets[:, 1:]):
        bad = np.where(np.any(tets[:, :-1] == tets[:, 1:], axis=1))[0][0]
        raise ValueError(f"degenerate tetrahedron (repeated vertex) at input row {bad}")
    order = np.lexsort(tets.T[::-1])
    tets = tets[order]
    if len(tets) > 1 and np.any(np.all(tets[:-1] == tets[1:], axis=1)):
        raise ValueError("duplicate tetrahedron")

    # faces of every tet and every triangle, deduplicated; the inverse of
    # each deduplication is the table of face ids
    triangles, tet_tris, tri_counts = _faces(tets)
    edges, tri_edges, _ = _faces(triangles)
    tet_edges = np.stack([tri_edges[tet_tris[:, k], m]
                          for k, m in _TET_EDGE_SIDES], axis=1)

    # exterior classification: a triangle is exterior iff it bounds one tet
    exterior_tri = tri_counts == 1
    exterior_edge = np.zeros(len(edges), dtype=bool)
    exterior_edge[tri_edges[exterior_tri]] = True
    exterior_vert = np.zeros(nv, dtype=bool)
    exterior_vert[triangles[exterior_tri]] = True

    counts = (nv, len(edges), len(triangles), len(tets))
    w = []
    for dim in range(4):
        if weights is not None and weights.get(f"w{dim}") is not None:
            wd = np.asarray(weights[f"w{dim}"], dtype=float)
            if wd.shape != (counts[dim],):
                raise ValueError(
                    f"w{dim} has length {wd.shape[0]}, expected {counts[dim]}")
            if not np.all(np.isfinite(wd)):
                raise ValueError(f"w{dim} contains a non-finite weight")
            if np.any(wd <= 0):
                raise ValueError(f"w{dim} contains a nonpositive weight")
        else:
            wd = np.ones(counts[dim])
        w.append(wd)

    return Complex3(
        vertices=coords,
        tets=tets,
        triangles=triangles,
        edges=edges,
        tri_edges=tri_edges,
        tet_tris=tet_tris,
        tet_edges=tet_edges,
        weights=w,
        exterior_triangles=exterior_tri,
        exterior_edges=exterior_edge,
        exterior_vertices=exterior_vert,
    )


# per tet edge, in the order 01 02 03 12 13 23: the face omitting tet
# vertex k that holds it, and the side of that face omitting face vertex m
_TET_EDGE_SIDES = ((3, 2), (3, 1), (1, 1), (3, 0), (0, 1), (0, 0))


def _faces(simplexes: np.ndarray):
    """Lex-sorted unique facets of ascending simplexes, the (n, k) table of
    facet ids whose column j omits vertex j, and each facet's multiplicity."""
    n, k = simplexes.shape
    facets = np.concatenate([np.delete(simplexes, j, axis=1) for j in range(k)])
    uniq, inverse, counts = np.unique(facets, axis=0, return_inverse=True,
                                      return_counts=True)
    return uniq, inverse.reshape(k, n).T, counts


def boundary_operator(c: Complex3, i: int) -> sp.csc_matrix:
    """Signed incidence matrix from i-simplexes to their (i-1)-faces.

    Entries are stored as integers; column sigma has i+1 nonzeros with
    sign (-1)^j at the face omitting the j-th vertex of sigma.
    """
    if i == 1:
        faces, n_rows = c.edges[:, ::-1], c.num_vertices
    elif i == 2:
        faces, n_rows = c.tri_edges, c.num_edges
    elif i == 3:
        faces, n_rows = c.tet_tris, c.num_triangles
    else:
        raise ValueError("boundary operator defined for i in {1, 2, 3}")
    n_cols, k = faces.shape
    cols = np.tile(np.arange(n_cols), k)
    signs = np.repeat((-1) ** np.arange(k, dtype=np.int64), n_cols)
    return sp.csc_matrix((signs, (faces.T.ravel(), cols)),
                         shape=(n_rows, n_cols), dtype=np.int64)


def up_laplacian(c: Complex3, i: int, d=None) -> sp.csr_matrix:
    """d_{i+1} W_{i+1} d_{i+1}^T as a float CSR matrix; `d` is d_{i+1} as
    floats when the caller has assembled it already."""
    if i not in (0, 1):
        raise ValueError("up-Laplacian supported for i in {0, 1}")
    if d is None:
        d = boundary_operator(c, i + 1).astype(float)
    w = sp.diags(c.weights[i + 1])
    out = (d @ w @ d.T).tocsr()
    out.eliminate_zeros()
    return out


def down_laplacian(c: Complex3, i: int) -> sp.csr_matrix:
    """d_i^T W_{i-1} d_i as a float CSR matrix."""
    if i not in (1, 2):
        raise ValueError("down-Laplacian supported for i in {1, 2}")
    d = boundary_operator(c, i).astype(float)
    w = sp.diags(c.weights[i - 1])
    out = (d.T @ w @ d).tocsr()
    out.eliminate_zeros()
    return out


def one_laplacian(c: Complex3) -> sp.csr_matrix:
    return (down_laplacian(c, 1) + up_laplacian(c, 1)).tocsr()


def validate(c: Complex3) -> list[str]:
    """Structural checks; returns a list of violations (empty = valid).

    The chain-complex identities d1 d2 = 0 and d2 d3 = 0 are verified in
    exact integer arithmetic.
    """
    violations = []

    d1, d2, d3 = c.boundary(1), c.boundary(2), c.boundary(3)
    p12 = (d1 @ d2).tocoo()
    if np.any(p12.data != 0):
        violations.append("d1 d2 != 0")
    p23 = (d2 @ d3).tocoo()
    if np.any(p23.data != 0):
        violations.append("d2 d3 != 0")

    for dim, w in enumerate(c.weights):
        if not np.all(np.isfinite(w)):
            violations.append(f"non-finite weight in w{dim}")
        if np.any(w <= 0):
            violations.append(f"nonpositive weight in w{dim}")

    # closure: every face of every stored simplex is stored, and the index
    # tables the operators are built from name exactly those faces
    try:
        found = {
            "tri_edges": np.stack([c.edge_ids(np.delete(c.triangles, j, axis=1))
                                   for j in range(3)], axis=1),
            "tet_tris": np.stack([c.triangle_ids(np.delete(c.tets, j, axis=1))
                                  for j in range(4)], axis=1),
            "tet_edges": np.stack([c.edge_ids(c.tets[:, [i, j]])
                                   for i in range(4) for j in range(i + 1, 4)],
                                  axis=1),
        }
    except KeyError:
        violations.append("closure violated: missing face")
        found = {}
    for name, ids in found.items():
        if not np.array_equal(getattr(c, name), ids):
            violations.append(f"{name} table does not match the stored faces")
    for table in (c.edges, c.triangles, c.tets):
        if len(table) > 1 and np.any(np.all(table[:-1] == table[1:], axis=1)):
            violations.append("duplicate simplex")
        if len(table) and np.any(table[:, :-1] >= table[:, 1:]):
            violations.append("simplex vertices not ascending")

    # exterior flags must match triangle->tet incidence
    if found and len(c.tets):
        tri_counts = np.bincount(found["tet_tris"].ravel(),
                                 minlength=c.num_triangles)
        if not np.array_equal(tri_counts == 1, c.exterior_triangles):
            violations.append("exterior triangle flags inconsistent")
        if np.any(tri_counts > 2):
            violations.append("triangle contained in more than two tetrahedra")

    return violations


# -- tetrahedron quality ---------------------------------------------------

def min_enclosing_ball(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimum enclosing ball of at most four points in R^3.

    Case analysis over support sets of size 2, 3 and 4: the smallest
    candidate ball that contains all points wins.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        raise ValueError("need at least one point")
    if n == 1:
        return pts[0].copy(), 0.0
    if n > 4:
        raise ValueError("exact case analysis implemented for <= 4 points")

    scale = max(np.ptp(pts, axis=0).max(), 1e-300)
    tol = 1e-12 * scale
    best = None

    from itertools import combinations
    candidates = []
    for (i, j) in combinations(range(n), 2):
        center = 0.5 * (pts[i] + pts[j])
        candidates.append((center, 0.5 * np.linalg.norm(pts[i] - pts[j])))
    for tri in combinations(range(n), 3):
        cc = _circumcenter_triangle(pts[list(tri)])
        if cc is not None:
            candidates.append((cc, np.linalg.norm(cc - pts[tri[0]])))
    if n == 4:
        cc = _circumcenter_tet(pts)
        if cc is not None:
            candidates.append((cc, np.linalg.norm(cc - pts[0])))

    for center, radius in candidates:
        if np.all(np.linalg.norm(pts - center, axis=1) <= radius + tol):
            if best is None or radius < best[1]:
                best = (center, radius)
    if best is None:
        raise ValueError("minimum enclosing ball case analysis failed "
                         "(non-finite coordinates?)")
    return best


def _circumcenter_triangle(p):
    u, v = p[1] - p[0], p[2] - p[0]
    g = np.array([[u @ u, u @ v], [u @ v, v @ v]])
    rhs = 0.5 * np.array([u @ u, v @ v])
    det = np.linalg.det(g)
    if abs(det) <= 1e-14 * max((u @ u) * (v @ v), 1e-300):
        return None  # collinear
    s, t = np.linalg.solve(g, rhs)
    return p[0] + s * u + t * v


def _circumcenter_tet(p):
    a = 2.0 * (p[1:] - p[0])
    rhs = np.sum(p[1:] ** 2 - p[0] ** 2, axis=1)
    det = np.linalg.det(a)
    if abs(det) <= 1e-14 * max(np.abs(a).max() ** 3, 1e-300):
        return None  # coplanar
    return np.linalg.solve(a, rhs)


def aspect_ratio(c: Complex3, tet_index: int) -> float:
    """Enclosing-ball radius over inscribed-ball radius of one tetrahedron.

    The enclosing radius is the exact minimum enclosing ball of the four
    vertices; the inscribed radius is 3 * volume / surface area.
    """
    pts = c.vertices[c.tets[tet_index]]
    vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
    span = np.ptp(pts, axis=0).max()
    if vol <= 1e-14 * span ** 3:
        raise ValueError(f"degenerate geometry: tetrahedron {tet_index} has zero volume")
    area = 0.0
    for j in range(4):
        q = np.delete(pts, j, axis=0)
        area += 0.5 * np.linalg.norm(np.cross(q[1] - q[0], q[2] - q[0]))
    r_in = 3.0 * vol / area
    _, r_enc = min_enclosing_ball(pts)
    return r_enc / r_in


# -- JSON interchange ------------------------------------------------------

def complex_to_dict(c: Complex3) -> dict:
    out = {
        "vertices": c.vertices.tolist(),
        "tets": c.tets.tolist(),
    }
    if any(np.any(w != 1.0) for w in c.weights):
        out["weights"] = {f"w{d}": c.weights[d].tolist() for d in range(4)}
    return out


def complex_from_dict(data: dict) -> Complex3:
    return build_complex(data["tets"], data["vertices"], data.get("weights"))


def save_complex(c: Complex3, path) -> None:
    with open(path, "w") as f:
        json.dump(complex_to_dict(c), f)


def load_complex(path) -> Complex3:
    with open(path) as f:
        return complex_from_dict(json.load(f))
