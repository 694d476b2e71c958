"""Structured tetrahedral test meshes: boxes, cavities and tunnels.

Each unit cell of an a x b x c grid is split into the 6 tetrahedra that
share the cell's main diagonal.  The split is conforming without any parity
alternation between neighbouring cells, and all tetrahedra are congruent,
so the whole mesh has one aspect-ratio value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  dijkstra)

from .complexes import Complex3, aspect_ratio, build_complex

# minimum cell gap between holes; keeps their surfaces far apart after
# triangulation so hollowing walls never have to thread between two holes
HOLE_SEPARATION = 6


@dataclass
class HoleSpec:
    lo: tuple[int, int, int]
    size: tuple[int, int, int]
    kind: str = "cavity"  # "cavity" (interior void) or "tunnel" (through-hole)


@dataclass
class GridSpec:
    dims: tuple[int, int, int]
    holes: list[HoleSpec] = field(default_factory=list)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("grid dimensions must be positive")
        self.holes = [h if isinstance(h, HoleSpec) else HoleSpec(**h)
                      for h in self.holes]
        for h in self.holes:
            self._check_hole(h)
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                if _box_gap(self.holes[i], self.holes[j]) < HOLE_SEPARATION:
                    raise ValueError(
                        f"holes {i} and {j} closer than {HOLE_SEPARATION} cells")

    def _check_hole(self, h: HoleSpec) -> None:
        lo, size = np.array(h.lo), np.array(h.size)
        hi = lo + size
        if np.any(size < 1):
            raise ValueError("hole size must be at least one cell")
        if np.any(lo < 0) or np.any(hi > self.dims):
            raise ValueError("hole out of bounds")
        if h.kind == "cavity":
            if np.any(lo < 1) or np.any(hi > np.array(self.dims) - 1):
                raise ValueError("cavity must be strictly interior to the grid")
        elif h.kind == "tunnel":
            through = [lo[a] == 0 and hi[a] == self.dims[a] for a in range(3)]
            if sum(through) != 1:
                raise ValueError("tunnel must span exactly one axis fully")
            for a in range(3):
                if not through[a] and (lo[a] < 1 or hi[a] > self.dims[a] - 1):
                    raise ValueError("tunnel cross-section must be interior")
        else:
            raise ValueError(f"unknown hole kind {h.kind!r}")

    def to_dict(self) -> dict:
        return {"dims": list(self.dims),
                "holes": [{"lo": list(h.lo), "size": list(h.size), "kind": h.kind}
                          for h in self.holes]}

    @staticmethod
    def from_dict(data: dict) -> "GridSpec":
        return GridSpec(tuple(data["dims"]),
                        [HoleSpec(tuple(h["lo"]), tuple(h["size"]), h.get("kind", "cavity"))
                         for h in data.get("holes", [])])


def _box_gap(h1: HoleSpec, h2: HoleSpec) -> int:
    gap = 0
    for a in range(3):
        lo1, hi1 = h1.lo[a], h1.lo[a] + h1.size[a]
        lo2, hi2 = h2.lo[a], h2.lo[a] + h2.size[a]
        gap = max(gap, lo2 - hi1, lo1 - hi2)
    return gap


# the 6 tetrahedra of the unit-cube split sharing the (0,0,0)-(1,1,1)
# diagonal: walk the cube edges in every axis order
_CELL_TETS = []
for perm in sorted(permutations(range(3))):
    corners = [np.zeros(3, dtype=np.int64)]
    for axis in perm:
        nxt = corners[-1].copy()
        nxt[axis] += 1
        corners.append(nxt)
    _CELL_TETS.append(np.array(corners))
_CELL_TETS = np.array(_CELL_TETS)  # (6, 4, 3) corner offsets


def gen_grid(spec: GridSpec) -> Complex3:
    """Mesh the grid minus its holes; unit weights, unit cells."""
    a, b, c = spec.dims
    keep = np.ones((a, b, c), dtype=bool)
    for h in spec.holes:
        lo = h.lo
        hi = tuple(lo[i] + h.size[i] for i in range(3))
        keep[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = False
    return mesh_from_cells(spec.dims, keep)


def mesh_from_cells(dims, keep: np.ndarray) -> Complex3:
    """Mesh an arbitrary cell mask (no hole-placement validation)."""
    a, b, c = dims
    cells = np.argwhere(keep)
    if len(cells) == 0:
        raise ValueError("grid has no cells left after hole removal")

    # vertex offsets of all 6 tets per cell against the full vertex lattice
    base = cells[:, None, None, :] + _CELL_TETS[None, :, :, :]  # (ncell,6,4,3)
    lattice = (b + 1) * (c + 1) * base[..., 0] + (c + 1) * base[..., 1] + base[..., 2]
    tets = lattice.reshape(-1, 4)

    used, inv = np.unique(tets, return_inverse=True)
    tets = inv.reshape(-1, 4)
    coords = np.column_stack([used // ((b + 1) * (c + 1)),
                              (used // (c + 1)) % (b + 1),
                              used % (c + 1)]).astype(float)
    return build_complex(tets, coords)


@dataclass
class MeshStats:
    counts: tuple[int, int, int, int]      # vertices, edges, triangles, tets
    max_aspect_ratio: float
    exterior_counts: tuple[int, int, int]  # vertices, edges, triangles
    boundary_components: int
    boundary_diameters: list[int]          # 1-skeleton diameter per component
    max_tets_per_vertex: int

    def to_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "max_aspect_ratio": self.max_aspect_ratio,
            "exterior_counts": list(self.exterior_counts),
            "boundary_components": self.boundary_components,
            "boundary_diameters": self.boundary_diameters,
            "max_tets_per_vertex": self.max_tets_per_vertex,
        }


def mesh_stats(c: Complex3) -> MeshStats:
    """Pure measurement: counts, shape quality, boundary structure."""
    max_ar = 0.0
    seen: dict[tuple, float] = {}
    for t in range(c.num_tets):
        pts = c.vertices[c.tets[t]]
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        key = tuple(np.round(np.sort(d2[np.triu_indices(4, 1)]), 9))
        if key not in seen:
            seen[key] = aspect_ratio(c, t)
        max_ar = max(max_ar, seen[key])

    labels = exterior_triangle_components(c)
    ncomp = int(labels.max()) + 1 if labels.size else 0
    diameters = [skeleton_diameter(c, labels == k) for k in range(ncomp)]

    tets_per_vertex = np.zeros(c.num_vertices, dtype=np.int64)
    np.add.at(tets_per_vertex, c.tets.reshape(-1), 1)

    return MeshStats(
        counts=c.simplex_counts(),
        max_aspect_ratio=max_ar,
        exterior_counts=(int(c.exterior_vertices.sum()),
                         int(c.exterior_edges.sum()),
                         int(c.exterior_triangles.sum())),
        boundary_components=ncomp,
        boundary_diameters=diameters,
        max_tets_per_vertex=int(tets_per_vertex.max()) if len(c.tets) else 0,
    )


def exterior_triangle_components(c: Complex3) -> np.ndarray:
    """Label exterior triangles by connected component under shared-edge
    adjacency; -1 for interior triangles."""
    return _exterior_components(c, _adjacency(abs(c.boundary(2))))


def _adjacency(incidence) -> sp.csr_matrix:
    """0/1 adjacency of the columns of an unsigned incidence matrix that
    share a row: triangles sharing an edge from |d2|, tets sharing a
    triangle from |d3|."""
    g = (incidence.T @ incidence).tocsr()
    g.setdiag(0)
    g.eliminate_zeros()
    return (g > 0).astype(np.int8).tocsr()


def _exterior_components(c: Complex3, tri_adj) -> np.ndarray:
    """exterior_triangle_components from the triangle adjacency."""
    labels = np.full(c.num_triangles, -1, dtype=np.int64)
    ext = np.flatnonzero(c.exterior_triangles)
    if len(ext):
        labels[ext] = connected_components(tri_adj[ext][:, ext],
                                           directed=False)[1]
    return labels


def skeleton_diameter(c: Complex3, tri_mask: np.ndarray, exact_cap: int = 4000) -> int:
    """Diameter of the 1-skeleton graph of the given triangle set.

    Exact (all-pairs BFS) up to `exact_cap` vertices, double-sweep lower
    bound beyond it: the second sweep starts from the first farthest vertex
    in BFS order from vertex 0.
    """
    tris = c.triangles[tri_mask]
    if len(tris) == 0:
        return 0
    verts = np.unique(tris)
    local = np.searchsorted(verts, tris)
    n = len(verts)
    g = sp.csr_matrix((np.ones(3 * len(local)),
                       (local[:, [0, 0, 1]].ravel(), local[:, [1, 2, 2]].ravel())),
                      shape=(n, n))
    g = g + g.T

    if n <= exact_cap:
        # hop distances from 256 sources at a time bound the memory
        best = 0.0
        for start in range(0, n, 256):
            dist = dijkstra(g, unweighted=True,
                            indices=np.arange(start, min(start + 256, n)))
            best = max(best, dist[np.isfinite(dist)].max())
        return int(best)
    best = 0.0
    src = 0
    for _ in range(2):
        order = breadth_first_order(g, src, directed=False,
                                    return_predecessors=False)
        dist = dijkstra(g, unweighted=True, indices=src)[order]
        best = max(best, dist.max())
        src = order[np.argmax(dist)]
    return int(best)
