"""Region partitions of a 3-complex: thick-wall ("shell"), lattice-plane
("sphere") and whole-exterior ("surface") hollowings, plus their
validation.  Every kind labels simplexes by one rule (`_classes`): a wall
triangle or edge is a boundary simplex, and every other simplex belongs to
the region of the tets that hold it.  Only the walls differ.

A shell hollowing marks a set of wall tetrahedra; regions are the face
connected components of the remaining tetrahedra, and every simplex of a
wall tetrahedron is a boundary simplex.  Walls are grown from evenly spaced
axis cutting planes, a band along the outer boundary, and half-bands around
interior holes that a plane happens to cross, then thickened layer by layer
until every region's enclosing shell reaches the requested width.

A sphere hollowing cuts along the lattice planes themselves: the wall is
the plane triangles, a region's boundary is the wall triangles of its own
tets (a triangulated box surface, a 2-sphere), adjacent regions share a
disc of triangles, and no tetrahedron is ever a boundary simplex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import UnsupportedGeometryError
from .meshgen import _adjacency, _exterior_components, skeleton_diameter

# measured-constant budgets for the asymptotic O(.) bounds, which the
# validator and the boundary-structure check hold a hollowing to
DEFAULT_REGION_FACTOR = 64.0       # region simplexes  <= C_r * r
DEFAULT_BOUNDARY_FACTOR = 256.0    # boundary simplexes <= C_b * r^(2/3)
DEFAULT_DIAMETER_FACTOR = 16.0     # shell triangle diameter <= C_d * r^(1/3)
MIN_SHELL_WIDTH = 5
CHANNEL_SLACK = 2
SEED_DEPTH = 2            # triangle hops of a hole's seed band
MAX_EXPAND_ROUNDS = 8     # wall growth rounds toward the shell width


@dataclass
class HollowingConfig:
    min_shell_width: int = MIN_SHELL_WIDTH
    min_component_separation: int = 5   # triangle distance between holes


@dataclass
class Hollowing:
    """Region labels plus the interior/boundary classification they induce."""

    r: float
    kind: str                    # "shell", "sphere", "surface" (one region
                                 # walled by the exterior) or "union"
    num_regions: int
    tet_region: np.ndarray       # region id per tet; -1 marks wall tets (shell)
    edge_class: np.ndarray       # region id per edge, -1 = boundary
    tri_class: np.ndarray        # region id per triangle, -1 = boundary
    shells: list                 # triangle ids of each region's boundary shell
    shell_tets: list = field(default_factory=list)   # wall tets per region (shell)
    tri_disc: np.ndarray | None = None               # disc id per triangle (sphere)
    metrics: dict = field(default_factory=dict)

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_class < 0)

    @property
    def boundary_triangles(self) -> np.ndarray:
        return np.flatnonzero(self.tri_class < 0)

    def interior_edges_by_region(self) -> list:
        return [np.flatnonzero(self.edge_class == k) for k in range(self.num_regions)]

    def interior_triangles_by_region(self) -> list:
        return [np.flatnonzero(self.tri_class == k) for k in range(self.num_regions)]

    def to_dict(self) -> dict:
        out = {
            "r": self.r,
            "kind": self.kind,
            "num_regions": self.num_regions,
            "tet_region": self.tet_region.tolist(),
            "edge_class": self.edge_class.tolist(),
            "tri_class": self.tri_class.tolist(),
            "shells": [s.tolist() for s in self.shells],
            "shell_tets": [s.tolist() for s in self.shell_tets],
            "metrics": self.metrics,
        }
        if self.tri_disc is not None:
            out["tri_disc"] = self.tri_disc.tolist()
        return out

    @staticmethod
    def from_dict(data: dict) -> "Hollowing":
        return Hollowing(
            r=data["r"], kind=data["kind"], num_regions=data["num_regions"],
            tet_region=np.asarray(data["tet_region"], dtype=np.int64),
            edge_class=np.asarray(data["edge_class"], dtype=np.int64),
            tri_class=np.asarray(data["tri_class"], dtype=np.int64),
            shells=[np.asarray(s, dtype=np.int64) for s in data["shells"]],
            shell_tets=[np.asarray(s, dtype=np.int64)
                        for s in data.get("shell_tets", [])],
            tri_disc=(np.asarray(data["tri_disc"], dtype=np.int64)
                      if "tri_disc" in data else None),
            metrics=data.get("metrics", {}),
        )


def save_hollowing(h: Hollowing, path) -> None:
    with open(path, "w") as f:
        json.dump(h.to_dict(), f)


def load_hollowing(path) -> Hollowing:
    with open(path) as f:
        return Hollowing.from_dict(json.load(f))


# -- graph helpers ------------------------------------------------------------

def _bfs_hops(graph: sp.csr_matrix, sources: np.ndarray, cap: float = np.inf):
    """Multi-source hop distances; inf where unreachable or beyond `cap`."""
    return dijkstra(graph, unweighted=True, min_only=True, indices=sources,
                    limit=cap)


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of an integer array, flattened, through a sort: numpy
    2.4's np.unique hashes integers, which is 30-60x slower than sorting
    on 1e5-1e6 mostly distinct values."""
    values = np.sort(values, axis=None)
    return values[np.r_[True, values[1:] != values[:-1]]] if len(values) \
        else values


def _grouped_unique(groups, ids, size: int, ngroups: int) -> list:
    """The sorted distinct ids of each group, for groups in [0, ngroups) and
    ids in [0, size): the distinct keys group * size + id, cut where each
    group's keys start."""
    keys = _distinct(np.asarray(groups, dtype=np.int64) * size + ids)
    cuts = np.searchsorted(keys, np.arange(ngroups + 1) * size)
    return [keys[lo:hi] - k * size
            for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))]


# -- well-shapedness checks ---------------------------------------------------

def _check_boundary_structure(c, r, config: HollowingConfig, tri_adj):
    """The exterior triangle components and the largest one (-1 when there
    is none); raise UnsupportedGeometryError naming a violated condition."""
    if r >= c.num_simplexes:
        raise ValueError(f"r = {r} must be smaller than the complex "
                         f"({c.num_simplexes} simplexes)")
    labels = _exterior_components(c, tri_adj)
    sizes = np.bincount(labels[labels >= 0])
    ncomp = len(sizes)
    largest = int(np.argmax(sizes)) if ncomp else -1
    if ncomp <= 1:
        return labels, largest
    # condition: boundary components far enough apart in triangle hops
    sep = config.min_component_separation
    for k in range(ncomp):
        if k == largest:
            continue
        dist = _bfs_hops(tri_adj, np.flatnonzero(labels == k), cap=sep + 1)
        for other in range(ncomp):
            if other == k:
                continue
            dmin = dist[labels == other].min()
            if dmin <= sep:
                raise UnsupportedGeometryError(
                    f"boundary components closer than {sep + 1} "
                    f"(components {k} and {other} at triangle distance {int(dmin)})")
    # condition: every hole boundary has small 1-skeleton diameter
    cap = DEFAULT_DIAMETER_FACTOR * max(r, 1.0) ** (1.0 / 3.0)
    for k in range(ncomp):
        if k == largest:
            continue
        diam = skeleton_diameter(c, labels == k)
        if diam > cap:
            raise UnsupportedGeometryError(
                f"hole boundary component {k} has 1-skeleton diameter {diam} "
                f"> {cap:.1f} (diameter_factor * r^(1/3))")
    return labels, largest


# -- plane placement ----------------------------------------------------------

def _plane_positions(c, r, lattice: bool):
    """Evenly spaced cutting planes per axis, thinned so the implied slabs
    stay at least one target region length apart, and perturbed off vertices
    (midpoints of coordinate gaps) unless snapped to the lattice."""
    n = c.num_simplexes
    lo = c.vertices.min(axis=0)
    hi = c.vertices.max(axis=0)
    extent = hi - lo
    volume = float(np.prod(extent))
    target_len = (max(r, 1.0) * volume / n) ** (1.0 / 3.0)
    planes = []
    for axis in range(3):
        levels = np.unique(c.vertices[:, axis])
        gaps = np.diff(levels)
        h = np.median(gaps[gaps > 0]) if (gaps > 0).any() else 1.0
        # one wall (about one cell) plus one region-sized slab must fit
        # between planes; quantize to the cell length
        spacing = h * max(2.0, np.round(target_len / h) + 1.0)
        count = int(np.floor(n ** (1 / 3) * max(r, 1.0) ** (-1 / 3)))
        count = min(count, int(np.floor(extent[axis] / spacing)) - 1)
        axis_planes = []
        if count > 0:
            raw = lo[axis] + (np.arange(1, count + 1) / (count + 1)) * extent[axis]
            for q in raw:
                if lattice:
                    k = np.searchsorted(levels, q)
                    k = np.clip(k, 1, len(levels) - 2)
                    snapped = levels[k] if abs(levels[k] - q) < abs(levels[k - 1] - q) \
                        else levels[k - 1]
                    axis_planes.append(snapped)
                else:
                    k = np.searchsorted(levels, q)
                    k = np.clip(k, 1, len(levels) - 1)
                    axis_planes.append(0.5 * (levels[k - 1] + levels[k]))
        planes.append(sorted(set(axis_planes)))
    return planes


# -- shell hollowing ----------------------------------------------------------

def find_hollowing(c, r, config: HollowingConfig | None = None) -> Hollowing:
    """Compute a thick-wall hollowing following the plane-cutting scheme.

    Preconditions: the complex has a well-shaped boundary structure at
    parameter r (checked; violations raise UnsupportedGeometryError) and
    r < number of simplexes.  Small meshes where no wall fits return the
    degenerate single-region hollowing with an empty boundary class.
    """
    config = config or HollowingConfig()
    tri_adj = _adjacency(abs(c.boundary(2)))
    labels, largest = _check_boundary_structure(c, r, config, tri_adj)
    planes = _plane_positions(c, r, lattice=False)

    if not any(planes):
        # no wall fits: the one region has an empty boundary class
        h = _single_region(c, r, "shell")
        h.metrics["degenerate"] = True
        return h

    tet_adj = _adjacency(abs(c.boundary(3)))
    wall = np.zeros(c.num_tets, dtype=bool)

    def seed_band(tris):
        """Tets with a face within SEED_DEPTH triangle hops of `tris`."""
        near = _bfs_hops(tri_adj, tris, cap=SEED_DEPTH) < np.inf
        return near[c.tet_tris].any(axis=1)

    # seed: a band of tets along the largest boundary component
    if largest >= 0:
        wall |= seed_band(np.flatnonzero(labels == largest))
    # each hole's vertex coordinates and seed band
    holes = [(c.vertices[np.unique(c.triangles[labels == k])],
              seed_band(np.flatnonzero(labels == k)))
             for k in range(labels.max() + 1) if k != largest]

    # plane walls plus half-bands around any hole a plane crosses
    tet_coords = c.vertices[c.tets]           # (nt, 4, 3)
    for axis in range(3):
        cmin = tet_coords[..., axis].min(axis=1)
        cmax = tet_coords[..., axis].max(axis=1)
        centroid = tet_coords[..., axis].mean(axis=1)
        for q in planes[axis]:
            wall |= (cmin < q) & (q < cmax)
            for hole_coords, band in holes:
                if hole_coords[:, axis].min() < q < hole_coords[:, axis].max():
                    wall |= band & (centroid >= q)

    for _ in range(MAX_EXPAND_ROUNDS + 1):
        if np.all(wall):
            raise UnsupportedGeometryError(
                "hollowing walls swallowed the whole mesh; r is too small "
                "for this complex at the requested shell width")
        h = _classify_shell(c, wall, r, tri_adj, tet_adj)
        widths = h.metrics.get("shell_widths", [])
        if not widths or min(widths) >= config.min_shell_width:
            break
        grow = np.unique(tet_adj[wall].indices)
        wall[grow] = True
    else:
        raise UnsupportedGeometryError(
            f"could not reach shell width {config.min_shell_width} within "
            f"{MAX_EXPAND_ROUNDS} expansion rounds")
    h.metrics["planes"] = [list(map(float, p)) for p in planes]
    return h


def surface_hollowing(c, r=None) -> Hollowing:
    """Single-region hollowing whose boundary class is every exterior
    simplex.  The one valid choice for small chunks that still need a
    nonempty boundary, e.g. to glue on, at the price of a preconditioner
    that is the whole surface complex."""
    r = float(c.num_simplexes if r is None else r)
    h = _single_region(c, r, "surface")
    # triangles touching any exterior edge join the boundary class: glued
    # unions rely on interior triangles of different chunks never sharing
    # an edge, and surface walls have zero thickness
    touches_ext = c.exterior_edges[c.tri_edges].any(axis=1)
    h.tri_class, h.edge_class = _classes(
        c, h.tet_region, c.exterior_triangles | touches_ext, c.exterior_edges)
    h.shells = [np.flatnonzero(c.exterior_triangles)]
    _record_metrics(c, h, r)
    return h


def _single_region(c, r, kind) -> Hollowing:
    return Hollowing(
        r=r, kind=kind, num_regions=1,
        tet_region=np.zeros(c.num_tets, dtype=np.int64),
        edge_class=np.zeros(c.num_edges, dtype=np.int64),
        tri_class=np.zeros(c.num_triangles, dtype=np.int64),
        shells=[np.empty(0, dtype=np.int64)],
        shell_tets=[np.empty(0, dtype=np.int64)],
        tri_disc=np.full(c.num_triangles, -1, dtype=np.int64)
        if kind == "sphere" else None,
    )


def _classes(c, tet_region, wall_tris, wall_edges):
    """tri_class and edge_class: -1 on the wall triangles and edges (index
    arrays or masks), and on every other simplex the region of the tets
    that hold it, all of which share one region."""
    out = []
    inner = tet_region >= 0
    for table, wall, size in ((c.tet_tris, wall_tris, c.num_triangles),
                              (c.tet_edges, wall_edges, c.num_edges)):
        cls = np.full(size, -1, dtype=np.int64)
        cls[table[inner].reshape(-1)] = np.repeat(tet_region[inner],
                                                  table.shape[1])
        cls[wall] = -1
        out.append(cls)
    return out


def _classify_shell(c, wall, r, tri_adj, tet_adj) -> Hollowing:
    interior_ids = np.flatnonzero(~wall)
    sub = tet_adj[interior_ids][:, interior_ids]
    nreg, comp = connected_components(sub, directed=False)
    tet_region = np.full(c.num_tets, -1, dtype=np.int64)
    tet_region[interior_ids] = comp
    tri_class, edge_class = _classes(c, tet_region, c.tet_tris[wall],
                                     c.tet_edges[wall])

    shells_t, shells_tri, widths = _assign_shells(
        c, wall, tet_region, nreg, tri_adj, tet_adj)
    h = Hollowing(r=r, kind="shell", num_regions=nreg, tet_region=tet_region,
                  edge_class=edge_class, tri_class=tri_class,
                  shells=shells_tri, shell_tets=shells_t,
                  metrics={"shell_widths": widths, "num_regions": nreg})
    _record_metrics(c, h, r)
    return h


def _assign_shells(c, wall, tet_region, nreg, tri_adj, tet_adj):
    """Per-region wall membership via geodesic channels through the wall.

    `tri_adj` and `tet_adj` are the triangle and tet adjacencies, as built
    by the calling public function."""
    wall_ids = np.flatnonzero(wall)
    nw = len(wall_ids)
    wsub = tet_adj[wall_ids][:, wall_ids]
    faces = c.tet_tris

    # interface wall tets per region: wall tets face-adjacent to the interior
    cross = tet_adj[wall_ids].tocoo()   # wall x all
    region = tet_region[cross.col]
    inner = region >= 0
    dists = [_bfs_hops(wsub, sources) for sources in
             _grouped_unique(region[inner], cross.row[inner], nw, nreg)]
    # the mesh exterior acts as one more "far side"
    ext_tets = c.exterior_triangles[faces[wall_ids]].any(axis=1)
    dist_ext = _bfs_hops(wsub, np.flatnonzero(ext_tets))

    shells_t, shells_tri, widths = [], [], []
    interface = _interface_triangles(c, wall, tet_region)
    outside = (interface >= 0) | c.exterior_triangles
    for k in range(nreg):
        member = np.zeros(nw, dtype=bool)
        for j in list(range(nreg)) + ["ext"]:
            if j == k:
                continue
            dj = dist_ext if j == "ext" else dists[j]
            total = dists[k] + dj
            if np.isinf(total).all():
                continue
            member |= total <= total.min() + CHANNEL_SLACK
        if not member.any():
            member = dists[k] < np.inf
        shell_tets = wall_ids[member]
        shells_t.append(shell_tets)
        shell_tris = _distinct(faces[shell_tets])
        shells_tri.append(shell_tris)

        inner = shell_tris[interface[shell_tris] == k]
        outer = shell_tris[outside[shell_tris] & (interface[shell_tris] != k)]
        if len(inner) == 0 or len(outer) == 0:
            widths.append(np.inf)
            continue
        d = _bfs_hops(tri_adj[shell_tris][:, shell_tris],
                      np.searchsorted(shell_tris, inner))
        widths.append(float(d[np.searchsorted(shell_tris, outer)].min()))
    return shells_t, shells_tri, widths


def _interface_triangles(c, wall, tet_region):
    """Per triangle, the region of the interior tet it shares with a wall
    tet, or -1.  A triangle has at most two tets, so the region is unique."""
    faces = c.tet_tris
    wall_face = np.zeros(c.num_triangles, dtype=bool)
    wall_face[faces[wall].reshape(-1)] = True
    tris = faces[~wall].reshape(-1)
    on_wall = wall_face[tris]
    interface = np.full(c.num_triangles, -1, dtype=np.int64)
    interface[tris[on_wall]] = np.repeat(tet_region[~wall], 4)[on_wall]
    return interface


def _record_metrics(c, h: Hollowing, r):
    def count(parts):
        return np.array([len(p) for p in parts], dtype=np.int64)

    nreg = h.num_regions
    interior = sum(np.bincount(cls[cls >= 0], minlength=nreg)
                   for cls in (h.tet_region, h.tri_class, h.edge_class))
    # a region's boundary: its shell triangles, plus the edges and vertices
    # of its wall tets and the tets themselves (shell), or of its shell
    # triangles (sphere)
    bsizes = count(h.shells)
    if h.kind == "shell":
        owned, edges, verts = h.shell_tets, c.tet_edges, c.tets
        bsizes += count(owned)
    else:
        owned, edges, verts = h.shells, c.tri_edges, c.triangles
    members = np.concatenate([np.empty(0, dtype=np.int64), *owned])
    region = np.repeat(np.arange(nreg), count(owned))
    for table, size in ((edges, c.num_edges), (verts, c.num_vertices)):
        bsizes += count(_grouped_unique(
            np.repeat(region, table.shape[1]), table[members].reshape(-1),
            size, nreg))
    sizes = interior + bsizes
    total_boundary = int((h.tri_class < 0).sum())
    h.metrics.update({
        "region_simplexes_max": int(sizes.max()) if nreg else 0,
        "boundary_simplexes_max": int(bsizes.max()) if nreg else 0,
        "boundary_triangles_total": total_boundary,
        "region_factor_measured": (sizes.max() / r) if nreg else 0.0,
        "boundary_factor_measured": (bsizes.max() / max(r, 1.0) ** (2 / 3))
        if nreg else 0.0,
        # constant in the total-boundary budget C * n * r^(-1/3)
        "boundary_total_factor": total_boundary
        / (c.num_simplexes * max(r, 1.0) ** (-1 / 3)),
    })


# -- sphere hollowing ---------------------------------------------------------

def sphere_hollowing(c, r, config: HollowingConfig | None = None) -> Hollowing:
    """Lattice-plane hollowing: region boundaries are triangulated 2-spheres
    that pairwise intersect in discs.  Requires holes to stay clear of the
    cutting planes, and refuses a region boundary that is not a sphere."""
    config = config or HollowingConfig()
    labels, largest = _check_boundary_structure(
        c, r, config, _adjacency(abs(c.boundary(2))))
    planes = _plane_positions(c, r, lattice=True)
    if not any(planes):
        # degenerate: one region whose boundary sphere is the outer surface
        h = _single_region(c, r, "sphere")
        outer = np.flatnonzero(labels == largest)
        h.tri_class, h.edge_class = _classes(c, h.tet_region, outer,
                                             c.tri_edges[outer])
        h.tri_disc[outer] = 0
        h.shells = [outer]
        return _checked_spheres(c, h, r)

    lo = c.vertices.min(axis=0)
    hi = c.vertices.max(axis=0)
    cuts = [np.array(planes[a]) for a in range(3)]
    levels = [np.concatenate([[lo[a]], cuts[a], [hi[a]]]) for a in range(3)]

    # holes must not straddle a cutting plane
    for k in range(labels.max() + 1):
        if k == largest:
            continue
        hv = np.unique(c.triangles[labels == k])
        for a in range(3):
            for q in cuts[a]:
                if c.vertices[hv, a].min() <= q <= c.vertices[hv, a].max():
                    raise UnsupportedGeometryError(
                        "hole crosses a cutting plane; sphere hollowings "
                        "need holes interior to a single region")

    tet_region = _box_assignment(c, cuts)
    nreg = int(tet_region.max()) + 1

    tri_boundary = np.zeros(c.num_triangles, dtype=bool)
    tri_disc = np.full(c.num_triangles, -1, dtype=np.int64)
    # each wall triangle's disc key (axis, level, j, k), the discs numbered
    # in the order their first triangle comes
    disc_tris, disc_keys = [], []
    tv = c.triangles
    centroids = c.vertices[tv].mean(axis=1)
    for a in range(3):
        for i, q in enumerate(levels[a]):
            sel = np.all(np.isclose(c.vertices[tv, a], q), axis=1)
            sel &= ~tri_boundary
            tri_boundary |= sel
            ids = np.flatnonzero(sel)
            disc_tris.append(ids)
            disc_keys.append(np.column_stack(
                [np.full((len(ids), 2), (a, i))]
                + [np.searchsorted(cuts[b], centroids[ids, b])
                   for b in range(3) if b != a]))
    _, first, disc = np.unique(np.vstack(disc_keys), axis=0,
                               return_index=True, return_inverse=True)
    # the rank of each disc's first triangle among the discs' first ones
    tri_disc[np.concatenate(disc_tris)] = np.argsort(
        np.argsort(first))[disc.reshape(-1)]

    tri_class, edge_class = _classes(c, tet_region, tri_boundary,
                                     c.tri_edges[tri_boundary])
    # region boundary spheres: the wall triangles of each region's tets
    faces = c.tet_tris.reshape(-1)
    on_wall = tri_boundary[faces]
    shells = _grouped_unique(np.repeat(tet_region, 4)[on_wall],
                             faces[on_wall], c.num_triangles, nreg)

    h = Hollowing(r=r, kind="sphere", num_regions=nreg, tet_region=tet_region,
                  edge_class=edge_class, tri_class=tri_class, shells=shells,
                  shell_tets=[np.empty(0, dtype=np.int64)] * nreg,
                  tri_disc=tri_disc,
                  metrics={"planes": [list(map(float, p)) for p in planes],
                           "num_regions": nreg, "num_discs": len(first)})
    return _checked_spheres(c, h, r)


def _checked_spheres(c, h: Hollowing, r) -> Hollowing:
    """`h` with metrics; raises when a region boundary is not a 2-sphere."""
    for k, shell in enumerate(h.shells):
        chi = _euler_characteristic(c, shell)
        if chi != 2:
            raise UnsupportedGeometryError(
                f"region {k} boundary has Euler characteristic {chi}, not 2 "
                "(not a sphere); a shell hollowing (find_hollowing) fits")
    _record_metrics(c, h, r)
    return h


def _box_assignment(c, cuts):
    """Region per tet: the rank of the box between cutting planes that
    holds its centroid, among the boxes that hold a tet."""
    centroids = c.vertices[c.tets].mean(axis=1)
    key = np.ravel_multi_index(
        [np.searchsorted(cut, centroids[:, a]) for a, cut in enumerate(cuts)],
        [len(cut) + 1 for cut in cuts])
    return np.unique(key, return_inverse=True)[1]


# -- validation ---------------------------------------------------------------

def check_hollowing(c, h: Hollowing) -> None:
    """Raise ValueError naming the field when `h` cannot label `c`: an unknown
    kind, a label array of the wrong length, a class outside [-1,
    num_regions), or a sphere wall triangle without a disc in tri_disc."""
    if h.kind not in ("shell", "sphere", "surface", "union"):
        raise ValueError(f"hollowing kind {h.kind!r} is unknown")
    labels = [("tet_region", h.tet_region, c.num_tets),
              ("edge_class", h.edge_class, c.num_edges),
              ("tri_class", h.tri_class, c.num_triangles)]
    for name, values, n in labels + [("tri_disc", h.tri_disc, c.num_triangles)]:
        if values is not None and np.shape(values) != (n,):
            raise ValueError(f"index mismatch: hollowing {name} has shape "
                             f"{np.shape(values)}, expected ({n},)")
    for name, values, _ in labels:
        bad = (values < -1) | (values >= h.num_regions)
        if bad.any():
            raise ValueError(f"hollowing {name} has class {values[bad][0]} "
                             f"outside [-1, {h.num_regions})")
    if h.kind == "sphere" and (h.tri_disc is None
                               or np.any(h.tri_disc[h.tri_class < 0] < 0)):
        raise ValueError("sphere hollowing tri_disc is missing or negative "
                         "on a wall triangle, which the reduced wall needs")


def validate_hollowing(c, h: Hollowing, config: HollowingConfig | None = None):
    """Check every structural invariant; returns a list of violations."""
    config = config or HollowingConfig()
    violations = []
    r = max(h.r, 1.0)

    if h.kind == "shell":
        # interior simplexes of distinct regions share no subsimplex: every
        # vertex may touch interior simplexes of at most one region
        lo = np.full(c.num_vertices, h.num_regions, dtype=np.int64)
        hi = np.full(c.num_vertices, -1, dtype=np.int64)
        for table, cls in ((c.edges, h.edge_class), (c.triangles, h.tri_class),
                           (c.tets, h.tet_region)):
            inner = (cls >= 0) & (cls < h.num_regions)
            rep = np.repeat(cls[inner], table.shape[1])
            np.minimum.at(lo, table[inner].reshape(-1), rep)
            np.maximum.at(hi, table[inner].reshape(-1), rep)
        if np.any(lo < hi):
            violations.append(
                "interior simplexes of different regions share a vertex")
    else:
        # surface walls: a simplex contained in tets of two regions must be
        # classified boundary (only boundary simplexes are shared)
        violations.extend(_check_shared_are_boundary(c, h))

    # triangle-level disjointness: no triangle may span two interior regions
    cls = h.edge_class[c.tri_edges]
    pos = np.where(cls >= 0, cls, -1)
    mx = pos.max(axis=1)
    mn = np.where(pos < 0, np.iinfo(np.int64).max, pos).min(axis=1)
    bad = (mx >= 0) & (mn != np.iinfo(np.int64).max) & (mn != mx)
    if np.any(bad):
        violations.append(
            f"{int(bad.sum())} triangles span interior edges of two regions")

    # region size budgets
    if h.metrics.get("region_simplexes_max", 0) > DEFAULT_REGION_FACTOR * r:
        violations.append("region exceeds region_factor * r simplexes")
    if h.metrics.get("boundary_simplexes_max", 0) > \
            DEFAULT_BOUNDARY_FACTOR * r ** (2 / 3):
        violations.append("region boundary exceeds boundary_factor * r^(2/3)")

    # shell width and boundary diameter
    tri_adj = _adjacency(abs(c.boundary(2)))
    if h.kind == "shell" and h.num_regions > 1:
        widths = h.metrics.get("shell_widths")
        if widths is None:
            _, _, widths = _assign_shells(
                c, h.tet_region < 0, h.tet_region, h.num_regions,
                tri_adj, _adjacency(abs(c.boundary(3))))
        bad_w = [w for w in widths if w < config.min_shell_width]
        if bad_w:
            violations.append(
                f"shell width {min(bad_w)} below {config.min_shell_width}")
    diam_cap = DEFAULT_DIAMETER_FACTOR * r ** (1 / 3)
    for k, shell in enumerate(h.shells):
        if len(shell) == 0:
            continue
        sub = tri_adj[shell][:, shell]
        d = _bfs_hops(sub, np.array([0]))
        if np.isinf(d).any():
            far = np.inf
        else:
            far = d.max()
            d2 = _bfs_hops(sub, np.array([int(np.argmax(d))]))
            far = max(far, d2.max())
        if far > diam_cap:
            violations.append(
                f"region {k} boundary triangle diameter {far} > {diam_cap:.1f}")

    if h.kind == "sphere":
        violations.extend(_validate_sphere_shells(c, h))
    return violations


def _check_shared_are_boundary(c, h: Hollowing):
    violations = []
    reg = h.tet_region
    for name, members, cls in (
            ("edge", c.tet_edges, h.edge_class),
            ("triangle", c.tet_tris, h.tri_class)):
        n = len(cls)
        lo = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        hi = np.full(n, -1, dtype=np.int64)
        flat = members.reshape(-1)
        rep = np.repeat(reg, members.shape[1])
        np.minimum.at(lo, flat, rep)
        np.maximum.at(hi, flat, rep)
        shared = (hi >= 0) & (lo != hi)
        bad = shared & (cls >= 0)
        if np.any(bad):
            violations.append(
                f"{int(bad.sum())} {name}s shared by two regions are "
                "classified interior")
    return violations


def _validate_sphere_shells(c, h: Hollowing):
    violations = []
    for k, shell in enumerate(h.shells):
        if len(shell) == 0:
            violations.append(f"region {k} has an empty boundary sphere")
            continue
        chi = _euler_characteristic(c, shell)
        if chi != 2:
            violations.append(
                f"region {k} boundary has Euler characteristic {chi}, not 2")
    # pairwise intersections must be discs (chi 1) or paths
    for i in range(h.num_regions):
        for j in range(i + 1, h.num_regions):
            shared = np.intersect1d(h.shells[i], h.shells[j])
            if len(shared) == 0:
                continue
            chi = _euler_characteristic(c, shared)
            if chi != 1:
                violations.append(
                    f"regions {i} and {j} intersect with Euler "
                    f"characteristic {chi}, not a disc")
    return violations


def _euler_characteristic(c, tri_ids) -> int:
    nf = len(tri_ids)
    ne = len(np.unique(c.tri_edges[tri_ids]))
    nv = len(np.unique(c.triangles[tri_ids]))
    return nv - ne + nf
