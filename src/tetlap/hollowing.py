"""Region partitions of a 3-complex: thick-wall ("shell") hollowings and
surface ("sphere") hollowings, plus their validation.

A shell hollowing marks a set of wall tetrahedra; regions are the face
connected components of the remaining tetrahedra, and every simplex of a
wall tetrahedron is a boundary simplex.  Walls are grown from evenly spaced
axis cutting planes, a band along the outer boundary, and half-bands around
interior holes that a plane happens to cross, then thickened layer by layer
until every region's enclosing shell reaches the requested width.

A sphere hollowing cuts along the lattice planes themselves: region
boundaries are the triangulated box surfaces (2-spheres), adjacent regions
share a disc of triangles, and no tetrahedron is ever a boundary simplex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import UnsupportedGeometryError
from .meshgen import _adjacency, _exterior_components, skeleton_diameter

# default measured-constant thresholds; the asymptotic statements behind
# them are O(.) bounds, so the validator takes them from the config
DEFAULT_REGION_FACTOR = 64.0       # region simplexes  <= C_r * r
DEFAULT_BOUNDARY_FACTOR = 256.0    # boundary simplexes <= C_b * r^(2/3)
DEFAULT_DIAMETER_FACTOR = 16.0     # shell triangle diameter <= C_d * r^(1/3)
MIN_SHELL_WIDTH = 5
CHANNEL_SLACK = 2


@dataclass
class HollowingConfig:
    region_factor: float = DEFAULT_REGION_FACTOR
    boundary_factor: float = DEFAULT_BOUNDARY_FACTOR
    diameter_factor: float = DEFAULT_DIAMETER_FACTOR
    min_shell_width: int = MIN_SHELL_WIDTH
    min_component_separation: int = 5   # triangle distance between holes
    seed_depth: int = 2          # triangle distance for seed layers
    max_expand_rounds: int = 8


@dataclass
class Hollowing:
    """Region labels plus the interior/boundary classification they induce."""

    r: float
    kind: str                    # "shell" or "sphere"
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
    """Multi-source hop distances; inf where unreachable."""
    n = graph.shape[0]
    dist = np.full(n, np.inf)
    if len(sources) == 0:
        return dist
    dist[sources] = 0.0
    frontier = np.asarray(sources)
    hops = 0
    while len(frontier) and hops < cap:
        hops += 1
        neigh = np.unique(graph[frontier].indices)
        neigh = neigh[dist[neigh] == np.inf]
        if len(neigh) == 0:
            break
        dist[neigh] = hops
        frontier = neigh
    return dist


# -- bounding boxes -----------------------------------------------------------

def nice_bounding_box(c) -> dict:
    """Axis box after trying a few deterministic rotations, with the volume
    blow-up against the convex hull reported."""
    pts = c.vertices
    candidates = [np.eye(3)]
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    candidates.append(vecs.T)
    # coarse-to-fine single-axis rotation sweep, greedily composed
    best_rot = None
    for base in candidates:
        rot = base
        for _ in range(2):
            for axis in range(3):
                rot = _best_axis_rotation(centered, rot, axis)
        vol = np.prod(np.ptp(centered @ rot.T, axis=0))
        if best_rot is None or vol < best_rot[0]:
            best_rot = (vol, rot)
    vol, rot = best_rot

    hull_volume = None
    try:
        from scipy.spatial import ConvexHull
        hull_volume = float(ConvexHull(pts).volume)
    except Exception:
        pass
    local = pts @ rot.T
    out = {
        "rotation": rot,
        "lo": local.min(axis=0),
        "hi": local.max(axis=0),
        "volume": float(np.prod(local.max(axis=0) - local.min(axis=0))),
    }
    if hull_volume and hull_volume > 0:
        out["hull_volume"] = hull_volume
        out["volume_factor"] = out["volume"] / hull_volume
    return out


def _best_axis_rotation(pts, rot, axis, coarse=15, fine=1):
    best = (np.inf, rot)
    for step in (coarse, fine):
        center = 0.0 if step == coarse else best_angle
        angles = np.arange(center - (coarse if step == fine else 45),
                           center + (coarse if step == fine else 46), step)
        for ang in angles:
            r = _axis_rot(axis, np.deg2rad(ang)) @ rot
            vol = np.prod(np.ptp(pts @ r.T, axis=0))
            if vol < best[0]:
                best = (vol, r)
                best_angle = ang
    return best[1]


def _axis_rot(axis, theta):
    c, s = np.cos(theta), np.sin(theta)
    m = np.eye(3)
    i, j = [(1, 2), (0, 2), (0, 1)][axis]
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return m


# -- well-shapedness checks ---------------------------------------------------

def _check_boundary_structure(c, r, config: HollowingConfig, tri_adj):
    """Raise UnsupportedGeometryError naming the violated condition."""
    if r >= c.num_simplexes:
        raise ValueError(f"r = {r} must be smaller than the complex "
                         f"({c.num_simplexes} simplexes)")
    labels = _exterior_components(c, tri_adj)
    ncomp = int(labels.max()) + 1 if (labels >= 0).any() else 0
    if ncomp <= 1:
        return labels, ncomp
    sizes = np.array([(labels == k).sum() for k in range(ncomp)])
    largest = int(np.argmax(sizes))
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
    cap = config.diameter_factor * max(r, 1.0) ** (1.0 / 3.0)
    for k in range(ncomp):
        if k == largest:
            continue
        diam = skeleton_diameter(c, labels == k)
        if diam > cap:
            raise UnsupportedGeometryError(
                f"hole boundary component {k} has 1-skeleton diameter {diam} "
                f"> {cap:.1f} (diameter_factor * r^(1/3))")
    return labels, ncomp


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
    labels, ncomp = _check_boundary_structure(c, r, config, tri_adj)
    planes = _plane_positions(c, r, lattice=False)

    if not any(planes):
        return _single_region(c, r, "shell")

    tri_tets = abs(c.boundary(3)).tocsr()
    tet_adj = _adjacency(tri_tets)
    wall = np.zeros(c.num_tets, dtype=bool)

    # seed: a band of tets along the largest boundary component
    sizes = [np.sum(labels == k) for k in range(ncomp)]
    largest = int(np.argmax(sizes)) if ncomp else -1
    if ncomp:
        seed_tris = np.flatnonzero(labels == largest)
        near = _bfs_hops(tri_adj, seed_tris, cap=config.seed_depth) < np.inf
        wall |= np.asarray((tri_tets[near].sum(axis=0) > 0)).ravel()

    # plane walls plus half-bands around any hole a plane crosses
    tet_coords = c.vertices[c.tets]           # (nt, 4, 3)
    for axis in range(3):
        for q in planes[axis]:
            cmin = tet_coords[..., axis].min(axis=1)
            cmax = tet_coords[..., axis].max(axis=1)
            wall |= (cmin < q) & (q < cmax)
            for k in range(ncomp):
                if k == largest:
                    continue
                hole_tris = np.flatnonzero(labels == k)
                hv = np.unique(c.triangles[hole_tris])
                hole_coord = c.vertices[hv, axis]
                if hole_coord.min() < q < hole_coord.max():
                    near = _bfs_hops(tri_adj, hole_tris, cap=config.seed_depth) < np.inf
                    half = np.asarray((tri_tets[near].sum(axis=0) > 0)).ravel()
                    centroid = tet_coords[..., axis].mean(axis=1)
                    wall |= half & (centroid >= q)

    for _ in range(config.max_expand_rounds + 1):
        if np.all(wall):
            raise UnsupportedGeometryError(
                "hollowing walls swallowed the whole mesh; r is too small "
                "for this complex at the requested shell width")
        h = _classify_shell(c, wall, r, tri_adj, tet_adj, tri_tets)
        widths = h.metrics.get("shell_widths", [])
        if not widths or min(widths) >= config.min_shell_width:
            break
        grow = np.unique(tet_adj[wall].indices)
        wall[grow] = True
    else:
        raise UnsupportedGeometryError(
            f"could not reach shell width {config.min_shell_width} within "
            f"{config.max_expand_rounds} expansion rounds")
    h.metrics["planes"] = [list(map(float, p)) for p in planes]
    return h


def surface_hollowing(c, r=None) -> Hollowing:
    """Single-region hollowing whose boundary class is every exterior
    simplex.  The one valid choice for small chunks that still need a
    nonempty boundary, e.g. to glue on, at the price of a preconditioner
    that is the whole surface complex."""
    r = float(c.num_simplexes if r is None else r)
    h = _single_region(c, r, "shell")
    # triangles touching any exterior edge join the boundary class: glued
    # unions rely on interior triangles of different chunks never sharing
    # an edge, and surface walls have zero thickness
    touches_ext = (abs(c.boundary(2)).T @ c.exterior_edges) > 0
    bt = np.flatnonzero(c.exterior_triangles | touches_ext)
    h.tri_class[bt] = -1
    h.edge_class[np.flatnonzero(c.exterior_edges)] = -1
    h.shells = [np.flatnonzero(c.exterior_triangles)]
    h.metrics["surface"] = True
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
        tri_disc=None if kind == "shell" else np.full(c.num_triangles, -1,
                                                      dtype=np.int64),
        metrics={"degenerate": True},
    )


def _classify_shell(c, wall, r, tri_adj, tet_adj, tri_tets) -> Hollowing:
    interior_ids = np.flatnonzero(~wall)
    sub = tet_adj[interior_ids][:, interior_ids]
    nreg, comp = connected_components(sub, directed=False)
    tet_region = np.full(c.num_tets, -1, dtype=np.int64)
    tet_region[interior_ids] = comp

    faces = c.tet_tris
    edges6 = c.tet_edges
    tri_wall = np.zeros(c.num_triangles, dtype=bool)
    tri_wall[faces[wall].reshape(-1)] = True
    edge_wall = np.zeros(c.num_edges, dtype=bool)
    edge_wall[edges6[wall].reshape(-1)] = True

    tri_class = np.full(c.num_triangles, -1, dtype=np.int64)
    edge_class = np.full(c.num_edges, -1, dtype=np.int64)
    owner = np.full(c.num_triangles, -1, dtype=np.int64)
    owner[faces[~wall].reshape(-1)] = np.repeat(tet_region[~wall], 4)
    tri_class[~tri_wall] = owner[~tri_wall]
    eowner = np.full(c.num_edges, -1, dtype=np.int64)
    eowner[edges6[~wall].reshape(-1)] = np.repeat(tet_region[~wall], 6)
    edge_class[~edge_wall] = eowner[~edge_wall]

    shells_t, shells_tri, widths, metrics = _assign_shells(
        c, wall, tet_region, nreg, tri_adj, tet_adj, tri_tets)
    metrics["shell_widths"] = widths
    metrics["num_regions"] = nreg
    h = Hollowing(r=r, kind="shell", num_regions=nreg, tet_region=tet_region,
                  edge_class=edge_class, tri_class=tri_class,
                  shells=shells_tri, shell_tets=shells_t, metrics=metrics)
    _record_metrics(c, h, r)
    return h


def _assign_shells(c, wall, tet_region, nreg, tri_adj, tet_adj, tri_tets):
    """Per-region wall membership via geodesic channels through the wall.

    `tri_adj` and `tet_adj` are the triangle and tet adjacencies, and
    `tri_tets` is |d3|, all as built by the calling public function."""
    wall_ids = np.flatnonzero(wall)
    nw = len(wall_ids)
    wsub = tet_adj[wall_ids][:, wall_ids]
    faces = c.tet_tris

    # interface wall tets per region: wall tets face-adjacent to the interior
    cross = tet_adj[wall_ids]           # wall x all
    dists = []
    for k in range(nreg):
        k_tets = np.flatnonzero(tet_region == k)
        mask = np.zeros(c.num_tets, dtype=bool)
        mask[k_tets] = True
        sources = np.flatnonzero(np.asarray(
            (cross[:, k_tets].sum(axis=1) > 0)).ravel())
        dists.append(_bfs_hops(wsub, sources))
    # the mesh exterior acts as one more "far side"
    ext_tris = np.flatnonzero(c.exterior_triangles)
    ext_tets = np.unique(tri_tets[ext_tris].indices)
    ext_local = np.flatnonzero(np.isin(wall_ids, ext_tets))
    dist_ext = _bfs_hops(wsub, ext_local)

    shells_t, shells_tri, widths = [], [], []
    tri_region_interface = _interface_triangles(c, wall, tet_region, nreg)
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
        shell_tris = np.unique(faces[shell_tets].reshape(-1))
        shells_tri.append(shell_tris)

        inner = tri_region_interface[k]
        outer = np.concatenate(
            [tri_region_interface[j] for j in range(nreg) if j != k]
            + [ext_tris]) if nreg > 0 else ext_tris
        outer = np.intersect1d(outer, shell_tris)
        inner = np.intersect1d(inner, shell_tris)
        if len(inner) == 0 or len(outer) == 0:
            widths.append(np.inf)
            continue
        mask = np.zeros(c.num_triangles, dtype=bool)
        mask[shell_tris] = True
        ids = np.flatnonzero(mask)
        sub = tri_adj[ids][:, ids]
        pos = np.searchsorted(ids, inner)
        d = _bfs_hops(sub, pos)
        widths.append(float(d[np.searchsorted(ids, outer)].min()))
    return shells_t, shells_tri, widths, {}


def _interface_triangles(c, wall, tet_region, nreg):
    """Triangles shared by a wall tet and an interior tet, per region."""
    faces = c.tet_tris
    count_wall = np.zeros(c.num_triangles, dtype=np.int64)
    np.add.at(count_wall, faces[wall].reshape(-1), 1)
    out = []
    for k in range(nreg):
        tris_k = np.unique(faces[tet_region == k].reshape(-1))
        out.append(tris_k[count_wall[tris_k] > 0])
    return out


def _record_metrics(c, h: Hollowing, r):
    sizes = []
    bsizes = []
    for k in range(h.num_regions):
        interior = ((h.tet_region == k).sum()
                    + (h.tri_class == k).sum()
                    + (h.edge_class == k).sum())
        if h.kind == "shell":
            st = h.shell_tets[k]
            btris = h.shells[k]
            bedges = np.unique(c.tet_edges[st].reshape(-1)) if len(st) else []
            bverts = np.unique(c.tets[st]) if len(st) else []
            boundary = len(st) + len(btris) + len(bedges) + len(bverts)
        else:
            btris = h.shells[k]
            bedges = np.unique(c.tri_edges[btris]) if len(btris) else []
            bverts = np.unique(c.triangles[btris]) if len(btris) else []
            boundary = len(btris) + len(bedges) + len(bverts)
        sizes.append(interior + boundary)
        bsizes.append(boundary)
    total_boundary = int((h.tri_class < 0).sum())
    h.metrics.update({
        "region_simplexes_max": int(max(sizes)) if sizes else 0,
        "boundary_simplexes_max": int(max(bsizes)) if bsizes else 0,
        "boundary_triangles_total": total_boundary,
        "region_factor_measured": (max(sizes) / r) if sizes else 0.0,
        "boundary_factor_measured": (max(bsizes) / max(r, 1.0) ** (2 / 3))
        if bsizes else 0.0,
        # constant in the total-boundary budget C * n * r^(-1/3)
        "boundary_total_factor": total_boundary
        / (c.num_simplexes * max(r, 1.0) ** (-1 / 3)),
    })


# -- sphere hollowing ---------------------------------------------------------

def sphere_hollowing(c, r, config: HollowingConfig | None = None) -> Hollowing:
    """Surface hollowing: region boundaries are triangulated 2-spheres that
    pairwise intersect in discs.  Requires holes to stay clear of the
    cutting planes."""
    config = config or HollowingConfig()
    d2 = abs(c.boundary(2))
    labels, ncomp = _check_boundary_structure(c, r, config, _adjacency(d2))
    planes = _plane_positions(c, r, lattice=True)
    if not any(planes):
        # degenerate: one region whose boundary sphere is the outer surface
        h = _single_region(c, r, "sphere")
        sizes = [np.sum(labels == k) for k in range(ncomp)]
        outer = np.flatnonzero(labels == int(np.argmax(sizes))) if ncomp \
            else np.empty(0, dtype=np.int64)
        h.tri_class[outer] = -1
        if len(outer):
            h.edge_class[np.unique(c.tri_edges[outer])] = -1
            h.tri_disc[outer] = 0
        h.shells = [outer]
        _record_metrics(c, h, r)
        return h

    lo = c.vertices.min(axis=0)
    hi = c.vertices.max(axis=0)
    cuts = [np.array(planes[a]) for a in range(3)]
    levels = [np.concatenate([[lo[a]], cuts[a], [hi[a]]]) for a in range(3)]

    # holes must not straddle a cutting plane
    sizes = [np.sum(labels == k) for k in range(ncomp)]
    largest = int(np.argmax(sizes)) if ncomp else -1
    for k in range(ncomp):
        if k == largest:
            continue
        hv = np.unique(c.triangles[labels == k])
        for a in range(3):
            for q in cuts[a]:
                if c.vertices[hv, a].min() <= q <= c.vertices[hv, a].max():
                    raise UnsupportedGeometryError(
                        "hole crosses a cutting plane; sphere hollowings "
                        "need holes interior to a single region")

    tet_region, boxes = _box_assignment(c, cuts)
    nreg = len(boxes)

    on_level = [np.isin(c.vertices[:, a], levels[a]) for a in range(3)]
    tri_boundary = np.zeros(c.num_triangles, dtype=bool)
    tri_disc = np.full(c.num_triangles, -1, dtype=np.int64)
    disc_key = {}
    tv = c.triangles
    centroids = c.vertices[tv].mean(axis=1)
    for a in range(3):
        for q in levels[a]:
            sel = np.all(np.isclose(c.vertices[tv, a], q), axis=1)
            sel &= ~tri_boundary
            if not sel.any():
                continue
            tri_boundary |= sel
            ids = np.flatnonzero(sel)
            other = [b for b in range(3) if b != a]
            j = np.searchsorted(cuts[other[0]], centroids[ids, other[0]])
            k = np.searchsorted(cuts[other[1]], centroids[ids, other[1]])
            qi = float(q)
            for t, jj, kk in zip(ids, j, k):
                key = (a, qi, int(jj), int(kk))
                if key not in disc_key:
                    disc_key[key] = len(disc_key)
                tri_disc[t] = disc_key[key]

    edge_boundary = (d2 @ tri_boundary) > 0

    tri_class = np.full(c.num_triangles, -1, dtype=np.int64)
    faces = c.tet_tris
    owner = np.full(c.num_triangles, -1, dtype=np.int64)
    owner[faces.reshape(-1)] = np.repeat(tet_region, 4)
    tri_class[~tri_boundary] = owner[~tri_boundary]
    edge_class = np.full(c.num_edges, -1, dtype=np.int64)
    edges6 = c.tet_edges
    eowner = np.full(c.num_edges, -1, dtype=np.int64)
    eowner[edges6.reshape(-1)] = np.repeat(tet_region, 6)
    edge_class[~edge_boundary] = eowner[~edge_boundary]

    # region boundary spheres: boundary triangles on the region's box faces
    shells = []
    for b in range(nreg):
        member = np.zeros(c.num_triangles, dtype=bool)
        blo, bhi = boxes[b]
        ids = np.flatnonzero(tri_boundary)
        inside = np.ones(len(ids), dtype=bool)
        for a in range(3):
            inside &= (centroids[ids, a] >= blo[a] - 1e-9) \
                & (centroids[ids, a] <= bhi[a] + 1e-9)
        shells.append(ids[inside])

    h = Hollowing(r=r, kind="sphere", num_regions=nreg, tet_region=tet_region,
                  edge_class=edge_class, tri_class=tri_class, shells=shells,
                  shell_tets=[np.empty(0, dtype=np.int64)] * nreg,
                  tri_disc=tri_disc,
                  metrics={"planes": [list(map(float, p)) for p in planes],
                           "num_regions": nreg, "num_discs": len(disc_key)})
    _record_metrics(c, h, r)
    return h


def _box_assignment(c, cuts):
    centroids = c.vertices[c.tets].mean(axis=1)
    key = np.zeros(c.num_tets, dtype=np.int64)
    dims = []
    for a in range(3):
        k = np.searchsorted(cuts[a], centroids[:, a])
        dims.append(len(cuts[a]) + 1)
        key = key * (len(cuts[a]) + 1) + k
    used, tet_region = np.unique(key, return_inverse=True)
    lo = c.vertices.min(axis=0)
    hi = c.vertices.max(axis=0)
    boxes = []
    for u in used:
        kz = u % dims[2]
        ky = (u // dims[2]) % dims[1]
        kx = u // (dims[1] * dims[2])
        blo, bhi = [], []
        for a, ka in zip(range(3), (kx, ky, kz)):
            lev = np.concatenate([[lo[a]], cuts[a], [hi[a]]])
            blo.append(lev[ka])
            bhi.append(lev[ka + 1])
        boxes.append((np.array(blo), np.array(bhi)))
    return tet_region, boxes


# -- validation ---------------------------------------------------------------

def check_hollowing(c, h: Hollowing) -> None:
    """Raise ValueError naming the field when `h` cannot label `c`: a label
    array of the wrong length, or a class outside [-1, num_regions)."""
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


def validate_hollowing(c, h: Hollowing, config: HollowingConfig | None = None):
    """Check every structural invariant; returns a list of violations."""
    config = config or HollowingConfig()
    violations = []
    r = max(h.r, 1.0)

    if h.kind == "shell":
        # interior simplexes of distinct regions share no subsimplex: every
        # vertex may touch interior simplexes of at most one region
        vert_region = np.full(c.num_vertices, -1, dtype=np.int64)
        tables = ((c.edges, h.edge_class), (c.triangles, h.tri_class),
                  (c.tets, h.tet_region))
        for table, cls in tables:
            for k in range(h.num_regions):
                vs = np.unique(table[cls == k])
                clash = vert_region[vs]
                if np.any((clash >= 0) & (clash != k)):
                    violations.append(
                        "interior simplexes of different regions share a vertex")
                vert_region[vs] = k
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

    # region size budgets (configured constants)
    if h.metrics.get("region_simplexes_max", 0) > config.region_factor * r:
        violations.append("region exceeds region_factor * r simplexes")
    if h.metrics.get("boundary_simplexes_max", 0) > \
            config.boundary_factor * r ** (2 / 3):
        violations.append("region boundary exceeds boundary_factor * r^(2/3)")

    # shell width and boundary diameter
    tri_adj = _adjacency(abs(c.boundary(2)))
    if h.kind == "shell" and h.num_regions > 1:
        widths = h.metrics.get("shell_widths")
        if widths is None:
            tri_tets = abs(c.boundary(3)).tocsr()
            _, _, widths, _ = _assign_shells(
                c, h.tet_region < 0, h.tet_region, h.num_regions,
                tri_adj, _adjacency(tri_tets), tri_tets)
        bad_w = [w for w in widths if w < config.min_shell_width]
        if bad_w:
            violations.append(
                f"shell width {min(bad_w)} below {config.min_shell_width}")
    diam_cap = config.diameter_factor * r ** (1 / 3)
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

    if h.kind == "sphere" and h.num_regions > 1:
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
