"""Geometric separators, nested dissection orderings, and rank-aware sparse
Cholesky factorization for PSD matrices whose nonzero graph is a mesh graph.
Every factor comes from `nd_cholesky`: one ordering per uncoupled block of
rows, the blocks' subtrees side by side under an empty root.

The factorization is multifrontal over the separator tree: every tree node
eliminates its block against a dense frontal matrix and passes a Schur
update to its parent.  A symbolic pass fixes every front's rows before any
arithmetic.  Zero pivots of semidefinite inputs are skipped (the
corresponding factor column is zeroed, and pivoting inside the front moves
it last), so the factor is rank-revealing and solves against right-hand
sides in the image remain exact.  Solves walk the tree by levels, the
fronts of one depth at a time: by substitution in an exact solver, and in a
factor applied as a preconditioner through each level's inverted blocks,
folded into one sparse matrix.  An exact solver's root fronts, which have
no rows above them, apply their pseudo-inverses instead, packed, one
symmetric product per front.  A right-hand side that lives on root fronts
solves, for those rows, through those fronts alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import NumericalError

DEFAULT_BASE_CASE = 64
DEFAULT_PIVOT_TOL = 1e-12
# relative residual above which a checked solve calls b outside the image
IMAGE_TOL = 1e-6
# tested balance bound for the axis-median bisection separator
BALANCE_BOUND = 0.9

# Every dense kernel of this module goes through scipy's BLAS/LAPACK, never
# numpy's: the two wheels bundle separate OpenBLAS copies, each with its own
# thread pool, and alternating between them makes the pools starve each
# other on a small machine.  One library, one thread pool.
_POTRF = sla.get_lapack_funcs("potrf", dtype=np.float64)
_POTRI = sla.get_lapack_funcs("potri", dtype=np.float64)
_PSTRF = sla.get_lapack_funcs("pstrf", dtype=np.float64)
_TRTRS = sla.get_lapack_funcs("trtrs", dtype=np.float64)
_TRTRI = sla.get_lapack_funcs("trtri", dtype=np.float64)
_TRTTP = sla.get_lapack_funcs("trttp", dtype=np.float64)
_GEMM = sla.get_blas_funcs("gemm", dtype=np.float64)
# packed `dspmv`, not `dsymv` on the full block, which thrashes on two
# cores once numpy's thread pool is awake (README, configuration notes)
_SPMV = sla.get_blas_funcs("spmv", dtype=np.float64)


# -- separators -------------------------------------------------------------

def _split(points, eu, ev):
    """Masks (A, B, S) of the vertex separator of the graph whose edges run
    from eu[k] to ev[k]; all of S when no plane or index split separates."""
    n = len(points)
    best = None
    for axis in range(points.shape[1]):
        coord = points[:, axis]
        for value in _median_candidates(coord):
            a_mask = coord < value
            s_mask = coord == value
            b_mask = coord > value
            if not a_mask.any() or not b_mask.any():
                continue
            # any remaining A-B edge pulls its A endpoint into S
            bad = eu[a_mask[eu] & b_mask[ev]]
            s_mask[bad] = True
            a_mask[bad] = False
            big = max(a_mask.sum(), b_mask.sum())
            if big > BALANCE_BOUND * n:
                continue
            score = (s_mask.sum(), big)
            if best is None or score < best[0]:
                best = (score, a_mask, b_mask, s_mask)
    if best is not None:
        return best[1:]

    # no balanced plane (e.g. all points coincide): fall back to an
    # index-median split with the adjacency frontier as separator
    a_mask = np.zeros(n, dtype=bool)
    a_mask[np.lexsort(points.T)[:n // 2]] = True
    b_mask = ~a_mask
    s_mask = np.zeros(n, dtype=bool)
    s_mask[ev[a_mask[eu] & b_mask[ev]]] = True
    b_mask &= ~s_mask
    if not a_mask.any() or not b_mask.any():
        none = np.zeros(n, dtype=bool)
        return none, none, ~none
    return a_mask, b_mask, s_mask


def _median_candidates(coord):
    """Up to three distinct values of `coord`, those with the count of
    smaller entries nearest half first; one sort gives both the values and
    the counts, each value's first position in the sorted array."""
    ordered = np.sort(coord)
    below = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    if len(below) == 1:
        return []
    order = np.argsort(np.abs(below - len(coord) / 2))
    return ordered[below[order[:3]]]


# -- nested dissection ordering ---------------------------------------------

@dataclass
class NdNode:
    cols: np.ndarray                  # original indices eliminated here
    children: list = field(default_factory=list)
    start: int = -1                   # interval in permuted space, filled later
    stop: int = -1


@dataclass
class NdOrdering:
    """Separator-tree elimination ordering; separators come last."""
    perm: np.ndarray                  # position -> original index
    tree: NdNode
    n: int

    def __len__(self):
        return self.n


def nd_ordering(matrix, coords, base_case: int = DEFAULT_BASE_CASE,
                root_pin=None) -> NdOrdering:
    """Recursive geometric dissection of the nonzero graph of `matrix`.

    `coords` gives a 3D location per row (edge midpoints, triangle
    centroids, ...).  `root_pin` forces the given rows into the root
    separator, eliminated after everything else.  The graph is read once,
    as an edge list of the stored entries, and no sparse matrix is sliced.
    """
    coo = sp.coo_matrix(matrix)
    coords = np.asarray(coords, dtype=float)
    n = coo.shape[0]
    idx = np.arange(n)
    free = np.ones(n, dtype=bool)
    if root_pin is not None and len(root_pin):
        free[np.asarray(root_pin)] = False
    tree = _nd_recurse(coords, idx[free], *_sub_edges(free, coo.row, coo.col),
                       base_case)
    if not free.all():
        tree = NdNode(cols=idx[~free], children=[tree])
    perm = np.empty(n, dtype=np.int64)
    _assign_intervals(tree, perm, 0)
    return NdOrdering(perm=perm, tree=tree, n=n)


def _nd_recurse(coords, idx, eu, ev, base_case):
    """Separator tree over the rows `idx`, whose graph has the edges
    eu[k] -> ev[k] in positions within `idx`."""
    if len(idx) <= base_case:
        return NdNode(cols=idx)
    a, b, s = _split(coords[idx], eu, ev)
    if not a.any() or not b.any():
        return NdNode(cols=idx)
    return NdNode(cols=idx[s], children=[
        _nd_recurse(coords, idx[side], *_sub_edges(side, eu, ev), base_case)
        for side in (a, b)])


def _sub_edges(keep, eu, ev):
    """The edges with both ends in the mask `keep`, renumbered to the kept
    nodes' positions in index order."""
    pos = np.cumsum(keep) - 1
    inside = keep[eu] & keep[ev]
    return pos[eu[inside]], pos[ev[inside]]


def _assign_intervals(node, perm, offset):
    for ch in node.children:
        offset = _assign_intervals(ch, perm, offset)
    node.start, node.stop = offset, offset + len(node.cols)
    perm[node.start:node.stop] = node.cols
    return node.stop


# -- rank-aware sparse Cholesky ----------------------------------------------

@dataclass
class _NodeFactor:
    start: int
    stop: int
    skipped: np.ndarray    # local positions of skipped pivots
    l11: np.ndarray        # dense lower-triangular block, Fortran order; a
                           # skipped pivot's column is the identity's
    rows21: np.ndarray     # permuted row indices below the block
    l21: np.ndarray        # dense (len(rows21), block) sub-diagonal part, a
                           # Fortran-order view into its level's data
    depth: int             # depth of the front in the separator tree
    # an exact factor's root front: the kept block of its pseudo-inverse,
    # lower, packed by columns (see `_root_pinv`)
    pinv: np.ndarray | None = None

    @property
    def rank(self) -> int:
        """Kept pivots of the front."""
        return self.stop - self.start - len(self.skipped)


@dataclass
class _Level:
    """The fronts at one depth of the separator tree: mutually independent,
    with every row of their rows21 in a shallower front."""
    nodes: list            # the fronts left to substitute; none when folded
    cols: np.ndarray       # the level's positions, front by front
    skipped: np.ndarray    # positions of the level's skipped pivots
    a: sp.csc_matrix       # (n, len(cols)); column j holds the l21 column
                           # below position cols[j], or when folded the
                           # column of [I - L11^-1; L21 L11^-1] there
    at: sp.csr_matrix      # a.T, on the same arrays


@dataclass
class CholeskyFactor:
    """P L L^T P^T factorization with skipped (rank-deficient) pivots.

    A folded factor (built with `folded=True`) keeps only its levels'
    sparse matrices: it solves with one sparse product per level and
    direction, and has no fronts left to assemble L from."""

    perm: np.ndarray
    rank: int
    kept: np.ndarray              # bool per permuted position
    matrix: sp.csr_matrix         # original matrix, for residual checks
    _nodes: list = field(repr=False)    # by start; none when folded
    _levels: list = field(repr=False)   # root first (see `_schedule`)
    folded: bool = False

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def nbytes(self) -> int:
        """Bytes stored by the factor: its fronts' dense blocks, the root
        fronts' packed pseudo-inverses and its levels' sparse matrices
        (each front's l21 is a view into its level's), not the input
        matrix."""
        arrays = [self.perm, self.kept]
        for nd in self._nodes:
            arrays += [nd.skipped, nd.l11, nd.rows21]
            if nd.pinv is not None:
                arrays.append(nd.pinv)
        for level in self._levels:
            arrays += [level.cols, level.skipped, level.a.data,
                       level.a.indices, level.a.indptr]
        return sum(a.nbytes for a in arrays)

    @property
    def L(self) -> sp.csc_matrix:
        """The lower factor, assembled from the node blocks on each access;
        its column at a skipped pivot is zero."""
        if self.folded:
            raise ValueError("a folded factor stores its levels' inverted "
                             "blocks, not L")
        coo_r, coo_c, coo_v = [], [], []
        for nd in self._nodes:
            bs = nd.stop - nd.start
            r, c = np.tril_indices(bs)
            v = nd.l11[r, c]
            v[(r == c) & np.isin(r, nd.skipped)] = 0.0
            keep = v != 0.0
            coo_r.append(r[keep] + nd.start)
            coo_c.append(c[keep] + nd.start)
            coo_v.append(v[keep])
            if len(nd.rows21):
                rr = np.repeat(nd.rows21, bs).reshape(len(nd.rows21), bs)
                cc = np.tile(np.arange(bs), (len(nd.rows21), 1)) + nd.start
                keep = nd.l21 != 0.0
                coo_r.append(rr[keep])
                coo_c.append(cc[keep])
                coo_v.append(nd.l21[keep])
        n = len(self.perm)
        return sp.csc_matrix(
            (np.concatenate(coo_v) if coo_v else [],
             (np.concatenate(coo_r) if coo_r else [],
              np.concatenate(coo_c) if coo_c else [])),
            shape=(n, n))

    def solve(self, b, check_image: bool = True) -> np.ndarray:
        """`solve_with_factor`, whose image check a folded factor skips:
        it is applied as a preconditioner, whose solves are never checked."""
        return solve_with_factor(self, b,
                                 check_image=check_image and not self.folded)

    def root_solve(self, rows) -> "RootSolve":
        """The solve for right-hand sides that vanish outside `rows`, read
        on `rows` only, through the root (depth-0) fronts that hold them.
        Raises NumericalError when a row lies in a deeper front."""
        if self.folded:
            raise ValueError("a folded factor keeps no fronts to solve with")
        n = self.shape[0]
        pos = np.empty(n, dtype=np.int64)
        pos[self.perm] = np.arange(n)
        p = pos[np.asarray(rows, dtype=np.int64)]
        fronts = [nd for nd in self._nodes if nd.depth == 0
                  and np.any((nd.start <= p) & (p < nd.stop))]
        cols = np.concatenate([np.empty(0, dtype=np.int64)]
                              + [np.arange(nd.start, nd.stop) for nd in fronts])
        where = np.full(n, -1, dtype=np.int64)
        where[cols] = np.arange(len(cols))
        at = where[p]
        if np.any(at < 0):
            raise NumericalError(
                f"{int(np.sum(at < 0))} of the rows lie below the factor's "
                "root fronts")
        return RootSolve(fronts=fronts, at=at, size=len(cols))


@dataclass
class RootSolve:
    """`CholeskyFactor.solve` for a right-hand side b that vanishes outside
    some rows of the root fronts, read back on those rows alone.  Below the
    root every front and level product then acts on zeros, forward, and
    backward it writes only rows below the root, so the root fronts' own
    pseudo-inverse products (`_root_product`) give the same rows, in the
    same arithmetic."""
    fronts: list           # the root fronts holding the rows
    at: np.ndarray         # each row's position in the fronts, one after another
    size: int              # rows of the fronts together

    def solve(self, b) -> np.ndarray:
        """The solve for b of shape (len(rows),) or (len(rows), k)."""
        b = np.asarray(b, dtype=float)
        z = np.zeros((self.size,) + b.shape[1:])
        z[self.at] = b
        off = 0
        for nd in self.fronts:
            _root_product(nd, z[off:off + nd.stop - nd.start])
            off += nd.stop - nd.start
        return z[self.at]


def nd_cholesky(matrix, coords, blocks=None, root_pins=None,
                folded: bool = False,
                base_case: int = DEFAULT_BASE_CASE) -> CholeskyFactor:
    """The factor of `matrix`, in the matrix's own row order, the builder of
    every nested dissection factor.

    `blocks` partition the rows, by default into one block of all rows.
    Each nonempty block gets its own ordering by its rows' `coords` (a 3D
    location per row), with `root_pins[i]`, positions within block i, in
    its root separator, and its own pivot threshold, DEFAULT_PIVOT_TOL
    times its largest diagonal entry; the blocks' roots are the roots.
    The tree is factored in one pass and its levels scheduled once,
    `folded` for a factor applied as a preconditioner (see `_schedule`: an
    inverse rounds worse than substitution, so exact solvers stay
    unfolded).  An exact solver's root fronts are the exception, and get
    their pseudo-inverses (`_root_pinv`): a root front has no rows above
    it, so its two substitutions run back to back and are one product with
    that inverse, the last step of the solve.  Its forward error is of the
    order of the substitutions' (the front's condition number times the
    unit roundoff), and no later product carries it into other rows, as a
    folded inverse's is carried down the levels below.  The tests
    `test_root_pinv_matches_the_front_schur_pinv` and
    `test_root_pinv_of_a_definite_and_of_an_all_skipped_front` bound the
    inverse against the pseudo-inverse of the front's Schur complement,
    and the solve tests bound the answer against the matrix.  Raises NumericalError when two blocks are coupled
    or the matrix is indefinite, and ValueError when it has a non-finite
    stored entry or `blocks` do not partition its rows.
    """
    matrix = _finite_csr(matrix)
    coords = np.asarray(coords, dtype=float)
    n = matrix.shape[0]
    blocks = [np.arange(n)] if blocks is None else [
        np.asarray(rows, dtype=np.int64) for rows in blocks]
    _check_partition(matrix, blocks)
    diag = matrix.diagonal()
    scale = np.empty(n)
    pins = [None] * len(blocks) if root_pins is None else root_pins
    subtrees = []
    for rows, pin in zip(blocks, pins):
        if len(rows):
            scale[rows] = _pivot_scale(diag[rows])
            m = matrix[rows][:, rows]
            tree = nd_ordering(m, coords[rows], base_case=base_case,
                               root_pin=pin).tree
            subtrees.append(_relabel(tree, rows))
    tree = NdNode(cols=np.empty(0, dtype=np.int64), children=subtrees)
    perm = np.empty(n, dtype=np.int64)
    _assign_intervals(tree, perm, 0)
    perm, kept, nodes = _factor_fronts(
        matrix, NdOrdering(perm=perm, tree=tree, n=n), DEFAULT_PIVOT_TOL,
        scale)
    if not folded:
        for nd in nodes:
            if nd.depth == 0:
                nd.pinv = _root_pinv(nd)
    return CholeskyFactor(perm=perm, rank=int(kept.sum()), kept=kept,
                          matrix=matrix, _nodes=[] if folded else nodes,
                          _levels=_schedule(nodes, n, folded), folded=folded)


def _check_partition(matrix, blocks):
    """Raise ValueError unless `blocks` partition the rows of `matrix`, and
    NumericalError when a stored entry couples two blocks."""
    n = matrix.shape[0]
    counts = np.bincount(np.concatenate([np.empty(0, dtype=np.int64)]
                                        + blocks), minlength=n)
    if len(counts) != n or np.any(counts != 1):
        raise ValueError("blocks do not partition the matrix's rows")
    label = np.empty(n, dtype=np.int64)
    for i, rows in enumerate(blocks):
        label[rows] = i
    coo = matrix.tocoo()
    if np.any(label[coo.row] != label[coo.col]):
        raise NumericalError(
            "index blocks are coupled; the partition does not match the "
            "matrix")


def _pivot_scale(diagonal) -> float:
    """What a block's pivot threshold is relative to: its largest diagonal
    entry, or 1 when none is positive."""
    return diagonal.max(initial=0.0) or 1.0


def _relabel(node, rows) -> NdNode:
    """The tree at `node` with its columns, positions in `rows`, made rows."""
    node.cols = rows[node.cols]
    for ch in node.children:
        _relabel(ch, rows)
    return node


def _finite_csr(matrix) -> sp.csr_matrix:
    matrix = sp.csr_matrix(matrix).astype(float)
    if not np.isfinite(matrix.data).all():
        raise ValueError("matrix has non-finite entries")
    return matrix


@dataclass
class _Front:
    """The pattern of one front, from `_symbolic`: its rows are its block
    start:stop, then `above`."""
    start: int
    stop: int
    depth: int             # depth in the separator tree
    above: np.ndarray      # sorted rows >= stop: the front's update rows
    own: np.ndarray        # positions in the CSC arrays of the block's
                           # stored entries at rows >= start
    own_at: np.ndarray     # their flat positions in the front
    locs: list             # per child, its update rows' positions here


def _symbolic(tree, mp):
    """The fronts of the separator tree over the permuted CSC matrix `mp`,
    children before parents, the order of their starts (Liu's multifrontal
    structure): a front's rows above its block are its own columns' rows
    there and its children's update rows there, one sorted union.  An
    empty root (the one above `nd_cholesky`'s blocks) adds no depth: its
    children are at depth 0.  Raises NumericalError when a child's update
    reaches below its parent's block."""
    fronts = []
    _symbolic_front(tree, 0 if len(tree.cols) else -1, mp,
                    np.empty(mp.shape[0], dtype=np.int64), fronts)
    return fronts


def _symbolic_front(node, depth, mp, where, fronts):
    """Appends the fronts of the subtree at `node` to `fronts`, its own
    last, and returns its own; `where` maps a row to its row in the front
    at hand."""
    kids = [_symbolic_front(ch, depth + 1, mp, where, fronts)
            for ch in node.children]
    c0, c1 = node.start, node.stop
    for kid in kids:
        # separator property: children may only touch their own ancestors
        if len(kid.above) and kid.above[0] < c0:
            raise NumericalError(
                "ordering lacks the separator property: a subtree couples "
                "to rows outside its ancestors")
    p0, p1 = mp.indptr[c0], mp.indptr[c1]
    rows = mp.indices[p0:p1]
    above = np.unique(np.concatenate(
        [rows[rows >= c1]]
        + [kid.above[np.searchsorted(kid.above, c1):] for kid in kids]))
    bs = c1 - c0
    where[c0:c1] = np.arange(bs)
    where[above] = np.arange(bs, bs + len(above))
    own = np.flatnonzero(rows >= c0)
    cols = np.repeat(np.arange(bs), np.diff(mp.indptr[c0:c1 + 1]))[own]
    fronts.append(_Front(
        start=c0, stop=c1, depth=depth, above=above, own=own + p0,
        own_at=where[rows[own]] + cols * (bs + len(above)),
        locs=[where[kid.above] for kid in kids]))
    return fronts[-1]


def _factor_fronts(matrix, ordering, pivot_tol, scale):
    """(perm, kept, fronts) of the factor of the float CSR `matrix` along
    the NdOrdering `ordering`; `_schedule` makes the fronts levels.  A
    front's pivot threshold is pivot_tol times the `scale` of its first
    row, one value per row of `matrix` (see `_pivot_scale`).

    The numeric pass over `_symbolic`'s fronts: each front adds up its own
    stored entries, read straight from the permuted CSC arrays, then its
    children's Schur updates in order, each through flat indices built for
    that child alone, and eliminates its block.  Fronts are in Fortran
    order, as dgemm returns the updates, so every sum reads both operands
    in one order."""
    n = matrix.shape[0]
    perm = ordering.perm
    mp = matrix[perm][:, perm].tocsc()
    scale = scale[perm]

    nodes: list[_NodeFactor] = []
    updates = []             # Schur updates of fronts whose parent is next
    new_pos = np.arange(n)   # ordering position -> factor position
    for fr in _symbolic(ordering.tree, mp):
        c0, c1 = fr.start, fr.stop
        bs, na = c1 - c0, len(fr.above)
        front = np.zeros((bs + na, bs + na), order="F")
        flat = front.ravel("F")   # a view: (i, j) is at i + j * (bs + na)
        flat[fr.own_at] += mp.data[fr.own]
        first = len(updates) - len(fr.locs)
        for loc, upd in zip(fr.locs, updates[first:]):
            flat[(loc[:, None] * (bs + na) + loc).ravel()] += upd.ravel("F")
        del updates[first:]

        l11, kept_local, order = _dense_rank_chol(
            front[:bs, :bs], scale[c0] if bs else 1.0, pivot_tol)
        new_pos[c0 + order] = np.arange(c0, c1)
        # solve-ready block: a unit diagonal at each skipped pivot, whose
        # column is already zero below it, so no solve needs masking
        skipped = np.flatnonzero(~kept_local)
        l11 = np.asfortranarray(l11)
        l11[skipped, skipped] = 1.0
        # the Schur update to the parent is the same under any order of the
        # block's own columns
        update = front[bs:, bs:]
        if na and kept_local.any():
            # l21 l11^T = f21; the kept columns never read the skipped ones
            l21 = _triangular_solve(l11, front[bs:, order].T, trans=0).T
            l21[:, skipped] = 0.0
            outer = _GEMM(1.0, l21.T, l21.T, trans_a=1)   # l21 l21^T
            update = np.subtract(update, outer, out=outer)
        else:
            l21 = np.zeros((na, bs))
            # a view would keep the whole front alive until its parent,
            # for a root the end of the pass
            update = update.copy("F")
        updates.append(update)
        if bs:  # an empty separator (disconnected halves) stores nothing
            nodes.append(_NodeFactor(start=c0, stop=c1, skipped=skipped,
                                     l11=l11, rows21=fr.above, l21=l21,
                                     depth=fr.depth))

    # pivoting reorders positions within each front; a node's rows21 point
    # into its ancestors' intervals, so they move with them
    perm_new = np.empty_like(perm)
    perm_new[new_pos] = perm
    kept = np.ones(n, dtype=bool)
    for nd in nodes:
        nd.rows21 = new_pos[nd.rows21]
        kept[nd.start + nd.skipped] = False
    return perm_new, kept, nodes


def _schedule(nodes, n, folded=False):
    """The solve's levels, root first: the fronts of each depth, with their
    blocks as one sparse matrix of n rows and one column per position of
    the level, its data the blocks column by column.  Unfolded, the blocks
    are the l21, and each node's l21 becomes a view into the data, so no
    block is stored twice.  Folded, they are the columns of `_fold_front`,
    and the level keeps no fronts."""
    levels = []
    for depth in range(max((nd.depth for nd in nodes), default=-1) + 1):
        group = [nd for nd in nodes if nd.depth == depth]
        if not group:   # only empty separators at this depth
            continue
        counts = np.concatenate([_fold_counts(nd) if folded
                                 else np.full(nd.stop - nd.start,
                                              len(nd.rows21))
                                 for nd in group])
        indptr = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)
        off = 0
        for nd in group:
            if folded:
                rows, values = _fold_front(nd)
            else:
                rows, values = np.tile(nd.rows21, nd.stop - nd.start), nd.l21
            end = off + values.size
            view = data[off:end].reshape(values.shape, order="F")
            view[...] = values
            indices[off:end] = rows
            if not folded:
                nd.l21 = view
            off = end
        a = sp.csc_matrix((data, indices, indptr), shape=(n, len(counts)))
        levels.append(_Level(
            nodes=[] if folded else group,
            cols=np.concatenate([np.arange(nd.start, nd.stop)
                                 for nd in group]),
            skipped=np.concatenate([nd.start + nd.skipped for nd in group]),
            a=a, at=a.T))
    return levels


def _fold_counts(nd):
    """Entries per column of the front's folded block (see `_fold_front`)."""
    counts = np.arange(nd.stop - nd.start + len(nd.rows21), len(nd.rows21),
                       -1)
    counts[nd.skipped] = 0
    return counts


def _fold_front(nd):
    """(rows, values) of the front's folded block [I - L11^-1; L21 L11^-1]
    over the rows (front, rows21), column by column.  With it z -= A z[cols]
    is the front's whole forward step, the substitution included.  L11^-1
    comes from LAPACK `dtrtri`, and the product from `dgemm`.  Only the
    lower triangle of I - L11^-1 is kept, and a skipped pivot's column,
    exactly zero since L11 and L21 have the identity's and a zero column
    there, is left out."""
    bs, na = nd.stop - nd.start, len(nd.rows21)
    inv, info = _TRTRI(nd.l11, lower=1)
    if info:
        raise NumericalError(f"triangular inverse failed (LAPACK info {info})")
    block = np.empty((bs + na, bs), order="F")
    block[:bs] = -inv
    block[np.arange(bs), np.arange(bs)] += 1.0
    if na:
        block[bs:] = _GEMM(1.0, nd.l21, inv)
    # column by row: row i of column j is kept when i >= j
    keep = ~np.tri(bs, bs + na, -1, dtype=bool)
    keep[nd.skipped] = False
    rows = np.concatenate((np.arange(nd.start, nd.stop), nd.rows21))
    return np.broadcast_to(rows, keep.shape)[keep], block.T[keep]


def _root_pinv(nd):
    """The kept block of the root front's pseudo-inverse K = L11^-T D
    L11^-1, D the identity on the kept pivots and zero on the skipped ones:
    its lower triangle packed by columns (LAPACK `dpotri` on the kept block
    of l11, then `dtrttp`).  Kept pivots come first (`_dense_rank_chol`),
    so K is zero outside that block."""
    rank = nd.rank
    if not rank:
        return np.empty(0)
    inv, info = _POTRI(nd.l11[:rank, :rank], lower=1)
    if info == 0:
        packed, info = _TRTTP(inv, uplo="L")
    if info:
        raise NumericalError(f"front inverse failed (LAPACK info {info})")
    return packed


def _root_product(nd, seg):
    """seg = K seg in place, for K the root front's pseudo-inverse (see
    `_root_pinv`): one BLAS `dspmv` per column of seg on the kept rows, and
    zeros on the skipped ones."""
    rank = nd.rank
    cols = seg.reshape(len(seg), -1)
    if rank:
        for j in range(cols.shape[1]):
            cols[:rank, j] = _SPMV(rank, 1.0, nd.pinv, cols[:rank, j],
                                   lower=1)
    cols[rank:] = 0.0


def _dense_rank_chol(a, scale, pivot_tol):
    """Dense lower Cholesky that skips (zeroes) pivots at or below
    pivot_tol * scale: (l, kept, order), kept pivots first, with
    l l^T = a[order][:, order] up to the skipped pivots.  A definite block
    keeps its order (dpotrf); any other is pivoted by LAPACK's dpstrf, and
    a pivot left below minus the threshold raises NumericalError."""
    n = a.shape[0]
    thresh = pivot_tol * scale
    l, info = _POTRF(a, lower=1, clean=1)
    if info == 0 and (l.diagonal() ** 2 > thresh).all():
        return l, np.ones(n, dtype=bool), np.arange(n)
    l, piv, rank, _ = _PSTRF(a, tol=thresh, lower=1)
    order = piv.astype(np.int64) - 1
    # dpstrf tests its first pivot against zero only, not against tol
    if rank and a[order[0], order[0]] <= thresh:
        rank = 0
    # dpstrf leaves the input above the diagonal and its stopping state
    # from the rank on
    l = np.tril(l)
    l[:, rank:] = 0.0
    rest = a.diagonal()[order[rank:]] - (l[rank:, :rank] ** 2).sum(axis=1)
    if (rest < -thresh).any():
        raise NumericalError(
            f"matrix is not positive semidefinite (pivot {rest.min():.3e})")
    return l, np.arange(n) < rank, order


def solve_with_factor(factor: CholeskyFactor, b,
                      check_image: bool = True) -> np.ndarray:
    """Solve M x = b through the factor, for b of shape (n,) or (n, k);
    zero pivots get the zero-tail treatment (x is 0 there), so the result is
    exact for b in Im(M).  The solve walks the separator tree by levels:
    one sparse product per level and direction, and in an unfolded factor
    one LAPACK `dtrtrs` per front below the root and direction besides,
    and per root front and column of b one BLAS `dspmv` with its packed
    pseudo-inverse (`_root_product`): a root front has no rows above it,
    so its forward and backward substitutions run back to back, with only
    the zeroing of its skipped pivots between them.  Raises ValueError
    for a b of another row count or with non-finite entries, and with
    `check_image` NumericalError when M x misses a nonzero column of b by
    more than IMAGE_TOL relative to it."""
    b = np.asarray(b, dtype=float)
    n = factor.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"b has shape {b.shape}, expected ({n},) or ({n}, k)")
    if not np.isfinite(b).all():
        raise ValueError("b has non-finite entries")
    z = b[factor.perm]
    # forward: L y = z, deepest level first; y at a skipped pivot is never
    # read, since its column of l11 is zero below the diagonal and its
    # column of l21 is zero
    for level in reversed(factor._levels):
        for nd in level.nodes:
            if nd.pinv is None:
                y = z[nd.start:nd.stop]
                y[:] = _triangular_solve(nd.l11, y, trans=0)
        _level_update(z, level, trans=False)
    # backward: L^T x = y, root level first; a zero right-hand side at a
    # skipped pivot makes x exactly 0 there, and zeroing it before the
    # level's product changes nothing else, since the level matrix's
    # column at a skipped pivot is zero
    for level in factor._levels:
        z[level.skipped] = 0.0
        _level_update(z, level, trans=True)
        for nd in level.nodes:
            seg = z[nd.start:nd.stop]
            if nd.pinv is None:
                seg[:] = _triangular_solve(nd.l11, seg, trans=1)
            else:   # the root front's whole solve
                _root_product(nd, seg)

    x = np.empty_like(z)
    x[factor.perm] = z
    if check_image:
        _check_image(factor.matrix, x, b)
    return x


def _level_update(z, level, trans):
    """z -= A z[cols] for the level's sparse matrix A, or z[cols] -= A^T z
    when trans is true, in place; a folded level's product is the whole
    step.  Sparse, so it calls no dense BLAS."""
    if level.a.nnz:
        if trans:
            z[level.cols] -= level.at @ z
        else:
            z -= level.a @ z[level.cols]


def _check_image(matrix, x, b):
    """Raise unless matrix x meets each nonzero column of b (a 1-D b is one
    column) to IMAGE_TOL, a NaN residual included; `matrix` is sparse, so
    this check calls no dense BLAS."""
    norm_b = np.linalg.norm(b, axis=0)
    bad = ~(np.linalg.norm(matrix @ x - b, axis=0)
            <= IMAGE_TOL * np.maximum(norm_b, 1e-300))
    if np.any(bad & (norm_b > 0)):
        raise NumericalError("right-hand side is not in the image of the matrix")


def _triangular_solve(l11, rhs, trans):
    """x with l11 x = rhs, or l11^T x = rhs when trans is 1."""
    x, info = _TRTRS(l11, rhs, lower=1, trans=trans)
    if info:
        raise NumericalError(f"triangular solve failed (LAPACK info {info})")
    return x
