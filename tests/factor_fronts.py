"""An exact factor's fronts as they leave the numeric pass, before its root
fronts trade their dense l11 for the packed pseudo-inverses of its `root`,
and the lower factor L assembled from them; the factor itself keeps
neither."""

import numpy as np
import scipy.sparse as sp

from tetlap import dissection
from tetlap.dissection import DEFAULT_BASE_CASE


def same_bytes(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def exact_build(matrix, coords, blocks=None, root_pins=None,
                base_case=DEFAULT_BASE_CASE):
    """(factor, fronts): the exact `nd_cholesky` factor and its fronts from
    the same ordering and numeric pass.  Asserts that the factor's perm,
    kept and fronts below the root are those, byte for byte, and its
    `root` holds each root front's pseudo-inverse in place of its l11."""
    factor = dissection.nd_cholesky(matrix, coords, blocks=blocks,
                                    root_pins=root_pins, base_case=base_case)
    perm, kept, fronts = dissection._ordered_fronts(
        factor.matrix, coords, blocks, root_pins, base_case)
    assert same_bytes(perm, factor.perm) and same_bytes(kept, factor.kept)
    below = [nd for nd in fronts if nd.depth]
    assert [(nd.start, nd.stop, nd.depth) for nd in factor._nodes] == [
        (nd.start, nd.stop, nd.depth) for nd in below]
    for got, nd in zip(factor._nodes, below):
        for name in ("skipped", "l11", "rows21", "l21"):
            assert same_bytes(getattr(got, name), getattr(nd, name)), name
    roots = [nd for nd in fronts if nd.depth == 0]
    root = factor.root
    assert same_bytes(root.cols, np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [np.arange(nd.start, nd.stop) for nd in roots]))
    assert root.sizes == [nd.stop - nd.start for nd in roots]
    assert root.ranks == [nd.rank for nd in roots]
    assert len(root.pinvs) == len(roots)
    for pinv, nd in zip(root.pinvs, roots):
        assert same_bytes(pinv, dissection._root_pinv(nd))
    return factor, fronts


def lower_factor(fronts, n) -> sp.csc_matrix:
    """The lower factor assembled from the fronts; its column at a skipped
    pivot is zero."""
    coo_r, coo_c, coo_v = [], [], []
    for nd in fronts:
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
    return sp.csc_matrix(
        (np.concatenate(coo_v) if coo_v else [],
         (np.concatenate(coo_r) if coo_r else [],
          np.concatenate(coo_c) if coo_c else [])),
        shape=(n, n))
