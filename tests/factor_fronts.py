"""An exact factor's fronts as they leave the numeric pass, before its root
fronts trade their dense l11 for packed pseudo-inverses, and the lower
factor L assembled from them; the factor itself keeps neither."""

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
    kept and fronts are those, byte for byte, each root front holding its
    pseudo-inverse in place of its l11."""
    factor = dissection.nd_cholesky(matrix, coords, blocks=blocks,
                                    root_pins=root_pins, base_case=base_case)
    perm, kept, fronts = dissection._ordered_fronts(
        factor.matrix, coords, blocks, root_pins, base_case)
    assert same_bytes(perm, factor.perm) and same_bytes(kept, factor.kept)
    assert [(nd.start, nd.stop, nd.depth) for nd in factor._nodes] == [
        (nd.start, nd.stop, nd.depth) for nd in fronts]
    for got, nd in zip(factor._nodes, fronts):
        for name in ("skipped", "rows21", "l21"):
            assert same_bytes(getattr(got, name), getattr(nd, name)), name
        if nd.depth == 0:
            assert got.l11 is None
            assert same_bytes(got.pinv, dissection._root_pinv(nd))
        else:
            assert same_bytes(got.l11, nd.l11) and got.pinv is None
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
