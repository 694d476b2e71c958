"""Independent output checks.

Every matrix here is assembled from the mesh arrays (edges, triangles,
weights) with scipy; nothing goes through tetlap's projections or the
matrices `Complex3` caches.  The harmonic basis of a mesh with b1 > 0 comes
from a shift-invert eigensolve of that independently assembled L1.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# acceptance criterion 9: pairwise inner products of the Hodge parts
HODGE_FACTOR = 10.0
# eigenvalues of L1 below this share of its largest diagonal entry count
# as zero when the harmonic basis is computed
KERNEL_TOL = 1e-8


def incidence(edges, triangles, num_vertices):
    """(d1, d2) for ascending-vertex simplexes: column sigma carries
    (-1)^j at the face that omits the j-th vertex of sigma."""
    edges = np.asarray(edges, dtype=np.int64)
    triangles = np.asarray(triangles, dtype=np.int64)
    ne, nt = len(edges), len(triangles)
    cols = np.arange(ne)
    d1 = sp.csr_matrix(
        (np.concatenate([-np.ones(ne), np.ones(ne)]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([cols, cols]))),
        shape=(num_vertices, ne))
    key = edges[:, 0] * num_vertices + edges[:, 1]
    order = np.argsort(key)
    rows, signs = [], []
    for j, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
        face = np.delete(triangles, j, axis=1)
        fkey = face[:, 0] * num_vertices + face[:, 1]
        pos = np.searchsorted(key, fkey, sorter=order)
        pos = order[np.minimum(pos, ne - 1)]
        if np.any(key[pos] != fkey):
            raise ValueError("triangle side missing from the edge list")
        rows.append(pos)
        signs.append(np.full(nt, sign))
    tcols = np.arange(nt)
    d2 = sp.csr_matrix(
        (np.concatenate(signs), (np.concatenate(rows),
                                 np.concatenate([tcols, tcols, tcols]))),
        shape=(ne, nt))
    return d1, d2


def _norm_bound(m) -> float:
    """Upper bound on the 2-norm of m: sqrt of a Gershgorin bound of m m^T."""
    g = abs(m @ m.T)
    return float(np.sqrt(np.max(g.sum(axis=1)))) if g.shape[0] else 0.0


class Checker:
    """Reference matrices of one mesh, built once outside timed regions."""

    def __init__(self, c, harmonic: bool = False):
        self.edges = np.array(c.edges, copy=True)
        self.triangles = np.array(c.triangles, copy=True)
        w0, _, w2, _ = (np.asarray(w, dtype=float) for w in c.weights)
        self.d1, self.d2 = incidence(self.edges, self.triangles, len(c.vertices))
        self.lap_up = (self.d2 @ sp.diags(w2) @ self.d2.T).tocsr()
        self.lap1 = (self.d1.T @ sp.diags(w0) @ self.d1 + self.lap_up).tocsr()
        self.d1_norm = _norm_bound(self.d1)
        self.d2_norm = _norm_bound(self.d2.T)
        self.harmonic = harmonic_basis(self.lap1) if harmonic \
            else np.zeros((len(self.edges), 0))

    @property
    def b1(self) -> int:
        return self.harmonic.shape[1]

    def describes(self, c) -> bool:
        return (np.array_equal(self.edges, c.edges)
                and np.array_equal(self.triangles, c.triangles))

    def project(self, b):
        """P1 b: b minus its harmonic part."""
        return b - self.harmonic @ (self.harmonic.T @ b)

    def solve_residual(self, x, b) -> float:
        """|L1 x - P1 b| / |P1 b|."""
        target = self.project(b)
        return float(np.linalg.norm(self.lap1 @ x - target)
                     / max(np.linalg.norm(target), 1e-300))

    def up_residual(self, x, b) -> float:
        """|Lup x - b| / |b|."""
        return float(np.linalg.norm(self.lap_up @ x - b)
                     / max(np.linalg.norm(b), 1e-300))

    def hodge_error(self, f, parts, eps: float) -> float:
        """Worst violation ratio of the Hodge-split conditions (<= 1 passes).

        Pairwise inner products must stay within 10 eps |f|^2.  The parts
        must also lie where they belong, up to the same share of |f|:
        d2^T gradient = 0, d1 curl = 0 and both for the harmonic part, so a
        split that returns (0, 0, f) does not pass.
        """
        g, curl, harm = (np.asarray(p, dtype=float) for p in parts)
        nf = float(np.linalg.norm(f))
        if nf == 0.0:
            return 0.0
        if not np.allclose(g + curl + harm, f, rtol=0.0, atol=1e-12 * nf):
            return np.inf
        tol = HODGE_FACTOR * eps
        inner = max(abs(g @ curl), abs(g @ harm), abs(curl @ harm)) \
            / (tol * nf * nf)
        d2t = max(np.linalg.norm(self.d2.T @ g),
                  np.linalg.norm(self.d2.T @ harm)) / (tol * self.d2_norm * nf)
        d1 = max(np.linalg.norm(self.d1 @ curl),
                 np.linalg.norm(self.d1 @ harm)) / (tol * self.d1_norm * nf)
        return float(max(inner, d2t, d1))


def harmonic_basis(lap1) -> np.ndarray:
    """Orthonormal basis of ker L1, from eigenpairs nearest a small negative
    shift (L1 minus the shift is positive definite, so splu succeeds)."""
    n = lap1.shape[0]
    scale = float(lap1.diagonal().max())
    sigma = -1e-3 * scale
    k = 6
    while True:
        k = min(k, n - 2)
        vals, vecs = spla.eigsh(lap1, k=k, sigma=sigma, which="LM")
        zero = vals < KERNEL_TOL * scale
        if not zero.all() or k == n - 2:
            break
        k *= 2
    basis, _ = np.linalg.qr(vecs[:, zero])
    return basis
