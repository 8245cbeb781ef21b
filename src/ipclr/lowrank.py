"""Complex SVD helpers: truncation, nuclear norm, singular-value thresholding.

``svd`` and ``rank_k_approx`` take a LAPACK SVD of the matrix itself, which
resolves singular values down to about eps * sigma_max, as the rank-k
curves need.  ``nuclear_norm``, ``svt`` and ``rank_one_approx`` instead
work on the Hermitian Gram matrix of the short side (n x n, n the
shorter dimension), which for the denoiser's wide 43 x 4096 matrix (one
frame per row) and Table 1's tall 2049 x 79..313 matrices costs a
fraction of the SVD.  A tall complex C-contiguous matrix (Table 1's) gets
its Gram matrix from OpenBLAS's ``zherk`` (``blas.conj_gram``), which
computes one triangle from M itself; otherwise numpy forms the product.
The Gram eigenvalues are off by about delta = n * eps * sigma_max**2 either
way; each function states its resulting bound.
``nuclear_norm`` and ``svt`` need every eigenpair and call ``eigh``.
``rank_one_approx`` needs only the top one and finds it by block subspace
iteration with Rayleigh-Ritz (Halko, Martinsson & Tropp, SIAM Rev. 53(2),
2011): a fixed block of 8 vectors, one product with the Gram matrix per
iteration, stopped when the top Ritz pair's residual falls to ``eigh``'s
own backward error n * eps * theta_1, and handed to ``eigh`` after 30
iterations or for n <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD with a deterministic sign convention.

    Columns of U and V are orthonormal, singular values are descending and
    non-negative, and each left vector is rotated so its largest-magnitude
    entry is positive real (the matching right vector is counter-rotated),
    which makes factor comparisons reproducible.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    def reconstruct(self, k: int | None = None) -> np.ndarray:
        """U_k diag(s_k) V_k^H for k in [1, rank]; full reconstruction when k is None."""
        rank = self.singular_values.shape[0]
        k = rank if k is None else k
        if not 1 <= k <= rank:
            raise ValueError(f"k must lie in [1, {rank}] (the factored rank), got {k}")
        return (self.U[:, :k] * self.singular_values[:k]) @ self.V[:, :k].conj().T


def _check_finite(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN/Inf entries")
    return m


def svd(m: np.ndarray) -> SvdFactors:
    """Thin SVD of a real or complex matrix (LAPACK route)."""
    m = _check_finite(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    v = vh.conj().T
    for i in range(s.shape[0]):
        j = int(np.argmax(np.abs(u[:, i])))
        pivot = u[j, i]
        mag = abs(pivot)
        if mag > 0.0:
            phase = pivot / mag
            u[:, i] = u[:, i] / phase
            v[:, i] = v[:, i] / phase
    return SvdFactors(U=u, singular_values=s, V=v)


def rank_k_approx(m: np.ndarray, k: int) -> np.ndarray:
    """Best Frobenius-norm rank-k approximation via truncated SVD."""
    if not 1 <= k <= min(np.shape(m)):
        raise ValueError(f"k must lie in [1, {min(np.shape(m))}], got {k}")
    return svd(m).reconstruct(k)


def _gram(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Hermitian Gram matrix of the short side, and whether it is M^H M.

    A tall complex C-contiguous M takes ``zherk`` (``blas.conj_gram``): one
    triangle, mirrored, with no conjugated copy of M.  numpy already forms
    a real M^T M by ``syrk``.
    """
    if m.shape[0] >= m.shape[1]:
        gram = blas.conj_gram(m)
        return (m.conj().T @ m if gram is None else gram), True
    return m @ m.conj().T, False


_BLOCK = 8
_MAX_ITERATIONS = 30


def _top_eigenvector(gram: np.ndarray) -> np.ndarray:
    """Unit top eigenvector (n x 1) of a Hermitian positive semi-definite matrix.

    The start block is a fixed Gaussian draw, so the result repeats bit for
    bit.  Each iteration takes one product W = G Q and reuses it for the
    Ritz matrix Q^H W, the top Ritz pair's residual W y_1 - theta_1 Q y_1
    and the next block W Y.
    """
    n = gram.shape[0]
    if n > 2 * _BLOCK:
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, _BLOCK)))
        tol = n * np.finfo(np.float64).eps
        for _ in range(_MAX_ITERATIONS):
            w = gram @ q
            theta, y = np.linalg.eigh(q.conj().T @ w)
            wy = w @ y
            top = q @ y[:, -1:]
            if np.linalg.norm(wy[:, -1:] - theta[-1] * top) <= tol * theta[-1]:
                return top
            q, _ = np.linalg.qr(wy)
    return np.linalg.eigh(gram)[1][:, -1:]


def rank_one_approx(m: np.ndarray) -> np.ndarray:
    """Best Frobenius-norm rank-1 approximation through the Gram matrix.

    With v the top eigenvector of the short side's Gram matrix this is
    M v v^H for a tall M (u u^H M with u from M M^H for a wide one), the
    matrix ``svd(m).reconstruct(1)`` gives.  v comes from block subspace
    iteration (block of 8, fixed start, at most 30 iterations, ``eigh`` as
    fallback and for n <= 16), stopped once the Ritz residual
    ||G v - theta_1 v|| is at most n * eps * theta_1.  That is the backward
    error ``eigh`` itself leaves, so the iterate is as close to the top
    eigenvector as ``eigh``'s: the Gram error delta = n * eps * sigma_1**2
    plus the residual turn v by about delta / (sigma_1**2 - sigma_2**2),
    and the result is off from the SVD's by about
    n * eps * sigma_1**2 / (sigma_1**2 - sigma_2**2) relative to sigma_1,
    plus the rounding of the products, about n * eps.  Table 1's rank-1
    cells (at most about 80 dB) lie far above that floor: over a 10-seed
    published-geometry table the iteration stopped after about 6 steps in
    each of the 279 cells, never fell back to ``eigh``, and every cell
    matched the full-``eigh`` route to 3e-13 dB.  A rank-k
    version of the same route would not serve the rank-k curves: at hop
    1/4 it caps the clean rank-3 and rank-4 cells near 227-233 dB where
    LAPACK gives 246-249 dB, so Fig. 3, ``rank_k_approx`` and the CLI keep
    ``svd``.
    """
    m = _check_finite(m)
    gram, tall = _gram(m)
    top = _top_eigenvector(gram)
    return (m @ top) @ top.conj().T if tall else top @ (top.conj().T @ m)


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values (convex envelope of the rank).

    Each singular value is taken as ||M v_i|| for the eigenvectors v_i of
    the short side's Gram matrix (||v_i^H M|| for a wide M).  An error in
    v_i moves ||M v_i|| only to second order, so the sum matches the SVD's
    to rounding, about n * eps * sigma_max, unless the Gram eigenvectors
    are as far off as their eigenvalue gaps allow; then each value is off
    by at most about min(sqrt(delta), delta / sigma) with
    delta = n * eps * sigma_max**2 (n the short side).
    """
    m = _check_finite(m)
    gram, tall = _gram(m)
    _, v = np.linalg.eigh(gram)
    # ||M v_i|| are the column norms of M V; ||v_i^H M|| the row norms of V^H M.
    mv, norms = (m @ v, "ij,ij->j") if tall else (v.conj().T @ m, "ij,ij->i")
    return float(np.sqrt(np.einsum(norms, mv.conj(), mv).real).sum())


def svt(m: np.ndarray, threshold: float) -> np.ndarray:
    """Singular-value soft thresholding U diag(max(s - threshold, 0)) V^H.

    This is the proximity operator of threshold * nuclear_norm, the
    workhorse of the nuclear-norm ADMM solver.  With the eigendecomposition
    G = V diag(lam) V^H of the short side's Gram matrix and
    sigma = sqrt(max(lam, 0)), it equals M W for a tall M (W M for a wide
    one) with the small Hermitian W = V diag(max(1 - threshold / sigma, 0))
    V^H.  The Gram eigenvalues are off by about
    delta = n * eps * sigma_max**2, so for a positive threshold the output
    is off by at most about delta / threshold in norm, plus the rounding
    of the products.
    """
    return _svt_kept(m, threshold)[0]


def _svt_kept(m: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """``svt(m, threshold)`` and the number of singular values it keeps."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    m = _check_finite(m)
    gram, tall = _gram(m)
    lam, v = np.linalg.eigh(gram)
    sigma = np.sqrt(np.maximum(lam, 0.0))
    keep = sigma > threshold
    v = v[:, keep]
    w = (v * (1.0 - threshold / sigma[keep])) @ v.conj().T
    return (m @ w if tall else w @ m), v.shape[1]
