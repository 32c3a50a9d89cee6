"""Cyclic Jacobi eigensolver for small dense symmetric matrices.

Not used by the library: `gauss_core` and `lower_bound` both call
numpy.linalg.eigh.  This pure-Python O(n^3) solver is a test-side reference
that the LAPACK spectral core is checked against, and it stays importable
because the benchmark's tracer (`bench/tracer.py`) wraps it.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (w, v) with eigenvalues w ascending and orthonormal columns v,
    so that a == v @ diag(w) @ v.T up to the sweep tolerance.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.reshape(1).copy(), v

    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale * 1e-4:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                # Rotate rows/columns p and q of a, and columns of v.
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                a[p, q] = 0.0
                a[q, p] = 0.0

                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq

    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
