"""Shared numerical kernels: polynomial roots, bisection and the Gram matrix
of a block."""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import zherk

_PP = np.polynomial.polynomial


def poly_roots(coeffs):
    """All complex roots of a polynomial given by ascending coefficients.

    Trailing zero coefficients are trimmed so the leading one is nonzero.
    Uses the balanced companion-matrix eigenvalue method (via numpy), followed
    by one Newton polish per root to tighten residuals.
    """
    c = np.trim_zeros(np.asarray(coeffs), "b")
    if len(c) < 2:
        raise ValueError("polynomial must have degree >= 1")
    roots = np.roots(c[::-1])
    vals = _PP.polyval(roots, c)
    dvals = _PP.polyval(roots, _PP.polyder(c))
    ok = np.abs(dvals) > 0
    polished = roots.copy()
    polished[ok] = roots[ok] - vals[ok] / dvals[ok]
    # keep the polish only where it actually reduced the residual
    better = np.abs(_PP.polyval(polished, c)) < np.abs(vals)
    roots[better] = polished[better]
    return roots


def bisect(f, lo, hi, tol=1e-12):
    """Root of f on [lo, hi] by bisection, in at most 200 halvings; requires a
    sign change on the bracket."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0 or (hi - lo) <= tol:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _gram_lower(Y):
    """Lower triangle of the conjugate of the smaller Gram matrix of Y:
    conj(Y Y^H) if R <= C, else conj(Y^H Y); the upper triangle is not set.

    One herk on Y^T, which reads Y through its transpose view, never through
    a conjugate copy. The conjugate has the eigenvalues of the Gram matrix,
    and the conjugates of its eigenvectors.
    """
    R, C = Y.shape
    return zherk(1.0, Y.T, trans=2 if R <= C else 0, lower=1)
