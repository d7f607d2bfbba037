"""Shared numerical kernels: polynomial roots and bisection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Polynomial:
    """Real or complex polynomial, coefficients in ascending degree order."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        # trim trailing zero coefficients so the leading one is nonzero
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coefficients))

    def derivative(self):
        c = np.polynomial.polynomial.polyder(np.asarray(self.coefficients))
        return Polynomial(tuple(c))


def poly_roots(p):
    """All complex roots of a polynomial (Polynomial or ascending coefficient sequence).

    Uses the balanced companion-matrix eigenvalue method (via numpy), followed by
    one Newton polish per root to tighten residuals.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(tuple(p))
    if p.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    coeffs = np.asarray(p.coefficients)
    roots = np.roots(coeffs[::-1])
    dp = p.derivative()
    vals = p(roots)
    dvals = dp(roots)
    ok = np.abs(dvals) > 0
    polished = roots.copy()
    polished[ok] = roots[ok] - vals[ok] / dvals[ok]
    # keep the polish only where it actually reduced the residual
    better = np.abs(p(polished)) < np.abs(vals)
    roots[better] = polished[better]
    return roots


def bisect(f, lo, hi, tol=1e-12, max_iter=200):
    """Root of f on [lo, hi] by bisection; requires a sign change on the bracket."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0 or (hi - lo) <= tol:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
