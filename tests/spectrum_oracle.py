"""Spectrum statistics and the Marchenko-Pastur closed form, kept as test oracles.

The library returns the asymptotic density (`SpectralDensity`) and the pooled
empirical eigenvalues (`SpectrumResult`); no output reads a statistic of them.
Tests compare the two through this module:

* the closed-form Marchenko-Pastur density, the noise-only reduction of the
  fixed point (mp_density);
* the cumulative mass and the bulks of a density (cdf, bulk_intervals);
* the Kolmogorov distance between the pooled eigenvalues and the density,
  and the share of eigenvalues in the gap between its two rightmost bulks
  (kolmogorov_distance, gap_mass);
* which eigenvalues a support estimate's interval holds (contains).
"""

import math

import numpy as np


def mp_density(kappa, scale=1.0):
    """Marchenko-Pastur eigenvalue density and support edges.

    Returns (pdf, (lo, hi)) for eigenvalues of W W^H/(C W_pow) times `scale`:
    the noise-only reduction of the fixed point. Support edges sit at the
    zeros of the discriminant, scale*(1 -+ 1/sqrt(kappa))^2, and the density
    integrates to min(1, kappa); for kappa < 1 the remaining 1 - kappa mass is
    the atom at zero.
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    lo = scale * (1 - 1 / math.sqrt(kappa)) ** 2
    hi = scale * (1 + 1 / math.sqrt(kappa)) ** 2

    def pdf(x):
        u = np.asarray(x, dtype=float) / scale
        disc = 4 * u * kappa - (u * kappa + 1 - kappa) ** 2
        out = np.zeros_like(u)
        inside = disc > 0
        out[inside] = np.sqrt(disc[inside]) / (2 * math.pi * u[inside]) / scale
        return out if out.ndim else float(out)

    return pdf, (lo, hi)


def cdf(density):
    """Cumulative mass of the continuous part along the grid."""
    dx = np.diff(density.grid)
    return np.concatenate([[0.0], np.cumsum(0.5 * (density.values[1:] + density.values[:-1]) * dx)])


def bulk_intervals(density):
    """Contiguous grid regions where the density exceeds 1e-3 of its peak."""
    above = density.values > 1e-3 * density.values.max()
    regions, start = [], None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            regions.append((float(density.grid[start]), float(density.grid[i - 1])))
            start = None
    if start is not None:
        regions.append((float(density.grid[start]), float(density.grid[-1])))
    return regions


def asymptotic_cdf(result, x):
    """CDF of the continuous part renormalized over the nonzero eigenvalues."""
    cum = cdf(result.density)
    return np.interp(x, result.density.grid, cum / cum[-1], left=0.0, right=1.0)


def kolmogorov_distance(result):
    """Largest gap between the empirical CDF of the pooled eigenvalues and
    asymptotic_cdf."""
    ev = np.sort(result.eigenvalues)
    n = len(ev)
    F = asymptotic_cdf(result, ev)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(steps - F)), np.max(np.abs(steps - 1.0 / n - F))))


def gap_mass(result):
    """Fraction of pooled eigenvalues strictly between the two rightmost bulks
    of the asymptotic density; None when the density shows a single bulk."""
    bulks = bulk_intervals(result.density)
    if len(bulks) < 2:
        return None
    gap_lo, gap_hi = bulks[-2][1], bulks[-1][0]
    inside = np.sum((result.eigenvalues > gap_lo) & (result.eigenvalues < gap_hi))
    return float(inside / len(result.eigenvalues))


def contains(interval, x):
    """Per entry of x, whether it lies in the closed `BulkInterval`."""
    x = np.asarray(x)
    return (interval.lower <= x) & (x <= interval.upper)
