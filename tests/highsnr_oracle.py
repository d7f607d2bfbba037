"""Printed high-SNR (W = 0) formulas, kept as test oracles.

The library computes the high-SNR enclosures as the zeta = 0 case of the
general-SNR ones. This module keeps three separately printed derivations that
tests compare the library against:

* the high-SNR per-bulk expansions (highsnr_supports);
* the second-order intervals from the zeros of rho0 (rho0_zero_supports);
* the explicit zero-load spike of Appendix B, which checks the interference
  repulsion factor (appendixB_scale_verification);
* the printed validity condition of the bilateral expansions
  (bilateral_validity). For L >= 1 and 0 < r <= t it holds exactly when the
  radicand of the library's signal-bulk zeros is >= 0; where it fails, both
  second-order estimates are flagged `merged` with `negative radicand`.
"""

import math

import numpy as np

from svdmimo.bulk_support import (BulkInterval, SupportEstimate, _merged_estimate,
                                  interference_scale_factors)
from svdmimo.numerics import poly_roots


def sP2(x, dp, L):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    den1 = 2 * ((1 + L) * a - k) * x + 2 * k * (t - 2 * r)
    t1 = (2 * a * k * (L + 1) - 2 * a * (L + 1) + 2 * k * (1 - k)) / den1
    t2 = ((k * (k * (t - 5 * r) + a * (t + L * r) + 4 * r - 2 * t) * x + k ** 2 * r * (t - 3 * r))
          / (2 * x ** 2 * (((1 + L) * a - k) * x + k * (t - 2 * r))))
    return t1 + t2


def sI2(x, dp, L):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    den1 = 2 * ((a * (L + 1) - k) * x - k * (2 * t - r))
    t1 = (2 * a * k * (L + 1) - 2 * k * (k - 1) - 2 * a * (L + 1)) / den1
    t2 = ((k * ((4 - 5 * k) * t + (k - 2) * r + a * (t + L * r)) * x + k ** 2 * t * (r - 3 * t))
          / (2 * x ** 2 * ((a * (L + 1) - k) * x - k * (2 * t - r))))
    return t1 + t2


def gP2(dp, L):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    rad2 = a * k * (t - r) ** 2 - a ** 2 * r * (t + (L - 1) * r)
    if rad2 < 0:
        return None
    rad = math.sqrt(rad2)
    den = (a * t + a * L * r - k * t + k * r) ** 2 + 4 * a * k * L * r * (t - r)
    g_l = -k * r * (t - r) * (k * (t - r) + a * (t + (L - 2) * r) + 2 * rad) / den
    g_u = -k * r * (t - r) * (k * (t - r) + a * (t + (L - 2) * r) - 2 * rad) / den
    return g_l, g_u


def gI2(dp, L):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    rad2 = a * k * L * (t - r) ** 2 + a ** 2 * L * t * ((L - 1) * t - L * r)
    if rad2 < 0:
        return None
    rad = math.sqrt(rad2)
    den = (a * t + a * L * r - k * t + k * r) ** 2 + 4 * a * k * L * r * (t - r)
    g_l = -k * t * (t - r) * (k * (t - r) + a * ((2 * L - 1) * t - L * r) + 2 * rad) / den
    g_u = -k * t * (t - r) * (k * (t - r) + a * ((2 * L - 1) * t - L * r) - 2 * rad) / den
    return g_l, g_u


def highsnr_supports(dp, L):
    """High-SNR SupportEstimate from the printed expansions, built the way the
    library builds bilateral_supports_highsnr."""
    TR = dp.T * dp.R
    gp, gi = gP2(dp, L), gI2(dp, L)
    if gp is None or gi is None:
        return _merged_estimate("bilateral_highSNR_2", ("negative radicand",))
    sig = BulkInterval(*sorted(sP2(g, dp, L) / TR for g in gp))
    intf = BulkInterval(*sorted(sI2(g, dp, L) / TR for g in gi))
    flags = []
    if (gi[1] < gp[0]) != intf.disjoint_below(sig):
        flags.append("gamma ordering and interval disjointness disagree")
    if sig.lower < 0 or intf.lower < 0:
        flags.append("negative lower endpoint")
    return SupportEstimate(signal=sig, interference=intf, method="bilateral_highSNR_2",
                           separable=intf.disjoint_below(sig), flags=tuple(flags))


def phi0(G, dp, L):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    num = ((2 * a * (L + 1) * (k - 1) + k * (k - 4)) * G ** 2
           + k * (a * (t + L * r) + (k - 2) * (t + r)) * G + k ** 2 * r * t)
    den = 2 * G ** 2 * ((2 * k + (L + 1) * a) * G + k * (t + r))
    return num / den


def rho0_radicand_coeffs(dp, L):
    """Descending coefficients of the quartic under the square root of rho0."""
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    return np.array([
        k * (k - 4 * a * (L + 1)),
        2 * k * (k * (t + r) - 3 * a * (L * r + t)),
        (t ** 2 + 4 * r * t + r ** 2) * k ** 2 - 2 * a * k * (L * r - t) * (r - t)
        + a ** 2 * (t + L * r) ** 2,
        2 * k * r * t * (k * (t + r) + a * (t + L * r)),
        k ** 2 * t ** 2 * r ** 2,
    ])


def rho0_zero_supports(dp, L):
    """Second-order bulk intervals from the zeros of rho0: phi0 at the sorted
    zeros gives [phi0(G1), phi0(G2)] and [phi0(G3), phi0(G4)] on the T*R axis.
    None when zeros are complex or the interval ordering fails."""
    roots = poly_roots(rho0_radicand_coeffs(dp, L)[::-1])
    if np.any(np.abs(roots.imag) > 1e-9 * np.maximum(np.abs(roots), 1e-300)):
        return None
    vals = [phi0(g, dp, L) / (dp.T * dp.R) for g in np.sort(roots.real)]
    if not vals[1] < vals[2]:
        return None
    return (BulkInterval(*sorted(vals[2:4])), BulkInterval(*sorted(vals[0:2])))


def bilateral_validity(dp):
    """Validity condition of the bilateral expansions:
    0 <= alpha/kappa <= (t - r)^2 / (r (t + (L-1) r))."""
    r, t, L = dp.r, dp.t, dp.L
    if not (t >= r >= 0):
        raise ValueError("requires t >= r >= 0")
    if dp.alpha == 0:
        return True
    if t == r:
        return False
    if math.isinf(t):
        return True
    return dp.alpha / dp.kappa <= (t - r) ** 2 / (r * (t + (L - 1) * r))


def s0_explicit(G, beta, kappa, t):
    """Explicit zero-load inverse transform with interference dimension ratio beta."""
    num = G * kappa - 2 * G + G * beta + t * kappa
    rad = math.sqrt(beta ** 2 * G ** 2 + 2 * beta * G * t * kappa
                    - 2 * beta * G ** 2 * kappa + kappa ** 2 * (G + t) ** 2)
    return num / (2 * G ** 2) - rad / (2 * G ** 2)


def appendixB_scale_verification(dp, L):
    """Cross-check of the interference repulsion factor against the explicit
    zero-load spike position.

    With interference dimension ratio beta = L*alpha, the spike of the signal
    of interest sits at s0(G4) with G4 = r k (t - r)/(k (r - t) - beta r); its
    ratio to the unrepelled position 1/r must match the closed-form factor
    (1 + (beta/kappa)/(t/r - 1))(1 + beta/(t/r - 1)), which is i_P.
    """
    beta = L * dp.alpha
    k, r, t = dp.kappa, dp.r, dp.t
    G4 = r * k * (t - r) / (k * (r - t) - beta * r)
    ratio = s0_explicit(G4, beta, k, t) * r
    closed_form = (1 + (beta / k) / (t / r - 1)) * (1 + beta / (t / r - 1))
    i_P, _ = interference_scale_factors(1.0, r / t, dp.alpha, k, L)
    return {
        "scale_ratio": ratio,
        "closed_form_ratio": closed_form,
        "i_P": i_P,
        "max_rel_diff": max(abs(ratio - closed_form), abs(ratio - i_P)) / closed_form,
    }
