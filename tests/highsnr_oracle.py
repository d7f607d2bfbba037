"""The printed high-SNR (W = 0) bilateral enclosures, kept as a test oracle.

The library computes the high-SNR enclosures as the zeta = 0 case of the
general-SNR ones. These are the separately printed high-SNR expansions, a
second derivation that tests compare the library against.
"""

import math

from svdmimo.bulk_support import BulkInterval, SupportEstimate, _merged_estimate


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
    flags = ()
    if (gi[1] < gp[0]) != intf.disjoint_below(sig):
        flags = ("gamma ordering and interval disjointness disagree",)
    return SupportEstimate(signal=sig, interference=intf, method="bilateral_highSNR_2",
                           separable=intf.disjoint_below(sig), flags=flags)
