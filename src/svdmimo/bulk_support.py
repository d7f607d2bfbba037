"""Analytic approximations to the supports of the signal and interference bulks.

Three families, all in the (r, t, zeta) parameterization of DerivedParams,
which also carries the source values L, P and W: every estimate reads the one
system it was derived from, and support_estimates returns all four estimates.

* unilateral: each bulk computed alone, then rescaled by noise and
  interference repulsion factors; separability by a closed-form threshold.
* bilateral high-SNR (W = 0): perturbation of the inverse Stieltjes transform
  for small load, via a rational first-order approximation (quartic extremes)
  and second-order enclosures.
* bilateral general-SNR: the second-order enclosures with the noise term
  zeta = W*C retained; the high-SNR enclosures are its zeta = 0 case.

Conditions under which an estimate is less trustworthy (the unilateral
regime checks, merged bulks) are returned as strings in SupportEstimate.flags,
not raised as Python warnings.

All SupportEstimate intervals are reported on the eig(Y Y^H)/(T*R) axis, where
the signal bulk centers near kappa*P/alpha. G-domain helpers (s1_inverse,
quartic_extremes) work on the raw eig(Y Y^H) axis.
"""

from __future__ import annotations

import math
# unused here; perfbench/tracing.py swaps a counting stand-in into bulk_support.warnings
import warnings  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .numerics import bisect, poly_roots
from .system_model import DerivedParams


class RegimeError(ValueError):
    """Parameters outside the validity regime of an approximation."""


@dataclass(frozen=True)
class BulkInterval:
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if self.lower > self.upper:
            raise ValueError(f"interval endpoints out of order: [{self.lower}, {self.upper}]")

    def contains(self, x):
        return (self.lower <= np.asarray(x)) & (np.asarray(x) <= self.upper)

    def scaled(self, factor):
        """This interval times `factor`; a negative factor flips it below 0."""
        return BulkInterval(*sorted((self.lower * factor, self.upper * factor)))

    def disjoint_below(self, other):
        """True when this interval lies strictly below `other`."""
        return self.upper < other.lower


@dataclass(frozen=True)
class SupportEstimate:
    """Signal and interference bulk intervals on the eig(Y Y^H)/(T*R) axis."""

    signal: BulkInterval
    interference: BulkInterval
    method: str
    separable: bool
    flags: tuple = ()

    def to_dict(self):
        return {
            "method": self.method,
            "signal": [self.signal.lower, self.signal.upper],
            "interference": [self.interference.lower, self.interference.upper],
            "separable": bool(self.separable),
            "flags": [str(f) for f in self.flags],
        }


# ---------------------------------------------------------------------------
# unilateral approximation
# ---------------------------------------------------------------------------

def _unilateral_endpoints(dp):
    """Signal and interference (lower, upper) before clamping at zero."""
    a, k, P, L = dp.alpha, dp.kappa, dp.P, dp.L
    I = dp.beta_ratio * P
    root = math.sqrt((k ** 2 + k) / a)
    return ((k * P / a - 2 * P * root, k * P / a + 2 * P * root),
            (k * I / a - 2 * I * math.sqrt(L) * root, k * I / a + 2 * I * math.sqrt(L) * root))


def unilateral_intervals(dp: DerivedParams):
    """Unscaled single-bulk supports on the T*R axis.

    Signal: kappa*P/alpha -+ 2P*sqrt((kappa^2+kappa)/alpha); interference the
    same with I = beta_ratio*P and an extra factor L under the root. Negative
    lower endpoints are clamped to zero. Valid for small load;
    unilateral_supports flags a clamped endpoint and alpha > 0.1.
    """
    (p_lo, p_hi), (i_lo, i_hi) = _unilateral_endpoints(dp)
    return (BulkInterval(max(p_lo, 0.0), p_hi), BulkInterval(max(i_lo, 0.0), max(i_hi, 0.0)))


def noise_scale_factors(P, I, W, R, C):
    """Noise repulsion: n_P = (1 + W/(P R))(1 + W/(P C)), n_I analogously.
    Both tend to 1 as W -> 0."""
    if P <= 0 or I <= 0:
        raise ValueError("P and I must be > 0")
    n_P = (1 + W / (P * R)) * (1 + W / (P * C))
    n_I = (1 + W / (I * R)) * (1 + W / (I * C))
    return n_P, n_I


def interference_scale_factors(P, I, alpha, kappa, L):
    """Mutual bulk repulsion: i_P = (1 + (L a/k)/(P/I - 1))(1 + L a/(P/I - 1)),
    i_I with the power roles swapped. For P > I they push the signal bulk up
    (i_P >= 1) and the interference bulk down (i_I <= 1), and both tend to 1
    as the load alpha -> 0. Only accurate for P >> I; unilateral_supports
    flags P/I < 2. Singular at P = I."""
    if P == I:
        raise ValueError("interference scale factors are singular at P = I")
    i_P = (1 + (L * alpha / kappa) / (P / I - 1)) * (1 + L * alpha / (P / I - 1))
    i_I = (1 + (alpha / kappa) / (I / P - 1)) * (1 + alpha / (I / P - 1))
    return i_P, i_I


def unilateral_separable(dp: DerivedParams):
    """Separability verdict and threshold ratio I/P under the unilateral rule.

    The threshold solves P/I = (n_I i_I)/(n_P i_P) * edge ratio by bisection,
    with the self-referential scale factors evaluated at the trial I/P. The
    inequality margin is scanned upward and the first separable-to-merged
    crossing is the threshold: the repulsion factors diverge spuriously both
    for noise-dominated interference (I -> 0) and near equal powers (I -> P),
    corners where the first-order repulsion model is not meaningful. Raises
    RegimeError when the signal-bulk edge factor 1 - 2 sqrt(alpha (1 + 1/kappa))
    is not positive (no separation predicted at any ratio).
    """
    a, k, L, P = dp.alpha, dp.kappa, dp.L, dp.P
    lower_edge = 1 - 2 * math.sqrt(a * (1 + 1 / k))
    if lower_edge <= 0:
        raise RegimeError("1 - 2 sqrt(alpha (1 + 1/kappa)) <= 0: no separation predicted")
    edge_ratio = (1 + 2 * math.sqrt(a * L * (1 + 1 / k))) / lower_edge

    def margin(x):
        # P/I minus the right-hand side of the inequality at trial ratio x = I/P
        I = x * P
        n_P, n_I = noise_scale_factors(P, I, dp.W, dp.R, dp.C)
        i_P, i_I = interference_scale_factors(P, I, a, k, L)
        return 1.0 / x - (n_I * i_I) / (n_P * i_P) * edge_ratio

    # keep the i-factor denominators away from the I = P singularity
    x_max = min(0.999, 1 - 2 * a, 1 - 2 * a / k)
    # Python floats: the same IEEE arithmetic as numpy scalars, without their overhead
    xs = np.linspace(1e-3, x_max, 600).tolist()
    vals = [margin(x) for x in xs]
    threshold = 0.0
    seen_separable = vals[0] > 0
    for i in range(1, len(xs)):
        if vals[i] > 0:
            seen_separable = True
            continue
        if seen_separable:
            threshold = bisect(margin, xs[i - 1], xs[i], tol=1e-4)
            break
    else:
        if seen_separable:
            threshold = x_max
    return bool(dp.beta_ratio <= threshold), float(threshold)


def unilateral_supports(dp: DerivedParams) -> SupportEstimate:
    """Unilateral SupportEstimate: single-bulk intervals rescaled by the
    repulsion factors; `separable` says whether the scaled intervals are
    disjoint.

    That verdict is not the threshold rule of unilateral_separable. The two
    agree at small I/P, but near equal powers the interference factor i_I
    shrinks the interference interval towards 0, so the scaled intervals come
    apart again: on the Fig.-2 system (R=300, T=3, C=1000, L=2, P=0.1, W=1)
    `separable` is True at I/P = 0.95 and 0.99, above the unilateral
    threshold of 0.612.

    Flags, in this order: load alpha > 0.1 (the approximation assumes small
    load), a negative lower endpoint clamped at 0, P/I < 2 (the repulsion
    factors assume P >> I), and a scaled interval that starts below 0 (a
    negative i_I flips the interference interval below 0, a negative i_P at
    I > P the signal interval). At P = I the repulsion factors are singular
    and the estimate is merged.
    """
    P = dp.P
    I = dp.beta_ratio * P
    if I == P:
        return _merged_estimate("unilateral", ("interference scale factors singular at P = I",))
    flags = []
    if dp.alpha > 0.1:
        flags.append(f"unilateral approximation assumes small load (alpha={dp.alpha:.3f} > 0.1)")
    (p_lo, _), (i_lo, _) = _unilateral_endpoints(dp)
    if p_lo < 0 or i_lo < 0:
        flags.append("unilateral interval lower endpoint clamped at 0")
    p_int, i_int = unilateral_intervals(dp)
    if I > 0:
        n_P, n_I = noise_scale_factors(P, I, dp.W, dp.R, dp.C)
        i_P, i_I = interference_scale_factors(P, I, dp.alpha, dp.kappa, dp.L)
        if P / I < 2:
            flags.append("interference scale factors are only accurate for P >> I (P/I < 2)")
        p_int = p_int.scaled(n_P * i_P)
        i_int = i_int.scaled(n_I * i_I)
    return _estimate(p_int, i_int, "unilateral", i_int.disjoint_below(p_int), flags)


# ---------------------------------------------------------------------------
# bilateral high-SNR approximation (W = 0)
# ---------------------------------------------------------------------------

def s1_inverse(G, dp: DerivedParams):
    """First-order rational approximation of the inverse Stieltjes transform
    (raw axis). Reduces exactly to -1/G at alpha = 0; +-inf at a pole of the
    rational function. s1_supports evaluates it only at the quartic extremes."""
    a, k, r, t, L = dp.alpha, dp.kappa, dp.r, dp.t, dp.L
    num = (((L + 1) * (k - 2) * a - k) * G ** 2
           + ((L * r + t) * (k - 1) * a - k * (r + t)) * G - k * r * t)
    den = G * ((k + 2 * (L + 1) * a) * G ** 2
               + ((L * r + t) * a + k * (r + t)) * G + k * r * t)
    if den == 0:
        return math.inf if num >= 0 else -math.inf
    return num / den


def quartic_extremes(dp: DerivedParams):
    """Real solutions G1 <= G2 <= G3 <= G4 of the quartic locating the extremes
    of s1_inverse, or None when complex pairs appear (no first-order
    separation). Roots found via the companion-matrix method."""
    a, k, r, t, L = dp.alpha, dp.kappa, dp.r, dp.t, dp.L
    c4 = 2 * (L + 1) ** 2 * (k - 2) * a ** 2 + (L + 1) * (k - 4) * k * a - k ** 2
    c3 = 2 * (2 * (L * r + t) * (L + 1) * (k - 1) * a ** 2
              + ((L * r + t) * (k - 1) - 2 * (L + 1) * (t + r)) * a * k - (t + r) * k ** 2)
    c2 = ((L * r + t) ** 2 * (k - 1) * a ** 2 + (t ** 2 + L * r ** 2) * (k - 2) * k * a
          - 6 * (L + 1) * r * t * k * a - ((t + r) ** 2 + 2 * r * t) * k ** 2)
    c1 = -2 * r * t * k * ((L * r + t) * a + (t + r) * k)
    c0 = -(k ** 2) * r ** 2 * t ** 2
    roots = poly_roots([c0, c1, c2, c3, c4])
    if np.any(np.abs(roots.imag) > 1e-9 * np.maximum(np.abs(roots), 1e-300)):
        return None
    return np.sort(roots.real)


def s1_supports(dp: DerivedParams) -> SupportEstimate:
    """First-order bulk intervals [s1(G1), s1(G2)] and [s1(G3), s1(G4)] on the
    T*R axis; 'bulks merged' when the quartic has complex roots or the
    ordering s1(G2) < s1(G3) fails, flagged when an interval starts below 0."""
    TR = dp.T * dp.R
    Gs = quartic_extremes(dp)
    if Gs is None:
        return _merged_estimate("bilateral_highSNR_1", ("complex quartic roots",))
    s_vals = [s1_inverse(g, dp) / TR for g in Gs]
    if not s_vals[1] < s_vals[2]:
        return _merged_estimate("bilateral_highSNR_1", ("extreme ordering violated",))
    return _estimate(BulkInterval(*sorted(s_vals[2:4])), BulkInterval(*sorted(s_vals[0:2])),
                     "bilateral_highSNR_1", True)


def _estimate(signal, interference, method, separable, flags=()):
    """SupportEstimate of resolved bulks. Appends the flag `negative lower
    endpoint` when either interval starts below 0: eigenvalues of Y Y^H are
    not negative, and the endpoints are reported as computed, not clamped."""
    if signal.lower < 0 or interference.lower < 0:
        flags = tuple(flags) + ("negative lower endpoint",)
    return SupportEstimate(signal=signal, interference=interference, method=method,
                           separable=separable, flags=tuple(flags))


def _merged_estimate(method, flags):
    empty = BulkInterval(0.0, 0.0)
    return SupportEstimate(signal=empty, interference=empty, method=method,
                           separable=False, flags=("merged",) + tuple(flags))


def bilateral_supports_highsnr(dp: DerivedParams) -> SupportEstimate:
    """Second-order high-SNR enclosures of the noiseless bulks on the T*R axis:
    the zeta = 0 case of bilateral_supports_general."""
    return _bilateral(dp, 0.0, "bilateral_highSNR_2")


def separability_boundary(beta, L):
    """Largest load-to-coherence ratio alpha/kappa keeping the bulks disjoint,
    as a function of beta = I/P; zero at beta >= 1, one at beta = 0."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta >= 1:
        return 0.0
    num = (1 - beta) ** 2 * (L * beta ** 2 + 3 * (L + 1) * beta + 1
                             - 2 * (1 + beta) * math.sqrt(3 * L * beta))
    den = ((L * beta ** 2 - 1) * (L * beta ** 2 + 6 * (L - 1) * beta - 1)
           + (9 * L ** 2 - 2 * L + 9) * beta ** 2)
    return num / den


def separability_boundary_ratio(alpha_over_kappa, L):
    """Boundary beta = I/P for a given alpha/kappa, by bisection on the
    decreasing boundary curve."""
    if alpha_over_kappa >= 1:
        return 0.0
    return bisect(lambda b: separability_boundary(b, L) - alpha_over_kappa,
                  1e-9, 1 - 1e-12, tol=1e-6)


# ---------------------------------------------------------------------------
# bilateral general-SNR approximation (zeta = W*C retained)
# ---------------------------------------------------------------------------

def _varsigma_P(G, dp, zeta):
    a, k, r, t, L = dp.alpha, dp.kappa, dp.r, dp.t, dp.L
    s0 = ((k - 1) * G + k * r) / G ** 2
    b = a * ((L + 2) * r - t) + (k + zeta * r) * (t - r)
    E = ((L + 1) * a - k + zeta * (t - 2 * r)) * G + k * (t - 2 * r)
    return s0 - (k / 2) * (G * b + k * r * (t - r)) / (G ** 2 * E)


def _varsigma_I(G, dp, zeta):
    a, k, r, t, L = dp.alpha, dp.kappa, dp.r, dp.t, dp.L
    s0 = ((k - 1) * G + k * t) / G ** 2
    b = a * ((2 * L + 1) * t - L * r) + (k + zeta * t) * (r - t)
    E = ((L + 1) * a - k - zeta * (2 * t - r)) * G - k * (2 * t - r)
    return s0 - (k / 2) * (G * b + k * t * (r - t)) / (G ** 2 * E)


def _gamma_P(dp, zeta):
    a, k, r, t, L = dp.alpha, dp.kappa, dp.r, dp.t, dp.L
    rad2 = a * k * (t - r) ** 2 - a ** 2 * r * (t + (L - 1) * r)
    if rad2 < 0:
        return None
    rad = math.sqrt(rad2)
    den = ((r * (t - r) * zeta + (a - k) * t + (a * L + k) * r) ** 2
           + 4 * r * zeta * ((a + k) * r ** 2 - (a + 2 * k) * t * r + k * t ** 2)
           + 4 * a * k * L * r * (t - r))
    bracket = zeta * r * (t - r) + k * (t - r) + a * (t + (L - 2) * r)
    return (-k * r * (t - r) * (bracket + 2 * rad) / den,
            -k * r * (t - r) * (bracket - 2 * rad) / den)


def _gamma_I(dp, zeta):
    a, k, r, t, L = dp.alpha, dp.kappa, dp.r, dp.t, dp.L
    rad2 = a * k * L * (t - r) ** 2 + a ** 2 * L * t * ((L - 1) * t - L * r)
    if rad2 < 0:
        return None
    rad = math.sqrt(rad2)
    den = ((a * t + L * a * r - t * k + r * k + t * (t - r) * zeta) ** 2
           + 4 * (t - r) * (t * ((k + a * L - a) * t - (a * L + k) * r) * zeta + a * k * L * r))
    bracket = k * (t - r) + a * (2 * L - 1) * t - a * L * r + t * (t - r) * zeta
    return (-k * t * (t - r) * (bracket + 2 * rad) / den,
            -k * t * (t - r) * (bracket - 2 * rad) / den)


def _bilateral(dp, zeta, method):
    """Per-bulk second-order enclosures: the rational parts of the expansions
    evaluated at the zeros Gamma of the respective discriminants. Negative
    radicands mean the bulks cannot be resolved (merged).

    Flags, in this order: the G-domain ordering Gamma_Iu < Gamma_Pl disagrees
    with the disjointness of the intervals, and a lower endpoint below 0."""
    TR = dp.T * dp.R
    gp, gi = _gamma_P(dp, zeta), _gamma_I(dp, zeta)
    if gp is None or gi is None:
        return _merged_estimate(method, ("negative radicand",))
    sig = BulkInterval(*sorted(_varsigma_P(g, dp, zeta) / TR for g in gp))
    intf = BulkInterval(*sorted(_varsigma_I(g, dp, zeta) / TR for g in gi))
    separable = intf.disjoint_below(sig)
    disagree = (gi[1] < gp[0]) != separable
    flags = ("gamma ordering and interval disjointness disagree",) if disagree else ()
    return _estimate(sig, intf, method, separable, flags)


def bilateral_supports_general(dp: DerivedParams) -> SupportEstimate:
    """General-SNR enclosures of the noisy bulks on the T*R axis, at the noise
    term zeta = W*C of dp.

    At zeta = 0 these are the high-SNR enclosures. The printed interference
    expansion in the source carries a typo in its zeta term; this implements
    the expansion re-derived from the stated recipe (second-order Taylor
    expansion of the cleared fixed point around the per-bulk zeros)."""
    return _bilateral(dp, dp.zeta, "bilateral_general")


def support_estimates(dp: DerivedParams):
    """The four support estimates of one system: unilateral, first-order,
    high-SNR and general-SNR, in that order. Raises ValueError without
    interference power (t = inf)."""
    if math.isinf(dp.t):
        raise ValueError("the support estimates need interference power > 0")
    return (unilateral_supports(dp), s1_supports(dp), bilateral_supports_highsnr(dp),
            bilateral_supports_general(dp))
