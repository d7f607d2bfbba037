"""Analytic approximations to the supports of the signal and interference bulks.

Three families, all in the (r, t, zeta) parameterization. Every method reads
one SystemParams `sys`, which holds the ratios, the source values L, P and W,
and every interference power; support_estimates(sys) returns all four.

* unilateral: one model, each bulk computed alone and then rescaled by noise
  and interference repulsion factors; its separability threshold is the
  interference ratio where its scaled intervals meet.
* bilateral high-SNR (W = 0): perturbation of the inverse Stieltjes transform
  for small load, via a rational first-order approximation (quartic extremes)
  and second-order enclosures.
* bilateral general-SNR: the second-order enclosures with the noise term
  zeta = W*C retained; the high-SNR enclosures are its zeta = 0 case.

Conditions under which an estimate is less trustworthy (the unilateral
regime checks, merged bulks) are returned as strings in SupportEstimate.flags,
not raised as Python warnings.

All SupportEstimate intervals are reported on the eig(Y Y^H)/(T*R) axis, where
the signal bulk centers near kappa*P/alpha; G-domain helpers (s1_inverse, and
quartic_extremes with its root finder poly_roots) work on the raw axis. Both
thresholds are roots that the module's own bisect finds.
"""

from __future__ import annotations

import math
# unused here; perfbench/tracing.py swaps a counting stand-in into bulk_support.warnings
import warnings  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .system_model import SystemParams

_PP = np.polynomial.polynomial


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
    flags: tuple = ()

    @property
    def separable(self):
        """True when the interference interval lies strictly below the signal interval."""
        return self.interference.disjoint_below(self.signal)

    def to_dict(self):
        return {
            "method": self.method,
            "signal": [self.signal.lower, self.signal.upper],
            "interference": [self.interference.lower, self.interference.upper],
            "separable": self.separable,
            "flags": [str(f) for f in self.flags],
        }


# ---------------------------------------------------------------------------
# root finders
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# unilateral approximation
# ---------------------------------------------------------------------------

def _unilateral(sys, x):
    """The unilateral model at interference ratio x = I/P: the unclamped
    (lower, upper) endpoints of the signal and interference bulks on the T*R
    axis, and the repulsion products f_P = n_P i_P and f_I = n_I i_I.

    Bulks (small load): kappa*P/alpha -+ 2P*sqrt((kappa^2+kappa)/alpha), and
    the same with I = x*P and a factor L under the root. Noise repulsion:
    n_P = (1 + W/(P R))(1 + W/(P C)), n_I with I for P; both tend to 1 as
    W -> 0. Bulk repulsion: i_P = (1 + (L a/k)/(P/I - 1))(1 + L a/(P/I - 1)),
    i_I with the powers swapped and no L. For P > I they push the signal bulk
    up (i_P >= 1) and the interference bulk down (i_I <= 1), and both tend to
    1 as alpha -> 0. They assume P >> I and are singular at P = I.
    """
    a, k, L, P, W = sys.alpha, sys.kappa, sys.L, sys.P, sys.W
    I = x * P
    root = math.sqrt((k ** 2 + k) / a)
    signal = (k * P / a - 2 * P * root, k * P / a + 2 * P * root)
    interference = (k * I / a - 2 * I * math.sqrt(L) * root,
                    k * I / a + 2 * I * math.sqrt(L) * root)
    n_P = (1 + W / (P * sys.R)) * (1 + W / (P * sys.C))
    n_I = (1 + W / (I * sys.R)) * (1 + W / (I * sys.C))
    i_P = (1 + (L * a / k) / (P / I - 1)) * (1 + L * a / (P / I - 1))
    i_I = (1 + (a / k) / (I / P - 1)) * (1 + a / (I / P - 1))
    return signal, interference, n_P * i_P, n_I * i_I


def unilateral_separable(sys: SystemParams):
    """Separability verdict and threshold ratio I/P of the unilateral model.

    The threshold is where the scaled intervals of unilateral_supports meet:
    the margin sig_lower*f_P - intf_upper*f_I of _unilateral at trial
    x = I/P changes sign. The margin is scanned upward and the first
    separable-to-merged crossing is bisected: the repulsion factors diverge
    spuriously both for noise-dominated interference (I -> 0) and near
    equal powers (I -> P), corners where the first-order repulsion model is
    not meaningful. Raises RegimeError when the signal lower endpoint, of
    the sign of 1 - 2 sqrt(alpha (1 + 1/kappa)), is not positive (no
    separation predicted at any ratio).
    """
    _check_interference(sys)
    beta_ratio = sys.beta_ratio  # read before the model: it rejects P = 0, which it divides by
    # keep the i-factor denominators away from the I = P singularity
    x_max = min(0.999, 1 - 2 * sys.alpha, 1 - 2 * sys.alpha / sys.kappa)
    # Python floats: the same IEEE arithmetic as numpy scalars, without their overhead
    xs = np.linspace(1e-3, x_max, 600).tolist()
    (sig_lower, _), _, _, _ = _unilateral(sys, xs[0])
    if sig_lower <= 0:
        raise RegimeError("1 - 2 sqrt(alpha (1 + 1/kappa)) <= 0: no separation predicted")

    def margin(x):
        (sig_lower, _), (_, intf_upper), f_P, f_I = _unilateral(sys, x)
        return sig_lower * f_P - intf_upper * f_I

    threshold, last_separable = 0.0, None
    for x in xs:
        if margin(x) > 0:
            threshold, last_separable = x_max, x
        elif last_separable is not None:
            threshold = bisect(margin, last_separable, x, tol=1e-4)
            break
    return bool(beta_ratio <= threshold), float(threshold)


def unilateral_supports(sys: SystemParams) -> SupportEstimate:
    """Unilateral SupportEstimate: the intervals of _unilateral at the
    system's I/P, clamped at 0 and rescaled by f_P and f_I; `separable` says
    whether they are disjoint. unilateral_separable's threshold is the first
    ratio, scanning up, where they meet. Above it they can come apart again:
    near equal powers i_I shrinks the interference interval towards 0, so on
    the Fig.-2 system (R=300, T=3, C=1000, L=2, P=0.1, W=1) `separable` is
    True at I/P = 0.95 and 0.99, above the threshold of 0.612.

    Flags, in this order: load alpha > 0.1 (the approximation assumes small
    load), a negative lower endpoint clamped at 0, P/I < 2 (the repulsion
    factors assume P >> I), and a scaled interval that starts below 0 (a
    negative i_I flips the interference interval below 0, a negative i_P at
    I > P the signal interval). At P = I the repulsion factors are singular
    and the estimate is merged.
    """
    _check_interference(sys)
    P = sys.P
    I = sys.beta_ratio * P
    if I == P:
        return _merged_estimate("unilateral", ("interference scale factors singular at P = I",))
    flags = []
    if sys.alpha > 0.1:
        flags.append(f"unilateral approximation assumes small load (alpha={sys.alpha:.3f} > 0.1)")
    (p_lo, p_hi), (i_lo, i_hi), f_P, f_I = _unilateral(sys, sys.beta_ratio)
    if p_lo < 0 or i_lo < 0:
        flags.append("unilateral interval lower endpoint clamped at 0")
    if P / I < 2:
        flags.append("interference scale factors are only accurate for P >> I (P/I < 2)")
    return _estimate(BulkInterval(max(p_lo, 0.0), p_hi).scaled(f_P),
                     BulkInterval(max(i_lo, 0.0), max(i_hi, 0.0)).scaled(f_I), "unilateral", flags)


# ---------------------------------------------------------------------------
# bilateral high-SNR approximation (W = 0)
# ---------------------------------------------------------------------------

def s1_inverse(G, sys: SystemParams):
    """First-order rational approximation of the inverse Stieltjes transform
    (raw axis). Reduces exactly to -1/G at alpha = 0; +-inf at a pole of the
    rational function. s1_supports evaluates it only at the quartic extremes."""
    a, k, r, t, L = sys.alpha, sys.kappa, sys.r, sys.t, sys.L
    num = (((L + 1) * (k - 2) * a - k) * G ** 2
           + ((L * r + t) * (k - 1) * a - k * (r + t)) * G - k * r * t)
    den = G * ((k + 2 * (L + 1) * a) * G ** 2
               + ((L * r + t) * a + k * (r + t)) * G + k * r * t)
    if den == 0:
        return math.inf if num >= 0 else -math.inf
    return num / den


def quartic_extremes(sys: SystemParams):
    """Real solutions G1 <= G2 <= G3 <= G4 of the quartic locating the extremes
    of s1_inverse, or None when complex pairs appear (no first-order
    separation). Roots found via the companion-matrix method."""
    a, k, r, t, L = sys.alpha, sys.kappa, sys.r, sys.t, sys.L
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


def s1_supports(sys: SystemParams) -> SupportEstimate:
    """First-order bulk intervals [s1(G1), s1(G2)] and [s1(G3), s1(G4)] on the
    T*R axis; 'bulks merged' when the quartic has complex roots or the
    ordering s1(G2) < s1(G3) fails, flagged when an interval starts below 0."""
    _check_interference(sys)
    TR = sys.T * sys.R
    Gs = quartic_extremes(sys)
    if Gs is None:
        return _merged_estimate("bilateral_highSNR_1", ("complex quartic roots",))
    s_vals = [s1_inverse(g, sys) / TR for g in Gs]
    if not s_vals[1] < s_vals[2]:
        return _merged_estimate("bilateral_highSNR_1", ("extreme ordering violated",))
    return _estimate(BulkInterval(*sorted(s_vals[2:4])), BulkInterval(*sorted(s_vals[0:2])),
                     "bilateral_highSNR_1")


def _check_interference(sys):
    if math.isinf(sys.t):
        raise ValueError("the support estimates need interference power > 0")


def _estimate(signal, interference, method, flags=()):
    """SupportEstimate of resolved bulks. Appends the flag `negative lower
    endpoint` when either interval starts below 0: eigenvalues of Y Y^H are
    not negative, and the endpoints are reported as computed, not clamped."""
    if signal.lower < 0 or interference.lower < 0:
        flags = tuple(flags) + ("negative lower endpoint",)
    return SupportEstimate(signal=signal, interference=interference, method=method,
                           flags=tuple(flags))


def _merged_estimate(method, flags):
    empty = BulkInterval(0.0, 0.0)
    return SupportEstimate(signal=empty, interference=empty, method=method,
                           flags=("merged",) + tuple(flags))


def bilateral_supports_highsnr(sys: SystemParams) -> SupportEstimate:
    """Second-order high-SNR enclosures of the noiseless bulks on the T*R axis:
    the zeta = 0 case of bilateral_supports_general."""
    return _bilateral(sys, 0.0, "bilateral_highSNR_2")


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

def _varsigma(G, sys, zeta, own, other, n_own, n_other):
    """Second-order expansion of one bulk: the signal bulk is (own, other,
    n_own, n_other) = (r, t, 1, L), the interference bulk (t, r, L, 1)."""
    a, k, L = sys.alpha, sys.kappa, sys.L
    s0 = ((k - 1) * G + k * own) / G ** 2
    b = a * ((n_other + 2 * n_own) * own - n_own * other) + (k + zeta * own) * (other - own)
    E = ((L + 1) * a - k + zeta * (other - 2 * own)) * G + k * (other - 2 * own)
    return s0 - (k / 2) * (G * b + k * own * (other - own)) / (G ** 2 * E)


def _gamma(sys, zeta, own, other, n_own, n_other):
    """Zeros Gamma of one bulk's discriminant in the roles of _varsigma; None at rad2 < 0."""
    a, k, r, t, L = sys.alpha, sys.kappa, sys.r, sys.t, sys.L
    d = t - r
    rad2 = n_own * a * (k * d ** 2 - a * own * (n_own * other + (n_other - n_own) * own))
    if rad2 < 0:
        return None
    rad = math.sqrt(rad2)
    den = ((zeta * own * d - k * d + a * (t + L * r)) ** 2
           + 4 * own * zeta * d * (k * d + a * ((n_own - 1) * t - n_own * r))
           + 4 * a * k * L * r * d)
    bracket = zeta * own * d + k * d + a * (n_own * d + (L - 1) * own)
    return (-k * own * d * (bracket + 2 * rad) / den,
            -k * own * d * (bracket - 2 * rad) / den)


def _bilateral(sys, zeta, method):
    """Per-bulk second-order enclosures: the rational parts of the expansions
    evaluated at the zeros Gamma of the respective discriminants. Negative
    radicands mean the bulks cannot be resolved (merged).

    Flags, in this order: the G-domain ordering Gamma_Iu < Gamma_Pl disagrees
    with the disjointness of the intervals, and a lower endpoint below 0."""
    _check_interference(sys)
    TR = sys.T * sys.R
    roles = ((sys.r, sys.t, 1, sys.L), (sys.t, sys.r, sys.L, 1))  # signal, interference
    gp, gi = (_gamma(sys, zeta, *role) for role in roles)
    if gp is None or gi is None:
        return _merged_estimate(method, ("negative radicand",))
    sig, intf = (BulkInterval(*sorted(_varsigma(g, sys, zeta, *role) / TR for g in gamma))
                 for gamma, role in zip((gp, gi), roles))
    disagree = (gi[1] < gp[0]) != intf.disjoint_below(sig)
    flags = ("gamma ordering and interval disjointness disagree",) if disagree else ()
    return _estimate(sig, intf, method, flags)


def bilateral_supports_general(sys: SystemParams) -> SupportEstimate:
    """General-SNR enclosures of the noisy bulks on the T*R axis, at the noise
    term zeta = W*C of sys.

    At zeta = 0 these are the high-SNR enclosures. The printed interference
    expansion in the source carries a typo in its zeta term; this implements
    the expansion re-derived from the stated recipe (second-order Taylor
    expansion of the cleared fixed point around the per-bulk zeros)."""
    return _bilateral(sys, sys.zeta, "bilateral_general")


def support_estimates(sys: SystemParams):
    """The four support estimates of one system: unilateral, first-order,
    high-SNR and general-SNR, in that order. Raises ValueError without
    interference power (t = inf), as each estimate does."""
    return (unilateral_supports(sys), s1_supports(sys), bilateral_supports_highsnr(sys),
            bilateral_supports_general(sys))


def support_report(sys: SystemParams):
    """The support report of one system, the body of `support.json`: the axis,
    the four support estimates as dicts, the thresholds (the unilateral
    threshold and verdict or its RegimeError text, and the closed-form
    boundary ratio) and the ratios of the high-SNR to the unilateral signal
    endpoints, flagged when one is undefined or outside (0.5, 2). Raises
    ValueError without interference power, as support_estimates does."""
    estimates = support_estimates(sys)
    try:
        sep, threshold = unilateral_separable(sys)
        thresholds = {"unilateral_I_over_P": threshold, "unilateral_separable": sep}
    except RegimeError as err:
        thresholds = {"unilateral_error": str(err)}
    thresholds["bilateral_boundary_I_over_P"] = separability_boundary_ratio(
        sys.alpha / sys.kappa, sys.L)
    uni, bil = estimates[0], estimates[2]
    consistency = {
        "signal_lower_ratio": bil.signal.lower / uni.signal.lower if uni.signal.lower else None,
        "signal_upper_ratio": bil.signal.upper / uni.signal.upper if uni.signal.upper else None,
    }
    flagged = any(r is None or not 0.5 < r < 2.0 for r in consistency.values())
    return {
        "axis": "eig(YY^H)/(T*R)",
        "estimates": [e.to_dict() for e in estimates],
        "thresholds": thresholds,
        "cross_method_consistency": dict(consistency, flagged=flagged),
    }
