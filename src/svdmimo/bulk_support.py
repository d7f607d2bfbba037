"""Analytic approximations to the supports of the signal and interference bulks.

Three families, all in the (r, t, zeta) parameterization of DerivedParams:

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
quartic_extremes, s2_inverse_highsnr) work on the raw eig(Y Y^H) axis.
"""

from __future__ import annotations

import math
import warnings
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
        return BulkInterval(self.lower * factor, self.upper * factor)

    def disjoint_below(self, other):
        """True when this interval lies strictly below `other`."""
        return self.upper < other.lower


@dataclass(frozen=True)
class ScaleFactors:
    """Eigenvalue-repulsion factors: n_* from noise, i_* from the other bulk.

    For P > I the interference factors push the signal bulk up (i_P >= 1) and
    the interference bulk down (i_I <= 1); all tend to 1 as W -> 0 (n's) or
    load -> 0 (i's).
    """

    n_P: float
    n_I: float
    i_P: float
    i_I: float

    @property
    def signal(self):
        return self.n_P * self.i_P

    @property
    def interference(self):
        return self.n_I * self.i_I


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

def _unilateral_endpoints(dp, P, I, L):
    """Signal and interference (lower, upper) before clamping at zero."""
    a, k = dp.alpha, dp.kappa
    root = math.sqrt((k ** 2 + k) / a)
    return ((k * P / a - 2 * P * root, k * P / a + 2 * P * root),
            (k * I / a - 2 * I * math.sqrt(L) * root, k * I / a + 2 * I * math.sqrt(L) * root))


def unilateral_intervals(dp: DerivedParams, P, I, L):
    """Unscaled single-bulk supports on the T*R axis.

    Signal: kappa*P/alpha -+ 2P*sqrt((kappa^2+kappa)/alpha); interference the
    same with I and an extra factor L under the root. Negative lower endpoints
    are clamped to zero. Valid for small load; unilateral_supports flags a
    clamped endpoint and alpha > 0.1.
    """
    (p_lo, p_hi), (i_lo, i_hi) = _unilateral_endpoints(dp, P, I, L)
    return (BulkInterval(max(p_lo, 0.0), p_hi), BulkInterval(max(i_lo, 0.0), max(i_hi, 0.0)))


def noise_scale_factors(P, I, W, R, C):
    """Noise repulsion: n_P = (1 + W/(P R))(1 + W/(P C)), n_I analogously."""
    if P <= 0 or I <= 0:
        raise ValueError("P and I must be > 0")
    n_P = (1 + W / (P * R)) * (1 + W / (P * C))
    n_I = (1 + W / (I * R)) * (1 + W / (I * C))
    return n_P, n_I


def interference_scale_factors(P, I, alpha, kappa, L):
    """Mutual bulk repulsion: i_P = (1 + (L a/k)/(P/I - 1))(1 + L a/(P/I - 1)),
    i_I with the power roles swapped. Only accurate for P >> I;
    unilateral_supports flags P/I < 2. Singular at P = I."""
    if P == I:
        raise ValueError("interference scale factors are singular at P = I")
    i_P = (1 + (L * alpha / kappa) / (P / I - 1)) * (1 + L * alpha / (P / I - 1))
    i_I = (1 + (alpha / kappa) / (I / P - 1)) * (1 + alpha / (I / P - 1))
    return i_P, i_I


def _unilateral_rhs(x, dp, P, W, L, edge_ratio):
    """Right-hand side of the separability inequality at trial ratio x = I/P."""
    I = x * P
    n_P, n_I = noise_scale_factors(P, I, W, dp.R, dp.C)
    i_P, i_I = interference_scale_factors(P, I, dp.alpha, dp.kappa, L)
    return (n_I * i_I) / (n_P * i_P) * edge_ratio


def unilateral_separable(dp: DerivedParams, P, W, L):
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
    a, k = dp.alpha, dp.kappa
    lower_edge = 1 - 2 * math.sqrt(a * (1 + 1 / k))
    if lower_edge <= 0:
        raise RegimeError("1 - 2 sqrt(alpha (1 + 1/kappa)) <= 0: no separation predicted")
    edge_ratio = (1 + 2 * math.sqrt(a * L * (1 + 1 / k))) / lower_edge

    def margin(x):
        return 1.0 / x - _unilateral_rhs(x, dp, P, W, L, edge_ratio)

    # keep the i-factor denominators away from the I = P singularity
    x_max = min(0.999, 1 - 2 * a, 1 - 2 * a / k)
    xs = np.linspace(1e-3, x_max, 600)
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


def unilateral_supports(dp: DerivedParams, P, W, L) -> SupportEstimate:
    """Unilateral SupportEstimate: single-bulk intervals rescaled by the
    repulsion factors. Disjointness of the scaled intervals is exactly the
    closed-form threshold inequality.

    Flags, in this order: load alpha > 0.1 (the approximation assumes small
    load), a negative lower endpoint clamped at 0, and P/I < 2 (the repulsion
    factors assume P >> I).
    """
    I = dp.beta_ratio * P
    flags = []
    if dp.alpha > 0.1:
        flags.append(f"unilateral approximation assumes small load (alpha={dp.alpha:.3f} > 0.1)")
    (p_lo, _), (i_lo, _) = _unilateral_endpoints(dp, P, I, L)
    if p_lo < 0 or i_lo < 0:
        flags.append("unilateral interval lower endpoint clamped at 0")
    p_int, i_int = unilateral_intervals(dp, P, I, L)
    if I > 0:
        n_P, n_I = noise_scale_factors(P, I, W, dp.R, dp.C)
        i_P, i_I = interference_scale_factors(P, I, dp.alpha, dp.kappa, L)
        if P / I < 2:
            flags.append("interference scale factors are only accurate for P >> I (P/I < 2)")
        sf = ScaleFactors(n_P=n_P, n_I=n_I, i_P=i_P, i_I=i_I)
        p_int = p_int.scaled(sf.signal)
        lo, hi = sorted((i_int.lower * sf.interference, i_int.upper * sf.interference))
        i_int = BulkInterval(lo, hi)
    separable = i_int.disjoint_below(p_int)
    return SupportEstimate(signal=p_int, interference=i_int, method="unilateral",
                           separable=separable, flags=tuple(flags))


# ---------------------------------------------------------------------------
# bilateral high-SNR approximation (W = 0)
# ---------------------------------------------------------------------------

def s1_inverse(G, dp: DerivedParams, L):
    """First-order rational approximation of the inverse Stieltjes transform
    (raw axis). Reduces exactly to -1/G at alpha = 0. Values near the poles of
    the rational function are flagged with a warning."""
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    num = (((L + 1) * (k - 2) * a - k) * G ** 2
           + ((L * r + t) * (k - 1) * a - k * (r + t)) * G - k * r * t)
    den = G * ((k + 2 * (L + 1) * a) * G ** 2
               + ((L * r + t) * a + k * (r + t)) * G + k * r * t)
    scale = abs(G) * (k * abs(G) ** 2 + k * (r + t) * abs(G) + k * r * t)
    if abs(den) < 1e-12 * max(scale, 1e-300):
        warnings.warn(f"s1_inverse evaluated near a pole (G={G})")
        if den == 0:
            return math.inf if num >= 0 else -math.inf
    return num / den


def _quartic_real_roots(coeffs, rel_imag_tol=1e-9):
    roots = poly_roots(coeffs[::-1])  # poly_roots wants ascending
    real = np.abs(roots.imag) <= rel_imag_tol * np.maximum(np.abs(roots), 1e-300)
    if not np.all(real):
        return None
    return np.sort(roots.real)


def quartic_extremes(dp: DerivedParams, L):
    """Real solutions G1 <= G2 <= G3 <= G4 of the quartic locating the extremes
    of s1_inverse, or None when complex pairs appear (no first-order
    separation). Roots found via the companion-matrix method."""
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    c4 = 2 * (L + 1) ** 2 * (k - 2) * a ** 2 + (L + 1) * (k - 4) * k * a - k ** 2
    c3 = 2 * (2 * (L * r + t) * (L + 1) * (k - 1) * a ** 2
              + ((L * r + t) * (k - 1) - 2 * (L + 1) * (t + r)) * a * k - (t + r) * k ** 2)
    c2 = ((L * r + t) ** 2 * (k - 1) * a ** 2 + (t ** 2 + L * r ** 2) * (k - 2) * k * a
          - 6 * (L + 1) * r * t * k * a - ((t + r) ** 2 + 2 * r * t) * k ** 2)
    c1 = -2 * r * t * k * ((L * r + t) * a + (t + r) * k)
    c0 = -(k ** 2) * r ** 2 * t ** 2
    return _quartic_real_roots(np.array([c4, c3, c2, c1, c0]))


def s1_supports(dp: DerivedParams, L) -> SupportEstimate:
    """First-order bulk intervals [s1(G1), s1(G2)] and [s1(G3), s1(G4)] on the
    T*R axis; 'bulks merged' when the quartic has complex roots or the
    ordering s1(G2) < s1(G3) fails."""
    TR = dp.T * dp.R
    Gs = quartic_extremes(dp, L)
    if Gs is None:
        return _merged_estimate("bilateral_highSNR_1", ("complex quartic roots",))
    s_vals = [s1_inverse(g, dp, L) / TR for g in Gs]
    if not s_vals[1] < s_vals[2]:
        return _merged_estimate("bilateral_highSNR_1", ("extreme ordering violated",))
    return SupportEstimate(
        signal=BulkInterval(*sorted(s_vals[2:4])),
        interference=BulkInterval(*sorted(s_vals[0:2])),
        method="bilateral_highSNR_1",
        separable=s_vals[1] < s_vals[2],
    )


def _merged_estimate(method, flags):
    empty = BulkInterval(0.0, 0.0)
    return SupportEstimate(signal=empty, interference=empty, method=method,
                           separable=False, flags=("merged",) + tuple(flags))


def _phi0(G, dp, L):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    num = ((2 * a * (L + 1) * (k - 1) + k * (k - 4)) * G ** 2
           + k * (a * (t + L * r) + (k - 2) * (t + r)) * G + k ** 2 * r * t)
    den = 2 * G ** 2 * ((2 * k + (L + 1) * a) * G + k * (t + r))
    return num / den


def _rho0_radicand_coeffs(dp, L):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    return np.array([
        k * (k - 4 * a * (L + 1)),
        2 * k * (k * (t + r) - 3 * a * (L * r + t)),
        (t ** 2 + 4 * r * t + r ** 2) * k ** 2 - 2 * a * k * (L * r - t) * (r - t)
        + a ** 2 * (t + L * r) ** 2,
        2 * k * r * t * (k * (t + r) + a * (t + L * r)),
        k ** 2 * t ** 2 * r ** 2,
    ])


def _gplusminus_inf(dp, L):
    """Poles G_-inf <= G_+inf of the first-order rational approximation."""
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    den = -2 * k - 4 * a - 4 * L * a
    rad = math.sqrt(k ** 2 * (r - t) ** 2
                    + 2 * a * k * (L * r ** 2 + t ** 2 - 3 * r * t - 3 * L * t * r)
                    + a ** 2 * (t + L * r) ** 2)
    g1 = (k * (r + t) + a * (t + L * r) - rad) / den
    g2 = (k * (r + t) + a * (t + L * r) + rad) / den
    return min(g1, g2), max(g1, g2)


def s2_inverse_highsnr(G, dp: DerivedParams, L):
    """Second-order approximation of the inverse transform (raw axis):
    phi0 + rho0 inside [G_-inf, G_+inf], phi0 - rho0 elsewhere. Returns NaN
    where the radicand under rho0 is negative (the complex region whose
    boundary locates the bulk extremes)."""
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    rad = float(np.polynomial.polynomial.polyval(G, _rho0_radicand_coeffs(dp, L)[::-1]))
    if rad < 0:
        return float("nan")
    rho = k * math.sqrt(rad) / (2 * G ** 2 * ((2 * k + (L + 1) * a) * G + k * (t + r)))
    lo, hi = _gplusminus_inf(dp, L)
    if lo <= G <= hi:
        return _phi0(G, dp, L) + rho
    return _phi0(G, dp, L) - rho


def rho0_zero_supports(dp: DerivedParams, L):
    """Second-order bulk intervals from the zeros of rho0: phi0 at the sorted
    zeros gives [phi0(G1), phi0(G2)] and [phi0(G3), phi0(G4)] on the T*R axis.
    None when zeros are complex or the interval ordering fails."""
    TR = dp.T * dp.R
    Gs = _quartic_real_roots(_rho0_radicand_coeffs(dp, L))
    if Gs is None:
        return None
    vals = [_phi0(g, dp, L) / TR for g in Gs]
    if not vals[1] < vals[2]:
        return None
    return (BulkInterval(*sorted(vals[2:4])), BulkInterval(*sorted(vals[0:2])))


def bilateral_supports_highsnr(dp: DerivedParams, L) -> SupportEstimate:
    """Second-order high-SNR enclosures of the noiseless bulks on the T*R axis:
    the zeta = 0 case of bilateral_supports_general."""
    return _bilateral(dp, L, 0.0, "bilateral_highSNR_2")


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


def bilateral_validity(dp: DerivedParams, L):
    """Validity condition of the bilateral expansions:
    0 <= alpha/kappa <= (t - r)^2 / (r (t + (L-1) r))."""
    r, t = dp.r, dp.t
    if not (t >= r >= 0):
        raise ValueError("requires t >= r >= 0")
    if dp.alpha == 0:
        return True
    if t == r:
        return False
    if math.isinf(t):
        return True
    return dp.alpha / dp.kappa <= (t - r) ** 2 / (r * (t + (L - 1) * r))


# ---------------------------------------------------------------------------
# bilateral general-SNR approximation (zeta = W*C retained)
# ---------------------------------------------------------------------------

def _varsigma_P(G, dp, L, zeta):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    s0 = ((k - 1) * G + k * r) / G ** 2
    b = a * ((L + 2) * r - t) + (k + zeta * r) * (t - r)
    E = ((L + 1) * a - k + zeta * (t - 2 * r)) * G + k * (t - 2 * r)
    return s0 - (k / 2) * (G * b + k * r * (t - r)) / (G ** 2 * E)


def _varsigma_I(G, dp, L, zeta):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    s0 = ((k - 1) * G + k * t) / G ** 2
    b = a * ((2 * L + 1) * t - L * r) + (k + zeta * t) * (r - t)
    E = ((L + 1) * a - k - zeta * (2 * t - r)) * G - k * (2 * t - r)
    return s0 - (k / 2) * (G * b + k * t * (r - t)) / (G ** 2 * E)


def _gamma_P(dp, L, zeta):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
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


def _gamma_I(dp, L, zeta):
    a, k, r, t = dp.alpha, dp.kappa, dp.r, dp.t
    rad2 = a * k * L * (t - r) ** 2 + a ** 2 * L * t * ((L - 1) * t - L * r)
    if rad2 < 0:
        return None
    rad = math.sqrt(rad2)
    den = ((a * t + L * a * r - t * k + r * k + t * (t - r) * zeta) ** 2
           + 4 * (t - r) * (t * ((k + a * L - a) * t - (a * L + k) * r) * zeta + a * k * L * r))
    bracket = k * (t - r) + a * (2 * L - 1) * t - a * L * r + t * (t - r) * zeta
    return (-k * t * (t - r) * (bracket + 2 * rad) / den,
            -k * t * (t - r) * (bracket - 2 * rad) / den)


def _bilateral(dp, L, zeta, method):
    """Per-bulk second-order enclosures: the rational parts of the expansions
    evaluated at the zeros Gamma of the respective discriminants. Negative
    radicands mean the bulks cannot be resolved (merged)."""
    TR = dp.T * dp.R
    gp, gi = _gamma_P(dp, L, zeta), _gamma_I(dp, L, zeta)
    if gp is None or gi is None:
        return _merged_estimate(method, ("negative radicand",))
    sig = BulkInterval(*sorted(_varsigma_P(g, dp, L, zeta) / TR for g in gp))
    intf = BulkInterval(*sorted(_varsigma_I(g, dp, L, zeta) / TR for g in gi))
    flags = ()
    if (gi[1] < gp[0]) != intf.disjoint_below(sig):
        flags = ("gamma ordering and interval disjointness disagree",)
    return SupportEstimate(signal=sig, interference=intf, method=method,
                           separable=intf.disjoint_below(sig), flags=flags)


def bilateral_supports_general(dp: DerivedParams, L, zeta) -> SupportEstimate:
    """General-SNR enclosures of the noisy bulks on the T*R axis.

    At zeta = 0 these are the high-SNR enclosures. The printed interference
    expansion in the source carries a typo in its zeta term; this implements
    the expansion re-derived from the stated recipe (second-order Taylor
    expansion of the cleared fixed point around the per-bulk zeros)."""
    return _bilateral(dp, L, zeta, "bilateral_general")


def gamma_ordering_separable(dp: DerivedParams, L, zeta):
    """Separability verdict from the G-domain ordering Gamma_Iu < Gamma_Pl."""
    gp, gi = _gamma_P(dp, L, zeta), _gamma_I(dp, L, zeta)
    if gp is None or gi is None:
        return False
    return gi[1] < gp[0]


# ---------------------------------------------------------------------------
# appendix verification: single-eigenvalue repulsion scale
# ---------------------------------------------------------------------------

def _s0_explicit(G, beta, kappa, t):
    """Explicit zero-load inverse transform with interference dimension ratio beta."""
    num = G * kappa - 2 * G + G * beta + t * kappa
    rad = math.sqrt(beta ** 2 * G ** 2 + 2 * beta * G * t * kappa
                    - 2 * beta * G ** 2 * kappa + kappa ** 2 * (G + t) ** 2)
    return num / (2 * G ** 2) - rad / (2 * G ** 2)


def appendixB_scale_verification(dp: DerivedParams, L):
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
    s0G4 = _s0_explicit(G4, beta, k, t)
    ratio = s0G4 * r
    closed_form = (1 + (beta / k) / (t / r - 1)) * (1 + beta / (t / r - 1))
    i_P, _ = interference_scale_factors(1.0, r / t, dp.alpha, k, L)
    return {
        "beta": beta,
        "G4": G4,
        "s0_G4": s0G4,
        "scale_ratio": ratio,
        "closed_form_ratio": closed_form,
        "i_P": i_P,
        "max_rel_diff": max(abs(ratio - closed_form), abs(ratio - i_P)) / closed_form,
    }
