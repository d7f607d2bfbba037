import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdmimo import bulk_support, rmt_spectrum
from svdmimo.bulk_support import (BulkInterval, RegimeError, SupportEstimate, _gamma_I, _gamma_P,
                                  _unilateral, bilateral_supports_general,
                                  bilateral_supports_highsnr, bisect, poly_roots,
                                  quartic_extremes, s1_inverse, s1_supports,
                                  separability_boundary, separability_boundary_ratio,
                                  support_estimates, support_report, unilateral_separable,
                                  unilateral_supports)
from svdmimo.subspace_receiver import empirical_spectrum
from svdmimo.system_model import (InterferenceProfile, PilotConfig, SystemParams,
                                  assemble_received, sample_realization)

from highsnr_oracle import (appendixB_scale_verification, bilateral_validity, highsnr_supports,
                            rho0_zero_supports, s0_explicit)
from ratio_params import RatioParams
from spectrum_oracle import contains


def fig2_system(W=0.0, I_over_P=0.25):
    return SystemParams.from_profile(R=300, T=3, C=1000, L=2, P=0.1, W=W,
                                     profile=InterferenceProfile(kind="flat", I=I_over_P * 0.1))


def fig2_dp(W=0.0, I_over_P=0.25):
    return fig2_system(W=W, I_over_P=I_over_P)


def dp_from_ratios(alpha, kappa, r, t, L, zeta=0.0, R=300, P=None, W=None):
    """RatioParams built from the ratios; P and W default to the source
    values that r = 1/(P R C) and zeta = W C imply."""
    C = int(round(kappa * R))
    return RatioParams(kappa=kappa, alpha=alpha, r=r, t=t, zeta=zeta,
                       beta_ratio=r / t, R=R, T=max(int(round(alpha * R)), 1), C=C,
                       L=L, P=1.0 / (r * R * C) if P is None else P,
                       W=zeta / C if W is None else W)


def flat_dp(R, T, C, L, I_over_P):
    return SystemParams.from_profile(
        R, T, C, L, 0.1, 1.0, InterferenceProfile(kind="flat", I=I_over_P * 0.1))


SMALL_LOAD = "unilateral approximation assumes small load (alpha={:.3f} > 0.1)"
CLAMPED = "unilateral interval lower endpoint clamped at 0"
CLOSE_POWERS = "interference scale factors are only accurate for P >> I (P/I < 2)"


def unilateral_at(sys, x=None):
    """_unilateral of `sys` at x = I/P, by default the system's own ratio."""
    return _unilateral(sys, sys.beta_ratio if x is None else x)


def noise_factors(sys):
    """n_P and n_I of `sys`: its repulsion products over those at W = 0."""
    _, _, f_P, f_I = unilateral_at(sys)
    _, _, g_P, g_I = unilateral_at(dataclasses.replace(sys, W=0.0))
    return f_P / g_P, f_I / g_I


class TestUnilateralIntervals:
    def test_center_and_halfwidth(self):
        sys = SystemParams.from_profile(300, 10, 100, 2, 0.1, 1.0,
                                        InterferenceProfile(kind="flat", I=0.025))
        (lower, upper), _, _, _ = unilateral_at(sys)
        center = 0.5 * (lower + upper)
        halfwidth = 0.5 * (upper - lower)
        assert np.isclose(center, 1.0, rtol=1e-12)
        assert np.isclose(halfwidth, 2 * 0.1 * np.sqrt(((1 / 3) ** 2 + 1 / 3) * 30), rtol=1e-12)
        assert np.isclose(halfwidth, 0.730, atol=5e-4)

    def test_relative_width_vanishes_at_small_load(self):
        dp_small = dp_from_ratios(alpha=1e-6, kappa=2.0, r=1e-5, t=4e-5, L=2, R=10 ** 6, P=0.1)
        (lower, upper), _, _, _ = unilateral_at(dp_small)
        center = 0.5 * (lower + upper)
        assert (upper - lower) / center < 0.02

    def test_symmetry_when_equal_powers_single_cell(self):
        # at L = 1 the interference endpoints are x times the signal ones, so
        # they meet them as x -> 1; the repulsion factors are singular at 1 itself
        dp = flat_dp(300, 3, 1000, 1, 1.0)
        p_int, i_int, _, _ = unilateral_at(dp, 0.5)
        assert np.allclose(i_int, np.multiply(0.5, p_int), rtol=1e-12)
        p_int, i_int, _, _ = unilateral_at(dp, 1 - 1e-9)
        assert np.isclose(p_int[0], i_int[0]) and np.isclose(p_int[1], i_int[1])

    def test_negative_lower_clamped_flagged(self):
        sys = SystemParams.from_profile(300, 30, 100, 2, 0.1, 1.0,
                                        InterferenceProfile(kind="flat", I=0.025))
        (p_lo, _), (i_lo, _), _, _ = unilateral_at(sys)
        assert p_lo < 0 and i_lo < 0
        est = unilateral_supports(sys)
        assert est.signal.lower == 0 and est.interference.lower == 0
        assert CLAMPED in est.flags


class TestScaleFactors:
    def test_noise_factors_zero_noise(self):
        # at W = 0 the products are the interference factors alone
        _, _, f_P, f_I = unilateral_at(fig2_dp(W=0.0))
        a, k, L = 0.01, 10 / 3, 2
        assert np.isclose(f_P, (1 + (L * a / k) / 3) * (1 + L * a / 3), rtol=1e-12)
        assert np.isclose(f_I, (1 + (a / k) / -0.75) * (1 + a / -0.75), rtol=1e-12)

    def test_noise_factor_example(self):
        n_P, _ = noise_factors(fig2_dp(W=1.0))
        assert np.isclose(n_P, (1 + 10 / 300) * (1 + 10 / 1000), rtol=1e-12)
        assert np.isclose(n_P, 1.0437, atol=1e-4)

    def test_noise_factors_large_system_limit(self):
        sys = SystemParams.from_profile(3 * 10 ** 8, 3, 10 ** 9, 2, 0.1, 1.0,
                                        InterferenceProfile(kind="flat", I=0.025))
        n_P, n_I = noise_factors(sys)
        assert abs(n_P - 1) < 1e-6 and abs(n_I - 1) < 1e-5

    @pytest.mark.parametrize("P, I", [(0.0, 0.025), (0.1, 0.0), (-0.1, 0.025), (0.1, -1.0)])
    def test_noise_factors_need_positive_powers(self, P, I):
        # n_P and n_I divide by P and I, and the unilateral estimate never
        # reaches them with a power that is not positive: a negative one fails
        # as the system is built, P = 0 where beta_ratio is read, I = 0 in the
        # interference guard
        with pytest.raises(ValueError, match="^(P must be|flat profile requires I >= 0$|"
                                             "the support estimates need interference)"):
            unilateral_supports(SystemParams.from_profile(
                300, 3, 1000, 2, P, 1.0, InterferenceProfile(kind="flat", I=I)))

    def test_interference_factors_zero_load(self):
        # alpha = 0 is no system and puts the bulk centers at infinity; at
        # alpha = 1e-9 and W = 0 both products are within 10 alpha of 1
        _, _, i_P, i_I = unilateral_at(dp_from_ratios(alpha=1e-9, kappa=10 / 3, r=2.5e-5,
                                                      t=1e-4, L=2))
        assert abs(i_P - 1) <= 1e-8 and abs(i_I - 1) <= 1e-8

    def test_interference_factor_example(self):
        # P/I = 4, alpha = 0.01, kappa = 10/3, L = 2, and W = 0, so f_P = i_P
        _, _, i_P, _ = unilateral_at(fig2_dp(W=0.0))
        assert np.isclose(i_P, (1 + 0.006 / 3) * (1 + 0.02 / 3), rtol=1e-12)
        assert np.isclose(i_P, 1.00868, atol=1e-5)

    def test_iP_grows_as_powers_approach(self):
        vals = [unilateral_at(fig2_dp(W=0.0), x)[2] for x in (0.1, 0.25, 0.4)]
        assert vals[0] < vals[1] < vals[2]

    def test_equal_powers_singular(self):
        # the factors are singular at P = I: the estimate is merged there, and
        # the threshold scan stops below I/P = 1 and still gives a verdict
        dp = fig2_dp(W=1.0, I_over_P=1.0)
        assert unilateral_supports(dp).flags == ("merged",
                                                 "interference scale factors singular at P = I")
        assert unilateral_separable(dp) == (False, unilateral_separable(fig2_dp(W=1.0))[1])

    def test_close_powers_flagged(self):
        below, above = (unilateral_supports(fig2_dp(W=1.0, I_over_P=ip))
                        for ip in (0.501, 0.499))
        assert CLOSE_POWERS in below.flags and CLOSE_POWERS not in above.flags


class TestUnilateralThreshold:
    def test_paper_operating_point(self):
        separable, threshold = unilateral_separable(fig2_dp(W=1.0))
        assert abs(threshold - 0.61) <= 0.02
        assert separable  # I/P = 0.25 lies below the threshold

    def test_zero_load_threshold_tends_to_one(self):
        dp = dp_from_ratios(alpha=1e-6, kappa=2.0, r=1.0 / (0.1 * 1e6 * 2e6), t=math.inf,
                            L=1, zeta=2e6, R=10 ** 6, P=0.1, W=1.0)
        dp = dataclasses.replace(dp, t=dp.r / 0.5, beta_ratio=0.5)
        _, threshold = unilateral_separable(dp)
        assert threshold > 0.98

    def test_threshold_decreasing_in_L(self):
        thresholds = [unilateral_separable(flat_dp(300, 3, 1000, L, 0.25))[1] for L in (1, 2, 4)]
        assert thresholds[0] > thresholds[1] > thresholds[2]

    def test_threshold_decreasing_in_alpha(self):
        dps = [fig2_dp(W=1.0)]
        sys = SystemParams.from_profile(R=300, T=6, C=1000, L=2, P=0.1, W=1.0,
                                        profile=InterferenceProfile(kind="flat", I=0.025))
        dps.append(sys)
        t1 = unilateral_separable(dps[0])[1]
        t2 = unilateral_separable(dps[1])[1]
        assert t2 < t1

    def test_regime_error_when_load_too_large(self):
        dp = dp_from_ratios(alpha=0.4, kappa=1.0, r=1e-5, t=4e-5, L=2, P=0.1, W=1.0)
        with pytest.raises(RegimeError):
            unilateral_separable(dp)

    def test_scaled_intervals_disjointness_matches_threshold(self):
        # on the Fig.-2 system the scaled intervals are disjoint below the
        # threshold (0.612) and overlap above it
        for ip, expect in ((0.3, True), (0.8, False)):
            est = unilateral_supports(fig2_dp(W=1.0, I_over_P=ip))
            assert est.separable is expect

    def test_threshold_is_where_the_scaled_intervals_meet(self):
        # 400 seeded random flat systems; wherever the scan finds its crossing
        # strictly inside (1e-3, x_max), the unilateral estimate is separable
        # 2e-4 below the threshold and merged 2e-4 above it (bisect stops
        # within 5e-5 of the crossing)
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(400):
            R, C = int(rng.integers(2, 1501)), int(rng.integers(10, 2001))
            T, L = int(rng.integers(1, min(R, 10) + 1)), int(rng.integers(1, 8))
            P, W = 10 ** rng.uniform(-3, 3, size=2)

            def system(x):
                return SystemParams.from_profile(R, T, C, L, P, W,
                                                 InterferenceProfile(kind="flat", I=x * P))
            sys = system(0.5)
            try:
                _, threshold = unilateral_separable(sys)
            except RegimeError:
                continue
            x_max = min(0.999, 1 - 2 * sys.alpha, 1 - 2 * sys.alpha / sys.kappa)
            if not 1e-3 < threshold < x_max:
                continue
            checked += 1
            assert unilateral_supports(system(threshold - 2e-4)).separable
            assert not unilateral_supports(system(threshold + 2e-4)).separable
        assert checked >= 100

    def test_zero_signal_power_rejected(self):
        # P = 0 fails where beta_ratio is read, before the model divides by P
        dp = SystemParams.from_profile(300, 3, 1000, 2, 0.0, 1.0,
                                       InterferenceProfile(kind="flat", I=0.025))
        for compute in (unilateral_separable, unilateral_supports):
            with pytest.raises(ValueError, match=r"^P must be > 0"):
                compute(dp)


class TestRegimeFlags:
    """The unilateral regime conditions are returned as flags, never warned."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("R, T, C, L, I_over_P, flags", [
        (100, 15, 1000, 1, 0.25, (SMALL_LOAD.format(0.15),)),
        (300, 30, 100, 2, 0.25, (CLAMPED,)),
        (300, 3, 1000, 2, 0.6, (CLOSE_POWERS,)),
        (100, 30, 100, 2, 0.6, (SMALL_LOAD.format(0.3), CLAMPED, CLOSE_POWERS)),
        (300, 3, 1000, 2, 0.25, ()),
        (300, 3, 1000, 2, 1.0, ("merged", "interference scale factors singular at P = I")),
    ], ids=["small_load", "clamped", "close_powers", "all_in_order", "none", "equal_powers"])
    def test_unilateral_flags(self, R, T, C, L, I_over_P, flags):
        assert unilateral_supports(flat_dp(R, T, C, L, I_over_P)).flags == flags

    @pytest.mark.filterwarnings("error")
    def test_formulas_do_not_warn(self):
        # each call meets a condition that unilateral_supports flags
        unilateral_at(flat_dp(100, 30, 100, 2, 0.6))
        unilateral_at(dp_from_ratios(alpha=0.01, kappa=1.0, r=1e-5, t=1e-5 / 0.6, L=2, P=0.1))
        unilateral_separable(fig2_dp(W=1.0))

    def test_interference_above_power_flips_signal_interval(self):
        # i_P < 0 just above I = P: the scaled signal interval lies below 0
        dp = fig2_dp(W=1.0, I_over_P=1.01)
        est = unilateral_supports(dp)
        assert est.signal.upper <= 0 and est.flags[-1] == "negative lower endpoint"

    def test_bilateral_negative_lower_endpoint_flagged(self):
        # inside the separability region (alpha/kappa = 0.046 < 0.082) and the
        # validity condition, the interference enclosure still reaches below 0;
        # it is flagged and left unclamped
        dp = dp_from_ratios(alpha=0.095, kappa=2.06, r=1e-4, t=6.68e-4, L=7)
        assert bilateral_validity(dp) and 0.095 / 2.06 < separability_boundary(1 / 6.68, 7)
        for est in (bilateral_supports_highsnr(dp), bilateral_supports_general(dp)):
            assert est.flags[-1] == "negative lower endpoint"
            assert np.isclose(est.interference.lower, -0.2992, atol=1e-4)
            assert np.isclose(est.interference.upper, 1.8786, atol=1e-4)
        assert "negative lower endpoint" not in bilateral_supports_highsnr(fig2_dp()).flags
        # the first-order and the unilateral estimates carry the same flag: at
        # R=12, T=3, C=1000, L=1, I/P=0.895 the first-order interference interval
        # starts below 0 with separable True, and the negative repulsion factor
        # i_I puts the scaled unilateral interference interval wholly below 0
        dp = flat_dp(12, 3, 1000, 1, 0.895)
        s1 = s1_supports(dp)
        assert s1.separable and s1.flags == ("negative lower endpoint",)
        assert np.isclose(s1.interference.lower, -94.19, atol=0.01)
        uni = unilateral_supports(dp)
        assert uni.flags[-1] == "negative lower endpoint"
        assert uni.interference.upper <= 0 and np.isclose(uni.interference.lower, -156.76, atol=0.01)
        assert "negative lower endpoint" not in s1_supports(fig2_dp()).flags
        assert "negative lower endpoint" not in unilateral_supports(fig2_dp(W=1.0)).flags


class TestSupportEstimates:
    def test_four_estimates_in_order(self):
        dp = fig2_dp(W=1.0)
        assert support_estimates(dp) == (unilateral_supports(dp), s1_supports(dp),
                                         bilateral_supports_highsnr(dp),
                                         bilateral_supports_general(dp))

    @pytest.mark.parametrize("estimator", [unilateral_supports, s1_supports,
                                           bilateral_supports_highsnr, bilateral_supports_general,
                                           unilateral_separable])
    @pytest.mark.parametrize("sys", [fig2_dp(W=1.0, I_over_P=0.0),
                                     SystemParams(R=300, T=3, C=1000, L=0, P=0.1, W=1.0)],
                             ids=["I_over_P_0", "L_0"])
    def test_needs_interference_power(self, estimator, sys):
        # unilateral gave a [0, 0] interference interval read as separable, s1
        # a LinAlgError from numpy, the bilateral estimates NaN intervals and
        # the threshold scan a verdict at L = 0; the estimate set and the
        # report raise the same error
        for compute in (estimator, support_estimates, support_report):
            with pytest.raises(ValueError) as err:
                compute(sys)
            assert str(err.value) == "the support estimates need interference power > 0"


class TestS1:
    def test_alpha_zero_reduces_to_reciprocal(self):
        dp = dp_from_ratios(alpha=0.0, kappa=10 / 3, r=3.3333e-5, t=1.3333e-4, L=2)
        for G in np.linspace(-3e-4, -1e-5, 25):
            assert abs(s1_inverse(G, dp) - (-1.0 / G)) <= 1e-12 * abs(1 / G)

    @pytest.mark.filterwarnings("error")
    def test_pole_at_zero_flagged(self):
        assert s1_inverse(0.0, fig2_dp()) == -math.inf

    def test_quartic_root_sanity(self):
        # independent check: quartic roots are stationary points of s1
        dp = fig2_dp()
        Gs = quartic_extremes(dp)
        assert Gs is not None and len(Gs) == 4
        for g in Gs:
            h = abs(g) * 1e-6
            deriv = (s1_inverse(g + h, dp) - s1_inverse(g - h, dp)) / (2 * h)
            curv = (s1_inverse(g + h, dp) - 2 * s1_inverse(g, dp)
                    + s1_inverse(g - h, dp)) / h ** 2
            assert abs(deriv) <= 1e-6 * abs(curv * g)

    def test_fig2_ordering_and_bracketing(self):
        dp = fig2_dp()
        Gs = quartic_extremes(dp)
        svals = [s1_inverse(g, dp) for g in Gs]
        assert svals[1] < svals[2]  # interference upper below signal lower
        est = s1_supports(dp)
        assert est.separable
        # signal interval brackets the unilateral center kappa P / alpha
        assert est.signal.lower < 10 / 3 * 0.1 / 0.01 < est.signal.upper

    def test_extreme_ordering_violated(self):
        # four real quartic roots, but s1(G2) > s1(G3): the bulks overlap
        est = s1_supports(flat_dp(R=20, T=2, C=1000, L=4, I_over_P=0.8))
        assert est.signal == est.interference == BulkInterval(0.0, 0.0)
        assert est.flags == ("merged", "extreme ordering violated")
        assert est.to_dict()["separable"] is False

    def test_equal_powers_degenerate(self):
        dp = dp_from_ratios(alpha=0.01, kappa=10 / 3, r=3.3333e-5, t=3.3333e-5, L=2)
        Gs = quartic_extremes(dp)
        # middle extremes collapse: either flagged as complex or clustered
        if Gs is not None:
            assert abs(Gs[1] - Gs[2]) < 1e-2 * abs(Gs[1])


class TestBilateralHighSnr:
    def test_fig2_intervals(self):
        est = bilateral_supports_highsnr(fig2_dp())
        assert est.separable
        # frozen from the verified evaluation at Fig.-2 parameters
        assert np.isclose(est.signal.lower, 24.3957, atol=1e-3)
        assert np.isclose(est.signal.upper, 43.8661, atol=1e-3)
        assert np.isclose(est.interference.lower, 5.5940, atol=1e-3)
        assert np.isclose(est.interference.upper, 12.5826, atol=1e-3)

    def test_interference_interval_shrinks_to_zero_power(self):
        est1 = bilateral_supports_highsnr(fig2_dp(I_over_P=0.25))
        est2 = bilateral_supports_highsnr(fig2_dp(I_over_P=0.05))
        assert est2.interference.upper < est1.interference.upper

    def test_enclosures_track_rho0_intervals(self):
        # the per-bulk enclosures and the rho0-zero intervals are different
        # second-order expansions of the same extremes: they agree to within
        # ~10% on each endpoint but neither strictly contains the other
        dp = fig2_dp()
        est = bilateral_supports_highsnr(dp)
        sig, intf = rho0_zero_supports(dp, 2)
        for enc, ref in ((est.signal, sig), (est.interference, intf)):
            assert abs(enc.lower - ref.lower) <= 0.10 * ref.lower
            assert abs(enc.upper - ref.upper) <= 0.10 * ref.upper

    def test_empirical_containment(self):
        sys = fig2_system(W=0.0)
        est = bilateral_supports_highsnr(sys)
        sig, intf = [], []
        for i in range(10):
            rz = sample_realization(sys, PilotConfig(), seed=[77, i])
            ev = empirical_spectrum(assemble_received(rz), sys.T)
            sig.extend(ev[:3])
            intf.extend(ev[3:9])
        assert np.mean(contains(est.signal, np.array(sig))) == 1.0
        assert np.mean(contains(est.interference, np.array(intf))) == 1.0


class TestSeparabilityBoundary:
    def test_beta_zero_gives_one(self):
        assert separability_boundary(0.0, 2) == 1.0

    def test_beta_one_gives_zero(self):
        assert separability_boundary(1.0, 2) == 0.0

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="^beta must be >= 0$"):
            separability_boundary(-0.1, 2)

    @pytest.mark.parametrize("alpha_over_kappa", [1.0, 3.0])
    def test_ratio_zero_at_load_of_one_or_more(self, alpha_over_kappa):
        # the boundary is at most 1 (at beta = 0): no I/P keeps the bulks apart
        assert separability_boundary_ratio(alpha_over_kappa, 2) == 0.0

    def test_paper_boundary_value(self):
        beta = separability_boundary_ratio(0.003, 2)
        assert abs(beta - 0.78) <= 0.01

    def test_monotone_decreasing_for_each_L(self):
        betas = np.linspace(1e-4, 0.999, 300)
        for L in (2, 4, 7):
            vals = [separability_boundary(b, L) for b in betas]
            assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_region_shrinks_with_L(self):
        for b in (0.2, 0.5, 0.8):
            vals = [separability_boundary(b, L) for L in (2, 4, 7)]
            assert vals[0] > vals[1] > vals[2]


class TestBilateralValidity:
    def test_equal_powers_invalid(self):
        dp = dp_from_ratios(alpha=0.01, kappa=1.0, r=1e-5, t=1e-5, L=2)
        assert not bilateral_validity(dp)

    def test_zero_load_valid(self):
        dp = dp_from_ratios(alpha=0.0, kappa=1.0, r=1e-5, t=4e-5, L=2)
        assert bilateral_validity(dp)

    def test_boundary_implies_validity_sweep(self):
        # whenever the separability condition holds, the expansion is valid
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(1000):
            L = int(rng.integers(1, 8))
            beta = rng.uniform(0.01, 0.99)
            limit = separability_boundary(beta, L)
            if limit <= 0:
                continue
            ratio = rng.uniform(0.0, limit)  # inside the separability region
            kappa = 10 ** rng.uniform(-0.5, 0.7)
            alpha = ratio * kappa
            t = 10 ** rng.uniform(-5, -3)
            dp = dp_from_ratios(alpha=alpha, kappa=kappa, r=beta * t, t=t, L=L)
            assert bilateral_validity(dp)
            checked += 1
        assert checked > 800

    def test_validity_is_nonnegative_radicand(self):
        # the library reports the condition as data: on the ratios that a
        # SystemParams gives (L >= 1, 0 < r <= t) it holds exactly when the
        # radicand of _gamma_P is >= 0, and both second-order estimates are
        # merged with `negative radicand` where it fails
        rng = np.random.default_rng(11)
        invalid = 0
        for i in range(2000):
            L = int(rng.integers(1, 8))
            kappa = 10 ** rng.uniform(-0.5, 0.7)
            alpha = kappa * 10 ** rng.uniform(-4, 0)
            t = 10 ** rng.uniform(-5, -3)
            r = t if i % 10 == 0 else t * rng.uniform(1e-3, 1.0)
            dp = dp_from_ratios(alpha=alpha, kappa=kappa, r=r, t=t, L=L,
                                zeta=10 ** rng.uniform(-1, 3))
            valid = bilateral_validity(dp)
            assert valid == (_gamma_P(dp, 0.0) is not None), (alpha, kappa, r, t, L)
            if not valid:
                invalid += 1
                for est in (bilateral_supports_highsnr(dp), bilateral_supports_general(dp)):
                    assert est.flags[:2] == ("merged", "negative radicand")
        assert 200 < invalid < 1800


class TestBilateralGeneral:
    def test_zeta_zero_equals_highsnr(self):
        # the library's high-SNR enclosures against the printed high-SNR expansions
        dp = fig2_dp()
        oracle = highsnr_supports(dp, 2)
        for est in (bilateral_supports_general(dp), bilateral_supports_highsnr(dp)):
            for a, b in ((est.signal, oracle.signal), (est.interference, oracle.interference)):
                assert abs(a.lower - b.lower) <= 1e-10 * abs(b.lower)
                assert abs(a.upper - b.upper) <= 1e-10 * abs(b.upper)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(L=st.integers(1, 7),
           t_over_r=st.floats(1.01, 100.0),
           kappa=st.floats(0.1, 10.0),
           inside=st.booleans(),
           fraction=st.floats(0.01, 0.99),
           t=st.floats(1e-6, 1e-3))
    def test_zeta_zero_matches_printed_highsnr(self, L, t_over_r, kappa, inside, fraction, t):
        # alpha/kappa inside the separability boundary, or up to 3x beyond it;
        # t/r and the fraction stay away from 1 and 0, where alpha/kappa and
        # t - r vanish and both derivations underflow to a division by zero
        r = t / t_over_r
        boundary = separability_boundary(r / t, L)
        ratio = fraction * boundary if inside else (1 + 2 * fraction) * boundary
        dp = dp_from_ratios(alpha=ratio * kappa, kappa=kappa, r=r, t=t, L=L)
        got, oracle = bilateral_supports_general(dp), highsnr_supports(dp, L)
        assert (got.separable, got.flags) == (oracle.separable, oracle.flags)
        for a, b in ((got.signal, oracle.signal), (got.interference, oracle.interference)):
            assert abs(a.lower - b.lower) <= 1e-10 * abs(b.lower)
            assert abs(a.upper - b.upper) <= 1e-10 * abs(b.upper)

    def test_noisy_intervals_shift_up(self):
        est0 = bilateral_supports_general(fig2_dp())
        estW = bilateral_supports_general(fig2_dp(W=1.0))
        assert estW.signal.lower > est0.signal.lower
        assert estW.interference.lower > est0.interference.lower

    def test_noisy_empirical_containment(self):
        sys = fig2_system(W=1.0)
        est = bilateral_supports_general(sys)
        sig, intf = [], []
        for i in range(10):
            rz = sample_realization(sys, PilotConfig(), seed=[78, i])
            ev = empirical_spectrum(assemble_received(rz), sys.T)
            sig.extend(ev[:3])
            intf.extend(ev[3:9])
        assert np.mean(contains(est.signal, np.array(sig))) == 1.0
        assert np.mean(contains(est.interference, np.array(intf))) == 1.0

    def test_gamma_verdict_matches_boundary_condition(self):
        # verdict from the G-domain ordering coincides with the closed-form
        # separability region for every tested noise level
        L = 2
        for W_zeta in (0.0, 500.0, 1000.0, 2000.0):
            for beta, expect in ((0.5, True), (0.95, False)):
                boundary = separability_boundary(beta, L)
                kappa = 10 / 3
                alpha = (0.5 if expect else 1.5) * boundary * kappa
                t = 1.3333e-4
                dp = dp_from_ratios(alpha=alpha, kappa=kappa, r=beta * t, t=t, L=L)
                gp, gi = _gamma_P(dp, W_zeta), _gamma_I(dp, W_zeta)
                got = gp is not None and gi is not None and gi[1] < gp[0]
                assert got is expect, (W_zeta, beta, expect, got)


class TestAppendixB:
    def test_zero_beta_ratio_one(self):
        dp = dp_from_ratios(alpha=0.0, kappa=10 / 3, r=2.5e-5, t=1e-4, L=2)
        rep = appendixB_scale_verification(dp, 2)
        assert np.isclose(rep["scale_ratio"], 1.0, atol=1e-12)

    def test_example_value(self):
        # t/r = 4, kappa = 10/3, beta = L*alpha = 0.02
        dp = dp_from_ratios(alpha=0.01, kappa=10 / 3, r=2.5e-5, t=1e-4, L=2)
        rep = appendixB_scale_verification(dp, 2)
        expected = (1 + (0.02 / (10 / 3)) / 3) * (1 + 0.02 / 3)
        assert np.isclose(rep["scale_ratio"], expected, rtol=1e-10)
        assert np.isclose(rep["closed_form_ratio"], expected, rtol=1e-12)
        assert rep["max_rel_diff"] < 1e-9

    def test_matches_interference_scale_factor(self):
        dp = fig2_dp()
        rep = appendixB_scale_verification(dp, 2)
        assert np.isclose(rep["scale_ratio"], rep["i_P"], rtol=1e-9)

    def test_noise_limit_recovers_noise_factor(self):
        # t, beta -> infinity with zeta = beta/t fixed: (1 + r zeta)(1 + r zeta/kappa)
        kappa, r = 10 / 3, 2.5e-5
        zeta_ratio = 3000.0
        t = 1e8
        beta = zeta_ratio * t
        G4 = r * kappa * (t - r) / (kappa * (r - t) - beta * r)
        ratio = s0_explicit(G4, beta, kappa, t) * r
        expected = (1 + r * zeta_ratio) * (1 + r * zeta_ratio / kappa)
        assert np.isclose(ratio, expected, rtol=1e-4)


class TestSupportEstimateInvariants:
    def test_separable_implies_disjoint(self):
        # two modulo-profile systems whose first-order estimate once said
        # separable over an interference interval inside the signal interval
        overlapping = [SystemParams.from_profile(R, T, C, L, P, W, InterferenceProfile(
                           kind="modulo", delta=delta)) for R, T, C, L, P, W, delta in (
            (39, 7, 1549, 5, 699.117796285926, 285.5822847984247, 7.4678898169279675),
            (11, 2, 1089, 6, 0.12010287000437314, 8.400192604384777, 7.42761458562769))]
        for est in (unilateral_supports(fig2_dp(W=1.0)),
                    s1_supports(fig2_dp()),
                    bilateral_supports_highsnr(fig2_dp()),
                    bilateral_supports_general(fig2_dp(W=1.0)),
                    *(e for sys in overlapping for e in support_estimates(sys))):
            if est.separable:
                assert est.interference.upper < est.signal.lower

    def test_fields_are_what_no_interval_derives(self):
        # `separable` is read from the intervals, not stored beside them
        assert [f.name for f in dataclasses.fields(SupportEstimate)] == [
            "signal", "interference", "method", "flags"]

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^interval endpoints out of order: \[2.0, 1.0\]$"):
            BulkInterval(2.0, 1.0)

    def test_to_dict_roundtrip_fields(self):
        d = bilateral_supports_highsnr(fig2_dp()).to_dict()
        assert set(d) == {"method", "signal", "interference", "separable", "flags"}


class TestRootFinders:
    def test_polynomial_trims_leading_zeros(self):
        # 1 + 2x with zero x^2 and x^3 coefficients: one root, not three
        assert np.array_equal(poly_roots((1.0, 2.0, 0.0, 0.0)), [-0.5])
        with pytest.raises(ValueError):
            poly_roots((3.0, 0.0))

    def test_poly_roots_quadratic(self):
        roots = np.sort_complex(poly_roots((-1.0, 0.0, 1.0)))  # x^2 - 1
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_poly_roots_quartic_integers(self):
        # (x-1)(x-2)(x-3)(x-4) = x^4 - 10x^3 + 35x^2 - 50x + 24
        roots = np.sort(poly_roots((24.0, -50.0, 35.0, -10.0, 1.0)).real)
        assert np.allclose(roots, [1, 2, 3, 4], atol=1e-9)

    def test_poly_roots_residuals_bounded(self):
        coeffs = (24.0, -50.0, 35.0, -10.0, 1.0)
        roots = poly_roots(coeffs)
        norm = np.linalg.norm(coeffs)
        assert np.all(np.abs(np.polynomial.polynomial.polyval(roots, coeffs)) <= 1e-8 * norm)

    def test_poly_roots_mild_multiple_root(self):
        # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2; double root recovered within 1e-4
        roots = np.sort(poly_roots((-2.0, 5.0, -4.0, 1.0)).real)
        assert abs(roots[0] - 1.0) < 1e-4 and abs(roots[1] - 1.0) < 1e-4
        assert abs(roots[2] - 2.0) < 1e-9

    def test_poly_roots_scale_invariance(self):
        coeffs = np.array([24.0, -50.0, 35.0, -10.0, 1.0])
        r1 = np.sort(poly_roots(coeffs).real)
        r2 = np.sort(poly_roots(1e6 * coeffs).real)
        assert np.allclose(r1, r2, atol=1e-8)

    def test_poly_roots_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots((3.0,))

    def test_bisect_simple(self):
        assert abs(bisect(lambda x: x - 0.5, 0.0, 1.0) - 0.5) < 1e-10

    def test_bisect_sqrt2(self):
        assert abs(bisect(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-10) - np.sqrt(2)) < 1e-5

    def test_bisect_requires_sign_change(self):
        with pytest.raises(ValueError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("root", [1.0, 2.0])
    def test_bisect_root_at_an_endpoint(self, root):
        assert bisect(lambda x: x - root, 1.0, 2.0) == root

    def test_bisect_stops_after_200_halvings(self):
        # tol 0 on a step: the bracket reaches two adjacent floats, where no
        # midpoint is a root and no width is <= 0, so the budget ends the search
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x < 0.3 else 1.0

        root = bisect(step, 0.0, 1.0, tol=0.0)
        assert len(calls) == 2 + 200
        assert np.nextafter(0.3, 0.0) <= root <= 0.3


def package_imports(module):
    """The svdmimo modules that `module`'s source imports from."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("svdmimo")):
            base = (node.module or "").removeprefix("svdmimo").lstrip(".")
            names |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("svdmimo.") for alias in node.names
                      if alias.name.startswith("svdmimo.")}
    return names


@pytest.mark.parametrize("module", [bulk_support, rmt_spectrum], ids=lambda m: m.__name__)
def test_asymptotic_side_reads_only_system_model(module):
    # the random-matrix analysis predicts the sample side but reads none of it
    assert package_imports(module) == {"system_model"}
