import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdmimo.bulk_support import (RegimeError, _gamma_I, _gamma_P, bilateral_supports_general,
                                  bilateral_supports_highsnr, interference_scale_factors,
                                  noise_scale_factors, quartic_extremes, s1_inverse, s1_supports,
                                  separability_boundary, separability_boundary_ratio,
                                  support_estimates, unilateral_intervals,
                                  unilateral_separable, unilateral_supports)
from svdmimo.rmt_spectrum import empirical_spectrum
from svdmimo.system_model import (DerivedParams, InterferenceProfile, PilotConfig, SystemParams,
                                  assemble_received, derive_params, sample_realization)

from highsnr_oracle import (appendixB_scale_verification, bilateral_validity, highsnr_supports,
                            rho0_zero_supports, s0_explicit)


def fig2_system(W=0.0, I_over_P=0.25):
    return SystemParams.from_profile(R=300, T=3, C=1000, L=2, P=0.1, W=W,
                                     profile=InterferenceProfile(kind="flat", I=I_over_P * 0.1))


def fig2_dp(W=0.0, I_over_P=0.25):
    return derive_params(fig2_system(W=W, I_over_P=I_over_P))


def dp_from_ratios(alpha, kappa, r, t, L, zeta=0.0, R=300, P=None, W=None):
    """DerivedParams built from the ratios; P and W default to the source
    values that r = 1/(P R C) and zeta = W C imply."""
    C = int(round(kappa * R))
    return DerivedParams(kappa=kappa, alpha=alpha, r=r, t=t, zeta=zeta,
                         beta_ratio=r / t, R=R, T=max(int(round(alpha * R)), 1), C=C,
                         L=L, P=1.0 / (r * R * C) if P is None else P,
                         W=zeta / C if W is None else W)


def flat_dp(R, T, C, L, I_over_P):
    return derive_params(SystemParams.from_profile(
        R, T, C, L, 0.1, 1.0, InterferenceProfile(kind="flat", I=I_over_P * 0.1)))


SMALL_LOAD = "unilateral approximation assumes small load (alpha={:.3f} > 0.1)"
CLAMPED = "unilateral interval lower endpoint clamped at 0"
CLOSE_POWERS = "interference scale factors are only accurate for P >> I (P/I < 2)"


class TestUnilateralIntervals:
    def test_center_and_halfwidth(self):
        sys = SystemParams.from_profile(300, 10, 100, 2, 0.1, 1.0,
                                        InterferenceProfile(kind="flat", I=0.025))
        dp = derive_params(sys)
        p_int, _ = unilateral_intervals(dp)
        center = 0.5 * (p_int.lower + p_int.upper)
        halfwidth = 0.5 * (p_int.upper - p_int.lower)
        assert np.isclose(center, 1.0, rtol=1e-12)
        assert np.isclose(halfwidth, 2 * 0.1 * np.sqrt(((1 / 3) ** 2 + 1 / 3) * 30), rtol=1e-12)
        assert np.isclose(halfwidth, 0.730, atol=5e-4)

    def test_relative_width_vanishes_at_small_load(self):
        dp_small = dp_from_ratios(alpha=1e-6, kappa=2.0, r=1e-5, t=4e-5, L=2, R=10 ** 6, P=0.1)
        p_int, _ = unilateral_intervals(dp_small)
        center = 0.5 * (p_int.lower + p_int.upper)
        assert (p_int.upper - p_int.lower) / center < 0.02

    def test_symmetry_when_equal_powers_single_cell(self):
        dp = flat_dp(300, 3, 1000, 1, 1.0)
        p_int, i_int = unilateral_intervals(dp)
        assert np.isclose(p_int.lower, i_int.lower) and np.isclose(p_int.upper, i_int.upper)

    def test_negative_lower_clamped_flagged(self):
        sys = SystemParams.from_profile(300, 30, 100, 2, 0.1, 1.0,
                                        InterferenceProfile(kind="flat", I=0.025))
        dp = derive_params(sys)
        p_int, i_int = unilateral_intervals(dp)
        assert p_int.lower == 0 and i_int.lower == 0
        assert CLAMPED in unilateral_supports(dp).flags


class TestScaleFactors:
    def test_noise_factors_zero_noise(self):
        assert noise_scale_factors(0.1, 0.025, 0.0, 300, 1000) == (1.0, 1.0)

    def test_noise_factor_example(self):
        n_P, _ = noise_scale_factors(0.1, 0.025, 1.0, 300, 1000)
        assert np.isclose(n_P, (1 + 10 / 300) * (1 + 10 / 1000), rtol=1e-12)
        assert np.isclose(n_P, 1.0437, atol=1e-4)

    def test_noise_factors_large_system_limit(self):
        n_P, n_I = noise_scale_factors(0.1, 0.025, 1.0, 3e8, 1e9)
        assert abs(n_P - 1) < 1e-6 and abs(n_I - 1) < 1e-5

    def test_interference_factors_zero_load(self):
        i_P, i_I = interference_scale_factors(0.1, 0.025, 0.0, 10 / 3, 2)
        assert i_P == 1.0 and i_I == 1.0

    def test_interference_factor_example(self):
        i_P, _ = interference_scale_factors(0.4, 0.1, 0.01, 10 / 3, 2)
        assert np.isclose(i_P, (1 + 0.006 / 3) * (1 + 0.02 / 3), rtol=1e-12)
        assert np.isclose(i_P, 1.00868, atol=1e-5)

    def test_iP_grows_as_powers_approach(self):
        vals = [interference_scale_factors(1.0, x, 0.01, 10 / 3, 2)[0]
                for x in (0.1, 0.25, 0.4)]
        assert vals[0] < vals[1] < vals[2]

    def test_equal_powers_singular(self):
        with pytest.raises(ValueError):
            interference_scale_factors(0.1, 0.1, 0.01, 1.0, 2)

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
        dps.append(derive_params(sys))
        t1 = unilateral_separable(dps[0])[1]
        t2 = unilateral_separable(dps[1])[1]
        assert t2 < t1

    def test_regime_error_when_load_too_large(self):
        dp = dp_from_ratios(alpha=0.4, kappa=1.0, r=1e-5, t=4e-5, L=2, P=0.1, W=1.0)
        with pytest.raises(RegimeError):
            unilateral_separable(dp)

    def test_scaled_intervals_disjointness_matches_threshold(self):
        # disjointness of the n*i scaled intervals is exactly the inequality
        for ip, expect in ((0.3, True), (0.8, False)):
            est = unilateral_supports(fig2_dp(W=1.0, I_over_P=ip))
            assert est.separable is expect


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
        unilateral_intervals(flat_dp(100, 30, 100, 2, 0.6))
        interference_scale_factors(0.1, 0.06, 0.01, 1.0, 2)
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

    def test_needs_interference_power(self):
        with pytest.raises(ValueError, match="interference power > 0"):
            support_estimates(fig2_dp(W=1.0, I_over_P=0.0))


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
        est = bilateral_supports_highsnr(derive_params(sys))
        scale = sys.T * sys.R
        sig, intf = [], []
        for i in range(10):
            rz = sample_realization(sys, PilotConfig(tau_blocks=0), seed=[77, i])
            ev = empirical_spectrum(assemble_received(rz)) * sys.R / scale
            sig.extend(ev[:3])
            intf.extend(ev[3:9])
        assert np.mean(est.signal.contains(np.array(sig))) == 1.0
        assert np.mean(est.interference.contains(np.array(intf))) == 1.0


class TestSeparabilityBoundary:
    def test_beta_zero_gives_one(self):
        assert separability_boundary(0.0, 2) == 1.0

    def test_beta_one_gives_zero(self):
        assert separability_boundary(1.0, 2) == 0.0

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
        # the library reports the condition as data: on the systems that
        # derive_params gives (L >= 1, 0 < r <= t) it holds exactly when the
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
        est = bilateral_supports_general(derive_params(sys))
        scale = sys.T * sys.R
        sig, intf = [], []
        for i in range(10):
            rz = sample_realization(sys, PilotConfig(tau_blocks=0), seed=[78, i])
            ev = empirical_spectrum(assemble_received(rz)) * sys.R / scale
            sig.extend(ev[:3])
            intf.extend(ev[3:9])
        assert np.mean(est.signal.contains(np.array(sig))) == 1.0
        assert np.mean(est.interference.contains(np.array(intf))) == 1.0

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
        for est in (unilateral_supports(fig2_dp(W=1.0)),
                    s1_supports(fig2_dp()),
                    bilateral_supports_highsnr(fig2_dp()),
                    bilateral_supports_general(fig2_dp(W=1.0))):
            if est.separable:
                assert est.interference.upper < est.signal.lower

    def test_to_dict_roundtrip_fields(self):
        d = bilateral_supports_highsnr(fig2_dp()).to_dict()
        assert set(d) == {"method", "signal", "interference", "separable", "flags"}
