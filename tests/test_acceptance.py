"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The BER criteria use at
least 1e5 data symbols per point; figure-derived BER magnitudes are checked
ordinally (who beats whom, monotone trends), not as point values.
"""

import contextlib

import numpy as np
import pytest

import svdmimo as sm

from highsnr_oracle import bilateral_validity, highsnr_supports
from ratio_params import RatioParams
from spectrum_oracle import gap_mass, kolmogorov_distance, mp_density


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def fig1_system():
    return sm.SystemParams.from_profile(
        R=300, T=10, C=100, L=2, P=0.1, W=1.0,
        profile=sm.InterferenceProfile(kind="modulo", delta=4))


def fig2_system(W=0.0):
    return sm.SystemParams.from_profile(
        R=300, T=3, C=1000, L=2, P=0.1, W=W,
        profile=sm.InterferenceProfile(kind="flat", I=0.025))


def test_criterion_1_coherence_formula():
    with criterion("criterion 1: coherence formula (2.6 GHz, 5 us, 350 km/h) in [97, 101]"):
        radio = sm.RadioParams(carrier_frequency=2.6e9, delay_spread=5e-6,
                               mobile_speed=350 / 3.6)
        symbols = sm.coherence_symbols(radio)
        assert 97 <= symbols <= 101, symbols


def test_criterion_2_threshold_reproduction():
    with criterion("criterion 2: thresholds I/P = 0.61 +- 0.02 and 0.78 +- 0.01"):
        dp = fig2_system(W=1.0)
        _, unilateral = sm.unilateral_separable(dp)
        assert abs(unilateral - 0.61) <= 0.02, unilateral
        bilateral = sm.separability_boundary_ratio(dp.alpha / dp.kappa, 2)
        assert abs(bilateral - 0.78) <= 0.01, bilateral


def test_criterion_3_spectrum_oracle_equivalence():
    with criterion("criterion 3: Fig.-1 spectrum KS <= 0.05 and gap mass <= 1%"):
        result = sm.spectrum_experiment(fig1_system(), n_seeds=20, grid_points=500, seed=1234)
        ks = kolmogorov_distance(result)
        assert ks <= 0.05, ks
        gap = gap_mass(result)
        assert gap is not None, "asymptotic density does not show two bulks"
        assert gap <= 0.01, gap


@pytest.mark.parametrize("kappa", [1 / 3, 1.0, 10 / 3], ids=["1/3", "1", "10/3"])
def test_criterion_4_mp_reduction(kappa):
    with criterion(f"criterion 4: MP reduction pointwise <= 1e-3 (kappa = {kappa:.4g})"):
        C, W = 900, 1.0
        sys = sm.SystemParams(R=int(round(C / kappa)), T=1, C=C, L=0, P=0.0, W=W)
        fp = sm.FixedPointParams.from_system(sys, scale=C * W)
        pdf, (lo, hi) = mp_density(kappa)
        grid = np.linspace(lo + 0.05, hi - 0.05, 200)
        density = sm.density_from_stieltjes(grid, fp, y_offset=1e-6)
        err = np.max(np.abs(density.values - pdf(grid)))
        assert err <= 1e-3, err


def _pooled_bulk_eigenvalues(sys, n_seeds, seed):
    sig, intf = [], []
    for i in range(n_seeds):
        rz = sm.sample_realization(sys, sm.PilotConfig(tau_blocks=0), seed=[seed, i])
        ev = sm.empirical_spectrum(sm.assemble_received(rz), sys.T)
        sig.extend(ev[:sys.T])
        intf.extend(ev[sys.T:(sys.L + 1) * sys.T])
    return np.asarray(sig), np.asarray(intf)


def test_criterion_5_support_containment():
    with criterion("criterion 5: Fig.-2 bilateral intervals contain >= 99% of the bulks"):
        dp0 = fig2_system(W=0.0)
        high = sm.bilateral_supports_highsnr(dp0)
        general0 = sm.bilateral_supports_general(dp0)
        # zeta = 0 general formulas equal the printed high-SNR formulas to 1e-10
        printed = highsnr_supports(dp0, 2)
        for est in (high, general0):
            for a, b in ((est.signal, printed.signal), (est.interference, printed.interference)):
                assert abs(a.lower - b.lower) <= 1e-10 * abs(b.lower)
                assert abs(a.upper - b.upper) <= 1e-10 * abs(b.upper)

        sig0, intf0 = _pooled_bulk_eigenvalues(fig2_system(W=0.0), n_seeds=20, seed=77)
        for est in (high, general0):
            assert np.mean(est.signal.contains(sig0)) >= 0.99
            assert np.mean(est.interference.contains(intf0)) >= 0.99

        noisy = fig2_system(W=1.0)
        dpW = noisy
        generalW = sm.bilateral_supports_general(dpW)
        sigW, intfW = _pooled_bulk_eigenvalues(noisy, n_seeds=20, seed=78)
        assert np.mean(generalW.signal.contains(sigW)) >= 0.99
        assert np.mean(generalW.interference.contains(intfW)) >= 0.99


def test_criterion_6_ber_structure_vs_R():
    label = ("criterion 6: Fig.-4 BER, SVD below conventional with disjoint CIs "
             "for R >= 100, SVD median non-increasing in R")
    with criterion(label):
        base = sm.SystemParams.from_profile(
            R=100, T=5, C=100, L=6, P=0.1, W=1.0,
            profile=sm.InterferenceProfile(kind="modulo", delta=2))
        cfg = sm.ExperimentConfig(system=base, sweep="R", values=(50, 100, 200, 400),
                                  deltas=(2, 3, 4, 5, 6), min_symbols=100_000, seed=60)
        points, per_seed = sm.ber_vs_R(cfg)
        by_key = {(int(p.sweep_value), p.delta, p.receiver): p for p in points}
        for delta in cfg.deltas:
            for R in (100, 200, 400):
                svd = by_key[(R, delta, "svd")]
                conv = by_key[(R, delta, "conventional")]
                assert svd.beats(conv), (R, delta, svd.ber, conv.ber)
            medians = [np.median(per_seed[(R, delta, "svd")])
                       for R in (50, 100, 200, 400)]
            assert all(m1 >= m2 - 1e-12 for m1, m2 in zip(medians, medians[1:])), \
                (delta, medians)


def test_criterion_7_ber_crossover_vs_IP():
    label = ("criterion 7: Fig.-5 BER, SVD wins at I/P in {0.1, 0.3, 0.5}, "
             "conventional wins or ties at 0.95")
    with criterion(label):
        base = fig2_system(W=1.0)
        cfg = sm.ExperimentConfig(system=base, sweep="I_over_P",
                                  values=(0.1, 0.3, 0.5, 0.95), taus=(1,),
                                  min_symbols=100_000, seed=61)
        points, _ = sm.ber_vs_IP(cfg)
        by_key = {(p.sweep_value, p.receiver): p for p in points}
        for ip in (0.1, 0.3, 0.5):
            svd, conv = by_key[(ip, "svd")], by_key[(ip, "conventional")]
            assert svd.beats(conv), (ip, svd.ber, conv.ber)
        svd, conv = by_key[(0.95, "svd")], by_key[(0.95, "conventional")]
        assert not svd.beats(conv), (svd.ber, conv.ber)  # conventional wins or ties


def test_criterion_8_invariant_suites():
    with criterion("criterion 8: invariant suites (Herglotz, orthonormality, "
                   "alpha=0 collapse, boundary implications, Fig.-3 shape)"):
        rng = np.random.default_rng(2024)

        # Herglotz property on 1e3 random (s, params) draws
        for _ in range(1000):
            kappa = 10 ** rng.uniform(-0.7, 0.7)
            C = int(rng.integers(50, 400))
            R = max(int(round(C / kappa)), 2)
            T = int(rng.integers(1, 6))
            L = int(rng.integers(0, 4))
            P = 10 ** rng.uniform(-2, 0)
            W = 10 ** rng.uniform(-2, 1)
            I = P * rng.uniform(0.0, 1.0)
            sys = sm.SystemParams.from_profile(
                R, T, C, L, P, W, sm.InterferenceProfile(kind="flat", I=I))
            fp = sm.FixedPointParams.from_system(sys, scale=T * R)
            s = rng.uniform(0.01, 5.0) * fp.mean_eigenvalue() + 1j * 10 ** rng.uniform(-4, 1)
            val = sm.stieltjes_solve(s, fp)
            assert val.G.imag > 0, (s, val.G)
            assert abs(val.G) <= 1.0 / s.imag * (1 + 1e-9)

        # S^H S orthonormality on 1e3 random matrices, tolerance 1e-10
        for _ in range(1000):
            R = int(rng.integers(8, 60))
            C = int(rng.integers(8, 60))
            k = int(rng.integers(1, min(R, C) + 1))
            Y = rng.standard_normal((R, C)) + 1j * rng.standard_normal((R, C))
            S = sm.signal_subspace(Y, k)
            gram = S.conj().T @ S
            assert np.max(np.abs(gram - np.eye(k))) <= 1e-10

        # alpha = 0 collapse: s1(G) = -1/G to 1e-12 (relative), on a grid
        dp0 = RatioParams(kappa=10 / 3, alpha=0.0, r=3.3333e-5, t=1.3333e-4,
                          zeta=0.0, beta_ratio=0.25, R=300, T=1, C=1000, L=2, P=0.1,
                          W=0.0)
        for G in np.linspace(-3e-4, -1e-5, 200):
            assert abs(sm.s1_inverse(G, dp0) * G + 1.0) <= 1e-12

        # separability condition implies the validity condition, 1e3 draws
        count = 0
        while count < 1000:
            L = int(rng.integers(1, 8))
            beta = rng.uniform(0.01, 0.99)
            limit = sm.separability_boundary(beta, L)
            if limit <= 0:
                continue
            kappa = 10 ** rng.uniform(-0.5, 0.7)
            alpha = rng.uniform(0.0, limit) * kappa
            t = 10 ** rng.uniform(-5, -3)
            dp = RatioParams(kappa=kappa, alpha=alpha, r=beta * t, t=t, zeta=0.0,
                             beta_ratio=beta, R=300, T=3, C=int(round(300 * kappa)),
                             L=L, P=0.1, W=0.0)
            assert bilateral_validity(dp), (beta, alpha / kappa, L)
            count += 1

        # separability boundary monotone decreasing in beta for L in {2, 4, 7}
        betas = np.linspace(1e-4, 0.999, 400)
        for L in (2, 4, 7):
            vals = [sm.separability_boundary(float(b), L) for b in betas]
            assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
