import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh

import svdmimo
from svdmimo import subspace_receiver
from svdmimo.rmt_spectrum import FixedPointParams, density_from_stieltjes
from svdmimo.subspace_receiver import (conventional_receiver, count_bit_errors, detect_subspace,
                                       empirical_spectrum, estimate_projected_channel, project,
                                       signal_subspace)
from svdmimo.system_model import (InterferenceProfile, PilotConfig, SystemParams, _qpsk,
                                  assemble_received, make_pilots, sample_realization)

from spectrum_oracle import cdf


def cgauss(rng, shape, var=1.0):
    return np.sqrt(var / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def captured(S, Y):
    # singular values of Y along the columns of S: the row norms of S^H Y
    return np.linalg.norm(project(S, Y), axis=1)


class TestSignalSubspace:
    def test_rank_one(self):
        rng = np.random.default_rng(0)
        u, v = cgauss(rng, (40, 1)), cgauss(rng, (25, 1))
        S = signal_subspace(u @ v.conj().T, 1)
        assert abs(np.vdot(S[:, 0], u[:, 0])) / np.linalg.norm(u) > 1 - 1e-10

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        S = signal_subspace(cgauss(rng, (60, 40)), 5)
        assert np.allclose(S.conj().T @ S, np.eye(5), atol=1e-10)

    def test_matches_span_of_H_noise_free(self):
        # independent oracle: projector from a QR factorization of H itself
        rng = np.random.default_rng(2)
        H, X = cgauss(rng, (80, 4)), cgauss(rng, (4, 50), 0.1)
        S = signal_subspace(H @ X, 4)
        Q, _ = np.linalg.qr(H)
        P_S = S @ S.conj().T
        P_H = Q @ Q.conj().T
        assert np.linalg.norm(P_S - P_H, 2) < 1e-8

    def test_zero_columns_leave_basis_unchanged(self):
        rng = np.random.default_rng(3)
        Y = cgauss(rng, (30, 20))
        S1 = signal_subspace(Y, 3)
        S2 = signal_subspace(np.concatenate([Y, np.zeros((30, 10))], axis=1), 3)
        # compare projectors (phase-free)
        assert np.linalg.norm(S1 @ S1.conj().T - S2 @ S2.conj().T, 2) < 1e-8

    def test_singular_values_sorted(self):
        rng = np.random.default_rng(4)
        Y = cgauss(rng, (50, 200))
        assert np.all(np.diff(captured(signal_subspace(Y, 6), Y)) <= 0)

    def test_partial_matches_full(self):
        rng = np.random.default_rng(5)
        Y = cgauss(rng, (300, 100))
        sv_full = np.linalg.svd(Y, compute_uv=False)[:3]
        assert np.allclose(captured(signal_subspace(Y, 3), Y), sv_full, rtol=1e-10)

    def test_arpack_partial_matches_full(self):
        # Fig.-5-sized block, above the Gram-side crossover
        rng = np.random.default_rng(19)
        Y = cgauss(rng, (300, 1000))
        sv_full = np.linalg.svd(Y, compute_uv=False)[:3]
        S = signal_subspace(Y, 3)
        assert np.allclose(captured(S, Y), sv_full, rtol=1e-10)
        assert np.allclose(S.conj().T @ S, np.eye(3), atol=1e-10)

    def test_paths_agree_at_crossover(self, monkeypatch):
        n = subspace_receiver._GRAM_MAX_DIM
        rng = np.random.default_rng(20)
        Y = cgauss(rng, (n + 1, 3)) @ cgauss(rng, (3, 2 * n)) + 0.1 * cgauss(rng, (n + 1, 2 * n))
        calls = []

        lanczos = subspace_receiver._lanczos

        def counting_lanczos(gram, n, k):
            calls.append((n, n))
            return lanczos(gram, n, k)

        monkeypatch.setattr(subspace_receiver, "_lanczos", counting_lanczos)
        gram = signal_subspace(Y[:n], 3)
        signal_subspace(Y, 3)
        assert calls == [(n + 1, n + 1)]          # one row more crosses over to Lanczos
        monkeypatch.setattr(subspace_receiver, "_GRAM_MAX_DIM", n - 1)
        krylov = signal_subspace(Y[:n], 3)
        assert calls[1:] == [(n, n)]
        assert np.allclose(captured(krylov, Y[:n]), captured(gram, Y[:n]), rtol=1e-10)
        assert np.linalg.norm(krylov @ krylov.conj().T - gram @ gram.conj().T, 2) < 1e-10

    @pytest.mark.parametrize("shape", [(40, 60), (60, 40), (300, 500), (500, 300)],
                             ids=["gram_wide", "gram_tall", "arpack_wide", "arpack_tall"])
    @pytest.mark.parametrize("layout", ["strided", "fortran", "real"])
    def test_any_memory_layout(self, shape, layout):
        # blocks that are not C-ordered complex arrays: a column-strided view,
        # a Fortran-ordered copy and a real array, on both Gram sides and both
        # sides of the crossover
        rng = np.random.default_rng(23)
        R, C = shape
        T_sel = 3
        if layout == "strided":
            Y = (cgauss(rng, (R, 3)) @ cgauss(rng, (3, 2 * C))
                 + 0.1 * cgauss(rng, (R, 2 * C)))[:, ::2]
        else:
            Y = cgauss(rng, (R, 3)) @ cgauss(rng, (3, C)) + 0.1 * cgauss(rng, (R, C))
            Y = np.asfortranarray(Y) if layout == "fortran" else Y.real.copy()
        assert Y.shape == shape
        S = signal_subspace(Y, T_sel)
        U, s, _ = np.linalg.svd(Y, full_matrices=False)
        P_full = U[:, :T_sel] @ U[:, :T_sel].conj().T
        assert np.abs(S @ S.conj().T - P_full).max() <= 1e-10
        assert np.abs(captured(S, Y) - s[:T_sel]).max() <= 1e-10 * s[0]

    @pytest.mark.parametrize("shape", [(40, 60), (60, 40), (300, 500), (500, 300)],
                             ids=["gram_wide", "gram_tall", "arpack_wide", "arpack_tall"])
    def test_basis_matches_svd_entrywise(self, shape):
        # S itself, phases included, wherever the singular values are
        # separated: the same normalisation applied to np.linalg.svd's U
        rng = np.random.default_rng(29)
        R, C = shape
        T_sel = 4
        Y = cgauss(rng, (R, 3)) @ cgauss(rng, (3, C)) + 0.1 * cgauss(rng, (R, C))
        S = signal_subspace(Y, T_sel)
        U, s, _ = np.linalg.svd(Y, full_matrices=False)
        U = U[:, :T_sel]
        peak = U[np.argmax(np.abs(U), axis=0), np.arange(T_sel)]
        U = U * (peak.conj() / np.abs(peak))
        gaps = np.minimum(-np.diff(s[:T_sel + 1]), np.r_[np.inf, -np.diff(s[:T_sel])])
        separated = gaps > 1e-6 * s[0]
        assert separated.all()
        assert np.abs(S - U)[:, separated].max() <= 1e-10
        assert np.all(S[np.argmax(np.abs(S), axis=0), np.arange(T_sel)].real > 0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(R=st.integers(2, 260), C=st.integers(2, 260), data=st.data())
    def test_matches_full_svd(self, R, C, data):
        # both Gram sides (R <= C and R > C) and both sides of the crossover,
        # full-rank blocks and products A B of inner rank below T_sel
        mn = min(R, C)
        T_sel = data.draw(st.integers(1, mn), label="T_sel")
        rank = data.draw(st.integers(0, T_sel - 1), label="rank (0: full)")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        Y = cgauss(rng, (R, rank)) @ cgauss(rng, (rank, C)) if rank else cgauss(rng, (R, C))
        S = signal_subspace(Y, T_sel)
        U, s, _ = np.linalg.svd(Y, full_matrices=False)
        assert np.abs(S.conj().T @ S - np.eye(T_sel)).max() <= 1e-10
        assert np.abs(captured(S, Y) - s[:T_sel]).max() <= 1e-10 * s[0]
        if s[T_sel - 1] - (s[T_sel] if T_sel < mn else 0.0) > 1e-6 * s[0]:
            P_full = U[:, :T_sel] @ U[:, :T_sel].conj().T
            assert np.linalg.norm(S @ S.conj().T - P_full, 2) <= 1e-8

    def test_range_check(self):
        with pytest.raises(ValueError):
            signal_subspace(np.ones((4, 6)), 5)

    # 2.5 once failed inside numpy (Gram side) or scipy (Lanczos), and True,
    # an int subclass but no count, ran as T_sel = 1
    @pytest.mark.parametrize("shape, T_sel", [((4, 6), 2.5), ((300, 1000), 2.5), ((4, 6), True)],
                             ids=["gram-2.5", "lanczos-2.5", "gram-True"])
    def test_non_integer_T_sel_rejected(self, shape, T_sel):
        with pytest.raises(ValueError, match=f"^T_sel must be an integer: {T_sel}$"):
            signal_subspace(np.ones(shape), T_sel)


def fig5_block(I_over_P, rep):
    # one received block of the Fig.-5 sweep: 300 x 1000, T = 3, L = 2, P/W = -10 dB
    sys = SystemParams(R=300, T=3, C=1000, L=2, P=0.1, W=1.0,
                       interference_powers=(I_over_P * 0.1,) * 6)
    rz = sample_realization(sys, make_pilots(3, 0.1, 1), [3, 0, rep], data_law="qpsk")
    return assemble_received(rz)


class TestLanczos:
    """The Krylov path of signal_subspace, above the Gram-side crossover."""

    @pytest.mark.parametrize("I_over_P", [0.1, 0.95])
    def test_matches_arpack_on_fig5_blocks(self, I_over_P):
        # ARPACK (scipy's eigsh) as an oracle, from the same start vector: the
        # same eigenvectors of Y Y^H, from no more Gram applications
        for rep in range(2):
            Y = fig5_block(I_over_P, rep)
            applied = {"lanczos": 0, "arpack": 0}

            def counting(name):
                def gram(v):
                    applied[name] += 1
                    return Y @ (Y.T @ v.conj()).conj()
                return gram

            rng = np.random.default_rng(0)
            v0 = rng.standard_normal(300) + 1j * rng.standard_normal(300)
            op = LinearOperator((300, 300), matvec=counting("arpack"), dtype=complex)
            w, U = eigsh(op, k=3, v0=v0, tol=0)
            V = subspace_receiver._lanczos(counting("lanczos"), 300, 3)
            assert 0 < applied["lanczos"] <= applied["arpack"]
            assert np.abs(V.conj().T @ V - np.eye(3)).max() <= 1e-13
            assert np.abs(V @ V.conj().T - U @ U.conj().T).max() <= 1e-12
            # S itself: the eigenvectors, strongest first, under the phase rule
            U = U[:, np.argsort(w)[::-1]]
            peak = U[np.argmax(np.abs(U), axis=0), np.arange(3)]
            U *= peak.conj() / np.abs(peak)
            S = signal_subspace(Y, 3)
            assert np.abs(S - U).max() <= 1e-12
            assert np.allclose(captured(S, Y) ** 2, np.sort(w)[::-1], rtol=1e-13)

    @pytest.mark.parametrize("T_sel", [1, 2, 3, 5, 40])
    def test_rank_one_block(self, T_sel):
        # 203 x 203 of rank 1: the Krylov space is invariant after two steps,
        # and a residual of pure rounding must neither be kept nor break the
        # orthogonality of S; plain two-pass Gram-Schmidt left it at 2.4e-7
        rng = np.random.default_rng(31)
        Y = cgauss(rng, (203, 1)) @ cgauss(rng, (1, 203))
        S = signal_subspace(Y, T_sel)
        s = np.linalg.svd(Y, compute_uv=False)
        assert np.abs(S.conj().T @ S - np.eye(T_sel)).max() <= 1e-10
        assert np.abs(captured(S, Y) - s[:T_sel]).max() <= 1e-10 * s[0]
        # two steps span the invariant space, then one per fresh vector
        applied = []

        def gram(v):
            applied.append(v)
            return Y @ (Y.T @ v.conj()).conj()

        subspace_receiver._lanczos(gram, 203, T_sel)
        assert len(applied) == max(T_sel, 2)

    def test_zero_block(self):
        # every Krylov space is invariant: fresh vectors until T_sel of them
        S = signal_subspace(np.zeros((300, 1000)), 3)
        assert np.abs(S.conj().T @ S - np.eye(3)).max() <= 1e-14

    def test_cli_import_loads_no_scipy_sparse(self):
        # the receiver needs only scipy.linalg; scipy.sparse costs every
        # process about 3.5 MB and 35 ms of imports
        src = str(Path(svdmimo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = ("import sys, svdmimo.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestEmpiricalSpectrum:
    @pytest.mark.parametrize("R, C", [(30, 50), (40, 40), (50, 20)])
    def test_axis_matches_full_gram(self, R, C):
        # eig(Y Y^H)/(T*R) from the full R x R Gram matrix, whatever side the
        # library forms; R > C leaves R - C exact zeros
        T = 3
        rng = np.random.default_rng(R + C)
        Y = rng.standard_normal((R, C)) + 1j * rng.standard_normal((R, C))
        ev = empirical_spectrum(Y, T)
        want = np.sort(np.linalg.eigvalsh(Y @ Y.conj().T))[::-1] / (T * R)
        assert ev.shape == (R,)
        assert np.max(np.abs(ev - want)) <= 1e-12 * want[0]
        assert np.count_nonzero(ev == 0.0) == max(R - C, 0)

    def test_rank_bound_zeros(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((50, 20)) + 1j * rng.standard_normal((50, 20))
        ev = empirical_spectrum(Y, 1)
        assert len(ev) == 50
        assert np.count_nonzero(ev == 0.0) >= 30

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((40, 60)) + 1j * rng.standard_normal((40, 60))
        ev = empirical_spectrum(Y, 1)
        assert np.isclose(np.sum(ev), np.linalg.norm(Y) ** 2 / 40, rtol=1e-8)

    def test_descending(self):
        rng = np.random.default_rng(3)
        ev = empirical_spectrum(rng.standard_normal((30, 30)), 1)
        assert np.all(np.diff(ev) <= 0)

    def test_block_length_must_be_positive(self):
        # T = 0 once divided by zero, returning inf with a RuntimeWarning
        with pytest.raises(ValueError, match="^T must be >= 1: 0$"):
            empirical_spectrum(np.ones((4, 6)), 0)

    def test_fig1_histogram_overlaps_asymptotic(self):
        # averaged empirical CDF vs asymptotic CDF, Kolmogorov distance small
        sys = SystemParams.from_profile(R=300, T=10, C=100, L=2, P=0.1, W=1.0,
                                        profile=InterferenceProfile(kind="modulo", delta=4))
        scale = sys.T * sys.R
        fp = FixedPointParams.from_system(sys, scale=scale)
        pooled = []
        for i in range(10):
            rz = sample_realization(sys, PilotConfig(), seed=[100, i])
            ev = empirical_spectrum(assemble_received(rz), sys.T)
            pooled.append(ev[ev > 1e-9])
        pooled = np.sort(np.concatenate(pooled))
        grid = np.linspace(0.25 * pooled[0], 1.1 * pooled[-1], 400)
        density = density_from_stieltjes(grid, fp, y_offset=2e-5)
        cum = cdf(density)
        F = np.interp(pooled, grid, cum / cum[-1])
        n = len(pooled)
        ks = max(np.max(np.abs(np.arange(1, n + 1) / n - F)),
                 np.max(np.abs(np.arange(0, n) / n - F)))
        assert ks <= 0.08


class TestProject:
    def test_norm_never_grows(self):
        rng = np.random.default_rng(6)
        Y = cgauss(rng, (40, 30))
        S = signal_subspace(Y, 4)
        assert np.linalg.norm(project(S, Y)) <= np.linalg.norm(Y) + 1e-12

    def test_norm_preserved_noise_free_single_cell(self):
        rng = np.random.default_rng(7)
        Y = cgauss(rng, (60, 3)) @ cgauss(rng, (3, 40), 0.1)
        S = signal_subspace(Y, 3)
        assert abs(np.linalg.norm(project(S, Y)) - np.linalg.norm(Y)) < 1e-8

    def test_projected_energy_is_top_singular_values(self):
        rng = np.random.default_rng(8)
        Y = cgauss(rng, (50, 35))
        S = signal_subspace(Y, 4)
        assert np.isclose(np.linalg.norm(project(S, Y)) ** 2,
                          np.sum(np.linalg.svd(Y, compute_uv=False)[:4] ** 2), rtol=1e-10)

    def test_reconstruction_residual_bound(self):
        rng = np.random.default_rng(9)
        Y = cgauss(rng, (30, 40))
        S = signal_subspace(Y, 5)
        assert np.linalg.norm(S @ project(S, Y) - Y) <= np.linalg.norm(Y)


class TestChannelEstimation:
    def test_exact_noise_free(self):
        rng = np.random.default_rng(10)
        T, P = 4, 0.1
        pilots = make_pilots(T, P, 1)
        sys = SystemParams(R=60, T=T, C=40, L=0, P=P, W=0.0)
        rz = sample_realization(sys, pilots, seed=0, data_law="qpsk")
        Y = assemble_received(rz)
        S = signal_subspace(Y, T)
        Ht = estimate_projected_channel(project(S, Y), pilots)
        assert np.allclose(Ht, S.conj().T @ rz.H, atol=1e-8)

    def test_no_pilot_columns_rejected(self):
        Y = cgauss(np.random.default_rng(6), (10, 20))
        with pytest.raises(ValueError, match="^pilot columns required"):
            estimate_projected_channel(Y, PilotConfig())

    def test_tau1_scaled_identity_pilots(self):
        T, P = 3, 0.25
        pilots = PilotConfig(np.sqrt(T * P) * np.eye(T))
        Yt = np.arange(9, dtype=complex).reshape(3, 3) + 1j
        Ht = estimate_projected_channel(Yt, pilots)
        assert np.allclose(Ht, Yt / np.sqrt(T * P))

    def test_doubling_pilot_power_halves_error_variance(self):
        # Monte Carlo oracle over >= 1e3 trials on the projected pilot model
        rng = np.random.default_rng(11)
        T, P, Wn = 3, 0.1, 1.0
        trials = 1500
        errs = {1.0: 0.0, 2.0: 0.0}
        for boost in errs:
            pilots = PilotConfig(np.sqrt(boost * T * P) * (np.fft.fft(np.eye(T)) / np.sqrt(T)))
            rng = np.random.default_rng(11)
            for _ in range(trials):
                H = cgauss(rng, (T, T))
                Yp = H @ pilots.pilot_matrix + cgauss(rng, (T, T), Wn)
                Ht = estimate_projected_channel(Yp, pilots)
                errs[boost] += np.linalg.norm(Ht - H) ** 2
        ratio = errs[2.0] / errs[1.0]
        assert 0.4 < ratio < 0.6

    @pytest.mark.parametrize("tau", [1, 3], ids=["tau1_dft", "tau3_haar"])
    def test_closed_form_matches_least_squares(self, tau):
        # Y_p X_p^H / (tau*T*P) against the numerical pseudo-inverse and lstsq
        T, P = 4, 0.2
        pilots = make_pilots(T, P, tau, rng=7)
        Xp = pilots.pilot_matrix
        Yt = cgauss(np.random.default_rng(3), (6, tau * T + 9))
        Ht = estimate_projected_channel(Yt, pilots)
        Yp = Yt[:, :tau * T]
        assert np.allclose(Ht, Yp @ np.linalg.pinv(Xp), rtol=0, atol=1e-12)
        ls = np.linalg.lstsq(Xp.T, Yp.T, rcond=None)[0].T
        assert np.allclose(Ht, ls, rtol=0, atol=1e-12)


class TestDetection:
    def _clean_system(self, W=0.0, I=0.0, seed=0, R=60, T=4, C=50, P=0.1, L=0):
        if L:
            sys = SystemParams.from_profile(R, T, C, L, P, W, InterferenceProfile(kind="flat", I=I))
        else:
            sys = SystemParams(R=R, T=T, C=C, L=0, P=P, W=W)
        pilots = make_pilots(T, P, 1)
        rz = sample_realization(sys, pilots, seed=seed, data_law="qpsk")
        return sys, pilots, rz, assemble_received(rz)

    def test_noise_free_zero_errors(self):
        sys, pilots, rz, Y = self._clean_system()
        Yt = project(signal_subspace(Y, sys.T), Y)
        ch = estimate_projected_channel(Yt, pilots)
        dec = detect_subspace(Yt[:, sys.T:], ch, noise_power=0.0, symbol_power=sys.P)
        assert count_bit_errors(dec, rz.data_symbols) == 0
        assert dec.shape == (sys.T, sys.C - sys.T)

    def test_identity_channel_no_noise(self):
        rng = np.random.default_rng(12)
        tx = _qpsk(rng, (4, 20), 0.1)
        dec = detect_subspace(tx, np.eye(4, dtype=complex), noise_power=0.0, symbol_power=0.1)
        assert count_bit_errors(dec, tx) == 0

    def test_returns_regularised_normal_equation_solution(self):
        # the MMSE estimates themselves, not sliced points: they minimise
        # |Ht x - y|^2 + (W/P) |x|^2, the least-squares solution of the stacked
        # system [Ht; sqrt(W/P) I] x = [y; 0]
        sys, pilots, rz, Y = self._clean_system(W=1.0, I=0.02, L=2, seed=3)
        Yt = project(signal_subspace(Y, sys.T), Y)
        Ht = estimate_projected_channel(Yt, pilots)
        est = detect_subspace(Yt[:, sys.T:], Ht, noise_power=sys.W, symbol_power=sys.P)
        stacked = np.vstack([Ht, np.sqrt(sys.W / sys.P) * np.eye(sys.T)])
        rhs = np.vstack([Yt[:, sys.T:], np.zeros((sys.T, sys.C - sys.T))])
        ref = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
        assert np.abs(est - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_singular_equalizer_falls_back_to_pseudo_inverse(self):
        # W = 0 and an all-zero channel estimate leave H^H H + (W/P) I = 0
        Yd = cgauss(np.random.default_rng(5), (4, 20))
        est = detect_subspace(Yd, np.zeros((4, 4), dtype=complex), noise_power=0.0,
                              symbol_power=0.1)
        assert est.shape == (4, 20) and not np.any(est)

    def test_snr_to_zero_gives_half_ber(self):
        errors = bits = 0
        for seed in range(10):
            sys, pilots, rz, Y = self._clean_system(W=1e6, seed=seed)
            Yt = project(signal_subspace(Y, sys.T), Y)
            ch = estimate_projected_channel(Yt, pilots)
            dec = detect_subspace(Yt[:, sys.T:], ch, noise_power=1e6, symbol_power=sys.P)
            errors += count_bit_errors(dec, rz.data_symbols)
            bits += 2 * rz.data_symbols.size
        ber = errors / bits
        assert abs(ber - 0.5) <= 3 * np.sqrt(0.25 / bits) + 0.01


class TestConventional:
    def test_noise_free_single_cell_exact(self):
        T, P = 4, 0.1
        sys = SystemParams(R=60, T=T, C=50, L=0, P=P, W=0.0)
        pilots = make_pilots(T, P, 1)
        rz = sample_realization(sys, pilots, seed=1, data_law="qpsk")
        Y = assemble_received(rz)
        Hhat = np.linalg.lstsq(pilots.pilot_matrix.conj().T, Y[:, :T].conj().T, rcond=None)[0].conj().T
        assert np.allclose(Hhat, rz.H, atol=1e-8)
        dec = conventional_receiver(Y, pilots)
        assert count_bit_errors(dec, rz.data_symbols) == 0
        assert dec.shape == (T, sys.C - T)

    def test_returns_mrc_outputs(self):
        # H_hat^H Y_d with the least-squares estimate from the pilot columns
        T, P = 4, 0.1
        sys = SystemParams.from_profile(60, T, 50, 2, P, 1.0,
                                        InterferenceProfile(kind="flat", I=0.02))
        pilots = make_pilots(T, P, 1)
        Y = assemble_received(sample_realization(sys, pilots, seed=2, data_law="qpsk"))
        Hhat = np.linalg.lstsq(pilots.pilot_matrix.conj().T, Y[:, :T].conj().T, rcond=None)[0].conj().T
        ref = Hhat.conj().T @ Y[:, T:]
        assert np.abs(conventional_receiver(Y, pilots) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_pilot_contamination_signature(self):
        # identical pilots in all cells: the LS estimate converges to
        # H + sum of scaled interferer channels, so a BER floor remains at W=0
        T, P, L = 4, 0.1, 2
        sys = SystemParams.from_profile(200, T, 120, L, P, 0.0,
                                        InterferenceProfile(kind="flat", I=0.09))
        pilots = make_pilots(T, P, 1)
        errors = bits = 0
        est_gap = []
        for seed in range(8):
            rz = sample_realization(sys, pilots, seed=seed, data_law="qpsk")
            Y = assemble_received(rz)
            Hhat = np.linalg.lstsq(pilots.pilot_matrix.conj().T, Y[:, :T].conj().T,
                                   rcond=None)[0].conj().T
            contaminated = rz.H + sum(rz.H_I[:, T * c:T * (c + 1)] for c in range(L))
            est_gap.append(np.linalg.norm(Hhat - contaminated) / np.linalg.norm(rz.H))
            dec = conventional_receiver(Y, pilots)
            errors += count_bit_errors(dec, rz.data_symbols)
            bits += 2 * rz.data_symbols.size
        assert max(est_gap) < 1e-8          # estimate equals contaminated channel exactly
        assert errors / bits > 0.01         # BER floor despite W = 0

    def test_snr_to_zero_gives_half_ber(self):
        T, P = 4, 0.1
        sys = SystemParams(R=60, T=T, C=50, L=0, P=P, W=1e6)
        pilots = make_pilots(T, P, 1)
        errors = bits = 0
        for seed in range(10):
            rz = sample_realization(sys, pilots, seed=seed, data_law="qpsk")
            dec = conventional_receiver(assemble_received(rz), pilots)
            errors += count_bit_errors(dec, rz.data_symbols)
            bits += 2 * rz.data_symbols.size
        assert abs(errors / bits - 0.5) <= 3 * np.sqrt(0.25 / bits) + 0.01


class TestQpskHelpers:
    def test_count_matches_slicer_on_receiver_outputs(self):
        # the receivers return soft estimates and count_bit_errors decides each
        # bit by its sign; a slicer to the nearest QPSK point gives the same
        # count, also on parts that are exactly +0.0 or -0.0 (both >= 0)
        def slicer(v):
            return np.where(v.real >= 0, 1.0, -1.0) + 1j * np.where(v.imag >= 0, 1.0, -1.0)

        T, P = 4, 0.1
        sys = SystemParams.from_profile(60, T, 50, 2, P, 1.0,
                                        InterferenceProfile(kind="flat", I=0.05))
        pilots = make_pilots(T, P, 1)
        rz = sample_realization(sys, pilots, seed=6, data_law="qpsk")
        Y = assemble_received(rz)
        Yt = project(signal_subspace(Y, T), Y)
        outputs = [detect_subspace(Yt[:, T:], estimate_projected_channel(Yt, pilots),
                                   noise_power=sys.W, symbol_power=P),
                   conventional_receiver(Y, pilots)]
        tx = rz.data_symbols
        for est in outputs:
            est.real[0, :4] = [0.0, -0.0, 0.0, -0.0]
            est.imag[1, :4] = [-0.0, 0.0, -0.0, 0.0]
            assert np.signbit(est.real[0, :4]).sum() == np.signbit(est.imag[1, :4]).sum() == 2
            d, x = slicer(est), slicer(tx)
            expected = np.count_nonzero(d.real != x.real) + np.count_nonzero(d.imag != x.imag)
            assert 0 < count_bit_errors(est, tx) == expected

    def test_count_bit_errors_known(self):
        P = 2.0
        a = np.array([[1 + 1j, 1 - 1j]]) * np.sqrt(P / 2)
        b = np.array([[1 + 1j, -1 + 1j]]) * np.sqrt(P / 2)
        assert count_bit_errors(a, b) == 2  # second symbol differs in both bits

    def test_count_bit_errors_rejects_mismatched_shapes(self):
        # numpy would broadcast a 1 x 3 reference against 3 x 3 estimates
        est, ref = np.full((3, 3), 1 + 1j), np.array([[1 - 1j, 1 + 1j, 1 + 1j]])
        with pytest.raises(ValueError, match=r"^estimates \(3, 3\) and reference \(1, 3\)"):
            count_bit_errors(est, ref)
