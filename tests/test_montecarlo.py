import tracemalloc

import numpy as np
import pytest

from spectrum_oracle import mp_density
from svdmimo import montecarlo
from svdmimo.montecarlo import (BerPoint, ExperimentConfig, ber_vs_IP, ber_vs_R,
                                spectrum_experiment, write_ber_csv, write_spectrum_csv)
from svdmimo.system_model import InterferenceProfile, SystemParams, make_pilots


def small_system(I_over_P=0.25, W=1.0, L=2, R=60, T=3, C=40, P=0.1):
    return SystemParams.from_profile(R, T, C, L, P, W,
                                     InterferenceProfile(kind="flat", I=I_over_P * P))


class TestBerPoint:
    def test_ber_and_integer_counts(self):
        p = BerPoint(sweep_value=1.0, receiver="svd", tau=1, errors=25, bits=1000)
        assert p.ber == 0.025
        assert p.ber * p.symbols * 2 == p.errors  # error count recoverable
        assert p.ci_halfwidth > 0

    def test_ci_formula(self):
        p = BerPoint(sweep_value=1.0, receiver="svd", tau=1, errors=100, bits=10_000)
        assert np.isclose(p.ci_halfwidth, 1.96 * np.sqrt(0.01 * 0.99 / 10_000))

    def test_beats(self):
        a = BerPoint(1.0, "svd", 1, errors=10, bits=100_000)
        b = BerPoint(1.0, "conventional", 1, errors=5_000, bits=100_000)
        assert a.beats(b) and not b.beats(a)


class TestConfig:
    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(system=small_system(), sweep="bogus", values=(1,))

    def test_metadata_records_pairing(self):
        cfg = ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.1,))
        assert cfg.to_dict()["paired_realizations"] is True

    def test_non_integer_R_rejected(self):
        # would simulate R = 60 but report sweep_value 60.7
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig(system=small_system(), sweep="R", values=(40, 60.7))

    def test_several_taus_on_R_sweep_rejected(self):
        # per-seed BERs are keyed by (R, delta, receiver): a second tau would overwrite them
        with pytest.raises(ValueError, match="tau"):
            ExperimentConfig(system=small_system(), sweep="R", values=(40,), taus=(1, 2))

    @pytest.mark.parametrize("field, value", [("threads", 0), ("threads", -3),
                                              ("min_symbols", 0), ("min_symbols", -5)])
    def test_non_positive_threads_and_min_symbols_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.1,),
                             **{field: value})

    @pytest.mark.parametrize("sweep, taus", [("I_over_P", ()), ("I_over_P", (0,)),
                                             ("I_over_P", (2, 0)), ("R", ()), ("R", (0,))])
    def test_taus_without_pilots_rejected(self, sweep, taus):
        # an empty list would write a table without rows, and tau = 0 fails
        # only inside the first block, where pilots estimate the channel
        with pytest.raises(ValueError, match="taus"):
            ExperimentConfig(system=small_system(), sweep=sweep, values=(40,), taus=taus)

    @pytest.mark.parametrize("sweep, C, taus", [("I_over_P", 40, (1, 20)),
                                                ("I_over_P", 39, (13,)), ("R", 40, (14,))])
    def test_pilots_filling_the_block_rejected(self, sweep, C, taus):
        # tau*T >= C leaves no data column; caught before any point runs
        with pytest.raises(ValueError, match="no data columns"):
            ExperimentConfig(system=small_system(C=C), sweep=sweep, values=(40,), taus=taus)

    def test_empty_deltas_rejected(self):
        # would return no points and no error
        with pytest.raises(ValueError, match="deltas"):
            ExperimentConfig(system=small_system(), sweep="R", values=(40,), deltas=())

    def test_deltas_on_IP_sweep_rejected(self):
        # the I/P sweep uses a flat profile, so deltas would be ignored
        with pytest.raises(ValueError, match="deltas"):
            ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.1,),
                             deltas=(2,))


class TestBerSweeps:
    @pytest.mark.parametrize("run, sweep, values", [(ber_vs_IP, "R", (40, 80)),
                                                    (ber_vs_R, "I_over_P", (0.3,))],
                             ids=["ber_vs_IP_on_R", "ber_vs_R_on_IP"])
    def test_sweep_of_the_other_function_rejected(self, run, sweep, values):
        # ber_vs_IP would run an R config at I/P = 40 and 80; ber_vs_R would
        # fail on an I/P config with an unrelated antenna-count error
        cfg = ExperimentConfig(system=small_system(), sweep=sweep, values=values)
        with pytest.raises(ValueError, match=f"config's '{sweep}'"):
            run(cfg)

    def test_clean_channel_zero_errors_svd(self):
        sys = SystemParams(R=60, T=3, C=40, L=0, P=0.1, W=0.0)
        cfg = ExperimentConfig(system=sys, sweep="I_over_P", values=(0.0,),
                               min_symbols=200, seed=3)
        points, _ = ber_vs_IP(cfg)
        svd = next(p for p in points if p.receiver == "svd")
        assert svd.errors == 0

    def test_determinism_bit_identical(self):
        cfg = ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.2, 0.5),
                               min_symbols=500, seed=9)
        p1, seeds1 = ber_vs_IP(cfg)
        p2, seeds2 = ber_vs_IP(cfg)
        assert p1 == p2
        assert seeds1 == seeds2

    def test_threads_do_not_change_results(self):
        cfg1 = ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.3,),
                                min_symbols=800, seed=5, threads=1)
        cfg4 = ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.3,),
                                min_symbols=800, seed=5, threads=4)
        assert ber_vs_IP(cfg1)[0] == ber_vs_IP(cfg4)[0]

    def test_pure_noise_gives_half(self):
        cfg = ExperimentConfig(system=small_system(W=1e9), sweep="I_over_P", values=(0.1,),
                               min_symbols=4000, seed=1)
        points, _ = ber_vs_IP(cfg)
        for p in points:
            assert abs(p.ber - 0.5) <= 3 * np.sqrt(0.25 / p.bits) + 0.01

    def test_ber_vs_R_shapes(self):
        cfg = ExperimentConfig(system=small_system(C=30, T=2, L=1), sweep="R",
                               values=(40, 80), deltas=(2, 4), min_symbols=300, seed=2)
        points, per_seed = ber_vs_R(cfg)
        assert len(points) == 2 * 2 * 2  # R values x deltas x receivers
        assert {p.delta for p in points} == {2, 4}
        assert all(p.bits >= 2 * 300 for p in points)
        assert set(per_seed) == {(R, d, rec) for R in (40, 80) for d in (2, 4)
                                 for rec in ("svd", "conventional")}

    def test_min_symbols_honored(self):
        cfg = ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.2,),
                               min_symbols=1000, seed=0)
        points, _ = ber_vs_IP(cfg)
        assert all(p.symbols >= 1000 for p in points)

    def test_multiple_pilot_blocks(self):
        # tau > 1: random per-cell pilots, zero-forcing over all pilot columns
        cfg = ExperimentConfig(system=small_system(C=60), sweep="I_over_P",
                               values=(0.3,), taus=(1, 5), min_symbols=500, seed=13)
        points, _ = ber_vs_IP(cfg)
        assert {p.tau for p in points} == {1, 5}
        by_tau = {p.tau: p for p in points if p.receiver == "conventional"}
        # more pilot blocks cannot hurt the conventional estimate on average
        assert by_tau[5].ber <= by_tau[1].ber + 0.05


    def test_block_allocation(self):
        # one Fig.-5 block through both receivers: Y is the only R x C array,
        # the rest (subspace, projections, decisions) is small beside it
        sys = small_system(R=300, T=3, C=1000, L=2)
        pilots = make_pilots(3, 0.1, 1)
        block = sys.R * sys.C * np.dtype(complex).itemsize
        montecarlo._run_realization(sys, pilots, [3, 0, 0])
        tracemalloc.start()
        try:
            montecarlo._run_realization(sys, pilots, [3, 0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block


class TestFrozenOutputs:
    """Exact bit-error counts of two small sweeps. A change that shifts an RNG
    stream, reorders the points or alters a receiver's decisions fails here."""

    @staticmethod
    def assert_frozen(result, frozen, point_fields):
        # frozen[per_seed_key] = (bits per block, svd block errors, conventional block errors)
        expected_points, expected_per_seed = [], {}
        for key, (block_bits, *block_errors) in frozen.items():
            sweep_value, delta, tau = point_fields(key)
            for rec, errors in zip(("svd", "conventional"), block_errors):
                bits = block_bits * len(errors)
                expected_points.append(BerPoint(sweep_value=sweep_value, receiver=rec, tau=tau,
                                                errors=sum(errors), bits=bits, delta=delta))
                expected_per_seed[key + (rec,)] = [e / block_bits for e in errors]
        points, per_seed = result
        assert points == expected_points
        assert per_seed == expected_per_seed

    def test_ber_vs_R(self):
        cfg = ExperimentConfig(system=small_system(C=30, T=2, L=1), sweep="R", values=(40, 80),
                               deltas=(2, 3.5), min_symbols=200, seed=21)
        frozen = {
            (40, 2): (112, [7, 33, 20, 11], [23, 36, 32, 34]),
            (80, 2): (112, [4, 3, 2, 4], [9, 18, 16, 13]),
            (40, 3.5): (112, [9, 14, 38, 14], [28, 25, 31, 23]),
            (80, 3.5): (112, [2, 6, 7, 3], [14, 14, 18, 21]),
        }
        self.assert_frozen(ber_vs_R(cfg), frozen, lambda key: (float(key[0]), key[1], 1))

    def test_ber_vs_IP_threads(self):
        cfg = ExperimentConfig(system=small_system(C=60), sweep="I_over_P", values=(0.3, 0.6),
                               taus=(1, 5), min_symbols=400, seed=22, threads=3)
        frozen = {
            (0.3, 1): (342, [46, 28, 32], [61, 57, 67]),
            (0.6, 1): (342, [142, 63, 91], [83, 77, 76]),
            (0.3, 5): (270, [17, 14, 21], [19, 20, 24]),
            (0.6, 5): (270, [44, 66, 41], [19, 36, 32]),
        }
        self.assert_frozen(ber_vs_IP(cfg), frozen, lambda key: (key[0], None, key[1]))


class TestSpectrumExperiment:
    def test_noise_only_matches_mp(self):
        # P = 0 realizes the noise-only case; histogram vs MP overlay
        sys = SystemParams(R=150, T=1, C=100, L=0, P=0.0, W=1.0)
        result = spectrum_experiment(sys, n_seeds=8, grid_points=250, seed=4)
        pdf, _ = mp_density(sys.C / sys.R, scale=sys.C * sys.W / (sys.T * sys.R))

        # Kolmogorov distance between the empirical CDF and the MP CDF
        ev = np.sort(result.eigenvalues)
        grid = result.density.grid
        vals = pdf(grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
        F = np.interp(ev, grid, cdf / cdf[-1])
        n = len(ev)
        ks = max(np.max(np.abs(np.arange(1, n + 1) / n - F)),
                 np.max(np.abs(np.arange(0, n) / n - F)))
        assert ks <= 0.05

    def test_supports_attached_when_interference_present(self):
        sys = small_system(R=100, C=120, T=3)
        result = spectrum_experiment(sys, n_seeds=3, grid_points=150, seed=6)
        methods = {s.method for s in result.supports}
        assert "bilateral_general" in methods and "unilateral" in methods

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_no_seeds_rejected(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds"):
            spectrum_experiment(small_system(), n_seeds=n_seeds)

    def test_density_mass_accounts_for_rank(self):
        sys = SystemParams(R=200, T=1, C=100, L=0, P=0.0, W=1.0)
        result = spectrum_experiment(sys, n_seeds=5, grid_points=200, seed=8)
        total = result.density.continuous_mass + result.density.atom_at_zero
        assert abs(total - 1.0) < 0.02
        assert abs(result.density.atom_at_zero - 0.5) < 0.02  # rank C = R/2


class TestCsvWriters:
    def test_ber_csv_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.2,),
                               min_symbols=300, seed=11)
        points, _ = ber_vs_IP(cfg)
        path = tmp_path / "ber.csv"
        write_ber_csv(points, cfg.to_dict(), path)
        text = path.read_text().splitlines()
        assert text[0].startswith("# config: ") and '"seed": 11' in text[0]
        assert text[1] == "sweep_value,receiver,tau,delta,ber,errors,bits,ci"
        assert len(text) == 2 + len(points)
        errors = int(text[2].split(",")[5])
        assert errors == points[0].errors

    def test_spectrum_csv_header(self, tmp_path):
        sys = small_system(R=80, C=60)
        result = spectrum_experiment(sys, n_seeds=2, grid_points=100, seed=12)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(result, {"seed": 12}, path)
        lines = path.read_text().splitlines()
        assert any(line.startswith("# kappa=") for line in lines)
        assert any(line.startswith("# atom=") for line in lines)
        assert any(line.startswith("# support: ") for line in lines)
        header_idx = lines.index("x,density,empirical")
        assert len(lines) > header_idx + 50
