import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from spectrum_oracle import mp_density
from svdmimo import montecarlo
from svdmimo.montecarlo import BerPoint, ExperimentConfig, ber_vs_IP, ber_vs_R, spectrum_experiment
from svdmimo.system_model import InterferenceProfile, SystemParams, make_pilots


def small_system(I_over_P=0.25, W=1.0, L=2, R=60, T=3, C=40, P=0.1):
    return SystemParams.from_profile(R, T, C, L, P, W,
                                     InterferenceProfile(kind="flat", I=I_over_P * P))


class TestBerPoint:
    def test_ber_and_integer_counts(self):
        p = BerPoint(sweep_value=1.0, receiver="svd", tau=1, block_errors=(10, 15),
                     block_bits=500)
        assert p.ber == 0.025
        assert p.ber * p.symbols * 2 == p.errors  # error count recoverable
        assert p.ci_halfwidth > 0

    def test_ci_formula(self):
        p = BerPoint(sweep_value=1.0, receiver="svd", tau=1, block_errors=(60, 40),
                     block_bits=5_000)
        assert np.isclose(p.ci_halfwidth, 1.96 * np.sqrt(0.01 * 0.99 / 10_000))

    def test_beats(self):
        a = BerPoint(1.0, "svd", 1, block_errors=(10,), block_bits=100_000)
        b = BerPoint(1.0, "conventional", 1, block_errors=(5_000,), block_bits=100_000)
        assert a.beats(b) and not b.beats(a)

    def test_totals_read_from_block_counts(self):
        # the per-block counts are the one record; totals are read from them
        p = BerPoint(1.0, "svd", 1, block_errors=(3, 0, 7), block_bits=112)
        assert (p.errors, p.bits, p.symbols) == (10, 336, 168)
        assert [f.name for f in dataclasses.fields(BerPoint)] == [
            "sweep_value", "receiver", "tau", "block_errors", "block_bits", "delta"]
        empty = BerPoint(1.0, "svd", 1, block_errors=(), block_bits=112)
        assert (empty.errors, empty.bits, empty.ber, empty.ci_halfwidth) == (0, 0, 0.0, 0.0)


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

    @pytest.mark.parametrize("field, value, name", [
        ("min_symbols", 50.5, "min_symbols"), ("seed", True, "seed"), ("seed", 1.0, "seed"),
        ("threads", 2.5, "threads"), ("taus", (1.0,), "tau"), ("taus", (True,), "tau"),
        ("values", (40, True), "R"), ("values", (40.0,), "R")])
    def test_non_integer_counts_rejected(self, field, value, name):
        # min_symbols 50.5 and taus (1.0,) failed late with a TypeError, while
        # threads 2.5 and seed True ran
        sweep = "R" if field == "values" else "I_over_P"
        kwargs = dict({"values": (40,) if sweep == "R" else (0.1,)}, **{field: value})
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig(system=small_system(), sweep=sweep, **kwargs)

    def test_numpy_integer_counts_stored_as_int(self):
        cfg = ExperimentConfig(system=small_system(), sweep="R", values=(np.int64(40),),
                               taus=(np.int32(1),), min_symbols=np.int64(50),
                               seed=np.uint8(3), threads=np.int16(2))
        counts = (*cfg.values, *cfg.taus, cfg.min_symbols, cfg.seed, cfg.threads)
        assert counts == (40, 1, 50, 3, 2) and all(type(x) is int for x in counts)
        json.dumps(cfg.to_dict())  # the ber.csv header takes no numpy scalar

    def test_negative_seed_rejected(self):
        # numpy rejected it only when the first point drew its pilots, naming no key
        with pytest.raises(ValueError, match="^seed must be >= 0: -1$"):
            ExperimentConfig(system=small_system(), sweep="I_over_P", values=(0.1,), seed=-1)

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

    @pytest.mark.parametrize("sweep, field, value, message", [
        ("I_over_P", "values", (True,), "I_over_P must be a finite real number"),
        ("I_over_P", "values", (0.1, float("nan")), "I_over_P must be a finite real number"),
        ("I_over_P", "values", (-0.5,), "I_over_P must be >= 0"),
        ("R", "deltas", (0,), "delta must be > 0"),
        ("R", "deltas", (2, float("nan")), "delta must be a finite real number")],
        ids=["IP_true", "IP_nan", "IP_negative", "delta_zero", "delta_nan"])
    def test_real_sweep_values_checked(self, sweep, field, value, message):
        # I/P True ran at 1.0; -0.5 and delta 0 failed at their point, NaN
        # there with an IndexError naming nothing
        kwargs = dict({"values": (40,) if sweep == "R" else (0.1,)}, **{field: value})
        with pytest.raises(ValueError, match=f"^{message}"):
            ExperimentConfig(system=small_system(), sweep=sweep, **kwargs)

    @pytest.mark.parametrize("sweep", ["I_over_P", "R"])
    def test_no_sweep_values_rejected(self, sweep):
        with pytest.raises(ValueError, match="^need at least one sweep value$"):
            ExperimentConfig(system=small_system(), sweep=sweep, values=())

    @pytest.mark.parametrize("sweep, R, values", [("I_over_P", 2, (0.1,)), ("R", 60, (40, 2))],
                             ids=["IP_system", "R_listed"])
    def test_fewer_antennas_than_T_rejected(self, sweep, R, values):
        # the subspace receiver keeps T = 3 directions; R = 2 failed only when
        # its point ran, after every earlier one, naming T_sel
        with pytest.raises(ValueError, match=r"^R must be >= T = 3: 2$"):
            ExperimentConfig(system=small_system(R=R), sweep=sweep, values=values)

    def test_as_many_antennas_as_T_accepted(self):
        points, _ = ber_vs_R(ExperimentConfig(system=small_system(), sweep="R", values=(3, 40),
                                              min_symbols=100))
        assert [p.sweep_value for p in points] == [3.0, 3.0, 40.0, 40.0]

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

    def test_threads_keep_block_errors_in_stream_order(self):
        def sweep(threads):
            cfg = ExperimentConfig(system=small_system(C=30, T=2, L=1), sweep="R",
                                   values=(40, 80), deltas=(2,), min_symbols=300, seed=8,
                                   threads=threads)
            return ber_vs_R(cfg)
        (points1, per_block1), (points4, per_block4) = sweep(1), sweep(4)
        assert [p.block_errors for p in points1] == [p.block_errors for p in points4]
        assert all(len(p.block_errors) == 6 and p.block_bits == 112 for p in points1)
        assert per_block1 == per_block4

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
                expected_points.append(BerPoint(sweep_value=sweep_value, receiver=rec, tau=tau,
                                                block_errors=tuple(errors),
                                                block_bits=block_bits, delta=delta))
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

    def test_ber_vs_IP_krylov_path(self):
        # min(R, C) = 210 is above the Gram-side crossover, so signal_subspace
        # takes its Krylov path; the counts were frozen when that path was ARPACK
        cfg = ExperimentConfig(system=small_system(R=210, C=400), sweep="I_over_P",
                               values=(0.5, 0.95), min_symbols=3000, seed=23)
        frozen = {
            (0.5, 1): (2382, [127, 146, 83], [424, 512, 442]),
            (0.95, 1): (2382, [844, 1033, 796], [618, 649, 661]),
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

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_no_seeds_rejected(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds"):
            spectrum_experiment(small_system(), n_seeds=n_seeds)

    def test_no_power_rejected(self):
        # P = W = 0 with no cells: every eigenvalue is 0, and the empty pooled
        # spectrum raised a bare IndexError
        sys = SystemParams(R=20, T=2, C=30, L=0, P=0.0, W=0.0)
        with pytest.raises(ValueError, match="^every eigenvalue is 0 .* on all 2 seeds$"):
            spectrum_experiment(sys, n_seeds=2)

    @pytest.mark.parametrize("field, value", [("n_seeds", 2.5), ("n_seeds", True),
                                              ("grid_points", 1), ("grid_points", 100.0),
                                              ("seed", -1), ("seed", 1.5)])
    def test_counts_checked(self, field, value):
        # n_seeds 2.5 raised a TypeError naming nothing and True ran one seed;
        # grid_points 1 failed only after every seed was drawn; numpy rejected
        # seed -1 and 1.5 while drawing, naming no key
        with pytest.raises(ValueError, match=f"^{field} must be"):
            spectrum_experiment(small_system(), **{field: value})

    def test_density_mass_accounts_for_rank(self):
        sys = SystemParams(R=200, T=1, C=100, L=0, P=0.0, W=1.0)
        result = spectrum_experiment(sys, n_seeds=5, grid_points=200, seed=8)
        total = result.density.continuous_mass + result.density.atom_at_zero
        assert abs(total - 1.0) < 0.02
        assert abs(result.density.atom_at_zero - 0.5) < 0.02  # rank C = R/2

