import dataclasses
import hashlib
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from svdmimo.rmt_spectrum import FixedPointParams
from svdmimo.system_model import (InterferenceProfile, PilotConfig, RadioParams, SystemParams,
                                  _draw_noise, assemble_received, coherence_symbols, make_pilots,
                                  sample_realization)


def bullet_train():
    return RadioParams(carrier_frequency=2.6e9, delay_spread=5e-6, mobile_speed=350 / 3.6)


class TestCoherence:
    def test_bullet_train_value(self):
        # stated operating point: ~99 symbols
        assert abs(coherence_symbols(bullet_train()) - 99) <= 2

    def test_halving_speed_doubles(self):
        r = bullet_train()
        slow = RadioParams(r.carrier_frequency, r.delay_spread, r.mobile_speed / 2)
        assert np.isclose(coherence_symbols(slow), 2 * coherence_symbols(r))

    def test_halving_carrier_doubles(self):
        r = bullet_train()
        low = RadioParams(r.carrier_frequency / 2, r.delay_spread, r.mobile_speed)
        assert np.isclose(coherence_symbols(low), 2 * coherence_symbols(r))

    def test_strictly_decreasing_in_each_parameter(self):
        r = bullet_train()
        base = coherence_symbols(r)
        assert coherence_symbols(RadioParams(r.carrier_frequency * 1.1, r.delay_spread, r.mobile_speed)) < base
        assert coherence_symbols(RadioParams(r.carrier_frequency, r.delay_spread * 1.1, r.mobile_speed)) < base
        assert coherence_symbols(RadioParams(r.carrier_frequency, r.delay_spread, r.mobile_speed * 1.1)) < base

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValueError):
            RadioParams(carrier_frequency=0.0, delay_spread=5e-6, mobile_speed=10.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "2.6e9"])
    def test_non_finite_or_non_real_field_rejected(self, value):
        # NaN built: nan <= 0 is false
        with pytest.raises(ValueError, match="^carrier_frequency must be a finite real number"):
            RadioParams(value, 5e-6, 10.0)

    @pytest.mark.parametrize("radio", [
        RadioParams(2.6e9, 5e-6, 1e-320 / 3.6), RadioParams(1e-291, 1e-306, 350 / 3.6)],
        ids=["speed_underflows", "f0_tau_underflows"])
    def test_no_finite_count_rejected(self, radio):
        # a subnormal speed gave inf symbols; f0 tau underflowing to 0 raised
        # ZeroDivisionError
        with pytest.raises(ValueError, match="^coherence time is no finite number of symbols"):
            coherence_symbols(radio)


def flat_system(R=300, T=10, C=100, L=2, P=0.1, W=1.0, I=0.025):
    return SystemParams.from_profile(R, T, C, L, P, W, InterferenceProfile(kind="flat", I=I))


class TestSystemParams:
    def test_kappa(self):
        assert flat_system(R=300, C=100).kappa == 100 / 300

    def test_alpha(self):
        assert flat_system(T=10, R=300).alpha == 10 / 300

    def test_r(self):
        dp = flat_system(P=0.1, R=300, C=1000)
        assert np.isclose(dp.r, 1.0 / (0.1 * 300 * 1000))

    def test_zero_p_rejected(self):
        with pytest.raises(ValueError):
            flat_system(P=0.0).r

    def test_scaling_dimensions_preserves_ratios(self):
        dp1 = flat_system(R=300, T=10, C=100)
        dp2 = flat_system(R=900, T=30, C=300)
        assert dp1.kappa == dp2.kappa
        assert dp1.alpha == dp2.alpha

    def test_nonflat_uses_max(self):
        sys = SystemParams.from_profile(300, 10, 100, 2, 0.1, 1.0,
                                        InterferenceProfile(kind="modulo", delta=4))
        dp = sys
        Imax = max(sys.interference_powers)
        assert np.isclose(dp.t, 1.0 / (Imax * 300 * 100))

    def test_beta_ratio_r_over_t(self):
        dp = flat_system(P=0.1, I=0.025)
        assert np.isclose(dp.beta_ratio, 0.25)
        assert np.isclose(dp.r / dp.t, 0.25)

    @pytest.mark.parametrize("sys", [
        flat_system(),
        SystemParams.from_profile(100, 5, 100, 6, 0.1, 1.0,
                                  InterferenceProfile(kind="modulo", delta=2)),
    ], ids=["flat", "modulo"])
    def test_fixed_point_reads_the_ratios(self, sys):
        # one definition of each ratio: the fixed point takes them from the system
        fp = FixedPointParams.from_system(sys, scale=sys.T * sys.R)
        assert fp.kappa == sys.kappa
        assert fp.terms[0][0] == sys.alpha / sys.kappa
        assert fp.noise_a2 == sys.zeta

    def test_zero_p_fixed_point_still_builds(self):
        # the noise-only system of the Marchenko-Pastur reduction
        sys = SystemParams(R=300, T=1, C=900, L=0, P=0.0, W=1.0)
        for name in ("r", "beta_ratio"):
            with pytest.raises(ValueError, match="P must be > 0"):
                getattr(sys, name)
        fp = FixedPointParams.from_system(sys, scale=sys.C * sys.W)
        assert fp.kappa == sys.kappa == 3.0 and fp.noise_a2 == sys.zeta == 900.0
        assert len(fp.terms) == 0 and math.isinf(sys.t)

    @pytest.mark.parametrize("field, value", [("R", 20.5), ("R", True), ("T", 3.0),
                                              ("C", "40"), ("L", False), ("L", 1.5)])
    def test_non_integer_count_rejected(self, field, value):
        # R = 20.5 and True built, failing later in numpy naming no field;
        # T = 3.0 built with kappa 2.0
        counts = dict({"R": 20, "T": 3, "C": 40, "L": 0}, **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SystemParams(**counts, P=0.1, W=1.0)

    @pytest.mark.parametrize("field, value", [("R", 0), ("T", -1), ("C", 0), ("L", -1)])
    def test_count_below_its_least_rejected(self, field, value):
        counts = dict({"R": 20, "T": 3, "C": 40, "L": 0}, **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            SystemParams(**counts, P=0.1, W=1.0)

    @pytest.mark.parametrize("field, value", [
        ("P", math.nan), ("W", math.inf), ("P", True), ("W", -math.inf), ("P", None),
        ("interference_powers", (0.02, math.nan)), ("interference_powers", (False, 0.02))])
    def test_non_finite_or_bool_power_rejected(self, field, value):
        # P = nan, W = inf, P = True and a NaN interference power built
        powers = dict({"P": 0.1, "W": 1.0, "interference_powers": (0.02, 0.02)}, **{field: value})
        name = "each interference power" if field == "interference_powers" else field
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            SystemParams(R=20, T=2, C=40, L=1, **powers)

    @pytest.mark.parametrize("field, value", [("P", -0.1), ("W", -1),
                                              ("interference_powers", (0.02, -0.01))])
    def test_negative_power_rejected_naming_it(self, field, value):
        powers = dict({"P": 0.1, "W": 1.0, "interference_powers": (0.02, 0.02)}, **{field: value})
        name = "each interference power" if field == "interference_powers" else field
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            SystemParams(R=20, T=2, C=40, L=1, **powers)

    @pytest.mark.parametrize("powers", [(), (0.02,), (0.02,) * 3])
    def test_wrong_number_of_interference_powers_rejected(self, powers):
        with pytest.raises(ValueError, match=r"^interference_powers must have L\*T = 2 entries"):
            SystemParams(R=20, T=2, C=40, L=1, P=0.1, W=1.0, interference_powers=powers)

    def test_numpy_integer_counts_stored_as_int(self):
        sys = SystemParams(R=np.int64(20), T=np.int32(3), C=np.uint16(40), L=np.int8(1),
                           P=0.1, W=1.0, interference_powers=(0.02,) * 3)
        assert (sys.R, sys.T, sys.C, sys.L) == (20, 3, 40, 1)
        assert all(type(x) is int for x in (sys.R, sys.T, sys.C, sys.L))
        assert sys.kappa == 2.0


def profile_powers(**profile):
    """The interference powers of `profile` at T = 10, L = 2 and P = 0.1."""
    return SystemParams.from_profile(R=20, T=10, C=40, L=2, P=0.1, W=1.0,
                                     profile=InterferenceProfile(**profile)).interference_powers


class TestInterferenceProfile:
    def test_modulo_first_entry(self):
        powers = profile_powers(kind="modulo", delta=4)
        assert np.isclose(powers[0], 0.1 * 1 / 40)

    def test_flat(self):
        powers = profile_powers(kind="flat", I=0.025)
        assert len(powers) == 20 and all(p == 0.025 for p in powers)

    def test_modulo_multiples_of_T_are_zero(self):
        powers = profile_powers(kind="modulo", delta=4)
        assert powers[9] == 0.0 and powers[19] == 0.0

    @pytest.mark.parametrize("kind, field, value", [
        ("flat", "I", math.nan), ("flat", "I", True), ("modulo", "delta", math.nan),
        ("modulo", "delta", math.inf)])
    def test_non_finite_or_bool_value_rejected(self, kind, field, value):
        # I = nan and delta = nan built: nan < 0 and nan <= 0 are false
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number"):
            InterferenceProfile(kind=kind, **{field: value})

    @pytest.mark.parametrize("kind, fields", [
        ("flat", {"I": -0.1}), ("flat", {}), ("modulo", {"delta": 0}),
        ("modulo", {"delta": -2.0}), ("modulo", {})],
        ids=["I_negative", "I_none", "delta_zero", "delta_negative", "delta_none"])
    def test_missing_or_out_of_range_value_rejected(self, kind, fields):
        message = "flat profile requires I >= 0" if kind == "flat" else (
            "modulo profile requires delta > 0")
        with pytest.raises(ValueError, match=f"^{message}$"):
            InterferenceProfile(kind=kind, **fields)

    @pytest.mark.parametrize("kind, fields, other", [
        ("flat", {"I": 0.1, "delta": 2}, "delta"), ("modulo", {"delta": 2, "I": 0.5}, "I")])
    def test_field_of_the_other_kind_rejected(self, kind, fields, other):
        # the other kind's field was accepted and ignored
        with pytest.raises(ValueError, match=f"^{other} does not apply to profile '{kind}'"):
            InterferenceProfile(kind=kind, **fields)


class TestPilots:
    def test_tau1_block_orthogonality(self):
        p = make_pilots(T=5, P=0.1, tau_blocks=1)
        gram = p.pilot_matrix @ p.pilot_matrix.conj().T
        assert np.allclose(gram, 5 * 0.1 * np.eye(5), atol=1e-12)

    def test_tau3_blocks_orthogonal_and_power(self):
        p = make_pilots(T=4, P=0.2, tau_blocks=3, rng=7)
        assert p.pilot_matrix.shape == (4, 12)
        for b in range(3):
            B = p.pilot_matrix[:, 4 * b:4 * (b + 1)]
            assert np.allclose(B @ B.conj().T, 0.8 * np.eye(4), atol=1e-12)

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError):
            PilotConfig(np.ones((3, 3)))

    @pytest.mark.parametrize("tau", [0, 1, 3])
    def test_tau_is_read_from_the_width(self, tau):
        p = make_pilots(T=4, P=0.2, tau_blocks=tau, rng=7)
        assert p.tau_blocks == tau and p.pilot_matrix.shape[1] == 4 * tau
        assert p.T == (4 if tau else 0)

    @pytest.mark.parametrize("shape", [(3, 4), (3, 2), (0, 3), (3,)])
    def test_width_not_a_multiple_of_T_rejected(self, shape):
        with pytest.raises(ValueError, match=r"T x \(tau\*T\)"):
            PilotConfig(np.ones(shape))

    @pytest.mark.parametrize("tau", [1, 3])
    def test_zero_power_pilots_rejected(self, tau):
        # orthogonal with equal norms, trivially, but nothing to estimate from
        with pytest.raises(ValueError, match="nonzero power"):
            make_pilots(4, 0.0, tau, rng=7)

    @pytest.mark.parametrize("tau", [1, 2])
    def test_zero_power_block_rejected(self, tau):
        # make_pilots rejects P <= 0 before it builds one
        with pytest.raises(ValueError, match="^pilot blocks must have nonzero power$"):
            PilotConfig(np.zeros((3, 3 * tau)))

    @pytest.mark.parametrize("P", [1e-13, 10.0])
    def test_non_orthogonal_block_rejected_at_any_power(self, P):
        # the off-diagonal tolerance scales with the row norm: an absolute
        # floor of 1e-10 once passed this block at P = 1e-13
        B = make_pilots(3, P, 1).pilot_matrix.copy()
        B[1] = 0.9 * B[0] + 0.1 * B[1]
        with pytest.raises(ValueError, match="^pilot block 0 rows are not orthogonal"):
            PilotConfig(B)

    @pytest.mark.parametrize("P", [1e-13, 1e13])
    @pytest.mark.parametrize("tau", [1, 3])
    def test_pilots_accepted_at_extreme_power(self, P, tau):
        assert make_pilots(4, P, tau, rng=7).tau_blocks == tau

    @pytest.mark.parametrize("T, P, tau, message", [
        (3, 0.1, True, "tau_blocks must be an integer"),
        (3, 0.1, 1.5, "tau_blocks must be an integer"),
        (3, 0.1, -1, "tau_blocks must be >= 0"),
        (0, 0.1, 1, "T must be >= 1"), (2.5, 0.1, 1, "T must be an integer"),
        (3, -0.1, 2, "P must be > 0"), (3, np.nan, 1, "P must be a finite"),
    ])
    def test_inputs_checked(self, T, P, tau, message):
        # tau True built one block, -1 and 1.5 failed inside numpy, and a
        # negative P failed as pilot rows that are not orthogonal
        with pytest.raises(ValueError, match=f"^{message}"):
            make_pilots(T, P, tau, rng=7)


class TestRealization:
    def test_h_variance(self):
        sys = SystemParams(R=1000, T=10, C=50, L=0, P=0.1, W=1.0)
        rz = sample_realization(sys, PilotConfig(), seed=1)
        n = rz.H.size
        sample_var = np.mean(np.abs(rz.H) ** 2)
        # |h|^2 is Exp(1): sample mean of n >= 1e4 draws within 3 sigma
        assert n >= 10_000
        assert abs(sample_var - 1.0) <= 3.0 / np.sqrt(n)

    def test_interferer_column_variance(self):
        sys = SystemParams.from_profile(20_000, 2, 8, 1, 0.1, 0.0,
                                        InterferenceProfile(kind="flat", I=0.04))
        rz = sample_realization(sys, PilotConfig(), seed=3)
        target = 0.04 / 0.1
        for k in range(2):
            var = np.mean(np.abs(rz.H_I[:, k]) ** 2)
            assert abs(var - target) <= 3 * target / np.sqrt(sys.R)

    def test_zero_noise(self):
        # W = 0: the noise is zeros, drawn from nothing
        sys = flat_system(W=0.0)
        rz = sample_realization(sys, PilotConfig(), seed=5)
        assert not np.any(_draw_noise(rz))
        assert np.array_equal(assemble_received(rz), rz.H @ rz.X + rz.H_I @ rz.X_I)

    def test_pilots_occupy_first_columns(self):
        sys = flat_system(R=50, T=4, C=30)
        pilots = make_pilots(4, 0.1, 2, rng=0)
        rz = sample_realization(sys, pilots, seed=9)
        assert np.array_equal(rz.X[:, :8], pilots.pilot_matrix)
        assert rz.data_symbols.shape == (4, 22)

    def test_qpsk_modulus_exact(self):
        sys = flat_system(R=50, T=4, C=30, P=0.4)
        rz = sample_realization(sys, PilotConfig(), seed=2, data_law="qpsk")
        assert np.allclose(np.abs(rz.X), np.sqrt(0.4))

    @pytest.mark.parametrize("powers", [(0.025,) * 4, (0.0,) * 4], ids=["positive", "zero"])
    def test_zero_p_with_interferers_rejected(self, powers):
        # H_I column k has variance I_k / P: at P = 0 it would be infinite or
        # NaN, and so would Y; the check comes before the first draw
        sys = SystemParams(R=20, T=2, C=10, L=2, P=0.0, W=1.0, interference_powers=powers)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="P must be > 0"):
            sample_realization(sys, PilotConfig(), seed=rng)
        assert rng.bit_generator.state == state

    def test_unknown_data_law_rejected(self):
        with pytest.raises(ValueError, match="^unknown data law 'bpsk'$"):
            sample_realization(flat_system(), PilotConfig(), seed=0, data_law="bpsk")

    @pytest.mark.parametrize("pilot_T", [2, 4])
    def test_pilot_rows_other_than_T_rejected(self, pilot_T):
        with pytest.raises(ValueError, match="^pilot_matrix row count must equal T$"):
            sample_realization(flat_system(R=50, T=3, C=30), make_pilots(pilot_T, 0.1, 1),
                               seed=0)

    def test_pilot_overflow_rejected(self):
        sys = flat_system(R=50, T=10, C=25)
        with pytest.raises(ValueError):
            sample_realization(sys, make_pilots(10, 0.1, 3, rng=0), seed=0)

    def test_shared_pilots_tau1(self):
        sys = flat_system(R=30, T=5, C=40)
        pilots = make_pilots(5, 0.1, 1)
        rz = sample_realization(sys, pilots, seed=11)
        for cell in range(2):
            assert np.array_equal(rz.X_I[5 * cell:5 * (cell + 1), :5], pilots.pilot_matrix)

    def test_independent_pilots_tau2(self):
        sys = flat_system(R=30, T=5, C=40)
        pilots = make_pilots(5, 0.1, 2, rng=0)
        rz = sample_realization(sys, pilots, seed=11)
        assert not np.allclose(rz.X_I[:5, :10], pilots.pilot_matrix)

    def test_determinism(self):
        sys = flat_system(R=40, T=4, C=30)
        pilots = make_pilots(4, 0.1, 1)
        a = sample_realization(sys, pilots, seed=[1, 2], data_law="qpsk")
        b = sample_realization(sys, pilots, seed=[1, 2], data_law="qpsk")
        assert np.array_equal(a.H, b.H) and np.array_equal(a.X, b.X)


class TestAssembleReceived:
    def test_no_interference_no_noise(self):
        sys = SystemParams(R=40, T=4, C=30, L=0, P=0.1, W=0.0)
        rz = sample_realization(sys, PilotConfig(), seed=1)
        assert np.allclose(assemble_received(rz), rz.H @ rz.X)

    def test_single_entry_row_product(self):
        sys = SystemParams(R=3, T=3, C=3, L=0, P=1.0, W=0.0)
        rz = sample_realization(sys, PilotConfig(), seed=1)
        H = np.zeros((3, 3), complex)
        H[1, 2] = 2.0 + 1j
        X = np.eye(3, dtype=complex)
        rz2 = dataclasses.replace(rz, H=H, X=X, X_I=np.zeros((0, 3), complex))
        Y = assemble_received(rz2)
        assert Y[1, 2] == 2.0 + 1j and np.count_nonzero(Y) == 1

    def test_real_channel_complex_noise(self):
        sys = SystemParams(R=6, T=2, C=5, L=0, P=0.1, W=1.0)
        rz = sample_realization(sys, PilotConfig(), seed=2)
        real = dataclasses.replace(rz, H=rz.H.real.copy(), X=rz.X.real.copy())
        assert np.array_equal(assemble_received(real), real.H @ real.X + _draw_noise(rz))

    def test_frobenius_power_bookkeeping(self):
        sys = flat_system(R=200, T=10, C=100, L=2, P=0.1, W=0.5, I=0.025)
        expected = sys.R * sys.C * (sys.T * sys.P + sum(sys.interference_powers) + sys.W)
        total = 0.0
        n_seeds = 40
        for i in range(n_seeds):
            rz = sample_realization(sys, PilotConfig(), seed=[17, i])
            total += np.linalg.norm(assemble_received(rz)) ** 2
        assert abs(total / n_seeds - expected) / expected < 0.05

    def test_linearity_in_summands(self):
        sys = flat_system(R=20, T=3, C=15)
        rz = sample_realization(sys, PilotConfig(), seed=4)
        doubled = dataclasses.replace(rz, H=2 * rz.H)
        assert np.allclose(assemble_received(doubled) - assemble_received(rz), rz.H @ rz.X)

    def test_repeat_calls_identical(self):
        # the noise comes from the state the realization keeps, not from a
        # shared generator: every call, in any thread, makes the same new Y
        rz = sample_realization(flat_system(R=30, T=3, C=40), make_pilots(3, 0.1, 1), seed=6)
        Y = assemble_received(rz)
        assert assemble_received(rz) is not Y
        with ThreadPoolExecutor(max_workers=4) as pool:
            again = list(pool.map(lambda _: assemble_received(rz), range(16)))
        assert all(np.array_equal(Z, Y) for Z in again)

    def test_noise_unchanged_by_assembly(self):
        sys, pilots = flat_system(R=30, T=3, C=40), make_pilots(3, 0.1, 1)
        rz = sample_realization(sys, pilots, seed=6)
        before = _draw_noise(rz)
        assemble_received(rz)
        assert np.array_equal(_draw_noise(rz), before)
        # read after assembling on a fresh realization of the same seed
        late = sample_realization(sys, pilots, seed=6)
        assemble_received(late)
        assert np.array_equal(_draw_noise(late), before)

    def test_one_block_sized_array(self):
        # Fig.-5 block: the noise is drawn into Y itself, so sampling and
        # assembling allocate one R x C array (two when the noise had its own)
        sys, pilots = flat_system(R=300, T=3, C=1000, L=2), make_pilots(3, 0.1, 1)
        block = sys.R * sys.C * np.dtype(complex).itemsize
        assemble_received(sample_realization(sys, pilots, seed=0, data_law="qpsk"))
        tracemalloc.start()
        try:
            Y = assemble_received(sample_realization(sys, pilots, seed=1, data_law="qpsk"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y.shape == (300, 1000)
        assert peak < 1.2 * block


class TestFrozenStream:
    """Block synthesis keeps its random stream: sha256 digests (first 32 hex
    digits) of every drawn array. They were taken when each complex array came
    from two separate draws, real parts then imaginary parts, and pin the
    stream to that order.

    Pilot columns are left out: for tau = 2 they come from a LAPACK QR whose
    last bits may depend on the CPU. The interferer data that follows them in
    the stream is digested, so the stream position is still checked.

    The blocks are 24 x 40, except one of the Fig.-5 size, 300 x 1000: its
    noise spans many chunks of the draw, and its H_I X_I sum is large.
    """

    # (tau, data law, P, W, L, profile kind[, R, C]); P = 0 draws no data at all
    CASES = {
        "tau0_gaussian": (0, "gaussian", 0.1, 1.0, 2, "flat"),
        "tau0_P0_L0": (0, "gaussian", 0.0, 1.0, 0, "flat"),
        "tau1_qpsk": (1, "qpsk", 0.1, 1.0, 2, "flat"),
        "tau1_gaussian_W0": (1, "gaussian", 0.1, 0.0, 2, "modulo"),
        "tau2_gaussian": (2, "gaussian", 0.1, 0.5, 2, "modulo"),
        "tau2_qpsk": (2, "qpsk", 0.1, 1.0, 1, "flat"),
        "fig5_tau1_qpsk": (1, "qpsk", 0.1, 1.0, 2, "flat", 300, 1000),
        "tau1_qpsk_L0": (1, "qpsk", 0.1, 1.0, 0, "flat"),
    }
    DIGESTS = {
        "tau0_gaussian": {
            "H": "d5a96c1a2a025bcf62c957f8741f53b9",
            "X_data": "c0ca7cf122fc81dc94a29d4af895023d",
            "H_I": "849972e884cbeddb77bffbba5f3aae2f",
            "X_I_data": "bd6cffcbfbaa0fca1cc997774d1cedf3",
            "noise": "347baa780c70be8ee293b2dba4d32f33",
        },
        "tau0_P0_L0": {
            "H": "d5a96c1a2a025bcf62c957f8741f53b9",
            "X_data": "155e437b946ac82ae591ff382b8d19ef",
            "H_I": "e3b0c44298fc1c149afbf4c8996fb924",
            "X_I_data": "e3b0c44298fc1c149afbf4c8996fb924",
            "noise": "6b52c6832f656c90da9cc10bf7f86e94",
        },
        "tau1_qpsk": {
            "H": "2ffd21187fbaf6349945bcfa3a741bb5",
            "X_data": "c202dced822110684afee75b8e4bfb44",
            "H_I": "613bb42dfbe167c81f94d443ce6043c3",
            "X_I_data": "fdf2a83b0c7038afe3595bb6cc97e092",
            "noise": "0acebba8c47280d2af2f7772e5078298",
        },
        "tau1_gaussian_W0": {
            "H": "2ffd21187fbaf6349945bcfa3a741bb5",
            "X_data": "124727ad2cfcbc5d8217820b8465a88f",
            "H_I": "df935effe760dc8413d12ceda4bc84b7",
            "X_I_data": "48995fe86e9555f833f266943874ccd5",
            "noise": "0299f757a85a1aad6cbe1ad2b0eda925",
        },
        "tau2_gaussian": {
            "H": "8e0f519096f4eda369f62a4ee1a926f6",
            "X_data": "a3e07beea639911fe70d8baa0b020507",
            "H_I": "a0504bfb6117581b7f509525d52171dd",
            "X_I_data": "600dca148252edcc369371900466e5f0",
            "noise": "7a06e6cfa5c149530915623eb1237449",
        },
        "tau2_qpsk": {
            "H": "8e0f519096f4eda369f62a4ee1a926f6",
            "X_data": "9b1a92defc4575e1603d53269e661a79",
            "H_I": "10e7a2a22c440fa6622ded65013e4e3b",
            "X_I_data": "cf528e69f5bd33ef19e4b4d31e53dd31",
            "noise": "a060f2156b9077bbeba21e3b3feb4471",
        },
        "fig5_tau1_qpsk": {
            "H": "a1de266374f33f71b0a5c88cb89e825e",
            "X_data": "b768f05fc0e46042d252e94e41996717",
            "H_I": "aa24c1a3ade9677e8e0b43e4218bade9",
            "X_I_data": "cb651889fd353b2fd8d9c9383d050759",
            "noise": "7d5c0112b6a61502e04a6bdee7fb031f",
        },
        "tau1_qpsk_L0": {
            "H": "2ffd21187fbaf6349945bcfa3a741bb5",
            "X_data": "c202dced822110684afee75b8e4bfb44",
            "H_I": "e3b0c44298fc1c149afbf4c8996fb924",
            "X_I_data": "e3b0c44298fc1c149afbf4c8996fb924",
            "noise": "319763fa69326a32c92bf65ac7fbdf4b",
        },
    }

    @staticmethod
    def realization(tau, law, P, W, L, kind, R=24, C=40):
        profile = (InterferenceProfile(kind="flat", I=0.3 * P) if kind == "flat"
                   else InterferenceProfile(kind="modulo", delta=2))
        sys = SystemParams.from_profile(R=R, T=3, C=C, L=L, P=P, W=W, profile=profile)
        return sample_realization(sys, make_pilots(3, 0.1, tau, rng=8), seed=[13, tau],
                                  data_law=law)

    @pytest.mark.parametrize("name", list(CASES))
    def test_digests(self, name):
        rz = self.realization(*self.CASES[name])
        off = rz.pilot_config.pilot_matrix.shape[1]
        parts = {"H": rz.H, "X_data": rz.X[:, off:], "H_I": rz.H_I,
                 "X_I_data": rz.X_I[:, off:], "noise": _draw_noise(rz)}
        got = {k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()[:32]
               for k, v in parts.items()}
        assert all(v.dtype == complex for v in parts.values())
        assert got == self.DIGESTS[name]

    @pytest.mark.parametrize("name", list(CASES))
    def test_assemble_bitwise(self, name):
        rz = self.realization(*self.CASES[name])
        Y = assemble_received(rz)
        assert np.array_equal(Y, (rz.H @ rz.X + _draw_noise(rz)) + rz.H_I @ rz.X_I)

    def test_assemble_bitwise_real_interference(self):
        # hand-built real H_I and X_I of small integers: every entry of
        # H_I X_I is exact whatever the summation order, so Y has one rounding
        rz = self.realization(*self.CASES["tau0_gaussian"])
        H_I = np.arange(24 * 6, dtype=float).reshape(24, 6) % 5 - 2
        X_I = np.arange(6 * 40, dtype=float).reshape(6, 40) % 3 - 1
        Y = assemble_received(dataclasses.replace(rz, H_I=H_I, X_I=X_I))
        assert Y.dtype == complex
        assert np.array_equal(Y, (rz.H @ rz.X + _draw_noise(rz)) + H_I @ X_I)


@pytest.mark.filterwarnings("error")
def test_interference_above_p_accepted():
    # accepted without a warning: every output echoes P and the powers, and the
    # unilateral estimate flags P/I < 2
    sys = SystemParams.from_profile(10, 2, 8, 1, 0.1, 1.0,
                                    InterferenceProfile(kind="flat", I=0.2))
    assert sys.interference_powers == (0.2, 0.2)
