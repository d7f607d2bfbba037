import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from svdmimo import cli, montecarlo, rmt_spectrum
from svdmimo.bulk_support import support_report
from svdmimo.cli import main
from svdmimo.system_model import InterferenceProfile, SystemParams


def cli_args(tmp_path, command, cfg=None, out=None, **flags):
    """`main`'s argument list for `command`. Every command but `separability`
    reads `cfg` as its `--config`: a path is passed as it is, any other value
    is written as JSON into `tmp_path`. Every command but `coherence` writes
    into `--out`, `tmp_path` unless given. Each flag `name=value` adds
    `--name value`, underscores read as dashes."""
    args = [command]
    if command != "separability":
        if not isinstance(cfg, Path):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(cfg))
            cfg = path
        args += ["--config", str(cfg)]
    if command != "coherence":
        args += ["--out", str(out or tmp_path)]
    for name, value in flags.items():
        args += ["--" + name.replace("_", "-"), str(value)]
    return args


def cli_error(capsys, args):
    """The parsed error of `main(args)`, which must fail by the whole contract:
    exit status 1, nothing on stdout, one line on stderr holding a JSON object
    whose only keys are `error` and `message`, and nothing new under `--out`,
    not even the directory itself."""
    out = Path(args[args.index("--out") + 1]) if "--out" in args else None
    before = listing(out)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
    err = json.loads(captured.err)
    assert isinstance(err, dict) and set(err) == {"error", "message"}, err
    assert listing(out) == before
    return err


def listing(directory):
    """Every path under `directory`, or None when there is no such directory."""
    if directory is None or not directory.exists():
        return None
    return sorted(directory.rglob("*"))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spectrum_lines(tmp_path, cfg, grid_points=100):
    """The lines of the spectrum.csv that `cfg` gives."""
    assert main(cli_args(tmp_path, "spectrum", cfg, grid_points=grid_points)) == 0
    return (tmp_path / "spectrum.csv").read_text().splitlines()


def support_lines(lines):
    """The estimates of a spectrum.csv's `# support:` lines."""
    return [json.loads(line.removeprefix("# support: "))
            for line in lines if line.startswith("# support: ")]


class TestCoherence:
    def test_config_file(self, tmp_path, capsys):
        # the paper's bullet-train point; the config is the one way to give it
        cfg = {"f0_GHz": 2.6, "delay_spread_us": 5, "speed_kmh": 350}
        assert main(cli_args(tmp_path, "coherence", cfg)) == 0
        assert 97 <= float(capsys.readouterr().out.strip()) <= 101
        with pytest.raises(SystemExit):
            main(["coherence", "--f0-ghz", "2.6", "--delay-us", "5", "--speed-kmh", "350"])

    @pytest.mark.parametrize("cfg, message", [
        ({"f0_GHz": 2.6, "delay_spread_us": 5, "speed_kmh": 1e-320},
         "coherence time is no finite number of symbols above 0"),
        ({"f0_GHz": 1e-300, "delay_spread_us": 1e-300, "speed_kmh": 350},
         "coherence time is no finite number of symbols above 0"),
        ({"f0_GHz": 1e308, "delay_spread_us": 5, "speed_kmh": 350},
         "config key 'f0_GHz' is too large a frequency: 1e+308 GHz"),
        ({"f0_GHz": 2.6, "delay_spread_us": 5, "speed_kmh": 5e-324},
         "config key 'speed_kmh' is too small a speed: 5e-324 km/h"),
        ({"f0_GHz": 2.6, "delay_spread_us": 5e-320, "speed_kmh": 350},
         "config key 'delay_spread_us' is too small a delay spread: 5e-320 us"),
        ({"f0_GHz": 2.6, "delay_spread_us": 5, "speed_kmh": -350},
         "config key 'speed_kmh' is too small a speed: -350 km/h"),
    ], ids=["speed_underflows", "f0_tau_underflows", "f0_overflows", "speed_to_0",
            "delay_spread_to_0", "negative_speed"])
    def test_prints_a_finite_count_or_fails(self, tmp_path, capsys, cfg, message):
        # the first printed inf and exited 0, the second raised ZeroDivisionError,
        # and the others named carrier_frequency, mobile_speed and delay_spread,
        # not their config keys
        err = cli_error(capsys, cli_args(tmp_path, "coherence", cfg))
        assert err["error"] == "ValueError" and err["message"].startswith(message), err


class TestSeparability:
    def test_three_monotone_curves(self, tmp_path, capsys):
        assert main(cli_args(tmp_path, "separability", L="2,4,7", points=60)) == 0
        lines = (tmp_path / "separability.csv").read_text().splitlines()
        assert lines[1] == "L,beta,max_alpha_over_kappa"
        rows = [line.split(",") for line in lines[2:]]
        for L in ("2", "4", "7"):
            vals = [float(v) for l, b, v in rows if l == L]
            assert len(vals) == 60
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_frozen_csv_digest(self, tmp_path, capsys):
        # every byte of the header and of the rows' .17g numbers
        assert main(cli_args(tmp_path, "separability", L="2,4,7")) == 0
        assert sha256(tmp_path / "separability.csv") == (
            "8d96a806e21896b9147987ab424a8e9529470e8ea4cda5c43dc3fb4f44ae2b1a")

    @pytest.mark.parametrize("args, flag", [
        ({"points": "0"}, "--points"), ({"points": "1"}, "--points"),
        ({"L": "0"}, "--L"), ({"L": "-1"}, "--L"), ({"L": "2,0,7"}, "--L"),
        ({"L": "2,x"}, "--L"),
    ])
    def test_rejects_points_below_two_and_L_below_one(self, tmp_path, capsys, args, flag):
        # a CSV with no rows or a curve without interfering cells is no boundary
        err = cli_error(capsys, cli_args(tmp_path, "separability", **args))
        assert err["error"] == "ValueError" and err["message"].startswith(flag + " "), err


class TestSupport:
    def test_json_all_methods(self, tmp_path):
        # `n_seeds` is accepted: `support` shares its config file with `spectrum`
        cfg = {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": 0.25, "n_seeds": 20, "seed": 1}
        assert main(cli_args(tmp_path, "support", cfg)) == 0
        doc = json.loads((tmp_path / "support.json").read_text())
        methods = {e["method"] for e in doc["estimates"]}
        assert methods == {"unilateral", "bilateral_highSNR_1", "bilateral_highSNR_2",
                           "bilateral_general"}
        assert abs(doc["thresholds"]["unilateral_I_over_P"] - 0.61) <= 0.02
        assert abs(doc["thresholds"]["bilateral_boundary_I_over_P"] - 0.78) <= 0.01
        assert doc["resolved"]["P"] == pytest.approx(0.1)
        assert doc["seed"] == 1

    def test_cross_method_consistency_fig2(self, tmp_path):
        # unilateral (scaled) and bilateral intervals agree within tolerance
        cfg = {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": 0.25}
        main(cli_args(tmp_path, "support", cfg))
        doc = json.loads((tmp_path / "support.json").read_text())
        cons = doc["cross_method_consistency"]
        assert not cons["flagged"]
        assert 0.8 < cons["signal_lower_ratio"] < 1.2
        assert 0.8 < cons["signal_upper_ratio"] < 1.2

    def test_equal_powers_merged_unilateral(self, tmp_path):
        cfg = {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": 1.0}
        assert main(cli_args(tmp_path, "support", cfg)) == 0
        uni = json.loads((tmp_path / "support.json").read_text())["estimates"][0]
        assert uni["method"] == "unilateral" and not uni["separable"]
        assert uni["flags"] == ["merged", "interference scale factors singular at P = I"]

    def test_interference_above_power_runs_silently(self, tmp_path, capsys):
        # I > P: any warning would fail the run, and stderr stays empty
        cfg = {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": 1.2}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(cli_args(tmp_path, "support", cfg)) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "support.json").exists()

    def test_unilateral_regime_error_reported(self, tmp_path):
        # alpha = 1/4: 1 - 2 sqrt(alpha (1 + 1/kappa)) < 0, so the unilateral
        # rule gives no threshold; the rest of the document is still written
        cfg = {"R": 12, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0, "I_over_P": 0.3}
        assert main(cli_args(tmp_path, "support", cfg)) == 0
        doc = json.loads((tmp_path / "support.json").read_text())
        thresholds = doc["thresholds"]
        assert set(thresholds) == {"unilateral_error", "bilateral_boundary_I_over_P"}
        assert thresholds["unilateral_error"].startswith("1 - 2 sqrt(alpha (1 + 1/kappa)) <= 0")
        assert len(doc["estimates"]) == 4
        report = support_report(SystemParams(**doc["resolved"]))
        assert report["thresholds"]["unilateral_error"] == thresholds["unilateral_error"]

    @pytest.mark.parametrize("cfg, digest", [
        ({"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0,
          "profile": "flat", "I_over_P": 0.25},
         "b36d34617866ccb1d2e0ee7729b55551e9863ec1f81f790e18e221a6ecb38495"),
        # unequal interference powers: t is taken at the largest of them
        ({"R": 100, "T": 5, "C": 100, "L": 6, "P_dB": -10, "W_dB": 0,
          "profile": "modulo", "delta": 2},
         "1b27c1eceda949b546f4f378d87f49fe1f435725add9719eca7ccef98316e39d"),
    ], ids=["fig2_flat", "fig4_modulo"])
    def test_frozen_json_digest(self, tmp_path, cfg, digest):
        # every byte of support.json: estimates, thresholds and the echoed system;
        # all but the echo is the library's support report of that system
        assert main(cli_args(tmp_path, "support", cfg)) == 0
        assert sha256(tmp_path / "support.json") == digest
        doc = json.loads((tmp_path / "support.json").read_text())
        echo = {key: doc.pop(key) for key in ("config", "resolved", "seed")}
        assert support_report(SystemParams(**echo["resolved"])) == doc

    def test_echoes_a_negative_seed(self, tmp_path):
        # `support` draws nothing, so any integer seed is only echoed
        cfg = {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0, "seed": -1}
        assert main(cli_args(tmp_path, "support", cfg)) == 0
        assert json.loads((tmp_path / "support.json").read_text())["seed"] == -1


class TestSpectrum:
    def test_writes_csv(self, tmp_path):
        cfg = {"R": 80, "T": 3, "C": 60, "L": 1, "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": 0.25, "n_seeds": 3, "seed": 2}
        lines = spectrum_lines(tmp_path, cfg, grid_points=120)
        assert lines[0].startswith("# config: ")
        idx = lines.index("x,density,empirical")
        # every `# key=value` header holds a plain number, the default y_offset too
        values = [re.fullmatch(r"# (\w+)=(.*)", line) for line in lines[:idx]]
        assert [m[1] for m in values if m] == ["kappa", "atom", "scale", "y_offset"]
        for m in filter(None, values):
            float(m[2])
        data = np.array([[float(v) for v in line.split(",")] for line in lines[idx + 1:]])
        assert data.shape == (120, 3)
        assert np.all(data[:, 1] >= 0)

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_rejects_grid_points_below_two(self, tmp_path, capsys, points):
        # 1 and 0 failed with the density grid's message, -3 with numpy's
        cfg = {"R": 80, "T": 3, "C": 60, "L": 1, "P_dB": -10, "W_dB": 0, "I_over_P": 0.25,
               "n_seeds": 1}
        err = cli_error(capsys, cli_args(tmp_path, "spectrum", cfg, grid_points=points))
        assert err == {"error": "ValueError", "message": f"--grid-points must be >= 2: {points}"}

    def test_frozen_csv_digest(self, tmp_path):
        # reruns keep every byte, header and columns, whatever the BLAS
        # thread count: the eigenvalues come from the herk Gram matrix of
        # signal_subspace, and the grid spans their extremes
        cfg = {"R": 80, "T": 3, "C": 60, "L": 1, "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": 0.25, "n_seeds": 3, "seed": 2}
        spectrum_lines(tmp_path, cfg, grid_points=120)
        assert sha256(tmp_path / "spectrum.csv") == (
            "b1adfbfa8b3ac84f1c1f6741e2d269c2f81caaf4209024f11a3ae3411b9bdea4")

    def test_empirical_column_is_the_library_overlay(self, tmp_path):
        cfg = {"R": 80, "T": 3, "C": 60, "L": 1, "P_dB": -10, "W_dB": 0,
               "I_over_P": 0.25, "n_seeds": 3, "seed": 2}
        lines = spectrum_lines(tmp_path, cfg, grid_points=120)
        resolved = json.loads(lines[0].removeprefix("# config: "))["resolved"]
        result = montecarlo.spectrum_experiment(SystemParams(**resolved), n_seeds=3,
                                                grid_points=120, seed=2)
        rows = lines[lines.index("x,density,empirical") + 1:]
        assert [float(row.split(",")[2]) for row in rows] == result.empirical.tolist()

    def test_supports_equal_support_json(self, tmp_path):
        # both commands report the same four estimates, at equal powers too
        cfg = {"R": 80, "T": 3, "C": 60, "L": 1, "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": 1.0, "n_seeds": 1, "seed": 2}
        assert main(cli_args(tmp_path, "support", cfg)) == 0
        estimates = json.loads((tmp_path / "support.json").read_text())["estimates"]
        assert len(estimates) == 4
        assert support_lines(spectrum_lines(tmp_path, cfg, grid_points=60)) == estimates

    def test_csv_header_lines(self, tmp_path):
        lines = spectrum_lines(tmp_path, {"R": 80, "T": 3, "C": 60, "L": 2, "P_dB": -10,
                                          "W_dB": 0, "I_over_P": 0.25, "n_seeds": 2,
                                          "seed": 12})
        assert any(line.startswith("# kappa=") for line in lines)
        assert any(line.startswith("# atom=") for line in lines)
        assert any(line.startswith("# support: ") for line in lines)
        header_idx = lines.index("x,density,empirical")
        assert len(lines) > header_idx + 50

    def test_supports_attached_when_interference_present(self, tmp_path):
        lines = spectrum_lines(tmp_path, {"R": 100, "T": 3, "C": 120, "L": 2, "P_dB": -10,
                                          "W_dB": 0, "I_over_P": 0.25, "n_seeds": 3,
                                          "seed": 6}, grid_points=150)
        methods = {e["method"] for e in support_lines(lines)}
        assert "bilateral_general" in methods and "unilateral" in methods

    @pytest.mark.parametrize("cfg", [{"L": 0}, {"L": 1, "I_over_P": 0}],
                             ids=["no_cells", "no_power"])
    def test_no_supports_without_interference(self, tmp_path, cfg):
        # the estimates need an interference power; without one the file
        # still holds the density and the empirical column
        lines = spectrum_lines(tmp_path, dict({"R": 80, "T": 3, "C": 60, "P_dB": -10,
                                               "W_dB": 0, "n_seeds": 2, "seed": 4}, **cfg))
        assert support_lines(lines) == []
        assert len(lines) == lines.index("x,density,empirical") + 1 + 100


class TestBer:
    def test_small_sweep(self, tmp_path):
        cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0, "profile": "flat",
               "I_over_P": [0.2], "taus": [1], "min_symbols": 400, "seed": 4}
        assert main(cli_args(tmp_path, "ber", cfg)) == 0
        lines = (tmp_path / "ber.csv").read_text().splitlines()
        assert len(lines) == 4  # header comment, column row, two receivers
        assert '"seed": 4' in lines[0]

    def test_csv_header_and_rows(self, tmp_path):
        cfg = {"R": 60, "T": 3, "C": 40, "L": 2, "P_dB": -10, "W_dB": 0,
               "I_over_P": [0.2], "min_symbols": 300, "seed": 11}
        assert main(cli_args(tmp_path, "ber", cfg)) == 0
        text = (tmp_path / "ber.csv").read_text().splitlines()
        sys = SystemParams.from_profile(R=60, T=3, C=40, L=2, P=0.1, W=1.0,
                                        profile=InterferenceProfile(kind="flat", I=0.02))
        points, _ = montecarlo.ber_vs_IP(montecarlo.ExperimentConfig(
            system=sys, sweep="I_over_P", values=(0.2,), min_symbols=300, seed=11))
        assert text[0].startswith("# config: ") and '"seed": 11' in text[0]
        assert text[1] == "sweep_value,receiver,tau,delta,ber,errors,bits,ci"
        assert len(text) == 2 + len(points)
        assert [int(row.split(",")[5]) for row in text[2:]] == [p.errors for p in points]

    @pytest.mark.parametrize("cfg, digest", [
        ({"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0, "I_over_P": [0.2, 0.6],
          "taus": [1, 2], "min_symbols": 400, "seed": 4},
         "48f643d41bd204a88c2b6581a441a675c8ac325fe34223b860a20f2df20ede0d"),
        ({"R": [20, 30], "T": 2, "C": 30, "L": 1, "P_dB": -10, "W_dB": 0,
          "profile": "modulo", "delta": [4, 2], "min_symbols": 50, "seed": 1},
         "ce0afe73c24ae7d160a24c4468459548d32587b0116f96b25f1769c7ebf0c54c"),
    ], ids=["ip_two_taus", "r_two_deltas"])
    def test_frozen_csv_digest(self, tmp_path, cfg, digest):
        # every byte, whatever the BLAS thread count: the echoed config, the
        # empty and the integer delta cells, and the .17g BERs and intervals
        assert main(cli_args(tmp_path, "ber", cfg)) == 0
        assert sha256(tmp_path / "ber.csv") == digest

    def test_reruns_bit_identical(self, tmp_path):
        args = cli_args(tmp_path, "ber", {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10,
                                          "W_dB": 0, "profile": "flat", "I_over_P": [0.2],
                                          "min_symbols": 400, "seed": 4})
        main(args)
        first = (tmp_path / "ber.csv").read_bytes()
        main(args)
        assert (tmp_path / "ber.csv").read_bytes() == first

    def test_r_sweep_base_system_at_first_delta(self, tmp_path):
        # the echoed system is the modulo profile of the first listed delta
        cfg = {"R": [20], "T": 2, "C": 30, "L": 1, "P_dB": -10, "W_dB": 0,
               "profile": "modulo", "delta": [4, 2], "min_symbols": 50, "seed": 1}
        assert main(cli_args(tmp_path, "ber", cfg)) == 0
        header = (tmp_path / "ber.csv").read_text().splitlines()[0]
        system = json.loads(header.removeprefix("# config: "))["system"]
        assert system["interference_powers"] == pytest.approx([0.1 / 8, 0.0])

    def test_ip_sweep_echoes_first_point_system(self, tmp_path):
        # the echoed system is the flat profile at the first listed I/P, not the default
        cfg = {"R": 20, "T": 2, "C": 30, "L": 1, "P_dB": -10, "W_dB": 0,
               "I_over_P": [0.6, 0.2], "min_symbols": 50, "seed": 1}
        assert main(cli_args(tmp_path, "ber", cfg)) == 0
        header = (tmp_path / "ber.csv").read_text().splitlines()[0]
        system = json.loads(header.removeprefix("# config: "))["system"]
        assert system["interference_powers"] == pytest.approx([0.06, 0.06])

    def test_r_sweep_echoes_first_listed_R(self, tmp_path):
        # the echoed system is the first point's, R included; a scalar delta
        # is the base profile of the one curve, whose rows leave delta empty
        cfg = {"R": [30, 20], "T": 2, "C": 30, "L": 1, "P_dB": -10, "W_dB": 0,
               "profile": "modulo", "delta": 4, "min_symbols": 50, "seed": 1}
        assert main(cli_args(tmp_path, "ber", cfg)) == 0
        lines = (tmp_path / "ber.csv").read_text().splitlines()
        header = json.loads(lines[0].removeprefix("# config: "))
        assert header["system"]["R"] == 30
        assert header["system"]["interference_powers"] == pytest.approx([0.1 / 8, 0.0])
        assert [row.split(",")[:4] for row in lines[2:]] == [
            [R, rec, "1", ""] for R in ("30", "20") for rec in ("svd", "conventional")]


class TestErrors:
    @pytest.mark.parametrize("cfg, kind", [
        (5, "int"), (None, "NoneType"), ("R", "str"),
        (["R", "T", "C", "L", "P_dB", "W_dB"], "list"), ([1, 2], "list"),
    ], ids=["number", "null", "string", "key_list", "number_list"])
    def test_rejects_a_config_that_is_no_json_object(self, tmp_path, capsys, cfg, kind):
        # 5 and null raised a TypeError, a string was read as its characters
        # and a list as its entries, naming no problem with the document
        assert cli_error(capsys, cli_args(tmp_path, "support", cfg)) == {
            "error": "ValueError", "message": f"config must be a JSON object, not {kind}"}

    @pytest.mark.parametrize("command, extra", [
        ("support", ""), ("ber", ', "I_over_P": [0.2], "min_symbols": 50'),
    ], ids=["support", "ber"])
    def test_rejects_a_repeated_key(self, tmp_path, capsys, command, extra):
        # the last value won: R = 300 ran, and the echoed config showed only it
        path = tmp_path / "dup.json"
        path.write_text('{"R": 12, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0'
                        + extra + ', "R": 300}')
        assert cli_error(capsys, cli_args(tmp_path, command, path)) == {
            "error": "ValueError", "message": "config key 'R' is given more than once"}

    @pytest.mark.parametrize("command", ["ber", "spectrum"])
    def test_rejects_a_negative_seed(self, tmp_path, capsys, command):
        # numpy rejected it while drawing, naming no key
        cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0, "seed": -1,
               "I_over_P": [0.2] if command == "ber" else 0.2}
        assert cli_error(capsys, cli_args(tmp_path, command, cfg)) == {
            "error": "ValueError", "message": "seed must be >= 0: -1"}

    def test_missing_config_exits_nonzero_with_json(self, tmp_path, capsys):
        err = cli_error(capsys, cli_args(tmp_path, "spectrum", tmp_path / "nope.json"))
        assert err["error"] == "FileNotFoundError", err

    def test_bad_values_exit_nonzero(self, tmp_path, capsys):
        ok = {"R": 50, "I_over_P": [0.2]}
        for bad, flags in (({"R": 0, "I_over_P": [0.2]}, {}),
                           ({"R": [40, 60.7]}, {}),
                           (ok, {"threads": 0}),
                           (dict(ok, min_symbols=-5), {}),
                           (dict(ok, tau_blocks=2), {})):
            cfg = dict({"T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0, "profile": "flat"},
                       **bad)
            err = cli_error(capsys, cli_args(tmp_path, "ber", cfg, **flags))
            assert err["error"] == "ValueError", err

    def test_bad_support_configs_exit_nonzero(self, tmp_path, capsys):
        fig2 = {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0, "profile": "flat"}
        no_p = {k: v for k, v in fig2.items() if k != "P_dB"}
        for bad, message in ((dict(fig2, I_overP=0.5), "unknown config keys ['I_overP']"),
                             (dict(no_p, P=0.1), "unknown config keys ['P']"),
                             (dict(fig2, I=0.05), "unknown config keys ['I']"),
                             (dict(fig2, I_over_P=0), "interference power > 0"),
                             (dict(fig2, profile="modulus", delta=2), "unknown profile kind"),
                             (dict(fig2, delta=4), "'delta' does not apply to profile 'flat'"),
                             (dict(fig2, profile="modulo", delta=4, I_over_P=0.5),
                              "'I_over_P' does not apply to profile 'modulo'")):
            err = cli_error(capsys, cli_args(tmp_path, "support", bad))
            assert err["error"] == "ValueError" and message in err["message"], err

    def test_support_refuses_a_non_finite_endpoint(self, tmp_path, capsys):
        # the first-order estimate meets a pole of s1_inverse here; its signal
        # lower endpoint is -inf, which support.json once held as -Infinity
        cfg = {"R": 231, "T": 7, "C": 2536, "L": 4, "P_dB": 821.8836657490929,
               "W_dB": -1051.1961171948174, "profile": "flat",
               "I_over_P": 0.0060807064873423375}
        err = cli_error(capsys, cli_args(tmp_path, "support", cfg))
        assert err["error"] == "ValueError", err
        assert err["message"].startswith("refused to write a non-finite number"), err

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_writers_refuse_non_finite_numbers(self, x):
        # a CSV cell, and every JSON document or line the commands write
        for write, value in ((cli._fmt, x), (cli._json, {"x": [x]})):
            with pytest.raises(ValueError, match="^refused to write a non-finite number"):
                write(value)

    @pytest.mark.parametrize("bad, key", [
        # each listed key runs at its first entry, so profile exclusivity
        # rejects a profile key next to the other profile
        ({"I_over_P": [0.5], "profile": "modulo", "delta": 3}, "I_over_P"),
        ({"I_over_P": [0.5], "delta": 3}, "delta"),
        ({"R": [50], "profile": "modulo", "I_over_P": 0.5, "delta": [2]}, "I_over_P"),
        ({"R": [50], "profile": "flat", "delta": [2]}, "delta"),
    ], ids=["ip_modulo", "ip_default_sweep_modulo", "r_I_over_P", "r_flat"])
    def test_ber_rejects_keys_its_sweep_replaces(self, tmp_path, capsys, bad, key):
        cfg = dict({"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
                    "min_symbols": 400}, **bad)
        err = cli_error(capsys, cli_args(tmp_path, "ber", cfg))
        assert err["error"] == "ValueError", err
        assert f"config key {key!r} does not apply to profile" in err["message"], err

    def test_ber_rejects_empty_deltas(self, tmp_path, capsys):
        cfg = {"R": [50], "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
               "profile": "modulo", "delta": []}
        err = cli_error(capsys, cli_args(tmp_path, "ber", cfg))
        assert err["error"] == "ValueError" and "'delta'" in err["message"], err

    def test_ber_rejects_empty_values(self, tmp_path, capsys):
        cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
               "I_over_P": []}
        err = cli_error(capsys, cli_args(tmp_path, "ber", cfg))
        assert err["error"] == "ValueError" and "sweep value" in err["message"], err

    @pytest.mark.parametrize("listed, keys", [
        ({"R": [50, 60], "I_over_P": [0.2]}, ["I_over_P", "R"]),
        ({"R": []}, ["R"]),
        ({"R": 50, "profile": "modulo", "delta": [2, 3]}, ["delta"]),
        ({"R": 50, "I_over_P": 0.2}, []),
    ], ids=["two_sweeps", "empty", "delta_without_R", "no_sweep"])
    def test_ber_needs_one_nonempty_sweep(self, tmp_path, capsys, listed, keys):
        cfg = dict({"T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0, "min_symbols": 400},
                   **listed)
        err = cli_error(capsys, cli_args(tmp_path, "ber", cfg))
        assert err["error"] == "ValueError", err
        assert err["message"].startswith(f"config keys {keys} are not one sweep"), err

    @pytest.mark.parametrize("command", ["ber", "spectrum", "support"])
    def test_rejects_a_list_on_a_one_value_key(self, tmp_path, capsys, command):
        cfg = {"R": 50, "T": 3, "C": 40, "L": [1, 2], "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": [0.2] if command == "ber" else 0.2}
        err = cli_error(capsys, cli_args(tmp_path, command, cfg))
        assert err["error"] == "ValueError", err
        assert "config keys ['L'] take one value, not a list" in err["message"], err

    def test_ber_rejects_pilots_filling_the_block_before_any_block(self, tmp_path, capsys,
                                                                   monkeypatch):
        def no_block(*args):
            raise AssertionError("a block ran")
        monkeypatch.setattr(montecarlo, "_run_realization", no_block)
        cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
               "I_over_P": [0.2], "taus": [1, 20]}
        err = cli_error(capsys, cli_args(tmp_path, "ber", cfg))
        assert err["error"] == "ValueError" and "no data columns" in err["message"], err

    def test_ber_rejects_R_below_T_before_any_block(self, tmp_path, capsys, monkeypatch):
        # ran every R = 400 block, then failed naming T_sel, not R
        def no_block(*args):
            raise AssertionError("a block ran")
        monkeypatch.setattr(montecarlo, "_run_realization", no_block)
        cfg = {"R": [400, 2], "T": 3, "C": 1000, "L": 1, "P_dB": -10, "W_dB": 0,
               "I_over_P": 0.2, "min_symbols": 30_000}
        assert cli_error(capsys, cli_args(tmp_path, "ber", cfg)) == {
            "error": "ValueError", "message": "R must be >= T = 3: 2"}

    def test_spectrum_without_power_exits_with_json(self, tmp_path, capsys):
        # -4000 dB underflows to 0 W: every eigenvalue is 0, and the empty
        # spectrum raised a bare IndexError
        cfg = {"R": 20, "T": 2, "C": 30, "L": 0, "P_dB": -4000, "W_dB": -4000, "n_seeds": 2}
        err = cli_error(capsys, cli_args(tmp_path, "spectrum", cfg))
        assert err["error"] == "ValueError", err
        assert err["message"].startswith("every eigenvalue is 0"), err

    def test_spectrum_solver_failure_exits_with_json(self, tmp_path, capsys, monkeypatch):
        # no grid point can meet a negative solver tolerance
        monkeypatch.setattr(rmt_spectrum, "_TOL", -1.0)
        cfg = {"R": 20, "T": 2, "C": 30, "L": 1, "P_dB": -10, "W_dB": 0, "n_seeds": 2}
        err = cli_error(capsys, cli_args(tmp_path, "spectrum", cfg))
        assert err["error"] == "StieltjesSolverError", err
        assert err["message"].startswith("no Herglotz solution found at s="), err

    @pytest.mark.parametrize("command, key, value", [
        ("ber", "taus", []), ("ber", "taus", [0]), ("spectrum", "n_seeds", 0)])
    def test_rejects_counts_below_one(self, tmp_path, capsys, command, key, value):
        cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0, "profile": "flat",
               key: value}
        if command == "ber":
            cfg.update(I_over_P=[0.2], min_symbols=400)
        err = cli_error(capsys, cli_args(tmp_path, command, cfg))
        assert err["error"] == "ValueError" and err["message"].startswith(f"{key} must "), err

    @pytest.mark.parametrize("command, key, value", [
        *((cmd, key, value) for cmd in ("support", "spectrum")
          for key, value in (("sweep", "R"), ("values", [50]), ("taus", [1]),
                             ("deltas", [5]), ("min_symbols", 7))),
        ("ber", "n_seeds", 20),
        *(("ber", key, value) for key, value in (("sweep", "R"), ("values", [50]),
                                                 ("deltas", [5]))),
    ])
    def test_rejects_keys_of_another_command(self, tmp_path, capsys, command, key, value):
        # a key only another command reads, or one no command reads (`sweep`,
        # `values`, `deltas`: a `ber` config lists the swept key itself),
        # would be accepted and have no effect
        cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0, "profile": "flat",
               "seed": 7, key: value}
        if command == "ber":
            cfg.update(I_over_P=[0.2], min_symbols=400)
        err = cli_error(capsys, cli_args(tmp_path, command, cfg))
        assert err["error"] == "ValueError", err
        assert f"unknown config keys [{key!r}]" in err["message"], err

    @pytest.mark.parametrize("command, key, value", [
        ("ber", "taus", 2), ("ber", "taus", [1.5]), ("ber", "taus", [True]),
        ("ber", "min_symbols", 50.5), ("ber", "R", [20, 40.5]), ("ber", "seed", 1.5),
        ("spectrum", "R", 20.5), ("spectrum", "n_seeds", 2.5), ("spectrum", "T", 3.0),
        ("support", "L", 1.5), ("support", "R", 20.5), ("support", "C", True),
    ])
    def test_rejects_non_integer_counts(self, tmp_path, capsys, command, key, value):
        # a float count failed deep inside numpy, naming no key, or (`support`
        # with a fractional R) ran for a system that cannot exist
        cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0, "profile": "flat",
               "I_over_P": [0.2] if command == "ber" else 0.2, key: value}
        err = cli_error(capsys, cli_args(tmp_path, command, cfg))
        assert err["error"] == "ValueError", err
        assert err["message"].startswith(f"config key {key!r} takes"), err

    @pytest.mark.parametrize("command, key, value", [
        ("support", "P_dB", True), ("support", "P_dB", "-10"), ("spectrum", "W_dB", float("inf")),
        ("support", "I_over_P", float("nan")), ("ber", "I_over_P", [0.2, "0.4"]),
        ("ber", "delta", ["4"]), ("spectrum", "delta", None),
        ("coherence", "f0_GHz", "2.6"), ("coherence", "speed_kmh", float("-inf")),
        ("coherence", "delay_spread_us", False),
    ])
    def test_rejects_real_keys_that_are_no_finite_number(self, tmp_path, capsys, command, key,
                                                        value):
        # `"P_dB": true` ran at P = 1 dB; a string, NaN or Infinity failed
        # inside the computation with an error naming no key
        if command == "coherence":
            cfg = {"f0_GHz": 2.6, "delay_spread_us": 5, "speed_kmh": 350, key: value}
        else:
            cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
                   "I_over_P": [0.2] if command == "ber" else 0.2, key: value}
            if key == "delta":
                cfg = dict({k: v for k, v in cfg.items() if k != "I_over_P"}, profile="modulo",
                           R=[50] if command == "ber" else 50)
        err = cli_error(capsys, cli_args(tmp_path, command, cfg))
        assert err["error"] == "ValueError", err
        assert err["message"].startswith(f"config key {key!r} takes finite numbers"), err

    @pytest.mark.parametrize("command, key", [
        ("support", "P_dB"), ("spectrum", "W_dB"), ("ber", "R"), ("support", "L"),
        ("coherence", "speed_kmh"), ("support", "W_dB")])
    def test_rejects_a_missing_required_key(self, tmp_path, capsys, command, key):
        # a missing P_dB failed with {"error": "KeyError", "message": "'P_dB'"}
        if command == "coherence":
            cfg = {"f0_GHz": 2.6, "delay_spread_us": 5, "speed_kmh": 350}
        else:
            cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
                   "I_over_P": [0.2] if command == "ber" else 0.2}
        del cfg[key]
        assert cli_error(capsys, cli_args(tmp_path, command, cfg)) == {
            "error": "ValueError", "message": f"missing config keys [{key!r}]"}

    def test_coherence_rejects_unknown_key(self, tmp_path, capsys):
        cfg = {"f0_GHz": 2.6, "delay_spread_us": 5, "speed_kmh": 350, "speed_mph": 100}
        err = cli_error(capsys, cli_args(tmp_path, "coherence", cfg))
        assert err["error"] == "ValueError" and "['speed_mph']" in err["message"], err

    @pytest.mark.parametrize("key", ["P_dB", "W_dB"])
    def test_rejects_a_dB_power_that_overflows(self, tmp_path, capsys, key):
        # 10^(4000/10) raised an OverflowError naming no key
        cfg = dict({"R": 40, "T": 2, "C": 30, "L": 1, "P_dB": 0, "W_dB": 0}, **{key: 4000})
        assert cli_error(capsys, cli_args(tmp_path, "support", cfg)) == {
            "error": "ValueError", "message": f"config key {key!r} is too large a power: 4000 dB"}

    @pytest.mark.parametrize("profile", [{}, 5, None, "nope"],
                             ids=["object", "number", "null", "unknown"])
    def test_rejects_a_profile_that_is_no_kind(self, tmp_path, capsys, profile):
        # {} raised "unhashable type: 'dict'"; 5, null and "nope" named no key
        cfg = {"R": 40, "T": 2, "C": 30, "L": 1, "P_dB": -10, "W_dB": 0, "profile": profile}
        assert cli_error(capsys, cli_args(tmp_path, "support", cfg)) == {
            "error": "ValueError", "message": f"unknown profile kind {profile!r}: config key "
                                              "'profile' takes 'flat' or 'modulo'"}


class TestOutDirectory:
    def test_failed_run_creates_no_directory(self, tmp_path, capsys):
        # `--out` was created before the command read its config, and stayed empty
        cfg = {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "I_over_P": 0.25}
        args = cli_args(tmp_path, "support", cfg, out=tmp_path / "new" / "sub")
        assert cli_error(capsys, args) == {
            "error": "ValueError", "message": "missing config keys ['W_dB']"}
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command, name", [("support", "support.json"),
                                               ("separability", "separability.csv")])
    def test_successful_run_creates_its_directory(self, tmp_path, command, name):
        # support.json and the CSV files each create the directory they write into
        cfg = {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0, "I_over_P": 0.25}
        out = tmp_path / "new" / "sub"
        flags = {"points": 2} if command == "separability" else {}
        assert main(cli_args(tmp_path, command, cfg, out=out, **flags)) == 0
        assert [path.name for path in out.iterdir()] == [name]
