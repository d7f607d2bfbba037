import json
import re

import numpy as np
import pytest

from svdmimo.cli import main
from svdmimo.montecarlo import spectrum_experiment
from svdmimo.system_model import InterferenceProfile, SystemParams


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestCoherence:
    def test_prints_paper_value(self, capsys):
        assert main(["coherence", "--f0-ghz", "2.6", "--delay-us", "5",
                     "--speed-kmh", "350"]) == 0
        out = float(capsys.readouterr().out.strip())
        assert 97 <= out <= 101

    def test_config_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"f0_GHz": 2.6, "delay_spread_us": 5, "speed_kmh": 350})
        assert main(["coherence", "--config", cfg]) == 0
        assert 97 <= float(capsys.readouterr().out.strip()) <= 101


class TestSeparability:
    def test_three_monotone_curves(self, tmp_path, capsys):
        assert main(["separability", "--L", "2,4,7", "--points", "60",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "separability.csv").read_text().splitlines()
        assert lines[1] == "L,beta,max_alpha_over_kappa"
        rows = [line.split(",") for line in lines[2:]]
        for L in ("2", "4", "7"):
            vals = [float(v) for l, b, v in rows if l == L]
            assert len(vals) == 60
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSupport:
    def test_json_all_methods(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json",
                        {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0,
                         "profile": "flat", "I_over_P": 0.25, "seed": 1})
        assert main(["support", "--config", cfg, "--out", str(tmp_path)]) == 0
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
        cfg = write_cfg(tmp_path, "s.json",
                        {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0,
                         "profile": "flat", "I_over_P": 0.25})
        main(["support", "--config", cfg, "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "support.json").read_text())
        cons = doc["cross_method_consistency"]
        assert not cons["flagged"]
        assert 0.8 < cons["signal_lower_ratio"] < 1.2
        assert 0.8 < cons["signal_upper_ratio"] < 1.2

    def test_equal_powers_merged_unilateral(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json",
                        {"R": 300, "T": 3, "C": 1000, "L": 2, "P_dB": -10, "W_dB": 0,
                         "profile": "flat", "I_over_P": 1.0})
        assert main(["support", "--config", cfg, "--out", str(tmp_path)]) == 0
        uni = json.loads((tmp_path / "support.json").read_text())["estimates"][0]
        assert uni["method"] == "unilateral" and not uni["separable"]
        assert uni["flags"] == ["merged", "interference scale factors singular at P = I"]


class TestSpectrum:
    def test_writes_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "sp.json",
                        {"R": 80, "T": 3, "C": 60, "L": 1, "P_dB": -10, "W_dB": 0,
                         "profile": "flat", "I_over_P": 0.25, "n_seeds": 3, "seed": 2})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                     "--grid-points", "120"]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
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

    def test_supports_equal_support_json(self, tmp_path):
        # both commands report the same four estimates, at equal powers too
        cfg = {"R": 80, "T": 3, "C": 60, "L": 1, "P_dB": -10, "W_dB": 0,
               "profile": "flat", "I_over_P": 1.0}
        assert main(["support", "--config", write_cfg(tmp_path, "s.json", cfg),
                     "--out", str(tmp_path)]) == 0
        estimates = json.loads((tmp_path / "support.json").read_text())["estimates"]
        sys = SystemParams.from_profile(R=80, T=3, C=60, L=1, P=0.1, W=1.0,
                                        profile=InterferenceProfile(kind="flat", I=0.1))
        result = spectrum_experiment(sys, n_seeds=1, grid_points=60, seed=2)
        assert [s.to_dict() for s in result.supports] == estimates


class TestBer:
    def test_small_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, "b.json",
                        {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
                         "profile": "flat", "sweep": "I_over_P", "values": [0.2],
                         "taus": [1], "min_symbols": 400, "seed": 4})
        assert main(["ber", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ber.csv").read_text().splitlines()
        assert len(lines) == 4  # header comment, column row, two receivers
        assert '"seed": 4' in lines[0]

    def test_reruns_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "b.json",
                        {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
                         "profile": "flat", "sweep": "I_over_P", "values": [0.2],
                         "min_symbols": 400, "seed": 4})
        main(["ber", "--config", cfg, "--out", str(tmp_path)])
        first = (tmp_path / "ber.csv").read_bytes()
        main(["ber", "--config", cfg, "--out", str(tmp_path)])
        assert (tmp_path / "ber.csv").read_bytes() == first

    def test_r_sweep_base_system_at_first_delta(self, tmp_path):
        # without `delta`, the echoed system is the modulo profile of deltas[0]
        cfg = write_cfg(tmp_path, "b.json",
                        {"R": 20, "T": 2, "C": 30, "L": 1, "P_dB": -10, "W_dB": 0,
                         "sweep": "R", "values": [20], "deltas": [4, 2],
                         "min_symbols": 50, "seed": 1})
        assert main(["ber", "--config", cfg, "--out", str(tmp_path)]) == 0
        header = (tmp_path / "ber.csv").read_text().splitlines()[0]
        system = json.loads(header.removeprefix("# config: "))["system"]
        assert system["interference_powers"] == pytest.approx([0.1 / 8, 0.0])


class TestErrors:
    def test_missing_config_exits_nonzero_with_json(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_bad_values_exit_nonzero(self, tmp_path, capsys):
        ok = {"R": 50, "sweep": "I_over_P", "values": [0.2]}
        for bad, args in (({"R": 0, "sweep": "I_over_P", "values": [0.2]}, []),
                          ({"R": 50, "sweep": "R", "values": [40, 60.7]}, []),
                          (ok, ["--threads", "0"]),
                          (dict(ok, min_symbols=-5), []),
                          (dict(ok, tau_blocks=2), [])):
            cfg = write_cfg(tmp_path, "bad.json",
                            dict({"T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
                                  "profile": "flat"}, **bad))
            assert main(["ber", "--config", cfg, "--out", str(tmp_path)] + args) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

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
            cfg = write_cfg(tmp_path, "bad.json", bad)
            assert main(["support", "--config", cfg, "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError" and message in err["message"], err

    @pytest.mark.parametrize("bad, keys", [
        # the I/P sweep runs the flat profile at each listed I/P
        ({"sweep": "I_over_P", "I_over_P": 0.7}, ["I_over_P"]),
        ({"sweep": "I_over_P", "profile": "modulo", "delta": 3}, ["delta", "profile"]),
        ({"profile": "modulo", "delta": 3}, ["delta", "profile"]),
        # the R sweep with deltas runs the modulo profile of each listed delta
        ({"sweep": "R", "profile": "modulo", "delta": 2, "deltas": [2, 3]}, ["delta"]),
        ({"sweep": "R", "I_over_P": 0.5, "deltas": [2]}, ["I_over_P"]),
        ({"sweep": "R", "profile": "flat", "deltas": [2]}, ["profile"]),
    ], ids=["ip_I_over_P", "ip_modulo", "ip_default_sweep_modulo", "r_delta",
            "r_I_over_P", "r_flat"])
    def test_ber_rejects_keys_its_sweep_replaces(self, tmp_path, capsys, bad, keys):
        cfg = dict({"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
                    "values": [50], "min_symbols": 400}, **bad)
        assert main(["ber", "--config", write_cfg(tmp_path, "b.json", cfg),
                     "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and f"config keys {keys}" in err["message"], err
        assert not (tmp_path / "ber.csv").exists()

    def test_ber_rejects_empty_deltas(self, tmp_path, capsys):
        cfg = {"R": 50, "T": 3, "C": 40, "L": 1, "P_dB": -10, "W_dB": 0,
               "sweep": "R", "values": [50], "deltas": []}
        assert main(["ber", "--config", write_cfg(tmp_path, "b.json", cfg),
                     "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "'deltas'" in err["message"], err

    def test_coherence_rejects_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"f0_GHz": 2.6, "delay_spread_us": 5,
                                             "speed_kmh": 350, "speed_mph": 100})
        assert main(["coherence", "--config", cfg]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "['speed_mph']" in err["message"], err
        assert captured.out == ""
