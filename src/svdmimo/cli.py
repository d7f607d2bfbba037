"""Batch command-line front end: binds JSON configs to experiments, emits CSV/JSON.

The `spectrum`, `support` and `ber` configs share one key set, _CONFIG_KEYS,
and `coherence` reads _COHERENCE_KEYS; any other key raises ValueError, and so
does a profile key given with the other profile (`delta` applies to `modulo`,
`I_over_P` to `flat`) or a profile key that a `ber` sweep replaces. Powers
are given in dB (`P_dB`, `W_dB`) and converted to linear exactly once here;
all internal math is linear. Unit conversions (GHz, us, km/h) also happen only
at this boundary. Every output embeds the resolved configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import bulk_support, montecarlo
from .system_model import (InterferenceProfile, RadioParams, SystemParams,
                           coherence_symbols, derive_params)

# every key that the spectrum, support or ber command reads from its config
_CONFIG_KEYS = frozenset({"R", "T", "C", "L", "P_dB", "W_dB", "profile", "I_over_P", "delta",
                          "seed", "n_seeds", "sweep", "values", "taus", "deltas",
                          "min_symbols"})
_COHERENCE_KEYS = frozenset({"f0_GHz", "delay_spread_us", "speed_kmh"})


def _db_to_linear(x):
    return 10.0 ** (x / 10.0)


def _load_config(path, keys=_CONFIG_KEYS):
    """The JSON config at `path`; raises ValueError naming any key outside `keys`."""
    with open(path) as fh:
        cfg = json.load(fh)
    unknown = sorted(set(cfg) - keys)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; accepted: {sorted(keys)}")
    return cfg


def _system_from_config(cfg):
    P, W = _db_to_linear(cfg["P_dB"]), _db_to_linear(cfg["W_dB"])
    kind = cfg.get("profile", "flat")
    other = {"flat": "delta", "modulo": "I_over_P"}.get(kind)
    if other in cfg:
        raise ValueError(f"config key {other!r} does not apply to profile {kind!r}")
    if kind == "flat":
        profile = InterferenceProfile(kind="flat", I=cfg.get("I_over_P", 0.25) * P)
    else:
        profile = InterferenceProfile(kind=kind, delta=cfg.get("delta"))
    return SystemParams.from_profile(R=cfg["R"], T=cfg["T"], C=cfg["C"], L=cfg["L"],
                                     P=P, W=W, profile=profile)


def _resolved(cfg, sys_params, seed):
    return {
        "config": cfg,
        "resolved": {"R": sys_params.R, "T": sys_params.T, "C": sys_params.C,
                     "L": sys_params.L, "P": sys_params.P, "W": sys_params.W,
                     "interference_powers": list(sys_params.interference_powers)},
        "seed": seed,
    }


def _cmd_coherence(args):
    if args.config:
        cfg = _load_config(args.config, _COHERENCE_KEYS)
        f0, tau, v = cfg["f0_GHz"], cfg["delay_spread_us"], cfg["speed_kmh"]
    else:
        f0, tau, v = args.f0_ghz, args.delay_us, args.speed_kmh
    radio = RadioParams(carrier_frequency=f0 * 1e9, delay_spread=tau * 1e-6,
                        mobile_speed=v / 3.6)
    print(f"{coherence_symbols(radio):.2f}")
    return []


def _cmd_spectrum(args):
    cfg = _load_config(args.config)
    sys_params = _system_from_config(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    result = montecarlo.spectrum_experiment(
        sys_params, n_seeds=cfg.get("n_seeds", 20), grid_points=args.grid_points,
        y_offset=args.y_offset, seed=seed)
    out = Path(args.out) / "spectrum.csv"
    montecarlo.write_spectrum_csv(result, _resolved(cfg, sys_params, seed), out)
    print(f"wrote {out}")
    return [out]


def _cmd_support(args):
    cfg = _load_config(args.config)
    sys_params = _system_from_config(cfg)
    dp = derive_params(sys_params)
    estimates = bulk_support.support_estimates(dp)
    try:
        sep, threshold = bulk_support.unilateral_separable(dp)
        thresholds = {"unilateral_I_over_P": threshold, "unilateral_separable": sep}
    except bulk_support.RegimeError as err:
        thresholds = {"unilateral_error": str(err)}
    thresholds["bilateral_boundary_I_over_P"] = bulk_support.separability_boundary_ratio(
        dp.alpha / dp.kappa, dp.L)
    uni, bil = estimates[0], estimates[2]
    consistency = {
        "signal_lower_ratio": bil.signal.lower / uni.signal.lower if uni.signal.lower else None,
        "signal_upper_ratio": bil.signal.upper / uni.signal.upper if uni.signal.upper else None,
    }
    flagged = any(r is None or not 0.5 < r < 2.0 for r in consistency.values())
    doc = _resolved(cfg, sys_params, cfg.get("seed", 0))
    doc.update({
        "axis": "eig(YY^H)/(T*R)",
        "estimates": [e.to_dict() for e in estimates],
        "thresholds": thresholds,
        "cross_method_consistency": dict(consistency, flagged=flagged),
    })
    out = Path(args.out) / "support.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return [out]


def _cmd_separability(args):
    Ls = [int(x) for x in args.L.split(",")]
    betas = np.linspace(0.0, 1.0, args.points)
    lines = ["# config: " + json.dumps({"L": Ls, "points": args.points}),
             "L,beta,max_alpha_over_kappa"]
    for L in Ls:
        for b in betas:
            lines.append(f"{L},{b:.17g},{bulk_support.separability_boundary(float(b), L):.17g}")
    out = Path(args.out) / "separability.csv"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return [out]


def _sweep_base(cfg, sweep):
    """The base system of a `ber` sweep. The I/P sweep runs the flat profile at
    each listed I/P and the R sweep with `deltas` the modulo profile of each
    listed delta, built here at the first; both raise ValueError naming the
    profile keys they would replace."""
    if sweep == "R" and "deltas" in cfg:
        if not cfg["deltas"]:
            raise ValueError("config key 'deltas' lists no delta")
        profile = "modulo"
    elif sweep == "I_over_P":
        profile = "flat"
    else:
        return _system_from_config(cfg)
    replaced = sorted({"I_over_P", "delta"} & set(cfg))
    if cfg.get("profile", profile) != profile:
        replaced.append("profile")
    if replaced:
        raise ValueError(f"config keys {replaced} do not apply to the {sweep} sweep: "
                         f"it sets the {profile} profile itself")
    if profile == "modulo":
        cfg = dict(cfg, profile="modulo", delta=cfg["deltas"][0])
    return _system_from_config(cfg)


def _cmd_ber(args):
    cfg = _load_config(args.config)
    sweep = cfg.get("sweep", "I_over_P")
    sys_params = _sweep_base(cfg, sweep)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    ecfg = montecarlo.ExperimentConfig(
        system=sys_params, sweep=sweep, values=tuple(cfg["values"]),
        taus=tuple(cfg.get("taus", [1])),
        deltas=tuple(cfg["deltas"]) if "deltas" in cfg else None,
        min_symbols=cfg.get("min_symbols", 100_000),
        seed=seed, threads=args.threads)
    if sweep == "R":
        points, _ = montecarlo.ber_vs_R(ecfg)
    else:
        points, _ = montecarlo.ber_vs_IP(ecfg)
    out = Path(args.out) / "ber.csv"
    montecarlo.write_ber_csv(points, dict(ecfg.to_dict(), original_config=cfg), out)
    print(f"wrote {out}")
    return [out]


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every `main` call."""
    parser = argparse.ArgumentParser(prog="svdmimo",
                                     description="massive MIMO subspace receiver experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coherence", help="coherence time in symbols")
    p.add_argument("--config", default=None)
    p.add_argument("--f0-ghz", type=float, default=2.6)
    p.add_argument("--delay-us", type=float, default=5.0)
    p.add_argument("--speed-kmh", type=float, default=350.0)
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("spectrum", help="empirical + asymptotic eigenvalue density CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=600)
    p.add_argument("--y-offset", type=float, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("support", help="bulk support estimates JSON (all methods)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("separability", help="separability-region boundary CSV per L")
    p.add_argument("--L", default="2,4,7")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_separability)

    p = sub.add_parser("ber", help="Monte Carlo BER sweep CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_ber)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        args.func(args)
    except Exception as err:  # noqa: BLE001 - machine-readable error contract
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
