"""Batch command-line front end: reads JSON configs and writes CSV/JSON files.

A config is one JSON object. `spectrum` and `support` read _SPECTRUM_KEYS, `ber`
reads _BER_KEYS and `coherence` reads _COHERENCE_KEYS; any other key raises
ValueError, and so does a key given twice, a missing _REQUIRED_KEYS key, a
non-integer value of an _INTEGER_KEYS key, a value of a _REAL_KEYS key that is
no finite number, a `profile` other than `flat` or `modulo`, a profile key
given with the other profile (`delta` applies to `modulo`, `I_over_P` to
`flat`), a dB power whose linear value overflows a float, a `coherence` key
whose SI value is no finite number above 0, or a list given to a key that
takes one value. A `ber` config sweeps the key it lists: `I_over_P`, `R`, or
`R` with one curve per listed `delta`. Units are converted only here, dB
powers (`P_dB`, `W_dB`) to linear and GHz, us, km/h to SI. Every output
embeds the resolved config and seed; the `--out` directory is created when
the file is written, so a command that fails leaves none. The library
computes every number: `support` writes `support_report`, `spectrum` the
`support_estimates` and the column `SpectrumResult.empirical`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import bulk_support, montecarlo
from .system_model import InterferenceProfile, RadioParams, SystemParams, coherence_symbols

# the keys of one system and its master seed, read by every command but `coherence`
_SYSTEM_KEYS = frozenset({"R", "T", "C", "L", "P_dB", "W_dB", "profile", "I_over_P", "delta",
                          "seed"})
# `support` reads no `n_seeds` but shares its config file with `spectrum`
_SPECTRUM_KEYS = _SYSTEM_KEYS | {"n_seeds"}
_BER_KEYS = _SYSTEM_KEYS | {"taus", "min_symbols"}
_COHERENCE_KEYS = frozenset({"f0_GHz", "delay_spread_us", "speed_kmh"})
# keys whose values are JSON integers: `taus` is a list of them, and a `ber`
# config may list `R`
_INTEGER_KEYS = frozenset({"C", "L", "R", "T", "min_symbols", "n_seeds", "seed", "taus"})
# keys whose values are finite JSON numbers; a `ber` config may list `I_over_P`
# or `delta`
_REAL_KEYS = frozenset({"I_over_P", "P_dB", "W_dB", "delay_spread_us", "delta", "f0_GHz",
                        "speed_kmh"})
# keys without a default
_REQUIRED_KEYS = frozenset({"R", "T", "C", "L", "P_dB", "W_dB", "f0_GHz", "delay_spread_us",
                            "speed_kmh"})


def _db_to_linear(cfg, key):
    """The linear power of the dB value at config key `key`; raises ValueError
    naming the key when it overflows a float."""
    try:
        return 10.0 ** (cfg[key] / 10.0)
    except OverflowError:
        raise ValueError(f"config key {key!r} is too large a power: {cfg[key]!r} dB") from None


def _unique_keys(pairs):
    cfg = {}
    for key, value in pairs:
        if key in cfg:
            raise ValueError(f"config key {key!r} is given more than once")
        cfg[key] = value
    return cfg


def _load_config(path, keys):
    """The JSON config at `path`; raises ValueError naming any key given twice,
    any key outside `keys`, any required key of `keys` that it lacks, any
    integer or real key with a value, or a list entry, that is no integer or no
    finite number, and a `profile` other than "flat" or "modulo"."""
    with open(path) as fh:
        cfg = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, not {type(cfg).__name__}")
    unknown = sorted(set(cfg) - keys)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; accepted: {sorted(keys)}")
    missing = sorted((keys & _REQUIRED_KEYS) - set(cfg))
    if missing:
        raise ValueError(f"missing config keys {missing}")
    for key in sorted(cfg.keys() & (_INTEGER_KEYS | _REAL_KEYS)):
        value = cfg[key]
        entries = value if isinstance(value, list) else [value]
        # bool is an int subclass, and JSON true is neither a count nor a number;
        # json reads NaN and Infinity as floats
        if key in _INTEGER_KEYS:
            ok = all(type(x) is int for x in entries) and (key != "taus" or entries is value)
            kind = "a list of integers" if key == "taus" else "integers"
        else:
            ok = all(type(x) in (int, float) and math.isfinite(x) for x in entries)
            kind = "finite numbers"
        if not ok:
            raise ValueError(f"config key {key!r} takes {kind}: {value!r}")
    if cfg.get("profile", "flat") not in ("flat", "modulo"):
        raise ValueError(f"unknown profile kind {cfg['profile']!r}: config key 'profile' "
                         "takes 'flat' or 'modulo'")
    return cfg


def _system_from_config(cfg):
    listed = sorted(k for k, v in cfg.items() if isinstance(v, list) and k != "taus")
    if listed:
        raise ValueError(f"config keys {listed} take one value, not a list")
    P, W = _db_to_linear(cfg, "P_dB"), _db_to_linear(cfg, "W_dB")
    kind = cfg.get("profile", "flat")
    other = {"flat": "delta", "modulo": "I_over_P"}[kind]
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
        "resolved": dataclasses.asdict(sys_params),
        "seed": seed,
    }


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, meta, columns, rows, comments=()):
    """A CSV at `path`: `meta` as a `# config:` JSON line, one `# ` line per
    comment, the column line, then one line per row, floats at .17g and None
    empty."""
    lines = ["# config: " + json.dumps(meta, sort_keys=True)]
    lines += ["# " + comment for comment in comments]
    lines.append(columns)
    lines += [",".join(map(_fmt, row)) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _write(path, text):
    """`text` into the file at `path`, creating its directory: a command that
    fails before it writes leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _cmd_coherence(args):
    cfg = _load_config(args.config, _COHERENCE_KEYS)
    si = {"f0_GHz": cfg["f0_GHz"] * 1e9, "delay_spread_us": cfg["delay_spread_us"] * 1e-6,
          "speed_kmh": cfg["speed_kmh"] / 3.6}
    for key, quantity, unit in (("f0_GHz", "frequency", "GHz"),
                                ("delay_spread_us", "delay spread", "us"),
                                ("speed_kmh", "speed", "km/h")):
        if not 0 < si[key] < math.inf:
            size = "large" if si[key] > 0 else "small"
            raise ValueError(f"config key {key!r} is too {size} a {quantity}: "
                             f"{cfg[key]!r} {unit}")
    radio = RadioParams(carrier_frequency=si["f0_GHz"], delay_spread=si["delay_spread_us"],
                        mobile_speed=si["speed_kmh"])
    print(f"{coherence_symbols(radio):.2f}")


def _cmd_spectrum(args):
    if args.grid_points < 2:
        raise ValueError(f"--grid-points must be >= 2: {args.grid_points}")
    cfg = _load_config(args.config, _SPECTRUM_KEYS)
    sys_params = _system_from_config(cfg)
    seed = cfg.get("seed", 0)
    result = montecarlo.spectrum_experiment(
        sys_params, n_seeds=cfg.get("n_seeds", 20), grid_points=args.grid_points, seed=seed)
    density = result.density
    comments = [f"kappa={density.kappa!r}", f"atom={density.atom_at_zero!r}",
                f"scale={density.scale!r}", f"y_offset={density.y_offset!r}"]
    if max(sys_params.interference_powers, default=0.0) > 0:
        comments += ["support: " + json.dumps(est.to_dict(), sort_keys=True)
                     for est in bulk_support.support_estimates(sys_params)]
    out = Path(args.out) / "spectrum.csv"
    _write_csv(out, _resolved(cfg, sys_params, seed), "x,density,empirical",
               zip(density.grid.tolist(), density.values.tolist(), result.empirical.tolist()),
               comments)
    print(f"wrote {out}")


def _cmd_support(args):
    cfg = _load_config(args.config, _SPECTRUM_KEYS)
    sys_params = _system_from_config(cfg)
    doc = _resolved(cfg, sys_params, cfg.get("seed", 0))
    doc.update(bulk_support.support_report(sys_params))
    out = Path(args.out) / "support.json"
    _write(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


def _cmd_separability(args):
    try:
        Ls = [int(x) for x in args.L.split(",")]
    except ValueError:
        raise ValueError(f"--L must list integers, comma-separated: {args.L}") from None
    if args.points < 2:
        raise ValueError(f"--points must be >= 2: {args.points}")
    if min(Ls) < 1:
        raise ValueError(f"--L entries must each be >= 1: {args.L}")
    betas = np.linspace(0.0, 1.0, args.points).tolist()
    out = Path(args.out) / "separability.csv"
    _write_csv(out, {"L": Ls, "points": args.points}, "L,beta,max_alpha_over_kappa",
               ((L, b, bulk_support.separability_boundary(b, L)) for L in Ls for b in betas))
    print(f"wrote {out}")


def _cmd_ber(args):
    cfg = _load_config(args.config, _BER_KEYS)
    # the one sweep a config lists, swept key first; a listed `delta` draws one
    # curve per delta
    listed = tuple(k for k in ("I_over_P", "R", "delta") if isinstance(cfg.get(k), list))
    if listed not in (("I_over_P",), ("R",), ("R", "delta")) or not all(map(cfg.get, listed)):
        raise ValueError(f"config keys {list(listed)} are not one sweep: `ber` needs the "
                         "sweep values as a nonempty list on 'I_over_P', on 'R', or on "
                         "'R' and 'delta'")
    # the base system is the first point's, every listed key at its first entry
    sys_params = _system_from_config(dict(cfg, **{k: cfg[k][0] for k in listed}))
    sweep = listed[0]
    ecfg = montecarlo.ExperimentConfig(
        system=sys_params, sweep=sweep, values=tuple(cfg[sweep]),
        taus=tuple(cfg.get("taus", [1])),
        deltas=tuple(cfg["delta"]) if "delta" in listed else None,
        min_symbols=cfg.get("min_symbols", 100_000),
        seed=cfg.get("seed", 0), threads=args.threads)
    if sweep == "R":
        points, _ = montecarlo.ber_vs_R(ecfg)
    else:
        points, _ = montecarlo.ber_vs_IP(ecfg)
    out = Path(args.out) / "ber.csv"
    _write_csv(out, dict(ecfg.to_dict(), original_config=cfg),
               "sweep_value,receiver,tau,delta,ber,errors,bits,ci",
               ((p.sweep_value, p.receiver, p.tau, p.delta, p.ber, p.errors, p.bits,
                 p.ci_halfwidth) for p in points))
    print(f"wrote {out}")


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every `main` call."""
    parser = argparse.ArgumentParser(prog="svdmimo",
                                     description="massive MIMO subspace receiver experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coherence", help="coherence time in symbols")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("spectrum", help="empirical + asymptotic eigenvalue density CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--grid-points", type=int, default=600)
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
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_ber)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as err:  # noqa: BLE001 - machine-readable error contract
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
