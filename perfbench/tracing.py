"""In-memory span and count recorder for the traced benchmark run.

The tracer wraps each layer's public functions at the place where the calling
module looks them up (for example ``montecarlo.signal_subspace`` or
``bulk_support.bisect``), so the library itself is untouched. Every wrapped
call records one span ``(id, name, start, end, parent, pass_id)``; spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
import warnings as _warnings
from collections import Counter, defaultdict

from svdmimo import bulk_support, cli, montecarlo, rmt_spectrum

# (module whose attribute the caller looks up, attribute, layer name)
LAYERS = (
    (montecarlo, "sample_realization", "system_model.sample_realization"),
    (montecarlo, "assemble_received", "system_model.assemble_received"),
    (montecarlo, "signal_subspace", "subspace_receiver.signal_subspace"),
    (montecarlo, "project", "subspace_receiver.project"),
    (montecarlo, "estimate_projected_channel", "subspace_receiver.estimate_projected_channel"),
    (montecarlo, "detect_subspace", "subspace_receiver.detect_subspace"),
    (montecarlo, "conventional_receiver", "subspace_receiver.conventional_receiver"),
    (montecarlo, "count_bit_errors", "subspace_receiver.count_bit_errors"),
    (rmt_spectrum, "stieltjes_solve", "rmt_spectrum.stieltjes_solve"),
    (bulk_support, "unilateral_supports", "bulk_support.unilateral_supports"),
    (bulk_support, "s1_supports", "bulk_support.s1_supports"),
    (bulk_support, "bilateral_supports_highsnr", "bulk_support.bilateral_supports_highsnr"),
    (bulk_support, "bilateral_supports_general", "bulk_support.bilateral_supports_general"),
    (bulk_support, "unilateral_separable", "bulk_support.unilateral_separable"),
    (bulk_support, "separability_boundary_ratio", "bulk_support.separability_boundary_ratio"),
    (bulk_support, "bisect", "numerics.bisect"),
    (bulk_support, "poly_roots", "numerics.poly_roots"),
    (cli, "main", "cli.main"),
    (montecarlo, "ber_vs_IP", "montecarlo.ber_vs_IP"),
    (montecarlo, "ber_vs_R", "montecarlo.ber_vs_R"),
)
LAYER_NAMES = tuple(name for _, _, name in LAYERS)
EXPERIMENTS = ("montecarlo.ber_vs_IP", "montecarlo.ber_vs_R")
SOLVE = "rmt_spectrum.stieltjes_solve"


class _CountingWarnings:
    """Stand-in for the ``warnings`` module inside ``bulk_support`` that counts
    every ``warn`` call, including those the module captures as flags."""

    def __init__(self, tracer):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, source=None):
        self._tracer.count("bulk_support.warnings")
        _warnings.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(_warnings, name)


class Tracer:
    """Records spans and counts for the layers in LAYERS while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.iterations = []        # (pass_id, StieltjesValue.iterations) per solve
        self.pass_id = None
        self._ids = itertools.count()
        self._stack = []
        self._saved = []

    def count(self, name):
        self.counts[(self.pass_id, name)] += 1

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except bulk_support.RegimeError:
                self.count("bulk_support.regime_errors")
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.pass_id))
            if name == SOLVE:
                self.iterations.append((self.pass_id, result.iterations))
            return result

        return traced

    def install(self):
        for module, attr, name in LAYERS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        self._saved.append((bulk_support, "warnings", bulk_support.warnings))
        bulk_support.warnings = _CountingWarnings(self)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def pass_layers(spans, pass_id):
    """Per-call durations of each layer in one pass, and the self seconds of
    each montecarlo experiment: its duration minus the time its child spans
    cover (the Python orchestration around the layers)."""
    mine = [s for s in spans if s[5] == pass_id]
    durations = defaultdict(list)
    children = defaultdict(list)
    for sid, name, start, end, parent, _ in mine:
        durations[name].append(end - start)
        if parent is not None:
            children[parent].append((start, end))
    self_s = defaultdict(float)
    for sid, name, start, end, _, _ in mine:
        if name in EXPERIMENTS:
            self_s[name] += (end - start) - _covered(children[sid])
    return durations, self_s
