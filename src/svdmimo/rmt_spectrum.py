"""Asymptotic eigenvalue spectrum of Y Y^H via the Stieltjes fixed point.

The large-system eigenvalue distribution of the unnormalized Gram matrix
Y Y^H obeys a scalar fixed-point equation for its Stieltjes transform
G(s) = int dP(x)/(x - s). Each power source (signal, each interferer, noise)
contributes one rational self-energy term. Densities are recovered by the
inversion formula p(x) = Im G(x + jy)/pi for small y > 0.

Eigenvalue axes are expressed as eig(Y Y^H)/scale; `scale` = T*R, the axis of
subspace_receiver.empirical_spectrum, places the signal bulk near kappa*P/alpha.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .system_model import SystemParams, real_field

# damped fixed-point iteration: step weight, residual tolerance, step budget
# (the budget also caps one Newton run), and the residual at which the damped
# map hands its iterate to Newton
_DAMPING = 0.5
_TOL = 1e-10
_MAX_ITER = 10000
_HANDOFF = 1e-8


class StieltjesSolverError(RuntimeError):
    """Fixed-point solver failed; carries the residual of the stage that gave up."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class FixedPointParams:
    """Coefficients of the fixed-point equation.

    `terms` holds one (rho_k, a_k^2, weight) triple of floats per term: the
    signal carries (alpha/kappa, P*T*C, 1), interferer k carries (1/C, I_k*C),
    and white noise enters through the rho -> infinity limit with a^2 =
    noise_a2 = W*C. Equal interference powers are collapsed into one term
    whose weight counts them. The solver kernel loops over the triples: on a
    handful of terms, scalar arithmetic costs a fraction of numpy's per-call
    overhead.
    """

    kappa: float
    terms: tuple
    noise_a2: float
    scale: float = 1.0

    def __post_init__(self):
        for name, strict in (("kappa", True), ("noise_a2", False), ("scale", True)):
            object.__setattr__(self, name, float(real_field(name, getattr(self, name), 0, strict)))
        for rho, a2, w in self.terms:
            real_field("each term rho", rho, 0, strict=True)
            real_field("each term a2", a2, 0)
            if real_field("each term weight", w) < 0:
                raise ValueError(f"term weights must be non-negative: {w}")
        object.__setattr__(self, "terms", tuple((float(rho), float(a2), float(w))
                                                for rho, a2, w in self.terms))

    @classmethod
    def from_system(cls, sys: SystemParams, scale=1.0):
        terms = [(sys.alpha / sys.kappa, sys.P * sys.T * sys.C, 1.0)] if sys.P > 0 else []
        powers = np.asarray(sys.interference_powers, dtype=float)
        vals, counts = np.unique(powers[powers > 0], return_counts=True)
        terms += [(1.0 / sys.C, I * sys.C, float(n))
                  for I, n in zip(vals.tolist(), counts.tolist())]
        return cls(kappa=sys.kappa, terms=terms, noise_a2=sys.zeta, scale=scale)

    def mean_eigenvalue(self):
        """First moment of the distribution on the chosen axis (trace identity)."""
        raw = self.noise_a2 / self.kappa
        if self.terms:
            raw += float(np.sum([w * a2 * rho for rho, a2, w in self.terms])) / self.kappa
        return raw / self.scale


@dataclass(frozen=True)
class StieltjesValue:
    """G(s) with its map residual and the solver's work: damped map steps plus
    Newton steps, summed over every stage that ran."""

    G: complex
    residual: float
    iterations: int


@dataclass(frozen=True)
class SpectralDensity:
    """Continuous density on an increasing grid plus the mass of the atom at zero."""

    grid: np.ndarray
    values: np.ndarray
    kappa: float
    scale: float = 1.0
    y_offset: float = 0.0

    @property
    def continuous_mass(self):
        return float(np.trapezoid(self.values, self.grid))

    @property
    def atom_at_zero(self):
        """The mass missing from the continuous part, clipped to [0, 1]."""
        return min(1.0, max(0.0, 1.0 - self.continuous_mass))


# ---------------------------------------------------------------------------
# fixed-point solver internals (raw, unnormalized axis)
# ---------------------------------------------------------------------------

def _zero_division(a):
    # what numpy gives for a / 0j: +-inf or nan per component, where Python raises
    a = complex(a)
    return complex(a.real * math.inf, a.imag * math.inf)


def _self_energy(G, s, fp: FixedPointParams):
    # T(G) = G * Sigma(G); each term a2*rho*(q/kappa) / (rho - a2*(G/kappa^2)*q).
    # Plain complex scalars, in the order of the elementwise formula. Kept apart from
    # _cleared_and_deriv's copy of this loop: the map step runs ~7x as often as a Newton
    # step, and one kernel returning (Sigma, dSigma) to both made cold solves ~60% slower.
    kappa = fp.kappa
    q = s * G + 1.0 - kappa
    total = fp.noise_a2 * q / kappa
    if fp.terms:
        kappa2 = kappa ** 2
        acc = 0j
        for rho, a2, w in fp.terms:
            num = a2 * rho * q / kappa
            den = rho - a2 * q * G / kappa2
            acc += w * num / den if den else _zero_division(w * num)
        total = total + acc
    return total


def _map_step(G, s, fp):
    """One step of the map G -> -1/(s + Sigma(G)) and its residual |Gn - G|."""
    d = s + _self_energy(G, s, fp)
    Gn = -1.0 / d if d else _zero_division(-1.0)
    try:
        return Gn, abs(Gn - G)
    except OverflowError:  # finite parts whose modulus exceeds the float range
        return Gn, math.inf


def _iterate(s, fp, G):
    """Damped map iteration from G until the residual meets _HANDOFF, then
    _newton, which meets _TOL where the map can stall just above it. Stops
    early at the first non-finite iterate, which no later step can bring back,
    and leaves it to the continuation stage of _solve_raw."""
    residual = math.inf
    for it in range(_MAX_ITER):
        Gn, residual = _map_step(G, s, fp)
        G = (1 - _DAMPING) * G + _DAMPING * Gn
        if residual <= _HANDOFF:
            G, n, residual = _newton(s, fp, G)
            return G, it + 1 + n, residual
        if not cmath.isfinite(G):
            return G, it + 1, residual
    return G, _MAX_ITER, residual


def _cleared_and_deriv(G, s, fp: FixedPointParams):
    """F(G) = G (s + Sigma(G)) + 1 and its analytic derivative."""
    # _self_energy's term loop plus the derivative; see there why it is not shared
    kappa = fp.kappa
    q = s * G + 1.0 - kappa
    sigma = fp.noise_a2 * q / kappa
    dsigma = fp.noise_a2 * s / kappa
    if fp.terms:
        kappa2 = kappa ** 2
        acc = dacc = 0j
        for rho, a2, w in fp.terms:
            den = rho - a2 * q * G / kappa2
            num = a2 * rho * q / kappa
            dden = -(a2 / kappa2) * (s * G + q)
            dnum = a2 * rho * s / kappa
            acc += w * num / den if den else _zero_division(w * num)
            dterm = w * (dnum * den - num * dden)
            den2 = den * den
            dacc += dterm / den2 if den2 else _zero_division(dterm)
        sigma = sigma + acc
        dsigma = dsigma + dacc
    F = G * (s + sigma) + 1.0
    dF = s + sigma + G * dsigma
    return F, dF


def _newton(s, fp, G):
    """Newton on the cleared equation from G until |dG| stops shrinking:
    (G, Newton steps taken, map residual)."""
    steps, last = 0, math.inf
    while steps < _MAX_ITER:
        F, dF = _cleared_and_deriv(G, s, fp)
        dG = F / dF if dF else _zero_division(F)
        size = math.hypot(dG.real, dG.imag)  # inf, not OverflowError, past the float range
        if not size < last:  # also stops at a non-finite step
            break
        G, last, steps = G - dG, size, steps + 1
    return G, steps, _map_step(G, s, fp)[1]


def _continuation(s, fp):
    """G followed down the line x = Re s by Newton on each rung: (G, steps,
    residual); StieltjesSolverError, naming s, with the residual of the stage
    that gave up: the first rung's iterate, or the last Newton run once a
    rung fails however small its step.

    The first rung, y0 = 10 max(|s|, raw mean eigenvalue), lies far enough
    above the spectrum that _iterate from -1/s lands on the
    Herglotz branch (10 |s| alone does not where |s| is small against the
    mean). A rung that leaves Im G > 0 or misses _TOL is retried with the
    square root of the step ratio; each accepted rung squares it back, down
    to halving y.
    """
    x, y_end = s.real, s.imag
    y = 10.0 * max(abs(s), fp.mean_eigenvalue() * fp.scale)
    z = complex(x, y)
    G, steps, residual = _iterate(z, fp, -1.0 / z)
    if not (G.imag > 0 and residual <= _TOL):
        raise StieltjesSolverError(f"no Herglotz solution found at s={s}", residual)
    ratio = 0.5
    while y > y_end:
        y_next = max(y * ratio, y_end)
        Gn, n, res = _newton(complex(x, y_next), fp, G)
        steps += n
        if Gn.imag > 0 and res <= _TOL:
            y, G, residual, ratio = y_next, Gn, res, max(ratio * ratio, 0.5)
        elif ratio == math.sqrt(ratio):  # 1 - 2^-53, the shortest step there is
            raise StieltjesSolverError(f"no Herglotz solution found at s={s}", res)
        else:
            ratio = math.sqrt(ratio)
    return G, steps, residual


def _solve_raw(s, fp, init=None):
    """Herglotz-branch solution at one raw-axis point: (G, iterations, residual).

    Damped iteration from the warm start (init, or -1/s), finished by Newton
    on the cleared equation (_iterate). When that iterate leaves the Herglotz
    branch or misses _TOL, continuation down the line x = Re s from far above
    the spectrum, where G ~ -1/s fixes the branch (G is analytic in the upper
    half-plane and continuous down to the real axis).
    """
    s = complex(s)
    if s.imag <= 0:
        raise ValueError("stieltjes_solve requires Im(s) > 0")
    start = -1.0 / s if init is None else complex(init)
    G, it, residual = _iterate(s, fp, start)
    if G.imag > 0 and residual <= _TOL:
        return G, it, residual
    G, steps, residual = _continuation(s, fp)
    return G, it + steps, residual


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def stieltjes_solve(s, fp: FixedPointParams) -> StieltjesValue:
    """Stieltjes transform G(s) of the eig(Y Y^H)/scale distribution at one point.

    The fixed point is solved on the raw axis and rescaled; the returned G
    satisfies the fixed-point relation to within 1e-10 on the Herglotz branch
    (Im G > 0 for Im s > 0).
    """
    G_raw, iters, res = _solve_raw(fp.scale * complex(s), fp)
    return StieltjesValue(G=G_raw * fp.scale, residual=res, iterations=iters)


def density_from_stieltjes(grid, fp: FixedPointParams, y_offset=None) -> SpectralDensity:
    """Asymptotic density on an increasing grid: values = Im G(x + jy)/pi.

    The default offset y is 1e-5 of the grid span. The first point starts
    from -1/s and each later one warm-starts from its neighbor to keep the
    Herglotz branch.
    """
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or len(grid) < 2 or not np.isfinite(grid).all()
            or np.any(np.diff(grid) <= 0)):
        raise ValueError("grid must be finite and increasing with at least two points")
    if y_offset is None:
        y_offset = float(1e-5 * (grid[-1] - grid[0]))
    real_field("y_offset", y_offset, 0, strict=True)
    values = np.empty_like(grid)
    G = None
    for i, x in enumerate(grid):
        G, _, _ = _solve_raw(fp.scale * (x + 1j * y_offset), fp, init=G)
        values[i] = G.imag / math.pi * fp.scale
    return SpectralDensity(grid=grid, values=values, kappa=fp.kappa, scale=fp.scale,
                           y_offset=y_offset)
