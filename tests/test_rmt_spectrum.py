import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixed_point_oracle as oracle
from spectrum_oracle import bulk_intervals, cdf, mp_density
from svdmimo import rmt_spectrum
from svdmimo.montecarlo import spectrum_experiment
from svdmimo.rmt_spectrum import (FixedPointParams, StieltjesSolverError, _cleared_and_deriv,
                                  _continuation, _iterate, _self_energy, _solve_raw,
                                  density_from_stieltjes, stieltjes_solve)
from svdmimo.subspace_receiver import empirical_spectrum
from svdmimo.system_model import (InterferenceProfile, PilotConfig, SystemParams,
                                  assemble_received, sample_realization)


def mp_stieltjes_oracle(z, kappa):
    """Closed-form Marchenko-Pastur transform on the eig(WW^H/(C W)) axis:
    the Herglotz root of z g^2 + (z kappa + 1 - kappa) g + kappa = 0."""
    a, b, c = z, z * kappa + 1 - kappa, kappa
    d = np.sqrt(b * b - 4 * a * c)
    roots = np.array([(-b + d) / (2 * a), (-b - d) / (2 * a)])
    return roots[np.argmax(roots.imag)]


def noise_only(kappa, C=900.0, W=1.0, scale=None):
    sys = SystemParams(R=int(round(C / kappa)), T=1, C=int(C), L=0, P=0.0, W=W)
    return FixedPointParams.from_system(sys, scale=scale if scale else sys.C * W)


def fig1_system():
    return SystemParams.from_profile(R=300, T=10, C=100, L=2, P=0.1, W=1.0,
                                     profile=InterferenceProfile(kind="modulo", delta=4))


class TestStieltjesSolve:
    def test_matches_mp_closed_form(self):
        fp = noise_only(1 / 3)
        for x in (1.0, 2.5, 5.0):
            got = stieltjes_solve(x + 1j, fp).G
            ref = mp_stieltjes_oracle(x + 1j, 1 / 3)
            assert abs(got - ref) < 1e-8

    def test_large_s_asymptotics(self):
        fp = FixedPointParams.from_system(fig1_system(), scale=1.0)
        s = 1j * 1e6
        G = stieltjes_solve(s, fp).G
        assert abs(s * G + 1) < 1e-3

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            stieltjes_solve(1.0 - 1j, noise_only(1.0))

    def test_herglotz_property_random(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            kappa = 10 ** rng.uniform(-0.6, 0.6)
            fp = noise_only(kappa, C=600)
            s = rng.uniform(0.05, 6) + 1j * 10 ** rng.uniform(-4, 0)
            v = stieltjes_solve(s, fp)
            assert v.G.imag > 0
            assert abs(v.G) <= 1.0 / s.imag + 1e-9

    def test_residual_reported(self):
        v = stieltjes_solve(2.0 + 0.1j, noise_only(1.0))
        assert v.residual <= 1e-10
        assert v.iterations >= 1

    def test_unmet_tolerance_raises_with_residual(self, monkeypatch):
        # no point meets a negative tolerance: the warm iterate misses it, and
        # so does the first rung of the continuation
        monkeypatch.setattr(rmt_spectrum, "_TOL", -1.0)
        fp = noise_only(1.0)
        with pytest.raises(StieltjesSolverError) as err:
            stieltjes_solve(2.0 + 0.1j, fp)
        assert f"no Herglotz solution found at s={fp.scale * (2.0 + 0.1j)}" in str(err.value)
        assert math.isfinite(err.value.residual)

    def test_error_carries_the_residual_of_the_stage_that_gave_up(self):
        # all powers 4^-7 of the usual: the warm iterate meets the tolerance on
        # the wrong branch (Im G < 0, map residual 0) and the continuation stops
        # where every rung misses the tolerance; its residual is the one to report
        sys = SystemParams(R=40, T=2, C=30, L=0, P=0.1 * 4**-7, W=0.1 * 4**-7)
        fp = FixedPointParams.from_system(sys, scale=sys.T * sys.R)
        s = (1.785769838720993e-06 + 1.1611039390489456e-07j) / fp.scale
        with pytest.raises(StieltjesSolverError) as err:
            stieltjes_solve(s, fp)
        assert f"no Herglotz solution found at s={fp.scale * s}" in str(err.value)
        assert math.isfinite(err.value.residual) and err.value.residual > rmt_spectrum._TOL

    def test_continuation_stops_when_no_rung_is_accepted(self, monkeypatch):
        # the first rung lands on the branch and every later Newton run misses
        # the tolerance. Square roots take the step ratio to 1 - 2^-53, never
        # to 1, and y * ratio stays below y, so the search must end there
        newton, calls = rmt_spectrum._newton, []

        def first_only(s, fp, G):
            calls.append(s)
            assert len(calls) <= 1000, "the continuation does not stop"
            G, n, res = newton(s, fp, G)
            return G, n, res if len(calls) == 1 else math.inf
        monkeypatch.setattr(rmt_spectrum, "_newton", first_only)
        with pytest.raises(StieltjesSolverError) as err:
            _continuation(2.0 + 0.1j, noise_only(1.0))
        # the error carries the residual of the last Newton rung, not the first
        assert err.value.residual == math.inf
        # each retry takes a shorter step down from the first rung
        ys = [s.imag for s in calls]
        assert ys[1:] == sorted(ys[1:]) and ys[-1] < ys[0]


class TestFig1Continuation:
    """Fig.-1 grid points where the warm iterate misses the Herglotz branch:
    the former cleared-polynomial stage of the solver was written for them, and
    at some it returned a wrong upper-half-plane root; the continuation must
    give the reference densities.

    References: mpmath at 40 digits, findroot on each rung of a continuation
    from far above the real axis, y shrunk by a factor of 0.97 per rung.
    """

    @pytest.mark.parametrize("seed, index, x, want", [
        # the warm iterate has Im G < 0
        (13, 4, 0.0204845581, 0.535610334220761),
        (2, 1, 0.0091900511, 0.06375502452964475),
        (8, 2, 0.0123139242, 0.032669311693887586),
        (30, 2, 0.0128914454, 0.031484145833964874),
        (15, 4, 0.0206343044, 0.678916673401397),
        (36, 4, 0.0206166420, 0.663843614231379),
        # two roots of the cleared equation lie in the upper half-plane: this
        # one (raw G = -0.0149911785968413 + 3.26440508e-5j) is reached by the
        # continuation; the other (raw G = -0.0182261921391335 + 3.09072765e-5j)
        # gives density 0.0295143
        (6, 2, 0.0130972026, 0.0311727722791218),
    ])
    def test_density_matches_continuation(self, seed, index, x, want):
        density = spectrum_experiment(fig1_system(), n_seeds=20, grid_points=600,
                                      seed=seed).density
        assert abs(density.grid[index] - x) < 1e-10
        assert abs(density.values[index] - want) < 1e-9

    @pytest.mark.parametrize("T, seed", [(10, 0), (10, 130478608), (12, 0), (30, 0)])
    def test_every_grid_point_solved(self, T, seed):
        # each of these raised StieltjesSolverError before the continuation
        # stage; T != 10 keeps the Fig.-1 modulo profile with T terms
        sys = SystemParams.from_profile(R=300, T=T, C=100, L=2, P=0.1, W=1.0,
                                        profile=InterferenceProfile(kind="modulo", delta=4))
        values = spectrum_experiment(sys, n_seeds=20, grid_points=600, seed=seed).density.values
        assert np.all(np.isfinite(values)) and np.all(values >= 0)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _signed(mag):
    return st.tuples(st.sampled_from((-1.0, 1.0)), mag).map(lambda p: p[0] * p[1])


@st.composite
def kernel_inputs(draw):
    """FixedPointParams with 0 to 4 terms (0 with noise is Marchenko-Pastur),
    s with Im s > 0 and a random G."""
    n = draw(st.integers(0, 4))
    kappa = draw(_log_uniform(-1, 1))
    rhos = [draw(_log_uniform(-3, 1)) for _ in range(n)]
    a2s = [draw(_log_uniform(-2, 4)) for _ in range(n)]
    weights = [draw(st.sampled_from((1.0, 2.0, 3.0))) for _ in range(n)]
    fp = FixedPointParams(
        kappa=kappa, terms=list(zip(rhos, a2s, weights)),
        noise_a2=draw(st.one_of(st.just(0.0), _log_uniform(-2, 4))) if n else
        draw(_log_uniform(-2, 4)))
    s = complex(draw(_signed(_log_uniform(-4, 4))), draw(_log_uniform(-4, 4)))
    G = complex(draw(st.one_of(st.just(0.0), _signed(_log_uniform(-6, 2)))),
                draw(st.one_of(st.just(0.0), _signed(_log_uniform(-6, 2)))))
    return fp, s, G


def _magnitudes(G, s, fp):
    """Scales of Sigma, F and dF for comparing two roundings of them.

    Each is the sum of the moduli of its summands, with every term weighted by
    the condition number of its denominator rho - a2 q G / kappa^2. Relative to
    |value| alone, two correct evaluations can differ arbitrarily where the
    summands cancel (F = G (s + Sigma) + 1 near a solution, for one).
    """
    rhos, a2s, weights = oracle.term_arrays(fp)
    q = s * G + 1.0 - fp.kappa
    shift = a2s * q * G / fp.kappa ** 2
    den = rhos - shift
    cond = (np.abs(rhos) + np.abs(shift)) / np.abs(den)
    num = a2s * rhos * q / fp.kappa
    dden = -(a2s / fp.kappa ** 2) * (s * G + q)
    dnum = a2s * rhos * s / fp.kappa
    sigma = abs(fp.noise_a2 * q / fp.kappa) + np.sum(weights * np.abs(num / den) * cond)
    dsigma = abs(fp.noise_a2 * s / fp.kappa) + np.sum(
        weights * (np.abs(dnum * den) + np.abs(num * dden)) / np.abs(den) ** 2 * cond)
    return sigma, abs(G) * (abs(s) + sigma) + 1.0, abs(s) + sigma + abs(G) * dsigma


def _assert_same_value(got, want, scale, rtol=1e-13):
    assert type(got) is complex
    if np.isfinite(got) and np.isfinite(want):
        assert abs(got - want) <= rtol * scale, (got, want, scale)
    else:
        assert not np.isfinite(got) and not np.isfinite(want), (got, want)


class TestScalarKernel:
    """The scalar solver kernel against the elementwise numpy formula."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(kernel_inputs())
    def test_matches_array_oracle(self, case):
        fp, s, G = case
        with np.errstate(all="ignore"):
            want_T = oracle.self_energy(np.complex128(G), np.complex128(s), fp)
            want_F, want_dF = oracle.cleared_and_deriv(np.complex128(G), np.complex128(s), fp)
            scales = _magnitudes(np.complex128(G), np.complex128(s), fp)
        got_F, got_dF = _cleared_and_deriv(G, s, fp)
        for got, want, scale in zip((_self_energy(G, s, fp), got_F, got_dF),
                                    (want_T, want_F, want_dF), scales):
            _assert_same_value(got, want, scale)

    def test_zero_denominator(self):
        # kappa = 1/2, s = -2 + j/2, G = j: q = -2j and a2 q G / kappa^2 = 8 = rho exactly
        fp = FixedPointParams(kappa=0.5, terms=[(8.0, 1.0, 1.0)], noise_a2=1.0)
        s, G = -2 + 0.5j, 1j
        ((rho, a2, _),) = fp.terms
        assert rho - a2 * (s * G + 1.0 - fp.kappa) * G / fp.kappa ** 2 == 0
        with np.errstate(all="ignore"):
            want_T = oracle.self_energy(np.complex128(G), np.complex128(s), fp)
            want_F, want_dF = oracle.cleared_and_deriv(np.complex128(G), np.complex128(s), fp)
        got_F, got_dF = _cleared_and_deriv(G, s, fp)
        for got, want in ((_self_energy(G, s, fp), want_T), (got_F, want_F), (got_dF, want_dF)):
            assert not np.isfinite(want)
            _assert_same_value(got, want, np.inf)
        # a solve started there goes non-finite, stops iterating at once, and
        # the continuation still finds the branch
        G, iterations, residual = _solve_raw(s, fp, init=G)
        assert G.imag > 0 and residual <= 1e-10
        assert iterations < 100

    def test_terms_cached_and_params_checked(self):
        fp = FixedPointParams.from_system(fig1_system(), scale=3000.0)
        assert fp.terms is fp.terms
        assert type(fp.terms) is tuple and all(type(term) is tuple for term in fp.terms)
        assert all(len(term) == 3 for term in fp.terms)
        assert all(type(x) is float for term in fp.terms for x in term)
        assert type(fp.noise_a2) is float and type(fp.kappa) is float
        with pytest.raises(ValueError, match="kappa"):
            FixedPointParams(kappa=0.0, terms=(), noise_a2=1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FixedPointParams(kappa=1.0, terms=[(1.0, 1.0, 1.0), (0.5, 2.0, -1.0)], noise_a2=1.0)
        # integer entries become floats
        fp = FixedPointParams(kappa=2, terms=[(1, 3, 2)], noise_a2=0)
        assert fp.terms == ((1.0, 3.0, 2.0),) and type(fp.terms[0][1]) is float

    @pytest.mark.parametrize("field, value, message", [
        ("kappa", np.inf, "kappa must be a finite"), ("kappa", True, "kappa must be a finite"),
        ("scale", 0, "scale must be > 0"), ("scale", -1.0, "scale must be > 0"),
        ("scale", np.nan, "scale must be a finite"),
        ("noise_a2", -1.0, "noise_a2 must be >= 0"),
        ("noise_a2", np.inf, "noise_a2 must be a finite"),
        ("rho", -0.1, "each term rho must be > 0"), ("rho", 0.0, "each term rho must be > 0"),
        ("a2", -1.0, "each term a2 must be >= 0"), ("a2", np.nan, "each term a2 must be a finite"),
        ("weight", np.nan, "each term weight must be a finite"),
    ])
    def test_real_fields_checked(self, field, value, message):
        # a scale of 0, -1 or nan built and failed in the solver; a negative
        # noise_a2, rho or a2 built a model that cannot exist, and the solver
        # returned a G for it
        fields = {"kappa": 1.0, "noise_a2": 1.0, "scale": 1.0}
        term = {"rho": 0.5, "a2": 2.0, "weight": 1.0}
        if field in fields:
            fields[field] = value
        else:
            term[field] = value
        with pytest.raises(ValueError, match=f"^{message}"):
            FixedPointParams(terms=[(1.0, 1.0, 1.0), tuple(term.values())], **fields)


@st.composite
def near_bulk_edges(draw):
    """(s, FixedPointParams) on the eig/(T*R) axis: a flat profile (two terms)
    or a modulo profile (T terms, T up to 30), with Re s within 3% of a bulk
    edge and Im s 1e-6 to 1e-2 of the mean eigenvalue."""
    kappa = draw(_log_uniform(-0.7, 0.7))
    C = draw(st.integers(50, 400))
    R, T, L = max(int(round(C / kappa)), 2), draw(st.integers(1, 30)), draw(st.integers(1, 3))
    P, W = draw(_log_uniform(-2, 0)), draw(_log_uniform(-2, 1))
    if draw(st.booleans()):
        profile = InterferenceProfile(kind="flat", I=P * draw(st.floats(0.05, 0.95)))
    else:
        profile = InterferenceProfile(kind="modulo", delta=draw(st.sampled_from((1, 2, 4))))
    fp = FixedPointParams.from_system(SystemParams.from_profile(R, T, C, L, P, W, profile),
                                      scale=T * R)
    mean = fp.mean_eigenvalue()
    grid = np.linspace(0.0, 12 * mean, 301)[1:]
    edges = [e for bulk in bulk_intervals(density_from_stieltjes(grid, fp)) for e in bulk]
    x = draw(st.sampled_from(edges)) * (1 + draw(st.floats(-0.03, 0.03)))
    return complex(x, mean * draw(_log_uniform(-6, -2))), fp


def _flat_case(R, T, C, L, P, W, I, s):
    sys = SystemParams.from_profile(R, T, C, L, P, W, InterferenceProfile(kind="flat", I=I))
    return s, FixedPointParams.from_system(sys, scale=T * R)


# criterion-8 draws 469, 927 and 973 of rng 2024, where the cleared
# polynomial's root nearest the start was off by 96%, 1.6% and 7.9%
_CRITERION8_MISSES = (
    _flat_case(324, 1, 124, 1, 0.039548778252123495, 1.6628053978553248,
               0.00682726444550803, 0.2950963044334526 + 0.004639122768356093j),
    _flat_case(1186, 5, 287, 1, 0.043314987749291864, 1.6588073149835276,
               0.04037200131900568, 0.01047350558072436 + 0.001028790866875452j),
    _flat_case(1746, 4, 371, 3, 0.16922732702018553, 0.8589652881821647,
               0.025075234769933882, 0.02368333240545681 + 0.03363879866689995j),
)


class TestHerglotzBranch:
    """stieltjes_solve against an mpmath continuation from far above the axis."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(near_bulk_edges())
    @example(_CRITERION8_MISSES[0])
    @example(_CRITERION8_MISSES[1])
    @example(_CRITERION8_MISSES[2])
    def test_matches_mpmath_continuation(self, case):
        s, fp = case
        v = stieltjes_solve(s, fp)
        want = oracle.continuation_reference(fp.scale * s, fp) * fp.scale
        assert v.G.imag > 0 and v.residual <= 1e-10
        assert abs(v.G - want) <= 1e-9 * abs(want), (v.G, want)

    def test_iterations_count_every_stage(self):
        # the warm iterate of draw 469 has Im G <= 0, so the continuation runs
        s, fp = _CRITERION8_MISSES[0]
        s_raw = fp.scale * s
        G, warm, _ = _iterate(s_raw, fp, -1.0 / s_raw)
        assert G.imag <= 0
        _, steps, _ = _continuation(s_raw, fp)
        assert stieltjes_solve(s, fp).iterations == warm + steps

    def test_stalled_map_handed_to_newton(self):
        # benchmark seed-0 cold draw 805: the damped map stalls at residual
        # 8.8e-10, just above tol, and once ran all 10,000 steps before the
        # continuation took over
        s, fp = _flat_case(347, 2, 305, 0, 0.8965372040152878, 8.693763862464804,
                           0.29231503199157105, 16.213328203608093 + 0.00012596568296684193j)
        v = stieltjes_solve(s, fp)
        want = oracle.continuation_reference(fp.scale * s, fp) * fp.scale
        assert v.G.imag > 0 and v.residual <= 1e-10
        assert v.iterations < 5000
        assert abs(v.G - want) <= 1e-9 * abs(want), (v.G, want)


class TestDensity:
    @pytest.mark.parametrize("grid, y_offset, message", [
        ([0.1, np.nan, 3.0], None, "grid must be finite and increasing"),
        ([0.1, np.inf], None, "grid must be finite and increasing"),
        ([0.1, 3.0], np.inf, "y_offset must be a finite"),
        ([0.1, 3.0], np.nan, "y_offset must be a finite"),
    ])
    def test_inputs_checked(self, grid, y_offset, message):
        # a nan grid entry passed the increasing check; an infinite offset
        # raised a RuntimeWarning, then a solver error
        with pytest.raises(ValueError, match=f"^{message}"):
            density_from_stieltjes(grid, noise_only(1.0), y_offset=y_offset)

    @pytest.mark.parametrize("kappa", [1 / 3, 1.0, 10 / 3])
    def test_mp_reduction_pointwise(self, kappa):
        fp = noise_only(kappa)
        pdf, (lo, hi) = mp_density(kappa)
        grid = np.linspace(lo + 0.05, hi - 0.05, 150)
        density = density_from_stieltjes(grid, fp, y_offset=1e-6)
        assert np.max(np.abs(density.values - pdf(grid))) < 1e-3

    def test_density_nonnegative(self):
        fp = FixedPointParams.from_system(fig1_system(), scale=3000.0)
        grid = np.linspace(0.01, 2.6, 120)
        density = density_from_stieltjes(grid, fp)
        assert np.all(density.values >= 0)

    def test_total_mass_with_atom(self):
        # kappa < 1: atom 1 - kappa at zero, continuous mass kappa
        fp = noise_only(1 / 3)
        pdf, (lo, hi) = mp_density(1 / 3)
        grid = np.linspace(max(lo - 0.3, 1e-3), hi + 0.3, 400)
        density = density_from_stieltjes(grid, fp, y_offset=1e-5)
        assert abs(density.continuous_mass + density.atom_at_zero - 1.0) < 0.01
        assert abs(density.atom_at_zero - 2 / 3) < 0.01

    def test_fig1_two_bulks_signal_near_one(self):
        sys = fig1_system()
        fp = FixedPointParams.from_system(sys, scale=sys.T * sys.R)
        grid = np.linspace(0.01, 2.6, 400)
        density = density_from_stieltjes(grid, fp, y_offset=2e-5)
        bulks = bulk_intervals(density)
        assert len(bulks) >= 2
        lo, hi = bulks[-1]
        assert lo < 1.0 < hi  # signal bulk sits at kappa P / alpha = 1

    def test_branch_continuity_refines(self):
        # no branch jumps: the largest step shrinks when the grid is refined
        sys = fig1_system()
        fp = FixedPointParams.from_system(sys, scale=sys.T * sys.R)

        def max_step(n):
            grid = np.linspace(0.05, 2.4, n)
            d = density_from_stieltjes(grid, fp, y_offset=1e-4)
            return np.max(np.abs(np.diff(d.values)))

        assert max_step(320) < 0.6 * max_step(80)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            density_from_stieltjes(np.array([1.0, 0.5]), noise_only(1.0))


class TestMpDensity:
    @pytest.mark.parametrize("kappa", [0.4, 1.0, 2.5])
    def test_support_edges(self, kappa):
        _, (lo, hi) = mp_density(kappa)
        assert np.isclose(lo, (1 - 1 / np.sqrt(kappa)) ** 2)
        assert np.isclose(hi, (1 + 1 / np.sqrt(kappa)) ** 2)

    def test_kappa_one_shape(self):
        # support [0, 4], density proportional to sqrt(4 - (x-2)^2)/x
        pdf, (lo, hi) = mp_density(1.0)
        assert lo == 0.0 and hi == 4.0
        x = np.linspace(0.2, 3.8, 50)
        ref = np.sqrt(4 - (x - 2) ** 2) / (2 * np.pi * x)
        assert np.allclose(pdf(x), ref, atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.4, 1.0, 2.5])
    def test_mass_by_quadrature(self, kappa):
        pdf, (lo, hi) = mp_density(kappa)
        mass, err = scipy.integrate.quad(lambda x: float(pdf(np.array([x]))[0]), lo, hi, limit=300)
        assert err < 1e-7
        assert abs(mass - min(1.0, kappa)) < 1e-6

    def test_scale_parameter(self):
        pdf1, edges1 = mp_density(2.0, scale=1.0)
        pdf5, edges5 = mp_density(2.0, scale=5.0)
        assert np.isclose(edges5[1], 5 * edges1[1])
        x = np.linspace(edges1[0] + 0.1, edges1[1] - 0.1, 20)
        assert np.allclose(pdf5(5 * x), pdf1(x) / 5, rtol=1e-12)

    def test_matches_fixed_point_route(self):
        # dual-route check: closed form vs fixed-point inversion
        kappa = 2.0
        fp = noise_only(kappa)
        pdf, (lo, hi) = mp_density(kappa)
        grid = np.linspace(lo + 0.05, hi - 0.05, 80)
        density = density_from_stieltjes(grid, fp, y_offset=1e-6)
        assert np.max(np.abs(density.values - pdf(grid))) < 1e-3


class TestOracleEquivalenceFiniteSize:
    @pytest.mark.parametrize("case", [
        dict(R=300, T=5, C=150, L=1, P=0.2, W=0.8, I=0.05),
        dict(R=300, T=8, C=450, L=2, P=0.1, W=1.5, I=0.02),
    ])
    def test_ks_distance_small(self, case):
        sys = SystemParams.from_profile(case["R"], case["T"], case["C"], case["L"],
                                        case["P"], case["W"],
                                        InterferenceProfile(kind="flat", I=case["I"]))
        scale = sys.T * sys.R
        fp = FixedPointParams.from_system(sys, scale=scale)
        pooled = []
        for i in range(20):
            rz = sample_realization(sys, PilotConfig(), seed=[5, i])
            ev = empirical_spectrum(assemble_received(rz), sys.T)
            pooled.append(ev[ev > 1e-9])
        pooled = np.sort(np.concatenate(pooled))
        grid = np.linspace(0.25 * pooled[0], 1.1 * pooled[-1], 350)
        density = density_from_stieltjes(grid, fp, y_offset=1e-5 * (grid[-1] - grid[0]))
        cum = cdf(density)
        F = np.interp(pooled, grid, cum / cum[-1])
        n = len(pooled)
        ks = max(np.max(np.abs(np.arange(1, n + 1) / n - F)),
                 np.max(np.abs(np.arange(0, n) / n - F)))
        assert ks <= 0.05
