import numpy as np
import pytest

from svdmimo.bulk_support import bisect, poly_roots


def test_polynomial_trims_leading_zeros():
    # 1 + 2x with zero x^2 and x^3 coefficients: one root, not three
    assert np.array_equal(poly_roots((1.0, 2.0, 0.0, 0.0)), [-0.5])
    with pytest.raises(ValueError):
        poly_roots((3.0, 0.0))


def test_poly_roots_quadratic():
    roots = np.sort_complex(poly_roots((-1.0, 0.0, 1.0)))  # x^2 - 1
    assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)


def test_poly_roots_quartic_integers():
    # (x-1)(x-2)(x-3)(x-4) = x^4 - 10x^3 + 35x^2 - 50x + 24
    roots = np.sort(poly_roots((24.0, -50.0, 35.0, -10.0, 1.0)).real)
    assert np.allclose(roots, [1, 2, 3, 4], atol=1e-9)


def test_poly_roots_residuals_bounded():
    coeffs = (24.0, -50.0, 35.0, -10.0, 1.0)
    roots = poly_roots(coeffs)
    norm = np.linalg.norm(coeffs)
    assert np.all(np.abs(np.polynomial.polynomial.polyval(roots, coeffs)) <= 1e-8 * norm)


def test_poly_roots_mild_multiple_root():
    # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2; double root recovered within 1e-4
    roots = np.sort(poly_roots((-2.0, 5.0, -4.0, 1.0)).real)
    assert abs(roots[0] - 1.0) < 1e-4 and abs(roots[1] - 1.0) < 1e-4
    assert abs(roots[2] - 2.0) < 1e-9


def test_poly_roots_scale_invariance():
    coeffs = np.array([24.0, -50.0, 35.0, -10.0, 1.0])
    r1 = np.sort(poly_roots(coeffs).real)
    r2 = np.sort(poly_roots(1e6 * coeffs).real)
    assert np.allclose(r1, r2, atol=1e-8)


def test_poly_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        poly_roots((3.0,))


def test_bisect_simple():
    assert abs(bisect(lambda x: x - 0.5, 0.0, 1.0) - 0.5) < 1e-10


def test_bisect_sqrt2():
    assert abs(bisect(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-10) - np.sqrt(2)) < 1e-5


def test_bisect_requires_sign_change():
    with pytest.raises(ValueError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("root", [1.0, 2.0])
def test_bisect_root_at_an_endpoint(root):
    assert bisect(lambda x: x - root, 1.0, 2.0) == root


def test_bisect_stops_after_200_halvings():
    # tol 0 on a step: the bracket reaches two adjacent floats, where no
    # midpoint is a root and no width is <= 0, so the budget ends the search
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 0.3 else 1.0

    root = bisect(step, 0.0, 1.0, tol=0.0)
    assert len(calls) == 2 + 200
    assert np.nextafter(0.3, 0.0) <= root <= 0.3
