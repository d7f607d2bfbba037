"""Test oracles for the Stieltjes fixed point.

The library evaluates the self-energy and the cleared equation term by term on
plain Python scalars. self_energy and cleared_and_deriv are the same formulas
evaluated elementwise over arrays built from the terms of a FixedPointParams,
a second implementation that tests compare the library against. Division by a zero
denominator gives inf or nan, as numpy does, instead of raising.

continuation_reference solves the fixed point in high precision with mpmath.
"""

import mpmath
import numpy as np


def term_arrays(fp):
    """The rho, a2 and weight of every term of fp, as three float arrays."""
    return np.array(fp.terms, dtype=float).reshape(-1, 3).T


def self_energy(G, s, fp):
    """T(G) = G * Sigma(G); each term a2*rho*(q/kappa) / (rho - a2*(G/kappa^2)*q)."""
    q = s * G + 1.0 - fp.kappa
    total = fp.noise_a2 * q / fp.kappa
    if fp.terms:
        rhos, a2s, weights = term_arrays(fp)
        num = a2s * rhos * q / fp.kappa
        den = rhos - a2s * q * G / fp.kappa ** 2
        total = total + np.sum(weights * num / den)
    return total


def cleared_and_deriv(G, s, fp):
    """F(G) = G (s + Sigma(G)) + 1 and its analytic derivative."""
    q = s * G + 1.0 - fp.kappa
    sigma = fp.noise_a2 * q / fp.kappa
    dsigma = fp.noise_a2 * s / fp.kappa
    if fp.terms:
        rhos, a2s, weights = term_arrays(fp)
        den = rhos - a2s * q * G / fp.kappa ** 2
        num = a2s * rhos * q / fp.kappa
        dden = -(a2s / fp.kappa ** 2) * (s * G + q)
        dnum = a2s * rhos * s / fp.kappa
        sigma = sigma + np.sum(weights * num / den)
        dsigma = dsigma + np.sum(weights * (dnum * den - num * dden) / den ** 2)
    F = G * (s + sigma) + 1.0
    dF = s + sigma + G * dsigma
    return F, dF


def continuation_reference(s, fp, ratio=0.8, dps=20):
    """Raw-axis G(s) on the Herglotz branch, in mpmath at `dps` digits.

    Follows G down the line x = Re s from y = 10 max(|s|, raw mean
    eigenvalue), where G is close to -1/s, to y = Im s: y shrinks by `ratio`
    per rung, and findroot solves the cleared equation on each rung from the
    previous rung's value.
    """
    with mpmath.workdps(dps):
        kappa, noise_a2 = mpmath.mpf(fp.kappa), mpmath.mpf(fp.noise_a2)
        terms = [tuple(map(mpmath.mpf, term)) for term in fp.terms]

        def cleared(G, z):
            q = z * G + 1 - kappa
            sigma = noise_a2 * q / kappa + mpmath.fsum(
                w * a2 * rho * q / kappa / (rho - a2 * q * G / kappa ** 2)
                for rho, a2, w in terms)
            return G * (z + sigma) + 1

        x, y_end = mpmath.mpf(s.real), mpmath.mpf(s.imag)
        y = mpmath.mpf(10 * max(abs(s), fp.mean_eigenvalue() * fp.scale))
        G = -1 / mpmath.mpc(x, y)
        while y > y_end:
            y = max(y * ratio, y_end)
            z = mpmath.mpc(x, y)
            G = mpmath.findroot(lambda g: cleared(g, z), G)
        return complex(G)
