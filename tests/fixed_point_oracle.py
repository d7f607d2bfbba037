"""The Stieltjes fixed-point kernel written on numpy arrays, kept as a test oracle.

The library evaluates the self-energy and the cleared equation term by term on
plain Python scalars. These are the same formulas evaluated elementwise over
the term arrays of a FixedPointParams, a second implementation that tests
compare the library against. Division by a zero denominator gives inf or nan,
as numpy does, instead of raising.
"""

import numpy as np


def self_energy(G, s, fp):
    """T(G) = G * Sigma(G); each term a2*rho*(q/kappa) / (rho - a2*(G/kappa^2)*q)."""
    q = s * G + 1.0 - fp.kappa
    total = fp.noise_a2 * q / fp.kappa
    if len(fp.rhos):
        num = fp.a2s * fp.rhos * q / fp.kappa
        den = fp.rhos - fp.a2s * q * G / fp.kappa ** 2
        total = total + np.sum(fp.weights * num / den)
    return total


def cleared_and_deriv(G, s, fp):
    """F(G) = G (s + Sigma(G)) + 1 and its analytic derivative."""
    q = s * G + 1.0 - fp.kappa
    sigma = fp.noise_a2 * q / fp.kappa
    dsigma = fp.noise_a2 * s / fp.kappa
    if len(fp.rhos):
        den = fp.rhos - fp.a2s * q * G / fp.kappa ** 2
        num = fp.a2s * fp.rhos * q / fp.kappa
        dden = -(fp.a2s / fp.kappa ** 2) * (s * G + q)
        dnum = fp.a2s * fp.rhos * s / fp.kappa
        sigma = sigma + np.sum(fp.weights * num / den)
        dsigma = dsigma + np.sum(fp.weights * (dnum * den - num * dden) / den ** 2)
    F = G * (s + sigma) + 1.0
    dF = s + sigma + G * dsigma
    return F, dF
