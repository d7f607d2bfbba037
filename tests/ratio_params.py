"""A stand-in for SystemParams whose six ratios are set freely, kept for tests.

SystemParams derives kappa, alpha, r, t, zeta and beta_ratio from integer
dimensions and powers, so some ratio sets belong to no system: alpha = 0,
t = r, or an (r, t) pair that no integer R and C give exactly. The
bulk_support methods only read attributes, so tests that need such ratios
pass a RatioParams: the fields of SystemParams that the support analysis
reads, plus the six ratios as fields.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class RatioParams:
    kappa: float
    alpha: float
    r: float
    t: float
    zeta: float
    beta_ratio: float
    R: int
    T: int
    C: int
    L: int
    P: float
    W: float
