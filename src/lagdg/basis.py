"""Scaled Laguerre and normalized Legendre basis evaluation.

Two families live on the half line [0, inf): scaled Laguerre polynomials
L_j(beta*z), orthogonal against the weight exp(-beta*z), and scaled
Laguerre functions exp(-beta*z/2) * L_j(beta*z), orthogonal with unit
weight and equal to 1 at z = 0 for every index j.  The finite-domain
solver uses Legendre polynomials mapped to mesh elements and normalized
so that the element mass matrix is dz times the identity.

Function values are produced by the three-term recurrence; the function
family multiplies the recurrence through by exp(-beta*z/2) so that large
indices never materialize the huge bare polynomial values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LAGUERRE_FUNCTIONS = "functions"
LAGUERRE_POLYNOMIALS = "polynomials"

_BASIS_KINDS = (LAGUERRE_FUNCTIONS, LAGUERRE_POLYNOMIALS)


@dataclass(frozen=True)
class BasisSpec:
    """Basis family selector: kind, inverse-length scaling beta, cutoff M."""

    kind: str
    beta: float
    M: int

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {_BASIS_KINDS}")
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.M < 0:
            raise ValueError(f"M must be non-negative, got {self.M}")


def laguerre_poly_table(n: int, x) -> np.ndarray:
    """Values of L_0..L_n at x (unscaled variable), shape (n+1,) + x.shape.

    Uses (j+1) L_{j+1}(x) = (2j+1-x) L_j(x) - j L_{j-1}(x).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = 1.0 - x
    for j in range(1, n):
        out[j + 1] = ((2 * j + 1 - x) * out[j] - j * out[j - 1]) / (j + 1)
    return out


def laguerre_fun_table(n: int, x) -> np.ndarray:
    """Values of exp(-x/2) L_0..L_n at x, via the damped recurrence.

    The exp(-x/2) factor is attached to the j = 0 seed; the recurrence
    coefficients do not depend on j's normalization, so every row carries
    the envelope and stays O(1) even where L_j itself would overflow.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = np.exp(-0.5 * x)
    if n >= 1:
        out[1] = (1.0 - x) * out[0]
    for j in range(1, n):
        out[j + 1] = ((2 * j + 1 - x) * out[j] - j * out[j - 1]) / (j + 1)
    return out


def legendre_eval(l: int, xi):
    """Legendre polynomial P_l on [-1, 1] by the three-term recurrence."""
    if l < 0:
        raise IndexError("negative Legendre degree")
    xi = np.asarray(xi, dtype=float)
    p_prev = np.ones_like(xi)
    if l == 0:
        return float(p_prev) if p_prev.ndim == 0 else p_prev
    p = xi.copy()
    for k in range(1, l):
        p, p_prev = ((2 * k + 1) * xi * p - k * p_prev) / (k + 1), p
    return float(p) if p.ndim == 0 else p

