"""Scaled Laguerre and normalized Legendre basis evaluation.

Two families live on the half line [0, inf): scaled Laguerre polynomials
L_j(beta*z), orthogonal against the weight exp(-beta*z), and scaled
Laguerre functions exp(-beta*z/2) * L_j(beta*z), orthogonal with unit
weight and equal to 1 at z = 0 for every index j.  The finite-domain
solver uses Legendre polynomials mapped to mesh elements and normalized
so that the element mass matrix is dz times the identity.

Each family is evaluated as one table, all degrees at all points, by
its three-term recurrence.  The two Laguerre families share one
recurrence and differ only in its j = 0 seed: 1 for the polynomials,
exp(-x/2) for the functions, so large indices never materialize the
huge bare polynomial values.
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


def _laguerre_recurrence(n: int, x: np.ndarray, seed) -> np.ndarray:
    """Rows j = 0..n of seed * L_j(x), shape (n+1,) + x.shape, from
    (j+1) L_{j+1}(x) = (2j+1-x) L_j(x) - j L_{j-1}(x)."""
    out = np.empty((n + 1,) + x.shape)
    out[0] = seed
    if n >= 1:
        out[1] = (1.0 - x) * out[0]
    for j in range(1, n):
        out[j + 1] = ((2 * j + 1 - x) * out[j] - j * out[j - 1]) / (j + 1)
    return out


def laguerre_poly_table(n: int, x) -> np.ndarray:
    """Values of L_0..L_n at x (unscaled variable), shape (n+1,) + x.shape."""
    return _laguerre_recurrence(n, np.asarray(x, dtype=float), 1.0)


def laguerre_fun_table(n: int, x) -> np.ndarray:
    """Values of exp(-x/2) L_0..L_n at x, shape (n+1,) + x.shape.

    The exp(-x/2) envelope is the j = 0 seed, so every row stays O(1)
    even where L_j itself would overflow.
    """
    x = np.asarray(x, dtype=float)
    return _laguerre_recurrence(n, x, np.exp(-0.5 * x))


def legendre_table(p: int, x) -> np.ndarray:
    """Legendre polynomials P_0..P_p on [-1, 1] at x, shape (p+1,) + x.shape,
    from (k+1) P_{k+1}(x) = (2k+1) x P_k(x) - k P_{k-1}(x)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((p + 1,) + x.shape)
    out[0] = 1.0
    if p >= 1:
        out[1] = x
    for k in range(1, p):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out
