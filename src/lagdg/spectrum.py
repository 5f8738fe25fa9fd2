"""Eigenvalue computation and stability classification of dense operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .advection import SemiDiscreteOperator

DEFAULT_STABILITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray
    max_real_part: float
    spectral_radius: float
    stable: bool


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square real matrix.

    Exactly triangular input short-circuits to the diagonal (its own Schur
    form); everything else goes through LAPACK's balanced Hessenberg-QR.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    if not np.any(np.triu(A, 1)) or not np.any(np.tril(A, -1)):
        return np.diag(A).astype(complex)
    return np.linalg.eigvals(A)


def classify(op: SemiDiscreteOperator) -> SpectrumReport:
    """Stability report: stable iff max Re <= DEFAULT_STABILITY_TOL * max(1, spectral radius).

    The tolerance is relative to the spectral radius so that rounding-level
    drift off the imaginary axis never flags a neutrally stable operator.
    """
    lam = op.exact_eigenvalues if op.exact_eigenvalues is not None else eigenvalues(op.A)
    lam = np.asarray(lam, dtype=complex)
    max_re = float(np.max(lam.real)) if lam.size else 0.0
    rho = float(np.max(np.abs(lam))) if lam.size else 0.0
    return SpectrumReport(
        eigenvalues=lam,
        max_real_part=max_re,
        spectral_radius=rho,
        stable=max_re <= DEFAULT_STABILITY_TOL * max(1.0, rho),
    )
