"""Semi-discrete operators dq/dt = A q + g for scalar advection on [0, inf).

Every combination of discretization form (strong collocation, weak nodal,
weak modal), basis family (Laguerre functions or polynomials), node
family (GL or GLR) and boundary direction (inflow u > 0 with Dirichlet
data, outflow u < 0 with no data) is assembled as a dense matrix plus a
forcing vector, ready for eigenvalue analysis or time stepping.

Weight conventions for the nodal weak forms: GLR rules pair the function
basis with the exp(z)-absorbed weights and the polynomial basis with the
classical ones; the GL rules use the classical weights for both bases
(see the weak-nodal assembly notes below).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import LAGUERRE_FUNCTIONS, LAGUERRE_POLYNOMIALS, BasisSpec
from .quadrature import (
    _MAX_M,
    NODES_GL,
    NODES_GLR,
    QuadratureRule,
    build_diff_matrix,
    build_rule,
    cardinal_values_at_origin,
)
from .semiinf import LaguerreModalOperator, scalar_system

FORM_STRONG = "strong"
FORM_NODAL = "nodal"
FORM_MODAL = "modal"

INFLOW = "inflow"
OUTFLOW = "outflow"

_FORMS = (FORM_STRONG, FORM_NODAL, FORM_MODAL)
_DIRECTIONS = (INFLOW, OUTFLOW)


@dataclass(frozen=True)
class SchemeVariant:
    """One discretization of the model advection problem.

    node_kind is ignored for the modal form; q_left is the Dirichlet
    datum used by inflow variants.
    """

    form: str
    basis_kind: str
    node_kind: str = NODES_GLR
    direction: str = INFLOW
    q_left: float = 0.0

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if self.basis_kind not in (LAGUERRE_FUNCTIONS, LAGUERRE_POLYNOMIALS):
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.node_kind not in (NODES_GL, NODES_GLR):
            raise ValueError(f"unknown node kind {self.node_kind!r}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True, eq=False)
class SemiDiscreteOperator:
    """Dense (A, g) pair; dof_offset records whether node 0 was eliminated.

    exact_eigenvalues is set when the variant's spectrum is known in
    closed form (triangular modal matrices; the nilpotent weak nodal
    polynomial GLR outflow case) and lets the classifier bypass the
    dense solver where it cannot resolve a defective spectrum.
    """

    A: np.ndarray
    g: np.ndarray
    dof_offset: int = 0
    exact_eigenvalues: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _modal_operator(variant: SchemeVariant, beta: float, M: int, u: float) -> SemiDiscreteOperator:
    # the scalar case of the coupled solver's Laguerre operator, whose K
    # already feeds the outgoing trace back into every mode for u < 0.
    # L_j(beta z) = e^{beta z / 2} Lhat_j(z), so the polynomial coefficients
    # obey the same system shifted by -beta u / 2 I, with the same forcing.
    op = LaguerreModalOperator(scalar_system(u), BasisSpec(beta, M))
    A = op.K
    g = beta * op.a_plus[0, 0] * variant.q_left * np.ones(M + 1)
    exact = np.full(M + 1, -0.5 * beta * abs(u), dtype=complex)
    if variant.basis_kind == LAGUERRE_POLYNOMIALS:
        A[np.diag_indices(M + 1)] -= 0.5 * beta * u
        exact -= 0.5 * beta * u
    return SemiDiscreteOperator(A, g, dof_offset=0, exact_eigenvalues=exact)


def _strong_operator(variant: SchemeVariant, beta: float, M: int, u: float) -> SemiDiscreteOperator:
    rule = build_rule(NODES_GLR, variant.basis_kind, beta, M)
    D = build_diff_matrix(rule)
    if variant.direction == INFLOW:
        A = -u * D[1:, 1:]
        g = -u * variant.q_left * D[1:, 0]
        exact = None
        if variant.basis_kind == LAGUERRE_POLYNOMIALS:
            exact = -u * _glr_poly_block_spectrum(beta, M)
        return SemiDiscreteOperator(A, g, dof_offset=1, exact_eigenvalues=exact)
    return SemiDiscreteOperator(-u * D, np.zeros(M + 1), dof_offset=0)


def _nodal_weights(rule: QuadratureRule) -> np.ndarray:
    # GL rules keep the classical weights for both bases: conjugating the
    # function-basis operators with the exp(z)-absorbed weights instead
    # would suppress the violent outflow spectra these rules actually
    # exhibit, which is the finding the GL variants exist to demonstrate.
    if rule.node_kind == NODES_GL and rule.basis_kind == LAGUERRE_FUNCTIONS:
        return build_rule(NODES_GL, LAGUERRE_POLYNOMIALS, rule.beta, rule.M).weights
    return rule.weights


# Exact spectra of the GLR polynomial-basis operators.
#
# The differentiation matrix D of the Lagrange polynomial basis is a nodal
# representation of d/dz acting on degree-M polynomials, hence nilpotent.
# The boundary-node cardinal function is h_0(z) = L'_{M+1}(beta z) /
# L'_{M+1}(0), so the derivative chain at the origin is (D^k)_{00} =
# (-beta)^k C(M+1, k+1) / (M+1).  Expanding the rank-one updates of the
# assembled matrices against that chain collapses both characteristic
# polynomials binomially:
#
# * trailing M x M block (inflow): det(lam I - D_M) reduces to
#   nu^n - (nu - 1)^n with nu = lam / beta, whose roots all sit on the
#   line Re nu = 1/2:  lam = beta (1/2 + (i/2) cot(pi m / n)), m = 1..M;
# * outflow matrix (u/w_0) e0 e0^T + u Om^-1 D Om - beta u I: the rank-one
#   term has weight 1/w_0 = n beta and the determinant collapses to
#   (nu + 1)^n, i.e. every eigenvalue is exactly zero (checked against
#   small-M dense solves and ||A^n|| ~ 0 in the tests).
#
# Dense QR cannot resolve either structure at large M: a defective
# eigenvalue of multiplicity n smears into an O(||A||^(1-1/n) eps^(1/n))
# ring, so the assembled operators carry their exact spectra.


def _glr_poly_block_spectrum(beta: float, M: int) -> np.ndarray:
    n = M + 1
    m = np.arange(1, n)
    return beta * (0.5 + 0.5j / np.tan(np.pi * m / n))


def _nodal_operator(variant: SchemeVariant, beta: float, M: int, u: float) -> SemiDiscreteOperator:
    # Assembled form u Om^-1 D Om, Om = diag(w), then per node family and
    # direction, minus beta u I for the polynomial basis:
    #   GL inflow    forcing u q_left Om^-1 h
    #   GL outflow   + u Om^-1 h h^T
    #   GLR inflow   boundary node eliminated: the trailing block, forced by it
    #   GLR outflow  + (u / w_0) e0 e0^T
    # Reading the weak form as integrated by parts puts D^T in place of D;
    # for the GL polynomial outflow operator GL exactness then collapses it
    # to -u D, which is nilpotent, and at beta = 1, M = 10 the function-basis
    # GL outflow max Re lambda becomes -0.42 instead of +0.67 (80-digit
    # values, see tests/test_mp_oracle.py).  PAPER.md does not settle which
    # form the paper uses; this one is kept.
    rule = build_rule(variant.node_kind, variant.basis_kind, beta, M)
    D = build_diff_matrix(rule)
    w = _nodal_weights(rule)
    poly = variant.basis_kind == LAGUERRE_POLYNOMIALS
    q = variant.q_left
    # the weight ratios of the polynomial forms overflow at large M, which
    # assemble reports as a numerical failure
    with np.errstate(over="ignore", invalid="ignore"):
        A = u * (D * (w[None, :] / w[:, None]))
    g = np.zeros(M + 1)
    dof_offset, exact = 0, None
    if variant.node_kind == NODES_GL:
        h = cardinal_values_at_origin(rule)
        if variant.direction == INFLOW:
            g = u * q * h / w
        else:
            A += u * np.outer(h / w, h)
    elif variant.direction == INFLOW:
        A = A[1:, 1:]
        g = w[0] * u * q * (D[0, 0] if poly else D[1:, 0]) / w[1:]
        dof_offset = 1
        if poly:
            exact = u * _glr_poly_block_spectrum(beta, M) - beta * u
    else:
        A[0, 0] += u / w[0]
        if poly:
            exact = np.zeros(M + 1, dtype=complex)
    if poly:
        A = A - beta * u * np.eye(A.shape[0])
    return SemiDiscreteOperator(A, g, dof_offset, exact_eigenvalues=exact)


def assemble(variant: SchemeVariant, beta: float, M: int, u: float) -> SemiDiscreteOperator:
    """Assemble the (A, g) pair of a variant for advection speed u.

    An operator with a non-finite entry is a numerical failure
    (RuntimeError), never a result.
    """
    if not np.isfinite(u):
        raise ValueError(f"u must be finite, got {u}")
    if u == 0:
        raise ValueError("u = 0 has no inflow/outflow character; rejected")
    if variant.direction == INFLOW and u < 0:
        raise ValueError("inflow variants require u > 0")
    if variant.direction == OUTFLOW and u > 0:
        raise ValueError("outflow variants require u < 0")
    if not (beta > 0 and np.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if M < 0:
        raise ValueError("M must be non-negative")
    if M > _MAX_M:
        raise ValueError(f"M={M} exceeds the supported maximum {_MAX_M}")

    if variant.form == FORM_MODAL:
        op = _modal_operator(variant, beta, M, u)
    elif variant.form == FORM_STRONG:
        if variant.node_kind == NODES_GL:
            raise ValueError("strong collocation requires GLR nodes (boundary conditions need a boundary node)")
        op = _strong_operator(variant, beta, M, u)
    else:
        op = _nodal_operator(variant, beta, M, u)
    # the weight ratios of the nodal polynomial forms overflow at large M
    if not (np.all(np.isfinite(op.A)) and np.all(np.isfinite(op.g))):
        raise RuntimeError(
            f"{variant.form}/{variant.basis_kind}/{variant.node_kind}/{variant.direction} operator "
            f"has non-finite entries at beta={beta}, M={M}"
        )
    return op
