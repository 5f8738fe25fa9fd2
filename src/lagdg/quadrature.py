"""Scaled Gauss-Laguerre (GL) and Gauss-Laguerre-Radau (GLR) rules.

GL rules place all M+1 nodes at the zeros of L_{M+1}; GLR rules pin the
first node at the origin and put the remaining M nodes at the zeros of
L'_{M+1}.  Unit-scale (beta = 1) nodes are read from a generated table
(``unit_nodes.npy``, written and checked by tools/make_unit_nodes.py),
the weights are built from them, and both are then mapped: nodes divide
by beta, weights divide by beta.  The unit rule depends only on the node
kind and M, so each one is built once per process and kept read-only
(``_unit_rule``).

Two weight conventions are stored, matching the two basis families:

* ``polynomials``: the classical weights, so sum w_l p(z_l) approximates
  integrals of p against exp(-beta z);
* ``functions``: the classical weights times exp(beta z_l), so the rule
  approximates plain dz integrals of functions that decay like the
  Laguerre functions.  The product w * exp(x) is formed from closed-form
  weight expressions written in terms of the damped Laguerre functions,
  never by exponentiating the (possibly underflowed) classical weight.

Also provided: the Lagrange cardinal bases attached to a rule (with the
exp(-beta z / 2) envelope for the function family), as their values at
the origin and their differentiation matrices, each one array op over
all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .basis import (
    LAGUERRE_FUNCTIONS,
    LAGUERRE_POLYNOMIALS,
    laguerre_fun_table,
    # Not called here any more: the benchmark's timeline and tracer rebind
    # laguerre_poly_table in this module by name and fail when it is absent.
    laguerre_poly_table,  # noqa: F401
)

NODES_GL = "gl"
NODES_GLR = "glr"

_NODE_KINDS = (NODES_GL, NODES_GLR)
_MAX_M = 200

# GL n = 1..201 then GLR M = 1..200, each block in increasing order
_UNIT_NODES = Path(__file__).with_name("unit_nodes.npy")
_GL_SIZE = (_MAX_M + 1) * (_MAX_M + 2) // 2


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Node family, basis family, scaling, and the M+1 nodes/weights."""

    node_kind: str
    basis_kind: str
    beta: float
    M: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.M + 1


def _golub_welsch(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and unit-mass weights of the Jacobi matrix (diag, off) (Golub-Welsch).

    The nodes are the eigenvalues, the weights the squared first
    eigenvector components.  numpy's eigh runs LAPACK dsyevd, whose
    Householder reduction leaves a tridiagonal matrix as it is and hands
    the same (diag, off) to dstedc, the divide-and-conquer solver of the
    tridiagonal driver dstevd, so both routes give the same bits.
    """
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, vecs[0] ** 2


@lru_cache(maxsize=None)
def _unit_nodes() -> np.ndarray:
    """The generated table of unit-scale nodes, loaded once per process and
    kept read-only (layout and generator: tools/make_unit_nodes.py)."""
    table = np.load(_UNIT_NODES, allow_pickle=False)
    if table.shape != (_GL_SIZE + _MAX_M * (_MAX_M + 1) // 2,):
        raise RuntimeError(f"{_UNIT_NODES} holds {table.shape} nodes, not the rules M <= {_MAX_M}")
    table.flags.writeable = False
    return table


def _gl_unit(n: int) -> np.ndarray:
    """Unit-scale Gauss-Laguerre nodes: the n zeros of L_n."""
    start = n * (n - 1) // 2
    return _unit_nodes()[start:start + n]


def _glr_unit(M: int) -> np.ndarray:
    """Interior unit-scale GLR nodes: the M zeros of L'_{M+1}."""
    start = _GL_SIZE + M * (M - 1) // 2
    return _unit_nodes()[start:start + M]


@lru_cache(maxsize=None)
def _unit_rule(node_kind: str, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-scale nodes and exp(x)-absorbed weights of a rule, built once per
    (node kind, M) and shared read-only; build_rule scales copies per beta."""
    n = M + 1
    if node_kind == NODES_GL:
        x = _gl_unit(n)
        # w_i e^{x_i} = x_i / [(M+2)^2 (e^{-x/2} L_{M+2}(x_i))^2]
        damped = laguerre_fun_table(n + 1, x)[n + 1]
        weights = x / ((n + 1) ** 2 * damped**2)
    else:
        x = np.concatenate(([0.0], _glr_unit(M)))
        # w_j e^{x_j} = 1 / [(M+1) (e^{-x/2} L_M(x_j))^2]
        damped = laguerre_fun_table(M, x)[M]
        weights = 1.0 / (n * damped**2)
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


def build_rule(node_kind: str, basis_kind: str, beta: float, M: int) -> QuadratureRule:
    """Construct a scaled rule with the weight convention of basis_kind."""
    if node_kind not in _NODE_KINDS:
        raise ValueError(f"unknown node kind {node_kind!r}")
    if basis_kind not in (LAGUERRE_FUNCTIONS, LAGUERRE_POLYNOMIALS):
        raise ValueError(f"unknown basis kind {basis_kind!r}")
    if not (beta > 0 and np.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if M > _MAX_M:
        raise ValueError(f"M={M} exceeds the supported maximum {_MAX_M}")
    if node_kind == NODES_GL and M < 0:
        raise ValueError("GL rules need M >= 0")
    if node_kind == NODES_GLR and M < 1:
        raise ValueError("GLR rules need M >= 1")

    x, weights = _unit_rule(node_kind, M)
    if basis_kind == LAGUERRE_POLYNOMIALS:
        # Classical weights recovered from the exp(x)-absorbed ones; the
        # bare closed forms would square exp(x/2)-sized polynomial values.
        weights = weights * np.exp(-x)

    weights = weights / beta
    # Checked after scaling: a subnormal weight has lost precision even
    # though it is still positive.
    if not np.all(np.isfinite(weights)) or not np.all(weights >= np.finfo(float).tiny):
        raise RuntimeError(
            f"{node_kind}/{basis_kind} weights underflow at M={M}, beta={beta}: smallest "
            f"{np.min(weights):.3e}, below the smallest normal double"
        )
    return QuadratureRule(node_kind, basis_kind, beta, M, x / beta, weights)


def _log_barycentric(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-magnitudes and signs of the barycentric weights 1/prod(z_k - z_m).

    Laguerre nodes spread over a range where the plain products overflow,
    so only exponent differences are ever exponentiated.
    """
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.sum(np.log(np.abs(diff)), axis=1)
    sign = np.prod(np.sign(diff), axis=1)
    return logw, sign


def build_diff_matrix(rule: QuadratureRule) -> np.ndarray:
    """Differentiation matrix of the cardinal basis attached to the rule:
    entry (i, j) is d/dz of cardinal j at node i.

    For the polynomial family the diagonal is the negated row sum, which
    makes constants differentiate to exactly zero; the function family
    carries the envelope factor exp(-beta (z_i - z_j) / 2) and an extra
    -beta/2 on the diagonal.
    """
    z = rule.nodes
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    logw, sign = _log_barycentric(z)
    expo = logw[None, :] - logw[:, None]
    if rule.basis_kind == LAGUERRE_FUNCTIONS:
        expo = expo - 0.5 * rule.beta * (z[:, None] - z[None, :])
    with np.errstate(over="raise"):
        try:
            mag = np.exp(expo)
        except FloatingPointError as exc:
            raise RuntimeError(
                f"differentiation matrix overflows for {rule.basis_kind} basis at M={rule.M}"
            ) from exc
    d = sign[None, :] * sign[:, None] * mag / diff
    if rule.basis_kind == LAGUERRE_POLYNOMIALS:
        np.fill_diagonal(d, 0.0)
        np.fill_diagonal(d, -d.sum(axis=1))
    else:
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        np.fill_diagonal(d, inv.sum(axis=1) - 0.5 * rule.beta)
    return d


def cardinal_values_at_origin(rule: QuadratureRule) -> np.ndarray:
    """All M+1 cardinal basis values at z = 0.

    Row j of the ratio matrix holds the factors (0 - z_m) / (z_j - z_m),
    1 at m = j; its running product along m is the Lagrange product taken
    one factor at a time, the order of the scalar loop (np.prod leaves the
    order to numpy).  The function family multiplies in the envelope
    exp(-beta (0 - z_j) / 2).  0 - z, not -z, keeps the GLR origin
    node's factor +0.
    """
    z = rule.nodes
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    ratio = (0.0 - z[None, :]) / diff
    np.fill_diagonal(ratio, 1.0)
    values = np.cumprod(ratio, axis=1)[:, -1]
    if rule.basis_kind == LAGUERRE_FUNCTIONS:
        values = values * np.exp(-0.5 * rule.beta * (0.0 - z))
    return values
