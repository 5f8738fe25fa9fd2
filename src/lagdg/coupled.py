"""Split-domain solver: DG on [0, L], modal Laguerre on [L, inf).

The two discretizations exchange interface data once per right-hand-side
evaluation: the DG trace at L becomes the Dirichlet vector of the modal
scheme, and the modal trace at its origin becomes the exterior state of
the DG upwind flux.  Time integration is the explicit three-stage
third-order Runge-Kutta scheme.

The linearized shallow water system is provided as the stock wave model;
its sigmoid Rayleigh damping acts in the semi-infinite part only (see
semiinf.SigmoidDamping).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec
from .dg import DGOperator, Mesh1D
from .semiinf import HyperbolicSystem, LaguerreModalOperator, SigmoidDamping, project as project_semi

CFL_WARN = 0.4  # advisory bound: run_simulation warns above it
# Subnormal state entries are zeroed every FLUSH_EVERY steps: a precursor that decays
# through the subnormal range ahead of a wave slows every step, and numpy has no
# flush-to-zero switch.  The cadence is measured in ROADMAP item 5.
FLUSH_EVERY = 10


@dataclass(frozen=True)
class SWEConfig:
    """Linearized shallow water parameters."""

    H: float = 1.0
    U: float = 0.0
    grav: float = 9.81

    def __post_init__(self):
        if self.H <= 0 or self.grav <= 0:
            raise ValueError("reference height and gravity must be positive")
        if abs(self.U) >= np.sqrt(self.grav * self.H):
            raise ValueError("supercritical background flow: characteristic directions degenerate")

    @property
    def wave_speed(self) -> float:
        return float(np.sqrt(self.grav * self.H))


def swe_system(cfg: SWEConfig) -> HyperbolicSystem:
    """d=2 system for (h, u): speeds U +- sqrt(g H), closed-form eigenvectors."""
    H, U, g = cfg.H, cfg.U, cfg.grav
    c = cfg.wave_speed
    a = np.array([[U, H], [g, U]])
    V = np.array([[H, H], [c, -c]])
    Vinv = np.array([[c, H], [c, -H]]) / (2.0 * H * c)
    lam = np.array([U + c, U - c])
    return HyperbolicSystem(a, (V, lam, Vinv))


def rk3_step(rhs: Callable, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Three-stage third-order step y + dt/6 (K1 + K2 + 4 K3), in place with the same bits."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = rhs(t, y)
    y2 = dt * k1
    y2 += y
    k2 = rhs(t + dt, y2)
    s = k1 + k2
    y3 = 0.25 * dt * s
    y3 += y
    k3 = rhs(t + 0.5 * dt, y3)
    out = 4.0 * k3
    out += s
    out *= dt / 6.0
    out += y
    if not np.isfinite(out).all():
        bad = [name for name, k in (("K1", k1), ("K2", k2), ("K3", k3)) if not np.all(np.isfinite(k))]
        raise RuntimeError(f"time step produced non-finite values at t={t} (stages: {bad or ['update']})")
    return out


class CoupledModel:
    """Prepared coupled right-hand side over a flat state vector: the DG
    coefficients in the DG operator's layout, then the (d, M+1) modal
    coefficients.  split gives views of the two parts.

    left_bc and left_mask go to the DG operator, which owns the left
    boundary (see DGOperator); without them it is transmissive.  damping
    goes to the modal operator: the finite domain always runs undamped.
    """

    def __init__(self, system: HyperbolicSystem, mesh: Mesh1D, p: int, spec: BasisSpec,
                 left_bc: Callable | None = None, left_mask=None,
                 damping: SigmoidDamping | None = None):
        self.dg_op = DGOperator(system, mesh, p, left_bc, left_mask)
        self.semi_op = LaguerreModalOperator(system, spec, damping)
        self._n_dg = int(np.prod(self.dg_op.blocks_shape))
        self._semi_shape = (system.d, spec.M + 1)

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a flat state: (DG blocks of dg_op.blocks_shape, (d, M+1) modal coefficients)."""
        return y[: self._n_dg].reshape(self.dg_op.blocks_shape), y[self._n_dg:].reshape(self._semi_shape)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        dg, semi = self.split(y)
        dg_trace = self.dg_op.right_trace(dg)
        dg_dot = self.dg_op.rhs(dg, t, semi.sum(axis=1))
        semi_dot = self.semi_op.rhs(semi, t, dg_trace)
        return np.concatenate([dg_dot.ravel(), semi_dot.ravel()])

    def initial_state(self, *component_funcs) -> np.ndarray:
        """Flat state of the d component profiles, given in the physical coordinate."""
        L = self.dg_op.mesh.length
        dg = self.dg_op.project(component_funcs)
        semi = project_semi([lambda z, f=f: f(z + L) for f in component_funcs], self.semi_op.spec)
        return np.concatenate([dg, semi.ravel()])

    def centers_view(self, y: np.ndarray) -> np.ndarray:
        """Cell-centre values of the DG part, shape (n_elements, d)."""
        return self.dg_op.centers(self.split(y)[0])


def run_simulation(rhs: Callable, y0: np.ndarray, t0: float, dt: float, n_steps: int,
                   observers=(), max_speed: float | None = None,
                   min_dz: float | None = None) -> np.ndarray:
    """Advance n_steps RK3 steps; observers are called as f(step, t, y), after any flush.

    The CFL check is advisory: a warning above CFL_WARN, not an error, so
    runs can match externally prescribed step counts exactly.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if max_speed is not None and min_dz is not None and n_steps > 0:
        cfl = dt * max_speed / min_dz
        if cfl > CFL_WARN:
            warnings.warn(f"advective CFL {cfl:.3f} exceeds {CFL_WARN}", RuntimeWarning, stacklevel=2)
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    for obs in observers:
        obs(0, t, y)
    for step in range(1, n_steps + 1):
        y = rk3_step(rhs, y, t, dt)
        t = t0 + step * dt
        if step % FLUSH_EVERY == 0:
            np.copyto(y, 0.0, where=np.abs(y) < np.finfo(float).tiny)
        for obs in observers:
            obs(step, t, y)
    return y


def semi_energy(coeffs: np.ndarray, beta: float, grav: float, H: float) -> float:
    """(1/2) integral of (g h^2 + H u^2) over the semi-infinite domain, from
    the (d, M+1) modal coefficients of CoupledModel.split."""
    return 0.5 / beta * float(grav * np.sum(coeffs[0] ** 2) + H * np.sum(coeffs[1] ** 2))
