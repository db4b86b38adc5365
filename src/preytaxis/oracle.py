"""Independent reference computations used to cross-check the solver.

Nothing here shares stepping code with the dynamics module: the
space-free reaction system is integrated by scipy's adaptive embedded
Runge-Kutta 4(5), and the pure-diffusion reference is the closed-form
zero-flux heat eigenmode.

scipy is imported on the first homogeneous_ode call, not with this
module: importing scipy.integrate costs about 0.5 s, more than the rest
of the start-up to a run's first step, and only the ODE cross-check
(acceptance criterion 4) needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, laplacian_values
from .model import ModelParams

__all__ = [
    "OdeTrajectory",
    "DegenerateInput",
    "homogeneous_ode",
    "heat_eigenmode_error",
    "refinement_order",
]


# Local relative tolerance of the reference ODE integration.
_ODE_REL_TOL = 1e-10


class DegenerateInput(ValueError):
    """Refinement data that cannot yield an order (zero error, single point)."""


@dataclass(frozen=True)
class OdeTrajectory:
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray


def homogeneous_ode(
    u0: float,
    v0: float,
    p: ModelParams,
    t_end: float,
    t_eval=None,
) -> OdeTrajectory:
    """Reference solution of the space-free reaction system.

    du/dt = u (m1 - u + a v),  dv/dt = v (m2 - b u - v),

    integrated with an adaptive embedded RK 4(5) pair at local relative
    tolerance _ODE_REL_TOL, absolute tolerance 1e-3 of it.  t_eval
    optionally pins the output times.

    solve_ivp is imported here rather than at module top so that
    importing the package does not load scipy (see the module docstring).
    """
    from scipy.integrate import solve_ivp

    if u0 < 0 or v0 < 0:
        raise ValueError(f"initial values must be >= 0 (got {u0}, {v0})")
    if t_end <= 0:
        raise ValueError(f"t_end must be > 0 (got {t_end})")

    def rates(_t, y):
        u, v = y
        return [u * (p.m1 - u + p.a * v), v * (p.m2 - p.b * u - v)]

    sol = solve_ivp(
        rates,
        (0.0, t_end),
        [u0, v0],
        method="RK45",
        rtol=_ODE_REL_TOL,
        atol=_ODE_REL_TOL * 1e-3,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"reference integrator failed: {sol.message}")
    return OdeTrajectory(times=sol.t, u=sol.y[0], v=sol.y[1])


def heat_eigenmode_error(n_cells: int, k: int, d: float, t: float) -> float:
    """Max-norm error of the package's zero-flux Laplacian against the exact
    zero-flux eigenmode on [0, 1], integrated exactly in time.

    The exact solution for initial data cos(k pi x) is
    exp(-d (k pi)^2 t) cos(k pi x).  The sampled cosine w is an
    eigenvector of the discrete Laplacian, so the semidiscrete solution
    is exp(d lam t) w, lam the Rayleigh quotient of laplacian_values on w,
    and the reported error is the spatial discretization's alone.
    Raises RuntimeError when w is not an eigenvector (residual above
    1e-10 |lam|), so a wrong Laplacian cannot pass for a right one.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0 (got {k})")
    if d <= 0 or t < 0:
        raise ValueError(f"need d > 0 and t >= 0 (got d={d}, t={t})")
    g = Grid.uniform(1, n_cells, 1.0)
    x = g.centers(0)
    w = np.cos(k * math.pi * x)
    lap = laplacian_values(g, w)
    lam = float(w @ lap) / float(w @ w)
    residual = float(np.abs(lap - lam * w).max())
    if residual > 1e-10 * abs(lam):
        raise RuntimeError(f"cos({k} pi x) is not a Laplacian eigenvector: residual {residual:.3e}")
    exact = math.exp(-d * (k * math.pi) ** 2 * t) * w
    return float(np.abs(math.exp(d * lam * t) * w - exact).max())


def refinement_order(pairs: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(h).

    Raises DegenerateInput when fewer than two pairs are given or any
    error is exactly zero (the discretization was exact; no slope).
    """
    if len(pairs) < 2:
        raise DegenerateInput("need at least two (h, error) pairs")
    h = np.array([q[0] for q in pairs], dtype=float)
    err = np.array([q[1] for q in pairs], dtype=float)
    if (h <= 0).any():
        raise DegenerateInput("mesh sizes must be > 0")
    if (err == 0).any():
        raise DegenerateInput("zero error: discretization exact, order undefined")
    if (err < 0).any():
        raise DegenerateInput("errors must be >= 0")
    slope, _ = np.polyfit(np.log(h), np.log(err), 1)
    return float(slope)
