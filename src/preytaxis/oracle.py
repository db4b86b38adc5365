"""Independent reference computations used to cross-check the solver.

Nothing here shares stepping code with the dynamics module: the
space-free reaction system is integrated by classical fourth-order
Runge-Kutta in plain Python floats, and the pure-diffusion reference is
the closed-form zero-flux heat eigenmode.
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


# Fixed RK4 substep of the reference ODE, and the relative gap allowed
# between its passes at _SUBSTEP and _SUBSTEP / 2.
_SUBSTEP = 5e-4
_SELF_CHECK_REL = 1e-12


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

    at the output times t_eval (nondecreasing, within [0, t_end]; by
    default (0, t_end)).  Classical RK4 (Hairer, Norsett & Wanner,
    Solving ODEs I, II.1) steps from each output time to the next in
    equal steps of at most _SUBSTEP, then again at half that.  The
    half-step pass is returned; RuntimeError unless every output of the
    two passes is finite and agrees within _SELF_CHECK_REL relative, so
    rates the substep cannot resolve raise instead of returning a value.
    """
    if not (math.isfinite(u0) and math.isfinite(v0) and u0 >= 0 and v0 >= 0):
        raise ValueError(f"initial values must be finite and >= 0 (got {u0}, {v0})")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and > 0 (got {t_end})")
    times = np.array((0.0, t_end) if t_eval is None else t_eval, dtype=float)
    if times.ndim != 1 or not (np.all(times >= 0) and np.all(times <= t_end) and np.all(np.diff(times) >= 0)):
        raise ValueError(f"t_eval must be nondecreasing within [0, {t_end}] (got {t_eval})")
    y0, t_out = (float(u0), float(v0)), times.tolist()
    coarse = _rk4(*y0, p, t_out, _SUBSTEP)
    fine = _rk4(*y0, p, t_out, 0.5 * _SUBSTEP)
    for t, c, f in zip(t_out, coarse, fine):
        if not all(math.isfinite(y) and abs(y - x) <= _SELF_CHECK_REL * abs(y) for x, y in zip(c, f)):
            raise RuntimeError(
                f"reference RK4 unresolved at substep {_SUBSTEP}: (u, v) at t = {t} is {c}, "
                f"and {f} at half the substep")
    u, v = np.array(fine, dtype=float).reshape(-1, 2).T
    return OdeTrajectory(times=times, u=u, v=v)


def _rk4(u: float, v: float, p: ModelParams, times: list[float], substep: float) -> list[tuple[float, float]]:
    """(u, v) at each of times by classical RK4 from 0, each gap between
    consecutive times cut into ceil(gap / substep) equal steps."""
    m1, a, m2, b = float(p.m1), float(p.a), float(p.m2), float(p.b)
    out = []
    t = cu = cv = 0.0
    for t_next in times:
        n = math.ceil((t_next - t) / substep)
        dt = (t_next - t) / n if n else 0.0
        half, sixth = 0.5 * dt, dt / 6.0
        for _ in range(n):
            ku1, kv1 = u * (m1 - u + a * v), v * (m2 - b * u - v)
            u2, v2 = u + half * ku1, v + half * kv1
            ku2, kv2 = u2 * (m1 - u2 + a * v2), v2 * (m2 - b * u2 - v2)
            u3, v3 = u + half * ku2, v + half * kv2
            ku3, kv3 = u3 * (m1 - u3 + a * v3), v3 * (m2 - b * u3 - v3)
            u4, v4 = u + dt * ku3, v + dt * kv3
            ku4, kv4 = u4 * (m1 - u4 + a * v4), v4 * (m2 - b * u4 - v4)
            # compensated sums: near a stable state the increment falls
            # below half an ulp of u, and a plain sum would stall there
            du = sixth * (ku1 + 2.0 * (ku2 + ku3) + ku4) - cu
            dv = sixth * (kv1 + 2.0 * (kv2 + kv3) + kv4) - cv
            u_new, v_new = u + du, v + dv
            cu, cv = (u_new - u) - du, (v_new - v) - dv
            u, v = u_new, v_new
        out.append((u, v))
        t = t_next
    return out


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
