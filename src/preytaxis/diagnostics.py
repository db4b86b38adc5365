"""Norms, entropy/energy functionals, decay checks, and the CSV format.

The functionals are array kernels on a Grid; record() is the one
boundary that takes a State.  The energy combines two relative-entropy
terms with a quadratic prey term weighted by the certificate's relaxed
prey bound,

    energy = int H(u | u*) + (a/b) int H(v | v*)
             + (2 / (b^2 m2_relaxed)) int (v - v*)^2,

with H(eta | xi) = eta - xi - xi*log(eta/xi) for xi > 0 and plain eta at
xi = 0.  The dissipation functional pairs the squared relative gradients
with the squared distances to equilibrium,

    dissipation = int |grad u|^2/u^2 + int |grad v|^2/v^2
                  + int (u - u*)^2 + int (v - v*)^2.

Densities are floored at U_FLOOR wherever they enter a log or a
division.  Once the prey sup-norm sits below (1 - delta) * m2_relaxed,
the energy decays at least at rate delta times the dissipation;
check_energy_decay verifies that slope inequality and its
time-integrated budget on sampled records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from io import StringIO

import numpy as np

from .dynamics import State
from .grid import Grid, gradient_sq_values, integrate_values
from .model import ModelParams, StabilizationCertificate, SteadyState

__all__ = [
    "U_FLOOR",
    "DiagnosticsRecord",
    "EnergyDecayReport",
    "entropy_integral",
    "record",
    "check_energy_decay",
    "entropy_lower_bound_residual",
    "csv_header",
    "format_csv",
    "write_csv",
]

# Floor applied to the densities before logs and divisions; the stepper
# itself never floors.
U_FLOOR = 1e-14

# 1/(1 - log 2): constant in the L1 lower bound for the entropy integral.
_ENTROPY_L1_FACTOR = 1.0 / (1.0 - math.log(2.0))


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Everything sampled at one instant.  Field order defines the CSV."""

    t: float
    mass_u: float
    linf_v: float
    dist_u_l1: float
    dist_u_l2: float
    dist_v_l1: float
    dist_v_l2: float
    entropy_u: float
    entropy_v: float
    energy: float
    dissipation: float
    clamped_mass: float
    floored_cells: int


def _entropy(grid: Grid, floored: np.ndarray, xi: float) -> float:
    """Entropy integral of values already floored at U_FLOOR."""
    if xi < 0:
        raise ValueError(f"xi must be >= 0 (got {xi})")
    if xi == 0.0:
        density = floored
    else:
        density = np.maximum(floored - xi - xi * np.log(floored / xi), 0.0)
    return integrate_values(grid, density)


def entropy_integral(grid: Grid, values: np.ndarray, xi: float) -> float:
    """Integral of the relative-entropy density against level xi >= 0.

    The values are floored at U_FLOOR before logs are taken; the density
    is clipped at zero to keep rounding from leaking tiny negatives.
    """
    return _entropy(grid, np.maximum(values, U_FLOOR), xi)


def record(s: State, p: ModelParams, ss: SteadyState,
           cert: StabilizationCertificate | None, clamped_mass: float) -> DiagnosticsRecord:
    """Assemble the full diagnostics row for one sampled state.

    Each integral is taken once: energy and dissipation are sums of the
    same numbers that fill the entropy and distance columns.  Without a
    certificate (or without a relaxed bound in it) the energy drops its
    quadratic prey term, the observational fallback.  clamped_mass is
    the mass the run has clamped so far; the row copies it.
    """
    g = s.grid
    u = s.u.values
    v = s.v.values
    uf = np.maximum(u, U_FLOOR)
    vf = np.maximum(v, U_FLOOR)
    gsq_u = gradient_sq_values(g, u)
    gsq_v = gradient_sq_values(g, v)
    sq_u = integrate_values(g, (u - ss.u_star) ** 2)
    sq_v = integrate_values(g, (v - ss.v_star) ** 2)
    entropy_u = _entropy(g, uf, ss.u_star)
    entropy_v = _entropy(g, vf, ss.v_star)
    quad = 0.0 if cert is None or cert.m2_relaxed is None else (
        2.0 / (p.b * p.b * cert.m2_relaxed)
    ) * sq_v
    return DiagnosticsRecord(
        t=s.t,
        mass_u=integrate_values(g, u),
        linf_v=float(v.max()),
        dist_u_l1=integrate_values(g, np.abs(u - ss.u_star)),
        dist_u_l2=sq_u**0.5,
        dist_v_l1=integrate_values(g, np.abs(v - ss.v_star)),
        dist_v_l2=sq_v**0.5,
        entropy_u=entropy_u,
        entropy_v=entropy_v,
        energy=entropy_u + (p.a / p.b) * entropy_v + quad,
        dissipation=(
            integrate_values(g, gsq_u / uf**2)
            + integrate_values(g, gsq_v / vf**2)
            + sq_u
            + sq_v
        ),
        clamped_mass=clamped_mass,
        floored_cells=int((u < U_FLOOR).sum() + (v < U_FLOOR).sum()),
    )


@dataclass(frozen=True)
class EnergyDecayReport:
    """Outcome of checking the decay inequality on sampled records.

    Slopes are forward differences of the sampled energy checked against
    the dissipation at the left sample; the budget compares the
    left-sum of delta * dissipation with the total energy drop.
    """

    start_time: float
    n_pairs: int
    n_slope_violations: int
    slope_fraction: float
    max_slope_violation: float
    monotone_ok: bool
    max_increase_rate: float
    budget_lhs: float
    budget_rhs: float
    budget_ok: bool


def check_energy_decay(
    records: list[DiagnosticsRecord],
    cert: StabilizationCertificate,
    tol_slope: float | None = None,
    tol_budget: float = 1e-6,
) -> EnergyDecayReport:
    """Verify (E_{k+1} - E_k)/dt <= -delta * G_k + tol on records past t_settle.

    tol_slope = None applies the default 1e-6 * (1 + |E_k|) / dt per pair,
    sized to absorb the first-order sampling error.  Pairs of records at
    one time (a step longer than the sample spacing repeats a state) are
    skipped and left out of n_pairs and slope_fraction.
    """
    if cert.delta is None or cert.t_settle is None:
        raise ValueError("certificate carries no decay data; call certify() first")
    start = cert.t_settle
    tail = [r for r in records if r.t >= start - 1e-12 * max(1.0, start)]
    if len(tail) < 2:
        return EnergyDecayReport(start, 0, 0, 1.0, 0.0, True, 0.0, 0.0, tol_budget, True)
    delta = cert.delta
    n_pairs = 0
    violations = 0
    max_violation = 0.0
    max_increase = 0.0
    budget_lhs = 0.0
    for left, right in zip(tail[:-1], tail[1:]):
        dt = right.t - left.t
        if dt <= 0:
            continue
        n_pairs += 1
        tol = tol_slope if tol_slope is not None else 1e-6 * (1.0 + abs(left.energy)) / dt
        slope = (right.energy - left.energy) / dt
        excess = slope - (-delta * left.dissipation + tol)
        if excess > 0:
            violations += 1
            max_violation = max(max_violation, excess)
        max_increase = max(max_increase, slope - tol)
        budget_lhs += delta * left.dissipation * dt
    budget_rhs = tail[0].energy - tail[-1].energy + tol_budget
    return EnergyDecayReport(
        start_time=start,
        n_pairs=n_pairs,
        n_slope_violations=violations,
        slope_fraction=1.0 - violations / n_pairs if n_pairs else 1.0,
        max_slope_violation=max_violation,
        monotone_ok=max_increase <= 0.0,
        max_increase_rate=max_increase,
        budget_lhs=budget_lhs,
        budget_rhs=budget_rhs,
        budget_ok=budget_lhs <= budget_rhs,
    )


def entropy_lower_bound_residual(grid: Grid, values: np.ndarray, xi: float) -> float:
    """Residual of the L1 lower bound for the entropy integral.

        int |f - xi| <= (1/(1-log 2)) int H(f | xi)
                        + sqrt(8 xi |box|) * (int H(f | xi))^(1/2)

    Returns lhs - rhs, which must be <= 0 up to rounding for any
    positive field.
    """
    floored = np.maximum(values, U_FLOOR)
    lhs = integrate_values(grid, np.abs(floored - xi))
    h = _entropy(grid, floored, xi)
    rhs = _ENTROPY_L1_FACTOR * h + math.sqrt(8.0 * xi * grid.volume) * math.sqrt(h)
    return lhs - rhs


# --- CSV format --------------------------------------------------------------
# Header row names every DiagnosticsRecord field in declared order; one row
# per sample; 17 significant digits; comma separator, "." decimal.

def csv_header() -> str:
    return ",".join(f.name for f in fields(DiagnosticsRecord))


def _format_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def format_csv(records: list[DiagnosticsRecord]) -> str:
    out = StringIO()
    out.write(csv_header() + "\n")
    for r in records:
        out.write(",".join(_format_cell(getattr(r, f.name)) for f in fields(DiagnosticsRecord)))
        out.write("\n")
    return out.getvalue()


def write_csv(records: list[DiagnosticsRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(format_csv(records))
