"""Norms, entropy/energy functionals, decay checks, and the CSV format.

The functionals are array kernels on a Grid; record() takes a batch of
sampled stacked states (u, v) on one grid, with one array pass per
diagnostic over the whole batch and each row bitwise what its state
gives alone.  The energy combines two relative-entropy terms with a
quadratic prey term weighted by the certificate's relaxed prey bound,

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
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

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
    floored_cells: int


def _entropy_density(floored: np.ndarray, xi: float) -> np.ndarray:
    """Relative-entropy density of values already floored at U_FLOOR."""
    if xi < 0:
        raise ValueError(f"xi must be >= 0 (got {xi})")
    if xi == 0.0:
        return floored
    return np.maximum(floored - xi - xi * np.log(floored / xi), 0.0)


def entropy_integral(grid: Grid, values: np.ndarray, xi: float) -> float:
    """Integral of the relative-entropy density against level xi >= 0.

    The values are floored at U_FLOOR before logs are taken; the density
    is clipped at zero to keep rounding from leaking tiny negatives.
    """
    return integrate_values(grid, _entropy_density(np.maximum(values, U_FLOOR), xi))


def _distance_sums(x: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of |x - level| and (x - level)^2."""
    d = x - level
    return np.abs(d).sum(axis=1), (d**2).sum(axis=1)


def record(grid: Grid, times: Sequence[float], states: Sequence[np.ndarray], p: ModelParams,
           ss: SteadyState, cert: StabilizationCertificate | None) -> list[DiagnosticsRecord]:
    """Assemble the diagnostics rows of states[i], a stacked (2, *grid.n)
    array (u, v) sampled at times[i], one row per state, in order.

    The batch is stacked once as (2, k, *grid.n), so each species' states
    are the contiguous rows of one array, each diagnostic is one array
    pass over all of them, and each integral is the cell volume times its
    row's contiguous pairwise sum: a row has the same bits as the state's
    alone.  Each integral is taken once: energy and dissipation are sums
    of the same numbers that fill the entropy and distance columns.
    Without a certificate (or without a relaxed bound in it) the energy
    drops its quadratic prey term, the observational fallback.  States
    of another shape raise ValueError.
    """
    if not states:
        return []
    k, cells = len(states), math.prod(grid.n)
    y = np.stack(states, axis=1)
    if y.shape != (2, k, *grid.n):
        raise ValueError(f"record takes states on one grid, each shaped {(2, *grid.n)}")
    u, v = y.reshape(2, k, cells)
    uf = np.maximum(u, U_FLOOR)
    vf = np.maximum(v, U_FLOOR)
    # each density is summed as soon as it is formed, so a 64x64 state
    # holds only a few 32 KB temporaries at once beside the stacked u, v
    integrals = grid.cell_volume * np.array([
        u.sum(axis=1),
        *_distance_sums(u, ss.u_star),
        *_distance_sums(v, ss.v_star),
        _entropy_density(uf, ss.u_star).sum(axis=1),
        _entropy_density(vf, ss.v_star).sum(axis=1),
        (gradient_sq_values(grid, y[0]).reshape(k, cells) / uf**2).sum(axis=1),
        (gradient_sq_values(grid, y[1]).reshape(k, cells) / vf**2).sum(axis=1),
    ])
    linf_v = v.max(axis=1).tolist()
    floored = ((u < U_FLOOR).sum(axis=1) + (v < U_FLOOR).sum(axis=1)).tolist()
    weight = None if cert is None or cert.m2_relaxed is None else 2.0 / (p.b * p.b * cert.m2_relaxed)
    return [
        DiagnosticsRecord(
            t=t,
            mass_u=mass_u,
            linf_v=sup_v,
            dist_u_l1=l1_u,
            dist_u_l2=sq_u**0.5,
            dist_v_l1=l1_v,
            dist_v_l2=sq_v**0.5,
            entropy_u=entropy_u,
            entropy_v=entropy_v,
            energy=entropy_u + (p.a / p.b) * entropy_v + (0.0 if weight is None else weight * sq_v),
            dissipation=grad_u + grad_v + sq_u + sq_v,
            floored_cells=n_floored,
        )
        for t, sup_v, n_floored, (mass_u, l1_u, sq_u, l1_v, sq_v, entropy_u, entropy_v, grad_u, grad_v)
        in zip(times, linf_v, floored, integrals.T.tolist())
    ]


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
    h = integrate_values(grid, _entropy_density(floored, xi))
    rhs = _ENTROPY_L1_FACTOR * h + math.sqrt(8.0 * xi * grid.volume) * math.sqrt(h)
    return lhs - rhs


# --- CSV format --------------------------------------------------------------
# Header row names every DiagnosticsRecord field in declared order; one row
# per sample; 17 significant digits; comma separator, "." decimal.

def csv_header() -> str:
    return ",".join(f.name for f in fields(DiagnosticsRecord))


def format_csv(records: list[DiagnosticsRecord]) -> str:
    """The CSV text of the records.  A record repeated in a row (the
    runner repeats one per sample time its state fills) is formatted
    once; %d keeps each int exact, where a float64 array would round
    2**53 + 1."""
    columns = fields(DiagnosticsRecord)
    fmt = ",".join("%d" if f.type == "int" else "%.17g" for f in columns)
    values = attrgetter(*(f.name for f in columns))
    lines = [csv_header()]
    last = line = None
    for r in records:
        if r is not last:
            last, line = r, fmt % values(r)
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_csv(records: list[DiagnosticsRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(format_csv(records))
