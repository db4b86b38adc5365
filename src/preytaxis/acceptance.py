"""Numbered acceptance checks covering the verified properties end to end.

Each criterion is a self-contained check that either certifies a property
of the scheme (equilibria, thresholds, refinement order, comparison
bounds, energy decay, determinism) or fails with a one-line explanation.
Scenario runs are cached so criteria sharing a trajectory reuse it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .config import build_config, scenario_items
from .diagnostics import check_energy_decay, entropy_lower_bound_residual, format_csv
from .dynamics import STAGES, BlowUp, State, StepPlan, TaxisScheme, reaction_rates, run_to_time, step, step_bounds
from .grid import Grid, integrate_values
from .model import ModelParams, Regime, steady_states
from .oracle import heat_eigenmode_error, homogeneous_ode, refinement_order
from .runner import RunResult, execute, run_status

__all__ = ["CriterionResult", "criterion_numbers", "run_criterion", "heat_study",
           "refinement_study", "homogeneous_errors"]

# Meshes of criterion 3's two refinement studies.
REFINEMENT_MESHES = (32, 64, 128)
REFERENCE_MESH = 512
MIN_ORDER = 1.9


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


_scenario_cache: dict[tuple[tuple[str, str], ...], RunResult] = {}


def _scenario_result(name: str, overrides: dict[str, str] | None = None) -> RunResult:
    """Execute a bundled scenario, with some keys overridden, once per process
    and reuse the outcome."""
    items = scenario_items(name)
    items.update(overrides or {})
    key = tuple(sorted(items.items()))
    if key not in _scenario_cache:
        _scenario_cache[key] = execute(build_config(items))
    return _scenario_cache[key]


# --- refinement studies ---------------------------------------------------------

def heat_study(meshes: tuple[int, ...]) -> list[tuple[float, float]]:
    """(h, max error) per mesh of zero-flux diffusion (d = 1, t = 0.1) on
    [0, 1] against the exact cosine eigenmode."""
    return [(1.0 / n, heat_eigenmode_error(n, 1, 1.0, 0.1)) for n in meshes]


def refinement_study(meshes: tuple[int, ...], reference: int) -> list[tuple[float, float]]:
    """(h, max error) per mesh of the order_1d scenario's final predator
    density against the cell averages of the run on the reference mesh.

    Raises BlowUp when any of the runs does not complete.
    """
    finals = {}
    for n in (*meshes, reference):
        result = _scenario_result("order_1d", {"grid.n": str(n)})
        if not result.ok:
            raise BlowUp(f"refinement run at n={n} ended with {result.status}")
        finals[n] = result.final_state.u
    ref = finals[reference].values
    pairs = []
    for n in meshes:
        projected = ref.reshape(n, reference // n).mean(axis=1)
        pairs.append((finals[n].grid.h[0], float(np.max(np.abs(finals[n].values - projected)))))
    return pairs


# --- 1: equilibria ------------------------------------------------------------

def _criterion_1() -> tuple[bool, str]:
    rng = np.random.default_rng(1618)
    worst = 0.0
    for _ in range(1000):
        p = ModelParams(
            d1=float(10.0 ** rng.uniform(-1.0, 1.0)),
            d2=float(10.0 ** rng.uniform(-1.0, 1.0)),
            m1=float(rng.uniform(0.1, 5.0)),
            m2=float(rng.uniform(-2.0, 5.0)),
            chi=float(rng.uniform(0.05, 3.0)),
            a=float(rng.uniform(0.05, 4.0)),
            b=float(rng.uniform(0.05, 4.0)),
        )
        ss = steady_states(p)
        gap = p.m2 - p.b * p.m1
        if ss.regime is Regime.PREY_EXTINCTION:
            if gap >= 0.0 or ss.u_star != p.m1 or ss.v_star != 0.0:
                return False, f"wrong prey-extinction equilibrium for {p}"
        else:
            if gap < 0.0 or ss.u_star <= 0.0 or ss.v_star < 0.0:
                return False, f"wrong coexistence equilibrium for {p}"
        rate_u, rate_v = reaction_rates(ss.u_star, ss.v_star, p)
        scale_u = max(1.0, ss.u_star * (abs(p.m1) + ss.u_star + p.a * ss.v_star))
        scale_v = max(1.0, ss.v_star * (abs(p.m2) + p.b * ss.u_star + ss.v_star))
        worst = max(worst, abs(rate_u) / scale_u, abs(rate_v) / scale_v)
    return worst <= 1e-12, f"1000 parameter sets, worst relative reaction residual {worst:.2e} (cap 1e-12)"


# --- 2: stabilization thresholds ----------------------------------------------

def _criterion_2() -> tuple[bool, str]:
    def params(m2: float, chi: float) -> ModelParams:
        return ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=m2, chi=chi, a=1.0, b=1.0)

    c_coex = model.check_stabilization_condition(params(2.0, 1.0))
    c_ext5 = model.check_stabilization_condition(params(0.5, 5.0))
    c_ext6 = model.check_stabilization_condition(params(0.5, 6.0))
    c_neg = model.check_stabilization_condition(params(-1.0, 10.0))

    rel = max(
        abs(c_coex.threshold - 17.0 / 3.0) / (17.0 / 3.0),
        abs(c_ext5.threshold - 32.0) / 32.0,
        abs(c_ext6.threshold - 32.0) / 32.0,
    )
    flags_ok = c_coex.holds and c_ext5.holds and not c_ext6.holds and c_neg.holds
    inf_ok = math.isinf(c_neg.threshold)
    passed = rel <= 1e-15 and flags_ok and inf_ok
    return passed, (
        f"thresholds {c_coex.threshold:.17g}, {c_ext5.threshold:.17g}, inf "
        f"(rel err {rel:.1e}, cap 1e-15); holds flags "
        f"{c_coex.holds}/{c_ext5.holds}/{c_ext6.holds}/{c_neg.holds} expect True/True/False/True"
    )


# --- 3: refinement orders -----------------------------------------------------

def _criterion_3() -> tuple[bool, str]:
    heat = heat_study(REFINEMENT_MESHES)
    try:
        nonlinear = refinement_study(REFINEMENT_MESHES, REFERENCE_MESH)
    except BlowUp as exc:
        return False, str(exc)
    heat_order, nonlinear_order = refinement_order(heat), refinement_order(nonlinear)
    passed = heat_order >= MIN_ORDER and nonlinear_order >= MIN_ORDER

    def errors(pairs: list[tuple[float, float]]) -> str:
        return ", ".join(f"{err:.3e}" for _, err in pairs)

    return passed, (
        f"observed orders: heat {heat_order:.3f}, nonlinear {nonlinear_order:.3f} (need >= {MIN_ORDER}); "
        f"max errors at n = {REFINEMENT_MESHES}: heat {errors(heat)}, nonlinear {errors(nonlinear)}"
    )


# --- 4: homogeneous dynamics vs reference ODE ---------------------------------

def homogeneous_errors() -> list[tuple[str, float]]:
    """(label, max relative error) of criterion 4's two spatially constant
    runs (8 cells, t = 10, sampled every 0.5) against the RK4 reference,
    oracle.homogeneous_ode, at the recorded sample times.  A run that
    stalls or blows up raises run_to_time's Stalled or BlowUp."""
    errors = []
    for label, m2 in (("coexistence", 2.0), ("extinction", 0.5)):
        p = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=m2, chi=1.0, a=1.0, b=1.0)
        g = Grid.uniform(1, 8, 1.0)
        s0 = State(g.field(np.full(g.n, 1.0)), g.field(np.full(g.n, 1.0)), 0.0)
        samples: list[tuple[float, float, float]] = []

        def sink(t: float, y: np.ndarray, count: int, out=samples) -> None:
            out.extend([(t, float(y[0].mean()), float(y[1].mean()))] * count)

        run_to_time(s0, p, TaxisScheme.UPWIND, 10.0, 0.5, sink=sink)
        times = [t for t, _, _ in samples]
        ref = homogeneous_ode(1.0, 1.0, p, 10.0, t_eval=times)
        scale_u = float(np.max(np.abs(ref.u)))
        scale_v = max(float(np.max(np.abs(ref.v))), 1e-300)
        err_u = max(abs(su - ru) for (_, su, _), ru in zip(samples, ref.u)) / scale_u
        err_v = max(abs(sv - rv) for (_, _, sv), rv in zip(samples, ref.v)) / scale_v
        errors.append((label, max(err_u, err_v)))
    return errors


def _criterion_4() -> tuple[bool, str]:
    try:
        errors = homogeneous_errors()
    except BlowUp as exc:
        return False, f"run ended with {run_status(exc)}"
    worst = max(err for _, err in errors)
    notes = ", ".join(f"{label} {err:.2e}" for label, err in errors)
    return worst <= 1e-4, f"max rel err vs RK4 reference: {notes} (cap 1e-4)"


# --- 5: prey maximum principle ------------------------------------------------

def _criterion_5() -> tuple[bool, str]:
    result = _scenario_result("max_principle_64")
    if not result.ok:
        return False, f"run ended with {result.status}"
    m2 = result.config.params.m2
    peak = result.accounting.peak_v
    peak_ok = peak <= 3.0 + 1e-10
    worst_excess = -math.inf
    for r in result.records:
        bound = model.logistic_comparison(3.0, m2, r.t) + 1e-8 * 3.0
        worst_excess = max(worst_excess, r.linf_v - bound)
    passed = peak_ok and worst_excess <= 0.0
    return passed, (
        f"running max v = {peak:.12f} (cap 3+1e-10); "
        f"worst gap to logistic comparison {worst_excess:.3e} (must stay <= 0)"
    )


# --- 6: prey mass budget consistency -------------------------------------------

def _criterion_6() -> tuple[bool, str]:
    p = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0)
    ss = steady_states(p)
    g = Grid.uniform(1, 16, 2.0)
    bump = np.cos(np.pi * g.centers(0) / g.length[0])
    u0 = ss.u_star + 1e-4 * bump
    v0 = ss.v_star + 2e-4 * bump
    dt0 = step_bounds(u0, v0, g, p)[0] / (2 * (STAGES - 1))
    mass0 = integrate_values(g, u0)
    expected = integrate_values(g, reaction_rates(u0, v0, p)[0])

    def residual(dt: float) -> float:
        u1 = step(np.stack((u0, v0)), StepPlan(g, p, TaxisScheme.UPWIND), dt)[0]
        return abs((integrate_values(g, u1) - mass0) / dt - expected)

    r_full = residual(dt0)
    r_half = residual(dt0 / 2.0)
    ratio = r_full / r_half if r_half > 0 else math.inf
    passed = r_full <= 1e-10 * mass0 and 1.6 <= ratio <= 2.4
    return passed, (
        f"mass-rate residual {r_full:.3e} (cap {1e-10 * mass0:.1e}); "
        f"halving ratio {ratio:.3f} (need 1.6..2.4)"
    )


# --- 7: energy decay ----------------------------------------------------------

def _criterion_7() -> tuple[bool, str]:
    result = _scenario_result("coexistence_64")
    if not result.ok:
        return False, f"run ended with {result.status}"
    if result.certificate is None:
        return False, f"no certificate: {result.certificate_reason}"
    report = check_energy_decay(result.records, result.certificate, tol_budget=1e-6)
    passed = report.n_pairs > 0 and report.monotone_ok and report.slope_fraction >= 0.99 and report.budget_ok
    return passed, (
        f"monotone={report.monotone_ok} (max rise {report.max_increase_rate:.2e}); "
        f"slope bound holds at {report.slope_fraction:.2%} of {report.n_pairs} pairs "
        f"(need >= 99%); budget {report.budget_lhs:.6f} <= {report.budget_rhs:.6f} "
        f"is {report.budget_ok}"
    )


# --- 8: long-time convergence --------------------------------------------------

def _criterion_8() -> tuple[bool, str]:
    co = _scenario_result("coexistence_64")
    ex = _scenario_result("extinction_64")
    for label, res in (("coexistence", co), ("extinction", ex)):
        if not res.ok:
            return False, f"{label} run ended with {res.status}"
    t_co = next(
        (r.t for r in co.records if r.t <= 200.0 and r.dist_u_l1 <= 1e-3 and r.dist_v_l1 <= 1e-3),
        None,
    )
    t_ex = next((r.t for r in ex.records if r.t <= 200.0 and r.dist_v_l1 <= 1e-3), None)
    passed = t_co is not None and t_ex is not None
    return passed, (
        f"coexistence distances under 1e-3 at t={t_co} (final u/v: "
        f"{co.records[-1].dist_u_l1:.2e}/{co.records[-1].dist_v_l1:.2e}); "
        f"prey mass under 1e-3 at t={t_ex} (final {ex.records[-1].dist_v_l1:.2e})"
    )


# --- 9: entropy distance lower bound -------------------------------------------

def _criterion_9() -> tuple[bool, str]:
    rng = np.random.default_rng(907)
    g = Grid.uniform(1, 32, 1.0)
    worst = -math.inf
    for _ in range(1000):
        mu = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.1, 1.0)
        f = rng.lognormal(mu, sigma, size=g.n)
        for xi in (0.0, 0.5, 1.0, 10.0):
            resid = entropy_lower_bound_residual(g, f, xi)
            l1 = integrate_values(g, np.abs(f - xi))
            worst = max(worst, resid / max(1.0, l1))
    return worst <= 1e-12, (
        f"worst scaled residual {worst:.2e} over 1000 fields x 4 offsets (cap 1e-12)"
    )


# --- 10: taxis regularization continuity ---------------------------------------

def _criterion_10() -> tuple[bool, str]:
    finals = []
    for eps in ("0.1", "0.05", "0.025"):
        result = _scenario_result("eps_family_1d", {"params.eps": eps})
        if not result.ok:
            return False, f"eps={eps} run ended with {result.status}"
        finals.append(result.final_state.u)
    g = finals[0].grid
    gap_coarse = integrate_values(g, np.abs(finals[0].values - finals[1].values))
    gap_fine = integrate_values(g, np.abs(finals[1].values - finals[2].values))
    passed = gap_coarse > gap_fine > 0.0
    return passed, f"L1 gaps between eps neighbours: {gap_coarse:.3e} > {gap_fine:.3e} > 0"


# --- 11: determinism ------------------------------------------------------------

def _criterion_11() -> tuple[bool, str]:
    first = _scenario_result("coexistence_64")
    second = execute(build_config(scenario_items("coexistence_64")))
    if not (first.ok and second.ok):
        return False, f"runs ended with {first.status} / {second.status}"
    csv_a = format_csv(first.records)
    csv_b = format_csv(second.records)
    if csv_a != csv_b:
        mismatch = next(
            i for i, (x, y) in enumerate(zip(csv_a.splitlines(), csv_b.splitlines())) if x != y
        )
        return False, f"diagnostics CSVs differ at line {mismatch + 1}"
    return True, f"repeat run reproduced the diagnostics CSV byte for byte ({len(first.records)} rows)"


_CRITERIA: list[tuple[int, str, object]] = [
    (1, "equilibrium residuals", _criterion_1),
    (2, "stabilization thresholds", _criterion_2),
    (3, "refinement orders", _criterion_3),
    (4, "homogeneous dynamics vs reference ODE", _criterion_4),
    (5, "prey maximum principle", _criterion_5),
    (6, "prey mass budget consistency", _criterion_6),
    (7, "energy decay along the coexistence run", _criterion_7),
    (8, "long-time convergence to equilibrium", _criterion_8),
    (9, "entropy distance lower bound", _criterion_9),
    (10, "taxis regularization continuity", _criterion_10),
    (11, "deterministic reruns", _criterion_11),
]


def criterion_numbers() -> list[int]:
    return [number for number, _, _ in _CRITERIA]


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in _CRITERIA:
        if num == number:
            passed, detail = fn()
            return CriterionResult(num, name, passed, detail)
    raise ValueError(f"no criterion numbered {number}")
