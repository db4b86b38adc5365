"""Explicit finite-volume time stepping for the taxis system.

The predator flux through each interior face is formed from the values
of the two cells it separates, (u_L, v_L) and (u_R, v_R), and combines
prey-enhanced diffusion with drift up the prey gradient,

    flux = (d1 + chi*v_face) * (u_R - u_L)/h - chi * F(u_face) * (v_R - v_L)/h,

where v_face is the arithmetic face mean and u_face is the donor cell's
value (upwind, the default) or the face mean (central).

The stepper carries the state as one C-contiguous array y of shape
(2, *grid.n), y[0] the predator u and y[1] the prey v, so each operation
the two species share runs as one array call on both.  rhs forms the
face gradients of both fields in one call and writes both species'
fluxes over h onto those face arrays (zero on the walls), 1/h folded
into the flux coefficients: the predator's over u's row, and d2/h times
the prey's gradient over v's row, so the prey's face gradients are
formed once, for the drift and for its zero-flux diffusion.  The
reactions of both rows start the result, and the divergence of the
fluxes is accumulated onto it in place, two slice updates per axis.
Right-hand sides, stage updates, error defects and admissibility checks
all work on the stacked array.

A run's steps share one StepPlan: its grid, p and taxis; each axis's
stacked face arrays, their walls zeroed once, with the interior views of
their rows; the per-axis flux constants chi/h, chi/2h, d1/h and d2/h;
the reaction coefficients; and what advance carries from one step to
the next.  run_to_time builds it, and rhs, step, rkl2_step and advance
take it in place of (grid, p, taxis).  rhs still returns a new array, so
no result, carried right-hand side or state is ever a plan buffer.

run_to_time takes each step with advance, the one place that keeps,
discards and counts a step; step and rkl2_step only compute one.  The
accuracy bound dt * J <= RKL2_ACCURACY, C/J, is the floor of every RKL2
step, and no SSP-RK step is longer.  When the step is longer than the
SSP-RK positivity bound, advance takes the s-stage Runge-Kutta-Legendre
method RKL2 (Meyer, Balsara & Aslam 2014), whose stability interval
grows as s^2, so diffusion no longer bounds the step.  Within a run an
RKL2 step may be longer than C/J, up to one sample interval, when a
local error estimate accepts it (step control after Hairer, Norsett &
Wanner, Solving ODEs I, II.4): the trapezoidal defect
Y1 - Y0 - (dt/2)(L(Y0) + L(Y1)), whose L(Y1) is the next step's first
right-hand side, so the estimate costs none.  Every step is clipped to
t_end.

One admissibility rule judges both methods, and the stepper never
repairs a state: every cell of a kept step is finite, nonnegative and at
most BLOWUP_LIMIT.  RKL2 does not preserve positivity, so an RKL2 step
that breaks it, or lifts the prey maximum past its cap, is discarded; an
SSP-RK step that breaks it raises BlowUp.

The proven step is the s-stage second-order SSP Runge-Kutta method
SSP-RK(s, 2) with s = STAGES (Spiteri & Ruuth 2002; low-storage form
after Ketcheson 2008).  advance takes it for a dt within the positivity
bound, and at that bound in place of a discarded RKL2 step.  Each stage
is a forward-Euler substep of length dt/(s - 1), and the step is a
convex combination of the start value and the last stage, so a substep
length at which one forward-Euler substep keeps both fields nonnegative
and the prey map monotone keeps them so for the whole step, which is
(s - 1) times longer.  For s = 2 this is Heun's method.  step_bounds
derives the substep and both bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .grid import Field, Grid, accumulate_divergence, face_gradient_values
from .model import ModelParams, taxis_mobility

__all__ = [
    "TaxisScheme",
    "State",
    "StepAccounting",
    "StepPlan",
    "BlowUp",
    "Stalled",
    "STEP_SAFETY",
    "STAGES",
    "RKL2_ACCURACY",
    "RKL2_TOL",
    "STEP_BUDGET",
    "SAMPLE_BUDGET",
    "reaction_rates",
    "rhs",
    "step_bounds",
    "step",
    "rkl2_step",
    "advance",
    "run_to_time",
]

BLOWUP_LIMIT = 1e12
STEP_SAFETY = 0.9  # fraction of the forward-Euler positivity bound that a substep takes
STAGES = 4  # forward-Euler substeps per SSP-RK(s, 2) step, each of length dt/(STAGES - 1)
# Largest dt * J of every step, J the row-sum norm of the reaction
# Jacobian or the per-capita reaction rate.  Criterion 4's worst error grows about as its square: 3.1e-5
# at 0.05 and 1.13e-4 at 0.1, over the 1e-4 cap (at 0.02 the SSP-RK
# positivity bound is the shorter one there, and the error is its
# 8.6e-6).  0.05 keeps a 3x margin; criterion 3's nonlinear order is
# 2.043 with it.
RKL2_ACCURACY = 0.05
# Largest trapezoidal defect advance accepts in a step longer than C/J,
# relative to 1 + |Y1| in each cell.  Criterion 4's worst error is 7.2e-5
# at 1e-5 (cap 1e-4) and 3.0e-4 at 1e-4; at 1e-6 the C/J floor binds on
# its runs and the error is the floor's 3.1e-5.
RKL2_TOL = 1e-5
STEP_BUDGET = 1e8  # most limiter steps run_to_time lets the rest of a run need
SAMPLE_BUDGET = 1e6  # most sample intervals run_to_time (and a config) may ask for


class BlowUp(RuntimeError):
    """A field value left [0, 1e12] or stopped being finite."""


class Stalled(BlowUp):
    """The limiter's step is too small to change t in floating point, or
    to reach t_end within STEP_BUDGET steps."""


class TaxisScheme(Enum):
    UPWIND = "upwind"
    CENTRAL = "central"


@dataclass(frozen=True)
class State:
    u: Field
    v: Field
    t: float

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must live on the same grid")
        if self.t < 0 or not math.isfinite(self.t):
            raise ValueError(f"t must be finite and >= 0 (got {self.t})")
        if (self.u.values < 0).any() or (self.v.values < 0).any():
            raise ValueError("densities must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass
class StepAccounting:
    """Mutable counters threaded through a run; advance writes them, and
    run_to_time puts the initial prey maximum into peak_v.  dt_min and
    dt_max span every step taken, the last one clipped to t_end
    included.  Of the steps, rkl2_steps were RKL2 steps; rkl2_rejected
    counts the inadmissible RKL2 steps advance discarded for an SSP-RK
    step, rkl2_error_rejected the admissible RKL2 steps longer than C/J
    that the error estimate rejected for a shorter one, and
    rhs_evaluations the right-hand sides advance evaluated, those of
    discarded steps included."""

    steps: int = 0
    clamped_cells: int = 0  # always 0, since no step clamps; kept because bench/ reads it
    peak_v: float = field(default=-math.inf)
    dt_min: float = field(default=math.inf)
    dt_max: float = 0.0
    rkl2_steps: int = 0
    rkl2_rejected: int = 0
    rkl2_error_rejected: int = 0
    rhs_evaluations: int = 0


# --- pointwise reactions ----------------------------------------------------

def _reaction_coefficients(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The columns (a, -b) and (m1, m2) of the reactions' coefficients,
    each shaped (2, 1), as _reactions takes them."""
    c = np.array(((p.a, p.m1), (-p.b, p.m2)))
    return c[:, :1], c[:, 1:]


def _reactions(x: np.ndarray, coefficients: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Logistic reactions x (m + [[-1, a], [-b, -1]] x) of the stacked
    rows x = (u, v), shaped (2, N), as a new array: one elementwise pass
    per operation on both rows.  coefficients is
    _reaction_coefficients(p)."""
    cross, growth = coefficients
    r = x[::-1] * cross
    r -= x
    r += growth
    r *= x
    return r


def reaction_rates(u, v, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Logistic reaction terms of both species, u (m1 - u + a v) and
    v (m2 - b u - v), with the bits rhs adds."""
    y = np.stack(np.broadcast_arrays(u, v))
    r = _reactions(y.reshape(2, -1), _reaction_coefficients(p)).reshape(y.shape)
    return r[0], r[1]


# --- semidiscrete right-hand side -------------------------------------------

class StepPlan:
    """One run on grid with p and taxis.  What every right-hand side
    reuses, since only the state changes: faces, per axis a stacked
    (2, N + s) face array (see grid) whose walls are zeroed here once and
    stay 0; axes, per axis (s, the interior views faces[0, s:-s]
    and faces[1, s:-s], chi/h, chi/2h, d1/h, d2/h); and reactions,
    _reaction_coefficients(p).  rhs writes the face gradients, then the
    fluxes over h, into faces on every call.

    What advance carries from one step to the next: longest, the longest
    step the error estimate may accept (one sample interval; 0 accepts
    none past C/J), proposal, the step length it proposes next (0, the
    C/J floor, before the first estimate), and rates, the right-hand side
    at the state advance returned when it formed it."""

    __slots__ = ("grid", "p", "taxis", "faces", "axes", "reactions", "longest", "proposal", "rates")

    def __init__(self, grid: Grid, p: ModelParams, taxis: TaxisScheme, longest: float = 0.0):
        self.grid, self.p, self.taxis = grid, p, taxis
        self.longest, self.proposal, self.rates = longest, 0.0, None
        cells = math.prod(grid.n)
        self.faces = tuple(np.zeros((2, cells + s)) for s in grid.stride)
        self.axes = tuple(
            (s, faces[0, s:-s], faces[1, s:-s], p.chi / h, 0.5 * p.chi / h, p.d1 / h, p.d2 / h)
            for s, h, faces in zip(grid.stride, grid.h, self.faces)
        )
        self.reactions = _reaction_coefficients(p)


def rhs(y: np.ndarray, plan: StepPlan) -> np.ndarray:
    """Time derivatives of the stacked state y on plan's grid with its p
    and taxis, as a new array shaped like y.

    One face gradient call writes g = (g_u, g_v) of y into the plan's
    face arrays, and each axis's fluxes over h are written over them: row
    0 gets the predator flux over h,

        (d1/h + (chi/2h)(v_L + v_R)) g_u - (chi/h) F_donor g_v,

    and row 1 the prey's, (d2/h) g_v, so the prey's gradient serves the
    drift and its diffusion.  Each face's flux is formed from the values
    of the two cells it separates; on the walls and seams both gradients
    are 0, and so is each flux of finite cell values.  Upwind, F =
    taxis_mobility(u) is formed once on the cells, and F_donor is the
    left cell's where g_v > 0 (chi > 0, so that is where the drift
    carries density rightward), else the right cell's; central, F_donor
    is the mobility of the face mean of u.  The reactions of both rows
    start the result, and the divergence of the fluxes is accumulated
    onto it in place.  The flux part integrates to zero to rounding, so
    the discrete mass identity d/dt integral(u) = integral(reaction_u)
    holds to rounding."""
    eps = plan.p.eps
    fluxes = face_gradient_values(plan.grid, y, out=plan.faces)
    x = y.reshape(2, -1)
    x_u, x_v = x
    upwind = plan.taxis is TaxisScheme.UPWIND
    if upwind:
        mobility = taxis_mobility(x_u, eps)
    for s, grad_u, grad_v, chi_h, half_chi_h, d1_h, d2_h in plan.axes:
        if upwind:
            drift = np.where(grad_v > 0, mobility[:-s], mobility[s:])
        else:
            drift = taxis_mobility(0.5 * (x_u[:-s] + x_u[s:]), eps)
        drift *= grad_v
        drift *= chi_h
        flux = x_v[:-s] + x_v[s:]
        flux *= half_chi_h
        flux += d1_h
        flux *= grad_u
        np.subtract(flux, drift, out=grad_u)
        grad_v *= d2_h
    out = _reactions(x, plan.reactions)
    accumulate_divergence(plan.grid, out, fluxes)
    return out.reshape(y.shape)


# --- step-size limiter --------------------------------------------------------

def step_bounds(u, v, grid: Grid, p: ModelParams) -> tuple[float, float, float]:
    """(substep, positivity, accuracy): the three step lengths advance
    chooses from at (u, v).

    substep is STEP_SAFETY over the largest forward-Euler loss rate of
    either species: the length of one stage substep.  A forward-Euler
    substep multiplies each cell value by one minus dt times its loss
    rate and adds nonnegative inflow.  The predator's loss rate is at most

        rate_u = sum_ax 2 (d1 + chi v_max)/h_ax^2          (face diffusion)
               + sum_ax 2 chi max|v_R - v_L|/h_ax^2         (upwind donor drift, both faces)
               + max|m1 - u + a v|                          (reaction, per capita)

    and the prey's, counting the slope that keeps v -> v + dt v (m2 - v)
    monotone below v_max, is at most

        rate_v = sum_ax 2 d2/h_ax^2 + max(max|m2 - b u - v|, 2 v_max - m2).

    So dt * max(rate_u, rate_v) <= 1 keeps the substep nonnegative and
    gives the discrete comparison max v' <= V + dt V (m2 - V), V = max v.
    The central flux's drift is covered by its face diffusion, so for it
    the drift term only shortens the step.  The reaction rates count
    growth as well as decay because each later substep starts from the
    previous one's output, which growth may have raised.

    positivity, (STAGES - 1) substeps, keeps every SSP-RK(STAGES, 2)
    stage so for the loss rates at the start of the step, with
    1/STEP_SAFETY - 1 (11%) to spare, while each later stage starts from
    one the reactions R have moved by about dt |R|.  accuracy is
    RKL2_ACCURACY / J, J the largest row-sum norm of the reaction
    Jacobian [[m1 - 2u + a v, a u], [-b v, m2 - b u - 2v]] or per-capita
    rate |m1 - u + a v|, |m2 - b u - v| over the cells, so R changes by
    about J dt |R| <= 5% of |R| over a step, inside that margin.  The
    argument is linearised, not a proof.  Neither term of J does alone:
    the row sums nearly vanish at a species' inflection point
    u = (m1 + a v)/2 when a and b are small, the per-capita rate at its
    logistic level u = m1 + a v, where the slope, about -u, does not.
    When a, b >= 1 the row sums are the larger term.
    """
    v_max = float(v.max())
    rate_u = float(np.abs(p.m1 - u + p.a * v).max())
    react_v = float(np.abs(p.m2 - p.b * u - v).max())
    react = max(rate_u, react_v)
    rate_v = max(react_v, 2.0 * v_max - p.m2)
    for ax, h in enumerate(grid.h):
        two_over_h2 = 2.0 / (h * h)
        jump = float(np.abs(np.diff(v, axis=ax)).max())
        rate_u += two_over_h2 * (p.d1 + p.chi * (v_max + jump))
        rate_v += two_over_h2 * p.d2
    rate = max(rate_u, rate_v)
    row_u = np.abs(p.m1 - 2.0 * u + p.a * v) + p.a * u
    row_v = p.b * v + np.abs(p.m2 - p.b * u - 2.0 * v)
    accuracy = RKL2_ACCURACY / max(float(row_u.max()), float(row_v.max()), react)
    return STEP_SAFETY / rate, STEP_SAFETY * ((STAGES - 1) / rate), accuracy


# --- time stepping -----------------------------------------------------------

def _admissible(y: np.ndarray, prey_cap: float) -> bool:
    """Whether every cell of the stacked state y is finite, nonnegative
    and at most BLOWUP_LIMIT, and max v <= prey_cap.  The array minima
    and maxima are NaN when any cell is, and NaN fails every comparison,
    so a NaN anywhere makes the state inadmissible."""
    return bool(y.min() >= 0.0 and y.max() <= BLOWUP_LIMIT and y[1].max() <= prey_cap)


def step(y: np.ndarray, t: float, plan: StepPlan, dt: float, rates: np.ndarray | None = None) -> np.ndarray:
    """One SSP-RK(STAGES, 2) step of size dt, 0 < dt < inf, from the
    stacked state y at time t; returns the new stacked state with no
    positivity repair and leaves the inputs alone.  Every substep's rhs
    runs on plan; rates, when given, is rhs(y, plan), which the first
    substep then does not form.

    STAGES - 1 forward-Euler substeps z <- z + (dt/(STAGES - 1)) rhs(z)
    and one more give z; the step returns z + (y - z)/STAGES.  That is
    the convex combination (y + (STAGES - 1) z)/STAGES, written so that a
    fixed point of rhs is kept bitwise.  A result with a cell that is
    negative, not finite or above BLOWUP_LIMIT raises BlowUp: the same
    admissibility rule advance applies to an RKL2 step, without its prey
    cap.
    """
    if not 0.0 < dt < math.inf:  # a NaN dt fails too
        raise ValueError(f"dt must be finite and > 0 (got {dt})")
    sub = dt / (STAGES - 1)
    z = y
    for k in range(STAGES):
        d = rates if k == 0 and rates is not None else rhs(z, plan)
        z = z + sub * d
    z = z + (y - z) / STAGES
    if not _admissible(z, math.inf):
        raise BlowUp(f"density negative, not finite or above {BLOWUP_LIMIT:.0e} at t = {t + dt:.6g}")
    return z


def _rkl2_stages(ratio: float) -> int:
    """Fewest stages s >= 2 whose stability interval, (s^2 + s - 2)/4
    forward-Euler steps, covers `ratio` of them."""
    s = max(2, math.ceil((math.sqrt(9.0 + 16.0 * ratio) - 1.0) / 2.0))
    while (s * s + s - 2) / 4 < ratio:  # sqrt rounded down
        s += 1
    return s


@functools.lru_cache(maxsize=64)
def _rkl2_coefficients(stages: int) -> tuple[float, float, tuple[tuple[float, float, float], ...]]:
    """(w1, b_1, ((mu_j, nu_j, 1 - b_{j-1}) for j = 2..stages)): the
    coefficients of rkl2_step's recurrence, which depend on the stage
    count alone."""
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(3, stages + 1)]
    w1 = 4.0 / (stages * stages + stages - 2)
    return w1, b[1], tuple(
        ((2 * j - 1) / j * b[j] / b[j - 1], -(j - 1) / j * b[j] / b[j - 2], 1.0 - b[j - 1])
        for j in range(2, stages + 1)
    )


def rkl2_step(y: np.ndarray, plan: StepPlan, dt: float, stages: int,
              rates: np.ndarray | None = None) -> np.ndarray:
    """One RKL2 step of size dt, 0 < dt < inf, with the given number of
    stages (Meyer, Balsara & Aslam 2014) from the stacked state Y_0 = y;
    returns the new stacked state with no positivity repair and leaves
    the inputs alone.  Every stage's rhs runs on plan; rates, when given,
    is L(Y_0) = rhs(y, plan), which the step then does not form.

    With b_0 = b_1 = b_2 = 1/3, b_j = (j^2 + j - 2)/(2j(j + 1)) and
    w1 = 4/(s^2 + s - 2), the stages are Y_1 = Y_0 + b_1 w1 dt L(Y_0) and,
    for j = 2..s,

        Y_j = Y_0 + mu_j (Y_{j-1} - Y_0) + nu_j (Y_{j-2} - Y_0)
              + mu_j w1 dt L(Y_{j-1}) - (1 - b_{j-1}) mu_j w1 dt L(Y_0),

    with mu_j = (2j - 1) b_j/(j b_{j-1}) and nu_j = -(j - 1) b_j/(j b_{j-2}).
    Writing each stage as increments on Y_0 keeps a fixed point of rhs
    bitwise.  Stage j's Y_{j-1} - Y_0 is kept as stage j + 1's
    Y_{j-2} - Y_0; stage 2's is Y_0 - Y_0.  The step is stable while dt
    is at most (s^2 + s - 2)/4 forward-Euler steps.
    """
    if stages < 2:
        raise ValueError(f"RKL2 needs at least 2 stages (got {stages})")
    if not 0.0 < dt < math.inf:  # a NaN dt fails too
        raise ValueError(f"dt must be finite and > 0 (got {dt})")
    w1, b1, table = _rkl2_coefficients(stages)
    w1_dt = w1 * dt
    d0 = rates if rates is not None else rhs(y, plan)
    prev_inc = y - y  # Y_{j-2} - Y_0
    cur = y + (b1 * w1_dt) * d0  # Y_{j-1}
    for mu, nu, one_minus_b in table:
        mu_dt = mu * w1_dt
        gamma_dt = -one_minus_b * mu_dt
        d = rhs(cur, plan)
        cur, prev_inc = _rkl2_stage(y, cur, prev_inc, d, d0, mu, nu, mu_dt, gamma_dt)
    return cur


def _rkl2_stage(y0, cur, prev_inc, d, d0, mu, nu, mu_dt, gamma_dt) -> tuple[np.ndarray, np.ndarray]:
    """(y0 + mu (cur - y0) + nu prev_inc + mu_dt d + gamma_dt d0, cur - y0):
    the next stage, summed term by term in that order, so bitwise, into
    one new array and one scratch, and the increment the stage after it
    takes as prev_inc."""
    inc = cur - y0
    y = inc * mu
    y += y0
    tmp = prev_inc * nu
    y += tmp
    np.multiply(d, mu_dt, out=tmp)
    y += tmp
    np.multiply(d0, gamma_dt, out=tmp)
    y += tmp
    return y, inc


def _defect(y0, y1, rates0, rates1, dt: float) -> float:
    """max over cells of |y1 - y0 - (dt/2)(rates0 + rates1)| / (1 + |y1|):
    the trapezoidal defect, relative to its size, over both fields of the
    stacked states."""
    e = rates0 + rates1
    e *= -0.5 * dt
    e += y1
    e -= y0
    np.abs(e, out=e)
    e /= 1.0 + np.abs(y1)
    return float(e.max())


def advance(y: np.ndarray, t: float, t_end: float, plan: StepPlan,
            accounting: StepAccounting) -> tuple[np.ndarray, float]:
    """One step of run_to_time from the stacked state y = (u, v) at time t
    toward t_end; returns the new stacked state and the step length,
    leaves the inputs alone, counts the step in accounting and updates
    plan's proposal and rates for the next step.  Every right-hand side
    of the step runs on plan.

    With (substep, positivity, accuracy) from step_bounds, the step is
    dt = min(max(accuracy, min(proposal, longest)), t_end - t), proposal
    and longest from plan, so with longest 0 dt = min(accuracy, t_end - t).
    min(positivity, accuracy) is the longest step the method guarantees,
    so one too small to change t, or one at which the rest of the run
    would take more than STEP_BUDGET steps, raises Stalled.

    When dt is longer than positivity, advance takes it with RKL2 in
    _rkl2_stages(dt / substep) stages, from plan.rates when it holds
    L(Y0).  An RKL2 step is admissible if every cell is finite,
    nonnegative and at most BLOWUP_LIMIT and max v' <= max(max v,
    max(0, m2)) (1 + 1e-12); an inadmissible one is discarded, and the
    next step is proposed at the floor again.  When longest exceeds accuracy and
    the step does not land on t_end, advance forms L(Y1) and
    err = max|Y1 - Y0 - (dt/2)(L(Y0) + L(Y1))| / (RKL2_TOL (1 + |Y1|))
    over both fields.  It keeps the step if err <= 1 or dt <= accuracy,
    proposes dt min(5, max(0.2, 0.9 err^(-1/3))) next and carries L(Y1);
    otherwise it retries from y at max(accuracy, dt max(0.2,
    0.9 err^(-1/3))).  accuracy is the floor because shortening a step
    below it only adds steps: the SSP-RK step is never longer.

    A step that is not kept as RKL2, and a dt no longer than positivity,
    is taken with SSP-RK at min(positivity, accuracy, t_end - t), the
    bound it guarantees; an SSP-RK step that is not admissible raises
    BlowUp (from step).
    """
    substep, positivity, accuracy = step_bounds(y[0], y[1], plan.grid, plan.p)
    limit = min(positivity, accuracy)
    if t + min(limit, t_end - t) == t:
        raise Stalled(f"step {limit:.3e} does not advance t = {t:.6g}")
    if t_end - t > STEP_BUDGET * limit:
        raise Stalled(f"step {limit:.3e} at t = {t:.6g} leaves over {STEP_BUDGET:.0e} steps to t_end")
    rates, plan.rates = plan.rates, None
    dt = min(max(accuracy, min(plan.proposal, plan.longest)), t_end - t)
    estimate = plan.longest > accuracy and dt < t_end - t
    kept = False
    while dt > positivity:
        if rates is None:
            rates = rhs(y, plan)
            accounting.rhs_evaluations += 1
        stages = _rkl2_stages(dt / substep)
        y_new = rkl2_step(y, plan, dt, stages, rates)
        accounting.rhs_evaluations += stages - 1
        if not _admissible(y_new, max(float(y[1].max()), plan.p.m2_plus) * (1.0 + 1e-12)):
            accounting.rkl2_rejected += 1
            plan.proposal = 0.0
            break
        if not estimate:
            kept = True
            break
        rates_new = rhs(y_new, plan)
        accounting.rhs_evaluations += 1
        err = _defect(y, y_new, rates, rates_new, dt) / RKL2_TOL
        # a NaN err takes the 0.2 of max(0.2, nan) and is rejected
        factor = max(0.2, 0.9 * err ** (-1.0 / 3.0)) if err != 0.0 else math.inf
        if err <= 1.0 or dt <= accuracy:
            kept = True
            plan.proposal, plan.rates = dt * min(5.0, factor), rates_new
            break
        accounting.rkl2_error_rejected += 1
        dt = max(accuracy, dt * factor)
    if kept:
        accounting.rkl2_steps += 1
    else:
        dt = min(limit, t_end - t)
        y_new = step(y, t, plan, dt, rates)
        accounting.rhs_evaluations += STAGES - (rates is not None)
    accounting.steps += 1
    accounting.peak_v = max(accounting.peak_v, float(y_new[1].max()))
    accounting.dt_min = min(accounting.dt_min, dt)
    accounting.dt_max = max(accounting.dt_max, dt)
    return y_new, dt


def run_to_time(
    s0: State,
    p: ModelParams,
    taxis: TaxisScheme,
    t_end: float,
    sample_every: float,
    sink: Callable[[State, int], None] | None = None,
    accounting: StepAccounting | None = None,
) -> State:
    """March from s0 to t_end with the steps of advance; return the state
    at t_end.  advance may lengthen an RKL2 step past C/J, where its
    error estimate accepts it, up to sample_every and no further, so a
    lengthened step reaches at most one sample time and the records of a
    settling run hold a state each.

    run_to_time alone decides which sample times t0 + k*sample_every,
    k = 1..floor((t_end - t0)/sample_every + 1e-9), a state fills; there
    is no interpolation.  The sink gets s0 with count 1, then each step
    end with the count, at least 1, of sample times it is the first step
    end at or after (to 1e-9 of sample_every); the step that lands on
    t_end counts every sample time still left.  So the counts of a full
    run add up to floor((t_end - t0)/sample_every + 1e-9) + 1, and a step
    reaching several sample times is passed once.  The final step is
    clipped to land on t_end.  A step too small to change t, or one at
    which the rest of the run would take more than STEP_BUDGET steps,
    raises Stalled (from advance) instead of looping without end.
    The states passed to the sink hold views of the stepper's stacked
    array, which is never written again once handed out.
    A NaN t_end or sample_every, or more than SAMPLE_BUDGET sample
    intervals, raises ValueError before the sink is first called.
    """
    if not t_end >= s0.t:
        raise ValueError(f"t_end must be >= the state time {s0.t} (got {t_end})")
    if not sample_every > 0:
        raise ValueError(f"sample_every must be > 0 (got {sample_every})")
    intervals = (t_end - s0.t) / sample_every
    if intervals > SAMPLE_BUDGET:
        raise ValueError(f"{intervals:.3g} sample intervals exceed SAMPLE_BUDGET = {SAMPLE_BUDGET:.0e}")
    acc = accounting if accounting is not None else StepAccounting()
    acc.peak_v = max(acc.peak_v, float(s0.v.values.max()))
    if sink is not None:
        sink(s0, 1)
    if t_end == s0.t:
        return s0

    grid = s0.grid
    y, t0 = np.stack((s0.u.values, s0.v.values)), s0.t
    t = t0
    n_samples = int(math.floor(intervals + 1e-9))
    next_sample = 1
    time_eps = 1e-12 * max(1.0, abs(t_end))
    plan = StepPlan(grid, p, taxis, longest=sample_every)
    while t < t_end:
        y, dt = advance(y, t, t_end, plan, acc)
        t = t_end if t_end - (t + dt) <= time_eps else t + dt
        reached = n_samples + 1 if t == t_end else next_sample
        while reached <= n_samples and t >= t0 + reached * sample_every - 1e-9 * sample_every:
            reached += 1
        if reached > next_sample and sink is not None:
            sink(State(Field(grid, y[0]), Field(grid, y[1]), t), reached - next_sample)
        next_sample = reached
    return State(Field(grid, y[0]), Field(grid, y[1]), t_end)
