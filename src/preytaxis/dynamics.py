"""Finite-volume time stepping for the taxis system.

The predator flux through each interior face is formed from the values
of the two cells it separates, (u_L, v_L) and (u_R, v_R), and combines
prey-enhanced diffusion with drift up the prey gradient,

    flux = (d1 + chi*v_face) * (u_R - u_L)/h - chi * F(u_face) * (v_R - v_L)/h,

where v_face is the arithmetic face mean and u_face is the donor cell's
value (upwind, the default) or the face mean (central).

The stepper carries the state as one C-contiguous array y of shape
(2, *grid.n), y[0] the predator u and y[1] the prey v, so each operation
the two species share runs as one array call on both: right-hand sides
(see rhs), stage updates, transforms, error defects and admissibility
checks.

A run's steps share one StepPlan (its buffers, constants and DCT
matrices, and what advance carries from step to step), which
run_to_time builds and rhs, step, imex_step and advance take in place of
(grid, p, taxis).  They return new arrays, so no result, carried
right-hand side or state is ever a plan buffer.

run_to_time takes each step with advance, the one place that keeps,
discards and counts a step; step and imex_step only compute one.  One
rule sizes the steps of both methods.  A step may be longer than the
accuracy bound dt * J <= STEP_ACCURACY, C/J, up to one sample interval,
when a local error estimate accepts it (step control after Hairer,
Norsett & Wanner, Solving ODEs I, II.4): the trapezoidal defect, whose
L(Y1) is the next step's first right-hand side, so it costs none.  The
length picks the method: a step no longer than min(positivity, C/J) is
the SSP-RK step below; a longer one is the implicit-explicit ARS(2,2,2)
step (Ascher, Ruuth & Spiteri, Appl. Numer. Math. 25, 1997), with the
diffusion implicit, so diffusion no longer bounds the step.  The
orthonormal DCT-II diagonalises the zero-flux Laplacian of a uniform
axis exactly (Strang, SIAM Review 41, 1999), so each implicit solve is
two dense transforms and a division, and a step costs two right-hand
sides and four transforms, whatever its length.  The positivity bound
takes a pass over the prey per axis, so advance forms it only for a dt
at or under its ceiling, the same rate sums without the prey's jumps
between cells: a longer dt is above the bound, and IMEX.

One admissibility rule judges both methods, and the stepper never
repairs a state: every cell of a kept step is finite, nonnegative and at
most BLOWUP_LIMIT.  An IMEX step that breaks it, or lifts the prey
maximum past its cap, is discarded; an SSP-RK step that breaks it
raises BlowUp.

The proven step is the s-stage second-order SSP Runge-Kutta method
SSP-RK(s, 2) with s = STAGES (Spiteri & Ruuth 2002; low-storage form
after Ketcheson 2008), taken for a dt no longer than min(positivity,
C/J) and in place of a discarded IMEX step.  It is a convex combination
of the start value and the result of s forward-Euler substeps of
dt/(s - 1), so a substep that keeps both fields nonnegative and the prey
map monotone keeps the step so.  For s = 2 it is Heun's method.
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
    "STEP_ACCURACY",
    "STEP_TOL",
    "STEP_BUDGET",
    "SAMPLE_BUDGET",
    "reaction_rates",
    "rhs",
    "step_bounds",
    "step",
    "imex_step",
    "advance",
    "run_to_time",
]

BLOWUP_LIMIT = 1e12
STEP_SAFETY = 0.9  # fraction of the forward-Euler positivity bound that a substep takes
STAGES = 4  # forward-Euler substeps per SSP-RK(s, 2) step, each of length dt/(STAGES - 1)
# dt * J of the shortest step the error estimate may ask for, J the
# row-sum norm of the reaction Jacobian or the per-capita reaction rate.
# Under it the estimate sets criterion 4's worst error: 7.50e-5 at 0.02
# and 7.55e-5 at 0.05; at 0.1 the floor keeps steps the estimate would
# shorten, and the error is 2.56e-4, over the 1e-4 cap.  Criterion 3's
# nonlinear order is 2.043 at 0.05.
STEP_ACCURACY = 0.05
# Largest trapezoidal defect, relative to 1 + |Y1| in each cell, that
# advance accepts in a step longer than C/J.  Every kept step short of
# t_end forms the defect and proposes the next step from it, SSP-RK or
# IMEX; a step longer than C/J is always IMEX, so only IMEX steps fail
# it.  On criterion 4's homogeneous runs the IMEX step is a two-stage
# Runge-Kutta step on the reactions; its worst error is 1.20e-4 at 1e-5
# (cap 1e-4), where criterion 10's gaps also fall out of order, and
# 7.55e-5 at 5e-6.
STEP_TOL = 5e-6
_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)  # ARS(2,2,2)'s constants
_DELTA = 1.0 - 1.0 / (2.0 * _GAMMA)
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
    included.  Of the steps, imex_steps were IMEX steps; imex_rejected
    counts the inadmissible IMEX steps advance discarded for an SSP-RK
    step, imex_error_rejected the admissible IMEX steps longer than C/J
    that the error estimate rejected for a shorter one, and
    rhs_evaluations the right-hand sides advance evaluated, those of
    discarded steps included."""

    steps: int = 0
    clamped_cells: int = 0  # always 0, since no step clamps; kept because bench/ reads it
    peak_v: float = field(default=-math.inf)
    dt_min: float = field(default=math.inf)
    dt_max: float = 0.0
    imex_steps: int = 0
    imex_rejected: int = 0
    imex_error_rejected: int = 0
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
    reuses, since only the state changes: shape, the stacked state's
    (2, *grid.n); faces, per axis a stacked (2, N + s) face array (see
    grid) whose walls are zeroed here once and stay 0; axes, per axis
    (s, the interior views faces[0, s:-s] and faces[1, s:-s], chi/h^2,
    chi/2h^2, d1/h^2, d2/h^2); and reactions, _reaction_coefficients(p).
    rhs writes the face differences, then the fluxes over h, into faces
    on every call: the constants hold both the 1/h of the gradient and
    the 1/h of the divergence, so no pass divides by h.  Grid keeps
    1/h^2 finite.

    What imex_step reuses: dct, per axis the orthonormal DCT-II matrix
    C[k, j] = c_k cos(pi k (j + 1/2)/n), c_0 = sqrt(1/n), else sqrt(2/n),
    and dct_t, per axis the C-contiguous copy of C^T.  The transforms
    multiply by C^T as often as by C, and OpenBLAS multiplies the
    (2 n_0, n_1) rows of a 64^2 state by a contiguous copy in 17.5 us,
    against 24.4 us by the strided view C.T, with the same bits (timeit
    minima, one BLAS thread, 2 CPUs);
    eigenvalues, mu = sum_ax -(2 - 2 cos(pi k_ax/n_ax))/h_ax^2, shaped
    grid.n, so the Laplacian is C^T diag(mu) C along every axis; and
    spectral, three work arrays shaped like the state.  Grid caps each
    axis at MAX_AXIS_CELLS, which bounds the matrices' size.

    What advance carries from one step to the next: longest, the longest
    step the error estimate may accept (one sample interval; 0 accepts
    none past C/J), proposal, the step length it proposes next (0, the
    C/J floor, before the first estimate), and rates, the right-hand side
    at the state advance returned when it formed it."""

    __slots__ = ("grid", "p", "taxis", "shape", "faces", "axes", "reactions", "dct", "dct_t", "eigenvalues", "spectral",
                 "longest", "proposal", "rates")

    def __init__(self, grid: Grid, p: ModelParams, taxis: TaxisScheme, longest: float = 0.0):
        self.grid, self.p, self.taxis, self.shape = grid, p, taxis, (2, *grid.n)
        self.longest, self.proposal, self.rates = longest, 0.0, None
        cells = math.prod(grid.n)
        self.faces = tuple(np.zeros((2, cells + s)) for s in grid.stride)
        self.axes = tuple(
            (s, faces[0, s:-s], faces[1, s:-s], p.chi / h2, 0.5 * p.chi / h2, p.d1 / h2, p.d2 / h2)
            for s, h2, faces in zip(grid.stride, (h * h for h in grid.h), self.faces)
        )
        self.reactions = _reaction_coefficients(p)
        self.dct = tuple(_dct_matrix(n) for n in grid.n)
        self.dct_t = tuple(np.ascontiguousarray(c.T) for c in self.dct)
        self.eigenvalues = functools.reduce(np.add.outer, (
            -(2.0 * np.sin(0.5 * np.pi * np.arange(n) / n) / h) ** 2 for n, h in zip(grid.n, grid.h)))
        self.spectral = tuple(np.empty(self.shape) for _ in range(3))


def _dct_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix of n points, built in place."""
    c = np.multiply.outer(np.arange(n) * (np.pi / n), np.arange(n) + 0.5)
    np.cos(c, out=c)
    c *= math.sqrt(2.0 / n)
    c[0] = math.sqrt(1.0 / n)
    return c


def rhs(y: np.ndarray, plan: StepPlan) -> np.ndarray:
    """Time derivatives of the stacked state y on plan's grid with its p
    and taxis, as a new array shaped like y.

    One face gradient call writes the undivided face differences
    g = (g_u, g_v) = (u_R - u_L, v_R - v_L) of y into the plan's face
    arrays, and each axis's fluxes over h are written over them: row 0
    gets the predator flux over h,

        (d1/h^2 + (chi/2h^2)(v_L + v_R)) g_u - (chi/h^2) F_donor g_v,

    and row 1 the prey's, (d2/h^2) g_v, so the prey's difference serves
    the drift and its diffusion.  Where h is a power of two these are
    the bits of dividing g by h first; elsewhere they differ by rounding.
    Each face's flux is formed from the values of the two cells it
    separates; on the walls and seams both differences are 0, and so is
    each flux of finite cell values.  Upwind, F = taxis_mobility(u) is
    formed once on the cells, and F_donor is the left cell's where
    g_v > 0 (chi > 0, so that is where the drift carries density
    rightward), else the right cell's; central, F_donor is the mobility
    of the face mean of u.  The reactions of both rows
    start the result, and the divergence of the fluxes is accumulated
    onto it in place.  The flux part integrates to zero to rounding, so
    the discrete mass identity d/dt integral(u) = integral(reaction_u)
    holds to rounding.  A y not shaped plan.shape raises ValueError."""
    if y.shape != plan.shape:
        raise ValueError(f"state shape {y.shape} does not match the plan's {plan.shape}")
    eps = plan.p.eps
    fluxes = face_gradient_values(plan.grid, y, out=plan.faces, over_h=False)
    x = y.reshape(2, -1)
    x_u, x_v = x
    upwind = plan.taxis is TaxisScheme.UPWIND
    if upwind:
        mobility = taxis_mobility(x_u, eps)
    for s, grad_u, grad_v, chi_h2, half_chi_h2, d1_h2, d2_h2 in plan.axes:
        if upwind:
            drift = np.where(grad_v > 0, mobility[:-s], mobility[s:])
        else:
            drift = taxis_mobility(0.5 * (x_u[:-s] + x_u[s:]), eps)
        drift *= grad_v
        drift *= chi_h2
        flux = x_v[:-s] + x_v[s:]
        flux *= half_chi_h2
        flux += d1_h2
        flux *= grad_u
        np.subtract(flux, drift, out=grad_u)
        grad_v *= d2_h2
    out = _reactions(x, plan.reactions)
    accumulate_divergence(plan.grid, out, fluxes)
    return out.reshape(y.shape)


# --- step-size limiter --------------------------------------------------------

def step_bounds(u, v, grid: Grid, p: ModelParams) -> tuple[float, float]:
    """(positivity, accuracy): the two step lengths advance chooses from
    at (u, v).

    A stage substep of an SSP-RK step is at most STEP_SAFETY over the
    largest forward-Euler loss rate of either species.  A forward-Euler
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

    positivity, (STAGES - 1) such substeps, keeps every SSP-RK(STAGES, 2)
    stage so for the loss rates at the start of the step, with
    1/STEP_SAFETY - 1 (11%) to spare, while each later stage starts from
    one the reactions R have moved by about dt |R|.  accuracy is
    STEP_ACCURACY / J, J the largest row-sum norm of the reaction
    Jacobian [[m1 - 2u + a v, a u], [-b v, m2 - b u - 2v]] or per-capita
    rate |m1 - u + a v|, |m2 - b u - v| over the cells, so R changes by
    about J dt |R| <= 5% of |R| over a step, inside that margin.  The
    argument is linearised, not a proof.  Neither term of J does alone:
    the row sums nearly vanish at a species' inflection point
    u = (m1 + a v)/2 when a and b are small, the per-capita rate at its
    logistic level u = m1 + a v, where the slope, about -u, does not.
    When a, b >= 1 the row sums are the larger term.  Under IMEX steps
    accuracy is only the floor of the error estimate, but the row sums
    are still needed: at an equilibrium, such as criterion 4's (1.5, 0.5),
    both per-capita rates are 0, and without them J = 0 would make
    STEP_ACCURACY / J raise, and a J near 0 would put accuracy past one
    sample interval, where advance forms no estimate.

    advance forms the two bounds apart, from the same private functions,
    so that it forms positivity only where it can decide the step: for a
    dt at or under the positivity ceiling, these rate sums without the
    donor-drift jump terms, which needs no pass over the cells.
    """
    accuracy, react_u, react_v = _accuracy_bound(u, v, p)
    return _positivity_bound(v, float(v.max()), react_u, react_v, grid, p), accuracy


def _accuracy_bound(u, v, p: ModelParams) -> tuple[float, float, float]:
    """(accuracy, max|m1 - u + a v|, max|m2 - b u - v|): step_bounds'
    accuracy bound and the two per-capita reaction rates J takes its
    maximum over, which _positivity_bound also reads.  Two work arrays
    take every term in step_bounds' order of operations, a v and m2 - b u
    formed once for both places they appear."""
    av = p.a * v
    m2_bu = p.m2 - p.b * u
    t = p.m1 - u
    t += av
    np.abs(t, out=t)
    react_u = float(t.max())
    w = m2_bu - v
    np.abs(w, out=w)
    react_v = float(w.max())
    np.multiply(u, 2.0, out=t)  # row_u = |m1 - 2u + a v| + a u
    np.subtract(p.m1, t, out=t)
    t += av
    np.abs(t, out=t)
    np.multiply(u, p.a, out=w)
    t += w
    np.multiply(v, 2.0, out=w)  # row_v = b v + |m2 - b u - 2v|
    np.subtract(m2_bu, w, out=w)
    np.abs(w, out=w)
    np.multiply(v, p.b, out=av)
    w += av
    np.maximum(t, w, out=t)
    return STEP_ACCURACY / max(float(t.max()), react_u, react_v), react_u, react_v


def _positivity_bound(v, v_max: float, react_u: float, react_v: float, grid: Grid, p: ModelParams) -> float:
    """step_bounds' positivity bound at prey v, v_max = max v, from the
    per-capita reaction rates _accuracy_bound returns."""
    jumps = [float(np.abs(np.diff(v, axis=ax)).max()) for ax in range(grid.dim)]
    return _rate_bound(v_max, react_u, react_v, grid, p, jumps)


def _positivity_ceiling(v_max: float, react_u: float, react_v: float, grid: Grid, p: ModelParams) -> float:
    """_positivity_bound's rate sums with every donor-drift jump 0, from
    scalars advance already holds.  Each sum then takes the same
    operations on operands no larger, and rounding is monotone, so the
    ceiling is >= the positivity bound bit for bit, and equal to it where
    v has no jumps: a dt above it is longer than the bound."""
    return _rate_bound(v_max, react_u, react_v, grid, p, [0.0] * grid.dim)


def _rate_bound(v_max: float, react_u: float, react_v: float, grid: Grid, p: ModelParams, jumps) -> float:
    """STEP_SAFETY (STAGES - 1) / max(rate_u, rate_v), with step_bounds'
    rate sums and jumps[ax] the largest |v_R - v_L| along axis ax."""
    rate_u = react_u
    rate_v = max(react_v, 2.0 * v_max - p.m2)
    for h, jump in zip(grid.h, jumps):
        two_over_h2 = 2.0 / (h * h)
        rate_u += two_over_h2 * (p.d1 + p.chi * (v_max + jump))
        rate_v += two_over_h2 * p.d2
    return STEP_SAFETY * ((STAGES - 1) / max(rate_u, rate_v))


# --- time stepping -----------------------------------------------------------

def _row_maxima(y: np.ndarray) -> tuple[float, float]:
    """(max u, max v) of the stacked state y, one reduction of both rows."""
    u_max, v_max = y.reshape(2, -1).max(axis=1).tolist()
    return u_max, v_max


def _admissible(y: np.ndarray, maxima: tuple[float, float], prey_cap: float) -> bool:
    """Whether every cell of the stacked state y, whose row maxima are
    maxima, is finite, nonnegative and at most BLOWUP_LIMIT, and
    max v <= prey_cap.  The array minima and maxima are NaN when any cell
    is, and NaN fails every comparison, so a NaN anywhere makes the state
    inadmissible."""
    u_max, v_max = maxima
    return bool(y.min() >= 0.0 and u_max <= BLOWUP_LIMIT and v_max <= min(prey_cap, BLOWUP_LIMIT))


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
    admissibility rule advance applies to an IMEX step, without its prey
    cap.
    """
    return _ssp_step(y, t, plan, dt, rates)[0]


def _ssp_step(y: np.ndarray, t: float, plan: StepPlan, dt: float,
              rates: np.ndarray | None) -> tuple[np.ndarray, tuple[float, float]]:
    """step's result and its row maxima, which advance counts."""
    if not 0.0 < dt < math.inf:  # a NaN dt fails too
        raise ValueError(f"dt must be finite and > 0 (got {dt})")
    sub = dt / (STAGES - 1)
    z = y
    for k in range(STAGES):
        d = rates if k == 0 and rates is not None else rhs(z, plan)
        z = z + sub * d
    z = z + (y - z) / STAGES
    maxima = _row_maxima(z)
    if not _admissible(z, maxima, math.inf):
        raise BlowUp(f"density negative, not finite or above {BLOWUP_LIMIT:.0e} at t = {t + dt:.6g}")
    return z, maxima


def _transform(plan: StepPlan, x: np.ndarray, out: np.ndarray, inverse: bool = False) -> None:
    """Write the orthonormal DCT-II of the stacked x along every axis into
    out (inverse: the transpose, which undoes it), one matmul per axis,
    the last axis's over all rows at once; in 2-D that one goes into
    plan.spectral[2].  Each matmul takes plan.dct or plan.dct_t, never a
    transposed view.  x is left alone."""
    right, left = (plan.dct, plan.dct_t) if inverse else (plan.dct_t, plan.dct)
    n = right[-1].shape[0]
    mid = plan.spectral[2] if len(right) > 1 else out
    np.matmul(x.reshape(-1, n), right[-1], out=mid.reshape(-1, n))
    if len(left) > 1:
        np.matmul(left[0], mid, out=out)


def imex_step(y: np.ndarray, plan: StepPlan, dt: float, rates: np.ndarray | None = None,
              cap: float | None = None) -> np.ndarray:
    """One ARS(2,2,2) step of size dt, 0 < dt < inf, from the stacked
    state y, unrepaired, leaving the inputs alone; L(Y2) runs on plan, and
    rates, when given, is L(y) = rhs(y, plan).  A = diag(K_u, d2) Delta_h
    is taken implicitly, with K_u = d1 + chi cap and cap = max(max v,
    max(0, m2)), the prey cap of advance's admissibility rule (formed
    here unless given), and L - A explicitly.  With gamma = 1 - 1/sqrt(2),
    delta = 1 - 1/(2 gamma) and D = I - gamma dt A, the step in increment
    form is

        dY2 = D^-1 gamma dt L(y),                       Y2 = y + dY2,
        dY3 = D^-1 dt [delta L(y) + (1 - delta) L(Y2) + (delta - gamma) A dY2],

    and y + dY3.  D is diagonal in DCT space, where D^-1 is a division by
    1 - gamma dt K mu >= 1, and gamma dt A dY2 = (1 - D) dY2 =
    dY2 - gamma dt L(y), so the bracket is gamma L(y) + (1 - delta) L(Y2)
    + ((delta - gamma)/(gamma dt)) dY2.  Four transforms: L(y) and L(Y2)
    forward, dY2 and dY3 back.  L = 0 makes every increment 0, so a
    fixed point of rhs is kept bitwise.
    """
    if not 0.0 < dt < math.inf:  # a NaN dt fails too
        raise ValueError(f"dt must be finite and > 0 (got {dt})")
    p = plan.p
    if cap is None:
        cap = max(float(y[1].max()), p.m2_plus)
    spectral, divisor, work = plan.spectral
    l0 = rates if rates is not None else rhs(y, plan)
    _transform(plan, l0, spectral)
    np.multiply.outer((-_GAMMA * dt * (p.d1 + p.chi * cap), -_GAMMA * dt * p.d2), plan.eigenvalues, out=divisor)
    divisor += 1.0
    inc = spectral * (_GAMMA * dt)
    inc /= divisor  # dY2
    spectral *= _GAMMA
    np.multiply(inc, (_DELTA - _GAMMA) / (_GAMMA * dt), out=work)
    spectral += work  # dY3's bracket without L(Y2)
    y2 = np.empty(plan.shape)
    _transform(plan, inc, y2, inverse=True)
    y2 += y
    l2 = rhs(y2, plan)
    _transform(plan, l2, inc)
    inc *= 1.0 - _DELTA
    inc += spectral
    inc *= dt
    inc /= divisor  # dY3
    _transform(plan, inc, l2, inverse=True)
    l2 += y
    return l2


def _defect(y0, y1, rates0, rates1, dt: float) -> float:
    """max over cells of |y1 - y0 - (dt/2)(rates0 + rates1)| / (1 + |y1|):
    the trapezoidal defect, relative to its size, over both fields of the
    stacked states.  y1 has passed the admissibility rule, so it is >= 0
    and 1 + y1 is 1 + |y1| (1 + -0.0 is 1)."""
    e = rates0 + rates1
    e *= -0.5 * dt
    e += y1
    e -= y0
    np.abs(e, out=e)
    e /= 1.0 + y1
    return float(e.max())


def _check_progress(dt: float, t: float, t_end: float) -> None:
    """Raise Stalled when steps of dt cannot move t or would take more
    than STEP_BUDGET steps to reach t_end."""
    if t + min(dt, t_end - t) == t:
        raise Stalled(f"step {dt:.3e} does not advance t = {t:.6g}")
    if t_end - t > STEP_BUDGET * dt:
        raise Stalled(f"step {dt:.3e} at t = {t:.6g} leaves over {STEP_BUDGET:.0e} steps to t_end")


def advance(y: np.ndarray, t: float, t_end: float, plan: StepPlan,
            accounting: StepAccounting) -> tuple[np.ndarray, float]:
    """One step of run_to_time from the stacked state y = (u, v) at time t
    toward t_end; returns the new stacked state and the step length,
    leaves the inputs alone, counts the step in accounting and updates
    plan's proposal and rates for the next step.  Every right-hand side
    of the step runs on plan.

    With (positivity, accuracy) the bounds of step_bounds, the step is
    dt = min(max(accuracy, min(proposal, longest)), t_end - t), proposal
    and longest from plan, so no step but the fallback below is shorter
    than min(accuracy, t_end - t).  An accuracy too small to change t, or
    one at which the rest of the run would take more than STEP_BUDGET
    steps, raises Stalled.

    A dt no longer than limit = min(positivity, accuracy) is taken with
    SSP-RK, which raises BlowUp when not admissible.  A longer dt is an
    IMEX trial, admissible if every cell is finite, nonnegative and at
    most BLOWUP_LIMIT and max v' <= max(max v, max(0, m2)) (1 + 1e-12);
    one that is not is discarded for the SSP-RK step at
    min(limit, t_end - t), which forms no estimate, and the next proposal
    is 0.  Only that fallback is bounded by positivity, so it checks
    limit as the start checks accuracy.  Both methods start from
    plan.rates when it holds L(Y0).

    accuracy is formed on every step, positivity only where it can decide
    the method: for a dt no longer than accuracy and no longer than the
    positivity ceiling, and for the fallback.  The ceiling is positivity's
    rate sums without the donor-drift jump terms, formed from max v and
    the per-capita reaction rates the accuracy bound returns; rounding is
    monotone, so it is >= positivity bit for bit, and a dt above it is
    IMEX, as it would be with positivity formed.  A kept IMEX step above
    the ceiling or longer than accuracy forms neither positivity nor its
    donor-drift jumps.  max v is reduced once, for both bounds, the
    IMEX step's cap and the admissibility cap, and the row maxima of the
    new state once, for its admissibility and peak_v.

    When longest exceeds accuracy and the step does not land on t_end,
    advance forms L(Y1) and
    err = max|Y1 - Y0 - (dt/2)(L(Y0) + L(Y1))| / (STEP_TOL (1 + |Y1|))
    over both fields, whichever method took the step.  It keeps the step
    if err <= 1 or dt <= accuracy, proposes dt min(5, max(0.2,
    0.9 err^(-1/3))) next and carries L(Y1); otherwise it retries from y
    at max(accuracy, dt max(0.2, 0.9 err^(-1/3))).  accuracy is the floor
    because shortening a step below it only adds steps.  An SSP-RK step
    is at most accuracy long, so it is always kept, and only IMEX steps
    are rejected by the estimate.
    """
    u, v = y
    p = plan.p
    v_max = float(v.max())
    accuracy, react_u, react_v = _accuracy_bound(u, v, p)
    _check_progress(accuracy, t, t_end)
    cap = max(v_max, p.m2_plus)
    limit = None  # min(positivity, accuracy) once formed
    rates, plan.rates = plan.rates, None
    dt = min(max(accuracy, min(plan.proposal, plan.longest)), t_end - t)
    estimate = plan.longest > accuracy and dt < t_end - t
    while True:
        if rates is None:
            rates = rhs(y, plan)
            accounting.rhs_evaluations += 1
        if limit is None and dt <= accuracy and dt <= _positivity_ceiling(v_max, react_u, react_v, plan.grid, p):
            limit = min(_positivity_bound(v, v_max, react_u, react_v, plan.grid, p), accuracy)
        if limit is not None and dt <= limit:
            y_new, maxima = _ssp_step(y, t, plan, dt, rates)
            accounting.rhs_evaluations += STAGES - 1
        else:
            y_new = imex_step(y, plan, dt, rates, cap)
            accounting.rhs_evaluations += 1
            maxima = _row_maxima(y_new)
            if not _admissible(y_new, maxima, cap * (1.0 + 1e-12)):
                accounting.imex_rejected += 1
                if limit is None:
                    limit = min(_positivity_bound(v, v_max, react_u, react_v, plan.grid, p), accuracy)
                _check_progress(limit, t, t_end)
                plan.proposal, estimate, dt = 0.0, False, min(limit, t_end - t)
                continue
        if not estimate:
            break
        rates_new = rhs(y_new, plan)
        accounting.rhs_evaluations += 1
        err = _defect(y, y_new, rates, rates_new, dt) / STEP_TOL
        # a NaN err takes the 0.2 of max(0.2, nan) and is rejected
        factor = max(0.2, 0.9 * err ** (-1.0 / 3.0)) if err != 0.0 else math.inf
        if err <= 1.0 or dt <= accuracy:
            plan.proposal, plan.rates = dt * min(5.0, factor), rates_new
            break
        accounting.imex_error_rejected += 1
        dt = max(accuracy, dt * factor)
    accounting.imex_steps += limit is None or dt > limit
    accounting.steps += 1
    accounting.peak_v = max(accounting.peak_v, maxima[1])
    accounting.dt_min = min(accounting.dt_min, dt)
    accounting.dt_max = max(accounting.dt_max, dt)
    return y_new, dt


def run_to_time(
    s0: State,
    p: ModelParams,
    taxis: TaxisScheme,
    t_end: float,
    sample_every: float,
    sink: Callable[[float, np.ndarray, int], None] | None = None,
    accounting: StepAccounting | None = None,
) -> State:
    """March from s0 to t_end with the steps of advance; return the state
    at t_end.  advance may lengthen an IMEX step past C/J, where its
    error estimate accepts it, up to sample_every and no further, so a
    lengthened step reaches at most one sample time and the records of a
    settling run hold a state each.

    run_to_time alone decides which sample times t0 + k*sample_every,
    k = 1..floor((t_end - t0)/sample_every + 1e-9), a state fills; there
    is no interpolation.  The sink gets (t0, y, 1), y the stacked s0,
    then (t, y, count) for each step end, with the count, at least 1, of
    sample times it is the first step end at or after (to 1e-9 of
    sample_every); the step that lands on t_end counts every sample time
    still left.  So the counts of a full run add up to
    floor((t_end - t0)/sample_every + 1e-9) + 1, and a step reaching
    several sample times is passed once.  Each y is the stepper's own
    (2, *grid.n) array, admissible and never written again once handed
    out; only the state returned is a State.  The final step is clipped
    to land on t_end.  An s0 above BLOWUP_LIMIT raises BlowUp after the
    first sample; a step too small to change t, or one at which the rest
    of the run would take more than STEP_BUDGET steps, raises Stalled
    (from advance) instead of looping without end.  A NaN t_end
    or sample_every, or more than SAMPLE_BUDGET sample intervals, raises
    ValueError before the sink is first called.
    """
    if not t_end >= s0.t:
        raise ValueError(f"t_end must be >= the state time {s0.t} (got {t_end})")
    if not sample_every > 0:
        raise ValueError(f"sample_every must be > 0 (got {sample_every})")
    intervals = (t_end - s0.t) / sample_every
    if intervals > SAMPLE_BUDGET:
        raise ValueError(f"{intervals:.3g} sample intervals exceed SAMPLE_BUDGET = {SAMPLE_BUDGET:.0e}")
    acc = accounting if accounting is not None else StepAccounting()
    y, t0 = np.stack((s0.u.values, s0.v.values)), s0.t
    maxima = _row_maxima(y)
    acc.peak_v = max(acc.peak_v, maxima[1])
    if sink is not None:
        sink(t0, y, 1)
    if t_end == t0:
        return s0
    if not _admissible(y, maxima, math.inf):
        raise BlowUp(f"density above {BLOWUP_LIMIT:.0e} at t = {t0:.6g}")
    t = t0
    n_samples = int(math.floor(intervals + 1e-9))
    next_sample = 1
    time_eps = 1e-12 * max(1.0, abs(t_end))
    plan = StepPlan(s0.grid, p, taxis, longest=sample_every)
    while t < t_end:
        y, dt = advance(y, t, t_end, plan, acc)
        t = t_end if t_end - (t + dt) <= time_eps else t + dt
        reached = n_samples + 1 if t == t_end else next_sample
        while reached <= n_samples and t >= t0 + reached * sample_every - 1e-9 * sample_every:
            reached += 1
        if reached > next_sample and sink is not None:
            sink(t, y, reached - next_sample)
        next_sample = reached
    return State(Field(plan.grid, y[0]), Field(plan.grid, y[1]), t_end)
