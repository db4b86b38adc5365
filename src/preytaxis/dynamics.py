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
discards and counts a step; step and imex_step only compute one.  Every
step is first an implicit-explicit ARS(2,2,2) trial (Ascher, Ruuth &
Spiteri, Appl. Numer. Math. 25, 1997), with the diffusion implicit, so
diffusion does not bound the step.  It is at least the accuracy bound
dt * J <= STEP_ACCURACY, C/J, and may be longer, up to one sample
interval, when a local error estimate accepts it (step control after
Hairer, Norsett & Wanner, Solving ODEs I, II.4): the trapezoidal defect,
whose L(Y1) is the next step's first right-hand side, so it costs none.
C/J comes from the per-capita reaction rates of the right-hand side that
starts the step, reduced in the pass that forms its reactions, and is
carried with it.  The orthonormal DCT-II diagonalises the zero-flux
Laplacian of a uniform axis exactly (Strang, SIAM Review 41, 1999), so
each implicit solve is two dense transforms and a division, and a step
costs two right-hand sides and four transforms, whatever its length.

One admissibility rule judges both methods, and the stepper never
repairs a state: every cell of a kept step is finite, nonnegative and at
most BLOWUP_LIMIT.  An IMEX trial that breaks it, or lifts the prey
maximum past its cap, is discarded for the proven step; a proven step
that breaks it raises BlowUp.

The proven step is the s-stage second-order SSP Runge-Kutta method
SSP-RK(s, 2) with s = STAGES (Spiteri & Ruuth 2002; low-storage form
after Ketcheson 2008), taken in place of a discarded IMEX trial, at the
shorter of step_bounds' positivity bound and C/J.  It is a convex
combination of the start value and the result of s forward-Euler
substeps of dt/(s - 1), so a substep that keeps both fields nonnegative
and the prey map monotone keeps the step so.  For s = 2 it is Heun's
method.
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
# advance accepts in a step longer than C/J.  Every kept IMEX step short
# of t_end forms the defect and proposes the next step from it; a step
# at C/J is kept whatever its defect.  On criterion 4's homogeneous runs
# the IMEX step is a two-stage Runge-Kutta step on the reactions; its
# worst error is 1.20e-4 at 1e-5 (cap 1e-4), where criterion 10's gaps
# also fall out of order, and 7.55e-5 at 5e-6.
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
    included.  Of the steps, imex_steps were IMEX steps and the rest
    SSP-RK steps, each in place of one of the imex_rejected inadmissible
    IMEX trials advance discarded; imex_error_rejected counts the
    admissible IMEX steps longer than C/J that the error estimate
    rejected for a shorter one, and rhs_evaluations the right-hand sides
    advance evaluated, those of discarded steps included."""

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

def _reaction_coefficients(p: ModelParams, cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reactions' coefficients for the flat stack x = (u, v) of
    2 cells values, as _per_capita_rates and _reaction_bound take them:
    the column (a, -b), shaped (2, 1), and the rows
    growth = (m1, ..., m2, ...) and slopes = (a, ..., b, ...), each of
    2 cells slots, m1 and a over u's cells and m2 and b over v's."""
    return np.array(((p.a,), (-p.b,))), np.repeat((p.m1, p.m2), cells), np.repeat((p.a, p.b), cells)


def _per_capita_rates(x: np.ndarray, coefficients) -> np.ndarray:
    """Per-capita reaction rates pc = m + [[-1, a], [-b, -1]] (u, v) of the
    flat stack x = (u, v), as a new flat array ((a v - u) + m1,
    (-b u - v) + m2): the product of the swapped rows (v, u) with the
    column (a, -b), then one contiguous pass per operation over both
    rows.  The reactions are pc * x, which rhs and reaction_rates form in
    place.  coefficients is _reaction_coefficients(p, cells)."""
    cross, growth, _ = coefficients
    pc = (x.reshape(2, -1)[::-1] * cross).reshape(-1)
    pc -= x
    pc += growth
    return pc


def _reaction_bound(pc: np.ndarray, x: np.ndarray, slopes: np.ndarray) -> float:
    """step_bounds' accuracy bound C/J at the flat stack x = (u, v) from
    its per-capita rates pc: J is the larger of max|pc| and the largest
    of the Jacobian's row sums, |pc_u - u| + a u and |pc_v - v| + b v;
    slopes is the row (a, ..., b, ...) of _reaction_coefficients.  pc
    and x are left alone."""
    w = np.abs(pc)
    react = float(w.max())
    np.subtract(pc, x, out=w)
    np.abs(w, out=w)
    w += x * slopes
    return STEP_ACCURACY / max(float(w.max()), react)


def reaction_rates(u, v, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Logistic reaction terms of both species, u (m1 - u + a v) and
    v (m2 - b u - v), with the bits rhs adds."""
    y = np.stack(np.broadcast_arrays(u, v))
    x = y.reshape(-1)
    r = _per_capita_rates(x, _reaction_coefficients(p, x.size // 2))
    r *= x
    r = r.reshape(y.shape)
    return r[0], r[1]


# --- semidiscrete right-hand side -------------------------------------------

class StepPlan:
    """One run on grid with p and taxis.  What every right-hand side
    reuses, since only the state changes: shape, the stacked state's
    (2, *grid.n); faces, per axis the flat face array of the stack (u, v)
    (see grid), 2N + s slots, whose rows share their wall slots: u's
    faces are f[:N + s] and v's f[N:2N + s]; axes, per axis (s, the
    interior views f[s:N] and f[N + s:2N], chi/h^2, chi/2h^2, d1/h^2,
    d2/h^2); and reactions, _reaction_coefficients(p, N), with its two
    (2N) rows.  rhs writes the face differences, walls and seams zeroed,
    then the fluxes over h, into faces on every call: the constants hold
    both the 1/h of the gradient and the 1/h of the divergence, so no
    pass divides by h.  Grid keeps 1/h^2 finite.

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
    C/J floor, before the first estimate), rates, the right-hand side at
    the state advance returned when it formed it, and bound, step_bounds'
    accuracy C/J at that state, reduced from the per-capita rates of the
    same right-hand side.  rates and bound are set together and cleared
    together."""

    __slots__ = ("grid", "p", "taxis", "shape", "faces", "axes", "reactions", "dct", "dct_t", "eigenvalues", "spectral",
                 "longest", "proposal", "rates", "bound")

    def __init__(self, grid: Grid, p: ModelParams, taxis: TaxisScheme, longest: float = 0.0):
        self.grid, self.p, self.taxis, self.shape = grid, p, taxis, (2, *grid.n)
        self.longest, self.proposal, self.rates, self.bound = longest, 0.0, None, None
        cells = math.prod(grid.n)
        self.faces = tuple(np.zeros(2 * cells + s) for s in grid.stride)
        self.axes = tuple(
            (s, f[s:cells], f[cells + s:2 * cells], p.chi / h2, 0.5 * p.chi / h2, p.d1 / h2, p.d2 / h2)
            for s, h2, f in zip(grid.stride, (h * h for h in grid.h), self.faces)
        )
        self.reactions = _reaction_coefficients(p, cells)
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
    of the face mean of u.  The reactions of both rows, their per-capita
    rates times y, start the result, and the divergence of the fluxes is
    accumulated onto it in place.  The flux part integrates to zero to
    rounding, so the discrete mass identity
    d/dt integral(u) = integral(reaction_u) holds to rounding.  A y not
    shaped plan.shape raises ValueError."""
    return _rhs(y, plan, False)[0]


def _rhs(y: np.ndarray, plan: StepPlan, bound: bool) -> tuple[np.ndarray, float | None]:
    """(rhs(y, plan), and when bound is true _reaction_bound's C/J at y,
    else None).  The bound is reduced from the per-capita rates the
    reactions were formed from, so it costs no second pass over them;
    advance asks for it on the right-hand side that starts a step, the
    stages skip it."""
    if y.shape != plan.shape:
        raise ValueError(f"state shape {y.shape} does not match the plan's {plan.shape}")
    eps = plan.p.eps
    fluxes = face_gradient_values(plan.grid, y, out=plan.faces, over_h=False)
    x = y.reshape(-1)
    cells = x.size // 2
    x_u, x_v = x[:cells], x[cells:]
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
    out = _per_capita_rates(x, plan.reactions)
    formed = _reaction_bound(out, x, plan.reactions[2]) if bound else None
    out *= x
    accumulate_divergence(plan.grid, out, fluxes)
    return out.reshape(y.shape), formed


# --- step-size limiter --------------------------------------------------------

def step_bounds(u, v, grid: Grid, p: ModelParams) -> tuple[float, float]:
    """(positivity, accuracy): the two step lengths that bound the SSP-RK
    step advance takes in place of a discarded IMEX trial at (u, v).

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
    When a, b >= 1 the row sums are the larger term.  accuracy is also
    the floor of the IMEX steps' error estimate, and there the row sums
    are still needed: at an equilibrium, such as criterion 4's
    (1.5, 0.5), both per-capita rates are 0, and without them J = 0 would
    make STEP_ACCURACY / J raise, and a J near 0 would put accuracy past
    one sample interval, where advance forms no estimate.

    Every term is formed in the reactions' association: the per-capita
    rates are (a v - u) + m1 and (-b u - v) + m2, as rhs forms them, and
    the row sums |(a v - u + m1) - u| + a u and |(-b u - v + m2) - v| + b v.
    advance takes accuracy from the right-hand side that starts the step,
    whose reactions already hold those rates (see _rhs), with the bits
    step_bounds forms, and calls step_bounds only for a fallback.
    """
    x = np.stack((u, v)).reshape(-1)
    coefficients = _reaction_coefficients(p, x.size // 2)
    pc = _per_capita_rates(x, coefficients)
    rate_u, react_v = np.abs(pc).reshape(2, -1).max(axis=1).tolist()
    v_max = float(v.max())
    rate_v = max(react_v, 2.0 * v_max - p.m2)
    for ax, h in enumerate(grid.h):
        two_over_h2 = 2.0 / (h * h)
        jump = float(np.abs(np.diff(v, axis=ax)).max())
        rate_u += two_over_h2 * (p.d1 + p.chi * (v_max + jump))
        rate_v += two_over_h2 * p.d2
    return STEP_SAFETY * ((STAGES - 1) / max(rate_u, rate_v)), _reaction_bound(pc, x, coefficients[2])


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
    stacked state y at time t, the step advance takes in place of a
    discarded IMEX step; returns the new stacked state with no positivity
    repair and leaves the inputs alone.  Every substep's rhs runs on
    plan; rates, when given, is rhs(y, plan), which the first substep
    then does not form.

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
    the last axis's over all rows at once: in 1-D the one matmul of the
    (2, n) state, in 2-D one into plan.spectral[2] first.  Each matmul
    takes plan.dct or plan.dct_t, never a transposed view.  x is left
    alone."""
    right, left = (plan.dct, plan.dct_t) if inverse else (plan.dct_t, plan.dct)
    if len(right) == 1:
        np.matmul(x, right[0], out=out)
        return
    n = right[-1].shape[0]
    mid = plan.spectral[2]
    np.matmul(x.reshape(-1, n), right[-1], out=mid.reshape(-1, n))
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

    With accuracy = C/J of step_bounds, the step is
    dt = min(max(accuracy, min(proposal, longest)), t_end - t), proposal
    and longest from plan, so no step but the fallback below is shorter
    than min(accuracy, t_end - t).  An accuracy too small to change t, or
    one at which the rest of the run would take more than STEP_BUDGET
    steps, raises Stalled.  accuracy comes from the per-capita reaction
    rates of L(Y0): plan's bound carries it with plan.rates, and where
    nothing is carried advance forms L(Y0) and accuracy in one pass,
    before the stall check, which counts that right-hand side.  The
    stages' right-hand sides form no bound.

    Every dt is first an IMEX trial from plan.rates or that L(Y0),
    admissible if every cell is finite, nonnegative and at most
    BLOWUP_LIMIT and max v' <= max(max v, max(0, m2)) (1 + 1e-12).  One
    that is not is discarded for the SSP-RK step from the same L(Y0) at
    min(limit, t_end - t), limit = min(step_bounds), which raises BlowUp
    when not admissible and forms no estimate; the next proposal is 0.
    Only that fallback forms the positivity bound, and it checks limit
    as the start checks accuracy.  max v is reduced once, for the IMEX
    step's cap and the admissibility cap, and the row maxima of the new
    state once, for its admissibility and peak_v.

    When longest exceeds accuracy and the step does not land on t_end,
    advance forms L(Y1), with the bound at Y1, and
    err = max|Y1 - Y0 - (dt/2)(L(Y0) + L(Y1))| / (STEP_TOL (1 + |Y1|))
    over both fields.  It keeps the step if err <= 1 or dt <= accuracy,
    proposes dt min(5, max(0.2, 0.9 err^(-1/3))) next and carries L(Y1)
    and its bound; otherwise it retries from y at
    max(accuracy, dt max(0.2, 0.9 err^(-1/3))).  accuracy is the floor
    because shortening a step below it only adds steps.
    """
    p = plan.p
    rates, accuracy = plan.rates, plan.bound
    plan.rates = plan.bound = None
    if rates is None:
        rates, accuracy = _rhs(y, plan, True)
        accounting.rhs_evaluations += 1
    _check_progress(accuracy, t, t_end)
    cap = max(float(y[1].max()), p.m2_plus)
    fallback = False
    dt = min(max(accuracy, min(plan.proposal, plan.longest)), t_end - t)
    estimate = plan.longest > accuracy and dt < t_end - t
    while True:
        if fallback:
            y_new, maxima = _ssp_step(y, t, plan, dt, rates)
            accounting.rhs_evaluations += STAGES - 1
        else:
            y_new = imex_step(y, plan, dt, rates, cap)
            accounting.rhs_evaluations += 1
            maxima = _row_maxima(y_new)
            if not _admissible(y_new, maxima, cap * (1.0 + 1e-12)):
                accounting.imex_rejected += 1
                limit = min(step_bounds(y[0], y[1], plan.grid, p))
                _check_progress(limit, t, t_end)
                plan.proposal, estimate, fallback, dt = 0.0, False, True, min(limit, t_end - t)
                continue
        if not estimate:
            break
        rates_new, bound_new = _rhs(y_new, plan, True)
        accounting.rhs_evaluations += 1
        err = _defect(y, y_new, rates, rates_new, dt) / STEP_TOL
        # a NaN err takes the 0.2 of max(0.2, nan) and is rejected
        factor = max(0.2, 0.9 * err ** (-1.0 / 3.0)) if err != 0.0 else math.inf
        if err <= 1.0 or dt <= accuracy:
            plan.proposal, plan.rates, plan.bound = dt * min(5.0, factor), rates_new, bound_new
            break
        accounting.imex_error_rejected += 1
        dt = max(accuracy, dt * factor)
    accounting.imex_steps += not fallback
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
    at t_end.  advance may lengthen a step past C/J, where its error
    estimate accepts it, up to sample_every and no further, so a
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
