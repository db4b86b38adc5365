"""Reaction constants, equilibria, and stabilization certificates.

The simulated system couples a predator density u and a prey density v:
predators diffuse with a prey-enhanced mobility and drift up prey
gradients (attractive taxis), prey diffuse plainly, and both react
logistically.  This module holds everything that can be decided from the
constants alone: the homogeneous equilibria, the sufficient smallness
condition on the taxis coefficient under which long-time stabilization
is guaranteed, and the explicit comparison bound for the prey sup-norm
used to certify when the dissipation inequality kicks in.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ModelParams",
    "Regime",
    "SteadyState",
    "StabilizationCertificate",
    "ConditionViolated",
    "Degenerate",
    "InvalidTarget",
    "steady_states",
    "check_stabilization_condition",
    "certify",
    "taxis_mobility",
    "logistic_comparison",
    "waiting_time",
]


class ConditionViolated(ValueError):
    """certify() was asked for a certificate but the smallness condition fails."""


class Degenerate(ArithmeticError):
    """The logistic comparison expression lost positivity for the given inputs."""


class InvalidTarget(ValueError):
    """waiting_time() target is not strictly above the prey carrying level."""


@dataclass(frozen=True)
class ModelParams:
    """Constants of the predator-prey system.

    d1, d2: base diffusivities of predator and prey.
    m1, m2: intrinsic growth rates (m2 may be negative or zero).
    chi:    taxis coefficient (strength of the drift up prey gradients).
    a, b:   interaction gains (predation benefit / prey loss).
    eps:    mobility saturation; 0 means the drift mobility is plain u,
            eps > 0 means u / (1 + eps*u).
    """

    d1: float
    d2: float
    m1: float
    m2: float
    chi: float
    a: float
    b: float
    eps: float = 0.0

    def __post_init__(self):
        for name in ("d1", "d2", "m1", "chi", "a", "b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0 (got {value})")
        if not math.isfinite(self.m2):
            raise ValueError(f"m2 must be finite (got {self.m2})")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and >= 0 (got {self.eps})")

    @property
    def m2_plus(self) -> float:
        """Nonnegative part of the prey growth rate (prey carrying level)."""
        return max(0.0, self.m2)


class Regime(Enum):
    COEXISTENCE = "coexistence"
    PREY_EXTINCTION = "prey_extinction"


@dataclass(frozen=True)
class SteadyState:
    u_star: float
    v_star: float
    regime: Regime


@dataclass(frozen=True)
class StabilizationCertificate:
    """Outcome of the taxis-smallness check, possibly with decay data.

    holds/chi_sq/threshold always filled; the remaining fields are only
    present when a full certificate was requested via certify():

    m2_relaxed: auxiliary prey bound strictly above max(0, m2) kept small
                enough that the smallness condition still holds with it.
    delta:      dissipation margin; the energy decays at least at rate
                delta times the dissipation functional once the prey
                sup-norm has fallen below (1 - delta) * m2_relaxed.
    t_settle:   time by which the comparison bound guarantees that fall
                (0 when the initial sup-norm is already below it).
    """

    holds: bool
    chi_sq: float
    threshold: float
    m2_relaxed: float | None = None
    delta: float | None = None
    t_settle: float | None = None


def steady_states(p: ModelParams) -> SteadyState:
    """Homogeneous equilibrium selected by the sign of m2 - b*m1.

    Both reaction terms vanish identically at the returned state; the
    boundary case m2 - b*m1 = 0 is folded into the coexistence branch
    (where it coincides with the extinction state).
    """
    surplus = p.m2 - p.b * p.m1
    if surplus >= 0:
        denom = p.a * p.b + 1.0
        return SteadyState(
            u_star=(p.m1 + p.a * p.m2) / denom,
            v_star=surplus / denom,
            regime=Regime.COEXISTENCE,
        )
    return SteadyState(u_star=p.m1, v_star=0.0, regime=Regime.PREY_EXTINCTION)


def check_stabilization_condition(p: ModelParams) -> StabilizationCertificate:
    """Decide whether chi^2 is below the explicit stabilization threshold.

    The threshold is +inf when max(0, m2) = 0: the prey sup-norm then
    decays to zero on its own and the condition is vacuous.  It is +inf
    too when max(0, m2) is so small that b max(0, m2) u* underflows, the
    limit of the formula as m2 -> 0+.
    """
    ss = steady_states(p)
    m2p = p.m2_plus
    denom = p.b * m2p * ss.u_star
    if denom == 0.0:  # m2p is 0, or so small that the product underflows: the limit is +inf
        threshold = math.inf
    else:  # single trailing division so round parameter sets give exact thresholds
        threshold = 4.0 * p.d1 * p.d2 * (p.a * ss.v_star / m2p + 4.0 / p.b) / denom
    chi_sq = p.chi * p.chi
    return StabilizationCertificate(holds=chi_sq < threshold, chi_sq=chi_sq, threshold=threshold)


def certify(p: ModelParams, v0_sup: float) -> StabilizationCertificate:
    """Produce a full decay certificate (m2_relaxed, delta, t_settle).

    Raises ConditionViolated when the smallness condition fails.  Both
    numbers are roots of quadratics, so they are computed in closed form.

    Relaxed prey bound.  A cap c > 0 is admissible (the smallness
    condition still holds with c in place of max(0, m2)) iff

        chi^2 u* c^2 - (16 d1 d2/b^2) c - 4 d1 d2 a v*/b < 0,

    so the admissible caps form the interval (max(0, m2), c+), with c+
    the positive root; m2_relaxed is its midpoint.

    Margin.  delta must satisfy delta <= a/b,
    (1 - delta) * m2_relaxed > max(0, m2), and

        (chi^2 u*/(4 s) - 4 d2/(b^2 m2r)) m2r^2 - d2 v* (a/b) < -delta,

    with s = d1 - delta/u* > 0 and m2r = m2_relaxed.  Multiplied by s/u*
    the last one reads s^2 + q s - chi^2 m2r^2/4 > 0, with
    q = (4 d2 m2r/b^2 + d2 v* a/b)/u* - d1, i.e. s > s+ (its positive
    root), i.e. delta < u*(d1 - s+).  delta is 0.99 times the smallest of
    the three bounds, so every inequality holds strictly.  u*(d1 - s+) > 0
    is exactly the admissibility of m2_relaxed; only rounding at the
    threshold edge can leave delta <= 0 or (1 - delta) * m2_relaxed at
    or below max(0, m2), and either raises ConditionViolated.

    t_settle is the waiting time for the prey comparison bound to fall
    below (1 - delta) * m2_relaxed starting from v0_sup.

    Small chi.  c+ grows as 1/chi^2, so for chi below about 1e-77 q^2 or
    (chi m2r)^2 overflows, and below about 1e-155 c+ itself does (at
    chi^2 u* = 0 there is no upper root at all).  There s+ is taken from
    the same root divided through by m2r, s+ = (chi^2 m2r/2)/(q/m2r +
    sqrt((q/m2r)^2 + chi^2)), with chi^2 m2r formed from 2 chi^2 u* c+,
    which stays finite; s+ tends to d1/2 as chi -> 0.  A midpoint past
    the largest float is reported as the largest float.
    """
    if not (math.isfinite(v0_sup) and v0_sup > 0):
        raise ValueError(f"v0_sup must be finite and > 0 (got {v0_sup})")
    base = check_stabilization_condition(p)
    if not base.holds:
        raise ConditionViolated(
            f"chi^2 = {base.chi_sq:.6g} is not below the threshold {base.threshold:.6g}"
        )
    ss = steady_states(p)
    m2p = p.m2_plus
    chi_sq = base.chi_sq

    # both quadratics have a positive leading and a nonpositive constant
    # coefficient; roots in the form that avoids cancellation
    quad = chi_sq * ss.u_star
    lin = 16.0 * p.d1 * p.d2 / (p.b * p.b)
    const = 4.0 * p.d1 * p.d2 * p.a * ss.v_star / p.b
    root = lin + math.sqrt(lin * lin + 4.0 * quad * const)  # 2 quad c+
    c_plus = root / (2.0 * quad) if quad > 0.0 else math.inf
    m2_relaxed = 0.5 * (m2p + c_plus)

    q = (4.0 * p.d2 * m2_relaxed / (p.b * p.b) + p.d2 * ss.v_star * p.a / p.b) / ss.u_star - p.d1
    disc = math.sqrt(q * q + chi_sq * m2_relaxed * m2_relaxed)
    if math.isfinite(disc):
        s_plus = 0.5 * chi_sq * m2_relaxed * m2_relaxed / (q + disc) if q > 0 else 0.5 * (disc - q)
    else:  # small chi (see above)
        scaled_q = (4.0 * p.d2 / (p.b * p.b) + p.d2 * ss.v_star * p.a / (p.b * m2_relaxed)) / ss.u_star \
            - p.d1 / m2_relaxed
        chi_sq_m2r = 0.5 * (chi_sq * m2p + root / (2.0 * ss.u_star))
        s_plus = 0.5 * chi_sq_m2r / (scaled_q + math.hypot(scaled_q, p.chi))
        m2_relaxed = min(m2_relaxed, sys.float_info.max)
    delta = 0.99 * min(p.a / p.b, 1.0 - m2p / m2_relaxed, ss.u_star * (p.d1 - s_plus))
    settle_cap = (1.0 - delta) * m2_relaxed
    if delta <= 0 or settle_cap <= m2p:  # only rounding at the threshold edge gets here
        raise ConditionViolated("no positive dissipation margin survives the constraints")

    t_settle = waiting_time(settle_cap, p, v0_sup)
    return StabilizationCertificate(
        holds=True,
        chi_sq=chi_sq,
        threshold=base.threshold,
        m2_relaxed=m2_relaxed,
        delta=delta,
        t_settle=t_settle,
    )


def taxis_mobility(u, eps: float = 0.0):
    """Drift mobility of the predator: u when eps=0, u/(1+eps*u) otherwise.

    Works elementwise on arrays.  Saturates monotonically: larger eps
    gives a smaller mobility for the same density.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0 (got {eps})")
    if eps == 0.0:
        return u
    return u / (1.0 + eps * u)


def logistic_comparison(v0_sup: float, m2: float, t):
    """Explicit upper solution for the prey sup-norm.

        y(t) = 1 / (1/m2 + (1/v0_sup - 1/m2) * exp(-m2 t))   for m2 != 0
        y(t) = 1 / (1/v0_sup + t)                             for m2 == 0

    Accepts scalar or array t >= 0.  Raises Degenerate if the expression
    in the denominator is not strictly positive (only possible for
    invalid sign combinations; a guard against returning garbage).
    """
    if not (math.isfinite(v0_sup) and v0_sup > 0):
        raise ValueError(f"v0_sup must be finite and > 0 (got {v0_sup})")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if m2 == 0.0:
        denom = 1.0 / v0_sup + t
    else:
        with np.errstate(over="ignore"):
            denom = 1.0 / m2 + (1.0 / v0_sup - 1.0 / m2) * np.exp(-m2 * t)
    if np.any(denom <= 0):
        raise Degenerate(f"comparison expression lost positivity (v0_sup={v0_sup}, m2={m2})")
    out = 1.0 / denom
    return float(out) if out.ndim == 0 else out


def waiting_time(m: float, p: ModelParams, v0_sup: float) -> float:
    """Smallest T >= 0 with logistic_comparison(v0_sup, m2, t) <= m for all t >= T.

    Solved by inverting the closed form.  The target must satisfy
    m > max(0, m2): at or below the carrying level the bound never
    commits, and InvalidTarget is raised.
    """
    if not (math.isfinite(v0_sup) and v0_sup > 0):
        raise ValueError(f"v0_sup must be finite and > 0 (got {v0_sup})")
    if m <= p.m2_plus:
        raise InvalidTarget(
            f"target {m} must exceed the prey carrying level {p.m2_plus}"
        )
    if v0_sup <= m:
        return 0.0  # the bound starts (and stays) at or below the target
    if p.m2 == 0.0:
        return 1.0 / m - 1.0 / v0_sup
    ratio = (1.0 / m - 1.0 / p.m2) / (1.0 / v0_sup - 1.0 / p.m2)
    return -math.log(ratio) / p.m2
