"""Stepper behavior: fluxes, limiter, positivity, sampling, crude bounds."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from preytaxis import (
    BlowUp,
    Grid,
    ModelParams,
    State,
    StepAccounting,
    StepPlan,
    TaxisScheme,
    build_config,
    execute,
    integrate_values,
    laplacian_values,
    logistic_comparison,
    reaction_rates,
    rhs,
    run_to_time,
    scenario_items,
    step,
    step_bounds,
    Stalled,
    steady_states,
)
import preytaxis
from preytaxis import dynamics
from preytaxis.dynamics import STAGES, STEP_ACCURACY, STEP_SAFETY, advance, imex_step
from preytaxis.oracle import homogeneous_ode, refinement_order
from padded import per_field_step, slicing_fluxes, slicing_rhs, to_face_array, unfused_rhs, written_step_bounds
from strategies import grids, positive_fields

WORKED = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0)


def make_arrays(u, v, length=1.0):
    """Float copies of (u, v) and a grid with the given side length for them."""
    u = np.array(u, dtype=float)
    g = Grid((u.shape[0],), (length,)) if u.ndim == 1 else Grid(u.shape, (length,) * 2)
    return u, np.array(v, dtype=float), g


def make_state(u, v, length=1.0, t=0.0):
    u, v, g = make_arrays(u, v, length)
    return State(g.field(u), g.field(v), t)


def test_reactions_vanish_at_coexistence():
    ss = steady_states(WORKED)
    ru, rv = reaction_rates(np.full(8, ss.u_star), np.full(8, ss.v_star), WORKED)
    assert np.all(ru == 0.0)
    assert np.all(rv == 0.0)


def test_step_fixes_equilibrium_bitwise():
    """The spatially constant equilibrium is a fixed point of the stepper."""
    ss = steady_states(WORKED)
    u, v, g = make_arrays(np.full((8, 8), ss.u_star), np.full((8, 8), ss.v_star))
    u1, v1 = step(np.stack((u, v)), 0.0, StepPlan(g, WORKED, TaxisScheme.UPWIND), 0.01)
    assert np.array_equal(u1, u)
    assert np.array_equal(v1, v)
    # the time is the caller's: run_to_time lands exactly on t_end, here
    # with IMEX steps, which are longer than the SSP-RK step
    s = make_state(u, v)
    acc = StepAccounting()
    nxt = run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=0.1, sample_every=0.1, accounting=acc)
    assert np.array_equal(nxt.u.values, u)
    assert np.array_equal(nxt.v.values, v)
    assert nxt.t == 0.1
    assert acc.imex_steps == acc.steps > 1


def fluxes_over_h(u, v, g, p, taxis):
    """The face arrays rhs leaves in its plan: both species' fluxes over h."""
    plan = StepPlan(g, p, taxis)
    rhs(np.stack((u, v)), plan)
    return plan.faces


def flux_of(u, v, g, p, taxis):
    """The predator flux per axis: row 0 of rhs's face arrays times h."""
    return tuple(faces[0] * h for faces, h in zip(fluxes_over_h(u, v, g, p, taxis), g.h))


def test_flux_is_plain_diffusion_when_v_constant():
    rng = np.random.default_rng(23)
    u = rng.uniform(0.5, 2.0, 8)
    _, v, g = make_arrays(u, np.full(8, 2.0))
    (fx,) = flux_of(u, v, g, WORKED, TaxisScheme.UPWIND)
    h = g.h[0]
    expected = (WORKED.d1 + WORKED.chi * 2.0) * np.diff(u) / h
    assert fx.shape == (9,)
    assert fx[0] == fx[-1] == 0.0  # the walls
    assert np.allclose(fx[1:-1], expected, rtol=1e-14, atol=0.0)


def test_upwind_flux_hand_case():
    # n=4, L=2 (h=0.5): du/dn = dv/dn = 2 on every interior face, drift > 0,
    # so the donor cell is the left one.
    u, v, g = make_arrays([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0], length=2.0)
    (fx,) = flux_of(u, v, g, WORKED, TaxisScheme.UPWIND)
    # (d1 + chi*v_face)*2 - u_left*2 = 2*v_face + 2 - 2*u_left = 1 on each face
    assert fx.shape == (5,)
    assert np.allclose(fx, [0.0, 1.0, 1.0, 1.0, 0.0], atol=1e-14)

    (fc,) = flux_of(u, v, g, WORKED, TaxisScheme.CENTRAL)
    # with the arithmetic face mean the two terms cancel exactly here
    assert fc.shape == (5,)
    assert np.allclose(fc, np.zeros(5), atol=1e-14)


def test_saturating_mobility_weakens_drift():
    u, v, g = make_arrays([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0], length=2.0)
    p_sat = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0, eps=0.5)
    (fx,) = flux_of(u, v, g, p_sat, TaxisScheme.UPWIND)
    # face between cells 0 and 1, slot 1 after the wall: 3 - 2*1/(1+0.5)
    assert fx[1] == pytest.approx(3.0 - 4.0 / 3.0, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0)),
)
def test_flux_from_cell_values_matches_padded_face_gradients_bitwise(data, g, taxis, eps):
    """Each axis's face array holds both species' fluxes over h on the
    interior faces, bitwise those of the per-axis slicing formula, with
    zeros on the walls and seams."""
    u = data.draw(positive_fields(g))
    v = data.draw(positive_fields(g))
    p = replace(WORKED, eps=eps)
    got = fluxes_over_h(u, v, g, p, taxis)
    want = slicing_fluxes(u, v, g, p, taxis)
    assert len(got) == g.dim
    for ax, faces in enumerate(got):
        for row, ref in zip(faces, want):
            assert row.tobytes() == to_face_array(g, ax, ref[ax]).tobytes()


def nonnegative_fields(g):
    """Cell values in [1e-3, 1e3], or +0.0 or -0.0."""
    return arrays(np.float64, g.n, elements=st.sampled_from((0.0, -0.0)) | st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0)),
)
def test_rhs_matches_slicing_rhs_bitwise_property(data, g, taxis, eps):
    """rhs on the flat face layout equals the per-axis slicing rhs byte for
    byte, signed zeros included: a face array slot left nonzero on a wall
    or seam moves the cells beside it."""
    u = data.draw(nonnegative_fields(g))
    v = data.draw(nonnegative_fields(g))
    p = replace(WORKED, eps=eps)
    got = rhs(np.stack((u, v)), StepPlan(g, p, taxis))
    want = slicing_rhs(u, v, g, p, taxis)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1)),
    count=st.integers(2, 4),
)
def test_rhs_on_a_reused_plan_matches_fresh_calls_property(data, g, taxis, eps, count):
    """One StepPlan reused over a sequence of states gives each rhs the
    bytes of a call on a fresh plan, and no later call changes an earlier
    result: nothing one call leaves in the plan reaches the next, and no
    result is a plan buffer."""
    p = replace(WORKED, eps=eps)
    plan = StepPlan(g, p, taxis)
    results = []
    for _ in range(count):
        y = np.stack((data.draw(nonnegative_fields(g)), data.draw(nonnegative_fields(g))))
        d = rhs(y, plan)
        assert d.tobytes() == rhs(y, StepPlan(g, p, taxis)).tobytes()
        results.append((d, d.tobytes()))
    for d, first in results:
        assert d.tobytes() == first


def _grid_and_fields(g):
    return st.tuples(st.just(g), positive_fields(g), positive_fields(g))


# Inputs on which the terms of a sum cancel, found by this property: the
# diffusion and taxis parts of the first face's flux (each -2.0e6, their
# difference 0.06), u^2 against m1 u + a u v, and v^2 + b u v against m2 v.
# rhs and the reference differ there by about an ulp of the terms (9e-10,
# 2e-16, 1e-19), far above 1e-13 of the cancelled sums.
@example(case=(Grid((6,), (1.0,)), np.array([465.0, 1, 1, 1, 1, 1]), np.array([480.47, 1, 1, 1, 1, 1])),
         taxis=TaxisScheme.CENTRAL, eps=0.0,
         coefficients=(0.1, 1.0, 3.0, 0.965721, 0.5, 1.0, 1.0)).via("predator flux")
@example(case=(Grid((4,), (1.0,)), np.full(4, 2.0), np.full(4, 0.001)),
         taxis=TaxisScheme.UPWIND, eps=0.0,
         coefficients=(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0)).via("predator reaction")
@example(case=(Grid((4,), (1.0,)), np.full(4, 1.0), np.full(4, 0.001)),
         taxis=TaxisScheme.UPWIND, eps=0.0,
         coefficients=(1.0,) * 7).via("prey reaction")
@settings(max_examples=200, deadline=None)
@given(
    case=grids().flatmap(_grid_and_fields),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0)),
    coefficients=st.tuples(*(st.floats(0.1, 3.0) for _ in range(6)), st.floats(-2.0, 3.0)),
)
def test_rhs_matches_the_unfused_formula_property(case, taxis, eps, coefficients):
    """rhs, with 1/h folded into the flux coefficients, the reactions
    formed on the stacked rows and the divergence accumulated onto them,
    is the right-hand side as first written to 1e-13 of the scale of the
    flux and reaction terms summed, on non-square cells.  The scale is
    taken on the terms before they are summed, since where they cancel
    (the examples) the rounding of the terms remains."""
    g, u, v = case
    d1, d2, chi, a, b, m1, m2 = coefficients
    p = ModelParams(d1=d1, d2=d2, m1=m1, m2=m2, chi=chi, a=a, b=b, eps=eps)
    got = rhs(np.stack((u, v)), StepPlan(g, p, taxis))
    want_u, want_v, scale_u, scale_v = unfused_rhs(u, v, g, p, taxis)
    assert np.abs(got[0] - want_u).max() <= 1e-13 * scale_u
    assert np.abs(got[1] - want_v).max() <= 1e-13 * scale_v


@pytest.mark.parametrize("taxis", TaxisScheme)
def test_rhs_on_a_2d_cosine_eigenmode(taxis):
    """w = cos(pi x/L0) cos(2 pi y/L1) on 16 x 24 cells over 1 x 1.5 is an
    eigenvector of the zero-flux Laplacian, lam its eigenvalue from
    laplacian_values.  With u = 0 the prey's rhs less its reaction is
    d2 lam v, and with v = c the predator's is (d1 + chi c) lam u, to
    1e-12 |lam|: both species' fluxes cross the seams between rows as
    zero."""
    g = Grid((16, 24), (1.0, 1.5))
    x, y = g.meshcenters()
    w = np.cos(np.pi * x / g.length[0]) * np.cos(2.0 * np.pi * y / g.length[1])
    lap = laplacian_values(g, w)
    lam = float((w * lap).sum() / (w * w).sum())
    tol = 1e-12 * abs(lam)
    assert np.abs(lap - lam * w).max() <= tol
    p = ModelParams(d1=0.7, d2=1.3, m1=1.0, m2=2.0, chi=0.9, a=1.1, b=0.8)

    d = rhs(np.stack((np.zeros(g.n), w)), StepPlan(g, p, taxis))
    assert np.all(d[0] == 0.0)
    assert np.abs(d[1] - w * (p.m2 - w) - p.d2 * lam * w).max() <= tol

    c = 0.6
    d = rhs(np.stack((w, np.full(g.n, c))), StepPlan(g, p, taxis))
    assert np.abs(d[0] - w * (p.m1 - w + p.a * c) - (p.d1 + p.chi * c) * lam * w).max() <= tol
    assert np.abs(d[1] - c * (p.m2 - p.b * w - c)).max() <= tol


def substep_of(u, v, g, p):
    """The length of one forward-Euler substep of the longest SSP-RK step
    the positivity bound allows."""
    return step_bounds(u, v, g, p)[0] / (STAGES - 1)


def test_stable_dt_reaction_limited():
    u, v, g = make_arrays(np.full(32, 1e6), np.zeros(32))
    dt = substep_of(u, v, g, WORKED)
    # predator loss rate: face diffusion 2 d1/h^2 = 2048 plus |m1 - u| = 1e6 - 1
    assert dt == pytest.approx(STEP_SAFETY / 1_002_047, rel=1e-12)


def test_stable_dt_diffusion_limited():
    u, v, g = make_arrays(np.full(32, 0.5), np.full(32, 1.0))
    h = 1.0 / 32
    dt = substep_of(u, v, g, WORKED)
    # face diffusion 2 (d1 + chi v)/h^2 plus |m1 - u + a v| = 1.5
    assert dt == pytest.approx(STEP_SAFETY / (4.0 / (h * h) + 1.5), rel=1e-12)
    # stronger taxis can only shrink the step
    hot = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=10.0, a=1.0, b=1.0)
    assert substep_of(u, v, g, hot) < dt


def assert_forward_euler_substep_safe(u, v, g, p, taxis):
    """At the substep of the positivity bound one forward-Euler substep
    keeps both fields nonnegative and the prey under its logistic
    comparison value V + dt V (m2 - V)."""
    dt = substep_of(u, v, g, p)
    du, dv = rhs(np.stack((u, v)), StepPlan(g, p, taxis))
    u1 = u + dt * du
    v1 = v + dt * dv
    big_v = float(v.max())
    assert u1.min() >= 0.0
    assert v1.min() >= 0.0
    assert v1.max() <= big_v + dt * big_v * (p.m2 - big_v) + 1e-12 * big_v


def ssp_step_length(u, v, g, p):
    """The SSP-RK step advance takes from (u, v), or falls back to, before
    it is clipped to t_end: the shorter of the positivity and accuracy
    bounds."""
    return min(step_bounds(u, v, g, p))


def assert_full_step_clean(u, v, g, p, taxis):
    """One SSP-RK step at the length advance takes is admissible, so step
    raises no BlowUp for a negative cell, and keeps the prey under
    max(max v, max(0, m2)): the maximum principle of the prey equation."""
    _, v1 = step(np.stack((u, v)), 0.0, StepPlan(g, p, taxis), ssp_step_length(u, v, g, p))
    assert float(v1.max()) <= max(float(v.max()), max(0.0, p.m2)) * (1.0 + 1e-12)


SLOW = ModelParams(d1=1e-2, d2=1e-2, m1=1e-2, m2=-3.0, chi=1e-2, a=1e-2, b=1e-2)
LOGISTIC = ModelParams(d1=1e-2, d2=1e-2, m1=1.0, m2=0.0, chi=1.0, a=1.0, b=0.03125)
INFLECTION = ModelParams(d1=1e-2, d2=1e-2, m1=6.6556, m2=3.7858, chi=1e-2, a=0.02006, b=1.1382)


@pytest.mark.parametrize(
    "u, v, length, p",
    [
        # a prey trough under a predator peak: the donor cell loses through
        # both faces, at more than twice its face-diffusion rate
        ([1e-3, 1e3, 1e-3, 1e-3], [1e3, 1e-3, 1e3, 1e3], 1.0, WORKED),
        # a lone prey peak with fast prey diffusion and slow everything else
        ([1e-3] * 4, [1e-3, 1e3, 1e-3, 1e-3], 1.0, replace(SLOW, d2=1e2)),
        # slow transport: the prey map must stay monotone below the peak, or
        # the half-height cells overtake it
        ([1e-3] * 4, [1e3, 556.0, 556.0, 556.0], 3.0, SLOW),
        # slow transport and fast growth: a step sized by decay alone lets
        # the first stage overshoot the carrying capacity, and the next
        # stage, starting there, drives the field negative
        ([1e-3] * 4, [1.0] * 4, 3.0, replace(SLOW, m2=5.0)),
        ([1.0] * 4, [1e-3] * 4, 3.0, replace(SLOW, m1=10.0, m2=2e-2)),
        # slow transport, fast predator growth and strong predation: over the
        # substeps of a full step the predators multiply and raise the prey's
        # loss rate b u, so a step sized by the start's loss rates alone lets
        # the prey go negative
        ([1.0] * 4, [1.0] * 4, 3.0, replace(SLOW, m1=10.0, b=10.0)),
        # predators at their logistic level u = m1 + a v: the per-capita rate
        # m1 - u + a v vanishes while the reaction's slope, about -u, does
        # not, so a step sized by the per-capita rate overshoots the level
        # and the next stage drives the field negative
        ([1.0] * 4, [0.03125] * 4, 3.0, LOGISTIC),
        # predators at their inflection point u = (m1 + a v)/2 with a, b
        # small: the Jacobian's row sums nearly vanish while the per-capita
        # rates do not, so a step sized by the row sums alone carries the
        # predators far enough to drive the prey negative
        ([3.3280] * 4, [0.014535] * 4, 3.0, INFLECTION),
    ],
    ids=["donor-drift", "prey-diffusion", "prey-monotone", "prey-growth", "predator-growth",
         "predation", "logistic-level", "inflection"],
)
def test_each_limiter_term_binds_somewhere(u, v, length, p):
    u, v, g = make_arrays(u, v, length)
    for taxis in TaxisScheme:
        assert_forward_euler_substep_safe(u, v, g, p, taxis)
        # raises BlowUp on a negative cell
        step(np.stack((u, v)), 0.0, StepPlan(g, p, taxis), substep_of(u, v, g, p))
        assert_full_step_clean(u, v, g, p, taxis)


def test_advance_clamps_nothing_at_the_predator_inflection_point():
    """Seeded sweep of constant states at the predators' inflection point
    u = (m1 + a v)/2 with the prey near their balance m2 = b u and slow
    transport: one step of advance raises nothing, so its result has no
    negative cell."""
    rng = np.random.default_rng(2718)
    g = Grid.uniform(1, 4, 3.0)
    for _ in range(3000):
        m1, a = rng.uniform(0.1, 10.0), rng.uniform(0.01, 1.0)
        v_level, b = 10.0 ** rng.uniform(-3.0, math.log10(0.3)), 10.0 ** rng.uniform(-2.0, 1.0)
        u_level = (m1 + a * v_level) / 2.0
        p = ModelParams(d1=1e-2, d2=1e-2, m1=m1, m2=b * u_level * rng.uniform(0.99, 1.01),
                        chi=1e-2, a=a, b=b)
        advance(np.stack((np.full(4, u_level), np.full(4, v_level))), 0.0, 1e3, StepPlan(g, p, TaxisScheme.UPWIND),
                StepAccounting())


def coefficients():
    return st.floats(1e-2, 1e2)


def log_coefficients():
    """The range of coefficients(), drawn uniformly in log: hypothesis's own
    float draws rarely give slow transport, where the reactions size the
    step."""
    return st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0, 10.0)),
    d1=coefficients(), d2=coefficients(), chi=coefficients(),
    m1=st.floats(1e-2, 10.0), a=st.floats(1e-2, 10.0), b=st.floats(1e-2, 10.0),
    m2=st.floats(-3.0, 5.0),
)
def test_forward_euler_substep_at_limiter_dt_is_positive_and_monotone(
        data, g, taxis, eps, d1, d2, chi, m1, a, b, m2):
    u = data.draw(positive_fields(g))
    v = data.draw(positive_fields(g))
    p = ModelParams(d1=d1, d2=d2, m1=m1, m2=m2, chi=chi, a=a, b=b, eps=eps)
    assert_forward_euler_substep_safe(u, v, g, p, taxis)


@settings(max_examples=500, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0, 10.0)),
    d1=log_coefficients(), d2=log_coefficients(), chi=log_coefficients(),
    m1=st.floats(1e-2, 10.0), a=st.floats(1e-2, 10.0), b=st.floats(1e-2, 10.0),
    m2=st.floats(-3.0, 5.0),
)
def test_full_step_clamps_nothing_for_random_coefficients(
        data, g, taxis, eps, d1, d2, chi, m1, a, b, m2):
    """The full SSP-RK step of advance is admissible, with no negative
    cell, over the coefficient ranges of the forward-Euler property.
    The search is steered toward predation that is fast against transport,
    where predators multiplying over the substeps raise the prey's loss
    rate b u and only the accuracy bound keeps the prey positive."""
    u = data.draw(positive_fields(g))
    v = data.draw(positive_fields(g))
    p = ModelParams(d1=d1, d2=d2, m1=m1, m2=m2, chi=chi, a=a, b=b, eps=eps)
    transport = sum(2.0 * (d1 + d2 + chi * float(v.max())) / (h * h) for h in g.h)
    target(math.log(b * float(u.max()) / transport), label="predation over transport")
    assert_full_step_clean(u, v, g, p, taxis)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0, 10.0)),
)
def test_full_step_clamps_nothing(data, g, taxis, eps):
    u = data.draw(positive_fields(g))
    v = data.draw(positive_fields(g))
    assert_full_step_clean(u, v, g, replace(WORKED, eps=eps), taxis)


@settings(max_examples=500, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    chi=log_coefficients(),
    m1=st.floats(1e-2, 10.0), a=st.floats(1e-2, 10.0), b=st.floats(1e-2, 1.0),
    m2=st.floats(-3.0, 5.0),
    v_level=st.floats(1e-3, 0.3),
)
def test_full_step_clamps_nothing_near_the_predator_logistic_level(
        data, g, taxis, chi, m1, a, b, m2, v_level):
    """Near-uniform fields with the predators within 5% of their logistic
    level m1 + a v and slow diffusion: the per-capita rate is near zero
    there, so only the accuracy bound keeps the step from overshooting."""
    wobble = arrays(np.float64, g.n, elements=st.floats(-0.05, 0.05))
    v = v_level * (1.0 + data.draw(wobble))
    u = (m1 + a * v) * (1.0 + data.draw(wobble))
    p = ModelParams(d1=1e-2, d2=1e-2, m1=m1, m2=m2, chi=chi, a=a, b=b)
    assert_full_step_clean(u, v, g, p, taxis)


def test_step_limit_is_the_shorter_of_positivity_and_accuracy():
    # transport-dominated: the full step is (STAGES - 1) substeps
    u, v, g = make_arrays(np.full(32, 0.5), np.full(32, 1.0))
    positivity, _ = step_bounds(u, v, g, WORKED)
    assert positivity == pytest.approx((STAGES - 1) * STEP_SAFETY / (4.0 * 32 * 32 + 1.5), rel=1e-12)
    assert ssp_step_length(u, v, g, WORKED) == positivity
    # at a constant equilibrium the reactions are 0 but their Jacobian is not
    ss = steady_states(WORKED)
    u, v, g = make_arrays(np.full(8, ss.u_star), np.full(8, ss.v_star))
    assert ssp_step_length(u, v, g, WORKED) == step_bounds(u, v, g, WORKED)[0]
    # predation case: the accuracy bound binds; the Jacobian's row sums are
    # |m1 - 2 + a| + a = 8.02 and b + |m2 - b - 2| = 25, over the
    # per-capita rates |m1 - u + a v| = 10 and |m2 - b u - v| = 14
    p = replace(SLOW, m1=10.0, b=10.0)
    u, v, g = make_arrays([1.0] * 4, [1.0] * 4, 3.0)
    positivity, accuracy = step_bounds(u, v, g, p)
    assert accuracy == pytest.approx(STEP_ACCURACY / 25.0, rel=1e-12)
    assert accuracy < positivity
    # at the inflection point the per-capita rate m1 - u + a v = 3.3279
    # binds; the row sums are 0.0669 and 0.0477
    u, v, g = make_arrays([3.3280] * 4, [0.014535] * 4, 3.0)
    accuracy = step_bounds(u, v, g, INFLECTION)[1]
    assert accuracy == pytest.approx(STEP_ACCURACY / 3.3278915721, rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    coefficients=st.tuples(*(st.floats(0.01, 10.0) for _ in range(6)), st.floats(-3.0, 5.0)),
)
def test_step_bounds_match_the_limiter_as_first_written_bitwise_property(data, g, coefficients):
    """step_bounds, whose accuracy part reuses a v and m2 - b u and works
    in place, gives the bits of one expression per term."""
    d1, d2, chi, a, b, m1, m2 = coefficients
    p = ModelParams(d1=d1, d2=d2, m1=m1, m2=m2, chi=chi, a=a, b=b)
    u = data.draw(nonnegative_fields(g))
    v = data.draw(nonnegative_fields(g))
    assert step_bounds(u, v, g, p) == written_step_bounds(u, v, g, p)


def test_step_bounds_at_an_equilibrium_takes_j_from_the_row_sums():
    # at criterion 4's equilibrium (1.5, 0.5) both per-capita rates are 0;
    # without the row sums |1 - 3 + 0.5| + 1.5 = 3 and 0.5 + 0.5 = 1, J
    # would be 0 and C/J would raise ZeroDivisionError
    u, v, g = make_arrays(np.full(8, 1.5), np.full(8, 0.5))
    assert step_bounds(u, v, g, WORKED)[1] == STEP_ACCURACY / 3.0


def test_run_to_time_takes_fast_reactions_with_ssp_rk_steps():
    p = replace(SLOW, m1=10.0, b=10.0)
    s = make_state([1.0] * 4, [1.0] * 4, length=3.0)
    acc = StepAccounting()
    run_to_time(s, p, TaxisScheme.UPWIND, t_end=0.5, sample_every=1e-4, accounting=acc)
    assert acc.steps > 0
    # fast reactions keep the accuracy bound under the positivity bound, and
    # a sample interval under C/J lets no step be longer: no IMEX step is tried
    assert acc.imex_steps == acc.imex_rejected == 0
    assert acc.rhs_evaluations == STAGES * acc.steps


def test_run_to_time_controls_fast_reaction_steps_after_the_first(monkeypatch):
    """With a sample interval over C/J the first step is SSP-RK at C/J,
    its error estimate proposes the next, and every later step is a
    controlled IMEX step; the accounting counts every right-hand side."""
    p = replace(SLOW, m1=10.0, b=10.0)
    s = make_state([1.0] * 4, [1.0] * 4, length=3.0)
    positivity, accuracy = step_bounds(s.u.values, s.v.values, s.grid, p)
    assert accuracy < positivity
    calls, steps = [], []

    def counted(y, plan):
        calls.append(1)
        return rhs(y, plan)

    def recorded(y, t, t_end, plan, accounting):
        before = accounting.imex_steps
        y_new, dt = advance(y, t, t_end, plan, accounting)
        steps.append((dt, accounting.imex_steps - before, plan.proposal))
        return y_new, dt

    monkeypatch.setattr(dynamics, "rhs", counted)
    monkeypatch.setattr(dynamics, "advance", recorded)
    acc = StepAccounting()
    run_to_time(s, p, TaxisScheme.UPWIND, t_end=0.5, sample_every=0.5, accounting=acc)
    assert steps[0][:2] == (accuracy, 0)
    assert all(imex == 1 for _, imex, _ in steps[1:])
    assert all(proposal > 0.0 for _, _, proposal in steps[:-1])
    assert (acc.steps, acc.imex_steps, acc.imex_rejected, acc.imex_error_rejected) == (123, 122, 0, 2)
    # L(Y0), the SSP-RK step's STAGES - 1 more and its estimate's; then two
    # per IMEX step, the last forming no estimate, and two per rejected trial
    assert acc.rhs_evaluations == len(calls) == 1 + STAGES + 2 * 122 - 1 + 2 * 2


def test_advance_proposes_a_step_after_an_ssp_rk_step_on_a_coarse_grid():
    """Where C/J is under the positivity bound, the first step is SSP-RK
    at C/J; with a longer sample interval it forms the error estimate,
    proposes a step and carries the right-hand side at the kept state."""
    g = Grid.uniform(1, 16, 8.0)
    x = np.cos(np.pi * g.centers(0) / 8.0)
    y = np.stack((1.0 + 0.5 * x, 1.0 - 0.5 * x))
    positivity, accuracy = step_bounds(y[0], y[1], g, WORKED)
    assert accuracy < positivity
    plan, acc = StepPlan(g, WORKED, TaxisScheme.UPWIND, longest=1.0), StepAccounting()
    y1, dt = advance(y, 0.0, 10.0, plan, acc)
    assert dt == accuracy
    assert (acc.imex_steps, acc.steps) == (0, 1)
    assert plan.proposal > 0.0
    assert plan.rates.tobytes() == rhs(y1, StepPlan(g, WORKED, TaxisScheme.UPWIND)).tobytes()


def test_every_grid_takes_two_right_hand_sides_per_step():
    """coexistence_64's shape to t = 2: on every grid a kept IMEX step
    costs two right-hand sides, L(Y2) and its estimate's L(Y1), which is
    the next step's L(Y0), and so does each trial the error estimate
    rejects, so the count does not grow with the grid.  The SSP-RK steps
    at C/J the coarse grids start with cost STAGES - 2 more each; the
    first L(Y0) makes up for the last step, which forms no estimate."""
    counts = []
    for n in (16, 32, 64):
        items = scenario_items("coexistence_64")
        items.update({"grid.n": f"{n}, {n}", "run.t_end": "2.0"})
        result = execute(build_config(items))
        assert result.ok
        acc = result.accounting
        assert acc.imex_rejected == 0
        ssp_steps = acc.steps - acc.imex_steps
        assert ssp_steps <= 2
        assert acc.rhs_evaluations == 2 * (acc.steps + acc.imex_error_rejected) + (STAGES - 2) * ssp_steps
        counts.append(acc.rhs_evaluations)
    assert max(counts) <= 1.1 * min(counts)


@pytest.mark.parametrize("length", [2, 5, 10, 20])
@pytest.mark.parametrize("m2", [2.0, 0.5], ids=["coexistence", "extinction"])
def test_rkl2_step_is_second_order_on_the_homogeneous_ode(length, m2):
    """Criterion 4's homogeneous case, run to t = 2 with fixed steps of the
    long stepper, imex_step (the test keeps the name it had when RKL2 took
    the long steps).  There the diffusion is 0, and the step is ARS(2,2,2)'s
    explicit two-stage method on the reactions; its DCT solve keeps the
    state homogeneous on every domain length, though the eigenvalues it
    divides by scale as 1/length^2."""
    p = replace(WORKED, m2=m2)
    g = Grid.uniform(1, 8, float(length))
    ref = homogeneous_ode(1.0, 1.0, p, 2.0, t_eval=[2.0])
    plan = StepPlan(g, p, TaxisScheme.UPWIND)
    pairs = []
    for dt in (0.1, 0.05, 0.025):
        u, v = np.ones(8), np.ones(8)
        for _ in range(round(2.0 / dt)):
            u, v = imex_step(np.stack((u, v)), plan, dt)
        assert np.ptp(u) <= 1e-13 and np.ptp(v) <= 1e-13
        pairs.append((dt, max(abs(u[0] - ref.u[-1]), abs(v[0] - ref.v[-1]))))
    assert refinement_order(pairs) >= 1.9


RUN_DIGEST = """
import hashlib
from preytaxis import build_config, execute, scenario_items
items = scenario_items("coexistence_64")
items.update({"grid.n": "64, 48", "run.t_end": "1.0"})
result = execute(build_config(items))
digest = hashlib.sha256(result.final_state.u.values.tobytes() + result.final_state.v.values.tobytes())
for row in result.records:
    digest.update(repr(row).encode())
print(result.accounting.imex_steps, digest.hexdigest())
"""


def test_a_run_is_byte_identical_on_one_and_two_blas_threads():
    """The transforms are BLAS matrix products, which OpenBLAS may split
    over threads; a run's records and final state are the same bytes
    with one thread and with two, each in a fresh interpreter."""
    src = str(Path(preytaxis.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", RUN_DIGEST], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert int(outputs[0][0]) > 0
    assert outputs[0] == outputs[1]


def dense_operator(f, shape):
    """The matrix of the linear map f on arrays of the given shape."""
    size = math.prod(shape)
    return np.stack([f(np.eye(size)[k].reshape(shape)).ravel() for k in range(size)], axis=1)


@settings(max_examples=100, deadline=None)
@given(n=st.lists(st.integers(4, 40), min_size=1, max_size=2), length=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=[12, 8], length=1.5, seed=0)
def test_plan_dct_diagonalises_the_zero_flux_laplacian_property(n, length, seed):
    """The plan's per-axis DCT-II matrices are orthonormal, and
    C^T diag(mu) C, applied along every axis, is laplacian_values to
    rounding, on 1-D and non-square 2-D grids.  Each stored transpose is
    C-contiguous and holds its matrix's transpose exactly."""
    g = Grid(tuple(n), (length,) * len(n))
    plan = StepPlan(g, WORKED, TaxisScheme.UPWIND)
    assert len(plan.dct) == len(plan.dct_t) == g.dim
    for c, c_t, cells in zip(plan.dct, plan.dct_t, g.n):
        assert c.shape == (cells, cells)
        assert c_t.flags.c_contiguous and np.array_equal(c_t, c.T)
        assert np.abs(c @ c.T - np.eye(cells)).max() <= 1e-13
    assert plan.eigenvalues.shape == g.n
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, *g.n))
    y = x
    for ax, c in enumerate(plan.dct):
        y = np.moveaxis(np.tensordot(c, y, axes=(1, ax + 1)), 0, ax + 1)
    y = y * plan.eigenvalues
    for ax, c in enumerate(plan.dct):
        y = np.moveaxis(np.tensordot(c.T, y, axes=(1, ax + 1)), 0, ax + 1)
    assert np.abs(y - laplacian_values(g, x)).max() <= 1e-14 * max(g.n) * np.abs(plan.eigenvalues).max()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    fraction=st.floats(0.1, 50.0),
    carried=st.booleans(),
)
def test_imex_step_is_the_ars222_step_with_a_dense_solve_property(data, g, taxis, fraction, carried):
    """The DCT step, with L(y) carried in or formed, is ARS(2,2,2) with
    A = diag(d1 + chi cap, d2) Delta_h solved densely, stage by stage, to
    rounding, at up to 50 times the positivity bound."""
    u = data.draw(positive_fields(g))
    v = data.draw(positive_fields(g))
    y = np.stack((u, v))
    plan = StepPlan(g, WORKED, taxis)
    dt = fraction * step_bounds(u, v, g, WORKED)[0]
    rates = rhs(y, plan) if carried else None
    got = imex_step(y, plan, dt, rates)

    lap = dense_operator(lambda x: laplacian_values(g, x), g.n)
    cap = max(float(v.max()), WORKED.m2_plus)
    gamma = 1.0 - 1.0 / math.sqrt(2.0)
    delta = 1.0 - 1.0 / (2.0 * gamma)
    rows = []
    for k, diffusivity in ((0, WORKED.d1 + WORKED.chi * cap), (1, WORKED.d2)):
        a = diffusivity * lap
        solve = np.eye(len(a)) - gamma * dt * a

        def explicit(z, k=k, a=a):
            return rhs(z, StepPlan(g, WORKED, taxis))[k].ravel() - a @ z[k].ravel()

        rows.append((a, solve, explicit))
    y2 = np.stack([np.linalg.solve(s, y[k].ravel() + gamma * dt * f(y)).reshape(g.n)
                   for k, (a, s, f) in enumerate(rows)])
    want = np.stack([np.linalg.solve(s, y[k].ravel() + dt * (delta * f(y) + (1.0 - delta) * f(y2))
                                     + (1.0 - gamma) * dt * (a @ y2[k].ravel())).reshape(g.n)
                     for k, (a, s, f) in enumerate(rows)])
    assert np.abs(got - want).max() <= 1e-9 * (1.0 + np.abs(want).max())


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0)),
    fraction=st.floats(0.01, 1.0),
    carried=st.booleans(),
)
def test_step_matches_the_per_field_loop_bitwise_property(data, g, taxis, eps, fraction, carried):
    """The stacked SSP-RK step, with rhs(y) carried in or formed, equals
    each field's own substep loop on the slicing rhs byte for byte."""
    u = data.draw(positive_fields(g))
    v = data.draw(positive_fields(g))
    p = replace(WORKED, eps=eps)
    y = np.stack((u, v))
    dt = fraction * ssp_step_length(u, v, g, p)
    plan = StepPlan(g, p, taxis)
    rates = rhs(y, plan) if carried else None
    got = step(y, 0.0, plan, dt, rates)
    want = per_field_step(u, v, g, p, taxis, dt)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


ROUGH = Grid.uniform(1, 16, 1.0)


def assert_advance_safe(u, v, taxis):
    """One step of run_to_time from a rough state is finite, nonnegative and
    under the prey bound; unless it is an IMEX step, it is the SSP-RK step
    of ssp_step_length bitwise."""
    acc = StepAccounting()
    (u1, v1), dt = advance(np.stack((u, v)), 0.0, 1.0, StepPlan(ROUGH, WORKED, taxis), acc)
    assert np.isfinite(u1).all() and np.isfinite(v1).all()
    assert u1.min() >= 0.0 and v1.min() >= 0.0
    assert v1.max() <= max(float(v.max()), WORKED.m2) * (1.0 + 1e-12)
    assert acc.steps == 1
    if acc.imex_steps == 0:
        safe = ssp_step_length(u, v, ROUGH, WORKED)
        u_ssp, v_ssp = step(np.stack((u, v)), 0.0, StepPlan(ROUGH, WORKED, taxis), safe)
        assert dt == safe
        assert u1.tobytes() == u_ssp.tobytes()
        assert v1.tobytes() == v_ssp.tobytes()
    return acc


@settings(max_examples=300, deadline=None)
@given(
    u=arrays(np.float64, 16, elements=st.floats(0.0, 3.0)),
    v=arrays(np.float64, 16, elements=st.floats(0.0, 3.0)),
    taxis=st.sampled_from(TaxisScheme),
)
def test_advance_is_safe_on_rough_states(u, v, taxis):
    assert_advance_safe(u, v, taxis)


def test_advance_falls_back_to_the_ssp_step_when_rkl2_goes_negative():
    """The long step, once RKL2's and now the IMEX step's, is discarded
    when it goes negative: from this draw the IMEX step takes a predator
    cell to -0.42."""
    rng = np.random.default_rng(92)
    u, v = rng.uniform(0.0, 3.0, 16), rng.uniform(0.0, 3.0, 16)
    acc = assert_advance_safe(u, v, TaxisScheme.UPWIND)
    assert acc.imex_rejected == 1
    assert acc.imex_steps == 0
    # the SSP-RK step's first substep reuses the IMEX step's L(Y0)
    assert acc.rhs_evaluations == 2 + STAGES - 1


@pytest.mark.parametrize(
    "field, value",
    [("u", math.nan), ("v", math.nan), ("u", math.inf), ("v", -1e-300), ("v", 2.5)],
    ids=["nan-u", "nan-v", "inf", "negative", "above-prey-cap"],
)
def test_advance_discards_an_inadmissible_rkl2_step(monkeypatch, field, value):
    """A long-step result, the IMEX step's since it replaced RKL2, that
    fails the admissibility test in any one way is discarded for the
    SSP-RK step at the positivity bound.  From this state advance keeps
    the unpatched IMEX step, and the prey cap is max(max v, m2) = 2."""
    def corrupted(*args):
        y1 = imex_step(*args)
        y1[0 if field == "u" else 1][5] = value
        return y1

    u, v = np.full(16, 0.5), np.full(16, 1.0)
    monkeypatch.setattr(dynamics, "imex_step", corrupted)
    acc = StepAccounting()
    (u1, v1), dt = advance(np.stack((u, v)), 0.0, 1.0, StepPlan(ROUGH, WORKED, TaxisScheme.UPWIND), acc)
    assert (acc.imex_steps, acc.imex_rejected, acc.steps) == (0, 1, 1)
    assert dt == step_bounds(u, v, ROUGH, WORKED)[0]
    u_ssp, v_ssp = step(np.stack((u, v)), 0.0, StepPlan(ROUGH, WORKED, TaxisScheme.UPWIND), dt)
    assert u1.tobytes() == u_ssp.tobytes() and v1.tobytes() == v_ssp.tobytes()


def recording_bounds(mp, formed):
    """Patch advance's two bound functions to append (name, value) to
    formed for every bound they return."""
    for name, value in (("_accuracy_bound", lambda r: r[0]), ("_positivity_bound", lambda r: r)):
        def recorded(*args, bound=getattr(dynamics, name), name=name, value=value):
            result = bound(*args)
            formed.append((name, value(result)))
            return result
        mp.setattr(dynamics, name, recorded)


def test_advance_runs_each_limiter_pass_once(monkeypatch):
    """accuracy is formed once per step, and positivity at most once: not
    for the kept IMEX step, whose C/J is above the positivity ceiling,
    and once for the SSP-RK step and for the fallback after a discarded
    IMEX step."""
    rough = np.random.default_rng(92)
    cases = [
        # an IMEX step kept, an SSP-RK step, and an IMEX step discarded for one
        (np.full(16, 0.5), np.full(16, 1.0), WORKED),
        (np.ones(16), np.ones(16), replace(SLOW, m1=10.0, b=10.0)),
        (rough.uniform(0.0, 3.0, 16), rough.uniform(0.0, 3.0, 16), WORKED),
    ]
    formed = []
    recording_bounds(monkeypatch, formed)
    kinds = []
    for u, v, p in cases:
        formed.clear()
        acc = StepAccounting()
        advance(np.stack((u, v)), 0.0, 1.0, StepPlan(ROUGH, p, TaxisScheme.UPWIND), acc)
        kinds.append((acc.imex_steps, acc.imex_rejected, [name for name, _ in formed]))
    assert kinds == [
        (1, 0, ["_accuracy_bound"]),
        (0, 0, ["_accuracy_bound", "_positivity_bound"]),
        (0, 1, ["_accuracy_bound", "_positivity_bound"]),
    ]


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    m2=st.sampled_from((2.0, 0.5)),
    proposal=st.floats(0.0, 4.0),
    longest=st.sampled_from((0.0, 1.0)),
)
def test_advance_forms_the_bounds_of_step_bounds_bitwise_property(data, g, taxis, m2, proposal, longest):
    """The accuracy bound advance forms, and the positivity bound wherever
    it forms one, are step_bounds' bit for bit, under coexistence (m2 = 2)
    and extinction (m2 = 1/2) parameters, from proposals below and above
    C/J."""
    u = data.draw(positive_fields(g, high=3.0))
    v = data.draw(positive_fields(g, high=3.0))
    p = replace(WORKED, m2=m2)
    positivity, accuracy = step_bounds(u, v, g, p)
    plan = StepPlan(g, p, taxis, longest=longest)
    plan.proposal = proposal * accuracy
    formed = []
    with pytest.MonkeyPatch.context() as mp:
        recording_bounds(mp, formed)
        advance(np.stack((u, v)), 0.0, 10.0, plan, StepAccounting())
    assert formed[0] == ("_accuracy_bound", accuracy)
    assert formed[1:] in ([], [("_positivity_bound", positivity)])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=grids(), m2=st.sampled_from((2.0, 0.5)), chi=st.sampled_from((1.0, 1e-3)))
def test_the_positivity_ceiling_is_the_bound_without_its_jumps_property(data, g, m2, chi):
    """The ceiling advance forms from v_max and the per-capita reaction
    rates is >= step_bounds' positivity bound bit for bit, and it is the
    written bound with every donor-drift jump 0, under coexistence
    (m2 = 2) and extinction (m2 = 1/2) parameters.  At chi = 1e-3 the
    prey's rate sum, with its 2 v_max - m2 slope, can be the larger."""
    u = data.draw(positive_fields(g, high=3.0))
    v = data.draw(positive_fields(g, high=3.0))
    p = replace(WORKED, m2=m2, chi=chi)
    _, react_u, react_v = dynamics._accuracy_bound(u, v, p)
    ceiling = dynamics._positivity_ceiling(float(v.max()), react_u, react_v, g, p)
    assert ceiling >= step_bounds(u, v, g, p)[0]
    assert ceiling == written_step_bounds(u, v, g, p, jumps=False)[0]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), g=grids(), taxis=st.sampled_from(TaxisScheme), m2=st.sampled_from((2.0, 0.5)))
def test_a_run_gated_by_the_positivity_ceiling_is_the_run_that_always_forms_the_bound_property(data, g, taxis, m2):
    """A run whose advance forms the positivity bound only at or under its
    ceiling has the bits of one that forms it wherever dt is at most C/J
    (the ceiling patched to inf): every sample, step length and counter."""
    u = data.draw(positive_fields(g, high=3.0))
    v = data.draw(positive_fields(g, high=3.0))
    p = replace(WORKED, m2=m2)
    s0 = State(g.field(u), g.field(v), 0.0)
    stepper = dynamics.advance
    runs = []
    for ceiling in (dynamics._positivity_ceiling, lambda *args: math.inf):
        samples, steps, acc = [], [], StepAccounting()

        def recorded(y, t, t_end, plan, accounting):
            y_new, dt = stepper(y, t, t_end, plan, accounting)
            steps.append(dt)
            return y_new, dt

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_positivity_ceiling", ceiling)
            mp.setattr(dynamics, "advance", recorded)
            final = run_to_time(s0, p, taxis, 0.5, 0.1, accounting=acc,
                                sink=lambda t, y, count: samples.append((t, y.tobytes(), count)))
        runs.append((samples, steps, acc, final.u.values.tobytes(), final.v.values.tobytes()))
    assert runs[0] == runs[1]
    assert runs[0][2].steps > 0


def test_a_run_of_steps_past_c_over_j_forms_the_positivity_bound_on_no_step(monkeypatch):
    """From near the coexistence state the first step is C/J long, above
    the positivity ceiling, so the ceiling decides it is IMEX; the error
    estimate accepts every later one past C/J, where no bound but
    accuracy can decide the method: positivity is never formed."""
    g = Grid((16, 16), (1.0, 1.0))
    w = np.cos(np.pi * g.meshcenters()[0])
    s0 = State(g.field(1.5 + 0.01 * w), g.field(0.5 - 0.01 * w), 0.0)
    formed, steps = [], []
    recording_bounds(monkeypatch, formed)
    ceiling = dynamics._positivity_ceiling

    def recorded_ceiling(*args):
        formed.append(("_positivity_ceiling", ceiling(*args)))
        return formed[-1][1]

    monkeypatch.setattr(dynamics, "_positivity_ceiling", recorded_ceiling)
    stepper = dynamics.advance

    def recorded(y, t, t_end, plan, accounting):
        first = len(formed)
        y_new, dt = stepper(y, t, t_end, plan, accounting)
        steps.append((dt, formed[first:]))
        return y_new, dt

    monkeypatch.setattr(dynamics, "advance", recorded)
    acc = StepAccounting()
    run_to_time(s0, WORKED, TaxisScheme.UPWIND, 2.0, 0.5, accounting=acc)
    assert acc.steps == len(steps) > 10
    (dt, first), *later = steps
    assert [name for name, _ in first] == ["_accuracy_bound", "_positivity_ceiling"]
    assert dt == first[0][1] > first[1][1]
    for dt, bounds in later:
        assert [name for name, _ in bounds] == ["_accuracy_bound"]
        assert dt > bounds[0][1]


def cosine_pair():
    x = np.cos(np.pi * ROUGH.centers(0))
    return 1.0 + 0.5 * x, 1.0 - 0.5 * x


def test_advance_retries_a_step_the_error_estimate_rejects():
    """A proposed step of one whole time unit from a cosine profile fails
    the error estimate; advance retries it shorter down to the C/J floor,
    keeps it there as IMEX, proposes a shorter step next and carries the
    right-hand side at the kept state."""
    u, v = cosine_pair()
    positivity, accuracy = step_bounds(u, v, ROUGH, WORKED)
    plan, acc = StepPlan(ROUGH, WORKED, TaxisScheme.UPWIND, longest=1.0), StepAccounting()
    plan.proposal = 1.0
    (u1, v1), dt = advance(np.stack((u, v)), 0.0, 10.0, plan, acc)
    assert dt == accuracy > positivity
    assert acc.imex_error_rejected >= 1
    assert (acc.imex_steps, acc.imex_rejected, acc.steps) == (1, 0, 1)
    assert plan.proposal < accuracy
    for carried, fresh in zip(plan.rates, rhs(np.stack((u1, v1)), StepPlan(ROUGH, WORKED, TaxisScheme.UPWIND))):
        assert carried.tobytes() == fresh.tobytes()


def test_advance_forms_no_estimate_when_no_step_can_be_longer():
    """With a sample interval under C/J, or a step that lands on t_end,
    advance takes the C/J step it takes on a plan whose longest is 0 and
    forms no L(Y1): the step's right-hand sides are L(Y0) and L(Y2)."""
    u, v = cosine_pair()
    accuracy = step_bounds(u, v, ROUGH, WORKED)[1]
    plain = StepPlan(ROUGH, WORKED, TaxisScheme.UPWIND)
    (plain_u, plain_v), plain_dt = advance(np.stack((u, v)), 0.0, 10.0, plain, StepAccounting())
    for longest, t_end in ((0.5 * accuracy, 10.0), (1.0, accuracy)):
        plan, acc = StepPlan(ROUGH, WORKED, TaxisScheme.UPWIND, longest=longest), StepAccounting()
        (u1, v1), dt = advance(np.stack((u, v)), 0.0, t_end, plan, acc)
        assert dt == plain_dt == accuracy
        assert u1.tobytes() == plain_u.tobytes() and v1.tobytes() == plain_v.tobytes()
        assert acc.rhs_evaluations == 2
        assert plan.rates is None and plan.proposal == 0.0


def run_bytes(s0, p, taxis, t_end, sample_every):
    """The sink's states with their counts, the accounting and the final
    state of a run_to_time call, each as bytes taken after the run ends."""
    seen, acc = [], StepAccounting()
    final = run_to_time(s0, p, taxis, t_end, sample_every, sink=lambda t, y, count: seen.append((t, y, count)),
                        accounting=acc)
    records = [(t, count, y[0].tobytes(), y[1].tobytes()) for t, y, count in seen]
    return records, acc, final.u.values.tobytes() + final.v.values.tobytes()


@pytest.mark.parametrize(
    "n, length, taxis, eps, sample_every",
    [((12, 16), (1.0, 1.5), TaxisScheme.UPWIND, 0.0, 0.25), ((32,), (2.0,), TaxisScheme.CENTRAL, 0.1, 0.05)],
    ids=["2d", "1d"],
)
def test_run_to_time_with_its_plan_dropped_before_every_step_gives_the_same_bytes(
        monkeypatch, n, length, taxis, eps, sample_every):
    """A run that keeps its plan gives the records, accounting and final
    state, byte for byte, of the same run with each step taken on a fresh
    plan that carries over only longest, proposal and rates: no buffer
    carries anything from one step into the next, and neither the
    carried L(Y1) nor a state handed to the sink is a plan buffer.  Both
    runs' sample_every is over C/J, so the error estimate runs and L(Y1)
    is carried."""
    g = Grid(n, length)
    x = g.meshcenters()
    w = np.cos(np.pi * x[0] / length[0]) * (np.cos(2.0 * np.pi * x[1] / length[1]) if len(n) == 2 else 1.0)
    s0 = State(g.field(1.5 + 0.5 * w), g.field(0.5 - 0.25 * w), 0.0)
    p = replace(WORKED, eps=eps)
    kept = run_bytes(s0, p, taxis, 0.5, sample_every)
    carried = []

    def dropping(y, t, t_end, plan, accounting):
        carried.append(plan.rates is not None)
        fresh = StepPlan(plan.grid, plan.p, plan.taxis, longest=plan.longest)
        fresh.proposal, fresh.rates = plan.proposal, plan.rates
        stepped = advance(y, t, t_end, fresh, accounting)
        plan.proposal, plan.rates = fresh.proposal, fresh.rates
        return stepped

    monkeypatch.setattr(dynamics, "advance", dropping)
    assert run_bytes(s0, p, taxis, 0.5, sample_every) == kept
    assert kept[1].imex_steps > 0
    assert any(carried)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    taxis=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0, 10.0)),
)
def test_step_at_limiter_dt_clamps_nothing(data, g, taxis, eps):
    """A step one substep of the positivity bound long is admissible: step
    raises no BlowUp for a negative cell."""
    u = data.draw(positive_fields(g))
    v = data.draw(positive_fields(g))
    p = replace(WORKED, eps=eps)
    step(np.stack((u, v)), 0.0, StepPlan(g, p, taxis), substep_of(u, v, g, p))


def test_state_validation():
    g = Grid.uniform(1, 8, 1.0)
    with pytest.raises(ValueError):
        State(g.field(-1.0), g.field(1.0), 0.0)
    with pytest.raises(ValueError):
        State(g.field(1.0), g.field(1.0), -0.5)
    with pytest.raises(ValueError):
        State(g.field(1.0), Grid.uniform(1, 16, 1.0).field(1.0), 0.0)


@pytest.mark.parametrize("shape", [(2, 16), (8,)], ids=["other-grid", "one-field"])
def test_rhs_rejects_a_state_that_does_not_fit_its_plan(shape):
    plan = StepPlan(Grid.uniform(1, 8, 1.0), WORKED, TaxisScheme.UPWIND)
    with pytest.raises(ValueError, match=re.escape(f"state shape {shape} does not match the plan's (2, 8)")):
        rhs(np.ones(shape), plan)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("stepper", ["ssp", "imex"])
def test_step_rejects_bad_dt(stepper, dt):
    """Both steppers reject a dt that is not 0 < dt < inf before stepping."""
    u, v, g = make_arrays(np.ones(8), np.ones(8))
    plan = StepPlan(g, WORKED, TaxisScheme.UPWIND)
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        if stepper == "ssp":
            step(np.stack((u, v)), 0.0, plan, dt)
        else:
            imex_step(np.stack((u, v)), plan, dt)


def test_blowup_detection():
    u, v, g = make_arrays(np.full(8, 1e13), np.zeros(8))
    with pytest.raises(BlowUp):
        # dt so small the huge density survives the step above the ceiling
        step(np.stack((u, v)), 0.0, StepPlan(g, WORKED, TaxisScheme.UPWIND), 1e-16)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_step_raises_blowup_on_a_non_finite_cell(value):
    u, v, g = make_arrays(np.ones(8), np.ones(8))
    u[3] = value
    with pytest.raises(BlowUp, match="not finite or above"), np.errstate(invalid="ignore"):
        step(np.stack((u, v)), 0.0, StepPlan(g, WORKED, TaxisScheme.UPWIND), 1e-16)


def test_step_raises_blowup_on_a_negative_cell():
    # a huge forced step drives the logistic decay negative; step repairs nothing
    u, v, g = make_arrays([10.0, 0.0, 0.0, 10.0], np.zeros(4))
    with pytest.raises(BlowUp, match="negative"):
        step(np.stack((u, v)), 0.0, StepPlan(g, WORKED, TaxisScheme.UPWIND), 0.2)


def test_mass_rate_equals_reaction_integral():
    """The flux divergence telescopes, so d/dt of predator mass is the reaction
    integral to rounding -- for both schemes and both dimensions."""
    rng = np.random.default_rng(41)
    for dim in (1, 2):
        for scheme in TaxisScheme:
            g = Grid.uniform(dim, 16, 2.0)
            u = rng.uniform(0.1, 2.0, g.n)
            v = rng.uniform(0.1, 2.0, g.n)
            du, _ = rhs(np.stack((u, v)), StepPlan(g, WORKED, scheme))
            ru, _ = reaction_rates(u, v, WORKED)
            assert abs(integrate_values(g, du) - integrate_values(g, ru)) < 1e-11


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    g=grids(),
    scheme=st.sampled_from(TaxisScheme),
    eps=st.sampled_from((0.0, 0.1, 1.0)),
)
def test_mass_rate_equals_reaction_integral_property(data, g, scheme, eps):
    """On generated grids and fields, d/dt of predator mass is the reaction
    integral up to rounding in the face fluxes the divergence sums."""
    u = data.draw(positive_fields(g, high=10.0))
    v = data.draw(positive_fields(g, high=10.0))
    p = replace(WORKED, eps=eps)
    du, _ = rhs(np.stack((u, v)), StepPlan(g, p, scheme))
    ru, _ = reaction_rates(u, v, p)
    fluxes = flux_of(u, v, g, p, scheme)
    scale = sum(2.0 * g.cell_volume / g.h[ax] * float(np.abs(f).sum()) for ax, f in enumerate(fluxes))
    scale += integrate_values(g, np.abs(ru))
    assert abs(integrate_values(g, du) - integrate_values(g, ru)) <= 1e-13 * scale


def test_run_to_time_sampling_layout():
    s = make_state(np.ones(16), np.ones(16))
    seen = []
    final = run_to_time(
        s, WORKED, TaxisScheme.UPWIND, t_end=1.0, sample_every=0.3,
        sink=lambda t, y, count: seen.append((t, count)),
    )
    assert seen[0] == (0.0, 1)
    assert all(count >= 1 for _, count in seen)
    samples = [t for t, count in seen for _ in range(count)]
    assert len(samples) == 4  # t=0 plus multiples 0.3, 0.6, 0.9
    assert final.t == 1.0
    for k, t in enumerate(samples[1:], start=1):
        assert t >= 0.3 * k - 1e-12


def test_run_to_time_identity_when_already_there():
    s = make_state(np.ones(8), np.ones(8), t=2.0)
    seen = []
    out = run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=2.0, sample_every=0.5,
                      sink=lambda t, y, count: seen.append((t, y.tobytes(), count)))
    assert out is s
    assert seen == [(s.t, np.stack((s.u.values, s.v.values)).tobytes(), 1)]


def test_run_to_time_validation():
    s = make_state(np.ones(8), np.ones(8), t=1.0)
    with pytest.raises(ValueError):
        run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=0.5, sample_every=0.1)
    with pytest.raises(ValueError):
        run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=2.0, sample_every=0.0)


def test_run_to_time_rejects_more_samples_than_the_budget():
    # 1e12 sample intervals: without the check the sink would be called
    # about 1e12 times; it must not be called even once
    class SinkCalled(Exception):
        pass

    calls = []

    def sink(t, y, count):
        calls.append(t)
        if len(calls) > 1:
            raise SinkCalled

    s = make_state(np.ones(8), np.ones(8))
    with pytest.raises(ValueError, match="SAMPLE_BUDGET"):
        run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=1.0, sample_every=1e-12, sink=sink)
    assert calls == []


@pytest.mark.parametrize("arg", ["t_end", "sample_every"])
def test_run_to_time_rejects_nan_before_the_first_sample(arg):
    calls = []
    times = {"t_end": 1.0, "sample_every": 0.25, arg: math.nan}
    s = make_state(np.ones(8), np.ones(8))
    with pytest.raises(ValueError, match=arg):
        run_to_time(s, WORKED, TaxisScheme.UPWIND, sink=lambda *a: calls.append(a), **times)
    assert calls == []


def test_run_to_time_last_step_fills_every_sample_time_left():
    # 951,157 intervals, and t_end falls short of the last sample time by
    # more than the membership test's 1e-9 * sample_every slack, so only
    # the step that lands on t_end can fill it
    t0, sample_every, t_end = 43.43776922558479, 3.409968503057632e-06, 46.68118463704757
    n = math.floor((t_end - t0) / sample_every + 1e-9)
    assert n == 951_157
    assert t_end < t0 + n * sample_every - 1e-9 * sample_every
    ss = steady_states(WORKED)
    s = make_state(np.full(4, ss.u_star), np.full(4, ss.v_star), t=t0)
    seen = []
    final = run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=t_end, sample_every=sample_every,
                        sink=lambda t, y, count: seen.append((t, count)))
    assert sum(count for _, count in seen) == n + 1
    assert seen[-1][0] == t_end == final.t


def test_run_to_time_steps_to_an_end_time_within_rounding_of_the_start():
    # t_end - t0 is below the 1e-12 snapping tolerance; the sample at
    # t_end is still a state a step reached, not s0 relabelled
    s = make_state(np.ones(8), np.ones(8))
    seen = []
    acc = StepAccounting()
    final = run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=1e-13, sample_every=1e-13,
                        sink=lambda t, y, count: seen.append((t, count)), accounting=acc)
    assert seen == [(0.0, 1), (1e-13, 1)]
    assert acc.steps == 1 and final.t == 1e-13


def test_run_to_time_raises_stalled_when_t_cannot_move():
    # at t = 1e15 the spacing of doubles is 0.125, while the reactions at
    # u = v = 1 bound the accuracy step to C/J = 0.05/2 = 0.025, under half
    # that spacing, so t + dt == t; the run must stop, not spin
    g = Grid.uniform(1, 8, 1.0)
    s = State(g.field(1.0), g.field(1.0), 1e15)
    acc = StepAccounting()
    with pytest.raises(Stalled, match="does not advance"):
        run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=1e15 + 1.0, sample_every=0.5, accounting=acc)
    assert acc.steps == 0
    assert issubclass(Stalled, BlowUp)  # a caller that stops on BlowUp stops on a stall too


def test_a_fine_grid_whose_positivity_bound_is_tiny_completes():
    # 512 cells of h = 2.4e-4: the SSP-RK positivity bound is ~3.2e-8,
    # 1.6e8 steps to t_end, but IMEX steps are not bounded by it
    result = execute(build_config({
        "grid.n": "512", "grid.length": "0.125", "initial.kind": "cosine", "initial.u_amp": "0.5",
        "initial.v_amp": "0.5", "run.t_end": "5", "run.sample_every": "0.5"}))
    assert result.status == "completed"
    assert result.accounting.steps == result.accounting.imex_steps > 0


def test_an_ssp_rk_fallback_under_a_tiny_positivity_bound_stalls(monkeypatch):
    """Only the SSP-RK step forced after an inadmissible IMEX step is
    bounded by positivity, so that is where advance checks it."""
    s, acc = make_state(np.ones(8), np.ones(8)), StepAccounting()
    accuracy = step_bounds(s.u.values, s.v.values, s.grid, WORKED)[1]  # the first step's, where the run stalls
    monkeypatch.setattr(dynamics, "_positivity_bound", lambda *args: 1e-12 * accuracy)
    monkeypatch.setattr(dynamics, "imex_step", lambda y, plan, dt, rates=None, cap=None: -y)
    with pytest.raises(Stalled, match="steps to t_end"):
        run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=1.0, sample_every=0.5, accounting=acc)
    assert (acc.steps, acc.imex_rejected) == (0, 1)


def test_peak_v_includes_initial_state():
    # v starts above carrying capacity and only decays, so the running peak
    # must come from the initial field
    p = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=0.5, chi=1.0, a=1.0, b=1.0)
    s = make_state(np.ones(16), np.full(16, 3.0))
    acc = StepAccounting()
    run_to_time(s, p, TaxisScheme.UPWIND, t_end=0.5, sample_every=0.5, accounting=acc)
    assert acc.peak_v == 3.0


@pytest.mark.parametrize("u0", [0.5, 3.0], ids=["prey-rising", "predator-above"])
def test_peak_v_is_the_largest_prey_value_of_any_step_end(monkeypatch, u0):
    """peak_v is the running maximum of v over the initial state and every
    step end, not of u: with u0 = 0.5 the prey grows past its start, and
    with u0 = 3 it decays while u stays above it."""
    seen, stepper = [], dynamics.advance

    def recorded(y, t, t_end, plan, accounting):
        y_new, dt = stepper(y, t, t_end, plan, accounting)
        seen.append(float(y_new[1].max()))
        return y_new, dt

    monkeypatch.setattr(dynamics, "advance", recorded)
    x = np.cos(np.pi * ROUGH.centers(0))
    s = make_state(np.full(16, u0) + 0.1 * x, 0.5 - 0.25 * x)
    acc = StepAccounting()
    run_to_time(s, WORKED, TaxisScheme.UPWIND, t_end=2.0, sample_every=0.5, accounting=acc)
    v0_max = float(s.v.values.max())
    assert len(seen) == acc.steps > 1
    assert acc.peak_v == max(v0_max, *seen)
    assert (acc.peak_v > v0_max) == (u0 == 0.5)


def test_random_runs_respect_bounds():
    """Seeded property sweep: predator sup stays under the logistic envelope,
    prey mass under its logistic-style ceiling, and no step raises BlowUp
    for a negative cell."""
    rng = np.random.default_rng(314)
    for _ in range(3):
        p = ModelParams(
            d1=rng.uniform(0.5, 1.5),
            d2=rng.uniform(0.5, 1.5),
            m1=rng.uniform(0.5, 1.5),
            m2=rng.uniform(0.5, 2.0),
            chi=rng.uniform(0.2, 1.0),
            a=rng.uniform(0.3, 1.2),
            b=rng.uniform(0.3, 1.2),
            eps=float(rng.choice([0.0, 0.2])),
        )
        g = Grid.uniform(1, 32, 2.0)
        s0 = State(
            g.field(rng.uniform(0.1, 2.0, g.n)),
            g.field(rng.uniform(0.1, 2.0, g.n)),
            0.0,
        )
        v0_sup = float(s0.v.values.max())
        mass0 = integrate_values(g, s0.u.values)
        v_cap = max(v0_sup, max(p.m2, 0.0))
        mass_cap = max(mass0, (p.m1 + p.a * v_cap) * g.volume)

        acc = StepAccounting()
        records = []
        run_to_time(
            s0, p, TaxisScheme.UPWIND, t_end=1.0, sample_every=0.25,
            sink=lambda t, y, count: records.append(State(g.field(y[0]), g.field(y[1]), t)), accounting=acc,
        )
        for st in records:
            sup_v = float(st.v.values.max())
            assert sup_v <= logistic_comparison(v0_sup, p.m2, st.t) + 1e-8 * max(1.0, v0_sup)
            assert integrate_values(g, st.u.values) <= mass_cap * (1.0 + 1e-6)
            assert st.u.values.min() >= 0.0
