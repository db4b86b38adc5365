"""Reference ODE, heat eigenmode baseline, and order estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preytaxis.oracle as oracle
from preytaxis import (
    DegenerateInput,
    ModelParams,
    heat_eigenmode_error,
    homogeneous_ode,
    logistic_comparison,
    refinement_order,
    steady_states,
)

WORKED = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0)


def test_ode_settles_to_coexistence():
    ss = steady_states(WORKED)
    traj = homogeneous_ode(1.0, 1.0, WORKED, t_end=50.0)
    assert abs(traj.u[-1] - ss.u_star) < 1e-6
    assert abs(traj.v[-1] - ss.v_star) < 1e-6


def test_ode_extinction_regime():
    p = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=0.5, chi=1.0, a=1.0, b=1.0)
    traj = homogeneous_ode(0.5, 1.0, p, t_end=60.0)
    assert abs(traj.u[-1] - 1.0) < 1e-6
    assert abs(traj.v[-1]) < 1e-6


def test_ode_axes_are_invariant():
    # each species' zero set is invariant for the reaction system
    traj = homogeneous_ode(0.0, 1.0, WORKED, t_end=5.0)
    assert np.all(traj.u == 0.0)
    traj = homogeneous_ode(1.0, 0.0, WORKED, t_end=5.0)
    assert np.all(traj.v == 0.0)


def test_ode_honors_t_eval():
    times = np.linspace(0.0, 2.0, 9)
    traj = homogeneous_ode(1.0, 1.0, WORKED, t_end=2.0, t_eval=times)
    assert np.array_equal(traj.times, times)
    assert traj.u.shape == times.shape


def test_ode_default_output_times_are_0_and_t_end():
    traj = homogeneous_ode(1.0, 0.5, WORKED, t_end=3.0)
    assert traj.times.tolist() == [0.0, 3.0]
    assert (traj.u[0], traj.v[0]) == (1.0, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    m1=st.floats(0.01, 2.0),
    # |m2| >= 0.01: nearer 0 the closed form cancels (1/m2 against itself)
    m2=st.just(0.0) | st.floats(-2.0, -0.01) | st.floats(0.01, 2.0),
    ab=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    y0=st.floats(1e-6, 2.0),
    t_end=st.floats(0.01, 10.0),
)
def test_ode_matches_the_logistic_closed_form_on_either_axis(m1, m2, ab, y0, t_end):
    """With one species absent the other is logistic with its own rate:
    v' = v (m2 - v) when u = 0, and u' = u (m1 - u) when v = 0."""
    p = ModelParams(d1=1.0, d2=1.0, m1=m1, m2=m2, chi=1.0, a=ab[0], b=ab[1])
    times = np.linspace(0.0, t_end, 6)
    traj = homogeneous_ode(0.0, y0, p, t_end, t_eval=times)
    assert np.all(traj.u == 0.0)
    exact = logistic_comparison(y0, m2, times)
    assert np.max(np.abs(traj.v - exact) / exact) <= 1e-12
    traj = homogeneous_ode(y0, 0.0, p, t_end, t_eval=times)
    assert np.all(traj.v == 0.0)
    exact = logistic_comparison(y0, m1, times)
    assert np.max(np.abs(traj.u - exact) / exact) <= 1e-12


@pytest.mark.parametrize("m1", [100.0, 1e4, 1e5])
def test_ode_raises_where_the_fixed_substep_cannot_resolve_the_rates(m1):
    """At the predator's equilibrium u = m1 the rate is -m1.  At m1 = 100
    both passes stay finite but differ by about 5e-6 relative; at 1e4 the
    substep times the rate lies past RK4's stability limit (about 2.79),
    so the substep pass blows up; at 1e5 both passes do."""
    p = ModelParams(d1=1.0, d2=1.0, m1=m1, m2=1.0, chi=1.0, a=1.0, b=1.0)
    with pytest.raises(RuntimeError, match="unresolved"):
        homogeneous_ode(1.0, 1.0, p, t_end=1.0)


def test_ode_refuses_an_infinite_half_substep_pass(monkeypatch):
    """Any x is within 1e-12 * inf of inf, so the check must refuse an
    infinite value by its finiteness, not by the gap."""
    def rk4(u, v, p, times, substep):
        return [(1.0 if substep == oracle._SUBSTEP else math.inf, v)] * len(times)

    monkeypatch.setattr(oracle, "_rk4", rk4)
    with pytest.raises(RuntimeError, match="unresolved"):
        homogeneous_ode(1.0, 1.0, WORKED, t_end=1.0)


def test_ode_input_validation():
    with pytest.raises(ValueError):
        homogeneous_ode(-0.1, 1.0, WORKED, t_end=1.0)
    with pytest.raises(ValueError):
        homogeneous_ode(1.0, 1.0, WORKED, t_end=0.0)
    for t_eval in ([0.0, 2.0], [1.0, 0.5], [-0.5, 1.0]):
        with pytest.raises(ValueError):
            homogeneous_ode(1.0, 1.0, WORKED, t_end=1.0, t_eval=t_eval)


def test_heat_error_matches_analytic_form():
    """Integrated exactly in time, the sup error of the eigenmode is
    |exp(-lam_h t) - exp(-lam t)| cos(k pi h / 2), lam_h the discrete
    eigenvalue, up to rounding."""
    d, t, k = 1.0, 0.1, 1
    for n in (32, 64):
        h = 1.0 / n
        lam_h = (2.0 / h**2) * (1.0 - math.cos(k * math.pi * h))
        lam = d * (k * math.pi) ** 2
        predicted = abs(math.exp(-lam_h * t) - math.exp(-lam * t)) * math.cos(k * math.pi * h / 2)
        measured = heat_eigenmode_error(n, k, d, t)
        assert measured == pytest.approx(predicted, rel=1e-10)


def test_heat_error_refines_at_second_order():
    pairs = [(1.0 / n, heat_eigenmode_error(n, 1, 1.0, 0.1)) for n in (16, 32, 64)]
    assert refinement_order(pairs) > 1.9


def test_heat_flat_mode_is_exact():
    # k = 0 is constant-in-space and the discrete operator kills it exactly
    assert heat_eigenmode_error(16, 0, 1.0, 0.5) < 1e-14


def test_heat_input_validation():
    with pytest.raises(ValueError):
        heat_eigenmode_error(16, -1, 1.0, 0.1)
    with pytest.raises(ValueError):
        heat_eigenmode_error(16, 1, 0.0, 0.1)
    with pytest.raises(ValueError):
        heat_eigenmode_error(16, 1, 1.0, -0.1)


def test_refinement_order_exact_slopes():
    hs = [0.2, 0.1, 0.05, 0.025]
    assert refinement_order([(h, h * h) for h in hs]) == pytest.approx(2.0, rel=1e-12)
    assert refinement_order([(h, 3.0 * h) for h in hs]) == pytest.approx(1.0, rel=1e-12)


def test_refinement_order_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        refinement_order([(0.1, 0.01)])
    with pytest.raises(DegenerateInput):
        refinement_order([(0.1, 0.01), (-0.05, 0.0025)])
    with pytest.raises(DegenerateInput):
        refinement_order([(0.1, 0.0), (0.05, 0.0025)])
    with pytest.raises(DegenerateInput):
        refinement_order([(0.1, 0.01), (0.05, -0.0025)])


def test_seeded_fault_is_caught(monkeypatch):
    """Flip the sign of the diffusion operator inside the oracle: the
    convergence study must stop looking second order."""
    true_lap = oracle.laplacian_values
    monkeypatch.setattr(oracle, "laplacian_values", lambda g, w: -true_lap(g, w))
    # short horizon: the corrupted run stays finite but its error no longer
    # shrinks with the mesh
    pairs = [(1.0 / n, oracle.heat_eigenmode_error(n, 1, 1.0, 1e-3)) for n in (16, 32, 64)]
    order = refinement_order(pairs)
    assert not order >= 1.9


def test_heat_error_refuses_a_laplacian_the_cosine_is_no_eigenvector_of(monkeypatch):
    """A Laplacian that mixes modes cannot be mistaken for one whose
    eigenvalue merely differs: the closed form needs an eigenvector."""
    true_lap = oracle.laplacian_values
    monkeypatch.setattr(oracle, "laplacian_values", lambda g, w: true_lap(g, w) + 1e-6 * w[::-1] ** 2)
    with pytest.raises(RuntimeError, match="not a Laplacian eigenvector"):
        oracle.heat_eigenmode_error(16, 1, 1.0, 0.1)
