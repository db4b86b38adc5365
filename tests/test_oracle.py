"""Reference ODE, heat eigenmode baseline, and order estimation."""

import math

import numpy as np
import pytest

import preytaxis.oracle as oracle
from preytaxis import (
    DegenerateInput,
    ModelParams,
    heat_eigenmode_error,
    homogeneous_ode,
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


def test_ode_input_validation():
    with pytest.raises(ValueError):
        homogeneous_ode(-0.1, 1.0, WORKED, t_end=1.0)
    with pytest.raises(ValueError):
        homogeneous_ode(1.0, 1.0, WORKED, t_end=0.0)


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
