"""Entropy/energy functionals, the decay checker, and the CSV layout."""

import math
import typing
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from preytaxis import (
    DiagnosticsRecord,
    Grid,
    ModelParams,
    Regime,
    StabilizationCertificate,
    State,
    StepPlan,
    TaxisScheme,
    certify,
    check_energy_decay,
    csv_header,
    entropy_integral,
    entropy_lower_bound_residual,
    format_csv,
    record,
    rhs,
    steady_states,
)
from preytaxis.diagnostics import U_FLOOR
from strategies import grids, positive_fields

WORKED = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0)
# a certificate carrying only the relaxed prey bound the energy weights by
RELAXED_6 = StabilizationCertificate(holds=True, chi_sq=1.0, threshold=2.0, m2_relaxed=6.0)


def test_entropy_integral_frozen_values():
    g = Grid.uniform(1, 8, 1.0)
    f = np.full(g.n, math.e)
    # density e - 1 - log(e) = e - 2 at level 1; plain e at level 0
    assert entropy_integral(g, f, 1.0) == pytest.approx(math.e - 2.0, rel=1e-14)
    assert entropy_integral(g, f, 0.0) == pytest.approx(math.e, rel=1e-14)
    # scales with the box
    g3 = Grid.uniform(2, 8, 3.0)
    assert entropy_integral(g3, np.full(g3.n, math.e), 1.0) == pytest.approx(
        9.0 * (math.e - 2.0), rel=1e-14
    )


def test_entropy_integral_vanishes_at_level():
    g = Grid.uniform(1, 16, 2.0)
    assert entropy_integral(g, np.full(g.n, 0.7), 0.7) == 0.0


def test_entropy_integral_floor_keeps_logs_finite():
    g = Grid.uniform(1, 8, 1.0)
    value = entropy_integral(g, np.zeros(8), 1.0)
    assert math.isfinite(value) and value > 0


def test_entropy_integral_rejects_negative_level():
    g = Grid.uniform(1, 8, 1.0)
    with pytest.raises(ValueError):
        entropy_integral(g, np.ones(8), -0.1)


def record_of(s, p=WORKED, cert=None):
    return record(s.grid, [s.t], [np.stack((s.u.values, s.v.values))], p, steady_states(p), cert)[0]


def constant_record(grid, u, v, cert=None):
    return record_of(State(grid.field(u), grid.field(v), 0.0), cert=cert)


def test_dissipation_constant_fields():
    ss = steady_states(WORKED)
    g = Grid.uniform(1, 16, 2.0)
    expected = 2.0 * ((2.5 - ss.u_star) ** 2 + (1.25 - ss.v_star) ** 2)
    assert constant_record(g, 2.5, 1.25).dissipation == pytest.approx(expected, rel=1e-13)


def test_energy_zero_exactly_at_equilibrium():
    ss = steady_states(WORKED)
    g = Grid.uniform(2, 8, 1.0)
    r = constant_record(g, ss.u_star, ss.v_star, RELAXED_6)
    assert r.energy == 0.0
    assert r.dissipation == 0.0


def test_energy_positive_off_equilibrium():
    g = Grid.uniform(1, 16, 1.0)
    assert constant_record(g, 2.0, 1.0, RELAXED_6).energy > 0


def test_energy_infinite_relaxed_bound_drops_quadratic_term():
    ss = steady_states(WORKED)
    g = Grid.uniform(1, 16, 2.0)
    gap = constant_record(g, 2.0, 1.0, RELAXED_6).energy - constant_record(g, 2.0, 1.0).energy
    quad = (2.0 / 6.0) * 2.0 * (1.0 - ss.v_star) ** 2  # b = 1, volume 2
    assert gap == pytest.approx(quad, rel=1e-13)


def test_record_constant_and_cosine_fields():
    ss = steady_states(WORKED)
    g = Grid.uniform(1, 32, 2.0)
    amp = 0.25
    v = ss.v_star + amp * np.cos(np.pi * g.centers(0) / 2.0)
    s = State(g.field(ss.u_star), g.field(v), 1.5)
    r = record_of(s)
    assert r.t == 1.5
    assert r.mass_u == pytest.approx(ss.u_star * 2.0, rel=1e-14)
    assert r.dist_u_l1 == 0.0
    assert r.dist_u_l2 == 0.0
    assert r.entropy_u == 0.0
    # the cosine mode integrates cleanly: mean zero, mean square 1/2
    assert r.dist_v_l2 == pytest.approx(amp, rel=1e-12)
    assert r.linf_v == pytest.approx(ss.v_star + amp * math.cos(math.pi / 64), rel=1e-15)
    assert r.dist_v_l1 > 0
    assert r.floored_cells == 0
    assert r.dissipation > 0  # the mode has gradients
    # no certificate: energy must omit the quadratic term
    assert r.energy == pytest.approx(r.entropy_u + r.entropy_v, rel=1e-13)


def test_record_uses_certificate_relaxed_bound():
    cert = certify(WORKED, v0_sup=1.5)
    g = Grid.uniform(1, 16, 2.0)
    s = State(g.field(1.0), g.field(1.0), 0.0)
    r = record_of(s, cert=cert)
    ss = steady_states(WORKED)
    quad = (2.0 / cert.m2_relaxed) * 2.0 * (1.0 - ss.v_star) ** 2
    assert r.energy == pytest.approx(r.entropy_u + r.entropy_v + quad, rel=1e-13)


# --- properties of record() on generated grids and positive fields ------------

@st.composite
def coexistence_params(draw):
    """Parameters with a strictly positive prey equilibrium."""
    m1, a, b = (draw(st.floats(0.1, 3.0)) for _ in range(3))
    m2 = b * m1 + draw(st.floats(0.01, 3.0))
    return ModelParams(d1=1.0, d2=1.0, m1=m1, m2=m2, chi=1.0, a=a, b=b)


certificates = st.one_of(
    st.none(),
    st.floats(0.5, 20.0).map(
        lambda m: StabilizationCertificate(holds=True, chi_sq=1.0, threshold=2.0, m2_relaxed=m)
    ),
)


def written_gradient_sq(g, f):
    """Per cell, the mean of the squared differences across its two faces on
    each axis, with zero at the walls."""
    out = np.zeros(g.n)
    for ax in range(g.dim):
        d = np.moveaxis(np.diff(f, axis=ax) / g.h[ax], ax, 0)
        wall = np.zeros((1,) + d.shape[1:])
        faces = np.concatenate([wall, d, wall])
        out += np.moveaxis(0.5 * (faces[:-1] ** 2 + faces[1:] ** 2), 0, ax)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=coexistence_params(), cert=certificates)
def test_record_energy_and_dissipation_are_sums_of_their_terms(data, p, cert):
    g = data.draw(grids())
    u = data.draw(positive_fields(g))
    v = data.draw(positive_fields(g))
    ss = steady_states(p)
    r = record_of(State(g.field(u), g.field(v), 0.0), p, cert)

    assert r.entropy_u >= 0.0 and r.entropy_v >= 0.0
    quad = 0.0 if cert is None else 2.0 / (p.b**2 * cert.m2_relaxed) * r.dist_v_l2**2
    assert r.energy == pytest.approx(r.entropy_u + (p.a / p.b) * r.entropy_v + quad, rel=1e-12)
    dissipation = g.cell_volume * (
        np.sum(written_gradient_sq(g, u) / u**2)
        + np.sum(written_gradient_sq(g, v) / v**2)
        + np.sum((u - ss.u_star) ** 2)
        + np.sum((v - ss.v_star) ** 2)
    )
    assert r.dissipation == pytest.approx(dissipation, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(g=grids(), p=coexistence_params(), cert=certificates)
def test_record_vanishes_exactly_at_equilibrium(g, p, cert):
    ss = steady_states(p)
    assert ss.regime is Regime.COEXISTENCE
    r = record_of(State(g.field(ss.u_star), g.field(ss.v_star), 0.0), p, cert)
    assert r.energy == 0.0
    assert r.dissipation == 0.0


@st.composite
def extinction_params(draw):
    """Parameters whose prey dies out: v* = 0."""
    m1, a, b = (draw(st.floats(0.1, 3.0)) for _ in range(3))
    m2 = b * m1 - draw(st.floats(0.01, 3.0))
    return ModelParams(d1=1.0, d2=1.0, m1=m1, m2=m2, chi=1.0, a=a, b=b)


# densities spanning six decades, with zeros and cells just below the floor
densities = st.one_of(st.floats(1e-3, 1e3), st.sampled_from((0.0, 1e-300, 0.5 * U_FLOOR)))


@st.composite
def state_batches(draw):
    """A 1-D or 2-D grid of 4-40 cells per axis, the 2-D axes drawn apart,
    with 1 to 6 times and stacked states on it."""
    dim = draw(st.sampled_from((1, 2)))
    g = Grid(tuple(draw(st.integers(4, 40)) for _ in range(dim)),
             tuple(draw(st.floats(0.5, 3.0)) for _ in range(dim)))
    k = draw(st.integers(1, 6))
    times = [draw(st.floats(0.0, 100.0)) for _ in range(k)]
    return g, times, [draw(arrays(np.float64, (2, *g.n), elements=densities)) for _ in range(k)]


def bits(r):
    return [x.hex() if isinstance(x, float) else x for x in astuple(r)]


@settings(max_examples=60, deadline=None)
@given(batch=state_batches(), p=st.one_of(coexistence_params(), extinction_params()), cert=certificates)
def test_record_of_a_batch_matches_each_state_alone_bit_for_bit(batch, p, cert):
    g, times, states = batch
    ss = steady_states(p)
    rows = record(g, times, states, p, ss, cert)
    assert [bits(r) for r in rows] == [bits(record(g, [t], [y], p, ss, cert)[0]) for t, y in zip(times, states)]


def test_record_rejects_a_batch_that_mixes_grids():
    p, g = WORKED, Grid.uniform(1, 8, 1.0)
    batch = [np.ones((2, 8)), np.ones((2, 16))]
    assert record(g, [], [], p, steady_states(p), None) == []
    with pytest.raises(ValueError, match="one grid"):
        record(g, [0.0, 0.0], batch[1:] * 2, p, steady_states(p), None)
    with pytest.raises(ValueError):
        record(g, [0.0, 0.0], batch, p, steady_states(p), None)


def energy_rate(u, v, g, p, cert, taxis):
    """dE_h/dt along the semidiscrete flow: the energy's gradient in (u, v)
    paired with rhs, for fields far enough above U_FLOOR that no floor acts."""
    ss = steady_states(p)
    du, dv = rhs(np.stack((u, v)), StepPlan(g, p, taxis))
    quad = 4.0 / (p.b * p.b * cert.m2_relaxed)
    density = ((1.0 - ss.u_star / u) * du + (p.a / p.b) * (1.0 - ss.v_star / v) * dv
               + quad * (v - ss.v_star) * dv)
    return g.cell_volume * float(density.sum())


CERTIFY_TOO_LARGE = pytest.mark.xfail(
    strict=True, reason="certify's delta exceeds the decay rate this state allows (ROADMAP item 1)")


@pytest.mark.parametrize("chi", [pytest.param(0.5, marks=CERTIFY_TOO_LARGE),
                                 pytest.param(1.0, marks=CERTIFY_TOO_LARGE), 2.0])
@pytest.mark.parametrize("taxis", TaxisScheme)
def test_energy_decays_at_the_certified_rate_on_a_steep_prey_state(chi, taxis):
    """dE_h/dt <= -delta D_h at certify's delta, on a state inside the
    certified region: u = u*, and small prey with steep relative gradients.
    At chi = 0.5 dE_h/dt is -201.8 against -delta D_h = -346.7, at chi = 1
    -202.0 against -291.3."""
    p = replace(WORKED, chi=chi)
    g = Grid.uniform(1, 64, 2.0)
    u = np.full(64, steady_states(p).u_star)
    v = 0.05 * (1.0 + 0.9 * np.cos(4.0 * np.pi * g.centers(0)))
    cert = certify(p, float(v.max()))
    assert float(v.max()) <= (1.0 - cert.delta) * cert.m2_relaxed
    dissipation = record_of(State(g.field(u), g.field(v), 0.0), p, cert).dissipation
    assert energy_rate(u, v, g, p, cert, taxis) <= -cert.delta * dissipation


def synthetic_record(t, e, g):
    return DiagnosticsRecord(
        t=t, mass_u=0.0, linf_v=0.0,
        dist_u_l1=0.0, dist_u_l2=0.0, dist_v_l1=0.0, dist_v_l2=0.0,
        entropy_u=0.0, entropy_v=0.0, energy=e, dissipation=g,
        floored_cells=0,
    )


def test_check_energy_decay_exact_exponential():
    """E_k = exp(-k dt) with the dissipation chosen to make the forward-difference
    inequality an identity passes with only rounding-level slope tolerance, and
    the budget telescopes to the total drop."""
    cert = certify(WORKED, v0_sup=1.5)
    assert cert.t_settle == 0.0
    dt = 0.1
    energies = [math.exp(-k * dt) for k in range(11)]
    recs = [
        synthetic_record(k * dt, energies[k],
                         (energies[k] - energies[k + 1]) / (cert.delta * dt) if k < 10 else 0.0)
        for k in range(11)
    ]
    rep = check_energy_decay(recs, cert, tol_slope=1e-12, tol_budget=1e-9)
    assert rep.n_pairs == 10
    assert rep.n_slope_violations == 0
    assert rep.slope_fraction == 1.0
    assert rep.monotone_ok
    assert rep.budget_lhs == pytest.approx(energies[0] - energies[-1], rel=1e-12)
    assert rep.budget_ok


def test_check_energy_decay_flags_growth():
    cert = certify(WORKED, v0_sup=1.5)
    recs = [synthetic_record(0.1 * k, float(k), 0.0) for k in range(5)]
    rep = check_energy_decay(recs, cert, tol_slope=0.0)
    assert not rep.monotone_ok
    assert rep.n_slope_violations == 4
    assert rep.slope_fraction == 0.0
    assert rep.max_increase_rate == pytest.approx(10.0, rel=1e-12)
    assert not rep.budget_ok  # energy rose, dissipation never paid for it


def test_check_energy_decay_counts_only_pairs_it_checks():
    """Records repeated under one time (a step longer than the sample spacing)
    form zero-width pairs that are skipped; they must not dilute the fraction."""
    cert = certify(WORKED, v0_sup=1.5)
    rises = {10, 50, 90, 130, 170}
    recs = [
        synthetic_record(0.1 * k, 1000.0 - k + (2.0 if k in rises else 0.0), 0.0)
        for k in range(211)
        for _ in range(14)
    ]
    rep = check_energy_decay(recs, cert, tol_slope=0.0)
    assert rep.n_pairs == 210
    assert rep.n_slope_violations == 5
    assert rep.slope_fraction == pytest.approx(205 / 210, rel=1e-12)
    assert rep.slope_fraction < 0.99


def test_check_energy_decay_all_pairs_zero_width():
    cert = certify(WORKED, v0_sup=1.5)
    rep = check_energy_decay([synthetic_record(0.5, 1.0, 1.0)] * 3, cert)
    assert rep.n_pairs == 0
    assert rep.slope_fraction == 1.0


def test_check_energy_decay_waits_for_settling():
    cert = certify(WORKED, v0_sup=3.0)
    assert cert.t_settle > 0.1
    recs = [synthetic_record(t, 1.0 - 0.1 * t, 1.0) for t in (0.0, 0.1, 0.2, 0.3)]
    rep = check_energy_decay(recs, cert)
    assert rep.start_time == cert.t_settle
    assert rep.n_pairs == 1  # only the samples at 0.2 and 0.3 qualify


def test_check_energy_decay_trivial_when_tail_too_short():
    cert = certify(WORKED, v0_sup=3.0)
    recs = [synthetic_record(0.0, 1.0, 1.0)]
    rep = check_energy_decay(recs, cert)
    assert rep.n_pairs == 0
    assert rep.monotone_ok and rep.budget_ok


def test_check_energy_decay_needs_decay_data():
    bare = StabilizationCertificate(holds=True, chi_sq=1.0, threshold=2.0)
    with pytest.raises(ValueError):
        check_energy_decay([synthetic_record(0.0, 1.0, 1.0)], bare)


def test_entropy_l1_bound_residual_closed_forms():
    g = Grid.uniform(1, 16, 1.0)
    # f = 2*xi: both sides work out in closed form, residual is
    # -sqrt(8 (1 - log 2)) * xi * volume
    res = entropy_lower_bound_residual(g, np.full(g.n, 2.0), 1.0)
    assert res == pytest.approx(-math.sqrt(8.0 * (1.0 - math.log(2.0))), rel=1e-12)
    assert res == pytest.approx(-1.5668, abs=1e-4)
    # f = xi: both sides are exactly zero
    assert entropy_lower_bound_residual(g, np.full(g.n, 0.7), 0.7) == 0.0


def test_entropy_l1_bound_random_fields():
    rng = np.random.default_rng(99)
    g = Grid.uniform(2, 12, 1.5)
    for _ in range(10):
        f = rng.lognormal(mean=0.0, sigma=0.8, size=g.n)
        for xi in (0.0, 0.5, 1.0, 10.0):
            res = entropy_lower_bound_residual(g, f, xi)
            scale = max(1.0, abs(res))
            assert res <= 1e-12 * scale


def test_csv_header_frozen():
    assert csv_header() == (
        "t,mass_u,linf_v,dist_u_l1,dist_u_l2,dist_v_l1,dist_v_l2,"
        "entropy_u,entropy_v,energy,dissipation,floored_cells"
    )


def test_csv_roundtrips_doubles_and_keeps_ints_plain():
    r = synthetic_record(math.pi, 1.0 / 3.0, 2.0**-40)
    r = DiagnosticsRecord(**{**r.__dict__, "floored_cells": 7})
    text = format_csv([r])
    lines = text.strip().split("\n")
    assert len(lines) == 2
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(cells["t"]) == math.pi  # 17 significant digits round-trip
    assert float(cells["energy"]) == 1.0 / 3.0
    assert float(cells["dissipation"]) == 2.0**-40
    assert cells["floored_cells"] == "7"


# Column types as declared, so the property covers every column the CSV has.
RECORD_TYPES = typing.get_type_hints(DiagnosticsRecord)


@st.composite
def finite_records(draw):
    values = {}
    for f in fields(DiagnosticsRecord):
        if RECORD_TYPES[f.name] is int:
            values[f.name] = draw(st.integers(0, 2**63))
        else:
            values[f.name] = draw(st.floats(allow_nan=False, allow_infinity=False))
    return DiagnosticsRecord(**values)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(finite_records(), max_size=5))
def test_csv_roundtrip_property(records):
    """Every finite double reads back bitwise, -0.0 included; integer columns
    are written as plain integers."""
    lines = format_csv(records).split("\n")
    assert lines[0] == csv_header()
    assert lines[-1] == ""
    assert len(lines) == len(records) + 2
    for r, line in zip(records, lines[1:]):
        cells = line.split(",")
        assert len(cells) == len(fields(DiagnosticsRecord))
        for f, cell in zip(fields(DiagnosticsRecord), cells):
            value = getattr(r, f.name)
            if RECORD_TYPES[f.name] is int:
                assert cell == str(value)
            else:
                assert np.float64(float(cell)).tobytes() == np.float64(value).tobytes()
