"""Equilibria, thresholds, certificates, and the comparison bound."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from preytaxis import (
    ConditionViolated,
    InvalidTarget,
    ModelParams,
    Regime,
    certify,
    check_stabilization_condition,
    logistic_comparison,
    steady_states,
    taxis_mobility,
    waiting_time,
)


def params(**kw):
    base = dict(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0)
    base.update(kw)
    return ModelParams(**base)


def test_coexistence_equilibrium():
    ss = steady_states(params())
    assert ss.regime is Regime.COEXISTENCE
    assert ss.u_star == 1.5
    assert ss.v_star == 0.5


def test_boundary_case_is_coexistence():
    # m2 = b*m1 sits in the coexistence branch with zero prey level
    ss = steady_states(params(m2=1.0))
    assert ss.regime is Regime.COEXISTENCE
    assert ss.u_star == 1.0
    assert ss.v_star == 0.0


def test_extinction_equilibrium():
    ss = steady_states(params(m2=0.5))
    assert ss.regime is Regime.PREY_EXTINCTION
    assert ss.u_star == 1.0
    assert ss.v_star == 0.0


def test_reaction_rates_vanish_at_equilibrium():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p = ModelParams(
            d1=float(rng.uniform(0.1, 5)),
            d2=float(rng.uniform(0.1, 5)),
            m1=float(rng.uniform(0.1, 5)),
            m2=float(rng.uniform(-2, 5)),
            chi=float(rng.uniform(0.1, 3)),
            a=float(rng.uniform(0.05, 4)),
            b=float(rng.uniform(0.05, 4)),
        )
        ss = steady_states(p)
        assert ss.u_star > 0
        assert ss.v_star >= 0
        scale = max(1.0, ss.u_star, ss.v_star)
        assert abs(ss.u_star * (p.m1 - ss.u_star + p.a * ss.v_star)) <= 1e-12 * scale
        assert abs(ss.v_star * (p.m2 - p.b * ss.u_star - ss.v_star)) <= 1e-12 * scale


def test_params_validation():
    with pytest.raises(ValueError):
        params(d1=0.0)
    with pytest.raises(ValueError):
        params(m1=-1.0)
    with pytest.raises(ValueError):
        params(chi=-1.0)
    with pytest.raises(ValueError):
        params(eps=-0.1)
    with pytest.raises(ValueError):
        params(b=math.inf)
    # m2 may be zero or negative
    assert params(m2=0.0).m2_plus == 0.0
    assert params(m2=-3.0).m2_plus == 0.0


def test_threshold_worked_values():
    c = check_stabilization_condition(params())
    assert c.threshold == 17.0 / 3.0
    assert c.holds  # chi^2 = 1 < 17/3

    c = check_stabilization_condition(params(m2=0.5, chi=5.0))
    assert c.threshold == 32.0
    assert c.holds
    assert not check_stabilization_condition(params(m2=0.5, chi=6.0)).holds

    c = check_stabilization_condition(params(m2=-1.0, chi=10.0))
    assert math.isinf(c.threshold)
    assert c.holds

    # a subnormal m2 is the m2 -> 0+ limit, not a division by zero
    c = check_stabilization_condition(params(m2=5e-324, b=0.5))
    assert math.isinf(c.threshold)
    assert c.holds


def test_certify_relaxed_bound_is_admissible_midpoint():
    """The relaxed prey cap is the midpoint of the admissible interval.

    For the standard coexistence constants the admissible supremum solves
    1 = (4/(3c))*(1/(2c) + 4), i.e. c = (32 + sqrt(1072))/24 * 2 -- worked
    out: c_sup = (32 + sqrt(1072))/6, so the midpoint over (2, c_sup) is
    (44 + sqrt(1072))/12.
    """
    cert = certify(params(), 1.5)
    expected = (44.0 + math.sqrt(1072.0)) / 12.0
    assert math.isclose(cert.m2_relaxed, expected, rel_tol=1e-9)

    # extinction constants: rhs(c) = 16/c = 1 at c = 16, midpoint 8.25
    cert = certify(params(m2=0.5), 1.5)
    assert math.isclose(cert.m2_relaxed, 8.25, rel_tol=1e-9)


def test_certify_delta_satisfies_all_constraints_and_is_near_maximal():
    p = params()
    ss = steady_states(p)
    cert = certify(p, 1.5)
    m2r = cert.m2_relaxed

    def feasible(delta):
        if not 0 < delta <= p.a / p.b:
            return False
        if (1 - delta) * m2r <= p.m2_plus:
            return False
        slack = p.d1 - delta / ss.u_star
        if slack <= 0:
            return False
        lhs = (cert.chi_sq * ss.u_star / (4 * slack) - 4 * p.d2 / (p.b**2 * m2r)) * m2r**2
        lhs -= p.d2 * ss.v_star * (p.a / p.b)
        return lhs < -delta

    assert feasible(cert.delta)
    assert not feasible(cert.delta * 1.02)  # the margin really is near-maximal


def test_certify_waiting_time():
    p = params()
    assert certify(p, 1.5).t_settle == 0.0  # already below the relaxed cap

    cert = certify(p, 3.0)
    assert cert.t_settle > 0
    target = (1 - cert.delta) * cert.m2_relaxed
    # the comparison bound reaches the target exactly at t_settle
    assert math.isclose(logistic_comparison(3.0, p.m2, cert.t_settle), target, rel_tol=1e-12)
    assert logistic_comparison(3.0, p.m2, cert.t_settle / 2) > target


def decimal_delta(p, v0_sup):
    """certify's delta from its closed form evaluated in 50-digit decimal
    arithmetic, which neither overflows nor underflows at any float chi,
    from the float steady state."""
    ss = steady_states(p)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d1, d2, a, b, chi, m2p, u_star, v_star = (
            decimal.Decimal(x) for x in (p.d1, p.d2, p.a, p.b, p.chi, p.m2_plus, ss.u_star, ss.v_star))
        quad = chi * chi * u_star
        lin = 16 * d1 * d2 / (b * b)
        const = 4 * d1 * d2 * a * v_star / b
        m2r = (m2p + (lin + (lin * lin + 4 * quad * const).sqrt()) / (2 * quad)) / 2
        q = (4 * d2 * m2r / (b * b) + d2 * v_star * a / b) / u_star - d1
        disc = (q * q + chi * chi * m2r * m2r).sqrt()
        s_plus = chi * chi * m2r * m2r / 2 / (q + disc) if q > 0 else (disc - q) / 2
        return decimal.Decimal("0.99") * min(a / b, 1 - m2p / m2r, u_star * (d1 - s_plus))


def test_certify_delta_follows_its_closed_form_down_to_the_smallest_chi():
    """chi = 1e-1 to 1e-320 at order_1d's parameters.  From about 1e-77
    q^2 overflowed, and s+ came out 0 or NaN, which min() dropped, so
    delta read 0.99 instead of about 0.7425; from 1e-162 chi^2 u*
    underflowed to 0 and c+ divided by it."""
    for k in range(1, 321):
        p = params(chi=float(f"1e-{k}"))
        cert = certify(p, 1.3)
        want = decimal_delta(p, 1.3)
        assert abs(decimal.Decimal(cert.delta) - want) <= decimal.Decimal("1e-9") * want, f"chi = {p.chi}"
        assert math.isfinite(cert.m2_relaxed), f"chi = {p.chi}"


def test_certify_rejects_large_chi():
    with pytest.raises(ConditionViolated):
        certify(params(chi=3.0), 1.0)  # 9 > 17/3


def _admissible(p, ss, cap):
    """The smallness condition with the prey cap in place of max(0, m2)."""
    return p.chi**2 < 4 * p.d1 * p.d2 * (p.a * ss.v_star / cap + 4 / p.b) / (p.b * cap * ss.u_star)


def _feasible(p, ss, m2r, delta):
    """Every constraint the dissipation margin must meet at relaxed cap m2r."""
    if not 0 < delta <= p.a / p.b:
        return False
    if (1 - delta) * m2r <= p.m2_plus:
        return False
    slack = p.d1 - delta / ss.u_star
    if slack <= 0:
        return False
    lhs = (p.chi**2 * ss.u_star / (4 * slack) - 4 * p.d2 / (p.b**2 * m2r)) * m2r**2
    return lhs - p.d2 * ss.v_star * (p.a / p.b) < -delta


@st.composite
def certifiable_params(draw):
    """Constants from criterion 1's ranges for which the smallness condition holds."""
    p = ModelParams(
        d1=10.0 ** draw(st.floats(-1.0, 1.0)),
        d2=10.0 ** draw(st.floats(-1.0, 1.0)),
        m1=draw(st.floats(0.1, 5.0)),
        m2=draw(st.floats(-2.0, 5.0)),
        chi=draw(st.floats(0.05, 3.0)),
        a=draw(st.floats(0.05, 4.0)),
        b=draw(st.floats(0.05, 4.0)),
    )
    assume(check_stabilization_condition(p).holds)
    return p


@settings(max_examples=300, deadline=None)
@given(p=certifiable_params(), v0_sup=st.floats(0.1, 10.0))
def test_certify_is_the_admissible_midpoint_and_near_maximal_margin_property(p, v0_sup):
    ss = steady_states(p)
    try:
        cert = certify(p, v0_sup)
    except ConditionViolated:
        # only rounding at the threshold edge leaves no margin
        c = check_stabilization_condition(p)
        assert c.chi_sq > c.threshold * (1 - 1e-9)
        return
    m2r = cert.m2_relaxed
    assert m2r > p.m2_plus and _admissible(p, ss, m2r)
    c_sup = 2 * m2r - p.m2_plus  # m2r is the midpoint of (max(0, m2), c_sup)
    assert _admissible(p, ss, c_sup * (1 - 1e-9))
    assert not _admissible(p, ss, c_sup * (1 + 1e-9))

    assert _feasible(p, ss, m2r, cert.delta)
    if cert.delta != 0.99 * (p.a / p.b):  # a/b is the one bound met with equality
        assert not _feasible(p, ss, m2r, 1.02 * cert.delta)


def test_taxis_mobility():
    assert taxis_mobility(2.0) == 2.0
    assert taxis_mobility(2.0, eps=0.5) == 1.0
    assert taxis_mobility(0.0, eps=0.3) == 0.0
    u = np.array([0.0, 1.0, 10.0])
    out = taxis_mobility(u, eps=0.1)
    assert np.allclose(out, u / (1 + 0.1 * u))
    # saturation: larger eps, smaller mobility
    assert np.all(taxis_mobility(u[1:], eps=0.2) < taxis_mobility(u[1:], eps=0.1))
    with pytest.raises(ValueError):
        taxis_mobility(1.0, eps=-1.0)


def test_logistic_comparison_values():
    assert logistic_comparison(3.0, 2.0, 0.0) == pytest.approx(3.0, rel=1e-15)
    assert logistic_comparison(1.0, 0.0, 1.0) == 0.5
    assert logistic_comparison(1.0, 2.0, math.log(2.0) / 2.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
    # m2 < 0: 1/(-1 + 2 e^t) at t = ln 2 is 1/3
    assert logistic_comparison(1.0, -1.0, math.log(2.0)) == pytest.approx(1.0 / 3.0, rel=1e-14)
    ts = np.linspace(0.0, 5.0, 11)
    ys = logistic_comparison(4.0, 2.0, ts)
    assert ys.shape == ts.shape
    assert np.all(np.diff(ys) < 0)  # decreasing toward the carrying level
    assert ys[-1] > 2.0


def closed_form_logistic(v0_sup, m2, t):
    """1/(1/m2 + (1/v0_sup - 1/m2) exp(-m2 t)) in 500-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 500
        v0_sup, m2, t = decimal.Decimal(v0_sup), decimal.Decimal(m2), decimal.Decimal(t)
        return float(1 / (1 / m2 + (1 / v0_sup - 1 / m2) * (-m2 * t).exp()))


def closed_form_waiting_time(m, m2, v0_sup):
    """-log((1/m - 1/m2)/(1/v0_sup - 1/m2))/m2 in 500-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 500
        m, m2, v0_sup = decimal.Decimal(m), decimal.Decimal(m2), decimal.Decimal(v0_sup)
        return float(-((1 / m - 1 / m2) / (1 / v0_sup - 1 / m2)).ln() / m2)


@pytest.mark.parametrize("m2", [-1e-12, 1e-12, 1e-8, -3.09e-180, 6e-309, 5e-324, -5e-324])
def test_logistic_comparison_and_waiting_time_keep_their_digits_at_a_small_m2(m2):
    """Where 1/m2 is large the two terms near it cancelled: at m2 = -1e-12
    the bound was 6.1e-5 off, waiting_time 8.9e-5 off at m2 = +-1e-12, and
    m2 = -3.09e-180 raised Degenerate.  Where 1/m2 overflows both were
    NaN, and -m2 t underflows there."""
    for t in (0.75, 1.0):
        assert logistic_comparison(1.0, m2, t) == pytest.approx(closed_form_logistic(1.0, m2, t), rel=1e-14)
    assert waiting_time(2.0, params(m2=m2), 4.0) == pytest.approx(closed_form_waiting_time(2.0, m2, 4.0), rel=1e-14)


def test_logistic_comparison_input_checks():
    with pytest.raises(ValueError):
        logistic_comparison(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        logistic_comparison(1.0, 2.0, -0.5)


def test_waiting_time():
    p = params()
    assert waiting_time(3.0, p, 4.0) == pytest.approx(math.log(1.5) / 2.0, rel=1e-14)
    assert waiting_time(3.0, p, 2.5) == 0.0  # already below the target
    t = waiting_time(2.5, p, 4.0)
    assert logistic_comparison(4.0, p.m2, t) == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(InvalidTarget):
        waiting_time(2.0, p, 4.0)  # target at the carrying level never commits
    with pytest.raises(InvalidTarget):
        waiting_time(0.0, params(m2=-1.0), 4.0)
    # m2 <= 0: any strictly positive target is eventually reached
    assert waiting_time(0.5, params(m2=0.0), 4.0) == pytest.approx(2.0 - 0.25, rel=1e-12)
    assert waiting_time(0.5, params(m2=-1.0), 4.0) == pytest.approx(math.log(2.4), rel=1e-12)
