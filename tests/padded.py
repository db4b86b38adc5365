"""Reference formulas on per-axis slices of the cell array, the layout the
flat face kernels replaced: interior face arrays with n - 1 entries along
their axis, optionally padded with a zero wall face at both ends; and the
two time steppers' recurrences written one field at a time on that
slicing rhs.  The slicing rhs takes the package's operation order, so the
tests compare the package's kernels and steps with these byte for byte.
The package's TaxisScheme, taxis_mobility, reaction_rates and STAGES are
used as they are.  unfused_rhs is the right-hand side as first written,
the divergence of the flux with its reactions typed out, for checks of
the algebra within rounding; written_step_bounds is the step-size
limiter as first written, one expression per term, which the package's
must match byte for byte."""

import numpy as np

from preytaxis import TaxisScheme, reaction_rates, taxis_mobility
from preytaxis.dynamics import STAGES, STEP_ACCURACY, STEP_SAFETY


def left(g, ax):
    """Index dropping the last entry along axis ax."""
    return tuple(slice(None, -1) if k == ax else slice(None) for k in range(g.dim))


def right(g, ax):
    """Index dropping the first entry along axis ax."""
    return tuple(slice(1, None) if k == ax else slice(None) for k in range(g.dim))


def interior_face_shape(g, ax):
    """Shape of the interior faces normal to axis ax: one fewer than the cells."""
    return tuple(k - 1 if i == ax else k for i, k in enumerate(g.n))


def with_walls(g, ax, faces):
    """Interior faces with a zero wall face added at both ends of axis ax."""
    width = [(0, 0)] * g.dim
    width[ax] = (1, 1)
    return np.pad(faces, width)


def to_face_array(g, ax, faces):
    """Interior faces along axis ax in the package's flat face layout:
    stride zeros, then one slot per cell, the face after it along ax, 0
    where the cell is last along ax."""
    width = [(0, 0)] * g.dim
    width[ax] = (0, 1)
    return np.concatenate([np.zeros(g.stride[ax]), np.pad(faces, width).ravel()])


def interior_of(g, ax, face_array):
    """The interior faces along axis ax held by a flat face array."""
    s = g.stride[ax]
    return face_array[s:].reshape(g.n)[left(g, ax)]


def interior_face_gradients(g, values):
    """Normal gradient on every interior face, per axis."""
    return tuple((values[right(g, ax)] - values[left(g, ax)]) / g.h[ax] for ax in range(g.dim))


def padded_divergence(g, fluxes):
    """The divergence of interior-face fluxes written on zero-padded face
    arrays of the fluxes over h: each cell's outflow, then its inflow,
    added to zeros axis by axis."""
    out = np.zeros(g.n)
    for ax in range(g.dim):
        f = with_walls(g, ax, fluxes[ax] / g.h[ax])
        out += f[right(g, ax)]
        out -= f[left(g, ax)]
    return out


def slicing_fluxes(u, v, g, p, taxis):
    """Both species' fluxes over h on every interior face, from per-axis
    slices, in rhs's operation order on the undivided differences
    g = (u_R - u_L, v_R - v_L): per axis, the predator's
    (d1/h^2 + (chi/2h^2)(v_L + v_R)) g_u - (chi/h^2) F_donor g_v and the
    prey's (d2/h^2) g_v."""
    fluxes_u, fluxes_v = [], []
    mobility = taxis_mobility(u, p.eps)
    for ax in range(g.dim):
        lo, hi, h2 = left(g, ax), right(g, ax), g.h[ax] * g.h[ax]
        grad_u = u[hi] - u[lo]
        grad_v = v[hi] - v[lo]
        if taxis is TaxisScheme.UPWIND:
            drift = np.where(grad_v > 0, mobility[lo], mobility[hi])
        else:
            drift = taxis_mobility(0.5 * (u[lo] + u[hi]), p.eps)
        drift = drift * grad_v * (p.chi / h2)
        diffusion = ((v[lo] + v[hi]) * (0.5 * p.chi / h2) + p.d1 / h2) * grad_u
        fluxes_u.append(diffusion - drift)
        fluxes_v.append(grad_v * (p.d2 / h2))
    return fluxes_u, fluxes_v


def slicing_divergence(g, out, fluxes):
    """Add outflow minus inflow of interior-face fluxes over h to out in
    place, axis by axis: each cell's outflow, then its inflow.  The flat
    layout also adds the seam's 0.0 to each cell last along axis 1 but the
    last cell, which turns a -0.0 there into +0.0; so this does too."""
    for ax in range(g.dim):
        out[left(g, ax)] += fluxes[ax]
        if ax:
            out[:-1, -1] += 0.0
        out[right(g, ax)] -= fluxes[ax]


def slicing_rhs(u, v, g, p, taxis):
    """Time derivatives of (u, v) from per-axis slices: the reactions, then
    each field's flux divergence added onto them."""
    du, dv = reaction_rates(u, v, p)
    fluxes_u, fluxes_v = slicing_fluxes(u, v, g, p, taxis)
    slicing_divergence(g, du, fluxes_u)
    slicing_divergence(g, dv, fluxes_v)
    return du, dv


def unfused_rhs(u, v, g, p, taxis):
    """Time derivatives of (u, v) as first written: the divergence of the
    predator flux (d1 + chi v_face) grad u - chi F(u_face) grad v plus
    u (m1 - u + a v), and d2 times the divergence of grad v plus
    v (m2 - b u - v), each face difference over h; and, per field, the
    scale of the terms summed, the largest reaction plus twice the largest
    flux over h per axis.  Each scale adds the magnitudes of the terms
    before they are summed, since rounding scales with them: the diffusion
    and taxis parts of a flux, or u^2 and a u v in a reaction, can nearly
    cancel, leaving a sum far smaller than the errors of its parts."""
    ru, rv = u * (p.m1 - u + p.a * v), v * (p.m2 - p.b * u - v)
    div_u, div_v = np.zeros(g.n), np.zeros(g.n)
    scale_u = float((u * (abs(p.m1) + u + abs(p.a) * v)).max())
    scale_v = float((v * (abs(p.m2) + abs(p.b) * u + v)).max())
    for ax in range(g.dim):
        lo, hi, h = left(g, ax), right(g, ax), g.h[ax]
        drift = p.chi * ((v[hi] - v[lo]) / h)
        if taxis is TaxisScheme.UPWIND:
            u_face = np.where(drift > 0, u[lo], u[hi])
        else:
            u_face = 0.5 * (u[lo] + u[hi])
        v_face = 0.5 * (v[lo] + v[hi])
        diffusion = (p.d1 + p.chi * v_face) * ((u[hi] - u[lo]) / h)
        taxis_part = taxis_mobility(u_face, p.eps) * drift
        flux = diffusion - taxis_part
        grad_v = (v[hi] - v[lo]) / h
        for div, f in ((div_u, flux), (div_v, grad_v)):
            net = np.zeros(g.n)
            net[lo] = f
            net[hi] -= f
            div += net / h
        scale_u += 2.0 * float((np.abs(diffusion) + np.abs(taxis_part)).max()) / h
        scale_v += 2.0 * p.d2 * float(np.abs(grad_v).max()) / h
    return div_u + ru, p.d2 * div_v + rv, scale_u, scale_v


def per_field_step(u, v, g, p, taxis, dt):
    """One SSP-RK(STAGES, 2) step, each field updated on its own: STAGES
    forward-Euler substeps of dt/(STAGES - 1), then y + (u - y)/STAGES."""
    sub = dt / (STAGES - 1)
    u_new, v_new = u, v
    for _ in range(STAGES):
        du, dv = slicing_rhs(u_new, v_new, g, p, taxis)
        u_new = u_new + sub * du
        v_new = v_new + sub * dv
    return u_new + (u - u_new) / STAGES, v_new + (v - v_new) / STAGES


def written_step_bounds(u, v, g, p, jumps=True):
    """(positivity, accuracy) as dynamics.step_bounds was first written;
    jumps=False takes every donor-drift jump as 0, which makes positivity
    the ceiling advance gates it with."""
    v_max = float(v.max())
    rate_u = float(np.abs(p.m1 - u + p.a * v).max())
    react_v = float(np.abs(p.m2 - p.b * u - v).max())
    react = max(rate_u, react_v)
    rate_v = max(react_v, 2.0 * v_max - p.m2)
    for ax, h in enumerate(g.h):
        two_over_h2 = 2.0 / (h * h)
        jump = float(np.abs(np.diff(v, axis=ax)).max()) if jumps else 0.0
        rate_u += two_over_h2 * (p.d1 + p.chi * (v_max + jump))
        rate_v += two_over_h2 * p.d2
    rate = max(rate_u, rate_v)
    row_u = np.abs(p.m1 - 2.0 * u + p.a * v) + p.a * u
    row_v = p.b * v + np.abs(p.m2 - p.b * u - 2.0 * v)
    accuracy = STEP_ACCURACY / max(float(row_u.max()), float(row_v.max()), react)
    return STEP_SAFETY * ((STAGES - 1) / rate), accuracy
