"""Cell-centered grid, zero-flux difference kernels, snapshot files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from preytaxis import Field, Grid, read_snapshot, write_snapshot
from preytaxis.grid import (
    divergence_values,
    face_gradient_values,
    gradient_sq_values,
    integrate_values,
    laplacian_values,
)
from padded import (
    interior_face_gradients,
    interior_face_shape,
    interior_of,
    left,
    padded_divergence,
    right,
    to_face_array,
    with_walls,
)
from strategies import grids, positive_fields


def test_grid_geometry():
    g = Grid((4,), (2.0,))
    assert g.dim == 1
    assert g.h == (0.5,)
    assert g.cell_volume == 0.5
    assert g.volume == 2.0
    assert np.allclose(g.centers(0), [0.25, 0.75, 1.25, 1.75])

    g2 = Grid.uniform(2, 8, 4.0)
    assert g2.n == (8, 8)
    assert g2.volume == 16.0
    X, Y = g2.meshcenters()
    assert X.shape == (8, 8)
    assert X[1, 0] - X[0, 0] == pytest.approx(0.5)
    assert Y[0, 1] - Y[0, 0] == pytest.approx(0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((4, 4, 4), (1.0, 1.0, 1.0))  # only 1d/2d
    with pytest.raises(ValueError):
        Grid((3,), (1.0,))  # too coarse
    with pytest.raises(ValueError):
        Grid((8,), (-1.0,))
    with pytest.raises(ValueError):
        Grid((8,), (1.0, 1.0))  # rank mismatch
    for count in (True, 8.0, np.float64(8.0), "8", None):
        with pytest.raises(ValueError, match="must be integers"):
            Grid((count,), (1.0,))
    with pytest.raises(ValueError, match="at least 4 cells"):
        Grid((np.int64(3),), (1.0,))


def test_grid_accepts_any_integral_count():
    g = Grid((np.int64(8), np.int32(6)), (1.0, 1.0))
    assert g.n == (8, 6)
    assert all(type(k) is int for k in g.n)
    assert g == Grid((8, 6), (1.0, 1.0))
    assert Grid.uniform(1, np.int64(4), 1.0).n == (4,)


def test_field_validation():
    g = Grid.uniform(1, 8, 1.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros(7))
    with pytest.raises(ValueError):
        Field(g, np.full(8, np.nan))
    f = g.field(np.arange(8))
    assert f.values.dtype == np.float64


def test_integrate_constant_is_exact():
    g = Grid.uniform(2, 16, 3.0)
    assert integrate_values(g, np.ones(g.n)) == pytest.approx(9.0, rel=1e-15)


def interior_fluxes(g):
    """Random fluxes on the interior faces of every axis of g."""
    return st.tuples(*(
        arrays(np.float64, interior_face_shape(g, ax), elements=st.floats(-1e3, 1e3))
        for ax in range(g.dim)
    ))


def face_arrays(g, fluxes):
    """Interior-face fluxes of every axis in the flat face layout."""
    return tuple(to_face_array(g, ax, f) for ax, f in enumerate(fluxes))


def padded_gradient_sq(g, values):
    """|grad f|^2 written on zero-padded face gradients: the reference the
    flat face kernel must reproduce bitwise."""
    out = np.zeros(g.n)
    for ax, faces in enumerate(interior_face_gradients(g, values)):
        f = with_walls(g, ax, faces)
        out += 0.5 * (f[left(g, ax)] ** 2 + f[right(g, ax)] ** 2)
    return out


def test_face_gradient_linear_profile():
    """Face gradients of a linear profile are exact; the walls and, in 2-D,
    the seams of the flat layout hold 0."""
    g = Grid.uniform(1, 10, 2.0)
    (gx,) = face_gradient_values(g, 3.0 * g.centers(0) + 1.0)
    assert gx.shape == (11,)
    assert gx[0] == gx[-1] == 0.0
    assert np.allclose(gx[1:-1], 3.0, rtol=1e-13)

    g2 = Grid((5, 6), (2.0, 3.0))
    X, Y = g2.meshcenters()
    slopes = (3.0, -2.0)
    for ax, faces in enumerate(face_gradient_values(g2, slopes[0] * X + slopes[1] * Y)):
        s = g2.stride[ax]
        assert faces.shape == (30 + s,)
        assert np.allclose(interior_of(g2, ax, faces), slopes[ax], rtol=1e-13)
        assert faces.tobytes() == to_face_array(g2, ax, interior_of(g2, ax, faces)).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=grids())
def test_face_gradient_matches_slicing_bitwise_property(data, g):
    """Each axis's face array holds the interior-face gradients of the
    per-axis slices, bitwise, with zeros on the walls and seams."""
    values = data.draw(positive_fields(g))
    got = face_gradient_values(g, values)
    want = interior_face_gradients(g, values)
    assert len(got) == g.dim
    for ax in range(g.dim):
        assert got[ax].tobytes() == to_face_array(g, ax, want[ax]).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=grids(), lead=st.sampled_from(((), (2,))))
def test_face_gradient_into_face_arrays_holding_garbage_property(data, g, lead):
    """Written into face arrays whose walls hold 0 and whose other slots
    hold anything, NaN included, as a reused face array's do, the face
    gradients are the allocating call's byte for byte: the seams are
    zeroed again on every call."""
    values = data.draw(arrays(np.float64, lead + g.n, elements=st.floats(-1e3, 1e3)))
    garbage = st.floats(allow_nan=True, allow_infinity=True)
    out = []
    for s in g.stride:
        faces = np.zeros(lead + (math.prod(g.n) + s,))
        faces[..., s:-s] = data.draw(arrays(np.float64, faces[..., s:-s].shape, elements=garbage))
        out.append(faces)
    out = tuple(out)
    got = face_gradient_values(g, values, out=out)
    assert got is out
    for faces, want in zip(got, face_gradient_values(g, values)):
        assert faces.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=grids())
def test_stacked_kernels_are_the_single_field_kernels_row_by_row_property(data, g):
    """A (2, *n) stack of fields through each kernel gives, row by row, the
    bytes of the single-field calls: every row's walls and seams are 0."""
    field = arrays(np.float64, g.n, elements=st.floats(-1e3, 1e3))
    rows = [data.draw(field), data.draw(field)]
    stacked = np.stack(rows)
    for ax, faces in enumerate(face_gradient_values(g, stacked)):
        assert faces.shape == (2, math.prod(g.n) + g.stride[ax])
        for row, x in zip(faces, rows):
            assert row.tobytes() == face_gradient_values(g, x)[ax].tobytes()
    for kernel in (laplacian_values, gradient_sq_values):
        got = kernel(g, stacked)
        assert got.shape == (2,) + g.n
        for row, x in zip(got, rows):
            assert row.tobytes() == kernel(g, x).tobytes()
    fluxes = [data.draw(interior_fluxes(g)), data.draw(interior_fluxes(g))]
    got = divergence_values(g, tuple(map(np.stack, zip(*(face_arrays(g, f) for f in fluxes)))))
    assert got.shape == (2,) + g.n
    for row, f in zip(got, fluxes):
        assert row.tobytes() == divergence_values(g, face_arrays(g, f)).tobytes()


def test_divergence_telescopes_to_zero_mass():
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        g = Grid.uniform(dim, 12, 1.5)
        fluxes = tuple(rng.normal(size=interior_face_shape(g, ax)) for ax in range(dim))
        div = divergence_values(g, face_arrays(g, fluxes))
        assert abs(integrate_values(g, div)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data(), g=grids())
def test_divergence_telescopes_to_zero_mass_property(data, g):
    """Random interior-face fluxes: the divergence integrates to zero up to
    rounding in the face fluxes it sums."""
    fluxes = data.draw(interior_fluxes(g))
    scale = sum(2.0 * g.cell_volume / g.h[ax] * float(np.abs(fx).sum()) for ax, fx in enumerate(fluxes))
    div = divergence_values(g, face_arrays(g, fluxes))
    assert abs(integrate_values(g, div)) <= 1e-13 * scale


def test_divergence_of_minus_zero_fluxes_is_plus_zero():
    """The sum starts from 0.0, as the padded reference's zero array does:
    a cell whose every flux difference is -0.0 gets +0.0."""
    for dim in (1, 2):
        g = Grid.uniform(dim, 4, 1.0)
        fluxes = tuple(np.zeros(interior_face_shape(g, ax)) for ax in range(dim))
        for f in fluxes:
            f.flat[0] = -0.0
        div = divergence_values(g, face_arrays(g, fluxes))
        assert div.tobytes() == padded_divergence(g, fluxes).tobytes() == np.zeros(g.n).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=grids())
def test_divergence_matches_padded_faces_bitwise_property(data, g):
    fluxes = data.draw(interior_fluxes(g))
    assert divergence_values(g, face_arrays(g, fluxes)).tobytes() == padded_divergence(g, fluxes).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=grids())
def test_gradient_sq_matches_padded_faces_bitwise_property(data, g):
    values = data.draw(positive_fields(g))
    assert gradient_sq_values(g, values).tobytes() == padded_gradient_sq(g, values).tobytes()


def test_laplacian_cosine_eigenmode():
    # cos(k pi x / L) is an exact eigenvector of the discrete operator
    g = Grid.uniform(1, 64, 1.0)
    h = g.h[0]
    for k in (1, 3):
        f = np.cos(k * np.pi * g.centers(0))
        lam = -(2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))
        assert np.max(np.abs(laplacian_values(g, f) - lam * f)) < 1e-10

    g2 = Grid.uniform(2, 24, 2.0)
    X, Y = g2.meshcenters()
    f2 = np.cos(np.pi * X / 2.0) * np.cos(np.pi * Y / 2.0)
    h2 = g2.h[0]
    lam2 = -2.0 * (2.0 / h2**2) * (1.0 - np.cos(np.pi * h2 / 2.0))
    assert np.max(np.abs(laplacian_values(g2, f2) - lam2 * f2)) < 1e-10


def test_laplacian_of_constant_is_zero():
    g = Grid.uniform(2, 8, 1.0)
    assert np.all(laplacian_values(g, np.full(g.n, 4.2)) == 0.0)


def test_gradient_sq_linear_profile():
    g = Grid.uniform(1, 6, 3.0)
    gsq = gradient_sq_values(g, 2.0 * g.centers(0))
    # interior cells average two faces with slope 2; boundary cells see one zero face
    assert np.allclose(gsq[1:-1], 4.0, rtol=1e-13)
    assert np.allclose(gsq[[0, -1]], 2.0, rtol=1e-13)


def test_divergence_of_face_gradient_matches_laplacian():
    rng = np.random.default_rng(11)
    g = Grid.uniform(2, 10, 1.0)
    f = rng.uniform(0.5, 2.0, size=g.n)
    via_div = divergence_values(g, face_gradient_values(g, f))
    assert np.allclose(via_div, laplacian_values(g, f), rtol=1e-12, atol=1e-12)


def test_snapshot_roundtrip_1d(tmp_path):
    g = Grid.uniform(1, 9, 2.5)
    rng = np.random.default_rng(3)
    f = g.field(rng.lognormal(size=g.n))
    path = tmp_path / "field.txt"
    write_snapshot(f, 1.25, path)
    back, t = read_snapshot(path)
    assert t == 1.25
    assert back.grid.n == g.n
    assert back.grid.length == g.length
    assert np.array_equal(back.values, f.values)  # 17 digits round-trips exactly


def test_snapshot_roundtrip_2d(tmp_path):
    g = Grid((6, 4), (1.0, 3.0))
    rng = np.random.default_rng(5)
    f = g.field(rng.normal(size=g.n) ** 2 + 0.1)
    path = tmp_path / "field2d.txt"
    write_snapshot(f, 0.0, path)
    back, t = read_snapshot(path)
    assert t == 0.0
    assert back.grid.n == (6, 4)
    assert back.grid.length == (1.0, 3.0)
    assert np.array_equal(back.values, f.values)
    # one header line plus one line per first-axis row
    assert len(path.read_text().strip().splitlines()) == 7


@settings(max_examples=50, deadline=None)
@given(data=st.data(), g=grids(), t=st.floats(0.0, 1e6))
def test_snapshot_roundtrip_property(tmp_path_factory, data, g, t):
    values = data.draw(positive_fields(g, low=1e-300, high=1e300))
    path = tmp_path_factory.mktemp("snap") / "field.txt"
    write_snapshot(g.field(values), t, path)
    back, t_back = read_snapshot(path)
    assert t_back == t
    assert back.grid.n == g.n
    assert back.grid.length == g.length
    assert back.values.tobytes() == values.tobytes()


def test_snapshot_header_format(tmp_path):
    g = Grid.uniform(1, 4, 1.0)
    path = tmp_path / "s.txt"
    write_snapshot(g.field(np.ones(4)), 0.5, path)
    header = path.read_text().splitlines()[0].split()
    assert header == ["1", "4", "1", "0.5"]


def test_read_snapshot_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_snapshot(path)


@pytest.mark.filterwarnings("error")  # a header-only file must not warn from np.loadtxt
@pytest.mark.parametrize(
    "text, match",
    [
        ("1 4 1\n1 2 3 4\n", "malformed snapshot header"),
        ("3 4 4 4 1 1 1 0\n" + "1 2 3 4\n" * 16, "malformed snapshot header"),
        ("2 4 4 1 1 0\n", "does not match header"),
        ("2 4 4 1 1 0\n" + "1 2 3 4\n" * 3 + "1 2 3\n", None),
        ("2 4 4 1 1 0\n" + "1 2 3 4\n" * 3, "does not match header"),
        ("1 4 1 0\n1 x 3 4\n", None),
        ("1 4 1 0\n1 2 3 4 # 5\n", None),
        ("1 4 1 nan\n1 2 3 4\n", "malformed snapshot header"),
        ("1 4 1 inf\n1 2 3 4\n", "malformed snapshot header"),
        ("1 4 1 -5\n1 2 3 4\n", "malformed snapshot header"),
    ],
    ids=["header-token-count", "dim-3", "header-only", "ragged-row", "row-count", "non-numeric", "comment-mark",
         "time-nan", "time-inf", "time-negative"],
)
def test_read_snapshot_rejects_malformed_input(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_snapshot(path)
