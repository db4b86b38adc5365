"""Hypothesis strategies shared by the property tests: small 1-D/2-D grids,
square 2-D grids, and positive fields on them."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from preytaxis import Grid


@st.composite
def grids(draw):
    """A 1-D or 2-D grid of 4-12 cells per axis and side lengths in [0.5, 3]."""
    dim = draw(st.sampled_from((1, 2)))
    n = tuple(draw(st.integers(4, 12)) for _ in range(dim))
    length = tuple(draw(st.floats(0.5, 3.0)) for _ in range(dim))
    return Grid(n, length)


def square_grids():
    """A 2-D grid of grids()' cell counts and side lengths, both axes
    alike: a square box of square cells."""
    return grids().filter(lambda g: g.dim == 2).map(lambda g: Grid((g.n[0],) * 2, (g.length[0],) * 2))


def positive_fields(grid, low=1e-3, high=1e3):
    return arrays(np.float64, grid.n, elements=st.floats(low, high))
