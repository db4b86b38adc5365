"""Cell-centered finite-volume mesh and zero-flux spatial operators.

A Grid is a uniform axis-aligned box mesh in 1 or 2 dimensions.  The
kernels work on the flattened (C-order) cell values x, N cells in all.
Along axis ax cell k + s, s = Grid.stride[ax], follows cell k, so every
face difference along ax is one subtraction of contiguous slices,
x[s:] - x[:-s].  A face array along ax is flat, with N + s slots: slot
s + k holds the face between cells k and k + s.  The first s slots and
the "seams", the slots s + k of every cell k last along ax (the last s
slots among them), are walls and hold 0, the discrete Neumann
condition.  In 1-D and along axis 0 this is the zero-padded face array,
flattened.  So discrete integrals of divergences telescope to zero to
rounding: the discrete divergence theorem holds by construction.

The kernels also take a stack of L fields, values shaped lead + Grid.n
with L = prod(lead) (dynamics passes both species as one (2, *n)
array), as the L N cell values of the stack, flattened.  The face array
of a stack along ax is then one flat array of L N + s slots whose rows
share their wall slots: row r's faces are the contiguous slice
f[r N : (r + 1) N + s], bitwise that field's own face array, and the
seam rule above, over the stack's cells, is the one rule for every axis
(along axis 0 and in 1-D its seams are the walls the rows share and the
trailing wall).  So every pass of a kernel is one 1-D pass over
contiguous slices of the whole stack, each field gets the bits of its
own call, and the kernels write every wall and seam themselves.

A divergence is accumulated in place, one axis after the other: face
fluxes already divided by h are added to the cells before the faces
(x[:-s] += f[s:-s]) and taken from the cells after them
(x[s:] -= f[s:-s]); the seams among those slots hold 0 and move no
mass.  accumulate_divergence is that one accumulation: divergence_values
runs it from zero, and dynamics.rhs from the reaction terms.  A seam's
0 is added to the cell before it, so a cell last along an axis, but for
the last s cells of the stack, that would hold -0.0 gets +0.0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "MAX_AXIS_CELLS",
    "integrate_values",
    "face_gradient_values",
    "accumulate_divergence",
    "divergence_values",
    "laplacian_values",
    "gradient_sq_values",
    "write_snapshot",
    "read_snapshot",
]


MAX_AXIS_CELLS = 4096  # the stepper keeps an axis's dense DCT-II matrix and its transpose, 2 n^2 doubles: 256 MiB at 4096


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on a box: n cells, 4 to MAX_AXIS_CELLS,
    and physical length per axis."""

    n: tuple[int, ...]
    length: tuple[float, ...]

    def __post_init__(self):
        if len(self.n) not in (1, 2) or len(self.length) != len(self.n):
            raise ValueError(f"grid must be 1-D or 2-D with matching lengths (got {self.n}, {self.length})")
        try:
            if any(isinstance(k, bool) for k in self.n):
                raise TypeError
            n = tuple(operator.index(k) for k in self.n)
        except TypeError:
            raise ValueError(f"cell counts must be integers (got {self.n})") from None
        if min(n) < 4 or max(n) > MAX_AXIS_CELLS:
            raise ValueError(f"each axis needs at least 4 cells and at most MAX_AXIS_CELLS = {MAX_AXIS_CELLS} (got {n})")
        object.__setattr__(self, "n", n)  # plain ints, whatever integer type came in
        for ell in self.length:
            if not (math.isfinite(ell) and ell > 0):
                raise ValueError(f"axis lengths must be finite and > 0 (got {self.length})")
        for h in self.h:  # the stepper's largest DCT eigenvalue magnitude is 4/h^2
            if h * h == 0.0 or math.isinf(4.0 / (h * h)):
                raise ValueError(
                    f"each cell size h = length/n needs a finite 4/h^2, so h >= 1.5e-154 (got h = {h:.6g})")

    @staticmethod
    def uniform(dim: int, n: int, length: float) -> "Grid":
        """Convenience constructor: same cell count and extent on every axis."""
        return Grid((n,) * dim, (float(length),) * dim)

    @property
    def dim(self) -> int:
        return len(self.n)

    @cached_property
    def h(self) -> tuple[float, ...]:
        """Mesh spacing per axis."""
        return tuple(ell / k for ell, k in zip(self.length, self.n))

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.h)

    @cached_property
    def stride(self) -> tuple[int, ...]:
        """Per axis: the C-order distance between neighbouring cells along it."""
        return tuple(math.prod(self.n[ax + 1:]) for ax in range(self.dim))

    @property
    def volume(self) -> float:
        """Measure of the whole box."""
        return math.prod(self.length)

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.h[axis]
        return (np.arange(self.n[axis]) + 0.5) * h

    def meshcenters(self) -> list[np.ndarray]:
        """Cell-center coordinate arrays broadcastable to the cell shape."""
        return list(np.meshgrid(*(self.centers(ax) for ax in range(self.dim)), indexing="ij"))

    def field(self, values) -> "Field":
        """Wrap values (scalar or array) as a Field on this grid."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            arr = np.full(self.n, float(arr))
        return Field(self, arr.copy())


@dataclass(frozen=True)
class Field:
    """Cell-average values on a grid.  Treated as immutable by convention."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.n:
            raise ValueError(f"values shape {self.values.shape} does not match grid {self.grid.n}")
        if self.values.dtype != np.float64:
            object.__setattr__(self, "values", self.values.astype(np.float64))
        if not np.isfinite(self.values).all():
            raise ValueError("field values must all be finite")


# --- array kernels ---------------------------------------------------------

def integrate_values(grid: Grid, values: np.ndarray) -> float:
    """Discrete integral over the box (cell volume times sum)."""
    return grid.cell_volume * float(values.sum())


def face_gradient_values(grid: Grid, values: np.ndarray, out: tuple[np.ndarray, ...] | None = None,
                         over_h: bool = True) -> tuple[np.ndarray, ...]:
    """Normal gradient on every face, per axis, as flat face arrays of the
    stack values (see the module docstring), L N + s slots: zero on the
    walls and seams.  out, when given, holds a face array per axis of that
    size; the gradients are written into it, every wall and seam zeroed
    whatever it held, and out is returned.  With over_h false the face
    differences are left undivided, for a caller whose constants hold
    the 1/h."""
    x = values.reshape(-1)
    grads = out if out is not None else tuple(np.empty(x.size + s) for s in grid.stride)
    for s, n, h, f in zip(grid.stride, grid.n, grid.h, grads):
        np.subtract(x[s:], x[:-s], out=f[s:-s])
        # the walls and seams are the slots m with m mod (n s) < s; when
        # s is 1 they are one strided slice, 0.3 us against 1.1 us for the
        # 2-D view on a (2, 64) stack
        if s == 1:
            f[::n] = 0.0
        else:
            f[:-s].reshape(-1, n * s)[:, :s] = 0.0
            f[-s:] = 0.0
        if over_h:
            f /= h
    return grads


def accumulate_divergence(grid: Grid, out: np.ndarray, fluxes: tuple[np.ndarray, ...]) -> None:
    """Add outflow minus inflow to out, the flat L N cell values of a
    stack, in place, from its face-array fluxes already divided by their
    axis's h: per axis, each cell's outflow, then its inflow, two 1-D
    slice updates of the whole stack.  The walls and seams carry zero
    flux, so the total of each field telescopes to zero mass."""
    for f, s in zip(fluxes, grid.stride):
        inner = f[s:-s]
        out[:-s] += inner
        out[s:] -= inner


def divergence_values(grid: Grid, fluxes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Outflow-minus-inflow per cell volume from the face-array fluxes of
    a stack of L fields: each flux over its axis's h accumulated from 0.0
    (accumulate_divergence), so a cell whose only terms are -0.0 gets
    +0.0.  Shaped Grid.n for one field, (L, *Grid.n) for more."""
    out = np.zeros(fluxes[0].size - grid.stride[0])
    accumulate_divergence(grid, out, tuple(f / h for f, h in zip(fluxes, grid.h)))
    return out.reshape(grid.n if out.size == math.prod(grid.n) else (-1, *grid.n))


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Zero-flux Laplacian: divergence of the face gradients, shaped like
    values."""
    return divergence_values(grid, face_gradient_values(grid, values)).reshape(values.shape)


def gradient_sq_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Cell-centered |grad f|^2, shaped like values: per-axis mean of the
    two squared face gradients, a wall or seam face counting as zero.

    Nonnegative by construction and exact for linear profiles away from
    the boundary.
    """
    out = 0.0
    for g, s in zip(face_gradient_values(grid, values), grid.stride):
        sq = g ** 2
        out = out + 0.5 * (sq[s:] + sq[:-s])
    return out.reshape(values.shape)


# --- snapshot format -------------------------------------------------------
# Plain text: first line "dim n1 [n2] length1 [length2] t", then one row of
# cell values per grid line (a single row in 1-D), space-separated,
# row-major, 17 significant digits.

def write_snapshot(f: Field, t: float, path) -> None:
    """Write f at time t to path in the format above: the bytes
    np.savetxt(path, rows, fmt="%.17g", header=header, comments="")
    writes, formed by one %-format of every cell value."""
    g = f.grid
    header = " ".join(
        [str(g.dim)]
        + [str(k) for k in g.n]
        + [f"{ell:.17g}" for ell in g.length]
        + [f"{t:.17g}"]
    )
    row = " ".join(["%.17g"] * g.n[-1]) + "\n"
    body = row * (f.values.size // g.n[-1]) % tuple(f.values.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(header + "\n" + body)


def read_snapshot(path) -> tuple[Field, float]:
    with open(path) as fh:
        lines = [line for line in (raw.strip() for raw in fh) if line]
    if not lines:
        raise ValueError(f"empty snapshot file: {path}")
    head = lines[0].split()
    dim, t = int(head[0]), float(head[-1])
    if dim not in (1, 2) or len(head) != 2 * dim + 2 or not 0.0 <= t < math.inf:  # State's t rule
        raise ValueError(f"malformed snapshot header: {lines[0]!r}")
    n = tuple(int(tok) for tok in head[1 : 1 + dim])
    length = tuple(float(tok) for tok in head[1 + dim : 1 + 2 * dim])
    grid = Grid(n, length)
    # loadtxt warns on an empty body, which the shape check rejects anyway
    values = np.loadtxt(lines[1:], comments=None, ndmin=2) if len(lines) > 1 else np.empty(0)
    if values.shape != (math.prod(n[:-1]), n[-1]):
        raise ValueError(f"snapshot body {values.shape} does not match header {n}")
    return Field(grid, values.reshape(grid.n)), t
