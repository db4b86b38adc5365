"""Cell-centered finite-volume mesh and zero-flux spatial operators.

A Grid is a uniform axis-aligned box mesh in 1 or 2 dimensions.  Face
arrays hold the interior faces only, n - 1 along each axis, and
divergence_values gives the walls zero flux: that is the discrete
Neumann condition.  So discrete integrals of divergences telescope to
zero to rounding: the discrete divergence theorem holds by construction.
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
    "integrate_values",
    "face_gradient_values",
    "divergence_values",
    "laplacian_values",
    "gradient_sq_values",
    "write_snapshot",
    "read_snapshot",
]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on a box: n cells and physical length per axis."""

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
        if min(n) < 4:
            raise ValueError(f"each axis needs at least 4 cells (got {n})")
        object.__setattr__(self, "n", n)  # plain ints, whatever integer type came in
        for ell in self.length:
            if not (math.isfinite(ell) and ell > 0):
                raise ValueError(f"axis lengths must be finite and > 0 (got {self.length})")

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

    # Face layout: along each axis, face k separates cells k and k+1, so a
    # face array has one entry fewer than a cell array and no entry for
    # either wall.  On cell values, left/right pick the two cells of each
    # face.

    def _along(self, s: slice) -> tuple[tuple[slice, ...], ...]:
        return tuple(
            tuple(s if k == ax else slice(None) for k in range(self.dim)) for ax in range(self.dim)
        )

    @cached_property
    def left(self) -> tuple[tuple[slice, ...], ...]:
        """Per axis: index dropping the last entry along that axis."""
        return self._along(slice(None, -1))

    @cached_property
    def right(self) -> tuple[tuple[slice, ...], ...]:
        """Per axis: index dropping the first entry along that axis."""
        return self._along(slice(1, None))

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


def face_gradient_values(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Normal gradient on every interior face, per axis."""
    return tuple((values[grid.right[ax]] - values[grid.left[ax]]) / grid.h[ax] for ax in range(grid.dim))


def divergence_values(grid: Grid, fluxes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Outflow-minus-inflow per cell volume from interior-face fluxes; the
    walls carry zero flux, so the total telescopes to zero mass."""
    out = np.zeros(grid.n)
    for ax in range(grid.dim):
        net = np.zeros(grid.n)
        net[grid.left[ax]] = fluxes[ax]
        net[grid.right[ax]] -= fluxes[ax]
        out += net / grid.h[ax]
    return out


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Zero-flux Laplacian: divergence of the face gradients."""
    return divergence_values(grid, face_gradient_values(grid, values))


def gradient_sq_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Cell-centered |grad f|^2: per-axis mean of the two squared face
    gradients, a wall face counting as zero.

    Nonnegative by construction and exact for linear profiles away from
    the boundary.
    """
    out = np.zeros(grid.n)
    for ax, g in enumerate(face_gradient_values(grid, values)):
        sq = g ** 2
        pair = np.zeros(grid.n)
        pair[grid.left[ax]] = sq
        pair[grid.right[ax]] += sq
        out += 0.5 * pair
    return out


# --- snapshot format -------------------------------------------------------
# Plain text: first line "dim n1 [n2] length1 [length2] t", then one row of
# cell values per grid line (a single row in 1-D), space-separated,
# row-major, 17 significant digits.

def write_snapshot(f: Field, t: float, path) -> None:
    g = f.grid
    header = " ".join(
        [str(g.dim)]
        + [str(k) for k in g.n]
        + [f"{ell:.17g}" for ell in g.length]
        + [f"{t:.17g}"]
    )
    lines = [header]
    for row in f.values.reshape(-1, g.n[-1]):
        lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path) -> tuple[Field, float]:
    with open(path) as fh:
        lines = [line for line in (raw.strip() for raw in fh) if line]
    if not lines:
        raise ValueError(f"empty snapshot file: {path}")
    head = lines[0].split()
    dim = int(head[0])
    if dim not in (1, 2) or len(head) != 2 * dim + 2:
        raise ValueError(f"malformed snapshot header: {lines[0]!r}")
    n = tuple(int(tok) for tok in head[1 : 1 + dim])
    length = tuple(float(tok) for tok in head[1 + dim : 1 + 2 * dim])
    t = float(head[-1])
    grid = Grid(n, length)
    data = [[float(tok) for tok in line.split()] for line in lines[1:]]
    values = np.asarray(data)
    if values.shape != (math.prod(n[:-1]), n[-1]):
        raise ValueError(f"snapshot body {values.shape} does not match header {n}")
    return Field(grid, values.reshape(grid.n)), t
