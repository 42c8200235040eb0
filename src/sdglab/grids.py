"""Lattice discretization of the domain and grid functions on it.

The grid is the full tensor lattice of the domain's bounding box; nodes
are classified as interior (inside the domain with all axis neighbors in
the closure), boundary (in the closure but not interior; these carry the
Dirichlet data), or outside.  For boxes the lattice is aligned with the
faces, so boundary nodes sit exactly on the boundary; for balls they sit
within one spacing of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import DomainSpec

__all__ = ["DomainGrid", "ValueField", "write_csv"]


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row as one comma-joined line.

    A string cell is written as it is and any number as ``%.17g``, so a
    float reads back to the same double and a run's CSVs are reproducible
    byte for byte.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\n")


@dataclass(frozen=True)
class DomainGrid:
    domain: DomainSpec
    origin: np.ndarray  # (d,)
    spacing: np.ndarray  # (d,)
    lattice_shape: tuple[int, ...]
    coords: np.ndarray  # (N, d) over the full lattice
    in_closure: np.ndarray  # (N,) bool
    interior: np.ndarray  # (N,) bool
    boundary: np.ndarray  # (N,) bool
    strides: tuple[int, ...]
    _lookup: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)  # last nodes, strides

    def __post_init__(self):
        for arr in (self.origin, self.spacing, self.coords, self.in_closure, self.interior, self.boundary):
            arr.flags.writeable = False  # so that neither _lookup nor the stencil layout goes stale
        object.__setattr__(self, "_lookup", (np.subtract(self.lattice_shape, 1.0), np.asarray(self.strides)))

    @staticmethod
    def build(domain: DomainSpec, h: float) -> "DomainGrid":
        """Uniform lattice with spacing snapped so the box divides evenly."""
        if not 0 < h < np.inf:
            raise ValueError(f"grid spacing must be finite and positive, got {h}")
        lo, up = domain.bounding_box()
        d = domain.dimension
        counts = np.maximum(np.round((up - lo) / h).astype(int), 2)
        spacing = (up - lo) / counts
        shape = tuple(int(c) + 1 for c in counts)
        axes = [lo[i] + spacing[i] * np.arange(shape[i]) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        tol = 1e-9 * float(np.min(spacing))
        dist = domain.boundary_distance(coords)
        in_closure = dist >= -tol
        strides = tuple(int(s) for s in np.cumprod((1,) + shape[:0:-1])[::-1])
        # interior: inside, off the lattice's faces, with both neighbors along each axis in the closure
        core, closure = (slice(1, -1),) * d, in_closure.reshape(shape)
        interior = np.zeros(shape, dtype=bool)
        interior[core] = (dist > tol).reshape(shape)[core]
        for i in range(d):
            interior[core] &= closure[core[:i] + (slice(2, None),) + core[i + 1:]]
            interior[core] &= closure[core[:i] + (slice(None, -2),) + core[i + 1:]]
        interior = interior.ravel()
        boundary = in_closure & ~interior
        return DomainGrid(
            domain=domain,
            origin=lo,
            spacing=spacing,
            lattice_shape=shape,
            coords=coords,
            in_closure=in_closure,
            interior=interior,
            boundary=boundary,
            strides=strides,
        )

    @property
    def d(self) -> int:
        return self.domain.dimension

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def interior_idx(self) -> np.ndarray:
        return np.flatnonzero(self.interior)

    @property
    def boundary_idx(self) -> np.ndarray:
        return np.flatnonzero(self.boundary)

    def axis_neighbors(self, idx: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of the +/- neighbors along ``axis`` (valid on interior)."""
        return idx + self.strides[axis], idx - self.strides[axis]

    def diagonal_neighbors(self, idx: np.ndarray, ax_i: int, ax_j: int):
        """The four diagonal neighbors (++, --, +-, -+) in the (i, j) plane."""
        si, sj = self.strides[ax_i], self.strides[ax_j]
        return idx + si + sj, idx - si - sj, idx + si - sj, idx - si + sj

    @cached_property
    def stencil(self) -> tuple:
        """The monotone stencil on the interior nodes, laid out at the first assembly on this grid and
        kept, read-only: ``(idx, cols, off, off_nodes, inner, kl, ku, band_flat)``.  Row k of ``cols`` is
        node ``idx[k]``, its 2d axis neighbors, then the (++, --, +-, -+) neighbors of each coordinate
        plane; a slot in ``off`` reaches a node of ``off_nodes`` off the closure, where a grid function is
        NaN, and reads ``idx[k]`` instead.  ``inner`` marks interior columns; ``band_flat`` places them in
        LAPACK band storage of half-bandwidths ``kl`` (below the diagonal) and ``ku``: 2 kl + ku + 1 rows,
        entry (i, j) at row kl + ku + i - j of column j, flattened in Fortran order.
        """
        idx = self.interior_idx
        axes = [n for i in range(self.d) for n in self.axis_neighbors(idx, i)]
        planes = [n for i in range(self.d) for j in range(i + 1, self.d) for n in self.diagonal_neighbors(idx, i, j)]
        cols = np.stack([idx, *axes, *planes], axis=1)
        off = ~self.in_closure[cols]
        off_nodes, cols = cols[off], np.where(off, idx[:, None], cols)
        pos = np.full(self.n_nodes, -1)
        pos[idx] = np.arange(len(idx))
        inner = pos[cols]
        i, j = np.nonzero(inner >= 0)[0], inner[inner >= 0]
        kl, ku = int(np.max(i - j, initial=0)), int(np.max(j - i, initial=0))
        layout = (idx, cols, off, off_nodes, inner >= 0, kl, ku, kl + ku + i - j + (2 * kl + ku + 1) * j)
        for arr in layout[:5] + layout[7:]:
            arr.flags.writeable = False
        return layout

    def nearest_node(self, x: np.ndarray) -> np.ndarray:
        """Flat index of the nearest lattice node, clipped to the lattice."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        last, strides = self._lookup
        k = np.rint((x - self.origin) / self.spacing)
        # clipped in float, where a NaN coordinate reads node 0
        k = np.fmin(np.fmax(k, 0.0, out=k), last, out=k).astype(int)
        return k[:, 0] if strides.size == 1 else k @ strides


@dataclass
class ValueField:
    """Scalar grid function; NaN on lattice nodes outside the closure."""

    grid: DomainGrid
    values: np.ndarray  # (N,)

    @staticmethod
    def zeros(grid: DomainGrid) -> "ValueField":
        v = np.full(grid.n_nodes, np.nan)
        v[grid.in_closure] = 0.0
        return ValueField(grid, v)

    @staticmethod
    def from_function(grid: DomainGrid, fn) -> "ValueField":
        v = np.full(grid.n_nodes, np.nan)
        mask = grid.in_closure
        v[mask] = fn(grid.coords[mask])
        return ValueField(grid, v)

    def interpolate(self, x: np.ndarray) -> np.ndarray:
        """Multilinear interpolation on the clipped lattice cell; a cell with a masked corner
        reads its heaviest unmasked corner, and one with every corner masked reads NaN.
        """
        g = self.grid
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != g.d:
            raise ValueError(f"points have {x.shape[1]} coordinates, not the grid's {g.d}")
        t = (x - g.origin) / g.spacing
        # clipped in float before the cast, as a far or NaN coordinate has no int
        base = np.fmin(np.fmax(np.floor(t), 0.0), np.subtract(g.lattice_shape, 2)).astype(int)
        frac = np.clip(t - base, 0.0, 1.0)
        out = np.zeros(x.shape[0])
        bad = np.zeros(x.shape[0], dtype=bool)
        best_w = np.full(x.shape[0], -1.0)  # heaviest unmasked corner
        best_val = np.full(x.shape[0], np.nan)
        for corner in range(1 << g.d):
            w = np.ones(x.shape[0])
            flat = np.zeros(x.shape[0], dtype=int)
            for i in range(g.d):
                bit = (corner >> i) & 1
                w *= frac[:, i] if bit else 1.0 - frac[:, i]
                flat += (base[:, i] + bit) * g.strides[i]
            vals = self.values[flat]
            ok = ~np.isnan(vals)
            bad |= ~ok & (w > 0)
            improve = ok & (w > best_w)
            best_w[improve] = w[improve]
            best_val[improve] = vals[improve]
            out += np.where(ok, vals, 0.0) * w
        out[bad] = best_val[bad]
        return out

    def sup_diff(self, other: "ValueField") -> float:
        mask = self.grid.in_closure
        return float(np.max(np.abs(self.values[mask] - other.values[mask])))

    def to_csv(self, path) -> None:
        g = self.grid
        mask = g.in_closure
        header = [f"x{i + 1}" for i in range(g.d)] + ["value"]
        write_csv(path, header, np.concatenate([g.coords[mask], self.values[mask, None]], axis=1))
