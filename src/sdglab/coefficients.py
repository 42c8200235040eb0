"""Parametric coefficient families.

Coefficients of the game (diffusion, drift, discount, running cost,
terminal cost) are built from a small set of closed-form scalar families
rather than arbitrary user callables, so that problems are fully
described by a config file and runs are bit-reproducible.

Families:
    const:v          -> v
    affine:c0,c1,... -> c0 + c1*x^1 + c2*x^2 + ...
    sin:s,amp,freq   -> s * (1 + amp * sin(freq * x^1))
    holder:c0,amp,exponent[,center] -> c0 + amp * |x^1 - center|^exponent

Scalar specs may add families with " + " (spaces required), e.g.
``affine:0.8,-1.2 + holder:0,-6,0.4,0.5``.  All fields evaluate
vectorized on arrays of points with shape (n, d).  A field checks its
parameters when it is made; its ``shape`` is that of one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalarField",
    "SumField",
    "VectorField",
    "MatrixField",
    "parse_scalar",
    "parse_vector",
    "parse_matrix",
    "const_scalar",
    "const_vector",
    "const_matrix",
]


# family -> the fewest and most parameters it takes, and their names
_FAMILIES = {
    "const": (1, 1, "v"),
    "affine": (1, math.inf, "c0[,c1,...]"),
    "sin": (3, 3, "scale,amplitude,frequency"),
    "holder": (3, 4, "c0,amplitude,exponent[,center]"),
}


@dataclass(frozen=True)
class ScalarField:
    """One scalar coefficient, one of the closed-form families above."""

    kind: str
    params: tuple = ()
    shape = ()

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown coefficient family {self.kind!r}")
        fewest, most, names = _FAMILIES[self.kind]
        if not fewest <= len(self.params) <= most:
            raise ValueError(f"{self.kind} takes {names}, got {self.params}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points ``x`` of shape (n, d); returns shape (n,)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        n = x.shape[0]
        if self.kind == "const":
            return np.full(n, self.params[0])
        if self.kind == "affine":
            c0 = self.params[0]
            coeffs = np.asarray(self.params[1:], dtype=float)
            k = min(len(coeffs), x.shape[1])
            return c0 + x[:, :k] @ coeffs[:k]
        if self.kind == "sin":
            s, amp, freq = self.params
            return s * (1.0 + amp * np.sin(freq * x[:, 0]))
        c0, amp, expo = self.params[:3]  # holder
        center = self.params[3] if len(self.params) > 3 else 0.5
        return c0 + amp * np.abs(x[:, 0] - center) ** expo

    @property
    def is_constant(self) -> bool:
        return self.kind == "const"


@dataclass(frozen=True)
class SumField:
    """Pointwise sum of scalar fields; same evaluation protocol."""

    parts: tuple[ScalarField, ...]
    shape = ()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.parts[0](x)
        for p in self.parts[1:]:
            out = out + p(x)
        return out

    @property
    def is_constant(self) -> bool:
        return all(p.is_constant for p in self.parts)


@dataclass(frozen=True)
class VectorField:
    """A d-vector of scalar fields (used for the drift b)."""

    entries: tuple[ScalarField, ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Shape (n, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.stack([e(x) for e in self.entries], axis=1)

    @property
    def shape(self) -> tuple[int]:
        return (len(self.entries),)

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for e in self.entries)


@dataclass(frozen=True)
class MatrixField:
    """A d x d1 matrix of scalar fields (used for the diffusion sigma)."""

    entries: tuple[tuple[ScalarField, ...], ...]  # rows

    def __post_init__(self):
        if len({len(row) for row in self.entries}) != 1:
            raise ValueError("ragged matrix coefficient")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Shape (n, d, d1)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rows = [np.stack([e(x) for e in row], axis=1) for row in self.entries]
        return np.stack(rows, axis=1)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for row in self.entries for e in row)


def parse_scalar(text: str):
    """Parse ``family:p1,p2,...`` into a scalar field.

    A bare number is shorthand for ``const:number``; terms joined with
    " + " produce a SumField.
    """
    text = text.strip()
    if " + " in text:
        return SumField(tuple(parse_scalar(t) for t in text.split(" + ")))
    if ":" not in text:
        return ScalarField("const", (float(text),))
    kind, _, rest = text.partition(":")
    return ScalarField(kind.strip().lower(), tuple(float(p) for p in rest.split(",") if p.strip()))


def parse_vector(text: str) -> VectorField:
    """Parse semicolon-separated scalar specs into a VectorField."""
    return VectorField(tuple(parse_scalar(p) for p in text.split(";")))


def parse_matrix(text: str) -> MatrixField:
    """Parse rows separated by ``|``, entries by ``;`` into a MatrixField."""
    return MatrixField(tuple(tuple(parse_scalar(p) for p in row.split(";")) for row in text.split("|")))


def const_scalar(v: float) -> ScalarField:
    return ScalarField("const", (float(v),))


def const_vector(v) -> VectorField:
    return VectorField(tuple(const_scalar(vi) for vi in np.atleast_1d(v)))


def const_matrix(m) -> MatrixField:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return MatrixField(tuple(tuple(const_scalar(v) for v in row) for row in m))
