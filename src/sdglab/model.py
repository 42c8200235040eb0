"""Game data: action sets, domain, coefficients, standing-assumption checks.

A :class:`GameProblem` bundles the coefficient tables sigma/b/c/f over a
pair of finite ordered action sets, the terminal cost g, a bounded domain,
and the regularity constants.  :func:`validate_problem` checks the
uniform-ellipticity, boundedness and Lipschitz assumptions numerically on
a grid and reports worst-case margin values instead of proving anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import MatrixField, ScalarField, VectorField

__all__ = [
    "ActionSets",
    "DomainSpec",
    "GameProblem",
    "ValidationReport",
    "validate_problem",
]


@dataclass(frozen=True)
class ActionSets:
    """Finite ordered action sets for the two players.

    ``a2_labels`` holds the extra curvature-penalty actions used by the
    penalized solver; they are appended after the regular first-player
    actions and must not collide with them.  The ordering is fixed because
    the least-index tie-break of the selectors depends on it.
    """

    a_labels: tuple[str, ...]
    b_labels: tuple[str, ...]
    a2_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.a_labels or not self.b_labels:
            raise ValueError("action sets must be nonempty")
        if set(self.a_labels) & set(self.a2_labels):
            raise ValueError("penalty actions must be disjoint from player-one actions")

    @property
    def n_alpha(self) -> int:
        return len(self.a_labels)

    @property
    def n_beta(self) -> int:
        return len(self.b_labels)

    @property
    def n_alpha2(self) -> int:
        return len(self.a2_labels)


@dataclass(frozen=True)
class DomainSpec:
    """Bounded domain: an axis-aligned box (interval in 1-D) or a ball."""

    shape: str  # "box" or "ball"
    dimension: int
    lower: tuple[float, ...] = ()
    upper: tuple[float, ...] = ()
    center: tuple[float, ...] = ()
    radius: float = 0.0
    _bounds: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)  # corners or center

    def __post_init__(self):
        if self.shape not in ("box", "ball"):
            raise ValueError(f"unknown domain shape {self.shape!r}")
        if self.shape == "box":
            lo, up = np.asarray(self.lower, float), np.asarray(self.upper, float)
            if lo.shape != (self.dimension,) or up.shape != (self.dimension,):
                raise ValueError("box corners must match the dimension")
            if not np.all(np.isfinite(lo) & np.isfinite(up)):
                raise ValueError(f"box corners must be finite, got {self.lower} and {self.upper}")
            if not np.all(up > lo):
                raise ValueError("box must have nonempty interior")
            object.__setattr__(self, "_bounds", (lo, up))
        else:
            c = np.asarray(self.center, float)
            if c.shape != (self.dimension,) or not (np.all(np.isfinite(c)) and 0 < self.radius < math.inf):
                raise ValueError("ball needs a finite center of matching dimension and a finite radius > 0")
            object.__setattr__(self, "_bounds", (c,))

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Strict interior membership, vectorized over rows of ``x``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.shape == "box":
            lo, up = self._bounds
            return ((x > lo) & (x < up)).all(axis=1)
        (c,) = self._bounds
        return np.sum((x - c) ** 2, axis=1) < self.radius**2

    def boundary_distance(self, x: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary: positive inside, negative outside."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.shape == "box":
            lo, up = self._bounds
            dist = np.minimum(x - lo, up - x)
            return dist[:, 0] if self.dimension == 1 else dist.min(axis=1)
        (c,) = self._bounds
        return self.radius - np.sqrt(np.sum((x - c) ** 2, axis=1))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.shape == "box":
            return np.asarray(self.lower, float), np.asarray(self.upper, float)
        c = np.asarray(self.center, float)
        return c - self.radius, c + self.radius


@dataclass(frozen=True)
class GameProblem:
    """Coefficients sigma/b/c/f keyed by (alpha index, beta index), plus g.

    ``sigma[ia][ib]`` is a d x d1 MatrixField, ``b[ia][ib]`` a d-VectorField,
    ``c[ia][ib]`` and ``f[ia][ib]`` ScalarFields; the alpha index runs over
    the regular actions followed by any penalty actions (whose entries must
    not depend on beta or x).
    """

    actions: ActionSets
    domain: DomainSpec
    sigma: tuple[tuple[MatrixField, ...], ...]
    b: tuple[tuple[VectorField, ...], ...]
    c: tuple[tuple[ScalarField, ...], ...]
    f: tuple[tuple[ScalarField, ...], ...]
    g: ScalarField
    K0: float
    delta: float
    delta1: float = 0.5
    K1: float = 1.0
    d: int = 1
    d1: int = 1

    def __post_init__(self):
        if self.d1 < self.d:
            raise ValueError("noise dimension d1 must be at least the state dimension d")
        if not (0 < self.delta <= 1):
            raise ValueError("ellipticity constant delta must lie in (0, 1]")
        if not (0 < self.delta1 <= 1):
            raise ValueError("time-change constant delta1 must lie in (0, 1]")
        na = self.actions.n_alpha + self.actions.n_alpha2
        nb = self.actions.n_beta
        for table, name in ((self.sigma, "sigma"), (self.b, "b"), (self.c, "c"), (self.f, "f")):
            if len(table) != na or any(len(row) != nb for row in table):
                raise ValueError(f"coefficient table {name} must be {na} x {nb}")

    @property
    def n_alpha(self) -> int:
        """Regular first-player actions (penalty actions excluded)."""
        return self.actions.n_alpha

    @property
    def n_alpha_ext(self) -> int:
        return self.actions.n_alpha + self.actions.n_alpha2

    @property
    def n_beta(self) -> int:
        return self.actions.n_beta


@dataclass
class ValidationReport:
    """The worst-case margin of each standing assumption, nonnegative = pass."""

    ellipticity_lower_margin: float  # min eig(a) - delta over all samples
    ellipticity_upper_margin: float  # 1/delta - max eig(a)
    bound_margin: float  # K0 - max(|sigma|, |b|, |c|, |f|)
    lipschitz_margin: float  # K0 - max finite-difference quotient of sigma, b
    discount_margin: float  # min c
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.ellipticity_lower_margin >= 0
            and self.ellipticity_upper_margin >= 0
            and self.bound_margin >= 0
            and self.lipschitz_margin >= 0
            and self.discount_margin >= 0
        )

    def summary(self) -> str:
        lines = [
            f"ellipticity lower margin : {self.ellipticity_lower_margin:+.6g}",
            f"ellipticity upper margin : {self.ellipticity_upper_margin:+.6g}",
            f"bound (K0) margin        : {self.bound_margin:+.6g}",
            f"Lipschitz (K0) margin    : {self.lipschitz_margin:+.6g}",
            f"discount sign margin     : {self.discount_margin:+.6g}",
            f"result                   : {'PASS' if self.passed else 'FAIL'}",
        ]
        lines.extend(self.messages)
        return "\n".join(lines)


def validate_problem(problem: GameProblem, grid) -> ValidationReport:
    """Check the standing assumptions on the nodes of ``grid``.

    A violation is reported as a negative margin, not raised; only
    structural errors (empty grid) raise.
    """
    pts = grid.coords
    if len(pts) == 0:
        raise ValueError("sample grid is empty")
    ell_lo = math.inf
    ell_hi = math.inf
    bound = math.inf
    lip = math.inf
    cmin = math.inf
    messages: list[str] = []
    # finite-difference neighbors along axis 0 for the Lipschitz quotient
    h = float(np.min(grid.spacing))
    shifted = pts.copy()
    shifted[:, 0] += h
    for ia in range(problem.n_alpha_ext):
        for ib in range(problem.n_beta):
            s = problem.sigma[ia][ib](pts)
            a = 0.5 * np.einsum("nij,nkj->nik", s, s)
            eigs = np.linalg.eigvalsh(a)
            ell_lo = min(ell_lo, float(eigs.min() - problem.delta))
            ell_hi = min(ell_hi, float(1.0 / problem.delta - eigs.max()))
            bv = problem.b[ia][ib](pts)
            cv = problem.c[ia][ib](pts)
            fv = problem.f[ia][ib](pts)
            snorm = np.sqrt(np.einsum("nij,nij->n", s, s))
            worst = max(
                float(snorm.max()),
                float(np.linalg.norm(bv, axis=1).max()),
                float(np.abs(cv).max()),
                float(np.abs(fv).max()),
            )
            bound = min(bound, problem.K0 - worst)
            cmin = min(cmin, float(cv.min()))
            s2 = problem.sigma[ia][ib](shifted)
            b2 = problem.b[ia][ib](shifted)
            ds = np.sqrt(np.einsum("nij,nij->n", s2 - s, s2 - s))
            db = np.linalg.norm(b2 - bv, axis=1)
            quot = float(((ds + db) / h).max())
            lip = min(lip, problem.K0 - quot)
    if ell_lo < 0:
        messages.append("ellipticity violated: min eigenvalue of a below delta")
    if bound < 0:
        messages.append("coefficient bound K0 exceeded")
    if lip < 0:
        messages.append("Lipschitz quotient of sigma/b exceeds K0")
    if cmin < 0:
        messages.append("discount rate c is negative somewhere")
    return ValidationReport(ell_lo, ell_hi, bound, lip, cmin, messages)
