"""Game data: action sets, domain, coefficients, standing-assumption checks.

A :class:`GameProblem` bundles the coefficient tables sigma/b/c/f over a
pair of finite ordered action sets, the terminal cost g, a bounded domain,
and the regularity constants.  Each rule about this data is checked once,
when the object that holds the data is made, so the config loader only
parses: a coefficient field checks its family and parameter count,
:class:`ActionSets` its labels, :class:`DomainSpec` its shape and bounds,
and :class:`GameProblem` its constants, its noise dimension (d by default)
and the shape of each coefficient.  :func:`validate_problem` checks the
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
    lower: tuple[float, ...] | None = None  # a box's corners
    upper: tuple[float, ...] | None = None
    center: tuple[float, ...] | None = None  # a ball's
    radius: float | None = None
    _bounds: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)  # corners or center

    def __post_init__(self):
        if self.shape not in ("box", "ball"):
            raise ValueError(f"unknown domain shape {self.shape!r}")
        for name in ("center", "radius") if self.shape == "box" else ("lower", "upper"):
            if getattr(self, name) is not None:  # that shape would store it unread
                raise ValueError(f"{name} does not apply to shape {self.shape!r}")
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
            if c.shape != (self.dimension,) or not (np.all(np.isfinite(c)) and 0 < (self.radius or 0) < math.inf):
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

    ``sigma[ia][ib]`` is a d x d1 MatrixField for d = ``domain.dimension``,
    ``b[ia][ib]`` a d-VectorField, ``c[ia][ib]``, ``f[ia][ib]`` and ``g``
    scalar fields; the alpha index runs over the regular actions followed by
    any penalty actions (whose entries must not depend on beta or x).  The
    noise dimension ``d1`` defaults to d.
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
    d1: int | None = None

    def __post_init__(self):
        if self.d1 is None:
            object.__setattr__(self, "d1", self.d)
        if self.d1 < self.d:
            raise ValueError("noise dimension d1 must be at least the state dimension d")
        if not 0 < self.K0 < math.inf:
            raise ValueError(f"coefficient bound K0 must be finite and positive, got {self.K0}")
        if not (0 < self.delta <= 1):
            raise ValueError("ellipticity constant delta must lie in (0, 1]")
        if not (0 < self.delta1 <= 1):
            raise ValueError("time-change constant delta1 must lie in (0, 1]")
        if not 0 <= self.K1 < math.inf:
            raise ValueError(f"Girsanov bound K1 must be finite and nonnegative, got {self.K1}")
        acts, na, nb = self.actions, self.n_alpha_ext, self.n_beta
        for name, shape in (("sigma", (self.d, self.d1)), ("b", (self.d,)), ("c", ()), ("f", ())):
            table = getattr(self, name)
            if len(table) != na or any(len(row) != nb for row in table):
                raise ValueError(f"coefficient table {name} must be {na} x {nb}")
            for al, row in zip(acts.a_labels + acts.a2_labels, table):
                for bl, x in zip(acts.b_labels, row):
                    _check_shape(x, shape, name, al, bl)
        _check_shape(self.g, (), "g")

    @property
    def d(self) -> int:
        return self.domain.dimension

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


def _check_shape(coefficient, shape: tuple, *key: str) -> None:
    """Raise unless ``coefficient`` holds values of ``shape``, read without evaluating it."""
    got = getattr(coefficient, "shape", None)
    if got != shape:
        raise ValueError(f"coefficient {'.'.join(key)} has shape {got}, not {shape}")


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
    """Check the standing assumptions on the nodes of ``grid``, for every pair at once.

    The Lipschitz quotient of sigma and b is taken along every axis, at the
    least grid spacing.  A violation gives a negative margin and a NaN
    coefficient a NaN one, and either fails; only an empty grid raises.
    """
    pts = grid.coords
    if len(pts) == 0:
        raise ValueError("sample grid is empty")
    n, d = pts.shape
    h = float(np.min(grid.spacing))
    x = np.concatenate([pts, *(pts + h * e for e in np.eye(d))])  # the nodes, then moved along each axis
    pairs = [(ia, ib) for ia in range(problem.n_alpha_ext) for ib in range(problem.n_beta)]
    s = np.stack([problem.sigma[ia][ib](x) for ia, ib in pairs]).reshape(len(pairs), d + 1, n, d, problem.d1)
    b = np.stack([problem.b[ia][ib](x) for ia, ib in pairs]).reshape(len(pairs), d + 1, n, d)
    c = np.stack([problem.c[ia][ib](pts) for ia, ib in pairs])
    f = np.stack([problem.f[ia][ib](pts) for ia, ib in pairs])
    eigs = np.linalg.eigvalsh(0.5 * np.einsum("pnij,pnkj->pnik", s[:, 0], s[:, 0]))
    snorm, bnorm = np.sqrt(np.einsum("pnij,pnij->pn", s[:, 0], s[:, 0])), np.linalg.norm(b[:, 0], axis=-1)
    ds, db = s[:, 1:] - s[:, :1], b[:, 1:] - b[:, :1]
    quot = (np.sqrt(np.einsum("pknij,pknij->pkn", ds, ds)) + np.linalg.norm(db, axis=-1)) / h
    worst = np.max([snorm.max(), bnorm.max(), np.abs(c).max(), np.abs(f).max()])
    ell_lo, ell_hi = float(eigs.min() - problem.delta), float(1.0 / problem.delta - eigs.max())
    bound, lip, cmin = float(problem.K0 - worst), float(problem.K0 - quot.max()), float(c.min())
    failures = (
        (ell_lo, "ellipticity violated: min eigenvalue of a below delta"),
        (bound, "coefficient bound K0 exceeded"),
        (lip, "Lipschitz quotient of sigma/b exceeds K0"),
        (cmin, "discount rate c is negative somewhere"),
    )
    return ValidationReport(ell_lo, ell_hi, bound, lip, cmin, [text for m, text in failures if m < 0])
