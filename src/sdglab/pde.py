"""Monotone finite-difference discretization and policy-iteration solvers.

The elliptic operator of each action pair is discretized with central
second differences on the diagonal, Kushner-style splitting of the mixed
terms by the sign of a_ij, and first differences upwinded by the sign of
b_i, which makes every off-center stencil weight nonnegative (positive
type).  One ``Discretization`` per (problem, grid) holds the operators of
all action pairs, on the stencil layout that the grid keeps for every
problem assembled on it; a constant coefficient is evaluated at one node.
The sup-inf equation is solved by Howard's algorithm: freeze the per-node
argmax/argmin pair, solve the resulting M-matrix system exactly by a
banded LU (the interior nodes are numbered in lattice order, so every
policy matrix is banded), repeat until the sup-inf residual is small.

``IsaacsSolver`` is the one solve path.  The curvature-penalized equation
max(H[u], P[u] - K) = 0 is the same sup-inf equation over a larger leader
set: fit ``IsaacsSolver`` on ``extend_problem(problem, pucci, K)``.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import const_matrix, const_scalar, const_vector
from .grids import DomainGrid, ValueField, write_csv
from .model import ActionSets, GameProblem

__all__ = [
    "SolveConfig",
    "PucciParams",
    "Discretization",
    "RateReport",
    "h_mono",
    "evaluate_H",
    "extend_problem",
    "convergence_study",
    "IsaacsSolver",
]


@dataclass(frozen=True)
class SolveConfig:
    max_policy_iters: int = 80
    residual_tol: float = 1e-8

    def __post_init__(self):
        if isinstance(self.residual_tol, bool) or not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol!r}")
        n = self.max_policy_iters  # a bool is an int, and a float would fail later in range()
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"max_policy_iters must be an integer of at least 0, got {n!r}")


@dataclass(frozen=True)
class PucciParams:
    """Finite-ray realization of the extremal curvature operator.

    Each ray is a constant d x d matrix a with eigenvalues in {delta_hat,
    1/delta_hat}; the operator value is the max over rays of tr(a D^2 u),
    which is positive-homogeneous of degree one by construction.
    """

    delta_hat: float
    rays: tuple[np.ndarray, ...]

    @staticmethod
    def build(d: int, delta_hat: float = 0.5, n_rotations: int | None = None) -> "PucciParams":
        """Each distinct extremal matrix once, lo = delta_hat and hi = 1/delta_hat: [[lo]] and
        [[hi]] in 1-D, which rejects ``n_rotations``; in 2-D lo I, hi I and diag(lo, hi) rotated by
        pi j / m for j < m, with m = n if even, else 2 n, for n = n_rotations (16 if None), as
        diag(hi, lo) at angle t is diag(lo, hi) at t + pi/2: the distinct diag(l1, l2) at pi k / n.
        """
        if not (0 < delta_hat < 1):
            raise ValueError("delta_hat must lie in (0, 1)")
        lo, hi = delta_hat, 1.0 / delta_hat
        if d == 1:
            if n_rotations is not None:
                raise ValueError(f"n_rotations is for d = 2: 1-D has the two rays, got {n_rotations!r}")
            return PucciParams(delta_hat, (np.array([[lo]]), np.array([[hi]])))
        if d != 2:
            raise ValueError(f"curvature-penalty rays are provided for d <= 2 only, got d = {d}")
        n = 16 if n_rotations is None else n_rotations
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"n_rotations must be an integer of at least 1, got {n!r}")
        m = n if n % 2 == 0 else 2 * n
        rays = [lo * np.eye(2), hi * np.eye(2)]
        for j in range(m):
            c, s = math.cos(math.pi * j / m), math.sin(math.pi * j / m)
            q = np.array([[c, -s], [s, c]])
            rays.append(q @ np.diag([lo, hi]) @ q.T)
        return PucciParams(delta_hat, tuple(rays))


def h_mono(problem: GameProblem) -> float:
    """Conservative spacing bound keeping the stencil of positive type."""
    return 2.0 * problem.delta / problem.K0


def _half_sst(s: np.ndarray) -> np.ndarray:
    """0.5 s s^T per node, s (m, d, d1), as explicit products at a tenth of einsum's cost: bitwise
    0.5 * np.einsum("nij,nkj->nik", s, s) for d1 <= 2; for d1 >= 3 einsum sums in another order."""
    return 0.5 * sum(s[:, :, None, j] * s[:, None, :, j] for j in range(s.shape[2]))


def _stencil_weights(h: np.ndarray, a: np.ndarray, bvec: np.ndarray, cvec: np.ndarray) -> np.ndarray:
    """Positive-type weights of every pair, in stencil-slot order.

    a: (P, n, d, d), bvec: (P, n, d), cvec: (P, n), for P pairs on n = m interior nodes or on one
    node, broadcast against each other.  Returns (P, n, s): the center, then the (+, -) neighbors of
    each axis, then the (++, --, +-, -+) neighbors of each coordinate plane.  Raises if an off-center
    weight of a pair falls below -1e-12 (max |center| over that pair's nodes + 1).
    """
    d = len(h)
    planes = [(i, j) for i in range(d) for j in range(i + 1, d)]
    w = np.zeros((1 + 2 * d + 4 * len(planes),) + np.broadcast_shapes(a.shape[:2], bvec.shape[:2], cvec.shape))
    center = w[0]
    cross_drain = np.zeros((d,) + center.shape)  # sum_j |a_ij|/(h_i h_j), removed from axis weights
    for k, (i, j) in enumerate(planes):
        aij = a[..., i, j]
        wij = np.abs(aij) / (h[i] * h[j])
        pos = aij >= 0
        slot = 1 + 2 * d + 4 * k
        w[slot] = w[slot + 1] = np.where(pos, wij, 0.0)
        w[slot + 2] = w[slot + 3] = np.where(pos, 0.0, wij)
        center += 2.0 * wij
        cross_drain[i] += wij
        cross_drain[j] += wij
    for i in range(d):
        aii = a[..., i, i]
        bp = np.maximum(bvec[..., i], 0.0)
        bm = np.maximum(-bvec[..., i], 0.0)
        w[1 + 2 * i] = aii / h[i] ** 2 + bp / h[i] - cross_drain[i]
        w[2 + 2 * i] = aii / h[i] ** 2 + bm / h[i] - cross_drain[i]
        center -= 2.0 * aii / h[i] ** 2 + (bp + bm) / h[i]
    center -= cvec
    axis = w[1 : 1 + 2 * d]
    if (axis < -1e-12 * (np.max(np.abs(center), axis=1, initial=0.0) + 1.0)[:, None]).any():
        raise ValueError(
            "stencil loses positive type: mixed second-derivative terms "
            "dominate a diagonal entry; refine the coefficients or delta_hat"
        )
    np.maximum(axis, 0.0, out=axis)
    return np.moveaxis(w, 0, -1)


# (id(problem), id(grid)) -> its Discretization, while some holder keeps that alive
_ASSEMBLED = weakref.WeakValueDictionary()


class Discretization:
    """The monotone operators L^{ab} of every action pair on one grid.

    ``from_problem`` shares one object per (problem, grid) while anything
    holds it, so ``cols``, ``weights`` and ``fvals`` are read-only.  All pairs
    share the grid's ``stencil``, kept on the grid: row k, for interior node
    ``idx[k]``, couples the node with its 2d axis neighbors and the four
    diagonal neighbors in each coordinate plane, whose flat lattice indices
    are ``cols[k]``.  Pair p = ia * n_beta + ib keeps its weights in
    ``weights[p]`` (m, s) and its running cost in ``fvals[p]`` (m,), so
    ``(weights[p], cols)`` is the matrix of L^{ab} over the lattice, s
    entries per row; where every pair's a, b and c (f) were given on one
    node, ``weights`` (``fvals``) is a broadcast view of it.  Columns that
    are not interior nodes carry the Dirichlet data: the boundary
    contribution.  The interior-to-interior block has half-bandwidths ``kl``
    (below the diagonal) and ``ku`` (above).
    """

    def __init__(self, grid: DomainGrid, coefficients, n_beta: int):
        """``coefficients``: one (a, b, c, f) per pair, leader-major, each on the interior nodes or on one."""
        self.grid = grid
        self.n_beta = n_beta
        self.idx, self.cols, off, off_nodes, self._inner, self.kl, self.ku, self._band_flat = grid.stencil
        self._band_rows = 2 * self.kl + self.ku + 1
        a, b, c, f = (np.stack(np.broadcast_arrays(*arrays)) for arrays in zip(*coefficients))
        w = _stencil_weights(grid.spacing, a, b, c)
        self.weights = np.broadcast_to(w, (len(w), len(self.idx), w.shape[2]))
        self.fvals = np.broadcast_to(f, (len(f), len(self.idx)))
        # an off-closure column reads the row's own node: it must carry zero weight in every pair
        reach = self.weights[:, off] != 0
        if reach.any():
            p, j = np.argwhere(reach)[0]
            k, s = np.argwhere(off)[j]
            raise ValueError(
                f"stencil of interior node {self.idx[k]} at {grid.coords[self.idx[k]].tolist()} reaches "
                f"lattice node {off_nodes[j]} outside the closure with weight {self.weights[p, k, s]:.3g} "
                f"(pair {p}), where a grid function holds no value"
            )

    @classmethod
    def from_problem(cls, problem: GameProblem, grid: DomainGrid) -> "Discretization":
        """The operators of ``problem`` on ``grid``, assembled only if no holder keeps
        those of an earlier call (a fitted ``IsaacsSolver`` holds its own).

        Raises ``ValueError`` on a grid coarser than ``h_mono``.  The object holds
        ``problem`` and ``grid``, so neither id is reused while its entry lives.
        """
        key = (id(problem), id(grid))
        disc = _ASSEMBLED.get(key)
        if disc is not None:
            return disc
        _check_spacing(problem, grid)
        pts = grid.coords[grid.interior]

        def at(field):  # a constant field at one node, which stands for all of them
            return field(pts[:1] if field.is_constant else pts)

        def pair(ia, ib):
            a = _half_sst(at(problem.sigma[ia][ib]))
            return a, at(problem.b[ia][ib]), at(problem.c[ia][ib]), at(problem.f[ia][ib])

        pairs = [pair(ia, ib) for ia in range(problem.n_alpha_ext) for ib in range(problem.n_beta)]
        disc = _ASSEMBLED[key] = cls(grid, pairs, problem.n_beta)
        disc.problem = problem
        return disc

    def hamiltonians(self, u: np.ndarray) -> np.ndarray:
        """L^{ab} u + f^{ab} on interior nodes for a full-lattice ``u``, shape (nA, nB, m)."""
        # summed center, then each axis, then each plane (a diagonal weight
        # times the sum of its two neighbors): exact ties between pairs are
        # broken by round-off, so the policy sequence depends on this order
        w, uc = self.weights, u[self.cols]
        ham = w[:, :, 0] * uc[:, 0]
        for k in range(1, 1 + 2 * self.grid.d, 2):
            ham += w[:, :, k] * uc[:, k] + w[:, :, k + 1] * uc[:, k + 1]
        for k in range(1 + 2 * self.grid.d, w.shape[2], 4):
            ham += w[:, :, k] * (uc[:, k] + uc[:, k + 1]) + w[:, :, k + 2] * (uc[:, k + 2] + uc[:, k + 3])
        return (ham + self.fvals).reshape(-1, self.n_beta, len(self.idx))

    def round_off_floor(self, u: np.ndarray) -> float:
        """eps * max|diag| * max|u|: the residual an exact solve can be held to."""
        diag = float(np.max(np.abs(self.weights[:, :, 0])))
        return float(np.finfo(float).eps * diag * np.nanmax(np.abs(u)))

    def solve_policy(self, pair: np.ndarray, u: np.ndarray) -> None:
        """Solve L^pi u + f^pi = 0 exactly on interior nodes, in place.

        ``pair`` holds the frozen pair index of each interior node; the
        values of ``u`` off the interior are the boundary data.  The system
        is solved by LAPACK's banded LU with partial pivoting (``dgbsv``),
        at about m kl (kl + ku) flops and (2 kl + ku + 1) m doubles for m
        interior nodes.  In lattice order the half-bandwidth is one stride
        of the lattice: 1 in 1-D and about 1/h in 2-D, which suits d <= 2;
        on a 3-D lattice it would be about 1/h**2, a poor fit.  Raises
        ``RuntimeError`` if the system is singular.
        """
        from scipy.linalg.lapack import dgbsv

        m = len(self.idx)
        rows = np.arange(m)
        w = self.weights[pair, rows]
        ub = np.where(self._inner, 0.0, u[self.cols])
        rhs = -(self.fvals[pair, rows] + np.sum(w * ub, axis=1))
        # the transpose of a C-ordered (m, band rows) array is Fortran-ordered
        band = np.bincount(self._band_flat, w[self._inner], minlength=self._band_rows * m)
        band = band.reshape(m, self._band_rows).T
        *_, x, info = dgbsv(self.kl, self.ku, band, rhs, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise RuntimeError(
                f"policy system is singular: zero pivot {info - 1} at interior node {self.idx[info - 1]}"
            )
        u[self.idx] = x


def _check_spacing(problem: GameProblem, grid: DomainGrid) -> None:
    hmax = float(np.max(grid.spacing))
    bound = h_mono(problem)
    if hmax > bound * (1 + 1e-12):
        raise ValueError(
            f"grid spacing {hmax:.4g} exceeds the monotonicity bound {bound:.4g}"
        )


def evaluate_H(problem: GameProblem, u: ValueField) -> ValueField:
    """Sup over alpha of the inf over beta of L u + f; zero on the boundary."""
    disc = Discretization.from_problem(problem, u.grid)
    ham = disc.hamiltonians(u.values)[: problem.n_alpha]
    out = ValueField.zeros(u.grid)
    out.values[disc.idx] = ham.min(axis=1).max(axis=0)
    return out


def _matrix_sqrt(m: np.ndarray, d1: int) -> np.ndarray:
    """Symmetric psd square root, zero-padded to d x d1 columns."""
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    d = m.shape[0]
    out = np.zeros((d, d1))
    out[:, :d] = root
    return out


def _policy_iteration(disc: Discretization, u: np.ndarray, cfg: SolveConfig):
    """Howard's algorithm on the sup-inf scheme, updating ``u`` in place.

    Each step freezes the per-node argmax/argmin pair and solves its
    linear system exactly.  Returns the sup-inf residual and the number of
    linear solves.  Raises at the first residual that is not finite, naming
    the first node where it is not.
    """
    rows = np.arange(len(disc.idx))
    ia_pol = ib_pol = None  # the policy of the last solve
    for it in range(cfg.max_policy_iters + 1):
        ham = disc.hamiltonians(u)
        per_alpha_min = ham.min(axis=1)
        sup_inf = per_alpha_min.max(axis=0)
        residual = float(np.max(np.abs(sup_inf)))
        if not math.isfinite(residual):
            node = disc.idx[np.argmin(np.isfinite(sup_inf))]
            raise RuntimeError(f"residual {residual} at policy iteration {it}, first at interior node {node}")
        if residual <= cfg.residual_tol or it == cfg.max_policy_iters:
            break
        new_ia = per_alpha_min.argmax(axis=0)
        new_ib = ham.argmin(axis=1)[new_ia, rows]
        if it > 0 and np.array_equal(new_ia, ia_pol) and np.array_equal(new_ib, ib_pol):
            # an exact solve of the same system cannot lower the residual
            raise RuntimeError(
                f"policy iteration stalled at iteration {it}: the policy repeats "
                f"with residual {residual:.3g} above residual_tol {cfg.residual_tol:.3g}; "
                f"round-off floor eps*max|diag|*max|u| = {disc.round_off_floor(u):.3g}"
            )
        ia_pol, ib_pol = new_ia, new_ib
        disc.solve_policy(ia_pol * disc.n_beta + ib_pol, u)
    if residual > cfg.residual_tol:
        raise RuntimeError(
            f"policy iteration did not converge: residual {residual:.3g} "
            f"after {cfg.max_policy_iters} iterations"
        )
    return residual, it


class IsaacsSolver:
    """Estimator-style wrapper: fit a game problem, predict interpolated values.

    After ``fit`` the solved grid function is in ``value_``, the sup-inf
    residual in ``residual_`` and the operators in ``discretization_``,
    which keeps them shared with ``evaluate_H`` and the selector builders
    on ``value_``.
    """

    def __init__(self, h: float = 1 / 128, cfg: SolveConfig = SolveConfig()):
        self.h = h
        self.cfg = cfg

    def fit(self, problem: GameProblem, g_boundary=None, grid: DomainGrid | None = None):
        """Howard's algorithm from u = g, or, where the policy system is not tridiagonal (``kl > 1``:
        every 2-D grid), from the cold solve with this ``cfg`` at twice the spacing, if that grid is
        admissible (spacing at most ``h_mono``, an interior node) and the solve converges.
        ``n_iter_`` counts the solves on ``grid`` alone.
        """
        if grid is None:
            grid = DomainGrid.build(problem.domain, self.h)
        if g_boundary is None:
            g_boundary = problem.g
        u = ValueField.from_function(grid, g_boundary)
        disc = Discretization.from_problem(problem, grid)
        coarse = DomainGrid.build(problem.domain, 2.0 * float(np.max(grid.spacing))) if disc.kl > 1 else None
        if coarse is not None and coarse.interior.any():
            v = ValueField.from_function(coarse, g_boundary)
            try:  # past h_mono or unconverged: keep u = g; the coarse operators die here
                _policy_iteration(Discretization.from_problem(problem, coarse), v.values, self.cfg)
                u.values[disc.idx] = v.interpolate(grid.coords[disc.idx])
            except (RuntimeError, ValueError):
                pass
        residual, iters = _policy_iteration(disc, u.values, self.cfg)
        # boundary ring carries the Dirichlet data exactly
        u.values[grid.boundary_idx] = np.asarray(g_boundary(grid.coords[grid.boundary_idx]))
        self.problem_ = problem
        self.grid_ = grid
        self.discretization_ = disc
        self.value_ = u
        self.residual_ = residual
        self.n_iter_ = iters
        return self

    def predict(self, x) -> np.ndarray:
        return self.value_.interpolate(x)


def extend_problem(problem: GameProblem, pucci: PucciParams, K: float) -> GameProblem:
    """Append one penalty action per ray; their coefficients ignore beta and x.

    The penalty action of ray a has sigma = sqrt(2 a), b = 0, c = 0 and the
    running cost -K, so the sup-inf solution of the extended problem
    solves max(H[u], P[u] - K) = 0.
    """
    if not 0 <= K < math.inf:
        raise ValueError(f"penalty constant K must be finite and nonnegative, got {K}")
    if problem.actions.n_alpha2:
        raise ValueError("problem already carries penalty actions")
    nb, n = problem.n_beta, len(pucci.rays)
    a2_labels = tuple(f"pen{i}" for i in range(n))
    # each penalty coefficient is one field, shared by every beta
    sigma = tuple((const_matrix(_matrix_sqrt(2.0 * a, problem.d1)),) * nb for a in pucci.rays)
    zero_b, zero_c, cost = const_vector(np.zeros(problem.d)), const_scalar(0.0), const_scalar(-K)
    return replace(
        problem,
        actions=ActionSets(problem.actions.a_labels, problem.actions.b_labels, a2_labels),
        sigma=(*problem.sigma, *sigma),
        b=(*problem.b, *((zero_b,) * nb,) * n),
        c=(*problem.c, *((zero_c,) * nb,) * n),
        f=(*problem.f, *((cost,) * nb,) * n),
        delta=min(problem.delta, pucci.delta_hat),
    )


@dataclass
class RateReport:
    """Sup-norm gap between penalized and unpenalized solutions per K."""

    K_values: list[float]
    sup_errors: list[float]
    fitted_chi: float
    fitted_N: float

    def to_csv(self, path) -> None:
        trailer = ("# fitted_N", self.fitted_N, "fitted_chi", self.fitted_chi)
        write_csv(path, ["K", "sup_error"], [*zip(self.K_values, self.sup_errors), trailer])


def _penalty_sweep(problem: GameProblem, pucci: PucciParams, g_boundary, K_list, cfg: SolveConfig, h: float):
    """Solve the plain game and each penalized game once, on one grid.

    Returns the rate report, the plain solver and one solver per K, each
    fitted on its extended problem.
    """
    K_list = list(K_list)
    if not all(1 <= k < math.inf for k in K_list) or K_list != sorted(set(K_list)):
        raise ValueError(f"K_list must be finite, at least 1 and strictly increasing, got {K_list}")
    grid = DomainGrid.build(problem.domain, h)
    plain = IsaacsSolver(h=h, cfg=cfg).fit(problem, g_boundary, grid=grid)
    penalized = [
        IsaacsSolver(h=h, cfg=cfg).fit(extend_problem(problem, pucci, K), g_boundary, grid=grid)
        for K in K_list
    ]
    errs = [s.value_.sup_diff(plain.value_) for s in penalized]
    floor = 10.0 * cfg.residual_tol
    usable = [(k, e) for k, e in zip(K_list, errs) if e > floor]
    if len(usable) >= 2:
        lk = np.log([k for k, _ in usable])
        le = np.log([e for _, e in usable])
        slope, intercept = np.polyfit(lk, le, 1)
        chi = float(-slope)
        n_hat = float(np.exp(intercept))
    else:
        chi = math.inf
        n_hat = 0.0
    return RateReport(K_list, errs, chi, n_hat), plain, penalized


def convergence_study(
    problem: GameProblem,
    pucci: PucciParams,
    g_boundary,
    K_list,
    cfg: SolveConfig = SolveConfig(),
    h: float = 1 / 128,
) -> RateReport:
    """Gap e(K) = sup|u_K - v| against the penalty constant, with a decay fit."""
    return _penalty_sweep(problem, pucci, g_boundary, K_list, cfg, h)[0]
