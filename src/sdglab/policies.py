"""Near-optimal selectors and causal feedback policies.

From a solved (or super/subsolution) grid function, a selector tabulates
per node the least-index action satisfying the defining slack inequality:
one table, indexed by node for the leader and by (leader action, node)
for the responder.  Wrapping it with a grid-time lag gives the causal
feedback strategies whose discounted value processes are super- or
submartingales up to an epsilon compensator.  That drift property is what
the Monte Carlo test at the bottom estimates.

An ensemble answers a player without a call, reading these once as it starts,
if its class sets ``_ensemble_reads`` to ``"action"`` (it plays ``self.action``)
or ``"table"`` (``self.selector.table`` at the nearest node of its ``lag_n``-lagged
state); a subclass whose ``select`` or ``respond`` answers otherwise sets it to None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import DomainGrid, ValueField
from .model import GameProblem, _integer
from .pde import Discretization
from .simulate import ControlAdaptedSpec, SimConfig, _mean_se, _run_ensemble

__all__ = [
    "MarkovSelector",
    "ConstantPolicy",
    "OccupancyPolicy",
    "ConstantResponder",
    "FeedbackAlphaPolicy",
    "FeedbackBetaPolicy",
    "build_beta_selector",
    "build_alpha_selector",
    "MartingaleTestReport",
    "supermartingale_test",
    "submartingale_test",
]


@dataclass
class MarkovSelector:
    """Tabulated feedback actions on the grid nodes.

    ``table`` holds one action per node: shape (N,) for a leader selector,
    (nA, N) for a responder selector, whose row ``ia`` answers the leader
    action ``ia``.  ``n_actions`` is (n_alpha_ext, n_beta) of the problem it was
    built for.  Nodes off the interior hold action 0.  A feedback policy
    answers a state with the entry at its nearest node, clipped to the
    lattice.  On a box a point outside the domain lands on a boundary node,
    which holds 0.  On a ball it may land on an interior node and get its
    action; in an ensemble only exited rows give such points, and their
    answers are discarded.
    """

    grid: DomainGrid
    table: np.ndarray
    n_actions: tuple[int, int]

    @property
    def role(self) -> str:
        """``"beta"`` for a responder table, ``"alpha"`` for a leader table."""
        return "beta" if self.table.ndim == 2 else "alpha"


def _hamiltonians(problem: GameProblem, u: ValueField, epsilon: float) -> tuple[Discretization, np.ndarray]:
    """The operators on ``u``'s grid and L u + f per pair and interior node, (nA_ext, nB, m)."""
    if epsilon <= 0:
        raise ValueError("slack epsilon must be positive")
    disc = Discretization.from_problem(problem, u.grid)
    ham = disc.hamiltonians(u.values)
    # a non-finite Hamiltonian would pass every slack comparison
    if not np.isfinite(ham).all():
        ia, ib, k = np.argwhere(~np.isfinite(ham))[0]
        raise ValueError(
            f"non-finite Hamiltonian {ham[ia, ib, k]} at node {disc.idx[k]} for pair (alpha {ia}, beta {ib})"
        )
    return disc, ham


def _least_index(disc: Discretization, feasible: np.ndarray) -> MarkovSelector:
    """Selector of the first feasible action along axis -2 at each interior node.

    ``feasible`` has the interior nodes of ``disc`` on its last axis; nodes
    off the interior keep action 0.
    """
    table = np.zeros(feasible.shape[:-2] + (disc.grid.n_nodes,), dtype=int)
    table[..., disc.idx] = feasible.argmax(axis=-2)
    problem = disc.problem
    return MarkovSelector(grid=disc.grid, table=table, n_actions=(problem.n_alpha_ext, problem.n_beta))


def build_beta_selector(problem: GameProblem, u_hat: ValueField, epsilon: float) -> MarkovSelector:
    """Least-index responder with L u_hat + f <= epsilon per (alpha, node)."""
    disc, ham = _hamiltonians(problem, u_hat, epsilon)
    # sup-inf over the full (possibly penalty-extended) leader set
    worst = float(ham.min(axis=1).max(axis=0).max())
    if worst >= epsilon:
        raise ValueError(
            f"u_hat is not a discrete supersolution at slack {epsilon}: "
            f"max H = {worst:.3g}"
        )
    # for finite values, the check above leaves a feasible responder for every (alpha, node)
    return _least_index(disc, ham <= epsilon)


def build_alpha_selector(problem: GameProblem, u_check: ValueField, epsilon: float) -> MarkovSelector:
    """Least-index leader with min over beta of L u_check + f >= -epsilon per node."""
    disc, ham = _hamiltonians(problem, u_check, epsilon)
    minvals = ham.min(axis=1)  # (nA_ext, m)
    worst = float(minvals.max(axis=0).min())
    if worst <= -epsilon:
        raise ValueError(
            f"u_check is not a discrete subsolution at slack {epsilon}: "
            f"min H = {worst:.3g}"
        )
    # for finite values, the check above leaves a feasible leader action at every node
    return _least_index(disc, minvals >= -epsilon)


class ConstantPolicy:
    """Always plays the same action."""

    lag_n = 0
    _ensemble_reads = "action"

    def __init__(self, action: int, name: str | None = None):
        self.action = _integer(action, "action", 0)
        self.name = name or f"const{action}"

    def select(self, k, t, x):
        return np.full(x.shape[0], self.action)


class OccupancyPolicy:
    """Spends a fixed fraction of each period in a designated action.

    Used to occupy the penalty actions for a controlled share of time in
    the coupling experiment.
    """

    lag_n = 0

    def __init__(self, base_action: int, special_action: int, fraction: float, period: float = 0.1):
        if not (0 <= fraction <= 1):
            raise ValueError("occupation fraction must lie in [0, 1]")
        if not (0 < period < math.inf):
            raise ValueError(f"occupation period must be finite and positive, got {period}")
        self.base_action = _integer(base_action, "base_action", 0)
        self.special_action = _integer(special_action, "special_action", 0)
        self.fraction = fraction
        self.period = period
        self.name = f"occupancy{fraction}"

    def select(self, k, t, x):
        phase = math.fmod(t, self.period) / self.period
        a = self.special_action if phase < self.fraction else self.base_action
        return np.full(x.shape[0], a)


class ConstantResponder:
    """Beta side that ignores the opponent and the state."""

    lag_n = 0
    _ensemble_reads = "action"

    def __init__(self, action: int):
        self.action = _integer(action, "action", 0)

    def respond(self, ia, k, t, x):
        return np.full(np.shape(ia), self.action)


class _FeedbackPolicy:
    """Feedback from a selector of the class's ``role``; the simulator
    freezes the state argument at the last lag-grid time."""

    role = ""
    _ensemble_reads = "table"

    def __init__(self, selector: MarkovSelector, lag_n: int = 0):
        if selector.role != self.role:
            raise ValueError(f"needs a selector of role {self.role!r}, not {selector.role!r}")
        self.selector = selector
        self.lag_n = _integer(lag_n, "lag_n", 0)
        self.name = f"feedback_{self.role}"


class FeedbackAlphaPolicy(_FeedbackPolicy):
    """Leader feedback from an alpha selector."""

    role = "alpha"

    def select(self, k, t, x):
        return self.selector.table[self.selector.grid.nearest_node(x)]


class FeedbackBetaPolicy(_FeedbackPolicy):
    """Responder feedback: the action tracks the current opponent action."""

    role = "beta"

    def respond(self, ia, k, t, x):
        return self.selector.table[ia, self.selector.grid.nearest_node(x)]


@dataclass
class MartingaleTestReport:
    side: str  # "super" or "sub"
    times: list[float]
    means: list[float]
    ses: list[float]
    diffs: list[float]  # m(t_{k+1}) - m(t_k)
    diff_ses: list[float]  # paired standard errors of the differences
    tolerances: list[float]

    @property
    def passed(self) -> bool:
        """Each drift at most its tolerance for a supermartingale, at least minus it for a
        submartingale; a NaN fails."""
        sign = 1.0 if self.side == "super" else -1.0
        return all(sign * dm <= tol for dm, tol in zip(self.diffs, self.tolerances))

    def summary(self) -> str:
        lines = [f"{self.side}martingale drift check"]
        for i, t in enumerate(self.times):
            lines.append(f"  m({t:g}) = {self.means[i]:.6f} +- {self.ses[i]:.6f}")
        for i, dv in enumerate(self.diffs):
            lines.append(
                f"  drift {self.times[i]:g}->{self.times[i + 1]:g}: {dv:+.6f} "
                f"(tol {self.tolerances[i]:.6f})"
            )
        lines.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _drift_test(
    problem: GameProblem,
    spec: ControlAdaptedSpec,
    x0,
    value_field: ValueField,
    alpha_policy,
    beta_policy,
    cfg: SimConfig,
    checkpoint_times,
    epsilon: float,
    side: str,
) -> MartingaleTestReport:
    times = sorted(checkpoint_times)
    if not times:
        raise ValueError("need at least one checkpoint")
    _, extras = _run_ensemble(
        problem,
        [(spec, x0, alpha_policy)],
        beta_policy,
        cfg,
        value_field=value_field,
        checkpoint_times=tuple(times),
    )
    samples = extras["checkpoints"]  # (n_checkpoints, n_paths)
    means, ses = zip(*map(_mean_se, samples))
    drifts = [_mean_se(d) for d in np.diff(samples, axis=0)]  # each increment's mean and paired SE
    diffs, diff_ses = [m for m, _ in drifts], [s for _, s in drifts]
    r_max = float(np.max(spec.r_table))
    tols = [epsilon * r_max**2 * (t1 - t0) + 3.0 * s for t0, t1, s in zip(times, times[1:], diff_ses)]
    return MartingaleTestReport(side, times, list(means), list(ses), diffs, diff_ses, tols)


def supermartingale_test(
    problem, spec, x0, u_hat, alpha_policy, beta_policy, cfg, checkpoint_times, epsilon
) -> MartingaleTestReport:
    """Discounted value process should drift down against the responder."""
    return _drift_test(
        problem, spec, x0, u_hat, alpha_policy, beta_policy, cfg, checkpoint_times, epsilon, "super"
    )


def submartingale_test(
    problem, spec, x0, u_check, alpha_policy, beta_policy, cfg, checkpoint_times, epsilon
) -> MartingaleTestReport:
    """Mirror check: the leader feedback pushes the drift up."""
    return _drift_test(
        problem, spec, x0, u_check, alpha_policy, beta_policy, cfg, checkpoint_times, epsilon, "sub"
    )
