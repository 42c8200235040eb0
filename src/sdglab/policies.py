"""Near-optimal selectors and causal feedback policies.

From a solved (or super/subsolution) grid function, a selector tabulates
per node the least-index action satisfying the defining slack inequality;
wrapping it with a grid-time lag gives the causal feedback strategies
whose discounted value processes are super- or submartingales up to an
epsilon compensator.  That drift property is what the Monte Carlo test
at the bottom estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import ValueField
from .model import GameProblem
from .pde import Discretization
from .simulate import ControlAdaptedSpec, SimConfig, _run_ensemble

__all__ = [
    "MarkovSelector",
    "ConstantPolicy",
    "BangBangPolicy",
    "OccupancyPolicy",
    "ConstantResponder",
    "FeedbackAlphaPolicy",
    "FeedbackBetaPolicy",
    "CandidateControlSet",
    "build_beta_selector",
    "build_alpha_selector",
    "make_feedback_policy",
    "MartingaleTestReport",
    "supermartingale_test",
    "submartingale_test",
]


@dataclass
class MarkovSelector:
    """Tabulated feedback actions on the grid nodes.

    ``beta_table`` has shape (nA, N) for the responder role, ``alpha_table``
    shape (N,) for the leader role; only one of the two is meaningful
    depending on ``role``.  Outside the domain the fixed default action is
    used.
    """

    role: str  # "beta" or "alpha"
    grid: object
    domain: object
    epsilon: float
    beta_table: np.ndarray | None = None
    alpha_table: np.ndarray | None = None
    margins: np.ndarray | None = None
    default_action: int = 0
    value_field: ValueField | None = None

    def beta_at(self, ia: np.ndarray, x: np.ndarray) -> np.ndarray:
        if self.role != "beta":
            raise ValueError("selector does not carry a beta table")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._default_outside(x, self.beta_table[np.asarray(ia, dtype=int), self.grid.nearest_node(x)])

    def alpha_at(self, x: np.ndarray) -> np.ndarray:
        if self.role != "alpha":
            raise ValueError("selector does not carry an alpha table")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._default_outside(x, self.alpha_table[self.grid.nearest_node(x)])

    def _default_outside(self, x: np.ndarray, actions: np.ndarray) -> np.ndarray:
        inside = self.domain.contains(x)
        return actions if inside.all() else np.where(inside, actions, self.default_action)

    def to_csv(self, path) -> None:
        g = self.grid
        mask = g.in_closure
        coords = g.coords[mask]
        with open(path, "w") as fh:
            if self.role == "beta":
                na = self.beta_table.shape[0]
                head = ",".join(f"x{i + 1}" for i in range(coords.shape[1]))
                head += "," + ",".join(f"beta_for_alpha{a}" for a in range(na))
                fh.write(head + "\n")
                for row, accs in zip(coords, self.beta_table[:, mask].T):
                    fh.write(
                        ",".join(f"{v:.17g}" for v in row)
                        + ","
                        + ",".join(str(int(a)) for a in accs)
                        + "\n"
                    )
            else:
                fh.write(
                    ",".join(f"x{i + 1}" for i in range(coords.shape[1])) + ",alpha\n"
                )
                for row, a in zip(coords, self.alpha_table[mask]):
                    fh.write(",".join(f"{v:.17g}" for v in row) + f",{int(a)}\n")


def build_beta_selector(problem: GameProblem, u_hat: ValueField, epsilon: float) -> MarkovSelector:
    """Least-index responder with L u_hat + f <= epsilon per (alpha, node)."""
    disc = Discretization.from_problem(problem, u_hat.grid)
    return _beta_selector(problem, disc, disc.hamiltonians(u_hat.values), u_hat, epsilon)


def build_alpha_selector(problem: GameProblem, u_check: ValueField, epsilon: float) -> MarkovSelector:
    """Least-index leader with min over beta of L u_check + f >= -epsilon per node."""
    disc = Discretization.from_problem(problem, u_check.grid)
    return _alpha_selector(problem, disc, disc.hamiltonians(u_check.values), u_check, epsilon)


def _feedback_selectors(solver, epsilon: float) -> tuple[MarkovSelector, MarkovSelector]:
    """Responder and leader selectors for a fitted ``IsaacsSolver``'s value.

    Both reuse the solver's discretization and one evaluation of the
    Hamiltonians, instead of assembling the operators again.
    """
    disc, u = solver.discretization_, solver.value_
    ham = disc.hamiltonians(u.values)
    return (
        _beta_selector(solver.problem_, disc, ham, u, epsilon),
        _alpha_selector(solver.problem_, disc, ham, u, epsilon),
    )


def _beta_selector(problem, disc, ham, u_hat, epsilon) -> MarkovSelector:
    """``ham``: L u_hat + f per pair and interior node of ``disc``, (nA_ext, nB, m)."""
    if epsilon <= 0:
        raise ValueError("slack epsilon must be positive")
    grid = u_hat.grid
    # sup-inf over the full (possibly penalty-extended) leader set
    worst = float(ham.min(axis=1).max(axis=0).max())
    if worst >= epsilon:
        raise ValueError(
            f"u_hat is not a discrete supersolution at slack {epsilon}: "
            f"max H = {worst:.3g}"
        )
    na = problem.n_alpha
    n_nodes = grid.n_nodes
    beta_table = np.zeros((problem.n_alpha_ext, n_nodes), dtype=int)
    margins = np.zeros((problem.n_alpha_ext, n_nodes))
    for ia in range(problem.n_alpha_ext):
        vals = ham[ia]  # (nB, m)
        feas = vals <= epsilon
        if not feas.any(axis=0).all():
            bad = disc.idx[~feas.any(axis=0)][0]
            best = float(vals.min(axis=0)[~feas.any(axis=0)][0])
            raise ValueError(
                f"no feasible responder action at node {bad} for alpha {ia}: "
                f"best margin {best - epsilon:.3g}"
            )
        choice = feas.argmax(axis=0)  # first feasible index
        beta_table[ia, disc.idx] = choice
        margins[ia, disc.idx] = vals[choice, np.arange(vals.shape[1])] - epsilon
    return MarkovSelector(
        role="beta",
        grid=grid,
        domain=problem.domain,
        epsilon=epsilon,
        beta_table=beta_table,
        margins=margins,
        value_field=u_hat,
    )


def _alpha_selector(problem, disc, ham, u_check, epsilon) -> MarkovSelector:
    if epsilon <= 0:
        raise ValueError("slack epsilon must be positive")
    grid = u_check.grid
    worst = float(ham.min(axis=1).max(axis=0).min())
    if worst <= -epsilon:
        raise ValueError(
            f"u_check is not a discrete subsolution at slack {epsilon}: "
            f"min H = {worst:.3g}"
        )
    minvals = ham.min(axis=1)  # (nA_ext, m)
    feas = minvals >= -epsilon
    if not feas.any(axis=0).all():
        bad = disc.idx[~feas.any(axis=0)][0]
        raise ValueError(f"no feasible leader action at node {bad}")
    choice = feas.argmax(axis=0)
    n_nodes = grid.n_nodes
    alpha_table = np.zeros(n_nodes, dtype=int)
    alpha_table[disc.idx] = choice
    margins = np.zeros(n_nodes)
    margins[disc.idx] = minvals[choice, np.arange(minvals.shape[1])] + epsilon
    return MarkovSelector(
        role="alpha",
        grid=grid,
        domain=problem.domain,
        epsilon=epsilon,
        alpha_table=alpha_table,
        margins=margins,
        value_field=u_check,
    )


class ConstantPolicy:
    """Always plays the same action."""

    lag_n = 0

    def __init__(self, action: int, name: str | None = None):
        self.action = int(action)
        self.name = name or f"const{action}"

    def select(self, k, t, x):
        return np.full(x.shape[0], self.action)


class BangBangPolicy:
    """Switches through a fixed action schedule at fixed times."""

    lag_n = 0

    def __init__(self, switch_times, actions, name: str | None = None):
        if len(actions) != len(switch_times) + 1:
            raise ValueError("need one more action than switch times")
        self.switch_times = list(switch_times)
        self.actions = [int(a) for a in actions]
        self.name = name or "bangbang"

    def select(self, k, t, x):
        idx = int(np.searchsorted(self.switch_times, t, side="right"))
        return np.full(x.shape[0], self.actions[idx])


class OccupancyPolicy:
    """Spends a fixed fraction of each period in a designated action.

    Used to occupy the penalty actions for a controlled share of time in
    the coupling experiment.
    """

    lag_n = 0

    def __init__(self, base_action: int, special_action: int, fraction: float, period: float = 0.1):
        if not (0 <= fraction <= 1):
            raise ValueError("occupation fraction must lie in [0, 1]")
        self.base_action = int(base_action)
        self.special_action = int(special_action)
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

    def __init__(self, action: int):
        self.action = int(action)

    def respond(self, ia, k, t, x):
        return np.full(np.shape(ia), self.action)


class FeedbackAlphaPolicy:
    """Leader feedback from an alpha selector, state frozen at the lag grid."""

    def __init__(self, selector: MarkovSelector, lag_n: int = 0):
        if selector.role != "alpha":
            raise ValueError("needs an alpha selector")
        if lag_n < 0:
            raise ValueError("lag must be nonnegative")
        self.selector = selector
        self.lag_n = int(lag_n)
        self.name = "feedback_alpha"

    def select(self, k, t, x):
        return self.selector.alpha_at(x)


class FeedbackBetaPolicy:
    """Responder feedback: action tracks the current opponent action while
    the state argument stays frozen at the last lag-grid time."""

    def __init__(self, selector: MarkovSelector, lag_n: int = 0):
        if selector.role != "beta":
            raise ValueError("needs a beta selector")
        if lag_n < 0:
            raise ValueError("lag must be nonnegative")
        self.selector = selector
        self.lag_n = int(lag_n)
        self.name = "feedback_beta"

    def respond(self, ia, k, t, x):
        return self.selector.beta_at(ia, x)


def make_feedback_policy(selector: MarkovSelector, n: int):
    """Wrap a selector as a causal policy reading the state at kappa_n(t)."""
    if n < 1:
        raise ValueError("lag parameter n must be at least 1")
    if selector.role == "beta":
        return FeedbackBetaPolicy(selector, lag_n=n)
    return FeedbackAlphaPolicy(selector, lag_n=n)


@dataclass
class CandidateControlSet:
    """Finite stand-in for the sup over all admissible leader controls."""

    policies: list

    def __post_init__(self):
        if not self.policies:
            raise ValueError("candidate set must be nonempty")

    def __len__(self) -> int:
        return len(self.policies)

    def names(self) -> list[str]:
        return [getattr(p, "name", type(p).__name__) for p in self.policies]


@dataclass
class MartingaleTestReport:
    side: str  # "super" or "sub"
    times: list[float]
    means: list[float]
    ses: list[float]
    diffs: list[float]  # m(t_{k+1}) - m(t_k)
    diff_ses: list[float]  # paired standard errors of the differences
    tolerances: list[float]
    passed: bool

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
    n = samples.shape[1]
    means = [float(s.mean()) for s in samples]
    ses = [float(s.std(ddof=1) / math.sqrt(n)) for s in samples]
    r_max = float(np.max(spec.r_table))
    diffs, diff_ses, tols = [], [], []
    ok = True
    for i in range(len(times) - 1):
        delta = samples[i + 1] - samples[i]
        dm = float(delta.mean())
        dse = float(delta.std(ddof=1) / math.sqrt(n))
        dt_interval = times[i + 1] - times[i]
        tol = epsilon * r_max**2 * dt_interval + 3.0 * dse
        diffs.append(dm)
        diff_ses.append(dse)
        tols.append(tol)
        if side == "super" and dm > tol:
            ok = False
        if side == "sub" and dm < -tol:
            ok = False
    return MartingaleTestReport(
        side=side,
        times=times,
        means=means,
        ses=ses,
        diffs=diffs,
        diff_ses=diff_ses,
        tolerances=tols,
        passed=ok,
    )


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
