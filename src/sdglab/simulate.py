"""Exit-time Euler-Maruyama simulation under probability-space variants.

A variant assigns to each action pair a time-change rate r, a measure-
change drift pi, and an orthogonal transform of the common Gaussian
increments (a policy-dependent driving noise).  The state obeys

    dx = r sigma dw + r^2 (b + sigma pi) dt,

and two accumulators ride along: the discount integral

    phi_t = int r^2 c dt,

and the measure-change exponent

    psi_t = int ( (1/2) r^2 |pi|^2 dt + r pi . dw ),

so that exp(-psi) is the exponential martingale that removes the pi
drift under the changed measure.  Payoffs are discounted by
exp(-phi - psi); paths that fail to leave the domain by the time horizon
are censored with a zero terminal term, and the censored mass is
reported.

All simulation is vectorized across paths; the Gaussian draw for (path
i, step k) depends only on the seed, so runs with different variants or
candidate policies but a shared seed use common random numbers.  Such
runs can be stepped together as lanes of one ensemble, which draws the
stream once and pays the per-step overhead once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import ValueField
from .model import GameProblem

__all__ = [
    "ControlAdaptedSpec",
    "SimConfig",
    "PathState",
    "TrajectoryRecord",
    "TrajectoryBatch",
    "MartingaleReport",
    "BoundReport",
    "ComparisonReport",
    "em_step",
    "simulate_to_exit",
    "simulate_lanes",
    "girsanov_martingale_check",
    "increment_bound_study",
    "pathwise_comparison",
]

VARIANTS = ("baseline", "time_change", "girsanov", "rotated_noise", "combined")


@dataclass(frozen=True)
class ControlAdaptedSpec:
    """Per-action-pair (r, pi, noise transform) tables.

    ``r_table`` has shape (nA, nB); ``pi_table`` (nA, nB, d1);
    ``noise_table`` (nA, nB, d1, d1) with orthogonal blocks.
    """

    variant: str
    r_table: np.ndarray
    pi_table: np.ndarray
    noise_table: np.ndarray
    delta1: float
    K1: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        r = np.asarray(self.r_table)
        if r.min() < self.delta1 - 1e-12 or r.max() > 1.0 / self.delta1 + 1e-12:
            raise ValueError("time-change rates leave [delta1, 1/delta1]")
        pi_norm = np.linalg.norm(self.pi_table, axis=-1)
        if pi_norm.max() > self.K1 + 1e-12:
            raise ValueError("measure-change drift exceeds K1")
        q = self.noise_table
        qqt = np.einsum("abij,abkj->abik", q, q)
        eye = np.eye(q.shape[-1])
        if np.max(np.abs(qqt - eye)) > 1e-12:
            raise ValueError("noise transforms must be orthogonal")

    @staticmethod
    def baseline(problem: GameProblem, variant: str = "baseline") -> "ControlAdaptedSpec":
        na, nb, d1 = problem.n_alpha_ext, problem.n_beta, problem.d1
        return ControlAdaptedSpec(
            variant=variant,
            r_table=np.ones((na, nb)),
            pi_table=np.zeros((na, nb, d1)),
            noise_table=np.broadcast_to(np.eye(d1), (na, nb, d1, d1)).copy(),
            delta1=problem.delta1,
            K1=problem.K1,
        )

    def is_baseline(self) -> bool:
        return (
            np.all(self.r_table == 1.0)
            and np.all(self.pi_table == 0.0)
            and np.all(self.noise_table == np.eye(self.noise_table.shape[-1]))
        )


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-4
    t_max: float = 2.0
    n_paths: int = 10_000
    seed: int = 0
    lag_n: int = 0  # 0: feedback policies read the current (pre-step) state

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_max < 1:
            raise ValueError("truncation horizon must be at least 1")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.lag_n and self.lag_n * self.dt > 1 + 1e-12:
            raise ValueError("policy lag 1/n must not be finer than the timestep")


@dataclass
class PathState:
    t: float
    x: np.ndarray
    phi: float = 0.0
    psi: float = 0.0


@dataclass
class TrajectoryRecord:
    tau: float
    censored: bool
    exit_state: np.ndarray
    phi: float
    psi: float
    running_payoff: float
    terminal_payoff: float

    @property
    def girsanov_weight(self) -> float:
        return math.exp(-self.psi)

    @property
    def payoff(self) -> float:
        return self.running_payoff + self.terminal_payoff


@dataclass
class TrajectoryBatch:
    """Struct-of-arrays over simulated paths."""

    tau: np.ndarray
    censored: np.ndarray
    exit_state: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    running_payoff: np.ndarray
    terminal_payoff: np.ndarray

    def __len__(self) -> int:
        return len(self.tau)

    def record(self, i: int) -> TrajectoryRecord:
        return TrajectoryRecord(
            tau=float(self.tau[i]),
            censored=bool(self.censored[i]),
            exit_state=self.exit_state[i].copy(),
            phi=float(self.phi[i]),
            psi=float(self.psi[i]),
            running_payoff=float(self.running_payoff[i]),
            terminal_payoff=float(self.terminal_payoff[i]),
        )

    @property
    def payoff(self) -> np.ndarray:
        return self.running_payoff + self.terminal_payoff

    @property
    def girsanov_weight(self) -> np.ndarray:
        return np.exp(-self.psi)

    @property
    def censored_fraction(self) -> float:
        return float(self.censored.mean())

    def to_csv(self, path) -> None:
        d = self.exit_state.shape[1]
        cols = ["tau", "censored"] + [f"x{i + 1}" for i in range(d)]
        cols += ["phi", "psi", "running_payoff", "terminal_payoff"]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(len(self)):
                row = [f"{self.tau[i]:.17g}", str(int(self.censored[i]))]
                row += [f"{v:.17g}" for v in self.exit_state[i]]
                row += [
                    f"{self.phi[i]:.17g}",
                    f"{self.psi[i]:.17g}",
                    f"{self.running_payoff[i]:.17g}",
                    f"{self.terminal_payoff[i]:.17g}",
                ]
                fh.write(",".join(row) + "\n")


def em_step(
    problem: GameProblem,
    spec: ControlAdaptedSpec,
    state: PathState,
    ia: int,
    ib: int,
    dW: np.ndarray,
    dt: float,
) -> PathState:
    """One explicit Euler step for a single path; coefficients at the pre-step x."""
    dW = np.asarray(dW, dtype=float)
    if not np.all(np.isfinite(dW)):
        raise ValueError("non-finite Gaussian increment")
    r = float(spec.r_table[ia, ib])
    pi = spec.pi_table[ia, ib]
    q = spec.noise_table[ia, ib]
    dw = q @ dW
    sig = problem.sigma[ia][ib].at(state.x)
    bv = problem.b[ia][ib].at(state.x)
    cv = problem.c[ia][ib].at(state.x)
    x_new = state.x + r * (sig @ dw) + r * r * (bv + sig @ pi) * dt
    phi_new = state.phi + r * r * cv * dt
    psi_new = state.psi + 0.5 * r * r * float(pi @ pi) * dt + r * float(pi @ dw)
    return PathState(t=state.t + dt, x=x_new, phi=phi_new, psi=psi_new)


class _PairCoefficients:
    """Vectorized per-pair coefficient evaluation with constant fast paths."""

    def __init__(self, problem: GameProblem, ia: int, ib: int):
        self.sigma_field = problem.sigma[ia][ib]
        self.b_field = problem.b[ia][ib]
        self.c_field = problem.c[ia][ib]
        self.f_field = problem.f[ia][ib]
        self.sigma_const = self.sigma_field.at(np.zeros(problem.d)) if self.sigma_field.is_constant else None
        self.b_const = self.b_field.at(np.zeros(problem.d)) if self.b_field.is_constant else None
        self.c_const = self.c_field.at(np.zeros(problem.d)) if self.c_field.is_constant else None
        self.f_const = self.f_field.at(np.zeros(problem.d)) if self.f_field.is_constant else None

    def sigma(self, x):
        if self.sigma_const is not None:
            return np.broadcast_to(self.sigma_const, (x.shape[0],) + self.sigma_const.shape)
        return self.sigma_field(x)

    def b(self, x):
        if self.b_const is not None:
            return np.broadcast_to(self.b_const, (x.shape[0],) + self.b_const.shape)
        return self.b_field(x)

    def c(self, x):
        if self.c_const is not None:
            return np.full(x.shape[0], self.c_const)
        return self.c_field(x)

    def f(self, x):
        if self.f_const is not None:
            return np.full(x.shape[0], self.f_const)
        return self.f_field(x)


_DRAW_BLOCK = 8  # steps drawn per call of the worker thread
_MAX_ROWS = 1 << 19  # paths per ensemble; 45 lanes of 10k paths fit in one


def _gaussian_steps(seed: int, n: int, d1: int, dt: float):
    """The seed's Gaussian increments, one (n, d1) array per step.

    One Philox stream is drawn in blocks of steps, which is the same
    stream as step-by-step draws.  A worker thread draws the next
    block while the caller uses the current one; numpy releases the GIL
    while it fills the array.  The executor is imported here so that
    ``import sdglab`` does not load the threading machinery.
    """
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.Generator(np.random.Philox(seed))

    def draw():
        z = rng.standard_normal((_DRAW_BLOCK, n, d1))
        z *= math.sqrt(dt)  # what rng.normal(0.0, sqrt(dt)) returns
        return z

    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(draw)
        while True:
            current = ahead.result()
            ahead = pool.submit(draw)
            yield from current


def _distinct(objs):
    """Distinct objects (by identity) in first-seen order, and each one's index."""
    uniq, idx = [], []
    for obj in objs:
        j = next((i for i, u in enumerate(uniq) if u is obj), len(uniq))
        if j == len(uniq):
            uniq.append(obj)
        idx.append(j)
    return uniq, idx


def _run_ensemble(
    problem: GameProblem,
    lanes,
    beta_policy,
    cfg: SimConfig,
    *,
    value_field: ValueField | None = None,
    checkpoint_times: tuple[float, ...] = (),
    lag_ns: tuple[int, ...] = (),
    track_exp_psi_integral: bool = False,
):
    """Vectorized ensemble simulation; the single code path behind the ops.

    ``lanes`` is a sequence of (spec, x0, alpha_policy).  Each lane holds
    cfg.n_paths paths, stacked lane after lane, and every lane reads the
    same Gaussian draw at each step, so a lane's paths are exactly those
    of a run of that lane alone.  Returns one batch per lane and the
    extras over all stacked rows.
    """
    starts = []
    for _, x0, _ in lanes:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if not problem.domain.contains(x0[None, :])[0]:
            raise ValueError("starting point must lie inside the domain")
        starts.append(x0)
    n = cfg.n_paths
    n_rows = len(lanes) * n
    d1 = problem.d1
    dt = cfg.dt
    nb = problem.n_beta
    n_pairs = problem.n_alpha_ext * nb
    draws = _gaussian_steps(cfg.seed, n, d1, dt)
    coeffs = {
        (ia, ib): _PairCoefficients(problem, ia, ib)
        for ia in range(problem.n_alpha_ext)
        for ib in range(nb)
    }
    # lanes are stacked leader by leader, so each leader owns one block of
    # rows; rows are stepped in groups of one spec and one action pair
    leaders, leader_of = _distinct([lane[2] for lane in lanes])
    stack = sorted(range(len(lanes)), key=leader_of.__getitem__)
    leader_rows = n * np.cumsum([0] + [leader_of.count(i) for i in range(len(leaders))])
    specs, spec_of = _distinct([lanes[j][0] for j in stack])
    spec_row = np.repeat(np.asarray(spec_of, dtype=int), n)
    draw_col = np.tile(np.arange(n), len(lanes))  # row -> path within its lane

    X = np.repeat(np.asarray([starts[j] for j in stack]), n, axis=0)
    phi = np.zeros(n_rows)
    psi = np.zeros(n_rows)
    run_pay = np.zeros(n_rows)
    exp_psi_int = np.zeros(n_rows) if track_exp_psi_integral else None
    tau = np.full(n_rows, cfg.t_max)
    exit_state = X.copy()
    phi_exit = np.zeros(n_rows)
    psi_exit = np.zeros(n_rows)
    censored = np.ones(n_rows, dtype=bool)
    frozen_m = np.zeros(n_rows)  # checkpoint contribution frozen at exit
    act = np.arange(n_rows)  # rows still alive, in increasing order
    dist = problem.domain.boundary_distance(X)

    # policy lags: each requested n keeps a frozen state snapshot
    policy_lags = sorted(
        {p.lag_n for p in (*leaders, beta_policy) if getattr(p, "lag_n", 0)}
    )
    lag_all = sorted(set(policy_lags) | set(lag_ns))
    snapshots = {m: X.copy() for m in lag_all}
    last_cell = {m: 0 for m in lag_all}
    M_acc = {m: np.zeros(n_rows) for m in lag_ns}

    cps = sorted(checkpoint_times)
    cp_values = []
    cp_recorded = 0

    def checkpoint():
        contrib = frozen_m.copy()
        if act.size and value_field is not None:
            contrib[act] = (
                value_field.interpolate(X[act]) * np.exp(-phi[act] - psi[act]) + run_pay[act]
            )
        cp_values.append(contrib)

    n_steps = int(round(cfg.t_max / dt))
    for k in range(n_steps):
        t = k * dt
        for m in lag_all:
            cell = int(math.floor(m * t + 1e-9))
            if cell > last_cell[m]:
                snapshots[m][act] = X[act]
                last_cell[m] = cell
        while cp_recorded < len(cps) and t >= cps[cp_recorded] - 0.5 * dt:
            checkpoint()
            cp_recorded += 1
        if not act.size:
            break
        x_alive = X[act]
        ia = np.empty(act.size, dtype=int)
        bounds = np.searchsorted(act, leader_rows).tolist()
        for policy, lo, hi in zip(leaders, bounds[:-1], bounds[1:]):
            if lo < hi:
                lag = getattr(policy, "lag_n", 0)
                x_alpha = snapshots[lag][act[lo:hi]] if lag else x_alive[lo:hi]
                ia[lo:hi] = policy.select(k, t, x_alpha)
        x_beta = snapshots[beta_policy.lag_n][act] if getattr(beta_policy, "lag_n", 0) else x_alive
        ib = beta_policy.respond(ia, k, t, x_beta)
        if np.isscalar(ib) or ib.ndim == 0:
            ib = np.full(act.size, int(ib))

        group = ia * nb + ib
        if len(specs) > 1:
            group += spec_row[act] * n_pairs
        # after a stable sort each group is one contiguous, ascending run
        order = np.argsort(group, kind="stable")
        rows = act[order]
        group = group[order]
        cuts = (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()
        xs_all = x_alive[order]
        dW = next(draws)[draw_col[rows]]
        w_old = np.exp(-phi[rows] - psi[rows])
        x_new = np.empty_like(xs_all)
        dphi = np.empty(rows.size)
        dpsi = np.empty(rows.size)
        dpay = np.empty(rows.size)
        for lo, hi in zip([0] + cuts, cuts + [rows.size]):
            code = int(group[lo])
            spec = specs[code // n_pairs]
            cia, cib = divmod(code % n_pairs, nb)
            cf = coeffs[(cia, cib)]
            r = float(spec.r_table[cia, cib])
            piv = spec.pi_table[cia, cib]
            q = spec.noise_table[cia, cib]
            xs = xs_all[lo:hi]
            dw = dW[lo:hi] @ q.T
            sig = cf.sigma(xs)
            noise = np.einsum("nij,nj->ni", sig, dw)
            drift = r * r * (cf.b(xs) + np.einsum("nij,j->ni", sig, piv))
            x_new[lo:hi] = xs + r * noise + drift * dt
            dphi[lo:hi] = r * r * cf.c(xs) * dt
            dpsi[lo:hi] = 0.5 * r * r * float(piv @ piv) * dt + r * (dw @ piv)
            dpay[lo:hi] = r * r * cf.f(xs) * w_old[lo:hi] * dt

        dist_old = dist[rows]
        dist_new = problem.domain.boundary_distance(x_new)
        exiting = dist_new <= 0.0
        scale = np.ones(rows.size)
        if exiting.any():
            theta = dist_old[exiting] / (dist_old[exiting] - dist_new[exiting])
            scale[exiting] = theta
        if lag_ns:
            for m in lag_ns:
                diff = xs_all - snapshots[m][rows]
                M_acc[m][rows] += (
                    np.exp(-phi[rows] - psi[rows])
                    * np.einsum("ni,ni->n", diff, diff)
                    * scale
                    * dt
                )
        if track_exp_psi_integral:
            exp_psi_int[rows] += np.exp(-psi[rows]) * scale * dt

        run_pay[rows] += dpay * scale
        phi[rows] += dphi * scale
        psi[rows] += dpsi * scale
        X[rows] = xs_all + (x_new - xs_all) * scale[:, None]
        dist[rows] = np.where(exiting, 0.0, dist_new)

        if exiting.any():
            gone = rows[exiting]
            tau[gone] = t + scale[exiting] * dt
            exit_state[gone] = X[gone]
            phi_exit[gone] = phi[gone]
            psi_exit[gone] = psi[gone]
            censored[gone] = False
            keep = np.ones(act.size, dtype=bool)
            keep[order[exiting]] = False
            act = act[keep]
            if value_field is not None:
                frozen_m[gone] = (
                    value_field.interpolate(X[gone]) * np.exp(-phi[gone] - psi[gone])
                    + run_pay[gone]
                )

    draws.close()
    while cp_recorded < len(cps):
        checkpoint()
        cp_recorded += 1

    # censored paths keep their state at the horizon; terminal term is zero
    exit_state[censored] = X[censored]
    phi_exit[censored] = phi[censored]
    psi_exit[censored] = psi[censored]
    terminal = np.zeros(n_rows)
    hit = ~censored
    if hit.any():
        gvals = problem.g(exit_state[hit])
        terminal[hit] = gvals * np.exp(-phi_exit[hit] - psi_exit[hit])

    batches = [
        TrajectoryBatch(
            tau=tau[sl],
            censored=censored[sl],
            exit_state=exit_state[sl],
            phi=phi_exit[sl],
            psi=psi_exit[sl],
            running_payoff=run_pay[sl],
            terminal_payoff=terminal[sl],
        )
        for sl in (slice(p * n, (p + 1) * n) for p in np.argsort(stack))
    ]
    extras = {
        "checkpoints": np.asarray(cp_values) if cps else None,
        "M_acc": M_acc,
        "exp_psi_integral": exp_psi_int,
    }
    return batches, extras


def simulate_to_exit(
    problem: GameProblem,
    spec: ControlAdaptedSpec,
    x0,
    alpha_policy,
    beta_policy,
    cfg: SimConfig,
) -> TrajectoryBatch:
    """Simulate cfg.n_paths trajectories until exit or censoring."""
    return simulate_lanes(problem, [(spec, x0, alpha_policy)], beta_policy, cfg)[0]


def simulate_lanes(problem: GameProblem, lanes, beta_policy, cfg: SimConfig) -> list[TrajectoryBatch]:
    """``simulate_to_exit`` for each (spec, x0, alpha_policy) lane, stepped together.

    Every lane uses the seed's Gaussian stream, so each batch equals the
    one ``simulate_to_exit`` gives for that lane; the lanes share the
    draw and the per-step overhead.  Lanes are run in ensembles of at
    most ``_MAX_ROWS`` paths, which bounds the memory.
    """
    per_run = max(1, _MAX_ROWS // cfg.n_paths)
    batches = []
    for i in range(0, len(lanes), per_run):
        batches += _run_ensemble(problem, lanes[i : i + per_run], beta_policy, cfg)[0]
    return batches


@dataclass
class MartingaleReport:
    weight_mean: float
    weight_se: float
    censored_fraction: float
    censored_weight_mass: float  # mean of e^{-psi} restricted to censored paths
    exp_psi_integral_mean: float

    def summary(self) -> str:
        return (
            f"mean exp(-psi_tau)      : {self.weight_mean:.6f} +- {self.weight_se:.6f}\n"
            f"censored fraction       : {self.censored_fraction:.6f}\n"
            f"censored weight mass    : {self.censored_weight_mass:.6f}\n"
            f"E int exp(-psi) ds      : {self.exp_psi_integral_mean:.6f}"
        )


def girsanov_martingale_check(
    problem: GameProblem,
    spec: ControlAdaptedSpec,
    x0,
    alpha_policy,
    beta_policy,
    cfg: SimConfig,
) -> MartingaleReport:
    """Monte Carlo check of E exp(-psi_tau) = 1 and the occupation bound."""
    (batch,), extras = _run_ensemble(
        problem, [(spec, x0, alpha_policy)], beta_policy, cfg, track_exp_psi_integral=True
    )
    w = np.exp(-batch.psi)
    # censored paths contribute zero per the tau = infinity convention;
    # their weight is reported separately as truncation-bias mass
    w_eff = np.where(batch.censored, 0.0, w)
    n = len(batch)
    mean = float(w_eff.mean())
    se = float(w_eff.std(ddof=1) / math.sqrt(n))
    cm = float(w[batch.censored].sum() / n) if batch.censored.any() else 0.0
    return MartingaleReport(
        weight_mean=mean,
        weight_se=se,
        censored_fraction=batch.censored_fraction,
        censored_weight_mass=cm,
        exp_psi_integral_mean=float(extras["exp_psi_integral"].mean()),
    )


@dataclass
class BoundReport:
    n_values: list[int]
    M_values: list[float]  # E int e^{-phi-psi} |x_t - x_{lag}|^2 dt
    M_se: list[float]

    @property
    def scaled(self) -> list[float]:
        return [m * n for n, m in zip(self.n_values, self.M_values)]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("n,M,M_se,M_times_n\n")
            for n, m, s in zip(self.n_values, self.M_values, self.M_se):
                fh.write(f"{n},{m:.17g},{s:.17g},{m * n:.17g}\n")


def increment_bound_study(
    problem: GameProblem,
    spec: ControlAdaptedSpec,
    x0,
    alpha_policy,
    beta_policy,
    cfg: SimConfig,
    n_list,
) -> BoundReport:
    """Estimate the weighted squared lag increment integral for each lag n."""
    n_list = [int(v) for v in n_list]
    if sorted(n_list) != n_list:
        raise ValueError("n_list must be increasing")
    if cfg.dt > 1.0 / (4 * max(n_list)):
        raise ValueError("timestep too coarse for the finest lag")
    _, extras = _run_ensemble(
        problem, [(spec, x0, alpha_policy)], beta_policy, cfg, lag_ns=tuple(n_list)
    )
    Ms, ses = [], []
    for m in n_list:
        acc = extras["M_acc"][m]
        Ms.append(float(acc.mean()))
        ses.append(float(acc.std(ddof=1) / math.sqrt(len(acc))))
    return BoundReport(n_list, Ms, ses)


@dataclass
class ComparisonReport:
    occupation_fraction: float
    mean_sup_divergence: float
    se_sup_divergence: float
    mean_occupation_time: float
    ratio: float  # E sup|x-y| / sqrt(E occupation time)


def pathwise_comparison(
    problem: GameProblem,
    spec: ControlAdaptedSpec,
    x0,
    mixed_alpha_policy,
    beta_policy,
    cfg: SimConfig,
    T: float,
    projection: np.ndarray,
) -> ComparisonReport:
    """Couple the penalty-visiting path with its projected twin on one noise.

    Requires pi == 0.  ``projection`` maps every extended alpha index to a
    regular one (identity on the regular actions).
    """
    if np.any(spec.pi_table != 0.0):
        raise ValueError("pathwise comparison requires pi identically zero")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n, d, d1 = cfg.n_paths, problem.d, problem.d1
    nb = problem.n_beta
    dt = cfg.dt
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    coeffs = {
        (ia, ib): _PairCoefficients(problem, ia, ib)
        for ia in range(problem.n_alpha_ext)
        for ib in range(nb)
    }
    projection = np.asarray(projection, dtype=int)
    X = np.tile(x0, (n, 1))
    Y = X.copy()
    supdiff = np.zeros(n)
    occ = np.zeros(n)
    running = np.ones(n, dtype=bool)  # stop at gamma = T ^ first exit of either
    n_steps = int(round(T / dt))
    for k in range(n_steps):
        if not running.any():
            break
        t = k * dt
        act = np.flatnonzero(running)
        dW = rng.normal(0.0, math.sqrt(dt), size=(n, d1))
        ia = mixed_alpha_policy.select(k, t, X[act])
        if np.isscalar(ia) or ia.ndim == 0:
            ia = np.full(len(act), int(ia))
        ia_proj = projection[ia]
        for arr, actions, xsrc in ((X, ia, X), (Y, ia_proj, Y)):
            ib = beta_policy.respond(actions, k, t, xsrc[act])
            if np.isscalar(ib) or ib.ndim == 0:
                ib = np.full(len(act), int(ib))
            code = actions * nb + ib
            for cval in np.unique(code):
                gsel = code == cval
                rows = act[gsel]
                cia, cib = int(cval) // nb, int(cval) % nb
                cf = coeffs[(cia, cib)]
                r = float(spec.r_table[cia, cib])
                xs = arr[rows]
                sig = cf.sigma(xs)
                noise = np.einsum("nij,nj->ni", sig, dW[rows])
                arr[rows] = xs + r * noise + r * r * cf.b(xs) * dt
        occ[act] += np.where(ia >= problem.n_alpha, dt, 0.0)
        diff = np.linalg.norm(X[act] - Y[act], axis=1)
        supdiff[act] = np.maximum(supdiff[act], diff)
        inside = problem.domain.contains(X[act]) & problem.domain.contains(Y[act])
        running[act] = inside
    mean_sup = float(supdiff.mean())
    se_sup = float(supdiff.std(ddof=1) / math.sqrt(n))
    mean_occ = float(occ.mean())
    ratio = mean_sup / math.sqrt(mean_occ) if mean_occ > 0 else math.inf
    return ComparisonReport(
        occupation_fraction=mean_occ / T,
        mean_sup_divergence=mean_sup,
        se_sup_divergence=se_sup,
        mean_occupation_time=mean_occ,
        ratio=ratio,
    )
