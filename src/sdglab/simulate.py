"""Exit-time Euler-Maruyama simulation under probability-space variants.

A variant assigns to each action pair of the game a time-change rate r
in [delta1, 1/delta1], a measure-change drift pi of norm at most K1, and
an orthogonal transform of the common Gaussian increments (a
policy-dependent driving noise); a run checks this against the problem
it runs on before its first step.  The state obeys

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

All simulation is vectorized across paths.  A Gaussian increment depends
only on the seed, the path's index within its lane, the step and the
component, so it is evaluated for alive paths only, and runs with other
variants or candidate policies but a shared seed use common random
numbers.  Such runs can be stepped together as lanes of one ensemble.

An ensemble holds the state of the rows alive at the start of each block
in compacted arrays and steps them in place, with one kernel call per
step whatever mix of specs and action pairs they hold.  A block covers
``_BLOCK`` steps, or 8 ``_BLOCK`` when fewer than ``_TAIL_ROWS`` rows are
alive at its start, where its fixed cost outweighs the rows' work.  A row
that leaves the domain is stopped at the linearly interpolated crossing
and stays frozen there; until its block ends it is stepped at zero scale
(scales are multiplied in only from a block's first exit on), and the
players' answers for it are discarded.  Each player is resolved once per
ensemble (see ``policies``): constant players are filled in once per
block, feedback players read their tables at one nearest-node lookup per
step for each grid and lag (a responder's as a table of action pairs),
and any other player is called.  A run whose caller reads only
checkpoints stops at the step that reads the last one.  Each row's code
(spec, ia, ib) indexes per-code tables of r, pi, the noise transform and
the constant 0.5 r^2 |pi|^2 dt, built once per ensemble, where every r 1
or every pi 0 is folded away (``_StepKernel``).  The coefficients are
evaluated per action pair, never per spec: a constant coefficient from a
per-pair table, the 1-D affine family from per-row parameters, any other
coefficient once per pair present, on that pair's rows.  Every element is
computed in the operation order of the single-path reference step in
``tests/test_simulate.py``, so a row's result does not depend on the rows
stepped with it.

That is what lets an ensemble use every CPU.  With at least two parts of
``_SPLIT_ROWS`` rows, it is cut into one path range per CPU the process
may run on, the same range of every lane; the caller steps the first and
a forked child steps each other one and sends its rows' final state back.
The outputs are bit-identical to stepping all rows in one process, which
is done without ``fork``, on one CPU, or while other threads run.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .coefficients import ScalarField
from .grids import ValueField, write_csv
from .model import GameProblem, _integer

__all__ = [
    "ControlAdaptedSpec",
    "SimConfig",
    "TrajectoryBatch",
    "MartingaleReport",
    "BoundReport",
    "ComparisonReport",
    "simulate_to_exit",
    "simulate_lanes",
    "girsanov_martingale_check",
    "increment_bound_study",
    "pathwise_comparison",
]


@dataclass(frozen=True)
class ControlAdaptedSpec:
    """Per-action-pair (r, pi, noise transform) tables of shapes (nA, nB), (nA, nB, d1) and
    (nA, nB, d1, d1), nA counting penalty actions; ``check`` holds them to a problem.
    """

    r_table: np.ndarray
    pi_table: np.ndarray
    noise_table: np.ndarray

    def check(self, problem: GameProblem) -> None:
        """Raise ``ValueError`` unless the tables fit ``problem``: their shapes, rates r in
        [delta1, 1/delta1], drifts |pi| <= K1 and orthogonal noise transforms, all at 1e-12."""
        na, nb, d1 = problem.n_alpha_ext, problem.n_beta, problem.d1
        for name, shape in (("r_table", (na, nb)), ("pi_table", (na, nb, d1)), ("noise_table", (na, nb, d1, d1))):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} has shape {np.shape(getattr(self, name))}, the problem's is {shape}")
        # written so that a NaN entry fails each test
        r = np.asarray(self.r_table)
        if not np.all((r >= problem.delta1 - 1e-12) & (r <= 1.0 / problem.delta1 + 1e-12)):
            raise ValueError(f"time-change rates leave [delta1, 1/delta1] for delta1 = {problem.delta1:g}")
        pi_norm = np.linalg.norm(self.pi_table, axis=-1)
        if not np.all(pi_norm <= problem.K1 + 1e-12):
            raise ValueError(f"measure-change drift exceeds K1 = {problem.K1:g}")
        q = self.noise_table
        qqt = np.einsum("abij,abkj->abik", q, q)
        if not np.all(np.abs(qqt - np.eye(d1)) <= 1e-12):
            raise ValueError("noise transforms must be orthogonal")

    @staticmethod
    def baseline(problem: GameProblem) -> "ControlAdaptedSpec":
        na, nb, d1 = problem.n_alpha_ext, problem.n_beta, problem.d1
        return ControlAdaptedSpec(
            r_table=np.ones((na, nb)),
            pi_table=np.zeros((na, nb, d1)),
            noise_table=np.broadcast_to(np.eye(d1), (na, nb, d1, d1)).copy(),
        )


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-4
    t_max: float = 2.0
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_paths", _integer(self.n_paths, "n_paths", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 1 <= self.t_max < math.inf:
            raise ValueError(f"truncation horizon must be finite and at least 1, got {self.t_max}")
        if self.seed >= 1 << 64:
            raise ValueError("seed must lie in [0, 2**64)")


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

    @property
    def payoff(self) -> np.ndarray:
        return self.running_payoff + self.terminal_payoff

    @property
    def censored_fraction(self) -> float:
        return float(self.censored.mean())

    def to_csv(self, path) -> None:
        d = self.exit_state.shape[1]
        cols = ["tau", "censored"] + [f"x{i + 1}" for i in range(d)]
        cols += ["phi", "psi", "running_payoff", "terminal_payoff"]
        write_csv(path, cols, np.column_stack([
            self.tau, self.censored, self.exit_state, self.phi, self.psi,
            self.running_payoff, self.terminal_payoff,
        ]))


def _mean_se(x) -> tuple[float, float]:
    """The mean of the 1-D samples ``x`` and its standard error, the sample standard deviation over sqrt(n)."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def _per_code(table):
    """Row gather from a per-code table, or its one entry if every code shares it; ``x`` is unread."""
    table = np.asarray(table, dtype=float)
    if (table == table[:1]).all():
        return lambda code, *_, first=table[0]: first
    return lambda code, *_: table.take(code, axis=0)


def _pair_field(fields, d: int):
    """One coefficient (sigma, b, c or f) of every action pair, as ``field(pair, x)`` per row.

    Constant fields are gathered from a table, 1-D affine scalar fields
    from per-row parameters as c0 + x c1 (bit-exact with the family), any
    other field once per pair present, on that pair's rows.
    """
    if all(f.is_constant for f in fields):
        return _per_code(np.concatenate([f(np.zeros((1, d))) for f in fields]))
    if all(isinstance(f, ScalarField) and f.kind == "affine" and min(len(f.params) - 1, d) == 1 for f in fields):
        c0, c1 = (np.array([f.params[i] for f in fields]) for i in (0, 1))
        return lambda pair, x: c0.take(pair) + x[:, 0] * c1.take(pair)

    def per_pair(pair, x):
        present = np.flatnonzero(np.bincount(pair, minlength=len(fields)))
        if present.size == 1:
            return fields[present[0]](x)
        rows = [np.flatnonzero(pair == p) for p in present]
        vals = [fields[p](x[r]) for p, r in zip(present, rows)]
        out = np.empty((len(x),) + vals[0].shape[1:])
        for r, v in zip(rows, vals):
            out[r] = v
        return out

    return per_pair


def _dot(a, b):
    """The sum over the last axis of a b, as explicit products summed in einsum's order."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j] * b[..., j]
    return out


class _StepKernel:
    """The Euler-Maruyama step of rows of any (spec, action pair) codes, in one call.

    A row's code is spec * n_pairs + ia * n_beta + ib, and its pair ia * n_beta + ib; see the module
    docstring.  Each spec is checked against the problem before its tables are read.  Each per-code
    value, and with sigma and b constant the drift step, is gathered once per call.  Two exact folds
    are made once: with every rate 1, ``r`` is None and the products with r and r^2 are left out
    (1.0 v == v); with every pi 0, ``psi_zero`` is set: dpsi = +0 + r (dw . 0) is +0, so psi stays
    +0 and is not stepped, and exp(-phi - psi) is exp(-phi).  For d1 <= 2 the products q dW, sigma
    dw, sigma pi and dw . pi equal einsum's but for the sign of a zero sum, which no output reads;
    for d1 >= 3 einsum sums in another order.
    """

    def __init__(self, problem: GameProblem, specs, dt: float):
        for s in specs:
            s.check(problem)
        pairs = [(ia, ib) for ia in range(problem.n_alpha_ext) for ib in range(problem.n_beta)]
        self.n_pairs, self.dt = len(pairs), dt
        self.sigma, self.b, self.c, self.f = (
            _pair_field([table[ia][ib] for ia, ib in pairs], problem.d)
            for table in (problem.sigma, problem.b, problem.c, problem.f)
        )
        r = np.array([s.r_table[ia, ib] for s in specs for ia, ib in pairs])
        pi = np.array([s.pi_table[ia, ib] for s in specs for ia, ib in pairs])
        q = np.array([s.noise_table[ia, ib] for s in specs for ia, ib in pairs])
        self.r = None if (r == 1.0).all() else _per_code(r)
        self.pi, self.psi_zero = _per_code(pi), not pi.any()
        self.q = None if (q == np.eye(problem.d1)).all() else _per_code(q)
        self.psi0 = _per_code([0.5 * ri * ri * float(p @ p) * dt for ri, p in zip(r.tolist(), pi)])
        if all(f.is_constant for table in (problem.sigma, problem.b) for row in table for f in row):
            pair, x0 = np.arange(len(r)) % self.n_pairs, np.zeros((len(r), problem.d))
            self.drift = _per_code(self.drift(None, pair, x0, r * r, pi, self.sigma(pair, x0)))

    def drift(self, code, pair, x, r2, pi, sig):
        """The rows' drift steps r^2 (b + sigma pi) dt (``r2`` None: r = 1); only a tabulated drift reads ``code``."""
        v = self.b(pair, x) + _dot(sig, pi[..., None, :])
        return (v if r2 is None else r2[..., None] * v) * self.dt

    def __call__(self, code, pair, x, dW, weight):
        """The rows' new states from ``x`` on the increments ``dW``, and their increments of
        phi, psi (None if ``psi_zero``) and the running payoff at weight exp(-phi - psi)."""
        dt, pi, r, r2 = self.dt, self.pi(code), None, None
        dw = dW if self.q is None else _dot(self.q(code), dW[..., None, :])
        sig = self.sigma(pair, x)
        noise, c, f = _dot(sig, dw[..., None, :]), self.c(pair, x), self.f(pair, x)
        if self.r is not None:
            r = self.r(code)
            r2 = r * r
            noise, c, f = r[..., None] * noise, r2 * c, r2 * f
        x_new = x + noise + self.drift(code, pair, x, r2, pi, sig)
        dpsi = None if self.psi_zero else self.psi0(code) + (_dot(dw, pi) if r is None else r * _dot(dw, pi))
        return x_new, c * dt, dpsi, f * weight * dt


_BLOCK = 8  # steps per evaluation of the Gaussian stream
_TAIL_ROWS = 512  # with fewer rows alive at its start, a block covers 8 * _BLOCK steps
_MAX_ROWS = 1 << 19  # paths per ensemble; 45 lanes of 10k paths fit in one
_SPLIT_ROWS = 1 << 14  # fewest rows per forked part; a fork costs about 16 ms


def _gaussian_increments(seed: int, paths, k0: int, n_steps: int, d1: int, dt: float) -> np.ndarray:
    """dW[k, p, j] of ``paths`` at steps k0 .. k0 + n_steps - 1, of shape (steps, paths, d1).

    In wrapping uint64, with mix64 SplitMix64's finalizer and G = 0x9E3779B97F4A7C15,
    dW[k, p, j] = sqrt(dt) ndtri(((mix64(mix64(seed) + ((p << 32) | (k d1 + j)) G) >> 12) + 0.5) 2**-52).
    The uniform lies in [2**-53, 1 - 2**-53], so every normal is finite.
    """
    from scipy.special import ndtri

    def mix64(z):
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> shift
            z *= mult
        z ^= z >> 31
        return z

    golden = np.uint64(0x9E3779B97F4A7C15)
    # (p << 32 | c) G = (p << 32) G + c G, as the counter's low part c < 2**32
    row = (np.asarray(paths, dtype=np.uint64) << 32) * golden + mix64(np.array([seed], dtype=np.uint64))
    col = np.arange(k0 * d1, (k0 + n_steps) * d1, dtype=np.uint64) * golden
    u = (mix64(col.reshape(n_steps, 1, d1) + row[:, None]) >> 12).astype(float)
    u += 0.5
    u *= 2.0**-52
    ndtri(u, out=u)
    u *= math.sqrt(dt)
    return u


def _stream(horizon: float, cfg: SimConfig, d1: int):
    """The step count to ``horizon`` and ``block(k, rows, length)``, the increments of ``rows`` from step k.

    ``block`` covers steps k .. k + length - 1 (fewer at the horizon), of shape
    (steps, rows, d1), and is called at each block start for the rows alive then.
    ``rows`` ascend.  Row i is path i % cfg.n_paths of its lane; the rows of
    one path in several lanes share its normals, which are evaluated once.
    Raises before anything is allocated if a counter would reach 2**32, past
    which streams repeat.
    """
    n, n_steps = cfg.n_paths, int(round(horizon / cfg.dt))
    if n_steps * d1 >= 1 << 32 or n >= 1 << 32:
        raise ValueError(f"{n_steps} steps of {d1} components or {n} paths overflow the stream's counters")

    def block(k: int, rows: np.ndarray, length: int) -> np.ndarray:
        steps = min(length, n_steps - k)
        if not rows.size or rows[-1] < n:  # one lane: the rows are distinct ascending paths
            return _gaussian_increments(cfg.seed, rows, k, steps, d1, cfg.dt)
        seen = np.zeros(n, dtype=bool)
        seen[rows % n] = True
        dW = _gaussian_increments(cfg.seed, np.flatnonzero(seen), k, steps, d1, cfg.dt)
        return np.take(dW, (np.cumsum(seen) - 1)[rows % n], axis=1)

    return n_steps, block


def _distinct(objs):
    """Distinct objects (by identity) in first-seen order, and each one's index."""
    uniq, idx = [], []
    for obj in objs:
        j = next((i for i, u in enumerate(uniq) if u is obj), len(uniq))
        if j == len(uniq):
            uniq.append(obj)
        idx.append(j)
    return uniq, idx


def _start_point(problem: GameProblem, x0) -> np.ndarray:
    """``x0`` as a float array; raise unless it has d coordinates and lies inside the domain."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (problem.d,):
        raise ValueError(f"point {x0.tolist()} has {x0.size} coordinates, not {problem.d}")
    if not problem.domain.contains(x0[None, :])[0]:
        raise ValueError(f"point {x0.tolist()} must lie inside the domain")
    return x0


def _parts(n_rows: int) -> int:
    """How many path ranges an ensemble of ``n_rows`` rows is stepped as, in parallel.

    One per CPU this process may run on, each of at least ``_SPLIT_ROWS``
    rows; 1 without ``fork``, while other threads run, which a forked child
    would not have, or in a daemonic multiprocessing worker, which may not
    start children.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = min(cpus, n_rows // _SPLIT_ROWS)
    if parts < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    mp = sys.modules.get("multiprocessing")  # not imported: not a multiprocessing worker
    return 1 if mp is not None and mp.current_process().daemon else parts


def _step_in_forks(step, parts, arrays) -> None:
    """``step(part)`` for each part, the first here and each other in a forked child.

    Each child sends its rows of every array of ``arrays`` (rows on axis 0)
    back through a pipe, and they are written in by global row id.  An
    exception raised in a child is raised here; a child that dies without
    sending raises ``RuntimeError`` with its exit code.  Every child is
    joined before this returns.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for part in parts[1:]:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(step, part, arrays, send), daemon=True)
            child.start()
            send.close()  # so that recv sees end-of-file if the child dies
            children.append((child, recv, part))
        step(parts[0])
        for child, recv, part in children:
            try:
                ok, result = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"ensemble worker for {part.size} rows exited with code {child.exitcode} "
                    "before sending its rows"
                ) from None
            if not ok:
                raise result
            for key, a in arrays.items():
                a[part] = result[key]
            child.join()
    finally:
        for child, recv, _ in children:
            if child.is_alive():
                child.terminate()
            child.join()
            recv.close()


def _child(step, part, arrays, send) -> None:
    """The body of a forked child of ``_step_in_forks``."""
    try:
        step(part)
        message = True, {key: a[part] for key, a in arrays.items()}
    except BaseException as exc:  # raised again in the parent
        message = False, exc
    try:
        send.send(message)
    except Exception:  # an exception that does not pickle
        send.send((False, RuntimeError(repr(message[1]))))
    send.close()


def _check_actions(problem: GameProblem, leaders, responder) -> None:
    """Raise, before any step, unless each constant action and each feedback table fits the problem:
    every action in its side's range, a responder table's rows one per leader action, a grid on the domain,
    and a table built for a game of the problem's action counts."""
    counts = (problem.n_alpha_ext, problem.n_beta)
    sides = [(responder, problem.n_beta, "responder")] + [(p, problem.n_alpha_ext, "leader") for p in leaders]
    for p, n, side in sides:
        how = getattr(p, "_ensemble_reads", None)
        if how == "table":
            p.selector.grid.check_domain(problem.domain, f"the {side}'s table")
            if side == "responder" and len(p.selector.table) != problem.n_alpha_ext:
                raise ValueError(f"the responder's table has {len(p.selector.table)} rows, not one per leader "
                                 f"action 0 .. {problem.n_alpha_ext - 1}")
        elif how != "action":
            continue
        actions = np.asarray(p.selector.table if how == "table" else p.action)
        for a in (actions.min(), actions.max()):
            if not 0 <= a < n:
                raise ValueError(f"{side} action {a} is outside the problem's actions 0 .. {n - 1}")
        if how == "table" and tuple(p.selector.n_actions) != counts:
            raise ValueError(f"the {side}'s table was built for (leader, responder) action counts "
                             f"{tuple(p.selector.n_actions)}, not the problem's {counts}")


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
    cfg.n_paths paths, stacked lane after lane.  A normal depends only on
    the seed, the path's index within its lane, the step and the component,
    so a lane's paths are those of a run of that lane alone.  Returns one
    batch per lane and the extras over all stacked rows.  A caller that
    passes ``checkpoint_times`` reads only the checkpoints: the run stops
    at the step that reads the last one, and returns None for the batches.

    The rows are stepped as ``_parts`` path ranges (see ``_step_in_forks``);
    a row's result does not depend on the rows stepped with it.
    """
    starts = [_start_point(problem, x0) for _, x0, _ in lanes]
    n, dt, nb = cfg.n_paths, cfg.dt, problem.n_beta
    n_rows = len(lanes) * n
    n_steps, block = _stream(cfg.t_max, cfg, problem.d1)
    cps = sorted(checkpoint_times)
    if cps and value_field is None:
        raise ValueError("checkpoint times need a value field")
    if value_field is not None:
        value_field.grid.check_domain(problem.domain, "the value field")
    for c, before in zip(cps, [None] + cps):
        if c == before or not 0 <= c <= cfg.t_max:
            raise ValueError(f"checkpoint time {c} is {'repeated' if c == before else 'outside [0, t_max]'}")
    # checkpoint c is read before step ceil(c / dt - 1/2), the step nearest c; the run stops at the last
    cp_steps = [min(math.ceil(c / dt - 0.5), n_steps) for c in cps]
    n_steps = cp_steps[-1] if cps else n_steps
    # lanes are stacked leader by leader, so each leader owns one block of rows
    leaders, leader_of = _distinct([lane[2] for lane in lanes])
    _check_actions(problem, leaders, beta_policy)
    stack = sorted(range(len(lanes)), key=leader_of.__getitem__)
    leader_rows = n * np.cumsum([0] + [leader_of.count(i) for i in range(len(leaders))])
    specs, spec_of = _distinct([lanes[j][0] for j in stack])
    kernel, distance, multi = _StepKernel(problem, specs, dt), problem.domain._distance, len(specs) > 1
    spec_code = np.repeat(np.asarray(spec_of) * kernel.n_pairs, n)
    lookups = {}  # one nearest-node lookup per step for each (grid, lag) of the tables read

    def resolve(p):
        """A player, resolved once: (how, what, lag), with a constant action, a (table, lookup) or itself;
        a responder's (nA, N) table becomes its pair table ia * nb + table[ia, node], read at ia * N + node."""
        how, lag = getattr(p, "_ensemble_reads", None), getattr(p, "lag_n", 0)
        if how == "table":
            grid, table = p.selector.grid, p.selector.table
            if table.ndim == 2:
                table = np.arange(len(table))[:, None] * nb + table
            return how, (table, lookups.setdefault((id(grid), lag), (len(lookups), grid, lag))[0]), lag
        return ("action", p.action, lag) if how == "action" else ("call", p, lag)

    plans, beta = [resolve(p) for p in leaders], resolve(beta_policy)
    lookups = list(lookups.values())
    lag_all = sorted({lag for *_, lag in (*plans, beta)} - {0} | set(lag_ns))
    fixed = all(how == "action" for how, *_ in (*plans, beta))  # each block's pairs are fixed
    # the full-size state, written back from each part's working state, and the outputs
    keys = ["phi", "psi", "pay"] + [("M", m) for m in lag_ns] + (["exp_psi"] if track_exp_psi_integral else [])
    full = {"x": np.repeat(np.asarray([starts[j] for j in stack]), n, axis=0)}
    full |= {key: np.zeros(n_rows) for key in keys}
    out = {"tau": np.full(n_rows, cfg.t_max), "censored": np.ones(n_rows, dtype=bool)}
    out |= {("cp", i): np.zeros(n_rows) for i in range(len(cps))}

    def step(rows):
        """Step the ascending global ``rows`` to their exits, the horizon or the last checkpoint.

        The working state ``w`` holds the rows alive at the block's start.  A
        row that exits gets its tau, then is stepped at scale 0 and seen by
        the players, whose answers for it are discarded, until the block
        ends; the next block start writes it back and compresses ``w``.
        """
        X, tau, censored = full["x"], out["tau"], out["censored"]
        w = {key: a[rows] for key, a in full.items()} | {("snap", m): X[rows] for m in lag_all}
        w.update(dist=distance(w["x"]), code=spec_code[rows])
        n_live = rows.size  # rows not yet exited
        last_cell = dict.fromkeys(lag_all, 0)
        part, n_cp = rows, 0

        def write_back(sel):
            for key, a in full.items():
                a[rows[sel]] = w[key][sel]

        def checkpoint():
            # an exited row reads its frozen exit state
            nonlocal n_cp
            write_back(slice(None))
            weight = np.exp(-full["phi"][part] - full["psi"][part])
            out["cp", n_cp][part] = value_field.interpolate(X[part]) * weight + full["pay"][part]
            n_cp += 1

        def answer(plan, sl):
            """A leader's actions for the working rows ``sl``."""
            how, what, lag = plan
            if how == "action":
                return what
            if how == "table":
                return what[0].take(node[what[1]][sl])
            return what.select(k, t, (w["snap", lag] if lag else w["x"])[sl])

        def pairs():
            """The working rows' action pairs ia * nb + ib, the responder answering the leaders' ``ia``."""
            how, what, lag = beta
            if how == "table":
                return what[0].take(ia * what[0].shape[1] + node[what[1]])
            return ia * nb + (what if how == "action" else what.respond(ia, k, t, w["snap", lag] if lag else w["x"]))

        block_start = block_end = 0
        for k in range(n_steps):
            while n_cp < len(cps) and k >= cp_steps[n_cp]:
                checkpoint()
            if not n_live:
                break
            t, new_block = k * dt, k == block_end
            if new_block:
                if n_live < rows.size:
                    write_back((scale == 0.0).nonzero()[0])
                    keep = scale.nonzero()[0]
                    rows, w = rows[keep], {key: a[keep] for key, a in w.items()}
                bounds = np.searchsorted(rows, leader_rows).tolist()  # each leader's working rows
                leader_slices = [(plan, slice(lo, hi)) for plan, lo, hi in zip(plans, bounds, bounds[1:]) if lo < hi]
                # in the tail a long block spreads the fixed cost of a block over more steps
                length = min(_BLOCK if rows.size >= _TAIL_ROWS else 8 * _BLOCK, n_steps - k)
                block_start, block_end = k, k + length
                dW = block(k, rows, length)
                # a row's scale: 1 while alive, its crossing fraction at its exit step, then 0;
                # exit_at is 0 while alive, then NaN, so that dist_new <= exit_at is the exit test
                scale, exit_at = np.ones(rows.size), np.zeros(rows.size)
                ia = np.empty(rows.size, dtype=int)
            x, phi, psi = w["x"], w["phi"], w["psi"]
            for m in lag_all:
                cell = int(math.floor(m * t + 1e-9))
                if cell > last_cell[m]:
                    w["snap", m][:] = x
                    last_cell[m] = cell
            node = [grid._nearest(w["snap", m] if m else x) for _, grid, m in lookups]
            for plan, sl in leader_slices:
                if new_block or plan[0] != "action":  # a constant is filled per block
                    ia[sl] = answer(plan, sl)
            if new_block or not fixed:
                pair = pairs()
                code = w["code"] + pair if multi else pair
            weight = np.exp(-phi) if kernel.psi_zero else np.exp(-phi - psi)
            x_new, dphi, dpsi, dpay = kernel(code, pair, x, dW[k - block_start], weight)
            dist_new = distance(x_new)
            exiting = (dist_new <= exit_at).nonzero()[0]
            if exiting.size:
                dist_old = w["dist"][exiting]
                scale[exiting] = dist_old / (dist_old - dist_new[exiting])
                tau[rows[exiting]] = t + scale[exiting] * dt
                censored[rows[exiting]] = False
                exit_at[exiting] = np.nan
                n_live -= exiting.size
            for m in lag_ns:
                diff = x - w["snap", m]
                w["M", m] += weight * np.einsum("ni,ni->n", diff, diff) * scale * dt
            if track_exp_psi_integral:
                w["exp_psi"] += np.exp(-psi) * scale * dt

            # until a row exits in this block every scale is 1, and v * 1.0 == v
            exited = n_live < rows.size
            for acc, inc in ((w["pay"], dpay), (phi, dphi), (psi, dpsi)):
                if inc is not None:
                    acc += inc * scale if exited else inc
            x += (x_new - x) * scale[:, None] if exited else x_new - x
            w["dist"] = dist_new  # read again only while the row is alive
            if exiting.size:
                scale[exiting] = 0.0
        while n_cp < len(cps):
            checkpoint()
        write_back(slice(None))

    parts = _parts(n_rows)
    if parts == 1:
        step(np.arange(n_rows))
    else:
        # part j: paths [n j / parts, n (j + 1) / parts) of every lane
        cuts = [n * j // parts for j in range(parts + 1)]
        lane_base = n * np.arange(len(lanes))[:, None]
        ranges = [(lane_base + np.arange(lo, hi)).ravel() for lo, hi in zip(cuts, cuts[1:])]
        _step_in_forks(step, ranges, full | out)

    extras = {
        "checkpoints": np.asarray([out["cp", i] for i in range(len(cps))]) if cps else None,
        "M_acc": {m: full["M", m] for m in lag_ns},
        "exp_psi_integral": full.get("exp_psi"),
    }
    if cps:  # stopped at the last checkpoint: no path's exit is known
        return None, extras
    # an exited row's state stays at its exit; censored paths keep their
    # state at the horizon and a zero terminal term
    X, phi, psi, pay = full["x"], full["phi"], full["psi"], full["pay"]
    tau, censored = out["tau"], out["censored"]
    terminal = np.zeros(n_rows)
    hit = ~censored
    if hit.any():
        terminal[hit] = problem.g(X[hit]) * np.exp(-phi[hit] - psi[hit])

    batches = [
        TrajectoryBatch(
            tau=tau[sl],
            censored=censored[sl],
            exit_state=X[sl],
            phi=phi[sl],
            psi=psi[sl],
            running_payoff=pay[sl],
            terminal_payoff=terminal[sl],
        )
        for sl in (slice(p * n, (p + 1) * n) for p in np.argsort(stack))
    ]
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

    A normal depends only on the seed, the path's index within its lane,
    the step and the component, so each batch equals the one
    ``simulate_to_exit`` gives for that lane.  Lanes are run in ensembles
    of at most ``_MAX_ROWS`` paths, which bounds the memory.
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

    @property
    def passed(self) -> bool:
        """E exp(-psi_tau) = 1 within 3 standard errors plus the censored weight mass."""
        return abs(self.weight_mean - 1.0) <= 3.0 * self.weight_se + self.censored_weight_mass

    def summary(self) -> str:
        return (
            f"mean exp(-psi_tau)      : {self.weight_mean:.6f} +- {self.weight_se:.6f}\n"
            f"censored fraction       : {self.censored_fraction:.6f}\n"
            f"censored weight mass    : {self.censored_weight_mass:.6f}\n"
            f"E int exp(-psi) ds      : {self.exp_psi_integral_mean:.6f}\n"
            f"result: {'PASS' if self.passed else 'FAIL'}"
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
    mean, se = _mean_se(np.where(batch.censored, 0.0, w))
    cm = float(w[batch.censored].sum() / len(batch)) if batch.censored.any() else 0.0
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

    @property
    def ratio(self) -> float:
        """max/min of M n over the lags, inf unless every M n is positive."""
        scaled = self.scaled
        return max(scaled) / min(scaled) if min(scaled) > 0 else math.inf

    @property
    def passed(self) -> bool:
        """M n stays within a factor 4 across the lags, as the O(1/n) bound asks."""
        return self.ratio <= 4.0

    def summary(self) -> str:
        lines = [f"n = {n}: M = {m:.6e} (M*n = {m * n:.6e})" for n, m in zip(self.n_values, self.M_values)]
        lines.append(f"max/min of M*n: {self.ratio:.3f}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        write_csv(path, ["n", "M", "M_se", "M_times_n"], (
            (n, m, s, m * n) for n, m, s in zip(self.n_values, self.M_values, self.M_se)
        ))


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
    n_list = [_integer(v, "lag n", 1) for v in n_list]
    if not n_list:
        raise ValueError("n_list must be a nonempty list of lags")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if cfg.dt > 1.0 / (4 * max(n_list)):
        raise ValueError("timestep too coarse for the finest lag")
    _, extras = _run_ensemble(
        problem, [(spec, x0, alpha_policy)], beta_policy, cfg, lag_ns=tuple(n_list)
    )
    Ms, ses = zip(*(_mean_se(extras["M_acc"][m]) for m in n_list))
    return BoundReport(n_list, list(Ms), list(ses))


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
    regular one (identity on the regular actions).  Both paths take the
    ensemble's step on the seed's Gaussian stream, under their own action
    pairs; neither is stopped at an interpolated exit.  Both players read
    the current state, so a lagged player (``lag_n > 0``) is rejected.
    """
    if np.any(spec.pi_table != 0.0):
        raise ValueError("pathwise comparison requires pi identically zero")
    if not 0 < T < math.inf:
        raise ValueError(f"horizon T must be finite and positive, got {T!r}")
    for p, side in ((mixed_alpha_policy, "leader"), (beta_policy, "responder")):
        if getattr(p, "lag_n", 0):
            raise ValueError(f"pathwise comparison reads the current state; its {side} has lag_n = {p.lag_n}")
    x0 = _start_point(problem, x0)
    n, nb, dt = cfg.n_paths, problem.n_beta, cfg.dt
    n_steps, block = _stream(T, cfg, problem.d1)
    kernel = _StepKernel(problem, [spec], dt)
    projection = np.asarray(projection, dtype=int)
    _check_actions(problem, [mixed_alpha_policy], beta_policy)
    X = np.tile(x0, (n, 1))
    Y = X.copy()
    supdiff = np.zeros(n)
    occ = np.zeros(n)
    act = np.arange(n)  # stop at gamma = T ^ first exit of either
    for k in range(n_steps):
        if not act.size:
            break
        t = k * dt
        if k % _BLOCK == 0:
            dW, pos = block(k, act, _BLOCK), np.arange(act.size)  # pos: act's rows of the block
        dWk = dW[k % _BLOCK, pos]
        ia = np.broadcast_to(mixed_alpha_policy.select(k, t, X[act]), act.shape)
        for arr, actions in ((X, ia), (Y, projection[ia])):
            xs = arr[act]
            pair = actions * nb + beta_policy.respond(actions, k, t, xs)
            arr[act] = kernel(pair, pair, xs, dWk, 1.0)[0]
        occ[act] += np.where(ia >= problem.n_alpha, dt, 0.0)
        supdiff[act] = np.maximum(supdiff[act], np.linalg.norm(X[act] - Y[act], axis=1))
        inside = problem.domain.contains(X[act]) & problem.domain.contains(Y[act])
        act, pos = act[inside], pos[inside]
    mean_sup, se_sup = _mean_se(supdiff)
    mean_occ = float(occ.mean())
    ratio = mean_sup / math.sqrt(mean_occ) if mean_occ > 0 else math.inf
    return ComparisonReport(
        occupation_fraction=mean_occ / T,
        mean_sup_divergence=mean_sup,
        se_sup_divergence=se_sup,
        mean_occupation_time=mean_occ,
        ratio=ratio,
    )
