import math
from dataclasses import dataclass

import numpy as np
import pytest

from sdglab.policies import ConstantPolicy, ConstantResponder
from sdglab.simulate import (
    ControlAdaptedSpec,
    SimConfig,
    _gaussian_increments,
    girsanov_martingale_check,
    increment_bound_study,
    simulate_lanes,
    simulate_to_exit,
)

SQRT2 = math.sqrt(2.0)


def _spec(problem, r=1.0, pi=0.0, flip=False):
    na, nb, d1 = problem.n_alpha_ext, problem.n_beta, problem.d1
    q = np.broadcast_to(np.eye(d1), (na, nb, d1, d1)).copy()
    if flip:
        q = -q
    pi_t = np.zeros((na, nb, d1))
    pi_t[:, :, 0] = pi
    return ControlAdaptedSpec(r_table=np.full((na, nb), float(r)), pi_table=pi_t, noise_table=q)


class _NeverCalled:
    """A leader whose ``select`` fails the test: a run that calls it has started its step loop."""

    lag_n = 0

    def select(self, k, t, x):
        raise AssertionError("the step loop started")


def test_em_step_hand_values():
    # d = 1, sigma = sqrt(2), b = 1, c = 0.3; r = 2, pi = 0.5, dt = 0.01, dW = 0.1
    from sdglab.coefficients import const_matrix, const_scalar, const_vector
    from sdglab.model import ActionSets, DomainSpec, GameProblem

    p = GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("box", 1, (-10.0,), (10.0,)),
        sigma=((const_matrix([[SQRT2]]),),),
        b=((const_vector([1.0]),),),
        c=((const_scalar(0.3),),),
        f=((const_scalar(0.0),),),
        g=const_scalar(0.0),
        K0=2.0,
        delta=0.5,
    )
    spec = _spec(p, r=2.0, pi=0.5)
    out = em_step(p, spec, PathState(t=0.0, x=np.array([0.2])), 0, 0, [0.1], 0.01)
    assert out.t == pytest.approx(0.01)
    assert out.x[0] == pytest.approx(0.2 + 2.0 * SQRT2 * 0.1 + 4.0 * (1.0 + SQRT2 * 0.5) * 0.01)
    assert out.phi == pytest.approx(4.0 * 0.3 * 0.01)
    assert out.psi == pytest.approx(0.5 * 4.0 * 0.25 * 0.01 + 2.0 * 0.5 * 0.1)


def test_em_step_rejects_nonfinite_noise(analytic_problem):
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    with pytest.raises(ValueError):
        em_step(analytic_problem, spec, PathState(0.0, np.array([0.5])), 0, 0, [np.nan], 0.01)


def test_spec_validation(analytic_problem):
    with pytest.raises(ValueError):
        _spec(analytic_problem, r=3.0).check(analytic_problem)  # outside [delta1, 1/delta1]
    with pytest.raises(ValueError):
        _spec(analytic_problem, pi=1.5).check(analytic_problem)  # |pi| > K1
    na, nb, d1 = analytic_problem.n_alpha_ext, analytic_problem.n_beta, analytic_problem.d1
    with pytest.raises(ValueError):
        ControlAdaptedSpec(
            r_table=np.ones((na, nb)),
            pi_table=np.zeros((na, nb, d1)),
            noise_table=np.full((na, nb, d1, d1), 0.5),
        ).check(analytic_problem)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_max=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=bad)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(t_max=bad)
    with pytest.raises(ValueError):
        SimConfig(n_paths=0)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)
    # seed 1.5 and 1.9 ran seed 1's stream, n_paths=True one path, n_paths=100.0 a TypeError deep in a run
    for bad in (1.5, 1.9, 2.0, True, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(seed=bad)
        with pytest.raises(ValueError, match="n_paths must be an integer"):
            SimConfig(n_paths=bad)
    cfg = SimConfig(n_paths=np.int64(100), seed=np.uint64((1 << 64) - 1))
    assert (cfg.n_paths, cfg.seed) == (100, (1 << 64) - 1) and type(cfg.n_paths) is type(cfg.seed) is int


def test_simulate_is_bitwise_deterministic(analytic_problem):
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=200, seed=42)
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    a = simulate_to_exit(analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    b = simulate_to_exit(analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.exit_state, b.exit_state)
    assert np.array_equal(a.payoff, b.payoff)
    cfg2 = SimConfig(dt=1e-3, t_max=2.0, n_paths=200, seed=43)
    c = simulate_to_exit(analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg2)
    assert not np.array_equal(a.tau, c.tau)


class _SwitchLeader:
    """Leader that plays action 1 before t = 0.05 and action 0 from then on."""

    lag_n = 0
    name = "switch"

    def select(self, k, t, x):
        return np.full(x.shape[0], 1 if t < 0.05 else 0)


def _mixed_lanes(p, value):
    """Lanes that differ in spec, start and leader (one lagged), and a lagged responder shared by all."""
    from sdglab.policies import (
        FeedbackAlphaPolicy,
        FeedbackBetaPolicy,
        build_alpha_selector,
        build_beta_selector,
    )

    beta = FeedbackBetaPolicy(build_beta_selector(p, value, 1e-9), lag_n=4)
    lagged = FeedbackAlphaPolicy(build_alpha_selector(p, value, 1e-9), lag_n=8)
    switch = _SwitchLeader()
    base = ControlAdaptedSpec.baseline(p)
    tilted = _spec(p, r=1.2, pi=0.3, flip=True)
    lanes = [
        (tilted, [0.3], switch),
        (base, [0.5], ConstantPolicy(0)),
        (base, [0.7], switch),
        (tilted, [0.4], lagged),
    ]
    return lanes, beta


@pytest.mark.parametrize("max_rows", [1 << 19, 600])
def test_lanes_match_separate_runs(game_problem, solved_game, monkeypatch, max_rows):
    # with 600 rows the four 300-path lanes run as two ensembles of two
    import sdglab.simulate

    monkeypatch.setattr(sdglab.simulate, "_MAX_ROWS", max_rows)
    p = game_problem
    lanes, beta = _mixed_lanes(p, solved_game.value_)
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=300, seed=5)
    together = simulate_lanes(p, lanes, beta, cfg)
    assert len(together) == len(lanes)
    for (spec, x0, alpha), batch in zip(lanes, together):
        alone = simulate_to_exit(p, spec, x0, alpha, beta, cfg)
        for name in ("tau", "censored", "exit_state", "phi", "psi", "running_payoff", "terminal_payoff"):
            assert np.array_equal(getattr(batch, name), getattr(alone, name)), name


def _ops_outputs(p, value, n_paths):
    """The ``_mixed_lanes`` batches and the reports of the three ops that pass extras, as plain data."""
    import dataclasses

    from sdglab.policies import supermartingale_test

    lanes, beta = _mixed_lanes(p, value)
    (tilted, x0, switch), lagged = lanes[0], lanes[3][2]
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=n_paths, seed=5)
    checkpoints = (0.0, 0.01, 0.05, 0.3)  # step 10 lies inside a block of 3 or 8 steps
    reports = [
        girsanov_martingale_check(p, tilted, x0, lagged, beta, cfg),
        increment_bound_study(p, tilted, x0, switch, beta, cfg, [2, 8]),
        supermartingale_test(p, tilted, x0, value, lagged, beta, cfg, checkpoints, 1e-6),
    ]
    batches = [dataclasses.asdict(b) for b in simulate_lanes(p, lanes, beta, cfg)]
    return batches, [dataclasses.asdict(r) for r in reports]


def _assert_same_outputs(got, want, label):
    (batches, reports), (want_batches, want_reports) = got, want
    assert want_reports[0]["exp_psi_integral_mean"] > 0 and min(want_reports[1]["M_values"]) > 0
    for a, b in zip(batches, want_batches, strict=True):
        for name in b:
            assert np.array_equal(a[name], b[name]), (label, name)
    assert reports == want_reports, label


def test_block_size_does_not_change_outputs(game_problem, solved_game, monkeypatch):
    # at _BLOCK = 1 the working state is compacted at every step
    import sdglab.simulate

    outputs = {}
    for size in (1, 3, 8):
        monkeypatch.setattr(sdglab.simulate, "_BLOCK", size)
        outputs[size] = _ops_outputs(game_problem, solved_game.value_, 300)
    for size in (1, 3):
        _assert_same_outputs(outputs[size], outputs[8], size)


def _split_into(monkeypatch, parts):
    """Make ensembles of at least 100 rows split into ``parts`` forked parts; returns the parts used."""
    import os

    import sdglab.simulate

    used = []

    def spy(n_rows, _parts=sdglab.simulate._parts):
        used.append(_parts(n_rows))
        return used[-1]

    monkeypatch.setattr(sdglab.simulate, "_SPLIT_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
    monkeypatch.setattr(sdglab.simulate, "_parts", spy)
    return used


def test_split_does_not_change_outputs(game_problem, solved_game, monkeypatch):
    # 301 paths: the parts of every lane differ in size
    outputs = {}
    for parts in (1, 2, 3):
        with monkeypatch.context() as m:
            used = _split_into(m, parts)
            outputs[parts] = _ops_outputs(game_problem, solved_game.value_, 301)
        assert used == [parts] * 4, used
    for parts in (2, 3):
        _assert_same_outputs(outputs[parts], outputs[1], parts)


class _FailsInWorker:
    """Leader that plays action 0 in the process that made it and fails in any other."""

    lag_n = 0

    def __init__(self, exit_code=None):
        import os

        self.pid, self.exit_code = os.getpid(), exit_code

    def select(self, k, t, x):
        import os

        if os.getpid() != self.pid:
            if self.exit_code is not None:
                os._exit(self.exit_code)
            raise ValueError(f"leader failed in worker at step {k}")
        return np.zeros(x.shape[0], dtype=int)


def test_worker_failures_raise_in_the_caller(analytic_problem, monkeypatch):
    import multiprocessing

    used = _split_into(monkeypatch, 2)
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=300, seed=1)

    def run(leader):
        return simulate_to_exit(analytic_problem, spec, [0.5], leader, ConstantResponder(0), cfg)

    with pytest.raises(ValueError, match="leader failed in worker at step 0"):
        run(_FailsInWorker())
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run(_FailsInWorker(exit_code=3))
    assert used == [2, 2]
    assert multiprocessing.active_children() == []
    # a daemonic multiprocessing worker may not start children: it steps every row itself
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert run(_FailsInWorker()).censored.mean() < 0.01
    assert used == [2, 2, 1]


def test_checkpoints_need_a_value_field(analytic_problem):
    from sdglab.simulate import _run_ensemble

    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=10)
    with pytest.raises(ValueError, match="checkpoint times need a value field"):
        _run_ensemble(analytic_problem, [(spec, [0.5], ConstantPolicy(0))], ConstantResponder(0), cfg,
                      checkpoint_times=(0.5,))


def test_checkpoints_outside_the_horizon_or_repeated_rejected(analytic_problem):
    from sdglab.grids import DomainGrid, ValueField
    from sdglab.simulate import _run_ensemble

    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=10)
    value = ValueField.zeros(DomainGrid.build(analytic_problem.domain, 1 / 16))
    for cps, match in (((0.5, 1.0 + 1e-9), "1.000000001 is outside"), ((-1e-9, 0.5), "-1e-09 is outside"),
                       ((float("inf"),), "inf is outside"), ((0.3, 0.7, 0.3), "0.3 is repeated")):
        with pytest.raises(ValueError, match=f"checkpoint time {match}"):
            _run_ensemble(analytic_problem, [(spec, [0.5], ConstantPolicy(0))], ConstantResponder(0), cfg,
                          value_field=value, checkpoint_times=cps)


def test_drift_runs_stop_at_their_last_checkpoint(game_problem, solved_game, monkeypatch):
    # the reports equal those of a run to t_max, which reads one more checkpoint there and drops
    # it; the last checkpoint lies off the step grid (step 300), then on a block boundary (296 = 37 x 8)
    import sdglab.policies
    import sdglab.simulate
    from sdglab.policies import (
        FeedbackAlphaPolicy,
        FeedbackBetaPolicy,
        build_alpha_selector,
        build_beta_selector,
        submartingale_test,
        supermartingale_test,
    )

    steps, kernel_call = [], sdglab.simulate._StepKernel.__call__

    def counted(self, *args):
        steps[-1] += 1
        return kernel_call(self, *args)

    def to_t_max(problem, lanes, beta, cfg, *, checkpoint_times, **kwargs):
        _, extras = sdglab.simulate._run_ensemble(
            problem, lanes, beta, cfg, checkpoint_times=checkpoint_times + (cfg.t_max,), **kwargs
        )
        return None, extras | {"checkpoints": extras["checkpoints"][:-1]}

    monkeypatch.setattr(sdglab.simulate._StepKernel, "__call__", counted)
    p, value = game_problem, solved_game.value_
    spec = ControlAdaptedSpec.baseline(p)
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=300, seed=11)
    leader = FeedbackAlphaPolicy(build_alpha_selector(p, value, 1e-6), lag_n=8)
    beta = FeedbackBetaPolicy(build_beta_selector(p, value, 1e-6))
    for checkpoints, last_step in (((0.05, 0.3004), 300), ((0.05, 0.296), 296)):
        for test, alpha, b in ((supermartingale_test, ConstantPolicy(0), beta),
                               (submartingale_test, leader, ConstantResponder(0))):
            reports = []
            for run_to in (None, to_t_max):
                with monkeypatch.context() as m:
                    if run_to:
                        m.setattr(sdglab.policies, "_run_ensemble", run_to)
                    steps.append(0)
                    reports.append(test(p, spec, [0.5], value, alpha, b, cfg, checkpoints, 1e-6))
            assert reports[0] == reports[1]
            assert steps[-2] == last_step < steps[-1]


def test_start_of_wrong_dimension_rejected():
    from pathlib import Path

    from sdglab.config import load_experiment
    from sdglab.simulate import pathwise_comparison

    p = load_experiment(Path(__file__).resolve().parent.parent / "sdgbench" / "box2d.cfg").problem  # d = 2
    spec = ControlAdaptedSpec.baseline(p)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=50)
    for x0 in ([0.5], [0.5, 0.5, 0.5]):
        with pytest.raises(ValueError, match=f"dimension {len(x0)}.*d = 2"):
            simulate_to_exit(p, spec, x0, ConstantPolicy(0), ConstantResponder(0), cfg)
        with pytest.raises(ValueError, match=f"dimension {len(x0)}.*d = 2"):
            pathwise_comparison(p, spec, x0, ConstantPolicy(0), ConstantResponder(0), cfg, 1.0,
                                np.arange(p.n_alpha_ext))


def test_start_outside_domain_rejected(analytic_problem):
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=10)
    with pytest.raises(ValueError):
        simulate_to_exit(analytic_problem, spec, [1.5], ConstantPolicy(0), ConstantResponder(0), cfg)


def test_mc_value_matches_analytic(analytic_problem):
    # E tau for BM(sqrt 2) from 0.5 on (0,1) is 0.125; payoff = int f dt with f = 1
    cfg = SimConfig(dt=2e-4, t_max=4.0, n_paths=4000, seed=3)
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    batch = simulate_to_exit(analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    pay = batch.payoff
    se = pay.std(ddof=1) / math.sqrt(len(pay))
    # 0.42 sqrt(dt) exit-time bias plus 3 SE
    assert abs(pay.mean() - 0.125) < 0.42 * math.sqrt(cfg.dt) + 3.0 * se
    assert batch.censored_fraction == 0.0


def test_censoring_shrinks_with_horizon(analytic_problem):
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    fracs = []
    for t_max in (1.0, 2.0):
        cfg = SimConfig(dt=5e-2, t_max=t_max, n_paths=500, seed=9)
        b = simulate_to_exit(analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
        fracs.append(b.censored_fraction)
    assert fracs[1] <= fracs[0]


def test_common_random_numbers_pair_variance(analytic_problem):
    # shared seed couples the Gaussian stream across specs, so paired
    # differences are far less noisy than independent runs
    base = ControlAdaptedSpec.baseline(analytic_problem)
    tilted = _spec(analytic_problem, pi=0.3)
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=500, seed=5)
    cfg_other = SimConfig(dt=1e-3, t_max=2.0, n_paths=500, seed=6)
    a = simulate_to_exit(analytic_problem, base, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    b = simulate_to_exit(analytic_problem, tilted, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    c = simulate_to_exit(analytic_problem, tilted, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg_other)
    paired = np.var(a.payoff - b.payoff)
    indep = np.var(a.payoff - c.payoff)
    assert paired < indep


def test_girsanov_weight_is_unit_mean(analytic_problem):
    spec = _spec(analytic_problem, pi=0.3)
    cfg = SimConfig(dt=5e-4, t_max=4.0, n_paths=4000, seed=1)
    rep = girsanov_martingale_check(
        analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg
    )
    slack = 4.0 * rep.weight_se + rep.censored_weight_mass
    assert abs(rep.weight_mean - 1.0) < slack
    assert rep.exp_psi_integral_mean > 0
    assert "PASS" not in rep.summary()  # summary reports numbers, not verdicts


def test_increment_bound_guards(analytic_problem):
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-2, t_max=1.0, n_paths=50)
    for lags in ([4, 2], [4, 4]):
        with pytest.raises(ValueError, match="strictly increasing"):
            increment_bound_study(
                analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg, lags
            )
    with pytest.raises(ValueError):
        increment_bound_study(
            analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg, [2, 100]
        )
    for lags in ([], [0, 2], [-1, 2]):
        with pytest.raises(ValueError, match="nonempty list of lags"):
            increment_bound_study(
                analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg, lags
            )


def test_increment_bound_scaling(analytic_problem):
    # E |x_t - x_{kappa_n(t)}|^2 ~ 1/n, so M * n should stay within a
    # constant band across lags
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=2e-3, t_max=2.0, n_paths=800, seed=2)
    rep = increment_bound_study(
        analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg, [4, 8, 16]
    )
    assert rep.n_values == [4, 8, 16]
    assert all(m > 0 for m in rep.M_values)
    scaled = rep.scaled
    assert max(scaled) / min(scaled) < 4.0


def test_trajectory_batch_fields_and_csv(tmp_path, analytic_problem):
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-2, t_max=1.0, n_paths=20, seed=0)
    b = simulate_to_exit(analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    assert len(b) == 20
    assert np.array_equal(b.payoff, b.running_payoff + b.terminal_payoff)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    b.to_csv(p1)
    b.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0].startswith("tau,censored,x1")


def _draws(seed, n_steps, n, d1, dt):
    """The stream's increments of paths 0 .. n - 1, one (n, d1) array per step."""
    return _gaussian_increments(seed, np.arange(n), 0, n_steps, d1, dt)


def _stream_value(seed, p, k, j, d1, dt):
    """One increment of the stream, in Python integers."""
    def mix64(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    from scipy.special import ndtri

    bits = mix64((mix64(seed) + ((p << 32) | (k * d1 + j)) * 0x9E3779B97F4A7C15) % 2**64) >> 12
    return math.sqrt(dt) * float(ndtri((bits + 0.5) * 2.0**-52))


def test_normals_depend_only_on_seed_path_step_and_component():
    cases = ((7, 3, 5, 1, 2, 1e-3), (0, 99_999, 39_999, 0, 1, 1e-4), (2**63 + 5, 1, 0, 0, 1, 1.0))
    for seed, p, k, j, d1, dt in cases:
        assert _gaussian_increments(seed, [p], k, 1, d1, dt)[0, 0, j] == _stream_value(seed, p, k, j, d1, dt)
    full = _gaussian_increments(7, np.arange(1000), 0, 1000, 1, 1.0)  # 1M normals
    paths = np.array([0, 3, 17, 640, 999])
    # a subset of paths, and a block that starts at another step, read the same values
    assert np.array_equal(_gaussian_increments(7, paths, 0, 1000, 1, 1.0), full[:, paths])
    assert np.array_equal(_gaussian_increments(7, paths[::-1], 5, 11, 1, 1.0), full[5:16, paths[::-1]])
    two = _gaussian_increments(7, paths, 3, 4, 2, 0.25)
    assert np.array_equal(two, 0.5 * _gaussian_increments(7, paths, 0, 11, 2, 1.0)[3:7])
    assert not np.isin(_gaussian_increments(8, paths, 0, 1000, 1, 1.0), full).any()

    z = full[..., 0].T  # (path, step)
    assert abs(z.mean()) <= 5e-3
    assert abs(z.var() - 1.0) <= 1e-2
    assert abs(np.mean((z - z.mean()) ** 4) / z.var() ** 2 - 3.0) <= 0.05
    assert abs(np.corrcoef(z[:, :-1].ravel(), z[:, 1:].ravel())[0, 1]) <= 5e-3  # step k, k + 1
    assert abs(np.corrcoef(z[:-1].ravel(), z[1:].ravel())[0, 1]) <= 5e-3  # path i, i + 1


def _unmix64(z):
    """The inverse of SplitMix64's finalizer, in Python integers."""
    for shift, mult in ((31, None), (27, 0x94D049BB133111EB), (30, 0xBF58476D1CE4E5B9)):
        if mult is not None:
            z = z * pow(mult, -1, 2**64) % 2**64
        x = z
        for _ in range(64 // shift + 1):
            x = z ^ (x >> shift)
        z = x
    return z


def test_extreme_stream_bits_give_finite_normals():
    # path 0, step 0 hashes mix64(mix64(seed)): choose the seed whose bits are all 0 or all 1
    from scipy.special import ndtri

    for bits, want in ((0, ndtri(2.0**-53)), (2**64 - 1, ndtri(1.0 - 2.0**-53))):
        seed = _unmix64(_unmix64(bits))
        got = _gaussian_increments(seed, [0], 0, 1, 1, 1.0)[0, 0, 0]
        assert np.isfinite(got) and got == want == _stream_value(seed, 0, 0, 0, 1, 1.0)


def test_stream_counter_guard(analytic_problem):
    from sdglab.simulate import _stream, pathwise_comparison

    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-10, t_max=2.0, n_paths=10)  # 2e10 steps
    with pytest.raises(ValueError, match="overflow"):
        simulate_to_exit(analytic_problem, spec, [0.5], _NeverCalled(), ConstantResponder(0), cfg)
    with pytest.raises(ValueError, match="overflow"):
        pathwise_comparison(analytic_problem, spec, [0.5], _NeverCalled(), ConstantResponder(0), cfg, 1.0,
                            np.zeros(analytic_problem.n_alpha_ext, dtype=int))
    # the path counter, checked without building an ensemble of 2**32 paths
    with pytest.raises(ValueError, match="overflow"):
        _stream(1.0, SimConfig(dt=1e-3, t_max=1.0, n_paths=1 << 32), 1)
    assert _stream(1.0, SimConfig(dt=1e-3, t_max=1.0, n_paths=(1 << 32) - 1), 1)[0] == 1000


def test_pathwise_comparison_matches_em_step_under_rotated_noise(analytic_problem):
    from sdglab.harness import build_variant_spec
    from sdglab.pde import PucciParams, extend_problem
    from sdglab.policies import OccupancyPolicy
    from sdglab.simulate import pathwise_comparison

    p = extend_problem(analytic_problem, PucciParams.build(1, delta_hat=0.5), 1.0)
    spec = build_variant_spec(p, "rotated_noise")  # "flip": odd pairs negate the noise
    leader = OccupancyPolicy(0, p.n_alpha, 0.3, period=0.05)
    projection = np.zeros(p.n_alpha_ext, dtype=int)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=20, seed=4)
    T = 0.5
    rep = pathwise_comparison(p, spec, [0.5], leader, ConstantResponder(0), cfg, T, projection)

    n_steps = int(round(T / cfg.dt))
    draws = _draws(cfg.seed, n_steps, cfg.n_paths, p.d1, cfg.dt)
    sups, occs = [], []
    for i in range(cfg.n_paths):
        x = y = np.array([0.5])
        sup = occ = 0.0
        for k in range(n_steps):
            t = k * cfg.dt
            ia = int(leader.select(k, t, x[None])[0])
            x = em_step(p, spec, PathState(t, x), ia, 0, draws[k][i], cfg.dt).x
            y = em_step(p, spec, PathState(t, y), int(projection[ia]), 0, draws[k][i], cfg.dt).x
            occ += cfg.dt if ia >= p.n_alpha else 0.0
            sup = max(sup, float(np.linalg.norm(x - y)))
            if not (p.domain.contains(x[None])[0] and p.domain.contains(y[None])[0]):
                break
        sups.append(sup)
        occs.append(occ)
    assert rep.mean_sup_divergence > 0
    assert rep.mean_sup_divergence == pytest.approx(np.mean(sups), rel=0, abs=1e-12)
    assert rep.mean_occupation_time == pytest.approx(np.mean(occs), rel=0, abs=1e-12)
    with pytest.raises(ValueError, match="inside the domain"):
        pathwise_comparison(p, spec, [1.5], leader, ConstantResponder(0), cfg, T, projection)


def test_pathwise_comparison_rejects_bad_horizons_and_lagged_players(game_problem):
    from sdglab.pde import IsaacsSolver
    from sdglab.policies import FeedbackAlphaPolicy, FeedbackBetaPolicy, build_alpha_selector, build_beta_selector
    from sdglab.simulate import pathwise_comparison

    spec = ControlAdaptedSpec.baseline(game_problem)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=10)
    projection = np.arange(game_problem.n_alpha_ext)
    for T in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon T"):
            pathwise_comparison(game_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg, T,
                                projection)
    value = IsaacsSolver(h=1 / 16).fit(game_problem).value_
    leader = FeedbackAlphaPolicy(build_alpha_selector(game_problem, value, 1e-7), lag_n=2)
    with pytest.raises(ValueError, match="leader has lag_n = 2"):
        pathwise_comparison(game_problem, spec, [0.5], leader, ConstantResponder(0), cfg, 1.0, projection)
    responder = FeedbackBetaPolicy(build_beta_selector(game_problem, value, 1e-7), lag_n=4)
    with pytest.raises(ValueError, match="responder has lag_n = 4"):
        pathwise_comparison(game_problem, spec, [0.5], ConstantPolicy(0), responder, cfg, 1.0, projection)


def _state_dependent_game():
    """2x2 game on (0, 1) whose sigma and b vary in x (sin family), f affine."""
    from sdglab.coefficients import MatrixField, VectorField, const_scalar, parse_scalar
    from sdglab.model import ActionSets, DomainSpec, GameProblem

    def sig(ia, ib):
        return MatrixField(((parse_scalar(f"sin:{1.3 + 0.1 * ia},{0.1 + 0.05 * ib},{3 + ib}"),),))

    def drift(ia, ib):
        return VectorField((parse_scalar(f"sin:{0.3 - 0.6 * ia + 0.1 * ib},0.5,{2 + ia}"),),)

    # the leader switches at x = 0.5 and the responder near x = 0.35
    f = (("affine:0.29,-0.6", "affine:0.71,-1.8"), ("affine:-0.91,1.8", "affine:-0.49,0.6"))
    return GameProblem(
        actions=ActionSets(("a0", "a1"), ("b0", "b1")),
        domain=DomainSpec("box", 1, (0.0,), (1.0,)),
        sigma=tuple(tuple(sig(ia, ib) for ib in range(2)) for ia in range(2)),
        b=tuple(tuple(drift(ia, ib) for ib in range(2)) for ia in range(2)),
        c=tuple(tuple(const_scalar(0.2) for _ in range(2)) for _ in range(2)),
        f=tuple(tuple(parse_scalar(v) for v in row) for row in f),
        g=parse_scalar("affine:0.0,1.0"),
        K0=3.0,
        delta=0.5,
    )


@dataclass
class PathState:
    t: float
    x: np.ndarray
    phi: float = 0.0
    psi: float = 0.0


def _at(field, x):
    """A coefficient field at the single point ``x``."""
    return field(np.atleast_2d(np.asarray(x, dtype=float)))[0]


def em_step(problem, spec, state: PathState, ia: int, ib: int, dW, dt: float) -> PathState:
    """One explicit Euler step for a single path; coefficients at the pre-step x.

    The single-path reference whose operation order the ensemble's kernel
    follows; the replay tests below compare every path against it.
    """
    dW = np.asarray(dW, dtype=float)
    if not np.all(np.isfinite(dW)):
        raise ValueError("non-finite Gaussian increment")
    r = float(spec.r_table[ia, ib])
    pi = spec.pi_table[ia, ib]
    q = spec.noise_table[ia, ib]
    dw = q @ dW
    sig = _at(problem.sigma[ia][ib], state.x)
    bv = _at(problem.b[ia][ib], state.x)
    cv = _at(problem.c[ia][ib], state.x)
    x_new = state.x + r * (sig @ dw) + r * r * (bv + sig @ pi) * dt
    phi_new = state.phi + r * r * cv * dt
    psi_new = state.psi + 0.5 * r * r * float(pi @ pi) * dt + r * float(pi @ dw)
    return PathState(t=state.t + dt, x=x_new, phi=phi_new, psi=psi_new)


def _assert_matches_em_step_replay(p, specs, batches, leader, beta, cfg, x0):
    """Replay every path of every lane with ``em_step`` and compare at 1e-12.

    The leader and responder are lagged by 8 and 4 cells per unit time.
    Returns the action pairs seen.
    """
    n_steps = int(round(cfg.t_max / cfg.dt))
    draws = _draws(cfg.seed, n_steps, cfg.n_paths, p.d1, cfg.dt)
    pairs_seen = set()
    for spec, batch in zip(specs, batches):
        for i in range(cfg.n_paths):
            s = PathState(0.0, np.asarray(x0, dtype=float))
            pay, tau, exited = 0.0, cfg.t_max, False
            snap = {m: s.x for m in (4, 8)}  # the state at the start of each lag cell
            cell = {m: 0 for m in snap}
            for k in range(n_steps):
                t = k * cfg.dt
                for m in snap:
                    if math.floor(m * t + 1e-9) > cell[m]:
                        snap[m], cell[m] = s.x, math.floor(m * t + 1e-9)
                ia = int(leader.select(k, t, snap[8][None])[0])
                ib = int(beta.respond(np.array([ia]), k, t, snap[4][None])[0])
                pairs_seen.add((ia, ib))
                r = spec.r_table[ia, ib]
                dpay = r * r * _at(p.f[ia][ib], s.x) * math.exp(-s.phi - s.psi) * cfg.dt
                new = em_step(p, spec, s, ia, ib, draws[k][i], cfg.dt)
                d_old = p.domain.boundary_distance(s.x[None])[0]
                d_new = p.domain.boundary_distance(new.x[None])[0]
                if d_new <= 0.0:
                    theta = d_old / (d_old - d_new)
                    s = PathState(
                        t + theta * cfg.dt,
                        s.x + (new.x - s.x) * theta,
                        s.phi + (new.phi - s.phi) * theta,
                        s.psi + (new.psi - s.psi) * theta,
                    )
                    pay, tau, exited = pay + dpay * theta, s.t, True
                    break
                s, pay = new, pay + dpay
            terminal = _at(p.g, s.x) * math.exp(-s.phi - s.psi) if exited else 0.0
            assert batch.censored[i] == (not exited)
            for name, want in (("tau", tau), ("phi", s.phi), ("psi", s.psi),
                               ("running_payoff", pay), ("terminal_payoff", terminal)):
                assert getattr(batch, name)[i] == pytest.approx(want, rel=0, abs=1e-12), name
            assert np.allclose(batch.exit_state[i], s.x, rtol=0, atol=1e-12)
    return pairs_seen


def test_ensemble_matches_em_step_replay():
    # every variant as one lane, a lagged feedback leader against a lagged
    # feedback responder: rows mix specs and action pairs at each step, and
    # sigma and b are evaluated per pair, f from per-row affine parameters
    from sdglab.harness import VARIANTS, build_variant_spec
    from sdglab.pde import IsaacsSolver
    from sdglab.policies import (
        FeedbackAlphaPolicy,
        FeedbackBetaPolicy,
        build_alpha_selector,
        build_beta_selector,
    )

    p = _state_dependent_game()
    value = IsaacsSolver(h=1 / 32).fit(p).value_
    leader = FeedbackAlphaPolicy(build_alpha_selector(p, value, 1e-6), lag_n=8)
    beta = FeedbackBetaPolicy(build_beta_selector(p, value, 1e-6), lag_n=4)
    specs = [build_variant_spec(p, v) for v in VARIANTS]
    cfg = SimConfig(dt=2e-3, t_max=1.0, n_paths=50, seed=8)
    batches = simulate_lanes(p, [(spec, [0.5], leader) for spec in specs], beta, cfg)
    pairs_seen = _assert_matches_em_step_replay(p, specs, batches, leader, beta, cfg, [0.5])
    assert len(pairs_seen) == 4


def test_ensemble_matches_em_step_replay_2d():
    # the 1-D replay on the 2-D box game: sigma mixes the two noise
    # components, and a rotation angle makes each odd pair's noise transform
    # q a non-symmetric 2x2 matrix, so a kernel that applied q^T would differ
    from pathlib import Path

    from sdglab.config import load_experiment
    from sdglab.harness import VARIANTS, VariantParams, build_variant_spec
    from sdglab.pde import IsaacsSolver
    from sdglab.policies import (
        FeedbackAlphaPolicy,
        FeedbackBetaPolicy,
        build_alpha_selector,
        build_beta_selector,
    )

    p = load_experiment(Path(__file__).resolve().parent.parent / "sdgbench" / "box2d.cfg").problem
    value = IsaacsSolver(h=1 / 16).fit(p).value_
    leader = FeedbackAlphaPolicy(build_alpha_selector(p, value, 1e-6), lag_n=8)
    beta = FeedbackBetaPolicy(build_beta_selector(p, value, 1e-6), lag_n=4)
    specs = [build_variant_spec(p, v, VariantParams(rotation="0.7")) for v in VARIANTS]
    cfg = SimConfig(dt=2e-3, t_max=1.0, n_paths=30, seed=8)
    batches = simulate_lanes(p, [(spec, [0.5, 0.5], leader) for spec in specs], beta, cfg)
    pairs_seen = _assert_matches_em_step_replay(p, specs, batches, leader, beta, cfg, [0.5, 0.5])
    # both leader actions, and pairs with and without the rotation
    assert {ia for ia, _ in pairs_seen} == {0, 1}
    assert {(ia + ib) % 2 for ia, ib in pairs_seen} == {0, 1}


class _Called:
    """A player that exposes only ``select`` / ``respond`` and its lag, so an ensemble must call it."""

    def __init__(self, player):
        self.player, self.lag_n = player, player.lag_n

    def select(self, k, t, x):
        return self.player.select(k, t, x)

    def respond(self, ia, k, t, x):
        return self.player.respond(ia, k, t, x)


def _assert_called_players_match(p, lanes, beta, value, cfg):
    """The batches and checkpoints of ``lanes`` equal those with every player wrapped in ``_Called``."""
    import dataclasses

    from sdglab.simulate import _run_ensemble

    def run(lanes, beta):
        batches, _ = _run_ensemble(p, lanes, beta, cfg)
        _, extras = _run_ensemble(p, lanes, beta, cfg, value_field=value, checkpoint_times=(0.0, 0.05, 0.3))
        return [dataclasses.asdict(b) for b in batches], extras["checkpoints"]

    wrapped = {}  # one wrapper per player, so that lanes keep sharing their leader
    called = [(spec, x0, wrapped.setdefault(id(a), _Called(a))) for spec, x0, a in lanes]
    (got, got_cp), (want, want_cp) = run(called, _Called(beta)), run(lanes, beta)
    assert np.array_equal(got_cp, want_cp)
    for a, b in zip(got, want, strict=True):
        for name in b:
            assert np.array_equal(a[name], b[name]), name
    assert min(b["censored"].mean() for b in want) < 1.0  # some paths exit


def _feedback(p, value, leader_lag=0, beta_lag=0):
    from sdglab.policies import FeedbackAlphaPolicy, FeedbackBetaPolicy, build_alpha_selector, build_beta_selector

    return (FeedbackAlphaPolicy(build_alpha_selector(p, value, 1e-6), lag_n=leader_lag),
            FeedbackBetaPolicy(build_beta_selector(p, value, 1e-6), lag_n=beta_lag))


def test_players_answered_without_calls_match_called_players(game_problem, solved_game):
    # game2x2's suite lanes: every variant against two constant leaders and
    # a feedback leader, and a feedback responder; then a lagged feedback pair
    from sdglab.harness import VARIANTS, build_variant_spec

    p, value = game_problem, solved_game.value_
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=200, seed=5)
    specs = [build_variant_spec(p, v) for v in VARIANTS]
    leader, beta = _feedback(p, value)
    leaders = [ConstantPolicy(0), ConstantPolicy(1), leader]
    _assert_called_players_match(p, [(s, [0.5], a) for s in specs for a in leaders], beta, value, cfg)
    leader, beta = _feedback(p, value, leader_lag=8, beta_lag=4)
    lanes = [(specs[4], [0.3], leader), (specs[0], [0.6], ConstantPolicy(1)), (specs[2], [0.5], leader)]
    _assert_called_players_match(p, lanes, beta, value, cfg)


def test_players_answered_without_calls_match_called_players_2d():
    from pathlib import Path

    from sdglab.config import load_experiment
    from sdglab.harness import VARIANTS, VariantParams, build_variant_spec
    from sdglab.pde import IsaacsSolver

    p = load_experiment(Path(__file__).resolve().parent.parent / "sdgbench" / "box2d.cfg").problem
    value = IsaacsSolver(h=1 / 16).fit(p).value_
    specs = [build_variant_spec(p, v, VariantParams(rotation="0.7")) for v in VARIANTS]
    leader, beta = _feedback(p, value)
    lanes = [(s, [0.5, 0.5], a) for s in specs for a in (ConstantPolicy(1), leader)]
    _assert_called_players_match(p, lanes, beta, value, SimConfig(dt=2e-3, t_max=1.0, n_paths=200, seed=8))


def test_constant_actions_outside_the_problem_rejected(analytic_problem, game_problem):
    from sdglab.simulate import pathwise_comparison

    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=10)
    cases = [
        (analytic_problem, ConstantPolicy(5), ConstantResponder(0), "leader action 5 .* 0 .. 0"),
        (analytic_problem, ConstantPolicy(0), ConstantResponder(3), "responder action 3 .* 0 .. 0"),
        (game_problem, ConstantPolicy(2), ConstantResponder(0), "leader action 2 .* 0 .. 1"),
        (game_problem, ConstantPolicy(0), ConstantResponder(2), "responder action 2 .* 0 .. 1"),
    ]
    for p, leader, beta, match in cases:
        spec = ControlAdaptedSpec.baseline(p)
        with pytest.raises(ValueError, match=match):
            simulate_to_exit(p, spec, [0.5], leader, beta, cfg)
        with pytest.raises(ValueError, match=match):
            pathwise_comparison(p, spec, [0.5], leader, beta, cfg, 1.0, np.arange(p.n_alpha_ext))


def test_specs_that_do_not_fit_the_problem_rejected_before_any_step(analytic_problem, game_problem):
    import dataclasses

    from sdglab.simulate import pathwise_comparison

    def bent(p):  # a noise transform that is not orthogonal
        spec = ControlAdaptedSpec.baseline(p)
        return dataclasses.replace(spec, noise_table=2.0 * spec.noise_table)

    narrow = dataclasses.replace(analytic_problem, delta1=0.9)  # rates in [0.9, 1.11]
    cases = [
        (analytic_problem, ControlAdaptedSpec.baseline(game_problem), "r_table has shape"),  # too large
        (game_problem, ControlAdaptedSpec.baseline(analytic_problem), "r_table has shape"),  # too small
        (narrow, _spec(analytic_problem, r=1.9), "leave"),  # inside [0.5, 2], where it was built
        (analytic_problem, _spec(analytic_problem, pi=1.5), "exceeds K1"),
        (analytic_problem, bent(analytic_problem), "orthogonal"),
    ]
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=10)
    for p, spec, match in cases:
        with pytest.raises(ValueError, match=match):
            spec.check(p)
        with pytest.raises(ValueError, match=match):
            simulate_to_exit(p, spec, [0.5], _NeverCalled(), ConstantResponder(0), cfg)
        with pytest.raises(ValueError, match=f"{match}|requires pi identically zero"):
            pathwise_comparison(p, spec, [0.5], _NeverCalled(), ConstantResponder(0), cfg, 1.0,
                                np.zeros(p.n_alpha_ext, dtype=int))
