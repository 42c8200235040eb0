import math

import numpy as np
import pytest

from sdglab.policies import ConstantPolicy, ConstantResponder
from sdglab.simulate import (
    ControlAdaptedSpec,
    PathState,
    SimConfig,
    em_step,
    girsanov_martingale_check,
    increment_bound_study,
    simulate_lanes,
    simulate_to_exit,
)

SQRT2 = math.sqrt(2.0)


def _spec(problem, r=1.0, pi=0.0, flip=False, variant="baseline"):
    na, nb, d1 = problem.n_alpha_ext, problem.n_beta, problem.d1
    q = np.broadcast_to(np.eye(d1), (na, nb, d1, d1)).copy()
    if flip:
        q = -q
    pi_t = np.zeros((na, nb, d1))
    pi_t[:, :, 0] = pi
    return ControlAdaptedSpec(
        variant=variant,
        r_table=np.full((na, nb), float(r)),
        pi_table=pi_t,
        noise_table=q,
        delta1=problem.delta1,
        K1=problem.K1,
    )


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


def test_baseline_spec_identity(analytic_problem):
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    assert spec.is_baseline()
    assert not _spec(analytic_problem, r=1.5).is_baseline()
    assert not _spec(analytic_problem, pi=0.2).is_baseline()
    assert not _spec(analytic_problem, flip=True).is_baseline()


def test_spec_validation(analytic_problem):
    with pytest.raises(ValueError):
        _spec(analytic_problem, r=3.0)  # outside [delta1, 1/delta1]
    with pytest.raises(ValueError):
        _spec(analytic_problem, pi=1.5)  # |pi| > K1
    with pytest.raises(ValueError):
        _spec(analytic_problem, variant="quantum")
    na, nb, d1 = analytic_problem.n_alpha_ext, analytic_problem.n_beta, analytic_problem.d1
    with pytest.raises(ValueError):
        ControlAdaptedSpec(
            variant="baseline",
            r_table=np.ones((na, nb)),
            pi_table=np.zeros((na, nb, d1)),
            noise_table=np.full((na, nb, d1, d1), 0.5),
            delta1=analytic_problem.delta1,
            K1=analytic_problem.K1,
        )


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_max=0.5)
    with pytest.raises(ValueError):
        SimConfig(n_paths=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.5, lag_n=4)  # lag cell 0.25 finer than the step
    SimConfig(dt=0.25, lag_n=4)


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


@pytest.mark.parametrize("max_rows", [1 << 19, 600])
def test_lanes_match_separate_runs(game_problem, solved_game, monkeypatch, max_rows):
    # lanes differ in spec, start and leader (one lagged); the responder
    # is a lagged feedback policy shared by all of them.  With 600 rows
    # the four 300-path lanes run as two ensembles of two.
    import sdglab.simulate

    monkeypatch.setattr(sdglab.simulate, "_MAX_ROWS", max_rows)
    from sdglab.policies import (
        BangBangPolicy,
        FeedbackBetaPolicy,
        build_alpha_selector,
        build_beta_selector,
        make_feedback_policy,
    )

    p = game_problem
    beta = FeedbackBetaPolicy(build_beta_selector(p, solved_game.value_, 1e-9), lag_n=4)
    lagged = make_feedback_policy(build_alpha_selector(p, solved_game.value_, 1e-9), 8)
    switch = BangBangPolicy([0.05], [1, 0])
    base = ControlAdaptedSpec.baseline(p)
    tilted = _spec(p, r=1.2, pi=0.3, flip=True, variant="combined")
    lanes = [
        (tilted, [0.3], switch),
        (base, [0.5], ConstantPolicy(0)),
        (base, [0.7], switch),
        (tilted, [0.4], lagged),
    ]
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=300, seed=5)
    together = simulate_lanes(p, lanes, beta, cfg)
    assert len(together) == len(lanes)
    for (spec, x0, alpha), batch in zip(lanes, together):
        alone = simulate_to_exit(p, spec, x0, alpha, beta, cfg)
        for name in ("tau", "censored", "exit_state", "phi", "psi", "running_payoff", "terminal_payoff"):
            assert np.array_equal(getattr(batch, name), getattr(alone, name)), name


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
    tilted = _spec(analytic_problem, pi=0.3, variant="girsanov")
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=500, seed=5)
    cfg_other = SimConfig(dt=1e-3, t_max=2.0, n_paths=500, seed=6)
    a = simulate_to_exit(analytic_problem, base, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    b = simulate_to_exit(analytic_problem, tilted, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    c = simulate_to_exit(analytic_problem, tilted, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg_other)
    paired = np.var(a.payoff - b.payoff)
    indep = np.var(a.payoff - c.payoff)
    assert paired < indep


def test_girsanov_weight_is_unit_mean(analytic_problem):
    spec = _spec(analytic_problem, pi=0.3, variant="girsanov")
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
    with pytest.raises(ValueError):
        increment_bound_study(
            analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg, [4, 2]
        )
    with pytest.raises(ValueError):
        increment_bound_study(
            analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg, [2, 100]
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


def test_trajectory_batch_record_and_csv(tmp_path, analytic_problem):
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-2, t_max=1.0, n_paths=20, seed=0)
    b = simulate_to_exit(analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg)
    rec = b.record(3)
    assert rec.tau == b.tau[3]
    assert rec.payoff == pytest.approx(b.payoff[3])
    assert rec.girsanov_weight == pytest.approx(np.exp(-b.psi[3]))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    b.to_csv(p1)
    b.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0].startswith("tau,censored,x1")
