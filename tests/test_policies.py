import math
from pathlib import Path

import numpy as np
import pytest

from sdglab.coefficients import const_matrix, const_scalar, const_vector
from sdglab.config import load_experiment
from sdglab.grids import DomainGrid, ValueField
from sdglab.model import ActionSets, DomainSpec, GameProblem
from sdglab.pde import IsaacsSolver
from sdglab.policies import (
    ConstantPolicy,
    ConstantResponder,
    FeedbackAlphaPolicy,
    FeedbackBetaPolicy,
    MartingaleTestReport,
    OccupancyPolicy,
    build_alpha_selector,
    build_beta_selector,
    submartingale_test,
    supermartingale_test,
)
from sdglab.simulate import ControlAdaptedSpec, SimConfig, simulate_to_exit

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SQRT2 = math.sqrt(2.0)
EPS = 1e-6


def _twin_beta_problem():
    """Two responder actions with identical coefficients; ties everywhere."""
    m = const_matrix([[SQRT2]])
    return GameProblem(
        actions=ActionSets(("a0",), ("b0", "b1")),
        domain=DomainSpec("box", 1, (0.0,), (1.0,)),
        sigma=((m, m),),
        b=((const_vector([0.0]), const_vector([0.0])),),
        c=((const_scalar(0.0), const_scalar(0.0)),),
        f=((const_scalar(1.0), const_scalar(1.0)),),
        g=const_scalar(0.0),
        K0=2.0,
        delta=0.5,
    )


def test_beta_selector_singleton_and_outside_point(solved_analytic, analytic_problem):
    sel = build_beta_selector(analytic_problem, solved_analytic.value_, EPS)
    assert sel.role == "beta"
    # singleton responder: only action 0 exists
    assert np.all(sel.table == 0)
    out = FeedbackBetaPolicy(sel).respond(np.array([0, 0]), 0, 0.0, np.array([[0.5], [1.7]]))
    assert list(out) == [0, 0]


def test_alpha_selector_roundtrip(solved_game, game_problem):
    sel = build_alpha_selector(game_problem, solved_game.value_, EPS)
    assert sel.role == "alpha"
    grid = solved_game.value_.grid
    acts = FeedbackAlphaPolicy(sel).select(0, 0.0, grid.coords[grid.interior])
    assert set(np.unique(acts)) == {0, 1}
    assert np.array_equal(acts, sel.table[grid.interior])


@pytest.mark.parametrize(
    "path", [CONFIGS / "game2x2.cfg", CONFIGS.parent / "sdgbench" / "box2d.cfg"], ids=["game2x2", "box2d"]
)
def test_feedback_policies_read_the_nearest_node(path):
    # the reference plays the nearest node's entry inside the domain and 0
    # outside it; on a box the policies' plain table read agrees
    p = load_experiment(path).problem
    value = IsaacsSolver(h=1 / 16).fit(p).value_
    asel = build_alpha_selector(p, value, EPS)
    bsel = build_beta_selector(p, value, EPS)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.25, 1.25, size=(4000, p.d))
    ia = rng.integers(p.n_alpha, size=x.shape[0])
    node, inside = value.grid.nearest_node(x), p.domain.contains(x)
    assert inside.any() and not inside.all()
    want_a = np.where(inside, asel.table[node], 0)
    want_b = np.where(inside, bsel.table[ia, node], 0)
    assert set(want_a) == set(want_b) == {0, 1}
    assert np.array_equal(FeedbackAlphaPolicy(asel).select(0, 0.0, x), want_a)
    assert np.array_equal(FeedbackBetaPolicy(bsel).respond(ia, 0, 0.0, x), want_b)


def test_selectors_reject_a_grid_coarser_than_h_mono(game_problem):
    # K0 = 2.2 -> bound 2*0.5/2.2 = 0.4545, as IsaacsSolver.fit and evaluate_H enforce
    v = ValueField.zeros(DomainGrid.build(game_problem.domain, 0.5))
    for build in (build_beta_selector, build_alpha_selector):
        with pytest.raises(ValueError, match="exceeds the monotonicity bound 0.4545"):
            build(game_problem, v, EPS)


def test_selectors_reject_a_nan_value(solved_game, game_problem):
    v = ValueField(solved_game.value_.grid, solved_game.value_.values.copy())
    node = np.flatnonzero(v.grid.interior)[40]
    v.values[node] = np.nan
    for build in (build_beta_selector, build_alpha_selector):
        with pytest.raises(ValueError, match="non-finite Hamiltonian nan at node"):
            build(game_problem, v, EPS)


def test_least_index_tie_break():
    p = _twin_beta_problem()
    solver = IsaacsSolver(h=1 / 32).fit(p)
    sel = build_beta_selector(p, solver.value_, EPS)
    # both actions feasible at every node; the first one must win
    assert np.all(sel.table == 0)


def test_selector_preconditions_reject_bad_inputs(solved_analytic, analytic_problem):
    v = solved_analytic.value_
    zero = ValueField.zeros(v.grid)
    with pytest.raises(ValueError, match="supersolution"):
        build_beta_selector(analytic_problem, zero, EPS)
    doubled = ValueField(v.grid, 2.0 * v.values)
    with pytest.raises(ValueError, match="subsolution"):
        build_alpha_selector(analytic_problem, doubled, EPS)
    with pytest.raises(ValueError):
        build_beta_selector(analytic_problem, v, 0.0)


def test_selector_tables_deterministic(solved_game, game_problem):
    for build in (build_beta_selector, build_alpha_selector):
        first, second = (build(game_problem, solved_game.value_, EPS) for _ in range(2))
        assert first.table.dtype == int and np.array_equal(first.table, second.table)


def test_scripted_policies():
    x = np.zeros((3, 1))
    occ = OccupancyPolicy(0, 2, 0.25, period=1.0)
    assert occ.select(0, 0.1, x)[0] == 2
    assert occ.select(0, 0.9, x)[0] == 0
    with pytest.raises(ValueError):
        OccupancyPolicy(0, 1, 1.5)
    # a period that is not finite and positive is rejected before any step
    for period in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="period must be finite and positive"):
            OccupancyPolicy(0, 1, 0.2, period=period)
    assert list(ConstantResponder(1).respond(np.array([0, 0]), 0, 0.0, x)) == [1, 1]
    assert list(ConstantPolicy(1).select(0, 0.0, x)) == [1, 1, 1]


def test_feedback_policy_role_and_lag_checks(solved_game, game_problem):
    bsel = build_beta_selector(game_problem, solved_game.value_, EPS)
    asel = build_alpha_selector(game_problem, solved_game.value_, EPS)
    with pytest.raises(ValueError):
        FeedbackAlphaPolicy(bsel)
    with pytest.raises(ValueError):
        FeedbackBetaPolicy(asel)
    with pytest.raises(ValueError):
        FeedbackBetaPolicy(bsel, lag_n=-1)
    assert FeedbackAlphaPolicy(asel, lag_n=2).lag_n == 2


class _Recorder:
    """Leader policy that logs the state argument it is shown."""

    def __init__(self, lag_n):
        self.lag_n = lag_n
        self.seen = []

    def select(self, k, t, x):
        self.seen.append((t, x.copy()))
        return np.zeros(x.shape[0], dtype=int)


def test_lagged_policy_sees_frozen_state():
    # wide domain so no path exits during the run
    p = GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("box", 1, (-50.0,), (50.0,)),
        sigma=((const_matrix([[SQRT2]]),),),
        b=((const_vector([0.0]),),),
        c=((const_scalar(0.0),),),
        f=((const_scalar(0.0),),),
        g=const_scalar(0.0),
        K0=2.0,
        delta=0.5,
    )
    spec = ControlAdaptedSpec.baseline(p)
    rec = _Recorder(lag_n=2)
    cfg = SimConfig(dt=0.05, t_max=1.0, n_paths=4, seed=0)
    simulate_to_exit(p, spec, [0.0], rec, ConstantResponder(0), cfg)
    by_cell = {}
    for t, x in rec.seen:
        by_cell.setdefault(int(2 * t + 1e-9), []).append(x)
    # within each lag cell the state argument is identical; across the
    # first boundary it moves
    for xs in by_cell.values():
        for x in xs[1:]:
            assert np.array_equal(x, xs[0])
    assert not np.array_equal(by_cell[0][0], by_cell[1][0])


def test_super_and_submartingale_drift(solved_game, game_problem):
    v = solved_game.value_
    bsel = build_beta_selector(game_problem, v, EPS)
    asel = build_alpha_selector(game_problem, v, EPS)
    spec = ControlAdaptedSpec.baseline(game_problem)
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=2000, seed=11)
    cps = (0.25, 0.5, 1.0)
    sup = supermartingale_test(
        game_problem, spec, [0.5], v, ConstantPolicy(0), FeedbackBetaPolicy(bsel), cfg, cps, EPS
    )
    assert sup.passed
    assert sup.side == "super"
    sub = submartingale_test(
        game_problem, spec, [0.5], v, FeedbackAlphaPolicy(asel), ConstantResponder(0), cfg, cps, EPS
    )
    assert sub.passed
    assert "drift" in sub.summary()
    with pytest.raises(ValueError):
        supermartingale_test(
            game_problem, spec, [0.5], v, ConstantPolicy(0), FeedbackBetaPolicy(bsel), cfg, (), EPS
        )


def test_drift_tests_fail_on_a_nan_value_field(solved_game, game_problem):
    # every checkpoint reads NaN, so every drift is NaN: both verdicts passed such a run
    v = solved_game.value_
    nan_field = ValueField(v.grid, np.full_like(v.values, np.nan))
    bsel, asel = build_beta_selector(game_problem, v, EPS), build_alpha_selector(game_problem, v, EPS)
    spec = ControlAdaptedSpec.baseline(game_problem)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=50, seed=11)
    runs = (
        (supermartingale_test, ConstantPolicy(0), FeedbackBetaPolicy(bsel)),
        (submartingale_test, FeedbackAlphaPolicy(asel), ConstantResponder(0)),
    )
    for test, alpha, beta in runs:
        rep = test(game_problem, spec, [0.5], nan_field, alpha, beta, cfg, (0.25, 0.5), EPS)
        assert np.isnan(rep.diffs).all() and not rep.passed
        assert rep.summary().splitlines()[-1] == "  result: FAIL"


def test_drift_verdict_is_derived_from_the_reports_numbers():
    def report(side, diffs, tols):
        n = len(diffs) + 1
        return MartingaleTestReport(side, list(range(n)), [0.0] * n, [0.0] * n, diffs, [0.0] * len(diffs), tols)

    assert report("super", [0.1, -5.0], [0.1, 0.1]).passed
    assert not report("super", [0.0, 0.2], [0.1, 0.1]).passed
    assert report("sub", [-0.1, 5.0], [0.1, 0.1]).passed
    assert not report("sub", [0.0, -0.2], [0.1, 0.1]).passed
    for side in ("super", "sub"):
        assert not report(side, [0.0, math.nan], [0.1, 0.1]).passed
        assert not report(side, [0.0, 0.0], [0.1, math.nan]).passed
        assert report(side, [], []).passed  # one checkpoint: no drift to test


def test_drift_checkpoints_outside_the_horizon_or_repeated_rejected(solved_game, game_problem):
    # at t_max = 1, a checkpoint at 5 read m(1) and one at -1 the starting value; a repeat always passed
    v = solved_game.value_
    spec = ControlAdaptedSpec.baseline(game_problem)
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=50, seed=11)
    bsel, asel = build_beta_selector(game_problem, v, EPS), build_alpha_selector(game_problem, v, EPS)
    cases = [
        ((0.25, 0.5, 1.0, 5.0), "checkpoint time 5.0 is outside"),
        ((-1.0, 0.5), "checkpoint time -1.0 is outside"),
        ((0.5, float("nan")), "checkpoint time nan is outside"),
        ((0.25, 0.5, 0.5), "checkpoint time 0.5 is repeated"),
    ]
    for cps, match in cases:
        with pytest.raises(ValueError, match=match):
            supermartingale_test(
                game_problem, spec, [0.5], v, ConstantPolicy(0), FeedbackBetaPolicy(bsel), cfg, cps, EPS
            )
        with pytest.raises(ValueError, match=match):
            submartingale_test(
                game_problem, spec, [0.5], v, FeedbackAlphaPolicy(asel), ConstantResponder(0), cfg, cps, EPS
            )
    # both ends of [0, t_max] are kept
    rep = supermartingale_test(
        game_problem, spec, [0.5], v, ConstantPolicy(0), FeedbackBetaPolicy(bsel), cfg, (0.0, 1.0), EPS
    )
    assert rep.times == [0.0, 1.0] and rep.ses[0] < 1e-15 < rep.ses[1]


def test_actions_and_lags_must_be_non_negative_integers(solved_game, game_problem):
    asel = build_alpha_selector(game_problem, solved_game.value_, EPS)
    for bad in (1.7, 1.0, -1, "1", None, True):
        with pytest.raises(ValueError, match="action must be an integer of at least 0"):
            ConstantPolicy(bad)
        with pytest.raises(ValueError, match="action must be an integer of at least 0"):
            ConstantResponder(bad)
        with pytest.raises(ValueError, match="action must be an integer of at least 0"):
            OccupancyPolicy(0, bad, 0.5)
        with pytest.raises(ValueError, match="action must be an integer of at least 0"):
            OccupancyPolicy(bad, 1, 0.5)
    for bad in (2.5, 2.0, -1, "2", True):
        with pytest.raises(ValueError, match="lag_n must be an integer of at least 0"):
            FeedbackAlphaPolicy(asel, lag_n=bad)
    assert ConstantPolicy(np.int64(1)).action == 1 and type(ConstantPolicy(np.int64(1)).action) is int
    assert FeedbackAlphaPolicy(asel, lag_n=np.int64(3)).lag_n == 3
