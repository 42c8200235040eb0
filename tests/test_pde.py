import copy
import dataclasses
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from sdglab.coefficients import ScalarField, const_matrix, const_scalar, const_vector
from sdglab.config import load_experiment
from sdglab.grids import DomainGrid, ValueField
from sdglab.model import ActionSets, DomainSpec, GameProblem
from sdglab.pde import (
    Discretization,
    _half_sst,
    _penalty_sweep,
    _policy_iteration,
    IsaacsSolver,
    PucciParams,
    SolveConfig,
    convergence_study,
    evaluate_H,
    extend_problem,
    h_mono,
)

SQRT2 = math.sqrt(2.0)
BOX2D = Path(__file__).resolve().parent.parent / "sdgbench" / "box2d.cfg"


def _problem_1d(f_field, sigma=SQRT2, bdrift=0.0, c=0.0, K0=4.0):
    return GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("box", 1, (0.0,), (1.0,)),
        sigma=((const_matrix([[sigma]]),),),
        b=((const_vector([bdrift]),),),
        c=((const_scalar(c),),),
        f=((f_field,),),
        g=const_scalar(0.0),
        K0=K0,
        delta=0.5,
        d1=1,
    )


def _problem_2d(sigma_rows, bdrift=(0.0, 0.0), c=0.0):
    return GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("box", 2, (0.0, 0.0), (1.0, 1.0)),
        sigma=((const_matrix(sigma_rows),),),
        b=((const_vector(list(bdrift)),),),
        c=((const_scalar(c),),),
        f=((const_scalar(0.0),),),
        g=const_scalar(0.0),
        K0=4.0,
        delta=0.25,
        d1=2,
    )


# --- closed-form anchor -------------------------------------------------------


def test_analytic_interval_value(solved_analytic):
    # u'' + 1 = 0 with zero boundary data has solution x(1-x)/2
    assert solved_analytic.predict([[0.5]])[0] == pytest.approx(0.125, abs=1e-9)
    # off-node queries carry the multilinear interpolation error, O(h^2)
    xs = np.linspace(0.05, 0.95, 11)[:, None]
    assert np.allclose(solved_analytic.predict(xs), xs[:, 0] * (1 - xs[:, 0]) / 2, atol=1e-5)
    assert solved_analytic.residual_ <= solved_analytic.cfg.residual_tol


def test_solver_deterministic(analytic_problem):
    a = IsaacsSolver(h=1 / 64).fit(analytic_problem)
    b = IsaacsSolver(h=1 / 64).fit(analytic_problem)
    assert np.array_equal(a.value_.values, b.value_.values, equal_nan=True)


# --- single-node operator oracles --------------------------------------------


def test_discrete_second_order_exact_on_quadratic_positive_mixed():
    sig = [[SQRT2, 0.0], [0.4, 1.0]]
    p = _problem_2d(sig)
    s = np.array(sig)
    a = 0.5 * s @ s.T
    grid = DomainGrid.build(p.domain, 1 / 8)
    u = ValueField.from_function(grid, lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1])
    node = grid.interior_idx[len(grid.interior_idx) // 2]
    # D11 = 2, D12 = 1, D22 = 0, no drift, no discount
    expected = a[0, 0] * 2.0 + 2.0 * a[0, 1] * 1.0
    # one pair and f = 0: H[u] is L u
    assert evaluate_H(p, u).values[node] == pytest.approx(expected, abs=1e-9)


def test_discrete_second_order_exact_on_quadratic_negative_mixed():
    sig = [[SQRT2, 0.0], [-0.4, 1.0]]
    p = _problem_2d(sig)
    s = np.array(sig)
    a = 0.5 * s @ s.T
    assert a[0, 1] < 0
    grid = DomainGrid.build(p.domain, 1 / 8)
    u = ValueField.from_function(grid, lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1])
    node = grid.interior_idx[len(grid.interior_idx) // 2]
    expected = a[0, 0] * 2.0 + 2.0 * a[0, 1] * 1.0
    # one pair and f = 0: H[u] is L u
    assert evaluate_H(p, u).values[node] == pytest.approx(expected, abs=1e-9)


def test_discrete_drift_and_discount_exact_on_linear():
    p = _problem_1d(const_scalar(0.0), bdrift=-0.7, c=0.3)
    grid = DomainGrid.build(p.domain, 1 / 8)
    u = ValueField.from_function(grid, lambda x: 2.0 * x[:, 0] + 1.0)
    node = grid.nearest_node([[0.5]])[0]
    expected = -0.7 * 2.0 - 0.3 * (2.0 * 0.5 + 1.0)
    # one pair and f = 0: H[u] is L u
    assert evaluate_H(p, u).values[node] == pytest.approx(expected, abs=1e-9)


def test_spacing_guard(game_problem):
    # K0 = 2.2 -> bound 2*0.5/2.2 = 0.4545
    assert h_mono(game_problem) == pytest.approx(1.0 / 2.2)
    with pytest.raises(ValueError):
        IsaacsSolver(h=0.5).fit(game_problem)


def test_grid_or_value_field_on_another_domain_rejected(analytic_problem):
    from sdglab.policies import build_alpha_selector, build_beta_selector

    wide = load_experiment(Path(__file__).resolve().parent.parent / "configs" / "wide.cfg").problem
    wide_grid = DomainGrid.build(wide.domain, 1 / 8)
    # solving analytic's coefficients on (-2, 2) gave 1.875 at x = 0.5, where the value is 0.125
    with pytest.raises(ValueError, match=r"grid lies on .*\(-2.0,\).*not on the problem's domain"):
        IsaacsSolver(h=1 / 8).fit(analytic_problem, grid=wide_grid)
    wide_value = IsaacsSolver(h=1 / 8).fit(wide, grid=wide_grid).value_
    with pytest.raises(ValueError, match="grid lies on"):
        evaluate_H(analytic_problem, wide_value)
    for build in (build_beta_selector, build_alpha_selector):
        with pytest.raises(ValueError, match="grid lies on"):
            build(analytic_problem, wide_value, 1e-6)
    # compared by value: a spec of the same domain made apart from the problem's is accepted
    twin = DomainGrid.build(DomainSpec("box", 1, [0], [1]), 1 / 8)
    assert IsaacsSolver(h=1 / 8).fit(analytic_problem, grid=twin).predict([[0.5]]) == pytest.approx([0.125])


def test_fit_rejects_a_grid_of_another_spacing(analytic_problem):
    # fit read such a grid and ignored its own h
    for h, grid_h in ((1 / 8, 1 / 16), (1 / 64, 1 / 32)):
        with pytest.raises(ValueError, match=r"lattice shape \(\d+,\), not \(\d+,\) of spacing h"):
            IsaacsSolver(h=h).fit(analytic_problem, grid=DomainGrid.build(analytic_problem.domain, grid_h))
    # h is snapped to the lattice, so any h that rounds to the grid's cell count matches it
    IsaacsSolver(h=0.124).fit(analytic_problem, grid=DomainGrid.build(analytic_problem.domain, 1 / 8))


def _spy_assemblies(monkeypatch):
    """A fresh assembly table and the list that each Discretization.__init__ appends to."""
    from sdglab import pde

    monkeypatch.setattr(pde, "_ASSEMBLED", weakref.WeakValueDictionary())
    assembled, init = [], Discretization.__init__

    def spy(self, grid, *args, **kwargs):
        assembled.append(grid)
        init(self, grid, *args, **kwargs)

    monkeypatch.setattr(Discretization, "__init__", spy)
    return assembled


def test_one_assembly_per_problem_and_grid_while_held(game_problem, monkeypatch):
    from sdglab import pde
    from sdglab.policies import build_alpha_selector, build_beta_selector

    assembled = _spy_assemblies(monkeypatch)
    solver = IsaacsSolver(h=1 / 32).fit(game_problem)
    value = solver.value_
    evaluate_H(game_problem, value)
    build_beta_selector(game_problem, value, 1e-6)
    build_alpha_selector(game_problem, value, 1e-6)
    assert len(assembled) == 1
    with pytest.raises(ValueError, match="read-only"):
        solver.discretization_.weights[0, 0, 0] = 1.0
    # the solver was the last holder: its entry dies with it
    del solver
    assert len(pde._ASSEMBLED) == 0
    evaluate_H(game_problem, value)
    assert len(assembled) == 2


# --- exact frozen-policy solve -------------------------------------------------


def _fit_recording_pair(solver, problem):
    """Fit ``solver`` on ``problem`` and return the frozen pair index of its last policy solve."""
    pairs = []
    solve = Discretization.solve_policy

    def record(self, pair, u):
        pairs.append(pair.copy())
        return solve(self, pair, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Discretization, "solve_policy", record)
        solver.fit(problem)
    return pairs[-1]


@pytest.fixture(scope="module")
def recorded_game(game_problem):
    """The 2x2 game fitted at h = 1/128, with the pair index of its last policy solve."""
    solver = IsaacsSolver(h=1 / 128)
    return solver, _fit_recording_pair(solver, game_problem)


def _frozen_policy_residual(solver, pair):
    """max|L^pi u + f^pi| over interior nodes for the frozen pair index ``pair`` on the
    solver's own ``value_``, and the scale max|diag| * max|u|."""
    disc = Discretization.from_problem(solver.problem_, solver.grid_)
    u = solver.value_.values
    ham = disc.hamiltonians(u)
    res = ham[pair // disc.n_beta, pair % disc.n_beta, np.arange(len(disc.idx))]
    scale = float(np.max(np.abs(disc.weights[:, :, 0]))) * float(np.nanmax(np.abs(u)))
    return float(np.max(np.abs(res))), scale


def test_exact_solve_game(recorded_game):
    solver, pair = recorded_game
    res, scale = _frozen_policy_residual(solver, pair)
    assert res <= 1e-12 * scale
    assert solver.n_iter_ == 2


def test_exact_solve_mixed_derivative_2d():
    p = dataclasses.replace(
        _problem_2d([[SQRT2, 0.0], [-0.4, 1.0]], bdrift=(0.3, -0.2), c=0.1),
        f=((const_scalar(1.0),),),
        g=ScalarField("affine", (0.0, 1.0, 0.5)),
    )
    solver = IsaacsSolver(h=1 / 32)
    pair = _fit_recording_pair(solver, p)
    res, scale = _frozen_policy_residual(solver, pair)
    assert res <= 1e-12 * scale
    assert solver.n_iter_ == 1


def _cold_start(solver):
    """Howard's algorithm from u = g on the solver's own operators: (values, iterations)."""
    u = ValueField.from_function(solver.grid_, solver.problem_.g).values
    *_, iters = _policy_iteration(solver.discretization_, u, solver.cfg)
    return u, iters


@pytest.mark.parametrize("inv_h, cold_iters", [(32, 4), (64, 5)])
def test_2d_fit_starts_from_the_coarse_solve(inv_h, cold_iters, monkeypatch):
    from sdglab import pde

    p = load_experiment(BOX2D).problem
    assembled = _spy_assemblies(monkeypatch)
    solver = IsaacsSolver(h=1 / inv_h).fit(p)
    # one cold solve at twice the spacing, whose operators die with the fit
    assert [float(g.spacing[0]) for g in assembled] == [1 / inv_h, 2 / inv_h]
    assert len(pde._ASSEMBLED) == 1
    u, iters = _cold_start(solver)
    assert (iters, solver.n_iter_) == (cold_iters, 2)
    idx = solver.discretization_.idx
    assert np.array_equal(solver.value_.values[idx], u[idx])


def test_1d_fit_starts_cold(game_problem, monkeypatch):
    # a tridiagonal policy system costs less to solve than a coarse grid to assemble
    assembled = _spy_assemblies(monkeypatch)
    solver = IsaacsSolver(h=1 / 128).fit(game_problem)
    assert len(assembled) == 1 and solver.discretization_.kl == 1
    assert solver.n_iter_ == 2


def _small_disc_problem():
    """sigma = I, f = 1 on the disc of radius 0.3, h_mono = 0.25."""
    return dataclasses.replace(
        _problem_2d(np.eye(2).tolist()),
        domain=DomainSpec("ball", 2, center=(0.0, 0.0), radius=0.3),
        f=((const_scalar(1.0),),),
        delta=0.5,
    )


@pytest.mark.parametrize(
    "case, h",
    [("box2d", 0.25), ("disc", 0.1)],
    ids=["twice_the_spacing_passes_h_mono", "no_interior_node_at_twice_the_spacing"],
)
def test_2d_fit_starts_cold_without_an_admissible_coarse_grid(case, h, monkeypatch):
    p = load_experiment(BOX2D).problem if case == "box2d" else _small_disc_problem()
    coarse = DomainGrid.build(p.domain, 2 * h)
    if case == "box2d":
        assert h <= h_mono(p) < 2 * h
    else:
        assert 2 * h <= h_mono(p) and not coarse.interior.any()
    assembled = _spy_assemblies(monkeypatch)
    solver = IsaacsSolver(h=h).fit(p)
    assert len(assembled) == 1 and solver.discretization_.kl > 1
    u, iters = _cold_start(solver)
    assert solver.n_iter_ == iters and solver.residual_ <= solver.cfg.residual_tol
    assert np.array_equal(solver.value_.values[solver.discretization_.idx], u[solver.discretization_.idx])


def test_half_sst_matches_einsum():
    rng = np.random.default_rng(5)
    for d, d1 in ((1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        s = rng.normal(size=(2000, d, d1))
        ref = 0.5 * np.einsum("nij,nkj->nik", s, s)
        if d1 <= 2:
            assert np.array_equal(_half_sst(s), ref), (d, d1)
        else:
            # einsum sums three terms in another order: a few ulp of the terms' size
            size = 0.5 * np.einsum("nij,nkj->nik", np.abs(s), np.abs(s))
            assert np.all(np.abs(_half_sst(s) - ref) <= 4 * np.spacing(size)), (d, d1)


def test_non_finite_residual_fails_at_once(game_problem):
    grid = DomainGrid.build(game_problem.domain, 1 / 32)
    disc = Discretization.from_problem(game_problem, grid)
    u = ValueField.from_function(grid, game_problem.g).values
    u[disc.idx[5]] = np.nan
    # rows 4, 5 and 6 read the NaN; the first of them is interior node 5
    message = r"^residual nan at policy iteration 0, first at interior node 5$"
    with pytest.raises(RuntimeError, match=message):
        _policy_iteration(disc, u, SolveConfig())


def test_solve_config_validation():
    # a fractional bound would fail later in range(), a bool bound run one iteration, a bool tolerance read 1.0
    for bad in (dict(residual_tol=math.nan), dict(residual_tol=math.inf), dict(residual_tol=0.0),
                dict(max_policy_iters=-1), dict(max_policy_iters=2.5), dict(max_policy_iters=80.0),
                dict(max_policy_iters=True), dict(residual_tol=True)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolveConfig(**bad)
    assert SolveConfig(max_policy_iters=np.int64(3), residual_tol=1).max_policy_iters == 3
    # kept as an int, as every integer setting is
    assert type(SolveConfig(max_policy_iters=np.int64(3)).max_policy_iters) is int


def test_residual_below_round_off_floor_fails_loudly(game_problem):
    # at h = 1/2048 the exact solve bottoms out near 2e-9, and the policy repeats
    solver = IsaacsSolver(h=1 / 2048, cfg=SolveConfig(residual_tol=1e-10))
    with pytest.raises(RuntimeError, match=r"iteration \d+.*residual .*floor .* = \d"):
        solver.fit(game_problem)


def _dense_solve(disc, pair, u):
    """The interior values solving L^pi u + f^pi = 0, by a dense matrix assembled entry by entry."""
    m = len(disc.idx)
    pos = {int(node): k for k, node in enumerate(disc.idx)}
    a, rhs = np.zeros((m, m)), -disc.fvals[pair, np.arange(m)]
    for k in range(m):
        for wt, node in zip(disc.weights[pair[k], k], disc.cols[k]):
            if int(node) in pos:
                a[k, pos[int(node)]] += wt
            else:
                rhs[k] -= wt * u[node]
    return np.linalg.solve(a, rhs)


def _check_against_dense(disc, pair, u):
    ref = _dense_solve(disc, pair, u)
    disc.solve_policy(pair, u)
    assert np.max(np.abs(u[disc.idx] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_banded_solve_matches_dense_box2d():
    p = load_experiment(BOX2D).problem
    grid = DomainGrid.build(p.domain, 1 / 16)
    disc = Discretization.from_problem(p, grid)
    # a per-node mix of all four pairs: both orientations of the cross-diffusion
    pair = np.random.default_rng(3).integers(0, 4, len(disc.idx))
    assert {0, 1, 2, 3} <= set(pair.tolist())
    assert (disc.kl, disc.ku) == (16, 16)
    _check_against_dense(disc, pair, ValueField.from_function(grid, p.g).values)


def test_banded_solve_matches_dense_1d(game_problem):
    grid = DomainGrid.build(game_problem.domain, 1 / 64)
    disc = Discretization.from_problem(game_problem, grid)
    pair = np.random.default_rng(4).integers(0, 4, len(disc.idx))
    assert (disc.kl, disc.ku) == (1, 1)
    _check_against_dense(disc, pair, ValueField.from_function(grid, game_problem.g).values)


def _disc_on_ball(h, a12):
    """One pair with a = [[1, a12], [a12, 0.7]] per interior node of the unit disc."""
    grid = DomainGrid.build(DomainSpec("ball", 2, center=(0.0, 0.0), radius=1.0), h)
    m = len(grid.interior_idx)
    a = np.zeros((m, 2, 2))
    a[:, 0, 0], a[:, 1, 1] = 1.0, 0.7
    a[:, 0, 1] = a[:, 1, 0] = a12
    return Discretization(grid, [(a, np.broadcast_to([0.3, -0.5], (m, 2)), np.full(m, 0.1), np.ones(m))], n_beta=1)


def test_banded_solve_matches_dense_on_ball():
    # the interior of a ball is numbered irregularly: rows of the lattice differ in length;
    # the cross-diffusion is switched off near the circle, where diagonal neighbors leave the closure
    grid = DomainGrid.build(DomainSpec("ball", 2, center=(0.0, 0.0), radius=1.0), 1 / 16)
    a12 = np.where(np.linalg.norm(grid.coords[grid.interior], axis=1) < 0.75, 0.2, 0.0)
    disc = _disc_on_ball(1 / 16, a12)
    u = ValueField.from_function(grid, lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 1]).values
    _check_against_dense(disc, np.zeros(len(disc.idx), dtype=int), u)
    assert np.isfinite(u[disc.idx]).all()


def test_ball_stencil_reaching_past_the_closure_fails_loudly():
    # a constant cross-diffusion weights diagonal neighbors that lie outside the disc
    with pytest.raises(ValueError, match=r"interior node \d+ at \[.*\] reaches lattice node \d+ outside the closure"):
        _disc_on_ball(1 / 16, 0.2)


def _per_node(problem, grid):
    """A Discretization of ``problem`` on ``grid`` from every field evaluated at every interior node."""
    pts = grid.coords[grid.interior]
    pairs = [
        (_half_sst(problem.sigma[ia][ib](pts)), problem.b[ia][ib](pts), problem.c[ia][ib](pts), problem.f[ia][ib](pts))
        for ia in range(problem.n_alpha_ext)
        for ib in range(problem.n_beta)
    ]
    return Discretization(grid, pairs, problem.n_beta)


@pytest.mark.parametrize("case", ["game2x2", "box2d", "holder_K4"])
def test_assembly_from_one_node_matches_per_node_bit_for_bit(case, game_problem, holder_problem):
    problem, h = {
        "game2x2": (game_problem, 1 / 64),
        "box2d": (load_experiment(BOX2D).problem, 1 / 16),
        "holder_K4": (extend_problem(holder_problem, PucciParams.build(1, delta_hat=0.5), 4.0), 1 / 64),
    }[case]
    grid = DomainGrid.build(problem.domain, h)
    disc, ref = Discretization.from_problem(problem, grid), _per_node(problem, grid)
    for name in ("weights", "fvals", "cols", "_band_flat"):
        a, b = getattr(disc, name), getattr(ref, name)
        assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name
    assert (disc.kl, disc.ku) == (ref.kl, ref.ku)
    rng = np.random.default_rng(5)
    u = ValueField.from_function(grid, problem.g).values
    u[disc.idx] += rng.normal(0.0, 0.1, len(disc.idx))
    assert disc.hamiltonians(u).tobytes() == ref.hamiltonians(u).tobytes()
    pair = rng.integers(0, len(disc.weights), len(disc.idx))
    u1, u2 = u.copy(), u.copy()
    disc.solve_policy(pair, u1)
    ref.solve_policy(pair, u2)
    assert u1.tobytes() == u2.tobytes()


def test_positive_type_threshold_is_per_pair():
    # pair 0's center is about -3.2e5 and pair 1's about 2e-10; pair 1's axis weights of -1e-10 are far
    # below its own floor of -1e-12 (|center| + 1), though above a floor of -3.2e-7 shared with pair 0
    grid = DomainGrid.build(DomainSpec("box", 1, (0.0,), (1.0,)), 1 / 4)
    m, h = int(grid.interior.sum()), grid.spacing[0]

    def pair(a):
        return np.full((m, 1, 1), a), np.zeros((m, 1)), np.zeros(m), np.zeros(m)

    Discretization(grid, [pair(1e4)], n_beta=1)
    with pytest.raises(ValueError, match="positive type"):
        Discretization(grid, [pair(1e4), pair(-1e-10 * h**2)], n_beta=2)


def test_one_stencil_layout_per_grid(holder_problem, monkeypatch):
    assembled = _spy_assemblies(monkeypatch)
    laid_out, layout = [], DomainGrid.stencil.func

    def spy(grid):
        laid_out.append(grid)
        return layout(grid)

    monkeypatch.setattr(DomainGrid.stencil, "func", spy)
    pucci = PucciParams.build(1, delta_hat=0.5)
    cfg = SolveConfig()
    _, plain, penalized = _penalty_sweep(holder_problem, pucci, holder_problem.g, (1, 2, 4, 8), cfg, 1 / 64)
    discs = [s.discretization_ for s in (plain, *penalized)]
    assert len(assembled) == 5 and len(laid_out) == 1
    assert all(d.cols is discs[0].cols for d in discs)
    # a grid built anew lays its stencil out again, equal to the first
    grid = DomainGrid.build(holder_problem.domain, 1 / 64)
    assert np.array_equal(grid.spacing, plain.grid_.spacing)
    disc = Discretization.from_problem(holder_problem, grid)
    assert len(laid_out) == 2 and disc.cols is not discs[0].cols and np.array_equal(disc.cols, discs[0].cols)


def test_isotropic_disc_converges():
    # sigma = I, f = 1, g = 0 on the unit disc: u = (1 - |x|^2) / 2, 0.5 at the center
    p = GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("ball", 2, center=(0.0, 0.0), radius=1.0),
        sigma=((const_matrix(np.eye(2)),),),
        b=((const_vector([0.0, 0.0]),),),
        c=((const_scalar(0.0),),),
        f=((const_scalar(1.0),),),
        g=const_scalar(0.0),
        K0=4.0,
        delta=0.5,
        d1=2,
    )
    errors = []
    for h in (1 / 16, 1 / 32):
        solver = IsaacsSolver(h=h).fit(p)
        assert math.isfinite(solver.residual_) and solver.residual_ <= solver.cfg.residual_tol
        errors.append(abs(float(solver.predict([[0.0, 0.0]])[0]) - 0.5))
    assert errors[1] < 0.6 * errors[0] and errors[0] < 0.05, errors


def test_singular_policy_system_fails_loudly(game_problem):
    grid = DomainGrid.build(game_problem.domain, 1 / 32)
    # a private copy: the assembled operators are shared and read-only
    disc = copy.copy(Discretization.from_problem(game_problem, grid))
    disc.weights = disc.weights.copy()
    disc.weights[:, 5] = 0.0
    u = ValueField.from_function(grid, game_problem.g).values
    with pytest.raises(RuntimeError, match=r"singular: zero pivot \d+ at interior node \d+"):
        disc.solve_policy(np.zeros(len(disc.idx), dtype=int), u)


# --- extremal operator --------------------------------------------------------


def evaluate_P(pucci, u):
    """Max over the ray set of the constant-coefficient operators applied to u."""
    grid = u.grid
    m = int(grid.interior.sum())
    zero = np.zeros(m)
    rays = [(np.broadcast_to(a, (m, grid.d, grid.d)), np.zeros((m, grid.d)), zero, zero) for a in pucci.rays]
    disc = Discretization(grid, rays, n_beta=1)
    out = ValueField.zeros(grid)
    out.values[disc.idx] = disc.hamiltonians(u.values)[:, 0].max(axis=0)
    return out


def test_extremal_operator_1d_oracle():
    pucci = PucciParams.build(1, delta_hat=0.5)
    dom = DomainSpec("box", 1, (0.0,), (1.0,))
    grid = DomainGrid.build(dom, 1 / 16)
    convex = ValueField.from_function(grid, lambda x: x[:, 0] ** 2)
    concave = ValueField.from_function(grid, lambda x: -(x[:, 0] ** 2))
    m = grid.interior
    # max(0.5 * u'', 2 * u'') is 4 for u'' = 2 and -1 for u'' = -2
    assert np.allclose(evaluate_P(pucci, convex).values[m], 4.0, atol=1e-9)
    assert np.allclose(evaluate_P(pucci, concave).values[m], -1.0, atol=1e-9)


def test_extremal_operator_positive_homogeneous():
    pucci = PucciParams.build(2, delta_hat=0.5, n_rotations=8)
    dom = DomainSpec("box", 2, (0.0, 0.0), (1.0, 1.0))
    grid = DomainGrid.build(dom, 1 / 8)
    u = ValueField.from_function(grid, lambda x: x[:, 0] ** 2 - 0.5 * x[:, 0] * x[:, 1])
    p1 = evaluate_P(pucci, u).values[grid.interior]
    u2 = ValueField(grid, 3.0 * u.values)
    p2 = evaluate_P(pucci, u2).values[grid.interior]
    assert np.allclose(p2, 3.0 * p1, atol=1e-9)


def test_pucci_build_validation():
    with pytest.raises(ValueError):
        PucciParams.build(1, delta_hat=1.5)
    with pytest.raises(ValueError, match="d <= 2 only"):
        PucciParams.build(3, delta_hat=0.5)
    for n in (0, -2, 2.5, True):
        with pytest.raises(ValueError, match="n_rotations"):
            PucciParams.build(2, delta_hat=0.5, n_rotations=n)
    # 1-D has the two rays whatever the count, so a count is an error, the default included
    for n in (3, 16):
        with pytest.raises(ValueError, match="n_rotations"):
            PucciParams.build(1, delta_hat=0.5, n_rotations=n)
    assert len(PucciParams.build(2).rays) == 18


@pytest.mark.parametrize("n, count", [(1, 4), (3, 8), (8, 10), (16, 18)])
def test_pucci_rays_are_the_distinct_extremal_matrices(n, count):
    lo, hi = 0.5, 2.0
    rays = PucciParams.build(2, 0.5, n).rays
    assert len(rays) == count
    for a in rays:
        assert a.shape == (2, 2) and np.array_equal(a, a.T)
        eig = np.linalg.eigvalsh(a)
        assert all(min(abs(v - lo), abs(v - hi)) <= 1e-12 for v in eig)
    assert all(np.abs(a - b).max() > 1e-9 for i, a in enumerate(rays) for b in rays[:i])
    # oracle: every q(pi k / n) diag(l1, l2) q(pi k / n)^T, with repeats
    old = []
    for k in range(n):
        c, s = math.cos(math.pi * k / n), math.sin(math.pi * k / n)
        q = np.array([[c, -s], [s, c]])
        old += [q @ np.diag([l1, l2]) @ q.T for l1 in (lo, hi) for l2 in (lo, hi)]
    assert all(any(np.abs(a - b).max() <= 1e-12 for b in rays) for a in old)
    assert all(any(np.abs(a - b).max() <= 1e-12 for b in old) for a in rays)


def test_pucci_rays_1d_and_penalty_coefficients():
    pucci = PucciParams.build(1, delta_hat=0.25)
    assert [a.tolist() for a in pucci.rays] == [[[0.25]], [[4.0]]]
    p = load_experiment(BOX2D).problem
    ext = extend_problem(p, PucciParams.build(2, 0.5, 3), 4.0)
    x = np.array([[0.3, 0.6]])
    for a, ia in zip(PucciParams.build(2, 0.5, 3).rays, range(p.n_alpha, ext.n_alpha_ext)):
        for ib in range(p.n_beta):
            s = ext.sigma[ia][ib](x)[0]
            assert np.allclose(s @ s.T, 2.0 * a, atol=1e-12)
            assert np.array_equal(ext.b[ia][ib](x), np.zeros((1, 2)))
            assert np.array_equal(ext.c[ia][ib](x), [0.0])
            assert np.array_equal(ext.f[ia][ib](x), [-4.0])


# --- scheme refinement on a non-quadratic solution ----------------------------


def test_second_order_refinement_on_quartic_solution():
    # target u = x^2 (1-x)^2 solves u'' + f = 0 with f = -(12x^2 - 12x + 2)
    f = ScalarField("affine", (-2.0, 12.0))  # -2 + 12x

    class _Quartic:
        def __call__(self, x):
            return -(12.0 * x[:, 0] ** 2) + 12.0 * x[:, 0] - 2.0

        def at(self, x):
            return float(self(np.atleast_2d(np.asarray(x, float)))[0])

        is_constant = False
        shape = ()  # a scalar field

    p = _problem_1d(_Quartic())
    errors = []
    for h in (1 / 16, 1 / 32):
        u = IsaacsSolver(h=h).fit(p).value_
        xs = u.grid.coords[u.grid.in_closure]
        exact = xs[:, 0] ** 2 * (1 - xs[:, 0]) ** 2
        errors.append(float(np.max(np.abs(u.values[u.grid.in_closure] - exact))))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)


# --- comparison and monotonicity ----------------------------------------------


def test_larger_running_cost_gives_larger_solution(analytic_problem):
    u1 = IsaacsSolver(h=1 / 32).fit(analytic_problem).value_
    p2 = _problem_1d(const_scalar(1.2), K0=2.0)
    u2 = IsaacsSolver(h=1 / 32).fit(p2).value_
    m = u1.grid.in_closure
    assert np.all(u2.values[m] - u1.values[m] >= -1e-9)


def test_sup_inf_residual_zero_at_solution(solved_game, game_problem):
    h_res = evaluate_H(game_problem, solved_game.value_)
    m = solved_game.grid_.interior
    assert float(np.max(np.abs(h_res.values[m]))) <= 1e-7


def test_game_saddle_uses_both_actions(recorded_game):
    solver, pair = recorded_game
    n_beta = solver.discretization_.n_beta
    assert set(np.unique(pair // n_beta)) == {0, 1}
    assert set(np.unique(pair % n_beta)) == {0, 1}


# --- penalized solver ---------------------------------------------------------


def test_penalized_matches_plain_when_penalty_slack(analytic_problem):
    # the plain solution is concave, so the curvature penalty never binds
    pucci = PucciParams.build(1, delta_hat=0.5)
    v = IsaacsSolver(h=1 / 64).fit(analytic_problem).value_
    for K in (1.0, 64.0):
        u_K = IsaacsSolver(h=1 / 64).fit(extend_problem(analytic_problem, pucci, K)).value_
        assert u_K.sup_diff(v) <= 1e-7


def test_penalized_above_plain_when_penalty_binds(holder_problem):
    # extra leader actions can only raise the sup side, so u_K >= v,
    # decreasing toward v as K grows
    pucci = PucciParams.build(1, delta_hat=0.5)
    v = IsaacsSolver(h=1 / 64).fit(holder_problem).value_
    u1 = IsaacsSolver(h=1 / 64).fit(extend_problem(holder_problem, pucci, 1.0)).value_
    u4 = IsaacsSolver(h=1 / 64).fit(extend_problem(holder_problem, pucci, 4.0)).value_
    m = v.grid.in_closure
    assert np.all(u1.values[m] >= v.values[m] - 1e-9)
    assert np.all(u4.values[m] <= u1.values[m] + 1e-9)
    assert u1.sup_diff(v) > 0.1


def test_extend_problem_shapes_and_guards(analytic_problem):
    pucci = PucciParams.build(1, delta_hat=0.5)
    ext = extend_problem(analytic_problem, pucci, 3.0)
    assert ext.n_alpha == 1
    assert ext.n_alpha_ext == 1 + len(pucci.rays)
    assert ext.f[1][0] == const_scalar(-3.0)
    with pytest.raises(ValueError):
        extend_problem(ext, pucci, 3.0)
    for K in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            extend_problem(analytic_problem, pucci, K)


def test_convergence_study_on_rough_cost(holder_problem):
    pucci = PucciParams.build(1, delta_hat=0.5)
    rep = convergence_study(
        holder_problem, pucci, holder_problem.g, [1, 2, 4, 8, 16], h=1 / 64
    )
    errs = rep.sup_errors
    assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))
    assert rep.fitted_chi > 0
    # one gap halving in the binding range shrinks the gap by a modest factor
    ratio = errs[1] / errs[2]
    assert 1.3 <= ratio <= 2.7


def test_convergence_study_rejects_bad_K_list(analytic_problem):
    pucci = PucciParams.build(1, delta_hat=0.5)
    with pytest.raises(ValueError):
        convergence_study(analytic_problem, pucci, analytic_problem.g, [4, 2])
    for K_list in ([0.5, 2], [1, math.nan, 8], [1, math.inf], [2, 2], []):
        with pytest.raises(ValueError, match="k_list must be nonempty, finite, >= 1 and strictly increasing"):
            convergence_study(analytic_problem, pucci, analytic_problem.g, K_list)


# --- estimator interface ------------------------------------------------------


def test_boundary_data_honored(analytic_problem):
    g = lambda x: 2.0 * np.ones(x.shape[0])
    u = IsaacsSolver(h=1 / 32).fit(analytic_problem, g).value_
    assert np.allclose(u.values[u.grid.boundary_idx], 2.0)
