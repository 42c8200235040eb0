"""End-to-end acceptance criteria.

One test per criterion; each records a single PASS/FAIL line, echoed in
the terminal summary at the end of the run.  Tolerances and seeds are
frozen; loosening them to rescue a failure defeats the point of the
suite.  A full run of the whole test suite takes about 64 s on a 2-vCPU
Xeon, most of it in criteria 5 and 3 (30 s and 11 s); criterion 8 takes 4 s.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from sdglab.cli import main as cli_main
from sdglab.harness import ExperimentConfig, build_variant_spec, run_invariance_suite, run_vk_convergence
from sdglab.pde import IsaacsSolver, PucciParams, SolveConfig, convergence_study, extend_problem
from sdglab.policies import (
    ConstantPolicy,
    ConstantResponder,
    FeedbackBetaPolicy,
    OccupancyPolicy,
    build_beta_selector,
    submartingale_test,
    supermartingale_test,
)
from sdglab.simulate import (
    ControlAdaptedSpec,
    SimConfig,
    girsanov_martingale_check,
    increment_bound_study,
    pathwise_comparison,
    simulate_to_exit,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SOLVE = SolveConfig()
FLOOR = 10.0 * SOLVE.residual_tol
BUDGET_H2 = 4.0
BUDGET_SQRT_DT = 0.65


# one line per criterion, echoed by the terminal-summary hook in conftest
VERDICTS: list[str] = []


def _verdict(num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line)
    return ok


def test_criterion_01_analytic_anchor(solved_analytic, analytic_problem):
    t0 = time.perf_counter()
    v = IsaacsSolver(h=1 / 128).fit(analytic_problem).predict([[0.5]])[0]
    elapsed = time.perf_counter() - t0
    err = abs(v - 0.125)
    ok = err <= 1e-3 and elapsed < 10.0
    assert _verdict(1, ok, f"v(0.5) = {v:.9f}, |err| = {err:.2e}, {elapsed:.1f} s")


def test_criterion_02_scheme_order(analytic_problem):
    errs = []
    for h in (1 / 64, 1 / 128):
        v = IsaacsSolver(h=h).fit(analytic_problem).value_.interpolate([[0.5]])[0]
        errs.append(abs(v - 0.125))
    # quadratic solutions are reproduced to the solver floor at every h,
    # so the ratio test only applies above that floor
    at_floor = max(errs) <= FLOOR
    ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
    ok = at_floor or ratio >= 3.0
    assert _verdict(
        2, ok, f"err(h) = {errs[0]:.2e}, err(h/2) = {errs[1]:.2e}"
        + (" (both at solver floor)" if at_floor else f", ratio {ratio:.2f}")
    )


def test_criterion_03_mc_pde_agreement(solved_analytic, analytic_problem):
    t0 = time.perf_counter()
    cfg = SimConfig(dt=1e-4, t_max=4.0, n_paths=100_000, seed=7)
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    budget = BUDGET_H2 / 128**2 + BUDGET_SQRT_DT * math.sqrt(cfg.dt)
    details, ok = [], True
    for x0 in (0.25, 0.5, 0.75):
        batch = simulate_to_exit(
            analytic_problem, spec, [x0], ConstantPolicy(0), ConstantResponder(0), cfg
        )
        pay = batch.payoff
        mean = float(pay.mean())
        se = float(pay.std(ddof=1) / math.sqrt(len(pay)))
        pde = float(solved_analytic.predict([[x0]])[0])
        gap = abs(mean - pde)
        ok &= gap <= 3.0 * se + budget
        details.append(f"x0={x0:g}: gap {gap:.2e} vs {3 * se + budget:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert _verdict(3, ok, "; ".join(details) + f"; {elapsed:.0f} s")


def test_criterion_04_girsanov_identity(analytic_problem):
    spec = build_variant_spec(analytic_problem, "girsanov")
    cfg = SimConfig(dt=1e-4, t_max=4.0, n_paths=100_000, seed=7)
    rep = girsanov_martingale_check(
        analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg
    )
    dev = abs(rep.weight_mean - 1.0)
    ok = dev <= 3.0 * rep.weight_se
    assert _verdict(
        4, ok,
        f"mean exp(-psi) = {rep.weight_mean:.5f} +- {rep.weight_se:.5f}, "
        f"|dev|/SE = {dev / rep.weight_se:.2f}",
    )


def test_criterion_05_invariance_across_variants(game_problem):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        problem=game_problem,
        points=((0.25,), (0.5,), (0.75,)),
        sim=SimConfig(dt=5e-5, t_max=4.0, n_paths=10_000),
        h=1 / 128,
        seed=7,
    )
    rep = run_invariance_suite(cfg)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 900.0
    assert _verdict(
        5, ok,
        f"max |z| = {rep.max_abs_z():.2f} (limit 3), budget "
        f"{'PASS' if rep.budget_pass else 'FAIL'}, {elapsed:.0f} s",
    )


def test_criterion_06_increment_bound():
    # 1/n scaling of the lag increment needs cells shorter than typical
    # excursions, so this runs on a wide interval (mean exit time 2)
    # rather than the unit one (mean exit time 0.125, which keeps the
    # n = 4 and n = 8 cells in the pre-asymptotic plateau)
    from sdglab.coefficients import const_matrix, const_scalar, const_vector
    from sdglab.model import ActionSets, DomainSpec, GameProblem

    wide = GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("box", 1, (-2.0,), (2.0,)),
        sigma=((const_matrix([[math.sqrt(2.0)]]),),),
        b=((const_vector([0.0]),),),
        c=((const_scalar(0.0),),),
        f=((const_scalar(1.0),),),
        g=const_scalar(0.0),
        K0=math.sqrt(2.0),
        delta=0.5,
    )
    spec = ControlAdaptedSpec.baseline(wide)
    cfg = SimConfig(dt=1e-3, t_max=8.0, n_paths=2000, seed=0)
    rep = increment_bound_study(
        wide, spec, [0.0], ConstantPolicy(0), ConstantResponder(0), cfg, [4, 8, 16, 32]
    )
    scaled = rep.scaled
    ratio = max(scaled) / min(scaled)
    mono = all(rep.M_values[i + 1] <= rep.M_values[i] for i in range(len(rep.M_values) - 1))
    ok = ratio <= 4.0 and mono
    assert _verdict(
        6, ok,
        f"M(n)*n spread max/min = {ratio:.2f} over n in {rep.n_values}, "
        f"M nonincreasing: {mono}",
    )


def test_criterion_07_penalization(game_problem, holder_problem):
    pucci = PucciParams.build(1, delta_hat=0.5)
    # smooth family: monotone decrease to the exact value plus an MC check
    cfg = ExperimentConfig(
        problem=game_problem,
        points=((0.5,),),
        sim=SimConfig(dt=5e-4, t_max=4.0, n_paths=4000),
        h=1 / 128,
        pucci=pucci,
        K_list=(1, 2, 4, 8, 16, 32, 64),
        seed=5,
    )
    rep = run_vk_convergence(cfg)
    final_gap = rep.rate.sup_errors[-1]
    # low-regularity running cost: measurable power-law decay of the gap
    rate_h = convergence_study(holder_problem, pucci, holder_problem.g, [1, 2, 4, 8], SOLVE, 1 / 128)
    ok = rep.monotone and final_gap <= FLOOR and rate_h.fitted_chi > 0 and rep.mc_pass
    assert _verdict(
        7, ok,
        f"monotone {rep.monotone}, gap(K=64) = {final_gap:.2e}, "
        f"chi_hat = {rate_h.fitted_chi:.2f}, MC ordering {'PASS' if rep.mc_pass else 'FAIL'}",
    )


def test_criterion_08_martingale_drift_signs(solved_game, game_problem):
    from sdglab.policies import FeedbackAlphaPolicy, build_alpha_selector

    v = solved_game.value_
    eps = FLOOR
    bsel = build_beta_selector(game_problem, v, eps)
    asel = build_alpha_selector(game_problem, v, eps)
    spec = ControlAdaptedSpec.baseline(game_problem)
    cfg = SimConfig(dt=2e-4, t_max=2.0, n_paths=20_000, seed=11)
    cps = (0.25, 0.5, 1.0)
    results = []
    for ia in range(game_problem.n_alpha):
        results.append(
            supermartingale_test(
                game_problem, spec, [0.5], v, ConstantPolicy(ia), FeedbackBetaPolicy(bsel), cfg, cps, eps
            )
        )
    for ib in range(game_problem.n_beta):
        results.append(
            submartingale_test(
                game_problem, spec, [0.5], v, FeedbackAlphaPolicy(asel), ConstantResponder(ib), cfg, cps, eps
            )
        )
    ok = all(r.passed for r in results)
    tags = [f"{r.side}:{'ok' if r.passed else 'BAD'}" for r in results]
    assert _verdict(8, ok, ", ".join(tags))


def test_criterion_09_pathwise_coupling(analytic_problem):
    pucci = PucciParams.build(1, delta_hat=0.5)
    ext = extend_problem(analytic_problem, pucci, 1.0)
    spec = ControlAdaptedSpec.baseline(ext)
    projection = np.zeros(ext.n_alpha_ext, dtype=int)
    cfg = SimConfig(dt=5e-4, t_max=1.0, n_paths=5000, seed=5)
    ratios = []
    for frac in (0.2, 0.1, 0.05):
        policy = OccupancyPolicy(0, analytic_problem.n_alpha, frac, period=0.05)
        rep = pathwise_comparison(
            ext, spec, [0.5], policy, ConstantResponder(0), cfg, 0.5, projection
        )
        ratios.append(rep.ratio)
    spread = max(ratios) / min(ratios)
    ok = spread <= 3.0
    assert _verdict(
        9, ok,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios) + f"; spread {spread:.3f} (limit 3)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg = str(CONFIGS / "analytic.cfg")
    outputs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        code = cli_main(
            ["simulate", "--config", cfg, "--paths", "500", "--dt", "1e-3",
             "--dump-paths", "--out", str(out)]
        )
        assert code == 0
        blob = b"".join(sorted(p.read_bytes() for p in out.iterdir()))
        outputs.append(blob)
        out2 = tmp_path / f"{tag}_solve"
        code = cli_main(["solve", "--config", cfg, "--grid-h", "0.015625", "--out", str(out2)])
        assert code == 0
        outputs[-1] += (out2 / "summary.txt").read_bytes() + (out2 / "value.csv").read_bytes()
    ok = outputs[0] == outputs[1]
    assert _verdict(10, ok, "simulate and solve stages byte-identical across reruns")
