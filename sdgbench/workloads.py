"""The three benchmark workloads: set-up, one pass, and its checks.

Each workload is a closed loop: the runner starts a pass only after the
previous one returns.  ``setup`` loads the configs and builds problems and
grids; ``run_pass`` does the timed work through sdglab's public API and
returns the checks it made, with their statistics, and SHA-256 digests of
its outputs.  ``TINY`` holds the reduced sizes the self-check uses.

The Monte Carlo streams use the acceptance suite's frozen seeds (7 for
the ensembles of criteria 3 to 5, 11 for the drift tests of criterion
8), not the benchmark's ``--seed``.  The checks are frozen-threshold
statistical tests (3 standard errors, |z| <= 3); over seeds 11 to 36
the invariance suite's max |z| at 2,000 paths reached 2.999, so a
seed-driven stream would now and then fail a check with no fault in the
program, and would change the work per pass (each lane stops at its
last exit).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from tracing import size_label

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
REFERENCE = HERE / "reference.npz"

# frozen seeds and tolerances of the acceptance criteria these workloads re-run
MC_SEED = 7
DRIFT_SEED = 11
REF_TOL = 1e-10
BUDGET_H = 1 / 128


@dataclasses.dataclass
class Check:
    name: str
    ok: bool
    statistic: float
    detail: str


@dataclasses.dataclass
class PassResult:
    checks: list
    digests: dict
    se: float | None = None  # largest standard error among the reported estimates


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _se(x) -> float:
    return float(np.std(x, ddof=1) / math.sqrt(len(x)))


class ExitMC:
    """Criteria 3 and 4 in one ensemble: payoff and Girsanov weight.

    One lane, constant policies, no PDE: the cost is the full-width
    Gaussian draw and the EM kernel per alive path-step.
    """

    name = "exit_mc"
    FULL = dict(n_paths=40_000, dt=1e-3, t_max=4.0)
    TINY = dict(n_paths=500, dt=1e-3, t_max=4.0)

    def __init__(self, tiny: bool = False):
        self.p = self.TINY if tiny else self.FULL

    def setup(self, sdglab):
        exp = sdglab.load_experiment(CONFIGS / "analytic.cfg")
        self.sdglab = sdglab
        self.problem = exp.problem
        self.spec = sdglab.build_variant_spec(exp.problem, "girsanov")
        self.cfg = sdglab.SimConfig(
            dt=self.p["dt"], t_max=self.p["t_max"], n_paths=self.p["n_paths"], seed=MC_SEED
        )
        self.budget = exp.budget_h2 * BUDGET_H**2 + exp.budget_sqrt_dt * math.sqrt(self.cfg.dt)

    def run_pass(self) -> PassResult:
        s = self.sdglab
        batch = s.simulate_to_exit(
            self.problem, self.spec, [0.5], s.ConstantPolicy(0), s.ConstantResponder(0), self.cfg
        )
        pay = batch.payoff
        mean, se = float(pay.mean()), _se(pay)
        allowed = 3.0 * se + self.budget
        gap = abs(mean - 0.125)  # closed-form value x(1 - x)/2 at x = 0.5
        w = np.where(batch.censored, 0.0, np.exp(-batch.psi))
        w_mean, w_se = float(w.mean()), _se(w)
        z_w = abs(w_mean - 1.0) / w_se
        checks = [
            Check("payoff_gap_over_budget", gap <= allowed, gap / allowed,
                  f"payoff {mean:.6f} +- {se:.6f} vs 0.125, allowed {allowed:.6f}"),
            Check("weight_dev_over_se", z_w <= 3.0, z_w,
                  f"mean exp(-psi) {w_mean:.6f} +- {w_se:.6f}"),
        ]
        digests = {"tau": digest(batch.tau), "psi": digest(batch.psi), "payoff": digest(pay)}
        return PassResult(checks, digests, se=max(se, w_se))


class InvarianceGame:
    """Criterion 5 at one point, then one super- and one submartingale test.

    Fifteen lanes (5 variants x 3 leader candidates) with feedback lookups
    on both sides, then two drift runs with checkpoints: bound by the
    per-step Python overhead and the number of lanes.
    """

    name = "invariance_game"
    FULL = dict(n_paths=4_000, dt=1e-3, t_max=4.0, drift_t_max=2.0)
    TINY = dict(n_paths=300, dt=2e-3, t_max=4.0, drift_t_max=2.0)
    CHECKPOINTS = (0.25, 0.5, 1.0)

    def __init__(self, tiny: bool = False):
        self.p = self.TINY if tiny else self.FULL

    def setup(self, sdglab):
        exp = sdglab.load_experiment(CONFIGS / "game2x2.cfg")
        self.sdglab = sdglab
        self.problem = exp.problem
        sim = dataclasses.replace(
            exp.sim, dt=self.p["dt"], t_max=self.p["t_max"], n_paths=self.p["n_paths"]
        )
        self.config = dataclasses.replace(exp, points=((0.5,),), sim=sim, seed=MC_SEED)
        self.drift_cfg = dataclasses.replace(sim, t_max=self.p["drift_t_max"], seed=DRIFT_SEED)
        self.grid = sdglab.DomainGrid.build(exp.problem.domain, exp.h)
        self.spec = sdglab.ControlAdaptedSpec.baseline(exp.problem)
        self.eps = 10.0 * exp.solve.residual_tol

    def run_pass(self) -> PassResult:
        s, problem = self.sdglab, self.problem
        rep = s.run_invariance_suite(self.config)
        checks = [Check("max_abs_z", rep.z_pass, rep.max_abs_z(),
                        f"threshold {rep.z_threshold:g}")]
        ratios = [
            abs(e.estimate - rep.pde_values[0]) / (rep.budget + 3.0 * e.se)
            for e in rep.estimates.values()
        ]
        checks.append(Check("max_gap_over_budget", rep.budget_pass, max(ratios),
                            f"budget {rep.budget:.6f} + 3 se"))
        est = [rep.estimates[(0, v)] for v in rep.variants]
        digests = {
            "suite": digest([e.estimate for e in est], [e.se for e in est],
                            [m for e in est for m in e.candidate_means.values()]),
        }

        solver = s.IsaacsSolver(h=self.config.h, cfg=self.config.solve).fit(problem, grid=self.grid)
        v = solver.value_
        bsel = s.build_beta_selector(problem, v, self.eps)
        asel = s.build_alpha_selector(problem, v, self.eps)
        super_rep = s.supermartingale_test(
            problem, self.spec, [0.5], v, s.ConstantPolicy(0), s.FeedbackBetaPolicy(bsel),
            self.drift_cfg, self.CHECKPOINTS, self.eps,
        )
        sub_rep = s.submartingale_test(
            problem, self.spec, [0.5], v, s.FeedbackAlphaPolicy(asel), s.ConstantResponder(0),
            self.drift_cfg, self.CHECKPOINTS, self.eps,
        )
        for rep_d, sign in ((super_rep, 1.0), (sub_rep, -1.0)):
            worst = max(sign * d / tol for d, tol in zip(rep_d.diffs, rep_d.tolerances))
            checks.append(Check(f"{rep_d.side}_drift_over_tol", rep_d.passed, worst,
                                "signed drift over tolerance per checkpoint interval"))
            digests[f"{rep_d.side}_drift"] = digest(rep_d.means, rep_d.ses, rep_d.diffs)
        se = max([e.se for e in est] + super_rep.ses + sub_rep.ses)
        return PassResult(checks, digests, se=se)


class PdeLadder:
    """Policy iteration at growing size, no Monte Carlo.

    The 1-D game at three spacings, the 2-D box game at two, and the
    penalized convergence study on the Hoelder game.  Every solved grid is
    compared with the stored reference values.
    """

    name = "pde_ladder"
    FULL = dict(game_h=(128, 256, 512), box_h=(32, 64), holder_h=128)
    TINY = dict(game_h=(32, 64), box_h=(8, 16), holder_h=32)
    K_LIST = (1, 2, 4, 8)

    def __init__(self, tiny: bool = False):
        self.p = self.TINY if tiny else self.FULL

    def setup(self, sdglab, load_reference: bool = True):
        self.sdglab = sdglab
        game = sdglab.load_experiment(CONFIGS / "game2x2.cfg")
        box = sdglab.load_experiment(HERE / "box2d.cfg")
        self.holder = sdglab.load_experiment(CONFIGS / "holder.cfg")
        self.rungs = []
        for exp, inv_hs in ((game, self.p["game_h"]), (box, self.p["box_h"])):
            for inv_h in inv_hs:
                grid = sdglab.DomainGrid.build(exp.problem.domain, 1.0 / inv_h)
                self.rungs.append((exp, grid))
        if load_reference:
            with np.load(REFERENCE) as ref:
                self.reference = {k: ref[k] for k in ref.files}

    def solve_all(self):
        """Solve every rung and run the Hoelder study; rungs keyed by size."""
        s = self.sdglab
        out = {}
        for exp, grid in self.rungs:
            solver = s.IsaacsSolver(h=float(min(grid.spacing)), cfg=exp.solve)
            solver.fit(exp.problem, grid=grid)
            out[size_label(grid)] = (exp, solver)
        hp = self.holder
        rate = s.convergence_study(
            hp.problem, hp.pucci, hp.problem.g, self.K_LIST, hp.solve, 1.0 / self.p["holder_h"]
        )
        return out, rate

    def run_pass(self) -> PassResult:
        s = self.sdglab
        solved, rate = self.solve_all()
        checks, digests = [], {}
        for label, (exp, solver) in solved.items():
            res = float(np.max(np.abs(s.evaluate_H(exp.problem, solver.value_).values[solver.grid_.interior])))
            tol = exp.solve.residual_tol
            checks.append(Check(f"residual.{label}", res <= tol, res, f"tol {tol:g}, {solver.n_iter_} iterations"))
            vals = solver.value_.values
            diff = float(np.max(np.abs(vals - self.reference[label])))
            checks.append(Check(f"ref_sup_diff.{label}", diff <= REF_TOL, diff, f"tol {REF_TOL:g}"))
            digests[label] = digest(vals)
        gaps = np.asarray(rate.sup_errors)
        label = f"holder_gaps_h{self.p['holder_h']}"
        nonincreasing = bool(np.all(np.diff(gaps) <= 0.0))
        checks.append(Check("holder_chi_hat", rate.fitted_chi > 0 and nonincreasing, rate.fitted_chi,
                            "fitted decay exponent; gaps non-increasing: " + str(nonincreasing)))
        diff = float(np.max(np.abs(gaps - self.reference[label])))
        checks.append(Check(f"ref_sup_diff.{label}", diff <= REF_TOL, diff, f"tol {REF_TOL:g}"))
        digests[label] = digest(gaps)
        return PassResult(checks, digests)


WORKLOADS = {w.name: w for w in (ExitMC, InvarianceGame, PdeLadder)}
