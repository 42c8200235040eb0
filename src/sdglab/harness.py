"""End-to-end experiment orchestration.

Three experiments are wired here: Monte Carlo value estimation (best
leader candidate against the grid-synthesized responder), the invariance
comparison of those estimates across probability-space variants, and the
penalty-constant convergence study with a Monte Carlo cross-check of the
penalized value.  Reports render to deterministic text and CSV so runs
with the same config and seed produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import DomainGrid, write_csv
from .model import GameProblem, validate_problem
from .pde import IsaacsSolver, PucciParams, RateReport, SolveConfig, _K_values, _penalty_sweep
from .policies import (
    ConstantPolicy,
    FeedbackAlphaPolicy,
    FeedbackBetaPolicy,
    build_alpha_selector,
    build_beta_selector,
)
from .simulate import ControlAdaptedSpec, SimConfig, _mean_se, _start_point, simulate_lanes

__all__ = [
    "VARIANTS",
    "ValueEstimate",
    "InvarianceReport",
    "VkConvergenceReport",
    "ExperimentConfig",
    "VariantParams",
    "build_variant_spec",
    "estimate_value",
    "run_invariance_suite",
    "run_vk_convergence",
]

VARIANTS = ("baseline", "time_change", "girsanov", "rotated_noise", "combined")


@dataclass(frozen=True)
class VariantParams:
    """Magnitudes of the admissible changes each variant applies.

    The per-pair sign pattern alternates with the action indices so that
    every non-baseline variant is genuinely policy dependent.  The
    defaults keep the step-size bias differences between variants well
    inside the Monte Carlo noise at the default dt.
    """

    pi_scale: float = 0.3
    r_low: float = 0.75
    r_high: float = 1.4
    rotation: str = "flip"  # "flip" or an angle in radians for d1 >= 2

    def __post_init__(self):
        if self.rotation != "flip":
            try:
                angle = float(self.rotation)
            except (TypeError, ValueError):
                angle = math.nan
            if not math.isfinite(angle):
                raise ValueError(
                    f"rotation must be 'flip' or an angle in radians, not {self.rotation!r}"
                )


def build_variant_spec(
    problem: GameProblem, name: str, params: VariantParams = VariantParams()
) -> ControlAdaptedSpec:
    """Per-action-pair (r, pi, noise) tables for a named variant of ``VARIANTS``."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; known variants are {', '.join(VARIANTS)}")
    # the baseline's tables are its own fresh arrays, changed here in place
    base = ControlAdaptedSpec.baseline(problem)
    r, pi, q = base.r_table, base.pi_table, base.noise_table
    na, nb, d1 = pi.shape
    parity = (np.add.outer(np.arange(na), np.arange(nb)) % 2).astype(float)
    sign = 1.0 - 2.0 * parity  # +1 on even (ia+ib), -1 on odd
    if name in ("time_change", "combined"):
        r = np.where(parity == 0.0, params.r_low, params.r_high)
    if name in ("girsanov", "combined"):
        pi[:, :, 0] = params.pi_scale * sign
    if name in ("rotated_noise", "combined"):
        if params.rotation == "flip":
            q *= np.where(parity == 0.0, 1.0, -1.0)[:, :, None, None]
        elif d1 == 1:
            raise ValueError(f"rotation angle {params.rotation} needs noise of dimension at least 2; "
                             "1-D noise takes 'flip' only")
        else:
            angle = float(params.rotation)
            for ia in range(na):
                for ib in range(nb):
                    th = angle * ((ia + ib) % 2)
                    rot = np.eye(d1)
                    rot[0, 0] = rot[1, 1] = math.cos(th)
                    rot[0, 1] = -math.sin(th)
                    rot[1, 0] = math.sin(th)
                    q[ia, ib] = rot
    return ControlAdaptedSpec(r, pi, q)


@dataclass
class ValueEstimate:
    estimate: float
    se: float
    n_paths: int
    censored_fraction: float
    best_candidate: str
    candidate_means: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.se < 0:
            raise ValueError("standard error must be nonnegative")
        if not 0.0 <= self.censored_fraction <= 1.0:
            raise ValueError("censored fraction must lie in [0, 1]")


def estimate_value(
    problem: GameProblem,
    spec: ControlAdaptedSpec,
    x0,
    beta_policy,
    candidates,
    cfg: SimConfig,
) -> ValueEstimate:
    """Max over leader candidates of the MC mean payoff against ``beta_policy``.

    ``candidates`` is a nonempty sequence of leader policies, the finite
    stand-in for the sup over all admissible leader controls.

    All candidates reuse the same seed, so the Gaussian stream is common
    across them and the maximization is a low-variance paired comparison.
    """
    return _estimate_values(problem, [(spec, x0)], beta_policy, candidates, cfg)[0]


def _estimate_values(problem, jobs, beta_policy, candidates, cfg) -> list[ValueEstimate]:
    """``estimate_value`` for each (spec, x0) job, with every candidate lane of
    every job simulated in one ensemble."""
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    named = [(p, getattr(p, "name", type(p).__name__)) for p in candidates]
    lanes = [(spec, x0, policy) for spec, x0 in jobs for policy, _ in named]
    batches = iter(simulate_lanes(problem, lanes, beta_policy, cfg))
    out = []
    for _ in jobs:
        best = None
        means = {}
        for _, name in named:
            batch = next(batches)
            mean, se = _mean_se(batch.payoff)
            means[name] = mean
            if best is None or mean > best[0]:
                best = (mean, se, batch.censored_fraction, name)
        out.append(ValueEstimate(
            estimate=best[0],
            se=best[1],
            n_paths=cfg.n_paths,
            censored_fraction=best[2],
            best_candidate=best[3],
            candidate_means=means,
        ))
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, checked in full when it is made; ``specs`` holds the checked spec of
    every name in ``VARIANTS``, which the stages run."""

    problem: GameProblem
    points: tuple[tuple[float, ...], ...]
    variants: tuple[str, ...] = VARIANTS
    variant_params: VariantParams = VariantParams()
    sim: SimConfig = SimConfig()
    solve: SolveConfig = SolveConfig()
    h: float = 1 / 128
    pucci: PucciParams | None = None  # None: extend_problem's default rays
    K_list: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)
    seed: int = 0
    z_threshold: float = 3.0
    budget_h2: float = 4.0
    budget_sqrt_dt: float = 0.65
    specs: dict = field(init=False, repr=False, compare=False)  # variant name -> ControlAdaptedSpec

    def __post_init__(self):
        # the Monte Carlo settings take the experiment's seed, so SimConfig's
        # own checks reject a bad seed when the config is made
        object.__setattr__(self, "sim", replace(self.sim, seed=self.seed))
        names = self.variants
        if not set(names) <= set(VARIANTS) or "baseline" not in names or len(set(names)) < len(names):
            raise ValueError(f"variants must list baseline and any of {', '.join(VARIANTS[1:])}, each at "
                             f"most once; got {', '.join(names)}")
        # every name, as a stage may run any of them; "combined" uses every params value
        specs = {name: build_variant_spec(self.problem, name, self.variant_params) for name in VARIANTS}
        for spec in specs.values():
            spec.check(self.problem)
        object.__setattr__(self, "specs", specs)
        if not 0 < self.h < math.inf:
            raise ValueError(f"grid spacing h must be finite and positive, got {self.h}")
        _K_values(self.K_list)
        if not self.points:
            raise ValueError("need at least one evaluation point")
        for p in self.points:
            _start_point(self.problem, p)

    @property
    def budget(self) -> float:
        return self.budget_h2 * self.h**2 + self.budget_sqrt_dt * math.sqrt(self.sim.dt)


@dataclass
class InvarianceReport:
    points: tuple[tuple[float, ...], ...]
    variants: tuple[str, ...]
    estimates: dict  # (point index, variant name) -> ValueEstimate
    pde_values: list[float]
    budget: float
    z_threshold: float

    @property
    def z_scores(self) -> np.ndarray:
        """(n_points, n_variants, n_variants), antisymmetric: each pair's difference of estimates over
        its combined standard error, 0 where that is 0 (and NaN where it is NaN)."""
        z = np.zeros((len(self.points), len(self.variants), len(self.variants)))
        for ip, i, j in np.ndindex(z.shape):
            ei, ej = self.estimates[(ip, self.variants[i])], self.estimates[(ip, self.variants[j])]
            denom = math.sqrt(ei.se**2 + ej.se**2)
            if i != j and denom != 0:
                z[ip, i, j] = (ei.estimate - ej.estimate) / denom
        return z

    # each verdict below is written so that a NaN fails it
    @property
    def z_pass(self) -> bool:
        return self.max_abs_z() <= self.z_threshold

    @property
    def budget_pass(self) -> bool:
        return all(
            abs(e.estimate - self.pde_values[ip]) <= self.budget + 3.0 * e.se
            for (ip, _), e in self.estimates.items()
        )

    @property
    def passed(self) -> bool:
        return self.z_pass and self.budget_pass

    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z_scores)))

    def summary(self) -> str:
        lines = ["invariance suite"]
        lines.append(f"budget (C h^2 + C' sqrt(dt)): {self.budget:.6f}")
        for ip, pt in enumerate(self.points):
            coord = ",".join(f"{v:g}" for v in pt)
            lines.append(f"point ({coord}): PDE value {self.pde_values[ip]:.6f}")
            for var in self.variants:
                e = self.estimates[(ip, var)]
                gap = e.estimate - self.pde_values[ip]
                lines.append(
                    f"  {var:13s} {e.estimate:.6f} +- {e.se:.6f} "
                    f"(gap {gap:+.6f}, censored {e.censored_fraction:.4f}, "
                    f"best {e.best_candidate})"
                )
        lines.append(f"max |z| over pairs: {self.max_abs_z():.3f} (threshold {self.z_threshold:g})")
        lines.append(f"z-score check     : {'PASS' if self.z_pass else 'FAIL'}")
        lines.append(f"PDE budget check  : {'PASS' if self.budget_pass else 'FAIL'}")
        lines.append(f"overall           : {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        header = ["point_index", "x0", "variant", "estimate", "se", "n_paths",
                  "censored_fraction", "pde_value", "best_candidate"]
        rows = []
        for ip, pt in enumerate(self.points):
            coord = ";".join(f"{v:.17g}" for v in pt)
            for var in self.variants:
                e = self.estimates[(ip, var)]
                rows.append((ip, coord, var, e.estimate, e.se, e.n_paths,
                             e.censored_fraction, self.pde_values[ip], e.best_candidate))
        write_csv(path, header, rows)

    def z_to_csv(self, path) -> None:
        pairs = [(i, j) for i in range(len(self.variants)) for j in range(i + 1, len(self.variants))]
        write_csv(path, ["point_index", "variant_a", "variant_b", "z"], (
            (ip, self.variants[i], self.variants[j], self.z_scores[ip, i, j])
            for ip in range(len(self.points)) for i, j in pairs
        ))


def _feedback_players(config: ExperimentConfig, solver: IsaacsSolver):
    """Grid-synthesized responder and the leader candidates for a fitted solver.

    The leader candidates are each regular constant action and the
    feedback leader.
    """
    problem, eps = solver.problem_, 10.0 * config.solve.residual_tol
    beta_sel = build_beta_selector(problem, solver.value_, eps)
    alpha_sel = build_alpha_selector(problem, solver.value_, eps)
    policies = [ConstantPolicy(ia, name=f"const_{problem.actions.a_labels[ia]}")
                for ia in range(problem.n_alpha)]
    policies.append(FeedbackAlphaPolicy(alpha_sel))
    return FeedbackBetaPolicy(beta_sel), tuple(policies)


def run_invariance_suite(config: ExperimentConfig) -> InvarianceReport:
    """Solve the PDE once, then compare MC estimates across all variants."""
    problem = config.problem
    grid = DomainGrid.build(problem.domain, config.h)
    report = validate_problem(problem, grid)
    if not report.passed:
        raise RuntimeError("validation stage failed:\n" + report.summary())
    try:
        solver = IsaacsSolver(h=config.h, cfg=config.solve).fit(problem, grid=grid)
        beta_policy, candidates = _feedback_players(config, solver)
    except Exception as exc:
        raise RuntimeError(f"pde stage failed: {exc}") from exc
    pde_values = [float(solver.predict(np.asarray(p)[None, :])[0]) for p in config.points]
    keys = [(ip, var) for ip in range(len(config.points)) for var in config.variants]
    jobs = [(config.specs[var], config.points[ip]) for ip, var in keys]
    try:
        values = _estimate_values(problem, jobs, beta_policy, candidates, config.sim)
    except Exception as exc:
        raise RuntimeError(f"simulation stage failed: {exc}") from exc
    return InvarianceReport(
        points=config.points,
        variants=config.variants,
        estimates=dict(zip(keys, values)),
        pde_values=pde_values,
        budget=config.budget,
        z_threshold=config.z_threshold,
    )


@dataclass
class VkConvergenceReport:
    """Penalty-constant study plus a Monte Carlo cross-check at the extremes."""

    rate: RateReport
    gaps_nonincreasing: bool  # each sup gap at most the one before plus 10 residual_tol
    monotone: bool
    cross_checks: dict  # K -> (mc_estimate, mc_se, pde_value)
    v_mc: float
    v_mc_se: float

    @property
    def mc_pass(self) -> bool:
        """Each penalized MC value at least the plain one less 3 combined standard errors; a NaN fails."""
        v, v_se = self.v_mc, self.v_mc_se
        return all(mc >= v - 3.0 * math.sqrt(se**2 + v_se**2) for mc, se, _ in self.cross_checks.values())

    @property
    def passed(self) -> bool:
        return self.gaps_nonincreasing and self.monotone and self.mc_pass

    def summary(self) -> str:
        lines = ["penalty-constant convergence"]
        for k, e in zip(self.rate.K_values, self.rate.sup_errors):
            lines.append(f"  K = {k:<6g} sup gap {e:.3e}")
        lines.append(
            f"fitted decay: gap ~ {self.rate.fitted_N:.3g} * K^-{self.rate.fitted_chi:.3g}"
        )
        lines.append(f"sup gaps non-increasing in K: {'yes' if self.gaps_nonincreasing else 'NO'}")
        lines.append(f"nodewise monotone in K: {'yes' if self.monotone else 'NO'}")
        lines.append(f"plain game MC value: {self.v_mc:.6f} +- {self.v_mc_se:.6f}")
        for K, (mc, se, pde) in sorted(self.cross_checks.items()):
            lines.append(
                f"  K = {K:<6g} penalized MC {mc:.6f} +- {se:.6f} (grid {pde:.6f})"
            )
        lines.append(f"MC ordering check  : {'PASS' if self.mc_pass else 'FAIL'}")
        return "\n".join(lines)


def run_vk_convergence(config: ExperimentConfig) -> VkConvergenceReport:
    """Penalized-solution gap study with an MC cross-check at min and max K."""
    problem = config.problem
    rate, plain, penalized = _penalty_sweep(problem, config.pucci, problem.g, config.K_list, config.solve, config.h)
    mask = plain.grid_.in_closure
    tol = 10.0 * config.solve.residual_tol
    nonincreasing = all(b <= a + tol for a, b in zip(rate.sup_errors, rate.sup_errors[1:]))
    monotone = all(
        np.max(later.value_.values[mask] - earlier.value_.values[mask]) <= tol
        for earlier, later in zip(penalized, penalized[1:])
    )

    pt = np.asarray(config.points[0], dtype=float)
    cfg = config.sim
    beta_policy, candidates = _feedback_players(config, plain)
    est = estimate_value(problem, ControlAdaptedSpec.baseline(problem), pt, beta_policy, candidates, cfg)
    cross = {}
    for K, solver in ((rate.K_values[0], penalized[0]), (rate.K_values[-1], penalized[-1])):
        ext = solver.problem_
        beta_K, cand_K = _feedback_players(config, solver)
        est_K = estimate_value(ext, ControlAdaptedSpec.baseline(ext), pt, beta_K, cand_K, cfg)
        cross[float(K)] = (est_K.estimate, est_K.se, float(solver.predict(pt[None, :])[0]))
    return VkConvergenceReport(
        rate=rate, gaps_nonincreasing=nonincreasing, monotone=monotone, cross_checks=cross,
        v_mc=est.estimate, v_mc_se=est.se,
    )
