"""Command-line entry point.

Every stage reads a problem/experiment config file, writes a summary and
CSVs into the output directory, and exits 0 when its criteria pass, 1
when they fail, 2 on a usage or configuration error.  Outputs carry no
timestamps, so a fixed config and seed reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_experiment
from .grids import DomainGrid
from .harness import build_variant_spec, run_invariance_suite, run_vk_convergence
from .model import validate_problem
from .pde import IsaacsSolver, PenalizedSolver, PucciParams
from .policies import ConstantPolicy, ConstantResponder
from .simulate import (
    ControlAdaptedSpec,
    girsanov_martingale_check,
    increment_bound_study,
    simulate_to_exit,
)

__all__ = ["main", "build_parser"]

STAGES = (
    "validate",
    "solve",
    "penalize",
    "simulate",
    "invariance",
    "converge",
    "martingale",
    "increments",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdglab",
        description="Stochastic differential game laboratory: PDE solvers, "
        "exit-time simulation, and probability-space invariance experiments.",
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES:
        sp = sub.add_parser(stage, help=f"run the {stage} stage")
        sp.add_argument("--config", required=True, help="problem/experiment INI file")
        sp.add_argument("--seed", type=int, default=None, help="override the seed")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--paths", type=int, default=None, help="override n_paths")
        sp.add_argument("--dt", type=float, default=None, help="override the timestep")
        sp.add_argument("--grid-h", type=float, default=None, help="override the grid spacing")
        if stage == "penalize":
            sp.add_argument("--K", type=float, default=None, help="penalty constant")
        if stage == "simulate":
            sp.add_argument("--variant", default="baseline", help="variant to simulate")
            sp.add_argument("--dump-paths", action="store_true", help="write per-path CSV")
        if stage == "increments":
            sp.add_argument(
                "--lags", default="4,8,16,32", help="comma-separated lag parameters n"
            )
    return parser


def _apply_overrides(cfg, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.grid_h is not None:
        updates["h"] = args.grid_h
    sim_updates = {}
    if args.paths is not None:
        sim_updates["n_paths"] = args.paths
    if args.dt is not None:
        sim_updates["dt"] = args.dt
    if sim_updates:
        updates["sim"] = dataclasses.replace(cfg.sim, **sim_updates)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text if text.endswith("\n") else text + "\n")


def _constant_policies(problem, cfg):
    spec_seed = cfg.seed
    alpha = ConstantPolicy(0)
    beta = ConstantResponder(0)
    return alpha, beta, spec_seed


def _stage_validate(cfg, args, out_dir: Path) -> int:
    grid = DomainGrid.build(cfg.problem.domain, cfg.h)
    report = validate_problem(cfg.problem, grid)
    _write(out_dir, "summary.txt", report.summary())
    print(report.summary())
    return 0 if report.passed else 1


def _stage_solve(cfg, args, out_dir: Path) -> int:
    solver = IsaacsSolver(h=cfg.h, cfg=cfg.solve)
    solver.fit(cfg.problem)
    out_dir.mkdir(parents=True, exist_ok=True)
    solver.value_.to_csv(out_dir / "value.csv")
    lines = [f"residual: {solver.residual_:.6e}", f"policy iterations: {solver.n_iter_}"]
    for pt in cfg.points:
        val = float(solver.predict(np.asarray(pt)[None, :])[0])
        lines.append("value(" + ",".join(f"{v:g}" for v in pt) + f") = {val:.10f}")
    _write(out_dir, "summary.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0 if solver.residual_ <= cfg.solve.residual_tol else 1


def _stage_penalize(cfg, args, out_dir: Path) -> int:
    K = args.K if args.K is not None else max(cfg.K_list)
    pucci = cfg.pucci or PucciParams.build(cfg.problem.d, delta_hat=0.5)
    solver = PenalizedSolver(K=K, pucci=pucci, h=cfg.h, cfg=cfg.solve)
    solver.fit(cfg.problem)
    out_dir.mkdir(parents=True, exist_ok=True)
    solver.value_.to_csv(out_dir / f"value_K{K:g}.csv")
    lines = [f"K: {K:g}", f"residual: {solver.residual_:.6e}"]
    for pt in cfg.points:
        val = float(solver.predict(np.asarray(pt)[None, :])[0])
        lines.append("value(" + ",".join(f"{v:g}" for v in pt) + f") = {val:.10f}")
    _write(out_dir, "summary.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0 if solver.residual_ <= cfg.solve.residual_tol else 1


def _stage_simulate(cfg, args, out_dir: Path) -> int:
    problem = cfg.problem
    spec = build_variant_spec(problem, args.variant, cfg.variant_params)
    alpha, beta, _ = _constant_policies(problem, cfg)
    lines = []
    out_dir.mkdir(parents=True, exist_ok=True)
    for ip, pt in enumerate(cfg.points):
        batch = simulate_to_exit(problem, spec, pt, alpha, beta, cfg.sim_config)
        pay = batch.payoff
        se = float(pay.std(ddof=1) / math.sqrt(len(pay)))
        lines.append(
            "x0=(" + ",".join(f"{v:g}" for v in pt) + f") mean payoff {pay.mean():.8f} "
            f"+- {se:.8f}, censored {batch.censored_fraction:.6f}, "
            f"mean exit time {float(batch.tau.mean()):.6f}"
        )
        if args.dump_paths:
            batch.to_csv(out_dir / f"paths_{ip}.csv")
    _write(out_dir, "summary.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0


def _stage_invariance(cfg, args, out_dir: Path) -> int:
    report = run_invariance_suite(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "estimates.csv")
    report.z_to_csv(out_dir / "z_scores.csv")
    _write(out_dir, "summary.txt", report.summary())
    print(report.summary())
    return 0 if report.passed else 1


def _stage_converge(cfg, args, out_dir: Path) -> int:
    report = run_vk_convergence(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.rate.to_csv(out_dir / "vk_gaps.csv")
    _write(out_dir, "summary.txt", report.summary())
    print(report.summary())
    errs = report.rate.sup_errors
    slack = 10.0 * cfg.solve.residual_tol
    nonincreasing = all(errs[i + 1] <= errs[i] + slack for i in range(len(errs) - 1))
    return 0 if (nonincreasing and report.monotone and report.mc_pass) else 1


def _stage_martingale(cfg, args, out_dir: Path) -> int:
    problem = cfg.problem
    spec = build_variant_spec(problem, "girsanov", cfg.variant_params)
    alpha, beta, _ = _constant_policies(problem, cfg)
    report = girsanov_martingale_check(
        problem, spec, cfg.points[0], alpha, beta, cfg.sim_config
    )
    ok = abs(report.weight_mean - 1.0) <= 3.0 * report.weight_se + report.censored_weight_mass
    text = report.summary() + f"\nresult: {'PASS' if ok else 'FAIL'}"
    _write(out_dir, "summary.txt", text)
    print(text)
    return 0 if ok else 1


def _stage_increments(cfg, args, out_dir: Path) -> int:
    problem = cfg.problem
    try:
        lags = sorted(int(v) for v in args.lags.split(",") if v.strip())
    except ValueError:
        print("error: --lags must be a comma-separated integer list", file=sys.stderr)
        return 2
    spec = ControlAdaptedSpec.baseline(problem)
    alpha, beta, _ = _constant_policies(problem, cfg)
    report = increment_bound_study(
        problem, spec, cfg.points[0], alpha, beta, cfg.sim_config, lags
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "increments.csv")
    scaled = report.scaled
    ratio = max(scaled) / min(scaled) if min(scaled) > 0 else math.inf
    ok = ratio <= 4.0
    lines = [
        f"n = {n}: M = {m:.6e} (M*n = {s:.6e})"
        for n, m, s in zip(report.n_values, report.M_values, scaled)
    ]
    lines.append(f"max/min of M*n: {ratio:.3f}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    _write(out_dir, "summary.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0 if ok else 1


_HANDLERS = {
    "validate": _stage_validate,
    "solve": _stage_solve,
    "penalize": _stage_penalize,
    "simulate": _stage_simulate,
    "invariance": _stage_invariance,
    "converge": _stage_converge,
    "martingale": _stage_martingale,
    "increments": _stage_increments,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        cfg = load_experiment(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = _apply_overrides(cfg, args)
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        return _HANDLERS[args.stage](cfg, args, out_dir)
    except (RuntimeError, ValueError) as exc:
        print(f"stage {args.stage} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
