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
from .harness import VARIANTS, build_variant_spec, run_invariance_suite, run_vk_convergence
from .model import validate_problem
from .pde import IsaacsSolver, extend_problem
from .policies import ConstantPolicy, ConstantResponder
from .simulate import (
    ControlAdaptedSpec,
    girsanov_martingale_check,
    increment_bound_study,
    simulate_to_exit,
)

__all__ = ["main", "build_parser"]


def _lags(text: str) -> list[int]:
    """``--lags``: distinct positive integers, comma-separated, in any order."""
    try:
        lags = sorted(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        lags = []
    if not lags or lags[0] < 1 or len(set(lags)) < len(lags):
        raise argparse.ArgumentTypeError("must be a comma-separated list of distinct positive integers")
    return lags


def _penalty(text: str) -> float:
    """``--K``: a finite, nonnegative penalty constant."""
    if not 0 <= float(text) < math.inf:
        raise argparse.ArgumentTypeError("must be finite and nonnegative")
    return float(text)


# flag -> (argparse keywords, the ExperimentConfig field it overrides, or
# None for a flag the stage handler reads); "sim." fields are SimConfig's
_FLAGS = {
    "--seed": ({"type": int, "help": "override [experiment] seed"}, "seed"),
    "--paths": ({"type": int, "help": "override [sim] n_paths"}, "sim.n_paths"),
    "--dt": ({"type": float, "help": "override [sim] dt"}, "sim.dt"),
    "--grid-h": ({"type": float, "help": "override [experiment] h"}, "h"),
    "--K": ({"type": _penalty, "help": "penalty constant (default: the largest k_list entry)"}, None),
    "--variant": ({"default": "baseline", "choices": VARIANTS, "help": "variant to simulate"}, None),
    "--dump-paths": ({"action": "store_true", "help": "write per-path CSV"}, None),
    "--lags": ({"type": _lags, "default": "4,8,16,32", "help": "comma-separated lag parameters n"}, None),
}


# Each stage handler writes its CSVs into the existing output directory and
# returns the text of summary.txt and whether its criteria pass
def _stage_validate(cfg, args, out_dir: Path) -> tuple[str, bool]:
    grid = DomainGrid.build(cfg.problem.domain, cfg.h)
    report = validate_problem(cfg.problem, grid)
    return report.summary(), report.passed


def _stage_solve(cfg, args, out_dir: Path) -> tuple[str, bool]:
    """Solve the game, or for ``penalize`` the game extended by the penalty actions."""
    problem, name, lines = cfg.problem, "value.csv", []
    if args.stage == "penalize":
        K = args.K if args.K is not None else max(cfg.K_list)
        problem = extend_problem(problem, cfg.pucci, K)
        name, lines = f"value_K{K:g}.csv", [f"K: {K:g}"]
    solver = IsaacsSolver(h=cfg.h, cfg=cfg.solve).fit(problem)
    solver.value_.to_csv(out_dir / name)
    lines += [f"residual: {solver.residual_:.6e}", f"policy iterations: {solver.n_iter_}"]
    for pt in cfg.points:
        val = float(solver.predict(np.asarray(pt)[None, :])[0])
        lines.append("value(" + ",".join(f"{v:g}" for v in pt) + f") = {val:.10f}")
    # fit raises unless the residual reaches residual_tol, so a returned fit passes
    return "\n".join(lines), True


def _stage_simulate(cfg, args, out_dir: Path) -> tuple[str, bool]:
    problem = cfg.problem
    spec = build_variant_spec(problem, args.variant, cfg.variant_params)
    alpha, beta = ConstantPolicy(0), ConstantResponder(0)
    lines = []
    for ip, pt in enumerate(cfg.points):
        batch = simulate_to_exit(problem, spec, pt, alpha, beta, cfg.sim)
        pay = batch.payoff
        se = float(pay.std(ddof=1) / math.sqrt(len(pay)))
        lines.append(
            "x0=(" + ",".join(f"{v:g}" for v in pt) + f") mean payoff {pay.mean():.8f} "
            f"+- {se:.8f}, censored {batch.censored_fraction:.6f}, "
            f"mean exit time {float(batch.tau.mean()):.6f}"
        )
        if args.dump_paths:
            batch.to_csv(out_dir / f"paths_{ip}.csv")
    return "\n".join(lines), True


def _stage_invariance(cfg, args, out_dir: Path) -> tuple[str, bool]:
    report = run_invariance_suite(cfg)
    report.to_csv(out_dir / "estimates.csv")
    report.z_to_csv(out_dir / "z_scores.csv")
    return report.summary(), report.passed


def _stage_converge(cfg, args, out_dir: Path) -> tuple[str, bool]:
    report = run_vk_convergence(cfg)
    report.rate.to_csv(out_dir / "vk_gaps.csv")
    return report.summary(), report.passed


def _stage_martingale(cfg, args, out_dir: Path) -> tuple[str, bool]:
    problem = cfg.problem
    spec = build_variant_spec(problem, "girsanov", cfg.variant_params)
    alpha, beta = ConstantPolicy(0), ConstantResponder(0)
    report = girsanov_martingale_check(
        problem, spec, cfg.points[0], alpha, beta, cfg.sim
    )
    ok = abs(report.weight_mean - 1.0) <= 3.0 * report.weight_se + report.censored_weight_mass
    return report.summary() + f"\nresult: {'PASS' if ok else 'FAIL'}", ok


def _stage_increments(cfg, args, out_dir: Path) -> tuple[str, bool]:
    problem = cfg.problem
    spec = ControlAdaptedSpec.baseline(problem)
    alpha, beta = ConstantPolicy(0), ConstantResponder(0)
    report = increment_bound_study(
        problem, spec, cfg.points[0], alpha, beta, cfg.sim, args.lags
    )
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
    return "\n".join(lines), ok


_MC = ("--seed", "--paths", "--dt")

# stage -> (handler, the flags it reads besides --config and --out);
# argparse rejects any other flag with exit code 2
_STAGES = {
    "validate": (_stage_validate, ("--grid-h",)),
    "solve": (_stage_solve, ("--grid-h",)),
    "penalize": (_stage_solve, ("--grid-h", "--K")),
    "simulate": (_stage_simulate, (*_MC, "--variant", "--dump-paths")),
    "invariance": (_stage_invariance, (*_MC, "--grid-h")),
    "converge": (_stage_converge, (*_MC, "--grid-h")),
    "martingale": (_stage_martingale, _MC),
    "increments": (_stage_increments, (*_MC, "--lags")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdglab",
        description="Stochastic differential game laboratory: PDE solvers, "
        "exit-time simulation, and probability-space invariance experiments.",
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage, (_, flags) in _STAGES.items():
        sp = sub.add_parser(stage, help=f"run the {stage} stage")
        sp.add_argument("--config", required=True, help="problem/experiment INI file")
        sp.add_argument("--out", default="out", help="output directory")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag][0])
    return parser


def _apply_overrides(cfg, args):
    updates, sim_updates = {}, {}
    for flag in _STAGES[args.stage][1]:
        field = _FLAGS[flag][1]
        value = getattr(args, flag[2:].replace("-", "_"))
        if field is None or value is None:
            continue
        if field.startswith("sim."):
            sim_updates[field[4:]] = value
        else:
            updates[field] = value
    if sim_updates:
        updates["sim"] = dataclasses.replace(cfg.sim, **sim_updates)
    return dataclasses.replace(cfg, **updates) if updates else cfg


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
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        print(f"usage error: cannot make output directory {out_dir}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        text, passed = _STAGES[args.stage][0](cfg, args, out_dir)
    except (RuntimeError, ValueError) as exc:
        print(f"stage {args.stage} failed: {exc}", file=sys.stderr)
        return 1
    (out_dir / "summary.txt").write_text(text + "\n")
    print(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
