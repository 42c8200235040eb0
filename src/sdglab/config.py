"""INI problem and experiment configuration.

A problem file has sections [domain], [actions], [coefficients] and
[constants]; experiment-level sections [pucci], [solve], [sim],
[experiment] and [variants] are optional and fall back to defaults.

Coefficient keys accept per-action overrides: ``f`` sets every action
pair, ``f.a1`` one leader action across responses, ``f.b0`` one response
across leader actions, and ``f.a1.b0`` a single pair.  Scalar values use
the family syntax ``const:v`` / ``affine:c0,c1,...`` / ``sin:s,amp,freq``
/ ``holder:c0,amp,exp[,center]`` (a bare number means const); drift
vectors separate components with ``;`` and diffusion matrices separate
rows with ``|``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .coefficients import parse_matrix, parse_scalar, parse_vector
from .harness import ExperimentConfig, VariantParams
from .model import ActionSets, DomainSpec, GameProblem
from .pde import PucciParams, SolveConfig
from .simulate import SimConfig

__all__ = ["ConfigError", "load_problem", "load_experiment"]


class ConfigError(ValueError):
    """Malformed or incomplete configuration file."""


def _read(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return parser


def _floats(text: str, sep: str = ",") -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(sep) if v.strip())


def _domain(parser) -> tuple[DomainSpec, int]:
    try:
        sec = parser["domain"]
        shape = sec.get("shape", "box").strip().lower()
        d = sec.getint("dimension")
        if shape == "box":
            lower = _floats(sec["lower"])
            upper = _floats(sec["upper"])
            dom = DomainSpec("box", d, lower, upper)
        elif shape == "ball":
            center = _floats(sec["center"])
            radius = sec.getfloat("radius")
            dom = DomainSpec("ball", d, center=center, radius=radius)
        else:
            raise ConfigError(f"unknown domain shape {shape!r}")
        d1 = sec.getint("noise_dimension", fallback=d)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad [domain] section: {exc}") from exc
    return dom, d1


def _labels(text: str) -> tuple[str, ...]:
    labels = tuple(v.strip() for v in text.split(",") if v.strip())
    if not labels:
        raise ConfigError("empty action list")
    return labels


def _coefficient_table(sec, key, a_labels, b_labels, parse):
    """Resolve the most specific of key, key.aI, key.bJ, key.aI.bJ per pair."""
    if key not in sec and not any(k.startswith(key + ".") for k in sec):
        raise ConfigError(f"missing coefficient {key!r}")
    table = []
    for al in a_labels:
        row = []
        for bl in b_labels:
            for candidate in (f"{key}.{al}.{bl}", f"{key}.{al}", f"{key}.{bl}", key):
                if candidate in sec:
                    try:
                        row.append(parse(sec[candidate]))
                    except ValueError as exc:
                        raise ConfigError(f"bad value for {candidate!r}: {exc}") from exc
                    break
            else:
                raise ConfigError(f"no value covers {key} for pair ({al}, {bl})")
        table.append(tuple(row))
    return tuple(table)


def load_problem(path) -> GameProblem:
    """Build a validated-shape GameProblem from an INI file."""
    parser = _read(path)
    return _problem_from_parser(parser)


def _problem_from_parser(parser) -> GameProblem:
    for section in ("domain", "actions", "coefficients", "constants"):
        if section not in parser:
            raise ConfigError(f"missing [{section}] section")
    domain, d1 = _domain(parser)
    try:
        a_labels = _labels(parser["actions"]["alpha"])
        b_labels = _labels(parser["actions"]["beta"])
    except KeyError as exc:
        raise ConfigError(f"bad [actions] section: missing {exc}") from exc
    coeff = parser["coefficients"]
    sigma = _coefficient_table(coeff, "sigma", a_labels, b_labels, parse_matrix)
    b = _coefficient_table(coeff, "b", a_labels, b_labels, parse_vector)
    c = _coefficient_table(coeff, "c", a_labels, b_labels, parse_scalar)
    f = _coefficient_table(coeff, "f", a_labels, b_labels, parse_scalar)
    if "g" not in coeff:
        raise ConfigError("missing coefficient 'g'")
    try:
        g = parse_scalar(coeff["g"])
    except ValueError as exc:
        raise ConfigError(f"bad value for 'g': {exc}") from exc
    const = parser["constants"]
    try:
        problem = GameProblem(
            actions=ActionSets(a_labels, b_labels),
            domain=domain,
            sigma=sigma,
            b=b,
            c=c,
            f=f,
            g=g,
            K0=const.getfloat("k0"),
            delta=const.getfloat("delta"),
            delta1=const.getfloat("delta1", fallback=0.5),
            K1=const.getfloat("k1", fallback=1.0),
            d=domain.dimension,
            d1=d1,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem definition: {exc}") from exc
    return problem


def _solve_config(parser) -> SolveConfig:
    if "solve" not in parser:
        return SolveConfig()
    sec = parser["solve"]
    for key in sec:
        if key not in ("max_policy_iters", "residual_tol"):
            raise ConfigError(
                f"unknown key {key!r} in [solve]; accepted keys are max_policy_iters and residual_tol"
            )
    base = SolveConfig()
    try:
        return SolveConfig(
            max_policy_iters=sec.getint("max_policy_iters", fallback=base.max_policy_iters),
            residual_tol=sec.getfloat("residual_tol", fallback=base.residual_tol),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [solve] section: {exc}") from exc


def _sim_config(parser) -> SimConfig:
    base = SimConfig()
    if "sim" not in parser:
        return base
    sec = parser["sim"]
    if "seed" in sec:
        raise ConfigError("[sim] takes no seed; the Monte Carlo seed is [experiment] seed")
    for key in sec:
        if key not in ("dt", "t_max", "n_paths"):
            raise ConfigError(f"unknown key {key!r} in [sim]; accepted keys are dt, t_max and n_paths")
    try:
        return SimConfig(
            dt=sec.getfloat("dt", fallback=base.dt),
            t_max=sec.getfloat("t_max", fallback=base.t_max),
            n_paths=sec.getint("n_paths", fallback=base.n_paths),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [sim] section: {exc}") from exc


def _pucci(parser, d: int) -> PucciParams:
    if "pucci" not in parser:
        return PucciParams.build(d, delta_hat=0.5)
    sec = parser["pucci"]
    try:
        return PucciParams.build(
            d,
            delta_hat=sec.getfloat("delta_hat", fallback=0.5),
            gradient_bound=sec.getfloat("gradient_bound", fallback=0.0),
            zero_order=sec.getfloat("zero_order", fallback=0.0),
            n_rotations=sec.getint("rotations", fallback=16),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [pucci] section: {exc}") from exc


def _variant_params(parser) -> VariantParams:
    base = VariantParams()
    if "variants" not in parser:
        return base
    sec = parser["variants"]
    try:
        return VariantParams(
            pi_scale=sec.getfloat("pi_scale", fallback=base.pi_scale),
            r_low=sec.getfloat("r_low", fallback=base.r_low),
            r_high=sec.getfloat("r_high", fallback=base.r_high),
            rotation=sec.get("rotation", fallback=base.rotation),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [variants] section: {exc}") from exc


def load_experiment(path) -> ExperimentConfig:
    """Build the full experiment configuration from an INI file."""
    parser = _read(path)
    problem = _problem_from_parser(parser)
    sec = parser["experiment"] if "experiment" in parser else {}
    try:
        if "points" in sec:
            points = tuple(_floats(p) for p in sec["points"].split(";") if p.strip())
        else:
            lo, up = problem.domain.bounding_box()
            mid = (np.asarray(lo) + np.asarray(up)) / 2.0
            points = (tuple(float(v) for v in mid),)
        variants = (
            tuple(v.strip() for v in sec["variants"].split(",") if v.strip())
            if "variants" in sec
            else ("baseline", "time_change", "girsanov", "rotated_noise", "combined")
        )
        K_list = _floats(sec["k_list"]) if "k_list" in sec else (1, 2, 4, 8, 16, 32, 64)
        get = sec.get if hasattr(sec, "get") else (lambda *a, **k: None)
        h = float(get("h", 1 / 128) or 1 / 128)
        seed = int(get("seed", 0) or 0)
        z_threshold = float(get("z_threshold", 3.0) or 3.0)
        budget_h2 = float(get("budget_h2", 4.0) or 4.0)
        budget_sqrt_dt = float(get("budget_sqrt_dt", 0.65) or 0.65)
        return ExperimentConfig(
            problem=problem,
            points=points,
            variants=variants,
            variant_params=_variant_params(parser),
            sim=_sim_config(parser),
            solve=_solve_config(parser),
            h=h,
            pucci=_pucci(parser, problem.d),
            K_list=tuple(K_list),
            seed=seed,
            z_threshold=z_threshold,
            budget_h2=budget_h2,
            budget_sqrt_dt=budget_sqrt_dt,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad [experiment] section: {exc}") from exc
