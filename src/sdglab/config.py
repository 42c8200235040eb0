"""INI problem and experiment configuration.

A problem file has sections [domain], [actions], [coefficients] and
[constants]; experiment-level sections [pucci], [solve], [sim],
[experiment] and [variants] are optional and fall back to defaults.
Any other section, and any key that ``_KEYS`` does not list, is an error.

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
from functools import partial

import numpy as np

from .coefficients import parse_matrix, parse_scalar, parse_vector
from .harness import ExperimentConfig, VariantParams
from .model import ActionSets, DomainSpec, GameProblem
from .pde import PucciParams, SolveConfig
from .simulate import SimConfig

__all__ = ["ConfigError", "load_experiment"]


class ConfigError(ValueError):
    """Malformed or incomplete configuration file."""


def _floats(text: str, sep: str = ",") -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(sep) if v.strip())


def _names(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise ValueError("empty list")
    return names


def _points(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(p) for p in text.split(";") if p.strip())


# Section -> key -> value parser, or (value parser, keyword) where the
# keyword the value is passed as differs from the key.  The comment names
# what each section builds; a key the file leaves out takes that
# constructor's default.  [coefficients] keys depend on the action labels
# and are checked by _coefficients.
_KEYS = {
    "domain": {  # DomainSpec; noise_dimension is GameProblem's d1
        "shape": str.lower,
        "dimension": int,
        "lower": _floats,
        "upper": _floats,
        "center": _floats,
        "radius": float,
        "noise_dimension": (int, "d1"),
    },
    "actions": {"alpha": (_names, "a_labels"), "beta": (_names, "b_labels")},  # ActionSets
    "coefficients": {},
    "constants": {  # GameProblem
        "k0": (float, "K0"),
        "delta": float,
        "delta1": float,
        "k1": (float, "K1"),
    },
    "pucci": {  # PucciParams.build
        "delta_hat": float,
        "rotations": (int, "n_rotations"),
    },
    "solve": {"max_policy_iters": int, "residual_tol": float},  # SolveConfig
    "sim": {"dt": float, "t_max": float, "n_paths": int},  # SimConfig
    "variants": {  # VariantParams
        "pi_scale": float,
        "r_low": float,
        "r_high": float,
        "rotation": str,
    },
    "experiment": {  # ExperimentConfig
        "points": _points,
        "variants": _names,
        "k_list": (_floats, "K_list"),
        "h": float,
        "seed": int,
        "z_threshold": float,
        "budget_h2": float,
        "budget_sqrt_dt": float,
    },
}


def _read(path) -> configparser.ConfigParser:
    # no interpolation: a '%' in a value is read as text, not as a reference
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(
                f"unknown section [{name}]; accepted sections are {', '.join(_KEYS)}"
            )
        for key in parser[name]:
            if name != "coefficients" and key not in _KEYS[name]:
                owners = [f"[{s}] {key}" for s, keys in _KEYS.items() if key in keys]
                hint = f" (did you mean {owners[0]}?)" if owners else ""
                raise ConfigError(
                    f"unknown key {key!r} in [{name}]; accepted keys are "
                    f"{', '.join(_KEYS[name])}{hint}"
                )
    return parser


def _section(parser, name: str) -> dict:
    """The keyword arguments that the keys given in section ``name`` set."""
    kwargs = {}
    for key, text in parser[name].items() if name in parser else ():
        entry = _KEYS[name][key]
        parse, keyword = entry if isinstance(entry, tuple) else (entry, key)
        try:
            kwargs[keyword] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{name}] {key}: {exc}") from exc
    return kwargs


def _build(name: str, make, kwargs: dict):
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [{name}] section: {exc}") from exc


def _candidates(key: str, al: str, bl: str) -> tuple[str, ...]:
    """The keys that may set ``key`` for the pair (al, bl), most specific first."""
    return (f"{key}.{al}.{bl}", f"{key}.{al}", f"{key}.{bl}", key)


def _parse(sec, key: str, parse):
    try:
        return parse(sec[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _coefficients(sec, actions: ActionSets) -> dict:
    """The sigma, b, c, f tables and g, each pair taking its most specific key."""
    names = {"sigma": parse_matrix, "b": parse_vector, "c": parse_scalar, "f": parse_scalar}
    pairs = [(al, bl) for al in actions.a_labels for bl in actions.b_labels]
    accepted = {"g"} | {k for name in names for al, bl in pairs for k in _candidates(name, al, bl)}
    for key in sec:
        if key not in accepted:
            raise ConfigError(
                f"unknown key {key!r} in [coefficients]; keys are g and sigma, b, c, f with an "
                f"optional .<alpha>, .<beta> or .<alpha>.<beta> suffix, for alpha in "
                f"{', '.join(actions.a_labels)} and beta in {', '.join(actions.b_labels)}"
            )
    out = {}
    for name, parse in names.items():
        table = []
        for al in actions.a_labels:
            row = []
            for bl in actions.b_labels:
                key = next((k for k in _candidates(name, al, bl) if k in sec), None)
                if key is None:
                    raise ConfigError(f"no value covers {name} for pair ({al}, {bl})")
                row.append(_parse(sec, key, parse))
            table.append(tuple(row))
        out[name] = tuple(table)
    if "g" not in sec:
        raise ConfigError("missing coefficient 'g'")
    out["g"] = _parse(sec, "g", parse_scalar)
    return out


def _problem_from_parser(parser) -> GameProblem:
    for section in ("domain", "actions", "coefficients", "constants"):
        if section not in parser:
            raise ConfigError(f"missing [{section}] section")
    dom = _section(parser, "domain")
    dom.setdefault("shape", "box")
    d1 = dom.pop("d1", None)
    domain = _build("domain", DomainSpec, dom)
    actions = _build("actions", ActionSets, _section(parser, "actions"))
    coefficients = _coefficients(parser["coefficients"], actions)
    constants = _section(parser, "constants")
    try:
        return GameProblem(actions=actions, domain=domain, d1=d1, **coefficients, **constants)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem definition: {exc}") from exc


def load_experiment(path) -> ExperimentConfig:
    """Build the full experiment configuration from an INI file."""
    parser = _read(path)
    problem = _problem_from_parser(parser)
    kwargs = _section(parser, "experiment")
    if "points" not in kwargs:
        lo, up = problem.domain.bounding_box()
        mid = (np.asarray(lo) + np.asarray(up)) / 2.0
        kwargs["points"] = (tuple(float(v) for v in mid),)
    return _build("experiment", ExperimentConfig, dict(
        problem=problem,
        variant_params=_build("variants", VariantParams, _section(parser, "variants")),
        sim=_build("sim", SimConfig, _section(parser, "sim")),
        solve=_build("solve", SolveConfig, _section(parser, "solve")),
        pucci=_build("pucci", partial(PucciParams.build, problem.d), _section(parser, "pucci")),
        **kwargs,
    ))
