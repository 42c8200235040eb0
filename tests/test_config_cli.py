import math
from pathlib import Path

import numpy as np
import pytest

from sdglab.cli import main
from sdglab.config import ConfigError, load_experiment, load_problem
from sdglab.pde import IsaacsSolver

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
[domain]
shape = box
dimension = 1
lower = 0.0
upper = 1.0

[actions]
alpha = a0
beta = b0

[coefficients]
sigma = 1.4142135623730951
b = 0.0
c = 0.0
f = 1.0
g = 0.0

[constants]
k0 = 1.4142135623730951
delta = 0.5
"""


def _write(tmp_path, text, name="p.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_bundled_analytic_matches_preset(analytic_problem):
    p = load_problem(CONFIGS / "analytic.cfg")
    v_cfg = IsaacsSolver(h=1 / 64).fit(p).predict([[0.5]])[0]
    v_preset = IsaacsSolver(h=1 / 64).fit(analytic_problem).predict([[0.5]])[0]
    assert v_cfg == pytest.approx(v_preset, abs=1e-12)


def test_bundled_game_matches_preset(game_problem):
    p = load_problem(CONFIGS / "game2x2.cfg")
    x = np.linspace(0.1, 0.9, 5)[:, None]
    for ia in range(2):
        for ib in range(2):
            assert np.allclose(p.f[ia][ib](x), game_problem.f[ia][ib](x))
            assert np.allclose(p.b[ia][ib](x), game_problem.b[ia][ib](x))


def test_experiment_fields_from_file():
    cfg = load_experiment(CONFIGS / "game2x2.cfg")
    assert cfg.points == ((0.25,), (0.5,), (0.75,))
    assert cfg.seed == 7
    assert cfg.h == pytest.approx(1 / 128)
    assert cfg.sim.dt == pytest.approx(5e-5)
    assert cfg.sim.n_paths == 10000
    assert cfg.variants[0] == "baseline" and len(cfg.variants) == 5
    assert cfg.K_list == (1, 2, 4, 8, 16, 32, 64)
    assert cfg.variant_params.r_high == pytest.approx(1.4)


def test_experiment_defaults(tmp_path):
    cfg = load_experiment(_write(tmp_path, MINIMAL))
    # default evaluation point is the domain midpoint
    assert cfg.points == ((0.5,),)
    assert cfg.seed == 0
    assert cfg.z_threshold == 3.0


def test_solve_section_keys(tmp_path):
    ok = MINIMAL + "\n[solve]\nresidual_tol = 1e-9\nmax_policy_iters = 12\n"
    cfg = load_experiment(_write(tmp_path, ok))
    assert (cfg.solve.residual_tol, cfg.solve.max_policy_iters) == (1e-9, 12)
    # the exact frozen-policy solve has no relaxation knobs; unknown keys are errors
    for key in ("inner_tol", "relaxation", "max_inner_sweeps", "residual_tolerance"):
        bad = MINIMAL + f"\n[solve]\nresidual_tol = 1e-9\n{key} = 1.5\n"
        with pytest.raises(ConfigError, match=key):
            load_experiment(_write(tmp_path, bad))


def test_sim_section_keys(tmp_path):
    ok = MINIMAL + "\n[sim]\ndt = 1e-3\nt_max = 2.0\nn_paths = 50\n"
    cfg = load_experiment(_write(tmp_path, ok))
    assert (cfg.sim.dt, cfg.sim.t_max, cfg.sim.n_paths) == (1e-3, 2.0, 50)
    # the seed belongs to [experiment]; a [sim] seed would be overridden by it
    with pytest.raises(ConfigError, match=r"\[experiment\] seed"):
        load_experiment(_write(tmp_path, MINIMAL + "\n[sim]\nseed = 3\n"))
    # feedback policies take their lag per policy (make_feedback_policy), not from [sim]
    for key in ("lag_n", "n_path", "lag", "delta_t"):
        with pytest.raises(ConfigError, match=key):
            load_experiment(_write(tmp_path, MINIMAL + f"\n[sim]\ndt = 1e-3\n{key} = 2\n"))


def test_coefficient_override_precedence(tmp_path):
    text = MINIMAL.replace("alpha = a0", "alpha = a0, a1").replace(
        "beta = b0", "beta = b0, b1"
    )
    text = text.replace(
        "f = 1.0",
        "f = 1.0\nf.b1 = 2.0\nf.a1 = 3.0\nf.a1.b1 = 4.0",
    )
    p = load_problem(_write(tmp_path, text))
    at = lambda ia, ib: p.f[ia][ib].at([0.5])
    assert at(0, 0) == 1.0  # generic key
    assert at(0, 1) == 2.0  # responder override
    assert at(1, 0) == 3.0  # leader override beats responder default
    assert at(1, 1) == 4.0  # exact pair wins


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("[actions]\nalpha = a0\nbeta = b0\n\n", ""),
        lambda t: t.replace("f = 1.0\n", ""),
        lambda t: t.replace("g = 0.0\n", ""),
        lambda t: t.replace("delta = 0.5", "delta = "),
        lambda t: t.replace("shape = box", "shape = torus"),
        lambda t: t.replace("sigma = 1.4142135623730951", "sigma = spam"),
        lambda t: t.replace("alpha = a0", "alpha ="),
    ],
)
def test_malformed_problem_raises(tmp_path, mutate):
    with pytest.raises(ConfigError):
        load_problem(_write(tmp_path, mutate(MINIMAL)))


def test_missing_file_and_bad_points(tmp_path):
    with pytest.raises(ConfigError):
        load_problem(tmp_path / "nope.cfg")
    text = MINIMAL + "\n[experiment]\npoints = 2.5\n"
    with pytest.raises(ConfigError):
        load_experiment(_write(tmp_path, text))


def test_cli_usage_errors(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert main(["warp", "--config", "x"]) == 2
    assert main(["--help"]) == 0


def test_cli_validate_and_solve(tmp_path):
    cfg = str(CONFIGS / "analytic.cfg")
    out = tmp_path / "v"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert "PASS" in (out / "summary.txt").read_text()
    out2 = tmp_path / "s"
    assert main(["solve", "--config", cfg, "--out", str(out2), "--grid-h", "0.015625"]) == 0
    text = (out2 / "summary.txt").read_text()
    assert "value(0.5)" in text
    assert (out2 / "value.csv").exists()
    # h = 1/64 solve of the closed-form problem lands on 0.125 at the center
    line = [l for l in text.splitlines() if l.startswith("value(0.5)")][0]
    assert float(line.split("=")[1]) == pytest.approx(0.125, abs=1e-6)


def test_cli_simulate_deterministic_bytes(tmp_path):
    cfg = str(CONFIGS / "analytic.cfg")
    args = ["simulate", "--config", cfg, "--paths", "300", "--dt", "1e-3", "--dump-paths"]
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    for name in ("summary.txt", "paths_0.csv", "paths_1.csv", "paths_2.csv"):
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = str(CONFIGS / "analytic.cfg")
    args = ["simulate", "--config", cfg, "--paths", "300", "--dt", "1e-3"]
    o1, o2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(o1), "--seed", "1"]) == 0
    assert main(args + ["--out", str(o2), "--seed", "2"]) == 0
    assert (o1 / "summary.txt").read_bytes() != (o2 / "summary.txt").read_bytes()


def test_cli_martingale_and_increments(tmp_path):
    cfg = str(CONFIGS / "analytic.cfg")
    out = tmp_path / "m"
    code = main(
        ["martingale", "--config", cfg, "--paths", "2000", "--dt", "5e-4", "--out", str(out)]
    )
    assert code == 0
    assert "result: PASS" in (out / "summary.txt").read_text()
    out2 = tmp_path / "i"
    code = main(
        [
            "increments",
            "--config", cfg,
            "--paths", "500",
            "--dt", "2e-3",
            "--lags", "4,8,16",
            "--out", str(out2),
        ]
    )
    assert code == 0
    assert (out2 / "increments.csv").read_text().splitlines()[0] == "n,M,M_se,M_times_n"
    assert main(["increments", "--config", cfg, "--lags", "a,b", "--out", str(tmp_path / "x")]) == 2
