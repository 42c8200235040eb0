import math
from pathlib import Path

import numpy as np
import pytest

from sdglab.cli import _STAGES, main
from sdglab.config import ConfigError, load_experiment
from sdglab.pde import IsaacsSolver, extend_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = sorted(CONFIGS.glob("*.cfg")) + [CONFIGS.parent / "sdgbench" / "box2d.cfg"]

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


def test_bundled_analytic_matches_preset():
    # the scheme is exact on the closed-form value x(1 - x)/2
    p = load_experiment(CONFIGS / "analytic.cfg").problem
    v = IsaacsSolver(h=1 / 64).fit(p).predict([[0.25], [0.5]])
    assert v == pytest.approx([0.09375, 0.125], abs=1e-9)


def test_bundled_game_matches_preset():
    # drifts +-0.3 +-0.1 by action; the leader's cost slopes -+1.2 and the
    # responder's coupling +-0.35 alternates with the action-pair parity
    p = load_experiment(CONFIGS / "game2x2.cfg").problem
    x = np.linspace(0.1, 0.9, 5)[:, None]
    for ia in range(2):
        for ib in range(2):
            drift = (0.3 if ia == 0 else -0.3) + (0.1 if ib == 0 else -0.1)
            coupling = 0.35 if (ia + ib) % 2 == 0 else -0.35
            cost = 0.45 + coupling + (-1.2 * x[:, 0] if ia == 0 else 1.2 * x[:, 0] - 1.2)
            assert np.allclose(p.b[ia][ib](x)[:, 0], drift)
            assert np.allclose(p.f[ia][ib](x), cost)


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
    # a tolerance that is not finite and positive, and a negative iteration bound
    for line in ("residual_tol = nan", "residual_tol = inf", "residual_tol = 0", "max_policy_iters = -1"):
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_experiment(_write(tmp_path, MINIMAL + f"\n[solve]\n{line}\n"))
    cfg = load_experiment(_write(tmp_path, MINIMAL + "\n[solve]\nmax_policy_iters = 0\n"))
    assert cfg.solve.max_policy_iters == 0


def test_k_list_entries(tmp_path):
    cfg = load_experiment(_write(tmp_path, MINIMAL + "\n[experiment]\nk_list = 1, 2.5, 8\n"))
    assert cfg.K_list == (1.0, 2.5, 8.0)
    # no entry, or an entry that is not finite, below 1, repeated or out of order
    for k_list in (",", "1, nan, 8", "1, inf", "0.5, 2", "1, 2, 2", "4, 2"):
        with pytest.raises(ConfigError, match="k_list must be nonempty, finite, >= 1 and strictly increasing"):
            load_experiment(_write(tmp_path, MINIMAL + f"\n[experiment]\nk_list = {k_list}\n"))


def test_sim_section_keys(tmp_path):
    ok = MINIMAL + "\n[sim]\ndt = 1e-3\nt_max = 2.0\nn_paths = 50\n"
    cfg = load_experiment(_write(tmp_path, ok))
    assert (cfg.sim.dt, cfg.sim.t_max, cfg.sim.n_paths) == (1e-3, 2.0, 50)
    # the seed belongs to [experiment]; a [sim] seed would be overridden by it
    with pytest.raises(ConfigError, match=r"\[experiment\] seed"):
        load_experiment(_write(tmp_path, MINIMAL + "\n[sim]\nseed = 3\n"))
    # feedback policies take their lag per policy (lag_n), not from [sim]
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
    p = load_experiment(_write(tmp_path, text)).problem
    at = lambda ia, ib: p.f[ia][ib](np.array([[0.5]]))[0]
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
        # keys that nothing reads
        lambda t: t.replace("upper = 1.0", "upper = 1.0\nnoise_dimnesion = 1"),
        lambda t: t.replace("upper = 1.0", "upper = 1.0\ncenter = 0.5"),
        lambda t: t.replace("delta = 0.5", "delta = 0.5\nkl = 9"),
        lambda t: t.replace("f = 1.0", "f = 1.0\nf.a7 = 3.0"),
        lambda t: t.replace("f = 1.0", "f = 1.0\nfx = 1"),
        lambda t: t.replace("g = 0.0", "g = 0.0\ng.a0 = 1.0"),
    ],
)
def test_malformed_problem_raises(tmp_path, mutate):
    with pytest.raises(ConfigError):
        load_experiment(_write(tmp_path, mutate(MINIMAL)))


@pytest.mark.parametrize(
    "text, name",
    [
        ("[experiment]\nsead = 3\n", "sead"),
        ("[variants]\nr_hgh = 2\n", "r_hgh"),
        ("[pucci]\ndelta_hta = 0.4\n", "delta_hta"),
        ("[simulation]\ndt = 1e-3\n", "simulation"),
        ("[variants]\nrotation = flop\n", "flop"),
        ("[experiment]\nseed = 7%\n", "7%"),
        ("[experiment]\nvariants = basline, girsanov\n", "basline"),
    ],
    ids=["experiment", "variants", "pucci", "section", "rotation", "percent", "variant_name"],
)
def test_unknown_experiment_name_raises(tmp_path, text, name):
    with pytest.raises(ConfigError, match=name):
        load_experiment(_write(tmp_path, MINIMAL + "\n" + text))


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
def test_bundled_config_loads(path):
    assert load_experiment(path).problem.d >= 1


def test_missing_file_and_bad_points(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment(tmp_path / "nope.cfg")
    text = MINIMAL + "\n[experiment]\npoints = 2.5\n"
    with pytest.raises(ConfigError):
        load_experiment(_write(tmp_path, text))
    # an empty point list, and a point with more coordinates than d
    for points, why in ((";", "at least one evaluation point"), ("0.5, 0.9", "has 2 coordinates, not 1")):
        with pytest.raises(ConfigError, match=why):
            load_experiment(_write(tmp_path, MINIMAL + f"\n[experiment]\npoints = {points}\n"))
    # nor does a solved field read such a point as its first coordinate
    solver = IsaacsSolver(h=1 / 8).fit(load_experiment(_write(tmp_path, MINIMAL)).problem)
    with pytest.raises(ValueError, match="2 coordinates"):
        solver.predict([[0.5, 0.9]])


def test_cli_rejects_a_non_finite_domain(tmp_path, capsys):
    bad = _write(tmp_path, (CONFIGS / "game2x2.cfg").read_text().replace("upper = 1.0", "upper = inf"))
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("game2x2", "r_low = 0.75", "r_low = 0.3"),  # below delta1 = 0.5
        ("game2x2", "pi_scale = 0.3", "pi_scale = 5"),  # above K1 = 1
        ("holder", "[experiment]", "[pucci]\nrotations = 3\n\n[experiment]"),  # 1-D rays take no rotation
        ("game2x2", "f.a0.b0 = affine:0.8,-1.2", "f.a0.b0 = affine:"),  # no c0
        ("game2x2", "sigma = 1.4142135623730951", "sigma = 1.0;0.5"),  # 1 x 2 on 1-D noise
        ("game2x2", "k0 = 2.2", "k0 = nan"),  # every margin against K0 would read +inf or pass
    ],
    ids=["r_low", "pi_scale", "rotations_1d", "affine_without_parameters", "sigma_1x2", "k0_nan"],
)
def test_cli_rejects_values_a_later_stage_would_ignore_or_trip_on(tmp_path, capsys, name, old, new):
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert old in text
    bad = _write(tmp_path, text.replace(old, new))
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_a_coefficient_bound_that_is_not_finite(tmp_path, capsys):
    # h = 0.5 is past h_mono = 0.4545 of k0 = 2.2; a NaN k0 gave no bound to hold the solve to
    bad = _write(tmp_path, (CONFIGS / "game2x2.cfg").read_text().replace("k0 = 2.2", "k0 = nan"))
    assert main(["solve", "--config", str(bad), "--grid-h", "0.5", "--out", str(tmp_path / "o")]) == 2
    assert "K0 must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_takes_the_lipschitz_quotient_along_every_axis(tmp_path):
    # b.a0.b0 slopes by 3 along x2 only, above k0 = 2.2, while its bound holds
    text = (CONFIGS.parent / "sdgbench" / "box2d.cfg").read_text()
    bad = _write(tmp_path, text.replace("b.a0.b0 = 0.4;0.2", "b.a0.b0 = 0.4;affine:-1.5,0,3"))
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    summary = (tmp_path / "o" / "summary.txt").read_text()
    assert "Lipschitz (K0) margin    : -0.8\n" in summary and "result                   : FAIL" in summary


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert main(["warp", "--config", "x"]) == 2
    # each stage takes only the flags it reads
    cfg = str(CONFIGS / "analytic.cfg")
    assert main(["solve", "--config", cfg, "--paths", "5"]) == 2
    assert main(["simulate", "--config", cfg, "--grid-h", "9"]) == 2
    assert main(["simulate", "--config", cfg, "--variant", "basline"]) == 2
    # a '%', a misspelt variant or a seed outside [0, 2**64) in the file is a
    # config error, not a crash or a failed stage
    for new in ("seed = 7%", "variants = basline\nseed = 7", "seed = -1"):
        bad = _write(tmp_path, (CONFIGS / "analytic.cfg").read_text().replace("seed = 7", new))
        for stage in ("validate", "simulate"):
            assert main([stage, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # so are an empty point list and a point of the wrong dimension
    game = (CONFIGS / "game2x2.cfg").read_text()
    for points in (";", "0.5, 0.9"):
        bad = _write(tmp_path, game.replace("points = 0.25; 0.5; 0.75", f"points = {points}"))
        for stage in ("solve", "martingale"):
            assert main([stage, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # and a rotation angle on 1-D noise, which would run as 'flip'
    bad = _write(tmp_path, game.replace("rotation = flip", "rotation = 0.7"))
    capsys.readouterr()
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    # and a lag below 1, a repeated lag, an empty lag list and a seed flag
    # out of range
    for lags in ("0", ",", "-2,4", "4,4"):
        assert main(["increments", "--config", cfg, "--lags", lags, "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    # a penalty constant that is not finite or is negative, by flag, and a k_list
    # entry or a [solve] setting out of range in the file; nothing is written
    holder = (CONFIGS / "holder.cfg").read_text()
    for K in ("nan", "inf", "-1"):
        argv = ["penalize", "--config", str(CONFIGS / "holder.cfg"), "--K", K, "--out", str(tmp_path / "k")]
        assert main(argv) == 2
    for old, new in (("k_list = 1, 2, 4", "k_list = 1, nan, 4"), ("k_list = 1, 2, 4", "k_list = -1, 2, 4"),
                     ("[experiment]", "[solve]\nresidual_tol = nan\n\n[experiment]"),
                     ("[experiment]", "[solve]\nmax_policy_iters = -1\n\n[experiment]")):
        bad = _write(tmp_path, holder.replace(old, new))
        for stage in ("validate", "penalize", "converge"):
            assert main([stage, "--config", str(bad), "--out", str(tmp_path / "k")]) == 2
    assert not (tmp_path / "k").exists()
    # a dt that is not finite, by flag or in the file, and a horizon that is not
    for v in ("nan", "inf"):
        assert main(["simulate", "--config", cfg, "--dt", v, "--out", str(tmp_path / "o")]) == 2
        for old, new in (("dt = 1e-4", f"dt = {v}"), ("t_max = 4.0", f"t_max = {v}")):
            bad = _write(tmp_path, (CONFIGS / "analytic.cfg").read_text().replace(old, new))
            assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # a grid spacing that is not finite and positive, by flag or in the file
    for h in ("0", "-1", "nan", "inf"):
        assert main(["validate", "--config", cfg, "--grid-h", h, "--out", str(tmp_path / "o")]) == 2
        bad = _write(tmp_path, (CONFIGS / "analytic.cfg").read_text().replace("h = 0.0078125", f"h = {h}"))
        assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # an --out that is a file, or lies under one, is named in one line and
    # nothing is written
    afile = tmp_path / "afile"
    afile.write_text("keep")
    capsys.readouterr()
    for out in (afile, afile / "sub"):
        assert main(["validate", "--config", str(CONFIGS / "game2x2.cfg"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: cannot make output directory {out}: "
            f"{'File exists' if out == afile else 'Not a directory'}\n"
        )
    assert afile.read_text() == "keep"
    assert main(["--help"]) == 0


_PATHS_HEADER = "tau,censored,x1,phi,psi,running_payoff,terminal_payoff"

# stage, config, flags, and each CSV the stage writes besides summary.txt,
# with its header line
_STAGE_RUNS = [
    ("validate", "game2x2", [], {}),
    ("solve", "analytic", ["--grid-h", "0.015625"], {"value.csv": "x1,value"}),
    ("penalize", "holder", ["--K", "4", "--grid-h", "0.03125"], {"value_K4.csv": "x1,value"}),
    ("simulate", "analytic", ["--paths", "300", "--dt", "1e-3", "--dump-paths", "--variant", "combined"],
     {f"paths_{i}.csv": _PATHS_HEADER for i in range(3)}),
    ("invariance", "game2x2", ["--paths", "300", "--dt", "2e-3", "--grid-h", "0.03125"],
     {"z_scores.csv": "point_index,variant_a,variant_b,z",
      "estimates.csv": "point_index,x0,variant,estimate,se,n_paths,censored_fraction,pde_value,best_candidate"}),
    ("converge", "holder", ["--paths", "300", "--dt", "2e-3", "--grid-h", "0.03125"],
     {"vk_gaps.csv": "K,sup_error"}),
    ("martingale", "analytic", ["--paths", "2000", "--dt", "5e-4"], {}),
    ("increments", "wide", ["--paths", "300", "--lags", "4,8,16"], {"increments.csv": "n,M,M_se,M_times_n"}),
]


def test_cli_every_stage_writes_its_files(tmp_path, capsys):
    assert sorted(run[0] for run in _STAGE_RUNS) == sorted(_STAGES)
    for stage, name, flags, csvs in _STAGE_RUNS:
        out = tmp_path / stage
        argv = [stage, "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out), *flags]
        assert main(argv) == 0, stage
        assert sorted(p.name for p in out.iterdir()) == sorted(["summary.txt", *csvs]), stage
        # the summary is printed as written
        assert capsys.readouterr().out == (out / "summary.txt").read_text(), stage
        for file, header in csvs.items():
            assert (out / file).read_text().splitlines()[0] == header, (stage, file)
    # every check behind converge's exit code has its own line
    assert "sup gaps non-increasing in K: yes" in (tmp_path / "converge" / "summary.txt").read_text()


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


def test_cli_penalize_matches_extended_solve(tmp_path):
    cfg = CONFIGS / "holder.cfg"
    out = tmp_path / "pen"
    argv = ["penalize", "--config", str(cfg), "--K", "4", "--grid-h", "0.03125", "--out", str(out)]
    assert main(argv) == 0
    exp = load_experiment(cfg)
    solver = IsaacsSolver(h=0.03125, cfg=exp.solve).fit(extend_problem(exp.problem, exp.pucci, 4.0))
    solver.value_.to_csv(tmp_path / "want.csv")
    assert (out / "value_K4.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[:2] == ["K: 4", f"residual: {solver.residual_:.6e}"]
    values = [l.split(" = ")[1] for l in lines if l.startswith("value(")]
    assert values == [f"{float(solver.predict(np.asarray(pt)[None, :])[0]):.10f}" for pt in exp.points]


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
