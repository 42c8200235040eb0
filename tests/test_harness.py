import math
from dataclasses import replace

import numpy as np
import pytest

from sdglab.harness import (
    ExperimentConfig,
    ValueEstimate,
    VariantParams,
    build_variant_spec,
    estimate_value,
    run_invariance_suite,
)
from sdglab.policies import ConstantPolicy, ConstantResponder
from sdglab.simulate import ControlAdaptedSpec, SimConfig, simulate_to_exit


def test_variant_tables(game_problem):
    params = VariantParams(pi_scale=0.2, r_low=0.8, r_high=1.25)
    base = build_variant_spec(game_problem, "baseline", params)
    ref = ControlAdaptedSpec.baseline(game_problem)
    tables = ("r_table", "pi_table", "noise_table")
    assert all(np.array_equal(getattr(base, name), getattr(ref, name)) for name in tables)
    tc = build_variant_spec(game_problem, "time_change", params)
    # rates alternate with action-pair parity
    assert tc.r_table[0, 0] == 0.8 and tc.r_table[0, 1] == 1.25
    assert tc.r_table[1, 0] == 1.25 and tc.r_table[1, 1] == 0.8
    gv = build_variant_spec(game_problem, "girsanov", params)
    assert gv.pi_table[0, 0, 0] == 0.2 and gv.pi_table[0, 1, 0] == -0.2
    rn = build_variant_spec(game_problem, "rotated_noise", params)
    assert rn.noise_table[0, 0, 0, 0] == 1.0 and rn.noise_table[0, 1, 0, 0] == -1.0
    cb = build_variant_spec(game_problem, "combined", params)
    assert not all(np.array_equal(getattr(cb, name), getattr(ref, name)) for name in tables)
    with pytest.raises(ValueError):
        build_variant_spec(game_problem, "antipodal", params)


def test_unknown_variant_name_raises(game_problem):
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        build_variant_spec(game_problem, "bogus")


def test_variant_noise_orthogonal_2d():
    from sdglab.coefficients import const_matrix, const_scalar, const_vector
    from sdglab.model import ActionSets, DomainSpec, GameProblem

    p = GameProblem(
        actions=ActionSets(("a0",), ("b0", "b1")),
        domain=DomainSpec("box", 2, (0.0, 0.0), (1.0, 1.0)),
        sigma=((const_matrix([[1.0, 0.0], [0.0, 1.0]]),) * 2,),
        b=((const_vector([0.0, 0.0]),) * 2,),
        c=((const_scalar(0.1),) * 2,),
        f=((const_scalar(1.0),) * 2,),
        g=const_scalar(0.0),
        K0=2.0,
        delta=0.25,
        d1=2,
    )
    spec = build_variant_spec(p, "rotated_noise", VariantParams(rotation=str(0.7)))
    q = spec.noise_table
    eye = np.eye(2)
    assert np.allclose(np.einsum("abij,abkj->abik", q, q), eye[None, None])
    assert np.allclose(q[0, 0], eye)
    assert not np.allclose(q[0, 1], eye)
    # the rotation is checked when the params are built, not when a d1 >= 2 spec needs it
    with pytest.raises(ValueError, match="flop"):
        VariantParams(rotation="flop")


def test_rotation_angle_on_1d_noise_rejected(game_problem):
    # 1-D noise has one rotation, the sign flip; an angle would run as 'flip'
    params = VariantParams(rotation="0.7")
    for name in ("rotated_noise", "combined"):
        with pytest.raises(ValueError, match="rotation angle 0.7"):
            build_variant_spec(game_problem, name, params)
    with pytest.raises(ValueError, match="rotation angle 0.7"):
        ExperimentConfig(problem=game_problem, points=((0.5,),), variant_params=params)


def test_experiment_seed_reaches_the_sim_config(analytic_problem):
    cfg = ExperimentConfig(problem=analytic_problem, points=((0.5,),), sim=SimConfig(dt=4e-4, seed=3), seed=9)
    assert cfg.sim == SimConfig(dt=4e-4, seed=9)
    assert replace(cfg, seed=5).sim.seed == 5
    with pytest.raises(ValueError):
        ExperimentConfig(problem=analytic_problem, points=((0.5,),), seed=-1)


def test_estimate_value_singleton_equals_plain_mean(analytic_problem):
    spec = ControlAdaptedSpec.baseline(analytic_problem)
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=400, seed=4)
    est = estimate_value(analytic_problem, spec, [0.5], ConstantResponder(0), (ConstantPolicy(0),), cfg)
    batch = simulate_to_exit(
        analytic_problem, spec, [0.5], ConstantPolicy(0), ConstantResponder(0), cfg
    )
    assert est.estimate == pytest.approx(float(batch.payoff.mean()), abs=1e-15)
    assert est.best_candidate == "const0"
    assert list(est.candidate_means) == ["const0"]
    with pytest.raises(ValueError, match="nonempty"):
        estimate_value(analytic_problem, spec, [0.5], ConstantResponder(0), (), cfg)


def test_estimate_value_takes_the_max_candidate(game_problem):
    # duplicated policy under a shared seed gives identical means, so the
    # reported best is the first by iteration order and the max is exact
    spec = ControlAdaptedSpec.baseline(game_problem)
    cfg = SimConfig(dt=1e-3, t_max=2.0, n_paths=300, seed=8)
    cands = (ConstantPolicy(0, name="a"), ConstantPolicy(1, name="b"), ConstantPolicy(0, name="a2"))
    est = estimate_value(game_problem, spec, [0.5], ConstantResponder(0), cands, cfg)
    assert est.candidate_means["a"] == est.candidate_means["a2"]
    assert est.estimate == max(est.candidate_means.values())


def test_value_estimate_validation():
    with pytest.raises(ValueError):
        ValueEstimate(0.1, -1.0, 10, 0.0, "c")
    with pytest.raises(ValueError):
        ValueEstimate(0.1, 0.01, 10, 1.5, "c")


def test_experiment_config_checks_points(analytic_problem):
    with pytest.raises(ValueError):
        ExperimentConfig(problem=analytic_problem, points=((1.5,),))
    cfg = ExperimentConfig(
        problem=analytic_problem,
        points=((0.5,),),
        sim=SimConfig(dt=4e-4),
        h=1 / 64,
        budget_h2=4.0,
        budget_sqrt_dt=0.65,
    )
    assert cfg.budget == pytest.approx(4.0 / 64**2 + 0.65 * math.sqrt(4e-4))


def test_invariance_requires_baseline(analytic_problem):
    cfg = ExperimentConfig(
        problem=analytic_problem,
        points=((0.5,),),
        variants=("time_change", "girsanov"),
    )
    with pytest.raises(ValueError, match="baseline"):
        run_invariance_suite(cfg)


def test_invariance_smoke_two_variants(analytic_problem):
    # small-budget end-to-end pass: identical physics across variants, so
    # the duplicate baseline has z exactly 0 and reports render
    cfg = ExperimentConfig(
        problem=analytic_problem,
        points=((0.5,),),
        variants=("baseline", "time_change"),
        sim=SimConfig(dt=1e-3, t_max=2.0, n_paths=500),
        h=1 / 64,
        seed=12,
    )
    rep = run_invariance_suite(cfg)
    assert rep.z_scores.shape == (1, 2, 2)
    assert np.allclose(rep.z_scores, -rep.z_scores.transpose(0, 2, 1))
    assert rep.max_abs_z() < 10.0
    text = rep.summary()
    assert "max |z|" in text and "overall" in text


def test_invariance_duplicate_baseline_z_zero(analytic_problem, tmp_path):
    cfg = ExperimentConfig(
        problem=analytic_problem,
        points=((0.5,),),
        variants=("baseline",),
        sim=SimConfig(dt=1e-3, t_max=2.0, n_paths=300),
        h=1 / 64,
        seed=1,
    )
    rep = run_invariance_suite(cfg)
    assert rep.max_abs_z() == 0.0
    assert rep.z_pass
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep.to_csv(p1)
    rep.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    rep.z_to_csv(tmp_path / "z.csv")
    assert (tmp_path / "z.csv").read_text().splitlines()[0] == "point_index,variant_a,variant_b,z"
