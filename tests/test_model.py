import dataclasses
import math

import numpy as np
import pytest

from sdglab.coefficients import const_matrix, const_scalar, const_vector
from sdglab.grids import DomainGrid
from sdglab.model import ActionSets, DomainSpec, GameProblem, validate_problem

SQRT2 = math.sqrt(2.0)


def test_action_sets_reject_empty_and_collisions():
    with pytest.raises(ValueError):
        ActionSets((), ("b0",))
    with pytest.raises(ValueError):
        ActionSets(("a0",), ("b0",), ("a0",))
    acts = ActionSets(("a0", "a1"), ("b0",), ("p0",))
    assert (acts.n_alpha, acts.n_beta, acts.n_alpha2) == (2, 1, 1)


def test_box_membership_and_distance():
    dom = DomainSpec("box", 2, (0.0, 0.0), (1.0, 2.0))
    pts = np.array([[0.5, 1.0], [0.0, 1.0], [-0.1, 1.0], [0.5, 2.5]])
    assert list(dom.contains(pts)) == [True, False, False, False]
    d = dom.boundary_distance(pts)
    assert d[0] == pytest.approx(0.5)
    assert d[1] == pytest.approx(0.0)
    assert d[2] == pytest.approx(-0.1)


def test_ball_membership_and_distance():
    dom = DomainSpec("ball", 2, center=(1.0, 1.0), radius=0.5)
    assert dom.contains(np.array([[1.0, 1.2]]))[0]
    assert not dom.contains(np.array([[1.0, 1.5]]))[0]
    assert dom.boundary_distance(np.array([[1.0, 1.0]]))[0] == pytest.approx(0.5)
    lo, up = dom.bounding_box()
    assert np.allclose(lo, [0.5, 0.5]) and np.allclose(up, [1.5, 1.5])


def test_domain_rejects_bad_specs():
    with pytest.raises(ValueError):
        DomainSpec("box", 1, (1.0,), (0.0,))
    with pytest.raises(ValueError):
        DomainSpec("ball", 2, center=(0.0,), radius=1.0)
    with pytest.raises(ValueError):
        DomainSpec("pentagon", 2)
    # a field of the other shape would be stored unread, whatever its value
    with pytest.raises(ValueError, match="center does not apply to shape 'box'"):
        DomainSpec("box", 1, (0.0,), (1.0,), center=(0.5,))
    with pytest.raises(ValueError, match="radius does not apply to shape 'box'"):
        DomainSpec("box", 1, (0.0,), (1.0,), radius=0.0)
    with pytest.raises(ValueError, match="upper does not apply to shape 'ball'"):
        DomainSpec("ball", 1, upper=(1.0,), center=(0.5,), radius=0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(shape="box", dimension=1, lower=(0.0,), upper=(math.inf,)),
        dict(shape="box", dimension=1, lower=(-math.inf,), upper=(1.0,)),
        dict(shape="box", dimension=2, lower=(0.0, math.nan), upper=(1.0, 1.0)),
        dict(shape="ball", dimension=1, center=(0.5,), radius=math.inf),
        dict(shape="ball", dimension=1, center=(0.5,), radius=math.nan),
        dict(shape="ball", dimension=2, center=(math.inf, 0.0), radius=1.0),
        dict(shape="ball", dimension=2, center=(0.0, math.nan), radius=1.0),
    ],
    ids=["upper_inf", "lower_inf", "lower_nan", "radius_inf", "radius_nan", "center_inf", "center_nan"],
)
def test_domain_rejects_non_finite_bounds(kwargs):
    with pytest.raises(ValueError, match="finite"):
        DomainSpec(**kwargs)


def _singleton(sigma=SQRT2, bdrift=0.0, c=0.0, f=1.0, delta=0.5, d1=1):
    return GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("box", 1, (0.0,), (1.0,)),
        sigma=((const_matrix([[sigma] + [0.0] * (d1 - 1)]),),),
        b=((const_vector([bdrift]),),),
        c=((const_scalar(c),),),
        f=((const_scalar(f),),),
        g=const_scalar(0.0),
        K0=2.0,
        delta=delta,
        d1=d1,
    )


def test_problem_shape_checks():
    with pytest.raises(ValueError):
        _singleton(delta=0.0)
    with pytest.raises(ValueError):
        GameProblem(
            actions=ActionSets(("a0", "a1"), ("b0",)),
            domain=DomainSpec("box", 1, (0.0,), (1.0,)),
            sigma=((const_matrix([[1.0]]),),),  # one row, two alphas declared
            b=((const_vector([0.0]),),),
            c=((const_scalar(0.0),),),
            f=((const_scalar(0.0),),),
            g=const_scalar(0.0),
            K0=1.0,
            delta=0.5,
        )


def test_noise_dimension_at_least_state_dimension():
    with pytest.raises(ValueError):
        GameProblem(
            actions=ActionSets(("a0",), ("b0",)),
            domain=DomainSpec("box", 2, (0.0, 0.0), (1.0, 1.0)),
            sigma=((const_matrix([[1.0], [0.0]]),),),
            b=((const_vector([0.0, 0.0]),),),
            c=((const_scalar(0.0),),),
            f=((const_scalar(0.0),),),
            g=const_scalar(0.0),
            K0=1.0,
            delta=0.5,
            d1=1,
        )


def test_state_dimension_is_the_domains():
    p = GameProblem(
        actions=ActionSets(("a0",), ("b0",)),
        domain=DomainSpec("box", 2, (0.0, 0.0), (1.0, 1.0)),
        sigma=((const_matrix([[1.0, 0.0], [0.0, 1.0]]),),),
        b=((const_vector([0.0, 0.0]),),),
        c=((const_scalar(0.0),),),
        f=((const_scalar(0.0),),),
        g=const_scalar(0.0),
        K0=1.0,
        delta=0.5,
    )
    assert (p.d, p.d1) == (2, 2)


@pytest.mark.parametrize(
    "name, value",
    [("K0", math.nan), ("K0", -1.0), ("K0", 0.0), ("K0", math.inf), ("K1", math.nan), ("K1", -1.0)],
    ids=["K0_nan", "K0_negative", "K0_zero", "K0_inf", "K1_nan", "K1_negative"],
)
def test_problem_rejects_bounds_out_of_range(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dataclasses.replace(_singleton(), **{name: value})


@pytest.mark.parametrize(
    "overrides, expected",
    [
        (dict(sigma=((const_matrix([[1.0, 0.5]]),),)), r"sigma.a0.b0 has shape \(1, 2\), not \(1, 1\)"),
        (dict(b=((const_vector([0.0, 0.0]),),)), r"b.a0.b0 has shape \(2,\), not \(1,\)"),
        (dict(c=((const_vector([0.0]),),)), r"c.a0.b0 has shape \(1,\), not \(\)"),
        (dict(f=((lambda x: x[:, 0],),)), r"f.a0.b0 has shape None, not \(\)"),
        (dict(g=const_vector([0.0])), r"g has shape \(1,\), not \(\)"),
    ],
    ids=["sigma_1x2", "b_of_length_2", "c_a_vector", "f_no_field", "g_a_vector"],
)
def test_problem_checks_coefficient_shapes(overrides, expected):
    # a 1 x 2 sigma on 1-D noise would be read as 2-D noise by the solver
    with pytest.raises(ValueError, match=expected):
        dataclasses.replace(_singleton(), **overrides)


def test_validate_problem_fails_on_a_nan_coefficient():
    p = _singleton(f=math.nan)
    rep = validate_problem(p, DomainGrid.build(p.domain, 1 / 8))
    assert math.isnan(rep.bound_margin) and not rep.passed


def test_validate_problem_names_every_failed_margin():
    # sigma = 2.5: a = 3.125 is above 1/delta = 2, and |sigma| above K0 = 2
    p = _singleton(sigma=2.5)
    rep = validate_problem(p, DomainGrid.build(p.domain, 1 / 8))
    assert rep.ellipticity_upper_margin == pytest.approx(-1.125) and not rep.passed
    assert rep.messages == ["ellipticity violated: max eigenvalue of a above 1/delta", "coefficient bound K0 exceeded"]
    # a NaN margin fails too, and says which assumption it could not check
    p = _singleton(sigma=math.nan)
    rep = validate_problem(p, DomainGrid.build(p.domain, 1 / 8))
    names = ("ellipticity lower bound", "ellipticity upper bound", "coefficient bound K0", "Lipschitz bound K0")
    assert rep.messages == [f"{name}: margin is not a number" for name in names]
    assert rep.summary().endswith("result                   : FAIL\n" + "\n".join(rep.messages))


def test_validate_problem_passes_on_good_problem():
    p = _singleton()
    grid = DomainGrid.build(p.domain, 1 / 32)
    rep = validate_problem(p, grid)
    assert rep.passed
    assert rep.discount_margin >= 0
    assert "PASS" in rep.summary()


def test_validate_problem_flags_ellipticity_violation():
    p = _singleton(sigma=0.5, delta=0.5)  # a = 0.125 < delta
    grid = DomainGrid.build(p.domain, 1 / 32)
    rep = validate_problem(p, grid)
    assert not rep.passed
    assert rep.ellipticity_lower_margin < 0


def test_validate_problem_flags_negative_discount():
    p = _singleton(c=-0.1)
    grid = DomainGrid.build(p.domain, 1 / 32)
    rep = validate_problem(p, grid)
    assert not rep.passed
    assert rep.discount_margin < 0
