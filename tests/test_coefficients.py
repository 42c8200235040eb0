import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdglab.coefficients import (
    MatrixField,
    ScalarField,
    SumField,
    const_matrix,
    const_scalar,
    const_vector,
    parse_matrix,
    parse_scalar,
    parse_vector,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _at(field, x):
    """A coefficient field at the single point ``x``."""
    return field(np.atleast_2d(np.asarray(x, dtype=float)))[0]


def test_const_family():
    f = parse_scalar("const:2.5")
    x = np.array([[0.0], [1.0], [-3.0]])
    assert np.allclose(f(x), 2.5)
    assert f.is_constant and f.params == (2.5,)


def test_bare_number_is_const():
    assert _at(parse_scalar("  -1.5 "), [0.0]) == -1.5


def test_affine_family():
    f = parse_scalar("affine:1.0,2.0,-1.0")
    x = np.array([[0.5, 1.0], [0.0, 0.0]])
    assert np.allclose(f(x), [1.0 + 1.0 - 1.0, 1.0])
    assert not f.is_constant


def test_sin_family():
    f = parse_scalar("sin:2.0,0.5,3.0")
    x = np.array([[0.7]])
    assert np.allclose(f(x), 2.0 * (1.0 + 0.5 * np.sin(3.0 * 0.7)))


def test_holder_family_default_center():
    f = parse_scalar("holder:1.0,2.0,0.5")
    assert np.isclose(_at(f, [0.75]), 1.0 + 2.0 * 0.25**0.5)
    assert np.isclose(_at(f, [0.5]), 1.0)


def test_sum_syntax():
    f = parse_scalar("affine:1.0,1.0 + holder:0,2,0.5,0.0")
    assert isinstance(f, SumField)
    assert np.isclose(_at(f, [0.25]), 1.25 + 2 * 0.5)


def test_sum_constant_value():
    f = SumField((const_scalar(1.0), const_scalar(2.0)))
    assert f.is_constant and _at(f, [0.0]) == 3.0


@pytest.mark.parametrize(
    "bad",
    ["exp:1.0", "const:1,2", "sin:1.0", "holder:1", "notanumber"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_vector_and_matrix_parsing():
    v = parse_vector("1.0; affine:0.0,1.0")
    assert len(v.entries) == 2
    assert np.allclose(v(np.array([[0.5, 9.9]])), [[1.0, 0.5]])
    m = parse_matrix("1.0;0.0|0.0;2.0")
    assert (len(m.entries), len(m.entries[0])) == (2, 2)
    assert np.allclose(_at(m, [0.0, 0.0]), [[1.0, 0.0], [0.0, 2.0]])


def test_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        parse_matrix("1.0;2.0|3.0")


def test_const_builders():
    assert _at(const_scalar(3), [1.0]) == 3.0
    assert np.allclose(_at(const_vector([1, 2]), [0.0, 0.0]), [1.0, 2.0])
    assert np.allclose(_at(const_matrix([[1, 2]]), [0.0]), [[1.0, 2.0]])


@given(c0=finite, c1=finite, x=st.floats(-100, 100), y=st.floats(-100, 100))
def test_affine_is_affine(c0, c1, x, y):
    f = ScalarField("affine", (c0, c1))
    mid = _at(f, [(x + y) / 2.0])
    avg = 0.5 * (_at(f, [x]) + _at(f, [y]))
    assert mid == pytest.approx(avg, rel=1e-9, abs=1e-6)


@given(vals=st.lists(finite, min_size=1, max_size=4))
def test_sum_matches_manual_addition(vals):
    f = SumField(tuple(const_scalar(v) for v in vals))
    assert _at(f, [0.0]) == pytest.approx(sum(vals), rel=1e-12, abs=1e-9)


def test_single_point_and_batch_agree():
    f = parse_scalar("sin:1.0,0.3,2.0")
    xs = np.linspace(0, 1, 7)[:, None]
    batch = f(xs)
    single = [_at(f, [v]) for v in xs[:, 0]]
    assert np.allclose(batch, single)
