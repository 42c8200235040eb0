import numpy as np
import pytest

from sdglab.grids import DomainGrid, ValueField
from sdglab.model import DomainSpec


def test_interval_grid_classification():
    dom = DomainSpec("box", 1, (0.0,), (1.0,))
    g = DomainGrid.build(dom, 1 / 8)
    assert g.lattice_shape == (9,)
    assert g.interior.sum() == 7
    assert g.boundary.sum() == 2
    assert np.allclose(g.coords[g.boundary_idx][:, 0], [0.0, 1.0])


def test_spacing_snaps_to_divide_the_box():
    dom = DomainSpec("box", 1, (0.0,), (1.0,))
    g = DomainGrid.build(dom, 0.3)
    n = g.lattice_shape[0] - 1
    assert n * g.spacing[0] == pytest.approx(1.0)


def test_square_grid_counts():
    dom = DomainSpec("box", 2, (0.0, 0.0), (1.0, 1.0))
    g = DomainGrid.build(dom, 1 / 4)
    assert g.lattice_shape == (5, 5)
    assert g.interior.sum() == 9
    assert g.boundary.sum() == 25 - 9


def test_ball_grid_boundary_within_one_spacing():
    dom = DomainSpec("ball", 2, center=(0.0, 0.0), radius=1.0)
    g = DomainGrid.build(dom, 1 / 16)
    bd = g.coords[g.boundary_idx]
    dist = dom.boundary_distance(bd)
    assert np.all(dist >= -1e-9)
    assert np.all(dist <= np.max(g.spacing) * np.sqrt(2) + 1e-9)
    # interior nodes have all axis neighbors inside the closure
    for i in range(2):
        plus, minus = g.axis_neighbors(g.interior_idx, i)
        assert g.in_closure[plus].all() and g.in_closure[minus].all()


def test_axis_and_diagonal_neighbors_consistent():
    dom = DomainSpec("box", 2, (0.0, 0.0), (1.0, 1.0))
    g = DomainGrid.build(dom, 1 / 4)
    idx = g.interior_idx
    plus, minus = g.axis_neighbors(idx, 0)
    assert np.allclose(g.coords[plus][:, 0] - g.coords[idx][:, 0], g.spacing[0])
    pp, mm, pm, mp = g.diagonal_neighbors(idx, 0, 1)
    assert np.allclose(g.coords[pp] - g.coords[idx], g.spacing)
    assert np.allclose(g.coords[mm] - g.coords[idx], -g.spacing)


def test_grid_arrays_are_read_only():
    # nearest_node's lookup and the stencil layout are kept on the grid, so its arrays cannot change
    g = DomainGrid.build(DomainSpec("ball", 2, center=(0.0, 0.0), radius=1.0), 1 / 4)
    for name in ("origin", "spacing", "coords", "in_closure", "interior", "boundary"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 0


def test_nearest_node_clips_outside_points():
    dom = DomainSpec("box", 1, (0.0,), (1.0,))
    g = DomainGrid.build(dom, 1 / 4)
    idx = g.nearest_node(np.array([[-0.4], [0.3], [1.7]]))
    assert np.allclose(g.coords[idx][:, 0], [0.0, 0.25, 1.0])


def test_interpolation_exact_for_multilinear():
    dom = DomainSpec("box", 2, (0.0, 0.0), (1.0, 1.0))
    g = DomainGrid.build(dom, 1 / 8)
    fn = lambda x: 2.0 + 3.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 0] * x[:, 1]
    v = ValueField.from_function(g, fn)
    pts = np.array([[0.13, 0.77], [0.5, 0.5], [0.999, 0.001]])
    assert np.allclose(v.interpolate(pts), fn(pts), atol=1e-12)


def test_interpolation_clips_far_and_non_finite_points():
    # the cell index is clipped before it becomes an int, so no coordinate wraps or warns
    g = DomainGrid.build(DomainSpec("box", 1, (0.0,), (1.0,)), 1 / 4)
    v = ValueField.from_function(g, lambda x: x[:, 0])
    far = v.interpolate(np.array([[5.0], [1e300], [np.inf], [-np.inf]]))
    assert far.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert np.isnan(v.interpolate(np.array([[np.nan]]))[0])


def test_interpolation_near_ball_boundary_falls_back():
    dom = DomainSpec("ball", 2, center=(0.0, 0.0), radius=1.0)
    g = DomainGrid.build(dom, 1 / 8)
    v = ValueField.from_function(g, lambda x: np.ones(x.shape[0]))
    # a point in a lattice cell with masked corners still gets a value
    out = v.interpolate(np.array([[0.69, 0.69]]))
    assert np.isfinite(out[0])
    assert out[0] == pytest.approx(1.0)


def test_interpolation_reads_nan_where_every_corner_is_masked():
    g = DomainGrid.build(DomainSpec("ball", 2, center=(0.0, 0.0), radius=1.0), 0.25)
    v = ValueField.from_function(g, lambda x: 1.0 + x[:, 0])
    out = v.interpolate(np.array([[0.95, 0.95], [0.5, 0.5], [0.9, 0.2]]))
    # the cell [0.75, 1]^2 lies outside the closure; the other two cells touch it
    assert np.isnan(out[0])
    assert np.isfinite(out[1:]).all()
    assert out[1] == pytest.approx(1.5)


def test_sup_diff_and_copy():
    dom = DomainSpec("box", 1, (0.0,), (1.0,))
    g = DomainGrid.build(dom, 1 / 8)
    a = ValueField.from_function(g, lambda x: x[:, 0])
    b = ValueField(g, a.values.copy())
    b.values[g.interior_idx[0]] += 0.25
    assert a.sup_diff(b) == pytest.approx(0.25)


def test_value_csv_is_deterministic(tmp_path):
    dom = DomainSpec("box", 1, (0.0,), (1.0,))
    g = DomainGrid.build(dom, 1 / 8)
    v = ValueField.from_function(g, lambda x: np.sin(x[:, 0]))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    v.to_csv(p1)
    v.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "x1,value"


def test_grid_rejects_nonpositive_spacing():
    dom = DomainSpec("box", 1, (0.0,), (1.0,))
    for h in (0.0, -0.25, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            DomainGrid.build(dom, h)
