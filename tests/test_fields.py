"""Field evaluation against finite-difference oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham.fields import PeriodicScalarField, field_from_function, grid_points

from conftest import random_periodic_field


def fd_gradient(field, y, h):
    y = np.asarray(y, dtype=float)
    out = np.empty(field.dim)
    for a in range(field.dim):
        e = np.zeros(field.dim)
        e[a] = h
        out[a] = (field.value(y + e) - field.value(y - e)) / (2 * h)
    return out


def test_zero_field():
    f = PeriodicScalarField(dim=1)
    assert f.value([0.37]) == 0.0
    assert f.gradients([0.37])[0] == pytest.approx([0.0])


def test_cosine_at_origin():
    f = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 1.0, 0.0),))
    assert f.value([0.0]) == pytest.approx(1.0)
    assert f.gradients([0.0])[0] == pytest.approx([0.0], abs=1e-14)


def test_cosine_gradient_matches_central_difference():
    f = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 1.0, 0.0),))
    y = [0.3]
    assert f.gradients([y])[0, 0] == pytest.approx(fd_gradient(f, y, 1e-5)[0], abs=1e-8)


def test_periodicity():
    f = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.4, -0.2), ((3,), 0.1, 0.0)))
    for y in (0.11, 0.77):
        assert f.value([y]) == pytest.approx(f.value([y + 1.0]), abs=1e-12)


def test_affine_part_breaks_periodicity_but_not_gradient():
    f = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.4, 0.0),),
                            affine_slope=(2.0,))
    assert f.value([1.2]) - f.value([0.2]) == pytest.approx(2.0, abs=1e-12)
    assert f.gradients([0.2])[0, 0] == pytest.approx(f.gradients([1.2])[0, 0], abs=1e-12)


def test_second_order_fd_ratio():
    """Central differences converge at O(h^2): error drops ~100x from 1e-3 to 1e-4."""
    f = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.7, 0.3), ((2,), -0.2, 0.4)),
                            affine_slope=(0.5,))
    y = [0.234]
    exact = f.gradients([y])[0, 0]
    errs = {h: abs(fd_gradient(f, y, h)[0] - exact) for h in (1e-3, 1e-4)}
    ratio = errs[1e-3] / errs[1e-4]
    assert 50 < ratio < 200


def test_dim2_gradient():
    f = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.5, 0.0),
                                                   ((1, 2), 0.2, -0.3)))
    y = [0.21, 0.64]
    np.testing.assert_allclose(f.gradients([y])[0], fd_gradient(f, y, 1e-5), atol=1e-8)


def test_dimension_mismatch_raises():
    f = PeriodicScalarField(dim=2)
    with pytest.raises(ValueError):
        f.value([0.1])
    with pytest.raises(ValueError):
        PeriodicScalarField(dim=1, fourier_coeffs=(((1, 1), 1.0, 0.0),))


def test_vectorized_matches_scalar(rng):
    f = random_periodic_field(rng, band=3)
    pts = rng.uniform(0, 1, size=(17, 1))
    np.testing.assert_allclose(f.values(pts),
                               [f.value(p) for p in pts], atol=1e-14)
    np.testing.assert_allclose(f.gradients(pts),
                               [f.gradients([p])[0] for p in pts], atol=1e-12)


def test_point_arrays_of_the_wrong_shape_raise():
    """Grid evaluation takes (n, d) points, and for d = 1 also a bare (n,)
    array; any other shape raises instead of being reshaped into points."""
    f1 = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.3, 0.1),))
    f2 = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, 0.1),))
    ys = np.linspace(0.0, 1.0, 4)
    np.testing.assert_array_equal(f1.values(ys), f1.values(ys[:, None]))
    np.testing.assert_array_equal(f1.gradients(ys), f1.gradients(ys[:, None]))
    for f, bad in ((f1, np.zeros((5, 2))), (f1, np.zeros((2, 3, 1))),
                   (f2, np.zeros((6, 1))), (f2, np.zeros(4))):
        for evaluate in (f.values, f.periodic_values, f.gradients):
            with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
                evaluate(bad)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                min_size=1, max_size=4),
       st.floats(0.01, 0.99))
def test_gradient_property(coeff_pairs, y):
    modes = tuple(((k + 1,), a, b) for k, (a, b) in enumerate(coeff_pairs))
    f = PeriodicScalarField(dim=1, fourier_coeffs=modes)
    scale = 1.0 + sum(abs(a) + abs(b) for a, b in coeff_pairs)
    assert f.gradients([y])[0, 0] == pytest.approx(fd_gradient(f, [y], 1e-6)[0],
                                               abs=1e-6 * scale)


def test_field_from_function_reproduces_exponential():
    psi = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.5, 0.0),))
    fitted = field_from_function(lambda y: math.exp(2 * psi.value([y])))
    ys = np.linspace(0, 1, 97)
    for y in ys:
        assert fitted.value([y]) == pytest.approx(math.exp(2 * psi.value([y])),
                                                  rel=1e-11)


def test_grid_points_shape():
    assert grid_points(1, 8).shape == (8, 1)
    assert grid_points(2, 4).shape == (16, 2)


@pytest.mark.parametrize("modes", [2, 17])
def test_batch_size_does_not_change_a_point(modes):
    """Every row of a batch equals its one-point result bit for bit, for any
    batch size: the mode sums run elementwise in a fixed order."""
    rng = np.random.default_rng(modes)
    for dim in (1, 2):
        coeffs = tuple((tuple(int(k) for k in rng.integers(-5, 6, size=dim)),
                        *rng.normal(size=2)) for _ in range(modes))
        f = PeriodicScalarField(dim=dim, fourier_coeffs=coeffs,
                                affine_slope=tuple(rng.normal(size=dim)))
        pts = rng.uniform(-1.0, 2.0, size=(4097, dim))
        one_values = np.array([f.value(y) for y in pts])
        one_grads = np.array([f.gradients([y])[0] for y in pts])
        for n in [*range(1, 130), *range(130, 4097, 131), 4096, 4097]:
            np.testing.assert_array_equal(f.values(pts[:n]), one_values[:n])
            np.testing.assert_array_equal(f.gradients(pts[:n]), one_grads[:n])
        np.testing.assert_array_equal(f.values(pts[-5:]), one_values[-5:])
