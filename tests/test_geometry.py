"""Chart handling, area-form normalization, and quadrature exactness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hebundle.geometry import (
    area_coeff,
    build_quadrature,
    canonical_points,
    contract_batch,
    contraction,
    dphi,
    e_phi,
    integrate_values,
    tree_sum,
)


def _sphere_point(z):
    """The per-point canonical chart rule with Python scalars: (True where
    chart Z, coordinate)."""
    z = complex(z)
    return (True, z) if abs(z) <= 1.0 else (False, 1.0 / z)


def test_sphere_point_canonicalization():
    zs = [0.5 + 0.1j, 4.0, 1.0, -1j, 0.6 + 0.8j, 0.0, 1.0 + 1e-16j, -2.0 + 1.1j, complex(np.inf)]
    charts, coords = canonical_points(zs)
    assert charts[:2].tolist() == [True, False]
    assert coords[0] == 0.5 + 0.1j and coords[1] == 0.25
    # ties |z| = 1 go to chart Z
    assert charts[2:5].all() and coords[2:5].tolist() == [1.0, -1j, 0.6 + 0.8j]
    # every point bit for bit as the scalar rule holds it
    ref = [_sphere_point(z) for z in zs]
    assert charts.tolist() == [c for c, _ in ref]
    assert coords.tobytes() == np.array([x for _, x in ref]).tobytes()


def test_sphere_point_infinity():
    charts, coords = canonical_points(complex(np.inf))
    assert charts.tolist() == [False] and coords.tolist() == [0.0]


def test_invalid_points_rejected():
    with pytest.raises(ValueError):
        canonical_points([0.5, complex(np.nan)])


def test_area_form_contracts_to_one():
    # the area form's coefficient in either chart is (1+|x|^2)^-2
    xs = np.array([0.0, 0.5, 0.9j, -0.3 + 0.7j])
    coeffs = (1.0 + np.abs(xs) ** 2) ** -2
    for val in contract_batch(coeffs[:, None, None], xs)[:, 0, 0]:
        assert val == pytest.approx(1.0)


def test_potential_terms_glue_across_charts():
    # phi_Z = phi_W - log|w|^2 with w = 1/z, on both sides of |z| = 1, to
    # a few roundings; w - w^2 dphi(w) cancels, so it is held to the
    # size of its terms
    radii = np.array([0.05, 0.3, 0.9, 0.999, 1.001, 1.7, 6.0, 40.0])
    z = (radii[:, None] * np.exp(1j * np.linspace(0.1, 6.0, 7))).reshape(-1)
    w, tol = 1.0 / z, 8 * np.finfo(float).eps
    np.testing.assert_allclose(e_phi(z), np.abs(z) ** 2 * e_phi(w), rtol=tol)
    np.testing.assert_allclose(area_coeff(z), np.abs(w) ** 4 * area_coeff(w), rtol=tol)
    terms = np.abs(w) + np.abs(w**2 * dphi(w))
    assert np.all(np.abs(dphi(z) - (w - w**2 * dphi(w))) <= tol * terms)
    for x in (z, w):
        np.testing.assert_allclose(contraction(x) * area_coeff(x), 1.0, rtol=tol)


def test_total_mass_is_one(rule24):
    assert integrate_values(np.ones(rule24.n), rule24) == pytest.approx(1.0, abs=1e-14)


def test_quadrature_exact_on_u_polynomials(rule24):
    # in u = |x|^2/(1+|x|^2) the measure is Lebesgue on [0, 1]; the
    # Gauss rule is exact for u^m well past these degrees
    a = np.abs(rule24.coords) ** 2
    u = np.where(rule24.charts, a / (1.0 + a), 1.0 - a / (1.0 + a))
    for m in range(8):
        val = integrate_values(u**m, rule24)
        assert val == pytest.approx(1.0 / (m + 1), abs=1e-13)


def test_angular_modes_integrate_to_zero(rule24):
    # z / (1+|z|^2)^2 has a pure angular mode and integrates to zero
    x = rule24.coords
    z = np.where(rule24.charts, x, 1.0 / x)
    assert abs(integrate_values(z / (1.0 + np.abs(z) ** 2) ** 2, rule24)) < 1e-14


def test_curvature_mass_of_line_weight(rule24):
    # contraction of the (1,1)-form of log(1+|z|^2) integrates to 1
    # (degree of the polarization); the coefficient is (1+|z|^2)^-2
    coeffs = (1.0 + np.abs(rule24.coords) ** 2) ** -2
    val = integrate_values(contract_batch(coeffs[:, None, None], rule24.coords)[:, 0, 0], rule24)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_build_quadrature_validation():
    with pytest.raises(ValueError):
        build_quadrature(2, 16)
    with pytest.raises(ValueError):
        build_quadrature(16, 3)


def test_quadrature_nodes_canonical(rule16):
    assert np.all(np.abs(rule16.coords) <= 1.0 + 1e-12)


def _product_nodes(n_colat, n_angle):
    """The radii, angles and weights of the product rule."""
    x, wu = np.polynomial.legendre.leggauss(n_colat)
    u, wu = 0.5 * (x + 1.0), 0.5 * wu
    theta = 2.0 * np.pi * np.arange(n_angle) / n_angle
    return np.sqrt(u / (1.0 - u)), theta, np.array([wi / n_angle for wi in wu for _ in theta])


@pytest.mark.parametrize("n_colat, n_angle", [(4, 4), (7, 5), (24, 24), (33, 12), (64, 64)])
def test_build_quadrature_matches_per_node_sphere_point(n_colat, n_angle):
    # bit for bit, signed zeros included, against the scalar chart rule at
    # each node (chart-W nodes hold the scalar complex reciprocal, which
    # numpy's 1/z misses in the last bit) and against canonical_points of
    # the raw product nodes
    rule = build_quadrature(n_colat, n_angle)
    r, theta, weights = _product_nodes(n_colat, n_angle)
    charts, coords = zip(*[_sphere_point(ri * np.exp(1j * th)) for ri in r for th in theta])
    charts, coords = np.array(charts), np.array(coords)
    assert not charts.all()
    assert np.array_equal(rule.charts, charts)
    assert rule.coords.dtype == coords.dtype and rule.coords.tobytes() == coords.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()
    charts, coords = canonical_points((r[:, None] * np.exp(1j * theta)).reshape(-1))
    assert np.array_equal(rule.charts, charts) and rule.coords.tobytes() == coords.tobytes()


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_tree_sum_matches_plain_sum(xs):
    arr = np.array(xs)
    assert tree_sum(arr) == pytest.approx(float(np.sum(arr)), abs=1e-6, rel=1e-9)


def test_tree_sum_deterministic():
    rng = np.random.default_rng(0)
    a = rng.normal(size=1000)
    assert tree_sum(a) == tree_sum(a.copy())


def test_integrate_values_matches_integrate(rule16):
    # against the per-node weighted sum of the pointwise values
    coords = rule16.coords.tolist()
    vals = np.array([abs(x) ** 2 for x in coords])
    assert integrate_values(vals, rule16) == pytest.approx(
        math.fsum(w * abs(x) ** 2 for w, x in zip(rule16.weights, coords))
    )
    with pytest.raises(ValueError):
        integrate_values(vals[:-1], rule16)


def test_integrate_rejects_nonfinite(rule16):
    with pytest.raises(RuntimeError):
        integrate_values(np.full(rule16.n, np.inf), rule16)
