"""Energy functional: paths, cocycle, convexity, and the lower-bound
machinery."""

import math

import numpy as np
import pytest

from _utils import rand_pd
from hebundle.bundle import BundleSpec, ScaledMetric, trivial_metric
from hebundle.donaldson import (
    BergmanPath,
    PointwiseExponentialPath,
    c_delta,
    cocycle_defect,
    curvature_variation_check,
    delta_lower_bound_audit,
    donaldson,
    first_derivative,
    geodesic,
    geodesic_log,
    he_defect_norm,
    poincare_constant,
    second_derivative_geodesic,
)
from hebundle.geometry import QuadratureRule, build_quadrature, sphere_point
from hebundle.sections import FSMetric, basis


SPEC = BundleSpec((1, -1))
SB = basis(SPEC, 1)


def _fs_pair(seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return (
        FSMetric(SB, G=rand_pd(rng, SB.N, scale)),
        FSMetric(SB, G=rand_pd(rng, SB.N, scale)),
    )


def test_geodesic_log_identity():
    rng = np.random.default_rng(1)
    h = rand_pd(rng, 3)
    assert np.allclose(geodesic_log(h, h), 0.0, atol=1e-12)
    assert np.allclose(geodesic_log(h, math.e * h), np.eye(3), atol=1e-12)


def test_energy_vanishes_on_equal_endpoints(rule24):
    h, _ = _fs_pair(0)
    assert abs(donaldson(h, h, rule=rule24)) < 1e-12


def test_scale_invariance(rule24):
    h, _ = _fs_pair(1)
    for c in (math.e, 1.0 / math.e):
        assert abs(donaldson(ScaledMetric(h, c), h, rule=rule24)) < 1e-8


def test_antisymmetry(rule24):
    h0, h1 = _fs_pair(2)
    m01 = donaldson(h1, h0, rule=rule24)
    m10 = donaldson(h0, h1, rule=rule24)
    assert m01 == pytest.approx(-m10, abs=1e-8)


def test_cocycle(rule24):
    h0, h1 = _fs_pair(3)
    h2, _ = _fs_pair(4)
    assert cocycle_defect(h2, h1, h0, rule24) < 1e-7


def test_path_independence(rule24):
    # form-space geodesic and pointwise exponential give the same value
    h0, h1 = _fs_pair(5, scale=0.3)
    m_bergman = donaldson(
        h1, h0, path=BergmanPath(SB, h0.G, h1.G), rule=rule24
    )
    m_pointwise = donaldson(
        h1, h0, path=PointwiseExponentialPath(h0, h1), rule=rule24
    )
    assert m_bergman == pytest.approx(m_pointwise, abs=5e-6)


def test_node_log_cache_survives_rule_recycling():
    # an 8x8 and a 16x4 rule both have 64 nodes; a rule built right after
    # another is dropped tends to reuse its address, and a cache keyed on
    # id() would hand it the dropped rule's node logs
    h0, h1 = _fs_pair(7, scale=0.3)
    path = PointwiseExponentialPath(h0, h1)
    r16 = build_quadrature(16, 4)
    fresh = PointwiseExponentialPath(h0, h1).deriv_integrand(0.3, r16)
    for _ in range(20):
        path.deriv_integrand(0.3, build_quadrature(8, 8))
        rule = QuadratureRule(r16.nodes, r16.weights, r16.coords, r16.charts)
        assert path.deriv_integrand(0.3, rule) == fresh


def test_first_derivative_consistency(rule24):
    # the t-derivative of the cumulative energy equals the integrand
    h0, h1 = _fs_pair(6, scale=0.3)
    path = BergmanPath(SB, h0.G, h1.G)
    eps = 1e-3

    def m_at(t):
        return donaldson(path.metric_at(t), h0, rule=rule24)

    fd = (m_at(0.5 + eps) - m_at(0.5 - eps)) / (2 * eps)
    assert first_derivative(path, 0.5, rule24) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_geodesic_factory():
    h0, h1 = _fs_pair(7)
    g = geodesic(h0, h1, 0.25)
    p = sphere_point(0.3)
    assert np.allclose(g.evaluate(p), g.evaluate(p).conj().T)


def test_second_derivative_formula_matches_fd(rule24):
    h0, h1 = _fs_pair(8, scale=0.3)
    out = second_derivative_geodesic(h0, h1, 0.5, rule24)
    assert out["fd"] >= -1e-8
    assert out["formula"] == pytest.approx(out["fd"], rel=1e-3)


def test_second_derivative_trivial_geodesic(rule24):
    # h1 = c h0 gives a trivial geodesic with constant scalar velocity
    h0, _ = _fs_pair(9)
    h1 = FSMetric(SB, G=math.e * h0.G)
    out = second_derivative_geodesic(h0, h1, 0.5, rule24)
    assert abs(out["formula"]) < 1e-8
    assert abs(out["fd"]) < 1e-6


def test_curvature_variation_identity():
    h0, h1 = _fs_pair(10, scale=0.3)
    path = BergmanPath(SB, h0.G, h1.G)
    pts = [sphere_point(z) for z in (0.2, 0.5j, -0.3 + 0.4j)]
    assert curvature_variation_check(path, 0.5, pts) < 1e-5
    with pytest.raises(ValueError):
        curvature_variation_check(PointwiseExponentialPath(h0, h1), 0.5, pts)


def test_c_delta_values():
    assert c_delta(1.0) == pytest.approx(0.5)
    assert c_delta(math.exp(-1.0)) == pytest.approx(math.exp(-1.0), abs=1e-14)
    # series extension is continuous across the switch point
    assert c_delta(1.0 - 1.01e-4) == pytest.approx(c_delta(1.0 - 0.99e-4), abs=1e-6)
    with pytest.raises(ValueError):
        c_delta(0.0)
    with pytest.raises(ValueError):
        c_delta(1.5)


def test_he_defect_norm_split(rule24):
    # O(1) + O(-1): trace-free defect diag(1, -1) has L2 norm sqrt(2)
    val = he_defect_norm(trivial_metric(SPEC), rule24)
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_he_defect_norm_vanishes_at_he_point(rule24):
    assert he_defect_norm(trivial_metric(BundleSpec((3,))), rule24) < 1e-7


def test_poincare_line_bundle(rule24):
    # on the trivial line bundle the first nonzero eigenvalue is 2
    out = poincare_constant(trivial_metric(BundleSpec((0,))), rule24)
    assert out["lambda1"] == pytest.approx(2.0, abs=1e-6)
    assert out["constant"] == pytest.approx(0.5, abs=1e-6)
    assert out["stable"]


def test_poincare_split_bundle_frozen(rule24):
    out = poincare_constant(trivial_metric(SPEC), rule24)
    assert out["constant"] == pytest.approx(0.8435774255676916, rel=1e-6)


def test_delta_audit_line_bundle(rule24):
    spec = BundleSpec((3,))
    sb = basis(spec, 3)
    from hebundle.sections import l2_gram

    h0 = FSMetric(sb, G=l2_gram(sb, trivial_metric(spec), rule24))
    rng = np.random.default_rng(17)
    h = FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.4))
    rep = delta_lower_bound_audit(h, h0, rule24)
    assert 0 < rep.delta <= 1.0 + 1e-9
    assert rep.passes
    assert rep.mdon >= rep.bound - 1e-6


def test_delta_audit_requires_flag_for_reducible(rule24):
    h0 = trivial_metric(SPEC)
    h = ScaledMetric(h0, 2.0)
    with pytest.raises(ValueError):
        delta_lower_bound_audit(h, h0, rule24)


def test_donaldson_requires_rule():
    h0, h1 = _fs_pair(11)
    with pytest.raises(ValueError):
        donaldson(h1, h0)
