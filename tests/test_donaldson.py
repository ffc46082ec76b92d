"""Energy functional: paths, cocycle, convexity, and the lower-bound
machinery."""

import math
import re

import numpy as np
import pytest
import scipy.linalg

import hebundle.bundle as bundle_mod
import hebundle.donaldson as donaldson_mod
import hebundle.sections as sections_mod
import hebundle.solver as solver_mod
from _utils import ExplicitMetric, at, count_calls, rand_pd, standard_metric
from hebundle.bundle import (
    BundleSpec,
    GeodesicMetric,
    _geodesic_parts,
    geodesic_log_batch,
)
from hebundle.donaldson import (
    _GK_T,
    _GK_WG,
    _GK_WK,
    BergmanPath,
    PointwiseExponentialPath,
    c_delta,
    cocycle_defect,
    curvature_variation_check,
    delta_lower_bound_audit,
    donaldson,
    he_defect_norm,
    path_energy,
    poincare_constant,
    second_derivative_geodesic,
)
from hebundle.geometry import build_quadrature, canonical_points, contract_batch
from hebundle.sections import FSMetric, _fs_values, basis, l2_gram, node_sections, trivial_metric
from hebundle.solver import mdon_gradient


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
    assert np.allclose(geodesic_log_batch(_geodesic_parts(h, h)), 0.0, atol=1e-12)
    assert np.allclose(geodesic_log_batch(_geodesic_parts(h, math.e * h)), np.eye(3), atol=1e-12)


def test_energy_vanishes_on_equal_endpoints(rule24):
    h, _ = _fs_pair(0)
    assert abs(donaldson(h, h, rule=rule24)) < 1e-12


def test_scale_invariance(rule24):
    h, _ = _fs_pair(1)
    for c in (math.e, 1.0 / math.e):
        assert abs(donaldson(FSMetric(h.sb, G=c * h.G), h, rule=rule24)) < 1e-8


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
    m_bergman = path_energy(BergmanPath(SB, h0.G, h1.G, node_sections(SB, rule24)), 1e-8)
    m_pointwise = path_energy(PointwiseExponentialPath(h0, h1, rule24), 1e-8)
    assert m_bergman == pytest.approx(m_pointwise, abs=5e-6)


def test_first_derivative_consistency(rule24):
    # the t-derivative of the cumulative energy equals the integrand
    h0, h1 = _fs_pair(6, scale=0.3)
    path = BergmanPath(SB, h0.G, h1.G, node_sections(SB, rule24))
    base, lam = donaldson_mod._form_geodesic(h0.G, h1.G)
    eps = 1e-3

    def m_at(t):
        return donaldson(FSMetric(SB, ginv_factor=base * lam ** (-0.5 * t)), h0, rule=rule24)

    fd = (m_at(0.5 + eps) - m_at(0.5 - eps)) / (2 * eps)
    assert path.deriv_integrand(0.5) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_geodesic_factory():
    h0, h1 = _fs_pair(7)
    g = GeodesicMetric(h0, h1, 0.25)
    assert np.allclose(at(g, 0.3), at(g, 0.3).conj().T)


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
    charts, coords = canonical_points([0.2, 0.5j, -0.3 + 0.4j])
    assert curvature_variation_check(h0, h1, 0.5, charts, coords) < 1e-5
    with pytest.raises(ValueError):
        curvature_variation_check(GeodesicMetric(h0, h1, 0.5), h1, 0.5, charts, coords)


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
    val = he_defect_norm(standard_metric(SPEC), rule24)
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_he_defect_norm_vanishes_at_he_point(rule24):
    assert he_defect_norm(standard_metric(BundleSpec((3,))), rule24) < 1e-7


def test_nonfinite_node_value_raises(rule16):
    # a metric undefined at one node: the integrals reject its value
    # rather than return nan
    node = complex(rule16.coords[0])
    h = ExplicitMetric(SPEC, lambda chart, x: np.diag([np.nan if x == node else 1.0, 1.0]))
    with pytest.raises(RuntimeError, match="non-finite integrand value"):
        l2_gram(SB, h, rule16)
    with pytest.raises(RuntimeError, match="non-finite integrand value"):
        PointwiseExponentialPath(standard_metric(SPEC), h, rule16).deriv_integrand(0.5)


def test_poincare_line_bundle(rule24):
    # on the trivial line bundle the first nonzero eigenvalue is 2
    out = poincare_constant(standard_metric(BundleSpec((0,))), rule24)
    assert out["lambda1"] == pytest.approx(2.0, abs=1e-6)
    assert out["constant"] == pytest.approx(0.5, abs=1e-6)


def test_poincare_raises_when_not_settled(rule16, monkeypatch):
    # Rayleigh-Ritz estimates that keep moving by 10% per degree
    monkeypatch.setattr(
        donaldson_mod, "_poincare_rayleigh", lambda h0, rule, max_deg: 1.1**max_deg
    )
    with pytest.raises(RuntimeError, match="not stable to 1% by degree 6") as exc:
        poincare_constant(standard_metric(SPEC), rule16)
    assert repr(1.1**5) in str(exc.value) and repr(1.1**6) in str(exc.value)


def test_poincare_split_bundle_frozen(rule24):
    out = poincare_constant(standard_metric(SPEC), rule24)
    assert out["constant"] == pytest.approx(0.8435774255676916, rel=1e-6)


def test_delta_audit_line_bundle(rule24):
    spec = BundleSpec((3,))
    sb = basis(spec, 3)
    h0 = FSMetric(sb, G=l2_gram(sb, trivial_metric(sb), rule24))
    rng = np.random.default_rng(17)
    h = FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.4))
    pc = poincare_constant(h0, rule24)["constant"]
    rep = delta_lower_bound_audit(h, h0, rule24, pc)
    assert 0 < rep.delta <= 1.0 + 1e-9
    assert rep.passes
    assert rep.mdon >= rep.bound - 1e-6


def test_default_path_needs_fs_metrics_of_one_basis(rule16):
    # FS metrics at levels 1 and 2 of one bundle: the caller names the path
    h1 = _fs_pair(13)[0]
    sb2 = basis(SPEC, 2)
    h2 = FSMetric(sb2, G=rand_pd(np.random.default_rng(13), sb2.N, 0.4))
    for a, b in ((h2, h1), (h1, h2)):
        with pytest.raises(ValueError, match="pass path="):
            donaldson(a, b, rule16)


def test_donaldson_requires_rule():
    h0, h1 = _fs_pair(11)
    with pytest.raises(TypeError):
        donaldson(h1, h0)


def test_gauss_kronrod_table():
    # K15 is exact to degree 22 and G7 to degree 13 on [0, 1]
    for d in range(23):
        assert abs(_GK_WK @ _GK_T**d - 1.0 / (d + 1)) < 1e-15
    for d in range(14):
        assert abs(_GK_WG @ _GK_T[1::2] ** d - 1.0 / (d + 1)) < 1e-15
    # the G7 nodes are the odd-index K15 nodes: Gauss-Legendre 7 on [0, 1]
    x7, w7 = np.polynomial.legendre.leggauss(7)
    assert np.allclose(_GK_T[1::2], 0.5 * (x7 + 1.0), rtol=0.0, atol=1e-15)
    assert np.allclose(_GK_WG, 0.5 * w7, rtol=0.0, atol=1e-15)
    assert np.all(np.diff(_GK_T) > 0) and 0.0 < _GK_T[0] and _GK_T[-1] < 1.0
    for w in (_GK_WK, _GK_WG):
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-15


class _RecordingPath:
    """A path that records the t-nodes and the values of every integrand
    call."""

    def __init__(self, path):
        self.path, self.calls, self.values = path, [], []

    def deriv_integrand(self, t):
        self.calls.append(np.array(t))
        self.values.append(self.path.deriv_integrand(t))
        return self.values[-1]


def _composite_k15(path, panels=16):
    """K15 summed over equal panels of [0, 1]: the reference value."""
    lo = np.arange(panels) / panels
    f = path.deriv_integrand((lo[:, None] + _GK_T / panels).reshape(-1))
    return float(f.reshape(panels, -1).sum(0) @ _GK_WK) / panels


def test_energy_takes_a_short_step_in_one_panel(rule16):
    # a solver-sized step: K15 on [0, 1] meets tol after its 15 t-nodes
    h0, _ = _fs_pair(12)
    X = np.random.default_rng(12).normal(size=(SB.N, SB.N))
    E = scipy.linalg.expm(0.01 * (X + X.T))
    path = BergmanPath(SB, h0.G, E @ h0.G @ E, node_sections(SB, rule16))
    rec = _RecordingPath(path)
    value = path_energy(rec, 1e-9)
    assert len(rec.calls) == 1 and np.array_equal(rec.calls[0], _GK_T)
    assert abs(value - _composite_k15(path)) <= 1e-9


def test_energy_bisects_when_one_panel_misses(rule16):
    # a long step: K15 on [0, 1] misses tol, so bisected panels follow
    # the first call
    h0, h1 = _fs_pair(12, scale=0.8)
    path = BergmanPath(SB, h0.G, h1.G, node_sections(SB, rule16))
    rec = _RecordingPath(path)
    value = donaldson(h1, h0, rule16, path=rec)
    assert len(rec.calls) > 1 and np.array_equal(rec.calls[0], _GK_T)
    assert value == donaldson(h1, h0, rule=rule16)
    assert abs(value - _composite_k15(path)) <= 1e-8


@pytest.mark.parametrize("seed", [3, 12])
def test_shared_path_setup_gives_the_bits_of_a_fresh_one(rule16, seed):
    # an integral that bisects: the panels of every level share one
    # path's set-up, and each call's values equal a fresh path's
    h0, h1 = _fs_pair(seed, scale=0.8)
    path = BergmanPath(SB, h0.G, h1.G, node_sections(SB, rule16))
    rec = _RecordingPath(path)
    path_energy(rec, 1e-8)
    assert len(rec.calls) > 1 and np.array_equal(rec.calls[0], _GK_T)
    for ts, got in zip(rec.calls, rec.values):
        fresh = BergmanPath(SB, h0.G, h1.G, node_sections(SB, rule16))
        assert np.array_equal(got, fresh.deriv_integrand(ts))


def _evaluated_points(monkeypatch, *metrics):
    """A function that reads how many points each metric's `evaluate`
    has been called on and, last, `eval_matrix_batch` (sections and
    their derivatives) and `_section_values` (sections alone, which
    `eval_matrix_batch` calls too), through every package module that
    binds them (`count_calls`)."""
    calls = [count_calls(monkeypatch, h, "evaluate") for h in metrics]
    for name in ("eval_matrix_batch", "_section_values"):
        calls.append(count_calls(monkeypatch, sections_mod, name))
    return lambda: [sum(len(args[-1]) for args in c) for c in calls]


def test_second_derivative_evaluates_each_endpoint_on_two_stencils(rule16, monkeypatch):
    # one stencil for the path (velocity and energy rate), one for the
    # metric at s; nothing evaluates sections past the endpoints, and
    # their values take no section derivatives
    h0, h1 = _fs_pair(8, scale=0.3)
    points = _evaluated_points(monkeypatch, h0, h1)
    second_derivative_geodesic(h0, h1, 0.5, rule16)
    stencil = 9 * rule16.n
    assert points() == [2 * stencil, 2 * stencil, 0, 4 * stencil]


def test_pointwise_energy_evaluates_each_endpoint_once(rule24, monkeypatch):
    # against the standard metric, (1, -1) at k = 1 from a far form
    # bisects: the panels of every level share one stencil evaluation of
    # each endpoint, and each call's values equal a fresh path's
    h0, h1 = standard_metric(SPEC), FSMetric(SB, G=rand_pd(np.random.default_rng(3), SB.N, 4.0))
    points = _evaluated_points(monkeypatch, h0, h1)
    rec = _RecordingPath(PointwiseExponentialPath(h0, h1, rule24))
    path_energy(rec, 1e-9)
    assert points() == [9 * rule24.n, 9 * rule24.n, 0, 18 * rule24.n]
    assert len(rec.calls) > 1 and np.array_equal(rec.calls[0], _GK_T)
    for ts, got in zip(rec.calls, rec.values):
        assert np.array_equal(got, PointwiseExponentialPath(h0, h1, rule24).deriv_integrand(ts))


def test_pointwise_energy_forms_the_velocity_at_the_nodes_alone(rule24, monkeypatch):
    # the energy reads the velocity at the nodes; only the convexity
    # audit's formula differences it, and forms it on the stencil itself
    h0, h1 = standard_metric(SPEC), FSMetric(SB, G=rand_pd(np.random.default_rng(3), SB.N, 0.4))
    calls = count_calls(monkeypatch, bundle_mod, "geodesic_log_batch")
    donaldson(h1, h0, rule24, path=PointwiseExponentialPath(h0, h1, rule24))
    # the points are every axis of the relative eigenvalues but the last
    assert [math.prod(args[0][2].shape[:-1]) for args in calls] == [rule24.n]
    calls.clear()
    second_derivative_geodesic(h0, h1, 0.5, rule24)
    assert [math.prod(args[0][2].shape[:-1]) for args in calls] == [rule24.n, 9 * rule24.n]


def test_bergman_path_integrates_on_the_rule_of_its_sections(rule16):
    # an 8 x 32 rule has as many nodes as a 16 x 16 one, and the path
    # built on its sections integrates on it
    rule = build_quadrature(8, 32)
    assert rule.n == rule16.n
    h0, h1 = _fs_pair(2)
    value = path_energy(BergmanPath(SB, h0.G, h1.G, node_sections(SB, rule)), 1e-8)
    assert value == donaldson(h1, h0, rule)
    assert value != donaldson(h1, h0, rule16)


def _end_pair(degs, k, n, seed=4):
    sb, rule = basis(BundleSpec(degs), k), build_quadrature(n, n)
    rng = np.random.default_rng(seed)
    return sb, rule, rand_pd(rng, sb.N, 0.4), rand_pd(rng, sb.N, 0.4)


def _rel_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("degs, k, n", [((2, 2), 0, 12), ((2, 1, 0), 1, 16)])
def test_bergman_path_end_state_is_fs_of_its_end_form(degs, k, n):
    # the t = 1 node of the path's first call is FS(G1): its moments,
    # their inverse, its contracted curvature and the inverse form, and a
    # gradient read off it is the one FS(G1)'s own moments give
    sb, rule, G0, G1 = _end_pair(degs, k, n)
    sections = node_sections(sb, rule)
    path = BergmanPath(sb, G0, G1, sections)
    path.deriv_integrand(_GK_T)
    state = path.end_state()
    hm = FSMetric(sb, G=G1)
    A, _, _, Ainv = hm._moments(*sections[1:3])
    lamF = contract_batch(hm.curvature_coeff(rule.charts, rule.coords), rule.coords)
    for got, want in zip(state, (A, Ainv, lamF, hm.Ginv)):
        assert _rel_gap(got, want) <= 1e-12
    fresh_state = solver_mod._fs_state(sb, G1, sections)
    got = mdon_gradient(sb, state, sections)
    fresh = mdon_gradient(sb, fresh_state, sections)
    assert _rel_gap(got[0], fresh[0]) <= 1e-12
    assert got[1] == pytest.approx(fresh[1], rel=1e-12)
    # and so are the metric values that normalize the form of a step
    values = (_fs_values(x[1], rule.coords, k) for x in (state, fresh_state))
    assert _rel_gap(*values) <= 1e-12


@pytest.mark.parametrize("n, joins", [(12, True), (24, False)])
def test_bergman_path_end_state_has_the_bits_of_a_one_node_call(n, joins, monkeypatch):
    # 12 x 12: t = 1 joins the first call's chunk of 15 t-nodes; 24 x 24
    # (576 nodes) has room for 7 t-nodes alone, so the end state takes a
    # one-node call of its own.  Either way it has a fresh path's bits
    sb, rule, G0, G1 = _end_pair((2, 2), 0, n)
    path = BergmanPath(sb, G0, G1, node_sections(sb, rule))
    first = path.deriv_integrand(_GK_T)
    assert (len(_GK_T) < bundle_mod._t_chunk(rule)) == joins
    calls = count_calls(monkeypatch, path, "_nodes")
    got = path.end_state()
    assert [len(args[0]) for args in calls] == ([] if joins else [1])
    fresh = BergmanPath(sb, G0, G1, node_sections(sb, rule))
    assert all(np.array_equal(a, b) for a, b in zip(got, fresh.end_state()))
    # and the first call's values are those of a path that formed it first
    assert np.array_equal(first, fresh.deriv_integrand(_GK_T))


def test_donaldson_raises_when_tolerance_missed(rule16):
    h0, h1 = _fs_pair(11)
    value = donaldson(h1, h0, rule=rule16)
    with pytest.raises(RuntimeError) as info:
        donaldson(h1, h0, rule=rule16, tol=1e-300)
    m = re.search(
        r"value (\S+), error estimate (\S+) > tol (\S+) after (\d+) t-nodes",
        str(info.value),
    )
    assert m is not None
    assert float(m.group(1)) == pytest.approx(value, abs=1e-12)
    assert 0.0 < float(m.group(2)) < 1e-6
    assert float(m.group(3)) == 1e-300
    # 15 per panel over more than one level
    nodes = int(m.group(4))
    assert nodes > 15 and nodes % 15 == 0
