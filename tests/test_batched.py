"""Batched kernels against the per-node and per-t formulas they replace.

The reference functions below are the loop and einsum forms of the
energy integrand, the relative eigenvalues and the sup norms; the
batched code must agree with them to 1e-12 relative where the arithmetic
changed, and exactly where it did not.
"""

import numpy as np
import pytest
import scipy.linalg

import hebundle.donaldson as donaldson_mod
from _utils import rand_pd
from hebundle.bundle import (
    BundleSpec,
    GeodesicMetric,
    _relative_eigs,
    contracted_curvature_batch,
    he_residual,
    trivial_metric,
)
from hebundle.donaldson import BergmanPath, _gl_nodes
from hebundle.geometry import tree_sum
from hebundle.sections import FSMetric, basis, bergman_kernel, l2_gram


def _deriv_integrand_reference(path, t, rule):
    """Per-t integrand through the metric at t and the 5-operand einsum."""
    hm = path.metric_at(t)
    S, _, _, Ainv = hm._core(rule.charts, rule.coords)
    lamF = contracted_curvature_batch(hm, rule)
    res = lamF - float(path.sb.bundle.slope) * np.eye(path.sb.bundle.rank)
    K = path.k_matrix(t)
    vals = np.einsum("nij,jk,nlk,nlm,nmi->n", S, K, S.conj(), Ainv, res)
    return float(tree_sum(vals.real * rule.weights))


def _relative_eigs_reference(h, h0, rule):
    a = h.evaluate_batch(rule.charts, rule.coords)
    b = h0.evaluate_batch(rule.charts, rule.coords)
    herm = lambda m: 0.5 * (m + m.conj().T)
    return np.array(
        [scipy.linalg.eigh(herm(a[i]), herm(b[i]), eigvals_only=True) for i in range(rule.n)]
    )


def _path(degs, k, seed):
    sb = basis(BundleSpec(degs), k)
    rng = np.random.default_rng(seed)
    return BergmanPath(sb, rand_pd(rng, sb.N, 0.4), rand_pd(rng, sb.N, 0.4))


@pytest.mark.parametrize("degs", [(2, 2), (2, 1, 0)])
def test_bergman_integrand_matches_einsum_reference(degs, rule16):
    path = _path(degs, 2, 3)
    ts = np.concatenate([[0.0, 1.0], _gl_nodes(8)[0]])
    got = path.deriv_integrand(ts, rule16)
    ref = np.array([_deriv_integrand_reference(path, t, rule16) for t in ts])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_bergman_integrand_scalar_equals_batched_entry(rule16):
    path = _path((2, 2), 2, 4)
    ts = _gl_nodes(8)[0]
    batched = path.deriv_integrand(ts, rule16)
    for t, v in zip(ts, batched):
        scalar = path.deriv_integrand(t, rule16)
        assert isinstance(scalar, float)
        assert scalar == v


def test_bergman_integrand_chunking_is_bitwise(rule24, monkeypatch):
    # 576 nodes: 4096 // 576 = 7 t-nodes per chunk, so 16 nodes take 3
    path = _path((2, 1, 0), 2, 5)
    ts = _gl_nodes(16)[0]
    assert len(ts) > donaldson_mod._MAX_POINTS // rule24.n
    chunked = path.deriv_integrand(ts, rule24)
    per_t = np.array([path.deriv_integrand(t, rule24) for t in ts])
    monkeypatch.setattr(donaldson_mod, "_MAX_POINTS", len(ts) * rule24.n)
    unchunked = path.deriv_integrand(ts, rule24)
    assert np.array_equal(chunked, per_t)
    assert np.array_equal(chunked, unchunked)


def _metric_pairs(rule):
    spec = BundleSpec((2, 2))
    sb = basis(spec, 2)
    rng = np.random.default_rng(6)
    h_a = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    h_b = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    std = trivial_metric(spec)
    yield h_a, std
    yield h_a, h_b
    yield GeodesicMetric(h_a, std, 0.4), h_b
    spec3 = BundleSpec((2, 1, 0))
    sb3 = basis(spec3, 2)
    yield FSMetric(sb3, G=l2_gram(sb3, trivial_metric(spec3), rule).matrix), trivial_metric(spec3)
    # rank 3 against a non-diagonal reference exercises the full reduction
    yield FSMetric(sb3, G=rand_pd(rng, sb3.N, 0.3)), FSMetric(sb3, G=rand_pd(rng, sb3.N, 0.3))


def test_relative_eigs_match_scipy(rule16):
    for h, h0 in _metric_pairs(rule16):
        got = _relative_eigs(h, h0, rule16)
        ref = _relative_eigs_reference(h, h0, rule16)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_relative_eigs_bitwise_against_diagonal_reference(rule24):
    # the solver normalizes against the diagonal standard metric by a
    # minimum over nodes; there the batched values are scipy's exactly
    for h, h0 in _metric_pairs(rule24):
        if not isinstance(h0, FSMetric):
            assert np.array_equal(
                _relative_eigs(h, h0, rule24), _relative_eigs_reference(h, h0, rule24)
            )


def test_standard_metric_batch_matches_pointwise(rule16):
    h = trivial_metric(BundleSpec((2, -1, 0)))
    batched = h.evaluate_batch(rule16.charts, rule16.coords)
    for i, p in enumerate(rule16.nodes):
        degs = np.array(h.bundle.degrees, dtype=float)
        assert np.array_equal(batched[i], np.diag((1.0 + abs(p.coord) ** 2) ** -degs))
        assert np.array_equal(h.evaluate(p), batched[i])


def test_he_residual_sup_equals_per_node_loop(rule16):
    for h, _ in _metric_pairs(rule16):
        lam = contracted_curvature_batch(h, rule16)
        hv = h.evaluate_batch(rule16.charts, rule16.coords)
        res = lam - float(h.bundle.slope) * np.eye(h.bundle.rank)
        hinv = np.linalg.inv(hv)
        res_h = 0.5 * (res + hinv @ np.transpose(res, (0, 2, 1)).conj() @ hv)
        ref = float(max(np.linalg.norm(m, 2) for m in res_h))
        assert he_residual(h, rule16)["sup"] == ref


def test_bergman_kernel_sups_equal_per_node_loop(rule16):
    rng = np.random.default_rng(7)
    sb0 = basis(BundleSpec((1, 0)), 1)
    h = FSMetric(sb0, G=rand_pd(rng, sb0.N, 0.3))
    for k in (1, 3):
        rep = bergman_kernel(h, k, rule16)
        sb = basis(h.bundle, k)
        fv = FSMetric(sb, G=rep["gram"].matrix).evaluate_batch(rule16.charts, rule16.coords)
        raw = h.evaluate_batch(rule16.charts, rule16.coords) @ np.linalg.inv(fv)
        r = h.bundle.rank
        tilde = (r * 1.0 / sb.N) * raw
        assert rep["sup_dev"] == float(max(np.linalg.norm(m - np.eye(r), 2) for m in tilde))
        assert rep["raw_sup_dev"] == float(
            max(np.linalg.norm(m - (sb.N / r) * np.eye(r), 2) for m in raw)
        )
