"""Section bases, L2 forms, Fubini-Study metrics, and Bergman kernels."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from _utils import at, rand_pd, run_at_blas_threads, standard_metric, transition_matrix
from hebundle.bundle import (
    BundleSpec,
    _equilibrated_inverse,
    _mat_mul,
    fd_curvature_batch,
    fd_stencil,
    regularity,
)
from hebundle.geometry import build_quadrature, canonical_points
from hebundle.sections import (
    FSMetric,
    _fs_moments,
    _section_pairing,
    basis,
    bergman_kernel,
    eval_matrix_batch,
    l2_gram,
    node_sections,
    trivial_metric,
)


def test_basis_dimension():
    # dim H0(E(k)) = rank*(k+1) + deg for k at or above the regularity
    for degs, k in (((0,), 3), ((1, -1), 1), ((2, 2), 2), ((3,), -2)):
        spec = BundleSpec(degs)
        sb = basis(spec, k)
        assert sb.N == spec.rank * (k + 1) + spec.deg
        assert len(sb.entries) == sb.N


def test_basis_below_regularity_rejected():
    with pytest.raises(ValueError):
        basis(BundleSpec((1, -1)), 0)


def test_eval_matrix_charts():
    sb = basis(BundleSpec((1, -1)), 1)
    # chart Z at z: row 0 holds z^j for j = 0..2, row 1 holds 1
    (S, Sw), _ = eval_matrix_batch(sb, np.array([True, False]), np.array([2.0, 2.0]))
    assert np.allclose(S[0, :3], [1.0, 2.0, 4.0])
    assert np.allclose(S[1, 3], 1.0)
    # chart W flips the exponent to degree minus j
    assert np.allclose(Sw[0, :3], [4.0, 2.0, 1.0])


def test_l2_gram_exact_monomial_values(rule24):
    # on O(0) at level d with the flat metric the basis monomials have
    # <z^i, z^j> = delta_ij * i! (d-i)! / (d+1)!
    d = 4
    sb = basis(BundleSpec((0,)), d)
    G = l2_gram(sb, standard_metric(sb.bundle), rule24)
    exact = [
        math.factorial(j) * math.factorial(d - j) / math.factorial(d + 1)
        for j in range(d + 1)
    ]
    assert np.max(np.abs(np.diag(G).real - exact)) < 1e-14
    assert np.max(np.abs(G - np.diag(np.diag(G)))) < 1e-14


def test_l2_gram_rejects_degenerate_rule():
    # O(0) at k = 20 has 21 sections; 16 nodes cannot separate them
    sb = basis(BundleSpec((0,)), 20)
    with pytest.raises(RuntimeError, match="degenerate L2 form"):
        l2_gram(sb, standard_metric(sb.bundle), build_quadrature(4, 4))


def test_fs_metric_identity_form_closed_form():
    # on O(0) with G = Id the induced metric is (1+|z|^2)^k / sum |z|^{2j}
    k = 3
    sb = basis(BundleSpec((0,)), k)
    h = FSMetric(sb, G=np.eye(sb.N))
    for z in (0.0, 0.5, 0.2 - 0.7j):
        denom = sum(abs(z) ** (2 * j) for j in range(k + 1))
        want = (1.0 + abs(z) ** 2) ** k / denom
        got = at(h, z)[0, 0].real
        assert got == pytest.approx(want, rel=1e-12)


def test_fs_metric_glues_across_charts():
    spec = BundleSpec((1, -1))
    sb = basis(spec, 2)
    rng = np.random.default_rng(11)
    h = FSMetric(sb, G=rand_pd(rng, sb.N))
    z = 0.6 + 0.5j
    hz = h.evaluate(np.array([True]), np.array([z]))[0]
    hw = h.evaluate(np.array([False]), np.array([1.0 / z]))[0]
    T = transition_matrix(spec, z)
    assert np.allclose(hw, T.conj().T @ hz @ T, atol=1e-10)


def test_fs_metric_ginv_factor_roundtrip():
    sb = basis(BundleSpec((0,)), 2)
    rng = np.random.default_rng(4)
    G = rand_pd(rng, sb.N)
    h1 = FSMetric(sb, G=G)
    h2 = FSMetric(sb, ginv_factor=h1.W)
    assert np.allclose(at(h1, 0.3 + 0.1j), at(h2, 0.3 + 0.1j), atol=1e-12)
    assert np.allclose(h2.G, G, atol=1e-12)


def test_fs_closed_form_curvature_matches_fd(rule16):
    spec = BundleSpec((1, 0))
    sb = basis(spec, 2)
    rng = np.random.default_rng(9)
    h = FSMetric(sb, G=rand_pd(rng, sb.N))
    charts, coords = canonical_points([0.1, 0.5j, -0.4 + 0.3j])
    closed = h.curvature_coeff(charts, coords)
    fd = fd_curvature_batch(*fd_stencil(h.evaluate, charts, coords))
    for i in range(3):
        assert np.allclose(closed[i], fd[i], atol=1e-6)


def test_fs_connection_matches_fd():
    sb = basis(BundleSpec((2,)), 1)
    rng = np.random.default_rng(13)
    h = FSMetric(sb, G=rand_pd(rng, sb.N))
    charts, coords = canonical_points([0.35 - 0.2j])
    closed = h.connection_coeff(charts, coords)[0]
    # compare the closed form against finite differences of the metric
    x0 = complex(coords[0])
    dl = 1e-4
    offs = np.array([-2, -1, 0, 1, 2])
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    vx = np.array([h.evaluate(charts, np.array([x0 + o * dl]))[0] for o in offs])
    vy = np.array([h.evaluate(charts, np.array([x0 + 1j * o * dl]))[0] for o in offs])
    hz = 0.5 * (
        np.tensordot(w1, vx, axes=(0, 0)) - 1j * np.tensordot(w1, vy, axes=(0, 0))
    ) / dl
    assert np.allclose(closed, np.linalg.solve(vx[2], hz), atol=1e-7)


def test_fs_identity_defect_small():
    # the sum of s_i (x) s_i^* over a G-orthonormal basis is the identity:
    # S G^-1 S* h_k = Id, with h_k the FS metric on E(k)
    sb = basis(BundleSpec((1, -1)), 1)
    rng = np.random.default_rng(2)
    G = rand_pd(rng, sb.N)
    charts, coords = canonical_points([0.0, 0.7, 0.4j])
    S, _ = eval_matrix_batch(sb, charts, coords)
    ekphi = (1.0 + np.abs(coords) ** 2) ** sb.k
    hk = FSMetric(sb, G=G).evaluate(charts, coords) / ekphi[:, None, None]
    total = S @ np.linalg.inv(G) @ np.swapaxes(S, 1, 2).conj() @ hk
    for defect in np.linalg.norm(total - np.eye(sb.bundle.rank), axis=(1, 2)):
        assert defect < 1e-10


def _exact_standard(degs, coords):
    """diag((1+|x|^2)^(-a_i)) at every point, each entry the float
    nearest its exact rational value."""
    q = [Fraction(x.real) ** 2 + Fraction(x.imag) ** 2 for x in coords.tolist()]
    out = np.zeros((len(q), len(degs), len(degs)))
    for i, a in enumerate(degs):
        out[:, i, i] = [float((1 + t) ** -a) for t in q]
    return out


# the rounding of the section powers and of (1+|x|^2)^k grows with the
# level: on this rule the largest errors are 4.2 eps and 1.9e-14 at the
# regularity + 3 levels, and 3.3 eps and 8.7e-15 below them
@pytest.mark.parametrize("degs", [(3,), (1, -1), (2, 1, 0), (2, -1, 0), (0,)])
def test_trivial_metric_is_the_binomial_fs_metric(degs, rule24):
    # the standard metric at every level from the regularity up, negative
    # ones included, in both charts, with closed-form curvature diag(a_i)
    spec = BundleSpec(degs)
    assert rule24.charts.any() and not rule24.charts.all()
    ref, eps = _exact_standard(degs, rule24.coords), np.finfo(float).eps
    for k in range(regularity(spec), regularity(spec) + 4):
        h = trivial_metric(basis(spec, k))
        assert isinstance(h, FSMetric)
        hv, lam = h.evaluate_with_curvature(rule24.charts, rule24.coords)
        assert np.all(np.abs(hv - ref) <= 6 * eps * ref), k
        assert np.max(np.abs(lam - np.diag(np.array(degs, dtype=float)))) <= 3e-14, k


def test_bergman_kernel_flat_line_bundle(rule24):
    # the flat metric on O(0) is balanced: raw kernel is (k+1) Id
    (rep,) = bergman_kernel(standard_metric(BundleSpec((0,))), [4], rule24)
    assert rep["N"] == 5
    assert rep["raw_sup_dev"] < 1e-9
    assert rep["sup_dev"] < 1e-9
    # the raw kernel h fs^-1 at a point, with fs the FS metric of the L2 form
    h = standard_metric(BundleSpec((0,)))
    fs = FSMetric(basis(h.bundle, 4), G=rep["gram"])
    raw = at(h, 0.3) @ np.linalg.inv(at(fs, 0.3))
    assert raw[0, 0].real == pytest.approx(5.0, abs=1e-9)


def test_bergman_kernel_decreasing_for_smooth_metric(rule24):
    sb3 = basis(BundleSpec((0,)), 3)
    rng = np.random.default_rng(7)
    h = FSMetric(sb3, G=rand_pd(rng, sb3.N, scale=0.5))
    d1, d2 = (rep["sup_dev"] for rep in bergman_kernel(h, [4, 8], rule24))
    assert d2 < d1


def test_fs_pointwise_bound_audit():
    # with G = e^zeta G0 e^zeta, each diagonal entry of the induced metric
    # lies between e^{-2||zeta||op} and e^{+2||zeta||op} times the
    # unperturbed entry
    sb = basis(BundleSpec((0,)), 2)
    rng = np.random.default_rng(21)
    G0 = rand_pd(rng, sb.N)
    Z = rng.normal(size=(sb.N, sb.N)) + 1j * rng.normal(size=(sb.N, sb.N))
    zeta = 0.2 * (Z + Z.conj().T)
    ez = scipy.linalg.expm(zeta)
    gz = ez.conj().T @ G0 @ ez
    opn = np.linalg.norm(zeta, 2)
    charts, coords = canonical_points([0.0, 0.5, 0.9j, -0.6 + 0.2j])
    d0, dz = (
        np.diagonal(FSMetric(sb, G=g).evaluate(charts, coords), axis1=1, axis2=2).real
        for g in (G0, 0.5 * (gz + gz.conj().T))
    )
    assert np.min(dz / d0 - np.exp(-2.0 * opn)) >= -1e-10
    assert np.min(np.exp(2.0 * opn) - dz / d0) >= -1e-10


def test_fs_metric_helper():
    sb = basis(BundleSpec((0,)), 1)
    h = FSMetric(sb, G=np.eye(2))
    assert isinstance(h, FSMetric)
    assert np.array_equal(h.G, np.eye(2))


def _hpd_stack(rng, shape, r):
    """Well-conditioned random hermitian positive matrices, (*shape, r, r)."""
    X = rng.normal(size=shape + (r, r)) + 1j * rng.normal(size=shape + (r, r))
    return X @ np.swapaxes(X, -1, -2).conj() + r * np.eye(r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_entrywise_kernels_match_numpy(r):
    rng = np.random.default_rng(20 + r)
    A, B = _hpd_stack(rng, (3, 5), r), _hpd_stack(rng, (3, 5), r)
    for got, ref in ((_equilibrated_inverse(A), np.linalg.inv(A)), (_mat_mul(A, B), A @ B)):
        assert got.shape == ref.shape
        scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def _close_to(got, ref, rtol):
    """Each matrix of `got` within rtol of its reference's largest entry."""
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - ref) <= rtol * scale)


def test_mat_mul_plain_and_rectangular_products():
    rng = np.random.default_rng(31)
    X, Y = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in ((2, 4), (4, 3)))
    assert np.array_equal(_mat_mul(X, Y), X @ Y)  # no batch axis: numpy's own product
    Xs = rng.normal(size=(6, 2, 4)) + 1j * rng.normal(size=(6, 2, 4))
    _close_to(_mat_mul(Xs, Y), Xs @ Y, 1e-13)
    _close_to(_mat_mul(Y.T, Xs.swapaxes(-1, -2)), Y.T @ Xs.swapaxes(-1, -2), 1e-13)


@pytest.mark.parametrize("r, N", [(1, 2), (1, 18), (2, 6), (2, 10), (3, 9), (3, 18)])
def test_fs_moments_match_numpy_and_do_not_depend_on_the_batch(r, N):
    rng = np.random.default_rng(40 + 3 * r + N)
    T, T1 = (rng.normal(size=(4, 7, r, N)) + 1j * rng.normal(size=(4, 7, r, N)) for _ in "ab")
    got = _fs_moments(T, T1)
    assert len(got) == 3 and np.array_equal(_fs_moments(T)[0], got[0])  # A alone: the same bits
    Tc, T1c = (np.swapaxes(M, -1, -2).conj() for M in (T, T1))
    for g, ref in zip(got, (T @ Tc, T1 @ Tc, T1 @ T1c)):
        _close_to(g, ref, 1e-13)
    # the per-t slices, and a lone matrix, which takes the zero-partner path
    for m in range(4):
        assert all(np.array_equal(g[m], p) for g, p in zip(got, _fs_moments(T[m], T1[m])))
    lone = _fs_moments(T[2, 5:6], T1[2, 5:6])
    assert all(np.array_equal(g[2, 5:6], p) for g, p in zip(got, lone))


def test_equilibrated_inverse_raises_when_rank_deficient():
    A = _hpd_stack(np.random.default_rng(30), (4,), 2)
    zero_row = A.copy()
    zero_row[2, 1, :] = zero_row[2, :, 1] = 0.0  # a zero diagonal entry
    with pytest.raises(RuntimeError, match="rank-deficient"):
        _equilibrated_inverse(zero_row)
    singular = A.copy()
    singular[1] = [[1.0, 1.0], [1.0, 1.0]]  # unit diagonal, zero pivot
    with pytest.raises(RuntimeError, match="rank-deficient"):
        _equilibrated_inverse(singular)


@pytest.mark.parametrize("degs, k", [((1, 0, -1), 1), ((2, 1), 2), ((3,), 1)])
def test_section_pairing_matches_dense_einsum(degs, k, rule16):
    # the node sum as one product per summand against Σ_n w density S* X S
    # formed by a dense einsum, on a non-hermitian field and a density per node
    rng = np.random.default_rng(50 + k)
    sb, r = basis(BundleSpec(degs), k), len(degs)
    rule, S, _, rows, s = node_sections(sb, rule16)
    X = rng.normal(size=(rule.n, r, r)) + 1j * rng.normal(size=(rule.n, r, r))
    density = rng.uniform(0.5, 2.0, size=rule.n)
    got = _section_pairing(rule, X, density, rows, s)
    ref = np.einsum("n,nji,njl,nlm->im", rule.weights * density, S.conj(), X, S)
    ref = 0.5 * (ref + ref.conj().T)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# the pairing of a random field on a 64x64 rule over O(1)+O(0)+O(-1) at
# k = 1, whose O(-1) summand has one section, so that summand's product
# has one row; and over O(12)+O(10) at k = 8, whose (21 x 4096) by
# (4096 x 40) and (19 x 4096) by (4096 x 40) products OpenBLAS runs on
# both threads when it has two
_PAIRING_HASH = """
import hashlib
import numpy as np
from hebundle.bundle import BundleSpec
from hebundle.geometry import build_quadrature
from hebundle.sections import _section_pairing, basis, node_sections
for degs, k in (((1, 0, -1), 1), ((12, 10), 8)):
    sb, r = basis(BundleSpec(degs), k), len(degs)
    rule, _, _, rows, s = node_sections(sb, build_quadrature(64, 64))
    rng = np.random.default_rng(3)
    X = rng.normal(size=(rule.n, r, r)) + 1j * rng.normal(size=(rule.n, r, r))
    print(sb.N, hashlib.sha256(_section_pairing(rule, X, 1.0, rows, s).tobytes()).hexdigest())
"""


def test_section_pairing_is_independent_of_blas_threads():
    outs = [run_at_blas_threads(threads, "-c", _PAIRING_HASH).split() for threads in ("1", "2")]
    assert outs[0][::2] == ["6", "40"] and len(outs[0]) == 4
    assert outs[0] == outs[1]
