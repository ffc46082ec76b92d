"""Bundle arithmetic, metric evaluators, geodesics, and curvature."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _utils import ExplicitMetric, rand_pd, standard_metric, transition_matrix
from hebundle import bundle as bundle_mod
from hebundle.bundle import (
    BundleSpec,
    GeodesicMetric,
    _equilibrated_inverse,
    _geodesic_at,
    _geodesic_parts,
    _hermitize,
    _node_eigh,
    _node_eigvalsh,
    _relative_eigs,
    _whitening,
    delta_boundedness,
    fd_curvature_batch,
    fd_stencil,
    geodesic_log_batch,
    he_residual,
    regularity,
)
from hebundle.geometry import canonical_points, contract_batch
from hebundle.sections import FSMetric, basis
from hebundle.solver import _normalize


def test_spec_arithmetic():
    spec = BundleSpec((1, -1))
    assert spec.rank == 2 and spec.deg == 0
    assert spec.slope == Fraction(0)
    spec2 = BundleSpec((3, 2))
    assert spec2.slope == Fraction(5, 2)
    assert isinstance(spec2.slope, Fraction)


def test_regularity():
    assert regularity(BundleSpec((1, -1))) == 1
    assert regularity(BundleSpec((0,))) == 0
    assert regularity(BundleSpec((3,))) == -3
    assert regularity(BundleSpec((-2, -5))) == 5


def test_spec_validation():
    with pytest.raises(ValueError):
        BundleSpec(())


def test_transition_matrix():
    spec = BundleSpec((2, -1))
    T = transition_matrix(spec, 2.0)
    assert np.allclose(T, np.diag([4.0, 0.5]))


def test_trivial_metric_glues_across_charts():
    # h_W(w) = T(z)^* h_Z(z) T(z) with T = diag(z^{a_i}), w = 1/z
    spec = BundleSpec((2, -1))
    h = standard_metric(spec)
    z = 0.8 + 0.3j
    hz = h.evaluate(np.array([True]), np.array([z]))[0]
    hw = h.evaluate(np.array([False]), np.array([1.0 / z]))[0]
    T = transition_matrix(spec, z)
    assert np.allclose(hw, T.conj().T @ hz @ T, atol=1e-12)


def test_trivial_metric_curvature():
    # the standard metric on O(a) has constant contracted curvature a
    for a in (0, 1, 3, -2):
        h = standard_metric(BundleSpec((a,)))
        for z in (0.0, 0.5, 0.3 - 0.6j):
            charts, coords = canonical_points([z])
            F = fd_curvature_batch(*fd_stencil(h.evaluate, charts, coords))
            lam = contract_batch(F, coords)[0]
            assert lam[0, 0].real == pytest.approx(a, abs=5e-8)


def test_trivial_metric_is_hermitian_einstein(rule24):
    assert he_residual(standard_metric(BundleSpec((3,))), rule24) < 1e-7


def test_he_residual_of_unbalanced_split(rule24):
    # O(1) + O(-1) has contracted curvature diag(1, -1) and slope 0,
    # so the defect field has pointwise 2-norm 1
    res = he_residual(standard_metric(BundleSpec((1, -1))), rule24)
    assert res == pytest.approx(1.0, abs=1e-6)


def test_fd_curvature_batch_matches_pointwise(rule16):
    h = standard_metric(BundleSpec((2, 0)))
    F = fd_curvature_batch(*fd_stencil(h.evaluate, rule16.charts[:5], rule16.coords[:5]))
    for i in range(5):
        charts, coords = rule16.charts[i : i + 1], rule16.coords[i : i + 1]
        one = fd_curvature_batch(*fd_stencil(h.evaluate, charts, coords))
        assert np.array_equal(F[i], one[0])


def test_scaled_metric_curvature_unchanged(rule16):
    # constant rescaling does not change the curvature
    sb = basis(BundleSpec((0,)), 2)
    h = FSMetric(sb, G=np.eye(sb.N))
    s = FSMetric(sb, G=7.0 * h.G)
    a = h.evaluate_with_curvature(rule16.charts, rule16.coords)[1]
    b = s.evaluate_with_curvature(rule16.charts, rule16.coords)[1]
    assert np.allclose(a, b)


def _interpolate(h0, h1, s):
    """exp(s log(h1 h0^-1)) h0, batched over leading axes."""
    return _geodesic_at(_geodesic_parts(h0, h1), s)


def test_geodesic_endpoints_and_midpoint():
    rng = np.random.default_rng(3)
    h0 = rand_pd(rng, 3)
    h1 = rand_pd(rng, 3)
    assert np.allclose(_interpolate(h0, h1, 0.0), h0, atol=1e-12)
    assert np.allclose(_interpolate(h0, h1, 1.0), h1, atol=1e-12)
    # the path is symmetric under (h0, h1, s) -> (h1, h0, 1-s)
    assert np.allclose(
        _interpolate(h0, h1, 0.3),
        _interpolate(h1, h0, 0.7),
        atol=1e-12,
    )


def test_geodesic_commuting_case():
    d0 = np.diag([1.0, 2.0])
    d1 = np.diag([4.0, 3.0])
    got = _interpolate(d0, d1, 0.5)
    assert np.allclose(got, np.diag([2.0, np.sqrt(6.0)]), atol=1e-12)


def test_geodesic_batch_matches_pointwise():
    rng = np.random.default_rng(5)
    h0 = np.stack([rand_pd(rng, 2) for _ in range(4)])
    h1 = np.stack([rand_pd(rng, 2) for _ in range(4)])
    got = _interpolate(h0, h1, 0.4)
    for i in range(4):
        assert np.allclose(got[i], _interpolate(h0[i], h1[i], 0.4), atol=1e-12)


def test_geodesic_log_batch_recovers_endpoint():
    rng = np.random.default_rng(6)
    h0 = np.stack([rand_pd(rng, 3) for _ in range(3)])
    h1 = np.stack([rand_pd(rng, 3) for _ in range(3)])
    v = geodesic_log_batch(_geodesic_parts(h0, h1))
    import scipy.linalg

    for i in range(3):
        assert np.allclose(h0[i] @ scipy.linalg.expm(v[i]), h1[i], atol=1e-10)


@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_geodesic_stays_positive_definite(seed, s):
    rng = np.random.default_rng(seed)
    h0 = rand_pd(rng, 3, scale=0.6)
    h1 = rand_pd(rng, 3, scale=0.6)
    hs = _interpolate(h0, h1, s)
    assert np.allclose(hs, hs.conj().T)
    assert np.min(np.linalg.eigvalsh(hs)) > 0


def test_geodesic_metric_bundle_check():
    h0 = standard_metric(BundleSpec((1,)))
    h1 = standard_metric(BundleSpec((2,)))
    with pytest.raises(ValueError):
        GeodesicMetric(h0, h1, 0.5)


def test_scale_normalize_and_delta(rule16):
    spec = BundleSpec((0, 0))
    h0 = standard_metric(spec)
    # on (0, 0) at k = 0 the sections are the frame, so FS(G0) = Id
    sb, G0 = basis(spec, 0), np.eye(2)
    values = FSMetric(sb, G=3.0 * G0).evaluate(rule16.charts, rule16.coords)
    ref = h0.evaluate(rule16.charts, rule16.coords)
    assert np.allclose(_normalize(3.0 * G0, values, _whitening(ref)), G0, rtol=0, atol=1e-12)
    h = ExplicitMetric(spec, lambda chart, x: 3.0 * np.eye(2))
    # constant multiples have delta-ratio 1
    assert delta_boundedness(h, h0, rule16) == pytest.approx(1.0, abs=1e-12)


def test_delta_boundedness_of_skewed_metric(rule16):
    spec = BundleSpec((0, 0))
    h0 = standard_metric(spec)
    h = ExplicitMetric(spec, lambda chart, x: np.diag([1.0, 4.0]))
    assert delta_boundedness(h, h0, rule16) == pytest.approx(0.25, abs=1e-12)


_EPS = np.finfo(float).eps


def _eigh_cases(rng):
    """Hermitian 2 x 2 inputs of `_node_eigh`: a random stack (indefinite
    ones among them), diagonal stacks with a < d and with a > d, scalar
    ones (a = d, b = 0; zero and negative included) and one unbatched
    matrix."""
    def diagonal(a, d):
        H = np.zeros((len(a), 2, 2), dtype=complex)
        H[:, 0, 0], H[:, 1, 1] = a, d
        return H

    X = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    return {
        "random": _hermitize(X * np.exp(rng.uniform(-5, 5, size=(500, 1, 1)))),
        "diagonal a < d": diagonal([-1.0, 1e-3, 2.0], [5.0, 1e3, 2.5]),
        "diagonal a > d": diagonal([2.0, 3.0, 1e3], [0.5, -4.0, 1e-3]),
        "scalar": diagonal([2.5, 0.0, -3.0, 1e-300], [2.5, 0.0, -3.0, 1e-300]),
        "unbatched": _hermitize(X[0]),
    }


@pytest.mark.parametrize("case", ["random", "diagonal a < d", "diagonal a > d", "scalar",
                                  "unbatched"])
def test_node_eigh_matches_lapack(case):
    H = _eigh_cases(np.random.default_rng(11))[case]
    w, V = _node_eigh(H)
    assert w.shape == H.shape[:-1] and V.shape == H.shape
    assert np.array_equal(_node_eigvalsh(H), w)
    tol = 8 * _EPS * np.linalg.norm(H, 2, axis=(-2, -1))
    assert np.all(np.abs(w - np.linalg.eigvalsh(H)).max(axis=-1) <= tol)
    assert np.all(np.linalg.norm(H @ V - V * w[..., None, :], 2, axis=(-2, -1)) <= tol)
    assert np.all(np.abs(np.swapaxes(V, -1, -2).conj() @ V - np.eye(2)) <= 8 * _EPS)


def _ill_conditioned_pd(rng, cond, kind, n=400):
    """Positive 2 x 2 stacks of condition about `cond`, scaled by 1e-3 to
    1e3: U diag(1, 1/cond) U* for random unitary U ("rotated"), or
    D K D for D = diag(1, cond^-1/2) and K = [[1, c], [c*, 1]], |c| < 0.9
    ("graded"), where (a + d)/2 - hypot((a - d)/2, |b|) cancels."""
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    if kind == "rotated":
        theta = rng.uniform(0, np.pi / 2, n)
        c, s = np.cos(theta), np.sin(theta)
        U = np.empty((n, 2, 2), dtype=complex)
        U[:, 0, 0], U[:, 0, 1], U[:, 1, 0], U[:, 1, 1] = c, -phase.conj() * s, phase * s, c
        H = _hermitize((U * np.array([1.0, 1.0 / cond])) @ np.swapaxes(U, -1, -2).conj())
    else:
        H = np.empty((n, 2, 2), dtype=complex)
        H[:, 0, 0], H[:, 1, 1] = 1.0, 1.0 / cond
        H[:, 0, 1] = rng.uniform(0, 0.9, n) * phase / np.sqrt(cond)
        H[:, 1, 0] = H[:, 0, 1].conj()
    return H * np.exp(rng.uniform(-3, 3, size=(n, 1, 1)) * np.log(10))


def _least_eig_mp(H) -> float:
    """The least eigenvalue of one 2 x 2 float matrix, read as exact, at
    60 digits: its determinant over the larger eigenvalue."""
    with mpmath.workdps(60):
        a, d, b = mpmath.mpf(H[0, 0].real), mpmath.mpf(H[1, 1].real), mpmath.mpc(H[0, 1])
        big = (a + d) / 2 + mpmath.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        return float((a * d - abs(b) ** 2) / big)


@pytest.mark.parametrize("kind", ["rotated", "graded"])
@pytest.mark.parametrize("cond", [1e4, 1e8, 1e12, 1e15])
def test_node_eigvalsh_keeps_ill_conditioned_least_eigenvalues(cond, kind):
    # the determinant form of dlaev2 keeps the least eigenvalue of a
    # nearly singular positive matrix positive and as accurate as LAPACK's;
    # m - hypot loses it to cancellation on the graded stacks
    H = _ill_conditioned_pd(np.random.default_rng(int(np.log10(cond))), cond, kind)
    exact = np.array([_least_eig_mp(h) for h in H])
    assert np.all(exact > 0)
    got = _node_eigvalsh(H)[:, 0]
    assert np.all(got > 0)
    lapack = np.linalg.eigvalsh(H)[:, 0]
    assert np.max(np.abs(got - exact) / exact) <= 2 * np.max(np.abs(lapack - exact) / exact)


def test_node_eigh_of_one_point_is_its_row_of_a_stack():
    H = _eigh_cases(np.random.default_rng(12))["random"][:37]
    w, V = _node_eigh(H)
    for i in range(len(H)):
        for one in (H[i], H[i : i + 1]):
            wi, Vi = _node_eigh(one)
            assert np.array_equal(wi.reshape(2), w[i]) and np.array_equal(Vi.reshape(2, 2), V[i])
            assert np.array_equal(_node_eigvalsh(one).reshape(2), w[i])


def test_node_eigh_at_rank_one_is_lapack_bit_for_bit():
    rng = np.random.default_rng(13)
    H = rng.normal(size=(5000, 1, 1)) + 1j * rng.normal(size=(5000, 1, 1))
    w, V = _node_eigh(H)
    w_ref, V_ref = np.linalg.eigh(H)
    assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref) and V.dtype == V_ref.dtype
    assert np.array_equal(_node_eigvalsh(H), np.linalg.eigvalsh(H))


def test_rank_one_normalization_and_geodesic_keep_lapack_bits(monkeypatch):
    # a Barzilai-Borwein solve's iteration count can move with one ulp of
    # the normalization (criterion 8's O(3) solve); at r = 1 the kernels
    # must leave `_relative_eigs` and `_geodesic_parts` LAPACK's bits
    rng = np.random.default_rng(14)
    a, b = (np.exp(rng.normal(size=(400, 1, 1))) + 1e-3j * rng.normal(size=(400, 1, 1))
            for _ in range(2))
    got = [_relative_eigs(a, _whitening(b)), *_geodesic_parts(a, b)]
    monkeypatch.setattr(bundle_mod, "_node_eigh", np.linalg.eigh)
    monkeypatch.setattr(bundle_mod, "_node_eigvalsh", np.linalg.eigvalsh)
    ref = [_relative_eigs(a, _whitening(b)), *_geodesic_parts(a, b)]
    for x, y in zip(got, ref):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("r", [1, 2])
def test_equilibrated_inverse_matches_lapack(r):
    # r = 2 is the closed form, r = 1 the Gauss-Jordan's one pivot
    rng = np.random.default_rng(60 + r)
    X = rng.normal(size=(300, r, r)) + 1j * rng.normal(size=(300, r, r))
    # a well-conditioned M scaled by D = diag(10^u), u in [-3, 3]: the
    # condition numbers reach 1e12, and the equilibration removes D
    M = X @ np.swapaxes(X, -1, -2).conj() + 0.1 * np.eye(r)
    d = 10.0 ** rng.uniform(-3.0, 3.0, size=(300, r))
    A = d[:, :, None] * M * d[:, None, :]
    assert r == 1 or np.linalg.cond(A).max() > 1e11
    got, ref = _equilibrated_inverse(A), np.linalg.inv(A)
    # each entry against its natural scale, sqrt(ref_ii ref_jj)
    dg = np.sqrt(np.diagonal(ref, axis1=-2, axis2=-1).real)
    assert np.all(np.abs(got - ref) <= 1e-13 * dg[:, :, None] * dg[:, None, :])
    assert np.array_equal(got, np.swapaxes(got, -1, -2).conj())
    # eigenvalues 1 and 10^-e in a random basis: the equilibrated matrix
    # itself has condition numbers up to 1e12, and both inverses lose
    # cond * eps of it
    U = np.linalg.qr(X)[0]
    w = np.ones((300, r))
    w[:, -1] = 10.0 ** -rng.uniform(0.0, 12.0, size=300)
    A = _hermitize((U * w[:, None, :]) @ np.swapaxes(U, -1, -2).conj())
    got, ref = _equilibrated_inverse(A), np.linalg.inv(A)
    err = np.max(np.abs(got - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    assert np.all(err <= 8 * np.finfo(float).eps * np.linalg.cond(A))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_equilibrated_inverse_of_one_point_is_its_row_of_a_stack(r):
    rng = np.random.default_rng(70 + r)
    X = rng.normal(size=(64, r, r)) + 1j * rng.normal(size=(64, r, r))
    A = X @ np.swapaxes(X, -1, -2).conj() + 0.1 * np.eye(r)
    inv = _equilibrated_inverse(A)
    for i in range(len(A)):
        assert np.array_equal(_equilibrated_inverse(A[i]), inv[i])
        assert np.array_equal(_equilibrated_inverse(A[i : i + 1])[0], inv[i])


@pytest.mark.parametrize(
    "M",
    [
        [[0.0]],
        [[-2.0]],
        [[1.0, 1.0], [1.0, 1.0]],  # singular: 1 - |b|^2 = 0
        [[4.0, 2.0j], [-2.0j, 1.0]],  # singular after equilibration
        [[1.0, 2.0], [2.0, 1.0]],  # indefinite, eigenvalues 3 and -1
        [[1.0, 0.6, 0.6], [0.6, 1.0, -0.6], [0.6, -0.6, 1.0]],  # eigenvalue -0.2
    ],
)
def test_equilibrated_inverse_refuses_matrices_that_are_not_positive(M):
    # alone and as one matrix of a positive stack; a pivot test of == 0
    # would let the two indefinite ones through
    M = np.array(M, dtype=complex)
    stack = np.repeat(np.eye(len(M), dtype=complex)[None], 4, axis=0)
    stack[2] = M
    for A in (M, stack):
        with pytest.raises(RuntimeError, match="not positive definite"):
            _equilibrated_inverse(A)
