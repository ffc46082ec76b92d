"""Batched kernels against the per-node and per-t formulas they replace.

The reference functions below are the loop and einsum forms of the
Bergman path's energy integrand, the relative eigenvalues, the sup
norms, the convexity audit, the curvature-variation check and the
Poincare Rayleigh quotient; the batched code must agree with them to
1e-12 relative where the arithmetic changed, and exactly where it did
not.  The ray's integrand is checked against frozen high-precision
values instead: its per-t moment formula cancels at large t.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import hebundle.asymptotics as asymptotics_mod
import hebundle.bundle as bundle_mod
import hebundle.donaldson as donaldson_mod
import hebundle.sections as sections_mod
from _utils import ExplicitMetric, count_calls, escape_ray, rand_pd, standard_metric
from hebundle.asymptotics import OnePSRay, _deriv_at, mdon_along_ray, zeta_matrix
from hebundle.bundle import (
    BundleSpec,
    GeodesicMetric,
    _geodesic_at,
    _geodesic_parts,
    _mat_mul,
    _node_sup_norm,
    _relative_eigs,
    _whitening,
    fd_curvature_batch,
    fd_derivatives,
    fd_stencil,
    geodesic_log_batch,
    he_residual,
)
from hebundle.donaldson import (
    BergmanPath,
    PointwiseExponentialPath,
    curvature_variation_check,
    second_derivative_geodesic,
)
from hebundle.geometry import (
    build_quadrature,
    canonical_points,
    contract_batch,
    gauss_legendre01,
    integrate_values,
    tree_sum,
)
from hebundle.quot import WeightSpec
from hebundle.sections import (FSMetric, basis, bergman_kernel, eval_matrix_batch, l2_gram,
                               node_sections, trivial_metric)

_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFF = np.array([-2, -1, 0, 1, 2])


def _form_path(sb, G0, G1):
    """The FS metric at u of the form geodesic from G0 to G1, and the form
    K_u = G_u^-1 dG_u/du G_u^-1, as `curvature_variation_check` forms
    them."""
    base, lam = donaldson_mod._form_geodesic(G0, G1)

    def metric_at(u):
        return FSMetric(sb, ginv_factor=base * lam ** (-0.5 * u))

    def k_matrix(u):
        return (base * (lam ** (-u) * np.log(lam))) @ base.conj().T

    return metric_at, k_matrix


def _deriv_integrand_reference(sb, G0, G1, t, rule):
    """Per-t integrand through the metric at t and the 5-operand einsum."""
    metric_at, k_matrix = _form_path(sb, G0, G1)
    hm = metric_at(t)
    S, _, _, Ainv = hm._core(rule.charts, rule.coords)
    lamF = hm.evaluate_with_curvature(rule.charts, rule.coords)[1]
    res = lamF - float(sb.bundle.slope) * np.eye(sb.bundle.rank)
    vals = np.einsum("nij,jk,nlk,nlm,nmi->n", S, k_matrix(t), S.conj(), Ainv, res)
    return float(tree_sum(vals.real * rule.weights))


def _relative_eigs_reference(h, h0, rule):
    a = h.evaluate(rule.charts, rule.coords)
    b = h0.evaluate(rule.charts, rule.coords)
    herm = lambda m: 0.5 * (m + m.conj().T)
    return np.array(
        [scipy.linalg.eigh(herm(a[i]), herm(b[i]), eigvals_only=True) for i in range(rule.n)]
    )


def _forms(degs, k, seed, scale=0.4):
    sb = basis(BundleSpec(degs), k)
    rng = np.random.default_rng(seed)
    return sb, rand_pd(rng, sb.N, scale), rand_pd(rng, sb.N, scale)


def _path(degs, k, seed, rule):
    sb, G0, G1 = _forms(degs, k, seed)
    return BergmanPath(sb, G0, G1, node_sections(sb, rule))


# bundle -> log-scale of the random forms and relative tolerance.  The
# moments of the (1, -1) pair of log-scale 2 are sums of rank-one terms
# whose weights lam^-t span several decades, so they round apart from the
# per-t products S W_t (S W_t)* by more than the mild pairs do
_REFERENCE_CASES = {(2, 2): (0.4, 1e-12), (2, 1, 0): (0.4, 1e-12), (1, -1): (2.0, 1e-10)}


@pytest.mark.parametrize("degs", list(_REFERENCE_CASES))
def test_bergman_integrand_matches_einsum_reference(degs, rule16):
    scale, rtol = _REFERENCE_CASES[degs]
    sb, G0, G1 = _forms(degs, 2, 3, scale)
    ts = np.concatenate([[0.0, 1.0], gauss_legendre01(8)[0]])
    got = BergmanPath(sb, G0, G1, node_sections(sb, rule16)).deriv_integrand(ts)
    ref = np.array([_deriv_integrand_reference(sb, G0, G1, t, rule16) for t in ts])
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref))


def test_bergman_integrand_scalar_equals_batched_entry(rule16):
    path = _path((2, 2), 2, 4, rule16)
    ts = gauss_legendre01(8)[0]
    batched = path.deriv_integrand(ts)
    for t, v in zip(ts, batched):
        scalar = path.deriv_integrand(t)
        assert isinstance(scalar, float)
        assert scalar == v


def test_bergman_integrand_chunking_is_bitwise(rule24, monkeypatch):
    # 576 nodes: 4096 // 576 = 7 t-nodes per chunk, so 16 nodes take 3
    path = _path((2, 1, 0), 2, 5, rule24)
    ts = gauss_legendre01(16)[0]
    calls = count_calls(monkeypatch, path, "_nodes")
    chunked = path.deriv_integrand(ts)
    assert len(calls) == 3
    per_t = np.array([path.deriv_integrand(t) for t in ts])
    calls.clear()
    monkeypatch.setattr(bundle_mod, "_MAX_POINTS", len(ts) * rule24.n)
    unchunked = path.deriv_integrand(ts)
    assert len(calls) == 1
    assert np.array_equal(chunked, per_t)
    assert np.array_equal(chunked, unchunked)


def _metric_pairs(rule):
    spec = BundleSpec((2, 2))
    sb = basis(spec, 2)
    rng = np.random.default_rng(6)
    h_a = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    h_b = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    std = standard_metric(spec)
    yield h_a, std
    yield h_a, h_b
    yield GeodesicMetric(h_a, std, 0.4), h_b
    spec3 = BundleSpec((2, 1, 0))
    sb3 = basis(spec3, 2)
    yield FSMetric(sb3, G=l2_gram(sb3, trivial_metric(sb3), rule)), trivial_metric(sb3)
    # rank 3 against a non-diagonal reference exercises the full reduction
    yield FSMetric(sb3, G=rand_pd(rng, sb3.N, 0.3)), FSMetric(sb3, G=rand_pd(rng, sb3.N, 0.3))


def test_relative_eigs_match_scipy(rule16):
    for h, h0 in _metric_pairs(rule16):
        a, b = (m.evaluate(rule16.charts, rule16.coords) for m in (h, h0))
        got = _relative_eigs(a, _whitening(b))
        ref = _relative_eigs_reference(h, h0, rule16)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_standard_metric_batch_matches_pointwise(rule16):
    # the FS metric of the binomial form against the closed form
    # diag((1+|x|^2)^(-a_i)), to rounding
    h = standard_metric(BundleSpec((2, -1, 0)))
    batched = h.evaluate(rule16.charts, rule16.coords)
    degs = np.array(h.bundle.degrees, dtype=float)
    for i, (chart, x) in enumerate(zip(rule16.charts, rule16.coords)):
        ref = np.diag((1.0 + abs(complex(x)) ** 2) ** -degs)
        assert np.all(np.abs(batched[i] - ref) <= 4 * np.finfo(float).eps * np.abs(ref))
        assert np.array_equal(h.evaluate(np.array([chart]), np.array([x]))[0], batched[i])


def _l2_gram_reference(sb, h, rule):
    """The L2 form by the dense 3-operand contraction S* h S e^{-k phi}."""
    S, _ = eval_matrix_batch(sb, rule.charts, rule.coords)
    hv = h.evaluate(rule.charts, rule.coords)
    wphi = (1.0 + np.abs(rule.coords) ** 2) ** (-sb.k)
    vals = np.einsum("nji,njl,nlm->nim", S.conj(), hv, S) * wphi[:, None, None]
    g = integrate_values(vals, rule)
    return 0.5 * (g + g.conj().T)


def _pairing_references(sb, X, rule):
    """The hermitian part of the integral of S* X S, by the r-term
    outer-product sums `mdon_gradient` used and by the dense einsum."""
    S, _ = eval_matrix_batch(sb, rule.charts, rule.coords)
    r = sb.bundle.rank
    XS = sum(X[:, :, l, None] * S[:, None, l, :] for l in range(r))
    outer = sum(S[:, l, :, None].conj() * XS[:, l, None, :] for l in range(r))
    dense = np.einsum("nji,njl,nlm->nim", S.conj(), X, S)
    return [0.5 * (g + g.conj().T) for g in (integrate_values(v, rule) for v in (outer, dense))]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [16, 64])
def test_l2_gram_matches_dense_contraction(k, n):
    rule = build_quadrature(n, n)
    spec = BundleSpec((1, 0, -1))
    sb1 = basis(spec, 1)
    fs = FSMetric(sb1, G=rand_pd(np.random.default_rng(11), sb1.N, 0.3))
    sb = basis(spec, k)
    for h in (standard_metric(spec), fs):
        got, ref = l2_gram(sb, h, rule), _l2_gram_reference(sb, h, rule)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the same pairing on a non-hermitian field, mdon_gradient's A^-1 res
    rng = np.random.default_rng(16)
    for degs in ((2,), (1, -1), (1, 0, -1)):
        sb = basis(BundleSpec(degs), k)
        hm = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
        S, A1, A11, Ainv = hm._core(rule.charts, rule.coords)
        lam = contract_batch(hm._curvature(A1, A11, Ainv, rule.coords), rule.coords)
        X = Ainv @ (lam - float(sb.bundle.slope) * np.eye(len(degs)))
        rows, s = node_sections(sb, rule)[3:]
        assert np.array_equal(s, S[:, rows, np.arange(sb.N)])
        got = sections_mod._section_pairing(rule, X, 1.0, rows, s)
        # the monomials read off S are the ones l2_gram forms from the coordinates
        e = sections_mod._exponents(sb, rule.charts)[1]
        assert np.array_equal(s, np.asarray(rule.coords, dtype=complex)[:, None] ** e)
        for ref in _pairing_references(sb, X, rule):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), degs


def test_geodesic_helpers_match_numpy_products(rule16):
    """The entrywise products of the pointwise geodesic against the same
    formulas with numpy's stacked products."""
    herm = lambda m: 0.5 * (m + np.swapaxes(m, -1, -2).conj())
    rng = np.random.default_rng(12)
    sb = basis(BundleSpec((2, 1, 0)), 1)
    h0, h1 = (FSMetric(sb, G=rand_pd(rng, sb.N, 0.4)) for _ in "ab")
    a, b = (h.evaluate(rule16.charts, rule16.coords) for h in (h0, h1))
    w0, v0 = np.linalg.eigh(a)
    v0h = np.swapaxes(v0, -1, -2).conj()
    rt, irt = (v0 * np.sqrt(w0)[:, None, :]) @ v0h, (v0 / np.sqrt(w0)[:, None, :]) @ v0h
    wb, vb = np.linalg.eigh(herm(irt @ b @ irt))
    vbh = np.swapaxes(vb, -1, -2).conj()
    scale = np.max(np.abs(a), axis=(-2, -1), keepdims=True)
    for s in (0.0, 0.3, 1.0):
        ref = herm(rt @ ((vb * (wb**s)[:, None, :]) @ vbh) @ rt)
        assert np.all(np.abs(_geodesic_at(_geodesic_parts(a, b), s) - ref) <= 1e-13 * scale)
    ref = irt @ ((vb * np.log(wb)[:, None, :]) @ vbh) @ rt
    got = geodesic_log_batch(_geodesic_parts(a, b))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.max(np.abs(ref), axis=(-2, -1), keepdims=True))
    vals, dl = fd_stencil(h0.evaluate, rule16.charts, rule16.coords)
    hc, hz, hzb, hzzb = fd_derivatives(vals, dl)
    hinv = np.linalg.inv(hc)
    ref = hinv @ hzb @ hinv @ hz - hinv @ hzzb
    got = fd_curvature_batch(vals, dl)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.max(np.abs(ref), axis=(-2, -1), keepdims=True))


# the sups are sqrt(lambda_max(M* M)) (`bundle._node_sup_norm`), which
# rounds apart from the per-node SVD of `np.linalg.norm(m, 2)` by a few
# ulps: at most 3.9 eps relative over 3,000 random matrices for each
# r <= 4, entries spread over 1e-100..1e100 in a third of them
_SUP_RTOL = 8 * np.finfo(float).eps


def test_he_residual_sup_equals_per_node_loop(rule16):
    for h in (h for h, _ in _metric_pairs(rule16) if isinstance(h, FSMetric)):
        lam = h.evaluate_with_curvature(rule16.charts, rule16.coords)[1]
        hv = h.evaluate(rule16.charts, rule16.coords)
        res = lam - float(h.bundle.slope) * np.eye(h.bundle.rank)
        hinv = np.linalg.inv(hv)
        res_h = 0.5 * (res + hinv @ np.transpose(res, (0, 2, 1)).conj() @ hv)
        ref = float(max(np.linalg.norm(m, 2) for m in res_h))
        assert he_residual(h, rule16) == pytest.approx(ref, rel=_SUP_RTOL, abs=0)


def _bergman_raw(h, sb, G, rule):
    """`sections._bergman_raw` from the values of h and of the sections
    on the rule's nodes."""
    S = sections_mod._section_values(sb, rule.charts, rule.coords)
    return sections_mod._bergman_raw(h.evaluate(rule.charts, rule.coords), S, sb, G, rule)


def test_bergman_kernel_sups_equal_per_node_loop(rule16):
    rng = np.random.default_rng(7)
    sb0 = basis(BundleSpec((1, 0)), 1)
    h = FSMetric(sb0, G=rand_pd(rng, sb0.N, 0.3))
    for k, rep in zip((1, 3), bergman_kernel(h, (1, 3), rule16)):
        sb = basis(h.bundle, k)
        raw = _bergman_raw(h, sb, rep["gram"], rule16)
        r = h.bundle.rank
        tilde = (r * 1.0 / sb.N) * raw
        ref = float(max(np.linalg.norm(m - np.eye(r), 2) for m in tilde))
        assert rep["sup_dev"] == pytest.approx(ref, rel=_SUP_RTOL, abs=0)
        # raw_sup_dev is read off the same norm: raw = (N / r) tilde
        assert rep["raw_sup_dev"] == (sb.N / r) * rep["sup_dev"]
        raw_ref = float(max(np.linalg.norm(m - (sb.N / r) * np.eye(r), 2) for m in raw))
        assert rep["raw_sup_dev"] == pytest.approx(raw_ref, rel=1e-15, abs=0)


def _sup_norm_cases(rng, r):
    """Stacks of r x r matrices: generic, with a zero matrix and a unitary
    multiple (equal singular values) among them, and entries spread from
    1e-100 to 1e100."""
    X = rng.normal(size=(6, r, r)) + 1j * rng.normal(size=(6, r, r))
    X[1] = 0.0
    X[2] = 3.0 * np.linalg.qr(X[3])[0]
    spread = 10.0 ** rng.uniform(-100, 100, size=(6, r, r))
    return [X, np.zeros((4, r, r), dtype=complex), X[2:3], X * spread, X * 1e-100, X * 1e100,
            X[:1] * spread[:1]]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_node_sup_norm_matches_per_node_svd(r):
    rng = np.random.default_rng(50 + r)
    for M in _sup_norm_cases(rng, r):
        ref = float(max(np.linalg.norm(m, 2) for m in M))
        assert _node_sup_norm(M) == pytest.approx(ref, rel=_SUP_RTOL, abs=0)
    with pytest.raises(RuntimeError, match="non-finite"):
        _node_sup_norm(np.full((2, r, r), np.nan + 0j))


@pytest.mark.parametrize("degs, k", [((2,), 3), ((1, 0), 2), ((1, 0, -1), 2)])
def test_bergman_kernel_raw_matches_inverse_of_fs_metric(degs, k, rule16):
    # raw = h fs^-1 from the section factor, against inverting fs itself
    spec = BundleSpec(degs)
    sb0 = basis(spec, 1)
    h = FSMetric(sb0, G=rand_pd(np.random.default_rng(15), sb0.N, 0.3))
    sb = basis(spec, k)
    G = l2_gram(sb, h, rule16)
    raw = _bergman_raw(h, sb, G, rule16)
    fv = FSMetric(sb, G=G).evaluate(rule16.charts, rule16.coords)
    ref = h.evaluate(rule16.charts, rule16.coords) @ np.linalg.inv(fv)
    gap = np.linalg.norm(raw - ref, axis=(1, 2))
    assert np.all(gap <= 1e-12 * np.linalg.norm(ref, axis=(1, 2)))


def _evaluator_classes():
    """The classes that the package's modules define with an `evaluate`."""
    mods = (asymptotics_mod, bundle_mod, donaldson_mod, sections_mod)
    return {c for m in mods for c in vars(m).values()
            if isinstance(c, type) and c.__module__ == m.__name__ and "evaluate" in vars(c)}


def test_every_evaluator_batch_equals_one_point_calls(rule16):
    # evaluate on n points is the stack of n one-point calls, bit for bit
    sb = basis(BundleSpec((2, 1, 0)), 1)
    rng = np.random.default_rng(8)
    h0 = FSMetric(sb, G=rand_pd(rng, sb.N, 0.4))
    h1 = FSMetric(sb, G=rand_pd(rng, sb.N, 0.4))
    evaluators = [
        h0,
        GeodesicMetric(h0, h1, 0.3),
        trivial_metric(sb),
        ExplicitMetric(sb.bundle, lambda chart, x: np.diag([1.0, 2.0, 3.0]) * (1 + abs(x) ** 2)),
    ]
    assert {type(h) for h in evaluators} == _evaluator_classes() | {ExplicitMetric}
    for h in evaluators:
        batched = h.evaluate(rule16.charts, rule16.coords)
        one = [h.evaluate(rule16.charts[i : i + 1], rule16.coords[i : i + 1])[0] for i in range(rule16.n)]
        assert np.array_equal(batched, np.stack(one)), type(h).__name__


@pytest.mark.parametrize("degs, k", [((3,), 0), ((1, -1), 1), ((2, 1, 0), 1)])
def test_fs_metric_batch_equals_one_point_calls_at_every_rank(degs, k, rule16):
    # the section factor is one flat product over all points; a single
    # point of rank 1 is one row, which must round as it does among many
    sb = basis(BundleSpec(degs), k)
    h = FSMetric(sb, G=rand_pd(np.random.default_rng(14), sb.N, 0.4))
    methods = {
        "evaluate": lambda c, x: (h.evaluate(c, x),),
        "evaluate_with_curvature": h.evaluate_with_curvature,
        "connection_coeff": lambda c, x: (h.connection_coeff(c, x),),
    }
    for name, method in methods.items():
        batched = method(rule16.charts, rule16.coords)
        one = [method(rule16.charts[i : i + 1], rule16.coords[i : i + 1]) for i in range(rule16.n)]
        for part, ones in zip(batched, zip(*one)):
            assert np.array_equal(part, np.concatenate(ones)), name


def _stencil(fn, chart, x):
    """The old per-point 5-point x- and y-stencils of a batched field
    fn(charts, coords) around the point of chart `chart` (True where
    chart Z) and coordinate x, in one-point calls, with their step."""
    dl = 1e-3 * (1.0 + abs(x))
    charts = np.array([chart])
    vx = np.array([fn(charts, np.array([x + o * dl], dtype=complex))[0] for o in _OFF])
    vy = np.array([fn(charts, np.array([x + 1j * o * dl], dtype=complex))[0] for o in _OFF])
    return vx, vy, dl


def _fixed_order_sum(coeffs, vals):
    """c * v summed over the nonzero coefficients, left to right, as the
    package's stencil differences sum them."""
    return sum(c * v for c, v in zip(coeffs, vals) if c != 0.0)


def _first_derivs(vx, vy, dl):
    fx = _fixed_order_sum(_D1, vx) / dl
    fy = _fixed_order_sum(_D1, vy) / dl
    return vx[2], 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _logm(m):
    """log of a matrix with positive eigenvalues from its eigendecomposition,
    independent of the package's geodesic helpers; scipy.linalg.logm gives
    the same to rounding at about 50 times the cost on a 2 x 2 matrix."""
    w, V = np.linalg.eig(m)
    return (V * np.log(w)) @ np.linalg.inv(V)


def _formula_per_node(h0, h1, s, rule):
    """The convexity audit's formula as the per-node loop it replaced,
    from one-point evaluations at each node's stencil."""
    hs = GeodesicMetric(h0, h1, s)

    def vfn(charts, coords):
        # velocity endomorphism h^-1 dh/ds = log(h0^-1 h1), constant in s,
        # at one point
        a, b = (h.evaluate(charts, coords)[0] for h in (h0, h1))
        return _logm(np.linalg.solve(a, b))[None]

    vals = np.empty(rule.n)
    for i, (chart, x) in enumerate(zip(rule.charts, rule.coords)):
        v, vz, vzb = _first_derivs(*_stencil(vfn, chart, complex(x)))
        hc, hz, _ = _first_derivs(*_stencil(hs.evaluate, chart, complex(x)))
        a_s = np.linalg.solve(hc, hz)
        grad = vz + a_s @ v - v @ a_s
        vals[i] = np.trace(grad @ vzb).real * (1.0 + abs(x) ** 2) ** 2
    return float(tree_sum(vals * rule.weights))


@pytest.mark.parametrize("degs, k, n", [((1, 0), 0, 20), ((1, -1), 1, 24), ((2, 1, 0), 1, 16)])
def test_convexity_formula_matches_per_node_loop(degs, k, n):
    rule = build_quadrature(n, n)
    assert rule.charts.any() and not rule.charts.all()  # nodes in both charts
    sb = basis(BundleSpec(degs), k)
    rng = np.random.default_rng(9)
    h0 = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    h1 = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    got = second_derivative_geodesic(h0, h1, 0.5, rule)["formula"]
    ref = _formula_per_node(h0, h1, 0.5, rule)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def _pointwise_integrand_reference(h0, h1, t, rule):
    """dM/dt along the pointwise geodesic at one t, through the metric
    h_t at t: tr(h_t^-1 log(h1 h0^-1) h_t (contracted curvature - slope))."""
    ht = GeodesicMetric(h0, h1, t)
    F = fd_curvature_batch(*fd_stencil(ht.evaluate, rule.charts, rule.coords))
    lam = contract_batch(F, rule.coords)
    res = lam - float(h0.bundle.slope) * np.eye(h0.bundle.rank)
    a, b, m = (h.evaluate(rule.charts, rule.coords) for h in (h0, h1, ht))
    log = np.array([_logm(y @ np.linalg.inv(x)) for x, y in zip(a, b)])
    vals = np.einsum("nij,njk,nkl,nli->n", np.linalg.inv(m), log, m, res).real
    return float(tree_sum(vals * rule.weights))


@pytest.mark.parametrize("degs, k, n", [((1, 0), 0, 20), ((1, -1), 1, 24), ((2, 1, 0), 1, 16)])
def test_pointwise_integrand_matches_per_t_formula(degs, k, n):
    rule = build_quadrature(n, n)
    sb = basis(BundleSpec(degs), k)
    rng = np.random.default_rng(9)
    h0 = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    h1 = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    ts = np.array([0.0, 0.4, 0.45, 0.55, 0.6, 1.0])
    got = PointwiseExponentialPath(h0, h1, rule).deriv_integrand(ts)
    ref = np.array([_pointwise_integrand_reference(h0, h1, t, rule) for t in ts])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def _vfield_at(h0, h1, t):
    """The velocity h^-1 dh/dt = S K_t S* A^-1 at t along the form
    geodesic from h0 to h1, as a batched field (charts, coords) ->
    (n, r, r), with the kernels of `curvature_variation_check`."""
    metric_at, k_matrix = _form_path(h0.sb, h0.G, h1.G)
    hm, K = metric_at(t), k_matrix(t)

    def v(charts, coords):
        S, _, _, Ainv = hm._core(charts, coords)
        SK = sections_mod._section_factor(S, K)
        return _mat_mul(_mat_mul(SK, np.swapaxes(S, -1, -2).conj()), Ainv)

    return v


def _variation_per_point(h0, h1, t, chart, x, step=1e-3):
    """Per-point curvature-variation defect, and the size of dF/dt."""
    point = np.array([chart]), np.array([x], dtype=complex)
    metric_at = _form_path(h0.sb, h0.G, h1.G)[0]
    curv = [metric_at(t + o * step).curvature_coeff(*point)[0] for o in _OFF]
    lhs = _fixed_order_sum(_D1, curv) / step
    vx, vy, dl = _stencil(_vfield_at(h0, h1, t), chart, x)
    v, _, vzb = _first_derivs(vx, vy, dl)
    vzzb = 0.25 * (_fixed_order_sum(_D2, vx) + _fixed_order_sum(_D2, vy)) / dl**2
    a, _, azb = _first_derivs(*_stencil(metric_at(t).connection_coeff, chart, x))
    rhs = -(vzzb + azb @ v + a @ vzb - vzb @ a - v @ azb)
    return float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(lhs)))


def _variation_case(degs):
    """Two level-1 FS metrics of `degs` and six points in both charts."""
    sb = basis(BundleSpec(degs), 1)
    rng = np.random.default_rng(10)
    h0, h1 = FSMetric(sb, G=rand_pd(rng, sb.N, 0.3)), FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))
    charts, coords = canonical_points([0.2, 0.5j, -0.3 + 0.4j, 1.7, -2.0 + 1.1j, 3j])
    assert set(charts.tolist()) == {True, False}
    return h0, h1, charts, coords


@pytest.mark.parametrize("degs", [(1, -1), (2, 1, 0)])
def test_curvature_variation_matches_per_point_loop(degs):
    # the defect is rounding noise of the second differences (about
    # 1e-10), so the two are compared on the scale of dF/dt
    h0, h1, charts, coords = _variation_case(degs)
    one = [(charts[i : i + 1], coords[i : i + 1]) for i in range(len(coords))]
    ref = [_variation_per_point(h0, h1, 0.5, c[0], complex(x[0])) for c, x in one]
    for (c, x), (defect, scale) in zip(one, ref):
        assert abs(curvature_variation_check(h0, h1, 0.5, c, x) - defect) <= 1e-12 * scale
    assert curvature_variation_check(h0, h1, 0.5, charts, coords) == max(
        curvature_variation_check(h0, h1, 0.5, c, x) for c, x in one
    )


@pytest.mark.parametrize("degs", [(1, -1), (2, 1, 0)])
def test_stencil_audits_give_a_point_the_same_bits_in_any_batch(degs):
    # the stencil differences of the variation check's velocity field and
    # the difference curvature of the metric: each one-point call equals
    # its row of the six-point call exactly
    h0, h1, charts, coords = _variation_case(degs)
    vfield = _vfield_at(h0, h1, 0.5)
    hm = _form_path(h0.sb, h0.G, h1.G)[0](0.5)
    audits = {
        "fd_derivatives": lambda c, x: fd_derivatives(*fd_stencil(vfield, c, x)),
        "fd_curvature_batch": lambda c, x: [fd_curvature_batch(*fd_stencil(hm.evaluate, c, x))],
    }
    for name, audit in audits.items():
        batched = audit(charts, coords)
        for i in range(len(coords)):
            one = audit(charts[i : i + 1], coords[i : i + 1])
            for j, (part, row) in enumerate(zip(batched, one)):
                assert np.array_equal(part[i], row[0]), (name, i, j)


def _ray(degs, k, rule, seed):
    sb = basis(BundleSpec(degs), k)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(sb.N, sb.N)) + 1j * rng.normal(size=(sb.N, sb.N))
    G0 = l2_gram(sb, trivial_metric(sb), rule)
    return OnePSRay(sb, G0, 0.5 * (X + X.conj().T))


def _nonaligned_ray(rule):
    """(1, -1), k = 1: weight 1 on (1, 2, 0, 1) and -1/3 on e1, e2, e0, a
    datum not aligned with the monomial basis; its invariant is 8/3."""
    sb = basis(BundleSpec((1, -1)), 1)
    e1, e2, e0 = (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)
    zr = WeightSpec(k=1, blocks=((Fraction(1), ((1, 2, 0, 1),)), (Fraction(-1, 3), (e1, e2, e0))))
    return OnePSRay(sb, l2_gram(sb, trivial_metric(sb), rule), zeta_matrix(zr))


# dM/dt of each ray at three times, frozen from an 80-digit mpmath
# evaluation of the moment formula: at every node of the rule,
# tr(V A^-1 ((1+|x|^2)^2 (A'' - A' A^-1 A'*) A^-1 - (k + mu))) with
# Y = S W_t, Y' = S' W_t, A = Y Y*, A' = Y' Y*, A'' = Y' Y'* and
# V = Z Y* + Y Z* for Z = -S zeta W_t, summed with the rule's weights.
# Every matrix is formed in mpmath from the same float inputs: the
# sections S and S' of `eval_matrix_batch`, the rescaled generator
# `ray.zeta`, and W0 = L^-* for the Cholesky factor L of the float G0
# (inverted in floats), with W_t = expm(zeta t) W0 by mpmath's `expm`.
# 110 digits give the same twelve decimals; at 50 digits mpmath's expm
# leaves the non-aligned value at t = 20 3e-10 low.  The moment formula
# cancels catastrophically in floats past t = 9 on these rays.
_RAY_FROZEN = {
    ((1, -1), 1): ((6.0, 12.0, 20.0), (2.248600153376, 2.650533415116, 2.651565517303)),
    ((2, 1, 0), 2): ((6.0, 12.0, 20.0), (2.932436068634, 7.802237921687, 13.501126507938)),
    "non-aligned": ((10.0, 15.0, 20.0), (2.666671141785, 2.666666672362, 2.666666666674)),
}


def _blocked_deriv(ray, ts, rule, monkeypatch, t_per_block):
    """`_deriv_at` with the point budget set to `t_per_block` t-nodes,
    after checking that it takes one `_graded_rate` call per block."""
    with monkeypatch.context() as m:
        m.setattr(bundle_mod, "_MAX_POINTS", t_per_block * rule.n)
        calls = count_calls(m, asymptotics_mod, "_graded_rate")
        got = _deriv_at(ray, ts, rule)
    assert len(calls) == -(-len(ts) // t_per_block)
    return got


def _ray_checks(ray, rule, frozen, monkeypatch):
    """The frozen values to 1e-9 relative; a scalar call, blocks of 5
    t-nodes and one block give the same bits; `mdon_along_ray` against
    per-segment Gauss-Legendre sums of the batched derivative."""
    ts_frozen, want_frozen = frozen
    got_frozen = _deriv_at(ray, np.array(ts_frozen), rule)
    assert np.all(np.abs(got_frozen - want_frozen) <= 1e-9 * np.abs(want_frozen))
    t_grid = np.linspace(0.0, 12.0, 5)
    u, w = gauss_legendre01(6)
    ts = (t_grid[:-1, None] + np.diff(t_grid)[:, None] * u).reshape(-1)
    got = _deriv_at(ray, ts, rule)
    assert _deriv_at(ray, ts[3], rule) == got[3]
    assert np.array_equal(_blocked_deriv(ray, ts, rule, monkeypatch, 5), got)
    assert np.array_equal(_blocked_deriv(ray, ts, rule, monkeypatch, len(ts)), got)
    acc, want = 0.0, [0.0]
    for i in range(len(t_grid) - 1):
        acc += (t_grid[i + 1] - t_grid[i]) * sum(
            wi * r for wi, r in zip(w, got[6 * i : 6 * i + 6])
        )
        want.append(acc)
    got_m = mdon_along_ray(ray, t_grid, rule)
    assert np.all(np.abs(got_m - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("degs, k", [((1, -1), 1), ((2, 1, 0), 2)])
def test_ray_derivative_matches_per_t_loop(degs, k, rule16, monkeypatch):
    _ray_checks(_ray(degs, k, rule16, 12), rule16, _RAY_FROZEN[degs, k], monkeypatch)


def test_ray_derivative_non_aligned_datum(rule24, monkeypatch):
    _ray_checks(_nonaligned_ray(rule24), rule24, _RAY_FROZEN["non-aligned"], monkeypatch)


def test_ray_derivative_bits_on_an_odd_rule(monkeypatch):
    # 35 nodes: a batch of odd width, where a GEMM with the constant
    # factor on the left rounds its remainder columns apart
    rule = build_quadrature(7, 5)
    ray = _ray((2, 1, 0), 2, rule, 12)
    ts = np.linspace(0.5, 19.5, 23)
    got = _deriv_at(ray, ts, rule)
    assert all(_deriv_at(ray, t, rule) == g for t, g in zip(ts, got))
    assert np.array_equal(_blocked_deriv(ray, ts, rule, monkeypatch, 3), got)


def test_ray_derivative_bits_to_the_crossing_in_any_blocks(monkeypatch):
    # the CLI `solve`'s escape ray, (1, -1) at k = 2 on 12 x 12, and the
    # 48 t-nodes of its doubling grid 0, 5, 10, ..., 640, which crosses
    # the divergence threshold at its end (`solver._extend_along_ray`):
    # one t-node per block, the default 28 and a single block
    rule = build_quadrature(12, 12)
    ray = escape_ray(BundleSpec((1, -1)), 2, rule)
    grid = np.append(0.0, 5.0 * 2.0 ** np.arange(8))
    u = gauss_legendre01(6)[0]
    ts = (grid[:-1, None] + np.diff(grid)[:, None] * u).reshape(-1)
    got = _deriv_at(ray, ts, rule)
    assert np.all(np.isfinite(got))
    for per_block in (1, bundle_mod._t_chunk(rule), len(ts)):
        assert np.array_equal(_blocked_deriv(ray, ts, rule, monkeypatch, per_block), got)


def _poincare_rayleigh_reference(h0, rule, max_deg):
    """The Rayleigh-Ritz eigenvalue from per-node harmonics, pairings
    tr(E_a h^-1 E_b^* h) and block-by-block Gram matrices."""
    r = h0.bundle.rank
    fams = [(l, m) for l in range(max_deg + 1) for m in range(l + 1)]

    def val(l, m, cz, x):
        q = (1.0 + abs(x) ** 2) ** (-l)
        return x**m * q if cz else np.conj(x) ** l * x ** (l - m) * q

    def dbar(l, m, cz, x):
        if cz:
            return -l * x ** (m + 1) * (1.0 + abs(x) ** 2) ** (-l - 1)
        xb = np.conj(x)
        t1 = l * xb ** (l - 1) * x ** (l - m) * (1.0 + abs(x) ** 2) ** (-l) if l >= 1 else 0.0
        return t1 - l * xb**l * x ** (l - m + 1) * (1.0 + abs(x) ** 2) ** (-l - 1)

    nodes = list(zip(rule.charts, rule.coords.tolist()))
    fvals = np.array([[val(l, m, cz, x) for cz, x in nodes] for l, m in fams])
    dvals = np.array([[dbar(l, m, cz, x) for cz, x in nodes] for l, m in fams])
    hv = h0.evaluate(rule.charts, rule.coords)
    hinv = np.linalg.inv(hv)
    mats = [np.eye(r * r)[idx].reshape(r, r) for idx in range(r * r)]
    pair = np.array(
        [[[np.trace(a @ hinv[i] @ b.conj().T @ hv[i]) for b in mats] for a in mats] for i in range(rule.n)]
    )
    gup = (1.0 + np.abs(rule.coords) ** 2) ** 2
    rr = r * r
    dim = len(fams) * rr
    M = np.zeros((dim, dim), dtype=complex)
    Q = np.zeros((dim, dim), dtype=complex)
    for a in range(len(fams)):
        for b in range(len(fams)):
            fa_fb = fvals[a] * np.conj(fvals[b])
            da_db = dvals[a] * np.conj(dvals[b]) * gup
            M[a * rr : (a + 1) * rr, b * rr : (b + 1) * rr] = np.einsum("n,nab->ab", rule.weights * fa_fb, pair)
            Q[a * rr : (a + 1) * rr, b * rr : (b + 1) * rr] = np.einsum("n,nab->ab", rule.weights * da_db, pair)
    M = 0.5 * (M + M.conj().T)
    Q = 0.5 * (Q + Q.conj().T)
    wM, vM = np.linalg.eigh(M)
    keep = wM > 1e-10 * wM[-1]
    B = vM[:, keep] / np.sqrt(wM[keep])
    Qr = B.conj().T @ Q @ B
    ev = np.linalg.eigvalsh(0.5 * (Qr + Qr.conj().T))
    return float(ev[ev > 1e-8 * max(1.0, ev[-1])][0])


@pytest.mark.parametrize("degs, k", [((1, -1), 1), ((2, 1, 0), 1)])
def test_poincare_rayleigh_matches_per_node_loop(degs, k, rule16):
    rng = np.random.default_rng(13)
    sb = basis(BundleSpec(degs), k)
    for h0 in (trivial_metric(sb), FSMetric(sb, G=rand_pd(rng, sb.N, 0.3))):
        got = donaldson_mod._poincare_rayleigh(h0, rule16, 3)
        ref = _poincare_rayleigh_reference(h0, rule16, 3)
        assert abs(got - ref) <= 1e-12 * abs(ref)
