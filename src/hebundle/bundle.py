"""Split holomorphic bundles on the sphere and hermitian metric fields.

A bundle is a direct sum of degree-a_i line bundles.  Metrics are
batched evaluators: `evaluate(charts, coords)` returns the matrix
components at every point in that point's chart frame; the chart-Z and
chart-W components are related by conjugation with diag(z^{a_i}) on the
overlap.  Every metric the package solves for or measures against is a
Fubini-Study metric (`sections.FSMetric`), whose curvature is closed
form; the 4th-order finite differences here serve only the pointwise
geodesic and the difference audits of `donaldson`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import QuadratureRule, integrate_values

# most points evaluated in one batched call by the stencil and the
# energy-path helpers: the size of a 64x64 rule
_MAX_POINTS = 4096


@dataclass(frozen=True)
class BundleSpec:
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(a) for a in self.degrees))
        if len(self.degrees) < 1:
            raise ValueError("bundle needs at least one summand")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def deg(self) -> int:
        return sum(self.degrees)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.deg, self.rank)


def regularity(spec: BundleSpec) -> int:
    """Least k making every twisted summand degree nonnegative (may be
    negative when all summand degrees are positive)."""
    return max(-a for a in spec.degrees)


def _hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m*) / 2 of each matrix of an (..., r, r) stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


# numpy's stacked matmul makes one BLAS call per small matrix, which for
# r <= 3 costs many times the arithmetic; `_mat_mul` loops over the
# matrix indices instead, each step one array operation over all batch
# axes, so no matrix's result depends on the others
def _mat_mul(X, Y):
    """X @ Y over (..., p, m) and (..., m, q) stacks, entry by entry; a
    plain product when neither has a batch axis."""
    if X.ndim == 2 and Y.ndim == 2:
        return X @ Y
    m = X.shape[-1]
    shape = np.broadcast_shapes(X.shape[:-2], Y.shape[:-2]) + (X.shape[-2], Y.shape[-1])
    out = np.empty(shape, dtype=np.result_type(X, Y))
    for i in range(X.shape[-2]):
        for j in range(Y.shape[-1]):
            acc = X[..., i, 0] * Y[..., 0, j]
            for l in range(1, m):
                acc += X[..., i, l] * Y[..., l, j]
            out[..., i, j] = acc
    return out


# numpy's stacked inv, like its stacked matmul, makes one LAPACK call per
# r x r matrix; this kernel loops over the matrix indices as `_mat_mul` does
def _equilibrated_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of hermitian positive A over any leading batch axes: the
    diagonal equilibration A -> D^-1 A D^-1 to a unit diagonal, then an
    inverse entry by entry.  At r = 2 the equilibrated matrix is
    [[1, b], [b*, 1]], b read above the diagonal, and the inverse is
    D^-1 [[1, -b], [-b*, 1]] D^-1 / (1 - |b|^2), hermitian.  At every
    other r Gauss-Jordan in place without pivoting.  The pivots are
    diagonal entries of Schur complements of a hermitian positive matrix
    with unit diagonal: real, in (0, 1] and no smaller than its least
    eigenvalue, while no Schur complement entry exceeds 1 in modulus, so
    pivoting would gain nothing.  RuntimeError when a diagonal entry, a
    pivot or 1 - |b|^2 is not positive: A is then rank-deficient or not
    positive definite.  A lone (r, r) matrix is inverted as a stack of
    one: numpy's scalar arithmetic rounds apart from its array loops, and
    a matrix must get its bits as a row of any stack."""
    if A.ndim == 2:
        return _equilibrated_inverse(A[None])[0]
    diag = np.diagonal(A, axis1=-2, axis2=-1).real
    if np.any(diag <= 0):
        raise RuntimeError("matrix is rank-deficient or not positive definite")
    r = A.shape[-1]
    out = np.empty(A.shape, dtype=complex)
    dinv = 1.0 / np.sqrt(diag)
    if r == 2:
        d01 = dinv[..., 0] * dinv[..., 1]
        b = A[..., 0, 1] * d01
        det = 1.0 - (b.real**2 + b.imag**2)
        if np.any(det <= 0):
            raise RuntimeError("matrix is rank-deficient or not positive definite")
        out[..., 0, 0] = dinv[..., 0] ** 2 / det
        out[..., 1, 1] = dinv[..., 1] ** 2 / det
        out[..., 0, 1] = -b * (d01 / det)
        out[..., 1, 0] = out[..., 0, 1].conj()
        return out
    scale = [[dinv[..., i] * dinv[..., j] for j in range(r)] for i in range(r)]
    a = [[A[..., i, j] * scale[i][j] for j in range(r)] for i in range(r)]
    for k in range(r):
        piv = a[k][k].real
        if np.any(piv <= 0):
            raise RuntimeError("matrix is rank-deficient or not positive definite")
        p = 1.0 / piv
        a[k] = [p if j == k else a[k][j] * p for j in range(r)]
        for i in range(r):
            if i != k:
                f = a[i][k]
                a[i] = [-f * p if j == k else a[i][j] - f * a[k][j] for j in range(r)]
    for i in range(r):
        for j in range(r):
            out[..., i, j] = a[i][j] * scale[i][j]
    return out


# numpy's stacked eigh, like its stacked inv, makes one LAPACK call per
# matrix; at r = 2 these kernels are closed form, entry by entry, so no
# matrix's eigenvalues or vectors depend on the others
def _node_eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each hermitian matrix of an (..., r, r)
    stack, or of one (r, r) matrix.  At r = 2, for H = [[a, b], [b*, d]]
    with b read above the diagonal, m = (a + d)/2 and h = hypot((a - d)/2,
    |b|): the eigenvalue of larger modulus is rt1 = m + h, or m - h when
    m is negative (-0 included), and the other is the determinant divided
    by it, in the order of LAPACK's `dlaev2`: (acmx / rt1) acmn -
    (|b| / rt1) |b| with acmx, acmn the diagonal entries of larger and
    smaller modulus.  m - h would lose a nearly singular positive
    matrix's least eigenvalue to cancellation, and its sign with it.  At
    every other r a stacked `eigvalsh`, which reads the lower triangle."""
    if H.shape[-1] != 2:
        return np.linalg.eigvalsh(H)
    a, d = H[..., 0, 0].real, H[..., 1, 1].real
    nb = np.abs(H[..., 0, 1])
    m = 0.5 * (a + d)
    h = np.hypot(0.5 * (a - d), nb)
    rt1 = m + np.copysign(h, m)
    den = np.where(rt1 == 0, 1.0, rt1)
    a_big = np.abs(a) > np.abs(d)
    rt2 = (np.where(a_big, a, d) / den) * np.where(a_big, d, a) - (nb / den) * nb
    neg = np.signbit(m)
    return np.stack([np.where(neg, rt1, rt2), np.where(neg, rt2, rt1)], axis=-1)


def _node_eigh(H: np.ndarray):
    """Ascending eigenvalues (`_node_eigvalsh`) and the unitary matrix of
    eigenvectors, in its columns, of each hermitian matrix of an
    (..., r, r) stack, or of one (r, r) matrix.  At r = 2, with b = |b| p
    (p = 1 when b = 0), H is D S D* for D = diag(p, 1) and S real
    symmetric, which one Jacobi rotation by theta = atan2(|b|, (a - d)/2)
    / 2 diagonalizes (Golub and Van Loan, Matrix Computations, 4th ed.,
    8.5.2): the vectors are (-p sin theta, cos theta) and (p cos theta,
    sin theta).  At every other r a stacked `eigh`."""
    if H.shape[-1] != 2:
        return np.linalg.eigh(H)
    w = _node_eigvalsh(H)
    V = np.empty(H.shape, dtype=np.result_type(H, 1.0))
    b = H[..., 0, 1]
    nb = np.abs(b)
    theta = 0.5 * np.arctan2(nb, 0.5 * (H[..., 0, 0].real - H[..., 1, 1].real))
    c, s = np.cos(theta), np.sin(theta)
    p = np.divide(b, nb, out=np.ones_like(b), where=nb > 0)
    V[..., 0, 0] = -p * s
    V[..., 0, 1] = p * c
    V[..., 1, 0] = c
    V[..., 1, 1] = s
    return w, V


def _geodesic_parts(h0: np.ndarray, h1: np.ndarray):
    """Batched square roots and relative eigendecomposition of a metric
    pair; accepts (..., r, r) arrays.  Both eigendecompositions are
    `_node_eigh`'s: closed form per node at r = 2, a stacked LAPACK
    call at every other r, so the N x N forms of `_form_geodesic` keep
    LAPACK unless N = 2."""
    w0, v0 = _node_eigh(_hermitize(h0))
    if np.any(w0[..., 0] <= 0):
        raise RuntimeError("metric value not positive definite")
    v0h = np.swapaxes(v0, -1, -2).conj()
    rt = _mat_mul(v0 * np.sqrt(w0)[..., None, :], v0h)
    irt = _mat_mul(v0 / np.sqrt(w0)[..., None, :], v0h)
    wb, vb = _node_eigh(_hermitize(_mat_mul(_mat_mul(irt, h1), irt)))
    if np.any(wb[..., 0] <= 0):
        raise RuntimeError("metric pair not jointly positive definite")
    return rt, irt, wb, vb


def _geodesic_at(parts, s: float) -> np.ndarray:
    """The geodesic exp(s log(h1 h0^-1)) h0 at s, from `_geodesic_parts`."""
    rt, _, wb, vb = parts
    bs = _mat_mul(vb * (wb**s)[..., None, :], np.swapaxes(vb, -1, -2).conj())
    return _hermitize(_mat_mul(_mat_mul(rt, bs), rt))


def geodesic_log_batch(parts) -> np.ndarray:
    """The velocity h_s^-1 dh_s/ds = log(h0^-1 h1) of the geodesic
    h_s = exp(s log(h1 h0^-1)) h0, the same at every s, from the
    `_geodesic_parts` of its endpoints.  With b = h0^-1/2 h1 h0^-1/2 it
    is h0^-1/2 log(b) h0^1/2."""
    rt, irt, wb, vb = parts
    lb = _mat_mul(vb * np.log(wb)[..., None, :], np.swapaxes(vb, -1, -2).conj())
    return _mat_mul(_mat_mul(irt, lb), rt)


class GeodesicMetric:
    """The metric exp(s log(h1 h0^-1)) h0 at s on the pointwise geodesic
    between two metrics."""

    def __init__(self, h0, h1, s: float):
        if h0.bundle.degrees != h1.bundle.degrees:
            raise ValueError("geodesic endpoints live on different bundles")
        self.bundle = h0.bundle
        self.h0 = h0
        self.h1 = h1
        self.s = float(s)

    def evaluate(self, charts, coords):
        parts = _geodesic_parts(self.h0.evaluate(charts, coords), self.h1.evaluate(charts, coords))
        return _geodesic_at(parts, self.s)


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFF = np.array([-2, -1, 0, 1, 2])
# the nine distinct shifts of the x- and y-stencils, in units of the step,
# and where each stencil reads its five values among them
_SHIFTS = np.concatenate([_OFF, 1j * _OFF[_OFF != 0]])
_X_IDX = np.array([0, 1, 2, 3, 4])
_Y_IDX = np.array([5, 6, 2, 7, 8])


def fd_stencil(fn, charts, coords):
    """Values of a batched matrix field on the 4th-order stencils.

    `fn(charts, coords)` returns (n, m, m) values.  It is called on the
    x- and y-shifts of step dl = 1e-3 (1+|x|) around every point, whole
    shifts at a time and at most _MAX_POINTS points per call, so a rule of
    up to 455 nodes takes one call.  Returns the values, shape
    (9, n, m, m) in the order of _SHIFTS (the zero shift is [2]), and dl.
    """
    coords = np.asarray(coords, dtype=complex)
    n = len(coords)
    dl = 1e-3 * (1.0 + np.abs(coords))
    per_call = max(1, _MAX_POINTS // max(n, 1))
    vals = []
    for lo in range(0, len(_SHIFTS), per_call):
        shifts = _SHIFTS[lo : lo + per_call]
        v = fn(np.tile(charts, len(shifts)), (coords + shifts[:, None] * dl).reshape(-1))
        vals.append(v.reshape((len(shifts), n) + v.shape[1:]))
    return np.concatenate(vals), dl


def _t_chunk(rule: QuadratureRule) -> int:
    """The t-nodes that one call of a path's node kernel takes on `rule`:
    as many as fit in _MAX_POINTS (t-node, sphere-node) points, and at
    least one."""
    return max(1, _MAX_POINTS // rule.n)


def _chunked_rate(t, rule: QuadratureRule, node_values):
    """dM/dt along a path on the nodes of `rule`: a float for a scalar t,
    an array for a 1-D array of t.  `node_values(ts)` gives the integrand
    at every node for a 1-D array of t, shape (len(ts), n); the t-nodes
    go to it in chunks of `_t_chunk`, and a path whose values do not
    depend on the chunking gives the same value at a t in any call."""
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    out = np.empty(flat.shape)
    step = _t_chunk(rule)
    for lo in range(0, len(flat), step):
        out[lo : lo + step] = integrate_values(node_values(flat[lo : lo + step]).T, rule)
    return float(out[0]) if ts.ndim == 0 else out


def _stencil_sum(coeffs, vals):
    """Sum of c * v over the nonzero coefficients, left to right: one order
    for every entry, where a gemv's would depend on the batch size."""
    terms = [c * v for c, v in zip(coeffs, vals) if c != 0.0]
    return sum(terms[1:], terms[0])


def fd_derivatives(vals, dl):
    """4th-order finite differences (`_stencil_sum`) of `fd_stencil`
    values: f and its Wirtinger derivatives df/dz, df/dz-bar and
    d2f/dz dz-bar, shape (n, m, m) each, the same bits in any batch."""
    vals_x, vals_y = vals[_X_IDX], vals[_Y_IDX]
    inv_dl = (1.0 / dl)[:, None, None]
    fx = _stencil_sum(_D1, vals_x) * inv_dl
    fy = _stencil_sum(_D1, vals_y) * inv_dl
    fxx = _stencil_sum(_D2, vals_x) * inv_dl**2
    fyy = _stencil_sum(_D2, vals_y) * inv_dl**2
    fz = 0.5 * (fx - 1j * fy)
    fzb = 0.5 * (fx + 1j * fy)
    return vals_x[2], fz, fzb, 0.25 * (fxx + fyy)


def fd_curvature_batch(vals: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """Finite-difference coefficients F of (i/2pi) F dz^dz-bar of the
    curvature of a metric from its `fd_stencil` values, shape (n, r, r):
    F = h^-1 (h_zb h^-1 h_z - h_zzb) = -d/dz-bar (h^-1 dh/dz), the sign
    making the area form's own contraction +1; per-node kernels only, so
    a point's F is the same bits in any batch."""
    hc, hz, hzb, hzzb = fd_derivatives(vals, dl)
    hinv = _equilibrated_inverse(hc)
    return _mat_mul(hinv, _mat_mul(_mat_mul(hzb, hinv), hz) - hzzb)


def _he_defect(hv: np.ndarray, hv_inv: np.ndarray, lam: np.ndarray, mu: float) -> np.ndarray:
    """Einstein defect res = lam - mu of the contracted curvature values
    lam at every node, made hermitian with respect to the metric values
    hv, whose inverses are hv_inv: 0.5 (res + hv^-1 res* hv)."""
    res = lam - mu * np.eye(hv.shape[-1])
    res_h = _mat_mul(_mat_mul(hv_inv, np.swapaxes(res, -1, -2).conj()), hv)
    return 0.5 * (res + res_h)


def _node_sup_norm(M: np.ndarray) -> float:
    """Largest pointwise 2-norm over an (n, r, r) stack: the largest
    entry modulus at r = 1, else the square root of the largest
    eigenvalue of M* M, formed entry by entry, from `_node_eigvalsh`.
    At r = 2 that eigenvalue is (a + d)/2 + hypot((a - d)/2, |b|) for
    M* M = [[a, b], [b*, d]], a sum of two nonnegative terms, with b the
    entry above the diagonal; at r >= 3 M* M is first made hermitian,
    since its two triangles round apart and LAPACK reads the lower one.
    Beforehand the stack is scaled, exactly, by the power of two that
    brings its largest entry near 1, so M* M neither overflows nor
    loses the sup to underflow (the sup is at least the largest entry),
    and the result does not depend on the scaling.  RuntimeError on a
    non-finite entry."""
    top = float(np.max(np.abs(M), initial=0.0))
    if not np.isfinite(top):
        raise RuntimeError("non-finite matrix value")
    if top == 0.0 or M.shape[-1] == 1:
        return top
    e = min(max(math.frexp(top)[1], -1021), 1023)
    M = M * math.ldexp(1.0, -e)
    Q = _mat_mul(np.swapaxes(M, -1, -2).conj(), M)
    lam = _node_eigvalsh(Q if M.shape[-1] == 2 else _hermitize(Q))[..., -1]
    return math.ldexp(math.sqrt(lam.max()), e)


def he_residual(h, rule: QuadratureRule) -> float:
    """Sup over the rule's nodes of the pointwise 2-norm of the Einstein
    defect of the FS metric h (`sections.FSMetric`)."""
    hv, lam = h.evaluate_with_curvature(rule.charts, rule.coords)
    return _node_sup_norm(_he_defect(hv, _equilibrated_inverse(hv), lam, float(h.bundle.slope)))


def _whitening(b: np.ndarray) -> np.ndarray:
    """L^-1 at every node, for b = L L* the Cholesky factor of metric values b."""
    return np.linalg.inv(np.linalg.cholesky(_hermitize(b)))


def _relative_eigs(a: np.ndarray, Linv: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the metric values a relative to b at every
    node, those of L^-1 a L^-* for Linv = `_whitening(b)`, which a solve
    forms once for its reference: `_node_eigvalsh`, closed form per node
    at r = 2."""
    c = _mat_mul(_mat_mul(Linv, _hermitize(a)), np.swapaxes(Linv, -1, -2).conj())
    return _node_eigvalsh(c)


def delta_boundedness(h, h0, rule: QuadratureRule) -> float:
    """Node-infimum of lambda_min/lambda_max of h relative to h0."""
    a, b = (m.evaluate(rule.charts, rule.coords) for m in (h, h0))
    eigs = _relative_eigs(a, _whitening(b))
    return float((eigs[:, 0] / eigs[:, -1]).min())
