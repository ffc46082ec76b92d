"""Split holomorphic bundles on the sphere and hermitian metric fields.

A bundle is a direct sum of degree-a_i line bundles.  Metrics are
pointwise evaluators returning matrix components in the chart frame of
the evaluation point; the chart-Z and chart-W components are related by
conjugation with diag(z^{a_i}) on the overlap.  Curvature is computed in
closed form when the evaluator provides it (the Fubini-Study family
does) and by 4th-order finite differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .geometry import (
    CHART_W,
    CHART_Z,
    QuadratureRule,
    SpherePoint,
    contract,
    integrate_values,
    tree_sum,
)


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


def slope(spec: BundleSpec) -> Fraction:
    return spec.slope


def regularity(spec: BundleSpec) -> int:
    """Least k making every twisted summand degree nonnegative (may be
    negative when all summand degrees are positive)."""
    return max(-a for a in spec.degrees)


def transition_matrix(spec: BundleSpec, z: complex) -> np.ndarray:
    """Frame change diag(z^{a_i}) from chart Z to chart W components."""
    return np.diag([complex(z) ** a for a in spec.degrees])


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


class MetricEvaluator:
    """Base class: a pointwise hermitian positive-definite matrix field."""

    bundle: BundleSpec
    family: str = "generic"

    def evaluate(self, p: SpherePoint) -> np.ndarray:
        raise NotImplementedError

    def evaluate_batch(self, charts: np.ndarray, coords: np.ndarray) -> np.ndarray:
        out = np.empty((len(coords), self.bundle.rank, self.bundle.rank), dtype=complex)
        for i, (cz, x) in enumerate(zip(charts, coords)):
            out[i] = self.evaluate(SpherePoint(CHART_Z if cz else CHART_W, complex(x)))
        return out

    def evaluate_with_curvature(self, charts: np.ndarray, coords: np.ndarray):
        """Metric values and contracted curvature at many points, shape
        (n, r, r) each; finite-difference curvature unless overridden."""
        coords = np.asarray(coords, dtype=complex)
        F = fd_curvature_batch(self, charts, coords)
        scale = (1.0 + np.abs(coords) ** 2) ** 2
        return self.evaluate_batch(charts, coords), F * scale[:, None, None]

    def check_point(self, p: SpherePoint) -> np.ndarray:
        m = self.evaluate(p)
        if np.linalg.norm(m - m.conj().T) > 1e-10 * (1 + np.linalg.norm(m)):
            raise RuntimeError(f"metric not hermitian at {p}")
        w = np.linalg.eigvalsh(_hermitize(m))
        if w[0] <= 0:
            raise RuntimeError(f"metric not positive definite at {p}")
        return m


class ExplicitMetric(MetricEvaluator):
    """Metric given by an explicit function (chart, coord) -> matrix."""

    family = "explicit"

    def __init__(self, bundle: BundleSpec, fn):
        self.bundle = bundle
        self.fn = fn

    def evaluate(self, p: SpherePoint) -> np.ndarray:
        return np.asarray(self.fn(p.chart, p.coord), dtype=complex).reshape(
            (self.bundle.rank, self.bundle.rank)
        )


class _StandardMetric(MetricEvaluator):
    """diag((1+|coord|^2)^(-a_i)) in either chart."""

    family = "explicit"

    def __init__(self, bundle: BundleSpec):
        self.bundle = bundle
        self._neg_degs = -np.array(bundle.degrees, dtype=float)

    def evaluate(self, p: SpherePoint) -> np.ndarray:
        return self.evaluate_batch(np.array([p.chart == CHART_Z]), np.array([p.coord]))[0]

    def evaluate_batch(self, charts, coords) -> np.ndarray:
        x = np.asarray(coords, dtype=complex)
        # hypot rounds as the scalar abs(x) does; np.abs can differ in the last bit
        x2 = np.hypot(x.real, x.imag) ** 2
        r = self.bundle.rank
        out = np.zeros((len(x2), r, r), dtype=complex)
        out[:, np.arange(r), np.arange(r)] = (1.0 + x2[:, None]) ** self._neg_degs
        return out


def trivial_metric(bundle: BundleSpec) -> MetricEvaluator:
    """Identity metric; natural on degree-0 summands, and the standard
    homogeneous metric (1+|coord|^2)^(-a) on degree-a summands so the
    two charts glue."""
    return _StandardMetric(bundle)


class ScaledMetric(MetricEvaluator):
    family = "scaled"

    def __init__(self, base: MetricEvaluator, factor: float):
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        self.bundle = base.bundle
        self.base = base
        self.factor = float(factor)

    def evaluate(self, p: SpherePoint) -> np.ndarray:
        return self.factor * self.base.evaluate(p)

    def evaluate_batch(self, charts, coords):
        return self.factor * self.base.evaluate_batch(charts, coords)

    def evaluate_with_curvature(self, charts, coords):
        # constant scaling leaves the curvature unchanged
        h, lam = self.base.evaluate_with_curvature(charts, coords)
        return self.factor * h, lam

    def __getattr__(self, name):
        # constant scaling leaves curvature and connection data unchanged
        if name in ("curvature_coeff", "connection_coeff"):
            return getattr(self.base, name)
        raise AttributeError(name)


def _geodesic_parts(h0: np.ndarray, h1: np.ndarray):
    """Batched square roots and relative eigendecomposition of a metric
    pair; accepts (..., r, r) arrays."""
    w0, v0 = np.linalg.eigh(0.5 * (h0 + np.swapaxes(h0, -1, -2).conj()))
    if np.any(w0[..., 0] <= 0):
        raise RuntimeError("metric value not positive definite")
    rt = (v0 * np.sqrt(w0)[..., None, :]) @ np.swapaxes(v0, -1, -2).conj()
    irt = (v0 / np.sqrt(w0)[..., None, :]) @ np.swapaxes(v0, -1, -2).conj()
    b = irt @ h1 @ irt
    b = 0.5 * (b + np.swapaxes(b, -1, -2).conj())
    wb, vb = np.linalg.eigh(b)
    if np.any(wb[..., 0] <= 0):
        raise RuntimeError("metric pair not jointly positive definite")
    return rt, irt, wb, vb


def geodesic_interpolate_batch(h0: np.ndarray, h1: np.ndarray, s: float) -> np.ndarray:
    """exp(s log(h1 h0^-1)) h0, batched over leading axes."""
    rt, irt, wb, vb = _geodesic_parts(h0, h1)
    bs = (vb * (wb**s)[..., None, :]) @ np.swapaxes(vb, -1, -2).conj()
    out = rt @ bs @ rt
    return 0.5 * (out + np.swapaxes(out, -1, -2).conj())


def geodesic_log_batch(h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """log(h1 h0^-1), batched over leading axes."""
    rt, irt, wb, vb = _geodesic_parts(h0, h1)
    lb = (vb * np.log(wb)[..., None, :]) @ np.swapaxes(vb, -1, -2).conj()
    return rt @ lb @ irt


def geodesic_interpolate(h0: np.ndarray, h1: np.ndarray, s: float) -> np.ndarray:
    """Pointwise exp(s log(h1 h0^-1)) h0 through the symmetric square-root
    conjugation, so the result is hermitian PD by construction."""
    w0, v0 = np.linalg.eigh(_hermitize(h0))
    if w0[0] <= 0:
        raise RuntimeError("geodesic endpoint not positive definite")
    rt = (v0 * np.sqrt(w0)) @ v0.conj().T
    irt = (v0 / np.sqrt(w0)) @ v0.conj().T
    b = _hermitize(irt @ h1 @ irt)
    wb, vb = np.linalg.eigh(b)
    if wb[0] <= 0:
        raise RuntimeError("geodesic endpoints not jointly positive definite")
    bs = (vb * wb**s) @ vb.conj().T
    return _hermitize(rt @ bs @ rt)


class GeodesicMetric(MetricEvaluator):
    family = "geodesic"

    def __init__(self, h0: MetricEvaluator, h1: MetricEvaluator, s: float):
        if h0.bundle.degrees != h1.bundle.degrees:
            raise ValueError("geodesic endpoints live on different bundles")
        self.bundle = h0.bundle
        self.h0 = h0
        self.h1 = h1
        self.s = float(s)

    def evaluate(self, p: SpherePoint) -> np.ndarray:
        return geodesic_interpolate(self.h0.evaluate(p), self.h1.evaluate(p), self.s)

    def evaluate_batch(self, charts, coords):
        return geodesic_interpolate_batch(
            self.h0.evaluate_batch(charts, coords),
            self.h1.evaluate_batch(charts, coords),
            self.s,
        )


class PointwiseExpMetric(MetricEvaluator):
    """h_s = h0 expm(s v) for an h0-hermitian endomorphism field v."""

    family = "pointwise_exp"

    def __init__(self, h0: MetricEvaluator, v_field, s: float):
        self.bundle = h0.bundle
        self.h0 = h0
        self.v_field = v_field
        self.s = float(s)

    def evaluate(self, p: SpherePoint) -> np.ndarray:
        h0 = self.h0.evaluate(p)
        v = np.asarray(self.v_field(p), dtype=complex)
        return _hermitize(h0 @ scipy.linalg.expm(self.s * v))


class EndomorphismField:
    """A matrix field in frame components, with its metric context."""

    def __init__(self, fn, metric_context: MetricEvaluator):
        self.fn = fn
        self.metric_context = metric_context

    def evaluate(self, p: SpherePoint) -> np.ndarray:
        return np.asarray(self.fn(p), dtype=complex)


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFF = np.array([-2, -1, 0, 1, 2])


def fd_curvature(h: MetricEvaluator, p: SpherePoint, step: float | None = None) -> np.ndarray:
    """4th-order finite-difference coefficient of the curvature form.

    Returns the coefficient F of (i/2pi) F dz^dz-bar in p's chart, from
    F = d/dz-bar (h^-1 dh/dz) with a sign making the area form's own
    contraction +1.
    """
    x0 = p.coord
    dl = step if step is not None else 1e-3 * (1.0 + abs(x0))
    vals_x = np.array([h.evaluate(SpherePoint(p.chart, x0 + o * dl)) for o in _OFF])
    vals_y = np.array([h.evaluate(SpherePoint(p.chart, x0 + 1j * o * dl)) for o in _OFF])
    hc = vals_x[2]
    hx = np.tensordot(_D1, vals_x, axes=(0, 0)) / dl
    hy = np.tensordot(_D1, vals_y, axes=(0, 0)) / dl
    hxx = np.tensordot(_D2, vals_x, axes=(0, 0)) / dl**2
    hyy = np.tensordot(_D2, vals_y, axes=(0, 0)) / dl**2
    hz = 0.5 * (hx - 1j * hy)
    hzb = 0.5 * (hx + 1j * hy)
    hzzb = 0.25 * (hxx + hyy)
    hinv = np.linalg.inv(hc)
    return hinv @ hzb @ hinv @ hz - hinv @ hzzb


def fd_curvature_batch(
    h: MetricEvaluator, charts: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """Batched finite-difference curvature coefficients, shape (n, r, r)."""
    coords = np.asarray(coords, dtype=complex)
    dl = 1e-3 * (1.0 + np.abs(coords))
    vals_x = np.array([h.evaluate_batch(charts, coords + o * dl) for o in _OFF])
    vals_y = np.array([h.evaluate_batch(charts, coords + 1j * o * dl) for o in _OFF])
    inv_dl = (1.0 / dl)[:, None, None]
    hc = vals_x[2]
    hx = np.tensordot(_D1, vals_x, axes=(0, 0)) * inv_dl
    hy = np.tensordot(_D1, vals_y, axes=(0, 0)) * inv_dl
    hxx = np.tensordot(_D2, vals_x, axes=(0, 0)) * inv_dl**2
    hyy = np.tensordot(_D2, vals_y, axes=(0, 0)) * inv_dl**2
    hz = 0.5 * (hx - 1j * hy)
    hzb = 0.5 * (hx + 1j * hy)
    hzzb = 0.25 * (hxx + hyy)
    hinv = np.linalg.inv(hc)
    return hinv @ hzb @ hinv @ hz - hinv @ hzzb


def chern_curvature(h: MetricEvaluator, p: SpherePoint) -> np.ndarray:
    """Curvature coefficient, closed form when available."""
    if hasattr(h, "curvature_coeff"):
        return h.curvature_coeff(p)
    return fd_curvature(h, p)


def contracted_curvature_batch(h: MetricEvaluator, rule: QuadratureRule) -> np.ndarray:
    """Lambda-contracted curvature at all rule nodes, shape (n, r, r)."""
    return h.evaluate_with_curvature(rule.charts, rule.coords)[1]


def he_residual(h: MetricEvaluator, rule: QuadratureRule) -> dict:
    """Sup and L2 norms of the Einstein defect, plus the defect field."""
    mu = float(h.bundle.slope)
    hv, lam = h.evaluate_with_curvature(rule.charts, rule.coords)
    r = h.bundle.rank
    res = lam - mu * np.eye(r)
    hinv = np.linalg.inv(hv)
    # make the defect hermitian with respect to h before taking norms
    res_h = 0.5 * (res + hinv @ np.transpose(res, (0, 2, 1)).conj() @ hv)
    sup = np.linalg.norm(res_h, 2, axis=(1, 2)).max()
    tr_sq = np.einsum("nij,nji->n", res_h, res_h).real
    l2 = float(np.sqrt(max(0.0, tree_sum(tr_sq * rule.weights))))

    def field_fn(p: SpherePoint) -> np.ndarray:
        lam_p = contract(chern_curvature(h, p), p)
        return lam_p - mu * np.eye(r)

    return {"sup": float(sup), "l2": l2, "field": EndomorphismField(field_fn, h)}


def _relative_eigs(h: MetricEvaluator, h0: MetricEvaluator, rule: QuadratureRule) -> np.ndarray:
    """Ascending eigenvalues of h relative to h0 at every node.

    With h0 = L L*, the pencil is reduced to L^-1 h L^-* by the lower
    branch of LAPACK's hegs2, the reduction behind scipy's generalized
    eigh, batched over nodes.  Its operation order is kept only so that,
    against a diagonal h0 such as the solver's default reference, the
    values match scipy's to the last bit: the solver's absolute
    ``sy > 1e-16`` Barzilai-Borwein test sees that last bit, and a plain
    whitening would change its iteration counts.
    """
    a = h.evaluate_batch(rule.charts, rule.coords)
    b = h0.evaluate_batch(rule.charts, rule.coords)
    a = 0.5 * (a + np.swapaxes(a, -1, -2).conj())
    L = np.linalg.cholesky(0.5 * (b + np.swapaxes(b, -1, -2).conj()))
    r = a.shape[-1]
    for k in range(r):
        lkk = L[:, k, k].real
        akk = a[:, k, k].real / lkk**2
        a[:, k, k] = akk
        if k + 1 == r:
            break
        l = L[:, k + 1 :, k]
        ct = (-0.5 * akk)[:, None]
        x = a[:, k + 1 :, k] * (1.0 / lkk)[:, None] + ct * l
        # hermitian rank-2 update of the trailing block: x l* + l x*
        a[:, k + 1 :, k + 1 :] -= (
            x[:, :, None] * l.conj()[:, None, :] + l[:, :, None] * x.conj()[:, None, :]
        )
        x += ct * l
        # forward substitution with the trailing block of L
        for i in range(r - k - 1):
            j = k + 1 + i
            x[:, i] = (x[:, i] - np.sum(L[:, j, k + 1 : j] * x[:, :i], axis=1)) / L[:, j, j]
        a[:, k + 1 :, k] = x
    return np.linalg.eigvalsh(a)  # reads the lower triangle only


def scale_normalize(h: MetricEvaluator, h_ref: MetricEvaluator, rule: QuadratureRule):
    """Divide h by the node-infimum of the least relative eigenvalue."""
    eigs = _relative_eigs(h, h_ref, rule)
    c = float(eigs[:, 0].min())
    if c <= 0:
        raise RuntimeError("relative eigenvalues not positive")
    return ScaledMetric(h, 1.0 / c), c


def delta_boundedness(h: MetricEvaluator, h0: MetricEvaluator, rule: QuadratureRule) -> float:
    """Node-infimum of lambda_min/lambda_max of h relative to h0."""
    eigs = _relative_eigs(h, h0, rule)
    return float((eigs[:, 0] / eigs[:, -1]).min())
