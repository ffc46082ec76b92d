"""Global sections of twisted split bundles and Fubini-Study metrics.

H0(E(k)) has the monomial basis z^j on the degree-(a_i+k) summand,
0 <= j <= a_i+k, ordered summand-major with ascending exponent.  A
positive hermitian form G on that space induces a bundle metric
h(p) = e^{k phi(p)} (S(p) G^-1 S(p)*)^-1 where S(p) is the section
evaluation matrix in p's chart frame; its curvature is closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import BundleSpec, MetricEvaluator, EndomorphismField, regularity
from .geometry import (
    CHART_W,
    CHART_Z,
    QuadratureRule,
    SpherePoint,
    contract_batch,
    integrate_values,
    tree_sum,
)


@dataclass(frozen=True)
class SectionBasis:
    bundle: BundleSpec
    k: int
    entries: tuple  # (summand index, exponent)

    @property
    def N(self) -> int:
        return len(self.entries)


def basis(spec: BundleSpec, k: int) -> SectionBasis:
    reg = regularity(spec)
    if k < reg:
        raise ValueError(f"level k={k} below the minimum level {reg} for this bundle")
    entries = tuple(
        (i, j) for i, a in enumerate(spec.degrees) for j in range(a + k + 1)
    )
    return SectionBasis(bundle=spec, k=int(k), entries=entries)


def eval_matrix_batch(sb: SectionBasis, charts: np.ndarray, coords: np.ndarray):
    """Section values and first coordinate derivatives at many points.

    Returns (S, S1) of shape (n, r, N) in each point's own chart frame:
    chart Z places x^j in row i, chart W places x^{a_i+k-j}.
    """
    n = len(coords)
    r = sb.bundle.rank
    S = np.zeros((n, r, sb.N), dtype=complex)
    S1 = np.zeros((n, r, sb.N), dtype=complex)
    x = np.asarray(coords, dtype=complex)
    cz = np.asarray(charts, dtype=bool)
    for col, (i, j) in enumerate(sb.entries):
        d = sb.bundle.degrees[i] + sb.k
        ez = j
        ew = d - j
        e = np.where(cz, ez, ew)
        S[:, i, col] = x**e
        nz = e > 0
        S1[nz, i, col] = (e[nz] * x[nz] ** (e[nz] - 1))
    return S, S1


def eval_matrix(sb: SectionBasis, p: SpherePoint) -> np.ndarray:
    S, _ = eval_matrix_batch(sb, np.array([p.chart == CHART_Z]), np.array([p.coord]))
    return S[0]


@dataclass(frozen=True)
class PositiveForm:
    matrix: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("form must be a square matrix")
        if np.linalg.norm(g - g.conj().T) > 1e-12 * max(1.0, np.linalg.norm(g)):
            raise ValueError("form is not hermitian")
        try:
            np.linalg.cholesky(0.5 * (g + g.conj().T))
        except np.linalg.LinAlgError as exc:
            raise ValueError("form is not positive definite") from exc

    @property
    def N(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(G) -> np.ndarray:
    if isinstance(G, PositiveForm):
        return G.matrix
    return np.asarray(G, dtype=complex)


def l2_gram(sb: SectionBasis, h: MetricEvaluator, rule: QuadratureRule) -> PositiveForm:
    """L2 form of the basis sections against h and the level-k line weight."""
    S, _ = eval_matrix_batch(sb, rule.charts, rule.coords)
    hv = h.evaluate_batch(rule.charts, rule.coords)
    wphi = (1.0 + np.abs(rule.coords) ** 2) ** (-sb.k)
    vals = np.einsum("nji,njl,nlm->nim", S.conj(), hv, S) * wphi[:, None, None]
    g = integrate_values(vals, rule)
    g = 0.5 * (g + g.conj().T)
    try:
        return PositiveForm(g)
    except ValueError as exc:
        raise RuntimeError(
            "degenerate L2 form; refine the quadrature rule"
        ) from exc


def _equilibrated_inverse(T: np.ndarray) -> np.ndarray:
    """Inverse of A = T T* over any leading batch axes, taken after the
    diagonal equilibration A -> D^-1 A D^-1."""
    A = T @ np.swapaxes(T, -1, -2).conj()
    d = np.sqrt(np.maximum(np.diagonal(A, axis1=-2, axis2=-1).real, 0.0))
    if np.any(d <= 0):
        raise RuntimeError("section evaluation matrix is rank-deficient")
    dinv = 1.0 / d
    At = A * dinv[..., :, None] * dinv[..., None, :]
    return np.linalg.inv(At) * dinv[..., :, None] * dinv[..., None, :]


def _fs_curvature(T, T1, Ainv, coords, k: int) -> np.ndarray:
    """Closed-form curvature coefficient of (i/2pi) dz^dz-bar of the FS
    metric with section factors T = S W, T1 = S' W and Ainv = (T T*)^-1,
    over any leading batch axes ending in the node axis of `coords`."""
    Tc = np.swapaxes(T, -1, -2).conj()
    A1 = T1 @ Tc  # d/dx A
    A11 = T1 @ np.swapaxes(T1, -1, -2).conj()  # d/dx d/dx-bar A
    omega_c = (1.0 + np.abs(coords) ** 2) ** (-2.0)
    r = T.shape[-2]
    term = (A11 - A1 @ Ainv @ np.swapaxes(A1, -1, -2).conj()) @ Ainv
    return term - k * omega_c[:, None, None] * np.eye(r)


class FSMetric(MetricEvaluator):
    """Metric induced by a positive form on the level-k section space.

    Stored through an inverse-form factor W with G^-1 = W W*, which
    stays usable even when G itself is extremely ill-conditioned.
    """

    family = "fs"

    def __init__(self, sb: SectionBasis, G=None, ginv_factor: np.ndarray | None = None):
        self.bundle = sb.bundle
        self.sb = sb
        if ginv_factor is not None:
            self.W = np.asarray(ginv_factor, dtype=complex)
            self._G = _as_matrix(G) if G is not None else None
        else:
            g = _as_matrix(G)
            L = np.linalg.cholesky(0.5 * (g + g.conj().T))
            # G^-1 = L^-* L^-1, so W = L^-*
            self.W = np.linalg.inv(L).conj().T
            self._G = g

    @property
    def G(self) -> np.ndarray:
        if self._G is None:
            self._G = np.linalg.inv(self.W @ self.W.conj().T)
        return self._G

    @property
    def Ginv(self) -> np.ndarray:
        return self.W @ self.W.conj().T

    # -- pointwise API ------------------------------------------------
    def evaluate(self, p: SpherePoint) -> np.ndarray:
        return self.evaluate_batch(
            np.array([p.chart == CHART_Z]), np.array([p.coord])
        )[0]

    def _core(self, charts, coords):
        """Per-node S, T = S W, T1 = S' W and the equilibrated inverse of
        A = T T*."""
        S, S1 = eval_matrix_batch(self.sb, charts, coords)
        T = S @ self.W
        T1 = S1 @ self.W
        return S, T, T1, _equilibrated_inverse(T)

    def _metric(self, Ainv, coords) -> np.ndarray:
        ekphi = (1.0 + np.abs(coords) ** 2) ** self.sb.k
        h = Ainv * ekphi[:, None, None]
        return 0.5 * (h + np.transpose(h, (0, 2, 1)).conj())

    def evaluate_batch(self, charts, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=complex)
        return self._metric(self._core(charts, coords)[3], coords)

    # -- closed-form differential data --------------------------------
    def evaluate_with_curvature(self, charts, coords):
        coords = np.asarray(coords, dtype=complex)
        _, T, T1, Ainv = self._core(charts, coords)
        lam = contract_batch(self._curvature(T, T1, Ainv, coords), coords)
        return self._metric(Ainv, coords), lam

    def curvature_coeff(self, p: SpherePoint) -> np.ndarray:
        """Coefficient of (i/2pi) dz^dz-bar of the curvature at p."""
        coords = np.array([p.coord])
        _, T, T1, Ainv = self._core(np.array([p.chart == CHART_Z]), coords)
        return self._curvature(T, T1, Ainv, coords)[0]

    def _curvature(self, T, T1, Ainv, coords) -> np.ndarray:
        """Curvature coefficient from the factors of `_core`, batched."""
        return _fs_curvature(T, T1, Ainv, coords, self.sb.k)

    def connection_coeff(self, p: SpherePoint) -> np.ndarray:
        """Chern connection coefficient a = h^-1 dh/dx in p's chart."""
        charts = np.array([p.chart == CHART_Z])
        coords = np.array([p.coord])
        _, T, T1, Ainv = self._core(charts, coords)
        x = p.coord
        dphi = np.conj(x) / (1.0 + abs(x) ** 2)
        A1 = (T1 @ np.transpose(T, (0, 2, 1)).conj())[0]
        return self.sb.k * dphi * np.eye(self.bundle.rank) - A1 @ Ainv[0]


def fs_metric(sb: SectionBasis, G) -> FSMetric:
    return FSMetric(sb, G=G)


def fs_identity_defect(sb: SectionBasis, G, p: SpherePoint) -> float:
    """Defect of the defining identity: the sum of s_i (x) s_i^* over a
    G-orthonormal basis must be the identity endomorphism."""
    g = _as_matrix(G)
    hm = FSMetric(sb, G=g)
    S = eval_matrix(sb, p)
    hk = hm.evaluate(p) / (1.0 + abs(p.coord) ** 2) ** sb.k  # metric on E(k)
    total = S @ np.linalg.inv(g) @ S.conj().T @ hk
    return float(np.linalg.norm(total - np.eye(sb.bundle.rank)))


def bergman_kernel(h: MetricEvaluator, k: int, rule: QuadratureRule) -> dict:
    """Kernel endomorphism comparing h with the FS metric of its L2 form.

    raw(p) = h(p) fs(p)^-1; the normalized kernel multiplies by
    r * Vol / N and tends to the identity as k grows.
    """
    sb = basis(h.bundle, k)
    G = l2_gram(sb, h, rule)
    hfs = FSMetric(sb, G=G.matrix)
    hv = h.evaluate_batch(rule.charts, rule.coords)
    fv = hfs.evaluate_batch(rule.charts, rule.coords)
    raw = hv @ np.linalg.inv(fv)
    r = h.bundle.rank
    norm_factor = r * 1.0 / sb.N  # volume is 1
    tilde = norm_factor * raw
    sup_dev = np.linalg.norm(tilde - np.eye(r), 2, axis=(1, 2)).max()
    raw_sup_dev = np.linalg.norm(raw - (sb.N / r) * np.eye(r), 2, axis=(1, 2)).max()

    def norm_fn(p: SpherePoint) -> np.ndarray:
        return norm_factor * h.evaluate(p) @ np.linalg.inv(hfs.evaluate(p))

    def raw_fn(p: SpherePoint) -> np.ndarray:
        return h.evaluate(p) @ np.linalg.inv(hfs.evaluate(p))

    return {
        "field": EndomorphismField(norm_fn, h),
        "raw_field": EndomorphismField(raw_fn, h),
        "sup_dev": float(sup_dev),
        "raw_sup_dev": float(raw_sup_dev),
        "N": sb.N,
        "gram": G,
    }


def fs_pointwise_bound_audit(sb: SectionBasis, G0, zeta: np.ndarray, points) -> dict:
    """Sandwich audit of diagonal metric entries under a form conjugation.

    With G = e^zeta G0 e^zeta, each diagonal entry of the induced metric
    must lie between e^{-2||zeta||op} and e^{+2||zeta||op} times the
    unperturbed entry.  Returns the worst signed margins (>= 0 means the
    inequality holds).
    """
    g0 = _as_matrix(G0)
    zeta = np.asarray(zeta, dtype=complex)
    if np.linalg.norm(zeta - zeta.conj().T) > 1e-10 * max(1.0, np.linalg.norm(zeta)):
        raise ValueError("zeta must be hermitian")
    import scipy.linalg as sla

    ez = sla.expm(zeta)
    gz = ez.conj().T @ g0 @ ez
    opn = float(np.linalg.norm(zeta, 2))
    h0 = FSMetric(sb, G=g0)
    hz = FSMetric(sb, G=0.5 * (gz + gz.conj().T))
    lo, hi = np.exp(-2.0 * opn), np.exp(2.0 * opn)
    worst_low = np.inf
    worst_high = np.inf
    for p in points:
        d0 = np.diag(h0.evaluate(p)).real
        dz = np.diag(hz.evaluate(p)).real
        worst_low = min(worst_low, float(np.min(dz / d0 - lo)))
        worst_high = min(worst_high, float(np.min(hi - dz / d0)))
    return {
        "op_norm": opn,
        "margin_lower": worst_low,
        "margin_upper": worst_high,
        "passes": worst_low >= -1e-10 and worst_high >= -1e-10,
    }
