"""The energy functional on metrics and its calculus.

M(h1, h0) integrates tr(h_t^-1 dh_t/dt (LambdaF_t - mu Id)) over the
sphere and over a path of metrics joining h0 to h1; the value is
path-independent, so we integrate along whichever path admits analytic
t-derivatives (form-space geodesics for Fubini-Study endpoints,
pointwise exponentials otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundle import (
    BundleSpec,
    GeodesicMetric,
    MetricEvaluator,
    fd_curvature,
    _hermitize,
)
from .geometry import (
    CHART_Z,
    QuadratureRule,
    SpherePoint,
    contract,
    contract_batch,
    integrate_values,
    tree_sum,
)
from .sections import (
    FSMetric,
    SectionBasis,
    _equilibrated_inverse,
    _fs_curvature,
    eval_matrix_batch,
)

_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFF = np.array([-2, -1, 0, 1, 2])

# most (t-node, sphere-node) pairs evaluated in one batch by the Bergman
# path: the size of a 64x64 rule
_MAX_POINTS = 4096


def geodesic_log(h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """log(h1 h0^-1) through the symmetric square-root conjugation."""
    w0, v0 = np.linalg.eigh(_hermitize(h0))
    if w0[0] <= 0:
        raise RuntimeError("metric value not positive definite")
    rt = (v0 * np.sqrt(w0)) @ v0.conj().T
    irt = (v0 / np.sqrt(w0)) @ v0.conj().T
    b = _hermitize(irt @ h1 @ irt)
    wb, vb = np.linalg.eigh(b)
    if wb[0] <= 0:
        raise RuntimeError("metric pair not jointly positive definite")
    logb = (vb * np.log(wb)) @ vb.conj().T
    return rt @ logb @ irt


class BergmanPath:
    """Form-space geodesic between two positive forms on H0(E(k)).

    G_t = G0^(1/2) (G0^(-1/2) G1 G0^(-1/2))^t G0^(1/2); both G_t^-1 and
    dG/dt admit stable factorized expressions.
    """

    kind = "bergman"

    def __init__(self, sb: SectionBasis, G0, G1, t_order: int = 16):
        from .sections import _as_matrix

        self.sb = sb
        self.t_order = int(t_order)
        if self.t_order < 4:
            raise ValueError("t-quadrature order must be at least 4")
        g0 = _as_matrix(G0)
        g1 = _as_matrix(G1)
        w0, v0 = np.linalg.eigh(_hermitize(g0))
        if w0[0] <= 0:
            raise ValueError("G0 not positive definite")
        i0 = (v0 / np.sqrt(w0)) @ v0.conj().T  # G0^(-1/2)
        m = _hermitize(i0 @ g1 @ i0)
        lam, u = np.linalg.eigh(m)
        if lam[0] <= 0:
            raise ValueError("G1 not positive definite relative to G0")
        self._base = i0 @ u  # columns: G0^(-1/2) u_i
        self._lam = lam
        self._loglam = np.log(lam)

    def metric_at(self, t: float) -> FSMetric:
        w = self._base * self._lam ** (-0.5 * t)
        return FSMetric(self.sb, ginv_factor=w)

    def k_matrix(self, t: float) -> np.ndarray:
        """K_t = G_t^-1 dG_t/dt G_t^-1 (hermitian)."""
        return (self._base * (self._lam ** (-t) * self._loglam)) @ self._base.conj().T

    def deriv_integrand(self, t, rule: QuadratureRule):
        """dM/dt along the path: a float for a scalar t, an array for a
        1-D array of t.

        W_t = base diag(lam^(-t/2)), so T_t = (S base) diag(lam^(-t/2))
        and S K_t S* = (S base) diag(lam^(-t) log lam) (S base)*; the
        t-nodes are evaluated in chunks of at most _MAX_POINTS points.
        """
        ts = np.asarray(t, dtype=float)
        S, S1 = eval_matrix_batch(self.sb, rule.charts, rule.coords)
        SB = S @ self._base
        S1B = S1 @ self._base
        SBc = np.swapaxes(SB, -1, -2).conj()
        mu = float(self.sb.bundle.slope)
        res_shift = mu * np.eye(self.sb.bundle.rank)
        flat = ts.reshape(-1)
        out = np.empty(flat.shape)
        step = max(1, _MAX_POINTS // rule.n)
        for lo in range(0, len(flat), step):
            tc = flat[lo : lo + step, None]
            c = (self._lam ** (-0.5 * tc))[:, None, None, :]
            T = SB * c
            T1 = S1B * c
            Ainv = _equilibrated_inverse(T)
            F = _fs_curvature(T, T1, Ainv, rule.coords, self.sb.k)
            res = contract_batch(F, rule.coords) - res_shift
            # h^-1 dh/dt = S K_t S* A^-1
            d = (self._lam ** (-tc) * self._loglam)[:, None, None, :]
            u = (SB * d) @ SBc @ Ainv
            vals = np.einsum("...ij,...ji->...", u, res).real
            out[lo : lo + step] = tree_sum((vals * rule.weights).T)
        return float(out[0]) if ts.ndim == 0 else out

    def vfield_at(self, t: float):
        hm = self.metric_at(t)
        K = self.k_matrix(t)

        def v(p: SpherePoint) -> np.ndarray:
            charts = np.array([p.chart == CHART_Z])
            coords = np.array([p.coord])
            S, _, _, Ainv = hm._core(charts, coords)
            return S[0] @ K @ S[0].conj().T @ Ainv[0]

        return v


class PointwiseExponentialPath:
    """Pointwise geodesic between two arbitrary metric evaluators."""

    kind = "pointwise_exp"

    def __init__(self, h0: MetricEvaluator, h1: MetricEvaluator, t_order: int = 12):
        if h0.bundle.degrees != h1.bundle.degrees:
            raise ValueError("path endpoints live on different bundles")
        self.h0 = h0
        self.h1 = h1
        self.t_order = int(t_order)
        if self.t_order < 4:
            raise ValueError("t-quadrature order must be at least 4")

    def metric_at(self, t: float) -> MetricEvaluator:
        return GeodesicMetric(self.h0, self.h1, t)

    def _node_logs(self, rule: QuadratureRule):
        # keyed on the rule object itself, which the cache keeps alive:
        # an id could be recycled by a new rule
        if getattr(self, "_cache_rule", None) is not rule:
            from .bundle import geodesic_log_batch

            h0v = self.h0.evaluate_batch(rule.charts, rule.coords)
            h1v = self.h1.evaluate_batch(rule.charts, rule.coords)
            self._cache_rule = rule
            self._cache = geodesic_log_batch(h0v, h1v)
        return self._cache

    def deriv_integrand(self, t, rule: QuadratureRule):
        """dM/dt along the path: a float for a scalar t, an array for a
        1-D array of t."""
        ts = np.asarray(t, dtype=float)
        out = np.array([self._deriv_one(s, rule) for s in ts.reshape(-1)])
        return float(out[0]) if ts.ndim == 0 else out

    def _deriv_one(self, t: float, rule: QuadratureRule) -> float:
        from .bundle import fd_curvature_batch

        ht = self.metric_at(t)
        mu = float(self.h0.bundle.slope)
        r = self.h0.bundle.rank
        v = self._node_logs(rule)
        m = ht.evaluate_batch(rule.charts, rule.coords)
        F = fd_curvature_batch(ht, rule.charts, rule.coords)
        scale = (1.0 + np.abs(rule.coords) ** 2) ** 2
        lam = F * scale[:, None, None]
        res = lam - mu * np.eye(r)
        vals = np.einsum("nij,njk,nkl,nli->n", np.linalg.inv(m), v, m, res).real
        return float(tree_sum(vals * rule.weights))


def _path_for(h1: MetricEvaluator, h0: MetricEvaluator, t_order: int = 16):
    from .bundle import ScaledMetric

    # a constant rescaling of an FS metric is the FS metric of the scaled form
    if isinstance(h1, ScaledMetric) and isinstance(h1.base, FSMetric):
        h1 = FSMetric(h1.base.sb, G=h1.factor * h1.base.G)
    if isinstance(h0, ScaledMetric) and isinstance(h0.base, FSMetric):
        h0 = FSMetric(h0.base.sb, G=h0.factor * h0.base.G)
    if (
        isinstance(h1, FSMetric)
        and isinstance(h0, FSMetric)
        and h1.sb.entries == h0.sb.entries
    ):
        return BergmanPath(h0.sb, h0.G, h1.G, t_order=t_order)
    return PointwiseExponentialPath(h0, h1, t_order=min(t_order, 12))


def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def donaldson(
    h1: MetricEvaluator,
    h0: MetricEvaluator,
    path=None,
    rule: QuadratureRule | None = None,
    tol: float = 1e-8,
) -> float:
    """Energy of h1 relative to h0 (path independent)."""
    if rule is None:
        raise ValueError("a quadrature rule is required")
    if path is None:
        path = _path_for(h1, h0)
    order = path.t_order
    prev = None
    for _ in range(4):
        tn, tw = _gl_nodes(order)
        val = float(sum(w * v for w, v in zip(tw, path.deriv_integrand(tn, rule))))
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        order *= 2
        if isinstance(path, PointwiseExponentialPath) and order > 24:
            break
        if order > 128:
            break
    return prev


def cocycle_defect(h2, h1, h0, rule: QuadratureRule) -> float:
    m20 = donaldson(h2, h0, rule=rule)
    m21 = donaldson(h2, h1, rule=rule)
    m10 = donaldson(h1, h0, rule=rule)
    return abs(m20 - m21 - m10)


def geodesic(h0: MetricEvaluator, h1: MetricEvaluator, s: float) -> GeodesicMetric:
    return GeodesicMetric(h0, h1, s)


def first_derivative(path, t: float, rule: QuadratureRule) -> float:
    """d/dt of the energy along the path at time t."""
    return path.deriv_integrand(t, rule)


def _connection_coeff(h: MetricEvaluator, p: SpherePoint, step: float | None = None):
    """a = h^-1 dh/dx in p's chart, closed form for FS metrics."""
    if isinstance(h, FSMetric):
        return h.connection_coeff(p)
    x0 = p.coord
    dl = step if step is not None else 1e-3 * (1.0 + abs(x0))
    vx = np.array([h.evaluate(SpherePoint(p.chart, x0 + o * dl)) for o in _OFF])
    vy = np.array([h.evaluate(SpherePoint(p.chart, x0 + 1j * o * dl)) for o in _OFF])
    hx = np.tensordot(_D1, vx, axes=(0, 0)) / dl
    hy = np.tensordot(_D1, vy, axes=(0, 0)) / dl
    hz = 0.5 * (hx - 1j * hy)
    return np.linalg.solve(vx[2], hz)


def _field_first_derivs(fn, p: SpherePoint, step: float | None = None):
    """4th-order d/dz and d/dz-bar of a matrix field given pointwise."""
    x0 = p.coord
    dl = step if step is not None else 1e-3 * (1.0 + abs(x0))
    vx = np.array([fn(SpherePoint(p.chart, x0 + o * dl)) for o in _OFF])
    vy = np.array([fn(SpherePoint(p.chart, x0 + 1j * o * dl)) for o in _OFF])
    fx = np.tensordot(_D1, vx, axes=(0, 0)) / dl
    fy = np.tensordot(_D1, vy, axes=(0, 0)) / dl
    fz = 0.5 * (fx - 1j * fy)
    fzb = 0.5 * (fx + 1j * fy)
    return vx[2], fz, fzb


def second_derivative_geodesic(
    h0: MetricEvaluator, h1: MetricEvaluator, s: float, rule: QuadratureRule
) -> dict:
    """Second s-derivative of the energy along the pointwise geodesic.

    `formula`: the squared norm of d-bar v in the metric at parameter s,
    written as the integral of tr((dv/dz + [a_s, v]) dv/dz-bar) against
    the contracted area element, where a_s is the connection of the
    interpolated metric.  `fd`: centered differences of the first
    derivative along the path.
    """
    from .bundle import GeodesicMetric

    def vfn(p: SpherePoint) -> np.ndarray:
        # velocity endomorphism h^-1 dh/ds = log(h0^-1 h1), constant in s
        h = h0.evaluate(p)
        return np.linalg.solve(h, geodesic_log(h, h1.evaluate(p)) @ h)

    hs = GeodesicMetric(h0, h1, s)
    vals = np.empty(rule.n)
    for i, p in enumerate(rule.nodes):
        v, vz, vzb = _field_first_derivs(vfn, p)
        a_s = _connection_coeff(hs, p)
        grad = vz + a_s @ v - v @ a_s
        coeff = np.trace(grad @ vzb).real
        vals[i] = coeff * (1.0 + abs(p.coord) ** 2) ** 2
    formula = float(tree_sum(vals * rule.weights))

    path = PointwiseExponentialPath(h0, h1)
    eps = 0.05
    stencil = [(o, c) for o, c in zip(_OFF, _D1) if c != 0.0]
    fd = sum(c * path.deriv_integrand(s + o * eps, rule) for o, c in stencil) / eps
    return {"formula": formula, "fd": float(fd)}


def curvature_variation_check(path, t: float, points, step: float = 1e-3) -> float:
    """Defect between the t-derivative of the curvature and the
    covariant-derivative formula d-bar grad (h^-1 dh/dt), at sample
    points; both sides as coefficients of (i/2pi) dz^dz-bar."""
    if not isinstance(path, BergmanPath):
        raise ValueError("analytic variation check needs a form-space path")
    vfn = path.vfield_at(t)
    hm = path.metric_at(t)

    def curv(tt, p):
        return path.metric_at(tt).curvature_coeff(p)

    def afn(p):
        return path.metric_at(t).connection_coeff(p)

    defect = 0.0
    for p in points:
        # LHS: dF/dt by 4th-order differences in t
        dt = step
        lhs = np.tensordot(
            _D1, np.array([curv(t + o * dt, p) for o in _OFF]), axes=(0, 0)
        ) / dt
        # RHS: -(d/dz-bar)(dv/dz + [a, v]) expanded by the product rule
        v, vz, vzb = _field_first_derivs(vfn, p)
        x0 = p.coord
        dl = 1e-3 * (1.0 + abs(x0))
        vxx = np.array([vfn(SpherePoint(p.chart, x0 + o * dl)) for o in _OFF])
        vyy = np.array([vfn(SpherePoint(p.chart, x0 + 1j * o * dl)) for o in _OFF])
        vzzb = 0.25 * (
            np.tensordot(_D2, vxx, axes=(0, 0)) + np.tensordot(_D2, vyy, axes=(0, 0))
        ) / dl**2
        a, az, azb = _field_first_derivs(afn, p)
        rhs = -(vzzb + azb @ v + a @ vzb - vzb @ a - v @ azb)
        defect = max(defect, float(np.max(np.abs(lhs - rhs))))
    return defect


def c_delta(delta: float) -> float:
    """(delta - 1 - log delta) / (log delta)^2, continuously extended to
    the value 1/2 at delta = 1."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    u = delta - 1.0
    if abs(u) < 1e-4:
        # series around delta = 1 to avoid cancellation
        return 0.5 + u / 6.0 - u**2 / 24.0 + u**3 / 45.0
    ld = math.log(delta)
    return (delta - 1.0 - ld) / ld**2


def he_defect_norm(h0: MetricEvaluator, rule: QuadratureRule) -> float:
    """L2 size of the Einstein defect with its scalar average removed."""
    mu = float(h0.bundle.slope)
    r = h0.bundle.rank
    hv, lam = h0.evaluate_with_curvature(rule.charts, rule.coords)
    hinv = np.linalg.inv(hv)
    res = lam - mu * np.eye(r)
    res = 0.5 * (res + hinv @ np.transpose(res, (0, 2, 1)).conj() @ hv)
    avg = tree_sum(np.einsum("nii->n", res).real * rule.weights) / r
    res = res - avg * np.eye(r)
    tr_sq = np.einsum("nij,nji->n", res, res).real
    return float(np.sqrt(max(0.0, tree_sum(tr_sq * rule.weights))))


def _harmonic_family(max_deg: int):
    """Smooth scalar functions z^m (1+|z|^2)^-l, m <= l <= max_deg, with
    their d/dx-bar derivatives, chart-aware."""
    fams = []
    for l in range(max_deg + 1):
        for m in range(l + 1):
            fams.append((l, m))

    def val(l, m, chart, x):
        q = (1.0 + abs(x) ** 2) ** (-l)
        if chart == CHART_Z:
            return x**m * q
        return np.conj(x) ** l * x ** (l - m) * q

    def dbar(l, m, chart, x):
        if chart == CHART_Z:
            return -l * x ** (m + 1) * (1.0 + abs(x) ** 2) ** (-l - 1)
        xb = np.conj(x)
        t1 = l * xb ** (l - 1) * x ** (l - m) * (1.0 + abs(x) ** 2) ** (-l) if l >= 1 else 0.0
        t2 = -l * xb**l * x ** (l - m + 1) * (1.0 + abs(x) ** 2) ** (-l - 1)
        return t1 + t2

    return fams, val, dbar


def _poincare_rayleigh(h0: MetricEvaluator, rule: QuadratureRule, max_deg: int) -> float:
    """Smallest nonzero eigenvalue of the del-bar energy quotient on
    endomorphism fields spanned by scalar harmonics times constant
    matrices (Rayleigh-Ritz upper bound)."""
    r = h0.bundle.rank
    fams, val, dbar = _harmonic_family(max_deg)
    nf = len(fams)
    hv = h0.evaluate_batch(rule.charts, rule.coords)
    hinv = np.linalg.inv(hv)
    gup = (1.0 + np.abs(rule.coords) ** 2) ** 2
    # scalar-function Gram blocks, then tensor with matrix pairings
    fvals = np.empty((nf, rule.n), dtype=complex)
    dvals = np.empty((nf, rule.n), dtype=complex)
    for a, (l, m) in enumerate(fams):
        for i, p in enumerate(rule.nodes):
            fvals[a, i] = val(l, m, p.chart, p.coord)
            dvals[a, i] = dbar(l, m, p.chart, p.coord)
    # matrix basis: elementary matrices; pairing tr(Ea h^-1 Eb^† h)
    mats = [np.zeros((r, r), dtype=complex) for _ in range(r * r)]
    for idx in range(r * r):
        mats[idx][idx // r, idx % r] = 1.0
    pair = np.empty((rule.n, r * r, r * r), dtype=complex)
    for i in range(rule.n):
        for a in range(r * r):
            for b in range(r * r):
                pair[i, a, b] = np.trace(
                    mats[a] @ hinv[i] @ mats[b].conj().T @ hv[i]
                )
    w = rule.weights
    dim = nf * r * r
    Q = np.zeros((dim, dim), dtype=complex)
    M = np.zeros((dim, dim), dtype=complex)
    for a in range(nf):
        for b in range(nf):
            fa_fb = fvals[a] * np.conj(fvals[b])
            da_db = dvals[a] * np.conj(dvals[b]) * gup
            Mblock = np.einsum("n,nab->ab", w * fa_fb, pair)
            Qblock = np.einsum("n,nab->ab", w * da_db, pair)
            M[a * r * r : (a + 1) * r * r, b * r * r : (b + 1) * r * r] = Mblock
            Q[a * r * r : (a + 1) * r * r, b * r * r : (b + 1) * r * r] = Qblock
    import scipy.linalg

    M = 0.5 * (M + M.conj().T)
    Q = 0.5 * (Q + Q.conj().T)
    # drop near-dependent trial vectors
    wM, vM = np.linalg.eigh(M)
    keep = wM > 1e-10 * wM[-1]
    B = vM[:, keep] / np.sqrt(wM[keep])
    Qr = B.conj().T @ Q @ B
    ev = np.linalg.eigvalsh(0.5 * (Qr + Qr.conj().T))
    nonzero = ev[ev > 1e-8 * max(1.0, ev[-1])]
    if len(nonzero) == 0:
        raise RuntimeError("trial space saw only the kernel; enlarge it")
    return float(nonzero[0])


def poincare_constant(
    h0: MetricEvaluator, rule: QuadratureRule, subspace_dim: int = 3
) -> dict:
    """1/lambda_1 of the del-bar energy on endomorphism fields, by
    Rayleigh-Ritz with enrichment until stable to 1%."""
    lam_prev = _poincare_rayleigh(h0, rule, subspace_dim)
    stable = False
    lam = lam_prev
    for extra in range(1, 4):
        lam = _poincare_rayleigh(h0, rule, subspace_dim + extra)
        if abs(lam - lam_prev) <= 0.01 * abs(lam_prev):
            stable = True
            break
        lam_prev = lam
    return {"constant": 1.0 / lam, "lambda1": lam, "stable": stable}


@dataclass
class DeltaBoundReport:
    delta: float
    c_delta: float
    he_defect: float
    poincare: float
    bound: float
    mdon: float
    passes: bool


def delta_lower_bound_audit(
    h: MetricEvaluator,
    h0: MetricEvaluator,
    rule: QuadratureRule,
    allow_reducible: bool = False,
    poincare: float | None = None,
    tol: float = 1e-6,
) -> DeltaBoundReport:
    """Audit of the eigenvalue-ratio lower bound on the energy."""
    from .bundle import delta_boundedness

    if h0.bundle.rank >= 2 and not allow_reducible:
        raise ValueError(
            "split bundles of rank >= 2 are reducible; pass allow_reducible=True "
            "to run the audit anyway"
        )
    delta = delta_boundedness(h, h0, rule)
    cd = c_delta(min(1.0, delta))
    cbar = he_defect_norm(h0, rule)
    if poincare is None:
        poincare = poincare_constant(h0, rule)["constant"]
    bound = -0.25 * (1.0 / cd) * cbar**2 * poincare
    mdon = donaldson(h, h0, rule=rule)
    return DeltaBoundReport(
        delta=float(delta),
        c_delta=float(cd),
        he_defect=float(cbar),
        poincare=float(poincare),
        bound=float(bound),
        mdon=float(mdon),
        passes=bool(mdon >= bound - tol),
    )
