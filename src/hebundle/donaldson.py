"""The energy functional on metrics and its calculus.

M(h1, h0) integrates tr(h_t^-1 dh_t/dt (LambdaF_t - mu Id)) over the
sphere and over a path of metrics joining h0 to h1; the value is
path-independent; it runs along the form-space geodesic between
Fubini-Study metrics of one section basis, whose t-derivatives are
closed form, unless the caller names another path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import (
    _D1,
    _OFF,
    GeodesicMetric,
    _chunked_rate,
    _equilibrated_inverse,
    _geodesic_at,
    _geodesic_parts,
    _he_defect,
    _hermitize,
    _mat_mul,
    _stencil_sum,
    _t_chunk,
    delta_boundedness,
    fd_curvature_batch,
    fd_derivatives,
    fd_stencil,
    geodesic_log_batch,
)
from .geometry import QuadratureRule, contract_batch, contraction, e_phi, integrate_values
from .sections import FSMetric, SectionBasis, _fs_curvature, _section_factor, node_sections


def _form_geodesic(G0: np.ndarray, G1: np.ndarray):
    """B = G0^(-1/2) v and lam, for v, lam the eigenvectors and values of
    G0^(-1/2) G1 G0^(-1/2): the form-space geodesic
    G_t = G0^(1/2) (G0^(-1/2) G1 G0^(-1/2))^t G0^(1/2) has G_t^-1 = B diag(lam^-t) B*."""
    _, i0, lam, v = _geodesic_parts(np.asarray(G0, dtype=complex), np.asarray(G1, dtype=complex))
    return i0 @ v, lam


class BergmanPath:
    """Form-space geodesic between two positive forms on H0(E(k))
    (`_form_geodesic`), on the rule of its `sections` (`node_sections`),
    where its constructor forms all that t does not change.  Besides
    `deriv_integrand(t)` it exposes its end state, FS(G1) on the nodes
    (`end_state`), which the solver's next gradient reads."""

    def __init__(self, sb: SectionBasis, G0: np.ndarray, G1: np.ndarray, sections):
        self.sb = sb
        self._rule = sections[0]
        self._base, self._lam = _form_geodesic(G0, G1)
        self._loglam = np.log(self._lam)
        # columns of S B and S' B, (N, n, r, 1), and their rank-one
        # moments, (N, 3, n, r, r)
        u, u1 = (np.moveaxis(_section_factor(S, self._base), -1, 0)[..., None]
                 for S in sections[1:3])
        uc, u1c = np.swapaxes(u, -1, -2).conj(), np.swapaxes(u1, -1, -2).conj()
        self._mom = np.ascontiguousarray(np.stack([u * uc, u1 * uc, u1 * u1c], axis=1))
        self._end = None

    def _nodes(self, ts):
        """A_t, its equilibrated inverse, the contracted curvature and V
        at every node for each t of the 1-D array ts, shape (len(ts), n,
        r, r) each.

        G_t^-1 = B diag(lam^-t) B*, so with the columns u_j of S B and u'_j
        of S' B, A_t = sum_j lam_j^-t u_j u_j*, and likewise A' = T' T* and
        A'' = T' T'* from u'_j u_j* and u'_j u'_j*; V is A_t with weights
        lam^-t log lam.  The moments of all of ts come from one real GEMM
        against [lam^-t; lam^-t log lam], which has at least two rows, and
        every later step is a per-node kernel, so a t-node's values do not
        depend on what else ts holds."""
        # lam^-t as an exp: numpy's power takes an exponent that is
        # constant along its inner loop, such as the t = 1 of a one-node
        # call, by a reciprocal, which rounds apart from the power it
        # forms for the same t within a longer ts
        e = np.exp(np.outer(-ts, self._loglam))
        m = len(ts)
        mom = self._mom.view(float).reshape(len(self._lam), -1)
        mo = (np.concatenate([e, e * self._loglam]) @ mom).view(complex)
        mo = mo.reshape((2 * m,) + self._mom.shape[1:])
        A, A1, A11, V = mo[:m, 0], mo[:m, 1], mo[:m, 2], mo[m:, 0]
        Ainv = _equilibrated_inverse(A)
        coords = self._rule.coords
        lamF = contract_batch(_fs_curvature(A1, A11, Ainv, coords, self.sb.k), coords)
        return A, Ainv, lamF, V

    def _keep_end(self, A, Ainv, lamF):
        """Keep the t = 1 node's A, A^-1 and contracted curvature, with
        G1^-1 = B diag(lam^-1) B*, as the end state."""
        ginv = (self._base / self._lam) @ self._base.conj().T
        self._end = (A.copy(), Ainv.copy(), lamF.copy(), ginv)

    def end_state(self):
        """FS(G1) on the nodes of the rule: (A, A^-1, contracted curvature,
        G1^-1), the first three of shape (n, r, r).  It comes from the
        first `deriv_integrand` call when that call's one chunk had room
        for t = 1, and otherwise from a one-node call of its own, with the
        same bits either way."""
        if self._end is None:
            A, Ainv, lamF, _ = self._nodes(np.ones(1))
            self._keep_end(A[0], Ainv[0], lamF[0])
        return self._end

    def deriv_integrand(self, t):
        """dM/dt along the path on the nodes of its rule: a float for a
        scalar t, an array for a 1-D array of t.

        The integral of tr(h^-1 dh/dt (contracted curvature - mu)) with
        h^-1 dh/dt = V A^-1 (`_nodes`).  The constructor forms the rank-one
        moments, so the panels of every level of the energy integral
        (`path_energy`) share them, and each chunk of t-nodes
        (`_chunked_rate`) is one `_nodes` call, so a t-node's value does
        not depend on the others of its call.  While the path has no end
        state, t = 1 joins a call whose t-nodes leave its one chunk room,
        and its node values become the end state (`end_state`): no chunk
        is added for it.
        """
        rule = self._rule
        res_shift = float(self.sb.bundle.slope) * np.eye(self.sb.bundle.rank)
        join = self._end is None and np.size(t) < _t_chunk(rule)

        def node_values(ts):
            m = len(ts)
            A, Ainv, lamF, V = self._nodes(np.append(ts, 1.0) if join else ts)
            if join:
                self._keep_end(A[m], Ainv[m], lamF[m])
            return np.einsum("...ij,...ji->...", _mat_mul(V[:m], Ainv[:m]),
                             lamF[:m] - res_shift).real

        return _chunked_rate(t, rule, node_values)


class PointwiseExponentialPath:
    """Pointwise geodesic between two arbitrary metrics, on the nodes of
    `rule`.

    The constructor evaluates the endpoints on the curvature stencil of
    every node (`fd_stencil`) and takes their `_geodesic_parts` there,
    once, with the stencil steps, and the velocity h_t^-1 dh_t/dt =
    log(h0^-1 h1) at the nodes themselves, the stencil's zero shift; it
    does not depend on t (`geodesic_log_batch`).
    """

    def __init__(self, h0, h1, rule: QuadratureRule):
        if h0.bundle.degrees != h1.bundle.degrees:
            raise ValueError("path endpoints live on different bundles")
        self._rule = rule
        self._res_shift = float(h0.bundle.slope) * np.eye(h0.bundle.rank)
        h0v, self._dl = fd_stencil(h0.evaluate, rule.charts, rule.coords)
        self._parts = _geodesic_parts(h0v, fd_stencil(h1.evaluate, rule.charts, rule.coords)[0])
        self._velocity = geodesic_log_batch(tuple(p[2] for p in self._parts))

    def deriv_integrand(self, t):
        """dM/dt along the path: a float for a scalar t, an array for a
        1-D array of t.  Only the metric at t, a power of the relative
        eigenvalues, is formed per t-node, and each chunk of t-nodes is
        integrated as one array (`_chunked_rate`)."""
        coords = self._rule.coords

        def node_value(s):
            lam = contract_batch(fd_curvature_batch(_geodesic_at(self._parts, s), self._dl), coords)
            return np.einsum("nij,nji->n", self._velocity, lam - self._res_shift).real

        return _chunked_rate(t, self._rule, lambda ts: np.array([node_value(s) for s in ts]))


def _path_for(h1: FSMetric, h0: FSMetric, rule: QuadratureRule) -> BergmanPath:
    if not (isinstance(h1, FSMetric) and isinstance(h0, FSMetric) and h1.sb == h0.sb):
        raise ValueError("the default path needs two FS metrics of one section basis; pass path=")
    return BergmanPath(h0.sb, h0.G, h1.G, node_sections(h0.sb, rule))


# The Gauss-Kronrod 7/15 pair of QUADPACK's qk15 on [-1, 1] (Piessens,
# de Doncker-Kapenga, Ueberhuber, Kahaner, QUADPACK, Springer 1983): the
# nonnegative Kronrod abscissae in descending order, their weights, and
# the weights of the Gauss abscissae, which are every second one of them.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# the pair moved to [0, 1]: the Kronrod nodes ascending, their weights,
# and the weights of the Gauss nodes, which are the odd-index Kronrod ones
_GK_T = np.concatenate([0.5 - 0.5 * np.array(_XGK), 0.5 + 0.5 * np.array(_XGK[-2::-1])])
_GK_WK = 0.5 * np.array(_WGK + _WGK[-2::-1])
_GK_WG = 0.5 * np.array(_WG + _WG[-2::-1])
# bisection levels: the finest panels have width 2^-(_GK_LEVELS - 1)
_GK_LEVELS = 5


def path_energy(path, tol: float) -> float:
    """Integral over t in [0, 1] of the path's dM/dt, on the rule the
    path was built on.

    The Gauss-Kronrod 7/15 pair, with |K15 - G7| as each panel's error
    estimate, starting from the one panel [0, 1]: while the summed
    estimate exceeds `tol`, the panels whose estimate exceeds their share
    tol * width are bisected, down to width 1/16.  No t-node's integrand
    is evaluated twice, and all nodes of a level go in one call.  Returns
    the sum of the panels' K15 values.  Raises RuntimeError, naming the
    value, the estimate, `tol` and the t-node count, when the finest
    level still misses `tol`.
    """
    nodes = 0
    lo, width = np.zeros(1), 1.0
    done_val = done_err = 0.0  # accepted panels
    for _ in range(_GK_LEVELS):
        ts = (lo[:, None] + width * _GK_T).reshape(-1)
        f = np.asarray(path.deriv_integrand(ts)).reshape(len(lo), len(_GK_T))
        nodes += ts.size
        k15 = width * (f @ _GK_WK)
        err = np.abs(k15 - width * (f[:, 1::2] @ _GK_WG))
        value, estimate = done_val + float(k15.sum()), done_err + float(err.sum())
        if estimate <= tol:
            return value
        ok = err <= tol * width
        done_val += float(k15[ok].sum())
        done_err += float(err[ok].sum())
        width *= 0.5
        lo = np.concatenate([lo[~ok], lo[~ok] + width])
    raise RuntimeError(
        f"energy integral missed its tolerance: value {value:.17g}, error "
        f"estimate {estimate:.3e} > tol {tol:.3e} after {nodes} t-nodes"
    )


def donaldson(
    h1: FSMetric,
    h0: FSMetric,
    rule: QuadratureRule,
    path=None,
    tol: float = 1e-8,
) -> float:
    """Energy of h1 relative to h0 (path independent): `path_energy`
    along `path`, by default the form-space geodesic on `rule`, which
    needs two FS metrics of one section basis (ValueError otherwise).
    The metrics and the rule are read only to build that default: a
    given path integrates on its own rule, and a caller holding one may
    pass None for the metrics."""
    return path_energy(_path_for(h1, h0, rule) if path is None else path, tol)


def cocycle_defect(h2, h1, h0, rule: QuadratureRule) -> float:
    m20 = donaldson(h2, h0, rule=rule)
    m21 = donaldson(h2, h1, rule=rule)
    m10 = donaldson(h1, h0, rule=rule)
    return abs(m20 - m21 - m10)


def second_derivative_geodesic(h0: FSMetric, h1: FSMetric, s: float, rule: QuadratureRule) -> dict:
    """Second s-derivative of the energy along the pointwise geodesic,
    from one `PointwiseExponentialPath` on `rule`.

    `formula`: the squared norm of d-bar v in the metric at parameter s,
    written as the integral of tr((dv/dz + [a_s, v]) dv/dz-bar) against
    the contracted area element, where v is the path's velocity, formed
    here on the path's stencil for its derivatives, and a_s is the
    connection of the metric at s (`GeodesicMetric`).  `fd`: centered
    differences of the path's first derivative.
    """
    path = PointwiseExponentialPath(h0, h1, rule)
    v, vz, vzb, _ = fd_derivatives(geodesic_log_batch(path._parts), path._dl)
    hs = GeodesicMetric(h0, h1, s)
    hc, hz, _, _ = fd_derivatives(*fd_stencil(hs.evaluate, rule.charts, rule.coords))
    a_s = _mat_mul(_equilibrated_inverse(hc), hz)
    grad = vz + _mat_mul(a_s, v) - _mat_mul(v, a_s)
    coeff = np.einsum("nij,nji->n", grad, vzb).real
    formula = float(integrate_values(coeff * contraction(rule.coords), rule))

    eps, nz = 0.05, _D1 != 0.0
    fd = _stencil_sum(_D1[nz], path.deriv_integrand(s + _OFF[nz] * eps)) / eps
    return {"formula": formula, "fd": float(fd)}


def curvature_variation_check(h0: FSMetric, h1: FSMetric, t: float, charts, coords) -> float:
    """Defect, along the form-space geodesic from h0 to h1 at t
    (`_form_geodesic`), between the t-derivative of the curvature and the
    covariant-derivative formula d-bar grad (h^-1 dh/dt), at the sample
    points (charts, coords); both sides as coefficients of
    (i/2pi) dz^dz-bar.  The velocity is S K_t S* A^-1, for K_t the form
    G_t^-1 dG_t/dt G_t^-1 = B diag(lam^-t log lam) B*."""
    if not (isinstance(h0, FSMetric) and isinstance(h1, FSMetric) and h0.sb == h1.sb):
        raise ValueError("analytic variation check needs two FS metrics of one section basis")
    base, lam = _form_geodesic(h0.G, h1.G)

    def metric_at(u):
        return FSMetric(h0.sb, ginv_factor=base * lam ** (-0.5 * u))

    hm = metric_at(t)
    K = (base * (lam ** (-t) * np.log(lam))) @ base.conj().T

    def vfield(charts, coords):
        S, _, _, Ainv = hm._core(charts, coords)
        return _mat_mul(_mat_mul(_section_factor(S, K), np.swapaxes(S, -1, -2).conj()), Ainv)

    # LHS: dF/dt by 4th-order differences in t
    step, nz = 1e-3, _D1 != 0.0
    curv = [metric_at(t + o * step).curvature_coeff(charts, coords) for o in _OFF[nz]]
    lhs = _stencil_sum(_D1[nz], curv) / step
    # RHS: -(d/dz-bar)(dv/dz + [a, v]) expanded by the product rule
    v, _, vzb, vzzb = fd_derivatives(*fd_stencil(vfield, charts, coords))
    a, _, azb, _ = fd_derivatives(*fd_stencil(hm.connection_coeff, charts, coords))
    rhs = -(vzzb + _mat_mul(azb, v) + _mat_mul(a, vzb) - _mat_mul(vzb, a) - _mat_mul(v, azb))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


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


def he_defect_norm(h0: FSMetric, rule: QuadratureRule) -> float:
    """L2 size of the Einstein defect with its scalar average removed."""
    r = h0.bundle.rank
    hv, lam = h0.evaluate_with_curvature(rule.charts, rule.coords)
    res = _he_defect(hv, _equilibrated_inverse(hv), lam, float(h0.bundle.slope))
    avg = integrate_values(np.einsum("nii->n", res).real, rule) / r
    res = res - avg * np.eye(r)
    tr_sq = np.einsum("nij,nji->n", res, res).real
    return float(np.sqrt(max(0.0, integrate_values(tr_sq, rule))))


def _harmonic_family(max_deg: int, charts, coords):
    """Smooth scalar functions z^m (1+|z|^2)^-l, m <= l <= max_deg, and
    their d/dx-bar derivatives at every point, in the point's chart;
    arrays of shape (number of functions, n)."""
    x = np.asarray(coords, dtype=complex)
    xb = np.conj(x)
    s = e_phi(x)
    vals, dbars = [], []
    for l in range(max_deg + 1):
        q, q1 = s ** (-l), s ** (-l - 1)
        for m in range(l + 1):
            val_z = x**m * q
            val_w = xb**l * x ** (l - m) * q
            dbar_z = -l * x ** (m + 1) * q1
            t1 = l * xb ** (l - 1) * x ** (l - m) * q if l >= 1 else 0.0
            dbar_w = t1 - l * xb**l * x ** (l - m + 1) * q1
            vals.append(np.where(charts, val_z, val_w))
            dbars.append(np.where(charts, dbar_z, dbar_w))
    return np.array(vals), np.array(dbars)


def _poincare_rayleigh(h0: FSMetric, rule: QuadratureRule, max_deg: int) -> float:
    """Smallest nonzero eigenvalue of the del-bar energy quotient on
    endomorphism fields spanned by scalar harmonics times constant
    matrices (Rayleigh-Ritz upper bound)."""
    r = h0.bundle.rank
    fvals, dvals = _harmonic_family(max_deg, rule.charts, rule.coords)
    dim = len(fvals) * r * r
    hv = h0.evaluate(rule.charts, rule.coords)
    hinv = _equilibrated_inverse(hv)
    gup = contraction(rule.coords)
    # pairing of the elementary matrices E_pq and E_st at every node:
    # tr(E_pq h^-1 E_st^* h) = (h^-1)_qt h_sp
    pair = np.einsum("nqt,nsp->npqst", hinv, hv).reshape(rule.n, r * r, r * r)
    # Gram matrices of the trial fields f_a E_i against f_b E_j
    w = rule.weights
    M = np.einsum("an,bn,nij->aibj", fvals * w, fvals.conj(), pair, optimize=True)
    Q = np.einsum("an,bn,nij->aibj", dvals * (w * gup), dvals.conj(), pair, optimize=True)
    M, Q = _hermitize(M.reshape(dim, dim)), _hermitize(Q.reshape(dim, dim))
    # drop near-dependent trial vectors
    wM, vM = np.linalg.eigh(M)
    keep = wM > 1e-10 * wM[-1]
    B = vM[:, keep] / np.sqrt(wM[keep])
    ev = np.linalg.eigvalsh(_hermitize(B.conj().T @ Q @ B))
    nonzero = ev[ev > 1e-8 * max(1.0, ev[-1])]
    if len(nonzero) == 0:
        raise RuntimeError("trial space saw only the kernel; enlarge it")
    return float(nonzero[0])


def poincare_constant(h0: FSMetric, rule: QuadratureRule) -> dict:
    """1/lambda_1 of the del-bar energy on endomorphism fields, by
    Rayleigh-Ritz on harmonics of degree up to 3, enriched to degree 6
    until stable to 1%; raises RuntimeError when degree 6 is not."""
    lams = [_poincare_rayleigh(h0, rule, 3)]
    for max_deg in range(4, 7):
        lams.append(_poincare_rayleigh(h0, rule, max_deg))
        if abs(lams[-1] - lams[-2]) <= 0.01 * abs(lams[-2]):
            return {"constant": 1.0 / lams[-1], "lambda1": lams[-1]}
    raise RuntimeError(
        "Poincare estimate not stable to 1% by degree 6: degrees 5 and 6 "
        f"gave lambda1 = {lams[-2]!r} and {lams[-1]!r}"
    )


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
    h: FSMetric,
    h0: FSMetric,
    rule: QuadratureRule,
    poincare: float,
) -> DeltaBoundReport:
    """Audit of the eigenvalue-ratio lower bound on the energy, with the
    Poincare constant of h0 (`poincare_constant`), to a tolerance of
    1e-6."""
    delta = delta_boundedness(h, h0, rule)
    cd = c_delta(min(1.0, delta))
    cbar = he_defect_norm(h0, rule)
    bound = -0.25 * (1.0 / cd) * cbar**2 * poincare
    mdon = donaldson(h, h0, rule=rule)
    return DeltaBoundReport(
        delta=float(delta),
        c_delta=float(cd),
        he_defect=float(cbar),
        poincare=float(poincare),
        bound=float(bound),
        mdon=float(mdon),
        passes=bool(mdon >= bound - 1e-6),
    )
