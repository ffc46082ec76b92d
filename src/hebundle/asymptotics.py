"""One-parameter families of Fubini-Study metrics and their asymptotics.

A hermitian generator on the section space drives a ray of positive
forms; along the ray the energy grows linearly with slope equal to the
exact invariant computed by the sheaf engine.  This module evaluates
the energy rate along such rays in a factor graded by weight, in the
frame of a QR of the section factor, which stays exact at large times;
it fits asymptotic slopes and probes the uniformity of the linear lower
bound across twist levels.

Sign convention: the weight-w eigenvectors of the generator are scaled
by e^{-wt}, so that high-weight section blocks decay; this is the
orientation for which the numeric slope matches the exact invariant
with positive sign (pinned by direct experiment, documented in the
build notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import sympy as sp
from sympy import QQ_I

from .bundle import BundleSpec, _chunked_rate, _hermitize, _t_chunk
from .geometry import QuadratureRule, contraction, gauss_legendre01
from .quot import (WeightSpec, block_weightspec, evaluation_drop_degree, filtration,
                   generated_subsheaf)
from .sections import (
    SectionBasis,
    _section_factor,
    basis as section_basis,
    eval_matrix_batch,
    l2_gram,
    trivial_metric,
)


@dataclass
class OnePSRay:
    """Ray of positive forms G_t = e^{-zeta t} G0 e^{-zeta t}.

    The generator is rescaled to operator norm at most 1 on
    construction; `scale` records the factor taken out.  The constructor
    forms the graded factor: zeta = U Lambda U* with the eigenvalues
    `_lam` descending, C lower triangular with C C* = U* G0^-1 U, and
    M = C^-1 Lambda C.  Then G_t^-1 = W_t W_t* for W_t = U e^{Lambda t} C,
    whose columns grow at most like e^{lam_j t}, and dW_t/dt = W_t M.
    """

    sb: SectionBasis
    G0: np.ndarray
    zeta: np.ndarray
    scale: float = field(init=False)

    def __post_init__(self):
        self.G0 = np.asarray(self.G0, dtype=complex)
        z = np.asarray(self.zeta, dtype=complex)
        if np.linalg.norm(z - z.conj().T, 2) > 1e-12 * max(1.0, np.linalg.norm(z, 2)):
            raise ValueError("ray generator must be hermitian")
        z = _hermitize(z)
        op = np.linalg.norm(z, 2)
        self.scale = float(op) if op > 1.0 + 1e-12 else 1.0
        self.zeta = z / self.scale
        lam, U = np.linalg.eigh(self.zeta)
        self._lam, self._U = lam[::-1], U[:, ::-1]
        # U* G0^-1 U = K* K for K = L^-1 U, G0 = L L*
        K = np.linalg.solve(np.linalg.cholesky(self.G0), self._U)
        self._C = np.linalg.cholesky(_hermitize(K.conj().T @ K))
        self._M = np.linalg.solve(self._C, self._lam[:, None] * self._C)


def _reflect(v, vc, tau, col, s):
    """col <- (I - tau v v*) col in place, over the trailing batch axis,
    with s, of col's shape, as scratch."""
    w = np.multiply(vc, col, out=s).sum(0)
    np.multiply(tau, w, out=w)
    col -= np.multiply(v, w, out=s)


def _factor_columns(rows, W, prod, out):
    """rows @ W for a (batch, r, N) stack of section-factor rows, as one
    product into `prod`, written to `out` in the (r, N, batch) layout of
    `_fs_moments`.  The batch keeps more than one row (`_deriv_at`), so
    this is the GEMM of `_section_factor`."""
    np.matmul(rows.reshape(-1, rows.shape[-1]), W, out=prod.reshape(-1, W.shape[-1]))
    np.copyto(out, np.moveaxis(prod.reshape(rows.shape), 0, -1))


def _graded_rate(y, y1, M, c, kmu: float, work) -> np.ndarray:
    """The ray's integrand at every (t-node, sphere-node) point of a batch,
    from the columns of Y* and Y'* in an (r, N, batch) layout, rows
    sorted by weight (`_deriv_at`).

    An entrywise Householder QR Y* = Q R (each sum over N runs one row
    after another, so a point gets the same bits in any batch) reflects
    Y'* alongside; with Yh' its rows outside Q's span, Z = Yh' R^-1 and
    K = Q* M Q, the integrand c tr(Vh Z* Z) - (k + mu) tr(Vh) with
    Vh = -(K + K*) is -2 Re tr(K (c Z* Z - (k + mu))).  M Q is a
    `_section_factor` product, row by row.  Q takes y's place and Z the
    rows of y1 below r; the reflectors, their conjugates and the scratch
    live in `work`: four complex arrays of y's shape and a float
    (2, N, batch) one.  RuntimeError on a zero or non-finite pivot of R.
    """
    r, N = y.shape[:2]
    v, vc, s1, s2, f = work
    R = np.empty((r, r) + y.shape[2:], dtype=complex)
    refl = []
    for j in range(r):
        a, n = y[j, j:], N - j
        sq = np.square(a.real, out=f[0, :n])
        sq += np.square(a.imag, out=f[1, :n])
        sigma = np.sqrt(sq.sum(0))
        if not np.all(np.isfinite(sigma) & (sigma > 0)):
            raise RuntimeError("ray factor is rank-deficient or not finite")
        alpha = a[0]
        mod = np.abs(alpha)
        phase = np.where(mod > 0, alpha / np.where(mod > 0, mod, 1.0), 1.0)
        np.copyto(v[j, :n], a)
        v[j, 0] = alpha + phase * sigma
        np.conjugate(v[j, :n], out=vc[j, :n])
        refl.append((v[j, :n], vc[j, :n], 1.0 / (sigma * (sigma + mod))))
        R[j, j] = -phase * sigma
        for col in range(j + 1, r):
            _reflect(*refl[j], y[col, j:], s1[0, :n])
            R[j, col] = y[col, j]
        for col in range(r):
            _reflect(*refl[j], y1[col, j:], s1[0, :n])
    q = y
    q[...] = 0.0
    for i in range(r):
        q[i, i] = 1.0
        for j in reversed(range(i + 1)):
            _reflect(*refl[j], q[i, j:], s1[0, : N - j])
    rows, mq = s2.reshape(-1, r, N), s1
    np.copyto(rows, np.moveaxis(q, -1, 0))
    _factor_columns(rows, M.T, v, mq)
    z = y1[:, r:]
    for j in range(r):
        for i in range(j):
            z[j] -= np.multiply(z[i], R[i, j], out=s2[0, : N - r])
        np.divide(z[j], R[j, j], out=z[j])
    qc, zc = np.conjugate(q, out=v), np.conjugate(z, out=vc[:, : N - r])
    tot = 0.0
    for i in range(r):
        for j in range(r):
            kij = np.multiply(qc[i], mq[j], out=s2[0]).sum(0)
            g = c * np.multiply(zc[j], z[i], out=s2[0, : N - r]).sum(0)
            tot = tot + (kij * (g - kmu if i == j else g)).real
    return -2.0 * tot


def _deriv_at(ray: OnePSRay, t, rule: QuadratureRule):
    """dM/dt along the ray: a float for a scalar t, an array for a 1-D
    array of t.

    The integral of tr(h^-1 dh/dt (contracted curvature - mu)), taken in
    the graded factor of the ray: Y = D S U e^{(Lambda - lam_1) t} C and
    Y' likewise from S', with one positive factor per bundle row in D,
    which the integrand ignores: that column of R takes it, Z = Yh' R^-1
    cancels it and Q does not change.  Row i's is e^{-m_i(t)}, m_i(t) the
    largest of log|(S U)_ij| + (lam_j - lam_1) t over the rule's nodes
    and the columns j, in log space, so no row underflows at any t; its
    product with e^{(lam_j - lam_1) t}, which could overflow where the
    row has no support in column j, is exactly 0 there.  The sections are
    evaluated once; each chunk of t-nodes (`_chunked_rate`) forms
    conj(Y) and conj(Y'), whose rows are the columns of Y* and Y'*, with
    one `_section_factor` product by conj(C) each, and `_graded_rate`
    takes the integrand in their QR frame, with no moment matrix and no
    inverse of one.  Every array of a chunk is a view of one workspace,
    allocated once per call for the largest chunk, so later chunks touch
    no fresh memory.  A lone node gets a twin: numpy sums a lone column
    pairwise, and a point's value must not depend on its batch.
    """
    sb, r, N = ray.sb, ray.sb.bundle.rank, ray.sb.N
    pad = rule.n == 1
    charts, coords = (np.concatenate([x, x]) if pad else x for x in (rule.charts, rule.coords))
    S, S1 = eval_matrix_batch(sb, charts, coords)
    P, P1 = (_section_factor(X, ray._U).conj() for X in (S, S1))
    top = np.abs(P).max(0)
    log_top = np.log(top, out=np.full(top.shape, -np.inf), where=top > 0)
    Cc = ray._C.conj()
    c = contraction(coords)
    kmu = sb.k + float(sb.bundle.slope)
    points = len(c) * min(np.size(t), _t_chunk(rule))
    work, fwork = np.empty((6, r * N * points), dtype=complex), np.empty(2 * N * points)

    def node_values(ts):
        p = len(ts) * len(c)
        y, y1, v, vc, s1, s2 = (w[: r * N * p].reshape(r, N, p) for w in work)
        ex = np.outer(ts, ray._lam - ray._lam[0])[:, None]
        ex = ex - (log_top + ex).max(-1, keepdims=True)
        d = np.exp(ex, out=np.zeros(ex.shape), where=top > 0)[:, None]
        for X, out in ((P, y), (P1, y1)):
            rows = np.multiply(X, d, out=s1.reshape(len(ts), -1, r, N))
            _factor_columns(rows.reshape(-1, r, N), Cc, s2, out)
        f = fwork[: 2 * N * p].reshape(2, N, p)
        vals = _graded_rate(y, y1, ray._M, np.tile(c, len(ts)), kmu, (v, vc, s1, s2, f))
        return vals.reshape(len(ts), -1)[:, : rule.n]

    return _chunked_rate(t, rule, node_values)


def mdon_along_ray(ray: OnePSRay, t_grid, rule: QuadratureRule) -> np.ndarray:
    """Cumulative energy M(t) relative to the ray start, by per-segment
    order-6 Gauss-Legendre integration of the analytic t-derivative, all
    segments' t-nodes in one batched call."""
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)) or t_grid[0] != 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError(f"t grid must be finite, start at 0 and increase, got {t_grid}")
    u, w = gauss_legendre01(6)
    a, b = t_grid[:-1, None], t_grid[1:, None]
    derivs = _deriv_at(ray, (a + (b - a) * u).reshape(-1), rule).reshape(-1, len(u))
    out = np.empty(len(t_grid))
    out[0] = 0.0
    acc = 0.0
    for i, d in enumerate(derivs):
        acc += (t_grid[i + 1] - t_grid[i]) * sum(wi * di for wi, di in zip(w, d))
        out[i + 1] = acc
    return out


@dataclass(frozen=True)
class SlopeReport:
    t_grid: np.ndarray
    mdon_values: np.ndarray
    fitted_slope: float
    mna_exact: Fraction
    relative_gap: float
    c_offset: float
    concentration_degrees: tuple


def slope_estimate(
    sb: SectionBasis,
    G0: np.ndarray,
    zeta_rational: WeightSpec,
    t_max: float,
    n_t: int,
    rule: QuadratureRule,
) -> SlopeReport:
    """Fit the asymptotic slope of the energy along the ray from the form
    G0 generated by the weight datum (`zeta_matrix`), and compare it with
    the datum's exact invariant; the fit uses the tail half of the grid
    of `n_t` times since the bounded offset pollutes small times.

    When a weight block's sections share a common zero, the curvature
    along the ray concentrates in a shrinking bubble; once it falls
    between a fixed rule's nodes, the slope read is neither invariant
    (saturated or image-degree).  `concentration_degrees` reports, per
    filtration level, the exact degree of the common minor factor;
    the slope comparison is trustworthy only when all are zero.
    """
    if not 10 <= t_max < np.inf:
        raise ValueError(f"slope fitting needs a finite t_max >= 10, got t_max = {t_max}")
    if n_t < 3:
        raise ValueError(f"slope fitting needs n_t >= 3 (two tail times), got n_t = {n_t}")
    rep = filtration(sb.bundle, zeta_rational)
    ray = OnePSRay(sb, G0, zeta_matrix(zeta_rational))
    conc = []
    cum = []
    for _, vecs in zeta_rational.blocks[:-1]:
        cum.extend(vecs)
        conc.append(evaluation_drop_degree(generated_subsheaf(sb, cum)))
    mna_exact = rep.mna / Fraction(ray.scale).limit_denominator(10**9) if ray.scale != 1.0 else rep.mna
    t_grid = np.linspace(0.0, float(t_max), int(n_t))
    vals = mdon_along_ray(ray, t_grid, rule)
    tail = t_grid >= 0.5 * t_max
    A = np.vstack([t_grid[tail], np.ones(tail.sum())]).T
    slope, _ = np.linalg.lstsq(A, vals[tail], rcond=None)[0]
    mna_f = float(mna_exact)
    gap = abs(slope - mna_f) / max(1.0, abs(mna_f))
    c_offset = float(np.max(mna_f * t_grid - vals))
    return SlopeReport(
        t_grid=t_grid,
        mdon_values=vals,
        fitted_slope=float(slope),
        mna_exact=mna_exact,
        relative_gap=gap,
        c_offset=c_offset,
        concentration_degrees=tuple(conc),
    )


def zeta_matrix(zeta: WeightSpec) -> np.ndarray:
    """Hermitian generator from rational weight data.

    The cumulative block spans are orthonormalized in order, and each
    new direction carries its block weight, so the flag of summed
    eigenspaces agrees exactly with the weight flag.
    """
    vecs = [[QQ_I.from_sympy(c) for c in v] for v in zeta.all_vectors()]
    q, _ = np.linalg.qr(np.array([[complex(float(c.x), float(c.y)) for c in v] for v in vecs]).T)
    weights = []
    for w, vs in zeta.blocks:
        weights.extend([float(w)] * len(vs))
    return (q * np.array(weights)) @ q.conj().T


def random_block_weightspec(sb: SectionBasis, rng) -> WeightSpec:
    """Random rational block weight data over the standard basis order,
    numerators in [-8, 8] and denominators in [1, 4], rescaled to unit sup
    weight."""
    n = sb.N
    n_blocks = int(rng.integers(1, min(n, 3) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False).tolist())
    dims = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    while True:
        ws = sorted(
            {
                Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
                for _ in range(n_blocks)
            },
            reverse=True,
        )
        if len(ws) >= n_blocks:
            ws = ws[:n_blocks]
            break
    cap = max(abs(w) for w in ws)
    if cap > 1:
        ws = [w / cap for w in ws]
    return block_weightspec(sb, list(zip(ws, dims)))


def coercivity_probe(
    spec: BundleSpec,
    k_list,
    samples_per_k: int,
    t_max: float,
    rule: QuadratureRule,
    seed: int,
) -> dict:
    """Per-level offsets c_k = max over sampled rays and 13 times of
    (exact slope * t - numeric energy).

    A flat trend of c_k across levels is evidence consistent with a
    level-uniform linear lower bound; growth is evidence against it in
    the sampled regime.  No claim is asserted either way.
    """
    if not 0 < t_max < np.inf:
        raise ValueError(f"probe rays need a finite t_max > 0, got t_max = {t_max}")
    rows = []
    for k in k_list:
        rng = np.random.default_rng(seed + 1000 * k)
        sb = section_basis(spec, k)
        G0 = l2_gram(sb, trivial_metric(sb), rule)
        ck = 0.0
        for _ in range(samples_per_k):
            zr = random_block_weightspec(sb, rng)
            ray = OnePSRay(sb, G0, zeta_matrix(zr))
            rep = filtration(spec, zr)
            t_grid = np.linspace(0.0, float(t_max), 13)
            vals = mdon_along_ray(ray, t_grid, rule)
            ck = max(ck, float(np.max(float(rep.mna) * t_grid - vals)))
        rows.append({"k": k, "c_k": ck})
    return {"table": rows}


def rationalize_zeta(sb: SectionBasis, zeta: np.ndarray) -> WeightSpec:
    """Round a floating hermitian generator to exact rational weight data.

    Eigenvalues are clustered at the tolerance 1e-4, cluster means rounded
    by continued fractions with denominator at most 64, and eigenvector
    coordinates snapped to such rationals when within the tolerance.
    The datum is not checked against `sb` here: `filtration` validates
    it.
    """
    tol = 1e-4
    z = np.asarray(zeta, dtype=complex)
    lam, U = np.linalg.eigh(_hermitize(z))
    order = np.argsort(-lam)
    lam, U = lam[order], U[:, order]
    clusters = []
    for i, v in enumerate(lam):
        if clusters and v >= clusters[-1]["lo"] - tol:
            clusters[-1]["idx"].append(i)
            clusters[-1]["lo"] = min(clusters[-1]["lo"], v)
        else:
            clusters.append({"idx": [i], "lo": v})

    def snap(x: float):
        f = Fraction(x).limit_denominator(64)
        if abs(float(f) - x) <= tol:
            return f
        return Fraction(x).limit_denominator(10**6)

    blocks = []
    for c in clusters:
        w = snap(float(np.mean(lam[c["idx"]])))
        vecs = []
        for i in c["idx"]:
            col = U[:, i]
            j = int(np.argmax(np.abs(col)))
            col = col / col[j]
            vec = []
            for x in col:
                fr, fi = snap(x.real), snap(x.imag)
                vec.append(
                    sp.Rational(fr.numerator, fr.denominator)
                    + sp.I * sp.Rational(fi.numerator, fi.denominator)
                )
            vecs.append(tuple(vec))
        blocks.append((w, tuple(vecs)))
    return WeightSpec(k=sb.k, blocks=tuple(blocks))
