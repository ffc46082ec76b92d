"""One-parameter families of Fubini-Study metrics and their asymptotics.

A hermitian generator on the section space drives a ray of positive
forms; along the ray the energy grows linearly with slope equal to the
exact invariant computed by the sheaf engine.  This module evaluates
metrics along such rays in a numerically stable inverse-factor form,
fits asymptotic slopes, takes renormalized large-time limits in a
weight-adapted frame, and probes the uniformity of the linear lower
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

from .bundle import BundleSpec, _hermitize
from .geometry import QuadratureRule, gauss_legendre01
from .quot import WeightSpec, _generic_rank, evaluation_drop_degree, filtration, generated_subsheaf
from .sections import (
    FSMetric,
    SectionBasis,
    _fs_moments,
    _section_factor,
    basis as section_basis,
    eval_matrix_batch,
    fs_path_rate,
)


@dataclass
class OnePSRay:
    """Ray of positive forms G_t = e^{-zeta t} G0 e^{-zeta t}.

    The generator is rescaled to operator norm at most 1 on
    construction; `scale` records the factor taken out.
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
        self._lam, self._U = np.linalg.eigh(self.zeta)
        L = np.linalg.cholesky(self.G0)
        self._W0 = np.linalg.inv(L).conj().T  # G0^-1 = W0 W0*

    def _exp(self, t: float) -> np.ndarray:
        return (self._U * np.exp(self._lam * t)) @ self._U.conj().T

    def gram_factor(self, t: float) -> np.ndarray:
        """W_t with G_t^-1 = W_t W_t*."""
        return self._exp(t) @ self._W0

    def metric_at(self, t: float) -> FSMetric:
        if t < 0:
            raise ValueError("ray parameter must be nonnegative")
        return FSMetric(self.sb, ginv_factor=self.gram_factor(t))


def _deriv_at(ray: OnePSRay, t, rule: QuadratureRule):
    """dM/dt along the ray: a float for a scalar t, an array for a 1-D
    array of t.

    h^-1 dh/dt = (Z Y* + Y Z*) A^-1 with Y = S W_t and Z = -S zeta W_t;
    the sections are evaluated once.  V = Z Y* + Y Z* stays a stacked
    numpy product, as `fs_path_rate`'s V A^-1 does, until the ray
    evaluator is made exact (ROADMAP item 1).
    """
    S, S1 = eval_matrix_batch(ray.sb, rule.charts, rule.coords)
    SZ = _section_factor(S, -ray.zeta)

    def factors(ts):
        Wt = [ray.gram_factor(tt) for tt in ts]
        Y, Y1, Z = (np.array([_section_factor(M, W) for W in Wt]) for M in (S, S1, SZ))
        V = Z @ np.swapaxes(Y, -1, -2).conj() + Y @ np.swapaxes(Z, -1, -2).conj()
        return (*_fs_moments(Y, Y1), V)

    return fs_path_rate(ray.sb, rule, t, factors)


def mdon_along_ray(ray: OnePSRay, t_grid, rule: QuadratureRule) -> np.ndarray:
    """Cumulative energy M(t) relative to the ray start, by per-segment
    order-6 Gauss-Legendre integration of the analytic t-derivative, all
    segments' t-nodes in one batched call."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t grid must start at 0 and increase")
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


def _weights_match(ray: OnePSRay, zeta_rational: WeightSpec):
    got = np.sort(ray._lam * ray.scale)
    want = []
    for w, vecs in zeta_rational.blocks:
        want.extend([float(w)] * len(vecs))
    want = np.sort(np.array(want))
    if len(got) != len(want) or np.max(np.abs(got - want)) > 1e-6:
        raise ValueError(
            "rational weight data does not match the ray generator spectrum"
        )


def slope_estimate(
    ray: OnePSRay,
    zeta_rational: WeightSpec,
    t_max: float,
    n_t: int,
    rule: QuadratureRule,
) -> SlopeReport:
    """Fit the asymptotic slope of the energy and compare it with the
    exact invariant; the fit uses the tail half of the grid since the
    bounded offset pollutes small times.

    When a weight block's sections share a common zero, the curvature
    along the ray concentrates in a shrinking bubble that fixed
    quadrature cannot track, and the fitted slope reflects only the
    unsaturated image degrees.  `concentration_degrees` reports, per
    filtration level, the exact degree of the common minor factor;
    the slope comparison is trustworthy only when all are zero.
    """
    if t_max < 10:
        raise ValueError("slope fitting needs t_max >= 10")
    _weights_match(ray, zeta_rational)
    spec = ray.sb.bundle
    rep = filtration(spec, zeta_rational)
    conc = []
    cum = []
    for _, vecs in zeta_rational.blocks[:-1]:
        cum.extend(vecs)
        conc.append(evaluation_drop_degree(generated_subsheaf(ray.sb, cum)))
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
    vecs = [np.array([complex(c) for c in v]) for v in zeta.all_vectors()]
    n = len(vecs[0])
    q, _ = np.linalg.qr(np.array(vecs).T)
    weights = []
    for w, vs in zeta.blocks:
        weights.extend([float(w)] * len(vs))
    return (q * np.array(weights)) @ q.conj().T


def frame_weights(spec: BundleSpec, zeta_rational: WeightSpec):
    """Per-summand weights of the filtration in the standard frame.

    Each summand row is assigned the weight of the first filtration
    level whose generic fiber contains that coordinate direction.  The
    generic fiber lies in the span of the rows that are not identically
    zero, so it is that coordinate subspace exactly when the level's
    rank over the function field C(x) equals their number.  The
    saturations must be aligned with the splitting: any other level
    raises ValueError.
    """
    sb = section_basis(spec, zeta_rational.k)
    zeta_rational.validate_against(sb)
    out = [None] * spec.rank
    cum = []
    for w, vecs in zeta_rational.blocks:
        cum.extend(vecs)
        m = generated_subsheaf(sb, cum)
        rows = [i for i, row in enumerate(m.matrix.to_list()) if any(row)]
        if _generic_rank(m.matrix, m.row_degrees)[0] != len(rows):
            raise ValueError(
                "filtration is not aligned with the splitting; "
                "pass explicit frame weights"
            )
        for i in rows:
            if out[i] is None:
                out[i] = w
    return tuple(out)


def renormalized_limit(ray: OnePSRay, zeta_rational: WeightSpec, t_list, charts, coords) -> dict:
    """Large-time limit of the ray metric in the weight-adapted frame.

    Conjugates h_t by diag(e^{w_i t}) with per-summand filtration
    weights, evaluates at the sample points (charts, coords) for
    increasing t (`values`, shape (t, point, r, r)), and reports
    successive sup differences (a Cauchy check) together with
    positive-definiteness flags.  On the projective line the divided
    minors of a saturation have no common zero, so every point is
    regular and admissible.
    """
    spec = ray.sb.bundle
    _weights_match(ray, zeta_rational)
    frame_w = np.array([float(w) for w in frame_weights(spec, zeta_rational)]) / ray.scale
    t_list = sorted(float(t) for t in t_list)
    h = np.array([ray.metric_at(t).evaluate(charts, coords) for t in t_list])
    conj = np.exp(np.outer(t_list, frame_w))[:, None]
    values = conj[..., :, None] * h * conj[..., None, :]
    cauchy = np.linalg.norm(np.diff(values, axis=0), 2, axis=(-2, -1)).max(axis=-1)
    return {
        "t_list": t_list,
        "values": values,
        "cauchy_defects": cauchy.tolist(),
        "pd_flags": np.all(np.linalg.eigvalsh(values) > 0, axis=(-2, -1)).tolist(),
        "frame_weights": tuple(frame_w),
    }


def random_block_weightspec(sb: SectionBasis, rng) -> WeightSpec:
    """Random rational block weight data over the standard basis order,
    numerators in [-8, 8] and denominators in [1, 4], rescaled to unit sup
    weight."""
    from .quot import block_weightspec

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
    seed: int = 0,
) -> dict:
    """Per-level offsets c_k = max over sampled rays and 13 times of
    (exact slope * t - numeric energy).

    A flat trend of c_k across levels is evidence consistent with a
    level-uniform linear lower bound; growth is evidence against it in
    the sampled regime.  No claim is asserted either way.
    """
    from .bundle import trivial_metric
    from .sections import l2_gram

    rows = []
    for k in k_list:
        rng = np.random.default_rng(seed + 1000 * k)
        sb = section_basis(spec, k)
        href = trivial_metric(spec)
        G0 = l2_gram(sb, href, rule)
        ck = 0.0
        worst = None
        for _ in range(samples_per_k):
            zr = random_block_weightspec(sb, rng)
            ray = OnePSRay(sb, G0, zeta_matrix(zr))
            rep = filtration(spec, zr)
            t_grid = np.linspace(0.0, float(t_max), 13)
            vals = mdon_along_ray(ray, t_grid, rule)
            defect = float(np.max(float(rep.mna) * t_grid - vals))
            if defect > ck:
                ck = defect
                worst = zr.weights
        rows.append({"k": k, "c_k": ck, "worst_weights": worst})
    return {"bundle": spec.degrees, "table": rows}


def rationalize_zeta(sb: SectionBasis, zeta: np.ndarray) -> WeightSpec:
    """Round a floating hermitian generator to exact rational weight data.

    Eigenvalues are clustered at the tolerance 1e-4, cluster means rounded
    by continued fractions with denominator at most 64, and eigenvector
    coordinates snapped to such rationals when within the tolerance.
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

    import sympy as sp

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
    ws = WeightSpec(k=sb.k, blocks=tuple(blocks))
    ws.validate_against(sb)
    return ws
