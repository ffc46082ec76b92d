"""One-parameter families of Fubini-Study metrics and their asymptotics.

A hermitian generator on the section space drives a ray of positive
forms; along the ray the energy grows linearly with slope equal to the
exact invariant computed by the sheaf engine.  This module evaluates
metrics along such rays in a numerically stable inverse-factor form,
fits asymptotic slopes, takes renormalized large-time limits in a
weight-adapted frame, probes the uniformity of the linear lower bound
across twist levels, and perturbs weight data to enforce a floor on
the weight-gap invariant.

Sign convention: the weight-w eigenvectors of the generator are scaled
by e^{-wt}, so that high-weight section blocks decay; this is the
orientation for which the numeric slope matches the exact invariant
with positive sign (pinned by direct experiment, documented in the
build notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .bundle import BundleSpec, MetricEvaluator
from .geometry import QuadratureRule, contract_batch, tree_sum
from .quot import WeightSpec, filtration, jna as exact_jna
from .sections import FSMetric, SectionBasis, _as_matrix

_GL_CACHE: dict = {}


def _gl01(n: int):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


@dataclass
class OnePSRay:
    """Ray of positive forms G_t = e^{-zeta t} G0 e^{-zeta t}.

    The generator is rescaled to operator norm at most 1 on
    construction; `scale` records the factor taken out.
    """

    sb: SectionBasis
    G0: np.ndarray
    zeta: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.G0 = _as_matrix(self.G0)
        z = np.asarray(self.zeta, dtype=complex)
        if np.linalg.norm(z - z.conj().T, 2) > 1e-12 * max(1.0, np.linalg.norm(z, 2)):
            raise ValueError("ray generator must be hermitian")
        z = 0.5 * (z + z.conj().T)
        op = np.linalg.norm(z, 2)
        if op > 1.0 + 1e-12:
            self.scale = float(op)
            z = z / op
        self.zeta = z
        self._lam, self._U = np.linalg.eigh(z)
        L = np.linalg.cholesky(self.G0)
        self._W0 = np.linalg.inv(L).conj().T  # G0^-1 = W0 W0*

    @property
    def op_norm(self) -> float:
        return float(np.linalg.norm(self.zeta, 2))

    def _exp(self, t: float) -> np.ndarray:
        return (self._U * np.exp(self._lam * t)) @ self._U.conj().T

    def gram_factor(self, t: float) -> np.ndarray:
        """W_t with G_t^-1 = W_t W_t*."""
        return self._exp(t) @ self._W0

    def metric_at(self, t: float) -> FSMetric:
        if t < 0:
            raise ValueError("ray parameter must be nonnegative")
        return FSMetric(self.sb, ginv_factor=self.gram_factor(t))


def bergman_ray(sb: SectionBasis, G0, zeta, t: float) -> MetricEvaluator:
    """Metric at time t on the ray generated by a hermitian matrix."""
    return OnePSRay(sb, _as_matrix(G0), zeta).metric_at(t)


def _deriv_at(ray: OnePSRay, t: float, rule: QuadratureRule) -> float:
    """dM/dt along the ray: integral of tr(h^-1 dh/dt (contracted
    curvature - slope)) with h^-1 dh/dt = (Z Y* + Y Z*) A^-1."""
    hm = ray.metric_at(t)
    S, Y, Y1, Ainv = hm._core(rule.charts, rule.coords)
    lamF = contract_batch(hm._curvature(Y, Y1, Ainv, rule.coords), rule.coords)
    mu = float(ray.sb.bundle.slope)
    r = ray.sb.bundle.rank
    res = lamF - mu * np.eye(r)
    Wt = ray.gram_factor(t)
    Z = (S @ (-ray.zeta)) @ Wt
    u = (
        Z @ np.transpose(Y, (0, 2, 1)).conj()
        + Y @ np.transpose(Z, (0, 2, 1)).conj()
    ) @ Ainv
    vals = np.einsum("nij,nji->n", u, res).real
    return float(tree_sum(vals * rule.weights))


def mdon_along_ray(
    ray: OnePSRay, t_grid, rule: QuadratureRule, seg_order: int = 6
) -> np.ndarray:
    """Cumulative energy M(t) relative to the ray start, by per-segment
    Gauss-Legendre integration of the analytic t-derivative."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t grid must start at 0 and increase")
    u, w = _gl01(seg_order)
    out = np.empty(len(t_grid))
    out[0] = 0.0
    acc = 0.0
    for i in range(len(t_grid) - 1):
        a, b = t_grid[i], t_grid[i + 1]
        acc += (b - a) * sum(
            wi * _deriv_at(ray, a + (b - a) * ui, rule) for ui, wi in zip(u, w)
        )
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
    concentration_degrees: tuple = ()


def _weights_match(ray: OnePSRay, zeta_rational: WeightSpec, tol: float = 1e-6):
    got = np.sort(ray._lam * ray.scale)
    want = []
    for w, vecs in zeta_rational.blocks:
        want.extend([float(w)] * len(vecs))
    want = np.sort(np.array(want))
    if len(got) != len(want) or np.max(np.abs(got - want)) > tol:
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
    from .quot import evaluation_drop_degree, generated_subsheaf

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
    level whose generic fiber contains that coordinate direction;
    requires the saturations to be aligned with the splitting.
    """
    import sympy as sp

    from .quot import X0, X1, generated_subsheaf
    from .sections import basis as section_basis

    sb = section_basis(spec, zeta_rational.k)
    zeta_rational.validate_against(sb)
    r = spec.rank
    out = [None] * r
    cum = []
    for w, vecs in zeta_rational.blocks:
        cum.extend(vecs)
        m = generated_subsheaf(sb, cum).matrix
        mt = m.subs({X0: 1, X1: sp.Rational(3, 7)})
        for i in range(r):
            if out[i] is not None:
                continue
            aug = mt.row_join(sp.eye(r)[:, i])
            if aug.rank() == mt.rank():
                out[i] = w
    if any(o is None for o in out):
        raise ValueError(
            "filtration is not aligned with the splitting; "
            "pass explicit frame weights"
        )
    return tuple(out)


def renormalized_limit(
    ray: OnePSRay,
    zeta_rational: WeightSpec,
    t_list,
    points,
    frame_w=None,
) -> dict:
    """Large-time limit of the ray metric in the weight-adapted frame.

    Conjugates h_t by diag(e^{w_i t}) with per-summand filtration
    weights, evaluates at the sample points for increasing t, and
    reports successive sup differences (a Cauchy check) together with
    positive-definiteness flags.  On the projective line the divided
    minors of a saturation have no common zero, so every point is
    regular and admissible.
    """
    spec = ray.sb.bundle
    _weights_match(ray, zeta_rational)
    if frame_w is None:
        frame_w = frame_weights(spec, zeta_rational)
    frame_w = np.array([float(w) for w in frame_w]) / ray.scale
    t_list = sorted(float(t) for t in t_list)
    values = []
    pd_flags = []
    for t in t_list:
        hm = ray.metric_at(t)
        conj = np.exp(frame_w * t)
        row = []
        pd = True
        for p in points:
            h = hm.evaluate(p)
            hr = conj[:, None] * h * conj[None, :]
            row.append(hr)
            pd = pd and bool(np.all(np.linalg.eigvalsh(hr) > 0))
        values.append(row)
        pd_flags.append(pd)
    cauchy = [
        max(
            float(np.linalg.norm(b - a, 2))
            for a, b in zip(values[i], values[i + 1])
        )
        for i in range(len(values) - 1)
    ]
    return {
        "t_list": t_list,
        "values": values,
        "cauchy_defects": cauchy,
        "pd_flags": pd_flags,
        "frame_weights": tuple(frame_w),
    }


def random_block_weightspec(sb: SectionBasis, rng, max_den: int = 8) -> WeightSpec:
    """Random rational block weight data over the standard basis order,
    rescaled to unit sup weight."""
    from .quot import block_weightspec

    n = sb.N
    n_blocks = int(rng.integers(1, min(n, 3) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False).tolist())
    dims = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    while True:
        ws = sorted(
            {
                Fraction(int(rng.integers(-max_den, max_den + 1)), int(rng.integers(1, 5)))
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
    n_t: int = 13,
) -> dict:
    """Per-level offsets c_k = max over sampled rays and times of
    (exact slope * t - numeric energy).

    A flat trend of c_k across levels is evidence consistent with a
    level-uniform linear lower bound; growth is evidence against it in
    the sampled regime.  No claim is asserted either way.
    """
    from .bundle import trivial_metric
    from .sections import basis as section_basis, l2_gram

    rows = []
    for k in k_list:
        rng = np.random.default_rng(seed + 1000 * k)
        sb = section_basis(spec, k)
        href = trivial_metric(spec)
        G0 = l2_gram(sb, href, rule).matrix
        ck = 0.0
        worst = None
        for _ in range(samples_per_k):
            zr = random_block_weightspec(sb, rng)
            ray = OnePSRay(sb, G0, zeta_matrix(zr))
            rep = filtration(spec, zr)
            t_grid = np.linspace(0.0, float(t_max), n_t)
            vals = mdon_along_ray(ray, t_grid, rule)
            defect = float(np.max(float(rep.mna) * t_grid - vals))
            if defect > ck:
                ck = defect
                worst = zr.weights
        rows.append({"k": k, "c_k": ck, "worst_weights": worst})
    return {"bundle": spec.degrees, "table": rows}


def perturb_zeta_for_jna(
    spec: BundleSpec, zeta: WeightSpec, eps_j: Fraction
) -> WeightSpec:
    """Enforce a floor on the weight-gap invariant by splitting blocks.

    Returns weight data with the same vectors (commuting with the
    input): one top vector is raised by an exact multiple of 2*eps_j
    and one bottom vector lowered by the trace-compensating amount,
    until the recomputed gap invariant reaches the floor; the operator
    distance to the input stays at most 4*eps_j.
    """
    eps_j = Fraction(eps_j)
    if not 0 < eps_j < Fraction(1, 4):
        raise ValueError("the gap floor must lie in (0, 1/4)")
    if zeta.dimension < 2:
        raise ValueError("cannot split a one-dimensional weight datum")
    if exact_jna(spec, zeta) >= eps_j:
        return zeta
    for m in (1, 2):
        shift = 2 * m * eps_j
        blocks = [(w, list(vecs)) for w, vecs in zeta.blocks]
        top_vec = blocks[0][1].pop(0)
        bot_vec = blocks[-1][1].pop() if blocks[-1][1] else None
        if bot_vec is None:
            blocks.pop()
            bot_vec = blocks[-1][1].pop() if len(blocks) > 1 else None
        if bot_vec is None:
            raise ValueError("weight datum too small to split twice")
        new_blocks = [(zeta.blocks[0][0] + shift, (top_vec,))]
        new_blocks += [(w, tuple(v)) for w, v in blocks if v]
        new_blocks.append((zeta.blocks[-1][0] - shift, (bot_vec,)))
        xi = WeightSpec(k=zeta.k, blocks=tuple(new_blocks))
        if exact_jna(spec, xi) >= eps_j:
            assert xi.trace == zeta.trace
            return xi
    raise RuntimeError(
        "splitting failed to raise the gap invariant; the filtration "
        "may be degenerate for this bundle"
    )


def rationalize_zeta(
    sb: SectionBasis,
    zeta: np.ndarray,
    max_den: int = 64,
    tol: float = 1e-4,
) -> WeightSpec:
    """Round a floating hermitian generator to exact rational weight data.

    Eigenvalues are clustered at the tolerance, cluster means rounded
    by continued fractions with bounded denominator, and eigenvector
    coordinates snapped to small rationals when within tolerance.
    """
    z = np.asarray(zeta, dtype=complex)
    z = 0.5 * (z + z.conj().T)
    lam, U = np.linalg.eigh(z)
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
        f = Fraction(x).limit_denominator(max_den)
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
