"""Finite-dimensional energy minimization over positive section forms.

The energy of the induced Fubini-Study metric, as a function of the
positive form on the section space, is minimized by gradient descent
in log-coordinates with a backtracking line search.  On polystable
bundles the descent converges to a Hermitian-Einstein metric; on
unstable bundles the energy is unbounded below, the iterates run off
along a ray, and the normalized log-direction of the divergence is
extracted and rounded into exact weight data whose filtration exhibits
the destabilizing subsheaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .bundle import (
    BundleSpec,
    MetricEvaluator,
    he_residual,
    regularity,
    trivial_metric,
)
from .donaldson import BergmanPath, donaldson
from .geometry import QuadratureRule, contract_batch, integrate_values, tree_sum
from .sections import FSMetric, SectionBasis, basis, l2_gram


def mdon_gradient(
    sb: SectionBasis,
    G: np.ndarray,
    rule: QuadratureRule,
    project_trace: bool = True,
) -> np.ndarray:
    """Gradient of the energy in log-coordinates on the form space.

    Returns the hermitian g with tr(g dzeta) = d/ds at 0 of the energy
    of FS(e^{s dzeta} G e^{s dzeta}) for every hermitian direction:
    g = P G^-1 + G^-1 P with P the curvature-residual moment matrix.
    The trace component vanishes by scale invariance; projecting it
    out suppresses quadrature noise in that direction.
    """
    hm = FSMetric(sb, G=G)
    S, T, T1, Ainv = hm._core(rule.charts, rule.coords)
    lamF = contract_batch(hm._curvature(T, T1, Ainv, rule.coords), rule.coords)
    mu = float(sb.bundle.slope)
    res = lamF - mu * np.eye(sb.bundle.rank)
    vals = np.einsum("nji,njl,nlm,nmo->nio", S.conj(), Ainv, res, S)
    P = integrate_values(vals, rule)
    P = 0.5 * (P + P.conj().T)
    Ginv = hm.Ginv
    g = P @ Ginv + Ginv @ P
    g = 0.5 * (g + g.conj().T)
    if project_trace:
        g = g - (np.trace(g).real / sb.N) * np.eye(sb.N)
    return g


def _fd_directional(sb, G, rule, dzeta, eps=1e-4) -> float:
    """Finite-difference directional derivative, for cross-checks."""
    def m_at(s):
        E = scipy.linalg.expm(s * dzeta)
        return donaldson(
            FSMetric(sb, G=E @ G @ E), FSMetric(sb, G=G), rule=rule
        )

    return (m_at(-2 * eps) - 8 * m_at(-eps) + 8 * m_at(eps) - m_at(2 * eps)) / (
        12 * eps
    )


@dataclass
class SolveOptions:
    k: int
    max_iter: int = 200
    grad_tol: float = 1e-7
    he_tol: float = 1e-3
    step0: float = 1.0
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    grow: float = 1.5
    max_step: float = 64.0
    divergence_op: float = 40.0
    divergence_m: float = -1.0e3

    def __post_init__(self):
        if min(self.grad_tol, self.he_tol, self.step0) <= 0:
            raise ValueError("tolerances and steps must be positive")


@dataclass
class SolveResult:
    status: str  # converged | diverging | maxiter
    G_final: np.ndarray
    he_residual_sup: float
    mdon_history: list
    history: list = field(default_factory=list)  # (iter, M, res, op_norm)
    zeta_limit: np.ndarray | None = None
    sb: SectionBasis | None = None


def _log_opnorm(G: np.ndarray):
    w, U = np.linalg.eigh(0.5 * (G + G.conj().T))
    logG = (U * np.log(w)) @ U.conj().T
    return logG, float(np.max(np.abs(np.log(w))))


def _normalize(sb, G, h_ref, rule) -> np.ndarray:
    """Rescale the form so the node-infimum of the least relative
    eigenvalue of FS(G) against the reference is one; the energy is
    scale invariant, so this is free."""
    from .bundle import _relative_eigs

    c = float(_relative_eigs(FSMetric(sb, G=G), h_ref, rule)[:, 0].min())
    if c <= 0:
        raise RuntimeError("iterate lost positivity against the reference")
    return G / c


def minimize(
    spec: BundleSpec,
    opts: SolveOptions,
    rule: QuadratureRule,
    h_ref: MetricEvaluator | None = None,
    G_init: np.ndarray | None = None,
) -> SolveResult:
    """Descend the energy over the form space at level k.

    Converges on polystable split bundles; on unstable ones detects
    divergence (operator-norm blowup of log G with decreasing energy),
    freezes the escape direction, and extends the energy history along
    that ray until it crosses the divergence threshold.
    """
    k = opts.k
    if k < regularity(spec):
        raise ValueError(f"level {k} is below the regularity {regularity(spec)}")
    sb = basis(spec, k)
    if h_ref is None:
        h_ref = trivial_metric(spec)
    G = np.asarray(
        G_init if G_init is not None else l2_gram(sb, h_ref, rule).matrix,
        dtype=complex,
    )
    G = _normalize(sb, G, h_ref, rule)
    m_total = 0.0
    mdon_history = [m_total]
    history = []
    alpha = opts.step0
    status = "maxiter"
    zeta_limit = None
    g_prev = None
    s_prev = None
    last_dm = None

    for it in range(opts.max_iter):
        g = mdon_gradient(sb, G, rule)
        gnorm2 = float(np.real(np.trace(g @ g)))
        gnorm = np.sqrt(max(gnorm2, 0.0))
        logG, opn = _log_opnorm(G)
        res_sup = he_residual(FSMetric(sb, G=G), rule)["sup"]
        history.append((it, m_total, res_sup, opn))

        if gnorm < opts.grad_tol:
            status = "converged"
            break
        # residual target met and the energy has stalled: accept
        if res_sup < opts.he_tol and last_dm is not None and abs(last_dm) < 1e-12:
            status = "converged"
            break
        if opn > opts.divergence_op:
            status = "diverging"
            zeta_limit = -logG / opn
            break

        # spectral (Barzilai-Borwein) initial step, Armijo backtracking;
        # acceptance allows any decrease within the monotonicity tolerance
        if g_prev is not None and s_prev is not None:
            y = g - g_prev
            sy = float(np.real(np.trace(s_prev @ y)))
            ss = float(np.real(np.trace(s_prev @ s_prev)))
            if sy > 1e-16:
                alpha = min(ss / sy, opts.max_step)
        accepted = False
        a = alpha
        for _ in range(40):
            E = scipy.linalg.expm(-a * g)
            G_new = E @ G @ E
            try:
                dm = donaldson(
                    FSMetric(sb, G=G_new),
                    FSMetric(sb, G=G),
                    path=BergmanPath(sb, G, G_new, t_order=8),
                    rule=rule,
                    tol=1e-9,
                )
            except RuntimeError:
                a *= opts.backtrack
                continue
            if dm <= -opts.armijo_c * a * gnorm2 or dm <= 1e-10:
                accepted = True
                break
            a *= opts.backtrack
        if not accepted:
            if gnorm < 1e2 * opts.grad_tol:
                status = "converged"
                break
            raise RuntimeError(
                f"line search failed at iteration {it} with gradient norm "
                f"{gnorm:.3e}; history: {history[-3:]}"
            )
        s_prev = -a * g
        g_prev = g
        last_dm = dm
        G = _normalize(sb, G_new, h_ref, rule)
        m_total += min(dm, 0.0)
        mdon_history.append(m_total)
        alpha = min(a * opts.grow, opts.max_step)

    if status == "diverging":
        m_total, mdon_history = _extend_along_ray(
            sb, G, zeta_limit, m_total, mdon_history, rule, opts
        )

    res_sup = he_residual(FSMetric(sb, G=G), rule)["sup"]
    return SolveResult(
        status=status,
        G_final=G,
        he_residual_sup=float(res_sup),
        mdon_history=mdon_history,
        history=history,
        zeta_limit=zeta_limit,
        sb=sb,
    )


def _extend_along_ray(sb, G, zeta_limit, m_total, mdon_history, rule, opts):
    """Ride the frozen escape ray until the energy crosses the
    divergence threshold.

    The ray derivative converges exponentially fast in t, so once two
    widely spaced evaluations agree the remaining stretch is integrated
    with the settled constant slope; this keeps every matrix evaluation
    inside floating-point range while certifying the threshold crossing.
    """
    from .asymptotics import OnePSRay, _deriv_at, mdon_along_ray

    ray = OnePSRay(sb, G, zeta_limit)
    t_end = 80.0
    t_grid = np.linspace(0.0, t_end, 21)
    vals = mdon_along_ray(ray, t_grid, rule)
    mdon_history = mdon_history + list(m_total + vals[1:])
    m_total += float(vals[-1])
    d1 = _deriv_at(ray, 0.5 * t_end, rule)
    d2 = _deriv_at(ray, t_end, rule)
    if d2 >= 0 or abs(d1 - d2) > max(0.05 * abs(d2), 1e-8):
        raise RuntimeError(
            "escape-ray derivative did not settle; divergence unconfirmed"
        )
    t = t_end
    while m_total > opts.divergence_m and t < 1e6:
        t += t_end
        m_total += t_end * d2
        mdon_history.append(m_total)
    if m_total > opts.divergence_m:  # pragma: no cover
        raise RuntimeError("escape ray failed to cross the divergence threshold")
    return m_total, mdon_history


def destabilizer_extract(result: SolveResult, spec: BundleSpec, k: int):
    """Exact destabilizing filtration from a divergent run.

    Rounds the escape direction to rational weight data and runs the
    exact filtration; the result must be nontrivial and destabilizing
    (negative energy slope, top slope above the bundle slope).
    """
    from .asymptotics import rationalize_zeta
    from .quot import filtration

    if result.status != "diverging":
        raise ValueError("destabilizer extraction needs a divergent run")
    sb = result.sb if result.sb is not None else basis(spec, k)
    zr = rationalize_zeta(sb, result.zeta_limit, max_den=64, tol=1e-4)
    rep = filtration(spec, zr)
    if rep.jna == 0:
        raise RuntimeError(
            "rounded escape direction gives a trivial filtration; "
            "run the divergence longer before extracting"
        )
    if rep.mna >= 0:
        raise RuntimeError(
            f"rounded filtration is not destabilizing (slope {rep.mna}); "
            "run the divergence longer before extracting"
        )
    return rep
