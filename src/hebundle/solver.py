"""Finite-dimensional energy minimization over positive section forms.

The energy of the induced Fubini-Study metric, as a function of the
positive form on the section space, is minimized in two phases.  First
Donaldson's T-map G -> integral of S* FS(G) S e^{-k phi}, whose fixed
point is the balanced metric, is iterated from the start form (`_balance`)
under Chebyshev semi-iteration: the map's linearization is the Berezin
transform, with spectrum in [0, d/(d+2)] for d the largest degree plus
k (Keller, Meyer and Seyyedali, Math. Ann. 366, 2016), and on a known
real interval the Chebyshev recurrence is the optimal polynomial
acceleration (Golub and Varga, Numer. Math. 3, 1961).  On the bundles
solved here that fixed point is also the minimum, and an iteration that
converges hands its form to the descent.  Then gradient
descent in log-coordinates with a backtracking line search certifies the
minimum, or finds it from the untouched start form when the T-phase
stalls.  On polystable bundles the descent converges to a
Hermitian-Einstein metric; on unstable bundles the energy is unbounded
below, the iterates run off along a ray, and the normalized
log-direction of the divergence is extracted and rounded into exact
weight data whose filtration exhibits the destabilizing subsheaf.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bundle import (BundleSpec, _equilibrated_inverse, _he_defect, _hermitize, _mat_mul,
                     _node_sup_norm, _relative_eigs, _whitening, he_residual)
from .donaldson import BergmanPath, donaldson
from .geometry import QuadratureRule, contract_batch, e_phi
from .sections import (FSMetric, SectionBasis, _fs_moments, _fs_values, _section_factor,
                       _section_pairing, basis, l2_gram, node_sections, trivial_metric)


def _fs_state(sb: SectionBasis, G: np.ndarray, sections):
    """FS(G) on the nodes of the sections' rule, in the layout of
    `BergmanPath.end_state`: (A, A^-1, contracted curvature, G^-1) from
    FS(G)'s own moments, for a form that no taken step's path ends at."""
    rule, S, S1 = sections[:3]
    hm = FSMetric(sb, G=G)
    A, A1, A11, Ainv = hm._moments(S, S1)
    lamF = contract_batch(hm._curvature(A1, A11, Ainv, rule.coords), rule.coords)
    return A, Ainv, lamF, hm.Ginv


def mdon_gradient(sb: SectionBasis, state, sections) -> tuple[np.ndarray, float]:
    """Gradient of the energy in log-coordinates on the form space at a
    form G, and the sup of the Einstein defect of FS(G) from the same
    curvature.

    FS(G) enters as its end state (A, A^-1, contracted curvature, G^-1)
    on the nodes of the sections' rule: the taken step's path's
    (`BergmanPath.end_state`), or `_fs_state`'s for the first form of a
    solve.  The sections (`node_sections`) are formed once per solve,
    and the integrals are on their rule.
    The gradient is the hermitian g with tr(g dzeta) = d/ds at 0 of the
    energy of FS(e^{s dzeta} G e^{s dzeta}) for every hermitian direction:
    g = P G^-1 + G^-1 P with P the curvature-residual moment matrix,
    the pairing of S* A^-1 res S (`sections._section_pairing`).
    The trace component vanishes by scale invariance; projecting it
    out suppresses quadrature noise in that direction.
    """
    rule, _, _, rows, s = sections
    A, Ainv, lamF, Ginv = state
    mu = float(sb.bundle.slope)
    res = lamF - mu * np.eye(sb.bundle.rank)
    P = _section_pairing(rule, _mat_mul(Ainv, res), 1.0, rows, s)
    g = _hermitize(P @ Ginv + Ginv @ P)
    g = g - (np.trace(g).real / sb.N) * np.eye(sb.N)
    hv = _fs_values(Ainv, rule.coords, sb.k)
    # hv^-1 = e^{-k phi} A, which the moments have formed already
    hv_inv = A * (e_phi(rule.coords) ** (-sb.k))[:, None, None]
    return g, _node_sup_norm(_he_defect(hv, hv_inv, lamF, mu))


# line search: first step, backtracking and growth factors, and the
# cap on the step
_STEP0 = 1.0
_BACKTRACK = 0.5
_GROW = 1.5
_MAX_STEP = 64.0

# the stopping tolerances; `minimize` says what each one stops
_GRAD_TOL = 1e-7
_HE_TOL = 1e-3
_DIVERGENCE_OP = 40.0
_DIVERGENCE_M = -1.0e3

# the T-phase (`_balance`): a step whose change is below `_T_TOL` ends it
# as converged; a change above `_T_STALL` times the one before, three
# steps in a row, as stalled; `_T_MAX_STEPS` steps as cap
_T_TOL = 0.1 * _GRAD_TOL
_T_STALL = 0.99
_T_MAX_STEPS = 500


def _t_map(W: np.ndarray, sections) -> np.ndarray:
    """Donaldson's T-map at the form G with G^-1 = W W*: the L2 form of
    FS(G) against e^{-k phi}, the pairing of S* A^-1 S for the moments
    A = T T* of the section factor T = S W, on the rule of the
    `node_sections`, trace normalized."""
    rule, S, _, rows, s = sections
    A = _fs_moments(_section_factor(S, W))[0]
    G = _section_pairing(rule, _equilibrated_inverse(A), 1.0, rows, s)
    return G / np.trace(G).real


def _balance(sb: SectionBasis, G: np.ndarray, sections):
    """Donaldson's T-map iteration (`_t_map`) from the form G, accelerated
    by Chebyshev semi-iteration.

    Near the balanced metric the plain map shrinks the change by
    rho = d/(d+2), d = a+k with a the largest degree: its linearization
    is the Berezin transform, self-adjoint with spectrum in [0, rho]
    (Keller, Meyer and Seyyedali, Math. Ann. 366, 2016).  On a known real
    interval Chebyshev semi-iteration is the optimal polynomial
    acceleration (Golub and Varga, Numer. Math. 3, 1961).  In log
    coordinates x a step extrapolates y = gamma T(x) + (1 - gamma) x,
    gamma = 2/(2 - rho), whose linearization has spectrum in
    [-sigma, sigma], sigma = rho/(2 - rho), and the three-term recurrence
    x' = omega (y - x_prev) + x_prev takes omega = 1, then 2/(2 - sigma^2),
    then 1/(1 - sigma^2 omega/4).  So the change shrinks by about
    sigma/(1 + sqrt(1 - sigma^2)) = 1 - O(d^-1/2) per step, where the
    plain map's shrinks by rho = 1 - O(1/d).

    The coordinates are those of the current factor W (G^-1 = W W*),
    x = log(W* . W): the iterate sits at 0, T(G) at the log of
    H = W* T(G) W, and the one before at x_prev.  One `eigh` of H gives
    its log eigenvalues w with their eigenvectors, one of x' its
    eigenpairs (l, V); the next factor W V e^{-l/2} has G'^-1 as its
    product with its adjoint, and in its frame G sits at diag(-l).  The
    frame moves with the iterate, so H stays near the identity and its
    logarithm keeps full precision however far G is from the start.
    Only the start factor comes from `FSMetric`, so a step forms no
    Cholesky factor.

    A step's change is scale free: the spread, max - min, of the log
    eigenvalues of T(G) relative to G, those of H.  Returns the last
    T(G), or None unless the iteration converged, the change of every
    step, and the outcome: "converged", "stalled" (also when a step
    breaks down or its form loses positivity) or "cap" (`_T_TOL`,
    `_T_STALL`, `_T_MAX_STEPS`).  On O(1)+O(-1) each step moves the two
    summands' blocks apart by a factor 2, so the change stays log 2 and
    the iteration stalls."""
    d = max(sb.bundle.degrees) + sb.k
    rho = d / (d + 2)
    gamma, sigma2 = 2.0 / (2.0 - rho), (rho / (2.0 - rho)) ** 2
    changes, rising = [], 0
    try:
        W = FSMetric(sb, G=G).W
        x_prev, omega = np.zeros(W.shape), 1.0
        for m in range(_T_MAX_STEPS):
            G_new = _t_map(W, sections)
            w, U = np.linalg.eigh(_hermitize(W.conj().T @ G_new @ W))
            changes.append(float(np.log(w[-1] / w[0])))
            if changes[-1] < _T_TOL:
                return G_new, changes, "converged"
            rising = rising + 1 if len(changes) > 1 and changes[-1] > _T_STALL * changes[-2] else 0
            if rising == 3 or not w[0] > 0:
                return None, changes, "stalled"
            # in W's frame the iterate is 0 and T of it is log H
            x = (omega * gamma) * ((U * np.log(w)) @ U.conj().T) + (1.0 - omega) * x_prev
            l, V = np.linalg.eigh(_hermitize(x))
            W, x_prev = (W @ V) * np.exp(-0.5 * l), np.diag(-l)
            omega = 2.0 / (2.0 - sigma2) if m == 0 else 1.0 / (1.0 - sigma2 * omega / 4)
    except (RuntimeError, np.linalg.LinAlgError):
        return None, changes, "stalled"
    return None, changes, "cap"


@dataclass
class SolveOptions:
    k: int
    max_iter: int = 200

    def __post_init__(self):
        n = self.max_iter
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_iter must be an integer >= 1, not {n!r}")


@dataclass
class SolveResult:
    status: str  # converged | diverging | maxiter
    G_final: np.ndarray
    he_residual_sup: float
    mdon_history: list
    history: list  # (iter, M, res, op_norm)
    zeta_limit: np.ndarray | None
    sb: SectionBasis
    t_changes: list  # the change of every T-step (`_balance`)
    t_outcome: str  # converged | stalled | cap | rejected


def _log_opnorm(G: np.ndarray):
    w, U = np.linalg.eigh(_hermitize(G))
    logG = (U * np.log(w)) @ U.conj().T
    return logG, float(np.max(np.abs(np.log(w))))


def _normalize(G: np.ndarray, values: np.ndarray, white: np.ndarray) -> np.ndarray:
    """Rescale the form so the node-infimum of the least eigenvalue of its
    metric values relative to the reference, whose `_whitening` is
    `white`, is one; the energy is scale invariant, so this is free."""
    c = float(_relative_eigs(values, white)[:, 0].min())
    if c <= 0:
        raise RuntimeError("iterate lost positivity against the reference")
    return G / c


def _step(sb: SectionBasis, G: np.ndarray, G_new: np.ndarray, sections, white):
    """The step from the form G to G_new, taken when the energy rises by
    at most 1e-10 along their form geodesic: the change, G_new
    normalized (`_normalize`) from the metric values of the path's end
    state, and that state, which the next gradient reads.  None for a
    refused step.  A RuntimeError reads as an energy of inf: from
    `BergmanPath` on forms that are not jointly positive, or from
    `donaldson` on an integral that misses its tolerance.

    The path alone fixes the energy, so no metric is formed; the call
    goes through `donaldson`, whose spans the benchmark's tracer
    (perfbench/tracing.py) counts as line-search trials."""
    rule = sections[0]
    try:
        path = BergmanPath(sb, G, G_new, sections)
        dm = donaldson(None, None, rule, path=path, tol=1e-9)
    except RuntimeError:
        dm = np.inf
    if not dm <= 1e-10:
        return None
    state = path.end_state()
    return dm, _normalize(G_new, _fs_values(state[1], rule.coords, sb.k), white), state


def minimize(
    spec: BundleSpec,
    opts: SolveOptions,
    rule: QuadratureRule,
    G_init: np.ndarray | None = None,
) -> SolveResult:
    """Minimize the energy over the form space at level k, from the L2
    form of the standard metric unless `G_init` is given: the T-phase,
    then the descent.  The energy history adds each taken step's
    measured change.

    What no iterate changes, the `node_sections` and the `_whitening` of
    the reference metric values, is formed once, before either phase.

    `_step` builds, integrates and refuses every step, the T-phase's and
    each line-search trial, and normalizes the form of a taken one.  The
    T-phase (`_balance`) iterates Donaldson's T-map from the start form.
    When it converges, its form is the first step: the history records
    it and the descent starts there, with the first gradient read off
    that path's end.  On a stall, a cap or a refused step the descent
    starts from the untouched start form.  `SolveResult` records every
    T-step's change and the outcome ("rejected" for a refused step).

    The descent certifies every exit with the gradient.

    Converges on polystable split bundles; on unstable ones detects
    divergence (operator-norm blowup of log G with decreasing energy),
    freezes the escape direction, and measures the energy history along
    that ray down to the divergence threshold.  The stops are
    module constants: "converged" when the gradient norm falls below
    `_GRAD_TOL`, or when the Einstein defect sup is below `_HE_TOL` and
    the last step changed the energy by less than 1e-12; "diverging" when the
    operator norm of log G passes `_DIVERGENCE_OP`, confirmed once the
    energy along the escape ray falls below `_DIVERGENCE_M`; "maxiter"
    after `opts.max_iter` iterations.  A line search that finds no step
    in 40 halvings raises RuntimeError, whatever the gradient norm.
    """
    sb = basis(spec, opts.k)
    h_ref = trivial_metric(sb)
    G = np.asarray(G_init if G_init is not None else l2_gram(sb, h_ref, rule), dtype=complex)
    sections = node_sections(sb, rule)
    white = _whitening(h_ref.evaluate(rule.charts, rule.coords))
    mdon_history = [0.0]
    history = []
    alpha = _STEP0
    status = "maxiter"
    zeta_limit = None
    g_prev = s_prev = last_dm = None

    G_T, t_changes, t_outcome = _balance(sb, G, sections)
    step = None if G_T is None else _step(sb, G, G_T, sections, white)
    if step is not None:
        dm, G, state = step
        mdon_history.append(mdon_history[-1] + dm)
    else:
        if G_T is not None:
            t_outcome = "rejected"
        state = _fs_state(sb, G, sections)
        G = _normalize(G, _fs_values(state[1], rule.coords, sb.k), white)
    for it in range(opts.max_iter):
        g, res_sup = mdon_gradient(sb, state, sections)
        gnorm2 = float(np.real(np.trace(g @ g)))
        gnorm = np.sqrt(max(gnorm2, 0.0))
        logG, opn = _log_opnorm(G)
        history.append((it, mdon_history[-1], res_sup, opn))

        if gnorm < _GRAD_TOL:
            status = "converged"
            break
        # residual target met and the energy has stalled: accept
        if res_sup < _HE_TOL and last_dm is not None and abs(last_dm) < 1e-12:
            status = "converged"
            break
        if opn > _DIVERGENCE_OP:
            status = "diverging"
            zeta_limit = -logG / opn
            break

        # spectral (Barzilai-Borwein) initial step, halved until `_step`
        # takes it: any decrease within the monotonicity tolerance.
        # Both tests are relative: a gradient unchanged to rounding (as
        # along an escape ray) has no curvature, the limit of ss/sy is
        # infinite and the step is capped; otherwise s.y must be positive
        # beyond the rounding of the trace
        if g_prev is not None:
            y = g - g_prev
            sy = float(np.real(np.trace(s_prev @ y)))
            ss = float(np.real(np.trace(s_prev @ s_prev)))
            yy = float(np.real(np.trace(y @ y)))
            if yy <= 1e-24 * gnorm2:
                alpha = _MAX_STEP
            elif sy > 1e-12 * np.sqrt(ss * yy):
                alpha = min(ss / sy, _MAX_STEP)
        a = alpha
        for _ in range(40):
            E = scipy.linalg.expm(-a * g)
            step = _step(sb, G, E @ G @ E, sections, white)
            if step is not None:
                break
            a *= _BACKTRACK
        else:
            raise RuntimeError(
                f"line search failed at iteration {it} with gradient norm "
                f"{gnorm:.3e}; history: {history[-3:]}"
            )
        last_dm, G, state = step
        mdon_history.append(mdon_history[-1] + last_dm)
        s_prev, g_prev = -a * g, g
        alpha = min(a * _GROW, _MAX_STEP)

    del sections, white  # the ray extension, the memory peak of a solve, needs neither
    if status == "diverging":
        mdon_history += _extend_along_ray(sb, G, zeta_limit, mdon_history[-1], rule)

    return SolveResult(
        status=status,
        G_final=G,
        he_residual_sup=he_residual(FSMetric(sb, G=G), rule),
        mdon_history=mdon_history,
        history=history,
        zeta_limit=zeta_limit,
        sb=sb,
        t_changes=t_changes,
        t_outcome=t_outcome,
    )


def _extend_along_ray(sb, G, zeta_limit, m_total, rule):
    """The energies along the frozen escape ray from the form G, of
    energy `m_total`, measured (`mdon_along_ray`) on the doubling grid
    t = 0, 5, 10, 20, ... down to the first one below `_DIVERGENCE_M`.
    The grid runs to t = 640 first, past the crossing of O(1)+O(-1) at
    k = 2, then to 5 * 2^18 > 1e6 if no value crossed; RuntimeError,
    naming the threshold and the last t and energy, if none does.
    """
    from .asymptotics import OnePSRay, mdon_along_ray

    ray = OnePSRay(sb, G, zeta_limit)
    t_grid = np.append(0.0, 5.0 * 2.0 ** np.arange(19))
    for end in (9, len(t_grid)):
        vals = m_total + mdon_along_ray(ray, t_grid[:end], rule)[1:]
        below = np.flatnonzero(vals < _DIVERGENCE_M)
        if below.size:
            return list(vals[: below[0] + 1])
    raise RuntimeError(
        f"escape ray stayed above the divergence threshold {_DIVERGENCE_M:g}: "
        f"energy {vals[-1]:.6g} at t = {t_grid[-1]:g}; divergence unconfirmed"
    )


def destabilizer_extract(result: SolveResult):
    """Exact destabilizing filtration from a divergent run.

    Rounds the escape direction to rational weight data and runs the
    exact filtration; the result must be nontrivial and destabilizing
    (negative energy slope, top slope above the bundle slope).
    """
    from .asymptotics import rationalize_zeta
    from .quot import filtration

    if result.status != "diverging":
        raise ValueError("destabilizer extraction needs a divergent run")
    zr = rationalize_zeta(result.sb, result.zeta_limit)
    rep = filtration(result.sb.bundle, zr)
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
