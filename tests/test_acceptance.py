"""End-to-end acceptance checks.

Each test covers one acceptance criterion, computes its verdict, and
prints a single pass/fail line with the measured quantities before
asserting.  Tolerances are pinned in the assertions.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from _utils import at, rand_pd
from hebundle.asymptotics import slope_estimate
from hebundle.bundle import (
    BundleSpec,
    he_residual,
)
from hebundle.donaldson import (
    PointwiseExponentialPath,
    c_delta,
    cocycle_defect,
    curvature_variation_check,
    delta_lower_bound_audit,
    donaldson,
    poincare_constant,
    second_derivative_geodesic,
)
from hebundle.geometry import canonical_points
from hebundle.quot import WeightSpec, block_weightspec, filtration
from hebundle.sections import FSMetric, basis, bergman_kernel, l2_gram, trivial_metric
from hebundle.solver import SolveOptions, destabilizer_extract, minimize


def _verdict(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_exact_invariants():
    t0 = time.time()
    spec = BundleSpec((1, -1))
    sb = basis(spec, 1)
    z = block_weightspec(sb, [(Fraction(1), 3), (Fraction(-3), 1)])
    rep = filtration(spec, z)
    z_rev = WeightSpec(
        k=1,
        blocks=(
            (Fraction(3), ((0, 0, 0, 1),)),
            (Fraction(-1), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))),
        ),
    )
    rep_rev = filtration(spec, z_rev)
    dt = time.time() - t0
    ok = (
        rep.mna == Fraction(-8)
        and rep.jna == Fraction(4)
        and rep_rev.mna == Fraction(8)
        and dt < 1.0
    )
    _verdict(
        "criterion 1: exact invariants",
        ok,
        f"mna={rep.mna} jna={rep.jna} reversed mna={rep_rev.mna} time={dt:.2f}s",
    )
    assert rep.mna == Fraction(-8)
    assert rep.jna == Fraction(4)
    assert rep_rev.mna == Fraction(8)
    assert dt < 1.0


def test_criterion_02_balanced_bergman_constant(rule64):
    t0 = time.time()
    h = trivial_metric(basis(BundleSpec((0,)), 0))
    worst = 0.0
    for k, rep in zip(range(2, 11), bergman_kernel(h, range(2, 11), rule64)):
        assert rep["N"] == k + 1
        worst = max(worst, rep["raw_sup_dev"])
    dt = time.time() - t0
    ok = worst < 1e-6 and dt < 10.0
    _verdict(
        "criterion 2: balanced Bergman constant",
        ok,
        f"worst raw deviation={worst:.3e} over k=2..10, time={dt:.1f}s",
    )
    assert worst < 1e-6
    assert dt < 10.0


def test_criterion_03_bergman_decay(rule64):
    t0 = time.time()
    sb3 = basis(BundleSpec((0,)), 3)
    rng = np.random.default_rng(7)
    h = FSMetric(sb3, G=rand_pd(rng, sb3.N, scale=0.5))
    ks = np.arange(4, 13)
    devs = np.array([rep["sup_dev"] for rep in bergman_kernel(h, ks.tolist(), rule64)])
    # one-parameter least squares fit dev_k ~ C/k
    C = float(np.sum(devs / ks) / np.sum(1.0 / ks**2))
    resid = float(np.max(np.abs(devs - C / ks))) / C
    dt = time.time() - t0
    ok = resid < 0.2 and dt < 120.0
    _verdict(
        "criterion 3: Bergman kernel 1/k decay",
        ok,
        f"C={C:.3f} max residual={resid:.1%} of C, time={dt:.1f}s",
    )
    assert resid < 0.2
    assert dt < 120.0


def test_criterion_04_cocycle_and_scale_invariance(rule24):
    t0 = time.time()
    spec = BundleSpec((1, -1))
    sb = basis(spec, 1)
    rng = np.random.default_rng(42)
    worst_cocycle = 0.0
    max_m = 0.0
    for _ in range(10):
        hs = [FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.4)) for _ in range(3)]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            max_m = max(max_m, abs(donaldson(hs[b], hs[a], rule=rule24)))
        worst_cocycle = max(worst_cocycle, cocycle_defect(hs[2], hs[1], hs[0], rule24))
    h = FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.4))
    worst_scale = max(
        abs(donaldson(FSMetric(h.sb, G=math.exp(c) * h.G), h, rule=rule24))
        for c in (1.0, -1.0, 5.0, -5.0)
    )
    dt = time.time() - t0
    tol = 1e-6 * (1.0 + max_m)
    ok = worst_cocycle < tol and worst_scale < 1e-8 and dt < 60.0
    _verdict(
        "criterion 4: cocycle and scale invariance",
        ok,
        f"cocycle defect={worst_cocycle:.3e} (tol {tol:.3e}), "
        f"scale defect={worst_scale:.3e}, time={dt:.1f}s",
    )
    assert worst_cocycle < tol
    assert worst_scale < 1e-8
    assert dt < 60.0


def test_criterion_05_convexity_and_hessian(rule24):
    t0 = time.time()
    spec = BundleSpec((1, -1))
    sb = basis(spec, 1)
    rng = np.random.default_rng(100)
    worst_neg = 0.0
    worst_rel = 0.0
    for _ in range(10):
        h0 = FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.3))
        h1 = FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.3))
        for s in (0.0, 0.5, 1.0):
            out = second_derivative_geodesic(h0, h1, s, rule24)
            worst_neg = min(worst_neg, out["fd"])
            rel = abs(out["formula"] - out["fd"]) / max(1e-12, abs(out["formula"]))
            worst_rel = max(worst_rel, rel)
    dt = time.time() - t0
    ok = worst_neg >= -1e-8 and worst_rel < 1e-4 and dt < 180.0
    _verdict(
        "criterion 5: convexity and Hessian formula",
        ok,
        f"min fd second derivative={worst_neg:.3e}, "
        f"worst formula/fd relative gap={worst_rel:.3e}, time={dt:.1f}s",
    )
    assert worst_neg >= -1e-8
    assert worst_rel < 1e-4
    assert dt < 180.0


def test_criterion_06_slope_match(rule24):
    t0 = time.time()
    spec = BundleSpec((1, -1))
    sb = basis(spec, 1)
    G0 = l2_gram(sb, trivial_metric(sb), rule24)
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    zetas = [
        block_weightspec(sb, [(Fraction(1, 3), 3), (Fraction(-1), 1)]),
        block_weightspec(sb, [(Fraction(1), 3), (Fraction(-1), 1)]),
        WeightSpec(
            k=1,
            blocks=(
                (Fraction(1), (e[3],)),
                (Fraction(-1, 3), (e[0], e[1], e[2])),
            ),
        ),
    ]
    results = []
    for zr in zetas:
        rep = slope_estimate(sb, G0, zr, t_max=30.0, n_t=16, rule=rule24)
        assert not any(rep.concentration_degrees)
        results.append(rep)
    dt = time.time() - t0
    gaps = [r.relative_gap for r in results]
    offsets = [r.c_offset for r in results]
    ok = max(gaps) < 0.1 and max(offsets) < 10.0 and dt < 300.0
    _verdict(
        "criterion 6: asymptotic slope match",
        ok,
        "slopes=" + ", ".join(f"{r.fitted_slope:.6f} (exact {r.mna_exact})" for r in results)
        + f"; worst relative gap={max(gaps):.2e}, worst offset={max(offsets):.2e}, "
        f"time={dt:.1f}s",
    )
    for r in results:
        assert r.relative_gap < 0.1
        assert r.c_offset < 10.0  # lower-bound defect stays bounded
    assert dt < 300.0


def test_criterion_07_semistable_positivity():
    t0 = time.time()
    spec = BundleSpec((2, 2))
    sb = basis(spec, 2)
    from hebundle.asymptotics import random_block_weightspec

    rng = np.random.default_rng(0)
    values = []
    # random weights/dims over the standard flag (compatible with the
    # splitting, so these all sit at the equality case)
    for _ in range(59):
        zr = random_block_weightspec(sb, rng)
        values.append(filtration(spec, zr).mna)
    # random exact integer vector data: generically transverse to the
    # splitting, giving strictly positive slopes at rank-1 levels
    for _ in range(40):
        while True:
            M = rng.integers(-3, 4, size=(sb.N, sb.N))
            cut = int(rng.integers(1, sb.N))
            zr = WeightSpec(
                k=2,
                blocks=(
                    (Fraction(1), tuple(tuple(int(c) for c in r) for r in M[:cut])),
                    (Fraction(-1), tuple(tuple(int(c) for c in r) for r in M[cut:])),
                ),
            )
            try:
                values.append(filtration(spec, zr).mna)
                break
            except ValueError:
                continue  # resample singular vector sets
    # summand filtration: weight split along the first O(2) summand
    z_sum = block_weightspec(sb, [(Fraction(1), 5), (Fraction(0), 5)])
    values.append(filtration(spec, z_sum).mna)
    dt = time.time() - t0
    ok = (
        all(v >= 0 for v in values)
        and min(values) == 0
        and max(values) > 0
        and dt < 30.0
    )
    _verdict(
        "criterion 7: semistable positivity",
        ok,
        f"100 exact slopes all >= 0 (min {min(values)}, max {max(values)}), "
        f"equality attained by the summand filtration, time={dt:.1f}s",
    )
    assert all(v >= 0 for v in values)
    assert min(values) == 0
    assert max(values) > 0
    assert dt < 30.0


def _constant_factor_gap(sb, G1, G2, rule):
    """Sup relative deviation between two FS metrics after matching by
    the best constant endomorphism (constant scalar when rank is 1)."""
    h1 = FSMetric(sb, G=G1).evaluate(rule.charts, rule.coords)
    h2 = FSMetric(sb, G=G2).evaluate(rule.charts, rule.coords)
    C = np.mean(h1 @ np.linalg.inv(h2), axis=0)
    matched = C @ h2
    num = np.linalg.norm(h1 - matched, axis=(1, 2))
    den = np.linalg.norm(h1, axis=(1, 2))
    return float(np.max(num / den))


def test_criterion_08_he_convergence(rule24):
    t0 = time.time()
    gaps = {}
    residuals = {}
    for degs in ((3,), (2, 2)):
        spec = BundleSpec(degs)
        sb = basis(spec, 2)
        finals = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            res = minimize(
                spec,
                SolveOptions(k=2, max_iter=300),
                rule24,
                G_init=rand_pd(rng, sb.N, scale=0.3),
            )
            assert res.status == "converged"
            residuals[degs] = max(residuals.get(degs, 0.0), res.he_residual_sup)
            finals.append(res.G_final)
        gaps[degs] = _constant_factor_gap(sb, finals[0], finals[1], rule24)
    dt = time.time() - t0
    worst_res = max(residuals.values())
    worst_gap = max(gaps.values())
    ok = worst_res < 1e-3 and worst_gap < 1e-3 and dt < 600.0
    _verdict(
        "criterion 8: convergence on polystable bundles",
        ok,
        f"HE residuals={ {d: f'{r:.2e}' for d, r in residuals.items()} }, "
        f"two-run gaps={ {d: f'{g:.2e}' for d, g in gaps.items()} }, time={dt:.0f}s",
    )
    assert worst_res < 1e-3
    assert worst_gap < 1e-3
    assert dt < 600.0


def test_criterion_09_instability_detection(rule24):
    t0 = time.time()
    spec = BundleSpec((1, -1))
    res = minimize(spec, SolveOptions(k=2, max_iter=300), rule24)
    assert res.status == "diverging"
    rep = destabilizer_extract(res)
    dt = time.time() - t0
    top = rep.levels[0]
    ok = (
        res.mdon_history[-1] < -1e3
        and top[1] == 1
        and top[3] == Fraction(1)
        and rep.mna < 0
        and dt < 600.0
    )
    _verdict(
        "criterion 9: instability detection",
        ok,
        f"final energy={res.mdon_history[-1]:.1f}, destabilizer rank={top[1]} "
        f"slope={top[3]}, mna={rep.mna}, time={dt:.0f}s",
    )
    assert res.mdon_history[-1] < -1e3
    assert top[1] == 1 and top[3] == Fraction(1)
    assert rep.mna < 0
    assert dt < 600.0


def test_criterion_10_delta_bound_audit(rule24):
    t0 = time.time()
    # spot checks of the delta constant
    assert c_delta(math.exp(-1.0)) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert c_delta(1.0) == pytest.approx(0.5, abs=1e-12)
    spec = BundleSpec((3,))
    sb = basis(spec, 3)
    # a non-balanced FS reference makes the lower bound a genuinely
    # negative number; on a line bundle delta is identically 1 by
    # definition (the fiberwise eigenvalue ratio is trivial in rank 1)
    rng0 = np.random.default_rng(99)
    h0 = FSMetric(sb, G=rand_pd(rng0, sb.N, scale=0.4))
    pc = poincare_constant(h0, rule24)["constant"]
    rng = np.random.default_rng(31)
    worst_margin = np.inf
    bound = 0.0
    deltas = []
    mdons = []
    for _ in range(50):
        h = FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.4))
        rep = delta_lower_bound_audit(h, h0, rule24, poincare=pc)
        deltas.append(rep.delta)
        mdons.append(rep.mdon)
        bound = rep.bound
        worst_margin = min(worst_margin, rep.mdon - rep.bound)
        assert rep.passes
    dt = time.time() - t0
    ok = worst_margin >= -1e-6 and dt < 600.0
    _verdict(
        "criterion 10: delta lower-bound audit",
        ok,
        f"50 samples, delta in [{min(deltas):.3f}, {max(deltas):.3f}], "
        f"bound={bound:.2f}, min energy={min(mdons):.3f}, "
        f"worst margin={worst_margin:.3e}, time={dt:.0f}s",
    )
    assert worst_margin >= -1e-6
    assert dt < 600.0


def _geodesic_equation_residual(h0, h1, points):
    """Sup over points of the s-derivative of the velocity field
    h_s^-1 d h_s/ds, by 4th-order finite differences in s."""
    from hebundle.bundle import _geodesic_at, _geodesic_parts

    offs = np.array([-2, -1, 0, 1, 2])
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    eps = 0.05
    worst = 0.0
    for p in points:
        a = at(h0, p)
        b = at(h1, p)

        def v_at(s):
            vals = np.array([_geodesic_at(_geodesic_parts(a, b), s + o * eps) for o in offs])
            hdot = np.tensordot(w1, vals, axes=(0, 0)) / eps
            return np.linalg.solve(vals[2], hdot)

        dv = (v_at(0.7) - v_at(0.3)) / 0.4
        worst = max(worst, float(np.linalg.norm(dv, 2)))
    return worst


def test_criterion_11_geodesic_and_curvature_variation(rule24):
    t0 = time.time()
    spec = BundleSpec((1, -1))
    sb = basis(spec, 1)
    rng = np.random.default_rng(55)
    pts = (0.1, 0.5, 0.8j, -0.4 + 0.3j)
    charts, coords = canonical_points(pts)
    worst_geo = 0.0
    worst_var = 0.0
    for _ in range(3):
        h0 = FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.3))
        h1 = FSMetric(sb, G=rand_pd(rng, sb.N, scale=0.3))
        worst_geo = max(worst_geo, _geodesic_equation_residual(h0, h1, pts))
        worst_var = max(worst_var, curvature_variation_check(h0, h1, 0.5, charts, coords))
    dt = time.time() - t0
    ok = worst_geo < 1e-6 and worst_var < 1e-4 and dt < 120.0
    _verdict(
        "criterion 11: geodesic and curvature-variation identities",
        ok,
        f"geodesic residual={worst_geo:.3e}, variation defect={worst_var:.3e}, "
        f"time={dt:.1f}s",
    )
    assert worst_geo < 1e-6
    assert worst_var < 1e-4
    assert dt < 120.0
