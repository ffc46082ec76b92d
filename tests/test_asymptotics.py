"""Rays of Fubini-Study metrics: slopes, coercivity probes and weight
rounding."""

from fractions import Fraction

import numpy as np
import pytest

from _utils import at, escape_ray
from hebundle.asymptotics import (
    OnePSRay,
    _deriv_at,
    coercivity_probe,
    mdon_along_ray,
    random_block_weightspec,
    rationalize_zeta,
    slope_estimate,
    zeta_matrix,
)
from hebundle.bundle import BundleSpec
from hebundle.geometry import build_quadrature
from hebundle.quot import WeightSpec, block_weightspec, filtration
from hebundle.sections import FSMetric, basis, l2_gram, trivial_metric

SPEC = BundleSpec((1, -1))
SB = basis(SPEC, 1)


def _datum(rule, weights_and_dims):
    """The L2 form of the standard metric and block weight data."""
    G0 = l2_gram(SB, trivial_metric(SB), rule)
    return G0, block_weightspec(SB, [(Fraction(w), d) for w, d in weights_and_dims])


def test_zeta_matrix_spectrum():
    zr = block_weightspec(SB, [(Fraction(1, 3), 3), (Fraction(-1), 1)])
    z = zeta_matrix(zr)
    assert np.allclose(z, z.conj().T)
    lam = np.sort(np.linalg.eigvalsh(z))
    assert np.allclose(lam, [-1.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_ray_construction_and_scaling(rule16):
    G0 = l2_gram(SB, trivial_metric(SB), rule16)
    z = np.diag([1.0, 1.0, 1.0, -3.0])
    ray = OnePSRay(SB, G0, z)
    # generators above unit operator norm are rescaled, factor recorded
    assert ray.scale == pytest.approx(3.0)
    assert np.linalg.norm(ray.zeta, 2) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        OnePSRay(SB, G0, np.array([[0, 1], [0, 0]], dtype=complex))


def test_ray_start_is_base_metric(rule16):
    # the graded factor at t = 0: G0^-1 = (U C) (U C)*
    G0 = l2_gram(SB, trivial_metric(SB), rule16)
    ray = OnePSRay(SB, G0, np.diag([1.0, 0.5, 0.0, -1.0]))
    h = FSMetric(SB, ginv_factor=ray._U @ ray._C)
    z = 0.4 + 0.2j
    assert np.allclose(at(h, z), at(FSMetric(SB, G=G0), z), atol=1e-10)


def test_mdon_along_ray_grid_validation(rule16):
    G0, zr = _datum(rule16, [(Fraction(1, 3), 3), (-1, 1)])
    ray = OnePSRay(SB, G0, zeta_matrix(zr))
    with pytest.raises(ValueError):
        mdon_along_ray(ray, [1.0, 2.0], rule16)
    with pytest.raises(ValueError):
        mdon_along_ray(ray, [0.0, 2.0, 1.0], rule16)


# dM/dt on the CLI `solve`'s escape ray, (1, -1) at k = 2 on 12 x 12, as
# the kernel gave it before its rows were scaled; from t = 280 on that
# kernel's low-weight rows underflowed and it refused
_ESCAPE_RAY_UNSCALED = (
    (20.0, 80.0, 160.0, 240.0),
    (-2.005324795815323, -2.004178460469099, -2.0026253493280683, -2.001754895177011),
)


def test_escape_ray_derivative_is_finite_past_the_old_horizon():
    rule = build_quadrature(12, 12)
    ray = escape_ray(SPEC, 2, rule)
    ts, want = _ESCAPE_RAY_UNSCALED
    got = _deriv_at(ray, np.array(ts), rule)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    far = _deriv_at(ray, np.array([320.0, 640.0, 5120.0]), rule)
    assert np.all(np.isfinite(far))


def test_ray_times_must_be_finite(rule16):
    # NaN fails every comparison, and inf passes the increase check: both
    # must be refused before they reach the ray's QR
    G0, zr = _datum(rule16, [(Fraction(1, 3), 3), (-1, 1)])
    ray = OnePSRay(SB, G0, zeta_matrix(zr))
    for grid in ([0.0, np.nan], [0.0, np.inf], [0.0, 1.0, np.nan, 3.0]):
        with pytest.raises(ValueError, match="t grid must be finite"):
            mdon_along_ray(ray, grid, rule16)
    for t_max in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite t_max"):
            slope_estimate(SB, G0, zr, t_max=t_max, n_t=9, rule=rule16)
        with pytest.raises(ValueError, match="finite t_max"):
            coercivity_probe(SPEC, [1], 1, t_max, rule16, seed=0)


def test_slope_matches_exact_invariant(rule24):
    # concentration-free datum: fitted slope equals the exact value
    G0, zr = _datum(rule24, [(Fraction(1, 3), 3), (-1, 1)])
    rep = slope_estimate(SB, G0, zr, t_max=15.0, n_t=9, rule=rule24)
    assert rep.mna_exact == Fraction(-8, 3)
    assert rep.concentration_degrees == (0,)
    assert rep.fitted_slope == pytest.approx(-8.0 / 3.0, rel=1e-6)
    assert rep.relative_gap < 1e-6
    # the linear lower bound holds along the ray with a bounded offset
    assert rep.c_offset < 1e-6


def test_slope_matches_exact_invariant_on_a_non_aligned_datum(rule24):
    # weight 1 on (1, 2, 0, 1) and -1/3 on e1, e2, e0: the flag is not
    # spanned by monomials, and the sections of no level share a zero
    e1, e2, e0 = (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)
    zr = WeightSpec(k=1, blocks=((Fraction(1), ((1, 2, 0, 1),)), (Fraction(-1, 3), (e1, e2, e0))))
    G0 = l2_gram(SB, trivial_metric(SB), rule24)
    rep = slope_estimate(SB, G0, zr, t_max=20.0, n_t=11, rule=rule24)
    assert rep.mna_exact == Fraction(8, 3)
    assert rep.concentration_degrees == (0,)
    assert abs(rep.fitted_slope - 8 / 3) <= 1e-3


def test_slope_estimate_flags_concentration(rule16):
    # weights separating {x0^2-section, other-summand section} from the
    # rest: the leading block has a base point, which must be reported
    zr = WeightSpec(
        k=1,
        blocks=(
            (Fraction(1), ((1, 0, 0, 0), (0, 0, 0, 1))),
            (Fraction(-1), ((0, 1, 0, 0), (0, 0, 1, 0))),
        ),
    )
    G0 = l2_gram(SB, trivial_metric(SB), rule16)
    rep = slope_estimate(SB, G0, zr, t_max=10.0, n_t=6, rule=rule16)
    assert rep.concentration_degrees[0] > 0


def test_slope_estimate_input_checks(rule16):
    G0, zr = _datum(rule16, [(Fraction(1, 3), 3), (-1, 1)])
    with pytest.raises(ValueError):
        slope_estimate(SB, G0, zr, t_max=5.0, n_t=4, rule=rule16)  # too short


def test_slope_estimate_needs_two_tail_times(rule16):
    # the fit reads the times t >= t_max / 2; two grid times leave one,
    # where a least-squares line is not determined
    G0, zr = _datum(rule16, [(Fraction(1, 3), 3), (-1, 1)])
    with pytest.raises(ValueError, match="n_t = 2"):
        slope_estimate(SB, G0, zr, t_max=30.0, n_t=2, rule=rule16)


def test_rationalize_zeta_roundtrip():
    zr = block_weightspec(SB, [(Fraction(1), 3), (Fraction(-3), 1)])
    z = zeta_matrix(zr)
    rng = np.random.default_rng(3)
    noise = rng.normal(size=z.shape) * 1e-8
    zs = rationalize_zeta(SB, z + 0.5 * (noise + noise.T))
    assert zs.weights == (Fraction(1), Fraction(-3))
    assert filtration(SPEC, zs).mna == Fraction(-8)


def test_random_block_weightspec_valid(rule16):
    sb2 = basis(BundleSpec((0, 0)), 1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        zr = random_block_weightspec(sb2, rng)
        zr.validate_against(sb2)
        assert max(abs(w) for w in zr.weights) <= 1


def test_coercivity_probe_polystable(rule16):
    out = coercivity_probe(
        BundleSpec((2, 2)), [2], samples_per_k=2, t_max=8.0, rule=rule16, seed=1
    )
    row = out["table"][0]
    # on a polystable bundle the linear bound holds along sampled rays
    assert row["c_k"] < 1e-6
