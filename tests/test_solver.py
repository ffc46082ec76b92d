"""Energy minimization: gradient correctness, convergence, divergence."""

import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import hebundle.asymptotics as asymptotics_mod
import hebundle.bundle as bundle_mod
import hebundle.donaldson as donaldson_mod
import hebundle.sections as sections_mod
import hebundle.solver as solver_mod
from _utils import count_calls, escape_ray, rand_pd, run_at_blas_threads
from hebundle.asymptotics import mdon_along_ray
from hebundle.bundle import BundleSpec, he_residual
from hebundle.donaldson import BergmanPath, donaldson, path_energy
from hebundle.geometry import build_quadrature
from hebundle.sections import (FSMetric, _fs_values, basis, eval_matrix_batch, l2_gram,
                               node_sections, trivial_metric)
from hebundle.solver import (
    SolveOptions,
    destabilizer_extract,
    mdon_gradient,
    minimize,
)


def _fd_directional_energy(sb, G, rule, dzeta, eps=1e-4) -> float:
    """Finite-difference directional derivative of the energy."""
    def m_at(s):
        E = scipy.linalg.expm(s * dzeta)
        return path_energy(BergmanPath(sb, G, E @ G @ E, node_sections(sb, rule)), 1e-8)

    return (m_at(-2 * eps) - 8 * m_at(-eps) + 8 * m_at(eps) - m_at(2 * eps)) / (
        12 * eps
    )


def _fs_defect_sup(sb, G, rule) -> float:
    """The Einstein defect's sup of FS(G) from its evaluator's own
    sections and curvature, with hv^-1 = e^{-k phi} A from its moments;
    `he_residual` inverts hv instead, which rounds apart in the last
    bits."""
    hm = FSMetric(sb, G=G)
    hv, lam = hm.evaluate_with_curvature(rule.charts, rule.coords)
    A = hm._moments(*eval_matrix_batch(sb, rule.charts, rule.coords))[0]
    hv_inv = A * ((1.0 + np.abs(rule.coords) ** 2) ** (-sb.k))[:, None, None]
    sup = bundle_mod._node_sup_norm(bundle_mod._he_defect(hv, hv_inv, lam, float(sb.bundle.slope)))
    assert sup == pytest.approx(he_residual(hm, rule), rel=1e-14)
    return sup


def _gradient(sb, G, sections):
    """`mdon_gradient` at the form G, from FS(G)'s own end state."""
    return mdon_gradient(sb, solver_mod._fs_state(sb, G, sections), sections)


def test_gradient_matches_finite_differences(rule24):
    spec = BundleSpec((1, -1))
    sb = basis(spec, 1)
    rng = np.random.default_rng(5)
    G = rand_pd(rng, sb.N, scale=0.3)
    g, res_sup = _gradient(sb, G, node_sections(sb, rule24))
    # the defect comes from the gradient's own sections and curvature
    assert res_sup == _fs_defect_sup(sb, G, rule24)
    X = rng.normal(size=(sb.N, sb.N)) + 1j * rng.normal(size=(sb.N, sb.N))
    dz = 0.5 * (X + X.conj().T)
    dz = dz - (np.trace(dz).real / sb.N) * np.eye(sb.N)
    pred = float(np.real(np.trace(g @ dz)))
    fd = _fd_directional_energy(sb, G, rule24, dz)
    assert pred == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_gradient_vanishes_at_critical_point(rule24):
    # the flat metric on O(0) is Hermitian-Einstein and balanced, so
    # its L2 form is a critical point of the energy
    spec = BundleSpec((0,))
    sb = basis(spec, 3)
    G = l2_gram(sb, trivial_metric(sb), rule24)
    g, _ = _gradient(sb, G, node_sections(sb, rule24))
    assert np.linalg.norm(g) < 1e-10


def test_options_validation():
    # the stopping tolerances are the solver's constants, not options
    for name in ("grad_tol", "he_tol", "divergence_op", "divergence_m"):
        with pytest.raises(TypeError, match=name):
            SolveOptions(k=2, **{name: 1.0})
    # `basis` refuses a level below the regularity
    with pytest.raises(ValueError, match="below the minimum level 1"):
        minimize(
            BundleSpec((1, -1)),
            SolveOptions(k=0),
            rule=None,
        )


def test_options_refuse_non_finite_values_and_non_integer_iterations():
    for bad in (0, -3, 2.5, 3.0, True, "3", float("nan"), float("inf")):
        with pytest.raises(ValueError, match="max_iter"):
            SolveOptions(k=1, max_iter=bad)
    assert SolveOptions(k=1, max_iter=np.int64(5)).max_iter == 5


def test_minimize_converges_on_line_bundle(rule24):
    spec = BundleSpec((3,))
    res = minimize(spec, SolveOptions(k=3), rule24)
    assert res.status == "converged"
    assert res.he_residual_sup < 1e-3
    # the energy history never increases
    assert all(b <= a + 1e-12 for a, b in zip(res.mdon_history, res.mdon_history[1:]))


def test_minimize_detects_instability(rule24):
    spec = BundleSpec((1, -1))
    res = minimize(spec, SolveOptions(k=2, max_iter=300), rule24)
    assert res.status == "diverging"
    assert res.mdon_history[-1] < -1e3
    assert res.zeta_limit is not None
    rep = destabilizer_extract(res)
    # the recovered filtration starts with the destabilizing O(1)
    assert rep.levels[0][1] == 1
    assert rep.levels[0][3] == Fraction(1)
    assert rep.mna < 0


def test_destabilizer_requires_divergence(rule24):
    spec = BundleSpec((3,))
    res = minimize(spec, SolveOptions(k=3), rule24)
    with pytest.raises(ValueError):
        destabilizer_extract(res)


def test_minimize_random_init_reaches_he(rule24):
    spec = BundleSpec((3,))
    sb = basis(spec, 2)
    rng = np.random.default_rng(12)
    res = minimize(
        spec,
        SolveOptions(k=2, max_iter=300),
        rule24,
        G_init=rand_pd(rng, sb.N, scale=0.3),
    )
    assert res.status == "converged"
    assert res.he_residual_sup < 1e-3
    assert he_residual(FSMetric(sb, G=res.G_final), rule24) < 1e-3


_SOLVE_HASH = """
import hashlib, sys
import numpy as np
from _utils import count_calls, rand_pd, run_at_blas_threads
from hebundle.bundle import BundleSpec
from hebundle.geometry import build_quadrature
from hebundle.sections import basis
from hebundle.solver import SolveOptions, minimize
spec = BundleSpec((2, 2))
G = rand_pd(np.random.default_rng(1), basis(spec, 2).N, scale=0.3)
res = minimize(spec, SolveOptions(k=2, max_iter=40), build_quadrature(24, 24), G_init=G)
print(res.status, len(res.history),
      hashlib.sha256(res.G_final.tobytes()).hexdigest(),
      hashlib.sha256(np.array(res.mdon_history, dtype=float).tobytes()).hexdigest())
"""


def test_minimize_is_independent_of_blas_threads():
    outs = [run_at_blas_threads(threads, "-c", _SOLVE_HASH).split() for threads in ("1", "2")]
    assert len(outs[0]) == 4
    assert outs[0] == outs[1]


@pytest.mark.parametrize("ulps", [1, -1])
def test_diverging_solve_ignores_last_bit_of_normalization(monkeypatch, ulps):
    # along the escape ray of O(1)+O(-1) the gradient is constant, so the
    # Barzilai-Borwein curvature s.y is rounding noise; the iterations and
    # the energy history must not depend on the last bit of the
    # normalization constant.  `_normalize` calls the name `solver` bound
    # at import, so that binding is the one nudged
    rule = build_quadrature(12, 12)
    spec = BundleSpec((1, -1))
    ref = minimize(spec, SolveOptions(k=2, max_iter=300), rule)
    orig, calls = solver_mod._relative_eigs, []

    def nudged(*args):
        calls.append(args)
        return orig(*args) * (1.0 + ulps * 2.0**-52)

    monkeypatch.setattr(solver_mod, "_relative_eigs", nudged)
    got = minimize(spec, SolveOptions(k=2, max_iter=300), rule)
    # one normalization per iteration, every one of them nudged
    assert len(calls) == len(got.history) > 0
    assert ref.status == got.status == "diverging"
    assert len(got.history) == len(ref.history)
    assert np.allclose(got.mdon_history, ref.mdon_history, rtol=1e-12, atol=0.0)


def _he_solve_shaped():
    """An he_solve-shaped solve: O(2)+O(2) at k = 0 on 12 x 12 from a
    `rand_pd` form of scale 0.3."""
    spec = BundleSpec((2, 2))
    G = rand_pd(np.random.default_rng(1), basis(spec, 0).N, scale=0.3)
    return minimize(spec, SolveOptions(k=0, max_iter=300), build_quadrature(12, 12), G_init=G)


def _capped_t_phase(monkeypatch):
    """Cap the T-phase at no step: the descent starts from the start form
    and iterates."""
    monkeypatch.setattr(solver_mod, "_T_MAX_STEPS", 0)


def test_solve_forms_sections_and_reference_whitening_once(monkeypatch):
    # the sections on the nodes are formed once for both phases and once
    # by the final `he_residual`, and the reference metric is factored
    # once, whatever the number of T-steps and iterations: with the
    # T-phase, which ends an he_solve-shaped solve after 1 iteration, and
    # with the T-phase capped, which leaves the descent to iterate
    sections = count_calls(monkeypatch, sections_mod, "eval_matrix_batch")
    factors = count_calls(monkeypatch, bundle_mod, "_whitening")
    eigs = count_calls(monkeypatch, bundle_mod, "_relative_eigs")
    res = _he_solve_shaped()
    assert res.status == res.t_outcome == "converged"
    assert len(res.t_changes) > 2 and len(res.history) == 1
    assert len(eigs) == len(res.history)
    assert len(sections) == 2
    assert len(factors) == 1
    for calls in (sections, factors, eigs):
        calls.clear()
    _capped_t_phase(monkeypatch)
    res = _he_solve_shaped()
    assert res.status == "converged" and len(res.history) > 2
    assert len(eigs) == len(res.history)
    assert len(sections) == 2
    assert len(factors) == 1


def test_solve_forms_fs_moments_for_its_first_gradient_and_final_residual(monkeypatch):
    # with the T-phase capped, the descent iterates: every later gradient
    # reads FS of its form off the accepted line-search path, so the FS
    # moments are formed once for the reference metric's values, once for
    # the first gradient and once for the final `he_residual`, while the
    # gradient still runs once per iteration.  With the T-phase, each
    # T-step forms them once, and the first gradient reads FS of the
    # T-phase's form off the path of the accepted T-step
    moments = count_calls(monkeypatch, sections_mod, "_fs_moments")
    grads = count_calls(monkeypatch, solver_mod, "mdon_gradient")
    res = _he_solve_shaped()
    assert res.status == res.t_outcome == "converged"
    assert len(grads) == len(res.history) == 1
    assert len(moments) == 2 + len(res.t_changes)
    moments.clear()
    grads.clear()
    _capped_t_phase(monkeypatch)
    res = _he_solve_shaped()
    assert res.status == "converged" and len(res.history) > 2
    assert len(grads) == len(res.history)
    assert len(moments) == 3


def _first_energy_reads(monkeypatch, value):
    """Make the solve's first energy integral read `value`, or raise it,
    as `donaldson` raises on an integral it refuses, when it is an
    exception."""
    trials = []

    def first_reads(*args, **kwargs):
        trials.append(donaldson(*args, **kwargs))
        if len(trials) > 1:
            return trials[-1]
        if isinstance(value, Exception):
            raise value
        return value

    monkeypatch.setattr(solver_mod, "donaldson", first_reads)


def test_energy_history_records_an_accepted_rise(monkeypatch):
    # the first trial reads a rise within the acceptance tolerance, so it
    # is accepted, and the history moves by exactly that rise.  On
    # O(1)+O(-1) the T-phase stalls, so the descent iterates, and its
    # first trial is the solve's first energy integral
    spec, rule, rise = BundleSpec((1, -1)), build_quadrature(12, 12), 5e-11
    _first_energy_reads(monkeypatch, rise)
    res = minimize(spec, SolveOptions(k=2, max_iter=3), rule)
    assert res.t_outcome == "stalled"
    assert len(res.history) == 3 and len(res.mdon_history) > 1
    assert res.mdon_history[1] - res.mdon_history[0] == rise


def test_t_step_is_taken_under_the_line_search_test(monkeypatch):
    # the converged T-phase's energy is the first step: a rise within the
    # line search's tolerance is taken and recorded as it is, and a larger
    # one is refused, so the descent starts from the untouched start form
    # and runs as with the T-phase capped, bit for bit
    _first_energy_reads(monkeypatch, 5e-11)
    res = _he_solve_shaped()
    assert res.t_outcome == "converged" and len(res.history) == 1
    assert res.mdon_history[1] - res.mdon_history[0] == 5e-11
    _first_energy_reads(monkeypatch, 2e-10)
    refused = _he_solve_shaped()
    assert refused.t_outcome == "rejected" and refused.t_changes == res.t_changes
    monkeypatch.setattr(solver_mod, "donaldson", donaldson)
    _capped_t_phase(monkeypatch)
    ref = _he_solve_shaped()
    assert ref.status == "converged" and len(ref.history) > 2
    assert _same_solve(refused, ref)


def _same_solve(got, want):
    """Whether two solves ran the same descent, bit for bit."""
    return (got.status == want.status and got.history == want.history
            and got.mdon_history == want.mdon_history
            and np.array_equal(got.G_final, want.G_final))


def test_refused_t_step_integral_is_a_refused_step(monkeypatch):
    # an energy integral that `donaldson` refuses refuses the T-step: the
    # descent runs from the untouched start form, as with the T-phase
    # capped, bit for bit
    _first_energy_reads(monkeypatch, RuntimeError("integral refused"))
    refused = _he_solve_shaped()
    assert refused.t_outcome == "rejected" and len(refused.t_changes) > 2
    monkeypatch.setattr(solver_mod, "donaldson", donaldson)
    _capped_t_phase(monkeypatch)
    ref = _he_solve_shaped()
    assert ref.status == "converged" and len(ref.history) > 2
    assert _same_solve(refused, ref)


def test_refused_trial_integral_is_halved(monkeypatch):
    # with the T-phase capped, the first energy integral is the first
    # line-search trial; refused, it is halved, and the solve converges
    _capped_t_phase(monkeypatch)
    _first_energy_reads(monkeypatch, RuntimeError("integral refused"))
    # a trial steps to E G E, E = expm(-a g); the start form's `rand_pd`
    # makes the first call
    exps = count_calls(monkeypatch, scipy.linalg, "expm")
    res = _he_solve_shaped()
    assert res.status == "converged" and res.t_outcome == "cap"
    assert np.array_equal(exps[2][0], 0.5 * exps[1][0])


def test_line_search_without_a_step_raises(monkeypatch):
    # a line search that no trial passes raises, naming the iteration and
    # the gradient norm, even when that norm is below 100 times the
    # gradient tolerance: every energy integral reads a rise of 1, so the
    # T-step is refused too and the first search runs at the start form
    spec, rule = BundleSpec((2, 2)), build_quadrature(12, 12)
    sb = basis(spec, 0)
    G = rand_pd(np.random.default_rng(1), sb.N, scale=0.3)
    g = _gradient(sb, G, node_sections(sb, rule))[0]
    gnorm = np.sqrt(float(np.real(np.trace(g @ g))))
    monkeypatch.setattr(solver_mod, "_GRAD_TOL", gnorm / 10)
    trials = []

    def rises(*args, **kwargs):
        trials.append(args)
        return 1.0

    monkeypatch.setattr(solver_mod, "donaldson", rises)
    want = f"line search failed at iteration 0 with gradient norm {gnorm:.3e};"
    with pytest.raises(RuntimeError, match=re.escape(want)):
        _he_solve_shaped()
    assert len(trials) == 1 + 40


@pytest.mark.parametrize("error", [RuntimeError, np.linalg.LinAlgError])
def test_broken_t_step_stalls_the_phase(monkeypatch, error):
    # a T-step that breaks down ends the phase as stalled, with the
    # changes of the steps before it; the descent runs from the untouched
    # start form, as with the T-phase capped, bit for bit
    whole = _he_solve_shaped()
    orig, calls = solver_mod._t_map, []

    def breaks_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise error("T-step broke down")
        return orig(*args)

    monkeypatch.setattr(solver_mod, "_t_map", breaks_third)
    broken = _he_solve_shaped()
    assert len(calls) == 3
    assert broken.t_outcome == "stalled" and broken.t_changes == whole.t_changes[:2]
    monkeypatch.setattr(solver_mod, "_t_map", orig)
    _capped_t_phase(monkeypatch)
    ref = _he_solve_shaped()
    assert ref.status == "converged" and len(ref.history) > 2
    assert _same_solve(broken, ref)


def _plain_t_phase(sb, G, sections):
    """Donaldson's T-map (`solver._t_map`) iterated plainly from the form
    G, with the T-phase's measure of a step's change and its stop: the
    last form and the change of every step."""
    W, changes = FSMetric(sb, G=G).W, []
    for _ in range(solver_mod._T_MAX_STEPS):
        G_new = solver_mod._t_map(W, sections)
        w, U = np.linalg.eigh(W.conj().T @ G_new @ W)
        changes.append(float(np.log(w[-1] / w[0])))
        if changes[-1] < solver_mod._T_TOL:
            return G_new, changes
        W = (W @ U) / np.sqrt(w)
    raise AssertionError(f"the plain T-map did not converge: {changes[-3:]}")


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("degs", [(3,), (1, 1)], ids=["O(3)", "O(1)+O(1)"])
def test_t_phase_contracts_by_the_berezin_factor(rule24, degs, k):
    # near the balanced metric each plain T-step shrinks the change by
    # d/(d+2), d = a + k: the first eigenvalue of the Berezin transform of
    # O(d), the rate that the T-phase's Chebyshev semi-iteration is tuned to
    spec = BundleSpec(degs)
    sb = basis(spec, k)
    G = rand_pd(np.random.default_rng(1), sb.N, scale=0.3)
    changes = _plain_t_phase(sb, G, node_sections(sb, rule24))[1]
    d = degs[0] + k
    assert changes[-1] / changes[-2] == pytest.approx(d / (d + 2), abs=1e-3)


@pytest.mark.parametrize("degs", [(3,), (1, 1)], ids=["O(3)", "O(1)+O(1)"])
def test_t_phase_steps_grow_slower_than_the_level(rule24, degs):
    # the plain T-map takes 112 steps on O(3) and 99 on O(1)+O(1) at
    # k = 10; the Chebyshev semi-iteration's rate 1 - O(1/sqrt(d)) takes
    # about a third of them
    spec = BundleSpec(degs)
    G = rand_pd(np.random.default_rng(1), basis(spec, 10).N, scale=0.3)
    res = minimize(spec, SolveOptions(k=10, max_iter=300), rule24, G_init=G)
    assert res.t_outcome == "converged"
    assert len(res.t_changes) <= 40
    assert res.he_residual_sup < 1e-3


@pytest.mark.parametrize("seed", [1, 2])
def test_t_phase_lands_on_the_plain_fixed_point_up_to_an_automorphism(seed):
    # on O(2)+O(2) the balanced metrics are one Aut(E) family, and the
    # accelerated iteration lands on another member than the plain map:
    # the forms differ, but FS(G_plain)^-1 FS(G_cheb) is one constant
    # endomorphism over the nodes
    spec, rule = BundleSpec((2, 2)), build_quadrature(12, 12)
    sb = basis(spec, 0)
    sections = node_sections(sb, rule)
    G = rand_pd(np.random.default_rng(seed), sb.N, scale=0.3)
    G_plain = _plain_t_phase(sb, G, sections)[0]
    G_cheb, _, outcome = solver_mod._balance(sb, G, sections)
    assert outcome == "converged"
    assert np.linalg.norm(G_cheb - G_plain) > 1e-4 * np.linalg.norm(G_plain)
    h_plain, h_cheb = (FSMetric(sb, G=X).evaluate(rule.charts, rule.coords)
                       for X in (G_plain, G_cheb))
    M = np.linalg.solve(h_plain, h_cheb)
    C = M.mean(axis=0)
    assert np.max(np.linalg.norm(M - C, axis=(1, 2))) <= 1e-7 * np.linalg.norm(C)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("degs", [(3,), (1, 1)], ids=["O(3)", "O(1)+O(1)"])
def test_minimize_converges_at_higher_levels(rule24, degs, k):
    # in each case the descent alone needs more than 300 iterations from
    # at least one of the two starts; the T-phase hands it the balanced
    # metric
    spec = BundleSpec(degs)
    for seed in (1, 2):
        G = rand_pd(np.random.default_rng(seed), basis(spec, k).N, scale=0.3)
        res = minimize(spec, SolveOptions(k=k, max_iter=300), rule24, G_init=G)
        assert res.status == "converged"
        assert res.he_residual_sup < 1e-3


def test_escape_ray_history_is_measured_to_the_crossing(monkeypatch):
    # the history's ray entries are the energies `mdon_along_ray` measured
    # along the solver's escape ray, added to the descent's last, down to
    # the first below the threshold and no further
    spec, rule = BundleSpec((1, -1)), build_quadrature(12, 12)
    calls = count_calls(monkeypatch, asymptotics_mod, "mdon_along_ray")
    res = minimize(spec, SolveOptions(k=2, max_iter=300), rule)
    assert res.status == "diverging" and len(calls) == 1
    t_grid = calls[0][1]
    vals = mdon_along_ray(escape_ray(spec, 2, rule), t_grid, rule)
    n = len(vals) - 1
    m0 = res.mdon_history[-n - 1]
    assert res.mdon_history[-n:] == list(m0 + vals[1:])
    assert res.mdon_history[-1] < solver_mod._DIVERGENCE_M <= res.mdon_history[-2]


def test_escape_ray_that_never_crosses_is_refused(monkeypatch):
    # the ray falls at slope -1.99 to -2.6e6 by the grid's end, t = 5 * 2^18
    monkeypatch.setattr(solver_mod, "_DIVERGENCE_M", -1e12)
    want = r"threshold -1e\+12: energy -2.6\d*e\+06 at t = 1.31072e\+06"
    with pytest.raises(RuntimeError, match=want):
        minimize(BundleSpec((1, -1)), SolveOptions(k=2, max_iter=300), build_quadrature(12, 12))


def test_stalled_t_phase_hands_back_the_start(monkeypatch):
    # on O(1)+O(-1) each T-step moves the summands' blocks apart by a
    # factor 2, so the change stays log 2 and the T-phase stalls; the
    # descent then runs from the untouched start form, as with the
    # T-phase capped, bit for bit, and escapes along criterion 9's
    # direction
    spec, rule = BundleSpec((1, -1)), build_quadrature(12, 12)
    res = minimize(spec, SolveOptions(k=2, max_iter=300), rule)
    assert res.t_outcome == "stalled"
    assert res.t_changes[-1] == pytest.approx(np.log(2.0), abs=1e-12)
    _capped_t_phase(monkeypatch)
    ref = minimize(spec, SolveOptions(k=2, max_iter=300), rule)
    assert ref.t_outcome == "cap" and ref.t_changes == []
    assert res.status == ref.status == "diverging"
    assert res.history == ref.history
    assert res.mdon_history == ref.mdon_history
    assert np.array_equal(res.zeta_limit, ref.zeta_limit)
    spectrum = np.linalg.eigvalsh(res.zeta_limit)
    assert np.allclose(spectrum, [-1, -1, 0, 0, 0.005614, 0.005614], rtol=0, atol=5e-7)


def test_solve_stops_at_max_iter_with_a_normalized_form():
    # on O(1)+O(-1) the T-phase stalls and the descent needs far more than
    # two iterations, so the loop runs out; its last step leaves the form
    # normalized all the same: the least eigenvalue of FS(G_final)
    # relative to the standard metric has node minimum 1
    spec, rule = BundleSpec((1, -1)), build_quadrature(12, 12)
    res = minimize(spec, SolveOptions(k=2, max_iter=2), rule)
    assert res.status == "maxiter" and len(res.history) == 2
    a = FSMetric(res.sb, G=res.G_final).evaluate(rule.charts, rule.coords)
    b = trivial_metric(res.sb).evaluate(rule.charts, rule.coords)
    least = min(scipy.linalg.eigh(x, y, eigvals_only=True)[0] for x, y in zip(a, b))
    assert least == pytest.approx(1.0, abs=1e-12)


def test_line_search_backtracks_from_a_long_first_step(monkeypatch):
    # with the T-phase capped and a first step of 8, some trial raises the
    # energy by more than 1e-10 and is halved: the solve takes more energy
    # integrals than it takes steps, and still converges
    _capped_t_phase(monkeypatch)
    monkeypatch.setattr(solver_mod, "_STEP0", 8.0)
    trials = count_calls(monkeypatch, donaldson_mod, "donaldson")
    res = _he_solve_shaped()
    assert res.status == "converged"
    assert len(trials) > len(res.mdon_history) - 1


def test_gradient_from_shared_sections_has_fresh_bits(rule16):
    # sections shared by the gradients and the line-search paths of a
    # solve give each gradient the bits of sections formed for it alone,
    # and FS(G) and the defect the bits of the evaluator's own sections
    sb = basis(BundleSpec((2, 1, 0)), 1)
    rng = np.random.default_rng(7)
    shared = node_sections(sb, rule16)
    for _ in range(3):
        G = rand_pd(rng, sb.N, scale=0.3)
        BergmanPath(sb, G, rand_pd(rng, sb.N, scale=0.3), shared).deriv_integrand(0.5)
        state = solver_mod._fs_state(sb, G, shared)
        got = mdon_gradient(sb, state, shared)
        fresh = _gradient(sb, G, node_sections(sb, rule16))
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
        values = _fs_values(state[1], rule16.coords, sb.k)
        assert np.array_equal(values, FSMetric(sb, G=G).evaluate(rule16.charts, rule16.coords))
        assert got[1] == _fs_defect_sup(sb, G, rule16)
