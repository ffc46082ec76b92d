"""Energy minimization: gradient correctness, convergence, divergence."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _utils import rand_pd
from hebundle.bundle import BundleSpec, he_residual, trivial_metric
from hebundle.sections import FSMetric, basis, l2_gram
from hebundle.solver import (
    SolveOptions,
    _fd_directional,
    destabilizer_extract,
    mdon_gradient,
    minimize,
)


def test_gradient_matches_finite_differences(rule24):
    spec = BundleSpec((1, -1))
    sb = basis(spec, 1)
    rng = np.random.default_rng(5)
    G = rand_pd(rng, sb.N, scale=0.3)
    g = mdon_gradient(sb, G, rule24)
    X = rng.normal(size=(sb.N, sb.N)) + 1j * rng.normal(size=(sb.N, sb.N))
    dz = 0.5 * (X + X.conj().T)
    dz = dz - (np.trace(dz).real / sb.N) * np.eye(sb.N)
    pred = float(np.real(np.trace(g @ dz)))
    fd = _fd_directional(sb, G, rule24, dz)
    assert pred == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_gradient_vanishes_at_critical_point(rule24):
    # the flat metric on O(0) is Hermitian-Einstein and balanced, so
    # its L2 form is a critical point of the energy
    spec = BundleSpec((0,))
    sb = basis(spec, 3)
    G = l2_gram(sb, trivial_metric(spec), rule24).matrix
    g = mdon_gradient(sb, G, rule24)
    assert np.linalg.norm(g) < 1e-10


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(k=2, grad_tol=0.0)
    with pytest.raises(ValueError):
        minimize(
            BundleSpec((1, -1)),
            SolveOptions(k=0),
            rule=None,
        )


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
    rep = destabilizer_extract(res, spec, 2)
    # the recovered filtration starts with the destabilizing O(1)
    assert rep.levels[0][1] == 1
    assert rep.levels[0][3] == Fraction(1)
    assert rep.mna < 0


def test_destabilizer_requires_divergence(rule24):
    spec = BundleSpec((3,))
    res = minimize(spec, SolveOptions(k=3), rule24)
    with pytest.raises(ValueError):
        destabilizer_extract(res, spec, 3)


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
    assert he_residual(FSMetric(sb, G=res.G_final), rule24)["sup"] < 1e-3


_SOLVE_HASH = """
import hashlib, sys
import numpy as np
from _utils import rand_pd
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
    import hebundle

    src = str(Path(hebundle.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, tests])
        proc = subprocess.run(
            [sys.executable, "-c", _SOLVE_HASH],
            env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        outs.append(proc.stdout.split())
    assert len(outs[0]) == 4
    assert outs[0] == outs[1]
