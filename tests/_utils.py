"""Shared helpers for the test suite."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

import hebundle
from hebundle.asymptotics import OnePSRay
from hebundle.bundle import regularity
from hebundle.geometry import canonical_points
from hebundle.sections import basis, trivial_metric
from hebundle.solver import SolveOptions, minimize


def rand_pd(rng, n: int, scale: float = 0.25) -> np.ndarray:
    """Random hermitian positive-definite matrix e^{scale * sym(X)}."""
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scipy.linalg.expm(scale * 0.5 * (X + X.conj().T))


def run_at_blas_threads(threads: str, *args) -> str:
    """Stdout of a fresh interpreter given `args`, with hebundle and these
    helpers on its path and its BLAS capped at `threads` threads.  numpy
    reads the cap once, at import, so it is set before the interpreter
    starts."""
    paths = [Path(hebundle.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(map(str, paths))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=600, check=True
    ).stdout


def standard_metric(spec):
    """The standard metric diag((1+|z|^2)^(-a_i)) of `spec`, as the FS
    metric of the binomial form at the least level (`trivial_metric`)."""
    return trivial_metric(basis(spec, regularity(spec)))


def escape_ray(spec, k: int, rule) -> OnePSRay:
    """The escape ray that `minimize` freezes on the unstable `spec` at
    level k on `rule`, and measures to the divergence threshold
    (`solver._extend_along_ray`): from the solve's last form along its
    escape direction."""
    res = minimize(spec, SolveOptions(k=k, max_iter=300), rule)
    assert res.status == "diverging"
    return OnePSRay(res.sb, res.G_final, res.zeta_limit)


def count_calls(monkeypatch, home, name):
    """Replace `home.name`, a function of a module or a method of an
    object, by a counting wrapper there and in every hebundle module
    namespace that binds it, and return the list that each call appends
    its positional arguments to."""
    orig, calls = getattr(home, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(home, name, counted)
    for info in pkgutil.iter_modules(hebundle.__path__):
        mod = importlib.import_module(f"hebundle.{info.name}")
        for key, val in list(vars(mod).items()):
            if val is orig:
                monkeypatch.setattr(mod, key, counted)
    return calls


def at(h, z):
    """Value of a batched metric evaluator at the canonical point of the
    chart-Z coordinate z, in a one-point call."""
    return h.evaluate(*canonical_points([z]))[0]


def transition_matrix(spec, z: complex) -> np.ndarray:
    """Frame change diag(z^{a_i}) from chart Z to chart W components."""
    return np.diag([complex(z) ** a for a in spec.degrees])


class ExplicitMetric:
    """Metric given by an explicit function (chart, coord) -> matrix,
    chart True where chart Z, called once per point."""

    def __init__(self, bundle, fn):
        self.bundle = bundle
        self.fn = fn

    def evaluate(self, charts, coords) -> np.ndarray:
        r = self.bundle.rank
        out = np.empty((len(coords), r, r), dtype=complex)
        for i, (cz, x) in enumerate(zip(charts, coords)):
            m = self.fn(bool(cz), complex(x))
            out[i] = np.asarray(m, dtype=complex).reshape((r, r))
        return out
