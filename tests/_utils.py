"""Shared helpers for the test suite."""

import numpy as np
import scipy.linalg


def rand_pd(rng, n: int, scale: float = 0.25) -> np.ndarray:
    """Random hermitian positive-definite matrix e^{scale * sym(X)}."""
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scipy.linalg.expm(scale * 0.5 * (X + X.conj().T))


def at(h, p):
    """Value of a batched metric evaluator at one SpherePoint."""
    from hebundle.geometry import point_arrays

    return h.evaluate(*point_arrays([p]))[0]
