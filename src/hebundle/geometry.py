"""The Riemann sphere with its degree-1 polarization.

Two charts Z and W with w = 1/z.  The Kahler form is
(i/2pi) dd-bar log(1 + |z|^2) in each chart, normalized to total mass
1, so the contraction of the form itself is identically 1.
Quadrature is a product rule: Gauss-Legendre in the colatitude-like
variable u = |z|^2/(1+|z|^2), uniform in angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHART_Z = "Z"
CHART_W = "W"


@dataclass(frozen=True)
class SpherePoint:
    """A point of the sphere, held in one of the two charts.

    Canonical representation keeps |coord| <= 1 (ties go to chart Z);
    non-canonical points are allowed as scratch values for finite
    differencing near the chart boundary.
    """

    chart: str
    coord: complex

    def __post_init__(self):
        if self.chart not in (CHART_Z, CHART_W):
            raise ValueError(f"unknown chart {self.chart!r}")
        if not np.isfinite(self.coord):
            raise ValueError("non-finite chart coordinate")


def sphere_point(z: complex) -> SpherePoint:
    """Canonical point from a chart-Z coordinate (may be inf)."""
    z = complex(z)
    if abs(z) <= 1.0:
        return SpherePoint(CHART_Z, z)
    return SpherePoint(CHART_W, 1.0 / z)


def point_arrays(points):
    """(charts, coords) arrays of a sequence of points, as taken by the
    metric evaluators: charts is True where chart Z."""
    charts = np.array([p.chart == CHART_Z for p in points], dtype=bool)
    coords = np.array([p.coord for p in points], dtype=complex)
    return charts, coords


def contract_batch(form_coeff: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Contract (1,1)-coefficients against the area form at every node.

    `form_coeff` holds the coefficients g of (i/2pi) g dz^dz-bar in each
    node's chart, with the node axis, matching `coords`, just before the
    two matrix axes; returns g * (1+|coord|^2)^2, so the area form itself
    contracts to 1."""
    return form_coeff * ((1.0 + np.abs(coords) ** 2) ** 2)[:, None, None]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes as flat arrays: chart coordinates, charts (True where chart
    Z) and weights."""

    coords: np.ndarray
    charts: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n(self) -> int:
        return len(self.coords)


def build_quadrature(n_colat: int, n_angle: int) -> QuadratureRule:
    """Product quadrature with total mass 1.

    Gauss-Legendre with n_colat points in u = |z|^2/(1+|z|^2) on [0,1],
    uniform (trapezoid on the periodic circle) with n_angle points in the
    angle.  In these variables the area form is du dtheta / 2pi, so the
    weights are gl_weight / n_angle.  Each node is held canonically, as
    `sphere_point` holds it.
    """
    if n_colat < 4 or n_angle < 4:
        raise ValueError("need n_colat >= 4 and n_angle >= 4")
    u, wu = gauss_legendre01(n_colat)
    theta = 2.0 * np.pi * np.arange(n_angle) / n_angle
    r = np.sqrt(u / (1.0 - u))
    z = (r[:, None] * np.exp(1j * theta)).reshape(-1)
    # hypot rounds as the scalar abs(z) does; np.abs can differ in the last bit
    charts = np.hypot(z.real, z.imag) <= 1.0
    # the scalar complex reciprocal of sphere_point: numpy's 1/z can differ
    # from it in the last bit
    z[~charts] = [1.0 / x for x in z[~charts].tolist()]
    return QuadratureRule(coords=z, charts=charts, weights=np.repeat(wu / n_angle, n_angle))


def gauss_legendre01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def tree_sum(values: np.ndarray):
    """Deterministic pairwise-tree reduction along axis 0."""
    a = np.asarray(values)
    while a.shape[0] > 1:
        m = a.shape[0] // 2
        head = a[: 2 * m : 2] + a[1 : 2 * m : 2]
        if a.shape[0] % 2:
            a = np.concatenate([head, a[-1:]], axis=0)
        else:
            a = head
    return a[0]


def integrate_values(values: np.ndarray, rule: QuadratureRule):
    """Integrate node values (axis 0 = nodes) against the area form, by a
    deterministic tree reduction."""
    values = np.asarray(values)
    if values.shape[0] != rule.n:
        raise ValueError("value array does not match rule size")
    if not np.all(np.isfinite(values)):
        raise RuntimeError("non-finite integrand value")
    w = rule.weights.reshape((-1,) + (1,) * (values.ndim - 1))
    return tree_sum(values * w)
