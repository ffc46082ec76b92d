"""The Riemann sphere with its degree-1 polarization.

Two charts Z and W with w = 1/z.  The Kahler potential is
phi(z) = log(1 + |z|^2) in each chart, normalized so the associated
(1,1)-form has total mass 1 and the contraction of the form itself is
identically 1.  Quadrature is a product rule: Gauss-Legendre in the
colatitude-like variable u = |z|^2/(1+|z|^2), uniform in angle.
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


def other_chart(p: SpherePoint) -> SpherePoint:
    """Same point represented in the opposite chart (coord must be nonzero)."""
    if p.coord == 0:
        raise ValueError("coordinate 0 has no representation in the other chart")
    return SpherePoint(CHART_W if p.chart == CHART_Z else CHART_Z, 1.0 / p.coord)


class KahlerData:
    """Potential and normalization data of the round polarized metric."""

    volume = 1.0

    @staticmethod
    def potential(p: SpherePoint) -> float:
        return float(np.log1p(abs(p.coord) ** 2))


def potential(p: SpherePoint) -> float:
    return KahlerData.potential(p)


def omega_coefficient(p: SpherePoint) -> float:
    """Coefficient g of the area form (i/2pi) g dz dz-bar in p's chart."""
    return 1.0 / (1.0 + abs(p.coord) ** 2) ** 2


def contract(form_coeff, p: SpherePoint):
    """Contract a (1,1)-coefficient against the area form.

    `form_coeff` is the coefficient g of (i/2pi) g dz^dz-bar in the
    point's chart (scalar or matrix); returns g * (1+|coord|^2)^2 so the
    area form itself contracts to 1.
    """
    s = (1.0 + abs(p.coord) ** 2) ** 2
    return form_coeff * s


def contract_batch(form_coeff: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """`contract` at every node: matrix coefficients whose node axis,
    matching `coords`, comes just before the two matrix axes."""
    return form_coeff * ((1.0 + np.abs(coords) ** 2) ** 2)[:, None, None]


@dataclass(frozen=True)
class QuadratureRule:
    nodes: tuple
    weights: np.ndarray
    # cached flat arrays for vectorized evaluation
    coords: np.ndarray
    charts: np.ndarray  # boolean, True where chart Z

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n(self) -> int:
        return len(self.nodes)


def build_quadrature(n_colat: int, n_angle: int) -> QuadratureRule:
    """Product quadrature with total mass 1.

    Gauss-Legendre with n_colat points in u = |z|^2/(1+|z|^2) on [0,1],
    uniform (trapezoid on the periodic circle) with n_angle points in the
    angle.  In these variables the area form is du dtheta / 2pi, so the
    weights are gl_weight / n_angle.
    """
    if n_colat < 4 or n_angle < 4:
        raise ValueError("need n_colat >= 4 and n_angle >= 4")
    x, wu = np.polynomial.legendre.leggauss(n_colat)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wu
    theta = 2.0 * np.pi * np.arange(n_angle) / n_angle
    r = np.sqrt(u / (1.0 - u))
    nodes = []
    coords = []
    charts = []
    weights = []
    for ri, wi in zip(r, wu):
        for th in theta:
            z = ri * np.exp(1j * th)
            p = sphere_point(z)
            nodes.append(p)
            coords.append(p.coord)
            charts.append(p.chart == CHART_Z)
            weights.append(wi / n_angle)
    return QuadratureRule(
        nodes=tuple(nodes),
        weights=np.array(weights),
        coords=np.array(coords, dtype=complex),
        charts=np.array(charts, dtype=bool),
    )


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


def integrate(f, rule: QuadratureRule):
    """Integrate a pointwise evaluator against the area form."""
    vals = []
    for p in rule.nodes:
        v = f(p)
        if not np.all(np.isfinite(v)):
            raise RuntimeError(f"non-finite integrand value at node {p}")
        vals.append(v)
    vals = np.array(vals)
    return tree_sum(vals * rule.weights.reshape((-1,) + (1,) * (vals.ndim - 1)))


def integrate_values(values: np.ndarray, rule: QuadratureRule):
    """Tree-reduce precomputed node values (axis 0 = nodes)."""
    values = np.asarray(values)
    if values.shape[0] != rule.n:
        raise ValueError("value array does not match rule size")
    w = rule.weights.reshape((-1,) + (1,) * (values.ndim - 1))
    return tree_sum(values * w)
