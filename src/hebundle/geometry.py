"""The Riemann sphere with its degree-1 polarization.

Two charts Z and W with w = 1/z.  The Kahler form is (i/2pi) dd-bar phi,
phi = log(1 + |z|^2) in each chart, of total mass 1, so its contraction
is identically 1; the package reads phi only through `e_phi`, `dphi`,
`area_coeff` and `contraction`, functions of chart coordinates.
Quadrature is a product rule: Gauss-Legendre in the colatitude-like
variable u = |z|^2/(1+|z|^2), uniform in angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def canonical_points(z):
    """(charts, coords) arrays of the points with chart-Z coordinates z
    (inf allowed), held canonically: chart Z where |z| <= 1, ties
    included, otherwise chart W with coordinate 1/z.  charts is True
    where chart Z; ValueError on a non-finite coordinate."""
    coords = np.array(z, dtype=complex, ndmin=1)
    # hypot rounds as the scalar abs(z) does; np.abs can differ in the last bit
    charts = np.hypot(coords.real, coords.imag) <= 1.0
    # the scalar complex reciprocal; numpy's 1/z can differ in the last bit
    coords[~charts] = [1.0 / x for x in coords[~charts].tolist()]
    if not np.all(np.isfinite(coords)):
        raise ValueError("non-finite chart coordinate")
    return charts, coords


def e_phi(z):
    """e^phi = 1 + |z|^2 at chart coordinates z; e^{-k phi} is the level-k line weight."""
    return 1.0 + np.abs(z) ** 2


def dphi(z):
    """d phi/dz = z-bar e^{-phi} at chart coordinates z."""
    return np.conj(z) / e_phi(z)


def area_coeff(z):
    """The Kahler form's coefficient e^{-2 phi} = d dbar phi of (i/2pi) dz^dz-bar."""
    return e_phi(z) ** (-2.0)


def contraction(z):
    """e^{2 phi}, which contracts a (1,1)-coefficient against the Kahler form."""
    return e_phi(z) ** 2


def contract_batch(form_coeff: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Contract (1,1)-coefficients against the area form at every node.

    `form_coeff` holds the coefficients g of (i/2pi) g dz^dz-bar in each
    node's chart, with the node axis, matching `coords`, just before the
    two matrix axes; returns g * `contraction`, so the area form itself
    contracts to 1."""
    return form_coeff * contraction(coords)[:, None, None]


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
    weights are gl_weight / n_angle.  Each node is held canonically
    (`canonical_points`).
    """
    if n_colat < 4 or n_angle < 4:
        raise ValueError("need n_colat >= 4 and n_angle >= 4")
    u, wu = gauss_legendre01(n_colat)
    theta = 2.0 * np.pi * np.arange(n_angle) / n_angle
    r = np.sqrt(u / (1.0 - u))
    charts, coords = canonical_points((r[:, None] * np.exp(1j * theta)).reshape(-1))
    return QuadratureRule(coords=coords, charts=charts, weights=np.repeat(wu / n_angle, n_angle))


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
