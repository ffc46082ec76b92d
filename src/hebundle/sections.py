"""Global sections of twisted split bundles and Fubini-Study metrics.

H0(E(k)) has the monomial basis z^j on the degree-(a_i+k) summand,
0 <= j <= a_i+k, ordered summand-major with ascending exponent.  A
positive hermitian form G on that space induces a bundle metric
h(p) = e^{k phi(p)} (S(p) G^-1 S(p)*)^-1 where S(p) is the section
evaluation matrix in p's chart frame and phi the Kahler potential, read
through `geometry`'s `e_phi`, `dphi` and `area_coeff`; its curvature is
closed-form.  The standard metric is one of them, at every level
(`trivial_metric`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import (BundleSpec, _equilibrated_inverse, _hermitize, _mat_mul, _node_sup_norm,
                     regularity)
from .geometry import QuadratureRule, area_coeff, contract_batch, dphi, e_phi


@dataclass(frozen=True)
class SectionBasis:
    bundle: BundleSpec
    k: int
    entries: tuple  # (summand index, exponent)

    @property
    def N(self) -> int:
        return len(self.entries)


def basis(spec: BundleSpec, k: int) -> SectionBasis:
    reg = regularity(spec)
    if k < reg:
        raise ValueError(f"level k={k} below the minimum level {reg} for this bundle")
    entries = tuple(
        (i, j) for i, a in enumerate(spec.degrees) for j in range(a + k + 1)
    )
    return SectionBasis(bundle=spec, k=int(k), entries=entries)


def _exponents(sb: SectionBasis, charts: np.ndarray):
    """The row of each basis section's one nonzero entry, shape (N,), and
    its exponent at every point, shape (n, N): chart Z places x^j in row
    i, chart W places x^{a_i+k-j}."""
    rows, ez = np.array(sb.entries).reshape(-1, 2).T
    ew = np.array(sb.bundle.degrees)[rows] + sb.k - ez
    return rows, np.where(np.asarray(charts, dtype=bool)[:, None], ez, ew)


def _section_values(sb: SectionBasis, charts: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Section values S at many points, (n, r, N) in each point's own
    chart frame: column c holds one monomial, in the row and of the
    exponent given by `_exponents`."""
    x, (rows, e) = np.asarray(coords, dtype=complex)[:, None], _exponents(sb, charts)
    S = np.zeros((len(x), sb.bundle.rank, sb.N), dtype=complex)
    S[:, rows, np.arange(sb.N)] = x**e
    return S


def eval_matrix_batch(sb: SectionBasis, charts: np.ndarray, coords: np.ndarray):
    """Section values (`_section_values`) and their first coordinate
    derivatives at many points, (S, S1) of shape (n, r, N) each."""
    x, (rows, e) = np.asarray(coords, dtype=complex)[:, None], _exponents(sb, charts)
    S1 = np.zeros((len(x), sb.bundle.rank, sb.N), dtype=complex)
    S1[:, rows, np.arange(sb.N)] = e * x ** np.maximum(e - 1, 0)  # 0 where e = 0
    return _section_values(sb, charts, coords), S1


def node_sections(sb: SectionBasis, rule: QuadratureRule):
    """The rule, with S and S' on its nodes (`eval_matrix_batch`) and the
    row of each section's one nonzero entry with its values there, (n, N),
    for `_section_pairing`; a solve forms them once (`solver.minimize`),
    and whoever takes them integrates on this rule and no other."""
    S, S1 = eval_matrix_batch(sb, rule.charts, rule.coords)
    rows = _exponents(sb, rule.charts)[0]
    return rule, S, S1, rows, S[:, rows, np.arange(sb.N)]


def _section_pairing(rule: QuadratureRule, X: np.ndarray, density, rows, s):
    """Hermitian part of the integral of S* X S density, for X an
    (n, r, r) field and `density` a scalar or a value per node of the
    rule.  Column c of S has one nonzero, the monomial s[:, c], in row
    rows[c] (`node_sections`), so entry (c, d) integrates
    conj(s_c) X[rows[c], rows[d]] s_d density, with no dense
    contraction.  The weights and the density are folded into conj(s_c),
    and the rows of each summand are one product over the node axis,
    (N_i x n) by (n x N), whose bits are the same at 1 and 2 BLAS
    threads on products OpenBLAS runs on one thread and on two
    (`tests/test_sections.py`).  RuntimeError on a non-finite value.
    """
    ws = (s * (rule.weights * density)[:, None]).conj()
    xs = X[:, :, rows] * s[:, None, :]  # X S, (n, r, N)
    g = np.concatenate([ws[:, rows == i].T @ xs[:, i] for i in range(X.shape[-1])])
    if not np.all(np.isfinite(g)):
        raise RuntimeError("non-finite integrand value")
    return _hermitize(g)


def l2_gram(sb: SectionBasis, h, rule: QuadratureRule) -> np.ndarray:
    """Hermitian L2 form of the basis sections against h and the level-k
    line weight e^{-k phi} (`_section_pairing`); RuntimeError when the
    rule leaves it degenerate."""
    S = _section_values(sb, rule.charts, rule.coords)
    return _l2_form(sb, rule, h.evaluate(rule.charts, rule.coords), S)


def _l2_form(sb: SectionBasis, rule: QuadratureRule, hv: np.ndarray, S: np.ndarray) -> np.ndarray:
    """`l2_gram` from the metric values hv and the section values S on
    the rule's nodes."""
    density = e_phi(rule.coords) ** (-sb.k)
    rows = _exponents(sb, rule.charts)[0]
    g = _section_pairing(rule, hv, density, rows, S[:, rows, np.arange(sb.N)])
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("degenerate L2 form; refine the quadrature rule") from exc
    return g


def _section_factor(S, W):
    """S @ W for a stack S of (r, N) section matrices, as one (n r x N)
    product with W, far faster than n small ones.  A single row gets a
    zero partner: numpy sends a one-row product to gemv, which rounds
    apart from gemm, and a one-point value must equal its row of an
    n-point call."""
    rows = S.reshape(-1, S.shape[-1])
    pad = len(rows) == 1
    if pad:
        rows = np.concatenate([rows, np.zeros_like(rows)])
    return (rows @ W)[: len(rows) - pad].reshape(S.shape[:-1] + W.shape[-1:])


def _fs_moments(*T):
    """A = T T* over any leading batch axes, entry by entry, as a
    1-tuple; given T and T', (A, A', A'') with A' = T' T* and
    A'' = T' T'*.

    In an (r, N, batch) layout each entry is (t[i] * t[j].conj()).sum(0),
    which numpy sums over N one row after another, so a matrix gets the
    same bits whatever the batch shape, and A the same bits with or
    without T'.  numpy would sum a lone column pairwise, so a single
    matrix gets a zero partner.  A and A'' are hermitian: their lower
    triangles are the conjugated upper ones.
    """
    lead, (r, N), n = T[0].shape[:-2], T[0].shape[-2:], T[0][..., 0, 0].size
    t = [np.moveaxis(M.reshape(n, r, N), 0, -1) for M in T]
    if n == 1:
        t = [np.concatenate([x, np.zeros_like(x)], axis=-1) for x in t]
    t = [np.ascontiguousarray(x) for x in t]
    pairs = ((0, 0), (1, 0), (1, 1))[: 2 * len(t) - 1]  # (a, b): T_a T_b*
    out = np.empty((len(pairs), r, r, t[0].shape[-1]), dtype=complex)
    for j in reversed(range(r)):  # right to left: for i > j, out[:, j, i] is summed
        tc = [x[j].conj() for x in t]
        for p, (a, b) in enumerate(pairs):
            for i in range(r):
                herm = a == b and i > j
                out[p, i, j] = out[p, j, i].conj() if herm else (t[a][i] * tc[b]).sum(0)
    shape = (len(pairs),) + lead + (r, r)
    return tuple(np.moveaxis(out[..., :n], (1, 2), (-2, -1)).reshape(shape))


def _fs_curvature(A1, A11, Ainv, coords, k: int) -> np.ndarray:
    """Closed-form curvature coefficient of (i/2pi) dz^dz-bar of the FS
    metric with moments A' = T' T*, A'' = T' T'* and Ainv = (T T*)^-1 of
    the section factor T = S W, over any leading batch axes ending in the
    node axis of `coords`."""
    r = A1.shape[-1]
    A1c = np.swapaxes(A1, -1, -2).conj()
    term = _mat_mul(A11 - _mat_mul(_mat_mul(A1, Ainv), A1c), Ainv)
    return term - k * area_coeff(coords)[:, None, None] * np.eye(r)


def _fs_values(Ainv, coords, k: int) -> np.ndarray:
    """FS metric values h = e^{k phi} A^-1 at the nodes `coords`, from the
    inverse moments Ainv = (T T*)^-1 of the section factor T = S W."""
    ekphi = e_phi(coords) ** k
    return _hermitize(Ainv * ekphi[:, None, None])


class FSMetric:
    """Metric induced by a positive form on the level-k section space.

    Stored through an inverse-form factor W with G^-1 = W W*, which
    stays usable even when G itself is extremely ill-conditioned.
    """

    def __init__(self, sb: SectionBasis, G=None, ginv_factor: np.ndarray | None = None):
        self.bundle = sb.bundle
        self.sb = sb
        if ginv_factor is not None:
            self.W = np.asarray(ginv_factor, dtype=complex)
            self._G = None
        else:
            g = np.asarray(G, dtype=complex)
            L = np.linalg.cholesky(_hermitize(g))
            # G^-1 = L^-* L^-1, so W = L^-*
            self.W = np.linalg.inv(L).conj().T
            self._G = g

    @property
    def G(self) -> np.ndarray:
        if self._G is None:
            self._G = np.linalg.inv(self.W @ self.W.conj().T)
        return self._G

    @property
    def Ginv(self) -> np.ndarray:
        return self.W @ self.W.conj().T

    def _core(self, charts, coords):
        """Per-node S and the `_moments` of the sections at the points,
        A itself left out."""
        S, S1 = eval_matrix_batch(self.sb, charts, coords)
        return (S,) + self._moments(S, S1)[1:]

    def _moments(self, S, S1):
        """The moments A = T T*, A' = T' T* and A'' = T' T'* of T = S W,
        and the equilibrated inverse of A, from given section values."""
        A, A1, A11 = _fs_moments(_section_factor(S, self.W), _section_factor(S1, self.W))
        return A, A1, A11, _equilibrated_inverse(A)

    def evaluate(self, charts, coords) -> np.ndarray:
        """Metric values from S and A = T T* alone, in the bits of `_core`'s."""
        coords = np.asarray(coords, dtype=complex)
        T = _section_factor(_section_values(self.sb, charts, coords), self.W)
        return _fs_values(_equilibrated_inverse(_fs_moments(T)[0]), coords, self.sb.k)

    # -- closed-form differential data --------------------------------
    def evaluate_with_curvature(self, charts, coords):
        coords = np.asarray(coords, dtype=complex)
        _, A1, A11, Ainv = self._core(charts, coords)
        lam = contract_batch(self._curvature(A1, A11, Ainv, coords), coords)
        return _fs_values(Ainv, coords, self.sb.k), lam

    def curvature_coeff(self, charts, coords) -> np.ndarray:
        """Coefficients of (i/2pi) dz^dz-bar of the curvature, (n, r, r)."""
        coords = np.asarray(coords, dtype=complex)
        _, A1, A11, Ainv = self._core(charts, coords)
        return self._curvature(A1, A11, Ainv, coords)

    def _curvature(self, A1, A11, Ainv, coords) -> np.ndarray:
        """Curvature coefficient from the moments of `_core`, batched."""
        return _fs_curvature(A1, A11, Ainv, coords, self.sb.k)

    def connection_coeff(self, charts, coords) -> np.ndarray:
        """Chern connection coefficients a = h^-1 dh/dx in each point's
        chart, (n, r, r)."""
        coords = np.asarray(coords, dtype=complex)
        _, A1, _, Ainv = self._core(charts, coords)
        eye = np.eye(self.bundle.rank)
        return self.sb.k * dphi(coords)[:, None, None] * eye - _mat_mul(A1, Ainv)


def trivial_metric(sb: SectionBasis) -> FSMetric:
    """The standard metric diag((1+|z|^2)^(-a_i)), whose two charts glue:
    the FS metric of the binomial form diag(1/C(a_i+k, j)) at the level k
    of `sb`, as summand i then has S G^-1 S* = (1+|z|^2)^(a_i+k)."""
    degs = sb.bundle.degrees
    return FSMetric(sb, G=np.diag([1.0 / math.comb(degs[i] + sb.k, j) for i, j in sb.entries]))


def _bergman_raw(hv, S, sb: SectionBasis, G: np.ndarray, rule: QuadratureRule):
    """raw(p) = h(p) fs(p)^-1 at every node, from the values hv of h and
    S of the sections there, for fs the FS metric of the form G:
    fs^-1 = e^{-k phi} T T* with T = S W its section factor.  T T* stays
    a stacked numpy product: an entrywise one copies T's conjugate and
    costs the `bergman` command memory with no gain in time.

    In the convention of the contracted curvature, whose endomorphisms are
    X h with X hermitian (`bundle._he_defect`), the kernel is the adjoint
    raw* = fs^-1 h; `bergman_kernel`'s sup_dev reads the same in either,
    since the pointwise 2-norm is adjoint-invariant."""
    T = _section_factor(S, FSMetric(sb, G=G).W)
    wphi = e_phi(rule.coords) ** (-sb.k)
    fs_inv = (T @ np.swapaxes(T, -1, -2).conj()) * wphi[:, None, None]
    return _mat_mul(hv, fs_inv)


def bergman_kernel(h: FSMetric, k_list, rule: QuadratureRule) -> list:
    """Kernel endomorphism comparing h with the FS metric of its L2 form,
    one report per level of `k_list`.

    The raw kernel (`_bergman_raw`) times r * Vol / N tends to the
    identity as k grows.  The node sup of the pointwise 2-norm of
    tilde - Id is `bundle._node_sup_norm`, the Einstein defect's sup.  h
    is evaluated on the nodes once; each level's L2 form and raw kernel
    share that evaluation and the level's sections.
    """
    hv, r = h.evaluate(rule.charts, rule.coords), h.bundle.rank
    reps = []
    for k in k_list:
        sb = basis(h.bundle, k)
        S = _section_values(sb, rule.charts, rule.coords)
        G = _l2_form(sb, rule, hv, S)
        tilde = (r * 1.0 / sb.N) * _bergman_raw(hv, S, sb, G, rule)  # volume is 1
        # raw = (N / r) tilde, so one 2-norm gives both sups
        sup_dev = _node_sup_norm(tilde - np.eye(r))
        reps.append({"sup_dev": sup_dev, "raw_sup_dev": (sb.N / r) * sup_dev, "N": sb.N, "gram": G})
    return reps
