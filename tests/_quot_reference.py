"""Reference saturation and drop-degree routines in sympy Expr arithmetic.

Bivariate binary forms in x0, x1, `Matrix.subs` for the generic rank,
`Matrix.det` for every minor and bivariate `Poly` gcds over QQ_I.  Slow,
but independent of the package's dehomogenised QQ_I[x] engine, so the
oracle test in test_quot.py compares the two for exact equality.
"""

import itertools

import sympy as sp

from hebundle.quot import _to_gaussian

X0, X1 = sp.symbols("x0 x1")


def forms(sb, vectors) -> sp.Matrix:
    """r x m matrix of homogeneous forms: basis entry (i, j) is
    x0^(a_i + k - j) x1^j in row i."""
    a, k, r = sb.bundle.degrees, sb.k, sb.bundle.rank
    cols = []
    for v in vectors:
        col = [sp.Integer(0)] * r
        for c, (i, j) in zip((_to_gaussian(c) for c in v), sb.entries):
            if c != 0:
                col[i] = col[i] + c * X0 ** (a[i] + k - j) * X1**j
        cols.append(col)
    return sp.Matrix(r, len(cols), lambda i, j: cols[j][i]) if cols else sp.zeros(r, 0)


def _generic_rank(m: sp.Matrix, max_deg: int) -> int:
    if m.cols == 0 or m.rows == 0:
        return 0
    best = 0
    for t in range(max_deg + 1):
        best = max(best, m.subs({X0: 1, X1: sp.Integer(t)}).rank())
        if best == min(m.rows, m.cols):
            break
    return best


def _gcd_degree(minors) -> int:
    g = minors[0]
    for p in minors[1:]:
        g = g.gcd(p)
    return g.total_degree()


def saturate_rank_degree(mat: sp.Matrix, bundle, k: int):
    max_deg = sum(d + k for d in bundle.degrees)
    rho = _generic_rank(mat, max_deg)
    if rho == 0:
        return 0, 0
    for attempt in range(64):
        mix = sp.Matrix(
            mat.cols, rho, lambda i, j: ((3 * i + 5 * j + 7 * attempt) % 11) + (i == j)
        )
        mixed = mat * mix
        if _generic_rank(mixed, max_deg) == rho:
            break
    minors = []
    for rows in itertools.combinations(range(bundle.rank), rho):
        d = sp.expand(mixed[list(rows), :].det())
        if d != 0:
            minors.append(sp.Poly(d, X0, X1, domain="QQ_I"))
    return rho, -rho * k + _gcd_degree(minors)


def evaluation_drop_degree(mat: sp.Matrix, bundle, k: int) -> int:
    rho = _generic_rank(mat, sum(d + k for d in bundle.degrees))
    if rho == 0:
        return 0
    minors = []
    for rows in itertools.combinations(range(mat.rows), rho):
        for cols in itertools.combinations(range(mat.cols), rho):
            d = sp.expand(mat[list(rows), list(cols)].det())
            if d != 0:
                minors.append(sp.Poly(d, X0, X1, domain="QQ_I"))
    return _gcd_degree(minors)
