"""Exact sheaf arithmetic for split bundles on the projective line.

Rational weight decompositions of the section space at a twist level k,
the subsheaves generated by weight-truncated section families, their
saturations, and the two numerical invariants of a weight datum: the
non-Archimedean energy slope and the extremal weight gap.  All
arithmetic is exact and no floating point enters this module.  Each
vector is multiplied by the lcm of its denominators, real and imaginary
parts alike, and held over the integers ZZ when every coefficient is
real, else over the Gaussian integers ZZ_I.  A binary form of degree d
is held as its dehomogenisation f(1, x) in ZZ[x] or ZZ_I[x], of degree
at most d; matrices of forms are sympy DomainMatrix objects over that
ring.  Ranks come from fraction-free elimination (Bareiss) and gcds
from Euclid by pseudo-division (Collins' primitive remainders), so no
rational arithmetic runs on any datum.  Both only scale a vector by a
nonzero constant or add a multiple of one vector to another, so every
rank and gcd degree is the one over QQ or QQ_I.

A saturation's rank is the largest rank at the points (1, t),
t = 0, 1, ..., and its degree comes from the gcd of the maximal minors
of the pivot columns at the first point that reaches it.  The
evaluation drop degree is the degree of the gcd of all maximal minors.
Both gcds are read in the chart that puts (1, t) at infinity, after
Euclid's column reduction over the polynomial ring leaves as many
columns as the rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm

import sympy as sp
from sympy import QQ_I, ZZ, ZZ_I
from sympy.polys.densetools import dup_eval
from sympy.polys.matrices import DomainMatrix

from .bundle import BundleSpec
from .sections import SectionBasis, basis

# dehomogenised forms: x0 -> 1, x1 -> x; real data use ZZ[x] instead.
# Both rings are built once: after sympy's clear_cache a ring takes
# about 0.5 ms to build again
RING = ZZ_I[sp.Symbol("x")]
_RINGS = {ZZ: ZZ[RING.symbols], ZZ_I: RING}


def _to_gaussian(c):
    """Coerce a coefficient to an exact Gaussian-rational sympy scalar
    re + I*im."""
    e = sp.sympify(c)
    if isinstance(e, sp.Rational):
        return e
    if isinstance(e, sp.Expr):  # a bool, numpy's too, becomes a Boolean
        re, im = e.as_real_imag()
        if re.is_rational and im.is_rational:
            return re + sp.I * im
    raise ValueError(f"coefficient {c!r} is not a Gaussian rational")


def _smallest_domain(vecs):
    """Vectors of `_to_gaussian` scalars over the smallest domain that
    holds a nonzero multiple of each, and that domain: each vector times
    the lcm of its denominators, over ZZ when every scalar is rational
    (its imaginary part is zero), else over ZZ_I, where the lcm clears
    the real and the imaginary parts."""
    if all(c.is_Rational for v in vecs for c in v):
        lcms = [lcm(*(c.q for c in v)) for v in vecs]
        # ZZ.dtype, not ZZ(): 4x faster
        return [[ZZ.dtype(c.p * (m // c.q)) for c in v] for v, m in zip(vecs, lcms)], ZZ
    vecs = [[(c.x, c.y) for c in map(QQ_I.from_sympy, v)] for v in vecs]
    lcms = [lcm(*(q.denominator for c in v for q in c)) for v in vecs]
    # ZZ_I.dtype, not ZZ_I.convert_from(c * m): 20x faster
    return [
        [ZZ_I.dtype(*(q.numerator * (m // q.denominator) for q in c)) for c in v]
        for v, m in zip(vecs, lcms)
    ], ZZ_I


def _frac(w) -> Fraction:
    """An int, Fraction, sympy Rational or string such as "1/3" as a
    Fraction; ValueError for anything else, a float or a bool too
    (Fraction(0.1) is a binary fraction and Fraction(True) is 1)."""
    if isinstance(w, bool) or not isinstance(w, (int, Fraction, sp.Rational, str)):
        raise ValueError(f"{w!r} is not an exact rational")
    try:
        return Fraction(w)
    except ZeroDivisionError:  # "1/0"
        raise ValueError(f"{w!r} has a zero denominator") from None


@dataclass(frozen=True)
class WeightSpec:
    """Rational weight decomposition of the section space at level k.

    `blocks` is a list of (weight, vectors); weights strictly decrease,
    each vector holds exact Gaussian-rational coefficients in the
    section-basis ordering, and the vectors of all blocks together form
    a basis of the section space.
    """

    k: int
    blocks: tuple  # of (Fraction, tuple of coefficient tuples)

    def __post_init__(self):
        blocks = tuple(
            (_frac(w), tuple(tuple(_to_gaussian(c) for c in v) for v in vecs))
            for w, vecs in self.blocks
        )
        object.__setattr__(self, "blocks", blocks)
        ws = [w for w, _ in blocks]
        if not ws:
            raise ValueError("weight decomposition needs at least one block")
        if any(w1 <= w2 for w1, w2 in zip(ws, ws[1:])):
            raise ValueError("block weights must be strictly decreasing")

    @property
    def weights(self):
        return tuple(w for w, _ in self.blocks)

    @property
    def dimension(self) -> int:
        return sum(len(vecs) for _, vecs in self.blocks)

    def all_vectors(self):
        return [v for _, vecs in self.blocks for v in vecs]

    def validate_against(self, sb: SectionBasis) -> None:
        if self.k != sb.k:
            raise ValueError("weight decomposition level differs from basis level")
        vecs = self.all_vectors()
        if len(vecs) != sb.N or any(len(v) != sb.N for v in vecs):
            raise ValueError(
                f"weight decomposition has {self.dimension} vectors; the section "
                f"space needs {sb.N} vectors of {sb.N} coefficients"
            )
        rows, dom = _smallest_domain(vecs)
        if len(DomainMatrix(rows, (sb.N, sb.N), dom).rref_den(method="FF")[2]) != sb.N:
            raise ValueError("weight-block vectors are linearly dependent")


@dataclass(frozen=True)
class HomogeneousSectionMatrix:
    """Generators of a subsheaf, one column per section.

    Row i holds binary forms of degree d_i = (i-th summand degree) + k; a
    map from m copies of the k-fold negative line bundle into the bundle.
    `matrix` is an r x m DomainMatrix over ZZ[x] or ZZ_I[x] (RING)
    holding each form as f(1, x), of degree at most d_i.
    """

    bundle: BundleSpec
    k: int
    matrix: DomainMatrix

    def __post_init__(self):
        mat, degs = self.matrix, self.row_degrees
        if mat.shape[0] != self.bundle.rank:
            raise ValueError("generator matrix row count differs from rank")
        if not isinstance(mat, DomainMatrix) or mat.domain not in _RINGS.values() or any(
            f.degree() > d for row, d in zip(mat.to_list(), degs) for f in row
        ):
            raise ValueError(f"generator matrix must be over ZZ[x] or ZZ_I[x], row degrees {degs}")

    @property
    def row_degrees(self) -> tuple:
        return tuple(a + self.k for a in self.bundle.degrees)


def j_of(weights) -> int:
    """Least positive integer clearing all weight denominators."""
    ws = [_frac(w) for w in weights]
    if not ws:
        raise ValueError("empty weight list")
    return lcm(*(w.denominator for w in ws))


def generated_subsheaf(sb: SectionBasis, vectors) -> HomogeneousSectionMatrix:
    """Generator matrix of section-coefficient vectors: basis entry
    (i, j), the form x0^(d_i - j) x1^j, is x^j in row i.  Each vector is
    multiplied by the lcm of its denominators, which generates the same
    subsheaf; the matrix is over ZZ[x] when every coefficient is real,
    else over ZZ_I[x]."""
    r = sb.bundle.rank
    rows = []
    for v in vectors:
        if len(v) != sb.N:
            raise ValueError(
                f"coefficient vector has length {len(v)}; expected {sb.N}"
            )
        rows.append([_to_gaussian(c) for c in v])
    vecs, dom = _smallest_domain(rows)
    ring = _RINGS[dom]
    cols = []
    for v in vecs:
        col = [{} for _ in range(r)]
        for c, (i, j) in zip(v, sb.entries):
            col[i][(j,)] = c  # the ring drops zeros
        cols.append([ring(terms) for terms in col])
    m = DomainMatrix([list(row) for row in zip(*cols)] or [[]] * r, (r, len(cols)), ring)
    return HomogeneousSectionMatrix(bundle=sb.bundle, k=sb.k, matrix=m)


def values_at(mat: DomainMatrix, x) -> DomainMatrix:
    """The forms of `mat` evaluated at the point (1, x), over the domain
    of their coefficients, ZZ or ZZ_I."""
    dom = mat.domain.domain
    x = dom.convert(x)
    return mat.applyfunc(lambda f: dup_eval(f.to_dense(), x, dom), dom)


def _generic_rank(m: DomainMatrix, degs):
    """Rank over the function field, a point (1, t) where it is reached
    and the pivot columns there, by exact evaluation at more points than
    a minor has roots: at most the nonnegative row degrees' sum.  Columns
    independent at one point are independent over C(x).  The pivots come
    from fraction-free elimination: over ZZ it needs no rational
    arithmetic, and sympy's automatic method costs more to choose than
    to run on these small matrices."""
    best, at = (), 0
    for t in range(sum(max(d, 0) for d in degs) + 1):
        pivots = values_at(m, t).rref_den(method="FF")[2]
        if len(pivots) > len(best):
            best, at = pivots, t
        if len(best) == min(m.shape):
            break
    return len(best), at, best


def _det(rows):
    """Determinant of a square list of ring elements, by cofactor
    expansion along the first column."""
    if len(rows) == 1:
        return rows[0][0]
    d = rows[0][0].ring.zero
    for k, r in enumerate(rows):
        if r[0]:
            m = r[0] * _det([s[1:] for s in rows[:k] + rows[k + 1:]])
            d = d - m if k % 2 else d + m
    return d


def _divisor_degree(mat: DomainMatrix, degs, rho: int, t: int) -> int:
    """Degree of the gcd of the rho x rho minors of `mat` as binary forms,
    where `mat` has rank rho at the point (1, t).

    In the chart (x0, x1) = (y, 1 + t y), where row i holds
    y^d_i f(t + 1/y), that point is at infinity, so the gcd of the minors
    in K[y] has the full degree, K = QQ or QQ_I.  Unimodular column
    operations keep every determinantal divisor over the PID K[y], so
    Euclid on the columns, row by row with the entry of least degree p as
    pivot, leaves rho columns whose C(r, rho) minors have that gcd.  Each
    step is a pseudo-division, c <- lc(p)^delta c - pquo(c_i, p) pivot
    with delta = deg c_i - deg p + 1, after which the column loses its
    content, the gcd over ZZ or ZZ_I of its entries' contents (Collins'
    primitive remainders).  Scaling a column by a nonzero constant is
    unimodular over K[y] too, so the coefficients stay in ZZ or ZZ_I, and
    the content removal keeps them small.  The minors come from cofactor
    expansion, which on these few small matrices of polynomials costs
    less than a DomainMatrix determinant.
    """
    if rho == 0:
        return 0
    ring = mat.domain
    dom = ring.domain
    cols = (
        [ring({(d - e,): a for (e,), a in f.shift(t).terms()}) for f, d in zip(col, degs)]
        for col in zip(*mat.to_list())
    )
    done, live = [], [c for c in cols if any(c)]
    for i in range(len(degs)):
        while len(done) + len(live) > rho:
            live.sort(key=lambda c: c[i].degree())  # kept sorted: 2x faster than min()
            hot = [c for c in live if c[i]]
            if len(hot) < 2:
                break
            piv = hot[0]
            p = piv[i]
            for c in hot[1:]:
                s = p.LC ** (c[i].degree() - p.degree() + 1)  # p divides s c_i
                c[:] = [a.mul_ground(s) for a in c]
                q = c[i] // p
                c[:] = [a - q * b for a, b in zip(c, piv)]
                g = reduce(dom.gcd, (a.content() for a in c))
                if g:  # 0 once the column is zero; quo_ground returns f for 1
                    c[:] = [a.quo_ground(g) for a in c]
            live = [c for c in live if any(c)]
        done += [c for c in live if c[i]]
        live = [c for c in live if not c[i]]
    red = done + live
    g = ring.zero
    for rows in itertools.combinations(range(len(degs)), rho):
        g = g.gcd(_det([[c[r] for c in red] for r in rows]))
    return g.degree()


def saturate_rank_degree(m: HomogeneousSectionMatrix):
    """Rank and degree of the saturation of the image subsheaf.

    The pivot columns of a point of full rank span the generic fiber, so
    they have the same saturation; the degree is -rank*k + the degree of
    the gcd of their maximal minors: dividing that common factor out of
    the minor vector leaves a nowhere-vanishing subbundle inclusion,
    which is exactly the saturation on a curve.
    """
    mat, degs = m.matrix, m.row_degrees
    rho, t, pivots = _generic_rank(mat, degs)
    return rho, -rho * m.k + _divisor_degree(mat.extract(range(len(degs)), pivots), degs, rho, t)


def evaluation_drop_degree(m: HomogeneousSectionMatrix) -> int:
    """Degree of the common factor of all maximal minors.

    Positive exactly when the pointwise evaluation rank of the
    generator family drops somewhere on the line; at such points the
    curvature of the induced metric ray concentrates, which matters
    for the numeric (but not the exact) asymptotics.
    """
    mat, degs = m.matrix, m.row_degrees
    rho, t, _ = _generic_rank(mat, degs)
    return _divisor_degree(mat, degs, rho, t)


@dataclass(frozen=True)
class FiltrationReport:
    """Saturated subsheaf filtration induced by a weight decomposition."""

    j: int
    levels: tuple  # of (w_bar: int, rank: int, degree: int, slope: Fraction)
    graded_ranks: tuple
    mna: Fraction
    jna: Fraction


def filtration(spec: BundleSpec, zeta: WeightSpec) -> FiltrationReport:
    """Filtration by weight thresholds, with both invariants.

    Walking the blocks in decreasing weight order, the cumulative
    vector families generate subsheaves whose saturations filter the
    bundle; the energy slope sums rank-weighted slope deficits over the
    integer thresholds between the extreme scaled weights, and the gap
    invariant is the extreme weight difference over levels where the
    rank actually jumps.
    """
    sb = basis(spec, zeta.k)  # raises below the regularity threshold
    zeta.validate_against(sb)

    j = j_of(zeta.weights)
    mu = Fraction(spec.slope)
    levels = []
    cum = []
    for w, vecs in zeta.blocks:
        cum.extend(vecs)
        rho, deg = saturate_rank_degree(generated_subsheaf(sb, cum))
        levels.append((int(w * j), rho, deg, Fraction(deg, rho) if rho else Fraction(0)))
    ranks = [rho for _, rho, _, _ in levels]
    if ranks != sorted(ranks):
        raise RuntimeError("saturation ranks failed to be nondecreasing")
    if ranks[-1] != spec.rank or levels[-1][3] != mu:
        raise RuntimeError("top filtration level is not the whole bundle")

    graded = tuple(r1 - r0 for r0, r1 in zip([0] + ranks[:-1], ranks))
    jumps = [i for i, g in enumerate(graded) if g > 0]
    jna = zeta.weights[jumps[0]] - zeta.weights[jumps[-1]] if jumps else Fraction(0)

    # sum of rank * (slope deficit), one term per integer threshold;
    # the filtration step is constant between consecutive scaled weights
    mna = Fraction(0)
    for (w0, rho, _, slope), (w1, _, _, _) in zip(levels, levels[1:]):
        count = w0 - w1  # integers q in [-w0, -w1)
        if rho:
            mna += count * rho * (mu - slope)
    mna = Fraction(2, j) * mna

    return FiltrationReport(
        j=j,
        levels=tuple(levels),
        graded_ranks=graded,
        mna=mna,
        jna=Fraction(jna),
    )


def block_weightspec(sb: SectionBasis, weights_and_dims):
    """Weight decomposition at level sb.k from (weight, dim) pairs over
    the standard basis order: the first dim1 basis elements get weight w1,
    and so on."""
    eye = sp.eye(sb.N)
    blocks = []
    start = 0
    for w, d in weights_and_dims:
        vecs = tuple(tuple(eye[start + t, s] for s in range(sb.N)) for t in range(d))
        blocks.append((_frac(w), vecs))
        start += d
    if start != sb.N:
        raise ValueError(f"block dimensions sum to {start}; expected {sb.N}")
    return WeightSpec(k=sb.k, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# JSON interchange: rationals as "p/q" strings, Gaussian rationals as
# ["re", "im"] pairs.


def _frac_str(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def weightspec_from_json(obj: dict) -> WeightSpec:
    """The weight decomposition {"k": level, "blocks": [{"w": weight,
    "vectors": [[[re, im], ...], ...]}, ...]}; ValueError naming the key
    when `obj` is not of that form."""
    k = obj.get("k") if isinstance(obj, dict) else None
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"malformed weight decomposition: k must be an integer, not {k!r}")
    try:
        blocks = []
        for b in obj["blocks"]:
            vecs = tuple(
                tuple(sp.Rational(_frac(re)) + sp.I * sp.Rational(_frac(im)) for re, im in v)
                for v in b["vectors"]
            )
            blocks.append((_frac(b["w"]), vecs))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            'malformed weight decomposition: blocks must be a list of {"w", "vectors"} '
            f"objects, each vector a list of [re, im] pairs ({exc})"
        ) from exc
    return WeightSpec(k=k, blocks=tuple(blocks))


def report_to_json(rep: FiltrationReport) -> dict:
    return {
        "j": rep.j,
        "levels": [
            {
                "w_bar": wb,
                "rank": rho,
                "degree": deg,
                "slope": _frac_str(slope),
            }
            for wb, rho, deg, slope in rep.levels
        ],
        "graded_ranks": list(rep.graded_ranks),
        "mna": _frac_str(rep.mna),
        "jna": _frac_str(rep.jna),
    }
