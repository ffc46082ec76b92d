"""Exact sheaf engine: saturations, filtrations, and the two invariants.

Every numeric value here is exact rational arithmetic with zero
tolerance; the frozen values were derived by hand from the rank/degree
bookkeeping of subsheaves of split bundles on the line.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy import QQ, QQ_I, ZZ, ZZ_I
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

import _quot_reference as ref
from hebundle.bundle import BundleSpec
from hebundle.quot import (
    RING,
    HomogeneousSectionMatrix,
    WeightSpec,
    block_weightspec,
    evaluation_drop_degree,
    filtration,
    generated_subsheaf,
    j_of,
    report_to_json,
    saturate_rank_degree,
    weightspec_from_json,
)
from hebundle.sections import basis

SPEC = BundleSpec((1, -1))
SB = basis(SPEC, 1)


def _ws(pairs):
    return block_weightspec(SB, [(Fraction(w), d) for w, d in pairs])


def test_exact_invariants_frozen():
    # the canonical destabilizing datum: weight +1 on the three sections
    # of the degree-1 summand, -3 on the section of the other
    z = _ws([(1, 3), (-3, 1)])
    rep = filtration(SPEC, z)
    assert rep.mna == Fraction(-8)
    assert rep.jna == Fraction(4)
    assert rep.j == 1
    assert rep.levels[0][1:3] == (1, 1)  # rank 1, degree 1
    assert rep.graded_ranks == (1, 1)


def test_exact_invariants_reversed_sign():
    # negating the weights keeps the same vectors but flips which block
    # leads the filtration: the degree -1 section now sits on top
    z = WeightSpec(
        k=1,
        blocks=(
            (Fraction(3), ((0, 0, 0, 1),)),
            (Fraction(-1), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))),
        ),
    )
    rep = filtration(SPEC, z)
    assert rep.mna == Fraction(8)
    assert rep.jna == Fraction(4)


def test_invariant_shift_invariance():
    base = _ws([(1, 3), (-3, 1)])
    for c in (Fraction(2), Fraction(-5, 3)):
        shifted = filtration(SPEC, _ws([(1 + c, 3), (-3 + c, 1)]))
        assert shifted.mna == filtration(SPEC, base).mna
        assert shifted.jna == filtration(SPEC, base).jna


def test_invariant_scaling():
    base = filtration(SPEC, _ws([(1, 3), (-3, 1)]))
    scaled = filtration(SPEC, _ws([(Fraction(2, 3), 3), (-2, 1)]))
    assert scaled.mna == Fraction(2, 3) * base.mna
    assert scaled.jna == Fraction(2, 3) * base.jna


def test_fractional_weights_frozen():
    z = _ws([(Fraction(1, 2), 2), (Fraction(-1, 2), 2)])
    rep = filtration(SPEC, z)
    assert rep.j == 2
    assert rep.mna == Fraction(-2)
    assert rep.jna == Fraction(1)
    assert rep.levels == ((1, 1, 1, Fraction(1)), (-1, 2, 0, Fraction(0)))


def test_saturation_examples():
    # e0 spans x0^2 in the degree-1 summand: the image is O(-1) but its
    # saturation is the sub-line-bundle O(1)
    assert saturate_rank_degree(generated_subsheaf(SB, [(1, 0, 0, 0)])) == (1, 1)
    # the section of the degree -1 summand saturates to O(-1) itself
    assert saturate_rank_degree(generated_subsheaf(SB, [(0, 0, 0, 1)])) == (1, -1)
    # together they span generically: saturation is the whole bundle
    m = generated_subsheaf(SB, [(1, 0, 0, 0), (0, 0, 0, 1)])
    assert saturate_rank_degree(m) == (2, 0)
    # but the minor is x0**2: the evaluation rank drops (twice) at
    # x0 = 0, the point at infinity
    assert evaluation_drop_degree(m) == 2
    # mirror case: the minor is x1**2, so the rank drops twice at x1 = 0
    mirror = generated_subsheaf(SB, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert evaluation_drop_degree(mirror) == 2
    assert saturate_rank_degree(mirror) == (2, 0)


def test_rank_found_below_the_regularity_level():
    # O(3)+O(-2) at k=1 has row degrees 4 and -1: this form vanishes at
    # x = 0, 1, 2, 3, so sampling only sum(row degrees) + 1 = 4 points
    # finds rank 0
    x = RING.gens[0]
    col = [[x * (x - 1) * (x - 2) * (x - 3)], [RING.zero]]
    m = HomogeneousSectionMatrix(
        bundle=BundleSpec((3, -2)), k=1, matrix=DomainMatrix(col, (2, 1), RING)
    )
    assert saturate_rank_degree(m) == (1, 3)
    assert evaluation_drop_degree(m) == 4


def test_saturation_column_mix_invariance():
    # adding redundant generators never changes the saturation
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0)]
    redundant = vecs + [(1, 1, 0, 0), (2, 3, 0, 0)]
    a = saturate_rank_degree(generated_subsheaf(SB, vecs))
    b = saturate_rank_degree(generated_subsheaf(SB, redundant))
    assert a == b
    # nor the drop degree (gcds x0 and x0**2), though the column
    # reduction's pivots depend on the column order
    for base, extra, drop in (
        (vecs, [(1, 1, 0, 0), (2, 3, 0, 0)], 1),
        ([(1, 0, 0, 0), (0, 0, 0, 1)], [(1, 0, 0, 1), (2, 0, 0, -3), (3, 0, 0, 0)], 2),
    ):
        for fam in (base, base + extra, (base + extra)[::-1], extra[1:] + base):
            assert evaluation_drop_degree(generated_subsheaf(SB, fam)) == drop


def _factored_family(seed, n):
    # (2,1,0) at k=4, row degrees 6, 5, 4: every entry is (x1 - x0) x0
    # times a form with coefficients in {-2, -1, 1, 2}, so every 3x3 minor
    # has the factor (x1 - x0)**3 x0**3
    rng = random.Random(seed)
    vecs = []
    for _ in range(n):
        v = []
        for d in (6, 5, 4):
            q = [rng.choice([-2, -1, 1, 2]) for _ in range(d - 1)]
            v.extend([b - a for a, b in zip(q + [0], [0] + q)] + [0])  # (x - 1) q
        vecs.append(v)
    return basis(BundleSpec((2, 1, 0)), 4), vecs


def test_twenty_generator_family_frozen():
    # the values were computed once by the exhaustive gcd over all 1140
    # maximal minors
    m = generated_subsheaf(*_factored_family(20, 20))
    assert evaluation_drop_degree(m) == 6
    assert saturate_rank_degree(m) == (3, 3)


def test_real_data_run_over_the_integers():
    # a real family is held over ZZ[x]; scaling one generator by 1 + i
    # spans the same subsheaf over ZZ_I[x], with the same invariants
    sb, vecs = _factored_family(35, 4)
    real = generated_subsheaf(sb, vecs)
    gauss = generated_subsheaf(sb, [[(1 + sp.I) * c for c in vecs[0]]] + vecs[1:])
    assert real.matrix.domain == ZZ[RING.symbols]
    assert gauss.matrix.domain == ZZ_I[RING.symbols]
    assert saturate_rank_degree(real) == saturate_rank_degree(gauss) == (3, 3)
    assert evaluation_drop_degree(real) == evaluation_drop_degree(gauss) >= 6
    # a real weight datum and its copy times i have the same filtration
    z = WeightSpec(
        k=1,
        blocks=(
            (Fraction(1, 2), ((1, 2, 0, 0), (0, 1, -1, 0))),
            (Fraction(-1), ((0, 0, 1, 3), (1, 0, 0, 1))),
        ),
    )
    zi = WeightSpec(
        k=1, blocks=tuple((w, tuple(tuple(sp.I * c for c in v) for v in vs)) for w, vs in z.blocks)
    )
    a, b = filtration(SPEC, z), filtration(SPEC, zi)
    assert (a.mna, a.jna, a.levels) == (b.mna, b.jna, b.levels)
    assert a.levels[0][1:3] == (1, 1)  # two coprime forms in O(1): all of it


def test_pseudo_division_matches_every_build():
    # the pivots' leading coefficients are not units and two generators
    # carry denominators; the integer build, an integer multiple, two
    # copies over ZZ_I and the reference agree.  In the second, with
    # Gaussian factors (2 + i)/3 and 1 - 3i, the pivots' leading
    # coefficients and the columns' contents are non-unit Gaussian integers
    sb, vecs = _factored_family(36, 4)
    fam = [[sp.Rational(1, 3) * c for c in vecs[0]], [sp.Rational(2, 5) * c for c in vecs[1]]]
    fam += vecs[2:]
    forms = ref.forms(sb, fam)
    want = (
        ref.saturate_rank_degree(forms, sb.bundle, sb.k),
        ref.evaluation_drop_degree(forms, sb.bundle, sb.k),
    )
    for build, ring in (
        (fam, ZZ),
        ([[15 * c for c in v] for v in fam], ZZ),
        ([[(1 + sp.I) * c for c in fam[0]]] + fam[1:], ZZ_I),
        ([[(2 + sp.I) / 3 * c for c in fam[0]], [(1 - 3 * sp.I) * c for c in fam[1]]] + fam[2:],
         ZZ_I),
    ):
        m = generated_subsheaf(sb, build)
        assert m.matrix.domain.domain == ring
        assert (saturate_rank_degree(m), evaluation_drop_degree(m)) == want


@pytest.mark.parametrize("n", [4, 6])
def test_rank_five_bundle_matches_reference(n):
    # minors of size 4 (five row choices) and 5, by cofactor expansion
    sb = basis(BundleSpec((1, 1, 0, 0, -1)), 1)
    rng = random.Random(n)
    coeffs = [0, 0, 1, -1, 2, sp.Rational(1, 2)]
    vecs = [[rng.choice(coeffs) for _ in range(sb.N)] for _ in range(n)]
    m = generated_subsheaf(sb, vecs)
    forms = ref.forms(sb, vecs)
    rho, deg = saturate_rank_degree(m)
    assert rho == min(n, 5)
    assert (rho, deg) == ref.saturate_rank_degree(forms, sb.bundle, sb.k)
    assert evaluation_drop_degree(m) == ref.evaluation_drop_degree(forms, sb.bundle, sb.k)


def test_gaussian_rational_coefficients():
    z = WeightSpec(
        k=1,
        blocks=(
            (Fraction(1), ((1, sp.I, 0, 0), (0, 0, 1, 0), (sp.I, 1, 0, 0))),
            (Fraction(-3), ((0, 0, 0, 1),)),
        ),
    )
    rep = filtration(SPEC, z)
    assert rep.mna == Fraction(-8)


def test_weightspec_validation():
    with pytest.raises(ValueError):
        WeightSpec(k=1, blocks=())
    with pytest.raises(ValueError):  # weights must strictly decrease
        WeightSpec(k=1, blocks=((Fraction(1), ((1, 0),)), (Fraction(1), ((0, 1),))))
    # linearly dependent vectors are rejected at validation
    z = WeightSpec(
        k=1,
        blocks=(
            (Fraction(1), ((1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))),
            (Fraction(-1), ((0, 0, 0, 1),)),
        ),
    )
    with pytest.raises(ValueError):
        z.validate_against(SB)
    # wrong total dimension
    z2 = WeightSpec(k=1, blocks=((Fraction(1), ((1, 0, 0, 0),)),))
    with pytest.raises(ValueError):
        z2.validate_against(SB)


def test_inexact_coefficients_rejected():
    with pytest.raises(ValueError):
        WeightSpec(k=1, blocks=((Fraction(1), ((sp.sqrt(2), 0, 0, 0),)),))


def test_complex_coefficients_rejected():
    # no floating point enters `quot`, not even an exactly representable
    # Python complex; Gaussian rationals come as sympy scalars
    with pytest.raises(ValueError, match="not a Gaussian rational"):
        WeightSpec(k=1, blocks=((Fraction(1), ((1 + 2j, 0, 0, 0),)),))
    z = WeightSpec(k=1, blocks=((Fraction(1), ((1 + 2 * sp.I, Fraction(1, 3), 0, 0),)),))
    assert z.blocks[0][1][0][:2] == (1 + 2 * sp.I, sp.Rational(1, 3))


@pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=["bool", "numpy.bool_"])
def test_bool_coefficients_rejected(flag):
    # sympy reads a bool as a Boolean, not as the number 1
    with pytest.raises(ValueError, match="not a Gaussian rational"):
        WeightSpec(k=1, blocks=((Fraction(1), ((flag, 0, 0, 0),)),))
    with pytest.raises(ValueError, match="not a Gaussian rational"):
        generated_subsheaf(SB, [(flag, 0, 0, 0)])


def test_bool_weights_rejected():
    # Fraction(True) is 1: a bool is not read as the weight 1
    with pytest.raises(ValueError, match="not an exact rational"):
        WeightSpec(k=1, blocks=((True, ((1, 0, 0, 0),)),))


def test_weightspec_dimension():
    z = _ws([(1, 3), (-3, 1)])
    assert z.dimension == 4


def test_j_of():
    assert j_of([Fraction(1, 2), Fraction(-1, 3)]) == 6
    assert j_of([Fraction(2), Fraction(-1)]) == 1
    with pytest.raises(ValueError):
        j_of([])


def test_j_of_rejects_bool_weights():
    with pytest.raises(ValueError, match="not an exact rational"):
        j_of([Fraction(1, 2), True])


def test_filtration_below_regularity_rejected():
    z = WeightSpec(k=0, blocks=((Fraction(1), ((1, 0), (0, 1))),))
    with pytest.raises(ValueError):
        filtration(SPEC, z)


def test_domain_matrix_degree_enforced():
    # row degrees are 2 and 0 for O(1)+O(-1) at k=1
    x = RING.gens[0]

    def make(col, domain=RING):
        return HomogeneousSectionMatrix(bundle=SPEC, k=1, matrix=DomainMatrix(col, (2, 1), domain))

    assert make([[x**2], [RING.one]]).matrix.shape[1] == 1
    real = ZZ[RING.symbols]
    assert make([[real.gens[0] ** 2], [real.one]], real).matrix.domain == real
    for col in ([[x**3], [RING.zero]], [[RING.one], [x]]):
        with pytest.raises(ValueError):
            make(col)
    with pytest.raises(ValueError):  # entries must lie in RING
        make([[QQ_I(1)], [QQ_I(1)]], QQ_I)
    for field in (QQ, QQ_I):  # real and Gaussian data are cleared of denominators
        ring = field[RING.symbols]
        with pytest.raises(ValueError, match="over ZZ"):
            make([[ring.gens[0] ** 2], [ring.one]], ring)


def test_summand_filtration_of_polystable_attains_zero():
    spec = BundleSpec((2, 2))
    sb = basis(spec, 2)
    z = block_weightspec(sb, [(Fraction(1), 5), (Fraction(0), 5)])
    rep = filtration(spec, z)
    assert rep.mna == Fraction(0)
    assert rep.levels[0][1:3] == (1, 2)  # the summand O(2) itself


def test_block_weightspec_dimension_check():
    with pytest.raises(ValueError):
        block_weightspec(SB, [(Fraction(1), 2)])


def test_json_roundtrip():
    z = _ws([(Fraction(1, 2), 2), (Fraction(-1, 2), 2)])
    rep = filtration(SPEC, z)
    d = report_to_json(rep)
    assert d["mna"] == "-2" and d["jna"] == "1"
    assert d["levels"][0]["slope"] == "1"
    obj = {
        "k": 1,
        "blocks": [
            {"w": "1/2", "vectors": [[["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]],
                                     [["0", "0"], ["1", "0"], ["0", "0"], ["0", "0"]]]},
            {"w": "-1/2", "vectors": [[["0", "0"], ["0", "0"], ["1", "0"], ["0", "0"]],
                                      [["0", "0"], ["0", "0"], ["0", "0"], ["1", "0"]]]},
        ],
    }
    z2 = weightspec_from_json(obj)
    assert filtration(SPEC, z2).mna == Fraction(-2)
    with pytest.raises(ValueError):
        weightspec_from_json({"k": 1})


@pytest.mark.parametrize("k", [1.9, True, "2"])
def test_weightspec_from_json_rejects_non_integer_level(k):
    # int() would read these as the levels 1, 1 and 2
    obj = {"k": k, "blocks": [{"w": "1", "vectors": [[["1", "0"], ["0", "0"]]]}]}
    with pytest.raises(ValueError, match="k must be an integer"):
        weightspec_from_json(obj)


@pytest.mark.parametrize("where", ["w", "re", "im"])
def test_weightspec_from_json_rejects_bools(where):
    # JSON true is not the number 1, in a weight or in a coefficient
    pair = [True, "0"] if where == "re" else ["1", False] if where == "im" else ["1", "0"]
    vec = [pair, ["0", "0"], ["0", "0"], ["0", "0"]]
    obj = {"k": 1, "blocks": [{"w": True if where == "w" else "1", "vectors": [vec]}]}
    with pytest.raises(ValueError, match="malformed weight decomposition"):
        weightspec_from_json(obj)


@pytest.mark.parametrize("where", ["w", "re", "im"])
@pytest.mark.parametrize("bad", ["1/0", 0.1])
def test_weightspec_from_json_rejects_inexact_numbers(where, bad):
    # "1/0" has no value and the JSON float 0.1 would be read as the
    # binary fraction 3602879701896397/36028797018963968
    pair = [bad, "0"] if where == "re" else ["1", bad] if where == "im" else ["1", "0"]
    vec = [pair, ["0", "0"], ["0", "0"], ["0", "0"]]
    obj = {"k": 1, "blocks": [{"w": bad if where == "w" else "1", "vectors": [vec]}]}
    with pytest.raises(ValueError, match="malformed weight decomposition"):
        weightspec_from_json(obj)


@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_invariants_shift_invariant_property(d, num, den):
    # property form of shift invariance over the standard block data
    base = _ws([(1, d), (-2, 4 - d)])
    c = Fraction(num, den)
    shifted = filtration(SPEC, _ws([(1 + c, d), (-2 + c, 4 - d)]))
    assert shifted.mna == filtration(SPEC, base).mna
    assert shifted.jna == filtration(SPEC, base).jna


# sparse coefficients, so that common roots fall at x0 = 0 and x1 = 0;
# a family draws from the real ones or from all, Gaussian rationals too
_REAL = [0, 0, 0, 0, 1, -1, 2, sp.Rational(1, 2)]
_GAUSSIAN = _REAL + [sp.I, 1 - sp.I / 3, sp.Rational(-3, 2) + 2 * sp.I]
# section spaces of dimension 4, 6, 6 and 6
_ORACLE_BASES = [
    basis(BundleSpec(d), k) for d, k in (((1, -1), 1), ((1, 0, -1), 1), ((2, 1, 0), 0), ((2, 2), 0))
]


@st.composite
def _families(draw):
    sb = draw(st.sampled_from(_ORACLE_BASES))
    coeffs = draw(st.sampled_from([_REAL, _GAUSSIAN]))
    vec = st.lists(st.sampled_from(coeffs), min_size=sb.N, max_size=sb.N)
    base = draw(st.lists(vec, min_size=1, max_size=3))
    # repeated columns (scalar multiples) keep the rank below the column count
    scales = [1, -2, sp.I] if coeffs is _GAUSSIAN else [1, -2]
    repeat = st.tuples(st.integers(0, len(base) - 1), st.sampled_from(scales))
    repeats = draw(st.lists(repeat, max_size=2))
    return sb, base + [[s * c for c in base[i]] for i, s in repeats]


@given(_families())
@settings(max_examples=60, deadline=None)
def test_engine_matches_expr_reference(family):
    sb, vecs = family
    m = generated_subsheaf(sb, vecs)
    real = all(sp.im(c) == 0 for v in vecs for c in v)
    assert m.matrix.domain.domain == (ZZ if real else ZZ_I)
    forms = ref.forms(sb, vecs)
    assert saturate_rank_degree(m) == ref.saturate_rank_degree(forms, sb.bundle, sb.k)
    assert evaluation_drop_degree(m) == ref.evaluation_drop_degree(forms, sb.bundle, sb.k)
