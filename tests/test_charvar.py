import itertools
import random
from fractions import Fraction

import pytest

from skeinlab.charvar import (
    CharVarError,
    HarvestError,
    TwoBridgeDivisionError,
    TwoBridgePresentation,
    _certified_zero,
    abelian_divisor,
    check_x_z2_identity,
    generator_vars,
    harvest_relations,
    is_square_free,
    monomial_exponents,
    parse_group_spec,
    relation_from_dict,
    tangent_dim_at_trivial,
    two_bridge_charpoly,
    two_bridge_numerator,
    verify_relations_on_fresh_samples,
    x_z2_relation_poly,
)
from skeinlab.exactpoly import LaurentPoly, Poly, SubsetVar
from skeinlab.oracle import Representation, eval_word, sample_sl2
from skeinlab.selftest import _frac_mat_mul, trefoil_rational_representation
from skeinlab.skein import SkeinElement, to_laurent
from skeinlab.trace_engine import ReductionMode
from skeinlab.words import reduce_word

T1 = SubsetVar((1,))
T12 = SubsetVar((1, 2))


def v(var):
    return Poly.variable(var)


def test_presentation_words():
    trefoil = TwoBridgePresentation.preset("trefoil")
    assert [(l.index, l.exponent) for l in trefoil.relator_word().letters] == [
        (1, 1),
        (2, 1),
    ]
    fig8 = TwoBridgePresentation.preset("fig8")
    assert [(l.index, l.exponent) for l in fig8.relator_word().letters] == [
        (1, 1),
        (2, -1),
        (1, -1),
        (2, 1),
    ]
    with pytest.raises(CharVarError):
        TwoBridgePresentation(())
    with pytest.raises(CharVarError):
        TwoBridgePresentation((1, 2))


def test_trefoil_charpoly():
    res = two_bridge_charpoly(TwoBridgePresentation.preset("trefoil"))
    assert res.Phi == v(T12) - 1
    assert res.Q == abelian_divisor() * res.Phi
    assert not res.Q.is_zero()
    assert res.phi_at_22 == 1
    assert res.Phi.total_degree() == 1
    assert is_square_free(res.Phi)
    # Zero set contains the whole t2 = 1 line.
    assert res.Phi.substitute({T12: Poly.const(1)}).is_zero()


def test_trefoil_explicit_rational_representations():
    res = two_bridge_charpoly(TwoBridgePresentation.preset("trefoil"))
    for m in (Fraction(1), Fraction(2), Fraction(5, 3), Fraction(-3, 2)):
        a, b = trefoil_rational_representation(m)
        aba = _frac_mat_mul(_frac_mat_mul(a, b), a)
        bab = _frac_mat_mul(_frac_mat_mul(b, a), b)
        assert aba == bab
        ab = _frac_mat_mul(a, b)
        t1_val, t2_val = a[0] + a[3], ab[0] + ab[3]
        assert t2_val == 1
        assert res.Phi.evaluate({T1: t1_val, T12: t2_val}) == 0
        assert t2_val != t1_val * t1_val - 2  # genuinely nonabelian character
    assert res.Phi.evaluate({T1: 2, T12: 2}) == 1


def test_fig8_charpoly():
    res = two_bridge_charpoly(TwoBridgePresentation.preset("fig8"))
    expected_phi = (
        v(T1) * v(T1) * v(T12)
        - 2 * v(T1) * v(T1)
        - v(T12) * v(T12)
        + v(T12)
        + 1
    )
    assert res.Phi == expected_phi
    assert res.Q == abelian_divisor() * res.Phi
    assert res.phi_at_22 == -1
    assert not res.Phi.is_constant()
    assert is_square_free(res.Phi)


def test_numerator_matches_matrix_oracle():
    # The substituted numerator evaluated at (tr a, tr ab) must equal
    # tr(w) - tr(b w a^-1) for every representation with tr(a) = tr(b);
    # conjugate images give exactly these.
    rng = random.Random(40)
    for name in ("trefoil", "fig8"):
        pres = TwoBridgePresentation.preset(name)
        numerator = two_bridge_numerator(pres)
        w = pres.relator_word()
        bwa = reduce_word(
            [(2, 1)] + [(l.index, l.exponent) for l in w.letters] + [(1, -1)], 2
        )
        for _ in range(50):
            m = sample_sl2(rng, 6)
            conj = sample_sl2(rng, 6)
            images = (m, conj * m * conj.inverse())
            rep = Representation(2, images)
            t1_val = images[0].trace
            t2_val = (images[0] * images[1]).trace
            expected = eval_word(w, rep).trace - eval_word(bwa, rep).trace
            assert numerator.evaluate({T1: t1_val, T12: t2_val}) == expected


def test_torus_2_5_charpoly():
    res = two_bridge_charpoly(TwoBridgePresentation((1, 1)))
    assert res.Q == abelian_divisor() * res.Phi
    assert is_square_free(res.Phi)
    assert res.phi_at_22 != 0
    assert not res.Phi.is_constant()


def test_swap_roles_symmetry():
    for eps in ((1,), (1, -1), (1, 1), (1, 1, -1)):
        pres = TwoBridgePresentation(eps)
        q = two_bridge_numerator(pres)
        q_swapped = two_bridge_numerator(pres, swap_roles=True)
        assert q == q_swapped or q == -q_swapped


def test_division_guardrail_aborts_loudly(monkeypatch):
    import skeinlab.charvar as charvar_module

    monkeypatch.setattr(
        charvar_module, "two_bridge_numerator", lambda pres: v(T12)
    )
    with pytest.raises(TwoBridgeDivisionError):
        two_bridge_charpoly(TwoBridgePresentation.preset("trefoil"))


def test_square_free_detector():
    phi = v(T12) - 1
    assert is_square_free(phi)
    assert not is_square_free(phi * phi)
    assert not is_square_free(phi * phi * (v(T1) - 3))
    assert is_square_free(abelian_divisor() * phi)
    assert is_square_free(Poly.const(5))
    assert not is_square_free(Poly.zero())
    # Repeated factor involving only t1.
    sq = (v(T1) - 2) * (v(T1) - 2) * (v(T12) + 1)
    assert not is_square_free(sq)
    # The gcd at t1 = 0 is t2, so the t2 pass must try another point.
    assert is_square_free(v(T12) * v(T12) - v(T1))
    # The leading t2-coefficient vanishes at t1 = 0, which must be skipped.
    assert is_square_free(v(T1) * v(T12) * v(T12) + v(T12) + 1)
    mixed = v(T1) * v(T12) - 1
    assert not is_square_free(mixed * mixed * (v(T12) + 3))
    for var in (T1, T12):
        assert is_square_free((v(var) - 2) * (v(var) + 1))
        assert not is_square_free((v(var) - 2) * (v(var) - 2) * (v(var) + 1))
    t1_minus_5 = v(T1) - 5
    for length in range(1, 6):
        for rest in itertools.product((1, -1), repeat=length - 1):
            phi = two_bridge_charpoly(TwoBridgePresentation((1,) + rest)).Phi
            assert is_square_free(phi)
            assert not is_square_free(phi * phi)
            assert not is_square_free(phi * t1_minus_5 * t1_minus_5)


def test_x_z2_identity():
    assert check_x_z2_identity()
    off_by_one = SkeinElement(
        2, ReductionMode.DYADIC, "abelian", x_z2_relation_poly(offset=5)
    )
    assert to_laurent(off_by_one) == LaurentPoly.const(2, -1)


def test_certified_zero_sums_past_int64_in_blocks():
    # Value -1 and coefficient -1 both have residue q - 1, so each of the
    # first 2,100 columns adds (q - 1)^2 ~ 2^52 to the int64 dot product:
    # more than 2^63 in one sum.  The exact value is 2100 - 2100 = 0.
    columns = 4200
    relation = [-1] * (columns // 2) + [1] * (columns // 2)
    monos = [(1,)] * columns
    assert _certified_zero([(-1,)], monos, [relation], 1)
    relation[-1] = -1
    assert not _certified_zero([(-1,)], monos, [relation], 1)


def test_parse_group_spec():
    assert parse_group_spec("free:3") == ("free", 3)
    assert parse_group_spec("abelian:2") == ("abelian", 2)
    for bad in ("free", "ring:2", "free:0", "free:x"):
        with pytest.raises(CharVarError):
            parse_group_spec(bad)


def test_harvest_abelian_2_degree_3_is_the_x_z2_relation():
    monos = monomial_exponents(3, 3)
    basis = harvest_relations(("abelian", 2), 3, 2 * len(monos), seed=11)
    assert len(basis.relations) == 1
    rel = basis.relations[0]
    known = x_z2_relation_poly()
    assert rel == known or rel == -known
    assert verify_relations_on_fresh_samples(basis)


def test_harvest_free_2_degree_4_empty():
    monos = monomial_exponents(3, 4)
    basis = harvest_relations(("free", 2), 4, 2 * len(monos), seed=11)
    assert basis.relations == []


def test_harvest_insufficient_samples():
    with pytest.raises(HarvestError):
        harvest_relations(("abelian", 2), 3, 5, seed=0)


def test_harvest_abelian_3_and_tangent():
    nvars = len(generator_vars(("abelian", 3)))
    monos = monomial_exponents(nvars, 3)
    basis = harvest_relations(("abelian", 3), 3, 2 * len(monos), seed=11)
    # The three pairwise X(Z^2) relations have degree 3, so at least 3 appear.
    assert len(basis.relations) >= 3
    assert verify_relations_on_fresh_samples(basis)
    report = tangent_dim_at_trivial(basis)
    assert report.ambient_dim == 6
    assert report.jacobian_rank_at_chi0 == 0
    assert report.tangent_dim == 6


def test_tangent_abelian_2():
    monos = monomial_exponents(3, 3)
    basis = harvest_relations(("abelian", 2), 3, 2 * len(monos), seed=11)
    report = tangent_dim_at_trivial(basis)
    assert (report.ambient_dim, report.jacobian_rank_at_chi0, report.tangent_dim) == (
        3,
        0,
        3,
    )


def test_relation_json_round_trip():
    monos = monomial_exponents(3, 3)
    basis = harvest_relations(("abelian", 2), 3, 2 * len(monos), seed=11)
    blob = basis.to_dict()
    rebuilt = [
        relation_from_dict(basis.group_spec, entry) for entry in blob["relations"]
    ]
    assert rebuilt == basis.relations


def test_tangent_with_nonvanishing_gradient():
    # A synthetic basis whose relation has a nonzero gradient at the all-2
    # point: rank must be positive and tangent dim drop below ambient.
    from skeinlab.charvar import RelationBasis
    from skeinlab.skein import AbelianVar

    u1 = Poly.variable(AbelianVar((1,)))
    basis = RelationBasis(("abelian", 2), 1, 0, 0, [u1 - 2])
    report = tangent_dim_at_trivial(basis)
    assert report.jacobian_rank_at_chi0 == 1
    assert report.tangent_dim == 2
