import json
import random
from fractions import Fraction

import pytest

from skeinlab.exactpoly import (
    LaurentPoly,
    Poly,
    PolyDivisionError,
    PolyError,
    PolyEvalError,
    SubsetVar,
    is_dyadic,
    is_integral,
    laurent_from_dict,
    laurent_to_dict,
    poly_divide,
    poly_from_dict,
    poly_pretty,
    poly_to_dict,
)

T1 = SubsetVar((1,))
T2 = SubsetVar((2,))
T12 = SubsetVar((1, 2))


def v(var):
    return Poly.variable(var)


def test_subset_var_ordering_and_interning():
    assert SubsetVar((1,)) is T1
    assert T1 < T2 < T12
    assert SubsetVar((2, 1)) is T12
    assert str(T1) == "t1"
    assert str(T12) == "t[1,2]"


def test_poly_arith_examples():
    assert (v(T1) + -v(T1)).is_zero()
    assert v(T1) * v(T2) == Poly({((T1, 1), (T2, 1)): 1})
    assert (v(T1) + 2) * (v(T1) - 2) == v(T1) * v(T1) - 4


def test_ring_axioms_random():
    rng = random.Random(3)
    variables = [T1, T2, T12]

    def random_poly():
        p = Poly.zero()
        for _ in range(rng.randint(0, 5)):
            mono = []
            for var in variables:
                e = rng.randint(0, 2)
                if e:
                    mono.append((var, e))
            coeff = rng.randint(-4, 4)
            p = p + Poly({tuple(mono): coeff})
        return p

    for _ in range(200):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p + q == q + p


def test_divide_examples():
    d = v(T1) * v(T1) - v(T12) - 2
    order = [T12, T1]
    q, r = poly_divide(d, d, order)
    assert q == Poly.const(1) and r.is_zero()
    product = d * (v(T12) - 1)
    q, r = poly_divide(product, d, order)
    assert q == v(T12) - 1 and r.is_zero()
    q, r = poly_divide(v(T12), d, order)
    assert not r.is_zero()
    with pytest.raises(PolyDivisionError):
        poly_divide(d, Poly.zero(), order)


def test_divide_random_identity():
    rng = random.Random(4)
    variables = [T1, T12]

    def random_poly(allow_zero=True):
        p = Poly.zero()
        for _ in range(rng.randint(0 if allow_zero else 1, 4)):
            mono = []
            for var in variables:
                e = rng.randint(0, 2)
                if e:
                    mono.append((var, e))
            p = p + Poly({tuple(mono): rng.randint(-3, 3)})
        if not allow_zero and p.is_zero():
            return Poly.const(1)
        return p

    for _ in range(200):
        p = random_poly()
        d = random_poly(allow_zero=False)
        q, r = poly_divide(p, d, [T12, T1])
        assert q * d + r == p


def test_evaluate_examples():
    d = v(T1) * v(T1) - v(T12) - 2
    assert d.evaluate({T1: 2, T12: 2}) == 0
    assert Poly.const(2).evaluate({}) == 2
    p = v(T1) * v(T12)
    assert p.evaluate({T1: 3, T12: Fraction(5, 2)}) == Fraction(15, 2)
    with pytest.raises(PolyEvalError):
        p.evaluate({T1: 3})


def test_coeff_predicates():
    assert is_integral(5) and is_integral(Fraction(4, 2))
    assert not is_integral(Fraction(1, 2))
    assert is_dyadic(Fraction(3, 8)) and is_dyadic(7)
    assert not is_dyadic(Fraction(1, 3))


def test_laurent_arith_examples():
    x1 = LaurentPoly.monomial(2, (1, 0))
    x1i = LaurentPoly.monomial(2, (-1, 0))
    x2 = LaurentPoly.monomial(2, (0, 1))
    x2i = LaurentPoly.monomial(2, (0, -1))
    product = (x1 + x1i) * (x2 + x2i)
    assert product == LaurentPoly(
        2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}
    )
    square = (x1 - x1i) ** 2
    assert square == LaurentPoly(2, {(2, 0): 1, (0, 0): -2, (-2, 0): 1})
    assert square + LaurentPoly.zero(2) == square


def test_laurent_rank_mismatch():
    assert LaurentPoly.zero(2) != LaurentPoly.zero(3)
    assert LaurentPoly.const(2, 1) != LaurentPoly.const(3, 1)
    x2, x3 = LaurentPoly.monomial(2, (1, 0)), LaurentPoly.monomial(3, (1, 0, 0))
    with pytest.raises(PolyError):
        x2 + x3
    with pytest.raises(PolyError):
        x2 * x3


@pytest.mark.parametrize(
    "x, total",
    [
        (v(T1), Poly.sum),
        (LaurentPoly.monomial(2, (1, -1)), lambda ps: LaurentPoly.sum(2, ps)),
    ],
    ids=["Poly", "LaurentPoly"],
)
def test_shared_sparse_core(x, total):
    assert (x - x).is_zero()
    assert x**0 == 1
    half, three_halves = Fraction(1, 2) * x, Fraction(3, 2) * x
    for doubled in (half + three_halves, half * 4, total([three_halves, half])):
        assert doubled == 2 * x
        assert all(type(c) is int for c in doubled.terms.values())
    assert all(type(c) is int for c in (half * (4 * x)).terms.values())
    assert total([x, half, -x, -half]).terms == {}


def test_is_symmetric_examples():
    x1 = LaurentPoly.monomial(1, (1,))
    x1i = LaurentPoly.monomial(1, (-1,))
    assert (x1 + x1i).is_symmetric()
    assert not (x1 - x1i).is_symmetric()
    assert LaurentPoly(2, {(1, 1): 1, (-1, -1): 1}).is_symmetric()


def test_tau_symmetrization_always_symmetric():
    rng = random.Random(5)
    for _ in range(200):
        rank = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            ev = tuple(rng.randint(-3, 3) for _ in range(rank))
            terms[ev] = terms.get(ev, 0) + rng.randint(-5, 5)
        p = LaurentPoly(rank, terms)
        assert (p + p.invert_variables()).is_symmetric()


def test_laurent_ring_axioms_random():
    rng = random.Random(6)

    def random_laurent(rank):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            ev = tuple(rng.randint(-2, 2) for _ in range(rank))
            terms[ev] = rng.randint(-4, 4)
        return LaurentPoly(rank, terms)

    for _ in range(200):
        rank = rng.randint(1, 3)
        p, q, r = (random_laurent(rank) for _ in range(3))
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)


def test_json_round_trip_and_stability():
    p = Poly(
        {
            ((T12, 2), (T2, 1)): Fraction(-3, 2),
            ((T1, 1),): 4,
            (): 1,
        }
    )
    blob = json.dumps(poly_to_dict(p))
    assert poly_from_dict(json.loads(blob)) == p
    assert json.dumps(poly_to_dict(p)) == blob  # byte-stable

    lp = LaurentPoly(3, {(1, -1, 0): 2, (0, 0, 0): Fraction(1, 2)})
    blob2 = json.dumps(laurent_to_dict(lp))
    assert laurent_from_dict(json.loads(blob2)) == lp


def test_pretty_printer():
    assert poly_pretty(Poly.zero()) == "0"
    assert poly_pretty(v(T1) * v(T2) - v(T12)) == "t1*t2 - t[1,2]"
    assert poly_pretty(v(T1) * v(T1) - 2) == "t1^2 - 2"
    assert poly_pretty(Fraction(1, 2) * v(T1)) == "1/2*t1"
    assert poly_pretty(-v(T1) + 1) == "-t1 + 1"
