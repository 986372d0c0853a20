import json
import random
from fractions import Fraction

import pytest

from skeinlab.exactpoly import (
    FIELD_BITS,
    LaurentPoly,
    PackedPoly,
    Poly,
    PolyDivisionError,
    PolyError,
    PolyEvalError,
    SubsetVar,
    is_dyadic,
    is_integral,
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


def _reference_divide(p, d, var_order):
    """Division that re-sorts the whole remainder at every step."""
    order_pos = {var: i for i, var in enumerate(var_order)}

    def lex_key(item):
        dense = [0] * len(order_pos)
        for var, e in item[0]:
            dense[order_pos[var]] = e
        return tuple(dense)

    lt_mono, lt_coeff = sorted(d.terms.items(), key=lex_key, reverse=True)[0]
    lt_exp = dict(lt_mono)
    quotient, remainder, rest = Poly.zero(), Poly.zero(), p
    while not rest.is_zero():
        mono, coeff = sorted(rest.terms.items(), key=lex_key, reverse=True)[0]
        exp = dict(mono)
        if all(exp.get(var, 0) >= e for var, e in lt_exp.items()):
            qexp = {var: e - lt_exp.get(var, 0) for var, e in exp.items()}
            pairs = [(var, e) for var, e in qexp.items() if e > 0]
            qm = tuple(sorted(pairs, key=lambda t: t[0].sort_key))
            qpoly = Poly({qm: Fraction(coeff) / Fraction(lt_coeff)})
            quotient = quotient + qpoly
            rest = rest - qpoly * d
        else:
            tpoly = Poly({mono: coeff})
            remainder = remainder + tpoly
            rest = rest - tpoly
    return quotient, remainder


def test_divide_matches_reference():
    rng = random.Random(17)
    variables = [T1, T2, T12]
    coeffs = [1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)]

    def random_poly(terms, degree):
        p = Poly.zero()
        for _ in range(terms):
            mono = tuple((var, e) for var in variables if (e := rng.randint(0, degree)))
            p = p + Poly({mono: rng.choice(coeffs)})
        return p

    exact = nonzero_remainders = 0
    for trial in range(300):
        order = rng.sample(variables, 3)
        d = random_poly(rng.randint(1, 4), 2)
        if d.is_zero():
            continue
        p = random_poly(rng.randint(0, 12), 4)
        if trial % 3 == 0:
            p = p * d  # exact division, remainder zero
        q, r = poly_divide(p, d, order)
        q_ref, r_ref = _reference_divide(p, d, order)
        # The same terms, in the same order, with integral coefficients as ints.
        assert list(q.terms.items()) == list(q_ref.terms.items())
        assert list(r.terms.items()) == list(r_ref.terms.items())
        for c in [*q.terms.values(), *r.terms.values()]:
            assert type(c) is int or c.denominator > 1
        assert q * d + r == p
        exact += r.is_zero()
        nonzero_remainders += not r.is_zero()
    assert exact > 50 and nonzero_remainders > 50


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
    x1 = LaurentPoly(2, {(1, 0): 1})
    x1i = LaurentPoly(2, {(-1, 0): 1})
    x2 = LaurentPoly(2, {(0, 1): 1})
    x2i = LaurentPoly(2, {(0, -1): 1})
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
    x2, x3 = LaurentPoly(2, {(1, 0): 1}), LaurentPoly(3, {(1, 0, 0): 1})
    with pytest.raises(PolyError):
        x2 + x3
    with pytest.raises(PolyError):
        x2 * x3


@pytest.mark.parametrize(
    "x, total",
    [
        (v(T1), Poly.sum),
        (LaurentPoly(2, {(1, -1): 1}), lambda ps: sum(ps, LaurentPoly.zero(2))),
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


def _inverted(p):
    """Terms of p under the involution x_i -> x_i^(-1)."""
    return {tuple(-e for e in ev): c for ev, c in p.terms.items()}


def test_is_symmetric_examples():
    x1 = LaurentPoly(1, {(1,): 1})
    x1i = LaurentPoly(1, {(-1,): 1})
    assert (x1 + x1i).terms == {(1,): 1, (-1,): 1}
    assert (x1 - x1i).terms == {(1,): 1, (-1,): -1}
    assert _inverted(x1 - x1i) != (x1 - x1i).terms
    p = LaurentPoly(2, {(1, 1): 1, (-1, -1): 1})
    assert _inverted(p) == p.terms


def test_tau_symmetrization_always_symmetric():
    rng = random.Random(5)
    for _ in range(200):
        rank = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            ev = tuple(rng.randint(-3, 3) for _ in range(rank))
            terms[ev] = terms.get(ev, 0) + rng.randint(-5, 5)
        p = LaurentPoly(rank, terms)
        tau = p + LaurentPoly(rank, _inverted(p))
        assert _inverted(tau) == tau.terms


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
    assert laurent_to_dict(lp) == {
        "rank": 3,
        "terms": [
            {"coeff": "1/2", "exponents": [0, 0, 0]},
            {"coeff": "2", "exponents": [1, -1, 0]},
        ],
    }


@pytest.mark.parametrize(
    "entry",
    [
        {"subset": [1], "power": 1.5},
        {"subset": [1], "power": True},
        {"subset": [1], "power": 0},
        {"subset": [1], "power": "2"},
    ],
)
def test_poly_from_dict_refuses_malformed_powers(entry):
    with pytest.raises(PolyError, match="power"):
        poly_from_dict({"terms": [{"coeff": "1", "monomial": [entry]}]})


def test_poly_from_dict_refuses_a_repeated_variable():
    t1 = {"subset": [1], "power": 1}
    with pytest.raises(PolyError, match="twice"):
        poly_from_dict({"terms": [{"coeff": "1", "monomial": [t1, dict(t1)]}]})


def test_pretty_printer():
    assert poly_pretty(Poly.zero()) == "0"
    assert poly_pretty(v(T1) * v(T2) - v(T12)) == "t1*t2 - t[1,2]"
    assert poly_pretty(v(T1) * v(T1) - 2) == "t1^2 - 2"
    assert poly_pretty(Fraction(1, 2) * v(T1)) == "1/2*t1"
    assert poly_pretty(-v(T1) + 1) == "-t1 + 1"


_GENERATORS = {
    Poly: lambda: (v(T1), v(T2)),
    LaurentPoly: lambda: (
        LaurentPoly(2, {(1, 0): 1}),
        LaurentPoly(2, {(0, 1): 1}),
    ),
    PackedPoly: lambda: (PackedPoly.variable(T1), PackedPoly.variable(T2)),
}


@pytest.mark.parametrize("cls", list(_GENERATORS), ids=lambda c: c.__name__)
def test_integral_results_of_fraction_inputs_are_ints(cls):
    x, y = _GENERATORS[cls]()
    half = Fraction(1, 2)
    a = half * x + half * y  # Fraction coefficients
    b = Fraction(3, 2) * x - half * y
    results = [
        a * (2 * x),  # one-term factor
        (2 * x) * a,
        a * (2 * x + 2 * y),  # general product
        (2 * x + 2 * y) * a,
        a + b,
        a - (Fraction(-3, 2) * x + half * y),
        b - a,
        Fraction(5, 2) * y - (Fraction(1, 2) * y - 4 * x) + 0 * a,
        Fraction(1, 2) - (half - a) - a + x,  # reflected subtraction
        4 * a,
        a * Fraction(6),
        Fraction(2) * a,
        (x * half) * (y * 2),
    ]
    for p in results:
        assert p.terms, p
        assert all(type(c) is int for c in p.terms.values()), p.terms


def test_packed_monomials_unpack_sorted_by_variable():
    t3 = SubsetVar((3,))
    t1, t12 = PackedPoly.variable(T1), PackedPoly.variable(T12)
    p = t12 * t1**3 * PackedPoly.variable(t3)
    [(key, c)] = p.terms.items()
    assert c == 1
    assert PackedPoly.unpack(key, SubsetVar) == ((T1, 3), (t3, 1), (T12, 1))
    top = 2**FIELD_BITS - 1
    [key] = (PackedPoly.variable(T2) ** top).terms
    assert PackedPoly.unpack(key, SubsetVar) == ((T2, top),)
