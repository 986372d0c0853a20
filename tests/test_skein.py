import itertools
import random
from fractions import Fraction

import pytest

from skeinlab.exactpoly import LaurentPoly, Poly, PolyError, SubsetVar, is_integral
from skeinlab.oracle import eval_word, sample_representation, subset_traces
from skeinlab.skein import (
    AbelianVar,
    SkeinElement,
    SkeinError,
    abelian_from_vector,
    from_word,
    multiply,
    parse_abelian_var,
    to_laurent,
)
from skeinlab.trace_engine import ReductionMode
from skeinlab.words import AbelianVector, concat, invert, parse_word, reduce_word

T1 = SubsetVar((1,))
T2 = SubsetVar((2,))
T12 = SubsetVar((1, 2))
U1 = AbelianVar((1,))
U2 = AbelianVar((2,))
V12 = AbelianVar((1, 2))


def v(var):
    return Poly.variable(var)


def expected_laurent(vec: AbelianVector) -> LaurentPoly:
    return LaurentPoly(vec.rank, {tuple(vec.coords): 1}) + LaurentPoly(
        vec.rank, {tuple(-c for c in vec.coords): 1}
    )


def test_from_word_examples():
    assert from_word(parse_word("e", 2)).poly == Poly.const(2)
    assert from_word(parse_word("a b", 2)).poly == v(T12)
    assert from_word(parse_word("a b^-1", 2)).poly == v(T1) * v(T2) - v(T12)


def test_multiply_generator_examples():
    a = from_word(parse_word("a", 2))
    b = from_word(parse_word("b", 2))
    product = multiply(a, b)
    assert product.poly == v(T1) * v(T2)
    two_path = from_word(parse_word("a b", 2)).poly + from_word(
        parse_word("a b^-1", 2)
    ).poly
    assert product.poly == two_path

    square = multiply(a, a)
    assert square.poly == v(T1) * v(T1)
    assert square.poly == from_word(parse_word("a^2", 2)).poly + Poly.const(2)


def test_identity_class_doubles():
    rng = random.Random(30)
    e = from_word(parse_word("e", 3))
    for _ in range(50):
        w = reduce_word(
            [(rng.randint(1, 3), rng.choice((-2, -1, 1, 2))) for _ in range(5)], 3
        )
        x = from_word(w)
        assert multiply(e, x).poly == 2 * x.poly


def test_multiply_requires_matching_rank_and_mode():
    a2 = from_word(parse_word("a", 2))
    a3 = from_word(parse_word("a", 3))
    with pytest.raises(SkeinError):
        multiply(a2, a3)
    dyadic = from_word(parse_word("a", 2), ReductionMode.DYADIC)
    with pytest.raises(SkeinError):
        multiply(a2, dyadic)


def test_homomorphism_semantics_against_oracle():
    rng = random.Random(31)
    for _ in range(200):
        rank = rng.randint(1, 3)
        w1 = reduce_word(
            [(rng.randint(1, rank), rng.choice((-2, -1, 1, 2))) for _ in range(5)],
            rank,
        )
        w2 = reduce_word(
            [(rng.randint(1, rank), rng.choice((-2, -1, 1, 2))) for _ in range(5)],
            rank,
        )
        product = multiply(from_word(w1), from_word(w2))
        images = sample_representation(rng, rank)
        variables = product.poly.variables()
        traces = subset_traces(images, [var.subset for var in variables])
        assert (
            product.poly.evaluate(dict(zip(variables, traces)))
            == eval_word(w1, images).trace * eval_word(w2, images).trace
        )


def test_commutativity_and_associativity():
    rng = random.Random(32)
    for _ in range(200):
        rank = rng.randint(1, 3)
        xs = [
            from_word(
                reduce_word(
                    [
                        (rng.randint(1, rank), rng.choice((-2, -1, 1, 2)))
                        for _ in range(4)
                    ],
                    rank,
                )
            )
            for _ in range(3)
        ]
        x, y, z = xs
        assert multiply(x, y).poly == multiply(y, x).poly
        assert multiply(multiply(x, y), z).poly == multiply(x, multiply(y, z)).poly


def test_class_invariance_under_inverse_and_rotation():
    rng = random.Random(33)
    for _ in range(200):
        rank = rng.randint(1, 3)
        w1 = reduce_word(
            [(rng.randint(1, rank), rng.choice((-2, -1, 1, 2))) for _ in range(5)],
            rank,
        )
        w2 = reduce_word(
            [(rng.randint(1, rank), rng.choice((-2, -1, 1, 2))) for _ in range(5)],
            rank,
        )
        assert from_word(invert(w1)).poly == from_word(w1).poly
        assert from_word(concat(w1, w2)).poly == from_word(concat(w2, w1)).poly
        # psi-semantics: [g] + [g^-1] = 2[g].
        assert from_word(w1).poly + from_word(invert(w1)).poly == 2 * from_word(w1).poly


def test_abelian_from_vector_examples():
    assert abelian_from_vector(AbelianVector(2, (1, 0))).poly == v(U1)
    assert abelian_from_vector(AbelianVector(2, (2, 0))).poly == v(U1) * v(U1) - 2
    assert (
        abelian_from_vector(AbelianVector(2, (1, -1))).poly
        == v(U1) * v(U2) - v(V12)
    )
    assert abelian_from_vector(AbelianVector(2, (0, 0))).poly == Poly.const(2)


def test_abelian_multiply_examples():
    e1 = abelian_from_vector(AbelianVector(2, (1, 0)))
    e2 = abelian_from_vector(AbelianVector(2, (0, 1)))
    assert multiply(e1, e2).poly == v(U1) * v(U2)
    zero = abelian_from_vector(AbelianVector(2, (0, 0)))
    assert multiply(zero, e1).poly == 2 * v(U1)
    square = multiply(e1, e1)
    two_path = (
        abelian_from_vector(AbelianVector(2, (2, 0))).poly
        + abelian_from_vector(AbelianVector(2, (0, 0))).poly
    )
    assert square.poly == v(U1) * v(U1) == two_path


def test_to_laurent_examples():
    assert to_laurent(abelian_from_vector(AbelianVector(2, (1, 0)))) == LaurentPoly(
        2, {(1, 0): 1, (-1, 0): 1}
    )
    assert to_laurent(abelian_from_vector(AbelianVector(2, (1, 1)))) == LaurentPoly(
        2, {(1, 1): 1, (-1, -1): 1}
    )
    assert to_laurent(
        abelian_from_vector(AbelianVector(2, (0, 0)))
    ) == LaurentPoly.const(2, 2)
    with pytest.raises(SkeinError):
        to_laurent(from_word(parse_word("a", 2)))


def test_to_laurent_rescales_dyadic_coefficients():
    # Elements that are not images of vectors keep fractional Laurent
    # coefficients, so a wrong divide-back after the integer evaluation shows.
    def element(poly):
        return SkeinElement(2, ReductionMode.DYADIC, "abelian", poly)

    half_u1u2 = Fraction(1, 2) * v(U1) * v(U2)
    assert to_laurent(element(half_u1u2)) == LaurentPoly(
        2,
        {
            (1, 1): Fraction(1, 2),
            (1, -1): Fraction(1, 2),
            (-1, 1): Fraction(1, 2),
            (-1, -1): Fraction(1, 2),
        },
    )
    three_quarters_v12 = Fraction(3, 4) * v(V12)
    assert to_laurent(element(three_quarters_v12)) == LaurentPoly(
        2, {(1, 1): Fraction(3, 4), (-1, -1): Fraction(3, 4)}
    )
    mixed = to_laurent(element(half_u1u2 + three_quarters_v12 + 1))
    assert mixed == LaurentPoly(
        2,
        {
            (1, 1): Fraction(5, 4),
            (1, -1): Fraction(1, 2),
            (-1, 1): Fraction(1, 2),
            (-1, -1): Fraction(5, 4),
            (0, 0): 1,
        },
    )
    assert type(mixed.terms[(0, 0)]) is int


def reference_laurent(rank: int, poly: Poly) -> LaurentPoly:
    # Expand sum c * prod (x^s + x^-s)^e term by term, s the support of each
    # variable, with LaurentPoly's own ring operations.
    def image(var):
        s = tuple(int(i in var.indices) for i in range(1, rank + 1))
        return LaurentPoly(rank, {s: 1, tuple(-e for e in s): 1})

    total = LaurentPoly.zero(rank)
    for m, c in poly.terms.items():
        piece = LaurentPoly.const(rank, c)
        for var, e in m:
            piece = piece * image(var) ** e
        total = total + piece
    return total


def test_to_laurent_matches_reference_expansion():
    rng = random.Random(38)
    polys = []
    for _ in range(150):
        rank = rng.randint(1, 4)
        gens = [
            AbelianVar(s)
            for k in range(1, rank + 1)
            for s in itertools.combinations(range(1, rank + 1), k)
        ]
        terms = {}
        for _ in range(rng.randint(1, 6)):
            left, mono = rng.randint(0, 12), []
            for var in rng.sample(gens, rng.randint(0, min(3, len(gens)))):
                e = rng.randint(0, left)
                mono.append((var, e))
                left -= e
            terms[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
        polys.append((rank, Poly(terms)))
    u1, v12 = v(U1), v(V12)
    U3, V34, W124 = AbelianVar((3,)), AbelianVar((3, 4)), AbelianVar((1, 2, 4))
    polys += [
        (3, Poly.zero()),
        (2, Poly.const(Fraction(-7, 2))),
        (1, u1**12),
        (2, v12**12),
        (2, u1**5 - Fraction(1, 4) * v12**7 + 3),
        (
            4,
            u1 * v(V34)
            - Fraction(3, 2) * v(W124) ** 2
            + 5 * v(U3) ** 3 * v(U2)
            - v12 * v(W124) * v(V34)
            - 11,
        ),
    ]
    for rank, poly in polys:
        element = SkeinElement(rank, ReductionMode.DYADIC, "abelian", poly)
        got, want = to_laurent(element), reference_laurent(rank, poly)
        assert got.rank == rank and got.terms == want.terms
        assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


def test_abelian_round_trip_random():
    rng = random.Random(34)
    for _ in range(200):
        n = rng.randint(1, 4)
        vec = AbelianVector(n, tuple(rng.randint(-5, 5) for _ in range(n)))
        assert to_laurent(abelian_from_vector(vec)) == expected_laurent(vec)


def test_abelian_product_soundness_random():
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randint(1, 4)
        v1 = AbelianVector(n, tuple(rng.randint(-3, 3) for _ in range(n)))
        v2 = AbelianVector(n, tuple(rng.randint(-3, 3) for _ in range(n)))
        x, y = abelian_from_vector(v1), abelian_from_vector(v2)
        assert to_laurent(multiply(x, y)) == to_laurent(x) * to_laurent(y)


def test_abelian_commutativity_and_associativity():
    rng = random.Random(36)
    for _ in range(200):
        n = rng.randint(1, 3)
        xs = [
            abelian_from_vector(
                AbelianVector(n, tuple(rng.randint(-3, 3) for _ in range(n)))
            )
            for _ in range(3)
        ]
        x, y, z = xs
        assert multiply(x, y).poly == multiply(y, x).poly
        assert (
            multiply(multiply(x, y), z).poly
            == multiply(x, multiply(y, z)).poly
        )


def test_abelian_integral_mode():
    # Integral canonical forms use 0/1-support generators with integer
    # coefficients and agree with the dyadic forms under the Laurent map.
    rng = random.Random(37)
    el = abelian_from_vector(AbelianVector(3, (1, 1, 1)), ReductionMode.INTEGRAL)
    assert [str(x) for x in el.poly.variables()] == ["w[1,2,3]"]
    for _ in range(100):
        n = rng.randint(1, 3)
        vec = AbelianVector(n, tuple(rng.randint(-4, 4) for _ in range(n)))
        integral = abelian_from_vector(vec, ReductionMode.INTEGRAL)
        assert all(is_integral(c) for c in integral.poly.terms.values())
        assert all(
            set(var.indices) <= set(range(1, n + 1))
            for var in integral.poly.variables()
        )
        assert to_laurent(integral) == expected_laurent(vec)


def test_dyadic_half_integers_appear():
    el = abelian_from_vector(AbelianVector(3, (1, 1, 1)))
    assert any(
        isinstance(c, Fraction) and c.denominator == 2
        for c in el.poly.terms.values()
    )


def test_abelian_var_parsing():
    assert parse_abelian_var("u3") == AbelianVar((3,))
    assert parse_abelian_var("v[1,2]") == AbelianVar((1, 2))
    assert parse_abelian_var("w[1,2,3]") == AbelianVar((1, 2, 3))
    with pytest.raises(SkeinError):
        parse_abelian_var("q7")


def test_interned_variable_repr_is_the_class_and_index_tuple():
    # Built once at intern time, with the text the subclasses used to build.
    for var, text in [
        (SubsetVar((1, 2)), "SubsetVar((1, 2))"),
        (SubsetVar((3,)), "SubsetVar((3,))"),
        (SubsetVar([9, 5, 9]), "SubsetVar((5, 9))"),
        (AbelianVar((3,)), "AbelianVar((3,))"),
        (AbelianVar((2, 1)), "AbelianVar((1, 2))"),
        (AbelianVar((1, 4, 6)), "AbelianVar((1, 4, 6))"),
    ]:
        assert repr(var) == text
    # The text a term list's repr shows, as hashed by the benchmark digest.
    terms = (Poly.variable(SubsetVar((1, 2))) * Poly.variable(SubsetVar((3,)))).terms
    assert repr(list(terms.items())) == (
        "[(((SubsetVar((3,)), 1), (SubsetVar((1, 2)), 1)), 1)]"
    )


def test_interned_variables_share_one_base():
    # One object per index set and per class, so equality is identity.
    assert SubsetVar([2, 1, 2]) is T12
    assert AbelianVar(iter((2, 1))) is V12
    assert V12 != T12 and {V12: 1}.get(T12) is None
    assert type(T12).__hash__ is object.__hash__
    assert sorted([T12, T2, T1]) == [T1, T2, T12]
    assert sorted([V12, U2, U1], key=lambda var: var.sort_key) == [U1, U2, V12]
    assert (str(T12), repr(T12), str(V12), repr(V12)) == (
        "t[1,2]",
        "SubsetVar((1, 2))",
        "v[1,2]",
        "AbelianVar((1, 2))",
    )
    with pytest.raises(PolyError):
        SubsetVar(())
    with pytest.raises(SkeinError):
        AbelianVar((0, 1))
