import json
import random
import sys

from skeinlab.exactpoly import (
    Poly,
    SubsetVar,
    is_dyadic,
    is_integral,
    poly_to_dict,
)
from skeinlab.oracle import (
    eval_word,
    sample_representation,
    sample_sl2,
    subset_trace_assignment,
)
from skeinlab.trace_engine import (
    ReductionMode,
    TraceEngine,
    get_engine,
    reduce_trace,
    skein_basis_vars,
)
from skeinlab.words import concat, invert, parse_word, reduce_word

T1 = SubsetVar((1,))
T2 = SubsetVar((2,))
T3 = SubsetVar((3,))
T12 = SubsetVar((1, 2))
T13 = SubsetVar((1, 3))
T23 = SubsetVar((2, 3))
T123 = SubsetVar((1, 2, 3))


def v(var):
    return Poly.variable(var)


def test_identity_and_generator():
    assert reduce_trace(parse_word("e", 2), ReductionMode.INTEGRAL) == Poly.const(2)
    assert reduce_trace(parse_word("a", 2), ReductionMode.INTEGRAL) == v(T1)


def test_square_matches_matrix_oracle():
    expected = v(T1) * v(T1) - 2
    assert reduce_trace(parse_word("a^2", 1), ReductionMode.INTEGRAL) == expected
    rng = random.Random(20)
    for _ in range(50):
        m = sample_sl2(rng, 6)
        assert (m * m).trace == m.trace * m.trace - 2


def test_ab_inverse_matches_matrix_oracle():
    poly = reduce_trace(parse_word("a b^-1", 2), ReductionMode.INTEGRAL)
    assert poly == v(T1) * v(T2) - v(T12)
    rng = random.Random(21)
    for _ in range(50):
        m, n = sample_sl2(rng, 6), sample_sl2(rng, 6)
        assert (m * n.inverse()).trace == m.trace * n.trace - (m * n).trace


def test_cyclic_rotation_is_free():
    assert reduce_trace(parse_word("b a", 2), ReductionMode.INTEGRAL) == v(T12)


def test_three_term_sort_identity():
    poly = reduce_trace(parse_word("a c b", 3), ReductionMode.INTEGRAL)
    expected = (
        v(T1) * v(T23)
        + v(T2) * v(T13)
        + v(T3) * v(T12)
        - v(T1) * v(T2) * v(T3)
        - v(T123)
    )
    assert poly == expected
    # Exact matrix-oracle check of the canonical form.
    rng = random.Random(22)
    for _ in range(50):
        rep = sample_representation(rng, 3)
        word = parse_word("a c b", 3)
        assignment = subset_trace_assignment(rep, poly.variables())
        assert poly.evaluate(assignment) == eval_word(word, rep).trace


def test_dyadic_abcd_uses_small_subsets_with_halves():
    poly = reduce_trace(parse_word("a b c d", 4), ReductionMode.DYADIC)
    assert all(len(var.subset) <= 3 for var in poly.variables())
    assert any(not is_integral(c) for c in poly.terms.values())
    assert all(is_dyadic(c) for c in poly.terms.values())
    rng = random.Random(23)
    for _ in range(50):
        rep = sample_representation(rng, 4)
        assignment = subset_trace_assignment(rep, poly.variables())
        value = poly.evaluate(assignment)
        assert value == eval_word(parse_word("a b c d", 4), rep).trace


def test_oracle_soundness_random_words():
    rng = random.Random(24)
    engines = {mode: get_engine(mode) for mode in ReductionMode}
    for _ in range(200):
        rank = rng.randint(1, 4)
        rep = sample_representation(rng, rank)
        pairs = [
            (rng.randint(1, rank), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 5))
        ]
        w = reduce_word(pairs, rank)
        expected = eval_word(w, rep).trace
        for mode, engine in engines.items():
            poly = engine.reduce(w)
            assignment = subset_trace_assignment(rep, poly.variables())
            assert poly.evaluate(assignment) == expected


def test_conjugation_and_inversion_invariance():
    rng = random.Random(25)
    engine = get_engine(ReductionMode.INTEGRAL)
    for _ in range(200):
        rank = rng.randint(1, 3)
        w = reduce_word(
            [(rng.randint(1, rank), rng.choice((-2, -1, 1, 2))) for _ in range(6)],
            rank,
        )
        u = reduce_word(
            [(rng.randint(1, rank), rng.choice((-1, 1))) for _ in range(4)], rank
        )
        base = engine.reduce(w)
        assert engine.reduce(concat(u, w, invert(u))) == base
        assert engine.reduce(invert(w)) == base


def test_mode_discipline():
    rng = random.Random(26)
    for _ in range(100):
        rank = rng.randint(1, 4)
        w = reduce_word(
            [(rng.randint(1, rank), rng.choice((-2, -1, 1, 2))) for _ in range(6)],
            rank,
        )
        integral = reduce_trace(w, ReductionMode.INTEGRAL)
        assert all(is_integral(c) for c in integral.terms.values())
        dyadic = reduce_trace(w, ReductionMode.DYADIC)
        assert all(len(var.subset) <= 3 for var in dyadic.variables())
        assert all(is_dyadic(c) for c in dyadic.terms.values())


def test_rank2_closure_integer_coefficients_both_modes():
    rng = random.Random(27)
    allowed = {T1, T2, T12}
    for _ in range(100):
        w = reduce_word(
            [(rng.randint(1, 2), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(7)],
            2,
        )
        for mode in ReductionMode:
            poly = reduce_trace(w, mode)
            assert set(poly.variables()) <= allowed
            assert all(is_integral(c) for c in poly.terms.values())


def test_skein_basis_vars_counts():
    assert [str(x) for x in skein_basis_vars(2, ReductionMode.INTEGRAL)] == [
        "t1",
        "t2",
        "t[1,2]",
    ]
    assert len(skein_basis_vars(4, ReductionMode.INTEGRAL)) == 15
    assert len(skein_basis_vars(4, ReductionMode.DYADIC)) == 14
    assert len(skein_basis_vars(2, ReductionMode.DYADIC)) == 3
    assert len(skein_basis_vars(6, ReductionMode.DYADIC)) == 6 + 15 + 20


def test_memo_matches_fresh_recomputation():
    shared = {}
    warm = TraceEngine(ReductionMode.INTEGRAL, memo=shared)
    rng = random.Random(28)
    words = [
        reduce_word(
            [(rng.randint(1, 3), rng.choice((-2, -1, 1, 2))) for _ in range(6)], 3
        )
        for _ in range(50)
    ]
    for w in words:
        warm.reduce(w)
    for w in words:
        fresh = TraceEngine(ReductionMode.INTEGRAL)
        assert warm.reduce(w) == fresh.reduce(w)
    assert len(shared) > 0


def test_deterministic_json_output():
    w = parse_word("a b^-1 a c^2", 3)
    one = json.dumps(poly_to_dict(reduce_trace(w, ReductionMode.INTEGRAL)))
    two = json.dumps(poly_to_dict(TraceEngine(ReductionMode.INTEGRAL).reduce(w)))
    assert one == two
    json.loads(one)


def test_deep_word_reduces_under_the_default_recursion_limit():
    # One rewrite step per unit of exponent: far deeper than the limit.
    assert sys.getrecursionlimit() <= 1000
    w = parse_word("a^1000 b", 2)
    rng = random.Random(29)
    reps = [sample_representation(rng, 2) for _ in range(3)]
    for mode in ReductionMode:
        engine = TraceEngine(mode, rule_k4=get_engine(mode).rule_k4)
        poly = engine.reduce(w)
        assert len(poly.terms) == 1000
        for rep in reps:
            assignment = subset_trace_assignment(rep, poly.variables())
            assert poly.evaluate(assignment) == eval_word(w, rep).trace
