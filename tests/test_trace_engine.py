import json
import random
import sys
from fractions import Fraction

import pytest

from skeinlab.exactpoly import (
    FIELD_BITS,
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
    subset_traces,
)
from skeinlab.trace_engine import (
    MAX_SYMBOL_LENGTH,
    EngineError,
    ReductionMode,
    RuleK4,
    TraceEngine,
    get_engine,
    reduce_trace,
    skein_basis_vars,
)
from skeinlab.words import concat, cyclic_key, invert, parse_word, reduce_word

T1 = SubsetVar((1,))
T2 = SubsetVar((2,))
T3 = SubsetVar((3,))
T12 = SubsetVar((1, 2))
T13 = SubsetVar((1, 3))
T23 = SubsetVar((2, 3))
T123 = SubsetVar((1, 2, 3))


def v(var):
    return Poly.variable(var)


def _value_at(poly, images):
    """poly at the subset traces of the generator images."""
    variables = poly.variables()
    traces = subset_traces(images, [var.subset for var in variables])
    return poly.evaluate(dict(zip(variables, traces)))


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
        images = sample_representation(rng, 3)
        word = parse_word("a c b", 3)
        assert _value_at(poly, images) == eval_word(word, images).trace


def test_dyadic_abcd_uses_small_subsets_with_halves():
    poly = reduce_trace(parse_word("a b c d", 4), ReductionMode.DYADIC)
    assert all(len(var.subset) <= 3 for var in poly.variables())
    assert any(not is_integral(c) for c in poly.terms.values())
    assert all(is_dyadic(c) for c in poly.terms.values())
    rng = random.Random(23)
    for _ in range(50):
        images = sample_representation(rng, 4)
        value = _value_at(poly, images)
        assert value == eval_word(parse_word("a b c d", 4), images).trace


def test_oracle_soundness_random_words():
    rng = random.Random(24)
    engines = {mode: get_engine(mode) for mode in ReductionMode}
    for _ in range(200):
        rank = rng.randint(1, 4)
        images = sample_representation(rng, rank)
        pairs = [
            (rng.randint(1, rank), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 5))
        ]
        w = reduce_word(pairs, rank)
        expected = eval_word(w, images).trace
        for mode, engine in engines.items():
            assert _value_at(engine.reduce(w), images) == expected


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
    warm = TraceEngine(ReductionMode.INTEGRAL)
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
    assert len(warm.memo) > 0


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
    samples = [sample_representation(rng, 2) for _ in range(3)]
    for mode in ReductionMode:
        engine = TraceEngine(mode, rule_k4=get_engine(mode).rule_k4)
        poly = engine.reduce(w)
        assert len(poly.terms) == 1000
        for images in samples:
            assert _value_at(poly, images) == eval_word(w, images).trace


def test_word_longer_than_the_packed_field_is_refused():
    engine = TraceEngine(ReductionMode.INTEGRAL)
    assert MAX_SYMBOL_LENGTH == 2**FIELD_BITS - 1
    with pytest.raises(EngineError, match="too long"):
        engine.reduce(parse_word(f"a^{MAX_SYMBOL_LENGTH} b", 2))
    with pytest.raises(EngineError, match="too long"):
        engine.reduce(parse_word("a^99999999999", 1))
    # The limit applies after cyclic reduction: a conjugate of b is short.
    assert engine.reduce(parse_word("a^2000 b a^-2000", 2)) == v(T2)
    top = engine.reduce(parse_word(f"a^{MAX_SYMBOL_LENGTH}", 1))
    assert max(m[0][1] for m in top.terms if m) == MAX_SYMBOL_LENGTH


def test_rule_of_weight_above_four_is_refused():
    rule = get_engine(ReductionMode.DYADIC).rule_k4
    heavy = ((((1,), 3), ((2,), 1), ((3,), 1), ((4,), 1)), 1)
    bad = RuleK4(rule.coefficients + (heavy,), weight_bound=6, seed=rule.seed)
    with pytest.raises(EngineError, match="each block once"):
        TraceEngine(ReductionMode.DYADIC, rule_k4=bad)


class _ReferenceEngine:
    """The rewriting rules on Poly values, as the engine ran them before it
    moved to packed monomials and integer dyadic numerators."""

    def __init__(self, mode, rule_k4=None):
        self.mode, self.rule_k4, self.memo = mode, rule_k4, {}

    def reduce(self, word):
        memo = self.memo
        key = cyclic_key(word)
        value = memo.get(key)
        if value is not None:
            return value
        stack = [(key, self._rewrite(key))]
        while stack:
            key, rewrite = stack[-1]
            try:
                rank, pairs = rewrite.send(value)
            except StopIteration as done:
                stack.pop()
                value = memo[key] = done.value
                continue
            child = cyclic_key(reduce_word(pairs, rank))
            value = memo.get(child)
            if value is None:
                stack.append((child, self._rewrite(child)))
        return value

    def _rewrite(self, w):
        letters, rank = w.letters, w.rank
        if not letters:
            return Poly.const(2)
        if len(letters) == 1 and abs(letters[0].exponent) == 1:
            return v(SubsetVar((letters[0].index,)))
        for pos, l in enumerate(letters):  # R1
            e = l.exponent
            if abs(e) >= 2:
                s = 1 if e > 0 else -1
                one = [(x.index, x.exponent) for x in letters]
                two = list(one)
                one[pos], two[pos] = (l.index, e - s), (l.index, e - 2 * s)
                return v(SubsetVar((l.index,))) * (yield rank, one) - (yield rank, two)
        for pos, l in enumerate(letters):  # R2
            if l.exponent == -1:
                vu = [(x.index, x.exponent) for x in letters[pos + 1 :] + letters[:pos]]
                t_g = v(SubsetVar((l.index,)))
                return t_g * (yield rank, vu) - (yield rank, vu + [(l.index, 1)])
        first_at, repeat_pos = {}, None
        for pos, l in enumerate(letters):  # R3
            if l.index in first_at:
                repeat_pos = first_at[l.index]
                break
            first_at[l.index] = pos
        if repeat_pos is not None:
            rot = letters[repeat_pos:] + letters[:repeat_pos]
            second = next(i for i in range(1, len(rot)) if rot[i].index == rot[0].index)
            a_blk, b_blk = rot[1:second], rot[second + 1 :]
            xa = [(l.index, 1) for l in rot[:second]]
            xb = [(rot[0].index, 1)] + [(l.index, 1) for l in b_blk]
            ab_inv = [(l.index, 1) for l in a_blk]
            ab_inv += [(l.index, -1) for l in reversed(b_blk)]
            return (yield rank, xa) * (yield rank, xb) - (yield rank, ab_inv)
        mpos = min(range(len(letters)), key=lambda i: letters[i].index)
        rot = letters[mpos:] + letters[:mpos]
        for i in range(len(rot) - 1):  # R4
            if rot[i].index > rot[i + 1].index:
                x, y = rot[i], rot[i + 1]
                a_blk = [(l.index, 1) for l in rot[i + 2 :] + rot[:i]]
                t_x, t_y = v(SubsetVar((x.index,))), v(SubsetVar((y.index,)))
                t_a = yield rank, a_blk
                t_bc = yield rank, [(y.index, 1), (x.index, 1)]
                t_ac = yield rank, a_blk + [(x.index, 1)]
                t_ab = yield rank, a_blk + [(y.index, 1)]
                t_abc = yield rank, a_blk + [(y.index, 1), (x.index, 1)]
                return t_a * t_bc + t_y * t_ac + t_x * t_ab - t_a * t_y * t_x - t_abc
        indices = tuple(l.index for l in rot)
        if self.mode is ReductionMode.INTEGRAL or len(indices) <= 3:
            return v(SubsetVar(indices))
        blocks = ((rot[0],), (rot[1],), (rot[2],), tuple(rot[3:]))  # R5
        acc = Poly.zero()
        for m, c in self.rule_k4.coefficients:
            term = Poly.const(c)
            for subset, power in m:
                pairs = [(l.index, 1) for b in subset for l in blocks[b - 1]]
                term = term * (yield rank, pairs) ** power
            acc = acc + term
        return Fraction(1, 2) * acc


def _assert_same_terms(words, engines, references):
    for w in words:
        for engine, reference in zip(engines, references):
            got, want = engine.reduce(w), reference.reduce(w)
            assert list(got.terms.items()) == list(want.terms.items()), w
            # Integral coefficients are ints, never Fraction(n, 1).
            assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


def _random_words(rng, ranks, count, max_len):
    return [
        reduce_word(
            [
                (rng.randint(1, rank), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(0, max_len))
            ],
            rank,
        )
        for rank in ranks
        for _ in range(count)
    ]


@pytest.mark.parametrize("mode", list(ReductionMode))
def test_packed_engine_matches_poly_reference(mode):
    rule = get_engine(mode).rule_k4
    words = _random_words(random.Random(30), range(1, 7), 40, 6)
    _assert_same_terms(
        words, [TraceEngine(mode, rule_k4=rule)], [_ReferenceEngine(mode, rule)]
    )


def test_packed_engine_matches_reference_past_field_63():
    # Each result has more than 64 variables, so some own a field past 63.
    w = parse_word("g1 g3 g2 g4 g6 g5 g7 g9 g8 g10", 10)
    rule = get_engine(ReductionMode.DYADIC).rule_k4
    for mode in ReductionMode:
        engine = TraceEngine(mode, rule_k4=rule)
        _assert_same_terms([w], [engine], [_ReferenceEngine(mode, rule)])
        variables = engine.reduce(w).variables()
        assert len(variables) > 64
        assert max(var._shift for var in variables) >= 64 * FIELD_BITS


def test_packed_engine_matches_reference_on_deep_word():
    w = parse_word("a^1000 b", 2)
    rule = get_engine(ReductionMode.DYADIC).rule_k4
    for mode in ReductionMode:
        engine = TraceEngine(mode, rule_k4=rule)
        _assert_same_terms([w], [engine], [_ReferenceEngine(mode, rule)])
