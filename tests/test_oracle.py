import random
from fractions import Fraction

import pytest

from skeinlab.oracle import (
    OracleError,
    SL2IntMatrix,
    eval_word,
    fuzz_check,
    random_word,
    sample_representation,
    sample_sl2,
    subset_traces,
)
from skeinlab.trace_engine import ReductionMode, TraceEngine
from skeinlab.words import AbelianVector, parse_word, reduce_word


class _StubRng:
    """Deterministic rng stub: fixed entry, fixed elementary side (0 is upper)."""

    def __init__(self, entry, side=0):
        self.entry = entry
        self.side = side

    def randint(self, a, b):
        return self.entry

    def randrange(self, n):
        return self.side


def test_sample_identity_walk():
    assert sample_sl2(_StubRng(0), 5) == SL2IntMatrix.identity()


def test_sample_single_elementary_step():
    m = sample_sl2(_StubRng(2), 1)
    assert (m.a, m.b, m.c, m.d) == (1, 2, 0, 1)
    assert sample_sl2(_StubRng(2, side=1), 3) == SL2IntMatrix(1, 0, 6, 1)


def test_determinant_enforced():
    with pytest.raises(OracleError):
        SL2IntMatrix(1, 0, 0, 2)
    rng = random.Random(7)
    for _ in range(100):
        m = sample_sl2(rng, 6)
        n = sample_sl2(rng, 6)
        for result in (m * n, m.inverse(), m**3, n**-2):
            assert result.a * result.d - result.b * result.c == 1


def test_sample_determinism():
    a = sample_sl2(random.Random(11), 8)
    b = sample_sl2(random.Random(11), 8)
    assert a == b


def test_eval_word_examples():
    images = (SL2IntMatrix(1, 1, 0, 1), SL2IntMatrix(1, 0, 1, 1))
    assert eval_word(parse_word("e", 2), images) == SL2IntMatrix.identity()
    assert eval_word(parse_word("e", 2), images).trace == 2
    a = images[0]
    assert eval_word(parse_word("a^-1", 2), images) == SL2IntMatrix(
        a.d, -a.b, -a.c, a.a
    )
    ab = eval_word(parse_word("a b", 2), images)
    assert (ab.a, ab.b, ab.c, ab.d) == (2, 1, 1, 1)
    assert ab.trace == 3
    with pytest.raises(OracleError):
        eval_word(parse_word("a", 1), images)


def test_subset_traces_match_the_subset_words():
    # Prefixes missing from the list, and a repeat, are filled in on the way.
    rng = random.Random(13)
    subsets = [(2, 4), (1, 2, 3, 4), (3,), (1, 3), (2, 4), (1, 2, 3)]
    for _ in range(20):
        images = sample_representation(rng, 4)
        expected = [
            eval_word(reduce_word([(i, 1) for i in s], 4), images).trace
            for s in subsets
        ]
        assert subset_traces(images, subsets) == expected
    assert subset_traces(images, []) == []


def test_trace_identities_random_pairs():
    rng = random.Random(8)
    for _ in range(200):
        m = sample_sl2(rng, 6)
        n = sample_sl2(rng, 6)
        assert m.trace == m.inverse().trace
        assert (m * n).trace == (n * m).trace
        assert m.trace * n.trace == (m * n).trace + (m * n.inverse()).trace


def test_fuzz_check_small_runs_clean():
    for mode in ReductionMode:
        report = fuzz_check(count=150, max_rank=4, max_len=10, mode=mode, seed=5)
        assert report.ok
        assert report.all_values_integral
        assert report.rule_stats
        payload = report.to_dict()
        assert payload["failure_count"] == 0
        assert payload["mode"] == mode.value


def test_fuzz_single_word_instance():
    # One fixed word checked against one explicit representation.
    rng = random.Random(9)
    images = sample_representation(rng, 2)
    w = parse_word("a b^-1 a b", 2)
    engine = TraceEngine(ReductionMode.INTEGRAL)
    poly = engine.reduce(w)
    variables = poly.variables()
    traces = subset_traces(images, [v.subset for v in variables])
    assert poly.evaluate(dict(zip(variables, traces))) == eval_word(w, images).trace


def test_fuzz_rejects_bad_parameters():
    with pytest.raises(OracleError):
        fuzz_check(count=0, max_rank=2, max_len=4, mode=ReductionMode.INTEGRAL, seed=0)


def test_random_word_respects_budget():
    rng = random.Random(10)
    for _ in range(200):
        w = random_word(rng, 4, 12)
        assert w.symbol_length() <= 12
        assert all(1 <= l.index <= 4 for l in w.letters)


def _laurent_value(p, values):
    """Exact value of a Laurent polynomial at nonzero rationals, term by term."""
    total = Fraction(0)
    for ev, c in p.terms.items():
        term = Fraction(c)
        for x, e in zip(values, ev):
            term *= Fraction(x) ** e
        total += term
    return total


def test_laurent_character_examples():
    from skeinlab.skein import abelian_from_vector, to_laurent

    u1 = to_laurent(abelian_from_vector(AbelianVector(1, (1,))))
    assert u1.terms == {(1,): 1, (-1,): 1}
    v11 = to_laurent(abelian_from_vector(AbelianVector(2, (1, 1))))
    assert v11.terms == {(1, 1): 1, (-1, -1): 1}
    assert _laurent_value(v11, [2, 3]) == Fraction(37, 6)


def test_laurent_character_check_random():
    # Under x_i -> diag(lambda_i, 1/lambda_i) with random nonzero rational
    # lambda_i, the canonical form of [v] evaluates to lambda^v + lambda^(-v).
    from skeinlab.skein import abelian_from_vector, to_laurent

    rng = random.Random(12)
    vectors = [
        AbelianVector(n, tuple(rng.randint(-5, 5) for _ in range(n)))
        for n in (rng.randint(1, 4) for _ in range(500))
    ]
    rng = random.Random("skeinlab-character-4")
    for v in vectors:
        lams = [
            Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
            for _ in range(v.rank)
        ]
        direct = inv = Fraction(1)
        for lam, e in zip(lams, v.coords):
            direct *= lam**e
            inv *= lam ** (-e)
        got = _laurent_value(to_laurent(abelian_from_vector(v)), lams)
        assert got == direct + inv, (v, lams)
