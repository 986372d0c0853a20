import itertools
import random
import re

import pytest

from skeinlab.words import (
    GroupWord,
    Letter,
    WordError,
    concat,
    cyclic_key,
    format_word,
    invert,
    parse_word,
    reduce_word,
)


def test_reduce_word_cancellation():
    assert reduce_word([(1, 1), (1, -1)], 2).is_identity()


def test_reduce_word_run_merge():
    w = reduce_word([(1, 1), (1, 1), (2, -1)], 2)
    assert w.letters == (Letter(1, 2), Letter(2, -1))


def test_reduce_word_inner_cancellation():
    w = reduce_word([(1, 1), (2, 1), (2, -1), (1, 1)], 2)
    assert w.letters == (Letter(1, 2),)


def test_reduce_word_rejects_bad_inputs():
    with pytest.raises(WordError):
        reduce_word([(3, 1)], 2)
    with pytest.raises(WordError):
        reduce_word([(1, 1)], 0)


def test_invert_examples():
    assert invert(reduce_word([], 2)).is_identity()
    w = reduce_word([(1, 2), (2, -1)], 2)
    assert invert(w).letters == (Letter(2, 1), Letter(1, -2))
    assert invert(reduce_word([(1, 1)], 1)).letters == (Letter(1, -1),)


def test_invert_involution_and_cancellation():
    rng = random.Random(0)
    for _ in range(100):
        pairs = [(rng.randint(1, 3), rng.choice((-2, -1, 1, 2))) for _ in range(8)]
        w = reduce_word(pairs, 3)
        assert invert(invert(w)) == w
        assert concat(w, invert(w)).is_identity()


def test_reduce_word_idempotent_under_cancelling_insertions():
    rng = random.Random(1)
    for _ in range(200):
        rank = rng.randint(1, 4)
        symbols = [
            (rng.randint(1, rank), rng.choice((-1, 1)))
            for _ in range(rng.randint(0, 20))
        ]
        w = reduce_word(symbols, rank)
        # Insert a canceling pair at a random position.
        pos = rng.randint(0, len(symbols))
        g = rng.randint(1, rank)
        padded = symbols[:pos] + [(g, 1), (g, -1)] + symbols[pos:]
        assert reduce_word(padded, rank) == w
        assert reduce_word([(l.index, l.exponent) for l in w.letters], rank) == w


def test_cyclic_key_examples():
    assert cyclic_key(parse_word("b a", 2)) == cyclic_key(parse_word("a b", 2))
    assert cyclic_key(parse_word("a b^-1", 2)) == cyclic_key(parse_word("b a^-1", 2))
    assert cyclic_key(parse_word("a b a^-1", 2)) == cyclic_key(parse_word("b", 2))


def test_cyclic_key_exhaustive_orbits_rank2():
    # All symbol sequences of length <= 4 over {a, a^-1, b, b^-1}: the key is
    # constant on {rotations} united with {rotations of the inverse}.
    alphabet = [(1, 1), (1, -1), (2, 1), (2, -1)]
    for length in range(5):
        for seq in itertools.product(alphabet, repeat=length):
            w = reduce_word(list(seq), 2)
            key = cyclic_key(w)
            for r in range(length):
                rotated = list(seq[r:] + seq[:r])
                assert cyclic_key(reduce_word(rotated, 2)) == key
            inv_seq = [(i, -e) for i, e in reversed(seq)]
            for r in range(length):
                rotated = inv_seq[r:] + inv_seq[:r]
                assert cyclic_key(reduce_word(rotated, 2)) == key


def test_cyclic_key_conjugation_invariance():
    rng = random.Random(2)
    for _ in range(200):
        rank = rng.randint(1, 4)
        w = reduce_word(
            [(rng.randint(1, rank), rng.choice((-2, -1, 1, 2))) for _ in range(6)],
            rank,
        )
        u = reduce_word(
            [(rng.randint(1, rank), rng.choice((-1, 1))) for _ in range(4)], rank
        )
        assert cyclic_key(concat(u, w, invert(u))) == cyclic_key(w)
        assert cyclic_key(invert(w)) == cyclic_key(w)


def _reference_cyclic_key(w):
    """The original definition: the least, under (symbol length, letterwise
    (index, sign, |exponent|)), of every rotation of the cyclically reduced
    word and of every rotation of its cyclically reduced inverse."""

    def cyclic_reduce(letters):
        out = list(letters)
        while len(out) >= 2 and out[0].index == out[-1].index:
            merged = out[0].exponent + out[-1].exponent
            if merged == 0:
                out = out[1:-1]
            else:
                out = [Letter(out[0].index, merged)] + out[1:-1]
                break
        return out

    def sort_key(letters):
        return (
            sum(abs(l.exponent) for l in letters),
            tuple((l.index, 0 if l.exponent > 0 else 1, abs(l.exponent)) for l in letters),
        )

    core = cyclic_reduce(w.letters)
    if not core:
        return GroupWord(w.rank, ())
    inverse = cyclic_reduce(invert(GroupWord(w.rank, tuple(core))).letters)
    candidates = [
        tuple(base[i:]) + tuple(base[:i])
        for base in (core, inverse)
        for i in range(len(base))
    ]
    return GroupWord(w.rank, min(candidates, key=sort_key))


def test_cyclic_key_matches_reference_definition():
    rng = random.Random(3)
    words = []
    for rank in range(1, 7):
        for _ in range(300):
            exps = rng.choice(((-3, -2, -1, 1, 2, 3), (-300, -299, -1, 1, 299, 300)))
            pairs = [
                (rng.randint(1, rank), rng.choice(exps))
                for _ in range(rng.randint(0, 12))
            ]
            words.append(reduce_word(pairs, rank))
            # u w u^-1 and g^e u u^-1: cyclically the identity or one letter.
            u = reduce_word(pairs[: rng.randint(0, len(pairs))], rank)
            g = (rng.randint(1, rank), rng.choice(exps))
            words.append(concat(u, invert(u)))
            words.append(concat(u, reduce_word([g], rank), invert(u)))
    assert any(cyclic_key(w).is_identity() for w in words)
    assert any(len(cyclic_key(w).letters) == 1 for w in words)
    assert any(abs(l.exponent) >= 299 for w in words for l in w.letters)
    for w in words:
        assert cyclic_key(w) == _reference_cyclic_key(w), w


def test_subset_words_are_reduced_fixed_points():
    for rank in range(1, 5):
        for size in range(1, rank + 1):
            for subset in itertools.combinations(range(1, rank + 1), size):
                w = reduce_word([(i, 1) for i in subset], rank)
                assert w.letters == tuple(Letter(i, 1) for i in subset)
                assert cyclic_key(w) == w


def test_parse_and_format_round_trip():
    for text in ("a b^-1", "a^2 b^-3 c", "g3^2 g1", "e", ""):
        rank = 4
        w = parse_word(text, rank)
        assert parse_word(format_word(w), rank) == w
    assert format_word(GroupWord(2, ())) == "e"
    assert format_word(parse_word("a b^-1", 2)) == "a b^-1"


def test_parse_word_errors():
    with pytest.raises(WordError):
        parse_word("z", 2)
    with pytest.raises(WordError):
        parse_word("a^0", 2)
    with pytest.raises(WordError):
        parse_word("c", 2)
    with pytest.raises(WordError):
        parse_word("e a", 2)
    with pytest.raises(WordError):
        parse_word("a", 0)
    for token in ("a^", "b^x", "g2^"):
        message = re.escape(f"bad exponent in token '{token}'")
        with pytest.raises(WordError, match=message):
            parse_word(f"a {token}", 2)
