"""The GF(p) kernels against plain Python arithmetic."""

import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from skeinlab import _modlin
from skeinlab._modlin import PANEL

P = next(_modlin.primes())


def reference_rref(rows, p):
    """Textbook Gauss-Jordan over GF(p) on lists of Python ints."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def reference_fraction_rref(rows):
    """Textbook Gauss-Jordan over Q on Fractions; returns (all rows, pivots)."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def random_matrix(rng, rows, cols, rank, p):
    """A rows x cols matrix of the given rank (at most), entries mod p."""
    left = rng.integers(0, p, size=(rows, rank), dtype=np.int64)
    right = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
    return _modlin.matmul_mod_p(left, right, p).astype(np.int64)


def test_primes_are_descending_primes_below_2_23():
    first = list(itertools.islice(_modlin.primes(), 20))
    assert first == sorted(first, reverse=True)
    assert all(p < 2**23 for p in first)
    for p in first:
        assert all(p % d for d in range(2, int(p**0.5) + 1))
    # No prime lies between 2^23 and the first one.
    assert all(
        any(n % d == 0 for d in range(2, int(n**0.5) + 1))
        for n in range(first[0] + 1, 2**23)
    )


def test_primes_covering_never_runs_out():
    bound = 2**5000
    chosen = _modlin.primes_covering(bound)
    assert chosen == list(itertools.islice(_modlin.primes(), len(chosen)))
    prod = 1
    for p in chosen:
        prod *= p
    assert prod > 2 * bound
    assert prod // chosen[-1] <= 2 * bound
    assert _modlin.primes_covering(0) == []


def test_matmul_mod_p_is_exact_at_the_largest_residues():
    # Every product is (p-1)^2; one sum of 1000 of them would exceed 2^53,
    # so only chunked sums with a reduction per chunk come out exact.
    inner = 1000
    a = np.full((3, inner), P - 1, dtype=np.int64)
    b = np.full((inner, 2), P - 1, dtype=np.int64)
    assert inner * (P - 1) ** 2 > 2**53
    got = _modlin.matmul_mod_p(a, b, P)
    assert got.dtype == np.float64
    assert (got == inner * (P - 1) ** 2 % P).all()
    c = np.full((3, 2), P - 1, dtype=np.int64)
    assert (_modlin.matmul_mod_p(a, b, P, c) == (inner + P - 1) % P).all()
    with pytest.raises(ValueError):
        _modlin.matmul_mod_p(a, b, 2147483647)


def test_matmul_mod_p_matches_python_ints():
    rng = np.random.default_rng(5)
    for p in (P, 7, 65537):
        a = rng.integers(0, p, size=(9, 300), dtype=np.int64)
        b = rng.integers(0, p, size=(300, 11), dtype=np.int64)
        c = rng.integers(0, p, size=(9, 11), dtype=np.int64)
        want = [
            [(int(c[i, j]) + sum(int(x) * int(y) for x, y in zip(a[i], b[:, j]))) % p
             for j in range(11)]
            for i in range(9)
        ]
        assert _modlin.matmul_mod_p(a, b, p, c).astype(np.int64).tolist() == want
    empty = _modlin.matmul_mod_p(np.zeros((2, 0)), np.zeros((0, 3)), P)
    assert empty.shape == (2, 3) and not empty.any()


@pytest.mark.parametrize(
    "rows, cols, rank",
    [
        (0, 5, 0),
        (0, 0, 0),
        (4, 0, 0),
        (5, 5, 0),
        (3, 3, 3),
        (40, 150, 40),  # wide, full rank, panels of mixed fill
        (150, 40, 40),  # tall, full rank
        (PANEL, PANEL, PANEL),
        (PANEL + 1, PANEL + 1, PANEL + 1),
        (200, 3 * PANEL + 5, 200),
        (2 * PANEL + 9, 2 * PANEL + 9, PANEL - 3),  # rank-deficient
        (300, 130, 97),
        (90, 250, 1),
    ],
)
def test_rref_matches_reference(rows, cols, rank):
    rng = np.random.default_rng(rows * 1000 + cols + rank)
    a = random_matrix(rng, rows, cols, rank, P)
    got, pivots = _modlin.rref_mod_p(a, P)
    want, want_pivots = reference_rref(a.tolist(), P)
    assert pivots == want_pivots
    assert got.dtype == np.int64
    assert got.shape == (len(want_pivots), cols)
    assert got.tolist() == want


def test_rref_finds_pivots_below_the_first_panel_of_rows():
    # The first PANEL rows are zero or repeat one row, so each panel's first
    # pass misses pivots that only rows further down have.
    rng = np.random.default_rng(11)
    top = np.repeat(rng.integers(0, P, size=(1, 150)), PANEL, axis=0)
    top[: PANEL // 2] = 0
    a = np.vstack([top, random_matrix(rng, 100, 150, 70, P)])
    a[:, 5] = 0
    a[:, 70] = a[:, 3]
    got, pivots = _modlin.rref_mod_p(a, P)
    want, want_pivots = reference_rref(a.tolist(), P)
    assert pivots == want_pivots
    assert got.tolist() == want


def test_rref_small_prime_and_unreduced_input():
    rng = random.Random(3)
    rows = [[rng.randint(-50, 50) for _ in range(70)] for _ in range(80)]
    got, pivots = _modlin.rref_mod_p(np.array(rows), 7)
    want, want_pivots = reference_rref(rows, 7)
    assert pivots == want_pivots
    assert got.tolist() == want


def test_nullspace_folds_back_rows_outside_the_head_block():
    # The head block (cols + margin rows) has rank 20; the rows after it
    # raise the rank to 45, so the first candidate basis fails on them.
    rng = np.random.default_rng(7)
    cols, margin = 60, 4
    head = random_matrix(rng, cols + margin, cols, 20, P)
    rest = random_matrix(rng, 50, cols, 25, P)
    matrix = np.vstack([head, rest])
    basis, pivots = _modlin.nullspace_mod_p(matrix, P, margin=margin)
    rref, want_pivots = reference_rref(matrix.tolist(), P)
    assert pivots == want_pivots
    assert len(pivots) == 45
    want = _modlin.nullspace_from_rref(np.array(rref, dtype=np.int64), pivots, cols, P)
    assert basis.tolist() == want.tolist()
    assert not _modlin.matmul_mod_p(matrix, basis, P).any()


def test_nullspace_without_fold_back():
    rng = np.random.default_rng(8)
    matrix = random_matrix(rng, 120, 30, 22, P)
    basis, pivots = _modlin.nullspace_mod_p(matrix, P)
    assert basis.shape == (30, 8)
    assert not _modlin.matmul_mod_p(matrix, basis, P).any()


def random_int_matrix(rng, rows, cols, rank):
    """A rows x cols integer matrix of rank at most `rank`, as lists."""
    left = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
    return [
        [sum(row[k] * right[k][j] for k in range(rank)) for j in range(cols)]
        for row in left
    ]


def test_primitive_divides_by_the_content():
    assert _modlin.primitive([6, -4, 0, 10]) == [3, -2, 0, 5]
    assert _modlin.primitive([-7]) == [-1]
    assert _modlin.primitive([3, 5]) == [3, 5]
    assert _modlin.primitive([0, 0]) == [0, 0]
    assert _modlin.primitive([]) == []


@pytest.mark.parametrize(
    "rows, cols, rank",
    [
        (0, 5, 0),
        (5, 0, 0),
        (5, 6, 0),  # rank 0
        (3, 3, 3),
        (12, 4, 3),  # tall
        (4, 12, 4),  # wide
        (9, 9, 5),
        (20, 17, 11),
    ],
)
def test_int_rref_matches_fraction_reference(rows, cols, rank):
    rng = random.Random(rows * 1000 + cols * 10 + rank)
    for trial in range(5):
        m = random_int_matrix(rng, rows, cols, rank)
        if trial % 2 and m:
            m = m + [list(m[rng.randrange(len(m))]) for _ in range(3)]  # duplicates
            rng.shuffle(m)
        got, pivots = _modlin.int_rref(m)
        want, want_pivots = reference_fraction_rref(m)
        assert pivots == want_pivots
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert all(type(x) is int for x in g)
            assert gcd(*g) in (0, 1)
            lead = next((k for k, x in enumerate(w) if x), None)
            if lead is None:
                assert not any(g)
            else:
                ratio = Fraction(g[lead]) / w[lead]
                assert ratio and [ratio * x for x in w] == g
