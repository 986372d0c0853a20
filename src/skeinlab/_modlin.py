"""Modular linear algebra kernels for relation harvesting.

The nullspace of the big evaluation matrix is found modulo machine-word
primes (numpy int64 row operations stay exact because residues are < 2^31),
lifted to the rationals by CRT + rational reconstruction, and then the
candidate relations are certified exactly: a relation value is declared zero
only when it vanishes modulo enough additional primes that their product
exceeds twice a rigorous a-priori bound on the numerator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

import numpy as np

# 31-bit primes: row operations f*row fit in int64.
NULLSPACE_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)
# 26-bit primes: an int64 matmul of residue matrices stays exact over at most
# CERTIFY_BLOCK columns (2^11 products < 2^52 each, plus one residue < 2^63).
CERTIFY_PRIMES = (
    67108859,
    67108837,
    67108819,
    67108777,
    67108763,
    67108729,
    67108693,
    67108669,
    67108667,
    67108661,
)
CERTIFY_BLOCK = 2**11


class ModLinError(RuntimeError):
    pass


def rref_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref rows, pivot columns).

    Forward elimination touches only the trailing columns of each pivot row;
    back-substitution then clears the entries above the pivots.  All row
    operations stay within int64 because residues are below 2^31.
    """
    m = matrix.astype(np.int64, copy=True) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        col = m[r + 1 :, c]
        nzr = np.nonzero(col)[0]
        if nzr.size:
            m[r + 1 + nzr, c:] = (
                m[r + 1 + nzr, c:] - np.outer(col[nzr], m[r, c:])
            ) % p
        pivots.append(c)
        r += 1
    # Back-substitution over the echelon rows.
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        col = m[:i, c]
        nzr = np.nonzero(col)[0]
        if nzr.size:
            m[nzr, c:] = (m[nzr, c:] - np.outer(col[nzr], m[i, c:])) % p
    return m[: len(pivots)], pivots


def nullspace_from_rref(
    rref: np.ndarray, pivots: list[int], cols: int, p: int
) -> np.ndarray:
    """Canonical nullspace basis: column j has a 1 in the j-th free coordinate."""
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        if pivots:
            basis[pivots, j] = (-rref[: len(pivots), fc]) % p
    return basis


def matvec_mod_p(matrix: np.ndarray, vec: np.ndarray, p: int) -> np.ndarray:
    """matrix @ vec mod p with int64-safe accumulation (residues < 2^31)."""
    acc = np.zeros(matrix.shape[0], dtype=np.int64)
    nz = np.nonzero(vec)[0]
    for j in nz:
        acc = (acc + matrix[:, j] * int(vec[j])) % p
    return acc


def nullspace_mod_p(
    matrix: np.ndarray, p: int, margin: int = 64
) -> tuple[np.ndarray, list[int]]:
    """Nullspace basis of an oversampled matrix over GF(p).

    Eliminates a head block of ncols + margin rows, then checks the remaining
    rows against the candidate basis, folding any row that fails back into
    the elimination.  Equivalent to the full RREF nullspace but much cheaper
    when the row count is a multiple of the column count.
    """
    m = matrix.astype(np.int64, copy=False) % p
    rows, cols = m.shape
    head = min(rows, cols + margin)
    active = m[:head]
    rest = m[head:]
    while True:
        rref, pivots = rref_mod_p(active, p)
        basis = nullspace_from_rref(rref, pivots, cols, p)
        if basis.shape[1] == 0 or rest.shape[0] == 0:
            return basis, pivots
        bad_rows: set[int] = set()
        for j in range(basis.shape[1]):
            resid = matvec_mod_p(rest, basis[:, j], p)
            bad_rows.update(int(i) for i in np.nonzero(resid)[0])
        if not bad_rows:
            return basis, pivots
        picked = sorted(bad_rows)
        active = np.vstack([rref, rest[picked]])
        keep = np.ones(rest.shape[0], dtype=bool)
        keep[picked] = False
        rest = rest[keep]


def crt_pair(a: int, p: int, b: int, q: int) -> int:
    """x mod p*q with x = a mod p, x = b mod q."""
    inv = pow(p % q, q - 2, q)
    return (a + ((b - a) * inv % q) * p) % (p * q)


def rational_reconstruct(r: int, modulus: int) -> Fraction | None:
    """Wang's algorithm: the unique n/d = r mod modulus with |n|, d <= sqrt(M/2)."""
    bound = isqrt(modulus // 2)
    r %= modulus
    u0, u1 = modulus, r
    v0, v1 = 0, 1
    while u1 > bound:
        q = u0 // u1
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    n, d = u1, v1
    if d == 0 or abs(d) > bound or gcd(abs(n), abs(d)) != 1:
        return None
    if d < 0:
        n, d = -n, -d
    return Fraction(n, d)


def fraction_rref(
    rows: Sequence[Sequence[Fraction | int]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (all rows, pivot columns).

    Columns are scanned left to right and each pivot is the first nonzero
    entry at or below the current row; the rank is the number of pivots.
    """
    m = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
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


def primes_covering(bound: int) -> list[int]:
    """A prefix of CERTIFY_PRIMES whose product exceeds 2*bound + 1."""
    chosen: list[int] = []
    prod = 1
    for p in CERTIFY_PRIMES:
        if prod > 2 * bound:
            break
        chosen.append(p)
        prod *= p
    if prod <= 2 * bound:
        raise ModLinError("certification bound exceeds available prime capacity")
    return chosen
