"""Modular linear algebra kernels for relation harvesting.

Every modular step draws from one prime family, the primes below 2^23, and
does its heavy arithmetic in one exact kernel, `matmul_mod_p`: float64 BLAS
products over chunks short enough to stay below 2^53, reduced once per chunk
(the delayed reduction of FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS
35(3), 2008).  The harvest finds nullspaces modulo a few primes, lifts them
by CRT + rational reconstruction, and certifies the candidates exactly.
Exact elimination over Q, `int_rref`, runs on primitive integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Sequence

import numpy as np

PRIME_LIMIT = 2**23
# 128 * (p - 1)^2 + (p - 1) < 2^53 for every p < 2^23: a chunk's products,
# plus one reduced residue carried in, sum exactly in float64.
CHUNK = 128
# Column width of one panel of the blocked elimination.
PANEL = 64


def primes() -> Iterator[int]:
    """The one prime family: every prime below 2^23, largest first."""
    for n in range(PRIME_LIMIT - 1, 2, -2):
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n


def matmul_mod_p(
    a: np.ndarray, b: np.ndarray, p: int, c: np.ndarray | None = None
) -> np.ndarray:
    """(c + a @ b) mod p as float64, for residue arrays a, b (and c) mod p < 2^23."""
    if not 1 < p < PRIME_LIMIT:
        raise ValueError(f"modulus {p} is outside the exact float64 range (1, 2^23)")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1])) if c is None else c
    for k in range(0, a.shape[1], CHUNK):
        prod = a[:, k : k + CHUNK] @ b[k : k + CHUNK]
        prod += out
        q = prod * (1.0 / p)
        np.floor(q, out=q)
        q *= p
        prod -= q
        # The rounded quotient is off by at most one: one correction either way.
        if prod.min(initial=0) < 0:
            prod[prod < 0] += p
        if prod.max(initial=0) >= p:
            prod[prod >= p] -= p
        out = prod
    return out if a.shape[1] else np.array(out, dtype=np.float64)


def _gauss_jordan(a: np.ndarray, p: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Unblocked Gauss-Jordan of a narrow int64 residue array over GF(p), in place.

    Pivots are taken column by column, each from the first nonzero row at or
    below the current one, and swapped up.  Returns the pivot columns and the
    row swaps, in order.
    """
    pivots: list[int] = []
    swaps: list[tuple[int, int]] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            a[[r, i]] = a[[i, r]]
            swaps.append((r, i))
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        nzr = np.flatnonzero(col)
        if nzr.size:
            a[nzr, c:] = (a[nzr, c:] - np.outer(col[nzr], a[r, c:])) % p
        pivots.append(c)
    return pivots, swaps


def rref_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref rows, pivot columns).

    Right-looking blocked Gauss-Jordan over panels of PANEL columns.  An
    unblocked elimination of the panel picks its pivot rows, first among the
    next PANEL rows and among all the rows only if that missed a pivot.  The
    picked rows are swapped up and multiplied by the inverse of their pivot
    block, and one `matmul_mod_p` clears every other row.  A pivot of some
    rows is a pivot of all, and a panel is done once the rows below the
    pivot rows vanish on it; as the RREF is unique, sorting the pivot rows by
    pivot column gives it.
    """
    m = (np.asarray(matrix) % p).astype(np.float64)
    rows, cols = m.shape
    pivots: list[int] = []
    for c0 in range(0, cols, PANEL):
        for head in (PANEL, rows):
            r = len(pivots)
            panel = m[r : r + head, c0 : c0 + PANEL].astype(np.int64)
            found, swaps = _gauss_jordan(panel, p)
            if found:
                for i, j in swaps:
                    m[[r + i, r + j]] = m[[r + j, r + i]]
                k = len(found)
                pcols = [c0 + c for c in found]
                block = np.hstack([m[r : r + k, pcols], np.eye(k)]).astype(np.int64)
                _gauss_jordan(block, p)
                m[r : r + k, c0:] = matmul_mod_p(block[:, k:], m[r : r + k, c0:], p)
                factors = (p - m[:, pcols]) % p
                factors[r : r + k] = 0
                m[:, c0:] = matmul_mod_p(factors, m[r : r + k, c0:], p, m[:, c0:])
                pivots += pcols
            if not m[len(pivots) :, c0 : c0 + PANEL].any():
                break
    order = np.argsort(pivots)
    return m[order].astype(np.int64), [pivots[i] for i in order]


def nullspace_from_rref(
    rref: np.ndarray, pivots: list[int], cols: int, p: int
) -> np.ndarray:
    """Canonical nullspace basis: column j has a 1 in the j-th free coordinate."""
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivots] = (-rref[:, free]) % p
    return basis


def nullspace_mod_p(
    matrix: np.ndarray, p: int, margin: int = 64
) -> tuple[np.ndarray, list[int]]:
    """Nullspace basis of an oversampled matrix over GF(p).

    Eliminates a head block of ncols + margin rows, then checks the remaining
    rows against the candidate basis, folding any row that fails back into
    the elimination.  Equivalent to the full RREF nullspace but much cheaper
    when the row count is a multiple of the column count.
    """
    m = np.asarray(matrix, dtype=np.int64) % p
    cols = m.shape[1]
    active, rest = m[: cols + margin], m[cols + margin :]
    while True:
        rref, pivots = rref_mod_p(active, p)
        basis = nullspace_from_rref(rref, pivots, cols, p)
        bad = matmul_mod_p(rest, basis, p).any(axis=1)
        if not bad.any():
            return basis, pivots
        active = np.vstack([rref, rest[bad]])
        rest = rest[~bad]


def crt_pair(a, p: int, b, q: int):
    """x mod p*q with x = a mod p, x = b mod q (elementwise on object arrays)."""
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


def primitive(v: Sequence[int]) -> list[int]:
    """v divided by its content, the gcd of its entries (v itself when all zero)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


def int_rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """RREF over Q in primitive integer rows; returns (all rows, pivot columns).

    Each pivot is the first nonzero entry at or below the current row, columns
    scanned left to right.  Every other row is cross-multiplied with the pivot
    row to clear the column, then divided by its content, so row i is
    proportional to row i of the RREF and the rank is the number of pivots.
    """
    m = [primitive(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = primitive([lead * a - f * b for a, b in zip(m[i], m[r])])
        pivots.append(c)
    return m, pivots


def primes_covering(bound: int) -> list[int]:
    """The shortest prefix of primes() whose product exceeds 2*bound."""
    chosen: list[int] = []
    prod = 1
    for p in primes():
        if prod > 2 * bound:
            break
        chosen.append(p)
        prod *= p
    return chosen
