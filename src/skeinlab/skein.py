"""The skein algebra of F_n and Z^n at the classical specialization.

Elements are canonical polynomials: over F_n in the subset-trace variables
t_S (computed by the trace engine), over Z^n in the generators u_i = [e_i]
and v_jk = [e_j + e_k] (dyadic mode) or in the full family of 0/1-vector
classes (integral mode).  Multiplication of canonical forms is plain
polynomial multiplication; the defining product relation
[g][h] = [gh] + [gh^-1] is already baked into the canonicalization, and the
two routes are reconciled by the test suite.

The abelian canonicalization follows the symmetric-Laurent argument: write
x^v + x^(-v) over a_i = x_i + x_i^(-1), b_i = x_i - x_i^(-1); terms of odd
total b-degree cancel; eliminate the b's pairwise via b_i^2 = a_i^2 - 4 and
b_j b_k = 2 v_jk - u_j u_k, pairing leftover b's sorted-adjacent.  The
expansion is grouped by coordinate (x_i^e contributes a Chebyshev pair in
u_i), so it runs over integers with a single division at the end.  The
integral variant instead pulls the vector back to the word
g_1^(v_1) ... g_n^(v_n) in F_n and reuses the integral-mode trace engine,
which lands exactly on the 0/1-vector generator classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import trace_engine
from .exactpoly import InternedVar, LaurentPoly, Poly, normalize_coeff
from .trace_engine import ReductionMode
from .words import AbelianVector, GroupWord, reduce_word


class SkeinError(ValueError):
    pass


class AbelianVar(InternedVar):
    """Generator class of S(Z^n): u_i, v_jk, or w_S for a 0/1-support set S.

    The support is a sorted tuple of indices; sizes 1 and 2 print as the
    u/v generators, larger supports (integral mode only) print as w[...].
    """

    __slots__ = ()
    _error = SkeinError
    _noun = "support"

    @property
    def indices(self) -> tuple[int, ...]:
        return self._key[1]

    def __repr__(self) -> str:
        return f"AbelianVar({self.indices})"

    def __str__(self) -> str:
        if len(self.indices) == 1:
            return f"u{self.indices[0]}"
        prefix = "v" if len(self.indices) == 2 else "w"
        return prefix + "[" + ",".join(map(str, self.indices)) + "]"


def parse_abelian_var(name: str) -> AbelianVar:
    """Inverse of str(AbelianVar), for the JSON schema."""
    if name.startswith("u") and name[1:].isdigit():
        return AbelianVar((int(name[1:]),))
    if name[0] in "vw" and name[1:].startswith("[") and name.endswith("]"):
        return AbelianVar(int(s) for s in name[2:-1].split(","))
    raise SkeinError(f"bad abelian variable name {name!r}")


@dataclass(frozen=True)
class SkeinElement:
    """Canonical element of S(F_n) (group='free') or S(Z^n) (group='abelian')."""

    rank: int
    mode: ReductionMode
    group: str
    poly: Poly

    def __post_init__(self) -> None:
        if self.group not in ("free", "abelian"):
            raise SkeinError(f"unknown group kind {self.group!r}")

    def _compatible(self, other: "SkeinElement") -> None:
        if (self.rank, self.mode, self.group) != (other.rank, other.mode, other.group):
            raise SkeinError(
                f"mismatched elements: ({self.rank},{self.mode.value},{self.group})"
                f" vs ({other.rank},{other.mode.value},{other.group})"
            )

    def __add__(self, other: "SkeinElement") -> "SkeinElement":
        self._compatible(other)
        return SkeinElement(self.rank, self.mode, self.group, self.poly + other.poly)

    def __sub__(self, other: "SkeinElement") -> "SkeinElement":
        self._compatible(other)
        return SkeinElement(self.rank, self.mode, self.group, self.poly - other.poly)

    def __rmul__(self, scalar) -> "SkeinElement":
        if isinstance(scalar, (int, Fraction)):
            return SkeinElement(self.rank, self.mode, self.group, scalar * self.poly)
        return NotImplemented


def from_word(w: GroupWord, mode: ReductionMode = ReductionMode.INTEGRAL) -> SkeinElement:
    """Canonical form of the class [w] in S(F_rank)."""
    mode = ReductionMode(mode)
    return SkeinElement(w.rank, mode, "free", trace_engine.reduce_trace(w, mode))


def multiply(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """Product in the skein algebra; canonical forms multiply as polynomials."""
    x._compatible(y)
    return SkeinElement(x.rank, x.mode, x.group, x.poly * y.poly)


def abelian_multiply(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    if x.group != "abelian" or y.group != "abelian":
        raise SkeinError("abelian_multiply needs abelian elements")
    return multiply(x, y)


def _chebyshev(u: Poly, k: int) -> tuple[Poly, Poly]:
    """(x^k + x^(-k), (x^k - x^(-k)) / (x - x^(-1))) as polynomials in u = x + x^(-1).

    Both sequences obey W_(n+1) = u W_n - W_(n-1); k >= 1.
    """
    even_prev, even = Poly.const(2), u
    odd_prev, odd = Poly.zero(), Poly.const(1)
    for _ in range(k - 1):
        even_prev, even = even, u * even - even_prev
        odd_prev, odd = odd, u * odd - odd_prev
    return even, odd


def _vector_canonical_dyadic(v: AbelianVector) -> Poly:
    # x_i^e = (even + sign(e) b_i odd) / 2 with b_i = x_i - x_i^(-1) and
    # (even, odd) = _chebyshev(u_i, |e|).  Expand x^v + x^(-v) over the set S
    # of coordinates that contribute a b_i: odd |S| cancels against the
    # tau-image, even |S| doubles, and the leftover b's pair sorted-adjacent
    # via b_j b_k = 2 v_jk - u_j u_k.  The pieces stay integral; the common
    # factor 2 / 2^|support| is applied once, so the zero vector maps to 2.
    support = [(i, e) for i, e in enumerate(v.coords, start=1) if e != 0]
    u = {i: Poly.variable(AbelianVar((i,))) for i, _ in support}
    parts = {}
    for i, e in support:
        even, odd = _chebyshev(u[i], abs(e))
        parts[i] = (even, odd if e > 0 else -odd)
    pieces = []
    for choice in itertools.product((0, 1), repeat=len(support)):
        if sum(choice) % 2 == 1:
            continue
        piece = Poly.const(1)
        leftovers = []
        for (i, _), odd in zip(support, choice):
            piece = piece * parts[i][odd]
            if odd:
                leftovers.append(i)
        for j, k in zip(leftovers[0::2], leftovers[1::2]):
            v_jk = Poly.variable(AbelianVar((j, k)))
            piece = piece * (2 * v_jk - u[j] * u[k])
        pieces.append(piece)
    return Fraction(2, 2 ** len(support)) * Poly.sum(pieces)


def _vector_canonical_integral(v: AbelianVector) -> Poly:
    # Pull back along F_n ->> Z^n: the subset generators map onto the
    # 0/1-vector classes, so the integral trace reduction is exactly the
    # integral abelian canonicalization.
    pairs = [(i, e) for i, e in enumerate(v.coords, start=1) if e != 0]
    word = reduce_word(pairs, v.rank)
    poly = trace_engine.reduce_trace(word, ReductionMode.INTEGRAL)
    return poly.map_variables(lambda var: AbelianVar(var.subset))


def abelian_from_vector(
    v: AbelianVector, mode: ReductionMode = ReductionMode.DYADIC
) -> SkeinElement:
    """Canonical form of [v] in S(Z^rank); the zero vector maps to 2."""
    mode = ReductionMode(mode)
    if mode is ReductionMode.DYADIC:
        poly = _vector_canonical_dyadic(v)
    else:
        poly = _vector_canonical_integral(v)
    return SkeinElement(v.rank, mode, "abelian", poly)


def to_laurent(x: SkeinElement) -> LaurentPoly:
    """Image under the symmetric-Laurent isomorphism; abelian elements only."""
    if x.group != "abelian":
        raise SkeinError("to_laurent is defined for abelian elements only")
    rank = x.rank
    # Evaluate over ints: scale by the common denominator once, divide back
    # once at the end.
    denom = math.lcm(*(c.denominator for c in x.poly.terms.values()))
    scaled = {
        m: c.numerator * (denom // c.denominator) for m, c in x.poly.terms.items()
    }
    powers: dict[tuple[AbelianVar, int], LaurentPoly] = {}

    def image_power(var: AbelianVar, power: int) -> LaurentPoly:
        # (x^e + x^(-e))^p = sum_j C(p, j) x^((p - 2j) e), e the support of var.
        cached = powers.get((var, power))
        if cached is None:
            support = [i in var.indices for i in range(1, rank + 1)]
            cached = LaurentPoly._raw(
                rank,
                {
                    tuple(power - 2 * j if s else 0 for s in support): math.comb(power, j)
                    for j in range(power + 1)
                },
            )
            powers[(var, power)] = cached
        return cached

    # Horner evaluation on the largest variable present; monomial tuples are
    # sorted, so each monomial's largest variable is its last pair.
    def horner(terms: dict) -> LaurentPoly:
        if not terms:
            return LaurentPoly.zero(rank)
        if len(terms) == 1 and () in terms:
            return LaurentPoly.const(rank, terms[()])
        vmax = max(m[-1][0] for m in terms if m)
        groups: dict[int, dict] = {}
        for m, c in terms.items():
            if m and m[-1][0] == vmax:
                groups.setdefault(m[-1][1], {})[m[:-1]] = c
            else:
                groups.setdefault(0, {})[m] = c
        exps = sorted(groups, reverse=True)
        acc = horner(groups[exps[0]])
        prev = exps[0]
        for e in exps[1:]:
            acc = acc * image_power(vmax, prev - e) + horner(groups[e])
            prev = e
        if prev:
            acc = acc * image_power(vmax, prev)
        return acc

    image = horner(scaled)
    if denom == 1:
        return image
    return LaurentPoly._raw(
        rank, {ev: normalize_coeff(Fraction(c, denom)) for ev, c in image.terms.items()}
    )
