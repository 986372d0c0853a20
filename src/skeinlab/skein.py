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
which lands exactly on the 0/1-vector generator classes.  The Laurent image
itself is evaluated by Horner's rule over packed integer exponent keys, one
integer add per monomial product (see to_laurent).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

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


def from_word(w: GroupWord, mode: ReductionMode = ReductionMode.INTEGRAL) -> SkeinElement:
    """Canonical form of the class [w] in S(F_rank)."""
    mode = ReductionMode(mode)
    return SkeinElement(w.rank, mode, "free", trace_engine.reduce_trace(w, mode))


def multiply(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """Product in the skein algebra; canonical forms multiply as polynomials."""
    x._compatible(y)
    return SkeinElement(x.rank, x.mode, x.group, x.poly * y.poly)


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
    """Canonical form of [v] in S(Z^rank); the zero vector maps to 2.

    Both modes refuse v as trace_engine would refuse its pull-back word."""
    mode = ReductionMode(mode)
    length = sum(map(abs, v.coords))
    if length > trace_engine.MAX_SYMBOL_LENGTH:
        raise SkeinError(
            f"vector too long: sum |v_i| = {length}, the limit is"
            f" {trace_engine.MAX_SYMBOL_LENGTH}"
        )
    if mode is ReductionMode.DYADIC:
        poly = _vector_canonical_dyadic(v)
    else:
        poly = _vector_canonical_integral(v)
    return SkeinElement(v.rank, mode, "abelian", poly)


def to_laurent(x: SkeinElement) -> LaurentPoly:
    """Image under the symmetric-Laurent isomorphism; abelian elements only.

    Horner evaluation over packed integer exponent keys: with D the total
    degree of x.poly and B = 2D + 1, the exponent vector e packs to the int
    sum e_i B^(i-1), so a monomial product is one integer add.  Each Horner
    accumulator is the image of a polynomial of degree <= D, and a generator
    image moves each coordinate by at most 1 per degree, so every digit e_i
    stays in [-D, D], where packing is injective.  Keys are unpacked once.
    """
    if x.group != "abelian":
        raise SkeinError("to_laurent is defined for abelian elements only")
    rank, digit = x.rank, x.poly.total_degree()
    base = 2 * digit + 1
    # Evaluate over ints: scale by the common denominator once, divide back
    # once at the end.
    denom = math.lcm(*(c.denominator for c in x.poly.terms.values()))
    scaled = {
        m: c.numerator * (denom // c.denominator) for m, c in x.poly.terms.items()
    }

    @functools.cache
    def image_power(var: AbelianVar, power: int) -> list[tuple[int, int]]:
        # (x^e + x^(-e))^p = sum_j C(p, j) x^((p - 2j) e), e the support of var.
        step = sum(base ** (i - 1) for i in var.indices)
        return [((power - 2 * j) * step, math.comb(power, j)) for j in range(power + 1)]

    # Horner evaluation on the largest variable present; monomial tuples are
    # sorted, so each monomial's largest variable is its last pair.  Products
    # and sums visit terms in the order of LaurentPoly's own * and + (shorter
    # factor outermost; the sum extends the product), so the image's terms
    # come out in the same order.
    def horner(terms: dict) -> dict:
        if not terms:
            return {}
        if len(terms) == 1 and () in terms:
            return {0: terms[()]}
        vmax = max((m[-1][0] for m in terms if m), key=attrgetter("_key"))
        groups: dict[int, dict] = {0: {}}
        for m, c in terms.items():
            if m and m[-1][0] is vmax:
                groups.setdefault(m[-1][1], {})[m[:-1]] = c
            else:
                groups[0][m] = c
        exps = sorted(groups, reverse=True)
        acc = horner(groups[exps[0]])
        for prev, e in zip(exps, exps[1:]):
            a, b = list(acc.items()), image_power(vmax, prev - e)
            if len(a) > len(b):
                a, b = b, a
            acc = {}
            for k1, c1 in a:
                for k2, c2 in b:
                    k = k1 + k2
                    c = acc.get(k, 0) + c1 * c2
                    if c:
                        acc[k] = c
                    else:
                        del acc[k]
            for k, c in horner(groups[e]).items():
                c += acc.get(k, 0)
                if c:
                    acc[k] = c
                else:
                    del acc[k]
        return acc

    offset = digit * sum(base**i for i in range(rank))
    terms = {}
    for key, c in horner(scaled).items():
        key, ev = key + offset, []
        for _ in range(rank):
            key, d = divmod(key, base)
            ev.append(d - digit)
        terms[tuple(ev)] = c if denom == 1 else normalize_coeff(Fraction(c, denom))
    return LaurentPoly._raw(rank, terms)
