"""Character-variety computations at desk scale.

Three computations live here:

* the 2-bridge knot pipeline: for G = <a,b | wa = bw> the difference
  P_w - P_{bwa^-1}, with [b] identified to [a], factors exactly as
  (t1^2 - t2 - 2) * Phi(t1, t2) where t1 = tr(a), t2 = tr(ab); the division
  must be exact and aborts loudly otherwise.  The numerator is one pass over
  the letters of w in the Cayley-Hamilton basis (I, A, B, AB) of the rank-2
  trace algebra (Riley 1984), not a run of the rewriting engine;

* relation harvesting: the polynomial relations among the canonical
  generators, found as the nullspace of an exact evaluation matrix over
  random representations, one block of sign-class columns at a time
  (modular ranks first, rational reconstruction, then a certified exact
  verification pass);

* tangent-space dimensions at the trivial character chi_0 (every generator
  equal to 2): ambient generator count minus the rank of the relation
  Jacobian at the all-2 point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

from . import _modlin
from .exactpoly import (
    Coeff,
    PackedPoly,
    Poly,
    SubsetVar,
    poly_divide,
    poly_from_dict,
    poly_pretty,
    poly_to_dict,
)
from .oracle import sample_representation, subset_traces
from .skein import AbelianVar, SkeinElement, parse_abelian_var, to_laurent
from .trace_engine import ReductionMode, skein_basis_vars
from .words import GroupWord, reduce_word


class CharVarError(ValueError):
    pass


class TwoBridgeDivisionError(CharVarError):
    """The numerator failed exact division by t1^2 - t2 - 2.

    This means the input is not a valid 2-bridge epsilon vector, or the
    numerator is wrong; either way it must not be ignored.
    """


class HarvestError(CharVarError):
    pass


T1 = SubsetVar((1,))
T12 = SubsetVar((1, 2))

KNOT_PRESETS = {
    "trefoil": (1,),
    "fig8": (1, -1),
}


# Longest accepted epsilon vector: the slowest lists of this length take
# about 10 s end to end (README), and the cost grows as the cube of the length.
TWO_BRIDGE_MAX_LENGTH = 192


@dataclass(frozen=True)
class TwoBridgePresentation:
    """G = <a,b | wa = bw> with w = a^e1 b^en a^e2 b^e(n-1) ... a^en b^e1."""

    epsilons: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.epsilons:
            raise CharVarError("epsilon vector must be nonempty")
        if len(self.epsilons) > TWO_BRIDGE_MAX_LENGTH:
            raise CharVarError(
                f"epsilon vector of length {len(self.epsilons)} exceeds the"
                f" cap of {TWO_BRIDGE_MAX_LENGTH}"
            )
        if any(e not in (-1, 1) for e in self.epsilons):
            raise CharVarError(f"epsilons must be +-1: {self.epsilons}")

    @classmethod
    def preset(cls, name: str) -> "TwoBridgePresentation":
        try:
            return cls(KNOT_PRESETS[name])
        except KeyError:
            raise CharVarError(
                f"unknown knot preset {name!r}; known: {sorted(KNOT_PRESETS)}"
            ) from None

    def relator_word(self) -> GroupWord:
        a_letters = [(1, e) for e in self.epsilons]
        b_letters = [(2, e) for e in reversed(self.epsilons)]
        return reduce_word([l for ab in zip(a_letters, b_letters) for l in ab], 2)


@dataclass(frozen=True)
class CharVarResult:
    """Q = (t1^2 - t2 - 2) * Phi, with Phi sign-normalized."""

    epsilons: tuple[int, ...]
    Q: Poly
    Phi: Poly
    phi_at_22: Coeff

    def to_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "Q": poly_to_dict(self.Q),
            "Phi": poly_to_dict(self.Phi),
            "Q_pretty": poly_pretty(self.Q),
            "Phi_pretty": poly_pretty(self.Phi),
            "phi_at_22": str(self.phi_at_22),
            "phi_total_degree": self.Phi.total_degree(),
            "phi_square_free": is_square_free(self.Phi),
        }


def abelian_divisor() -> Poly:
    """t1^2 - t2 - 2, the factor carrying the abelian characters."""
    return Poly.variable(T1) * Poly.variable(T1) - Poly.variable(T12) - 2


# A word W in A, B is p0*I + p1*A + p2*B + p3*AB with each p_i in Z[x, z],
# x = tr A = tr B, z = tr AB (Cayley-Hamilton; Riley 1984), held as int dicts
# on PackedPoly keys: an exponent is at most the word length, which the length
# cap keeps below 2^FIELD_BITS.  Row i of a letter's rule lists the (j, m, c)
# whose c * m * p_j sum to component i of W*letter:
#   W*A = (-p1 + (z - x^2)p2 - x*p3) I + (p0 + x*p1 + x*p2 + z*p3) A
#         + (x*p2 + p3) B - p2 AB,    W*A^-1 = x*W - W*A,
#   W*B = -p2 I - p3 A + (p0 + x*p2) B + (p1 + x*p3) AB,    W*B^-1 = x*W - W*B.
_X, _Z = 1 << T1._shift, 1 << T12._shift
_LETTER_RULES = {
    (1, 1): (((1, 0, -1), (2, _Z, 1), (2, 2 * _X, -1), (3, _X, -1)),
             ((0, 0, 1), (1, _X, 1), (2, _X, 1), (3, _Z, 1)),
             ((2, _X, 1), (3, 0, 1)),
             ((2, 0, -1),)),
    (1, -1): (((0, _X, 1), (1, 0, 1), (2, 2 * _X, 1), (2, _Z, -1), (3, _X, 1)),
              ((0, 0, -1), (2, _X, -1), (3, _Z, -1)),
              ((3, 0, -1),),
              ((2, 0, 1), (3, _X, 1))),
    (2, 1): (((2, 0, -1),), ((3, 0, -1),),
             ((0, 0, 1), (2, _X, 1)), ((1, 0, 1), (3, _X, 1))),
    (2, -1): (((0, _X, 1), (2, 0, 1)), ((1, _X, 1), (3, 0, 1)),
              ((0, 0, -1),), ((1, 0, -1),)),
}
# tr W = 2*p0 + x*p1 + y*p2 + z*p3, with y = x.
_TRACE_ROW = ((0, 0, 2), (1, _X, 1), (2, _X, 1), (3, _Z, 1))


def _combine(p: Sequence[dict], row) -> dict:
    """The sum of c * m * p[j] over the (j, m, c) of row, zero terms dropped."""
    (j, m, c), *rest = row
    out = {k + m: c * v for k, v in p[j].items()}
    get = out.get
    for j, m, c in rest:
        for k, v in p[j].items():
            k += m
            s = get(k, 0) + c * v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _times_letters(p: tuple, letters) -> tuple:
    """p times the (index, +-1) letters, in order."""
    for letter in letters:
        p = tuple(_combine(p, row) for row in _LETTER_RULES[letter])
    return p


def two_bridge_numerator(pres: TwoBridgePresentation) -> Poly:
    """P_w - P_{bwa^-1} with [b] := [a], in the variables t1, t2 = tr(ab).

    tr(b w a^-1) = tr(w a^-1 b) continues from the basis components of w.
    """
    letters = [(l.index, l.exponent) for l in pres.relator_word().letters]
    w = _times_letters(({0: 1}, {}, {}, {}), letters)
    wab = _times_letters(w, [(1, -1), (2, 1)])
    traces = (_combine(w, _TRACE_ROW), _combine(wab, _TRACE_ROW))
    diff = _combine(traces, ((0, 0, 1), (1, 0, -1)))
    return Poly._raw({PackedPoly.unpack(k, SubsetVar): c for k, c in diff.items()})


def _phi_leading_coeff(phi: Poly) -> Coeff:
    """Leading coefficient under graded-lex with t2 preceding t1."""

    def key(term) -> tuple:
        exps = dict(term[0])
        return sum(exps.values()), exps.get(T12, 0), exps.get(T1, 0)

    return max(phi.terms.items(), key=key, default=((), 0))[1]


def two_bridge_charpoly(pres: TwoBridgePresentation) -> CharVarResult:
    """Factor the character polynomial of a 2-bridge presentation.

    Computes the numerator, divides exactly by t1^2 - t2 - 2 (raising
    TwoBridgeDivisionError when the division is not exact), and normalizes
    Phi to a positive leading coefficient.
    """
    numerator = two_bridge_numerator(pres)
    divisor = abelian_divisor()
    quotient, remainder = poly_divide(numerator, divisor, var_order=[T12, T1])
    if not remainder.is_zero():
        raise TwoBridgeDivisionError(
            f"numerator for epsilons={pres.epsilons} is not divisible by"
            f" t1^2 - t2 - 2; remainder {poly_pretty(remainder)}"
        )
    if _phi_leading_coeff(quotient) < 0:
        quotient = -quotient
    q_poly = divisor * quotient
    phi_at_22 = quotient.evaluate({T1: 2, T12: 2})
    return CharVarResult(pres.epsilons, q_poly, quotient, phi_at_22)


# ---------------------------------------------------------------------------
# Square-freeness of Phi: resultant test at integer points, over Z
# ---------------------------------------------------------------------------


def _constant_gcd(f: list[int], g: list[int]) -> bool:
    """True iff gcd(f, g) over Q is constant, by the primitive PRS over Z.

    f and g list coefficients lowest degree first, leading ones nonzero.  The
    dividend is multiplied by lc(g) so that each step cancels its leading
    term without division; the pseudo-remainder is divided by its content.
    """
    f, g = _modlin.primitive(f), _modlin.primitive(g)
    while len(g) > 1:
        r = f
        while len(r) >= len(g):
            lead, shift = r[-1], len(r) - len(g)
            r = [g[-1] * a for a in r[:-1]]
            for i, b in enumerate(g[:-1]):
                r[shift + i] -= lead * b
            while r and not r[-1]:
                r.pop()
        if not r:
            return False
        f, g = g, _modlin.primitive(r)
    return True


def is_square_free(phi: Poly) -> bool:
    """True iff Phi in Q[t1, t2] has no repeated nonconstant factor.

    For each variable z in which Phi has positive degree m, with o the other
    variable, Res_z(Phi, dPhi/dz) must not vanish identically in o.  In
    characteristic 0 a common factor of Phi and dPhi/dz of positive z-degree
    is a squared factor, and a squared factor free of z is caught by the
    other variable's pass.

    The resultant has o-degree at most D = (2m - 1) * deg_o(Phi).  At an
    integer o = c where the leading z-coefficient of Phi does not vanish it
    specializes exactly, so it is nonzero there iff gcd(Phi(c, z),
    dPhi/dz(c, z)) over Q is constant.  Points c = 0, 1, 2, ... where the
    leading coefficient vanishes are skipped; the first admissible point
    with a constant gcd passes the variable, and D + 1 admissible points
    with non-constant gcds prove the resultant identically zero.  Phi is
    scaled to integer coefficients once, and each gcd runs over Z.
    """
    if phi.is_zero():
        return False
    den = lcm(*(coeff.denominator for coeff in phi.terms.values()))
    exps = []
    for mono, coeff in phi.terms.items():
        powers = dict(mono)
        unknown = set(powers) - {T1, T12}
        if unknown:
            raise CharVarError(f"not a (t1, t2) polynomial: {unknown}")
        exps.append(((powers.get(T1, 0), powers.get(T12, 0)), int(coeff * den)))
    for z in (0, 1):
        terms = [(e[z], e[1 - z], coeff) for e, coeff in exps]
        m = max(ez for ez, _, _ in terms)
        if m == 0:
            continue
        bound = (2 * m - 1) * max(eo for _, eo, _ in terms)
        failed = 0
        for c in itertools.count():
            f = [0] * (m + 1)
            for ez, eo, coeff in terms:
                f[ez] += coeff * c**eo
            if not f[m]:
                continue
            if _constant_gcd(f, [k * a for k, a in enumerate(f)][1:]):
                break
            failed += 1
            if failed > bound:
                return False
    return True


# ---------------------------------------------------------------------------
# Relation harvesting
# ---------------------------------------------------------------------------

GroupSpec = tuple[str, int]


def parse_group_spec(text: str) -> GroupSpec:
    kind, _, n = text.partition(":")
    if kind not in ("free", "abelian") or not n.isdigit() or int(n) < 1:
        raise CharVarError(f"bad group spec {text!r}; expected free:N or abelian:N")
    return (kind, int(n))


def generator_vars(spec: GroupSpec) -> list:
    kind, n = spec
    if kind == "free":
        return skein_basis_vars(n, ReductionMode.INTEGRAL)
    out = [AbelianVar((i,)) for i in range(1, n + 1)]
    out.extend(
        AbelianVar((j, k)) for j in range(1, n + 1) for k in range(j + 1, n + 1)
    )
    return out


# Cap on the values a harvest's samples hold: samples x monomials.  Peak
# memory grows by about 33 bytes per value (free:3 at degree 7 with --samples
# auto holds 6,864 x 3,432 = 23.6M and peaks at 734 MiB), so the cap keeps a
# harvest near 1 GiB.
HARVEST_MAX_VALUES = 32_000_000


def check_harvest_size(
    spec: GroupSpec, degree_bound: int, sample_count: int | None = None
) -> int:
    """Refuse a harvest too large to run, before anything is built.

    A sample holds one value per generator and per monomial.  Both are
    counted, not listed: 2^n - 1 or n + C(n, 2) generators and C(nvars + d, d)
    monomials, counting up only until past the cap, so that an absurd rank
    or degree costs nothing.  Returns the sample count; None means 2 x the
    monomial count (--samples auto).
    """
    kind, n = spec
    if degree_bound < 0:
        raise HarvestError(f"degree bound must be >= 0, got {degree_bound}")
    nvars = 2 ** min(n, 64) - 1 if kind == "free" else n + n * (n - 1) // 2
    monos = 1
    for k in range(1, min(nvars, degree_bound) + 1):  # C(nvars + d, k), rising
        monos = monos * (nvars + degree_bound + 1 - k) // k
        if monos > HARVEST_MAX_VALUES:
            break
    samples = 2 * monos if sample_count is None else sample_count
    if max(samples, 1) * max(monos, nvars) > HARVEST_MAX_VALUES:
        raise HarvestError(
            f"harvest too large: {kind}:{n} at degree {degree_bound} needs more"
            f" than {HARVEST_MAX_VALUES:,} sample values; lower --degree or --samples"
        )
    return samples


def monomial_exponents(nvars: int, degree_bound: int) -> list[tuple[int, ...]]:
    """All exponent vectors with total degree <= bound, in a deterministic order."""
    # A multiset of degree_bound indices, index nvars being slack, is a monomial.
    combos = itertools.combinations_with_replacement(range(nvars + 1), degree_bound)
    out = [tuple(map(combo.count, range(nvars))) for combo in combos]
    return sorted(out, key=lambda t: (sum(t), t))


@dataclass
class RelationBasis:
    group_spec: GroupSpec
    degree_bound: int
    seed: int
    sample_count: int
    relations: list[Poly] = field(default_factory=list)

    def to_dict(self) -> dict:
        kind, n = self.group_spec
        return {
            "group": f"{kind}:{n}",
            "degree_bound": self.degree_bound,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "generators": [str(v) for v in generator_vars(self.group_spec)],
            "relation_count": len(self.relations),
            "relations": [poly_to_dict(r) for r in self.relations],
        }


@dataclass
class TangentReport:
    group_spec: GroupSpec
    ambient_dim: int
    jacobian_rank_at_chi0: int
    tangent_dim: int

    def to_dict(self) -> dict:
        kind, n = self.group_spec
        return {
            "group": f"{kind}:{n}",
            "ambient_dim": self.ambient_dim,
            "jacobian_rank_at_chi0": self.jacobian_rank_at_chi0,
            "tangent_dim": self.tangent_dim,
        }


def _sample_generator_values(
    spec: GroupSpec, gen_vars: Sequence, rng: random.Random
) -> list[int]:
    """One sample as an integer row [h, a_1, ..., a_k]: generator i is a_i / h.

    h = 1 for free groups.  For abelian groups h is the lcm of denominators
    whose primes are at most 7, so h is a unit modulo every harvest prime.
    An abelian generator is x + 1/x for a product x = a/b of the eigenvalues
    ±(1..9)/(1..9), kept as a pair of ints.
    """
    kind, n = spec
    if kind == "free":
        images = sample_representation(rng, n, walk_length=5)
        return [1] + subset_traces(images, [v.subset for v in gen_vars])
    lams = [
        (rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9)) for _ in range(n)
    ]
    values = []
    for v in gen_vars:
        a = prod(lams[i - 1][0] for i in v.indices)
        b = prod(lams[i - 1][1] for i in v.indices)
        g = gcd(a, b)
        a, b = a // g, b // g
        # (a^2 + b^2) / (a b) is in lowest terms: a prime dividing a b divides
        # exactly one of a, b, so it does not divide a^2 + b^2.
        s = a * a + b * b
        values.append((s if a > 0 else -s, abs(a) * b))
    h = lcm(*(den for _, den in values))
    return [h] + [num * (h // den) for num, den in values]


def _monomial_matrix_mod_p(
    samples: Sequence[Sequence[int]], monos: Sequence[tuple[int, ...]], p: int
) -> np.ndarray:
    """Values mod p of every monomial (columns) at every sample (rows)."""
    rows = np.array([[v % p for v in row] for row in samples], dtype=np.int64)
    inv = np.array([pow(int(h), -1, p) for h in rows[:, 0]], dtype=np.int64)
    # Residues are below 2^23, so each product is below 2^46.
    base = (rows[:, 1:] * inv[:, None] % p).T
    known = {(0,) * len(base): np.ones(len(samples), dtype=np.int64)}
    out = np.empty((len(monos), len(samples)), dtype=np.int64)
    for j, mono in enumerate(monos):
        out[j] = _monomial_values(mono, known, base, p)
        known[mono] = out[j]
    return out.T


def _monomial_values(mono, known: dict, base: np.ndarray, p: int) -> np.ndarray:
    """One variable's values times those of the monomial one degree lower."""
    if mono not in known:
        v = next(v for v, e in enumerate(mono) if e)
        lower = mono[:v] + (mono[v] - 1,) + mono[v + 1 :]
        known[mono] = _monomial_values(lower, known, base, p) * base[v] % p
    return known[mono]


def _primitive_int_vector(fracs: Sequence[Fraction | int]) -> list[int]:
    """The primitive integer multiple of fracs whose first nonzero entry is positive."""
    den = lcm(*(f.denominator for f in fracs))
    ints = _modlin.primitive([int(f * den) for f in fracs])
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return ints


def _certified_zero(
    samples: Sequence[Sequence[int]],
    monos: Sequence[tuple[int, ...]],
    relations: Sequence[Sequence[int]],
    degree_bound: int,
    fresh: Sequence[Sequence[int]],
    bases: dict[int, tuple[np.ndarray, list[int]]],
) -> bool:
    """Exact check that every relation vanishes on every row [h, a_1, ...].

    The rows are the samples and then the fresh rows.  At a row, h^D times a
    relation's value is an integer of absolute value at most
    sum |c| * max(h, |a_i|)^D, D the degree bound.  As h is a unit modulo
    every prime, vanishing modulo certification primes whose product exceeds
    twice that bound proves exact vanishing.

    bases maps a prime q to a nullspace basis B_q mod q, and its pivot rows,
    that every sample row annihilates, as `nullspace_mod_p` returns them;
    B_q is the identity on its other rows F.  If every relation c satisfies
    c = B_q c[F] mod q, each lies in the span of B_q, so every sample row
    vanishes on it mod q and only the fresh rows are evaluated at q.  The
    soundness rests on this span check alone, not on how the relations were
    found; at any other prime every row is evaluated.
    """
    if not relations:
        return True
    rows = [*samples, *fresh]
    sum_abs = max(sum(abs(c) for c in rel) for rel in relations)
    bound = sum_abs * max(abs(v) for row in rows for v in row) ** degree_bound
    for q in _modlin.primes_covering(bound):
        c_q = np.array([[c % q for c in rel] for rel in relations], dtype=np.int64)
        todo = rows
        if q in bases:
            basis, pivots = bases[q]
            free = sorted(set(range(len(monos))) - set(pivots))
            if (_modlin.matmul_mod_p(c_q[:, free], basis.T, q) == c_q).all():
                todo = fresh
        v_q = _monomial_matrix_mod_p(todo, monos, q)
        if _modlin.matmul_mod_p(v_q, c_q.T, q).any():
            return False
    return True


def _sign_class(powers) -> int:
    """The H^1(G; Z/2) class of a monomial given as (variable, exponent) pairs.

    A sign character eps flips generator i when bit i of its mask is set, and
    multiplies the coordinate of an index set S by the product of its flips,
    so a variable's class is the mask of its index set and a monomial's is
    the XOR of the classes of its odd powers.
    """
    c = 0
    for v, e in powers:
        if e & 1:
            for i in v._key[1]:
                c ^= 1 << i
    return c


def _sign_blocks(
    gen_vars: Sequence, monos: Sequence[tuple[int, ...]]
) -> list[np.ndarray]:
    """The column indices of monos, one ascending int array per sign class."""
    by_class: dict[int, list[int]] = {}
    for j, mono in enumerate(monos):
        by_class.setdefault(_sign_class(zip(gen_vars, mono)), []).append(j)
    return [np.array(cols) for cols in by_class.values()]


def _nullspace_by_sign_class(
    v_p: np.ndarray, blocks: Sequence[np.ndarray], p: int
) -> tuple[np.ndarray, list[int]]:
    """`nullspace_mod_p` of v_p, one block of sign-class columns at a time.

    Each block's canonical basis goes on that block's rows, the columns are
    ordered by their free column and the pivots merged, so the result is the
    identity on its free rows.  It is the canonical basis of the direct sum
    of the blocks' nullspaces: that of v_p whenever v_p's nullspace is graded.
    """
    pivots, free, parts = [], [], []
    for block in blocks:
        basis, piv = _modlin.nullspace_mod_p(v_p[:, block], p)
        pivots += block[piv].tolist()
        free += np.delete(block, piv).tolist()
        part = np.zeros((v_p.shape[1], basis.shape[1]), dtype=np.int64)
        part[block] = basis
        parts.append(part)
    return np.hstack(parts)[:, np.argsort(free)], sorted(pivots)


# Nullspace primes a harvest may draw: six primes of 23 bits, about 2^138.
HARVEST_PRIMES = 6


def harvest_relations(
    group_spec: GroupSpec,
    degree_bound: int,
    sample_count: int,
    seed: int,
) -> RelationBasis:
    """Basis of polynomial relations among the canonical generators.

    Every returned relation is a primitive integer-coefficient polynomial
    that provably vanishes at the generator values of every sampled
    representation and of a fresh held-out batch; `_certified_zero` alone
    proves it.

    The sign characters H^1(G; Z/2) act on X(G) by rho -> eps rho and grade
    its ideal by `_sign_class` (Heusener-Porti, Bol. Soc. Mat. Mexicana 10,
    2004), so the nullspace is found one block of same-class monomials at a
    time.  That returns the class-homogeneous relations on the samples: the
    same as one nullspace of every column whenever the relations on the
    samples are sign-invariant, as they are for generic samples.  An empty
    result is still a certificate: each class component of a relation is a
    relation, and a primitive integer one reduces to a nonzero vector of its
    block's nullspace mod p, so every block is empty only if no relation is.
    """
    kind, n = group_spec
    if kind not in ("free", "abelian"):
        raise CharVarError(f"unknown group kind {kind!r}")
    check_harvest_size(group_spec, degree_bound, sample_count)
    gen_vars = generator_vars(group_spec)
    monos = monomial_exponents(len(gen_vars), degree_bound)
    if sample_count < 2 * len(monos):
        raise HarvestError(
            f"insufficient samples: need >= {2 * len(monos)}, got {sample_count}"
        )
    rng = random.Random(f"skeinlab-harvest-{kind}-{n}-{degree_bound}-{seed}")
    samples = [
        _sample_generator_values(group_spec, gen_vars, rng)
        for _ in range(sample_count)
    ]
    fresh = [_sample_generator_values(group_spec, gen_vars, rng) for _ in range(50)]
    blocks = _sign_blocks(gen_vars, monos)

    # The CRT lift of the nullspace bases modulo the product of the primes so far.
    lift, modulus, pivot_ref = None, 1, None
    # Every nullspace basis by its prime: certification reuses them.
    bases = {}
    for p in itertools.islice(_modlin.primes(), HARVEST_PRIMES):
        v_p = _monomial_matrix_mod_p(samples, monos, p)
        basis_p, pivots_p = bases[p] = _nullspace_by_sign_class(v_p, blocks, p)
        if basis_p.shape[1] == 0:
            # Every block is empty mod p: no relation at all (see above).
            return RelationBasis(group_spec, degree_bound, seed, sample_count, [])
        if pivots_p != pivot_ref:
            # The first prime, or an unlucky one dropped rank: restart the lift.
            lift, modulus, pivot_ref = basis_p.astype(object), p, pivots_p
            continue
        lift = _modlin.crt_pair(lift, modulus, basis_p.astype(object), p)
        modulus *= p
        rel_vectors = _reconstruct_relations(lift, modulus)
        # A failed reconstruction or certification widens the modulus by a prime.
        if rel_vectors is not None and _certified_zero(
            samples, monos, rel_vectors, degree_bound, fresh, bases
        ):
            relations = [_vector_to_poly(vec, monos, gen_vars) for vec in rel_vectors]
            return RelationBasis(group_spec, degree_bound, seed, sample_count, relations)
    raise HarvestError(
        f"no certified relations within {HARVEST_PRIMES} primes; rerun with a"
        " different seed or more samples"
    )


def _reconstruct_relations(lift: np.ndarray, modulus: int) -> list[list[int]] | None:
    """Primitive integer relations from the columns of a CRT lift, or None."""
    relations = []
    for column in lift.T:
        # A zero residue reconstructs to 0.
        fracs = [v and _modlin.rational_reconstruct(int(v), modulus) for v in column]
        if None in fracs:
            return None
        relations.append(_primitive_int_vector(fracs))
    return relations


def relation_from_dict(spec: GroupSpec, data) -> Poly:
    """Rebuild a harvested relation from its JSON form."""
    kind, _ = spec
    if kind == "free":
        return poly_from_dict(data)
    return poly_from_dict(data, var_parser=parse_abelian_var)


def _vector_to_poly(vec: Sequence[int], monos, gen_vars) -> Poly:
    terms = {}
    for coeff, mono in zip(vec, monos):
        if coeff == 0:
            continue
        key = tuple(
            (gen_vars[v], e) for v, e in enumerate(mono) if e
        )
        terms[key] = coeff
    return Poly(terms)


def tangent_dim_at_trivial(basis: RelationBasis) -> TangentReport:
    """Tangent dimension at chi_0, where every generator variable equals 2."""
    gen_vars = generator_vars(basis.group_spec)
    index = {v: i for i, v in enumerate(gen_vars)}
    rows = []
    for rel in basis.relations:
        # d(c * prod v^e)/dv at the all-2 point is c * e * 2^(deg - 1).
        row = [0] * len(gen_vars)
        for mono, c in rel.terms.items():
            deg = sum(e for _, e in mono)
            for v, e in mono:
                row[index[v]] += c * e * 2 ** (deg - 1)
        if any(row):
            rows.append(_primitive_int_vector(row))
    rank = len(_modlin.int_rref(rows)[1])
    return TangentReport(
        basis.group_spec,
        ambient_dim=len(gen_vars),
        jacobian_rank_at_chi0=rank,
        tangent_dim=len(gen_vars) - rank,
    )


# ---------------------------------------------------------------------------
# The X(Z^2) equation
# ---------------------------------------------------------------------------


def x_z2_relation_poly(offset: int = 4) -> Poly:
    """u1^2 + u2^2 + v12^2 - u1*u2*v12 - offset, in abelian generator variables."""
    u1 = Poly.variable(AbelianVar((1,)))
    u2 = Poly.variable(AbelianVar((2,)))
    v12 = Poly.variable(AbelianVar((1, 2)))
    return u1 * u1 + u2 * u2 + v12 * v12 - u1 * u2 * v12 - Poly.const(offset)


def check_x_z2_identity() -> bool:
    """True iff the X(Z^2) equation maps to zero in the symmetric Laurent model."""
    element = SkeinElement(2, ReductionMode.DYADIC, "abelian", x_z2_relation_poly())
    return to_laurent(element).is_zero()
