"""Character-variety computations at desk scale.

Three consumers of the trace engine live here:

* the 2-bridge knot pipeline: for G = <a,b | wa = bw> the difference
  P_w - P_{bwa^-1}, with [b] identified to [a], factors exactly as
  (t1^2 - t2 - 2) * Phi(t1, t2) where t1 = tr(a), t2 = tr(ab); the division
  must be exact and aborts loudly otherwise;

* relation harvesting: the polynomial relations among the canonical
  generators, found as the nullspace of an exact evaluation matrix over
  random representations (modular ranks first, rational reconstruction,
  then a certified exact verification pass);

* tangent-space dimensions at the trivial character chi_0 (every generator
  equal to 2): ambient generator count minus the rank of the relation
  Jacobian at the all-2 point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from . import _modlin, trace_engine
from .exactpoly import (
    Coeff,
    Poly,
    SubsetVar,
    poly_divide,
    poly_from_dict,
    poly_pretty,
    poly_to_dict,
)
from .oracle import eval_word, sample_representation
from .skein import AbelianVar, SkeinElement, parse_abelian_var, to_laurent
from .trace_engine import ReductionMode, skein_basis_vars
from .words import GroupWord, reduce_word, subset_word


class CharVarError(ValueError):
    pass


class TwoBridgeDivisionError(CharVarError):
    """The numerator failed exact division by t1^2 - t2 - 2.

    This means the input is not a valid 2-bridge epsilon vector, or the
    engine produced a wrong polynomial; either way it must not be ignored.
    """


class HarvestError(CharVarError):
    pass


T1 = SubsetVar((1,))
T2_GEN = SubsetVar((2,))
T12 = SubsetVar((1, 2))

KNOT_PRESETS = {
    "trefoil": (1,),
    "fig8": (1, -1),
}


@dataclass(frozen=True)
class TwoBridgePresentation:
    """G = <a,b | wa = bw> with w = a^e1 b^en a^e2 b^e(n-1) ... a^en b^e1."""

    epsilons: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.epsilons:
            raise CharVarError("epsilon vector must be nonempty")
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

    def relator_word(self, swap_roles: bool = False) -> GroupWord:
        a_idx, b_idx = (2, 1) if swap_roles else (1, 2)
        eps = self.epsilons
        n = len(eps)
        pairs = []
        for i in range(n):
            pairs.append((a_idx, eps[i]))
            pairs.append((b_idx, eps[n - 1 - i]))
        return reduce_word(pairs, 2)


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
    return (
        Poly.variable(T1) * Poly.variable(T1) - Poly.variable(T12) - Poly.const(2)
    )


def two_bridge_numerator(
    pres: TwoBridgePresentation, swap_roles: bool = False
) -> Poly:
    """P_w - P_{bwa^-1} with [b] := [a], in the variables t1, t2 = tr(ab).

    With swap_roles the computation runs with a and b exchanged and the
    result is mapped back to the same two variables; up to sign it must
    agree with the unswapped numerator.
    """
    a_idx, b_idx = (2, 1) if swap_roles else (1, 2)
    w = pres.relator_word(swap_roles)
    bwa = reduce_word(
        [(b_idx, 1)] + [(l.index, l.exponent) for l in w.letters] + [(a_idx, -1)], 2
    )
    p_w = trace_engine.reduce_trace(w, ReductionMode.INTEGRAL)
    p_bwa = trace_engine.reduce_trace(bwa, ReductionMode.INTEGRAL)
    a_var = SubsetVar((a_idx,))
    b_var = SubsetVar((b_idx,))
    numerator = (p_w - p_bwa).substitute({b_var: Poly.variable(a_var)})
    if swap_roles:
        numerator = numerator.map_variables(lambda v: T1 if v == T2_GEN else v)
    return numerator


def _phi_leading_coeff(phi: Poly) -> Coeff:
    """Leading coefficient under graded-lex with t2 preceding t1."""
    best = None
    best_key = None
    for mono, coeff in phi.terms.items():
        exps = dict(mono)
        key = (
            sum(e for _, e in mono),
            exps.get(T12, 0),
            exps.get(T1, 0),
        )
        if best_key is None or key > best_key:
            best_key = key
            best = coeff
    return best if best is not None else 0


def two_bridge_charpoly(pres: TwoBridgePresentation) -> CharVarResult:
    """Factor the character polynomial of a 2-bridge presentation.

    Computes the numerator, divides exactly by t1^2 - t2 - 2 (raising
    TwoBridgeDivisionError when the division is not exact), and normalizes
    Phi to a positive leading coefficient.
    """
    numerator = two_bridge_numerator(pres)
    divisor = abelian_divisor()
    # Cheap order-independent divisibility test: t2 := t1^2 - 2 must kill it.
    residual = numerator.substitute(
        {T12: Poly.variable(T1) * Poly.variable(T1) - Poly.const(2)}
    )
    quotient, remainder = poly_divide(numerator, divisor, var_order=[T12, T1])
    if not residual.is_zero() or not remainder.is_zero():
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
# Square-freeness of Phi: resultant test at integer points, over Q
# ---------------------------------------------------------------------------


def _uni_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_divmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise CharVarError("univariate division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, bc in enumerate(b):
            a[shift + i] -= f * bc
        _uni_trim(a)
    return q, a


def _uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        _, r = _uni_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


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
    with non-constant gcds prove the resultant identically zero.
    """
    if phi.is_zero():
        return False
    exps = []
    for mono, coeff in phi.terms.items():
        powers = dict(mono)
        unknown = set(powers) - {T1, T12}
        if unknown:
            raise CharVarError(f"not a (t1, t2) polynomial: {unknown}")
        exps.append(((powers.get(T1, 0), powers.get(T12, 0)), Fraction(coeff)))
    for z in (0, 1):
        terms = [(e[z], e[1 - z], coeff) for e, coeff in exps]
        m = max(ez for ez, _, _ in terms)
        if m == 0:
            continue
        bound = (2 * m - 1) * max(eo for _, eo, _ in terms)
        failed = 0
        for c in itertools.count():
            f = [Fraction(0)] * (m + 1)
            for ez, eo, coeff in terms:
                f[ez] += coeff * c**eo
            if not f[m]:
                continue
            if len(_uni_gcd(f, [k * a for k, a in enumerate(f)][1:])) == 1:
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


def monomial_exponents(nvars: int, degree_bound: int) -> list[tuple[int, ...]]:
    """All exponent vectors with total degree <= bound, in a deterministic order."""
    out: list[tuple[int, ...]] = []

    def rec(pos: int, left: int, acc: list[int]):
        if pos == nvars:
            out.append(tuple(acc))
            return
        for e in range(left + 1):
            rec(pos + 1, left - e, acc + [e])

    rec(0, degree_bound, [])
    out.sort(key=lambda t: (sum(t), t))
    return out


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
) -> list[Fraction | int]:
    kind, n = spec
    if kind == "free":
        rep = sample_representation(rng, n, walk_length=5)
        return [eval_word(subset_word(v.subset, n), rep).trace for v in gen_vars]
    lams = []
    for _ in range(n):
        num = rng.randint(1, 9) * rng.choice((-1, 1))
        den = rng.randint(1, 9)
        lams.append(Fraction(num, den))
    values = []
    for v in gen_vars:
        prod = Fraction(1)
        for i in v.indices:
            prod *= lams[i - 1]
        values.append(prod + 1 / prod)
    return values


def _values_mod_p(values: np.ndarray | list, p: int) -> np.ndarray:
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        if isinstance(v, Fraction):
            out[i] = v.numerator % p * pow(v.denominator % p, p - 2, p) % p
        else:
            out[i] = v % p
    return out


def _monomial_matrix_mod_p(
    samples: Sequence[Sequence], monos: Sequence[tuple[int, ...]], p: int
) -> np.ndarray:
    nvars = len(samples[0])
    degmax = max((max(m) if m else 0 for m in monos), default=0)
    base = np.empty((len(samples), nvars), dtype=np.int64)
    for s, values in enumerate(samples):
        base[s] = _values_mod_p(values, p)
    # power_table[v][k] = column of v-th generator values to the k-th power
    power_table = []
    for v in range(nvars):
        powers = [np.ones(len(samples), dtype=np.int64)]
        for _ in range(degmax):
            powers.append(powers[-1] * base[:, v] % p)
        power_table.append(powers)
    out = np.empty((len(samples), len(monos)), dtype=np.int64)
    for j, mono in enumerate(monos):
        col = np.ones(len(samples), dtype=np.int64)
        for v, e in enumerate(mono):
            if e:
                col = col * power_table[v][e] % p
        out[:, j] = col
    return out


def _primitive_int_vector(fracs: Sequence[Fraction]) -> list[int]:
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def _certified_zero(
    samples: Sequence[Sequence],
    monos: Sequence[tuple[int, ...]],
    relations: Sequence[Sequence[int]],
    degree_bound: int,
) -> bool:
    """Exact check that every relation vanishes on every sample.

    A relation value is a rational whose numerator is bounded a priori;
    vanishing modulo enough certification primes that their product exceeds
    twice that bound proves exact vanishing.
    """
    if not relations:
        return True
    sum_abs = max(sum(abs(c) for c in rel) for rel in relations)
    bound = 0
    for values in samples:
        mag = 1
        den = 1
        for v in values:
            f = Fraction(v)
            mag = max(mag, abs(f.numerator) // f.denominator + 1)
            den *= f.denominator
        bound = max(bound, sum_abs * mag**degree_bound * den**degree_bound)
    primes = _modlin.primes_covering(bound)
    rel_matrix = np.array([list(rel) for rel in relations], dtype=object).T
    block = _modlin.CERTIFY_BLOCK
    for q in primes:
        v_q = _monomial_matrix_mod_p(samples, monos, q)
        c_q = np.empty(rel_matrix.shape, dtype=np.int64)
        for i in range(rel_matrix.shape[0]):
            for j in range(rel_matrix.shape[1]):
                c_q[i, j] = int(rel_matrix[i, j]) % q
        # Reduce after each block of columns so the int64 sums cannot wrap.
        acc = np.zeros((v_q.shape[0], c_q.shape[1]), dtype=np.int64)
        for k in range(0, v_q.shape[1], block):
            acc = (acc + v_q[:, k : k + block] @ c_q[k : k + block]) % q
        if np.any(acc):
            return False
    return True


def harvest_relations(
    group_spec: GroupSpec,
    degree_bound: int,
    sample_count: int,
    seed: int,
) -> RelationBasis:
    """Basis of polynomial relations among the canonical generators.

    Every returned relation is a primitive integer-coefficient polynomial
    that provably vanishes at the generator values of every sampled
    representation and of a fresh held-out batch.
    """
    kind, n = group_spec
    if kind not in ("free", "abelian"):
        raise CharVarError(f"unknown group kind {kind!r}")
    if degree_bound < 0:
        raise HarvestError(f"degree bound must be >= 0, got {degree_bound}")
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

    bases: list[np.ndarray] = []
    pivot_ref: list[int] | None = None
    used_primes: list[int] = []
    for p in _modlin.NULLSPACE_PRIMES:
        v_p = _monomial_matrix_mod_p(samples, monos, p)
        basis_p, pivots_p = _modlin.nullspace_mod_p(v_p, p)
        if pivot_ref is None:
            pivot_ref = pivots_p
        elif pivots_p != pivot_ref:
            # An unlucky prime dropped rank; restart the CRT stack from here.
            bases = []
            used_primes = []
            pivot_ref = pivots_p
        if basis_p.shape[1] == 0:
            # Mod-p emptiness certifies rational emptiness: a primitive integer
            # relation would reduce to a nonzero mod-p nullspace vector.
            return RelationBasis(group_spec, degree_bound, seed, sample_count, [])
        bases.append(basis_p)
        used_primes.append(p)
        if len(used_primes) < 2:
            continue
        # CRT-combine and attempt rational reconstruction.
        modulus = 1
        combined = np.zeros(bases[0].shape, dtype=object)
        for b, q in zip(bases, used_primes):
            if modulus == 1:
                combined = b.astype(object)
                modulus = q
            else:
                for idx, val in np.ndenumerate(combined):
                    combined[idx] = _modlin.crt_pair(int(val), modulus, int(b[idx]), q)
                modulus *= q
        rel_vectors: list[list[int]] | None = []
        for j in range(combined.shape[1]):
            fracs = []
            for i in range(combined.shape[0]):
                f = _modlin.rational_reconstruct(int(combined[i, j]), modulus)
                if f is None:
                    rel_vectors = None
                    break
                fracs.append(f)
            if rel_vectors is None:
                break
            rel_vectors.append(_primitive_int_vector(fracs))
        if rel_vectors is None:
            continue  # widen the modulus with one more prime
        if not _certified_zero(samples + fresh, monos, rel_vectors, degree_bound):
            raise HarvestError(
                "reconstructed relations failed exact verification; rerun with"
                " a different seed or more samples"
            )
        relations = [
            _vector_to_poly(vec, monos, gen_vars) for vec in rel_vectors
        ]
        return RelationBasis(group_spec, degree_bound, seed, sample_count, relations)
    raise HarvestError("rational reconstruction failed at the full prime capacity")


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


def verify_relations_on_fresh_samples(
    basis: RelationBasis, count: int = 50, seed: int = 987
) -> bool:
    """Re-verify a harvested basis on newly sampled representations, exactly."""
    gen_vars = generator_vars(basis.group_spec)
    rng = random.Random(f"skeinlab-verify-{basis.group_spec}-{seed}")
    for _ in range(count):
        values = _sample_generator_values(basis.group_spec, gen_vars, rng)
        assignment = dict(zip(gen_vars, values))
        for rel in basis.relations:
            if rel.evaluate(assignment) != 0:
                return False
    return True


def tangent_dim_at_trivial(basis: RelationBasis) -> TangentReport:
    """Tangent dimension at chi_0, where every generator variable equals 2."""
    gen_vars = generator_vars(basis.group_spec)
    chi0 = {v: 2 for v in gen_vars}
    rows = []
    for rel in basis.relations:
        row = [Fraction(rel.derivative(v).evaluate(chi0)) for v in gen_vars]
        if any(row):
            rows.append(row)
    rank = len(_modlin.fraction_rref(rows)[1])
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
