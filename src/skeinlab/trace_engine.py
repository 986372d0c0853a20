"""Canonicalization of SL2 traces of free-group words.

Every word w in F_n has a trace polynomial: a polynomial in the subset-trace
coordinates t_S (S a nonempty subset of {1..n}, t_S the trace of the
increasing product of the generators in S) whose value at the subset traces
of ANY determinant-1 assignment of the generators equals tr(w).  This module
computes a canonical such polynomial by exhaustive rewriting.

The rewriting loop applies, at the leftmost applicable position and in this
priority order, the first rule that fires:

  R0  cyclic reduction + memo lookup keyed by the cyclic canonical form,
      which also hard-wires tr(w) = tr(uwu^-1) = tr(w^-1);
  R1  |exponent| >= 2:  tr(U g^e V) = t_g tr(U g^(e-s) V) - tr(U g^(e-2s) V)
      with s the sign of e (Cayley-Hamilton);
  R2  exponent -1:      tr(U g^-1 V) = t_g tr(V U) - tr(V U g);
  R3  repeated index:   tr(X A X B) = tr(X A) tr(X B) - tr(A B^-1);
  R4  adjacent out-of-order pair: the three-term sorting identity
      tr(ACB) = t_A t_BC + t_B t_AC + t_C t_AB - t_A t_B t_C - tr(ABC);
  R5  (dyadic mode only) sorted square-free word of length >= 4: the size-4
      reduction rule applied to blocks (g_i1, g_i2, g_i3, rest).

Sorted square-free words that survive the rules ARE the canonical variables.
Integral mode keeps all 2^n - 1 subset variables and stays over the
integers; dyadic mode allows only |S| <= 3 and introduces denominators that
are powers of two, via R5.

The size-4 rule itself is not transcribed from anywhere: derive_rule_k4
solves for it.  It enumerates candidate monomials in the t_T, T a subset of
{1,2,3,4} of size <= 3, subject to the sign-parity constraint (replacing
M_i by -M_i flips tr(M_1 M_2 M_3 M_4), so every candidate monomial must
contain each index an odd number of times), samples exact random SL2(Z)
quadruples, solves the linear system over the rationals, and verifies the
solved identity on fresh held-out samples.  A rule that passes is correct
with overwhelming probability and is re-certified against the matrix oracle
by every fuzz run.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _modlin
from .exactpoly import Poly, SubsetVar
from .oracle import SL2IntMatrix, sample_sl2
from .words import GroupWord, Letter, cyclic_key, reduce_word


class EngineError(ValueError):
    pass


class RuleK4Error(EngineError):
    """The bootstrap linear solve failed at every candidate weight bound."""


class ReductionMode(Enum):
    INTEGRAL = "integral"
    DYADIC = "dyadic"


# Monomials of the size-4 rule: tuples of ((subset, power), ...) with subsets
# of {1,2,3,4}, sorted; kept as plain tuples so the rule is hashable data.
RuleMonomial = tuple


@dataclass(frozen=True)
class RuleK4:
    """Universal identity 2*tr(M1 M2 M3 M4) = sum of coeff * monomial(traces)."""

    coefficients: tuple[tuple[RuleMonomial, Fraction | int], ...]
    weight_bound: int
    seed: int


_RULE_SUBSETS: tuple[tuple[int, ...], ...] = tuple(
    tuple(s)
    for k in (1, 2, 3)
    for s in itertools.combinations((1, 2, 3, 4), k)
)


def _candidate_monomials(weight_bound: int) -> list[RuleMonomial]:
    """Exponent vectors over the 14 rule variables, filtered by weight and parity."""
    out: list[RuleMonomial] = []

    def rec(pos: int, weight_left: int, chosen: list[tuple[tuple[int, ...], int]]):
        if pos == len(_RULE_SUBSETS):
            counts = [0, 0, 0, 0]
            for subset, power in chosen:
                for i in subset:
                    counts[i - 1] += power
            if all(c % 2 == 1 for c in counts):
                out.append(tuple(chosen))
            return
        subset = _RULE_SUBSETS[pos]
        step = len(subset)
        max_power = weight_left // step
        for power in range(max_power + 1):
            rec(
                pos + 1,
                weight_left - power * step,
                chosen + [(subset, power)] if power else chosen,
            )

    rec(0, weight_bound, [])
    return sorted(out)


def _quad_traces(ms: Sequence[SL2IntMatrix]) -> dict[tuple[int, ...], int]:
    vals: dict[tuple[int, ...], int] = {}
    for subset in _RULE_SUBSETS:
        prod = SL2IntMatrix.identity()
        for i in subset:
            prod = prod * ms[i - 1]
        vals[subset] = prod.trace
    return vals


def _monomial_value(m: RuleMonomial, traces: Mapping[tuple[int, ...], int]) -> int:
    val = 1
    for subset, power in m:
        val *= traces[subset] ** power
    return val


def _solve_exact(
    rows: list[list[int]], rhs: list[int]
) -> list[Fraction] | None:
    """Solve the overdetermined system rows * x = rhs over Q.

    Free variables are pinned to zero.  Returns None when inconsistent.
    """
    ncols = len(rows[0])
    m, pivots = _modlin.fraction_rref([row + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(m, pivots):
        x[col] = row[ncols]
    return x


def derive_rule_k4(oracle_seed: int = 0) -> RuleK4:
    """Solve for the size-4 reduction rule and verify it on held-out samples.

    Candidate weight bounds grow through 4, 6, 8; the solve must both succeed
    and leave an exactly-zero residual on 100 fresh determinant-1 quadruples.
    """
    rng = random.Random(f"skeinlab-rule-k4-{oracle_seed}")
    last_error = "no candidate weight bound attempted"
    for bound in (4, 6, 8):
        cands = _candidate_monomials(bound)
        n_samples = 2 * len(cands) + 8
        quads = [
            [sample_sl2(rng, walk_length=4) for _ in range(4)]
            for _ in range(n_samples)
        ]
        rows, rhs = [], []
        for ms in quads:
            traces = _quad_traces(ms)
            rows.append([_monomial_value(m, traces) for m in cands])
            prod = ms[0] * ms[1] * ms[2] * ms[3]
            rhs.append(2 * prod.trace)
        sol = _solve_exact(rows, rhs)
        if sol is None:
            last_error = f"inconsistent system at weight bound {bound}"
            continue
        coeffs = tuple(
            (m, c if isinstance(c, int) else (int(c) if c.denominator == 1 else c))
            for m, c in zip(cands, sol)
            if c != 0
        )
        rule = RuleK4(coefficients=coeffs, weight_bound=bound, seed=oracle_seed)
        residuals = verify_rule_k4(rule, count=100, rng=rng)
        if all(r == 0 for r in residuals):
            return rule
        last_error = f"held-out residual nonzero at weight bound {bound}"
    raise RuleK4Error(last_error)


def verify_rule_k4(
    rule: RuleK4,
    count: int = 100,
    rng: random.Random | None = None,
    seed: int = 0,
    specialize_identity: bool = False,
) -> list:
    """Residuals 2*tr(M1 M2 M3 M4) - rule(traces) on fresh exact quadruples.

    With specialize_identity the fourth matrix is pinned to the identity,
    checking that the rule collapses to a valid 3-matrix identity.
    """
    if rng is None:
        rng = random.Random(f"skeinlab-rule-k4-verify-{seed}")
    residuals = []
    for _ in range(count):
        ms = [sample_sl2(rng, walk_length=4) for _ in range(4)]
        if specialize_identity:
            ms[3] = SL2IntMatrix.identity()
        traces = _quad_traces(ms)
        total = 0
        for m, c in rule.coefficients:
            total = total + c * _monomial_value(m, traces)
        prod = ms[0] * ms[1] * ms[2] * ms[3]
        residuals.append(2 * prod.trace - total)
    return residuals


def skein_basis_vars(n: int, mode: ReductionMode) -> list[SubsetVar]:
    """Canonical generator variables: all nonempty subsets, or only |S| <= 3."""
    if n < 1:
        raise EngineError(f"rank must be >= 1, got {n}")
    mode = ReductionMode(mode)
    max_size = n if mode is ReductionMode.INTEGRAL else min(n, 3)
    out = []
    for k in range(1, max_size + 1):
        for s in itertools.combinations(range(1, n + 1), k):
            out.append(SubsetVar(s))
    return out


class TraceEngine:
    """Reduction engine for one mode; reuse one instance to share the memo table."""

    def __init__(
        self,
        mode: ReductionMode,
        rule_k4: RuleK4 | None = None,
        memo: dict[tuple[GroupWord, ReductionMode], Poly] | None = None,
    ):
        self.mode = ReductionMode(mode)
        if self.mode is ReductionMode.DYADIC and rule_k4 is None:
            rule_k4 = derive_rule_k4()
        self.rule_k4 = rule_k4
        self.memo = memo if memo is not None else {}
        self.stats: Counter[str] = Counter()

    # -- public API ---------------------------------------------------------

    def reduce(self, word: GroupWord) -> Poly:
        key = cyclic_key(word)
        cached = self.memo.get((key, self.mode))
        if cached is not None:
            self.stats["r0_memo_hit"] += 1
            return cached
        poly = self._reduce_canonical(key)
        self.memo[(key, self.mode)] = poly
        return poly

    # -- internals ----------------------------------------------------------

    def _child(self, rank: int, pairs: Iterable[tuple[int, int]]) -> Poly:
        return self.reduce(reduce_word(list(pairs), rank))

    def _reduce_canonical(self, w: GroupWord) -> Poly:
        letters = w.letters
        rank = w.rank
        if not letters:
            self.stats["identity"] += 1
            return Poly.const(2)
        if len(letters) == 1 and abs(letters[0].exponent) == 1:
            self.stats["generator"] += 1
            return Poly.variable(SubsetVar((letters[0].index,)))

        # R1: Cayley-Hamilton on the leftmost letter with |exponent| >= 2.
        for pos, l in enumerate(letters):
            e = l.exponent
            if abs(e) >= 2:
                self.stats["r1_cayley_hamilton"] += 1
                s = 1 if e > 0 else -1
                t_g = Poly.variable(SubsetVar((l.index,)))
                drop_one = [
                    (x.index, x.exponent if i != pos else e - s)
                    for i, x in enumerate(letters)
                ]
                drop_two = [
                    (x.index, x.exponent if i != pos else e - 2 * s)
                    for i, x in enumerate(letters)
                ]
                return t_g * self._child(rank, drop_one) - self._child(rank, drop_two)

        # R2: remove the leftmost inverse letter.
        for pos, l in enumerate(letters):
            if l.exponent == -1:
                self.stats["r2_inverse"] += 1
                t_g = Poly.variable(SubsetVar((l.index,)))
                vu = [(x.index, x.exponent) for x in letters[pos + 1 :] + letters[:pos]]
                return t_g * self._child(rank, vu) - self._child(
                    rank, vu + [(l.index, 1)]
                )

        # All exponents are +1 from here on.
        # R3: split at the first index that occurs twice.
        first_at: dict[int, int] = {}
        repeat_pos = None
        for pos, l in enumerate(letters):
            if l.index in first_at:
                repeat_pos = first_at[l.index]
                break
            first_at[l.index] = pos
        if repeat_pos is not None:
            self.stats["r3_repeat"] += 1
            rot = letters[repeat_pos:] + letters[:repeat_pos]
            second = next(i for i in range(1, len(rot)) if rot[i].index == rot[0].index)
            x = rot[0]
            a_blk = rot[1:second]
            b_blk = rot[second + 1 :]
            xa = [(l.index, 1) for l in rot[:second]]
            xb = [(x.index, 1)] + [(l.index, 1) for l in b_blk]
            ab_inv = [(l.index, 1) for l in a_blk] + [
                (l.index, -1) for l in reversed(b_blk)
            ]
            return self._child(rank, xa) * self._child(rank, xb) - self._child(
                rank, ab_inv
            )

        # Square-free positive word: rotate the smallest index to the front.
        mpos = min(range(len(letters)), key=lambda i: letters[i].index)
        rot = letters[mpos:] + letters[:mpos]

        # R4: sort by the three-term identity at the leftmost adjacent inversion.
        for i in range(len(rot) - 1):
            if rot[i].index > rot[i + 1].index:
                self.stats["r4_sort"] += 1
                x, y = rot[i], rot[i + 1]
                a_blk = [(l.index, 1) for l in rot[i + 2 :]] + [
                    (l.index, 1) for l in rot[:i]
                ]
                t_x = Poly.variable(SubsetVar((x.index,)))
                t_y = Poly.variable(SubsetVar((y.index,)))
                t_a = self._child(rank, a_blk)
                t_bc = self._child(rank, [(y.index, 1), (x.index, 1)])
                t_ac = self._child(rank, a_blk + [(x.index, 1)])
                t_ab = self._child(rank, a_blk + [(y.index, 1)])
                t_abc = self._child(rank, a_blk + [(y.index, 1), (x.index, 1)])
                return (
                    t_a * t_bc
                    + t_y * t_ac
                    + t_x * t_ab
                    - t_a * t_y * t_x
                    - t_abc
                )

        indices = tuple(l.index for l in rot)
        if self.mode is ReductionMode.INTEGRAL or len(indices) <= 3:
            self.stats["subset_variable"] += 1
            return Poly.variable(SubsetVar(indices))

        # R5: dyadic elimination of a sorted square-free word of length >= 4.
        self.stats["r5_size4_rule"] += 1
        blocks: tuple[tuple[Letter, ...], ...] = (
            (rot[0],),
            (rot[1],),
            (rot[2],),
            tuple(rot[3:]),
        )
        acc = Poly.zero()
        for m, c in self.rule_k4.coefficients:
            term = Poly.const(c)
            for subset, power in m:
                pairs = [
                    (l.index, 1) for b in subset for l in blocks[b - 1]
                ]
                term = term * self._child(rank, pairs) ** power
            acc = acc + term
        return Fraction(1, 2) * acc


_default_engines: dict[ReductionMode, TraceEngine] = {}


def get_engine(mode: ReductionMode) -> TraceEngine:
    """Session-wide engine per mode; the dyadic one derives its rule once."""
    mode = ReductionMode(mode)
    engine = _default_engines.get(mode)
    if engine is None:
        engine = TraceEngine(mode)
        _default_engines[mode] = engine
    return engine


def reduce_trace(w: GroupWord, mode: ReductionMode) -> Poly:
    """Canonical trace polynomial of w in the given mode."""
    return get_engine(mode).reduce(w)
