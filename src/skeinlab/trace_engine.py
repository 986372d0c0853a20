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

Through the memo, the words the rules ask for form a DAG.  reduce evaluates
it on an explicit stack of (key, rewrite generator) pairs: a generator yields
each word it needs and is sent back its polynomial; only memo misses are
pushed.  So depth is bounded by memory, not by the recursion limit, and the
rule order and the memo's fill order are those of a recursive evaluation.

The engine computes on packed monomials (exactpoly.PackedPoly): the variable
t_S owns a FIELD_BITS-bit field of an int, fixed when t_S is interned, so a
monomial product is one integer add.  Packing is exact while every exponent
is below 2^FIELD_BITS.  The rules keep every exponent of tr(w) at most the
symbol length of w: give t_S the weight |S|; R1-R4 replace a word of length
n by sums of products whose words' lengths add up to at most n, and so does
R5, because every monomial of the size-4 rule uses each of the four blocks
exactly once (weight 4).  A rule of higher weight could repeat a block and
overflow a field, so the engine refuses one, and reduce refuses a word whose
cyclic reduction is longer than MAX_SYMBOL_LENGTH.  Dyadic values are kept
as integer numerators over a power of two (_Dyadic): R5 adds one to the
shift, sums align shifts by one scaling, and reduce divides the shift out
when it converts a result to a Poly, once per word and engine.

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

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import or_
from typing import Generator, Mapping

from . import _modlin
from .exactpoly import FIELD_BITS, PackedPoly, Poly, SubsetVar, normalize_coeff
from .oracle import sample_sl2, subset_traces
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


def _monomial_value(m: RuleMonomial, traces: Mapping[tuple[int, ...], int]) -> int:
    val = 1
    for subset, power in m:
        val *= traces[subset] ** power
    return val


def _solve_exact(
    rows: list[list[int]], rhs: list[int]
) -> list[Fraction | int] | None:
    """Solve the overdetermined system rows * x = rhs over Q.

    Free variables are pinned to zero and integral values are ints.  Returns
    None when inconsistent.
    """
    ncols = len(rows[0])
    m, pivots = _modlin.int_rref([row + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x: list[Fraction | int] = [0] * ncols
    for row, col in zip(m, pivots):
        x[col] = normalize_coeff(Fraction(row[ncols], row[col]))
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
            traces = dict(zip(_RULE_SUBSETS, subset_traces(ms, _RULE_SUBSETS)))
            rows.append([_monomial_value(m, traces) for m in cands])
            prod = ms[0] * ms[1] * ms[2] * ms[3]
            rhs.append(2 * prod.trace)
        sol = _solve_exact(rows, rhs)
        if sol is None:
            last_error = f"inconsistent system at weight bound {bound}"
            continue
        coeffs = tuple((m, c) for m, c in zip(cands, sol) if c)
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
) -> list:
    """Residuals 2*tr(M1 M2 M3 M4) - rule(traces) on fresh exact quadruples."""
    if rng is None:
        rng = random.Random(f"skeinlab-rule-k4-verify-{seed}")
    residuals = []
    for _ in range(count):
        ms = [sample_sl2(rng, walk_length=4) for _ in range(4)]
        traces = dict(zip(_RULE_SUBSETS, subset_traces(ms, _RULE_SUBSETS)))
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


# The longest cyclically reduced word reduce accepts: every exponent of its
# trace polynomial fits a packed field (see the module docstring).
MAX_SYMBOL_LENGTH = (1 << FIELD_BITS) - 1


class _Dyadic:
    """The value num / 2^shift of the dyadic engine.

    num is a PackedPoly with integer coefficients, not all even, and shift is
    >= 1; a value with shift 0 is kept as its plain PackedPoly.  The
    operators take PackedPolys and other _Dyadic values in either position
    and keep the operand order of the rational arithmetic they replace, so
    terms come out in the same order.
    """

    __slots__ = ("num", "shift")

    def __init__(self, num: PackedPoly, shift: int):
        self.num = num
        self.shift = shift

    def __mul__(self, other):
        return _dyadic_mul(self, other)

    def __rmul__(self, other):
        return _dyadic_mul(other, self)

    def __add__(self, other):
        return _dyadic_add(self, other, False)

    def __radd__(self, other):
        return _dyadic_add(other, self, False)

    def __sub__(self, other):
        return _dyadic_add(self, other, True)

    def __rsub__(self, other):
        return _dyadic_add(other, self, True)


def _split(x) -> tuple[PackedPoly, int]:
    return (x.num, x.shift) if type(x) is _Dyadic else (x, 0)


def _lowest_terms(num: PackedPoly, shift: int, twos: PackedPoly):
    """num / 2^shift in lowest terms, where the nonzero num's content holds
    the same power of two as the content of twos."""
    bits = functools.reduce(or_, twos.terms.values())
    drop = min(shift, (bits & -bits).bit_length() - 1)
    if drop:
        num = num * Fraction(1, 1 << drop)
    return _Dyadic(num, shift - drop) if shift > drop else num


def _dyadic_mul(x, y):
    a, j = _split(x)
    b, k = _split(y)
    product = a * b
    if j and k:
        # Mod 2, a product of nonzero polynomials is nonzero (Gauss).
        return _Dyadic(product, j + k)
    if not product.terms:
        return product
    # Gauss again: the _Dyadic numerator's content is odd, so the product's
    # content holds the power of two of the plain factor's.
    return _lowest_terms(product, j + k, b if j else a)


def _dyadic_add(x, y, subtract: bool):
    a, j = _split(x)
    b, k = _split(y)
    if j < k:
        a = a * (1 << (k - j))
    elif k < j:
        b = b * (1 << (j - k))
    total = a - b if subtract else a + b
    if j != k:
        # The odd coefficients of the larger shift's numerator survive.
        return _Dyadic(total, max(j, k))
    return _lowest_terms(total, j, total) if total.terms else total


_HALF = _Dyadic(PackedPoly.const(1), 1)


@functools.cache
def _generator(index: int) -> PackedPoly:
    """t_g for the generator g_index, shared: no operation mutates an operand."""
    return PackedPoly.variable(SubsetVar((index,)))


class TraceEngine:
    """Reduction engine for one mode; reuse one instance to share the memo table."""

    def __init__(self, mode: ReductionMode, rule_k4: RuleK4 | None = None):
        self.mode = ReductionMode(mode)
        if self.mode is ReductionMode.DYADIC:
            if rule_k4 is None:
                rule_k4 = derive_rule_k4()
            for m, _ in rule_k4.coefficients:
                blocks = sorted(i for subset, power in m for i in subset * power)
                if blocks != [1, 2, 3, 4]:
                    raise EngineError(
                        f"size-4 rule monomial {m} does not use each block once"
                    )
        self.rule_k4 = rule_k4
        # Packed values (PackedPoly or _Dyadic) by cyclic key, the Polys
        # reduce returned, and the Poly monomial of each packed key.
        self.memo: dict[GroupWord, object] = {}
        self._polys: dict[GroupWord, Poly] = {}
        self._monomials: dict[int, tuple] = {}
        self.stats: Counter[str] = Counter()

    # -- public API ---------------------------------------------------------

    def reduce(self, word: GroupWord) -> Poly:
        """Canonical polynomial of word; see the module docstring for the stack."""
        key = cyclic_key(word)
        poly = self._polys.get(key)
        if poly is None:
            poly = self._polys[key] = self._to_poly(self._evaluate(key))
        else:
            self.stats["r0_memo_hit"] += 1
        return poly

    # -- internals ----------------------------------------------------------

    def _evaluate(self, key: GroupWord):
        """Packed value of a cyclic key, from the memo or by rewriting."""
        memo, stats = self.memo, self.stats
        value = memo.get(key)
        if value is not None:
            stats["r0_memo_hit"] += 1
            return value
        length = key.symbol_length()
        if length > MAX_SYMBOL_LENGTH:
            raise EngineError(
                f"word too long to reduce: symbol length {length} after cyclic"
                f" reduction, the limit is {MAX_SYMBOL_LENGTH}"
            )
        stack = [(key, self._reduce_canonical(key))]
        while stack:
            key, rewrite = stack[-1]
            try:
                rank, pairs = rewrite.send(value)
            except StopIteration as done:
                stack.pop()
                value = memo[key] = done.value
                continue
            child = cyclic_key(reduce_word(pairs, rank))
            value = memo.get(child)
            if value is not None:
                stats["r0_memo_hit"] += 1
            else:
                stack.append((child, self._reduce_canonical(child)))
        return value

    def _to_poly(self, value) -> Poly:
        """Poly of a packed value; keys are unpacked once, sorted by variable."""
        num, shift = _split(value)
        monomials, mask = self._monomials, (1 << shift) - 1
        terms = {}
        for key, c in num.terms.items():
            m = monomials.get(key)
            if m is None:
                m = monomials[key] = PackedPoly.unpack(key, SubsetVar)
            terms[m] = c >> shift if not c & mask else Fraction(c, 1 << shift)
        return Poly._raw(terms)

    def _reduce_canonical(self, w: GroupWord) -> Generator[tuple, object, object]:
        """Rewrite one cyclic key; yields (rank, pairs) per child trace needed."""
        letters = w.letters
        rank = w.rank
        if not letters:
            self.stats["identity"] += 1
            return PackedPoly.const(2)
        if len(letters) == 1 and abs(letters[0].exponent) == 1:
            self.stats["generator"] += 1
            return _generator(letters[0].index)

        # R1: Cayley-Hamilton on the leftmost letter with |exponent| >= 2.
        for pos, l in enumerate(letters):
            e = l.exponent
            if abs(e) >= 2:
                self.stats["r1_cayley_hamilton"] += 1
                s = 1 if e > 0 else -1
                t_g = _generator(l.index)
                drop_one = [
                    (x.index, x.exponent if i != pos else e - s)
                    for i, x in enumerate(letters)
                ]
                drop_two = [
                    (x.index, x.exponent if i != pos else e - 2 * s)
                    for i, x in enumerate(letters)
                ]
                return t_g * (yield rank, drop_one) - (yield rank, drop_two)

        # R2: remove the leftmost inverse letter.
        for pos, l in enumerate(letters):
            if l.exponent == -1:
                self.stats["r2_inverse"] += 1
                t_g = _generator(l.index)
                vu = [(x.index, x.exponent) for x in letters[pos + 1 :] + letters[:pos]]
                return t_g * (yield rank, vu) - (yield rank, vu + [(l.index, 1)])

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
            return (yield rank, xa) * (yield rank, xb) - (yield rank, ab_inv)

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
                t_x = _generator(x.index)
                t_y = _generator(y.index)
                t_a = yield rank, a_blk
                t_bc = yield rank, [(y.index, 1), (x.index, 1)]
                t_ac = yield rank, a_blk + [(x.index, 1)]
                t_ab = yield rank, a_blk + [(y.index, 1)]
                t_abc = yield rank, a_blk + [(y.index, 1), (x.index, 1)]
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
            return PackedPoly.variable(SubsetVar(indices))

        # R5: dyadic elimination of a sorted square-free word of length >= 4.
        self.stats["r5_size4_rule"] += 1
        blocks: tuple[tuple[Letter, ...], ...] = (
            (rot[0],),
            (rot[1],),
            (rot[2],),
            tuple(rot[3:]),
        )
        acc = PackedPoly.const(0)
        for m, c in self.rule_k4.coefficients:
            term = PackedPoly.const(c)
            for subset, _ in m:  # each power is 1: the rule has weight 4
                pairs = [
                    (l.index, 1) for b in subset for l in blocks[b - 1]
                ]
                term = term * (yield rank, pairs)
            acc = acc + term
        return _HALF * acc


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
