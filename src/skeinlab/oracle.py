"""Exact integer SL2 matrices: the independent ground truth for every symbolic identity.

Random matrices are products of elementary unitriangular matrices with small
integer entries, so determinants are exactly 1 and every comparison in the
fuzzing harness is exact integer equality; no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .words import GroupWord, format_word, reduce_word
from .exactpoly import is_integral


class OracleError(ValueError):
    pass


FUZZ_MAX_COUNT = 10**6  # words; about a quarter of an hour of fuzzing


@dataclass(frozen=True, slots=True)
class SL2IntMatrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise OracleError(f"determinant is not 1: {self}")

    @classmethod
    def identity(cls) -> "SL2IntMatrix":
        return cls(1, 0, 0, 1)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "SL2IntMatrix") -> "SL2IntMatrix":
        return SL2IntMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2IntMatrix":
        # Adjugate of a determinant-1 matrix.
        return SL2IntMatrix(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "SL2IntMatrix":
        if n < 0:
            return self.inverse() ** (-n)
        result = SL2IntMatrix.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


def sample_sl2(rng: random.Random, walk_length: int) -> SL2IntMatrix:
    """Product of walk_length elementary matrices with entries in [-3, 3].

    The walk runs on four ints: right-multiplying by [[1, e], [0, 1]] adds e
    times the first column to the second, and by [[1, 0], [e, 1]] the reverse.
    The determinant is checked once, on the product.
    """
    if walk_length < 1:
        raise OracleError("walk_length must be >= 1")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(walk_length):
        e = rng.randint(-3, 3)
        if rng.randrange(2) == 0:
            b, d = b + a * e, d + c * e
        else:
            a, c = a + b * e, c + d * e
    return SL2IntMatrix(a, b, c, d)


def sample_representation(
    rng: random.Random, rank: int, walk_length: int = 6
) -> tuple[SL2IntMatrix, ...]:
    """Images of the generators g_1..g_rank: a homomorphism F_rank -> SL2(Z)."""
    return tuple(sample_sl2(rng, walk_length) for _ in range(rank))


def eval_word(w: GroupWord, images: Sequence[SL2IntMatrix]) -> SL2IntMatrix:
    """Exact matrix value of a word at the generator images."""
    if w.rank != len(images):
        raise OracleError(f"word rank {w.rank} != {len(images)} generator images")
    m = SL2IntMatrix.identity()
    for letter in w.letters:
        m = m * images[letter.index - 1] ** letter.exponent
    return m


def subset_traces(
    images: Sequence[SL2IntMatrix], subsets: Iterable[tuple[int, ...]]
) -> list[int]:
    """Traces of the increasing products of the images over each sorted subset.

    The products are built from shared prefixes: each costs one
    multiplication once its longest prefix is known.
    """
    prods = {(): SL2IntMatrix.identity()}
    out = []
    for subset in subsets:
        known = len(subset)
        while subset[:known] not in prods:
            known -= 1
        m = prods[subset[:known]]
        for i in range(known, len(subset)):
            m = prods[subset[: i + 1]] = m * images[subset[i] - 1]
        out.append(m.trace)
    return out


def random_word(rng: random.Random, rank: int, max_len: int) -> GroupWord:
    """Random reduced word with symbol length at most max_len, exponents in [-3, 3]."""
    budget = rng.randint(0, max_len)
    pairs = []
    while budget > 0:
        index = rng.randint(1, rank)
        exponent = rng.choice((-3, -2, -1, 1, 2, 3))
        if abs(exponent) > budget:
            exponent = budget if exponent > 0 else -budget
        pairs.append((index, exponent))
        budget -= abs(exponent)
    return reduce_word(pairs, rank)


@dataclass
class FuzzReport:
    count: int
    mode: str
    seed: int
    failures: list = field(default_factory=list)
    rule_stats: dict = field(default_factory=dict)
    all_values_integral: bool = True
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        # No timing fields: stdout must be byte-identical across runs.
        return {
            "count": self.count,
            "mode": self.mode,
            "seed": self.seed,
            "failures": self.failures,
            "failure_count": len(self.failures),
            "all_values_integral": self.all_values_integral,
            "rule_stats": dict(sorted(self.rule_stats.items())),
        }


def fuzz_check(
    count: int,
    max_rank: int,
    max_len: int,
    mode,
    seed: int,
) -> FuzzReport:
    """Compare tr(rho(w)) with the canonical polynomial evaluated at subset traces.

    Every trial is an exact integer comparison; failures land in the report
    rather than raising.
    """
    from . import trace_engine

    if count < 1 or max_rank < 1 or max_len < 1:
        raise OracleError("fuzz parameters must be positive")
    limit = trace_engine.MAX_SYMBOL_LENGTH  # one matrix per generator a trial
    if count > FUZZ_MAX_COUNT or max_rank > limit or max_len > limit:
        raise OracleError(
            f"fuzz parameters too large: the limits are {FUZZ_MAX_COUNT:,} words"
            f" and {limit} for the rank and the word length"
        )
    mode = trace_engine.ReductionMode(mode)
    engine = trace_engine.get_engine(mode)
    rng = random.Random(f"skeinlab-fuzz-{seed}")
    report = FuzzReport(count=count, mode=mode.value, seed=seed)
    start = time.monotonic()
    for _ in range(count):
        rank = rng.randint(1, max_rank)
        images = sample_representation(rng, rank)
        w = random_word(rng, rank, max_len)
        expected = eval_word(w, images).trace
        poly = engine.reduce(w)
        variables = poly.variables()
        traces = subset_traces(images, [v.subset for v in variables])
        got = poly.evaluate(dict(zip(variables, traces)))
        if not is_integral(got):
            report.all_values_integral = False
        if got != expected:
            report.failures.append(
                {
                    "word": format_word(w),
                    "rank": rank,
                    "expected": expected,
                    "got": str(got),
                }
            )
    report.rule_stats = dict(engine.stats)
    report.elapsed = time.monotonic() - start
    return report
