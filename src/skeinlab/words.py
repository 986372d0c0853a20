"""Reduced words in free groups F_n and vectors in free abelian groups Z^n.

Words are stored in run-length form: a sequence of (index, exponent) letters
with nonzero exponents and no two adjacent letters sharing an index.  The
cyclic canonical form (least rotation of the cyclically reduced word or of
its inverse) is the memoization key used by the trace reduction engine:
two words get the same key exactly when their traces agree for cyclicity
and inversion reasons alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


class WordError(ValueError):
    """Raised for malformed words, bad indices, or bad ranks."""


class Letter(NamedTuple):
    index: int
    exponent: int


@dataclass(frozen=True, slots=True)
class GroupWord:
    """A freely reduced word in F_rank.  The empty letter tuple is the identity."""

    rank: int
    letters: tuple[Letter, ...]

    def is_identity(self) -> bool:
        return not self.letters

    def symbol_length(self) -> int:
        return sum(abs(l.exponent) for l in self.letters)

    def __str__(self) -> str:
        return format_word(self)


@dataclass(frozen=True, slots=True)
class AbelianVector:
    """Element of Z^rank; the zero vector is the identity."""

    rank: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise WordError(f"rank must be >= 1, got {self.rank}")
        if len(self.coords) != self.rank:
            raise WordError(
                f"coordinate vector has length {len(self.coords)}, expected {self.rank}"
            )

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)


def _merge_letters(pairs: Iterable[tuple[int, int]]) -> list[Letter]:
    out: list[Letter] = []
    for index, exponent in pairs:
        if exponent == 0:
            continue
        if out and out[-1].index == index:
            merged = out[-1].exponent + exponent
            if merged == 0:
                out.pop()
            else:
                out[-1] = Letter(index, merged)
        else:
            out.append(Letter(index, exponent))
    return out


def reduce_word(raw: Sequence[tuple[int, int]], rank: int) -> GroupWord:
    """Freely reduce a sequence of (index, exponent) pairs into a GroupWord."""
    if rank < 1:
        raise WordError(f"rank must be >= 1, got {rank}")
    for index, _ in raw:
        if not 1 <= index <= rank:
            raise WordError(f"generator index {index} out of range 1..{rank}")
    return GroupWord(rank, tuple(_merge_letters(raw)))


def concat(*words: GroupWord) -> GroupWord:
    """Product of words (free reduction applied at the junctions)."""
    if not words:
        raise WordError("concat needs at least one word")
    rank = words[0].rank
    pairs: list[tuple[int, int]] = []
    for w in words:
        if w.rank != rank:
            raise WordError(f"rank mismatch: {w.rank} != {rank}")
        pairs.extend(w.letters)
    return GroupWord(rank, tuple(_merge_letters(pairs)))


def invert(w: GroupWord) -> GroupWord:
    """Inverse word: reverse the letters and negate the exponents."""
    return GroupWord(
        w.rank, tuple(Letter(l.index, -l.exponent) for l in reversed(w.letters))
    )


def subset_word(subset: Iterable[int], rank: int) -> GroupWord:
    """The increasing product g_{i_1} g_{i_2} ... g_{i_k} over a nonempty index set."""
    indices = sorted(set(subset))
    if not indices:
        raise WordError("subset must be nonempty")
    if rank < 1:
        raise WordError(f"rank must be >= 1, got {rank}")
    if indices[0] < 1 or indices[-1] > rank:
        raise WordError(f"subset {indices} not contained in 1..{rank}")
    return GroupWord(rank, tuple(Letter(i, 1) for i in indices))


def _letter_sort_key(l: Letter) -> tuple[int, int, int]:
    # Positive exponents order before negative ones at the same index.
    return (l.index, 0 if l.exponent > 0 else 1, abs(l.exponent))


def word_sort_key(letters: Sequence[Letter]) -> tuple:
    """Total order on reduced words: symbol length, then letterwise comparison."""
    return (
        sum(abs(l.exponent) for l in letters),
        tuple(_letter_sort_key(l) for l in letters),
    )


def _cyclic_reduce(letters: Sequence[Letter]) -> list[Letter]:
    out = list(letters)
    while len(out) >= 2 and out[0].index == out[-1].index:
        merged = out[0].exponent + out[-1].exponent
        middle = out[1:-1]
        if merged == 0:
            out = middle
        else:
            out = [Letter(out[0].index, merged)] + middle
            break  # ends of the middle differ from this index by free reduction
    return out


def cyclic_key(w: GroupWord) -> GroupWord:
    """Canonical form of w under rotations and inversion.

    The canonical word is the least, under word_sort_key, among all rotations
    of the cyclically reduced word and all rotations of its inverse.
    """
    core = _cyclic_reduce(w.letters)
    if not core:
        return GroupWord(w.rank, ())
    candidates: list[tuple[Letter, ...]] = []
    for base in (core, _cyclic_reduce(invert(GroupWord(w.rank, tuple(core))).letters)):
        n = len(base)
        for i in range(n):
            candidates.append(tuple(base[i:]) + tuple(base[:i]))
    best = min(candidates, key=word_sort_key)
    return GroupWord(w.rank, best)


_LETTER_NAMES = "abcd"


def parse_word(text: str, rank: int) -> GroupWord:
    """Parse the CLI word syntax: whitespace-separated `a`, `b^-1`, `g3^2` tokens.

    The identity is written as the empty string or a lone `e`.
    """
    if rank < 1:
        raise WordError(f"rank must be >= 1, got {rank}")
    tokens = text.split()
    if not tokens or tokens == ["e"]:
        return GroupWord(rank, ())
    pairs: list[tuple[int, int]] = []
    for tok in tokens:
        if tok == "e":
            raise WordError("identity token 'e' must stand alone")
        name, _, power = tok.partition("^")
        if power:
            try:
                exponent = int(power)
            except ValueError:
                raise WordError(f"bad exponent in token {tok!r}") from None
            if exponent == 0:
                raise WordError(f"zero exponent in token {tok!r}")
        else:
            exponent = 1
        if len(name) == 1 and name in _LETTER_NAMES:
            index = _LETTER_NAMES.index(name) + 1
        elif name.startswith("g") and name[1:].isdigit():
            index = int(name[1:])
        else:
            raise WordError(f"bad generator token {tok!r}")
        if not 1 <= index <= rank:
            raise WordError(f"generator index {index} out of range 1..{rank}")
        pairs.append((index, exponent))
    return reduce_word(pairs, rank)


def format_word(w: GroupWord) -> str:
    """Inverse of parse_word; the identity prints as 'e'."""
    if w.is_identity():
        return "e"
    parts = []
    for l in w.letters:
        name = _LETTER_NAMES[l.index - 1] if w.rank <= 4 else f"g{l.index}"
        parts.append(name if l.exponent == 1 else f"{name}^{l.exponent}")
    return " ".join(parts)
