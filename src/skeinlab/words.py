"""Reduced words in free groups F_n and vectors in free abelian groups Z^n.

Words are stored in run-length form: a sequence of (index, exponent) letters
with nonzero exponents and no two adjacent letters sharing an index.  The
cyclic canonical form is the memoization key used by the trace reduction
engine: two words get the same key exactly when their traces agree for
cyclicity and inversion reasons alone.  It is the least rotation of the
cyclically reduced word or of its inverse, comparing letters on (index,
sign, |exponent|) with positive exponents first; all these rotations share
one symbol length, so no length term is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


class WordError(ValueError):
    """Raised for malformed words, bad indices, or bad ranks."""


class Letter(NamedTuple):
    index: int
    exponent: int


# _make_tuple(Letter, (index, exponent)) builds a Letter without running the
# NamedTuple's Python-level __new__; the hot paths below build letters so.
_make_tuple = tuple.__new__


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
                out[-1] = _make_tuple(Letter, (index, merged))
        else:
            out.append(_make_tuple(Letter, (index, exponent)))
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


def _cyclic_reduce(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    while len(letters) >= 2 and letters[0].index == letters[-1].index:
        merged = letters[0].exponent + letters[-1].exponent
        if merged:
            # The ends of the middle differ from this index by free reduction.
            return (_make_tuple(Letter, (letters[0].index, merged)),) + letters[1:-1]
        letters = letters[1:-1]
    return letters


def cyclic_key(w: GroupWord) -> GroupWord:
    """Canonical form of w under rotations and inversion (see the module doc).

    Letter keys are computed once and the inverse's keys read off them; only
    rotations that start at the least letter key are compared, and new
    letters are built only when a rotation of the inverse wins.
    """
    core = _cyclic_reduce(w.letters)
    fwd = [(index, exponent < 0, abs(exponent)) for index, exponent in core]
    bwd = [(index, not negative, size) for index, negative, size in reversed(fwd)]
    first = min(fwd + bwd, default=None)
    best = min(
        (
            (keys[i:] + keys[:i], side, i)
            for side, keys in enumerate((fwd, bwd))
            for i, key in enumerate(keys)
            if key == first
        ),
        default=None,
    )
    if best is None:
        return GroupWord(w.rank, ())
    keys, inverted, i = best
    if not inverted:
        return GroupWord(w.rank, core[i:] + core[:i])
    letters = [
        _make_tuple(Letter, (index, -size if negative else size))
        for index, negative, size in keys
    ]
    return GroupWord(w.rank, tuple(letters))


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
        name, caret, power = tok.partition("^")
        if caret:
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
