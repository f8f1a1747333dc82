"""Primitive operations on binary words.

Conventions (matching Section 2 of the paper):

- A *binary word* is a Python ``str`` over the alphabet ``{'0', '1'}``;
  positions are 1-based in the paper (``b = b_1 b_2 ... b_d``) but 0-based
  in this code unless a function says otherwise.
- The *complement* of ``b``, written :math:`\\bar b`, flips every bit.
- The *reverse* ``b^R`` is ``b_d b_{d-1} ... b_1``.
- ``e_i`` is the word with a single 1 in (0-based) position ``i``.
- ``b + c`` is the bitwise sum modulo 2 (XOR); in particular ``b + e_i``
  flips the ``i``-th bit of ``b``.
- A *block* is a maximal run of equal digits.
- ``v`` is a *factor* of ``b`` if ``b = u v w`` for (possibly empty)
  words ``u, w`` -- i.e. a contiguous substring.

Integer encoding: :func:`word_to_int` maps ``b_1 ... b_d`` to the integer
whose most significant bit is ``b_1``.  This keeps lexicographic order of
words equal to numeric order of their codes, which the graph builders rely
on.  All hot loops in the package work on these integer codes with
bit-parallel operations; the string layer is the readable reference.
"""

from __future__ import annotations

import operator
from typing import Iterator, List, Sequence, Tuple

__all__ = [
    "is_binary_word",
    "validate_word",
    "complement",
    "reverse",
    "word_add",
    "e_i",
    "flip",
    "hamming",
    "contains_factor",
    "blocks",
    "block_string",
    "concat_blocks",
    "word_to_int",
    "int_to_word",
    "all_words",
]

_ALPHABET = frozenset("01")

_COMPLEMENT_TABLE = str.maketrans("01", "10")


def is_binary_word(b: str) -> bool:
    """Return ``True`` when ``b`` is a (possibly empty) word over ``{0,1}``."""
    return isinstance(b, str) and set(b) <= _ALPHABET


def validate_word(b: str, *, name: str = "word") -> str:
    """Return ``b`` unchanged, raising :class:`ValueError` if it is not binary."""
    if not is_binary_word(b):
        raise ValueError(f"{name} must be a string over {{'0','1'}}, got {b!r}")
    return b


def _index(value, name: str) -> int:
    """``value`` as a non-negative ``int`` (anything ``operator.index``
    accepts, except ``bool``); the error names ``name``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def complement(b: str) -> str:
    """Bitwise complement :math:`\\bar b` of ``b`` (Lemma 2.2 symmetry)."""
    return b.translate(_COMPLEMENT_TABLE)


def reverse(b: str) -> str:
    """Reversal :math:`b^R` of ``b`` (Lemma 2.3 symmetry)."""
    return b[::-1]


def word_add(b: str, c: str) -> str:
    """Bitwise sum of ``b`` and ``c`` modulo 2 (XOR of equal-length words)."""
    if len(b) != len(c):
        raise ValueError(f"words must have equal length: {len(b)} != {len(c)}")
    return "".join("1" if x != y else "0" for x, y in zip(b, c))


def e_i(d: int, i: int) -> str:
    """The length-``d`` word with a single ``1`` in 0-based position ``i``."""
    if not 0 <= i < d:
        raise IndexError(f"position {i} out of range for length {d}")
    return "0" * i + "1" + "0" * (d - i - 1)


def flip(b: str, i: int) -> str:
    """Return ``b + e_i``: the word ``b`` with 0-based bit ``i`` flipped."""
    if not 0 <= i < len(b):
        raise IndexError(f"position {i} out of range for length {len(b)}")
    bit = "0" if b[i] == "1" else "1"
    return b[:i] + bit + b[i + 1 :]


def hamming(b: str, c: str) -> int:
    """Hamming distance = hypercube distance :math:`d_{Q_d}(b, c)`."""
    if len(b) != len(c):
        raise ValueError(f"words must have equal length: {len(b)} != {len(c)}")
    return sum(x != y for x, y in zip(b, c))


def contains_factor(b: str, f: str) -> bool:
    """Return ``True`` when ``f`` is a factor (contiguous substring) of ``b``.

    The empty word is a factor of everything, matching the convention that
    ``b = u v w`` with ``u = b``, ``v = w = ''``.
    """
    return f in b


def blocks(b: str) -> List[Tuple[str, int]]:
    """Block decomposition of ``b``.

    A block is a non-extendable run of contiguous equal digits.  Returns a
    list of ``(digit, run_length)`` pairs, e.g. ``blocks("110100") ==
    [("1", 2), ("0", 1), ("1", 1), ("0", 2)]``.  The empty word has no
    blocks.
    """
    out: List[Tuple[str, int]] = []
    for ch in b:
        if out and out[-1][0] == ch:
            out[-1] = (ch, out[-1][1] + 1)
        else:
            out.append((ch, 1))
    return out


def block_string(parts: Sequence[Tuple[str, int]]) -> str:
    """Inverse of :func:`blocks`: assemble a word from ``(digit, run)`` pairs."""
    for digit, run in parts:
        if digit not in _ALPHABET:
            raise ValueError(f"block digit must be '0' or '1', got {digit!r}")
        if run < 0:
            raise ValueError(f"block length must be non-negative, got {run}")
    return "".join(digit * run for digit, run in parts)


def concat_blocks(*parts: Tuple[str, int]) -> str:
    """Convenience alias: ``concat_blocks(("1", r), ("0", s))`` = ``1^r 0^s``."""
    return block_string(parts)


def word_to_int(b: str) -> int:
    """Encode ``b_1 ... b_d`` as an integer with ``b_1`` the most significant bit.

    The empty word encodes to 0.  Lexicographic order on words of a fixed
    length equals numeric order on codes.
    """
    validate_word(b)
    return int(b, 2) if b else 0


def int_to_word(code: int, d: int) -> str:
    """Decode an integer back to a length-``d`` word (inverse of :func:`word_to_int`)."""
    if d < 0:
        raise ValueError(f"length must be non-negative, got {d}")
    if code < 0 or code >= (1 << d):
        raise ValueError(f"code {code} out of range for length {d}")
    return format(code, f"0{d}b") if d > 0 else ""


def all_words(d: int) -> Iterator[str]:
    """Yield every binary word of length ``d`` in lexicographic order."""
    if d < 0:
        raise ValueError(f"length must be non-negative, got {d}")
    for code in range(1 << d):
        yield format(code, f"0{d}b") if d > 0 else ""
