"""Motzkin words: validation, canonical form, and outer-block structure.

A Motzkin word is a string over {'0', '(', ')'} whose brackets balance and
whose every prefix has at least as many '(' as ')'.  Canonical words carry
no leading zeros; the one-symbol word "0" is the single exception.

Positions are 1-based and counted from the RIGHT end of the word, exactly
like digit positions in an integer.  Any position past the left end reads
as a virtual zero, which is what lets words of different lengths line up
for comparison and overlay.

``MotzkinWord(text)``, ``parse`` and ``as_word`` on a string validate their
input, each with one scan.  Words the library assembles from already-valid
pieces (unrank, the row neighbours, the range ends, block sums and
differences, extended blocks, nav rewrites after their own bracket scan
``_scan``) skip that check through the private ``MotzkinWord._trusted``,
and the enumerator sets each word's text slot itself; where such a word
may be longer than its input, the builder calls ``check_length`` first.
Position k of a text is ``text[-k]``.

The enumerator here is the package's independent ground truth: it builds
every canonical word of a range from lists of tails joined in symbol
order, which is row order, and imports no counting table, so it shares
no code with the arithmetic of rank and unrank.  Agreement between
the two is therefore evidence, not a tautology.
"""

from __future__ import annotations

from enum import IntEnum
from functools import total_ordering
from operator import attrgetter

from . import config
from .errors import (
    AlphabetError,
    ArgumentError,
    EmptyError,
    LimitError,
    NotCanonicalError,
    PrefixViolationError,
    SpanError,
    UnbalancedError,
    ZeroWordError,
)

ALPHABET = "0()"

# '0' sorts below '(' which sorts below ')'.
_LEX = str.maketrans("0()", "abc")


class Symbol(IntEnum):
    """One alphabet symbol; the int value gives the total order 0 < ( < )."""

    ZERO = 0
    OPEN = 1
    CLOSE = 2

    @property
    def char(self) -> str:
        return ALPHABET[self]

    @classmethod
    def from_char(cls, ch: str) -> "Symbol":
        idx = ALPHABET.find(ch)
        if idx < 0:
            raise AlphabetError(f"character {ch!r} is not one of '0', '(', ')'")
        return cls(idx)


def check_length(n: int) -> None:
    """Raise LimitError if a word of length n is over the configured limit."""
    limit = config.max_word_length()
    if n > limit:
        raise LimitError(
            f"word length {n} exceeds the configured maximum {limit}"
        )


def _at(text: str, k: int) -> str:
    """The character in position k of text, "0" past its left end."""
    if k < 1:
        raise ArgumentError(f"positions are numbered from 1, got {k}")
    return text[-k] if k <= len(text) else "0"


def _validate_structure(text: str) -> None:
    if not text:
        raise EmptyError("a Motzkin word has at least one symbol")
    check_length(len(text))
    _scan(text)


def _scan(text: str) -> None:
    """Raise unless nonempty text is a Motzkin word, its length aside."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PrefixViolationError(
                    f"prefix {text[: i + 1]!r} closes more brackets than it opens"
                )
        elif ch != "0":
            raise AlphabetError(f"character {ch!r} is not one of '0', '(', ')'")
    if depth != 0:
        raise UnbalancedError(
            f"{text!r} has {text.count('(')} '(' but {text.count(')')} ')'"
        )


class _Value:
    """Base of the value types: read-only ``__slots__`` fields, set with
    ``object.__setattr__``, a field-wise repr, ``__match_args__``, pickling,
    and equality and hashing by field through ``_fields``, one C-level
    ``attrgetter`` per class.  Each type writes its own ``__init__``, since
    the types check different things, and sets its fields through
    ``__setstate__``; only the hot builders, ``MotzkinWord._trusted``,
    ``outer_blocks`` and ``enumerate_range``, set them directly."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setstate__(self, state):
        for f, value in zip(self.__slots__, state):
            object.__setattr__(self, f, value)


@total_ordering
class MotzkinWord(_Value):
    """A canonical Motzkin word (no leading zero, except the word "0")."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        _validate_structure(text)
        if text[0] == "0" and text != "0":
            raise NotCanonicalError(
                f"{text!r} starts with a zero; parse() turns leading "
                "zeros into padding"
            )
        self.__setstate__((text,))

    @classmethod
    def _trusted(cls, text: str) -> "MotzkinWord":
        """Wrap text the caller built to be a valid canonical word."""
        word = object.__new__(cls)
        object.__setattr__(word, "text", text)
        return word

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.text)

    @property
    def is_zero(self) -> bool:
        return self.text == "0"

    @property
    def sort_key(self):
        """Key realizing the row order: length first, then symbol order."""
        return (len(self.text), self.text.translate(_LEX))

    def symbol_at(self, k: int) -> Symbol:
        """Symbol in position k, counting 1-based from the right end."""
        return Symbol.from_char(_at(self.text, k))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key < other.sort_key


class PaddedWord(_Value):
    """A canonical word plus an explicit count of leading zeros.

    Padding never changes the word's identity or the positions of its
    symbols; it only matters when text is laid out column by column.
    """

    __slots__ = ("core", "left_padding")

    def __init__(self, core: MotzkinWord, left_padding: int):
        if left_padding < 0:
            raise ArgumentError("left_padding must be nonnegative")
        self.__setstate__((core, left_padding))

    @property
    def text(self) -> str:
        return "0" * self.left_padding + self.core.text

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return self.left_padding + len(self.core)

    def symbol_at(self, k: int) -> Symbol:
        return self.core.symbol_at(k)


class BlockSpan(_Value):
    """Positions of one outer block's brackets; open_pos > close_pos."""

    __slots__ = ("open_pos", "close_pos")

    def __init__(self, open_pos: int, close_pos: int):
        if not open_pos > close_pos >= 1:
            raise SpanError(
                f"span needs open_pos > close_pos >= 1, got "
                f"({open_pos}, {close_pos})"
            )
        self.__setstate__((open_pos, close_pos))

    def covers(self, pos: int) -> bool:
        return self.close_pos <= pos <= self.open_pos


def parse(text: str):
    """Validate text and return a MotzkinWord, or a PaddedWord when the
    text carries leading zeros (the word "0" itself stays canonical)."""
    if not isinstance(text, str):
        raise AlphabetError(f"expected a string, got {type(text).__name__}")
    _validate_structure(text)
    core = MotzkinWord._trusted(text.lstrip("0") or "0")
    padding = len(text) - len(core)
    return core if padding == 0 else PaddedWord(core, padding)


def as_word(value) -> MotzkinWord:
    """Coerce a str / MotzkinWord / PaddedWord to its canonical word."""
    if isinstance(value, MotzkinWord):
        return value
    if isinstance(value, PaddedWord):
        return value.core
    if isinstance(value, str):
        parsed = parse(value)
        return parsed.core if isinstance(parsed, PaddedWord) else parsed
    raise AlphabetError(f"cannot interpret {value!r} as a Motzkin word")


def symbol_at(w, k: int) -> Symbol:
    """Symbol of w in position k (1-based from the right; virtual zeros
    past the left end)."""
    return as_word(w).symbol_at(k)


def outer_blocks(w) -> list[BlockSpan]:
    """All maximal depth-0 bracket spans of w, left to right."""
    w = as_word(w)
    n = len(w.text)
    spans = []
    depth = 0
    open_pos = 0
    # a valid word's scan yields only valid spans: skip the check in __init__
    new, set_ = object.__new__, object.__setattr__
    for i, ch in enumerate(w.text):
        if ch == "(":
            if depth == 0:
                open_pos = n - i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                span = new(BlockSpan)
                set_(span, "open_pos", open_pos)
                set_(span, "close_pos", n - i)
                spans.append(span)
    return spans


def _block_word(w: MotzkinWord, b: BlockSpan) -> MotzkinWord:
    n = len(w)
    body = w.text[n - b.open_pos : n - b.close_pos + 1]
    return MotzkinWord._trusted(body + "0" * (b.close_pos - 1))


def extended_block(w, b: BlockSpan) -> MotzkinWord:
    """The word obtained by zeroing everything of w outside the outer
    block b, then dropping the leading zeros (trailing ones stay)."""
    w = as_word(w)
    if b not in outer_blocks(w):
        raise SpanError(f"{b} is not an outer block of {w.text!r}")
    return _block_word(w, b)


def decompose(w) -> list[MotzkinWord]:
    """Extended blocks of w in decreasing length (left-to-right blocks)."""
    w = as_word(w)
    blocks = outer_blocks(w)
    if not blocks:
        raise ZeroWordError(f"{w.text!r} has no brackets to decompose")
    return [_block_word(w, b) for b in blocks]


def _depth_left(text: str, k: int) -> int:
    """Bracket depth strictly left of position k >= 1 of text."""
    head = text[:-k]
    return head.count("(") - head.count(")")


def _check_range(n: int) -> None:
    if n < 1:
        raise ArgumentError(f"ranges are numbered from 1, got {n}")
    limit = config.enum_range_limit()
    if n > limit:
        raise LimitError(f"range {n} exceeds the enumeration limit {limit}")
    check_length(n)


def enumerate_range(n: int) -> list[MotzkinWord]:
    """All canonical n-words in row order, from ``_range_texts``.  Serves
    as the oracle for rank/unrank: it reads no count and calls neither."""
    _check_range(n)
    texts = _range_texts(n)
    # wrap in one pass, setting each fresh word's text slot directly
    words = list(map(object.__new__, [MotzkinWord] * len(texts)))
    for _ in map(MotzkinWord.text.__set__, words, texts):
        pass
    return words


def _range_texts(n: int) -> list[str]:
    """The texts of the canonical n-words in row order, from lists of tails.

    ``tails[d]`` holds, in row order, every string of length m that
    starts at depth d, never dips below depth 0 and ends there (row m of
    the Motzkin triangle, as strings).  The lists one symbol longer are
    "0" + tails[d], then "(" + tails[d+1], then ")" + tails[d-1]: joined
    in symbol order, which is row order, so each stays sorted without a
    sort.  The range is "(" followed by the (n-1)-tails from depth 1,
    which are the last step's "0" + tails[1], "(" + tails[2] and
    ")" + tails[0]; no depth above min(m, n-m) reaches them, so none is
    built.  Freeing the tails before any word is made keeps the peak down.
    """
    if n == 1:
        return ["0"]
    # two empty lists past the deepest, which depth -1 also reads
    tails = [[""], [], []]
    for m in range(1, n - 1):
        tails = [[ch + t for ch, d2 in (("0", d), ("(", d + 1), (")", d - 1))
                  for t in tails[d2]]
                 for d in range(min(m, n - m) + 1)] + [[], []]
    return [head + t for head, d in (("(0", 1), ("((", 2), ("()", 0))
            for t in tails[d]]


def regenerate_addendum(max_range: int) -> str:
    """Corrected listing of the row through max_range, nine words per
    line, each line prefixed by the index of its first word."""
    _check_range(max_range)
    words = []
    for n in range(1, max_range + 1):
        words.extend(_range_texts(n))
    width = max(3, len(str(len(words) - 1)))
    lines = []
    for start in range(0, len(words), 9):
        chunk = words[start : start + 9]
        lines.append(f"{start:0{width}d}: " + ", ".join(chunk))
    return "\n".join(lines) + "\n"
