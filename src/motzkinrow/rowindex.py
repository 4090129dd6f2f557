"""The total order on canonical Motzkin words: rank, unrank, neighbors.

Words are ordered by length first, then symbol by symbol from the left
under 0 < ( < ).  The rank of a word is its 0-based position in that
order; the words of length n occupy the index interval
[motzkin(n-1), motzkin(n)).

Rank and unrank are the two walks of ``bigcomb`` over its counting table:
``_rank_terms`` adds, at every position, the number of admissible
completions for each strictly smaller symbol choice (it also sums the nav
moves' verified deltas), and ``_unrank_text`` runs that walk backwards,
always taking the smallest symbol whose completion count still covers the
remaining offset.  The neighbor functions do NOT use those counts at all:
they rewrite one symbol and refill the tail directly, which keeps them an
independent cross-check on rank/unrank.  A tail of m symbols that starts
at depth d is smallest as ``"0"*(m-d) + ")"*d`` (zeros, then the closing
brackets) and largest as ``")"*d`` followed by the text of the largest
(m-d)-word, ``word._largest(m - d)`` (the closing brackets first, then
adjacent pairs and at most one zero).
"""

from . import config
from .bigcomb import _rank_terms, _unrank_text, motzkin
from .errors import ArgumentError, LimitError, UnderflowError
from .word import MotzkinWord, _largest, _smallest, as_word, check_length


def compare(x, y) -> int:
    """-1, 0 or +1 as x sits before, at, or after y in the row."""
    kx = as_word(x).sort_key
    ky = as_word(y).sort_key
    if kx < ky:
        return -1
    if kx > ky:
        return 1
    return 0


def rank(w) -> int:
    """Index of w in the row, the sum of its rank terms: the leading "("
    adds M[n-1], the words of the shorter ranges ("0" has index 0)."""
    text = as_word(w).text
    n = len(text)
    return _rank_terms(text, n, 1, 0) if n > 1 else 0


def unrank(i: int) -> MotzkinWord:
    """The unique word whose rank is i."""
    if i < 0:
        raise ArgumentError(f"indexes are nonnegative, got {i}")
    if i == 0:
        return MotzkinWord._trusted("0")
    # M[n] ~ 3^n / n^1.5 puts an index below 2^b, t = b log3(2), in a range
    # near t + 1.5 log3(t), just under t + log2(t) + 2.  That estimate is
    # never below the length (0-4 above it in ranges 2-20000, a margin that
    # grows with n), so capped at the limit it steps down to the length
    t = int(i.bit_length() * 0.6309297535714574)
    n = min(t + t.bit_length() + 2, config.max_word_length())
    if motzkin(n) <= i:  # then n is the limit
        shown = i if i.bit_length() <= 64 else f"of {i.bit_length()} bits"
        raise LimitError(f"index {shown} needs a word longer than the "
                         f"configured maximum {n}")
    while motzkin(n - 1) > i:
        n -= 1
    return MotzkinWord._trusted(_unrank_text(i, n))


def successor(w) -> MotzkinWord:
    """The next word in the row; the top of a range rolls over to the
    all-zero block that opens the next range."""
    text = as_word(w).text
    n = len(text)
    d = 0
    # Right to left, find the first symbol replaceable by a larger one; d
    # is the depth left of position i and m the length of the tail.
    for i in range(n - 1, 0, -1):
        ch = text[i]
        d += (ch == ")") - (ch == "(")
        m = n - i - 1
        if ch == "0" and d < m:
            ch, d = "(", d + 1
        elif ch != ")" and d > 0:
            ch, d = ")", d - 1
        else:
            continue
        return MotzkinWord._trusted(text[:i] + ch + "0" * (m - d) + ")" * d)
    # w is the maximum of its range; the next range may pass the length
    # limit
    check_length(n + 1)
    return MotzkinWord._trusted(_smallest(n + 1))


def predecessor(w) -> MotzkinWord:
    """The previous word in the row."""
    text = as_word(w).text
    if text == "0":
        raise UnderflowError('"0" is the first word of the row')
    n = len(text)
    d = 0
    for i in range(n - 1, 0, -1):
        ch = text[i]
        d += (ch == ")") - (ch == "(")
        m = n - i - 1
        if ch == ")" and d < m:
            ch, d = "(", d + 1
        elif ch != "0" and d <= m:
            ch = "0"
        else:
            continue
        return MotzkinWord._trusted(text[:i] + ch + ")" * d + _largest(m - d))
    # w is the minimum of its range.
    return MotzkinWord._trusted(_largest(n - 1))


def range_min(n: int) -> tuple[MotzkinWord, int]:
    """Smallest word of length n together with its index."""
    if n < 1:
        raise ArgumentError(f"ranges are numbered from 1, got {n}")
    check_length(n)
    return MotzkinWord._trusted(_smallest(n)), motzkin(n - 1) if n > 1 else 0


def range_max(n: int) -> tuple[MotzkinWord, int]:
    """Largest word of length n together with its index."""
    if n < 1:
        raise ArgumentError(f"ranges are numbered from 1, got {n}")
    check_length(n)
    return MotzkinWord._trusted(_largest(n)), motzkin(n) - 1
