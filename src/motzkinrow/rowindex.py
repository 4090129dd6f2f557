"""The total order on canonical Motzkin words: rank, unrank, neighbors.

Words are ordered by length first, then symbol by symbol from the left
under 0 < ( < ).  The rank of a word is its 0-based position in that
order; the words of length n occupy the index interval
[motzkin(n-1), motzkin(n)).

Ranking walks the word left to right and, at every position, adds the
number of admissible completions for each strictly smaller symbol choice.
Unranking runs the same walk in reverse, always taking the smallest symbol
whose completion count still covers the remaining offset, after finding
the length by bisecting column 0, the Motzkin numbers.  Both walks read
the columns of the one ``bigcomb`` table directly.  Only when a walk
reaches a new greatest depth h with m symbols left does it ask for column
h + 1 through m - 1, so a word of greatest depth h grows columns
0 .. h + 1 and no deeper.  The neighbor functions do NOT use those counts
at all: they rewrite one symbol and refill the tail directly, which keeps
them an independent cross-check on rank/unrank.  A tail of m symbols that
starts at depth d is smallest as ``"0"*(m-d) + ")"*d`` (zeros, then the
closing brackets) and largest as ``")"*d + "()"*((m-d)//2) + "0"*((m-d)%2)``
(the closing brackets first, then adjacent pairs and at most one zero).
"""

from bisect import bisect_right

from . import config
from .bigcomb import completion_columns, motzkin
from .errors import ArgumentError, LimitError, UnderflowError
from .word import MotzkinWord, as_word, check_length


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
    """Index of w in the row (the zero word has index 0)."""
    w = as_word(w)
    if w.is_zero:
        return 0
    n = len(w)
    columns = completion_columns(2, n - 2)
    total = 0
    depth = 0
    deepest = 1
    m = n
    for ch in w.text:
        m -= 1
        if ch == "(":
            # '0' is the only smaller symbol.  At the leading position this
            # adds T(n-1, 0) = M[n-1], the words of the shorter ranges.
            total += columns[depth][m]
            depth += 1
            if depth > deepest:
                # a ')' at this depth will read column depth + 1
                deepest = depth
                completion_columns(depth + 1, m - 1)
        elif ch == ")":
            # a '0' would keep the depth, a '(' would raise it
            total += columns[depth][m] + columns[depth + 1][m]
            depth -= 1
    return total


def unrank(i: int) -> MotzkinWord:
    """The unique word whose rank is i."""
    if i < 0:
        raise ArgumentError(f"indexes are nonnegative, got {i}")
    if i == 0:
        return MotzkinWord._trusted("0")
    # M[n] >= M[n-1] + 2 M[n-2] >= 2^(n-1), so an index below 2^b lies in
    # a range no longer than b + 1
    top = min(i.bit_length() + 1, config.max_word_length())
    ms = completion_columns(0, top)[0]
    n = bisect_right(ms, i, 1, top + 1)
    if n > top:  # then top is the limit
        shown = i if i.bit_length() <= 64 else f"of {i.bit_length()} bits"
        raise LimitError(f"index {shown} needs a word longer than the "
                         f"configured maximum {top}")
    local = i - ms[n - 1]
    columns = completion_columns(2, n - 2)
    chars = ["("]
    depth = deepest = 1
    for m in range(n - 2, -1, -1):
        c = columns[depth][m]
        if local < c:
            chars.append("0")
            continue
        local -= c
        c = columns[depth + 1][m]
        if local < c:
            chars.append("(")
            depth += 1
            if depth > deepest:
                deepest = depth
                completion_columns(depth + 1, m - 1)
            continue
        local -= c
        chars.append(")")
        depth -= 1
    return MotzkinWord._trusted("".join(chars))


def successor(w) -> MotzkinWord:
    """The next word in the row; the top of a range rolls over to the
    all-zero block that opens the next range."""
    w = as_word(w)
    if w.is_zero:
        check_length(2)
        return MotzkinWord._trusted("()")
    text = w.text
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
    return MotzkinWord._trusted("(" + "0" * (n - 1) + ")")


def predecessor(w) -> MotzkinWord:
    """The previous word in the row."""
    w = as_word(w)
    if w.is_zero:
        raise UnderflowError('"0" is the first word of the row')
    if w.text == "()":
        return MotzkinWord._trusted("0")
    text = w.text
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
        r = m - d
        return MotzkinWord._trusted(
            text[:i] + ch + ")" * d + "()" * (r // 2) + "0" * (r % 2))
    # w is the minimum of its range.
    return range_max(n - 1)[0]


def range_min(n: int) -> tuple[MotzkinWord, int]:
    """Smallest word of length n together with its index."""
    if n < 1:
        raise ArgumentError(f"ranges are numbered from 1, got {n}")
    check_length(n)
    if n == 1:
        return MotzkinWord._trusted("0"), 0
    return MotzkinWord._trusted("(" + "0" * (n - 2) + ")"), motzkin(n - 1)


def range_max(n: int) -> tuple[MotzkinWord, int]:
    """Largest word of length n together with its index.

    The maximum is a run of adjacent bracket pairs, plus one trailing zero
    when n is odd; ranges 1 and 2 are singletons.
    """
    if n < 1:
        raise ArgumentError(f"ranges are numbered from 1, got {n}")
    check_length(n)
    if n == 1:
        return MotzkinWord._trusted("0"), 0
    return (MotzkinWord._trusted("()" * (n // 2) + "0" * (n % 2)),
            motzkin(n) - 1)
