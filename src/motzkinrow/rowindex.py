"""The total order on canonical Motzkin words: rank, unrank, neighbors.

Words are ordered by length first, then symbol by symbol from the left
under 0 < ( < ).  The rank of a word is its 0-based position in that
order; the words of length n occupy the index interval
[motzkin(n-1), motzkin(n)).

Ranking walks the word left to right and, at every position, adds the
number of admissible completions for each strictly smaller symbol choice.
Unranking runs the same walk in reverse, always taking the smallest symbol
whose completion count still covers the remaining offset.  Both walks
grow the completions table once, to the word's length, and then read its
rows directly.  The neighbor functions do NOT use those counts at all:
they rewrite one symbol and refill the tail directly, which keeps them an
independent cross-check on rank/unrank.
"""

from bisect import bisect_right

from . import config
from .bigcomb import completion_rows, motzkin, motzkin_numbers
from .errors import ArgumentError, LimitError, UnderflowError
from .word import MotzkinWord, as_word


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
    total = motzkin(n - 1)
    rows = completion_rows(n)
    depth = 0
    for i, ch in enumerate(w.text):
        if ch == "(":
            # '0' is the only smaller symbol; it is barred from the first
            # position, where no canonical word may start with a zero.
            if i > 0:
                total += rows[n - i - 1][depth]
            depth += 1
        elif ch == ")":
            # a '0' would keep the depth, a '(' would raise it
            row = rows[n - i - 1]
            total += row[depth] + row[depth + 1]
            depth -= 1
    return total


def unrank(i: int) -> MotzkinWord:
    """The unique word whose rank is i."""
    if i < 0:
        raise ArgumentError(f"indexes are nonnegative, got {i}")
    if i == 0:
        return MotzkinWord("0")
    # M[n] >= M[n-1] + 2 M[n-2] >= 2^(n-1), so an index below 2^b lies in
    # a range no longer than b + 1
    top = min(i.bit_length() + 1, config.max_word_length())
    ms = motzkin_numbers(top)
    n = bisect_right(ms, i, 1, top + 1)
    if n > top:
        raise LimitError(
            f"index {i} needs a word longer than the configured maximum"
        )
    local = i - ms[n - 1]
    rows = completion_rows(n)
    chars = ["("]
    depth = 1
    for pos in range(1, n):
        row = rows[n - pos - 1]
        c = row[depth]
        if local < c:
            chars.append("0")
            continue
        local -= c
        c = row[depth + 1]
        if local < c:
            chars.append("(")
            depth += 1
            continue
        local -= c
        chars.append(")")
        depth -= 1
    return MotzkinWord("".join(chars))


def _feasible(depth: int, remaining: int) -> bool:
    # A tail exists iff the depth can be unwound in the remaining symbols.
    return 0 <= depth <= remaining


def _fill_min(depth: int, m: int) -> str:
    """Lexicographically smallest valid tail of length m from depth."""
    out = []
    for r in range(m, 0, -1):
        for ch, d2 in (("0", depth), ("(", depth + 1), (")", depth - 1)):
            if _feasible(d2, r - 1):
                out.append(ch)
                depth = d2
                break
    return "".join(out)


def _fill_max(depth: int, m: int) -> str:
    """Lexicographically largest valid tail of length m from depth."""
    out = []
    for r in range(m, 0, -1):
        for ch, d2 in ((")", depth - 1), ("(", depth + 1), ("0", depth)):
            if _feasible(d2, r - 1):
                out.append(ch)
                depth = d2
                break
    return "".join(out)


def _prefix_depths(text: str) -> list[int]:
    depths = [0]
    d = 0
    for ch in text:
        if ch == "(":
            d += 1
        elif ch == ")":
            d -= 1
        depths.append(d)
    return depths


def successor(w) -> MotzkinWord:
    """The next word in the row; the top of a range rolls over to the
    all-zero block that opens the next range."""
    w = as_word(w)
    if w.is_zero:
        return MotzkinWord("()")
    text = w.text
    n = len(text)
    depths = _prefix_depths(text)
    # Right to left, find the first symbol replaceable by a larger one.
    for i in range(n - 1, 0, -1):
        d = depths[i]
        m = n - i - 1
        current = text[i]
        if current == "0":
            bigger = (("(", d + 1), (")", d - 1))
        elif current == "(":
            bigger = ((")", d - 1),)
        else:
            bigger = ()
        for ch, d2 in bigger:
            if _feasible(d2, m):
                return MotzkinWord(text[:i] + ch + _fill_min(d2, m))
    # w is the maximum of its range.
    return MotzkinWord("(" + "0" * (n - 1) + ")")


def predecessor(w) -> MotzkinWord:
    """The previous word in the row."""
    w = as_word(w)
    if w.is_zero:
        raise UnderflowError('"0" is the first word of the row')
    if w.text == "()":
        return MotzkinWord("0")
    text = w.text
    n = len(text)
    depths = _prefix_depths(text)
    for i in range(n - 1, 0, -1):
        d = depths[i]
        m = n - i - 1
        current = text[i]
        if current == ")":
            smaller = (("(", d + 1), ("0", d))
        elif current == "(":
            smaller = (("0", d),)
        else:
            smaller = ()
        for ch, d2 in smaller:
            if _feasible(d2, m):
                return MotzkinWord(text[:i] + ch + _fill_max(d2, m))
    # w is the minimum of its range.
    return range_max(n - 1)[0]


def range_min(n: int) -> tuple[MotzkinWord, int]:
    """Smallest word of length n together with its index."""
    if n < 1:
        raise ArgumentError(f"ranges are numbered from 1, got {n}")
    if n == 1:
        return MotzkinWord("0"), 0
    return MotzkinWord("(" + "0" * (n - 2) + ")"), motzkin(n - 1)


def range_max(n: int) -> tuple[MotzkinWord, int]:
    """Largest word of length n together with its index.

    The maximum is a run of adjacent bracket pairs, plus one trailing zero
    when n is odd; ranges 1 and 2 are singletons.
    """
    if n < 1:
        raise ArgumentError(f"ranges are numbered from 1, got {n}")
    if n == 1:
        return MotzkinWord("0"), 0
    return MotzkinWord("()" * (n // 2) + "0" * (n % 2)), motzkin(n) - 1
