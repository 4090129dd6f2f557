"""Partial addition and subtraction of Motzkin words via outer blocks.

Two words add by laying them out right-aligned (virtual leading zeros on
the shorter one) and merging column by column.  The sum is defined only
when the words are noncrossing: every outer block of one must fall in a
depth-0 zero zone of the other.  Landing inside the other word's block
interior is not allowed, even if no symbols collide there, because that
placement breaks index additivity: overlaying "(00)" (index 4) with a
right-aligned "()0" (index 3) produces "(())", whose index is 6, not 7.

Under that rule the index of a sum is the sum of the indexes, and every
word is the sum of its own extended blocks.
"""

from .errors import CrossingError, InclusionError, MotzkinError
from .rowindex import rank
from .word import MotzkinWord, as_word, decompose, outer_blocks


def noncrossing(x, y) -> bool:
    """True when the outer blocks of x and y occupy disjoint position
    spans, i.e. each block sits in a depth-0 zero zone of the other word.

    The zero word crosses nothing.  Two distinct words of equal length
    always cross (both open a block at the same leftmost position).
    """
    spans = sorted(outer_blocks(as_word(x)) + outer_blocks(as_word(y)),
                   key=lambda b: b.open_pos)
    # with the spans ordered by their high ends, all are disjoint when each
    # starts above the end of the one before it
    return all(a.open_pos < b.close_pos for a, b in zip(spans, spans[1:]))


def add(x, y) -> MotzkinWord:
    """Overlay of two noncrossing words; rank(add(x, y)) = rank(x) + rank(y)."""
    x = as_word(x)
    y = as_word(y)
    if not noncrossing(x, y):
        raise CrossingError(
            f"{x.text!r} and {y.text!r} cross; their sum is undefined"
        )
    n = max(len(x), len(y))
    tx = x.text.rjust(n, "0")
    ty = y.text.rjust(n, "0")
    merged = "".join(a if a != "0" else b for a, b in zip(tx, ty))
    return MotzkinWord._trusted(merged.lstrip("0") or "0")


def includes(x, y) -> bool:
    """True when every extended block of y appears, at the same positions
    and with identical content, among the extended blocks of x."""
    x = as_word(x)
    y = as_word(y)
    nx, ny = len(x), len(y)
    spans_x = iter(outer_blocks(x))
    for b in outer_blocks(y):
        # both span lists run left to right: pass x's blocks that open
        # left of b, then the next one must be b, with b's text
        a = next((a for a in spans_x if a.open_pos <= b.open_pos), None)
        if (a is None or (a.open_pos, a.close_pos) != (b.open_pos, b.close_pos)
                or x.text[nx - b.open_pos : nx - b.close_pos + 1]
                != y.text[ny - b.open_pos : ny - b.close_pos + 1]):
            return False
    return True


def sub(x, y) -> MotzkinWord:
    """Erase the blocks of y from x; rank(sub(x, y)) = rank(x) - rank(y)."""
    x = as_word(x)
    y = as_word(y)
    if not includes(x, y):
        raise InclusionError(
            f"{y.text!r} is not included in {x.text!r}; their difference "
            "is undefined"
        )
    # y's blocks are x's own, so keep x's symbols where y reads a zero
    ty = y.text.rjust(len(x), "0")
    kept = "".join(a if b == "0" else "0" for a, b in zip(x.text, ty))
    return MotzkinWord._trusted(kept.lstrip("0") or "0")


def decompose_sum(w) -> tuple[list[MotzkinWord], int]:
    """Extended blocks of w and the sum of their ranks.

    The sum always equals rank(w); a disagreement would mean the index
    additivity of block decomposition is broken, so it raises rather than
    returning bad data.
    """
    w = as_word(w)
    parts = decompose(w)  # ZeroWordError for the zero word
    total = sum(rank(p) for p in parts)
    if total != rank(w):
        raise MotzkinError(
            f"block decomposition of {w.text!r} is not index-additive: "
            f"{total} != {rank(w)}"
        )
    return parts, total
