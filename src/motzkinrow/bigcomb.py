"""Exact Motzkin numbers and bracket-completion counts, in one table.

Everything here is plain Python integer arithmetic, so values stay exact at
any size.  The table is the Motzkin triangle T(m, d) (OEIS A026300),
stored column by column: column d lists T(m, d) for m = 0, 1, 2, ...,
and column 0 is the Motzkin table (OEIS A001006).  It grows on demand and
is kept for the life of the process.

A column only ever gets finished values appended, so its length is its
bound: column d holds m = 0 .. len(column) - 1.  Growth happens under one
lock, each column stays at least one entry longer than the next, and a
new column is appended only once it is fully built, so readers need no
lock and never observe a half-built column.

Column 0 grows by the three-term recurrence of Donaghey and Shapiro.
Column d is built from columns d-1 and d-2 by T(m, d) = T(m+1, d-1) -
T(m, d-1) - T(m, d-2), which needs each lower column one entry further
than the one above it.  Only two walks read the table, both here:
``_rank_terms``, the one sum of rank terms (for ``rank``, the nav moves'
verified deltas and the landmark checks), and ``_unrank_text``, the same
walk run backwards.  Each grows column d + 2 through m - 2 for m symbols
from depth d, then column h + 1 through m - 1 only on reaching a new
greatest depth h with m symbols left: a word of greatest depth h grows
columns 0 .. h + 1, each only as far as the walk first needs it.
"""

import threading
from operator import sub

from .errors import ArgumentError

_lock = threading.Lock()

# _columns[d][m] = T(m, d) counts the length-m strings over {0, (, )} that
# start at bracket depth d, never dip below depth 0, and end at depth 0;
# the entries with m < d are zeros, since deeper starts cannot come back
# down in time.  Column 0, the Motzkin table, is seeded with M[0] and M[1].
_columns = [[1, 1]]


def motzkin(n):
    """Return the n-th Motzkin number: column 0 of the table, grown by
    ``completion_columns`` when it does not reach n yet.  It does not keep
    to the word-length limit; callers that take n from a user check it."""
    if n < 0:
        raise ArgumentError(f"Motzkin numbers are indexed from 0, got {n}")
    ms = _columns[0]
    return ms[n] if n < len(ms) else completion_columns(0, n)[0][n]


def unique_count(n):
    """Number of canonical (no leading zero) Motzkin words of length n.

    Every longer word is either inherited (a shorter word behind extra
    zeros) or new, so the count is the difference of consecutive Motzkin
    numbers.  The single word "0" makes the n = 1 count 1.
    """
    if n < 1:
        raise ArgumentError(f"ranges are numbered from 1, got {n}")
    if n == 1:
        return 1
    return motzkin(n) - motzkin(n - 1)


def _extend(column, d, top):
    """Append T(m, d) to column d (d >= 1) for m = len(column) .. top, by
    T(m, d) = T(m+1, d-1) - T(m, d-1) - T(m, d-2).  Column d-1 must
    already hold m up to top + 1 and column d-2 up to top."""
    lo = len(column)
    up = _columns[d - 1]
    new = map(sub, up[lo + 1:top + 2], up[lo:top + 1])
    if d > 1:
        new = map(sub, new, _columns[d - 2][lo:top + 1])
    column.extend(new)


def completion_columns(d, m):
    """The table grown so that column d holds m.

    Returns the columns: ``columns[c][k] == completions(k, c)`` for every
    c <= d and k <= m + d - c, since building column d through m needs
    each lower column one entry further than the one above it.  Callers
    read only inside the bounds they asked for and never write.

    Under the module lock, column 0 first grows by the recurrence
    (n+2) M[n] = (2n+1) M[n-1] + 3(n-1) M[n-2], whose division is exact.
    Then each column c <= d that is short of m + d - c is extended, the
    columns it is built from first, and the missing columns are added one
    at a time, each only as far as this request needs: a column follows
    the depths the walks have reached, not the longest word.
    """
    if d < len(_columns) and len(_columns[d]) > m:
        return _columns
    with _lock:
        ms = _columns[0]
        for k in range(len(ms), m + d + 1):
            ms.append(((2 * k + 1) * ms[k - 1] + 3 * (k - 1) * ms[k - 2])
                      // (k + 2))
        # the highest column that already reaches far enough; every column
        # under it does too, since each is longer than the next
        low = min(d, len(_columns) - 1)
        while low > 0 and len(_columns[low]) <= m + d - low:
            low -= 1
        for c in range(low + 1, d + 1):
            if c < len(_columns):
                _extend(_columns[c], c, m + d - c)
            else:
                column = []
                _extend(column, c, m + d - c)
                _columns.append(column)
    return _columns


def completions(m, d):
    """Count the ways to finish a word: length-m suffixes from depth d.

    A suffix is admissible when the running depth never drops below zero
    and lands exactly on zero at the end.  ``completions(n, 0)`` equals
    ``motzkin(n)``, and a start deeper than m leaves no completion.

    The count is read from ``completion_columns(d, m)``: column d of the
    table, grown past its length under the module lock when needed.  Like
    ``motzkin``, it does not keep to the word-length limit.
    """
    if m < 0 or d < 0:
        raise ArgumentError(f"completions needs m, d >= 0, got ({m}, {d})")
    if d > m:
        return 0
    return completion_columns(d, m)[d][m]


def _rank_terms(text, hi, lo, depth):
    """Sum of the rank terms of positions hi .. lo of text (1-based from
    the right, zeros past its left end), ``depth`` the depth left of hi.

    A "(" at position p with depth d left of it adds T(p-1, d), a ")"
    adds T(p-1, d) + T(p-1, d+1) (the words with a smaller symbol there)
    and a "0" adds nothing, so the walk stops at the text's last bracket:
    its trailing zeros cost no step, while each zero before that bracket
    still costs one.  Column depth + 2 through hi - 2 covers every read
    until the walk first reaches a new greatest depth."""
    columns = completion_columns(depth + 2, hi - 2)
    deepest = depth + 1
    total = 0
    n = len(text)
    m = n if hi > n else hi
    lo = max(lo, n + 1 - len(text.rstrip("0")))
    for ch in text[n - m : n + 1 - lo]:
        m -= 1
        if ch == "(":
            total += columns[depth][m]
            depth += 1
            if depth > deepest:
                # a ")" at this depth will read column depth + 1
                deepest = depth
                completion_columns(depth + 1, m - 1)
        elif ch == ")":
            total += columns[depth][m] + columns[depth + 1][m]
            depth -= 1
    return total


def _unrank_text(i, n):
    """Text of the word of rank i in range n >= 2: walk ``_rank_terms``
    backwards from the leading "(", taking the smallest symbol whose
    completion count covers what is left of i past the range base M[n-1]."""
    columns = completion_columns(2, n - 2)
    local = i - columns[0][n - 1]
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
    return "".join(chars)
