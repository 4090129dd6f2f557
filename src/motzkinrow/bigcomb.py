"""Exact Motzkin numbers and bracket-completion counts.

Everything here is plain Python integer arithmetic, so values stay exact at
any size.  Both tables grow on demand and are kept for the life of the
process.  Growth happens under one lock and a bound is published only after
the entries under it are complete, so readers need no lock and never
observe a half-built column.

The Motzkin numbers grow by the three-term recurrence of Donaghey and
Shapiro (OEIS A001006).  The completion counts T(m, d) are the Motzkin
triangle (OEIS A026300), stored column by column: column d lists T(m, d)
for m = 0, 1, 2, ..., and column 0 is the Motzkin table.  Each column has
its own published bound, the last m it holds.  A walk over a word reads
column d only once its depth reaches d - 1, and from then on only at
fewer remaining symbols than at that moment, so a word of greatest depth
h grows columns 0 .. h + 1 and each only as far as the walk first needs
it.  Column d is built from columns d-1 and d-2 by T(m, d) =
T(m+1, d-1) - T(m, d-1) - T(m, d-2), which needs each lower column one
entry further than the one above it.
"""

import threading
from operator import sub

from .errors import ArgumentError

_lock = threading.RLock()

# _motzkin[n] is the number of Motzkin words of length n (with leading
# zeros allowed), seeded with the 0- and 1-length values.
_motzkin = [1, 1]

# _columns[d][m] = T(m, d) counts the length-m strings over {0, (, )} that
# start at bracket depth d, never dip below depth 0, and end at depth 0.
# Column 0 is the Motzkin table itself.  _tops[d] is the published bound of
# column d: it holds m = 0 .. _tops[d], the entries with m < d being zeros,
# since deeper starts cannot come back down in time.  Each column reaches
# at least one entry further than the next: _tops[d] > _tops[d + 1].
_columns = [_motzkin]
_tops = [1]


def motzkin_numbers(n):
    """The Motzkin table, grown to hold M[0] .. M[n]; callers only read it.

    It grows by the three-term recurrence
    (n+2) M[n] = (2n+1) M[n-1] + 3(n-1) M[n-2], whose division is exact,
    under the module lock.
    """
    if n >= len(_motzkin):
        with _lock:
            while len(_motzkin) <= n:
                k = len(_motzkin)
                _motzkin.append(((2 * k + 1) * _motzkin[k - 1]
                                 + 3 * (k - 1) * _motzkin[k - 2]) // (k + 2))
    return _motzkin


def motzkin(n):
    """Return the n-th Motzkin number.

    Read from ``motzkin_numbers(n)``, which grows the table by the
    three-term recurrence (n+2) M[n] = (2n+1) M[n-1] + 3(n-1) M[n-2]
    under the module lock.
    """
    if n < 0:
        raise ArgumentError(f"Motzkin numbers are indexed from 0, got {n}")
    return motzkin_numbers(n)[n]


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
    """The completions table grown so that column d holds m.

    Returns the columns: ``columns[c][k] == completions(k, c)`` for every
    c <= d and k <= m + d - c, since building column d through m needs
    each lower column one entry further than the one above it.  Callers
    read only inside the bounds they asked for, never by ``len()``, and
    never write.

    Column c is extended only when it is short of m + d - c, the columns
    it is built from first, and the missing columns are added one at a
    time, each only as far as this request needs: a column follows the
    depths the walks have reached, not the longest word.  Growth runs
    under the module lock, and each column's bound is published only once
    the column holds every entry under it.
    """
    if d < len(_tops) and _tops[d] >= m:
        return _columns
    with _lock:
        motzkin_numbers(m + d)
        _tops[0] = max(_tops[0], m + d)
        # the highest column that already reaches far enough; every column
        # under it does too, since each reaches one further than the next
        low = min(d, len(_tops) - 1)
        while low > 0 and _tops[low] < m + d - low:
            low -= 1
        for c in range(low + 1, d + 1):
            top = m + d - c
            if c < len(_columns):
                _extend(_columns[c], c, top)
                _tops[c] = top
            else:
                column = []
                _extend(column, c, top)
                _columns.append(column)
                _tops.append(top)
    return _columns


def completions(m, d):
    """Count the ways to finish a word: length-m suffixes from depth d.

    A suffix is admissible when the running depth never drops below zero
    and lands exactly on zero at the end.  ``completions(n, 0)`` equals
    ``motzkin(n)``, and a start deeper than m leaves no completion.

    The count is read from ``completion_columns(d, m)``: column d of the
    table, grown past its bound under the module lock when needed.
    """
    if m < 0 or d < 0:
        raise ArgumentError(f"completions needs m, d >= 0, got ({m}, {d})")
    if d > m:
        return 0
    return completion_columns(d, m)[d][m]
