"""Exact Motzkin numbers and bracket-completion counts.

Everything here is plain Python integer arithmetic, so values stay exact at
any size.  Both tables grow on demand and are kept for the life of the
process.  Growth happens under one lock and a bound is published only after
the entries under it are complete, so readers need no lock and never
observe a half-built row.

The Motzkin numbers grow by the three-term recurrence of Donaghey and
Shapiro (OEIS A001006).  The completion counts are the Motzkin triangle
(OEIS A026300), kept only where m + d <= L for the longest length L served
so far: that is every count a word of length L can ask for, and the
triangle recurrence never reads outside it.
"""

import threading
from operator import add

from .errors import ArgumentError

_lock = threading.RLock()

# _motzkin[n] is the number of Motzkin words of length n (with leading
# zeros allowed), seeded with the 0- and 1-length values.
_motzkin = [1, 1]

# _completions[m][d] counts the length-m strings over {0, (, )} that start
# at bracket depth d, never dip below depth 0, and end at depth 0.  Row m
# holds d = 0 .. _reach - m; the entries with d > m are zeros, since deeper
# starts cannot come back down in time.
_completions = [[1]]
_reach = 0


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


def completion_rows(length):
    """The completions table, grown to hold every entry with m + d <= length.

    ``completion_rows(n)[m][d] == completions(m, d)`` whenever m + d <= n,
    which covers every count that ranking or unranking a word of length n
    reads.  Callers only read the returned rows.

    A longer request extends the existing rows in place and appends new
    ones by the triangle recurrence T(m, d) = T(m-1, d-1) + T(m-1, d) +
    T(m-1, d+1), which reads row m-1 only up to d + 1 <= length - (m-1),
    inside the cut.  Growth runs under the module lock, and the new bound
    is published only once every row under it is complete.
    """
    global _reach
    if length > _reach:
        with _lock:
            old = _reach
            if length > old:
                rows = _completions
                rows[0].extend([0] * (length - old))
                for m in range(1, length + 1):
                    prev = rows[m - 1]
                    hi = length - m
                    if m <= old:
                        lo = old - m + 1
                        rows[m].extend(map(add, map(add, prev[lo - 1:hi],
                                                    prev[lo:hi + 1]),
                                           prev[lo + 1:hi + 2]))
                    else:
                        row = [prev[0] + prev[1]]
                        row.extend(map(add, map(add, prev[:hi], prev[1:hi + 1]),
                                       prev[2:hi + 2]))
                        rows.append(row)
                _reach = length
    return _completions


def completions(m, d):
    """Count the ways to finish a word: length-m suffixes from depth d.

    A suffix is admissible when the running depth never drops below zero
    and lands exactly on zero at the end.  ``completions(n, 0)`` equals
    ``motzkin(n)``, and a start deeper than m leaves no completion.

    The count is read from ``completion_rows(m + d)``: the table holds the
    entries with m + d <= L for the longest length L asked for so far, and
    grows past that cut under the module lock.
    """
    if m < 0 or d < 0:
        raise ArgumentError(f"completions needs m, d >= 0, got ({m}, {d})")
    if d > m:
        return 0
    return completion_rows(m + d)[m][d]
