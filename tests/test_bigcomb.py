import itertools
import queue
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import motzkinrow.bigcomb as bigcomb
from motzkinrow import (ArgumentError, completions, motzkin, rank, successor,
                        unique_count, unrank)

MOTZKIN_PREFIX = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835]
UNIQUE_PREFIX = [1, 1, 2, 5, 12, 30, 76, 196, 512, 1353, 3610, 9713, 26324,
                 71799, 196938]


def test_motzkin_published_values():
    assert [motzkin(n) for n in range(14)] == MOTZKIN_PREFIX


@pytest.fixture
def fresh_tables():
    """Empty the process-wide tables, so the test sees them grow from the
    start; later callers regrow them on demand."""
    with bigcomb._lock:
        bigcomb._columns[:] = [[1, 1]]


def test_motzkin_matches_rational_recurrence():
    # the recurrence the table is built by:
    # (n+2) M[n] = (2n+1) M[n-1] + 3(n-1) M[n-2]
    for n in range(2, 80):
        assert (n + 2) * motzkin(n) == (2 * n + 1) * motzkin(n - 1) + 3 * (
            n - 1
        ) * motzkin(n - 2)


def test_motzkin_growth():
    for n in range(4, 40):
        assert motzkin(n) > 2 * motzkin(n - 1)


def test_motzkin_rejects_negative():
    with pytest.raises(ArgumentError):
        motzkin(-1)


def test_unique_count_published_values():
    assert [unique_count(n) for n in range(1, 16)] == UNIQUE_PREFIX


def test_unique_count_rejects_zero():
    with pytest.raises(ArgumentError):
        unique_count(0)


def test_unique_count_matches_enumeration(row):
    for n in range(1, 13):
        assert unique_count(n) == len(row(n))


def test_completions_base_cases():
    assert completions(0, 0) == 1
    for d in range(1, 8):
        assert completions(0, d) == 0


def test_completions_recurrence():
    for m in range(1, 30):
        for d in range(m + 1):
            down = completions(m - 1, d - 1) if d > 0 else 0
            assert completions(m, d) == (
                completions(m - 1, d) + completions(m - 1, d + 1) + down
            )


def test_completions_at_ground_level_are_motzkin():
    for m in range(30):
        assert completions(m, 0) == motzkin(m)


def test_completions_depth_two_length_two():
    assert completions(2, 1) == 2  # "0)" and ")0"


def _brute_completions_row(m):
    """Exhaustive generation over all 3^m strings; each string ending at
    relative depth -d is a completion from start depth d when it never
    dips below that start."""
    tally = {}
    for s in itertools.product("0()", repeat=m):
        depth = 0
        low = 0
        for ch in s:
            depth += 1 if ch == "(" else (-1 if ch == ")" else 0)
            low = min(low, depth)
        start = -depth
        if start >= 0 and start + low >= 0:
            tally[start] = tally.get(start, 0) + 1
    return tally


@pytest.mark.parametrize("m", range(13))
def test_completions_against_exhaustive_generation(m):
    tally = _brute_completions_row(m)
    for d in range(m + 1):
        assert completions(m, d) == tally.get(d, 0)


def test_completions_rejects_negative_arguments():
    with pytest.raises(ArgumentError):
        completions(-1, 0)
    with pytest.raises(ArgumentError):
        completions(3, -2)


def test_completions_unreachable_depth_is_zero():
    assert completions(3, 4) == 0
    assert completions(5, 17) == 0


def test_large_values_stay_exact():
    # the rational recurrence's division must come out exact at n = 500;
    # test_motzkin_matches_convolution checks the values themselves
    n = 500
    assert (n + 2) * motzkin(n) == (2 * n + 1) * motzkin(n - 1) + 3 * (
        n - 1
    ) * motzkin(n - 2)
    assert motzkin(n) % 10 == motzkin(n) - (motzkin(n) // 10) * 10


def test_motzkin_matches_convolution():
    # independent of the three-term recurrence: a word of length n + 1
    # starts with 0, or with a pair "(" u ")" v around shorter words, so
    # M[n+1] = M[n] + sum(M[k] * M[n-1-k] for k in 0..n-1)
    ref = [1, 1]
    for n in range(1, 500):
        ref.append(ref[n] + sum(ref[k] * ref[n - 1 - k] for k in range(n)))
    assert [motzkin(n) for n in range(501)] == ref


def _published_frontier(tri, size):
    """Read the last entry of every column by its length alone, as a
    reader would, check it against tri where tri reaches, and check that
    every column is longer than the next; return the number of columns."""
    columns = list(bigcomb._columns)
    # deepest first: columns only lengthen, so column d, measured after
    # column d + 1, must still be the longer
    tops = [len(column) - 1 for column in reversed(columns)][::-1]
    for d, (column, m) in enumerate(zip(columns, tops)):
        if m <= size and d <= size + 1:
            assert column[m] == tri[m][d], (m, d)
        if d + 1 < len(tops):
            assert tops[d + 1] < m, d
    return len(columns)


def test_completions_match_full_triangle(fresh_tables, triangle):
    # the table grows from empty by (depth, m) requests in a scrambled
    # order under rising caps, so columns appear and lengthen in uneven
    # steps; after each step the newest entry of every column is read,
    # then every entry with m, d <= 300 (the d > m zeros included)
    size = 300
    tri = triangle(size)
    rng = random.Random(1977)
    requests = []
    for cap in (30, 90, 180, size):
        batch = [(d, m) for d in range(0, cap + 1, cap // 10)
                 for m in range(0, cap + 1, cap // 6)]
        rng.shuffle(batch)
        requests += batch
    shapes = set()
    for d, m in requests:
        columns = bigcomb.completion_columns(d, m)
        for c in range(d + 1):
            k = m + d - c
            if k <= size:
                assert columns[c][k] == tri[k][c], (k, c)
        shapes.add(tuple(map(len, bigcomb._columns)))
        assert _published_frontier(tri, size) > d
    assert len(shapes) > 10
    pairs = [(m, d) for m in range(size + 1) for d in range(size + 1)]
    random.Random(1978).shuffle(pairs)
    for m, d in pairs:
        assert completions(m, d) == tri[m][d], (m, d)


def test_tables_survive_concurrent_growth(fresh_tables, triangle,
                                         monkeypatch):
    # many threads grow the table, the Motzkin column and the deeper
    # columns in depth and in length, at once, with frequent thread
    # switches; every value must still be exact.  A reader can arrive at
    # any moment of a growth step, so before and after each column is
    # extended, the newest entry of every column is read by its length
    # alone: a column holding an unfinished entry, or one not longer than
    # the next, fails
    tri = triangle(200)
    extend = bigcomb._extend
    depths = []

    def extend_between_reads(column, d, top):
        depths.append(_published_frontier(tri, 200))
        extend(column, d, top)
        depths.append(_published_frontier(tri, 200))

    monkeypatch.setattr(bigcomb, "_extend", extend_between_reads)
    requests = [(m, d) for m in range(1, 201, 3) for d in range(0, m + 1, 9)]
    random.Random(7).shuffle(requests)
    # column 0 grows inside completion_columns, not through _extend, so
    # reader threads read its newest entry by its length all along.  The
    # interpreter may switch threads at no point between a list append and
    # the next store, so the growing threads' profile hook also stops them
    # after every C call inside completion_columns until a reader has read
    stop = threading.Event()
    handoffs = queue.Queue()
    wrong = []

    def read_newest_motzkin():
        while not stop.is_set():
            try:
                done = handoffs.get(timeout=0.001)
            except queue.Empty:
                done = None
            column = bigcomb._columns[0]
            m = len(column) - 1
            value = column[m]
            if m <= 200 and value != tri[m][0]:
                wrong.append((m, value))
            if done:
                done.set()

    growth = bigcomb.completion_columns.__code__

    def hand_to_a_reader(frame, event, arg):
        if event == "c_return" and frame.f_code is growth:
            done = threading.Event()
            handoffs.put(done)
            done.wait(1)

    readers = [threading.Thread(target=read_newest_motzkin)
               for _ in range(3)]
    for reader in readers:
        reader.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threading.setprofile(hand_to_a_reader)  # threads started from here on
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            rising = list(pool.map(motzkin, range(2, 201)))
            motzkins = list(pool.map(motzkin, [120] * 16))
            values = list(pool.map(lambda md: completions(*md), requests))
    finally:
        threading.setprofile(None)
        stop.set()
        for reader in readers:
            reader.join(10)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert wrong == []
    assert rising == [tri[n][0] for n in range(2, 201)]
    assert len(set(motzkins)) == 1
    assert motzkins[0] == tri[120][0]
    for (m, d), value in zip(requests, values):
        assert value == tri[m][d], (m, d)
    assert completions(120, 0) == motzkin(120)
    assert max(depths) > 100


def test_rank_and_unrank_survive_concurrent_growth(fresh_tables, triangle):
    # a walk grows a column each time it reaches a new greatest depth, so
    # deep words walked at once grow the table mid-walk from many threads,
    # with frequent thread switches; every walk must still be exact, and
    # the published columns too.  Each word's index comes from the test's
    # own triangle, so unrank walks first, on a table it grows itself
    tri = triangle(512)  # the size tests/test_rowindex.py also builds
    rng = random.Random(25)
    words = []
    for n in range(60, 401, 20):
        words.append("(" * (n // 2) + ")" * (n // 2))
        chars = list("(" * (n // 3) + ")" * (n // 3))
        for _ in range(n - len(chars)):  # zeros anywhere past the first "("
            chars.insert(rng.randrange(1, len(chars) + 1), "0")
        words.append("".join(chars))
    rng.shuffle(words)

    def local_rank(w):
        # T(m, d) for each "(" and T(m, d) + T(m, d+1) for each ")", with
        # m symbols right of it and depth d left of it; the leading "("
        # adds T(n-1, 0) = M[n-1], the words of the shorter ranges
        n, total, depth = len(w), 0, 0
        for m, ch in zip(range(n - 1, -1, -1), w):
            if ch == "(":
                total += tri[m][depth]
                depth += 1
            elif ch == ")":
                total += tri[m][depth] + tri[m][depth + 1]
                depth -= 1
        return total

    def round_trips(w):
        i = local_rank(w)
        return (unrank(i).text == w and rank(w) == i
                and rank(successor(w)) == i + 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(round_trips, words))
    finally:
        sys.setswitchinterval(interval)
    assert all(results)
    assert _published_frontier(tri, 512) > 200
