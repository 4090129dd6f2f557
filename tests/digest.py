"""A behaviour digest: one line per public call, hashed.

Each line is ``name(args) -> repr(result)``, or ``-> ErrorClass: message``
when the call raises a MotzkinError; a CLI call's line holds its exit code,
stdout and stderr.  The calls run in a fixed order and read no clock, so
two trees that behave alike give the same sha256.  The digest pins
behaviour, not truth: the audits and the enumerator stay the ground truth.

Run ``PYTHONPATH=src python tests/digest.py`` to print the sha256.
"""

import contextlib
import hashlib
import io
import os
import random

from motzkinrow import (MotzkinError, add, as_word, audit, cli, compare,
                        control_points, decompose, decompose_sum,
                        enumerate_range, extended_block, includes,
                        insert_pair, merge_adjacent, motzkin, noncrossing,
                        outer_blocks, parse, predecessor, psi, range_max,
                        range_min, rank, remove_pair, sequence, shift_close,
                        shift_open, split_block, sub, successor,
                        swap_across_zero, unique_count, unrank, xi, zeta)

LIMIT = "MOTZKINROW_MAX_WORD_LEN"
SEQUENCES = ("motzkin", "unique", "xi", "zeta_adjacent", "psi")
CHECKS = ("rank_roundtrip", "order_agreement", "theorem_2_4", "corollary_3_1",
          "corollary_3_3", "corollary_4_1", "conjecture_4_3",
          "psi_site_independence", "table_1", "paper_examples")
# the leftmost symbols of every long word, as in the benchmark's long_words
# workload, with a site for every nav family
SKELETON = "(00()0)0()()00"


def _skeleton_moves(n):
    return ((shift_open, n, -1), (shift_close, n - 6, "left"),
            (shift_close, n - 6, "right"), (remove_pair, n - 8, n - 6),
            (insert_pair, n - 2, n - 1), (merge_adjacent, n - 10),
            (split_block, n - 4), (swap_across_zero, n - 8))


def _call(fn, *args, shown=None):
    """One line for fn(*args); shown stands in for the arguments' repr."""
    head = f"{fn.__name__}({shown or ', '.join(map(repr, args))})"
    try:
        return f"{head} -> {fn(*args)!r}"
    except MotzkinError as exc:
        return f"{head} -> {type(exc).__name__}: {exc}"


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"cli{argv!r} -> {code} {out.getvalue()!r} {err.getvalue()!r}"


def _row_words(n):
    words = []
    for m in range(1, n + 1):
        words.extend(enumerate_range(m))
    return words


def _ranges():
    # rank, unrank, both neighbours and the block sum, ranges 1..10
    for i, w in enumerate(_row_words(10)):
        yield _call(rank, w)
        yield _call(unrank, i)
        yield _call(successor, w)
        yield _call(predecessor, w)
        yield _call(decompose_sum, w)


def _moves():
    # the seven moves at positions -1 .. len+3, every offset and second
    # position among them, ranges 1..8
    for w in _row_words(8):
        ks = range(-1, len(w) + 4)
        r = repr(w)  # once per word, not per call
        for k in ks:
            for j in ks:
                yield _call(shift_open, w, k, j - k, shown=f"{r}, {k}, {j - k}")
                for move in (remove_pair, insert_pair):
                    yield _call(move, w, k, j, shown=f"{r}, {k}, {j}")
            for side in ("left", "right"):
                yield _call(shift_close, w, k, side, shown=f"{r}, {k}, {side!r}")
            for move in (merge_adjacent, split_block, swap_across_zero):
                yield _call(move, w, k, shown=f"{r}, {k}")
        yield _call(shift_close, w, len(w), "up")


def _blocks():
    words = _row_words(5)
    for x in words:
        yield _call(outer_blocks, x)
        yield _call(decompose, x)
        for b in outer_blocks(x):
            yield _call(extended_block, x, b)
        for y in words:
            yield _call(add, x, y)
            yield _call(sub, x, y)


# the long_words shapes, copied from bench/workloads.py so that the pin does
# not move when the benchmark does
def _walk(rng, m, depth=0):
    out = []
    for r in range(m, 0, -1):
        ch = rng.choice([c for c, d in (("0", depth), ("(", depth + 1),
                                        (")", depth - 1)) if 0 <= d <= r - 1])
        out.append(ch)
        depth += (ch == "(") - (ch == ")")
    return "".join(out)


def _filler(rng, m, shape):
    if shape == "flat":
        count = max(1, m // 40)
        parts = []
        for size in (m // count + (i < m % count) for i in range(count)):
            gap = rng.randint(0, min(2, size - 2))
            parts.append("(" + _walk(rng, size - gap - 2) + ")" + "0" * gap)
        return "".join(parts)
    if shape == "walk":
        return "(" + _walk(rng, m - 2) + ")"
    depth = max(1, m // 4)
    chars = list("(" * depth + ")" * depth)
    for _ in range(m - 2 * depth):
        chars.insert(rng.randint(1, len(chars)), "0")
    return "".join(chars)


def _long_words():
    # the three long_words shapes; a nest word of length n is n/4 deep, and
    # a word of depth h grows h + 2 table columns, so nests stop at 1024
    for shape, lengths in (("flat", (16, 64, 256, 1024, 4096)),
                           ("walk", (16, 64, 256, 1024, 4096)),
                           ("nest", (16, 64, 256, 1024))):
        for n in lengths:
            rng = random.Random(f"{shape}{n}")
            w = parse(SKELETON + _filler(rng, n - len(SKELETON), shape))
            i = rank(w)
            yield f"{shape} {n}: {w.text} rank {i}"
            yield _call(unrank, i, shown=f"rank of {shape} {n}")
            for fn in (successor, predecessor, decompose_sum):
                yield _call(fn, w, shown=f"{shape} {n}")
            # a seeded half of the blocks, the rest, and their overlay
            parts = decompose(w)
            x = parts[0]
            for p in parts[1:]:
                if rng.random() < 0.5:
                    x = add(x, p)
            shown = f"{shape} {n}, {x.text}"
            yield _call(includes, w, x, shown=shown)
            yield _call(sub, w, x, shown=shown)
            yield _call(noncrossing, sub(w, x), x, shown=shown)
            yield _call(add, sub(w, x), x, shown=shown)
            for move, *args in _skeleton_moves(n):
                yield _call(move, w, *args, shown=f"{shape} {n}, {args}")


def _counts():
    for n in range(0, 41):
        yield _call(motzkin, n)
        yield _call(unique_count, n)
        yield _call(xi, n)
        yield _call(psi, n)
        yield _call(zeta, n, n + 1)
        yield _call(zeta, n, 2 * n)
        yield _call(control_points, n)
        yield _call(range_min, n)
        yield _call(range_max, n)
    for name in (*SEQUENCES, "fib"):
        for count in (0, 1, 40):
            yield _call(sequence, name, count)


def _errors():
    for w in ("0", "()"):
        for fn in (rank, successor, predecessor, decompose_sum, outer_blocks,
                   decompose):
            yield _call(fn, w)
    yield _call(successor, "()" * 2048, shown='"()" * 2048')
    m = motzkin(4096)
    yield _call(unrank, m, shown="M[4096]")
    yield _call(unrank, m - 1, shown="M[4096] - 1")
    yield _call(unrank, 10 ** 5000, shown="10**5000")
    yield _call(unrank, -1)
    for text in ("", "00", "0(", "(()", "())(", "(a)", "((0)", "0()"):
        yield _call(parse, text)
        yield _call(as_word, text)
    yield _call(as_word, 5)
    yield _call(compare, "(0)", "()0")
    yield _call(add, "()", "()")
    yield _call(audit, "nope", 5)
    yield _call(audit, "corollary_4_1", 3)
    yield _call(audit, "table_1", 4097)
    yield _call(audit, "rank_roundtrip", 16)


def _cli_calls():
    calls = [
        ("rank", "()0(0())0"), ("unrank", "736"), ("next", "()()"),
        ("prev", "(00)"), ("prev", "0"), ("cmp", "(0)", "()0"),
        ("add", "()0000000", "(0())0"), ("sub", "()0(0())0", "(0())0"),
        ("add", "()", "()"), ("decompose", "()(0)0(0)"),
        ("shift-open", "(00)", "4", "2"), ("shift-close", "(0)0000", "5",
                                          "left"),
        ("remove-pair", "()00(())", "4", "7"),
        ("insert-pair", "(0000())", "4", "7"), ("merge", "(0)()00", "4"),
        ("split", "(0())00", "4"), ("swap", "()0()", "2"),
        ("swap", "()()", "2"), ("xi", "5"), ("zeta", "4", "7"),
        ("psi", "6"), ("range", "7"), ("control-points", "9"),
        ("seq", "psi", "12"), ("addendum", "--max-range", "6"),
        ("--translit", "rank", "lolrr"), ("--translit", "next", "lr"),
    ]
    calls += [("audit", check, "--max-range", "7") for check in CHECKS]
    for argv in calls:
        yield _cli(*argv)
        yield _cli("--format", "lines", *argv)


def _limits():
    # length limits 1, 2 and 3, and two bad values, through the environment
    old = os.environ.get(LIMIT)
    try:
        for value in ("1", "2", "3", "0", "abc"):
            os.environ[LIMIT] = value
            yield f"{LIMIT}={value}"
            for w in ("0", "()", "(0)", "()0"):
                for fn in (parse, rank, successor, predecessor):
                    yield _call(fn, w)
            for i in range(6):
                yield _call(unrank, i)
            for n in range(1, 5):
                yield _call(range_min, n)
                yield _call(range_max, n)
                yield _call(xi, n)
                yield _call(psi, n)
                yield _call(zeta, n, n + 1)
                for name in SEQUENCES:
                    yield _call(sequence, name, n)
            yield _call(shift_open, "()", 2, 1)
            yield _call(shift_open, "(0)", 3, -1)
            yield _call(add, "()", "0")
            yield _call(control_points, 5)
            yield _call(audit, "table_1", 5)
            yield _call(audit, "corollary_3_1", 3)
            for argv in (("rank", "()"), ("next", "()"), ("unrank", "3"),
                         ("shift-open", "()", "2", "1"), ("xi", "1"),
                         ("audit", "corollary_3_1", "--max-range", "2")):
                yield _cli(*argv)
    finally:
        if old is None:
            del os.environ[LIMIT]
        else:
            os.environ[LIMIT] = old


def lines():
    for part in (_ranges, _moves, _blocks, _long_words, _counts, _errors,
                 _cli_calls, _limits):
        yield from part()


def digest():
    h = hashlib.sha256()
    for line in lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
