import random
import subprocess
import sys

import pytest

from motzkinrow import (
    ArgumentError,
    LimitError,
    MotzkinWord,
    UnderflowError,
    compare,
    motzkin,
    parse,
    predecessor,
    range_max,
    range_min,
    rank,
    successor,
    unrank,
)
from motzkinrow.bigcomb import _rank_terms
from motzkinrow.word import _depth_left


def test_compare_examples():
    assert compare("(0)", "()0") == -1
    assert compare("0", "()") == -1
    assert compare("(0)", "(0)") == 0
    assert compare("()0", "(0)") == 1


def test_rank_published_anchors():
    assert rank("0") == 0
    assert rank("()") == 1
    assert rank("(0)") == 2
    assert rank("()0(0())0") == 736
    assert rank("(0000)") == 21
    assert rank("()()()") == 50
    assert rank("()0000000") == 708
    assert rank("()0000(0)") == 710
    assert rank("(0)0000") == 72


def test_rank_ignores_padding():
    assert rank(parse("00(())")) == rank("(())")
    assert rank("000") == 0


def test_unrank_examples():
    assert unrank(782).text == "()(0)0(0)"
    assert unrank(0).text == "0"
    assert unrank(1).text == "()"
    with pytest.raises(ArgumentError):
        unrank(-3)


def test_bijection_against_oracle(row):
    index = 0
    for n in range(1, 10):
        for w in row(n):
            assert unrank(index) == w
            assert rank(w) == index
            index += 1
    assert index == motzkin(9)


def test_order_agreement_with_oracle(row_through):
    words = row_through(10)
    for a, b in zip(words, words[1:]):
        assert compare(a, b) == -1
    ranks = [rank(w) for w in words]
    assert ranks == list(range(len(words)))


def test_pairwise_order_small(row_through):
    words = row_through(6)
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            assert compare(a, b) == (i > j) - (i < j)
            assert (rank(a) < rank(b)) == (compare(a, b) == -1)


def test_successor_examples():
    assert successor("()").text == "(0)"
    assert successor("0").text == "()"
    assert predecessor("(0)").text == "()"
    assert predecessor("()").text == "0"
    # the top of a range rolls over into the next range's bottom
    assert successor("()()0").text == "(0000)"
    assert predecessor("(0000)").text == "()()0"
    with pytest.raises(UnderflowError):
        predecessor("0")


def test_successor_walks_the_oracle(row_through):
    words = row_through(8)
    for a, b in zip(words, words[1:]):
        assert successor(a) == b
        assert predecessor(b) == a


def test_neighbors_agree_with_unrank_on_random_indexes():
    rng = random.Random(20260809)
    top = motzkin(20)
    for _ in range(10000):
        i = rng.randrange(1, top)
        w = unrank(i)
        assert successor(w) == unrank(i + 1)
        assert predecessor(w) == unrank(i - 1)


def test_range_landmarks():
    assert range_min(6) == (MotzkinWord("(0000)"), 21)
    assert range_max(6) == (MotzkinWord("()()()"), 50)
    assert range_max(3) == (MotzkinWord("()0"), 3)
    assert range_min(1) == (MotzkinWord("0"), 0)
    assert range_max(1) == (MotzkinWord("0"), 0)
    with pytest.raises(ArgumentError):
        range_min(0)


def test_unrank_finds_the_range_at_its_boundaries():
    for n in range(2, 300):
        assert unrank(motzkin(n - 1)) == range_min(n)[0]
        assert unrank(motzkin(n) - 1) == range_max(n)[0]


def test_unrank_keeps_to_the_word_length_limit(monkeypatch):
    with pytest.raises(LimitError, match="longer than the configured maximum"):
        unrank(motzkin(4096))
    # an index past 64 bits is named by its size, which needs no quadratic
    # int -> str conversion and keeps the message short
    with pytest.raises(LimitError) as caught:
        unrank(10 ** 20000)
    assert str(caught.value) == ("index of 66439 bits needs a word longer "
                                 "than the configured maximum 4096")
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "8")
    assert unrank(motzkin(8) - 1).text == "()()()()"
    with pytest.raises(LimitError) as caught:
        unrank(motzkin(8))
    assert str(caught.value) == (
        "index 323 needs a word longer than the configured maximum 8")


def test_range_ends_and_rollover_keep_to_the_word_length_limit(monkeypatch):
    # built without validation after one length check, which keeps the
    # message of the validating constructor
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "8")
    assert range_min(8) == (MotzkinWord("(000000)"), motzkin(7))
    assert range_max(8) == (MotzkinWord("()()()()"), motzkin(8) - 1)
    assert successor("()()()0") == MotzkinWord("(000000)")
    assert predecessor("(000000)") == MotzkinWord("()()()0")
    for call in (lambda: range_min(9), lambda: range_max(9),
                 lambda: successor("()()()()")):
        with pytest.raises(LimitError) as caught:
            call()
        assert str(caught.value) == (
            "word length 9 exceeds the configured maximum 8")


def test_successor_of_zero_keeps_to_the_word_length_limit(monkeypatch):
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "1")
    with pytest.raises(LimitError,
                       match="word length 2 exceeds the configured maximum 1"):
        successor("0")


def test_padded_inputs_are_coerced():
    assert successor("00()").text == "(0)"
    assert predecessor(parse("000(0)")).text == "()"
    assert compare("00()", "()") == 0


def test_range_boundary_identities():
    for n in range(2, 41):
        lo, lo_index = range_min(n)
        hi, hi_index = range_max(n)
        assert lo_index == motzkin(n - 1) == rank(lo)
        assert hi_index == motzkin(n) - 1 == rank(hi)


def _random_word(rng, n):
    """A canonical Motzkin word of length n >= 2: after the opening "(",
    each symbol is drawn from those that still leave a valid tail."""
    chars, depth = ["("], 1
    for left in range(n - 2, -1, -1):
        ch, depth = rng.choice([(ch, d) for ch, d in
                                (("0", depth), ("(", depth + 1),
                                 (")", depth - 1))
                                if 0 <= d <= left])
        chars.append(ch)
    return "".join(chars)


def _local_rank(text, tri):
    # the rank walk over the test's own triangle: before the word's range
    # come M[n-1] = T(n-1, 0) words, then one completion count for every
    # smaller symbol choice along the word
    n = len(text)
    total, depth = tri[n - 1][0], 0
    for i, ch in enumerate(text):
        m = n - i - 1
        if ch == "(":
            total += tri[m][depth] if i > 0 else 0
            depth += 1
        elif ch == ")":
            total += tri[m][depth] + tri[m][depth + 1]
            depth -= 1
    return total


def test_rank_matches_local_triangle_up_to_length_512(triangle):
    tri = triangle(512)
    rng = random.Random(4096)
    for n in range(2, 513):
        text = _random_word(rng, n)
        assert rank(text) == _local_rank(text, tri), text


def _split_sums(text, p):
    # the rank terms of positions n..p+1 from depth 0, plus those of p..1
    # from the depth left of p
    n = len(text)
    return (_rank_terms(text, n, p + 1, 0)
            + _rank_terms(text, p, 1, _depth_left(text, p)))


def test_rank_is_the_rank_walk_split_anywhere(row_through):
    # the nav moves sum the walk over a span from the depth left of it, so
    # a walk split at any position must add up to rank
    for w in row_through(9):
        text, i = w.text, rank(w)
        for p in range(1, len(text) + 1):
            assert _split_sums(text, p) == i, (text, p)
        # positions past the left end hold zeros and add nothing
        assert _rank_terms(text, len(text) + 2, 1, 0) == i, text
    rng = random.Random(2048)
    for _ in range(4):
        text = _random_word(rng, rng.randint(256, 2048))
        i = rank(text)
        for p in rng.sample(range(1, len(text) + 1), 5):
            assert _split_sums(text, p) == i, (len(text), p)
        assert _rank_terms(text, len(text) + 2, 1, 0) == i


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_long_words_rank_unrank_and_neighbors(n):
    rng = random.Random(n)
    for _ in range(3):
        w = parse(_random_word(rng, n))
        i = rank(w)
        nxt = successor(w)
        assert rank(nxt) == i + 1
        assert predecessor(nxt) == w
        assert unrank(i) == w


def test_shallow_long_word_grows_only_the_columns_it_reads():
    # a word of greatest depth h reads completion columns 0 .. h + 1 only,
    # in a fresh process, at the length limit
    rng = random.Random(4096)
    chars, depth, deepest = ["("], 1, 1
    for left in range(4094, -1, -1):
        ch, depth = rng.choice([(ch, d) for ch, d in
                                (("0", depth), ("(", depth + 1),
                                 (")", depth - 1))
                                if 0 <= d <= min(left, 12)])
        chars.append(ch)
        deepest = max(deepest, depth)
    text = "".join(chars)
    assert len(text) == 4096 and deepest == 12
    script = (
        "import sys, motzkinrow as mz, motzkinrow.bigcomb as b\n"
        "w = mz.parse(sys.stdin.read())\n"
        "print(mz.unrank(mz.rank(w)) == w, len(b._columns))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], input=text,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"True {deepest + 2}\n", "")


def test_a_depth_2_word_at_the_length_limit_grows_four_columns():
    # a word of greatest depth 2 reads columns 0 .. 3, so at 4096 symbols
    # rank and unrank stay within those four, in a fresh process
    script = (
        "import motzkinrow as mz, motzkinrow.bigcomb as b\n"
        "w = '(' + '()' * 2047 + ')'\n"
        "print(mz.unrank(mz.rank(w)).text == w, len(b._columns))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True 4\n", "")


def test_unrank_grows_column_0_little_past_its_answer():
    # the length search starts from M[n] ~ 3^n / n^1.5, not from the index's
    # bit length, which would grow column 0 to about 1.58 n
    script = (
        "import motzkinrow as mz, motzkinrow.bigcomb as b\n"
        "w = '()' * 1024\n"
        "print(mz.unrank(mz.rank(w)).text == w, len(b._columns[0]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    found, length = proc.stdout.split()
    assert found == "True" and 2049 <= int(length) <= 2048 + 16


def test_unrank_takes_the_length_from_its_estimate(monkeypatch):
    # the estimate, capped at the limit, is never short of the length: the
    # first and the last index of every range 2..20000 reach the walk with
    # that range's length.  Motzkin numbers come from a list of the test's
    # own, so the shared table does not grow, and the walk is a spy
    from motzkinrow import rowindex

    top = 20000
    ms = [1, 1]
    for k in range(2, top + 1):
        ms.append(((2 * k + 1) * ms[k - 1] + 3 * (k - 1) * ms[k - 2]) // (k + 2))
    lengths = []

    def spy(i, n):
        lengths.append(n)
        return "0"

    monkeypatch.setattr(rowindex, "motzkin", ms.__getitem__)
    monkeypatch.setattr(rowindex, "_unrank_text", spy)
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", str(top))
    for n in range(2, top + 1):
        unrank(ms[n - 1])
        unrank(ms[n] - 1)
    assert lengths == [n for n in range(2, top + 1) for _ in "ab"]
    with pytest.raises(LimitError, match=f"configured maximum {top}$"):
        unrank(ms[top])


def test_neighbors_read_no_counts():
    # the neighbours rewrite symbols and refill the tail; they read no
    # completion count, so in a fresh process the table keeps its seed
    # column 0 = [M[0], M[1]] however long the word, rollovers included
    rng = random.Random(2048)
    flat = "".join(_random_word(rng, 38) + "00" for _ in range(51))
    flat += "(" + "0" * (2046 - len(flat)) + ")"
    walk = _random_word(rng, 2048)
    nest = "(" * 512 + "0" * 1024 + ")" * 512
    smallest = "(" + "0" * 2046 + ")"
    words = [flat, walk, nest, "()" * 1024, smallest]
    assert all(len(parse(w)) == 2048 for w in words)
    script = (
        "import sys, motzkinrow as mz, motzkinrow.bigcomb as b\n"
        "for text in sys.stdin.read().split():\n"
        "    print(mz.successor(text), mz.predecessor(text))\n"
        "print(b._columns)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          input="\n".join(words), capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    *pairs, columns = proc.stdout.splitlines()
    assert columns == "[[1, 1]]"
    assert pairs[3].split()[0] == "(" + "0" * 2047 + ")"
    assert pairs[4].split()[1] == "()" * 1023 + "0"
    for text, pair in zip(words, pairs):
        nxt, prev = map(MotzkinWord, pair.split())
        assert predecessor(nxt).text == successor(prev).text == text
