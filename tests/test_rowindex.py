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
