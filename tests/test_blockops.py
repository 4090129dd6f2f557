import pytest

from motzkinrow import (
    CrossingError,
    InclusionError,
    MotzkinWord,
    ZeroWordError,
    add,
    decompose,
    decompose_sum,
    includes,
    noncrossing,
    outer_blocks,
    rank,
    sub,
)


def test_noncrossing_examples():
    assert noncrossing("()0000000", "(0())0")
    assert not noncrossing("(00)", "()0")
    # symbol-disjoint but interior: overlay would give "(())", whose index
    # 6 is not 4 + 3, so this placement must count as crossing
    assert not noncrossing("(00)", "0()0")
    assert rank("(())") == 6
    assert rank("(00)") + rank("()0") == 7


def test_zero_word_crosses_nothing(row_through):
    for w in row_through(6):
        assert noncrossing("0", w)
        assert noncrossing(w, "0")


def test_equal_length_distinct_words_cross(row):
    words = row(5)
    for a in words:
        for b in words:
            assert not noncrossing(a, b)


def test_noncrossing_is_pairwise_span_disjointness(row_through):
    # reference: no outer block of one word shares a position with an outer
    # block of the other, checked over every pair of spans
    def disjoint(x, y):
        return all(a.open_pos < b.close_pos or b.open_pos < a.close_pos
                   for a in outer_blocks(x) for b in outer_blocks(y))

    words = row_through(7)
    for x in words:
        for y in words:
            assert noncrossing(x, y) == disjoint(x, y), (x.text, y.text)


def test_add_examples():
    assert add("()0000000", "(0())0").text == "()0(0())0"
    assert rank("()0000000") + rank("(0())0") == 736
    assert add("()0000(0)", "(0)0000").text == "()(0)0(0)"
    for w in ("(0)()()", "0", "(((0)))"):
        assert add(w, "0").text == w
        assert add(w, "0") == add("0", w)


def test_add_requires_noncrossing():
    with pytest.raises(CrossingError):
        add("(00)", "()0")
    with pytest.raises(CrossingError):
        add("(00)", "0()0")


def test_additivity_exhaustive(row_through):
    words = row_through(6)
    pairs = 0
    for x in words:
        for y in words:
            if noncrossing(x, y):
                z = add(x, y)
                assert rank(z) == rank(x) + rank(y)
                assert add(y, x) == z
                pairs += 1
    assert pairs > len(words)  # many defined sums exist


def test_monotonicity(row_through):
    words = [w for w in row_through(6) if not w.is_zero]
    for x in words:
        for y in words:
            if noncrossing(x, y):
                assert rank(add(x, y)) > max(rank(x), rank(y))


def test_inverse_laws(row_through):
    words = row_through(6)
    for x in words:
        for y in words:
            if noncrossing(x, y):
                z = add(x, y)
                assert sub(z, x) == y
                assert sub(z, y) == x


def test_associativity_on_noncrossing_triples(row_through):
    words = row_through(5)
    triples = 0
    for x in words:
        for y in words:
            if not noncrossing(x, y):
                continue
            for z in words:
                if noncrossing(x, z) and noncrossing(y, z):
                    a = add(add(x, y), z)
                    assert a == add(x, add(y, z))
                    assert a == add(add(x, z), y)
                    triples += 1
    assert triples > 0


def test_includes_examples():
    assert includes("()(0)0(0)", "(0)0000")
    assert includes("(0)()", "(0)()")
    assert not includes("(())0", "(0)00")
    for w in ("0", "(0)", "()()"):
        assert includes(w, "0")


def _extended_blocks(w):
    return set() if w.is_zero else set(decompose(w))


def test_includes_agrees_with_a_set_of_extended_blocks(row_through):
    # the reference reads the definition: y's extended blocks are a subset
    # of x's, as sets of words
    words = row_through(7)
    blocks = {w: _extended_blocks(w) for w in words}
    for x in words:
        for y in words:
            assert includes(x, y) == (blocks[y] <= blocks[x]), (x, y)
    # a y longer than x: a block past x's left end is never included
    assert not includes("(0)", "()(0)")
    assert not includes("()", "(0)00")
    assert includes("()(0)", "(0)")


def test_sub_examples():
    assert sub("()(0)0(0)", "(0)0000").text == "()0000(0)"
    assert sub("()(0)0(0)", "()0000(0)").text == "(0)0000"
    assert sub("(0)()()", "0").text == "(0)()()"
    assert sub("(0)()()", "(0)()()").text == "0"


def test_sub_requires_inclusion():
    with pytest.raises(InclusionError):
        sub("(())0", "(0)00")
    with pytest.raises(InclusionError):
        sub("(0)", "()")


def test_sub_rank_difference(row_through):
    for x in row_through(6):
        for part in (x, MotzkinWord("0")):
            assert rank(sub(x, part)) == rank(x) - rank(part)


def test_decompose_sum_examples():
    parts, total = decompose_sum("()(0)0(0)")
    assert sorted(rank(p) for p in parts) == [2, 72, 708]
    assert total == 782
    parts, total = decompose_sum("(00)")
    assert [p.text for p in parts] == ["(00)"] and total == 4
    with pytest.raises(ZeroWordError):
        decompose_sum("0")


def test_decompose_sum_identity(row):
    for n in range(2, 9):
        for w in row(n):
            _, total = decompose_sum(w)
            assert total == rank(w)


def test_decompose_parts_are_noncrossing_and_fold_back(row):
    from functools import reduce

    from motzkinrow import decompose

    for n in range(2, 8):
        for w in row(n):
            parts = decompose(w)
            for i, x in enumerate(parts):
                for y in parts[i + 1 :]:
                    assert noncrossing(x, y)
            assert reduce(add, parts) == w


def test_decompose_sum_raises_when_the_ranks_do_not_add_up(monkeypatch):
    from motzkinrow import MotzkinError, blockops

    monkeypatch.setattr(blockops, "rank",
                        lambda w: rank(w) + (str(w) == "()"))
    with pytest.raises(MotzkinError) as caught:
        decompose_sum("(0)()")
    assert str(caught.value) == (
        "block decomposition of '(0)()' is not index-additive: 14 != 13")
