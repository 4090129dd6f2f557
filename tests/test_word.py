import pytest

from motzkinrow import (
    AlphabetError,
    ArgumentError,
    BlockSpan,
    ConfigError,
    EmptyError,
    LimitError,
    MotzkinWord,
    NotCanonicalError,
    PaddedWord,
    PrefixViolationError,
    SpanError,
    Symbol,
    UnbalancedError,
    ZeroWordError,
    as_word,
    decompose,
    enumerate_range,
    extended_block,
    outer_blocks,
    parse,
    symbol_at,
)


def test_symbol_total_order():
    assert Symbol.ZERO < Symbol.OPEN < Symbol.CLOSE
    assert [s.char for s in sorted(Symbol)] == ["0", "(", ")"]
    assert Symbol.from_char("(") is Symbol.OPEN


def test_parse_plain_words():
    w = parse("(0)")
    assert isinstance(w, MotzkinWord)
    assert w.text == "(0)"
    assert parse("0") == MotzkinWord("0")


def test_parse_padding():
    p = parse("00(())")
    assert isinstance(p, PaddedWord)
    assert p.core.text == "(())" and p.left_padding == 2
    assert p.text == "00(())"
    # an all-zero string is padding over the word "0"
    p = parse("00")
    assert p.core.text == "0" and p.left_padding == 1


def test_parse_errors():
    with pytest.raises(PrefixViolationError):
        parse(")(")
    with pytest.raises(EmptyError):
        parse("")
    with pytest.raises(AlphabetError):
        parse("(a)")
    with pytest.raises(UnbalancedError):
        parse("(0")
    with pytest.raises(UnbalancedError):
        parse("(()")


def test_parse_scans_a_string_once(monkeypatch):
    import motzkinrow.word as word

    scans = []
    scan = word._scan
    monkeypatch.setattr(word, "_scan",
                        lambda text: scans.append(text) or scan(text))
    assert parse("(0)").text == "(0)"
    assert parse("00(0)").core.text == "(0)"
    assert as_word("00()").text == "()"
    assert as_word("0").text == "0"
    assert scans == ["(0)", "00(0)", "00()", "0"]


def test_direct_construction_requires_canonical():
    with pytest.raises(NotCanonicalError):
        MotzkinWord("00")
    with pytest.raises(NotCanonicalError):
        MotzkinWord("0()")


def test_word_length_limit(monkeypatch):
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "8")
    with pytest.raises(LimitError):
        parse("(" + "0" * 10 + ")")
    parse("(000000)")  # at the limit


@pytest.mark.parametrize("value", ["0", "-8", "x", "8.0", ""])
def test_word_length_limit_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", value)
    with pytest.raises(ConfigError, match="MOTZKINROW_MAX_WORD_LEN"):
        parse("()")


def test_parse_format_round_trip(row):
    for n in range(1, 9):
        for w in row(n):
            assert parse(str(w)) == w
            padded = parse("00" + w.text)
            if w.text == "0":
                assert padded == PaddedWord(w, 2)
            else:
                assert padded.core == w and padded.left_padding == 2


def test_symbol_at_examples():
    assert symbol_at("(00)", 4) is Symbol.OPEN
    assert symbol_at("(00)", 7) is Symbol.ZERO  # virtual leading zero
    assert symbol_at("(0())0", 1) is Symbol.ZERO


def test_symbol_at_matches_reversed_text(row):
    for w in row(7):
        back = w.text[::-1]
        for k in range(1, len(w) + 1):
            assert w.symbol_at(k).char == back[k - 1]


def test_symbol_at_ignores_padding():
    w = parse("(0())0")
    p = PaddedWord(w, 3)
    for k in range(1, 12):
        assert p.symbol_at(k) == w.symbol_at(k)


def test_outer_blocks_examples():
    assert outer_blocks("(0(0))0()") == [BlockSpan(9, 4), BlockSpan(2, 1)]
    assert outer_blocks("0") == []
    assert outer_blocks("()()()") == [
        BlockSpan(6, 5), BlockSpan(4, 3), BlockSpan(2, 1)
    ]


def _stack_pairs(text):
    stack, pairs = [], []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            pairs.append((stack.pop(), i))
    return sorted(pairs)


def _descent_pairs(text):
    # grammar: word := ('0' word | '(' word ')' word)?
    pairs = []

    def word(i):
        while i < len(text):
            if text[i] == "0":
                i += 1
            elif text[i] == "(":
                j = word(i + 1)
                pairs.append((i, j))
                i = j + 1
            else:
                return i
        return i

    assert word(0) == len(text)
    return sorted(pairs)


def test_matched_pairs_are_unique(row):
    # two unrelated matchers must produce the same pairing everywhere
    for n in range(1, 13):
        for w in row(n):
            assert _stack_pairs(w.text) == _descent_pairs(w.text)
    for w in row(10):
        padded = "000" + w.text
        assert _stack_pairs(padded) == _descent_pairs(padded)


def test_outer_blocks_cover_and_order(row):
    for n in range(1, 10):
        for w in row(n):
            spans = outer_blocks(w)
            # left to right means strictly decreasing positions, no overlap
            for a, b in zip(spans, spans[1:]):
                assert a.close_pos > b.open_pos
            # positions outside every span hold zeros
            covered = set()
            for s in spans:
                covered.update(range(s.close_pos, s.open_pos + 1))
            for k in range(1, n + 1):
                if k not in covered:
                    assert w.symbol_at(k) is Symbol.ZERO


def test_extended_block_examples():
    w = parse("()0(0())0")
    left, right = outer_blocks(w)
    assert extended_block(w, left).text == "()0000000"
    assert extended_block(w, right).text == "(0())0"
    only = outer_blocks("(00)")[0]
    assert extended_block("(00)", only).text == "(00)"


def test_extended_block_rejects_foreign_span():
    with pytest.raises(SpanError):
        extended_block("(00)", BlockSpan(3, 2))


def test_decompose_examples():
    assert [p.text for p in decompose("()(0)0(0)")] == [
        "()0000000", "(0)0000", "(0)"
    ]
    assert [p.text for p in decompose("(00)")] == ["(00)"]
    with pytest.raises(ZeroWordError):
        decompose("0")


def test_decompose_overlay_reconstructs(row):
    for w in row(6):
        parts = decompose(w)
        lengths = [len(p) for p in parts]
        assert lengths == sorted(lengths, reverse=True)
        n = len(w)
        merged = ["0"] * n
        for p in parts:
            t = p.text.rjust(n, "0")
            for i, ch in enumerate(t):
                if ch != "0":
                    assert merged[i] == "0"
                    merged[i] = ch
        assert "".join(merged) == w.text


def test_blockspan_validation():
    with pytest.raises(SpanError):
        BlockSpan(2, 2)
    with pytest.raises(SpanError):
        BlockSpan(3, 0)


def test_word_ordering_operators():
    assert MotzkinWord("(0)") < MotzkinWord("()0")
    assert MotzkinWord("0") < MotzkinWord("()")
    assert MotzkinWord("()0") >= MotzkinWord("(0)")


def test_public_edges_of_the_word_types():
    with pytest.raises(ArgumentError, match="left_padding must be nonnegative"):
        PaddedWord(MotzkinWord("()"), -1)
    with pytest.raises(AlphabetError, match="expected a string, got int"):
        parse(5)
    with pytest.raises(ArgumentError):
        enumerate_range(0)
    with pytest.raises(AlphabetError):
        Symbol.from_char("x")
    padded = PaddedWord(MotzkinWord("()"), 2)
    assert str(padded) == "00()" and len(padded) == 4
    span = BlockSpan(5, 2)
    assert span.covers(2) and span.covers(5)
    assert not span.covers(1) and not span.covers(6)


def test_range_ends_are_the_enumerators_first_and_last_words():
    # the one spelling of each range end agrees with the oracle, which
    # stays independent of it
    from motzkinrow.word import _largest, _range_texts, _smallest

    for n in range(1, 13):
        texts = _range_texts(n)
        assert (_smallest(n), _largest(n)) == (texts[0], texts[-1]), n
    assert not {"_smallest", "_largest"} & set(_range_texts.__code__.co_names)
