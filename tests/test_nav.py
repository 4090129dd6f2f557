import random
import subprocess
import sys
from itertools import islice

import pytest

from motzkinrow import (
    ArgumentError,
    BlockedError,
    LimitError,
    MotzkinError,
    MotzkinWord,
    PolynomialMismatchError,
    SiteError,
    Symbol,
    ValidityError,
    control_points,
    insert_pair,
    merge_adjacent,
    motzkin,
    parse,
    psi,
    rank,
    remove_pair,
    shift_close,
    shift_open,
    split_block,
    swap_across_zero,
    unrank,
    xi,
    zeta,
)

XI_PREFIX = [1, 2, 5, 13, 34, 90, 240, 645, 1745, 4750, 13001, 35762, 98815,
             274158]
ZETA_ADJACENT_PREFIX = [4, 10, 25, 64, 166, 436, 1157, 3098, 8360, 22714,
                        62086, 170614]
# psi(k) = M[k-1] + T(k-1,1) + T(k,1) + T(k,3), T the Motzkin triangle (see
# test_psi_triangle_identity); the first eight terms match the published
# data, whose last term 9084 is an erratum for psi(10) = 9086 =
# rank("()0(00000000)") - rank("((0)00000000)") = 36872 - 27786.
PSI_PREFIX = [4, 10, 25, 65, 171, 456, 1227, 3328, 9086]


def test_xi_values():
    assert [xi(k) for k in range(1, 15)] == XI_PREFIX
    assert xi(5) == 34
    assert xi(14) == 274158
    with pytest.raises(ArgumentError):
        xi(0)


def test_zeta_values():
    assert zeta(4, 7) == 149
    assert zeta(4, 5) == 25
    assert zeta(5, 6) == 64
    assert zeta(5, 7) == 154
    assert [zeta(k, k + 1) for k in range(2, 14)] == ZETA_ADJACENT_PREFIX
    with pytest.raises(ArgumentError):
        zeta(5, 5)
    with pytest.raises(ArgumentError):
        zeta(1, 4)


def test_psi_values():
    assert [psi(k) for k in range(2, 11)] == PSI_PREFIX
    assert psi(2) == 4
    assert psi(6) == 171
    assert psi(7) == 456
    with pytest.raises(ArgumentError):
        psi(1)


def test_psi_keeps_to_the_word_length_limit(monkeypatch):
    # psi(k) is a drop between (k+3)-words, so k + 3 obeys the same limit
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "8")
    assert psi(5) == 65
    with pytest.raises(LimitError, match="word length 9 exceeds"):
        psi(6)


def test_xi_and_zeta_keep_to_the_word_length_limit(monkeypatch):
    # the smallest host of xi(k) is "(0)" closing at k, k + 2 symbols, and
    # that of zeta(k, l) is "()" closing at l, l + 1 symbols
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "8")
    assert xi(6) == 90
    with pytest.raises(LimitError, match="word length 9 exceeds"):
        xi(7)
    assert zeta(2, 7) == 146
    with pytest.raises(LimitError, match="word length 9 exceeds"):
        zeta(2, 8)


def _triangle(m, d):
    # T(m, d): length-m paths from depth d to depth 0 that never go below 0,
    # by T(m, d) = T(m-1, d-1) + T(m-1, d) + T(m-1, d+1) (OEIS A026300)
    row = [1]
    for _ in range(m):
        row = [(row[i - 1] if i > 0 else 0)
               + (row[i] if i < len(row) else 0)
               + (row[i + 1] if i + 1 < len(row) else 0)
               for i in range(len(row) + 1)]
    return row[d] if d < len(row) else 0


def test_psi_triangle_identity():
    # the words from "((0)0..0)" up to "()0(0..0)" split by prefix into
    # ()00.. (M[k-1]), ((0).. (T(k-1,1)), (() (T(k,1)) and ((( (T(k,3)),
    # so the drop has this closed form
    for k in range(2, 15):
        assert psi(k) == (_triangle(k - 1, 0) + _triangle(k - 1, 1)
                          + _triangle(k, 1) + _triangle(k, 3)), k


def test_psi_reads_no_completion_counts():
    # psi is a polynomial in Motzkin numbers, so even a large k grows only
    # column 0 of the table in a fresh process: the Motzkin numbers
    # through M[k+3]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import motzkinrow.bigcomb as b, motzkinrow.nav as nav; "
         "nav.psi(2000); print([len(c) for c in b._columns])"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "[2004]\n")


def test_psi_is_site_independent_at_large_k():
    # the drop must not depend on the host word, by the report and by rank
    k = 12
    hosts = [
        "()0(" + "0" * (k - 2) + ")",
        "(0)0(" + "0" * (k - 2) + ")",
        "()0(" + "0" * (k - 4) + "())",
        "(())0(" + "0" * (k - 2) + ")",
    ]
    drops = set()
    for h in hosts:
        rep = swap_across_zero(h, k)
        drops.add(-rep.verified_delta)
        drops.add(rank(h) - rank(rep.after))
    assert drops == {psi(12)}


def test_psi_cache_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=6) as pool:
        values = list(pool.map(psi, [8] * 12))
    assert set(values) == {psi(8)}


def test_shift_open_examples():
    rep = shift_open("(00)", 4, 1)
    assert rep.after.text == "(000)" and rep.predicted_delta == 5
    rep = shift_open("()()()", 6, 2)
    assert rep.after.text == "(00)()()" and rep.predicted_delta == 106
    rep = shift_open("()(000)0", 6, -2)
    assert rep.after.text == "()00(0)0" and rep.predicted_delta == -17
    rep = shift_open("(0())0", 6, -1)
    assert rep.after.text == "(())0" and rep.predicted_delta == -12


def test_shift_open_report_contents():
    rep = shift_open("(0000)", 6, 1)
    assert rep.before.text == "(0000)" and rep.after.text == "(00000)"
    assert rep.predicted_delta == rep.verified_delta == 30
    assert rep.agrees
    assert rep.site == (7, 6)


def test_shift_open_shrinks_range_when_leading_bracket_moves_right():
    rep = shift_open("(0)", 3, -1)
    assert rep.after.text == "()"
    assert rep.verified_delta == -1


def test_shift_open_rejects_bad_sites():
    with pytest.raises(SiteError):
        shift_open("((0))", 4, 1)  # inner bracket
    with pytest.raises(SiteError):
        shift_open("(00)", 3, 1)  # a zero, not a bracket
    with pytest.raises(BlockedError):
        shift_open("()0()", 2, 2)  # path hits the ')' at position 4
    with pytest.raises(BlockedError):
        shift_open("(0)", 3, -2)  # would cross the closing bracket
    with pytest.raises(ArgumentError):
        shift_open("(00)", 4, -4)  # target below position 1


def _holds(word, p, ch):
    return BlockedError, (f"position {p} of {word!r} holds {ch!r}, blocking "
                          "the move")


# a bracket at either end of a path or zone, or inside it, stops the move;
# a blocked path names its lowest bracket
@pytest.mark.parametrize("move, args, error, message", [
    (shift_open, ("()0()", 2, 2), *_holds("()0()", 4, ")")),
    (shift_open, ("()(0)", 3, 2), *_holds("()(0)", 4, ")")),  # and 5
    (shift_open, ("(0)", 3, -2), *_holds("(0)", 1, ")")),
    (shift_open, ("(0(0))", 6, -4), *_holds("(0(0))", 2, ")")),  # and 4
    (insert_pair, ("(000)", 2, 5), SiteError,
     "positions 5..2 of '(000)' are not all zeros"),
    (insert_pair, ("(00)0", 2, 3), SiteError,
     "positions 3..2 of '(00)0' are not all zeros"),
    (remove_pair, ("()(0)()", 2, 6), SiteError,
     "the zone between positions 6 and 2 of '()(0)()' is not all zeros"),
])
def test_blocked_paths_and_zones(move, args, error, message):
    with pytest.raises(error) as caught:
        move(*args)
    assert str(caught.value) == message


def test_rewrite_rejects_what_a_lax_site_check_lets_through(monkeypatch,
                                                            row_through):
    # the bracket scan of the rewritten word is the safety net: with the
    # outer-bracket check gone, moves at non-sites raise ValidityError and
    # every word they do return is still valid
    from motzkinrow import nav

    monkeypatch.setattr(nav, "_check_outer_bracket", lambda w, k, side: None)
    with pytest.raises(ValidityError) as caught:
        shift_open("(0)", 1, 1)
    assert str(caught.value).startswith("rewrite of '(0)' is not a valid word")
    moves = [lambda w, k: shift_open(w, k, 1),
             lambda w, k: shift_open(w, k, -1),
             lambda w, k: shift_close(w, k, "left"),
             lambda w, k: shift_close(w, k, "right"),
             lambda w, k: remove_pair(w, k, k + 1),
             merge_adjacent, swap_across_zero]
    invalid = 0
    for w in row_through(6):
        for k in range(2, len(w) + 1):
            for move in moves:
                try:
                    rep = move(w, k)
                except ValidityError:
                    invalid += 1
                    continue
                except MotzkinError:
                    continue
                assert MotzkinWord(rep.after.text) == rep.after
    assert invalid > 100


def test_only_a_longer_rewrite_reads_the_length_limit(monkeypatch):
    from motzkinrow import config

    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "8")
    with pytest.raises(LimitError, match="word length 9 exceeds"):
        shift_open("(000000)", 8, 1)
    w = parse("(000)(0)")
    reads = []
    limit = config.max_word_length
    monkeypatch.setattr(config, "max_word_length",
                        lambda: reads.append(1) or limit())
    assert shift_open(w, 8, -1).after.text == "(00)(0)"
    assert merge_adjacent(w, 3).after.text == "(000()0)"
    # a move reads xi through the guard-free _xi: its host word is already
    # within the limit
    assert shift_close(w, 4, "left").after.text == "(00)0(0)"
    assert reads == []
    # only a longer rewrite reads it
    with pytest.raises(LimitError, match="word length 9 exceeds"):
        shift_open(w, 8, 1)
    assert reads == [1]


def test_shift_open_noop():
    rep = shift_open("(00)", 4, 0)
    assert rep.after == rep.before and rep.verified_delta == 0


def test_shift_close_examples():
    rep = shift_close("(0)0000", 5, "left")
    assert rep.after.text == "()00000" and rep.predicted_delta == 34
    rep = shift_close("(00)(())", 5, "left")
    assert rep.after.text == "(0)0(())" and rep.verified_delta == 34
    rep = shift_close("(()0)(0)0", 5, "left")
    assert rep.after.text == "(())0(0)0" and rep.verified_delta == 34
    rep = shift_close("()00000", 6, "right")
    assert rep.after.text == "(0)0000" and rep.predicted_delta == -34


def test_shift_close_keeps_the_range():
    for word, k, direction in [("(0)0", 2, "left"), ("(0)0", 2, "right")]:
        rep = shift_close(word, k, direction)
        assert len(rep.after) == len(word)


def test_shift_close_rejects_bad_sites():
    with pytest.raises(SiteError):
        shift_close("((0))", 2, "left")  # inner closing bracket
    with pytest.raises(BlockedError):
        shift_close("()0", 2, "left")  # '(' sits at position 3
    with pytest.raises(BlockedError):
        shift_close("()()", 3, "right")  # '(' sits at position 2
    with pytest.raises(ArgumentError):
        shift_close("()", 1, "right")  # nowhere to go
    with pytest.raises(ArgumentError):
        shift_close("(0)0", 2, "sideways")


def test_remove_insert_pair_examples():
    rep = remove_pair("()00(())", 4, 7)
    assert rep.after.text == "(0000())" and rep.predicted_delta == -149
    rep = insert_pair("(0000())", 4, 7)
    assert rep.after.text == "()00(())" and rep.predicted_delta == 149
    # adjacent blocks, empty gap
    rep = remove_pair("()()", 2, 3)
    assert rep.after.text == "(00)" and rep.verified_delta == -4


def test_remove_insert_pair_errors():
    with pytest.raises(ArgumentError):
        remove_pair("()()", 3, 3)
    with pytest.raises(ArgumentError):
        insert_pair("(0000())", 1, 3)
    with pytest.raises(SiteError):
        remove_pair("()0(0)0()", 2, 8)  # gap carries a whole block
    with pytest.raises(SiteError):
        insert_pair("((00))", 3, 4)  # zeros buried at depth 2
    with pytest.raises(SiteError):
        insert_pair("()00()", 3, 4)  # zeros outside every block
    with pytest.raises(SiteError):
        insert_pair("(0)000", 2, 3)  # zeros right of the block


def test_remove_insert_inverse(row):
    from motzkinrow import outer_blocks

    for w in row(7):
        blocks = outer_blocks(w)
        for left, right in zip(blocks, blocks[1:]):
            l, k = left.close_pos, right.open_pos
            removed = remove_pair(w, k, l)
            back = insert_pair(removed.after, k, l)
            assert back.after == w
            assert removed.verified_delta + back.verified_delta == 0


def test_merge_and_split_examples():
    rep = merge_adjacent("(0)()00", 4)
    assert rep.after.text == "(0())00"
    assert rep.predicted_delta == rep.verified_delta == -9
    rep = split_block("(0())00", 4)
    assert rep.after.text == "(0)()00"
    assert rep.predicted_delta == rep.verified_delta == 9
    for n in range(7, 11):
        rep = merge_adjacent("(0)()" + "0" * (n - 5), n - 3)
        assert rep.verified_delta == -motzkin(n - 3)
        assert rep.agrees


def test_merge_split_errors():
    with pytest.raises(SiteError):
        merge_adjacent("(0)0()", 2)  # blocks not touching
    with pytest.raises(SiteError):
        split_block("(())", 1)  # positions 2, 1 are not an adjacent pair
    with pytest.raises(SiteError):
        split_block("((()))", 3)  # pair buried at depth 2
    with pytest.raises(SiteError):
        split_block("()0", 2)  # pair is a whole outer block


def test_split_block_directly_inside():
    rep = split_block("(())", 2)
    assert rep.after.text == "()()"
    assert rep.predicted_delta == rep.verified_delta == 2


def test_swap_across_zero_examples():
    rep = swap_across_zero("()0()00", 4)
    assert rep.after.text == "((0))00"
    assert rep.predicted_delta == rep.verified_delta == -25
    rep = swap_across_zero(unrank(1958), 7)
    assert rep.after == unrank(1502)
    assert rep.verified_delta == -456 and rep.agrees


def test_swap_across_zero_errors():
    with pytest.raises(SiteError):
        swap_across_zero("()00()0", 2)  # gap is two zeros wide
    with pytest.raises(SiteError):
        swap_across_zero("()()", 1)  # no zero between the blocks


def test_landmark_chain_to_nested_block():
    # climb from the pair-inside-block landmark to the nested-block one
    s1 = split_block("(0())00", 4)
    s2 = shift_close(s1.after, 5, "left")
    s3 = swap_across_zero(s2.after, 4)
    assert (s1.after.text, s2.after.text, s3.after.text) == (
        "(0)()00", "()0()00", "((0))00"
    )
    total = s1.verified_delta + s2.verified_delta + s3.verified_delta
    assert total == rank("((0))00") - rank("(0())00") == 18


def test_control_points_published_anchors():
    points = {name: (w.text, ix) for name, w, ix in control_points(7)}
    assert points["pair_inside_block"] == ("(0())00", 70)
    assert points["small_block"] == ("(0)0000", 72)
    assert points["nested_block"] == ("((0))00", 88)
    points9 = {name: (w.text, ix) for name, w, ix in control_points(9)}
    assert points9["leading_pair"] == ("()0000000", 708)


def test_control_points_rank_equality_and_order():
    for n in range(5, 13):
        points = control_points(n)
        assert [name for name, _, _ in points] == [
            "min", "pair_inside_block", "small_block", "small_block_pairs",
            "nested_block", "leading_pair", "max",
        ]
        indexes = [ix for _, _, ix in points]
        assert indexes == sorted(indexes)
        for _, word, ix in points:
            assert rank(word) == ix
    with pytest.raises(ArgumentError):
        control_points(4)


def test_control_points_build_valid_landmarks():
    # the landmarks are wrapped unchecked, valid by construction
    for n in range(5, 301):
        for name, word, _ in control_points(n):
            assert parse(word.text) == word, (n, name)


def test_control_points_fail_fast_past_the_length_limit(monkeypatch):
    # the limit is checked before any landmark polynomial is evaluated
    import motzkinrow.nav as nav

    def no_polynomials(n):
        raise AssertionError(f"motzkin({n}) evaluated before the limit check")

    monkeypatch.setattr(nav, "motzkin", no_polynomials)
    with pytest.raises(LimitError, match="word length 4097 exceeds"):
        control_points(4097)


def test_shift_then_unshift_round_trip(row):
    from motzkinrow import outer_blocks

    for w in row(7):
        for b in outer_blocks(w):
            k = b.open_pos
            if w.symbol_at(k + 1).char == "0":
                there = shift_open(w, k, 1)
                back = shift_open(there.after, k + 1, -1)
                assert back.after == w
                assert there.verified_delta + back.verified_delta == 0


# Error class and message of every nav family at the positions just outside
# the word (0, -1, len + 1, len + 3); two-position families vary each end.
EDGE_WORD = "()0(0)()"
EDGE_CALLS = {
    "shift_open": lambda k: shift_open(EDGE_WORD, k, 1),
    "shift_open_right": lambda k: shift_open(EDGE_WORD, k, -1),
    "shift_close": lambda k: shift_close(EDGE_WORD, k, "left"),
    "shift_close_right": lambda k: shift_close(EDGE_WORD, k, "right"),
    "remove_pair_l": lambda k: remove_pair(EDGE_WORD, 2, k),
    "remove_pair_k": lambda k: remove_pair(EDGE_WORD, k, k + 1),
    "insert_pair_l": lambda k: insert_pair(EDGE_WORD, 2, k),
    "insert_pair_k": lambda k: insert_pair(EDGE_WORD, k, k + 1),
    "merge_adjacent": lambda k: merge_adjacent(EDGE_WORD, k),
    "split_block": lambda k: split_block(EDGE_WORD, k),
    "swap_across_zero": lambda k: swap_across_zero(EDGE_WORD, k),
}


def _bracket(k, which):
    return SiteError, (f"position {k} of '()0(0)()' is not the {which} "
                       "bracket of an outer block")


def _needs(name, k, l):
    return ArgumentError, f"{name} needs l > k >= 2, got ({k}, {l})"


def _numbered(k):
    return ArgumentError, f"positions are numbered from 1, got {k}"


EDGE_ERRORS = [
    *[(call, k, *_bracket(k, "opening"))
      for call in ("shift_open", "shift_open_right") for k in (0, -1, 9, 11)],
    *[(call, k, *_bracket(k, "closing"))
      for call in ("shift_close", "shift_close_right") for k in (0, -1, 9, 11)],
    ("remove_pair_l", 0, *_needs("remove_pair", 2, 0)),
    ("remove_pair_l", -1, *_needs("remove_pair", 2, -1)),
    ("remove_pair_l", 9, *_bracket(9, "closing")),
    ("remove_pair_l", 11, *_bracket(11, "closing")),
    ("remove_pair_k", 0, *_needs("remove_pair", 0, 1)),
    ("remove_pair_k", -1, *_needs("remove_pair", -1, 0)),
    ("remove_pair_k", 9, *_bracket(10, "closing")),
    ("remove_pair_k", 11, *_bracket(12, "closing")),
    ("insert_pair_l", 0, *_needs("insert_pair", 2, 0)),
    ("insert_pair_l", -1, *_needs("insert_pair", 2, -1)),
    ("insert_pair_l", 9, SiteError,
     "positions 9..2 of '()0(0)()' are not all zeros"),
    ("insert_pair_l", 11, SiteError,
     "positions 11..2 of '()0(0)()' are not all zeros"),
    ("insert_pair_k", 0, *_needs("insert_pair", 0, 1)),
    ("insert_pair_k", -1, *_needs("insert_pair", -1, 0)),
    ("insert_pair_k", 9, SiteError,
     "positions 10..9 of '()0(0)()' do not lie directly inside an outer "
     "block"),
    ("insert_pair_k", 11, SiteError,
     "positions 12..11 of '()0(0)()' do not lie directly inside an outer "
     "block"),
    ("merge_adjacent", 0, *_bracket(0, "opening")),
    ("merge_adjacent", -1, *_bracket(0, "closing")),
    ("merge_adjacent", 9, *_bracket(10, "closing")),
    ("merge_adjacent", 11, *_bracket(12, "closing")),
    ("split_block", 0, SiteError,
     "positions 1, 0 of '()0(0)()' are not an adjacent bracket pair"),
    ("split_block", -1, *_numbered(0)),
    ("split_block", 9, SiteError,
     "positions 10, 9 of '()0(0)()' are not an adjacent bracket pair"),
    ("split_block", 11, SiteError,
     "positions 12, 11 of '()0(0)()' are not an adjacent bracket pair"),
    ("swap_across_zero", 0, *_bracket(2, "closing")),
    ("swap_across_zero", -1, *_numbered(0)),
    ("swap_across_zero", 9, *_bracket(11, "closing")),
    ("swap_across_zero", 11, *_bracket(13, "closing")),
]


@pytest.mark.parametrize("call, k, error, message", EDGE_ERRORS,
                         ids=[f"{call}[{k}]" for call, k, *_ in EDGE_ERRORS])
def test_nav_errors_just_outside_the_word(call, k, error, message):
    with pytest.raises(error) as caught:
        EDGE_CALLS[call](k)
    assert type(caught.value) is error
    assert str(caught.value) == message


# --- verified deltas: site sums against full ranks --------------------------

FAMILIES = {"shift_open", "shift_close", "remove_pair", "insert_pair",
            "merge_adjacent", "split_block", "swap_across_zero"}
SITE_CHECKS = ("corollary_3_1", "corollary_3_3", "corollary_4_1",
               "conjecture_4_3", "psi_site_independence")


def _split_sites(w):
    # every adjacent "()" directly inside an outer block; the audits have
    # no split probe, since each split site is a merge site read backwards
    text, n = w.text, len(w)
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(" and depth == 1 and text[i + 1] == ")":
            yield n - i - 1
        depth += (ch == "(") - (ch == ")")


def _word_sites(check, text):
    """(row, p, q) for every site of text that the nav audits' finder
    matches, the text spelled and laid out as the one word of a range."""
    from motzkinrow import verify
    from motzkinrow.word import _MARKED

    spelled, depth = [], 0
    for ch in text:
        spelled.append(_MARKED[min(depth, 2)]["0()".index(ch)])
        depth += (ch == "(") - (ch == ")")
    marked = verify._LEAD + "".join(spelled)
    return [(row, p, q)
            for row, _, p, q in verify._sites(check, marked, len(text))]


def _move_reports(words, per_family=None):
    """(family, rank of the word, report) for every site the nav audits'
    move-shape rows and _split_sites find in each word, at most per_family
    of each family per word."""
    from motzkinrow import nav

    found = []
    for w in words:
        i = rank(w)
        count = {}
        for check in SITE_CHECKS:
            for (*_, name, args), p, q in _word_sites(check, w.text):
                # the row ends with the public move and its arguments from
                # the site; the report is built through the public move
                args = args(p, q)
                if count.get(name, 0) != per_family:
                    count[name] = count.get(name, 0) + 1
                    try:
                        rep = getattr(nav, name)(w, *args)
                    except PolynomialMismatchError as exc:
                        rep = exc.report
                    found.append((name, i, rep))
        for k in islice(_split_sites(w), per_family):
            found.append(("split_block", i, split_block(w, k)))
    return found


def test_site_sums_equal_rank_differences_on_every_probe(row_through):
    reports = _move_reports(row_through(10))
    assert {name for name, _, _ in reports} == FAMILIES
    assert len(reports) > 15000
    for name, i, rep in reports:
        assert rep.verified_delta == rank(rep.after) - i, (
            name, rep.before.text, rep.site)


def test_public_moves_and_nav_audits_read_one_row(row):
    # the move-shape table has two users: each public move, after its site
    # checks, and the nav audits, after their site finder; at every site
    # the audits find in a joined range, both write the same word and
    # predict the same delta
    from motzkinrow import audit, nav, verify

    sites = 0
    for n in range(1, 9):
        marked = verify._marked(n)
        for check in SITE_CHECKS:
            for shape, k, p, q in verify._sites(check, marked, n):
                _, _, written, predict, move, args = shape
                w = row(n)[k]
                rep = getattr(nav, move)(w, *args(p, q))
                assert rep.after.text == nav._splice(w.text, p, q, written)
                assert rep.predicted_delta == predict(p, q)
                sites += 1
    assert sites == sum(audit(check, 8).counts for check in SITE_CHECKS)


# the rows of nav._UNPROVEN, proven in PROOFS.md but kept there for
# compatibility, where a mismatch is data rather than an error
UNPROVEN = {"merge_adjacent", "split_block", "swap_across_zero"}


@pytest.mark.parametrize("name, word, args", [
    ("open_right", "(00)", (4, -1)),
    ("open_left", "(00)", (4, 1)),
    ("close_left", "(0)0000", (5, "left")),
    ("close_right", "()00000", (6, "right")),
    ("remove_pair", "()00(())", (4, 7)),
    ("insert_pair", "(0000())", (4, 7)),
    ("merge_adjacent", "(0)()00", (4,)),
    ("split_block", "(0())00", (4,)),
    ("swap_across_zero", "()0()00", (4,)),
])
def test_a_wrong_prediction_raises_only_on_a_proven_row(monkeypatch, name,
                                                        word, args):
    # each row's proof status decides what its public move does with a
    # prediction that disagrees with the rank difference
    from motzkinrow import nav

    symbols, depth, written, predict, move, site = nav._SHAPES[name]
    monkeypatch.setitem(nav._SHAPES, name, (
        symbols, depth, written, lambda p, q: predict(p, q) + 1, move, site))
    if name in UNPROVEN:
        rep = getattr(nav, move)(word, *args)
        assert rep.agrees is False
        assert rep.predicted_delta == rep.verified_delta + 1
    else:
        with pytest.raises(PolynomialMismatchError) as caught:
            getattr(nav, move)(word, *args)
        rep = caught.value.report
        assert rep.predicted_delta == rep.verified_delta + 1


def test_a_nav_audit_passes_as_a_conjecture_only_with_an_unproven_row():
    from motzkinrow import audit, verify

    outcomes = {}
    for check, (_, names) in verify._NAV_CHECKS.items():
        proven = UNPROVEN.isdisjoint(names)
        outcomes[check] = audit(check, 8).outcome
        assert outcomes[check] == ("pass" if proven else "conjecture-holds")
    assert outcomes == {
        "corollary_3_1": "pass", "corollary_3_3": "pass",
        "corollary_4_1": "pass", "conjecture_4_3": "conjecture-holds",
        "psi_site_independence": "conjecture-holds"}


def test_a_nav_audits_label_follows_unproven_when_it_runs(monkeypatch):
    # a row taken out of nav._UNPROVEN after import, or put in, changes the
    # passing label as it changes what the public move does on a mismatch
    from motzkinrow import audit, nav

    monkeypatch.setattr(nav, "_UNPROVEN", UNPROVEN - {"merge_adjacent"})
    assert audit("conjecture_4_3", 8).outcome == "pass"
    monkeypatch.setattr(nav, "_UNPROVEN", UNPROVEN | {"close_left"})
    assert audit("corollary_3_3", 8).outcome == "conjecture-holds"


def test_a_nav_audit_reads_its_rows_when_it_runs(monkeypatch):
    # a prediction made off by one after import reaches the audit: each of
    # corollary_3_1's rows, patched alone, fails the audit at every one of
    # its own sites, and the audit still checks the sites of both rows
    from motzkinrow import audit, nav

    failed = {}
    for name in ("open_left", "open_right"):
        symbols, depth, written, predict, move, site = nav._SHAPES[name]
        with monkeypatch.context() as patch:
            patch.setitem(nav._SHAPES, name, (
                symbols, depth, written, lambda p, q: predict(p, q) + 1,
                move, site))
            report = audit("corollary_3_1", 6)
        assert report.outcome == "fail" and report.counts == 144
        assert all(cx.predicted == cx.verified + 1
                   for cx in report.counterexamples)
        failed[name] = [cx.site for cx in report.counterexamples]
    # an open_left drift moves the bracket left, j > 0
    assert all(" j=+" in site for site in failed["open_left"])
    assert all(" j=-" in site for site in failed["open_right"])
    assert len(failed["open_left"]) + len(failed["open_right"]) == 144


def _random_blocks(rng, n):
    """A word of length n made of random outer blocks, each followed by
    up to two zeros, so every nav family finds sites in it."""
    parts = []
    left = n
    while left >= 2:
        size = min(left, rng.randint(2, 60))
        if left - size == 1:
            size += 1
        chars, depth = ["("], 1
        for rest in range(size - 3, -1, -1):
            ch, depth = rng.choice([(c, d) for c, d in (
                ("0", depth), ("(", depth + 1), (")", depth - 1))
                if 1 <= d <= rest + 1])
            chars.append(ch)
        gap = min(rng.randint(0, 2), left - size)
        parts.append("".join(chars) + ")" + "0" * gap)
        left -= size + gap
    return "".join(parts)


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
def test_site_sums_equal_rank_differences_on_long_words(n):
    rng = random.Random(n)
    words = [parse(_random_blocks(rng, n)) for _ in range(3)]
    assert {len(w) for w in words} == {n}
    reports = _move_reports(words, per_family=25)
    assert {name for name, _, _ in reports} == FAMILIES
    for name, i, rep in reports:
        assert rep.verified_delta == rank(rep.after) - i, (name, rep.site)


def _depths(w, width):
    # depth left of each position 1 .. width, virtual zeros included
    text = w.text.rjust(width, "0")
    out, depth = [0] * (width + 1), 0
    for i, ch in enumerate(text):
        out[width - i] = depth
        depth += (ch == "(") - (ch == ")")
    return out


def test_moves_change_nothing_outside_their_site(row_through):
    # the premise of the site sums, per family: outside the span of the
    # site the symbols and the depths left of them are those of the word
    # before, and inside it every position off the site is a zero in both
    for name, _, rep in _move_reports(row_through(10)):
        before, after, site = rep.before, rep.after, rep.site
        width = max(len(before), len(after)) + 1
        depth_a, depth_b = _depths(before, width), _depths(after, width)
        for p in range(1, width + 1):
            a, b = before.symbol_at(p), after.symbol_at(p)
            if site[-1] <= p <= site[0]:
                if p not in site:
                    assert a is b is Symbol.ZERO, (name, before.text, p)
            else:
                assert (a, depth_a[p]) == (b, depth_b[p]), (
                    name, before.text, site, p)


# a 2048-symbol word with a site for every family near its left end
NAV_HOST = "(00()0)0()()00(" + "()0" * 677 + "0)"
NAV_MOVES = [("shift_open", 2048, -1), ("shift_close", 2042, "left"),
             ("shift_close", 2042, "right"), ("remove_pair", 2040, 2042),
             ("insert_pair", 2046, 2047), ("merge_adjacent", 2038),
             ("split_block", 2044), ("swap_across_zero", 2040)]


def test_nav_moves_grow_only_the_columns_a_site_reads():
    # the span sums start at depth 0 or 1 and go at most one deeper, so in
    # a fresh process the moves grow columns 0..3 only as far as the walk
    # from the leftmost site position reads them: depth 0 from 2048
    # (shift_open) and depth 1 from 2047 (insert_pair) both reach column 0
    # through 2048; no walk over the 2048-symbol host
    assert len(NAV_HOST) == 2048
    script = (
        "import motzkinrow as mz, motzkinrow.bigcomb as b\n"
        f"for name, *args in {NAV_MOVES!r}:\n"
        f"    getattr(mz, name)({NAV_HOST!r}, *args)\n"
        "print([len(c) for c in b._columns])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "[2049, 2048, 2047, 2046]\n", "")
