import gc
import itertools
import subprocess
import sys

import pytest

from motzkinrow import (
    ArgumentError,
    AuditReport,
    Counterexample,
    LimitError,
    MotzkinError,
    UnknownCheckError,
    UnknownSequenceError,
    audit,
    enumerate_range,
    insert_pair,
    merge_adjacent,
    motzkin,
    psi,
    regenerate_addendum,
    remove_pair,
    report_lines,
    report_text,
    sequence,
    shift_close,
    shift_open,
    swap_across_zero,
    unique_count,
    unrank,
    xi,
    zeta,
)


def _brute_range(n):
    """Filtered product over the whole alphabet; slow but unarguable."""
    if n == 1:
        return ["0"]
    out = []
    for tail in itertools.product("0()", repeat=n - 1):
        text = "(" + "".join(tail)
        depth = 0
        ok = True
        for ch in text:
            depth += 1 if ch == "(" else (-1 if ch == ")" else 0)
            if depth < 0:
                ok = False
                break
        if ok and depth == 0:
            out.append(text)
    order = {"0": 0, "(": 1, ")": 2}
    out.sort(key=lambda t: [order[c] for c in t])
    return out


def _grow(prefix, depth, remaining, found):
    """A second reference, by recursive generation: each position tries
    0, ( and ) in symbol order, one call per prefix."""
    if remaining == 0:
        found.append("".join(prefix))
        return
    for ch, d2 in (("0", depth), ("(", depth + 1), (")", depth - 1)):
        if 0 <= d2 <= remaining - 1:
            prefix.append(ch)
            _grow(prefix, d2, remaining - 1, found)
            prefix.pop()


def _recursive_range(n):
    if n == 1:
        return ["0"]
    found = []
    _grow(["("], 1, n - 1, found)
    return found


def test_enumerate_range_examples():
    assert [w.text for w in enumerate_range(3)] == ["(0)", "()0"]
    assert [w.text for w in enumerate_range(4)] == [
        "(00)", "(0)0", "(())", "()00", "()()"
    ]
    # tenth and eleventh terms of the published count sequence
    assert len(enumerate_range(10)) == 1353
    assert len(enumerate_range(11)) == 3610
    assert [w.text for w in enumerate_range(1)] == ["0"]


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerate_range_matches_brute_force(n):
    assert [w.text for w in enumerate_range(n)] == _brute_range(n)


@pytest.mark.parametrize("n", range(1, 15))
def test_enumerate_range_matches_the_recursive_generator(n):
    assert [w.text for w in enumerate_range(n)] == _recursive_range(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_marked_spelling_reads_back_and_marks_each_depth(n):
    # the marked spelling writes each symbol as its letter for the depth
    # left of it, 0, 1 or at least 2; read back, it is the plain range
    from motzkinrow.word import _MARKED, _range_texts

    letters = {letter: ("0()"[s], depth) for depth, spell in enumerate(_MARKED)
               for s, letter in enumerate(spell)}
    assert len(letters) == 9
    plain, marked = _range_texts(n), _range_texts(n, marked=True)
    assert ["".join(letters[c][0] for c in text) for text in marked] == plain
    for text, spelled in zip(plain, marked):
        depth = 0
        for ch, letter in zip(text, spelled):
            assert letters[letter] == (ch, min(depth, 2)), (text, spelled)
            depth += (ch == "(") - (ch == ")")


def test_enumerate_range_peak_memory_stays_near_its_result():
    # a fresh process, so that the trace sees only the enumerator's own
    # allocations; the lists of tails are dropped before the words are made
    script = ("import tracemalloc\n"
              "from motzkinrow import enumerate_range\n"
              "tracemalloc.start()\n"
              "words = enumerate_range(15)\n"
              "print(*tracemalloc.get_traced_memory())\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    size, peak = map(int, proc.stdout.split())
    assert peak <= 1.5 * size


def test_enumerate_range_counts():
    for n in range(1, 16):
        assert len(enumerate_range(n)) == unique_count(n)


def test_enumerate_range_leaves_no_cyclic_garbage():
    # a dropped result is freed at once, not when the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        enumerate_range(8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_range_limit():
    with pytest.raises(LimitError):
        enumerate_range(16)


def test_oracle_equivalence_with_unrank(row):
    for n in range(1, 11):
        base = 0 if n == 1 else motzkin(n - 1)
        for i, w in enumerate(row(n)):
            assert unrank(base + i) == w


def test_sequence_values():
    assert sequence("xi", 6) == [1, 2, 5, 13, 34, 90]
    assert sequence("zeta_adjacent", 5) == [4, 10, 25, 64, 166]
    assert sequence("motzkin", 5) == [1, 1, 2, 4, 9]
    assert sequence("unique", 5) == [1, 1, 2, 5, 12]
    # last term is psi(10) = M[9] + T(9,1) + T(10,1) + T(10,3) = 9086; the
    # published 9084 is an erratum
    assert sequence("psi", 9) == [4, 10, 25, 65, 171, 456, 1227, 3328, 9086]


def test_sequence_errors():
    with pytest.raises(UnknownSequenceError):
        sequence("catalan", 4)
    with pytest.raises(Exception):
        sequence("xi", 0)


def test_sequences_keep_to_the_word_length_limit(monkeypatch):
    # the last motzkin term counts (count-1)-words, the last unique term
    # count-words; one term more is past the limit
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "9")
    assert sequence("motzkin", 10)[-1] == motzkin(9)
    assert sequence("unique", 9)[-1] == motzkin(9) - motzkin(8)
    # the last xi term counts (count+2)-words, the last zeta_adjacent term
    # (count+3)-words and the last psi term (count+4)-words
    assert sequence("xi", 7)[-1] == xi(7)
    assert sequence("zeta_adjacent", 6)[-1] == zeta(7, 8)
    assert sequence("psi", 5)[-1] == psi(6)
    for name, count in (("motzkin", 11), ("unique", 10), ("xi", 8),
                        ("zeta_adjacent", 7), ("psi", 6)):
        with pytest.raises(LimitError):
            sequence(name, count)


def test_a_sequence_past_the_limit_computes_no_term(monkeypatch):
    # the count is checked up front, not by the first term past the limit
    from motzkinrow import nav

    calls = []

    def counting_xi(k):
        calls.append(k)
        return nav._xi(k)

    first, reach, _ = nav._SEQUENCES["xi"]
    monkeypatch.setitem(nav._SEQUENCES, "xi", (first, reach, counting_xi))
    assert sequence("xi", 3) == [1, 2, 5] and calls == [1, 2, 3]
    calls.clear()
    with pytest.raises(LimitError):
        sequence("xi", 10**20)
    assert calls == []


def test_audit_outcomes():
    rep = audit("theorem_2_4", 6)
    assert rep.outcome == "pass" and rep.counts == sum(
        unique_count(n) for n in range(2, 7)
    )
    rep = audit("conjecture_4_3", 6)
    assert rep.outcome == "conjecture-holds"
    assert rep.counterexamples == ()
    assert rep.counts > 0


def test_audit_unknown_check():
    with pytest.raises(UnknownCheckError):
        audit("theorem_9_9", 5)


@pytest.mark.parametrize("check, first", [
    ("rank_roundtrip", 1), ("order_agreement", 1), ("theorem_2_4", 2),
    ("corollary_3_1", 2), ("corollary_3_3", 3), ("corollary_4_1", 4),
    ("conjecture_4_3", 4), ("psi_site_independence", 5), ("table_1", 5),
    ("paper_examples", 0),
])
def test_audit_never_passes_vacuously(check, first):
    # the first accepted scope already checks something; one below is refused
    assert audit(check, first).counts > 0
    with pytest.raises(ArgumentError):
        audit(check, first - 1)


def test_audit_refuses_a_scope_past_a_limit_before_any_unit_runs(monkeypatch):
    from motzkinrow import verify

    def no_run(unit):
        raise AssertionError(f"unit {unit} ran")

    monkeypatch.setattr(verify, "_CHECKS", {
        check: (kind, no_run, first, unit)
        for check, (kind, _, first, unit) in verify._CHECKS.items()})
    # paper_examples reads no range, but a scope past the limit is refused
    # like the enumerating checks', not reported as a pass
    ranged = set(verify._CHECKS) - {"table_1"}
    for check in ranged:
        for workers in (1, 2):
            with pytest.raises(LimitError,
                               match="^range 16 exceeds the enumeration limit 15$"):
                audit(check, 16, workers)
    with pytest.raises(LimitError, match="^word length 4097 exceeds the "
                                         "configured maximum 4096$"):
        audit("table_1", 4097)
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "10")
    for check in ranged | {"table_1"}:
        with pytest.raises(LimitError, match="^word length 11 exceeds the "
                                             "configured maximum 10$"):
            audit(check, 11)


@pytest.mark.parametrize("limit, scope, checked", [
    (9, 9, 1546), (10, 9, 2254), (11, 9, 2766), (12, 9, 2766),
    (12, 12, 32564), (13, 12, 45887),
])
def test_open_drifts_keep_to_the_word_length_limit(monkeypatch, limit, scope,
                                                   checked):
    # a leading block drifts into at most two virtual zeros, and only as
    # far as the length limit lets the word grow
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", str(limit))
    rep = audit("corollary_3_1", scope)
    assert (rep.outcome, rep.counts) == ("pass", checked)


def test_nav_audits_run_at_a_scope_equal_to_the_length_limit(monkeypatch):
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "9")
    for check in ("corollary_3_1", "corollary_3_3", "corollary_4_1",
                  "conjecture_4_3", "psi_site_independence"):
        rep = audit(check, 9)
        assert rep.outcome in ("pass", "conjecture-holds"), check
        assert rep.counterexamples == () and rep.counts > 0, check


def test_audit_needs_a_worker():
    for workers in (0, -4):
        with pytest.raises(ArgumentError):
            audit("theorem_2_4", 6, workers=workers)


def test_audit_parallel_matches_serial():
    # every check split by range, so each of its probes must pickle into a
    # real worker process (with two CPUs or more) and report as it does
    # serially
    for check in ("rank_roundtrip", "theorem_2_4", "corollary_3_1",
                  "corollary_3_3", "corollary_4_1", "conjecture_4_3",
                  "psi_site_independence", "table_1"):
        assert audit(check, 7, workers=2) == audit(check, 7), check


def test_audit_paper_examples_passes():
    rep = audit("paper_examples", 0)
    assert rep.outcome == "pass"
    assert rep.counterexamples == ()


def test_report_formats():
    rep = audit("table_1", 7)
    text = report_text(rep)
    assert "check: table_1" in text and "outcome: pass" in text
    lines = report_lines(rep)
    assert lines.splitlines()[0].startswith("check=table_1 scope=7 outcome=pass")

    failing = AuditReport(
        "demo", 3, "fail",
        (Counterexample("(00)", "site x", 4, 5),), 10,
    )
    text = report_text(failing)
    assert "counterexamples: 1" in text and "word=(00)" in text
    lines = report_lines(failing).splitlines()
    assert lines[0].endswith("counterexamples=1")
    assert lines[1].startswith("counterexample check=demo word=(00)")


def test_addendum_layout_and_entries():
    listing = regenerate_addendum(9)
    lines = listing.strip().splitlines()
    assert lines[0] == "000: 0, (), (0), ()0, (00), (0)0, (()), ()00, ()()"
    words = []
    for line in lines:
        _, _, rest = line.partition(": ")
        words.extend(rest.split(", "))
    assert len(words) == motzkin(9)
    assert words[21] == "(0000)"
    assert words[708] == "()0000000"
    assert words[736] == "()0(0())0"
    assert words[782] == "()(0)0(0)"
    # every line starts with the index of its first word
    for i, line in enumerate(lines):
        assert line.startswith(f"{9 * i:03d}: ")


def test_addendum_limit():
    with pytest.raises(LimitError):
        regenerate_addendum(16)


@pytest.fixture
def wrong_polynomials(monkeypatch):
    """Put one off-by-one fault into each nav polynomial family: xi(4),
    zeta(., 6), the Motzkin number M[5] that nav reads and psi(6).  The
    faults go into the guard-free polynomials that the moves read, which
    the public xi, zeta and psi return too."""
    from motzkinrow import nav

    xi, zeta, mot, psi = nav._xi, nav._zeta, nav.motzkin, nav._psi
    monkeypatch.setattr(nav, "_xi", lambda k: xi(k) + (k == 4))
    monkeypatch.setattr(nav, "_zeta", lambda k, l: zeta(k, l) + (l == 6))
    monkeypatch.setattr(nav, "motzkin", lambda n: mot(n) + (n == 5))
    monkeypatch.setattr(nav, "_psi", lambda k: psi(k) + (k == 6))


@pytest.mark.parametrize("check, checked, found, head, tail", [
    ("corollary_3_1", 1028, 197,
     "word=(00) site='open k=4 j=+2' predicted=18 verified=17",
     ("word=()(0)(0) site='open k=6 j=-1' predicted=-13 verified=-12",
      "word=()(0)()0 site='open k=6 j=-1' predicted=-13 verified=-12")),
    ("corollary_3_3", 378, 130,
     "word=(0)00 site='close k=3 left' predicted=6 verified=5",
     ("word=()()0(0) site='close k=5 right' predicted=-12 verified=-13",
      "word=()()0()0 site='close k=5 right' predicted=-12 verified=-13")),
    ("corollary_4_1", 392, 212,
     "word=(000) site='insert (2,4)' predicted=10 verified=9",
     ("word=()()()() site='remove (4,5)' predicted=-24 verified=-25",
      "word=()()()() site='remove (6,7)' predicted=-167 verified=-166")),
    ("conjecture_4_3", 133, 24,
     "word=()(000) site='merge k=5' predicted=-22 verified=-21",
     ("word=(0)()(0) site='merge k=5' predicted=-22 verified=-21",
      "word=(0)()()0 site='merge k=5' predicted=-22 verified=-21")),
    ("psi_site_independence", 44, 44,
     "word=()0() site='swap k=2' predicted=-5 verified=-4",
     ("word=()()0(0) site='swap k=3' predicted=-7 verified=-10",
      "word=()()0()0 site='swap k=3' predicted=-7 verified=-10")),
    ("table_1", 28, 4,
     "word=range 5 site='landmark leading_pair of range 5: polynomial index "
     "18 disagrees with rank 17' predicted=None verified=None",
     ("word=range 7 site='landmark pair_inside_block of range 7: polynomial "
      "index 69 disagrees with rank 70' predicted=None verified=None",
      "word=range 8 site='landmark pair_inside_block of range 8: polynomial "
      "index 177 disagrees with rank 178' predicted=None verified=None")),
])
def test_failing_audit_reports_are_pinned(wrong_polynomials, check, checked,
                                          found, head, tail):
    rep = audit(check, 8)
    assert (rep.outcome, rep.counts, len(rep.counterexamples)) == (
        "fail", checked, found)
    lines = report_lines(rep).splitlines()
    record = f"counterexample check={check} "
    assert lines[:2] == [
        f"check={check} scope=8 outcome=fail checked={checked} "
        f"counterexamples={found}",
        record + head,
    ]
    assert lines[-2:] == [record + t for t in tail]


@pytest.mark.parametrize("check, word, name, p, q, error", [
    # the word keeps its length: the range's index misses the rewrite, which
    # is then scanned
    ("corollary_3_3", "(00)", "close_left", 4, 3,
     "prefix ')' closes more brackets than it opens"),
    # the word grows past its range
    ("corollary_3_1", "(0)", "open_left", 5, 1, "'(0(00' has 2 '(' but 0 ')'"),
])
def test_nav_audits_scan_what_a_faulty_site_finder_lets_through(
        monkeypatch, check, word, name, p, q, error):
    # the audits trust the oracle's index for validity, so a rewrite the
    # index does not hold is scanned: one bad site raises ValidityError
    from motzkinrow import ValidityError, nav, verify

    n = len(word)
    site = (nav._SHAPES[name], verify._range_texts(n).index(word), p, q)
    monkeypatch.setattr(verify, "_sites",
                        lambda check, marked, m: [site] if m == n else [])
    with pytest.raises(ValidityError) as caught:
        audit(check, len(word))
    assert str(caught.value) == (
        f"rewrite of {word!r} is not a valid word: {error}")


def test_a_nav_audit_enumerates_each_range_once(monkeypatch):
    # the plain texts and their index are read back from the marked join
    # that the site finder scans, so the enumerator runs once per range
    from motzkinrow import verify

    calls = []
    range_texts = verify._range_texts

    def counted(*args, **kwargs):
        calls.append(args)
        return range_texts(*args, **kwargs)

    monkeypatch.setattr(verify, "_range_texts", counted)
    for check in ("corollary_3_1", "corollary_3_3", "corollary_4_1",
                  "conjecture_4_3", "psi_site_independence"):
        calls.clear()
        verify._run_nav(check, 9)
        assert calls == [(9,)], check


def test_nav_audits_check_against_rank_not_the_site_sum(monkeypatch):
    # with every nav span sum broken, the moves' own verified deltas are
    # wrong, yet the audits still pass: each probe compares the polynomial
    # with the after-word's oracle position (its rank, where shift_open
    # changes the length) minus the word's
    from motzkinrow import PolynomialMismatchError, nav

    monkeypatch.setattr(nav, "_rank_terms", lambda *args: 0)
    with pytest.raises(PolynomialMismatchError):
        nav.shift_open("(00)", 4, 1)
    for check in ("corollary_3_1", "corollary_3_3", "corollary_4_1",
                  "conjecture_4_3", "psi_site_independence"):
        rep = audit(check, 8)
        assert (rep.outcome, rep.counterexamples) in {
            ("pass", ()), ("conjecture-holds", ())}, check


def test_length_keeping_nav_audits_read_no_rank(monkeypatch):
    # a move that keeps the word's length stays in its range, so its
    # verified delta is read from the oracle's positions; only a shift_open
    # that changes the length leaves the range and ranks its after-word
    from motzkinrow import verify

    keeping = ("corollary_3_3", "corollary_4_1", "conjecture_4_3",
               "psi_site_independence")
    want = {check: audit(check, 8) for check in keeping + ("corollary_3_1",)}
    real_rank = verify.rank

    def no_rank(w):
        raise AssertionError(f"rank({w.text!r}) called")

    monkeypatch.setattr(verify, "rank", no_rank)
    for check in keeping:
        assert audit(check, 8) == want[check], check
    ranked = []
    monkeypatch.setattr(verify, "rank",
                        lambda w: ranked.append(w) or real_rank(w))
    assert audit("corollary_3_1", 8) == want["corollary_3_1"]
    assert 0 < len(ranked) < want["corollary_3_1"].counts


# every public move call that may be a site of an n-word, with the label the
# audit gives that site: opening brackets moved across zeros either way, the
# word growing by two symbols at most, and every position or pair of
# positions of the word for the other families
NAV_CALLS = {
    "corollary_3_1": lambda n: [
        (f"open k={k} j={j:+d}", shift_open, k, j)
        for k in range(1, n + 1) for j in range(1 - k, n + 3 - k) if j],
    "corollary_3_3": lambda n: [
        (f"close k={k} {side}", shift_close, k, side)
        for k in range(1, n + 1) for side in ("left", "right")],
    "corollary_4_1": lambda n: [
        (f"{name} ({k},{l})", move, k, l)
        for name, move in (("remove", remove_pair), ("insert", insert_pair))
        for l in range(3, n + 1) for k in range(2, l)],
    "conjecture_4_3": lambda n: [
        (f"merge k={k}", merge_adjacent, k) for k in range(1, n + 1)],
    "psi_site_independence": lambda n: [
        (f"swap k={k}", swap_across_zero, k) for k in range(1, n + 1)],
}


@pytest.mark.parametrize("check", NAV_CALLS)
def test_nav_audits_check_every_site_a_public_move_accepts(monkeypatch,
                                                           check):
    # brute force over the public move's arguments, then the audit with
    # every nav prediction off, so that each site it checks is a
    # counterexample and shows its label; a site that changes the word's
    # length is the only one ranked
    from motzkinrow import nav, verify

    sites, resized = set(), 0
    for n in range(2, 9):
        for w in enumerate_range(n):
            for label, move, *args in NAV_CALLS[check](n):
                try:
                    after = move(w, *args).after
                except MotzkinError:
                    continue
                sites.add((w.text, label))
                resized += len(after) != n
    # each prediction sums Motzkin numbers in a way that leaves the powers
    # of 4 a nonzero sum: open drifts 4**(k-1) * (4**j - 1), xi 33 * 4**(k-1)
    mot = nav.motzkin
    monkeypatch.setattr(nav, "motzkin", lambda n: mot(n) + 4 ** n)
    ranked = []
    real_rank = verify.rank
    monkeypatch.setattr(verify, "rank",
                        lambda w: ranked.append(w) or real_rank(w))
    rep = audit(check, 8)
    assert rep.counts == len(rep.counterexamples) == len(sites)
    assert {(cx.word, cx.site) for cx in rep.counterexamples} == sites
    assert len(ranked) == resized


def test_paper_examples_report_a_wrong_proven_polynomial(monkeypatch, capsys):
    from motzkinrow import cli, nav

    xi = nav._xi
    monkeypatch.setattr(nav, "_xi", lambda k: xi(k) + (k == 5))
    rep = audit("paper_examples", 0)
    assert (rep.outcome, rep.counts) == ("fail", 73)
    # each replay case that crosses xi(5) is named, and the replay goes on
    assert ("close drift (0)0000 left", "polynomial", 35, 34) in {
        (cx.word, cx.site, cx.predicted, cx.verified)
        for cx in rep.counterexamples
    }
    assert cli.main(["audit", "paper_examples"]) == 3
    assert "outcome: fail" in capsys.readouterr().out


@pytest.mark.parametrize("fault, lines", [
    # a proven polynomial off: each replay case that crosses xi(5) is named
    # under its label, uncounted, and the replay goes on
    ("xi", [
        "chain-7 close drift site='polynomial' predicted=35 verified=34",
        "close drift (0)0000 left site='polynomial' predicted=35 verified=34",
        "close drift (00)(()) left site='polynomial' predicted=35 verified=34",
        "close drift ()00000 right site='polynomial' predicted=-35 "
        "verified=-34",
        "close drift (()0)(0)0 left site='polynomial' predicted=35 "
        "verified=34",
    ]),
    # a sum that returns its first operand
    ("add", [
        "sum site=\"got '()0000(0)', want '()(0)0(0)'\" predicted=None "
        "verified=None",
        "overlay site=\"got '()0000000', want '()0(0())0'\" predicted=None "
        "verified=None",
        "mixed ops site=\"got '(0)', want '()0000(0)'\" predicted=None "
        "verified=None",
        *(f"grouping {g} site=\"got '(0)', want '()(0)0(0)'\" "
          "predicted=None verified=None" for g in "abc"),
    ]),
])
def test_failing_paper_examples_reports_are_pinned(monkeypatch, fault, lines):
    from motzkinrow import as_word, nav, verify

    if fault == "xi":
        xi = nav._xi
        monkeypatch.setattr(nav, "_xi", lambda k: xi(k) + (k == 5))
    else:
        monkeypatch.setattr(verify, "add", lambda x, y: as_word(x))
    assert report_lines(audit("paper_examples", 0)).splitlines() == [
        "check=paper_examples scope=0 outcome=fail checked=73 "
        f"counterexamples={len(lines)}",
        *(f"counterexample check=paper_examples word={line}" for line in lines),
    ]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for and maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, units):
        return map(fn, units)


@pytest.mark.parametrize("scope, cpus, sizes", [
    (3, 64, [2]),  # two ranges, two workers
    (2, 64, []),   # one range runs serially
    (3, 1, []),    # one CPU runs serially
])
def test_audit_clamps_workers(monkeypatch, scope, cpus, sizes):
    import concurrent.futures
    import os

    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert audit("corollary_3_1", scope, workers=64) == audit("corollary_3_1", scope)
    assert _SerialPool.sizes == sizes


@pytest.mark.parametrize("check, record", [
    ("rank_roundtrip", "site='rank' predicted=13 verified=14"),
    ("theorem_2_4", "site='block-sum' predicted=13 verified=14"),
    ("order_agreement", "site='rank-vs-position' predicted=13 verified=14"),
])
def test_a_wrong_rank_is_a_counterexample(monkeypatch, check, record):
    # rank one too high on "(0)()", index 13, fails each rank probe there
    from motzkinrow import verify

    rank = verify.rank
    monkeypatch.setattr(verify, "rank",
                        lambda w: rank(w) + (str(w) == "(0)()"))
    report = audit(check, 5)
    lines = report_lines(report).splitlines()
    assert report.outcome == "fail" and len(lines) == 2
    assert lines[1] == f"counterexample check={check} word=(0)() {record}"


def test_a_wrong_compare_is_a_counterexample_twice(monkeypatch):
    # compare wrong on one consecutive pair of range 3 fails both the
    # streamed comparison and the pairwise one of the front ranges
    from motzkinrow import verify

    compare = verify.compare
    monkeypatch.setattr(verify, "compare", lambda x, y: (
        1 if (str(x), str(y)) == ("(0)", "()0") else compare(x, y)))
    lines = report_lines(audit("order_agreement", 5)).splitlines()
    record = ("counterexample check=order_agreement word=(0) "
              "site='compare(()0)' predicted=-1 verified=1")
    assert lines[1:] == [record, record]
