"""Batch audits of the row arithmetic against the enumerator oracle.

Audits run a named exhaustive check over bounded ranges and return a
structured report; a site's label is formatted only for a
counterexample.  The rank probes are generators over the words of
``word.enumerate_range``.  The nav checks read rows of ``nav``'s
move-shape table when they run, each compiled to a regular expression
over the enumerator's marked spelling, where a symbol's letter carries the
depth left of it: ``_marked`` joins a range once, ``_sites`` scans it
once per row, and ``_run_nav`` reads the plain texts back from the join
and checks each site's splice and prediction against the oracle's
positions.  ``_examples`` lists the paper's worked cases, read by one
loop.  Checks backed by proofs are expected to pass; a nav check that
reads a row of ``nav._UNPROVEN`` is a conjecture, which reports
counterexamples as data instead of asserting, so a scope extension can
never crash the harness, only change the report.
"""

import os
import re
from functools import partial

from . import config, nav
from .blockops import add, decompose_sum, sub
from .errors import ArgumentError, PolynomialMismatchError, UnknownCheckError
from .nav import _SHAPES, DeltaReport, _checked, _splice, control_points
from .rowindex import compare, range_min, rank, unrank
from .word import (_MARKED, MotzkinWord, _check_range, _range_texts, _Value,
                   check_length, decompose, enumerate_range)


class Counterexample(_Value):
    __slots__ = ("word", "site", "predicted", "verified")

    def __init__(self, word: str, site: str, predicted: int | None,
                 verified: int | None):
        self.__setstate__((word, site, predicted, verified))


class AuditReport(_Value):
    __slots__ = ("check_name", "scope", "outcome", "counterexamples", "counts")

    def __init__(self, check_name: str, scope: int,
                 outcome: str,  # "pass" | "fail" | "conjecture-holds"
                 counterexamples: tuple[Counterexample, ...], counts: int):
        self.__setstate__((check_name, scope, outcome, counterexamples, counts))


# Per-check workers take one unit of work (usually a range number) and
# return (items_checked, [(word, site, predicted, verified)]), so that units
# can be farmed out to processes and merged deterministically.


def _run_words(probe, n):
    """Run probe(word, i) over the n-range in row order, i the word's oracle
    position.  Each ((label, arguments), predicted, verified) it yields is
    one check, a counterexample when the two differ, at the label's site."""
    count, bad = 0, []
    for i, w in enumerate(enumerate_range(n), range_min(n)[1]):
        for (label, args), predicted, verified in probe(w, i):
            count += 1
            if predicted != verified:
                bad.append((w.text, label.format(*args), predicted, verified))
    return count, bad


def _rank_roundtrip(w, i):
    back = unrank(i)
    yield ("unrank({})={}", (i, back.text)), i, (i if back == w else None)
    yield ("rank", ()), i, rank(w)


def _theorem_2_4(w, i):
    yield ("block-sum", ()), sum(rank(p) for p in decompose(w)), rank(w)


def _pattern(symbols, depth):
    """A row's symbols from p to q, depth left of p, as a regular
    expression over the marked spelling: each symbol is the letter of the
    depth it is read at, and "*" any run of zeros at that depth."""
    out = []
    for ch in symbols:
        letters = _MARKED[min(depth, 2)]
        if ch == "*":
            out.append(letters[0] + "*")
            continue
        out.append(letters["0()".index(ch)])
        depth += (ch == "(") - (ch == ")")
    return re.compile("".join(out))


# check: (first range, the rows of nav's move-shape table it reads), each
# row looked up when the check runs; a check is a conjecture if one of its
# rows is in nav._UNPROVEN.  A site's label shows the public move's arguments
_NAV_CHECKS = {
    "corollary_3_1": (2, ("open_right", "open_left")),
    "corollary_3_3": (3, ("close_left", "close_right")),
    "corollary_4_1": (4, ("remove_pair", "insert_pair")),
    "conjecture_4_3": (4, ("merge_adjacent",)),
    "psi_site_independence": (5, ("swap_across_zero",)),
}
_LABELS = {"shift_open": "open k={} j={:+d}", "shift_close": "close k={} {}",
           "remove_pair": "remove ({},{})", "insert_pair": "insert ({},{})",
           "merge_adjacent": "merge k={}", "swap_across_zero": "swap k={}"}
# what precedes each word of a joined range: a separator no pattern
# matches, then two virtual zeros at depth 0
_LEAD = "|" + 2 * _MARKED[0][0]
# the nine marked letters read back as "0()"
_PLAIN = str.maketrans("".join(_MARKED), "0()" * 3)


def _marked(n):
    """The n-range in the marked spelling, joined: each word after
    ``_LEAD``, so that word k fills characters k*(n+3) to (k+1)*(n+3)."""
    return _LEAD + _LEAD.join(_range_texts(n, marked=True))


def _sites(check, marked, n):
    """Every site that one of the check's rows matches in the n-range
    joined as marked (``_marked``), as (row, k, p, q), k the word's index
    in the range: one scan per row.  A match of a run row is every zero of
    the run as a p when the row starts with "0", and every later zero of
    the run as a q when it ends with "0"."""
    size = n + 3
    for row in map(_SHAPES.get, _NAV_CHECKS[check][1]):
        each_p, each_q = row[0][:2] == "0*", row[0][-2:] == "*0"
        for m in _pattern(*row[:2]).finditer(marked):
            k, a = divmod(m.start(), size)
            p = size - a
            q = p + m.start() - m.end() + 1
            if not (each_p or each_q):
                yield row, k, p, q
                continue
            for p2 in range(p, q, -1) if each_p else (p,):
                for q2 in range(p2 - 1, q - 1, -1) if each_q else (q,):
                    yield row, k, p2, q2


def _run_nav(check, n):
    """Check every site of every n-word that the check's rows match: the
    row's splice and prediction, against the after-text's position in the
    range's {text: position} index minus the word's.  A hit is a valid
    word, the index holding only the oracle's; a miss, which only a
    shift_open that changes the word's length meets, is scanned and
    ranked.  A site past the length limit, read once, is no site.  A
    site's label is formatted only for a counterexample."""
    count, bad = 0, []
    marked = _marked(n)
    # read back from the join, so that the range is enumerated once
    texts = marked.translate(_PLAIN).split(_LEAD.translate(_PLAIN))[1:]
    index = {text: k for k, text in enumerate(texts)}
    base, limit, predictions = range_min(n)[1], config.max_word_length(), {}
    for row, k, p, q in _sites(check, marked, n):
        if p > limit:
            continue
        text = texts[k]
        after = _splice(text, p, q, row[2])
        j = index.get(after)
        if j is None:
            j = rank(MotzkinWord._trusted(_checked(text, after))) - base
        predict = row[3]
        if (predicted := predictions.get((predict, p, q))) is None:
            predicted = predictions[predict, p, q] = predict(p, q)
        count += 1
        if predicted != j - k:
            label = _LABELS[row[4]].format(*row[5](p, q))
            bad.append((text, label, predicted, j - k))
    return count, bad


def _run_order_agreement(scope):
    # streamed by range, the last word carried across each range's end;
    # only the small front ranges are kept, for the pairwise comparison
    bad, small, i, prev = [], [], -1, None
    for n in range(1, scope + 1):
        for w in enumerate_range(n):
            i += 1
            if rank(w) != i:
                bad.append((w.text, "rank-vs-position", i, rank(w)))
            if i and compare(prev, w) != -1:
                bad.append((prev.text, f"compare({w.text})", -1,
                            compare(prev, w)))
            if n <= 6:
                small.append(w)
            prev = w
    # belt and braces: full pairwise comparison on the small front ranges
    for k, a in enumerate(small):
        for j, b in enumerate(small):
            want = (k > j) - (k < j)
            if compare(a, b) != want:
                bad.append((a.text, f"compare({b.text})", want, compare(a, b)))
    return 2 * i + 1 + len(small) ** 2, bad


def _run_table_1(n):
    bad = []
    try:
        control_points(n)
    except PolynomialMismatchError as exc:
        bad.append((f"range {n}", str(exc), None, None))
    return 7, bad


# --- replay of the recorded worked examples --------------------------------
#
# A row is (label, function, arguments, *wants), its label formatted with
# the arguments.  A nav move is checked for its after-word, verified delta
# and agreement, as far as wants go, and a proven polynomial that disagrees
# is logged, uncounted; any other result is one check, a word read as its
# text against a string.  _AFTER as a move's word chains it on the move
# above; _CHAIN as the arguments stands for the chain's reports.
_AFTER, _CHAIN = object(), object()


def _examples():
    w2, w72, w708, w782 = "(0)", "(0)0000", "()0000000", "()(0)0(0)"
    drift, close = "open drift {} k={} j={}", "close drift {0} {2}"
    return (
        # column addition: 708 + 28 = 736
        ("rank left block", rank, (w708,), 708),
        ("rank right block", rank, ("(0())0",), 28),
        ("rank sum word", rank, ("()0(0())0",), 736),
        ("overlay", add, (w708, "(0())0"), "()0(0())0"),
        ("difference right", sub, ("()0(0())0", "(0())0"), w708),
        ("difference left", sub, ("()0(0())0", w708), "(0())0"),
        ("blocks", lambda w: [p.text for p in decompose(w)], ("()0(0())0",),
         [w708, "(0())0"]),
        # zero-zone insertion: 710 + 72 = 782
        ("rank host", rank, ("()0000(0)",), 710),
        ("rank filler", rank, (w72,), 72),
        ("sum", add, ("()0000(0)", w72), w782),
        ("rank of sum", rank, (w782,), 782),
        ("sub filler", sub, (w782, w72), "()0000(0)"),
        ("sub host", sub, (w782, "()0000(0)"), w72),
        ("three-block ranks", lambda w: [rank(p) for p in decompose_sum(w)[0]],
         (w782,), [708, 72, 2]),
        ("three-block sum", lambda w: decompose_sum(w)[1], (w782,), 782),
        # regrouping 2 + 72 + 708
        ("grouping a", add, (add(w2, w72), w708), w782),
        ("grouping b", add, (w2, add(w72, w708)), w782),
        ("grouping c", add, (add(w2, w708), w72), w782),
        ("mixed ops", add, (w2, w708), sub(w782, w72).text),
        # drifts.  Records with garbled word strings are regenerated from
        # their indexes, the authoritative data: here 742 and 772
        (drift, nav.shift_open, ("(00)", 4, 1), "(000)", 5),
        (drift, nav.shift_open, ("(00)", 4, 2), "(0000)", 17),
        (drift, nav.shift_open, ("(0000)", 6, 1), "(00000)", 30),
        (drift, nav.shift_open, ("(0())0", 6, -1), "(())0", -12),
        (drift, nav.shift_open, ("()()()", 6, 2), "(00)()()", 106),
        (drift, nav.shift_open, ("()(000)0", 6, -2), "()00(0)0", -17),
        (drift, nav.shift_open, (unrank(742), 6, 1), unrank(772).text, 30),
        (close, nav.shift_close, ("(0)0000", 5, "left"), "()00000", 34),
        (close, nav.shift_close, ("(00)(())", 5, "left"), "(0)0(())", 34),
        (close, nav.shift_close, ("(()0)(0)0", 5, "left"), "(())0(0)0", 34),
        (close, nav.shift_close, ("()00000", 6, "right"), "(0)0000", -34),
        # pair removal and insertion; the last three records by index
        ("removal", nav.remove_pair, ("()00(())", 4, 7), "(0000())", -149),
        ("reinsertion", nav.insert_pair, ("(0000())", 4, 7), "()00(())", 149),
        ("insert into 491", nav.insert_pair, (unrank(491), 4, 5), unrank(516), 25),
        ("insert into 1152", nav.insert_pair, (unrank(1152), 5, 6), unrank(1216), 64),
        ("remove from 2153", nav.remove_pair, (unrank(2153), 5, 7), unrank(1999), -154),
        # block merges in ranges 7 to 10, delta -M[k]
        ("merge n=7", nav.merge_adjacent, ("(0)()00", 4), "(0())00", -9, True),
        ("merge n=8", nav.merge_adjacent, ("(0)()000", 5), "(0())000", -21, True),
        ("merge n=9", nav.merge_adjacent, ("(0)()0000", 6), "(0())0000", -51, True),
        ("merge n=10", nav.merge_adjacent, ("(0)()00000", 7), "(0())00000", -127, True),
        # three-step climb from the pair-inside-block landmark to the nested
        # one, range 7: indexes 70 -> 79 -> 113 -> 88, net +18
        ("chain-7 split", nav.split_block, ("(0())00", 4)),
        ("chain-7 close drift", nav.shift_close, (_AFTER, 5, "left")),
        ("chain-7 swap", nav.swap_across_zero, (_AFTER, 4)),
        ("chain-7 words", lambda *c: tuple(str(r.after) for r in c), _CHAIN,
         ("(0)()00", "()0()00", "((0))00")),
        ("chain-7 net", lambda *c: sum(r.verified_delta for r in c), _CHAIN, 18),
        ("chain-7 endpoints", lambda *ws: tuple(map(rank, ws)),
         ("(0())00", "((0))00"), (70, 88)),
        # the same climb inside a host with an extra block, range 9: 464 -> 584
        ("chain-9 split", nav.split_block, ("(0())(0)0", 6)),
        ("chain-9 close drift", nav.shift_close, (_AFTER, 7, "left")),
        ("chain-9 swap", nav.swap_across_zero, (_AFTER, 6)),
        ("chain-9 end", str, (_AFTER,), "((0))(0)0"),
        ("chain-9 net", lambda *c: sum(r.verified_delta for r in c), _CHAIN, 120),
        ("chain-9 swap uses psi6", lambda *c: c[-1].predicted_delta, _CHAIN, -171),
        ("chain-9 endpoints", lambda *ws: tuple(map(rank, ws)),
         ("(0())(0)0", "((0))(0)0"), (464, 584)),
        # the single-zero split whose recorded words are garbled, regenerated
        # from indexes 1958 and 1502: delta -psi(7) = -456
        ("swap 1958", nav.swap_across_zero, (unrank(1958), 7), unrank(1502), -456,
         True),
    )


def _run_paper_examples(scope):
    bad, chain, count = [], [], 0
    for label, fn, args, *wants in _examples():
        head = args if args is _CHAIN else args[0]
        if head is _CHAIN:
            args = chain
        elif head is _AFTER:
            args = (chain[-1].after, *args[1:])
        label = label.format(*args)
        try:
            got = fn(*args)
        except PolynomialMismatchError as exc:
            got = exc.report
            bad.append((label, "polynomial", got.predicted_delta, got.verified_delta))
        checks = [(label, got)]
        if isinstance(got, DeltaReport):
            chain = [*chain, got] if head is _AFTER else [got]
            checks = zip((f"{label} word", f"{label} delta", f"{label} agreement"),
                         (got.after, got.verified_delta, got.agrees))
        for (label, got), want in zip(checks, wants):
            got = str(got) if isinstance(want, str) else got  # a word's text
            count += 1
            if got != want:
                bad.append((label, f"got {got!r}, want {want!r}", None, None))
    return count, bad


# (kind, runner, first range, unit); kind decides the passing outcome label.
# A runner takes one range (unit "range") or the whole scope at once (unit
# "scope").  The first range is the smallest with a site to check, so no
# accepted scope passes vacuously.  The nav checks are _NAV_CHECKS' rows.
_CHECKS = {
    "rank_roundtrip": ("theorem", partial(_run_words, _rank_roundtrip), 1, "range"),
    "order_agreement": ("theorem", _run_order_agreement, 1, "scope"),
    "theorem_2_4": ("theorem", partial(_run_words, _theorem_2_4), 2, "range"),
    **{check: ("conjecture" if nav._UNPROVEN.intersection(names) else "theorem",
               partial(_run_nav, check), first, "range")
       for check, (first, names) in _NAV_CHECKS.items()},
    "table_1": ("theorem", _run_table_1, 5, "range"),
    "paper_examples": ("theorem", _run_paper_examples, 0, "scope"),
}


_LEX_ORDER = {"0": 0, "(": 1, ")": 2}


def _sort_key(cx: Counterexample):
    return (len(cx.word), [_LEX_ORDER.get(c, 9) for c in cx.word], cx.site)


def audit(check: str, max_scope: int, workers: int = 1) -> AuditReport:
    """Run the named exhaustive check up to max_scope.

    Work is split by range.  The worker count is clamped to the number of
    units and of CPUs; with more than one left, the units run in separate
    processes.  The merged counterexamples are sorted so the report is
    deterministic either way.  A scope below the check's first range and
    fewer than one worker are ArgumentErrors; a scope past the enumeration
    limit (for table_1, which enumerates nothing, the length limit) is a
    LimitError, raised before any unit runs.
    """
    if check not in _CHECKS:
        raise UnknownCheckError(
            f"unknown check {check!r}; expected one of {sorted(_CHECKS)}"
        )
    kind, run_unit, first, unit = _CHECKS[check]
    if max_scope < first:
        raise ArgumentError(
            f"check {check!r} needs a scope of at least {first}, "
            f"got {max_scope}"
        )
    if workers < 1:
        raise ArgumentError(f"workers must be at least 1, got {workers}")
    if max_scope:  # paper_examples' scope 0 reads no range
        (check_length if check == "table_1" else _check_range)(max_scope)
    units = list(range(first, max_scope + 1)) if unit == "range" else [max_scope]
    workers = min(workers, len(units), os.cpu_count() or 1)
    if workers > 1:
        # imported here: only a run with more than one worker needs the
        # process pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_unit, units))
    else:
        results = [run_unit(u) for u in units]
    counts = sum(c for c, _ in results)
    merged = [Counterexample(*t) for _, bad in results for t in bad]
    merged.sort(key=_sort_key)
    if merged:
        outcome = "fail"
    else:
        outcome = "conjecture-holds" if kind == "conjecture" else "pass"
    return AuditReport(check, max_scope, outcome, tuple(merged), counts)


def report_text(report: AuditReport) -> str:
    lines = [
        f"check: {report.check_name}",
        f"scope: {report.scope}",
        f"outcome: {report.outcome}",
        f"checked: {report.counts}",
        f"counterexamples: {len(report.counterexamples)}",
    ]
    for cx in report.counterexamples:
        lines.append(
            f"  word={cx.word} site={cx.site} "
            f"predicted={cx.predicted} verified={cx.verified}"
        )
    return "\n".join(lines)


def report_lines(report: AuditReport) -> str:
    """Line-delimited machine format: one summary record, then one record
    per counterexample."""
    lines = [
        f"check={report.check_name} scope={report.scope} "
        f"outcome={report.outcome} checked={report.counts} "
        f"counterexamples={len(report.counterexamples)}"
    ]
    for cx in report.counterexamples:
        lines.append(
            f"counterexample check={report.check_name} word={cx.word} "
            f"site={cx.site!r} predicted={cx.predicted} verified={cx.verified}"
        )
    return "\n".join(lines)

