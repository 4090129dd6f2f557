"""Batch audits of the row arithmetic against the enumerator oracle.

Audits run a named exhaustive check over bounded ranges and return a
structured report.  Every per-word check is a probe: a generator that
yields one (site, predicted, verified) triple per checked site, driven by
one loop over the words of ``word.enumerate_range``, their positions and
the range's {text: position} index.  The nav probes run the moves'
report-free cores and take the verified delta from that index; only a
shift_open that changes the word's length is checked against rank.
Checks backed by proofs are expected to pass; the conjectured ones (block
merge deltas, zero-gap swap site-independence) report counterexamples as
data instead of asserting, so a scope extension can never crash the
harness, only change the report.
"""

import os
import re
from functools import partial

from . import nav
from .bigcomb import motzkin
from .blockops import add, decompose_sum, sub
from .errors import (
    ArgumentError,
    LimitError,
    PolynomialMismatchError,
    UnknownCheckError,
)
from .nav import control_points
from .rowindex import compare, range_min, rank, unrank
from .word import (
    _Value,
    _check_range,
    _depth_left,
    check_length,
    decompose,
    enumerate_range,
    outer_blocks,
)


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


# ---------------------------------------------------------------------------
# per-check workers; each takes one unit of work (usually a range number)
# and returns (items_checked, [(word, site, predicted, verified)]) so that
# units can be farmed out to processes and merged deterministically.
# ---------------------------------------------------------------------------


def _run_words(probe, n):
    """Run probe(word, i, index) over the n-range in row order, with i the
    word's oracle position and index the range's {text: position}, built
    once from the enumerator.  Each (site, predicted, verified) triple a
    probe yields is one check; one whose predicted and verified values
    differ is a counterexample."""
    count = 0
    bad = []
    words, base = enumerate_range(n), range_min(n)[1]
    index = {w.text: i for i, w in enumerate(words, base)}
    for i, w in enumerate(words, base):
        for site, predicted, verified in probe(w, i, index):
            count += 1
            if predicted != verified:
                bad.append((w.text, site, predicted, verified))
    return count, bad


def _report_of(move, *args):
    """The DeltaReport of one nav move, also when a proven family raises
    PolynomialMismatchError over it: the report rides on the error."""
    try:
        return move(*args)
    except PolynomialMismatchError as exc:
        return exc.report


def _nav_site(index, i, site, core, *args):
    """One nav move core (no report, no site sum) on the word of oracle
    position i.  The verified delta is the after-word's position in the
    range's index minus i; only a shift_open that changes the word's
    length leaves the range, and there it is rank(after) - i."""
    after, predicted, _ = core(*args)
    j = index.get(after.text)
    return site, predicted, (rank(after) if j is None else j) - i


# --- probes: one generator of (site, predicted, verified) per check --------


def _rank_roundtrip(w, i, index):
    back = unrank(i)
    yield f"unrank({i})={back.text}", i, (i if back == w else None)
    yield "rank", i, rank(w)


def _theorem_2_4(w, i, index):
    yield "block-sum", sum(rank(p) for p in decompose(w)), rank(w)


def _open_sites(w, i, index):
    # across the zeros right of the bracket (position p is text[-p]), then
    # those left of it: two virtual zeros past the word when it leads
    text = w.text
    for b in outer_blocks(w):
        k = b.open_pos
        left, right = text[:-k], text[1 - k :].lstrip("0")
        run = len(left) - len(left.rstrip("0")) if left else 2
        for j in (*range(-1, len(right) - k, -1), *range(1, run + 1)):
            try:
                yield _nav_site(index, i, f"open k={k} j={j:+d}",
                                nav._shift_open, w, k, j)
            except LimitError:  # a leading drift past the length limit
                break


def _close_sites(w, i, index):
    text = w.text
    for b in outer_blocks(w):
        k = b.close_pos
        if text[-k - 1] == "0":
            yield _nav_site(index, i, f"close k={k} left", nav._shift_close,
                            w, k, "left")
        if k >= 2 and text[1 - k] == "0":
            yield _nav_site(index, i, f"close k={k} right",
                            nav._shift_close, w, k, "right")


def _pair_sites(w, i, index):
    blocks = outer_blocks(w)
    for left, right in zip(blocks, blocks[1:]):
        l, k = left.close_pos, right.open_pos
        yield _nav_site(index, i, f"remove ({k},{l})", nav._remove_pair,
                        w, k, l)
    # every pair inside a maximal zero run at depth 1, run spanning high..low
    for run in re.finditer("0+", w.text):
        high, low = len(w) - run.start(), len(w) - run.end() + 1
        if _depth_left(w.text, high) == 1:
            for l in range(low, high + 1):
                for k in range(max(low, 2), l):
                    yield _nav_site(index, i, f"insert ({k},{l})",
                                    nav._insert_pair, w, k, l)


def _block_pair_sites(gap, label, w, i, index):
    """Fuse every pair of neighboring outer blocks whose touching brackets
    have gap zeros between them (0: merge, 1: zero-gap swap)."""
    blocks = outer_blocks(w)
    for left, right in zip(blocks, blocks[1:]):
        if left.close_pos == right.open_pos + 1 + gap:
            k = right.open_pos
            yield _nav_site(index, i, f"{label} k={k}", nav._fuse, w, k, gap)


_merge_sites = partial(_block_pair_sites, 0, "merge")
_swap_sites = partial(_block_pair_sites, 1, "swap")


def _run_order_agreement(scope):
    oracle = []
    for n in range(1, scope + 1):
        oracle.extend(enumerate_range(n))
    bad = []
    for i, w in enumerate(oracle):
        if rank(w) != i:
            bad.append((w.text, "rank-vs-position", i, rank(w)))
    for a, b in zip(oracle, oracle[1:]):
        if compare(a, b) != -1:
            bad.append((a.text, f"compare({b.text})", -1, compare(a, b)))
    # belt and braces: full pairwise comparison on the small front ranges
    small = [w for w in oracle if len(w) <= min(scope, 6)]
    for i, a in enumerate(small):
        for j, b in enumerate(small):
            want = (i > j) - (i < j)
            if compare(a, b) != want:
                bad.append((a.text, f"compare({b.text})", want, compare(a, b)))
    return 2 * len(oracle) - 1 + len(small) ** 2, bad


def _run_table_1(n):
    bad = []
    try:
        control_points(n)
    except PolynomialMismatchError as exc:
        bad.append((f"range {n}", str(exc), None, None))
    return 7, bad


# --- replay of the recorded worked examples --------------------------------
#
# Each case is pinned by its index arithmetic.  A few circulate with garbled
# word strings; there the fixtures regenerate the words from their indexes,
# which are the authoritative data, and say so.


def _expect(bad, label, got, want):
    if got != want:
        bad.append((label, f"got {got!r}, want {want!r}", None, None))
    return 1


def _replay_move(bad, case, move, *args):
    """A proven nav move's report.  A polynomial that disagrees is logged
    under the case, uncounted, and the replay goes on."""
    rep = _report_of(move, *args)
    if not rep.agrees:
        bad.append((case, "polynomial", rep.predicted_delta, rep.verified_delta))
    return rep


def _replay_column_addition(bad):
    c = 0
    c += _expect(bad, "rank left block", rank("()0000000"), 708)
    c += _expect(bad, "rank right block", rank("(0())0"), 28)
    c += _expect(bad, "rank sum word", rank("()0(0())0"), 736)
    c += _expect(bad, "overlay", add("()0000000", "(0())0").text, "()0(0())0")
    c += _expect(bad, "difference right", sub("()0(0())0", "(0())0").text, "()0000000")
    c += _expect(bad, "difference left", sub("()0(0())0", "()0000000").text, "(0())0")
    c += _expect(bad, "blocks", [p.text for p in decompose("()0(0())0")],
                 ["()0000000", "(0())0"])
    return c


def _replay_zero_zone_insertion(bad):
    c = 0
    c += _expect(bad, "rank host", rank("()0000(0)"), 710)
    c += _expect(bad, "rank filler", rank("(0)0000"), 72)
    c += _expect(bad, "sum", add("()0000(0)", "(0)0000").text, "()(0)0(0)")
    c += _expect(bad, "rank of sum", rank("()(0)0(0)"), 782)
    c += _expect(bad, "sub filler", sub("()(0)0(0)", "(0)0000").text, "()0000(0)")
    c += _expect(bad, "sub host", sub("()(0)0(0)", "()0000(0)").text, "(0)0000")
    parts, total = decompose_sum("()(0)0(0)")
    c += _expect(bad, "three-block ranks", [rank(p) for p in parts], [708, 72, 2])
    c += _expect(bad, "three-block sum", total, 782)
    return c


def _replay_regrouping(bad):
    c = 0
    w2, w72, w708 = "(0)", "(0)0000", "()0000000"
    c += _expect(bad, "grouping a", add(add(w2, w72), w708).text, "()(0)0(0)")
    c += _expect(bad, "grouping b", add(w2, add(w72, w708)).text, "()(0)0(0)")
    c += _expect(bad, "grouping c", add(add(w2, w708), w72).text, "()(0)0(0)")
    c += _expect(bad, "mixed ops", add(w2, w708).text, sub("()(0)0(0)", w72).text)
    return c


def _replay_open_drift(bad):
    cases = [
        ("(00)", 4, 1, "(000)", 5),
        ("(00)", 4, 2, "(0000)", 17),
        ("(0000)", 6, 1, "(00000)", 30),
        ("(0())0", 6, -1, "(())0", -12),
        ("()()()", 6, 2, "(00)()()", 106),
        ("()(000)0", 6, -2, "()00(0)0", -17),
        # this case's word strings are garbled in the record; both are
        # regenerated from indexes 742 and 772
        (unrank(742).text, 6, 1, unrank(772).text, 30),
    ]
    c = 0
    for before, k, j, after, delta in cases:
        case = f"open drift {before} k={k} j={j}"
        rep = _replay_move(bad, case, nav.shift_open, before, k, j)
        c += _expect(bad, f"{case} word", rep.after.text, after)
        c += _expect(bad, f"{case} delta", rep.verified_delta, delta)
    return c


def _replay_close_drift(bad):
    cases = [
        ("(0)0000", 5, "left", "()00000", 34),
        ("(00)(())", 5, "left", "(0)0(())", 34),
        ("(()0)(0)0", 5, "left", "(())0(0)0", 34),
        ("()00000", 6, "right", "(0)0000", -34),
    ]
    c = 0
    for before, k, direction, after, delta in cases:
        case = f"close drift {before} {direction}"
        rep = _replay_move(bad, case, nav.shift_close, before, k, direction)
        c += _expect(bad, f"{case} word", rep.after.text, after)
        c += _expect(bad, f"{case} delta", rep.verified_delta, delta)
    return c


def _replay_pair_removal(bad):
    c = 0
    rep = _replay_move(bad, "removal", nav.remove_pair, "()00(())", 4, 7)
    c += _expect(bad, "removal word", rep.after.text, "(0000())")
    c += _expect(bad, "removal delta", rep.verified_delta, -149)
    rep = _replay_move(bad, "reinsertion", nav.insert_pair, "(0000())", 4, 7)
    c += _expect(bad, "reinsertion word", rep.after.text, "()00(())")
    c += _expect(bad, "reinsertion delta", rep.verified_delta, 149)
    # the remaining cases carry garbled word strings; regenerated by index
    for i_before, k, l, i_after, delta in [
        (491, 4, 5, 516, 25),
        (1152, 5, 6, 1216, 64),
    ]:
        rep = _replay_move(bad, f"insert into {i_before}", nav.insert_pair,
                           unrank(i_before), k, l)
        c += _expect(bad, f"insert into {i_before}", rep.after, unrank(i_after))
        c += _expect(bad, f"insert into {i_before} delta", rep.verified_delta, delta)
    rep = _replay_move(bad, "remove from 2153", nav.remove_pair, unrank(2153), 5, 7)
    c += _expect(bad, "remove from 2153", rep.after, unrank(1999))
    c += _expect(bad, "remove from 2153 delta", rep.verified_delta, -154)
    return c


def _replay_block_merge(bad):
    c = 0
    for n in range(7, 11):
        before = "(0)()" + "0" * (n - 5)
        rep = nav.merge_adjacent(before, n - 3)
        c += _expect(bad, f"merge n={n} word", rep.after.text, "(0())" + "0" * (n - 5))
        c += _expect(bad, f"merge n={n} delta", rep.verified_delta, -motzkin(n - 3))
        c += _expect(bad, f"merge n={n} agreement", rep.agrees, True)
    return c


def _replay_zero_gap_swap(bad):
    c = 0
    # three-step climb from the pair-inside-block landmark to the nested
    # one, range 7: indexes 70 -> 79 -> 113 -> 88, net +18
    s1 = nav.split_block("(0())00", 4)
    s2 = _replay_move(bad, "chain-7 close drift", nav.shift_close, s1.after, 5, "left")
    s3 = nav.swap_across_zero(s2.after, 4)
    c += _expect(bad, "chain-7 words", (s1.after.text, s2.after.text, s3.after.text),
                 ("(0)()00", "()0()00", "((0))00"))
    c += _expect(bad, "chain-7 net",
                 s1.verified_delta + s2.verified_delta + s3.verified_delta, 18)
    c += _expect(bad, "chain-7 endpoints", (rank("(0())00"), rank("((0))00")), (70, 88))
    # same climb inside a host with an extra block, range 9: 464 -> 584
    s1 = nav.split_block("(0())(0)0", 6)
    s2 = _replay_move(bad, "chain-9 close drift", nav.shift_close, s1.after, 7, "left")
    s3 = nav.swap_across_zero(s2.after, 6)
    c += _expect(bad, "chain-9 end", s3.after.text, "((0))(0)0")
    c += _expect(bad, "chain-9 net",
                 s1.verified_delta + s2.verified_delta + s3.verified_delta, 120)
    c += _expect(bad, "chain-9 swap uses psi6", s3.predicted_delta, -171)
    c += _expect(bad, "chain-9 endpoints", (rank("(0())(0)0"), rank("((0))(0)0")),
                 (464, 584))
    # the single-zero split whose recorded words are garbled: regenerated
    # from indexes 1958 and 1502, delta -psi(7) = -456
    rep = nav.swap_across_zero(unrank(1958), 7)
    c += _expect(bad, "swap 1958 word", rep.after, unrank(1502))
    c += _expect(bad, "swap 1958 delta", rep.verified_delta, -456)
    c += _expect(bad, "swap 1958 agreement", rep.agrees, True)
    return c


def _run_paper_examples(scope):
    bad = []
    count = sum(replay(bad) for replay in (
        _replay_column_addition, _replay_zero_zone_insertion,
        _replay_regrouping, _replay_open_drift, _replay_close_drift,
        _replay_pair_removal, _replay_block_merge, _replay_zero_gap_swap))
    return count, bad


# (kind, runner, first range, unit); kind decides the passing outcome label.
# A runner takes one range (unit "range") or the whole scope at once (unit
# "scope").  The first range is the smallest with a site to check, so no
# accepted scope passes vacuously.
_CHECKS = {
    "rank_roundtrip": ("theorem", partial(_run_words, _rank_roundtrip), 1, "range"),
    "order_agreement": ("theorem", _run_order_agreement, 1, "scope"),
    "theorem_2_4": ("theorem", partial(_run_words, _theorem_2_4), 2, "range"),
    "corollary_3_1": ("theorem", partial(_run_words, _open_sites), 2, "range"),
    "corollary_3_3": ("theorem", partial(_run_words, _close_sites), 3, "range"),
    "corollary_4_1": ("theorem", partial(_run_words, _pair_sites), 4, "range"),
    "conjecture_4_3": ("conjecture", partial(_run_words, _merge_sites), 4, "range"),
    "psi_site_independence": ("conjecture", partial(_run_words, _swap_sites), 5,
                              "range"),
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
    fewer than one worker are ArgumentErrors; a scope past a limit that
    the check's words reach is a LimitError, raised before any unit runs.
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
    if check != "paper_examples":
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

