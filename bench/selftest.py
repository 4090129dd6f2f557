"""Self-test of the benchmark's own arithmetic and of its output checks.

    python3 bench/selftest.py

Each checker gets a right answer, which it must accept, and deliberately
wrong ones (an index off by one, a swapped word, a wrong outcome), which
it must reject.  Needs no motzkinrow import: every right answer comes from
the brute-force enumeration.  Exits 0 when every case behaves.
"""

import sys

import oracle
from oracle import CheckFailed
from spans import Tracer, bind
from workloads import check_cli

ROW = oracle.Row(26)
M = ROW.M
R = ROW.index.__getitem__
FAILURES = []


def case(label, fn, *args, wrong=False):
    try:
        fn(*args)
        ok = not wrong
    except CheckFailed:
        ok = wrong
    if not ok:
        FAILURES.append(f"{label}: {'accepted a wrong' if wrong else 'rejected a right'} answer")


def reject(label, fn, *args):
    case(label, fn, *args, wrong=True)


def test_arithmetic():
    counts = [sum(1 for w in ROW.words if len(w) == n) for n in range(1, 11)]
    if counts != [1] + [M[n] - M[n - 1] for n in range(2, 11)]:
        FAILURES.append("three-term recurrence disagrees with brute force")
    if [ROW.T[m][0] for m in range(27)] != M[:27]:
        FAILURES.append("triangle column 0 is not the Motzkin numbers")
    if any(ROW.count_rank(w) != i for i, w in enumerate(ROW.words)):
        FAILURES.append("counting rank disagrees with brute-force order")
    for k in range(2, 8):  # psi identity against brute-force positions
        before = "()0(" + "0" * (k - 2) + ")"
        after = "((0)" + "0" * (k - 2) + ")"
        if ROW.psi(k) != R(before) - R(after):
            FAILURES.append(f"psi({k}) identity disagrees with brute force")


def test_library_checkers():
    w = "(0)(0())0"
    i = R(w)
    nxt, prv = ROW.words[i + 1], ROW.words[i - 1]
    case("unrank", oracle.check_unrank, M, i, w, i)
    reject("unrank rank off by one", oracle.check_unrank, M, i, w, i + 1)
    reject("unrank wrong length", oracle.check_unrank, M, i, w + "0", i)
    case("successor", oracle.check_successor, w, nxt, i, i + 1, w)
    reject("successor off by one", oracle.check_successor, w, nxt, i, i + 2, w)
    reject("predecessor swapped", oracle.check_successor, w, nxt, i, i + 1, prv)
    case("compare", oracle.check_compare, -1, i, i + 5)
    reject("compare flipped", oracle.check_compare, 1, i, i + 5)
    case("range ends", oracle.check_range_ends, M, 9, M[8], M[9] - 1)
    reject("range ends off by one", oracle.check_range_ends, M, 9, M[8] + 1,
           M[9] - 1)

    x, y, z = "()0000(0)", "(0)0000", "()(0)0(0)"
    case("sum", oracle.check_sum, x, y, z, R(x), R(y), R(z), x)
    reject("sum off by one", oracle.check_sum, x, y, z, R(x), R(y), R(z) + 1, x)
    reject("sub swapped", oracle.check_sum, x, y, z, R(x), R(y), R(z), y)
    parts = ["()0000000", "(0)0000", "(0)"]
    case("decompose", oracle.check_decompose, z, parts, R(z), R(z))
    reject("decompose swapped", oracle.check_decompose, z, parts[::-1], R(z),
           R(z))
    reject("decompose total", oracle.check_decompose, z, parts, R(z) + 1, R(z))

    host = "(00()0)0()()00()"
    sites = oracle.move_sites(host)
    if {mv for mv, _ in sites} != set(oracle.PROVEN) | {
            "merge_adjacent", "split_block", "swap_across_zero"}:
        FAILURES.append("site scan misses a move on the skeleton")
    for mv, args in sites:
        assignments, poly = oracle.expected_move(mv, args, M, ROW.psi)
        after = oracle.rewrite(host, assignments)
        rb, ra = ROW.rank(host), ROW.rank(after)
        good = (mv, args, host, after, poly, ra - rb, rb, ra, M, ROW.psi)
        case(f"{mv}", oracle.check_move, *good)
        reject(f"{mv} swapped after", oracle.check_move, mv, args, host, host,
               poly, ra - rb, rb, ra, M, ROW.psi)
        reject(f"{mv} verified off by one", oracle.check_move, mv, args, host,
               after, poly, ra - rb + 1, rb, ra, M, ROW.psi)
        reject(f"{mv} predicted off by one", oracle.check_move, mv, args, host,
               after, poly + 1, ra - rb, rb, ra, M, ROW.psi)


def test_audit_checkers():
    case("audit", oracle.check_audit, "corollary_3_1", 12, "pass", 55600, 0, M)
    reject("audit fail", oracle.check_audit, "corollary_3_1", 12, "fail", 55600,
           1, M)
    reject("audit vacuous", oracle.check_audit, "table_1", 4, "pass", 0, 0, M)
    reject("conjecture as pass", oracle.check_audit, "conjecture_4_3", 12,
           "pass", 9438, 0, M)
    reject("roundtrip count", oracle.check_audit, "rank_roundtrip", 12, "pass",
           2 * M[12] - 1, 0, M)
    words = [w for w in ROW.words if len(w) == 8]
    case("enumeration", oracle.check_enumeration, ROW, 8, words)
    reject("enumeration swapped", oracle.check_enumeration, ROW, 8,
           [words[1], words[0]] + words[2:])
    reject("enumeration short", oracle.check_enumeration, ROW, 8, words[:-1])


def test_cli_checkers():
    w = "(0)(0())0"
    i = R(w)
    plain, lines = [], ["--format", "lines"]
    translit = ["--translit"]
    tr = str.maketrans("0()", "olr")
    cases = [
        ("rank", plain, [w], f"{i}\n", f"{i + 1}\n"),
        ("unrank", translit, [str(i)], f"{w.translate(tr)}\n",
         f"{ROW.words[i + 1].translate(tr)}\n"),
        ("next", plain, [w], f"{ROW.words[i + 1]}\n", f"{ROW.words[i + 2]}\n"),
        ("cmp", plain, [w, "()"], "greater\n", "less\n"),
        ("add", plain, ["()0000(0)", "(0)0000"],
         "()(0)0(0)\nindexes: 710 + 72 = 782\n",
         "()(0)0(0)\nindexes: 710 + 72 = 783\n"),
        ("sub", lines, ["()(0)0(0)", "(0)0000"],
         "result=()0000(0) left=782 right=72 total=710\n",
         "result=(0)0000 left=782 right=72 total=710\n"),
        ("decompose", plain, ["()(0)0(0)"],
         "()0000000  index 708\n(0)0000  index 72\n(0)  index 2\n"
         "index sum: 782\n",
         "(0)0000  index 72\n()0000000  index 708\n(0)  index 2\n"
         "index sum: 782\n"),
        ("shift-open", lines, ["()()()", "6", "2"],
         "before=()()() after=(00)()() predicted=106 verified=106 site=8,6\n",
         "before=()()() after=(0)0()() predicted=106 verified=106 site=8,6\n"),
        ("xi", plain, ["5"], f"{oracle.xi(M, 5)}\n", f"{oracle.xi(M, 5) + 1}\n"),
        ("psi", plain, ["10"], "9086\n", "9084\n"),
        ("range", plain, ["6"], f"min: (0000)  index {M[5]}\n"
         f"max: ()()()  index {M[6] - 1}\n",
         f"min: (0000)  index {M[5]}\nmax: ()()()  index {M[6]}\n"),
        ("seq", lines, ["motzkin", "3"], "value=1\nvalue=1\nvalue=2\n",
         "value=1\nvalue=2\nvalue=2\n"),
        ("audit", plain, ["paper_examples"],
         "check: paper_examples\nscope: 12\noutcome: pass\nchecked: 73\n"
         "counterexamples: 0\n",
         "check: paper_examples\nscope: 12\noutcome: pass\nchecked: 0\n"
         "counterexamples: 0\n"),
        ("addendum", plain, ["--max-range", "3"],
         "000: 0, (), (0), ()0\n", "000: 0, (), ()0, (0)\n"),
    ]
    for verb, options, args, right, wrong in cases:
        case(f"cli {verb}", check_cli, ROW, verb, options, args, right)
        reject(f"cli {verb}", check_cli, ROW, verb, options, args, wrong)
    reject("cli unparsable", check_cli, ROW, "rank", plain, [w], "error\n")


def test_untraced_records_nothing():
    import types

    module = types.SimpleNamespace(f=lambda v: v + 1)
    tracer = Tracer()
    raw = bind({"layer": (module, ("f",))})
    spanned = bind({"layer": (module, ("f",))}, tracer)
    if raw.f is not module.f:
        FAILURES.append("untraced binding wraps the layer function")
    spanned.f(1)
    if [s[2] for s in tracer.spans] != ["layer.f"]:
        FAILURES.append("traced binding does not record one span per call")


def main():
    for test in (test_arithmetic, test_library_checkers, test_audit_checkers,
                 test_cli_checkers, test_untraced_records_nothing):
        test()
    for failure in FAILURES:
        print("FAIL", failure)
    print("selftest:", "failed" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
