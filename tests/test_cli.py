import os
import random
import re
import resource
import subprocess
import sys
import time

import pytest

import motzkinrow
from motzkinrow import AuditReport, Counterexample, motzkin
from motzkinrow import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every verb's exact stdout: (arguments, plain output, lines output or None
# when the lines output is the same).
VERB_OUTPUTS = [
    (("rank", "()0(0())0"), "736\n", None),
    (("unrank", "736"), "()0(0())0\n", None),
    (("next", "(0)0"), "(())\n", None),
    (("prev", "(0)0"), "(00)\n", None),
    (("cmp", "(0)", "()0"), "less\n", None),
    (("add", "()0000(0)", "(0)0000"),
     "()(0)0(0)\nindexes: 710 + 72 = 782\n",
     "result=()(0)0(0) left=710 right=72 total=782\n"),
    (("sub", "()(0)0(0)", "(0)0000"),
     "()0000(0)\nindexes: 782 - 72 = 710\n",
     "result=()0000(0) left=782 right=72 total=710\n"),
    (("decompose", "()(0)0(0)"),
     "()0000000  index 708\n(0)0000  index 72\n(0)  index 2\n"
     "index sum: 782\n",
     "part=()0000000 index=708\npart=(0)0000 index=72\npart=(0) index=2\n"
     "total=782\n"),
    (("shift-open", "()()()", "6", "2"),
     "before:    ()()()  index 50\nafter:     (00)()()  index 156\n"
     "predicted: +106\nverified:  +106\nsite:      positions 8, 6\n",
     "before=()()() after=(00)()() predicted=106 verified=106 site=8,6\n"),
    (("shift-close", "(0)0000", "5", "left"),
     "before:    (0)0000  index 72\nafter:     ()00000  index 106\n"
     "predicted: +34\nverified:  +34\nsite:      positions 6, 5\n",
     "before=(0)0000 after=()00000 predicted=34 verified=34 site=6,5\n"),
    (("remove-pair", "()00(())", "4", "7"),
     "before:    ()00(())  index 278\nafter:     (0000())  index 129\n"
     "predicted: -149\nverified:  -149\nsite:      positions 7, 4\n",
     "before=()00(()) after=(0000()) predicted=-149 verified=-149 "
     "site=7,4\n"),
    (("insert-pair", "(0000())", "4", "7"),
     "before:    (0000())  index 129\nafter:     ()00(())  index 278\n"
     "predicted: +149\nverified:  +149\nsite:      positions 7, 4\n",
     "before=(0000()) after=()00(()) predicted=149 verified=149 site=7,4\n"),
    (("merge", "(0)()00", "4"),
     "before:    (0)()00  index 79\nafter:     (0())00  index 70\n"
     "predicted: -9\nverified:  -9\nsite:      positions 5, 4\n",
     "before=(0)()00 after=(0())00 predicted=-9 verified=-9 site=5,4\n"),
    (("split", "(0())00", "4"),
     "before:    (0())00  index 70\nafter:     (0)()00  index 79\n"
     "predicted: +9\nverified:  +9\nsite:      positions 5, 4\n",
     "before=(0())00 after=(0)()00 predicted=9 verified=9 site=5,4\n"),
    (("swap", "()0()00", "4"),
     "before:    ()0()00  index 113\nafter:     ((0))00  index 88\n"
     "predicted: -25\nverified:  -25\nsite:      positions 6, 5, 4\n",
     "before=()0()00 after=((0))00 predicted=-25 verified=-25 "
     "site=6,5,4\n"),
    (("xi", "5"), "34\n", None),
    (("zeta", "4", "7"), "149\n", None),
    (("psi", "7"), "456\n", None),
    (("range", "6"),
     "min: (0000)  index 21\nmax: ()()()  index 50\n",
     "min=(0000) index=21\nmax=()()() index=50\n"),
    (("control-points", "7"),
     "min                (00000)  index 51\n"
     "pair_inside_block  (0())00  index 70\n"
     "small_block        (0)0000  index 72\n"
     "small_block_pairs  (0)()()  index 80\n"
     "nested_block       ((0))00  index 88\n"
     "leading_pair       ()00000  index 106\n"
     "max                ()()()0  index 126\n",
     "name=min word=(00000) index=51\n"
     "name=pair_inside_block word=(0())00 index=70\n"
     "name=small_block word=(0)0000 index=72\n"
     "name=small_block_pairs word=(0)()() index=80\n"
     "name=nested_block word=((0))00 index=88\n"
     "name=leading_pair word=()00000 index=106\n"
     "name=max word=()()()0 index=126\n"),
    (("seq", "psi", "9"), "4, 10, 25, 65, 171, 456, 1227, 3328, 9086\n",
     "".join(f"value={v}\n" for v in (4, 10, 25, 65, 171, 456, 1227, 3328,
                                      9086))),
    (("audit", "table_1", "--max-range", "7"),
     "check: table_1\nscope: 7\noutcome: pass\nchecked: 21\n"
     "counterexamples: 0\n",
     "check=table_1 scope=7 outcome=pass checked=21 counterexamples=0\n"),
    (("addendum", "--max-range", "3"), "000: 0, (), (0), ()0\n", None),
]

PINNED = [(("--format", "plain", *argv), plain)
          for argv, plain, _ in VERB_OUTPUTS]
PINNED += [(("--format", "lines", *argv), plain if lines is None else lines)
           for argv, plain, lines in VERB_OUTPUTS]
PINNED += [
    (("--translit", "next", "loro"), "llrr\n"),
    (("--translit", "shift-close", "loroooo", "5", "left"),
     "before:    loroooo  index 72\nafter:     lrooooo  index 106\n"
     "predicted: +34\nverified:  +34\nsite:      positions 6, 5\n"),
    (("--translit", "rank", "lrololrro"), "736\n"),
    (("--translit", "unrank", "736"), "lrololrro\n"),
    # the default format, on cases the rows above do not reach: the
    # "equal" verdict, a step across a range's end either way, and a
    # second sequence
    (("cmp", "()0", "()0"), "equal\n"),
    (("next", "()"), "(0)\n"),
    (("prev", "(0)"), "()\n"),
    (("seq", "xi", "6"), "1, 2, 5, 13, 34, 90\n"),
]


@pytest.mark.parametrize("argv, stdout", PINNED,
                         ids=[" ".join(argv[:3]) for argv, _ in PINNED])
def test_every_verb_output_is_pinned(capsys, argv, stdout):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, stdout)


def test_rank_and_unrank(capsys):
    code, out, _ = run_cli(capsys, "rank", "()0(0())0")
    assert code == 0 and out.strip() == "736"
    code, out, _ = run_cli(capsys, "unrank", "736")
    assert code == 0 and out.strip() == "()0(0())0"


def test_shell_round_trip_on_random_words(capsys, row_through):
    words = row_through(10)
    rng = random.Random(99)
    for w in rng.sample(words, 100):
        _, out, _ = run_cli(capsys, "rank", w.text)
        _, out2, _ = run_cli(capsys, "unrank", out.strip())
        assert out2.strip() == w.text


def test_add_prints_index_equation(capsys):
    code, out, _ = run_cli(capsys, "add", "()0000(0)", "(0)0000")
    assert code == 0
    assert out.splitlines() == ["()(0)0(0)", "indexes: 710 + 72 = 782"]


def test_sub(capsys):
    code, out, _ = run_cli(capsys, "sub", "()(0)0(0)", "(0)0000")
    assert code == 0 and out.splitlines()[0] == "()0000(0)"


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "--format", "lines", "decompose", "()(0)0(0)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "part=()0000000 index=708"
    assert lines[-1] == "total=782"


def test_delta_report_output(capsys):
    code, out, _ = run_cli(capsys, "shift-open", "()()()", "6", "2")
    assert code == 0
    assert "before:    ()()()" in out
    assert "after:     (00)()()" in out
    assert "predicted: +106" in out and "verified:  +106" in out
    code, out, _ = run_cli(capsys, "--format", "lines",
                           "shift-close", "(0)0000", "5", "left")
    assert code == 0
    assert out.strip() == ("before=(0)0000 after=()00000 predicted=34 "
                           "verified=34 site=6,5")


def test_polynomial_verbs(capsys):
    assert run_cli(capsys, "xi", "5")[1].strip() == "34"
    assert run_cli(capsys, "zeta", "4", "7")[1].strip() == "149"
    assert run_cli(capsys, "psi", "7")[1].strip() == "456"


def test_range_and_control_points(capsys):
    code, out, _ = run_cli(capsys, "range", "6")
    assert code == 0
    assert out.splitlines() == ["min: (0000)  index 21", "max: ()()()  index 50"]
    code, out, _ = run_cli(capsys, "control-points", "7")
    assert code == 0
    assert "(0())00  index 70" in out and "((0))00  index 88" in out


def test_audit_clean_exit(capsys):
    code, out, _ = run_cli(capsys, "audit", "conjecture_4_3", "--max-range", "8")
    assert code == 0
    assert "outcome: conjecture-holds" in out
    assert "counterexamples: 0" in out


def test_audit_counterexample_exit(capsys, monkeypatch):
    # a discovered counterexample is exit 3, distinct from failure
    def fake_audit(check, scope, workers=1):
        return AuditReport(check, scope, "fail",
                           (Counterexample("(00)", "merge k=2", -2, -3),), 1)

    # the CLI reaches the library through the package
    monkeypatch.setattr(motzkinrow, "audit", fake_audit)
    code, out, _ = run_cli(capsys, "audit", "conjecture_4_3")
    assert code == 3
    assert "outcome: fail" in out


def test_audit_workers_flag(capsys):
    code, out, _ = run_cli(capsys, "audit", "theorem_2_4", "--max-range", "6",
                           "--workers", "2")
    assert code == 0 and "outcome: pass" in out


def test_addendum(capsys):
    code, out, _ = run_cli(capsys, "addendum", "--max-range", "4")
    assert code == 0
    assert out.splitlines()[0] == "000: 0, (), (0), ()0, (00), (0)0, (()), ()00, ()()"


def test_domain_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "add", "(00)", "()0")
    assert code == 1 and "cross" in err
    code, _, err = run_cli(capsys, "prev", "0")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "rank", ")(")
    assert code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "no_such_check"])
    assert exc.value.code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["rank"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("audit", "corollary_3_1", "--max-range", "0"),
    ("audit", "table_1", "--max-range", "4"),
    ("audit", "psi_site_independence", "--max-range", "4"),
    ("audit", "theorem_2_4", "--max-range", "6", "--workers", "0"),
    ("audit", "theorem_2_4", "--max-range", "6", "--workers", "-4"),
])
def test_vacuous_audits_are_domain_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name, value, argv", [
    ("MOTZKINROW_AUDIT_SCOPE", "abc", ("audit", "table_1")),
    ("MOTZKINROW_AUDIT_SCOPE", "0", ("audit", "table_1")),
    ("MOTZKINROW_MAX_WORD_LEN", "0", ("rank", "()")),
    ("MOTZKINROW_MAX_WORD_LEN", "1.5", ("rank", "()")),
    ("MOTZKINROW_ENUM_LIMIT", "-3", ("addendum",)),
])
def test_bad_environment_values_are_usage_errors(capsys, monkeypatch, name,
                                                 value, argv):
    monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be a positive integer, got {value!r}\n"


def test_control_points_past_the_length_limit_is_a_domain_error(capsys,
                                                               monkeypatch):
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "8")
    code, out, err = run_cli(capsys, "control-points", "9")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_next_past_the_length_limit_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("MOTZKINROW_MAX_WORD_LEN", "1")
    code, out, err = run_cli(capsys, "next", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_xi_past_the_length_limit_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "xi", "5000")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _cap_memory():
    # 1 GB of address space: a table that grows without bound fails fast
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _fresh_cli(*argv, max_word_len=None):
    """Run the CLI in a fresh, memory-capped process: (exit code, stdout,
    stderr)."""
    env = dict(os.environ)
    env.pop("MOTZKINROW_MAX_WORD_LEN", None)
    if max_word_len is not None:
        env["MOTZKINROW_MAX_WORD_LEN"] = str(max_word_len)
    proc = subprocess.run([sys.executable, "-m", "motzkinrow", *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_cap_memory)
    return proc.returncode, proc.stdout, proc.stderr


def _one_error_line(err):
    return (err.startswith("error: ") and len(err.splitlines()) == 1
            and "Traceback" not in err)


def test_seq_motzkin_past_the_length_limit_is_a_domain_error():
    # its last term would count words of length 2999999: the count is
    # refused before the table grows
    code, out, err = _fresh_cli("seq", "motzkin", "3000000")
    assert (code, out) == (1, "")
    assert _one_error_line(err) and "exceeds the configured maximum" in err


def test_indexes_past_4300_digits_are_read_and_printed():
    # M[10000] has 4766 digits, past CPython's default limit on int <-> str
    # conversion, which the CLI lifts; the word-length limit bounds indexes
    m = [1, 1]
    for n in range(2, 10001):
        m = [m[1], ((2 * n + 1) * m[1] + 3 * (n - 1) * m[0]) // (n + 2)]
    code, out, err = _fresh_cli("rank", "()" * 5000, max_word_len=20000)
    assert (code, err) == (0, "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"{m[1] - 1}\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    # a 5000-digit index is too large for the default limit: a domain
    # error, as for a shorter index that is too large, not a usage error
    code, out, err = _fresh_cli("unrank", "9" * 5000)
    assert (code, out) == (1, "")
    assert _one_error_line(err) and "needs a word longer" in err
    assert len(err) < 200 and "configured maximum 4096" in err


def test_audit_past_the_enumeration_limit_fails_before_any_range():
    # the sweep of ranges 2..15 alone would take far longer
    start = time.monotonic()
    code, out, err = _fresh_cli("audit", "corollary_3_1", "--max-range", "16")
    assert (code, out) == (1, "")
    assert _one_error_line(err) and "range 16 exceeds the enumeration limit" in err
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("offset", ["99999999999999999999", "10000000000"])
def test_a_drift_past_the_length_limit_is_refused_before_the_word_grows(offset):
    # the drift's new length is read before the text is padded out to it:
    # neither a 20-digit offset nor a 10 GB word reaches the padding
    code, out, err = _fresh_cli("shift-open", "()", "2", offset)
    assert (code, out) == (1, "")
    assert err == (f"error: word length {int(offset) + 2} exceeds the "
                   "configured maximum 4096\n")


def test_bad_environment_value_spares_verbs_that_do_not_read_it(capsys,
                                                                 monkeypatch):
    monkeypatch.setenv("MOTZKINROW_AUDIT_SCOPE", "abc")
    assert run_cli(capsys, "rank", "()") == (0, "1\n", "")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "motzkinrow", "rank", "(0000)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "21"


def test_closed_stdout_pipe_ends_the_output_quietly():
    # a reader that stops early, as in "| head -1", is not a domain error:
    # the verb keeps exit code 0 and writes nothing to stderr.  The output
    # (about 2 MB) is far larger than a pipe buffer, so the write is still
    # under way when the pipe closes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "motzkinrow", "--format", "lines", "seq",
         "motzkin", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"value=1\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_cli_import_leaves_out_the_process_pool():
    # only audit with several workers needs concurrent.futures; importing
    # it on every start would cost each CLI call a third of its import time
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, motzkinrow.cli; "
         "print(sorted(m for m in ('concurrent.futures.process', "
         "'multiprocessing') if m in sys.modules))"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


# --- help ------------------------------------------------------------------

# Each verb's arguments as its --help lists them: a positional by name, or
# by its choices in braces, and an option by its flag.
SEQUENCES = "{motzkin,unique,xi,zeta_adjacent,psi}"
CHECKS = ("{rank_roundtrip,order_agreement,theorem_2_4,corollary_3_1,"
          "corollary_3_3,corollary_4_1,conjecture_4_3,psi_site_independence,"
          "table_1,paper_examples}")
VERB_ARGUMENTS = {
    "rank": ["word"], "unrank": ["index"], "next": ["word"],
    "prev": ["word"], "cmp": ["left", "right"], "add": ["left", "right"],
    "sub": ["left", "right"], "decompose": ["word"],
    "shift-open": ["word", "position", "offset"],
    "shift-close": ["word", "position", "{left,right}"],
    "remove-pair": ["word", "open_pos", "close_pos"],
    "insert-pair": ["word", "open_pos", "close_pos"],
    "merge": ["word", "position"], "split": ["word", "position"],
    "swap": ["word", "position"], "xi": ["k"], "zeta": ["k", "l"],
    "psi": ["k"], "range": ["length"], "control-points": ["length"],
    "seq": [SEQUENCES, "count"],
    "audit": [CHECKS, "--max-range", "--workers"],
    "addendum": ["--max-range"],
}


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    return out


def _listed(out):
    # the first word of each entry line; wrapped help text is indented
    # further
    return re.findall(r"^ {2,4}(\S+)", out, re.M)


def test_help_lists_every_verb(capsys):
    verbs = [name for name, *_ in cli._VERBS]
    assert len(verbs) == 23 and set(verbs) == set(VERB_ARGUMENTS)
    assert set(verbs) <= set(_listed(_help(capsys)))


@pytest.mark.parametrize("verb", VERB_ARGUMENTS)
def test_verb_help_lists_every_argument(capsys, verb):
    # the arguments are added only when argparse dispatches to the verb
    out = _help(capsys, verb)
    assert out.startswith(f"usage: motzkinrow {verb} [-h]")
    listed = set(_listed(out)) - {"-h,"}
    assert sorted(listed) == sorted(VERB_ARGUMENTS[verb])


# --- limits ------------------------------------------------------------------

def _motzkin_4096():
    m = [1, 1]
    for n in range(2, 4097):
        m = [m[1], ((2 * n + 1) * m[1] + 3 * (n - 1) * m[0]) // (n + 2)]
    return m[1]


LONG = "(" + "0" * 4095 + ")"  # 4097 symbols
BIG = "99999999999999999999"
BIG_1 = "99999999999999999998"

# (arguments, exit code): every verb with the first argument past its
# limit (a word or position of length 4097, the first index of range 4097,
# range 16 for the enumerating checks) and with 20-digit numbers
LIMIT_CALLS = [
    *[((verb, LONG), 1) for verb in ("rank", "next", "prev", "decompose")],
    *[((verb, *pair), 1) for verb in ("cmp", "add", "sub")
      for pair in ((LONG, "()"), ("()", LONG))],
    (("shift-open", LONG, "4097", "1"), 1),
    (("shift-open", "()", "4097", "1"), 1),
    (("shift-open", "()", "2", "4095"), 1),
    (("shift-open", "()", BIG, "1"), 1),
    (("shift-open", "(0)", "3", "-" + BIG), 1),
    (("shift-close", LONG, "1", "right"), 1),
    (("shift-close", "()", "4097", "left"), 1),
    (("shift-close", "()", BIG, "left"), 1),
    *[((verb, word, *pair), 1) for verb in ("remove-pair", "insert-pair")
      for word, pair in ((LONG, ("2", "3")), ("(0)", ("4096", "4097")),
                         ("(0)", (BIG_1, BIG)))],
    *[((verb, *args), 1) for verb in ("merge", "split", "swap")
      for args in ((LONG, "2"), ("()", "4097"), ("()", BIG))],
    (("xi", "4095"), 1), (("xi", BIG), 1),
    (("zeta", "4095", "4096"), 1), (("zeta", BIG_1, BIG), 1),
    (("psi", "4094"), 1), (("psi", BIG), 1),
    *[((verb, n), 1) for verb in ("range", "control-points")
      for n in ("4097", BIG)],
    *[(("seq", name, count), 1)
      for name, past in (("motzkin", "4098"), ("unique", "4097"),
                         ("xi", "4095"), ("zeta_adjacent", "4094"),
                         ("psi", "4093"))
      for count in (past, BIG)],
    (("unrank", str(_motzkin_4096())), 1),
    (("unrank", BIG), 0),
    *[(("audit", check, "--max-range", "16"), 0 if check == "table_1" else 1)
      for check in CHECKS[1:-1].split(",")],
    (("audit", "table_1", "--max-range", "4097"), 1),
    (("audit", "table_1", "--max-range", BIG), 1),
    (("audit", "order_agreement", "--max-range", "6", "--workers", BIG), 0),
    (("addendum", "--max-range", "16"), 1),
    (("addendum", "--max-range", BIG), 1),
]


@pytest.mark.parametrize(
    "argv, code", LIMIT_CALLS,
    ids=[" ".join(a if len(a) < 24 else f"<{len(a)}>" for a in argv)
         for argv, _ in LIMIT_CALLS])
def test_arguments_past_a_limit_end_cleanly(argv, code):
    # each call ends with its exit code and, on an error, one error line;
    # none took over 0.2 s on a 2-CPU host, interpreter start included
    start = time.monotonic()
    got, out, err = _fresh_cli(*argv)
    assert time.monotonic() - start < 5
    assert got == code
    if code:
        assert out == "" and _one_error_line(err)
    else:
        assert err == ""


def test_a_disagreeing_delta_is_noted_on_stderr(capsys, monkeypatch):
    # the plain format notes a disagreeing delta of a nav._UNPROVEN row; the
    # machine format carries both deltas and no note
    from motzkinrow import nav

    symbols, depth, written, predict, move, site = nav._SHAPES["merge_adjacent"]
    monkeypatch.setitem(nav._SHAPES, "merge_adjacent", (
        symbols, depth, written, lambda p, q: predict(p, q) + 1, move, site))
    code, out, err = run_cli(capsys, "merge", "(0)()00", "4")
    assert code == 0 and "predicted: -8\nverified:  -9\n" in out
    assert err == "note: predicted and verified deltas disagree\n"
    code, out, err = run_cli(capsys, "--format", "lines", "merge", "(0)()00", "4")
    assert code == 0 and " predicted=-8 verified=-9 " in out and err == ""
