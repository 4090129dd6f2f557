"""The three workloads: their inputs, one round of operations, the output
checks of a round and the per-layer figures of a traced round.

Inputs come from the seed alone.  A round is a fixed list of operations,
so every run attempts whole rounds of the same operations.  The program is
imported in `setup`, which the caller times; nothing here imports it at
module level.
"""

import importlib
import re
import resource
import subprocess
import sys
from random import Random
from statistics import median

import oracle
from oracle import CheckFailed, expect
from spans import bind

LENGTHS = (16, 64, 256, 1024, 2048)
SHAPES = ("flat", "walk", "nest")
AUDIT_SCOPE = 12
CHECKS = ("rank_roundtrip", "order_agreement", "theorem_2_4", "corollary_3_1",
          "corollary_3_3", "corollary_4_1", "conjecture_4_3",
          "psi_site_independence", "table_1", "paper_examples")
MOVES = ("shift_open", "shift_close", "remove_pair", "insert_pair",
         "merge_adjacent", "split_block", "swap_across_zero")

LAYERS = {
    "bigcomb": ("motzkinrow.bigcomb", ("motzkin", "completions")),
    "word": ("motzkinrow.word", ("parse", "outer_blocks")),
    "rowindex": ("motzkinrow.rowindex", ("rank", "unrank", "successor",
                                         "predecessor", "compare")),
    "blockops": ("motzkinrow.blockops", ("add", "sub", "noncrossing",
                                         "decompose_sum")),
    "nav": ("motzkinrow.nav", MOVES),
    "verify": ("motzkinrow.verify", ("audit", "enumerate_range")),
}


class LibraryLayers:
    """Binds the library layers once untraced (`raw`, used by checks and
    untraced rounds) and, in a traced process, once traced."""

    def bind(self, tracer):
        modules = {layer: (importlib.import_module(mod), names)
                   for layer, (mod, names) in LAYERS.items()}
        self.raw = bind(modules)
        self.traced = tracer and bind(modules, tracer)
        return self.traced or self.raw

    def peak_rss_mb(self):
        return peak_rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# word generation
# ---------------------------------------------------------------------------

# Four outer blocks that give every navigation move a valid site: depth-1
# zeros and an inner "()" in the first block (insert_pair, split_block,
# shift_open right, shift_close left), one zero before the second block
# (swap_across_zero), the third block touching the second (merge_adjacent),
# and a zero gap before the block that follows (remove_pair, shift_close
# right).
SKELETON = "(00()0)0()()00"


def walk(rng, m, depth=0):
    """Random Motzkin path of length m from depth back to 0."""
    out = []
    for r in range(m, 0, -1):
        ch = rng.choice([c for c, d in (("0", depth), ("(", depth + 1),
                                        (")", depth - 1)) if 0 <= d <= r - 1])
        out.append(ch)
        depth += (ch == "(") - (ch == ")")
    return "".join(out)


def filler(rng, m, shape):
    """Blocks of total length m >= 2, starting with "(".

    flat: m/40 blocks of equal length with zero gaps; walk: one block
    whose depth takes a random walk; nest: one block of depth m/4 with
    zeros scattered through it.  Block counts and lengths do not depend on
    the seed, so neither does the work of decompose_sum.
    """
    if shape == "flat":
        count = max(1, m // 40)
        parts = []
        for size in (m // count + (i < m % count) for i in range(count)):
            gap = rng.randint(0, min(2, size - 2))
            parts.append("(" + walk(rng, size - gap - 2) + ")" + "0" * gap)
        return "".join(parts)
    if shape == "walk":
        return "(" + walk(rng, m - 2) + ")"
    depth = max(1, m // 4)
    chars = list("(" * depth + ")" * depth)
    for _ in range(m - 2 * depth):
        chars.insert(rng.randint(1, len(chars)), "0")
    return "".join(chars)


def make_word(rng, length, shape):
    """SKELETON followed by blocks of the given shape, `length` in all."""
    return SKELETON + filler(rng, length - len(SKELETON), shape)


def split_blocks(rng, text):
    """Two noncrossing words x, y whose overlay is text."""
    blocks = oracle.outer_blocks(text)
    mine = {b for b in blocks if rng.random() < 0.5}
    if len(mine) in (0, len(blocks)):
        mine ^= {blocks[0]}
    return (oracle.keep_blocks(text, mine),
            oracle.keep_blocks(text, set(blocks) - mine))


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# long_words
# ---------------------------------------------------------------------------


class LongWords(LibraryLayers):
    """Library calls on generated words of lengths 16..2048."""

    setup_samples = 3

    def __init__(self, seed):
        rng = Random(seed)
        self.M = oracle.motzkin_numbers(max(LENGTHS) + 1)
        self.items = []
        for length in LENGTHS:
            for shape in SHAPES:
                text = make_word(rng, length, shape)
                x, y = split_blocks(rng, text)
                sites = oracle.move_sites(text)
                expect(len(sites) == len(MOVES) + 1, "skeleton lost a site")
                self.items.append({
                    "text": text, "tag": f"len{length}", "x": x, "y": y,
                    "index": rng.randrange(self.M[length - 1], self.M[length]),
                    "sites": sites,
                })
        self.longest = max((it["text"] for it in self.items), key=len)

    def setup(self, tracer):
        """Import, grow the Motzkin and completion tables to the longest
        length, and rank the longest word."""
        api = self.bind(tracer)
        top = max(LENGTHS)
        api.motzkin(top)
        api.completions(top, 0)
        api.rank(self.longest)

    def round(self, ph, checking):
        api, call = ph.api, ph.call
        for it in self.items:
            with ph.span("word", it["tag"]):
                w = call(api.parse, it["text"])
                r = call(api.rank, w)
                u = call(api.unrank, it["index"])
                s = call(api.successor, w)
                p = call(api.predecessor, s)
                c = call(api.compare, w, u)
                nc = call(api.noncrossing, it["x"], it["y"])
                z = call(api.add, it["x"], it["y"])
                back = call(api.sub, z, it["y"])
                ds = call(api.decompose_sum, w)
                reps = [call(getattr(api, mv), w, *args)
                        for mv, args in it["sites"]]
            if checking:
                self.check(it, w, r, u, s, p, c, nc, z, back, ds, reps)

    def check(self, it, w, r, u, s, p, c, nc, z, back, ds, reps):
        """Every check whose outputs exist; a failed operation (None) is
        counted as failed, not checked."""
        rank, M, text = self.raw.rank, self.M, it["text"]
        n = len(text)

        def have(*outputs):
            return all(out is not None for out in outputs)

        oracle.check_range_ends(M, n, rank("(" + "0" * (n - 2) + ")"),
                                rank("()" * (n // 2) + "0" * (n % 2)))
        if have(w):
            expect(w.text == text, f"parse changed {text[:40]!r}")
        if have(r):
            expect(oracle.length_of_index(M, r) == n,
                   f"rank of a {n}-word is {r}, outside [M(n-1), M(n))")
        if have(u):
            oracle.check_unrank(M, it["index"], u.text, rank(u))
        if have(r, s, p):
            oracle.check_successor(text, s.text, r, rank(s), p.text)
        if have(r, c):
            oracle.check_compare(c, r, it["index"])
        if have(nc):
            expect(nc is True, "a block split of one word reads as crossing")
        if have(z, back):
            expect(z.text == text, "add of a block split is not the word")
            oracle.check_sum(it["x"], it["y"], z.text, rank(it["x"]),
                             rank(it["y"]), rank(z), back.text)
        if have(r, ds):
            oracle.check_decompose(text, [q.text for q in ds[0]], ds[1], r)
        for (mv, args), rep in zip(it["sites"], reps):
            if have(r, rep):
                expect(rep.before.text == text,
                       f"{mv} report names another word")
                oracle.check_move(mv, args, text, rep.after.text,
                                  rep.predicted_delta, rep.verified_delta, r,
                                  rank(rep.after), M)

    def extras(self, ph):
        """Nothing beyond the traced rounds."""

    def layer_metrics(self, tracer):
        us = 1e6
        out = {
            "bigcomb.motzkin_cold_s": (tracer.median_of("bigcomb.motzkin"), "s"),
            "bigcomb.completions_cold_s":
                (tracer.median_of("bigcomb.completions"), "s"),
            "word.parse_us": (tracer.median_of("word.parse", scale=us), "us"),
        }
        for op in ("rank", "unrank", "successor", "predecessor", "compare"):
            for length in LENGTHS:
                out[f"rowindex.{op}_us.len{length}"] = (tracer.median_of(
                    f"rowindex.{op}", f"len{length}", us), "us")
        for op in ("add", "sub", "noncrossing", "decompose_sum"):
            out[f"blockops.{op}_us"] = (
                tracer.median_of(f"blockops.{op}", scale=us), "us")
        for mv in MOVES:
            out[f"nav.{mv}_us"] = (tracer.median_of(f"nav.{mv}", scale=us), "us")
        return out


def alloc_peak_mb(seed):
    """tracemalloc peak of the long_words set-up, in a fresh process."""
    import tracemalloc

    workload = LongWords(seed)
    tracemalloc.start()
    workload.setup(None)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


# ---------------------------------------------------------------------------
# audit_sweep
# ---------------------------------------------------------------------------


class AuditSweep(LibraryLayers):
    """All ten audit checks at scope 12, one worker, repeated."""

    setup_samples = 5
    probe_words = 300

    def __init__(self, seed):
        self.rng = Random(seed)
        self.order = list(CHECKS)
        self.rng.shuffle(self.order)
        self.row = oracle.Row(AUDIT_SCOPE + 2)
        self.counts = {}

    def setup(self, tracer):
        """Import and the first oracle enumeration."""
        self.bind(tracer).enumerate_range(AUDIT_SCOPE)

    def round(self, ph, checking):
        for check in self.order:
            with ph.span("audit", check):
                rep = ph.call(ph.api.audit, check, AUDIT_SCOPE)
            if checking and rep is not None:
                expect(rep.check_name == check and rep.scope == AUDIT_SCOPE,
                       f"audit {check} reports {rep.check_name}/{rep.scope}")
                oracle.check_audit(check, AUDIT_SCOPE, rep.outcome, rep.counts,
                                   len(rep.counterexamples), self.row.M)
                self.counts[check] = rep.counts
        if checking:
            for n in range(1, AUDIT_SCOPE + 1):
                oracle.check_enumeration(
                    self.row, n, [w.text for w in self.raw.enumerate_range(n)])

    def extras(self, ph):
        """Short-word layer probes, warm enumerations and one two-worker
        audit, all traced and all checked."""
        api, call, row = ph.api, ph.call, self.row
        for _ in range(3):
            with ph.span("enumerate", "range12"):
                call(api.enumerate_range, AUDIT_SCOPE)
        ranges = [api.enumerate_range(n) for n in range(2, AUDIT_SCOPE + 1)]
        for _ in range(self.probe_words):
            w = self.rng.choice(self.rng.choice(ranges))
            text, n = w.text, len(w.text)
            before = ph.failures
            with ph.span("probe", "short"):
                blocks = call(api.outer_blocks, w)
                r = call(api.rank, w)
                sites = oracle.move_sites(text)
                reps = [call(getattr(api, mv), w, *args) for mv, args in sites]
            if ph.failures != before:
                continue
            expect([(b.open_pos, b.close_pos) for b in blocks]
                   == [(n - a, n - c) for a, c in oracle.outer_blocks(text)],
                   f"outer_blocks({text!r}) differs from the own scan")
            expect(r == row.rank(text), f"rank({text!r}) = {r}")
            for (mv, args), rep in zip(sites, reps):
                oracle.check_move(mv, args, text, rep.after.text,
                                  rep.predicted_delta, rep.verified_delta,
                                  row.rank(text), row.rank(rep.after.text),
                                  row.M, row.psi)
        with ph.span("audit", "workers2"):
            rep = call(api.audit, "corollary_3_1", AUDIT_SCOPE, 2)
        if rep is not None:
            oracle.check_audit("corollary_3_1", AUDIT_SCOPE, rep.outcome,
                               rep.counts, len(rep.counterexamples), row.M)

    def layer_metrics(self, tracer):
        us = 1e6
        out = {
            "word.outer_blocks_us":
                (tracer.median_of("word.outer_blocks", "short", us), "us"),
            "rowindex.rank_us.short":
                (tracer.median_of("rowindex.rank", "short", us), "us"),
            "verify.enumerate_range_s":
                (tracer.median_of("verify.enumerate_range", "range12"), "s"),
            "verify.audit_workers2_s.corollary_3_1":
                (tracer.median_of("verify.audit", "workers2"), "s"),
        }
        for mv in MOVES:
            out[f"nav.{mv}_us.short"] = (
                tracer.median_of(f"nav.{mv}", "short", us), "us")
        for check in CHECKS:
            seconds = tracer.median_of("verify.audit", check)
            out[f"verify.audit_s.{check}"] = (seconds, "s")
            out[f"verify.checked_per_s.{check}"] = (self.counts[check] / seconds,
                                                    "1/s")
        return out


# ---------------------------------------------------------------------------
# cli_verbs
# ---------------------------------------------------------------------------

_TO_TRANSLIT = str.maketrans("0()", "olr")
_FROM_TRANSLIT = str.maketrans("olr", "0()")


class CliVerbs:
    """`python -m motzkinrow` as a subprocess over a fixed mix of verbs."""

    setup_samples = 5

    def __init__(self, seed):
        rng = Random(seed)
        row = self.row = oracle.Row(26)
        self.M = row.M
        short = [w for w in row.words if 4 <= len(w) <= 10]
        multi = [w for w in short if len(oracle.outer_blocks(w)) >= 2]
        medium = make_word(rng, rng.randint(16, 24), "walk")
        sites = dict(((mv, args[-1]) if mv == "shift_close" else (mv, ""), args)
                     for mv, args in oracle.move_sites(medium))
        host = rng.choice(multi)
        pair = split_blocks(rng, host)
        mid_pair = split_blocks(rng, medium)
        names = ["motzkin", "unique", "xi", "zeta_adjacent", "psi"]
        rng.shuffle(names)
        k = rng.randint(2, 13)
        plain, lines, translit = [], ["--format", "lines"], ["--translit"]

        def site(mv, key=""):
            return [medium] + [str(a) for a in sites[(mv, key)]]

        self.mix = [
            ("rank", plain, [rng.choice(short)]),
            ("rank", translit, [rng.choice(short)]),
            ("rank", plain, [make_word(rng, rng.randint(16, 26), "flat")]),
            ("unrank", plain, [str(rng.randrange(1, self.M[10]))]),
            ("unrank", translit, [str(rng.randrange(self.M[15], self.M[24]))]),
            ("next", plain, [rng.choice(short)]),
            ("prev", plain, [rng.choice(short)]),
            ("cmp", plain, [rng.choice(short), rng.choice(short)]),
            ("add", plain, list(pair)),
            ("add", lines, list(mid_pair)),
            ("sub", plain, [host, pair[1]]),
            ("sub", translit, [medium, mid_pair[0]]),
            ("decompose", plain, [rng.choice(multi)]),
            ("decompose", lines, [medium]),
            ("shift-open", plain, site("shift_open")),
            ("shift-close", plain, site("shift_close", "left")),
            ("shift-close", lines, site("shift_close", "right")),
            ("remove-pair", plain, site("remove_pair")),
            ("insert-pair", translit, site("insert_pair")),
            ("merge", plain, site("merge_adjacent")),
            ("split", lines, site("split_block")),
            ("swap", plain, site("swap_across_zero")),
            ("xi", plain, [str(rng.randint(1, 20))]),
            ("zeta", plain, [str(k), str(rng.randint(k + 1, 20))]),
            ("psi", plain, [str(rng.randint(2, 20))]),
            ("range", plain, [str(rng.randint(3, 24))]),
            ("range", lines, [str(rng.randint(3, 24))]),
            ("control-points", plain, [str(rng.randint(5, 22))]),
            ("control-points", lines, [str(rng.randint(5, 22))]),
            ("seq", plain, [names[0], str(rng.randint(5, 12))]),
            ("seq", lines, [names[1], str(rng.randint(5, 12))]),
            ("audit", plain, ["paper_examples"]),
            ("audit", lines, ["paper_examples"]),
            ("addendum", plain, ["--max-range", str(rng.randint(5, 9))]),
        ]

    def argv(self, verb, options, args):
        if options == ["--translit"]:
            args = [a.translate(_TO_TRANSLIT) if oracle.is_word(a) else a
                    for a in args]
        return [sys.executable, "-m", "motzkinrow", *options, verb, *args]

    def run_cli(self, argv):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"{argv[3:]} exited {done.returncode}: "
                               f"{done.stderr.strip()[-300:]}")
        return done.stdout

    def peak_rss_mb(self):
        """The largest of the CLI processes."""
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def setup(self, tracer):
        """The first invocation of the mix."""
        self.raw = bind({"cli": (self, ("run_cli",))})
        self.traced = tracer and bind({"cli": (self, ("run_cli",))}, tracer)
        (self.traced or self.raw).run_cli(self.argv(*self.mix[0]))

    def round(self, ph, checking):
        for verb, options, args in self.mix:
            with ph.span("verb", verb):
                out = ph.call(ph.api.run_cli, self.argv(verb, options, args))
            if checking and out is not None:
                check_cli(self.row, verb, options, args, out)

    def extras(self, ph):
        """The interpreter floor and the in-process import time."""
        self.import_ms = []
        for _ in range(5):
            with ph.span("python", "startup"):
                ph.call(self.run_cli, [sys.executable, "-c", "pass"])
            with ph.span("python", "import"):
                out = ph.call(self.run_cli, [
                    sys.executable, "-c",
                    "import time; t = time.perf_counter(); "
                    "import motzkinrow.cli; "
                    "print((time.perf_counter() - t) * 1e3)"])
            if out is not None:
                self.import_ms.append(float(out))

    def layer_metrics(self, tracer):
        out = {
            "cli.python_startup_ms":
                (tracer.median_of("python", tag="startup", scale=1e3), "ms"),
            "cli.import_ms": (median(self.import_ms), "ms"),
        }
        for verb in sorted({v for v, _, _ in self.mix}):
            out[f"cli.verb_ms.{verb}"] = (
                tracer.median_of("cli.run_cli", verb, 1e3), "ms")
        return out


WORKLOADS = {"long_words": LongWords, "audit_sweep": AuditSweep,
             "cli_verbs": CliVerbs}


# ---------------------------------------------------------------------------
# checks of CLI output, by parsing stdout
# ---------------------------------------------------------------------------

_CLI_MOVES = {"shift-open": "shift_open", "shift-close": "shift_close",
              "remove-pair": "remove_pair", "insert-pair": "insert_pair",
              "merge": "merge_adjacent", "split": "split_block",
              "swap": "swap_across_zero"}


def _fields(line):
    return dict(tok.split("=", 1) for tok in line.split())


def _sequence(row, name, count):
    M = row.M
    return {
        "motzkin": lambda: M[:count],
        "unique": lambda: [1] + [M[n] - M[n - 1] for n in range(2, count + 1)],
        "xi": lambda: [oracle.xi(M, k) for k in range(1, count + 1)],
        "zeta_adjacent": lambda: [oracle.zeta(M, k, k + 1)
                                  for k in range(2, count + 2)],
        "psi": lambda: [row.psi(k) for k in range(2, count + 2)],
    }[name]()


def check_cli(row, verb, options, args, stdout):
    """Parse one verb's stdout and check it against the own arithmetic.
    Raises CheckFailed."""
    lines_fmt = "lines" in options
    untr = (lambda w: w.translate(_FROM_TRANSLIT)) if "--translit" in options \
        else (lambda w: w)
    out = stdout.splitlines()
    R, M = row.rank, row.M
    label = f"{' '.join(options)} {verb} {' '.join(args)}"
    try:
        if verb == "rank":
            expect(int(out[0]) == R(args[0]), f"{label}: {out[0]}")
        elif verb == "unrank":
            expect(R(untr(out[0])) == int(args[0]), f"{label}: {out[0]}")
        elif verb in ("next", "prev"):
            step = 1 if verb == "next" else -1
            expect(R(untr(out[0])) == R(args[0]) + step, f"{label}: {out[0]}")
        elif verb == "cmp":
            a, b = R(args[0]), R(args[1])
            want = {-1: "less", 0: "equal", 1: "greater"}[(a > b) - (a < b)]
            expect(out == [want], f"{label}: {out}")
        elif verb in ("add", "sub"):
            x, y = args
            if lines_fmt:
                f = _fields(out[0])
                result, left, right, total = (untr(f["result"]), int(f["left"]),
                                              int(f["right"]), int(f["total"]))
            else:
                result = untr(out[0])
                nums = re.fullmatch(r"indexes: (\d+) [-+] (\d+) = (\d+)", out[1])
                left, right, total = map(int, nums.groups())
            sign = 1 if verb == "add" else -1
            expect((left, right, total) == (R(x), R(y), R(x) + sign * R(y))
                   and R(result) == total, f"{label}: {out}")
        elif verb == "decompose":
            if lines_fmt:
                parts = [_fields(line) for line in out[:-1]]
                parts = [(untr(p["part"]), int(p["index"])) for p in parts]
                total = int(_fields(out[-1])["total"])
            else:
                parts = [(p.split()[0], int(p.split()[-1])) for p in out[:-1]]
                total = int(out[-1].split(":")[1])
            want = oracle.extended_blocks(args[0])
            expect([p for p, _ in parts] == want
                   and [i for _, i in parts] == [R(p) for p in want]
                   and total == R(args[0]), f"{label}: {out}")
        elif verb in _CLI_MOVES:
            move = _CLI_MOVES[verb]
            word, nums = args[0], args[1:]
            margs = tuple(int(a) if a.lstrip("-").isdigit() else a for a in nums)
            if lines_fmt:
                f = _fields(out[0])
                before, after = untr(f["before"]), untr(f["after"])
                predicted, verified = int(f["predicted"]), int(f["verified"])
            else:
                before, ib = untr(out[0].split()[1]), int(out[0].split()[-1])
                after, ia = untr(out[1].split()[1]), int(out[1].split()[-1])
                predicted, verified = int(out[2].split()[1]), int(out[3].split()[1])
                expect((ib, ia) == (R(before), R(after)), f"{label}: indexes")
            expect(before == word, f"{label}: before {before}")
            oracle.check_move(move, margs, word, after, predicted, verified,
                              R(word), R(after), M, row.psi)
        elif verb in ("xi", "zeta", "psi"):
            k = [int(a) for a in args]
            want = {"xi": lambda: oracle.xi(M, *k),
                    "zeta": lambda: oracle.zeta(M, *k),
                    "psi": lambda: row.psi(*k)}[verb]()
            expect(out == [str(want)], f"{label}: {out}")
        elif verb == "range":
            n = int(args[0])
            got = [(_fields(line)[key], int(_fields(line)["index"]))
                   for line, key in zip(out, ("min", "max"))] if lines_fmt else \
                [(line.split()[1], int(line.split()[-1])) for line in out]
            expect(len(got) == 2 and [len(w) for w, _ in got] == [n, n]
                   and [(R(w), i) for w, i in got] == [(M[n - 1], M[n - 1]),
                                                      (M[n] - 1, M[n] - 1)],
                   f"{label}: {out}")
        elif verb == "control-points":
            n = int(args[0])
            if lines_fmt:
                got = [(f["word"], int(f["index"])) for f in map(_fields, out)]
            else:
                got = [(line.split()[1], int(line.split()[-1])) for line in out]
            indexes = [i for _, i in got]
            expect(len(got) == 7 and all(len(w) == n and R(w) == i
                                         for w, i in got)
                   and indexes == sorted(indexes)
                   and indexes[0] == M[n - 1] and indexes[-1] == M[n] - 1,
                   f"{label}: {out}")
        elif verb == "seq":
            name, count = args[0], int(args[1])
            got = [int(_fields(line)["value"]) for line in out] if lines_fmt \
                else [int(v) for v in out[0].split(", ")]
            expect(got == _sequence(row, name, count), f"{label}: {got}")
        elif verb == "audit":
            f = _fields(out[0]) if lines_fmt else dict(
                line.split(": ", 1) for line in out)
            expect(f["outcome"] == "pass" and int(f["checked"]) > 0
                   and int(f["counterexamples"]) == 0, f"{label}: {out}")
        elif verb == "addendum":
            top = int(args[1])
            want = [w for w in row.words if len(w) <= top]
            got, at = [], 0
            for line in out:
                start, words = line.split(": ", 1)
                expect(int(start) == at, f"{label}: line starts at {start}")
                got.extend(words.split(", "))
                at = len(got)
            expect(got == want, f"{label}: listing differs from brute force")
        else:
            raise CheckFailed(f"no check for verb {verb!r}")
    except (IndexError, KeyError, ValueError, AttributeError) as exc:
        raise CheckFailed(f"{label}: unparsable output {out!r} ({exc})")
