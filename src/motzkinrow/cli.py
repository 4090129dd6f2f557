"""Command line surface for the row.

Words are written with the characters '0', '(' and ')'; since brackets
need shell quoting, --translit switches the word alphabet to o/l/r
(o = 0, l = '(', r = ')') for quote-free scripting.  Positions given on
the command line are 1-based and counted from the RIGHT end of the word.

Exit codes: 0 success, 1 domain error (bad site, crossing words, ...),
2 usage error (including a bad MOTZKINROW_* value), 3 an audit found a
counterexample.
"""

import argparse
import os
import sys

import motzkinrow as lib

from . import config
from .errors import ConfigError, MotzkinError

_FROM_TRANSLIT = str.maketrans("olr", "0()")
_TO_TRANSLIT = str.maketrans("0()", "olr")


def _decode(ns, text):
    return text.translate(_FROM_TRANSLIT) if ns.translit else text


def _encode(ns, word):
    text = str(word)
    return text.translate(_TO_TRANSLIT) if ns.translit else text


def _write(text):
    """Write text to stdout.  A reader that closed the pipe early ends the
    output, not the verb: stdout then points at os.devnull, so the rest of
    the output and the exit-time flush go nowhere and the exit code stands."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(*lines):
    _write("".join(f"{line}\n" for line in lines))


# --- output shapes: each prints one kind of result in the chosen format ---


def _value(ns, value):
    _emit(value)


def _word(ns, word):
    _emit(_encode(ns, word))


def _equation(ns, result):
    x, op, y, z = result
    i, j, k = map(lib.rank, (x, y, z))
    if ns.format == "lines":
        _emit(f"result={_encode(ns, z)} left={i} right={j} total={k}")
    else:
        _emit(_encode(ns, z), f"indexes: {i} {op} {j} = {k}")


def _decomposition(ns, result):
    parts, total = result
    rows = [(_encode(ns, p), lib.rank(p)) for p in parts]
    if ns.format == "lines":
        _emit(*(f"part={w} index={i}" for w, i in rows), f"total={total}")
    else:
        _emit(*(f"{w}  index {i}" for w, i in rows), f"index sum: {total}")


def _delta(ns, rep):
    if ns.format == "lines":
        _emit(f"before={_encode(ns, rep.before)} after={_encode(ns, rep.after)} "
              f"predicted={rep.predicted_delta} verified={rep.verified_delta} "
              f"site={','.join(map(str, rep.site))}")
    else:
        _emit(f"before:    {_encode(ns, rep.before)}  index {lib.rank(rep.before)}",
              f"after:     {_encode(ns, rep.after)}  index {lib.rank(rep.after)}",
              f"predicted: {rep.predicted_delta:+d}",
              f"verified:  {rep.verified_delta:+d}",
              f"site:      positions {', '.join(map(str, rep.site))}")
        if not rep.agrees:
            print("note: predicted and verified deltas disagree", file=sys.stderr)


def _listing(plain, lines):
    """Rows of (name, word, index), one line each."""
    def show(ns, rows):
        form = lines if ns.format == "lines" else plain
        for name, word, index in rows:
            _emit(form.format(name=name, word=_encode(ns, word), index=index))
    return show


def _sequence(ns, values):
    if ns.format == "lines":
        _emit(*(f"value={v}" for v in values))
    else:
        _emit(", ".join(map(str, values)))


def _audit(ns, rep):
    _emit(lib.report_lines(rep) if ns.format == "lines"
          else lib.report_text(rep))
    return 3 if rep.counterexamples else 0


def _text(ns, text):
    _write(text)


# --- the verbs -------------------------------------------------------------
#
# (name, help, library call, output shape, arguments).  An argument given
# by name alone is a word, read through --translit; the others are (name or
# flag, argparse keywords or a function returning them, called when the
# arguments are added).  The call gets the arguments in this order.  Calls
# reach the library through the package, which imports a module on first
# use, so a verb loads only the modules it calls.


def _int(name, help_text=None, **kw):
    return name, {"type": int, "help": help_text, **kw}


def _call(name):
    return lambda *args: getattr(lib, name)(*args)


_VERBS = [
    ("rank", "index of a word", _call("rank"), _value, ["word"]),
    ("unrank", "word at an index", _call("unrank"), _word, [_int("index")]),
    ("next", "successor word", _call("successor"), _word, ["word"]),
    ("prev", "predecessor word", _call("predecessor"), _word, ["word"]),
    ("cmp", "order two words",
     lambda x, y: ("less", "equal", "greater")[lib.compare(x, y) + 1], _value,
     ["left", "right"]),
    ("add", "overlay two noncrossing words",
     lambda x, y: (x, "+", y, lib.add(x, y)), _equation, ["left", "right"]),
    ("sub", "erase an included word's blocks",
     lambda x, y: (x, "-", y, lib.sub(x, y)), _equation, ["left", "right"]),
    ("decompose", "extended blocks and their index sum",
     _call("decompose_sum"), _decomposition, ["word"]),
    ("shift-open", "drift an outer block's opening bracket across zeros",
     _call("shift_open"), _delta,
     ["word", _int("position"),
      _int("offset", "positions to move: positive = left, negative = right")]),
    ("shift-close", "swap an outer block's closing bracket with the adjacent "
     "zero", _call("shift_close"), _delta,
     ["word", _int("position"),
      ("direction", {"choices": ("left", "right")})]),
    ("remove-pair", "erase the touching brackets of two neighboring blocks",
     _call("remove_pair"), _delta,
     ["word", _int("open_pos", "opening bracket position (k)"),
      _int("close_pos", "closing bracket position (l > k)")]),
    ("insert-pair", "split a block by writing a bracket pair into its zero "
     "zone", _call("insert_pair"), _delta,
     ["word", _int("open_pos", "new opening bracket position (k)"),
      _int("close_pos", "new closing bracket position (l > k)")]),
    ("merge", "merge two touching blocks", _call("merge_adjacent"), _delta,
     ["word", _int("position", "opening bracket of the right block")]),
    ("split", "split a block at an inner adjacent pair",
     _call("split_block"), _delta,
     ["word", _int("position", "closing symbol of the inner pair")]),
    ("swap", "fuse two blocks separated by a single zero",
     _call("swap_across_zero"), _delta,
     ["word", _int("position", "opening bracket of the right block")]),
    ("xi", "close-bracket drift delta at position k", _call("xi"), _value,
     [_int("k")]),
    ("zeta", "bracket-pair removal delta at positions k, l", _call("zeta"),
     _value, [_int("k"), _int("l")]),
    ("psi", "zero-gap swap delta at position k, "
     "M[k-1] + T(k-1,1) + T(k,1) + T(k,3)", _call("psi"), _value, [_int("k")]),
    ("range", "smallest and largest word of a length",
     lambda n: [("min", *lib.range_min(n)), ("max", *lib.range_max(n))],
     _listing("{name}: {word}  index {index}", "{name}={word} index={index}"),
     [_int("length")]),
    ("control-points", "the seven landmark words of a range",
     _call("control_points"),
     _listing("{name:<18} {word}  index {index}",
              "name={name} word={word} index={index}"),
     [_int("length")]),
    ("seq", "regenerate a named integer sequence", _call("sequence"),
     _sequence,
     [("name", lambda: {"choices": lib.verify._SEQUENCES}), _int("count")]),
    ("audit", "run an exhaustive check, exit 3 on counterexample",
     lambda check, scope, workers: lib.audit(
         check, config.audit_scope() if scope is None else scope, workers),
     _audit,
     [("check", lambda: {"choices": lib.verify._CHECKS}),
      _int("--max-range", "largest range to sweep (default "
           f"$MOTZKINROW_AUDIT_SCOPE, else {config.DEFAULT_AUDIT_SCOPE})"),
      _int("--workers", "parallel worker processes for range sweeps",
           default=1)]),
    ("addendum", "emit the corrected row listing",
     _call("regenerate_addendum"), _text,
     [_int("--max-range", "largest range to list (default %(default)s)",
           default=9)]),
]


class _VerbParser(argparse.ArgumentParser):
    """One verb's parser.  Its arguments are added when argparse
    dispatches to the verb, so a run reads only its own verb's choices."""

    def parse_known_args(self, args=None, namespace=None):
        dests = []
        for arg in self.verb_args:
            is_word = isinstance(arg, str)
            flag, kw = (arg, {}) if is_word else arg
            kw = kw() if callable(kw) else kw
            dests.append((self.add_argument(flag, **kw).dest, is_word))
        self.verb_args = ()
        if dests:
            self.set_defaults(dests=dests)
        return super().parse_known_args(args, namespace)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="motzkinrow",
        description="Exact arithmetic and navigation on the ordered row of "
                    "Motzkin words.",
        epilog="Positions are 1-based and counted from the right end of the "
               "word, like digit positions in an integer.",
    )
    parser.add_argument("--format", choices=("plain", "lines"), default="plain",
                        help="plain text or machine-readable key=value lines")
    parser.add_argument("--translit", action="store_true",
                        help="read and write words as o/l/r instead of 0/(/)")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb",
                                  parser_class=_VerbParser)
    for name, help_text, call, show, args in _VERBS:
        p = verbs.add_parser(name, help=help_text)
        p.verb_args = args
        p.set_defaults(call=call, show=show)
    return parser


def main(argv=None) -> int:
    # indexes, both read and printed, may pass CPython's 4300-digit limit
    # on int <-> str conversion; the word-length limit bounds them instead
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    ns = build_parser().parse_args(argv)
    args = [_decode(ns, getattr(ns, dest)) if is_word else getattr(ns, dest)
            for dest, is_word in ns.dests]
    try:
        return ns.show(ns, ns.call(*args)) or 0
    except MotzkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
