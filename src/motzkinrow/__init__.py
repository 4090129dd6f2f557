"""motzkinrow: the totally ordered row of Motzkin words.

Canonical Motzkin words (balanced brackets with zeros, no leading zero)
are ordered by length and then alphabetically under 0 < ( < ), which
indexes them like natural numbers.  This package provides exact
rank/unrank on that order, partial addition and subtraction of words
through their outer blocks, bracket-motion operations whose index jumps
are closed-form polynomials in Motzkin numbers, and a brute-force
verification harness for all of it.

The package imports a module on first use of a name it exports (PEP 562),
so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module: the names it exports
_EXPORTS = {
    "bigcomb": ("completions", "motzkin", "unique_count"),
    "blockops": ("add", "decompose_sum", "includes", "noncrossing", "sub"),
    "errors": (
        "AlphabetError", "ArgumentError", "BlockedError", "ConfigError",
        "CrossingError", "EmptyError", "InclusionError", "LimitError",
        "MotzkinError", "NotCanonicalError", "PolynomialMismatchError",
        "PrefixViolationError", "SiteError", "SpanError", "UnbalancedError",
        "UnderflowError", "UnknownCheckError", "UnknownSequenceError",
        "ValidityError", "WordError", "ZeroWordError",
    ),
    "nav": (
        "DeltaReport", "control_points", "insert_pair", "merge_adjacent",
        "psi", "remove_pair", "shift_close", "shift_open", "split_block",
        "swap_across_zero", "xi", "zeta",
    ),
    "rowindex": ("compare", "predecessor", "range_max", "range_min", "rank",
                 "successor", "unrank"),
    "verify": (
        "AuditReport", "Counterexample", "audit", "enumerate_range",
        "regenerate_addendum", "report_lines", "report_text", "sequence",
    ),
    "word": ("BlockSpan", "MotzkinWord", "PaddedWord", "Symbol", "as_word",
             "decompose", "extended_block", "outer_blocks", "parse",
             "symbol_at"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "config"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
