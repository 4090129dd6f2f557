"""Index-delta navigation along the row.

Each operation here rewrites a small site in a word, and the resulting
jump along the row is a fixed polynomial in Motzkin numbers that depends
only on the positions touched, never on the rest of the word:

* ``shift_open``   - the opening bracket of an outer block drifts across
                     adjacent zeros; delta M[k-1+j] - M[k-1].
* ``shift_close``  - the closing bracket of an outer block swaps with an
                     adjacent zero; delta +/- xi.
* ``remove_pair`` / ``insert_pair`` - the touching brackets of two
                     neighboring outer blocks are erased (joining the
                     blocks), or re-inserted into a block's interior zero
                     zone (splitting it); delta -/+ zeta.
* ``merge_adjacent`` / ``split_block`` - two outer blocks in direct
                     contact swap their touching brackets; delta -/+ M[k].
* ``swap_across_zero`` - two outer blocks separated by a single zero fuse
                     into one; delta -psi(k).

Every operation returns a DeltaReport carrying both the polynomial value
and the verified delta: the rank difference, summed over the span of the
touched positions by ``bigcomb._rank_terms`` (see ``_move``).
The equality of the two is proven for every family and every k
(``PROOFS.md``).  For the first three families a mismatch raises
PolynomialMismatchError.  On the rows named in ``_UNPROVEN``, the
merge/split family (the paper's Conjecture 4.3) and the zero-gap swap, a
mismatch is data for the caller: that list, the audit check names and
their ``conjecture-holds`` labels stay for compatibility.

Each family's facts are one row of the move-shape table ``_SHAPES``: the
symbols it reads, the depth left of them, the two symbols it writes and
its prediction, which reads xi, zeta and psi through the guard-free
``_xi``, ``_zeta`` and ``_psi`` (a host word is already within the length
limit).  A public move runs ``as_word`` and its site checks, then
``_move`` applies its row through the text splice ``_splice`` and scans
the rewrite.  The nav audits find their sites by the same rows and run
the same splice and predictions, without the site checks; they scan only
a rewrite that their oracle's index does not hold.

``sequence`` lists the first terms of xi, of zeta on adjacent positions
and of psi, and the Motzkin and unique counts, for the ``seq`` verb.

All positions are 1-based from the right end of the word.
"""

from .bigcomb import _rank_terms, motzkin, unique_count
from .errors import (
    ArgumentError,
    BlockedError,
    PolynomialMismatchError,
    SiteError,
    UnknownSequenceError,
    ValidityError,
    WordError,
)
from .word import (MotzkinWord, _Value, _at, _depth_left, _largest, _scan,
                   _smallest, as_word, check_length)


class DeltaReport(_Value):
    """Outcome of one navigation step.

    ``predicted_delta`` is the index polynomial value, ``verified_delta``
    the rank difference, summed over the touched positions; ``site`` lists
    those positions, leftmost first.
    """

    __slots__ = ("before", "after", "predicted_delta", "verified_delta", "site")

    def __init__(self, before: MotzkinWord, after: MotzkinWord,
                 predicted_delta: int, verified_delta: int,
                 site: tuple[int, ...]):
        self.__setstate__((before, after, predicted_delta, verified_delta,
                           site))

    @property
    def agrees(self) -> bool:
        return self.predicted_delta == self.verified_delta


def xi(k: int) -> int:
    """Index gain when an outer block's closing bracket moves one step
    left across a zero: M[k+2] - 2*M[k+1] + M[k-1]."""
    if k < 1:
        raise ArgumentError(f"xi needs k >= 1, got {k}")
    check_length(k + 2)  # the smallest host: "(0)" closing at k
    return _xi(k)


def _xi(k):
    return motzkin(k + 2) - 2 * motzkin(k + 1) + motzkin(k - 1)


def zeta(k: int, l: int) -> int:
    """Index drop when the touching brackets of neighboring outer blocks
    (close at l, open at k) are erased: M[l+1] - M[l] - M[l-1] + M[k-1]."""
    if not l > k >= 2:
        raise ArgumentError(f"zeta needs l > k >= 2, got ({k}, {l})")
    check_length(l + 1)  # the smallest host: "()" closing at l
    return _zeta(k, l)


def _zeta(k, l):
    return motzkin(l + 1) - motzkin(l) - motzkin(l - 1) + motzkin(k - 1)


def psi(k: int) -> int:
    """Index drop of the zero-gap block swap at position k:
    M[k-1] + T(k-1,1) + T(k,1) + T(k,3), with T(m,d) the Motzkin triangle
    (``completions``), which is M[k+3] - 3*M[k+2] + 2*M[k+1] + M[k].

    On the smallest host, "()0(0..0)" to "((0)0..0)" with the right block
    opening at k, the (k+3)-words between the two sides split by prefix
    into ()00.., ((0).., (() and (((, which the four terms count.  With
    T(m,1) = M[m+1] - M[m] and T(m,3) = M[m+3] - 3*M[m+2] + M[m+1] + M[m]
    the sum needs the Motzkin numbers alone.  That every other host drops
    by the same amount is proven for every k (``PROOFS.md``); the audit
    ``psi_site_independence`` still checks it against the oracle.
    """
    if k < 2:
        raise ArgumentError(f"psi needs k >= 2, got {k}")
    check_length(k + 3)  # the drop is taken between (k+3)-words
    return _psi(k)


def _psi(k):
    return (motzkin(k + 3) - 3 * motzkin(k + 2) + 2 * motzkin(k + 1)
            + motzkin(k))


# name: (first argument, how far the words a term counts outgrow its
# argument, term); xi(k), say, counts words of length k + 2
_SEQUENCES = {
    "motzkin": (0, 0, motzkin),
    "unique": (1, 0, unique_count),
    "xi": (1, 2, _xi),
    "zeta_adjacent": (2, 2, lambda k: _zeta(k, k + 1)),
    "psi": (2, 3, _psi),
}


def sequence(name: str, count: int) -> list[int]:
    """First `count` terms of a named sequence, from its natural start
    (motzkin from 0, unique and xi from 1, zeta_adjacent and psi from 2).
    A count whose last term counts words past the length limit raises
    LimitError before any term is computed."""
    if count < 1:
        raise ArgumentError(f"count must be positive, got {count}")
    if name not in _SEQUENCES:
        raise UnknownSequenceError(
            f"unknown sequence {name!r}; expected one of "
            f"{sorted(_SEQUENCES)}"
        )
    first, reach, term = _SEQUENCES[name]
    last = first + count - 1
    check_length(last + reach)
    return [term(k) for k in range(first, last + 1)]


# Every move rewrites two positions p > q with only zeros between them.  A
# row is (the symbols from p to q, "*" for any run of zeros; the depth left
# of p; the symbols written at p and q; the predicted delta from (p, q);
# the public move and its arguments from (p, q)).  Positions past the left
# end read as zeros at depth 0.
_SHAPES = {
    "open_right": ("(*0", 0, "0(", lambda p, q: motzkin(q - 1) - motzkin(p - 1),
                   "shift_open", lambda p, q: (p, q - p)),
    "open_left": ("0*(", 0, "(0", lambda p, q: motzkin(p - 1) - motzkin(q - 1),
                  "shift_open", lambda p, q: (q, p - q)),
    "close_left": ("0)", 1, ")0", lambda p, q: _xi(q),
                   "shift_close", lambda p, q: (q, "left")),
    "close_right": (")0", 1, "0)", lambda p, q: -_xi(q),
                    "shift_close", lambda p, q: (p, "right")),
    "remove_pair": (")*(", 1, "00", lambda p, q: -_zeta(q, p),
                    "remove_pair", lambda p, q: (q, p)),
    "insert_pair": ("0*0", 1, ")(", lambda p, q: _zeta(q, p),
                    "insert_pair", lambda p, q: (q, p)),
    "merge_adjacent": (")(", 1, "()", lambda p, q: -motzkin(q),
                       "merge_adjacent", lambda p, q: (q,)),
    "split_block": ("()", 1, ")(", lambda p, q: motzkin(q),
                    "split_block", lambda p, q: (q,)),
    "swap_across_zero": (")0(", 1, "()", lambda p, q: -_psi(q),
                         "swap_across_zero", lambda p, q: (q,)),
}
_UNPROVEN = frozenset({"merge_adjacent", "split_block", "swap_across_zero"})


def _check_outer_bracket(w: MotzkinWord, k: int, side: str) -> None:
    """Raise SiteError unless position k holds the opening (side "open")
    or closing (side "close") bracket of an outer block: a '(' with depth
    0 before it, or a ')' with depth 1 before it."""
    ch, depth = ("(", 0) if side == "open" else (")", 1)
    if not (1 <= k <= len(w.text) and w.text[-k] == ch
            and _depth_left(w.text, k) == depth):
        bracket = "opening" if side == "open" else "closing"
        raise SiteError(
            f"position {k} of {w.text!r} is not the {bracket} bracket of an "
            "outer block"
        )


def _splice(text: str, p: int, q: int, written: str) -> str:
    """text with written[0] spliced in at position p and written[1] at
    position q < p: padded with zeros out to p, written and stripped.  The
    callers read the length limit and check the rewrite (``_checked``)."""
    padded = text.rjust(p, "0")
    n = len(padded)
    return (f"{padded[:n - p]}{written[0]}{padded[n - p + 1:n - q]}"
            f"{written[1]}{padded[n - q + 1:]}").lstrip("0") or "0"


def _checked(text: str, after: str) -> str:
    """after, the rewrite of text, once scanned: the safety net, where a
    bad site the site checks let through raises ValidityError.  The whole
    word is read, as a scan of the span would trust the depths left of it."""
    try:
        _scan(after)
    except WordError as exc:
        raise ValidityError(f"rewrite of {text!r} is not a valid word: {exc}")
    return after


def _move(w, shape, p, q) -> DeltaReport:
    """Splice the shape's row into the word w at p >= q (p == q only for a
    zero shift_open drift, which writes nothing) and pair the row's
    prediction with the rank difference, summed over the touched positions:
    a disagreement raises, except on a row of ``_UNPROVEN``.

    Every rank term depends only on its position, its symbol and the depth
    left of it (see ``bigcomb._rank_terms``), and every move leaves the
    symbols and depths outside the span of its site alone; inside the
    span, off the site, both words hold zeros.  The leading "(" adds
    T(n-1, 0) = M[n-1], the range base, so a change of length needs no
    special case.  So rank(after) - rank(before) is the difference of the
    two span sums.  Only a word that grows reads the length limit, and
    every rewrite is scanned (``_checked``).
    """
    symbols, _, written, predict, _, _ = _SHAPES[shape]
    if p > len(w.text):  # a splice past the left end: p > q
        check_length(p)
    text = _checked(w.text, _splice(w.text, p, q, written)) if p > q else w.text
    # the site is every position of a fixed shape, the two ends of a run
    site = (p, q) if "*" in symbols else tuple(range(p, q - 1, -1))
    depth = _depth_left(w.text, p)
    verified = _rank_terms(text, p, q, depth) - _rank_terms(w.text, p, q, depth)
    report = DeltaReport(w, MotzkinWord._trusted(text), predict(p, q),
                         verified, site)
    if shape not in _UNPROVEN and report.predicted_delta != verified:
        raise PolynomialMismatchError(
            f"proven delta {report.predicted_delta} disagrees with rank "
            f"difference {verified} on {w.text!r} at site {site}", report)
    return report


def shift_open(w, k: int, j: int) -> DeltaReport:
    """Move the opening bracket of an outer block j positions left (j > 0)
    or right (j < 0), swapping with zeros along the way.

    Leftward moves may run into virtual leading zeros and grow the word;
    rightward moves stay inside the block.  Delta: M[k-1+j] - M[k-1].
    """
    w = as_word(w)
    _check_outer_bracket(w, k, "open")
    if k + j < 1:
        raise ArgumentError(f"target position {k + j} is below 1")
    lo, hi = (k + 1, k + j) if j > 0 else (k + j, k - 1)
    path = w.text[-hi : len(w.text) + 1 - lo]  # positions lo .. hi
    if path.strip("0"):
        p = lo + len(path) - len(path.rstrip("0"))
        raise BlockedError(
            f"position {p} of {w.text!r} holds {w.text[-p]!r}, blocking the "
            "move"
        )
    return _move(w, "open_left" if j > 0 else "open_right", max(k, k + j),
                 min(k, k + j))


def shift_close(w, k: int, direction: str) -> DeltaReport:
    """Swap the closing bracket of an outer block with the adjacent zero.

    ``left`` swallows the interior zero at k+1 (delta +xi(k)); ``right``
    moves out over the depth-0 zero at k-1 (delta -xi(k-1)).  The word's
    length never changes.
    """
    w = as_word(w)
    _check_outer_bracket(w, k, "close")
    if direction not in ("left", "right"):
        raise ArgumentError(f"direction must be 'left' or 'right', got {direction!r}")
    q = k + 1 if direction == "left" else k - 1  # the zero it swaps with
    if q < 1:
        raise ArgumentError("a closing bracket cannot move right of position 1")
    if _at(w.text, q) != "0":
        raise BlockedError(f"position {q} of {w.text!r} is not a zero")
    return _move(w, "close_" + direction, max(k, q), min(k, q))


def remove_pair(w, k: int, l: int) -> DeltaReport:
    """Erase the closing bracket at l and the opening bracket at k of two
    neighboring outer blocks, joining them; delta -zeta(k, l)."""
    w = as_word(w)
    if not l > k >= 2:
        raise ArgumentError(f"remove_pair needs l > k >= 2, got ({k}, {l})")
    _check_outer_bracket(w, l, "close")
    _check_outer_bracket(w, k, "open")
    if w.text[1 - l : -k].strip("0"):
        raise SiteError(
            f"the zone between positions {l} and {k} of {w.text!r} "
            "is not all zeros"
        )
    return _move(w, "remove_pair", l, k)


def insert_pair(w, k: int, l: int) -> DeltaReport:
    """Write a close bracket at l and an open bracket at k inside a
    block's depth-1 zero zone, splitting the block; delta +zeta(k, l)."""
    w = as_word(w)
    if not l > k >= 2:
        raise ArgumentError(f"insert_pair needs l > k >= 2, got ({k}, {l})")
    if w.text[-l : 1 - k].strip("0"):
        raise SiteError(f"positions {l}..{k} of {w.text!r} are not all zeros")
    if _depth_left(w.text, l) != 1:
        raise SiteError(
            f"positions {l}..{k} of {w.text!r} do not lie directly inside "
            "an outer block"
        )
    return _move(w, "insert_pair", l, k)


def merge_adjacent(w, k: int) -> DeltaReport:
    """Swap the touching brackets of two outer blocks in direct contact
    (close at k+1, open at k), merging them into one block.

    The predicted delta -M[k], the paper's Conjecture 4.3, is proven for
    every k (``PROOFS.md``).  The row stays in ``_UNPROVEN`` for
    compatibility, so a disagreement is reported, not raised.
    """
    return _fuse(as_word(w), k, 0)


def split_block(w, k: int) -> DeltaReport:
    """Inverse of merge_adjacent: an adjacent bracket pair sitting at
    depth 1 inside an outer block swaps into two touching blocks; delta
    +M[k], proven for every k (``PROOFS.md``) and, like merge_adjacent's,
    reported, not raised, on a disagreement."""
    w = as_word(w)
    if _at(w.text, k + 1) != "(" or _at(w.text, k) != ")":
        raise SiteError(
            f"positions {k + 1}, {k} of {w.text!r} are not an adjacent "
            "bracket pair"
        )
    if _depth_left(w.text, k + 1) != 1:
        raise SiteError(
            f"the pair at positions {k + 1}, {k} of {w.text!r} is not "
            "directly inside an outer block"
        )
    return _move(w, "split_block", k + 1, k)


def swap_across_zero(w, k: int) -> DeltaReport:
    """Fuse two outer blocks separated by exactly one zero: the close
    bracket at k+2 and the open bracket at k swap, leaving a nested "(0)".

    The predicted drop is the closed form psi(k) = M[k-1] + T(k-1,1) +
    T(k,1) + T(k,3) = M[k+3] - 3*M[k+2] + 2*M[k+1] + M[k].  That it holds
    on every host is proven for every k (``PROOFS.md``).  The row stays in
    ``_UNPROVEN`` for compatibility, so a disagreement with the rank
    difference, summed over the touched positions, is reported, not
    raised.
    """
    return _fuse(as_word(w), k, 1)


def _fuse(w, k, gap):
    """Site checks of merge_adjacent (gap 0) and swap_across_zero (gap 1):
    a close bracket at k+1+gap, gap zeros left of the open one at k."""
    p = k + 1 + gap
    _check_outer_bracket(w, p, "close")
    if gap and _at(w.text, k + 1) != "0":
        raise SiteError(f"position {k + 1} of {w.text!r} is not a zero")
    _check_outer_bracket(w, k, "open")
    return _move(w, ("merge_adjacent", "swap_across_zero")[gap], p, k)


def control_points(n: int) -> list[tuple[str, MotzkinWord, int]]:
    """Landmark words of the n-range with closed-form indexes, smallest
    to largest; every returned index is checked against rank.

    Each index is a sum of Motzkin numbers at fixed offsets of n, which
    ``tests/test_proofs.py`` derives from the landmark's rank terms for
    every n (``PROOFS.md``)."""
    if n < 5:
        raise ArgumentError(
            f"all seven landmarks need a range of at least 5, got {n}"
        )
    check_length(n)  # before any landmark polynomial is evaluated
    points = [
        ("min", _smallest(n), motzkin(n - 1)),
        ("pair_inside_block", "(0())" + "0" * (n - 5),
         2 * motzkin(n - 1) - motzkin(n - 2) - motzkin(n - 3) - motzkin(n - 5)),
        ("small_block", "(0)" + "0" * (n - 3),
         2 * motzkin(n - 1) - motzkin(n - 2) - motzkin(n - 3)),
        ("small_block_pairs", "(0)" + _largest(n - 3),
         2 * motzkin(n - 1) - motzkin(n - 2) - 1),
        ("nested_block", "((0))" + "0" * (n - 5),
         3 * motzkin(n - 1) - 3 * motzkin(n - 2) - motzkin(n - 5)),
        ("leading_pair", "()" + "0" * (n - 2), motzkin(n) - motzkin(n - 2)),
        ("max", _largest(n), motzkin(n) - 1),
    ]
    out = []
    for name, text, index in points:
        actual = _rank_terms(text, n, 1, 0)
        if actual != index:
            raise PolynomialMismatchError(
                f"landmark {name} of range {n}: polynomial index {index} "
                f"disagrees with rank {actual}"
            )
        out.append((name, MotzkinWord._trusted(text), index))
    return out
