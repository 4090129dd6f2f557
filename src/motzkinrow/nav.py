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
touched positions by ``bigcomb._rank_terms`` (see ``_report``).
For the first three families the equality of the two is proven, so a
mismatch raises PolynomialMismatchError.  The merge/split family is only
conjectured and the zero-gap swap's site independence is only audited, so
there a mismatch is data for the caller, not an error.

Each public move runs ``as_word``, then its core (its name with a leading
underscore; merge_adjacent and swap_across_zero share ``_fuse``), then
``_report``.  The core runs the site checks and the rewrite and returns
(after, predicted, site), reading xi, zeta and psi through the guard-free
``_xi``, ``_zeta`` and ``_psi``: a host word is already within the length
limit.  The audits run the cores, report-free.

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
from .word import (MotzkinWord, _Value, _at, _depth_left, _scan, as_word,
                   check_length)


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
        set_ = object.__setattr__
        set_(self, "before", before)
        set_(self, "after", after)
        set_(self, "predicted_delta", predicted_delta)
        set_(self, "verified_delta", verified_delta)
        set_(self, "site", site)

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
    by the same amount is audited (``psi_site_independence``), not
    assumed.
    """
    if k < 2:
        raise ArgumentError(f"psi needs k >= 2, got {k}")
    check_length(k + 3)  # the drop is taken between (k+3)-words
    return _psi(k)


def _psi(k):
    return (motzkin(k + 3) - 3 * motzkin(k + 2) + 2 * motzkin(k + 1)
            + motzkin(k))


_SEQUENCES = {
    "motzkin": lambda count: [motzkin(n) for n in range(count)],
    "unique": lambda count: [unique_count(n) for n in range(1, count + 1)],
    "xi": lambda count: [xi(k) for k in range(1, count + 1)],
    "zeta_adjacent": lambda count: [zeta(k, k + 1) for k in range(2, count + 2)],
    "psi": lambda count: [psi(k) for k in range(2, count + 2)],
}


def sequence(name: str, count: int) -> list[int]:
    """First `count` terms of a named sequence, from its natural start
    (motzkin from 0, unique and xi from 1, zeta_adjacent and psi from 2).
    A term that counts words past the length limit raises LimitError."""
    if count < 1:
        raise ArgumentError(f"count must be positive, got {count}")
    if name not in _SEQUENCES:
        raise UnknownSequenceError(
            f"unknown sequence {name!r}; expected one of "
            f"{sorted(_SEQUENCES)}"
        )
    if name in ("motzkin", "unique"):  # xi, zeta and psi check each term
        check_length(count - 1 if name == "motzkin" else count)
    return _SEQUENCES[name](count)


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


def _rewrite(w: MotzkinWord, p: int, a: str, q: int, b: str) -> MotzkinWord:
    """Copy w with a spliced in at position p and b at position q != p.

    The bracket scan is the safety net: a bad site the site checks let
    through raises ValidityError.  It reads the whole word, since a scan of
    the span alone would trust the depths left of it, which the site checks
    read.  Only a rewrite past the left end, which grows the word, reads
    the length limit, before the text is padded out to it."""
    if p < q:
        p, a, q, b = q, b, p, a
    if p > len(w.text):
        check_length(p)
    text = w.text.rjust(p, "0")
    n = len(text)
    text = (text[: n - p] + a + text[n - p + 1 : n - q] + b
            + text[n - q + 1 :]).lstrip("0") or "0"
    try:
        _scan(text)
    except WordError as exc:
        raise ValidityError(f"rewrite of {w.text!r} is not a valid word: {exc}")
    return MotzkinWord._trusted(text)


def _report(before, after, predicted, site, proven=True) -> DeltaReport:
    """Pair the predicted delta with the rank difference, summed over the
    touched positions.  A proven prediction that disagrees raises; an
    unproven one is reportable data.

    Every rank term depends only on its position, its symbol and the depth
    left of it (see ``bigcomb._rank_terms``), and every move leaves the
    symbols and depths outside the span of its site alone; inside the
    span, off the site, both words hold zeros.  The leading "(" adds
    T(n-1, 0) = M[n-1], the range base, so a change of length needs no
    special case.  So rank(after) - rank(before) is the difference of the
    two span sums.
    """
    hi, lo = site[0], site[-1]
    depth = _depth_left(before.text, hi)
    verified = (_rank_terms(after.text, hi, lo, depth)
                - _rank_terms(before.text, hi, lo, depth))
    report = DeltaReport(before, after, predicted, verified, tuple(site))
    if proven and predicted != verified:
        raise PolynomialMismatchError(
            f"proven delta {report.predicted_delta} disagrees with rank "
            f"difference {report.verified_delta} on {before.text!r} at "
            f"site {site}",
            report,
        )
    return report


def shift_open(w, k: int, j: int) -> DeltaReport:
    """Move the opening bracket of an outer block j positions left (j > 0)
    or right (j < 0), swapping with zeros along the way.

    Leftward moves may run into virtual leading zeros and grow the word;
    rightward moves stay inside the block.  Delta: M[k-1+j] - M[k-1].
    """
    w = as_word(w)
    return _report(w, *_shift_open(w, k, j))


def _shift_open(w, k, j):
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
    after = _rewrite(w, k, "0", k + j, "(") if j else w
    predicted = motzkin(k - 1 + j) - motzkin(k - 1)
    return after, predicted, (max(k, k + j), min(k, k + j))


def shift_close(w, k: int, direction: str) -> DeltaReport:
    """Swap the closing bracket of an outer block with the adjacent zero.

    ``left`` swallows the interior zero at k+1 (delta +xi(k)); ``right``
    moves out over the depth-0 zero at k-1 (delta -xi(k-1)).  The word's
    length never changes.
    """
    w = as_word(w)
    return _report(w, *_shift_close(w, k, direction))


def _shift_close(w, k, direction):
    _check_outer_bracket(w, k, "close")
    if direction == "left":
        if _at(w.text, k + 1) != "0":
            raise BlockedError(
                f"position {k + 1} of {w.text!r} is not a zero"
            )
        return _rewrite(w, k + 1, ")", k, "0"), _xi(k), (k + 1, k)
    if direction == "right":
        if k < 2:
            raise ArgumentError("a closing bracket cannot move right of position 1")
        if _at(w.text, k - 1) != "0":
            raise BlockedError(
                f"position {k - 1} of {w.text!r} is not a zero"
            )
        return _rewrite(w, k, "0", k - 1, ")"), -_xi(k - 1), (k, k - 1)
    raise ArgumentError(f"direction must be 'left' or 'right', got {direction!r}")


def remove_pair(w, k: int, l: int) -> DeltaReport:
    """Erase the closing bracket at l and the opening bracket at k of two
    neighboring outer blocks, joining them; delta -zeta(k, l)."""
    w = as_word(w)
    return _report(w, *_remove_pair(w, k, l))


def _remove_pair(w, k, l):
    if not l > k >= 2:
        raise ArgumentError(f"remove_pair needs l > k >= 2, got ({k}, {l})")
    _check_outer_bracket(w, l, "close")
    _check_outer_bracket(w, k, "open")
    if w.text[1 - l : -k].strip("0"):
        raise SiteError(
            f"the zone between positions {l} and {k} of {w.text!r} "
            "is not all zeros"
        )
    return _rewrite(w, l, "0", k, "0"), -_zeta(k, l), (l, k)


def insert_pair(w, k: int, l: int) -> DeltaReport:
    """Write a close bracket at l and an open bracket at k inside a
    block's depth-1 zero zone, splitting the block; delta +zeta(k, l)."""
    w = as_word(w)
    return _report(w, *_insert_pair(w, k, l))


def _insert_pair(w, k, l):
    if not l > k >= 2:
        raise ArgumentError(f"insert_pair needs l > k >= 2, got ({k}, {l})")
    if w.text[-l : 1 - k].strip("0"):
        raise SiteError(
            f"positions {l}..{k} of {w.text!r} are not all zeros"
        )
    if _depth_left(w.text, l) != 1:
        raise SiteError(
            f"positions {l}..{k} of {w.text!r} do not lie directly inside "
            "an outer block"
        )
    return _rewrite(w, l, ")", k, "("), _zeta(k, l), (l, k)


def merge_adjacent(w, k: int) -> DeltaReport:
    """Swap the touching brackets of two outer blocks in direct contact
    (close at k+1, open at k), merging them into one block.

    The predicted delta -M[k] rests on a conjecture, so the report's
    verified delta is the authority; callers can compare the two.
    """
    w = as_word(w)
    return _report(w, *_fuse(w, k, 0), proven=False)


def split_block(w, k: int) -> DeltaReport:
    """Inverse of merge_adjacent: an adjacent bracket pair sitting at
    depth 1 inside an outer block swaps into two touching blocks;
    conjectured delta +M[k]."""
    w = as_word(w)
    return _report(w, *_split_block(w, k), proven=False)


def _split_block(w, k):
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
    return _rewrite(w, k + 1, ")", k, "("), motzkin(k), (k + 1, k)


def swap_across_zero(w, k: int) -> DeltaReport:
    """Fuse two outer blocks separated by exactly one zero: the close
    bracket at k+2 and the open bracket at k swap, leaving a nested "(0)".

    The predicted drop is the closed form psi(k) = M[k-1] + T(k-1,1) +
    T(k,1) + T(k,3) = M[k+3] - 3*M[k+2] + 2*M[k+1] + M[k].  That it holds
    on every host is audited, not proven, so a disagreement with the rank
    difference, summed over the touched positions, is reported, not
    raised.
    """
    w = as_word(w)
    return _report(w, *_fuse(w, k, 1), proven=False)


def _fuse(w, k, gap):
    """Core of merge_adjacent (gap 0) and swap_across_zero (gap 1): swap
    the close bracket at k+1+gap, gap zeros left of the open one at k."""
    p = k + 1 + gap
    _check_outer_bracket(w, p, "close")
    if gap and _at(w.text, k + 1) != "0":
        raise SiteError(f"position {k + 1} of {w.text!r} is not a zero")
    _check_outer_bracket(w, k, "open")
    after = _rewrite(w, p, "(", k, ")")
    if gap:
        return after, -_psi(k), (p, k + 1, k)
    return after, -motzkin(k), (p, k)


# psi enters the nested_block polynomial because that landmark is reached
# through a zero-gap swap.
def control_points(n: int) -> list[tuple[str, MotzkinWord, int]]:
    """Landmark words of the n-range with closed-form indexes, smallest
    to largest; every returned index is checked against rank."""
    if n < 5:
        raise ArgumentError(
            f"all seven landmarks need a range of at least 5, got {n}"
        )
    check_length(n)  # before any landmark polynomial is evaluated
    half_pairs = "()" * ((n - 3) // 2) + "0" * ((n - 3) % 2)
    points = [
        ("min", "(" + "0" * (n - 2) + ")", motzkin(n - 1)),
        ("pair_inside_block", "(0())" + "0" * (n - 5),
         2 * motzkin(n - 1) - motzkin(n - 2) - motzkin(n - 3) - motzkin(n - 5)),
        ("small_block", "(0)" + "0" * (n - 3),
         2 * motzkin(n - 1) - motzkin(n - 2) - motzkin(n - 3)),
        ("small_block_pairs", "(0)" + half_pairs,
         2 * motzkin(n - 1) - motzkin(n - 2) - 1),
        ("nested_block", "((0))" + "0" * (n - 5),
         motzkin(n) - motzkin(n - 2) + motzkin(n - 3) - motzkin(n - 5)
         - psi(n - 3)),
        ("leading_pair", "()" + "0" * (n - 2), motzkin(n) - motzkin(n - 2)),
        ("max", "()" * (n // 2) + "0" * (n % 2), motzkin(n) - 1),
    ]
    out = []
    for name, text, index in points:
        word = MotzkinWord(text)
        actual = _rank_terms(text, n, 1, 0)
        if actual != index:
            raise PolynomialMismatchError(
                f"landmark {name} of range {n}: polynomial index {index} "
                f"disagrees with rank {actual}"
            )
        out.append((name, word, index))
    return out
