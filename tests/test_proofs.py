"""The move rows' and the landmarks' index polynomials, derived from the
counting triangle.

The rank of a word is a sum of one term per position: with d the depth
left of a position p (1-based from the right end), a "(" adds T(p-1, d), a
")" adds T(p-1, d) + T(p-1, d+1) and a "0" adds nothing, T being the
Motzkin triangle.  Virtual leading zeros add nothing, so the sum does not
depend on how far a word is padded.  Every row of ``nav._SHAPES`` rewrites
the symbols at two positions p > q with only zeros between them and leaves
the depth right of q as it was, so it changes two terms only, and its
delta is the after-terms at p and q minus the before-terms.  Each
``nav.control_points`` landmark is a whole n-word, so its index is the sum
of all its terms: fixed symbols from position n down, then zeros, or "()"
pairs from depth 0, and for ``min`` a ")" at position 1.  A pair at p and
p-1 adds M[p] - M[p-2], so the pairs from position s down telescope to
M[s] - 1, as M[0] = M[1] = 1.

Here the column T(., d) is a shift polynomial, {offset: coeff} standing
for the sum of coeff * M[m + offset], derived from T(m, 0) = M[m] by
T(m, d) = T(m+1, d-1) - T(m, d-1) - T(m, d-2) with T(m, -1) = 0, not read
from ``bigcomb``.  The recurrence holds for every m >= 0 (a word from
depth d-1 first writes "(", "0" or ")"), and the derivation is a chain of
such identities, so a row's derived polynomial is its delta at every
site, for every p and q at which its indices are >= 0, and a landmark's
is its rank for every n >= 5.  A term at a fixed position is a constant,
kept as a multiple of M[0] = 1 (``ONE``).

Each derived polynomial is compared with the code's value, evaluated on
``motzkin``, at every site position or range up to ``BOUND``.  That proves
the code for every k, because its values are shift polynomials too:
``_xi``, ``_zeta``, ``_psi`` and the row lambdas read M at fixed offsets,
from -1 to WINDOW - 2, from p or q, and ``control_points`` reads M at
n-5 .. n, plus a constant, and calls no other polynomial.  So the code
minus its derived polynomial is a shift polynomial, and one that vanishes
at n consecutive anchors, its first reading M[a] on, is zero when the
Hankel matrix [M[a + i + j]] of size n is invertible, which
``test_motzkin_hankel_matrices_are_invertible`` checks for a = 0 and
a = 2.  A fixed-shape row has
the one anchor q = 1, 2, ..., which reads from M[0] on.  A run row's
difference is A(p) + B(q).  With p fixed, B is constant in q, so B(q+1) -
B(q), one offset wider, vanishes reading from M[0] on, and B is zero;
then A vanishes at p = 3, 4, ..., reading from M[2] on.  A landmark's
difference D(n) may hold a constant too, so D(n+1) - D(n), one offset
wider, reads M[n-5 .. n+1], from M[0] on at n = 5: it vanishes, so D is
constant, and D(5) = 0.  So equal values up to BOUND mean equal
coefficients, and each identity holds for every k and every n.
"""

from fractions import Fraction

import pytest

from motzkinrow import motzkin, nav

BOUND = 300
WINDOW = 8
# how a symbol moves the depth
STEP = {"0": 0, "(": 1, ")": -1}


def add(*polys):
    out = {}
    for poly in polys:
        for key, coeff in poly.items():
            out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def scale(poly, factor):
    return {key: factor * coeff for key, coeff in poly.items()}


def shift(poly, by, anchor=None):
    """poly with every offset moved by ``by``; keys are (anchor, offset),
    re-anchored at ``anchor`` when it is given."""
    return {(anchor or a, i + by): coeff for (a, i), coeff in poly.items()}


def derive_columns(top):
    """T(m, d) for d = 0 .. top, each as a shift polynomial anchored at m."""
    columns = [{("m", 0): 1}]
    for d in range(1, top + 1):
        below = scale(columns[d - 2], -1) if d > 1 else {}
        columns.append(add(shift(columns[d - 1], 1),
                           scale(columns[d - 1], -1), below))
    return columns


T = derive_columns(4)


def term(symbol, position, depth):
    """The rank term of ``symbol`` at ``position`` = (anchor, offset) with
    ``depth`` left of it: a "(" reads T(position - 1, depth), a ")" that and
    T(position - 1, depth + 1)."""
    anchor, offset = position
    reads = {"0": (), "(": (depth,), ")": (depth, depth + 1)}[symbol]
    return add(*(shift(T[d], offset - 1, anchor) for d in reads))


def two_site_delta(before, after, depth, p, q):
    """The after-terms minus the before-terms of a rewrite of the symbols
    at p and q, zeros between them and ``depth`` left of p."""
    sides = []
    for first, last in (before, after):
        sides.append((add(term(first, p, depth),
                          term(last, q, depth + STEP[first])),
                      depth + STEP[first] + STEP[last]))
    (old, old_depth), (new, new_depth) = sides
    assert old_depth == new_depth  # the depths right of q are unchanged
    return add(new, scale(old, -1))


def row_delta(name):
    symbols, depth, written = nav._SHAPES[name][:3]
    assert set(symbols[1:-1]) <= {"0", "*"}
    # a run row has two free positions; a fixed shape puts p a fixed
    # distance left of q
    p = ("p", 0) if "*" in symbols else ("q", len(symbols) - 1)
    return two_site_delta((symbols[0], symbols[-1]), written, depth, p, ("q", 0))


def fusion_delta(gap):
    """Two outer blocks, close at k + 1 + gap, gap zeros, open at k, fuse
    into one: ")" and "(" become "(" and ")"."""
    return two_site_delta(")(", "()", 1, ("k", 1 + gap), ("k", 0))


M = [motzkin(i) for i in range(BOUND + WINDOW + 2)]


def value(poly, **at):
    return sum(coeff * M[at[anchor] + offset]
               for (anchor, offset), coeff in poly.items())


def sites(name):
    symbols = nav._SHAPES[name][0]
    if "*" in symbols:
        return [(p, q) for p in range(2, BOUND + 1) for q in range(1, p)]
    return [(q + len(symbols) - 1, q) for q in range(1, BOUND + 1)]


def test_the_derived_columns_match_an_independent_triangle(triangle):
    rows = triangle(BOUND + 4)
    column_0 = [row[0] for row in rows]
    for d, column in enumerate(T):
        for m in range(BOUND + 1):
            assert sum(coeff * column_0[m + i]
                       for (_, i), coeff in column.items()) == rows[m][d]
    # the closed forms T(m, 1) .. T(m, 4)
    assert [sorted((i, c) for (_, i), c in column.items()) for column in T[1:]] == [
        [(0, -1), (1, 1)],
        [(1, -2), (2, 1)],
        [(0, 1), (1, 1), (2, -3), (3, 1)],
        [(0, -1), (1, 2), (2, 3), (3, -4), (4, 1)]]


def test_motzkin_hankel_matrices_are_invertible():
    # so n values of a shift polynomial of n offsets, at consecutive anchors
    # reading from M[a] on, fix its coefficients
    for a in (0, 2):
        for size in range(1, WINDOW + 2):
            rows = [[Fraction(M[a + i + j]) for j in range(size)]
                    for i in range(size)]
            for col in range(size):
                pivot = next((r for r in range(col, size) if rows[r][col]), None)
                assert pivot is not None, (a, size)
                rows[col], rows[pivot] = rows[pivot], rows[col]
                for r in range(col + 1, size):
                    factor = rows[r][col] / rows[col][col]
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]


@pytest.mark.parametrize("name", sorted(nav._SHAPES))
def test_each_move_row_predicts_its_derived_delta(name):
    derived = row_delta(name)
    assert all(-1 <= offset and offset + 1 < WINDOW for _, offset in derived)
    predict = nav._SHAPES[name][3]
    for p, q in sites(name):
        assert predict(p, q) == value(derived, p=p, q=q), (name, p, q)


def test_the_rows_are_the_paper_polynomials():
    # xi(q) = M[q+2] - 2M[q+1] + M[q-1]; zeta(q, p) = M[p+1] - M[p] -
    # M[p-1] + M[q-1]; psi(q) = M[q+3] - 3M[q+2] + 2M[q+1] + M[q]
    xi = {("q", 2): 1, ("q", 1): -2, ("q", -1): 1}
    zeta = {("p", 1): 1, ("p", 0): -1, ("p", -1): -1, ("q", -1): 1}
    psi = {("q", 3): 1, ("q", 2): -3, ("q", 1): 2, ("q", 0): 1}
    assert {name: row_delta(name) for name in nav._SHAPES} == {
        "open_right": {("q", -1): 1, ("p", -1): -1},
        "open_left": {("p", -1): 1, ("q", -1): -1},
        "close_left": xi, "close_right": scale(xi, -1),
        "remove_pair": scale(zeta, -1), "insert_pair": zeta,
        "merge_adjacent": {("q", 0): -1}, "split_block": {("q", 0): 1},
        "swap_across_zero": scale(psi, -1)}


def test_fusion_across_any_gap_is_one_polynomial():
    # -(M[k+g+2] - 2M[k+g+1] - M[k+2] + 2M[k+1] + M[k]): the merge at
    # g = 0, the zero-gap swap at g = 1
    for gap in range(9):
        assert fusion_delta(gap) == add(
            {("k", gap + 2): -1, ("k", gap + 1): 2},
            {("k", 2): 1, ("k", 1): -2, ("k", 0): -1}), gap
    assert fusion_delta(0) == shift(row_delta("merge_adjacent"), 0, "k")
    assert fusion_delta(1) == shift(row_delta("swap_across_zero"), 0, "k")


# the "()" step: a pair at positions p, p-1 from depth 0
PAIR = add(term("(", ("p", 0), 0), term(")", ("p", -1), 1))
# M[0] = 1 at the fixed anchor c = 0: the unit of a constant
ONE = ("c", 0)
# landmark: (the symbols from position n down, the filler of the gap after
# them, "0" or "()", and the symbols that end the word); an odd gap under
# "()" leaves one more zero
LANDMARKS = {
    "min": ("(", "0", ")"),
    "pair_inside_block": ("(0())", "0", ""),
    "small_block": ("(0)", "0", ""),
    "small_block_pairs": ("(0)", "()", ""),
    "nested_block": ("((0))", "0", ""),
    "leading_pair": ("()", "0", ""),
    "max": ("", "()", ""),
}


def landmark_text(n, head, filler, end):
    gap = n - len(head) - len(end)
    return (head + filler * (gap // len(filler)) + "0" * (gap % len(filler))
            + end)


def landmark_index(head, filler, end):
    """The sum of the rank terms of a landmark's n-word, a shift polynomial
    anchored at n plus a multiple of ``ONE``."""
    poly, depth = {}, 0
    for i, symbol in enumerate(head):  # positions n, n - 1, ...
        poly = add(poly, term(symbol, ("n", -i), depth))
        depth += STEP[symbol]
    if filler == "()":
        # PAIR is F(p) - F(p - 2), F(p) = M[p], so the pairs at p = s,
        # s - 2, ... from s = n - len(head) telescope to M[s] - M[0 or 1]
        top = {("p", 0): 1}
        assert PAIR == add(top, shift(scale(top, -1), -2))
        poly = add(poly, shift(top, -len(head), "n"), {ONE: -1})
    for i, symbol in enumerate(end):  # positions len(end), ..., 1
        constant = value(term(symbol, ("c", len(end) - i), depth), c=0)
        poly = add(poly, {ONE: constant})
        depth += STEP[symbol]
    assert depth == 0
    return poly


def test_the_landmarks_are_the_paper_polynomials():
    assert {name: landmark_index(*shape)
            for name, shape in LANDMARKS.items()} == {
        "min": {("n", -1): 1},
        "pair_inside_block": {("n", -1): 2, ("n", -2): -1, ("n", -3): -1,
                              ("n", -5): -1},
        "small_block": {("n", -1): 2, ("n", -2): -1, ("n", -3): -1},
        "small_block_pairs": {("n", -1): 2, ("n", -2): -1, ONE: -1},
        "nested_block": {("n", -1): 3, ("n", -2): -3, ("n", -5): -1},
        "leading_pair": {("n", 0): 1, ("n", -2): -1},
        "max": {("n", 0): 1, ONE: -1}}
    # control_points reads the Motzkin numbers alone
    assert not {"psi", "_psi", "xi", "_xi", "zeta", "_zeta"} & set(
        nav.control_points.__code__.co_names)


def test_each_landmark_index_is_its_derived_polynomial():
    derived = {name: landmark_index(*shape)
               for name, shape in LANDMARKS.items()}
    assert all(-5 <= offset <= 0 for poly in derived.values()
               for anchor, offset in poly if anchor == "n")
    for n in range(5, BOUND + 1):
        assert [(name, w.text, index)
                for name, w, index in nav.control_points(n)] == [
            (name, landmark_text(n, *shape), value(derived[name], n=n, c=0))
            for name, shape in LANDMARKS.items()], n
