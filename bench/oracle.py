"""The benchmark's own arithmetic on Motzkin words, and the output checks.

Nothing here imports motzkinrow, so every check compares the program's
answer with a value computed by separate code:

* Motzkin numbers by the three-term recurrence
  (n+2) M[n] = (2n+1) M[n-1] + 3(n-1) M[n-2];
* the Motzkin triangle T(m, d) = T(m-1, d-1) + T(m-1, d) + T(m-1, d+1),
  the number of length-m suffixes that start at depth d and end at 0;
* a brute-force ordered enumeration of every canonical word up to a
  small length, by filtering all strings over {0, (, )} and sorting.

Positions are 1-based from the right end of a word, as in the program.
Every checker raises CheckFailed on a wrong answer.
"""

from itertools import product

BRUTE_MAX_LEN = 10

_LEX = str.maketrans("0()", "abc")


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def row_key(text):
    """Sort key of the row order: length, then 0 < ( < )."""
    return len(text), text.translate(_LEX)


def motzkin_numbers(n_max):
    """M[0..n_max] by the three-term recurrence (exact division)."""
    m = [1, 1]
    for n in range(2, n_max + 1):
        m.append(((2 * n + 1) * m[n - 1] + 3 * (n - 1) * m[n - 2]) // (n + 2))
    return m[: n_max + 1]


def triangle(m_max):
    """Rows T[0..m_max] of the Motzkin triangle; row m has m + 1 entries."""
    rows = [[1]]
    for m in range(1, m_max + 1):
        prev = rows[-1]

        def at(d):
            return prev[d] if 0 <= d < len(prev) else 0

        rows.append([at(d - 1) + at(d) + at(d + 1) for d in range(m + 1)])
    return rows


def is_word(text):
    """True for a canonical Motzkin word (no leading zero except "0")."""
    if not text or (text[0] == "0" and text != "0"):
        return False
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        elif ch != "0":
            return False
    return depth == 0


def brute_row(max_len=BRUTE_MAX_LEN):
    """Every canonical word of length 1..max_len, in row order."""
    words = []
    for n in range(1, max_len + 1):
        found = ["".join(p) for p in product("0()", repeat=n)]
        words.extend(sorted((t for t in found if is_word(t)), key=row_key))
    return words


class Row:
    """Ranks from brute force up to BRUTE_MAX_LEN, and by counting
    completions in the benchmark's own triangle beyond it."""

    def __init__(self, count_len):
        self.M = motzkin_numbers(count_len + 1)
        self.T = triangle(count_len)
        self.words = brute_row()
        self.index = {w: i for i, w in enumerate(self.words)}
        self.count_len = count_len

    def rank(self, text):
        expect(is_word(text), f"{text!r} is not a canonical Motzkin word")
        if text in self.index:
            return self.index[text]
        return self.count_rank(text)

    def count_rank(self, text):
        """Rank by adding, at each symbol, the completions of every smaller
        symbol choice."""
        if text == "0":
            return 0
        n = len(text)
        expect(n <= self.count_len, f"{text!r} is longer than the own table")
        total, depth = self.M[n - 1], 0
        for i, ch in enumerate(text):
            m = n - i - 1
            if ch == "(":
                if i > 0:
                    total += self.t(m, depth)
                depth += 1
            elif ch == ")":
                total += self.t(m, depth) + self.t(m, depth + 1)
                depth -= 1
        return total

    def t(self, m, d):
        return self.T[m][d] if d <= m else 0

    def psi(self, k):
        """psi(k) = M[k-1] + T(k-1,1) + T(k,1) + T(k,3)."""
        return self.M[k - 1] + self.t(k - 1, 1) + self.t(k, 1) + self.t(k, 3)


def xi(M, k):
    return M[k + 2] - 2 * M[k + 1] + M[k - 1]


def zeta(M, k, l):
    return M[l + 1] - M[l] - M[l - 1] + M[k - 1]


def length_of_index(M, i):
    """The word length n with M[n-1] <= i < M[n] (index 0 is the word "0")."""
    if i == 0:
        return 1
    n = 1
    while M[n] <= i:
        n += 1
    return n


def outer_blocks(text):
    """(open index, close index) of each depth-0 block, left to right."""
    spans, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                spans.append((start, i))
    return spans


def keep_blocks(text, keep):
    """text with every outer block not in `keep` zeroed, leading zeros
    dropped."""
    chars = list(text)
    for a, c in outer_blocks(text):
        if (a, c) not in keep:
            chars[a : c + 1] = "0" * (c + 1 - a)
    return "".join(chars).lstrip("0") or "0"


def extended_blocks(text):
    return [keep_blocks(text, {b}) for b in outer_blocks(text)]


def rewrite(text, assignments):
    """Apply position -> char assignments (positions past the left end
    are virtual zeros), then drop leading zeros."""
    width = max(len(text), max(assignments))
    buf = list(text.rjust(width, "0"))
    for pos, ch in assignments.items():
        buf[width - pos] = ch
    return "".join(buf).lstrip("0") or "0"


# The move families whose delta polynomial is proven; for these the
# program's verified delta must equal its prediction.
PROVEN = ("shift_open", "shift_close", "remove_pair", "insert_pair")


def expected_move(move, args, M, psi=None):
    """(rewrite assignments, predicted delta) of one move, from the own
    Motzkin numbers; the swap's prediction is None without a `psi`, which
    long words do not have (the own triangle would not fit in memory)."""
    if move == "shift_open":
        k, j = args
        return {k: "0", k + j: "("}, M[k - 1 + j] - M[k - 1]
    if move == "shift_close":
        k, direction = args
        if direction == "left":
            return {k + 1: ")", k: "0"}, xi(M, k)
        return {k: "0", k - 1: ")"}, -xi(M, k - 1)
    if move == "remove_pair":
        k, l = args
        return {l: "0", k: "0"}, -zeta(M, k, l)
    if move == "insert_pair":
        k, l = args
        return {l: ")", k: "("}, zeta(M, k, l)
    if move == "merge_adjacent":
        (k,) = args
        return {k + 1: "(", k: ")"}, -M[k]
    if move == "split_block":
        (k,) = args
        return {k + 1: ")", k: "("}, M[k]
    if move == "swap_across_zero":
        (k,) = args
        return {k + 2: "(", k: ")"}, None if psi is None else -psi(k)
    raise ValueError(f"unknown move {move!r}")


def move_sites(text):
    """One valid site of every move that has one in text, as
    (move, args) pairs, found by the benchmark's own structural scan."""
    n = len(text)
    blocks = outer_blocks(text)
    depth_before = [0]
    for ch in text:
        depth_before.append(depth_before[-1] + (ch == "(") - (ch == ")"))
    sites = {}

    def put(move, args):
        sites.setdefault((move, args[-1] if move == "shift_close" else ""),
                         (move, args))

    for a, c in blocks:
        if text[a + 1] == "0":
            put("shift_open", (n - a, -1))
        if text[c - 1] == "0":
            put("shift_close", (n - c, "left"))
        if c + 1 < n and text[c + 1] == "0":
            put("shift_close", (n - c, "right"))
    for (_, c1), (a2, _) in zip(blocks, blocks[1:]):
        if a2 == c1 + 1:
            put("merge_adjacent", (n - a2,))
        if a2 == c1 + 2:
            put("swap_across_zero", (n - a2,))
        if n - a2 >= 2:
            put("remove_pair", (n - a2, n - c1))
    for i in range(n - 1):
        if depth_before[i] != 1:
            continue
        if text[i : i + 2] == "00" and n - i - 1 >= 2:
            put("insert_pair", (n - i - 1, n - i))
        if text[i : i + 2] == "()":
            put("split_block", (n - i - 1,))
    return list(sites.values())


# ---------------------------------------------------------------------------
# checkers; each takes program outputs as plain values
# ---------------------------------------------------------------------------


def check_unrank(M, index, text, rank_back):
    """unrank(index) has the length M fixes, and ranks back to index."""
    expect(is_word(text), f"unrank({index}) = {text!r} is not a word")
    want = length_of_index(M, index)
    expect(len(text) == want,
           f"unrank({index}) has length {len(text)}, M says {want}")
    expect(rank_back == index, f"rank(unrank({index})) = {rank_back}")


def check_successor(text, succ, rank_w, rank_succ, pred_of_succ):
    expect(rank_succ == rank_w + 1,
           f"rank(successor) = {rank_succ}, rank(w) + 1 = {rank_w + 1}")
    expect(pred_of_succ == text,
           f"predecessor(successor({text!r})) = {pred_of_succ!r}")
    expect(row_key(succ) > row_key(text), "successor does not sort after w")


def check_compare(result, rank_x, rank_y):
    want = (rank_x > rank_y) - (rank_x < rank_y)
    expect(result == want, f"compare = {result}, rank order says {want}")


def check_range_ends(M, n, rank_min, rank_max):
    expect(rank_min == M[n - 1], f"range {n} min ranks {rank_min}, not {M[n - 1]}")
    expect(rank_max == M[n] - 1, f"range {n} max ranks {rank_max}, not {M[n] - 1}")


def check_sum(x, y, total_text, rank_x, rank_y, rank_total, back):
    """add(x, y) = total: index additive, and sub(total, y) gives x back."""
    expect(rank_total == rank_x + rank_y,
           f"rank(add) = {rank_total}, ranks sum to {rank_x + rank_y}")
    expect(back == x, f"sub(add(x, y), y) = {back!r}, x = {x!r}")
    expect(len(total_text) == max(len(x), len(y)), "sum has the wrong length")


def check_decompose(text, parts, total, rank_w):
    expect(parts == extended_blocks(text),
           f"decompose({text!r}) parts differ from the own block split")
    expect(total == rank_w, f"decompose_sum total {total} != rank {rank_w}")


def check_move(move, args, before, after, predicted, verified,
               rank_before, rank_after, M, psi=None):
    """A DeltaReport: the rewrite, the rank difference, and for the proven
    families (and the measured ones where the own formula reaches) the
    polynomial."""
    assignments, poly = expected_move(move, args, M, psi)
    want_after = rewrite(before, assignments)
    expect(after == want_after,
           f"{move}{args} on {before!r} gave {after!r}, want {want_after!r}")
    expect(verified == rank_after - rank_before,
           f"{move}{args} verified {verified} != rank difference "
           f"{rank_after - rank_before}")
    if poly is not None:
        expect(predicted == poly,
               f"{move}{args} predicted {predicted}, polynomial is {poly}")
    if move in PROVEN:
        expect(verified == predicted, f"proven {move}{args} disagrees")


def check_audit(check, scope, outcome, checked, counterexamples, M):
    conjectures = ("conjecture_4_3", "psi_site_independence")
    want = "conjecture-holds" if check in conjectures else "pass"
    expect(outcome == want, f"audit {check} outcome {outcome!r}, want {want!r}")
    expect(counterexamples == 0, f"audit {check} found counterexamples")
    expect(checked > 0, f"audit {check} checked nothing")
    # Sums over ranges: rank_roundtrip makes two checks per word of ranges
    # 1..scope, theorem_2_4 one per word of ranges 2..scope.
    if check == "rank_roundtrip":
        expect(checked == 2 * M[scope], f"rank_roundtrip checked {checked}")
    if check == "theorem_2_4":
        expect(checked == M[scope] - 1, f"theorem_2_4 checked {checked}")


def check_enumeration(row, n, texts):
    """enumerate_range(n): brute-force words exactly where brute force
    reaches, the count M[n] - M[n-1] and row order beyond."""
    want = 1 if n == 1 else row.M[n] - row.M[n - 1]
    expect(len(texts) == want, f"range {n} has {len(texts)} words, want {want}")
    if n <= BRUTE_MAX_LEN:
        expect(texts == [w for w in row.words if len(w) == n],
               f"range {n} differs from the brute-force enumeration")
    else:
        keys = [row_key(t) for t in texts]
        expect(keys == sorted(keys) and len(set(texts)) == len(texts),
               f"range {n} is not strictly in row order")
