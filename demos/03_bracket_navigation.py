#!/usr/bin/env python3
"""Moving brackets moves the index by a closed-form amount.

Small rewrites of a word - drifting a bracket across zeros, erasing or
inserting a bracket pair, swapping touching brackets - jump the index by
polynomials in Motzkin numbers that depend only on the touched positions.
Every operation returns both the polynomial prediction and the verified
delta, the rank difference summed over the touched positions, so the
claims check themselves as you play.
"""

from motzkinrow import (
    insert_pair,
    merge_adjacent,
    psi,
    rank,
    remove_pair,
    shift_close,
    shift_open,
    split_block,
    swap_across_zero,
    xi,
    zeta,
)


def show(title, report):
    tick = "ok" if report.agrees else "MISMATCH"
    print(f"  {title}: {report.before} -> {report.after}  "
          f"predicted {report.predicted_delta:+d}, "
          f"verified {report.verified_delta:+d}  [{tick}]")


def main():
    print("Opening bracket drifting left across zeros (delta M[k-1+j] - M[k-1]):")
    show("one step ", shift_open("(00)", 4, 1))
    show("two steps", shift_open("()()()", 6, 2))
    show("backwards", shift_open("()(000)0", 6, -2))

    print()
    print(f"Closing bracket swaps with an adjacent zero (xi(5) = {xi(5)}):")
    for host in ("(0)0000", "(00)(())", "(()0)(0)0"):
        show("left drift", shift_close(host, 5, "left"))
    print("  the delta is the same in every host: the site alone decides.")

    print()
    print(f"Erasing the touching brackets of neighbor blocks (zeta(4,7) = {zeta(4, 7)}):")
    gone = remove_pair("()00(())", 4, 7)
    show("remove", gone)
    show("insert", insert_pair(gone.after, 4, 7))

    print()
    print("Merging two touching blocks drops the index by M[k] (proven in")
    print("PROOFS.md; the report carries the verified delta too):")
    merged = merge_adjacent("(0)()00", 4)
    show("merge", merged)
    show("split", split_block(merged.after, 4))

    print()
    print(f"Fusing blocks across a single zero (psi(4) = {psi(4)}, proven):")
    show("swap", swap_across_zero("()0()00", 4))

    print()
    print("Chaining the three families climbs between landmarks:")
    s1 = split_block("(0())00", 4)
    s2 = shift_close(s1.after, 5, "left")
    s3 = swap_across_zero(s2.after, 4)
    total = s1.verified_delta + s2.verified_delta + s3.verified_delta
    print(f"  {s1.before} -> {s1.after} -> {s2.after} -> {s3.after}")
    print(f"  net delta {total:+d} = rank({s3.after}) - rank({s1.before}) "
          f"= {rank(s3.after)} - {rank(s1.before)}")


if __name__ == "__main__":
    main()
