#!/usr/bin/env python3
"""Letting the brute-force oracle keep everybody honest.

The enumerate-and-sort oracle shares no code with the completion-count
arithmetic, so their agreement actually means something.  Audits sweep
whole ranges site by site; proof-backed checks must come back clean,
while the conjectured merge delta and the psi drop, whose site
independence is audited rather than proven, report counterexamples as
data (none are known through range 12).
"""

from motzkinrow import (
    audit,
    control_points,
    regenerate_addendum,
    report_text,
    sequence,
)


def main():
    print("Named sequences, regenerated from the operations themselves:")
    for name, count in (("motzkin", 12), ("unique", 12), ("xi", 10),
                        ("zeta_adjacent", 10), ("psi", 9)):
        values = ", ".join(str(v) for v in sequence(name, count))
        print(f"  {name:>13}: {values}")

    print()
    print("The seven landmark words of range 8, each index checked by rank:")
    for name, word, index in control_points(8):
        print(f"  {name:<18} {str(word):<10} index {index}")

    print()
    for check, scope in (("rank_roundtrip", 9), ("theorem_2_4", 8),
                         ("conjecture_4_3", 10), ("psi_site_independence", 10)):
        print(report_text(audit(check, scope)))
        print()

    print("The first lines of the regenerated row listing:")
    for line in regenerate_addendum(5).splitlines():
        print(" ", line)


if __name__ == "__main__":
    main()
