#!/usr/bin/env python3
"""Gather statistics for the three statements that are observed, never asserted.

They hold inside a minimal-counterexample argument whose hypotheses no real
group satisfies, so the harness only evaluates their predicates on
centerless A-groups that split over the Fitting subgroup, and tabulates how
often each observation holds.
"""

import argparse
from collections import Counter

from agroups.constructions import corpus
from agroups.verifier import EXPLORE_IDS, explore_minimal_lemmas


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=100)
    args = parser.parse_args()

    tallies = {lemma: Counter() for lemma in EXPLORE_IDS}
    eligible = 0
    for G in corpus(args.max_order):
        reports = explore_minimal_lemmas(G)
        notes = {r.lemma_id: r.hypothesis_note for r in reports}
        if any("exploratory;" in n and (
                "not an A-group" in n or "center" in n or "complement" in n)
               for n in notes.values()):
            continue
        eligible += 1
        for lemma in EXPLORE_IDS:
            tallies[lemma][notes[lemma]] += 1

    print(f"eligible groups (centerless A-groups with a complement): {eligible}")
    for lemma in EXPLORE_IDS:
        print(f"\n{lemma}:")
        for note, count in tallies[lemma].most_common(12):
            print(f"  {count:5d}  {note}")


if __name__ == "__main__":
    main()
