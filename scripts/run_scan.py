#!/usr/bin/env python3
"""Run the full corpus scan and write the report to ``--out``.

Defaults match the repo's headline claim: every check over every corpus
group up to order 200, both inclusions of the index-set equality reported
separately.  The default ``--out``, ``scan-report.jsonl``, is relative, so
the report lands in the working directory, not next to this script.
"""

import argparse
import sys

from agroups.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=200)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", default="scan-report.jsonl")
    parser.add_argument("--explore", action="store_true",
                        help="also record the exploratory minimal-lemma statistics")
    args = parser.parse_args()
    argv = ["scan", "--max-order", str(args.max_order), "--jobs", str(args.jobs),
            "-o", args.out]
    if args.explore:
        argv.append("--explore-minimal-lemmas")
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
