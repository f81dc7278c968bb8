"""Command-line surface: info, verify, scan, construct.

Exit codes: 0 when nothing failed, 1 when at least one check failed,
2 for usage or input errors.  AGROUPS_CAP overrides the --cap default.
Every check is deterministic, so ``--seed`` and AGROUPS_SEED are accepted
for existing command lines and have no effect; a non-integer AGROUPS_SEED
is still an input error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import (
    InputError,
    PreconditionError,
    center,
    derived_series,
    max_order_cap,
    prime_factors,
    set_max_order_cap,
)
from .indices import index_set, norms
from .structure import fitting_data, is_a_group, is_nilpotent
from .verifier import FAIL, LEMMA_IDS, scan, verify_group
from . import fileio


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {name} must be an integer, got {raw!r}")


_SEED_HELP = "accepted with no effect: every check is deterministic (env AGROUPS_SEED)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agroups",
        description="Finite-group computations and the class-size verification harness.")
    parser.add_argument("--cap", type=int, default=None,
                        help="desk-scale cap on group order (default 2000, env AGROUPS_CAP)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print structure and class-size data")
    p_info.add_argument("source", help="group file or recipe")

    p_verify = sub.add_parser("verify", help="run checks on one group")
    p_verify.add_argument("--lemma", default="all",
                          help=f"comma list from {{{'|'.join(LEMMA_IDS)}|all}}")
    p_verify.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p_verify.add_argument("--explore-minimal-lemmas", action="store_true")
    p_verify.add_argument("source", help="group file or recipe")

    p_scan = sub.add_parser("scan", help="run checks over the whole corpus")
    p_scan.add_argument("--max-order", type=int, required=True)
    p_scan.add_argument("--families", default=None,
                        help="comma list of corpus families")
    p_scan.add_argument("--lemma", default="all")
    p_scan.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--explore-minimal-lemmas", action="store_true")
    p_scan.add_argument("-o", "--report", default="scan-report.jsonl",
                        help="report file path (JSON records, one per line)")

    p_con = sub.add_parser("construct", help="build a group from a recipe and save it")
    p_con.add_argument("recipe")
    p_con.add_argument("-o", "--output", required=True)
    return parser


def _lemma_list(raw: str) -> tuple[str, ...]:
    lemmas = tuple(t.strip() for t in raw.split(",") if t.strip())
    for lem in lemmas:
        if lem != "all" and lem not in LEMMA_IDS:
            raise InputError(f"unknown check {lem!r}; choose from {', '.join(LEMMA_IDS)}")
    return lemmas or ("all",)


def cmd_info(args) -> int:
    G = fileio.load_group(args.source)
    N = index_set(G)
    nm = norms(N)
    fd = fitting_data(G)
    print(f"label: {G.label}")
    print(f"order: {G.n}")
    print(f"primes: {', '.join(map(str, prime_factors(G.n))) or '-'}")
    print(f"abelian: {'yes' if G.is_abelian() else 'no'}")
    print(f"nilpotent: {'yes' if is_nilpotent(G) else 'no'}")
    print(f"solvable: {'yes' if derived_series(G).is_solvable else 'no'}")
    print(f"A-group: {'yes' if is_a_group(G) else 'no'}")
    print(f"N(G) = {{{', '.join(map(str, N.sizes))}}}")
    for p, v in sorted(nm.per_prime.items()):
        print(f"|G||_{p} = {v}")
    print(f"|G|| = {nm.total} (in N(G): {'yes' if nm.total in N else 'no'})")
    print(f"|F(G)| = {fd.fitting.order}, |F2(G)| = {fd.second_fitting.order}")
    print(f"|Z(G)| = {center(G).order}")
    return 0


def cmd_verify(args) -> int:
    G = fileio.load_group(args.source)
    if args.seed is None:
        _env_int("AGROUPS_SEED")   # no effect, but must be an integer
    lemmas = _lemma_list(args.lemma)
    if "bingo" in lemmas or "all" in lemmas:
        from .verifier import bingo_tuples, check_bingo_pair

        for p, H in bingo_tuples(G):
            pair = {r.lemma_id: r for r in check_bingo_pair(G, H)}
            print(f"{pair['bingo'].status} bingo      "
                  f"H = {{{','.join(map(str, H.members))}}} (p={p})")
    reports = verify_group(G, lemmas, explore=args.explore_minimal_lemmas)
    failed = False
    for r in reports:
        note = f"  [{r.hypothesis_note}]" if r.hypothesis_note else ""
        extra = f"  checked={r.checked} skipped={r.skipped}"
        print(f"{r.status:<4} {r.lemma_id:<10} {G.label}{extra}{note}")
        if r.status == FAIL:
            failed = True
            print(f"     witness: {r.witness}")
    return 1 if failed else 0


def cmd_scan(args) -> int:
    if args.seed is None:
        _env_int("AGROUPS_SEED")   # no effect, but must be an integer
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    families = None
    if args.families:
        families = tuple(t.strip() for t in args.families.split(",") if t.strip())
    result = scan(args.max_order, families, _lemma_list(args.lemma),
                  jobs=args.jobs, explore=args.explore_minimal_lemmas)
    fileio.write_report_file(result.reports, args.report)
    print(f"scanned {result.group_count} groups up to order {args.max_order} "
          f"in {result.seconds:.1f}s")
    print(fileio.summary_table(result.reports))
    cells = result.theorem_cells
    print("theorem cells (A-group, hypothesis, abelian) -> count:")
    for cell in sorted(cells):
        print(f"  {cell} -> {cells[cell]}")
    if result.counterexamples:
        print(f"COUNTEREXAMPLES: {', '.join(result.counterexamples)}")
    print(f"report written to {args.report}")
    return 1 if result.fail_count else 0


def cmd_construct(args) -> int:
    G = fileio.build_recipe(args.recipe)
    fileio.save_cayley(G, args.output)
    print(f"saved {G.label} (order {G.n}) to {args.output}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    previous_cap = max_order_cap()
    try:
        cap = args.cap if args.cap is not None else _env_int("AGROUPS_CAP")
        if cap is not None:
            set_max_order_cap(cap)
        commands = {"info": cmd_info, "verify": cmd_verify, "scan": cmd_scan,
                    "construct": cmd_construct}
        return commands[args.command](args)
    except (InputError, PreconditionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_max_order_cap(previous_cap)


if __name__ == "__main__":
    sys.exit(main())
