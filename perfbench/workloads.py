"""The benchmark's workloads and the outputs pinned from the seed code.

Each workload takes the scan seed (the ``--seed`` of ``agroups scan`` and
``agroups verify``) as its only input knob.  The seed steers the randomized
Fitting-complement search and nothing else, so every seed runs the same
groups and does nearly the same work, while the outputs are checked in
full on every seed.
"""

from __future__ import annotations

COLLAPSE_LEMMAS = ("bingo", "key", "theorem", "l4", "ca", "cc")

WORKLOADS = {
    # Default `agroups scan` over many small tables in one process; the five
    # lattice checks (basic, cl2, go, centre, size) dominate.
    "scan_all_32": {"kind": "scan", "max_order": 32, "lemmas": ("all",), "jobs": 1},
    # The collapse checks over a larger corpus with two workers: coset-action
    # products, Fitting data, complement search and the orchestrator, which
    # rebuilds the corpus in every worker.  Never walks the generic lattice.
    "scan_collapse_60": {"kind": "scan", "max_order": 60, "lemmas": COLLAPSE_LEMMAS,
                         "jobs": 2},
    # `agroups verify --lemma all` on single larger tables: a big generic
    # lattice, an elementary-abelian group with many subgroups (every bingo
    # pair is computed twice by cmd_verify), a nonsolvable group and a
    # semidirect product whose construction enumerates automorphisms.
    "verify_heavy": {"kind": "verify", "jobs": 1, "recipes": (
        "dp(dp(dp(abelian(2),abelian(2)),abelian(2)),sym(3))",
        "abelian(2,2,2,2,2)",
        "sym(5)",
        "sd(abelian(5,5),cyclic(2),1)",
    )},
}

# Totals and output digest on the seed code.  `reports` counts (group, lemma)
# report records (for verify_heavy: every status line the CLI prints), and
# `checked` sums their `checked` fields.  The digest is pinned for seed 7.
PINNED = {
    "scan_all_32": {"groups": 141, "reports": 1974, "checked": 79505, "sha256_seed7":
                    "61ed584f2fb5a4a401f998807c4d6343fb85683c9451a30dd3e158c75bf2a3b2"},
    "scan_collapse_60": {"groups": 343, "reports": 3087, "checked": 61180, "sha256_seed7":
                         "6a988992d2f0ef486b21fa22d9d2fe7ae6db01be7893c09ab683e8aca9366867"},
    "verify_heavy": {"groups": 4, "reports": 452, "checked": 26859, "sha256_seed7":
                     "fdd30a38abad98e04e49359baac08ae33544b69db457f4662f6f7daa8d8185f9"},
}

PINNED_SEED = 7

# Tiny inputs for the tracer self-test: together they call every wrapped name.
SELF_TEST_SCAN_ORDER = 12
SELF_TEST_RECIPES = ("dp(abelian(3),sym(3))",)
