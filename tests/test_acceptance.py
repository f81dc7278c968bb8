"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is reproducible at desk scale with brute-force oracles;
nothing is sampled and no tolerance is involved (all checks are exact).
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import hashlib
import json

import numpy as np
import pytest

from agroups import cli, constructions as cons, core, fileio, structure
from agroups.indices import index_set, norms
from agroups.verifier import scan

pytestmark = pytest.mark.slow

MICRO_LEMMAS = ("basic", "cl2", "go", "centre", "size", "l4", "ca", "cc")
JOBS = 2


def naive_assoc_ok(table: np.ndarray) -> bool:
    """Definitional O(n^3) associativity, chunked; independent of Light's test."""
    n = len(table)
    step = max(1, (1 << 22) // (n * n))
    for lo in range(0, n, step):
        blk = slice(lo, min(lo + step, n))
        left = table[table[blk], :]         # (b, n, n): (a*b)*c
        right = table[blk][:, table]        # (b, n, n): a*(b*c)
        if not np.array_equal(left, right):
            return False
    return True


def axioms_ok(table: np.ndarray) -> bool:
    n = len(table)
    idx = np.arange(n)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        return False
    if not np.all((table >= 0) & (table < n)):
        return False
    if not np.all((table == 0).sum(axis=1) == 1):
        return False
    return naive_assoc_ok(table)


def test_criterion_1_axiom_suite(tmp_path):
    """Constructor and loader outputs up to order 512 pass the naive axiom sweep."""
    big_v4 = cons.natural_semidirect(
        cons.alternating(4), core.trivial_subgroup(cons.alternating(4))).group
    outputs = [
        cons.cyclic(512),
        cons.abelian_group((8, 8, 8)),
        cons.dihedral(128),
        cons.symmetric(5),
        cons.alternating(5),
        cons.quaternion8(),
        cons.frobenius(101, 4),
        cons.direct_product(cons.symmetric(4), cons.abelian_group((4, 5))),
        cons.semidirect_from_selector(cons.abelian_group((5, 5)), cons.cyclic(3), 1),
        big_v4,
    ]
    path = tmp_path / "roundtrip.grp"
    fileio.save_cayley(cons.dihedral(100), path)
    outputs.append(fileio.load_group(str(path)))
    perm_path = tmp_path / "gen.perm"
    perm_path.write_text("degree 5\n1 0 2 3 4\n1 2 3 4 0\n")
    outputs.append(fileio.load_group(str(perm_path)))
    for G in outputs:
        assert G.n <= 512
        assert axioms_ok(np.asarray(G.table)), G.label
    print(f"criterion 1: PASS - {len(outputs)} constructor/loader outputs "
          "up to order 512 pass the exhaustive axiom sweep")


def _oracle_p_core(G, p: int) -> frozenset:
    """Largest normal p-subgroup via single-element normal closures.

    Independent route: a member's normal closure must be a p-group; the
    p-core is exactly the span of all such members.
    """
    orders = G.element_orders
    table = np.asarray(G.table)
    collected = [0]
    for x in range(G.n):
        o = int(orders[x])
        if o == 1 or core.p_part(o, p) != o:
            continue
        members = np.unique(G.conjugation_table[x])
        while True:
            prods = np.unique(table[members[:, None], members])
            if prods.size == members.size:
                break
            members = prods
        if core.p_part(len(members), p) == len(members):
            collected.append(x)
    members = np.array(sorted(collected), dtype=np.int64)
    while True:
        prods = np.unique(table[members[:, None], members])
        if prods.size == members.size:
            break
        members = prods
    return frozenset(int(v) for v in members)


def test_criterion_2_oracle_equivalence(corpus_200, corpus_100):
    """ind == orbit size everywhere <= 200; p-core == brute force <= 100."""
    for G in corpus_200:
        sizes = G.n // core.centralizer_sizes(G)
        conjugates = np.sort(G.conjugation_table, axis=1)     # row x: the x^g
        orbit_sizes = 1 + (conjugates[:, 1:] != conjugates[:, :-1]).sum(axis=1)
        assert np.array_equal(sizes, orbit_sizes), G.label
    for G in corpus_100:
        for p in core.prime_factors(G.n):
            got = frozenset(int(v) for v in structure.p_core(G, p).members)
            assert got == _oracle_p_core(G, p), (G.label, p)
    print(f"criterion 2: PASS - ind/orbit equality on {len(corpus_200)} groups; "
          f"p-core vs brute force on {len(corpus_100)} groups")


def test_criterion_3_bingo_suite():
    """Index-set equality for every admissible (group, H) pair up to order 200."""
    result = scan(200, lemmas=("bingo",), seed=7, jobs=JOBS)
    by_lemma = {}
    for r in result.reports:
        by_lemma.setdefault(r.lemma_id, []).append(r)
    assert {"bingo", "bingo1", "bingo2"} <= set(by_lemma)
    for lemma in ("bingo1", "bingo2", "bingo"):
        assert all(r.status != "FAIL" for r in by_lemma[lemma])
    tuples = sum(r.checked for r in by_lemma["bingo"])
    assert tuples > 50_000
    print(f"criterion 3: PASS - zero FAIL over {tuples} (group, H) pairs, "
          f"both inclusions, {result.seconds:.0f}s")


def test_criterion_4_key_suite():
    """Fitting collapse preserves the index set for every A-group <= 200."""
    result = scan(200, lemmas=("key",), seed=7, jobs=JOBS)
    key = [r for r in result.reports if r.lemma_id == "key"]
    iff = [r for r in result.reports if r.lemma_id == "key_iff"]
    assert all(r.status != "FAIL" for r in key + iff)
    ran = [r for r in key if r.status == "PASS"]
    assert len(ran) > 1000
    assert all("not an A-group" in r.hypothesis_note
               for r in key if r.status == "SKIP")
    print(f"criterion 4: PASS - {len(ran)} A-groups verified "
          f"(iterated + single collapse + pairings), {result.seconds:.0f}s")


def test_criterion_5_theorem_scan():
    """No nonabelian group <= 200 satisfies the norm hypothesis."""
    spot = {
        "sym(3)": ((1, 2, 3), 6),
        "alt(4)": ((1, 3, 4), 12),
        "frobenius(7,3)": ((1, 3, 7), 21),
    }
    for label, (sizes, total) in spot.items():
        G = fileio.build_recipe(label)
        N = index_set(G)
        assert N.sizes == sizes
        nm = norms(N)
        assert nm.total == total and total not in N
    result = scan(200, lemmas=("theorem",), seed=7, jobs=JOBS)
    assert result.counterexamples == []
    assert (True, True, False) not in result.theorem_cells
    assert result.theorem_cells.get((True, True, True), 0) > 300
    assert result.fail_count == 0
    print(f"criterion 5: PASS - cells {dict(sorted(result.theorem_cells.items()))}, "
          "no counterexample")


def test_criterion_6_micro_suites():
    """Tuple-exhaustive checks over the corpus up to order 100: zero FAIL."""
    result = scan(100, lemmas=MICRO_LEMMAS, seed=7, jobs=JOBS)
    assert result.fail_count == 0
    for r in result.reports:
        if r.status == "SKIP":
            assert r.hypothesis_note, (r.group_label, r.lemma_id)
    tuples = sum(r.checked for r in result.reports)
    print(f"criterion 6: PASS - zero FAIL across {len(result.reports)} reports, "
          f"{tuples} tuples, every SKIP named, {result.seconds:.0f}s")


def test_criterion_7_determinism(tmp_path):
    """Two identical scan invocations produce byte-identical report files."""
    r1, r2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    argv = ["scan", "--max-order", "100", "--seed", "7", "--jobs", str(JOBS)]
    assert cli.main([*argv, "-o", str(r1)]) == 0
    assert cli.main([*argv, "-o", str(r2)]) == 0
    b1, b2 = r1.read_bytes(), r2.read_bytes()
    assert b1 == b2
    assert hashlib.sha256(b1).hexdigest() == (
        "e47d9f26b7dca24514afe52e47f5016d978760fe073ea49e2f1954f47e82ae8d")
    records = [json.loads(l) for l in b1.decode().splitlines()]
    assert all(rec["status"] != "FAIL" for rec in records)
    print(f"criterion 7: PASS - {len(records)} records, byte-identical across runs")
