"""Per-check behavior: statuses, gating, witnesses, replay, and the scan."""

import gc
import hashlib
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroups import constructions as cons, core, fileio, structure, verifier
from agroups.indices import HypothesisCheck
from agroups.structure import complement_search, fitting_data, p_core

from conftest import (
    ORACLE_LATTICE_CHECKS,
    cyclic_of_order,
    lattice_subgroups,
    oracle_regular_orbit_exists,
    relabelled,
    subgroup_table,
)


def _statuses(reports):
    return {r.lemma_id: r.status for r in reports}


# -- pass/skip behavior on known groups ----------------------------------------------


def test_all_checks_pass_on_varied_sample(small_pool):
    for G in small_pool:
        reports = verifier.verify_group(G, ("all",), seed=7)
        assert all(r.status != "FAIL" for r in reports), (
            G.label, [(r.lemma_id, r.hypothesis_note, r.witness)
                      for r in reports if r.status == "FAIL"])


def test_quaternion_gates_to_skip():
    st = _statuses(verifier.verify_group(cons.quaternion8(), ("all",), seed=1))
    assert st["bingo"] == "SKIP" and st["bingo1"] == "SKIP"
    assert st["key"] == "SKIP" and st["ca"] == "SKIP" and st["cc"] == "SKIP"
    assert st["basic"] == "PASS" and st["theorem"] == "PASS"


def test_skip_notes_name_the_hypothesis():
    reports = verifier.verify_group(cons.quaternion8(), ("all",), seed=1)
    for r in reports:
        if r.status == "SKIP":
            assert r.hypothesis_note


def test_a5_cc_is_observed_not_asserted():
    reports = verifier.verify_group(cons.alternating(5), ("cc",), seed=1)
    (r,) = reports
    assert r.status == "SKIP"
    assert "not solvable" in r.hypothesis_note
    assert "observed" in r.hypothesis_note


def test_nonsplit_group_skips_ca():
    G = cons.semidirect_from_selector(cons.cyclic(3), cons.cyclic(4), 1)
    (r,) = verifier.verify_group(G, ("ca",), seed=1)
    assert r.status == "SKIP"
    assert "complement" in r.hypothesis_note


def test_trivial_group_all_pass():
    reports = verifier.verify_group(cons.cyclic(1), ("all",), seed=1)
    assert {r.status for r in reports} == {"PASS"}


def test_explore_mode_records_but_never_asserts(a4):
    reports = verifier.verify_group(a4, ("theorem",), seed=3, explore=True)
    ids = {r.lemma_id: r for r in reports}
    for lemma in verifier.EXPLORE_IDS:
        assert ids[lemma].status == "SKIP"
        assert "exploratory" in ids[lemma].hypothesis_note


def test_explore_statistics_present_on_centerless_split_group():
    G = cons.frobenius(7, 3)
    reports = verifier.verify_group(G, ("theorem",), seed=3, explore=True)
    notes = {r.lemma_id: r.hypothesis_note for r in reports}
    assert "evaluated=" in notes["perfect"]
    assert "p=3" in notes["primeiro"] and "p=7" in notes["primeiro"]


# -- failure paths, witnesses, replay ---------------------------------------------------


def test_go_comparator_fails_on_violated_hypothesis():
    # the splitting genuinely fails when 'a' is not coprime to P: inside Q8,
    # P = <i> and a = j give overlapping fixed points and commutators
    Q = cons.quaternion8()
    P = cyclic_of_order(Q, 4)
    j = next(x for x in range(8)
             if Q.order_of(x) == 4 and not P.mask[x])
    bad = verifier._coprime_split_ok(Q, P, np.array([j]))
    assert bad == 0
    assert not verifier.replay_go(Q, P.members.tolist(), j)


def test_replay_go_passes_on_real_tuple(a4):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    g3 = next(x for x in range(12) if a4.order_of(x) == 3)
    assert verifier.replay_go(a4, v4.members.tolist(), g3)


def test_replays_reject_out_of_range_elements(a4):
    P = p_core(a4, 2).members.tolist()
    with pytest.raises(core.InputError, match="out of range"):
        verifier.replay_go(a4, P, -1)
    with pytest.raises(core.InputError, match="out of range"):
        verifier.replay_go(a4, [0, 12], 1)
    with pytest.raises(core.InputError, match="out of range"):
        verifier.replay_bingo(a4, [0, 12])


@pytest.mark.parametrize("replay", [
    lambda G, members: verifier.replay_go(G, members, 1),
    verifier.replay_bingo,
])
def test_replays_reject_a_member_list_that_is_not_a_subgroup(replay):
    # {0, 2} in C6 holds the identity and has order dividing 6, but 2 + 2 = 4
    with pytest.raises(core.PreconditionError, match=r"\[0, 2\] do not form a subgroup") as exc:
        replay(cons.cyclic(6), [0, 2])
    assert exc.value.witness == {"members": [0, 2]}


def test_bingo_comparator_detects_untwisted_product(s3):
    # direct product H x G/H forgets the conjugation twist, and the index
    # sets drift apart; the comparator must see it in both directions
    a3 = next(H for H in core.normal_subgroups(s3) if H.order == 3)
    q = core.quotient_group(s3, a3)
    untwisted = cons.direct_product(subgroup_table(s3, a3), q.quotient)
    missing, extra = verifier.bingo_compare(s3, untwisted)
    assert missing == [2, 3] and extra == []
    assert verifier.replay_bingo(s3, a3.members.tolist())


def test_basic_pair_replay(s3):
    x = next(i for i in range(6) if s3.order_of(i) == 2)
    y = 0
    assert verifier.replay_basic_pair(s3, x, y)


def test_regular_orbit_fails_without_faithfulness():
    # inside dihedral(6) the abelian subgroup {e, r^3, s, r^3 s} acts on the
    # rotation C3 with the central flip in the kernel: no regular orbit
    G = cons.dihedral(6)
    V = next(H for H in core.normal_subgroups(G) if H.order == 3)
    A = next(H for H in lattice_subgroups(G)
             if H.order == 4 and H.is_abelian)
    assert not oracle_regular_orbit_exists(G, V, A)


def _centre_per_g(G):
    """check_centre with one product-rule test per g, as (status, witness,
    checked, skipped): the reference for the batched comparison."""
    cm = G.commute_matrix
    cg = core.centralizer_sizes(G)
    checked = skipped = 0
    for H in core.normal_subgroups(G):
        if not H.is_abelian:
            continue
        q = core.quotient_group(G, H)
        qc = core.centralizer_sizes(q.quotient)
        central = cm[:, H.members].all(axis=1)
        cond = central & (cg == H.order * qc[q.projection])
        for g in np.flatnonzero(cond):
            checked += 1
            hg = G.table[H.members, g]
            good = (cm[:, hg] == (cm[:, H.members] & cm[:, g, None])).all(axis=0)
            if not good.all():
                return ("FAIL", {"H": H.members.tolist(), "g": int(g),
                                 "h": int(H.members[int(np.argmax(~good))])},
                        checked, skipped)
        skipped += int(central.sum() - cond.sum())
    return ("PASS", None, checked, skipped)


def _centre_record(G):
    (r,) = verifier.check_centre(G)
    return (r.status, r.witness or None, r.checked, r.skipped)


def test_batched_centre_matches_per_g_loop(monkeypatch):
    groups = list(cons.corpus(32))
    for G in groups:
        assert _centre_record(G) == _centre_per_g(G), G.label
    for block in (1, 2000):                     # one row, then a few, per block
        monkeypatch.setattr(core, "_PACKED_BLOCK", block)
        for G in groups[::7]:
            core.release_memo(G)
            assert _centre_record(G) == _centre_per_g(G), (block, G.label)


@pytest.mark.parametrize("block", [None, 1])
def test_batched_centre_fail_matches_per_g_loop(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(core, "_PACKED_BLOCK", block)
    G = cons.direct_product(cons.symmetric(3), cons.cyclic(2))
    cm = G.commute_matrix.copy()
    cm[0, 2] = ~cm[0, 2]                   # a broken table the rule must catch
    cm.setflags(write=False)
    G.__dict__["commute_matrix"] = cm
    core.release_memo(G)
    got = _centre_record(G)
    assert got[0] == "FAIL" and got[1]["g"] == 3
    assert got == _centre_per_g(G)


def test_centre_reads_coset_centralizers_from_classes():
    groups = [*cons.corpus(32),
              cons.direct_product(cons.abelian_group((2, 2, 2)), cons.symmetric(3))]
    for G in groups:
        normals = core.normal_subgroups(G)
        rows = core.coset_centralizer_rows(G, core.normal_arrays(G).words)
        for H, row in zip(normals, rows, strict=True):
            sums = H.mask[G.commutator_table].sum(axis=0)  # y with [y, x] in H
            assert np.array_equal(row, sums), (G.label, H.members.tolist())


def test_centre_fail_on_a_tampered_conjugation_table():
    # 1^g = 5 for a single g, each g in turn: the normal walk then returns
    # the non-normal {0, 1, 4, 5}, whose product rule breaks.  The record is
    # the one the commutator-table column sums gave.
    base = cons.direct_product(cons.symmetric(3), cons.cyclic(2))
    for g in range(base.n):
        G = core.GroupTable(base.table, base.label, trusted=True)
        cj = G.conjugation_table.copy()
        cj[1, g] = 5
        cj.setflags(write=False)
        G.__dict__["conjugation_table"] = cj
        assert _centre_record(G) == ("FAIL", {"H": [0, 1, 4, 5], "g": 4, "h": 4}, 17, 4)


def _size_per_g(G):
    """check_size with one translate test per g, as (status, witness,
    checked, skipped): the reference for the batched comparison."""
    orders = G.element_orders
    cg = core.centralizer_sizes(G)
    cj = G.conjugation_table
    checked = skipped = 0
    for H in core.normal_subgroups(G):
        if H.order == 1 or not H.is_abelian:
            continue
        primes = core.prime_factors(H.order)
        if len(primes) != 1:
            continue
        p = primes[0]
        for g in np.flatnonzero([core.p_part(int(o), p) == 1 for o in orders]):
            prods = G.table[H.members, g]
            keep = orders[prods] == orders[g]
            skipped += int((~keep).sum())
            if not keep.any():
                continue
            checked += int(keep.sum())
            conjugates = np.unique(cj[g, H.members])
            ok = np.isin(prods[keep], conjugates) & (cg[prods[keep]] == cg[g])
            if not ok.all():
                h = int(H.members[np.flatnonzero(keep)[int(np.argmax(~ok))]])
                return ("FAIL", {"H": H.members.tolist(), "g": int(g), "h": h},
                        checked, skipped)
    return ("PASS", None, checked, skipped)


def _size_record(G):
    (r,) = verifier.check_size(G)
    return (r.status, r.witness or None, r.checked, r.skipped)


def test_batched_size_matches_per_g_loop():
    for G in cons.corpus(32):
        assert _size_record(G) == _size_per_g(G), G.label


def test_batched_size_fail_matches_per_g_loop():
    G = cons.direct_product(cons.symmetric(3), cons.cyclic(2))
    H = next(H for H in core.normal_subgroups(G) if H.order == 3)
    g = 10                                 # of order 2, late among the 3' elements
    assert G.order_of(g) == 2
    cj = G.conjugation_table.copy()
    cj[g, H.members] = g                   # a broken table: g looks H-central
    cj.setflags(write=False)
    G.__dict__["conjugation_table"] = cj
    got = _size_record(G)
    assert got[0] == "FAIL" and got[1]["g"] == g and got[1]["h"] in H.members[1:]
    assert got[2] > 1 and got[3] > 0       # the C2 subgroup came first
    assert got == _size_per_g(G)


def _lattice_records(G):
    return [_key_records(verifier._CHECKS[lemma](G))[0] for lemma in ORACLE_LATTICE_CHECKS]


def _oracle_records(G):
    return [oracle(G) for oracle in ORACLE_LATTICE_CHECKS.values()]


@pytest.mark.parametrize("block", [None, 1])
def test_lattice_checks_match_their_per_subgroup_loops(monkeypatch, block):
    # the five checks read stacked subgroups; the conftest oracles walk them
    # one at a time.  At block 1 every run holds a single subgroup.
    if block is not None:
        monkeypatch.setattr(core, "_PACKED_BLOCK", block)
    groups = [*cons.corpus(32), *list(cons.corpus(60))[::5],
              fileio.build_recipe("dp(sym(4),abelian(2,2))")]
    for G in groups:
        assert _lattice_records(G) == _oracle_records(G), G.label
        core.release_memo(G)


def _tampered_copies(base, rng):
    """Copies of ``base`` with broken cached tables, each built fresh and
    with its subgroup lists cached first: one commute-matrix entry flipped
    away from the identity; two commuting pairs given a nontrivial
    commutator; and, with every derivation the checks read cached first,
    extra commuting pairs (a, v) across coprime abelian A and abelian
    normal V."""
    x, y = map(int, rng.choice(np.arange(1, base.n), size=2, replace=False))
    G = core.GroupTable(base.table, base.label, trusted=True)
    core.abelian_subgroups(G)
    _flip_commute(G, x, y)
    yield G
    G = core.GroupTable(base.table, base.label, trusted=True)
    core.abelian_subgroups(G)
    for x, y in np.argwhere(G.commute_matrix & ~np.eye(G.n, dtype=bool))[[1, -1]]:
        _set_commutator(G, x, y, int(rng.integers(1, G.n)))
    yield G
    G = core.GroupTable(base.table, base.label, trusted=True)
    _oracle_records(G)
    cm = G.commute_matrix.copy()
    for V in core.normal_subgroups(G):
        for A in core.abelian_subgroups(G):
            if V.is_abelian and np.gcd(V.order, A.order) == 1:
                cm[np.ix_(A.members[1:], V.members[1:])] |= rng.random((A.order - 1, V.order - 1)) < 0.6
    cm.setflags(write=False)
    G.__dict__["commute_matrix"] = cm
    yield G


@pytest.mark.parametrize("block", [None, 1])
def test_lattice_checks_fail_like_their_per_subgroup_loops(monkeypatch, block):
    # the first failing subgroup, the witness and the counts must be the
    # loop's, at every exit some tampered table reaches
    if block is not None:
        monkeypatch.setattr(core, "_PACKED_BLOCK", block)
    rng = np.random.default_rng(24)
    exits = set()
    for base in [G for G in cons.corpus(32) if G.n > 3][::2]:
        for G in _tampered_copies(base, rng):
            got = _lattice_records(G)
            assert got == _oracle_records(G), G.label
            exits |= {(lemma, note) for lemma, status, note, *_ in got if status == "FAIL"}
    assert exits == {("basic", "orbit size fails to divide"),
                     ("basic", "centralizer image escapes"),
                     ("basic", "coprime centralizer image too small"),
                     ("cl2", "no regular orbit"), ("go", "no splitting"),
                     ("centre", "centralizer product rule"),
                     ("size", "translate is not an H-conjugate")}


def test_lattice_checks_on_c2_to_the_7_stay_in_bounded_memory():
    # 29,212 subgroups.  The counts are formed in blocks, so the peak stays
    # near that of the per-subgroup loops they replaced, 58,428 KiB (Linux
    # x86-64, numpy 2.4); the bound is that peak plus 25 %.  On Linux a child
    # starts with its parent's peak RSS as ru_maxrss (KiB), so the checks run
    # in a grandchild spawned from a small intermediate process.
    run = ("import resource; from agroups import constructions as cons, verifier; "
           "G = cons.abelian_group((2,) * 7); "
           "print([(r.lemma_id, r.status, r.checked, r.skipped) for lemma in "
           "('basic', 'centre', 'cl2', 'go', 'size') for r in verifier._CHECKS[lemma](G)]); "
           "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    hop = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = {**os.environ, "PYTHONPATH": str(Path(verifier.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", hop, sys.executable, "-c", run],
                         capture_output=True, text=True, env=env, check=True)
    records, peak = out.stdout.splitlines()
    assert records == str([("basic", "PASS", 29339, 0), ("centre", "PASS", 3739136, 0),
                           ("cl2", "PASS", 29212, 853311732), ("go", "PASS", 29211, 0),
                           ("size", "PASS", 29211, 358775)])
    assert int(peak) < 73_000


def _lists_and_lattice_records(G):
    lists = [[H.members.tobytes() for H in query(G)]
             for query in (core.normal_subgroups, core.abelian_subgroups)]
    return lists, _lattice_records(G)


def test_lattice_checks_and_lists_survive_tiny_blocks(monkeypatch):
    # at a few hundred bytes a block, every walk level and every member count
    # splits into many blocks; lists and records must not change
    groups = [*cons.corpus(24), cons.abelian_group((2, 2, 2, 2, 3))]
    want = []
    for G in groups:
        want.append(_lists_and_lattice_records(G))
        core.release_memo(G)
    blocks = []                                     # the pair blocks of each walk step
    real = core._pair_blocks

    def recording(*args):
        blocks.append(list(real(*args)))
        return blocks[-1]

    monkeypatch.setattr(core, "_pair_blocks", recording)
    monkeypatch.setattr(core, "_PACKED_BLOCK", 300)
    for G, expected in zip(groups, want, strict=True):
        assert _lists_and_lattice_records(G) == expected, G.label
        core.release_memo(G)
    assert max(map(len, blocks)) > 10


def test_subgroups_of_c2_to_the_7_stays_in_bounded_memory():
    # 29,212 subgroups, walked a level at a time in blocks: 53,668 KiB, and
    # 57,936 KiB for the depth-first walk it replaced, and 224,396 KiB with
    # each level formed in one block (Linux x86-64, numpy 2.4).  As
    # above, the walk runs in a grandchild so that ru_maxrss (KiB) is its own.
    run = ("import resource; from agroups import constructions as cons, core; "
           "print(len(core.subgroups_of(cons.abelian_group((2,) * 7)))); "
           "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    hop = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = {**os.environ, "PYTHONPATH": str(Path(verifier.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", hop, sys.executable, "-c", run],
                         capture_output=True, text=True, env=env, check=True)
    count, peak = out.stdout.splitlines()
    assert int(count) == 29212
    assert int(peak) <= 150_000


def test_bingo_on_c2_to_the_7_stays_in_bounded_memory():
    # 29,212 tuples, each product G's own table.  Built a block of subgroups
    # at a time and kept as index-set differences, the check peaks at
    # 49,064 KiB, against 167,324 KiB with one memoized product and quotient
    # per subgroup (Linux x86-64, numpy 2.4); the bound is that peak plus
    # 25 %.  As above, the check runs in a grandchild so that ru_maxrss
    # (KiB) is its own.
    run = ("import resource; from agroups import constructions as cons, verifier; "
           "G = cons.abelian_group((2,) * 7); "
           "print([(r.lemma_id, r.status, r.checked) for r in verifier.check_bingo(G)]); "
           "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    hop = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = {**os.environ, "PYTHONPATH": str(Path(verifier.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", hop, sys.executable, "-c", run],
                         capture_output=True, text=True, env=env, check=True)
    records, peak = out.stdout.splitlines()
    assert records == str([(lemma, "PASS", 29212) for lemma in ("bingo1", "bingo2", "bingo")])
    assert int(peak) < 61_500


def test_a_scan_builds_no_abelian_handles(monkeypatch):
    # the checks read the abelian list as arrays; its handles are for callers
    built = []
    monkeypatch.setattr(core, "_abelian_handles", lambda G: built.append(G.label))
    result = verifier.scan(24)
    assert built == [] and result.group_count > 40 and result.fail_count == 0


@pytest.mark.parametrize("build,flips,message,members", [
    # the join walk: a claimed commuting pair makes one product no subgroup
    (lambda: cons.dihedral(3), [(1, 3), (3, 1)], "|H| = 4 does not divide |G| = 6",
     [0, 1, 3, 4]),
    # the Fitting centralizer of the key check, one entry flipped
    (lambda: cons.abelian_group((2, 5)), [(1, 7)], "|H| = 9 does not divide |G| = 10",
     [0, 2, 3, 4, 5, 6, 7, 8, 9]),
])
def test_a_broken_commute_matrix_is_refused_not_listed(build, flips, message, members):
    base = build()
    G = core.GroupTable(base.table, base.label, trusted=True)
    cm = G.commute_matrix.copy()
    for x, y in flips:
        cm[x, y] = ~cm[x, y]
    cm.setflags(write=False)
    G.__dict__["commute_matrix"] = cm
    with pytest.raises(core.PreconditionError) as exc:
        verifier.verify_group(G, ("all",))
    assert str(exc.value) == message and exc.value.witness == {"members": members}


def test_basic_centre_and_l4_build_no_quotient_table(monkeypatch):
    built = []
    init = core.GroupTable.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.label)

    groups = [cons.direct_product(cons.cyclic(3), cons.symmetric(3)),
              cons.direct_product(cons.abelian_group((2, 2, 2)), cons.symmetric(3))]
    monkeypatch.setattr(core.GroupTable, "__init__", tracking)
    for G in groups:
        reports = verifier.verify_group(G, ("basic", "centre", "l4"))
        assert {r.status for r in reports} == {"PASS"}, G.label
    # dp(cyclic(3),sym(3)) has g that l4_decompose splits for real
    (l4,) = verifier.check_l4(groups[0])
    assert l4.checked > int(l4.hypothesis_note.split()[0])
    assert built == []


def test_bingo_reads_the_cached_normality_flag(monkeypatch):
    sweeps = []
    real = core.SubgroupHandle.normality_witness
    monkeypatch.setattr(core.SubgroupHandle, "normality_witness",
                        lambda H: sweeps.append(H) or real(H))
    reports = verifier.check_bingo(cons.abelian_group((2, 2, 2, 2, 2)))
    assert {r.status for r in reports} == {"PASS"} and reports[0].checked == 374
    assert sweeps == []


def test_fail_reports_carry_witnesses():
    # drive the report plumbing with a deliberately wrong comparator result
    Q = cons.quaternion8()
    P = cyclic_of_order(Q, 4)
    j = next(x for x in range(8) if Q.order_of(x) == 4 and not P.mask[x])
    report = verifier.VerificationReport(
        Q.label, Q.n, "go", "FAIL", "no splitting",
        {"P": P.members.tolist(), "a": j}, 1, 0)
    assert report.witness["P"] and not verifier.replay_go(Q, **{
        "P_members": report.witness["P"], "a": report.witness["a"]})


# -- single-action and single-pair surfaces --------------------------------------------------


def _action_orbit_is_regular(spec) -> bool:
    """oracle_regular_orbit_exists for one action, read inside its semidirect
    product, where the pair (a, b) is a * |acting| + b."""
    G = cons.semidirect_product(spec)
    V = core.SubgroupHandle(G, np.arange(spec.acted.n) * spec.acting.n)
    A = core.SubgroupHandle(G, np.arange(spec.acting.n))
    return oracle_regular_orbit_exists(G, V, A)


def test_cl2_action_faithful_pass():
    homs = cons.action_homs(cons.cyclic(5), cons.cyclic(4))
    spec = cons.ActionSpec(acting=cons.cyclic(4), acted=cons.cyclic(5), action=homs[1])
    assert _action_orbit_is_regular(spec)


def test_cl2_action_trivial_acting_group():
    spec = cons.ActionSpec(acting=cons.cyclic(1), acted=cons.cyclic(5),
                           action=np.arange(5)[:, None])
    assert _action_orbit_is_regular(spec)


def test_bingo_pair_surface(a4, s3):
    v4 = next(H for H in core.normal_subgroups(a4) if H.order == 4)
    by_id = {r.lemma_id: r for r in verifier.check_bingo_pair(a4, v4)}
    assert {by_id[k].status for k in ("bingo1", "bingo2", "bingo")} == {"PASS"}
    h2 = cyclic_of_order(s3, 2)
    skip = verifier.check_bingo_pair(s3, h2)
    assert all(r.status == "SKIP" and "not normal" in r.hypothesis_note for r in skip)
    mixed = next(H for H in core.normal_subgroups(cons.cyclic(6)) if H.order == 6)
    skip2 = verifier.check_bingo_pair(cons.cyclic(6), mixed)
    assert all(r.status == "SKIP" and "p-group" in r.hypothesis_note for r in skip2)


def test_theorem_scan_surface():
    result = verifier.theorem_scan(cons.corpus(16))
    assert result.fail_count == 0
    assert result.counterexamples == []
    assert (True, True, False) not in result.theorem_cells
    assert sum(result.theorem_cells.values()) == result.group_count
    full = verifier.scan(16, lemmas=("theorem",))
    assert result.theorem_cells == full.theorem_cells
    assert result.counterexamples == full.counterexamples


# -- the theorem cells ---------------------------------------------------------------------


def test_theorem_witness_cells(s3, a4):
    (r_s3,) = verifier.check_theorem(s3)
    assert r_s3.status == "PASS"
    w = r_s3.witness
    assert w["is_a_group"] and not w["satisfies"] and not w["abelian"]
    (r_ab,) = verifier.check_theorem(cons.abelian_group((2, 3)))
    assert r_ab.witness["satisfies"] and r_ab.witness["abelian"]


# -- scan plumbing ----------------------------------------------------------------------


def test_scan_small_corpus_no_failures():
    result = verifier.scan(24, lemmas=("all",), seed=7)
    assert result.fail_count == 0
    assert result.group_count == len(list(cons.corpus(24)))
    assert (True, True, False) not in result.theorem_cells
    assert result.counterexamples == []


def test_scan_reports_sorted_and_serializable():
    result = verifier.scan(12, lemmas=("all",), seed=7)
    keys = [(r.group_order, r.group_label, r.lemma_id) for r in result.reports]
    assert keys == sorted(keys)
    rec = result.reports[0].record()
    assert "millis" not in rec and set(rec) == {
        "group", "order", "lemma", "status", "note", "witness", "checked", "skipped"}
    # verify_group times every check, SKIP reports included
    assert all(r.millis > 0 for r in result.reports)


@pytest.mark.parametrize("jobs", [2, 3])
def test_scan_parallel_matches_serial(jobs):
    # 141 groups, more than the scan keeps in flight at either job count
    serial = verifier.scan(32, lemmas=("bingo", "theorem"), seed=7, jobs=1)
    parallel = verifier.scan(32, lemmas=("bingo", "theorem"), seed=7, jobs=jobs)
    assert serial.group_count > verifier._IN_FLIGHT_PER_JOB * jobs
    assert [r.record() for r in serial.reports] == [r.record() for r in parallel.reports]


def test_parallel_scan_builds_the_corpus_once_in_the_caller(monkeypatch):
    calls = []

    def counting_corpus(*args, **kwargs):
        calls.append(args)
        return cons.corpus(*args, **kwargs)

    monkeypatch.setattr(verifier, "corpus", counting_corpus, raising=False)
    result = verifier.scan(12, seed=7, jobs=2)
    assert len(calls) == 1
    assert result.group_count == len(list(cons.corpus(12)))


def test_scan_lemma_selection():
    result = verifier.scan(10, lemmas=("theorem",), seed=7)
    assert {r.lemma_id for r in result.reports} == {"theorem"}


def test_scan_report_matches_pinned_digest(tmp_path):
    """The order-32 report of the seed code, byte for byte."""
    path = tmp_path / "scan32.jsonl"
    fileio.write_report_file(verifier.scan(32, lemmas=("all",), seed=7).reports, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "61ed584f2fb5a4a401f998807c4d6343fb85683c9451a30dd3e158c75bf2a3b2")


def test_explore_report_matches_pinned_digest(tmp_path):
    """The order-32 report with the exploratory minimal-lemma checks."""
    path = tmp_path / "explore32.jsonl"
    fileio.write_report_file(
        verifier.scan(32, lemmas=("all",), explore=True).reports, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4bd5f1abb410d1fb71400f89b5d686f24ea7bee547999d8feb7b68142c171dfb")


def test_scan_report_does_not_depend_on_the_seed(tmp_path):
    reports = []
    for seed in (7, 8):
        path = tmp_path / f"seed{seed}.jsonl"
        fileio.write_report_file(
            verifier.scan(32, lemmas=("ca", "key", "cc"), seed=seed).reports, path)
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_every_lemma_runs_through_the_registry(a4):
    assert verifier.LEMMA_IDS == tuple(verifier._CHECKS)
    for lemma in verifier.LEMMA_IDS:
        check = verifier._CHECKS[lemma]
        assert check is getattr(verifier, f"check_{lemma}")
        reports = check(a4)
        assert reports and all(r.status != "FAIL" for r in reports)
        assert reports[0].lemma_id.startswith(lemma)


def test_verify_group_rejects_unknown_lemma(s3):
    with pytest.raises(ValueError, match="unknown lemma"):
        verifier.verify_group(s3, ("nosuch",))


def test_verify_group_releases_the_memo():
    G = cons.symmetric(4)
    verifier.check_bingo(G)
    assert G._memo                   # the checks memoize on the table
    verifier.verify_group(G, ("all",), seed=7)
    assert G._memo == {}
    ref = weakref.ref(G)
    gc.disable()
    try:
        del G                        # no reference cycle is left to wait for
        assert ref() is None
    finally:
        gc.enable()


def test_ca_builds_each_fitting_commutator_once(monkeypatch):
    G = cons.alternating(4)
    runs = []
    real = core._close_members

    def counting(table, members, cap=None):      # one call per body run
        if sys._getframe(1).f_code.co_name == "commutator_with_element":
            runs.append(1)
        return real(table, members, cap)

    monkeypatch.setattr(core, "_close_members", counting)
    (report,) = verifier.verify_group(G, ("ca",), seed=7)
    assert report.status == "PASS" and G._memo == {}
    T = complement_search(G, fitting_data(G).fitting)
    assert 0 < len(runs) <= T.order < G.n


def test_fitting_data_and_derived_series_run_once_per_verification(monkeypatch):
    G = fileio.build_recipe("dp(cyclic(5),sym(3))")
    fitting, commutators = [], []
    real_fitting, real_commutator = structure.fitting_subgroup, core.commutator_subgroup
    monkeypatch.setattr(structure, "fitting_subgroup",
                        lambda T: fitting.append(T) or real_fitting(T))
    monkeypatch.setattr(core, "commutator_subgroup",
                        lambda T, H: commutators.append(T) or real_commutator(T, H))
    reports = verifier.verify_group(G, ("key", "ca", "cc"))
    assert {r.status for r in reports} == {"PASS"}
    # one fitting_data body (F of G, then of G/F) and one derived series (G > C15 > 1)
    assert len(fitting) == 2 and fitting[0] is G
    assert len(commutators) == 2 and all(T is G for T in commutators)
    assert G._memo == {}


# -- key check internals ----------------------------------------------------------------


def test_key_runs_iterated_construction(a4):
    reports = verifier.check_key(cons.direct_product(a4, cons.cyclic(5)))
    st = {r.lemma_id: r for r in reports}
    assert st["key"].status == "PASS"
    # fitting has two primes (2 and 5) so one pairing witness ran
    assert st["key"].checked >= 4
    assert st["key_iff"].status == "PASS"


@pytest.mark.parametrize("recipe, builds", [
    ("dihedral(5)", 1),                            # one nontrivial p-core
    ("dp(cyclic(5),sym(3))", 3),                   # two
    ("dp(dp(cyclic(5),sym(3)),cyclic(7))", 5),     # three
])
def test_key_builds_each_coset_action_product_once(recipe, builds, monkeypatch):
    G = fileio.build_recipe(recipe)
    calls = []
    real = cons.natural_semidirect
    monkeypatch.setattr(cons, "natural_semidirect",
                        lambda G, H: calls.append((G, H.key())) or real(G, H))
    reports = verifier.verify_group(G, ("key",))
    assert _statuses(reports) == {"key": "PASS", "key_iff": "PASS"}
    # the list keeps every base table alive, so no two share an id()
    assert len(calls) == len({(id(T), mask) for T, mask in calls}) == builds
    assert G._memo == {}


def _record_rows(monkeypatch):
    """Wrap ``_coset_action_rows``, which builds every coset-action product,
    one row per subgroup; the list fills with (base table, members) per row."""
    calls = []
    real = cons._coset_action_rows

    def building(G, members, *args):
        calls.extend((G, row.tobytes()) for row in members)
        return real(G, members, *args)

    monkeypatch.setattr(cons, "_coset_action_rows", building)
    return calls


@pytest.mark.parametrize("recipe, pairs", [
    ("dihedral(5)", 2),
    ("dp(cyclic(5),sym(3))", 5),
    ("dp(dp(cyclic(5),sym(3)),cyclic(7))", 8),
])
def test_bingo_and_key_build_each_coset_action_product_once(recipe, pairs, monkeypatch):
    # pairs: the (table, subgroup) pairs whose products the two checks read
    G = fileio.build_recipe(recipe)
    calls = _record_rows(monkeypatch)
    reports = verifier.verify_group(G, ("bingo", "key"))
    assert {r.status for r in reports} == {"PASS"}
    # the key check reuses the p-cores the bingo check built through collapse,
    # and the trivial subgroup's product, G itself, is not built
    assert len(calls) == len({(id(T), mask) for T, mask in calls}) == pairs - 1
    trivial = verifier.trivial_subgroup(G).members.tobytes()
    assert trivial not in {mask for T, mask in calls if T is G}


def _record_products(monkeypatch):
    """Wrap ``_coset_action_rows`` and ``verify_group_axioms``.  The first
    returned list fills with one entry per call that builds products: (its
    rows' products, the number of tables axiom-checked before the call, and
    after), the second with the bytes of every table that passed the axiom
    check."""
    built, verified = [], []
    real_rows, real_verify = cons._coset_action_rows, core.verify_group_axioms

    def verifying(table):
        gens = real_verify(table)
        verified.append(table.tobytes())
        return gens

    def building(*args):
        before = len(verified)
        products = real_rows(*args)
        built.append((products, before, len(verified)))
        return products

    monkeypatch.setattr(core, "verify_group_axioms", verifying)
    monkeypatch.setattr(cons, "_coset_action_rows", building)
    return built, verified


def test_bingo_products_share_one_table(monkeypatch):
    G = cons.abelian_group((2, 2, 2, 2, 2))
    built, _ = _record_products(monkeypatch)
    verifier.check_bingo(G)
    # every nontrivial H: 373 rows, each product G's own table
    products = [P for tables, _, _ in built for P in tables]
    assert len(products) == 373 and {id(P) for P in products} == {id(G)}
    # no product is kept per H, but the 2-core's, here G itself, for the key check
    kept = [v for v in G._memo.values() if isinstance(v, cons.NaturalSemidirect)]
    assert [ns.subgroup.order for ns in kept] == [32] and kept[0].group is G


def test_bingo_axiom_checks_each_distinct_product_once(monkeypatch):
    G = cons.abelian_group((2, 2, 2, 2, 2))
    built, verified = _record_products(monkeypatch)
    verifier.check_bingo(G)
    products = [P.key() for tables, _, _ in built for P in tables]
    assert len(products) == 373
    # G's bytes count as checked before the verification: G was checked when
    # it was built, and here every product is byte-identical to it
    assert verified == []
    assert set(products) == {G.key()}


def test_byte_identical_products_on_one_base_share_one_checked_table(monkeypatch):
    built, verified = _record_products(monkeypatch)
    builds = checked = distinct = 0
    for G in cons.corpus(32):
        del built[:], verified[:]
        verifier.verify_group(G, ("all",))
        builds += sum(len(tables) for tables, _, _ in built)
        products = {P.key() for tables, _, _ in built for P in tables}
        # the bingo check's trivial subgroup has G for its product, unbuilt
        if verifier.bingo_tuples(G):
            products.add(G.key())
        core.release_memo(G)
        distinct += len(products)
        shared, tables_seen = {G.key(): G}, {id(G)}
        for tables, before, after in built:
            fresh = []
            for P in tables:
                # one table per bytes, whatever the base table it was built on
                assert shared.setdefault(P.key(), P) is P, G.label
                if id(P) not in tables_seen:
                    tables_seen.add(id(P))
                    fresh.append(P.key())
            assert verified[before:after] == fresh, G.label
        checked += len(tables_seen) - 1
    # products built on a product share the base's table map, so each
    # distinct table is checked once per verification, and G not again; the
    # 104 trivial subgroups whose product is no longer built left 1,200 builds
    # (cyclic(1)'s is still built, by the key check, as its Fitting subgroup)
    assert (builds, checked, distinct) == (1096, 224, 329)


def test_key_check_tables_are_freed_without_the_cyclic_collector(monkeypatch):
    built = []
    init = core.GroupTable.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    G = cons.dihedral(6)
    monkeypatch.setattr(core.GroupTable, "__init__", tracking)
    gc.disable()
    try:
        verifier.verify_group(G, ("bingo", "key"))
        alive = [r() for r in built if r() is not None]
        assert len(built) >= 5 and alive == []
    finally:
        gc.enable()


# Each failure exit of the key check, driven on C2 x C3 x C5: its primes are
# 2, 3 and 5, with p-cores [0, 15], [0, 5, 10] and [0, 1, 2, 3, 4], and its
# index set is (1,).


def _key_records(reports):
    return [(r.lemma_id, r.status, r.hypothesis_note, r.witness, r.checked, r.skipped)
            for r in reports]


def _key_fail(note, witness, checked, iff_note):
    return [("key", "FAIL", note, witness, checked, 0),
            ("key_iff", "SKIP", iff_note, {}, 0, 0)]


def test_key_fails_when_the_single_collapse_changes_the_index_set(monkeypatch):
    G = cons.abelian_group((2, 3, 5))
    real, calls = verifier.index_set, []

    def changed(T):                      # G, then the single collapse (G's own bytes)
        calls.append(T)
        return real(T) if len(calls) == 1 else types.SimpleNamespace(sizes=(1, 2))

    monkeypatch.setattr(verifier, "index_set", changed)
    assert _key_records(verifier.check_key(G)) == _key_fail(
        "single collapse changed the index set",
        {"F": list(range(30)), "N_G": [1], "N_collapse": [1, 2]}, 1, "index-set mismatch")


def test_key_fails_when_the_iterated_embedding_collapses_a_p_core(monkeypatch):
    G = cons.abelian_group((2, 3, 5))
    real = verifier.collapse

    def collapsing(T, H):                # the step at p = 2 maps G onto one point
        ns = real(T, H)
        if T is G and H.order == 2:
            return types.SimpleNamespace(
                group=ns.group, quotient=types.SimpleNamespace(projection=np.zeros(G.n, int)))
        return ns

    monkeypatch.setattr(verifier, "collapse", collapsing)
    assert _key_records(verifier.check_key(G)) == _key_fail(
        "iterated embedding collapsed a p-core", {"p": 3}, 2, "iterated embedding failed")


def test_key_fails_when_an_iterated_collapse_raises(monkeypatch):
    G = cons.abelian_group((2, 3, 5))
    real, calls = verifier.collapse, []

    def raising(T, H):                   # the single collapse, the step at p = 2, then p = 3
        calls.append(T)
        if len(calls) == 3:
            raise core.LemmaViolation("stub", {"T": T.label})
        return real(T, H)

    monkeypatch.setattr(verifier, "collapse", raising)
    assert _key_records(verifier.check_key(G)) == _key_fail(
        "embedded p-core at prime 3 broke the construction: stub", {"p": 3}, 2,
        "iterated collapse failed")


def test_key_fails_when_an_iterated_collapse_changes_the_index_set(monkeypatch):
    G = cons.abelian_group((2, 3, 5))
    real, calls = verifier.index_set, []

    def changed(T):                      # G, the single collapse, then the step at p = 2
        calls.append(T)
        return real(T) if len(calls) <= 2 else types.SimpleNamespace(sizes=(1, 3))

    monkeypatch.setattr(verifier, "index_set", changed)
    assert _key_records(verifier.check_key(G)) == _key_fail(
        "iterated collapse at prime 2 changed the index set",
        {"p": 2, "N_G": [1], "N_step": [1, 3]}, 2, "iterated collapse failed")


def test_key_fails_when_a_two_step_pairing_fails(monkeypatch):
    G = cons.abelian_group((2, 3, 5))
    monkeypatch.setattr(verifier, "two_step_collapse_witness",
                        lambda G, H, N: cons.IsomorphismWitness(False, "stub"))
    assert _key_records(verifier.check_key(G)) == _key_fail(
        "two-step pairing failed: stub", {"H": [0, 15], "N": [0, 5, 10]}, 4, "pairing failed")


def test_key_iff_fails_when_the_collapse_changes_abelianness(monkeypatch):
    G = cons.symmetric(3)
    F = fitting_data(G).fitting
    product = cons.collapse(G, F).group              # memoized: check_key reads it
    assert product is not G
    monkeypatch.setattr(product, "is_abelian", lambda: True)
    records = _key_records(verifier.check_key(G))
    assert records == [
        ("key", "PASS", "", {}, 2, 0),
        ("key_iff", "FAIL", "abelianness changed under the collapse", {"F": [0, 3, 4]}, 1, 0)]
    assert all(0 <= x < G.n for x in records[1][3]["F"])


def test_cc_fails_when_no_member_of_f_realizes_a_p_part(monkeypatch):
    G = cons.symmetric(3)                           # F = C3, |G/F|_2 = 2
    monkeypatch.setattr(verifier, "centralizer_sizes", lambda T: np.full(T.n, T.n))
    records = _key_records(verifier.check_cc(G))
    assert records == [("cc", "FAIL", "no member of F realizes the p-part",
                        {"F": [0, 3, 4], "p": 2, "target": 2}, 2, 0)]
    witness = records[0][3]
    assert all(0 <= x < G.n for x in witness["F"]) and G.n % witness["p"] == 0


def test_theorem_fails_and_the_scan_names_the_counterexample(monkeypatch):
    monkeypatch.setattr(verifier, "hypothesis_check",
                        lambda T: HypothesisCheck(True, True, True))
    G = cons.symmetric(3)
    assert _key_records(verifier.check_theorem(G)) == [
        ("theorem", "FAIL", "counterexample: hypothesis holds but the group is nonabelian",
         {"is_a_group": True, "contains_all_prime_norms": True, "contains_total_norm": True,
          "satisfies": True, "abelian": False}, 1, 0)]
    result = verifier.theorem_scan([cons.cyclic(6), G])
    assert result.fail_count == 1 and result.counterexamples == ["sym(3)"]
    assert result.theorem_cells == {(True, True, True): 1, (True, True, False): 1}


# The failure exits of the checks that walk the normal p-subgroups.


def test_go_fails_with_the_first_split_it_cannot_make(monkeypatch):
    monkeypatch.setattr(verifier, "_split_failures", lambda G, members, a_list: np.ones(
        (len(members), a_list.size), dtype=bool))
    assert _key_records(verifier.check_go(cons.alternating(4))) == [
        ("go", "FAIL", "no splitting", {"P": [0, 3, 8, 11], "a": 0}, 0, 0)]


def test_l4_fails_at_the_first_strict_case(monkeypatch):
    # C3 x S3 has 4 strict (g, H) cases and 19 trivially split ones
    G = cons.direct_product(cons.cyclic(3), cons.symmetric(3))
    assert _key_records(verifier.check_l4(G)) == [
        ("l4", "PASS", "19 tuples with C(g) already full are trivially split", {}, 23, 0)]

    def violated(G, H, g):
        raise core.LemmaViolation("stub", {"u": 7})

    monkeypatch.setattr(verifier, "l4_decompose", violated)
    assert _key_records(verifier.check_l4(G)) == [
        ("l4", "FAIL", "stub", {"H": [0, 3, 4], "g": 9, "u": 7}, 1, 0)]


def test_bingo_fails_on_an_untwisted_product(monkeypatch, s3):
    # the product of A3 in S3 replaced by A3 x S3/A3, as in
    # test_bingo_comparator_detects_untwisted_product
    a3 = next(H for H in core.normal_subgroups(s3) if H.order == 3)
    untwisted = cons.direct_product(subgroup_table(s3, a3),
                                    core.quotient_group(s3, a3).quotient)
    real = verifier.collapse
    monkeypatch.setattr(verifier, "collapse", lambda G, H: (
        types.SimpleNamespace(group=untwisted) if H.order == 3 else real(G, H)))
    witness = {"p": 3, "H": [0, 3, 4], "missing": [2, 3]}
    assert _key_records(verifier.check_bingo(s3)) == [
        ("bingo1", "FAIL", "class size of G missing from the product", witness, 2, 0),
        ("bingo2", "PASS", "", {}, 2, 0),
        ("bingo", "FAIL", "index sets differ", witness, 2, 0)]


def _flip_commute(G, x, y):
    """Flip entry [x, y] of G's commute matrix: a broken table to catch."""
    cm = G.commute_matrix.copy()
    cm[x, y] = ~cm[x, y]
    cm.setflags(write=False)
    G.__dict__["commute_matrix"] = cm


def test_basic_fails_at_the_first_broken_coprime_product(monkeypatch):
    # C6 with 1 dropped from C(5): the pair (2, 3), whose product is 5, breaks
    # C(xy) = C(x) n C(y) after the five coprime pairs (0, y) pass
    G = cons.cyclic(6)
    _flip_commute(G, 1, 5)
    monkeypatch.setattr(verifier, "normal_arrays", lambda G: _rows_of(core.normal_arrays(G), []))
    assert _key_records(verifier.check_basic(G)) == [
        ("basic", "FAIL", "centralizer of commuting coprime product",
         {"x": 2, "y": 3}, 5, 0)]
    assert not verifier.replay_basic_pair(G, 2, 3)


def _rows_of(arrays, rows):
    """The subgroup arrays of the given rows of ``arrays``, in that order."""
    rows = np.array(rows, dtype=np.int64)
    runs = [arrays.members_of(i) for i in rows.tolist()]
    return core.SubgroupArrays(arrays.words[rows], arrays.orders[rows],
                               np.concatenate([np.zeros(0, dtype=np.int64), *runs]),
                               np.concatenate(([0], np.cumsum(arrays.orders[rows]))),
                               arrays.abelian[rows])


def _set_commutator(G, x, y, value):
    """Overwrite entry [x, y] of G's commutator table: a broken table to catch."""
    comm = G.commutator_table.copy()
    comm[x, y] = value
    comm.setflags(write=False)
    G.__dict__["commutator_table"] = comm


def _assert_basic_witness_in_range(G, report):
    w = report.witness
    assert w["K"] and all(0 <= k < G.n for k in w["K"])
    assert all(0 <= w[key] < G.n for key in ("x", "u") if key in w)


def test_basic_fails_when_an_orbit_size_fails_to_divide():
    # S3 with transposition 2 added to C(1): |C(1)| reads 3, so Ind(G, 1)
    # reads 2, which Ind(G/1, 1) = 3 does not divide; caught at K = 1
    G = cons.symmetric(3)
    _flip_commute(G, 2, 1)
    [report] = verifier.check_basic(G)
    assert _key_records([report]) == [
        ("basic", "FAIL", "orbit size fails to divide",
         {"K": [0], "x": 1, "ind_K": 1, "ind_Q": 3, "ind_G": 2}, 0, 0)]
    _assert_basic_witness_in_range(G, report)


def test_basic_fails_when_a_centralizer_image_escapes(monkeypatch):
    # C6 with [1, 4] = 3 and [2, 3] = 3: both commutators lie in {0, 3},
    # which passes, and the first commuting pair whose commutator leaves
    # {0, 2, 4}, in row-major order, is (1, 4)
    G = cons.cyclic(6)
    _set_commutator(G, 1, 4, 3)
    _set_commutator(G, 2, 3, 3)
    monkeypatch.setattr(verifier, "normal_arrays",
                        lambda G: _rows_of(core.normal_arrays(G), range(1, 4)))
    [report] = verifier.check_basic(G)
    assert _key_records([report]) == [
        ("basic", "FAIL", "centralizer image escapes",
         {"K": [0, 2, 4], "x": 4, "u": 1}, 1, 0)]
    _assert_basic_witness_in_range(G, report)


def test_basic_fails_when_a_coprime_centralizer_image_is_too_small():
    # S3 with transposition 1 dropped from its own centralizer: |C(1)| reads
    # 1, and Ind(G, 1) = 6 is still a multiple of 3, but modulo K = 1 the
    # image of C(1) falls short of the centralizer of 1K, of order 2
    G = cons.symmetric(3)
    _flip_commute(G, 1, 1)
    [report] = verifier.check_basic(G)
    assert _key_records([report]) == [
        ("basic", "FAIL", "coprime centralizer image too small",
         {"K": [0], "x": 1, "image": 1, "quotient_centralizer": 2}, 0, 0)]
    _assert_basic_witness_in_range(G, report)


def test_cl2_fails_at_the_first_action_without_a_regular_orbit():
    # frobenius(7,3): V = C7 = [0, 3, 6, ..., 18] and seven C3 subgroups A.
    # In the commute matrix, 5 is made to fix 3, 6 and 9 and 10 to fix 12, 15
    # and 18: A = [0, 5, 10] stays faithful, but every v then has |C_A(v)| = 2.
    # Before it, V = 1 checks A = 1 and skips the 8 other A; V = C7 skips
    # C7 itself (not coprime) up front, then checks 1, [0, 1, 2], [0, 4, 17]
    G = cons.frobenius(7, 3)
    assert _key_records(verifier.check_cl2(G)) == [
        ("cl2", "PASS", "skipped tuples miss faithfulness or coprimality", {}, 9, 9)]
    cm = G.commute_matrix.copy()
    cm[5, [3, 6, 9]] = True
    cm[10, [12, 15, 18]] = True
    cm.setflags(write=False)
    G.__dict__["commute_matrix"] = cm
    [report] = verifier.check_cl2(G)
    assert _key_records([report]) == [
        ("cl2", "FAIL", "no regular orbit",
         {"V": [0, 3, 6, 9, 12, 15, 18], "A": [0, 5, 10]}, 5, 9)]
    assert all(0 <= x < G.n for key in ("V", "A") for x in report.witness[key])


def test_ca_fails_at_the_first_broken_product_rule():
    # S3 = A3 |x <1>, with the Fitting data found on the true table and then
    # 1 dropped from C(0): the pair (0, 1) breaks C(xy) = C(x) n C(y) after
    # T.order + n = 8 checks of steps (i) and (ii) and the 3 pairs at y = 0
    G = cons.symmetric(3)
    F = fitting_data(G).fitting
    assert structure.is_a_group(G) and complement_search(G, F) is not None
    _flip_commute(G, 1, 0)
    assert _key_records(verifier.check_ca(G)) == [
        ("ca", "FAIL", "centralizer product rule for (F,T) pair",
         {"x": 0, "y": 1}, 11, 0)]


# The other exits of ca.  S3 has F = [0, 3, 4] and T = [0, 1], with cosets
# F and [1, 2, 5]; dp(sym(3),cyclic(2)) has F = [0, 1, 6, 7, 8, 9], T = [0, 2]
# and C_F(2) = [0, 1].  Step (ii) runs over the elements in index order and
# counts T.order checks of step (i) before them.


def _assert_ca_witness_in_range(G, witness):
    for key, value in witness.items():
        if key == "F" and isinstance(value, int):
            assert value == fitting_data(G).fitting.order     # the order of F
            continue
        for x in value if isinstance(value, list) else [value]:
            assert 0 <= x < G.n, (key, value)


def _ca_fail(G, note, witness, checked):
    [report] = verifier.check_ca(G)
    assert _key_records([report]) == [("ca", "FAIL", note, witness, checked, 0)]
    _assert_ca_witness_in_range(G, report.witness)


def _ca_raises(G, note, witness):
    with pytest.raises(core.PreconditionError) as info:
        verifier.check_ca(G)
    assert (str(info.value), info.value.witness) == (note, witness)
    _assert_ca_witness_in_range(G, info.value.witness)


def _warm_ca(G):
    """Run ca once on the true tables, so that every derivation it memoizes
    is built before a cached table is tampered with."""
    assert _key_records(verifier.check_ca(G))[0][1] == "PASS"


def test_ca_fails_when_step_i_finds_no_fixed_point_splitting(monkeypatch):
    G = cons.symmetric(3)
    monkeypatch.setattr(verifier, "_coprime_split_ok", lambda G, P, a_list: 1)
    _ca_fail(G, "no fixed-point splitting of F", {"F": [0, 3, 4], "y": 1}, 0)


def test_ca_raises_when_t_is_not_a_transversal(monkeypatch):
    # with T trivial, element 0 splits and its successor 1 has no T member
    G = cons.symmetric(3)
    monkeypatch.setattr(verifier, "complement_search", lambda G, F: core.trivial_subgroup(G))
    _ca_raises(G, "T is not a transversal of F", {"coset_members": []})


def test_ca_raises_when_an_element_does_not_factor():
    # 1^-1 read as 0: element 1 of the coset of y = 1 gives w = 1, outside F
    G = cons.symmetric(3)
    _warm_ca(G)
    inv = G.inverse_table.copy()
    inv[1] = 0
    G.__dict__["inverse_table"] = inv
    _ca_raises(G, "g does not factor as F * T", {"g": 1, "y": 1, "w": 1})


def test_ca_fails_when_f_does_not_split_across_y(monkeypatch):
    # [F, y] read as trivial: element 2 = w * 1 with w = 4 outside C_F(1) = [0]
    G = cons.symmetric(3)
    monkeypatch.setattr(structure, "commutator_with_element",
                        lambda G, H, y: core.trivial_subgroup(G))
    _ca_fail(G, "F failed to split as C_F(y) x [F,y]", {"g": 2, "y": 1, "w": 4, "F": 3}, 4)


def test_ca_fails_when_no_conjugator_lies_in_f(monkeypatch):
    # [F, y] read as F: every w splits as 1 * w; the coset of 1 then passes,
    # and element 3 of F asks for k with k 0 k^-1 = 3
    G = cons.symmetric(3)
    monkeypatch.setattr(structure, "commutator_with_element", lambda G, H, y: H)
    _ca_fail(G, "no conjugator for v*y inside F", {"g": 3, "v": 3, "y": 0}, 5)


def test_ca_fails_when_the_conjugated_factorization_fails():
    # 1^0 read as 2: element 1 splits as k = 0, x = 0, y = 1 and breaks there
    G = cons.symmetric(3)
    _warm_ca(G)
    cj = G.conjugation_table.copy()
    cj[1, 0] = 2
    G.__dict__["conjugation_table"] = cj
    _ca_fail(G, "conjugated factorization failed", {"g": 1, "k": 0, "x": 0, "y": 1}, 3)


def test_ca_fails_when_the_index_does_not_multiply(monkeypatch):
    # centralizer sizes 5, 5 and 2 for x = 1, y = 2 and xy = 3: the sizes
    # cover G (5 * 5 // 2 = 12) but 12 // 2 != (12 // 5)^2; the 6 pairs at
    # y = 0 pass first
    G = fileio.build_recipe("dp(sym(3),cyclic(2))")
    real = verifier.centralizer_sizes

    def tampered(G):
        cg = real(G).copy()
        cg[[1, 2, 3]] = 5, 5, 2
        return cg

    monkeypatch.setattr(verifier, "centralizer_sizes", tampered)
    _ca_fail(G, "index does not multiply", {"x": 1, "y": 2}, 2 + 12 + 6)


@pytest.mark.parametrize("build, tuples", [
    (lambda: cons.cyclic(1), [(2, [0])]),
    (cons.quaternion8, []),
    (lambda: cons.symmetric(4), [(3, [0])]),
    (lambda: cons.alternating(4), [(2, [0]), (2, [0, 3, 8, 11])]),
    (lambda: cons.abelian_group((2, 3)), [(2, [0]), (2, [0, 3]), (3, [0, 1, 2])]),
])
def test_bingo_tuples_list_the_trivial_subgroup_once(build, tuples):
    G = build()
    assert [(p, H.members.tolist()) for p, H in verifier.bingo_tuples(G)] == tuples
    if not tuples:
        note = "no prime with an abelian Sylow subgroup"
        assert _key_records(verifier.check_bingo(G)) == [
            (lemma, "SKIP", note, {}, 0, 0) for lemma in ("bingo1", "bingo2", "bingo")]


def test_key_iff_on_abelian():
    reports = verifier.check_key(cons.abelian_group((4, 3)))
    st = {r.lemma_id: r.status for r in reports}
    assert st == {"key": "PASS", "key_iff": "PASS"}


# -- relabelling invariance ------------------------------------------------------------


def _records(G):
    return [(r.lemma_id, r.status, r.checked, r.skipped, r.hypothesis_note)
            for r in verifier.verify_group(G, ("all",), explore=True)]


@pytest.fixture(scope="module")
def relabelling_tables():
    return [*cons.corpus(24), fileio.build_recipe("dp(sym(4),abelian(2,2))"),
            cons.alternating(5)]


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_relabelling_keeps_every_record_and_subgroup_list(relabelling_tables, data):
    """No result depends on element labels: a relabelling sigma that fixes
    the identity maps the normal and abelian subgroup lists onto those of
    the relabelled table, and every check gives the same record."""
    for G in relabelling_tables:
        # the simplest draw is the shift a -> a + 1 on 1..n-1, not the identity
        shift = [*range(2, G.n), 1][:G.n - 1]
        sigma = np.array([0, *data.draw(st.permutations(shift))])
        H = relabelled(G, sigma)
        for query in (core.normal_subgroups, core.abelian_subgroups):
            assert ({frozenset(sigma[K.members].tolist()) for K in query(G)}
                    == {frozenset(K.members.tolist()) for K in query(H)}), G.label
        assert _records(H) == _records(G), G.label
