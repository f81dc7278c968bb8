"""Per-check behavior: statuses, gating, witnesses, replay, and the scan."""

import gc
import hashlib
import sys
import types
import weakref

import numpy as np
import pytest

from agroups import constructions as cons, core, fileio, structure, verifier
from agroups.structure import complement_search, fitting_data, p_core

from conftest import cyclic_of_order, lattice_subgroups


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
    sub, _ = core.subgroup_as_table(s3, a3)
    untwisted = cons.direct_product(sub, q.quotient)
    missing, extra = verifier.bingo_compare(s3, a3, untwisted)
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
    assert not verifier.regular_orbit_exists(G, V, A)


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
            bad = verifier._product_rule_break(G, H.members, g)
            if bad is not None:
                return ("FAIL", {"H": H.members.tolist(), "g": int(g),
                                 "h": int(H.members[bad])}, checked, skipped)
        skipped += int(central.sum() - cond.sum())
    return ("PASS", None, checked, skipped)


def _centre_record(G):
    (r,) = verifier.check_centre(G)
    return (r.status, r.witness or None, r.checked, r.skipped)


def test_batched_centre_matches_per_g_loop(monkeypatch):
    groups = list(cons.corpus(32))
    for G in groups:
        assert _centre_record(G) == _centre_per_g(G), G.label
    for block in (1, 2000):                     # one g, then a few, per block
        monkeypatch.setattr(verifier, "_CENTRE_BLOCK", block)
        for G in groups[::7]:
            assert _centre_record(G) == _centre_per_g(G), (block, G.label)


@pytest.mark.parametrize("block", [None, 1])
def test_batched_centre_fail_matches_per_g_loop(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(verifier, "_CENTRE_BLOCK", block)
    G = cons.direct_product(cons.symmetric(3), cons.cyclic(2))
    cm = G.commute_matrix.copy()
    cm[0, 2] = ~cm[0, 2]                   # a broken table the rule must catch
    cm.setflags(write=False)
    G.__dict__["commute_matrix"] = cm
    got = _centre_record(G)
    assert got[0] == "FAIL" and got[1]["g"] == 3
    assert got == _centre_per_g(G)


def test_centre_reads_coset_centralizers_from_classes():
    groups = [*cons.corpus(32),
              cons.direct_product(cons.abelian_group((2, 2, 2)), cons.symmetric(3))]
    for G in groups:
        for H in core.normal_subgroups(G):
            sums = core.coset_commute_matrix(G, H).sum(axis=0)
            assert np.array_equal(core.coset_centralizer_orders(G, H), sums), (
                G.label, H.members.tolist())


def test_centre_fail_on_a_tampered_conjugation_table():
    # 1^g = 5 for a single g, each g in turn: the normal walk then returns
    # the non-normal {0, 1, 4, 5}, whose product rule breaks.  The record is
    # the one the gathered coset_commute_matrix column sums gave.
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


def test_cl2_action_faithful_pass():
    homs = cons.action_homs(cons.cyclic(5), cons.cyclic(4))
    spec = cons.ActionSpec(acting=cons.cyclic(4), acted=cons.cyclic(5), action=homs[1])
    r = verifier.check_cl2_action(spec)
    assert r.status == "PASS" and "regular orbit" in r.hypothesis_note


def test_cl2_action_trivial_acting_group():
    spec = cons.ActionSpec(acting=cons.cyclic(1), acted=cons.cyclic(5),
                           action=np.arange(5)[:, None])
    assert verifier.check_cl2_action(spec).status == "PASS"


def test_cl2_action_gates():
    homs = cons.action_homs(cons.cyclic(5), cons.cyclic(4))
    unfaithful = cons.ActionSpec(acting=cons.cyclic(4), acted=cons.cyclic(5),
                                 action=homs[0])
    r = verifier.check_cl2_action(unfaithful)
    assert r.status == "SKIP" and "faithful" in r.hypothesis_note
    noncoprime = cons.ActionSpec(acting=cons.cyclic(2), acted=cons.cyclic(4),
                                 action=np.stack([np.arange(4), (-np.arange(4)) % 4],
                                                 axis=1))
    r = verifier.check_cl2_action(noncoprime)
    assert r.status == "SKIP" and "coprime" in r.hypothesis_note


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


@pytest.mark.parametrize("recipe, pairs", [
    ("dihedral(5)", 2),
    ("dp(cyclic(5),sym(3))", 5),
    ("dp(dp(cyclic(5),sym(3)),cyclic(7))", 8),
])
def test_bingo_and_key_build_each_coset_action_product_once(recipe, pairs, monkeypatch):
    G = fileio.build_recipe(recipe)
    calls = []
    real = cons.natural_semidirect
    monkeypatch.setattr(cons, "natural_semidirect",
                        lambda G, H: calls.append((G, H.key())) or real(G, H))
    reports = verifier.verify_group(G, ("bingo", "key"))
    assert {r.status for r in reports} == {"PASS"}
    # the key check reuses the bingo check's products of G
    assert len(calls) == len({(id(T), mask) for T, mask in calls}) == pairs


def test_bingo_products_share_one_table():
    G = cons.abelian_group((2, 2, 2, 2, 2))
    verifier.check_bingo(G)
    kept = [v for v in G._memo.values() if isinstance(v, cons.NaturalSemidirect)]
    assert len(kept) == 374
    assert len({id(ns.group) for ns in kept}) == 1


def _record_products(monkeypatch):
    """Wrap ``natural_semidirect`` and ``verify_group_axioms``.  The first
    returned list fills with (coset-action product, number of tables
    axiom-checked before it was built, and after), the second with the
    bytes of every table that passed the axiom check."""
    built, verified = [], []
    real_nsd, real_verify = cons.natural_semidirect, core.verify_group_axioms

    def verifying(table):
        gens = real_verify(table)
        verified.append(table.tobytes())
        return gens

    def building(G, H):
        before = len(verified)
        ns = real_nsd(G, H)
        built.append((ns, before, len(verified)))
        return ns

    monkeypatch.setattr(core, "verify_group_axioms", verifying)
    monkeypatch.setattr(cons, "natural_semidirect", building)
    monkeypatch.setattr(verifier, "natural_semidirect", building)
    return built, verified


def test_bingo_axiom_checks_each_distinct_product_once(monkeypatch):
    G = cons.abelian_group((2, 2, 2, 2, 2))
    built, verified = _record_products(monkeypatch)
    verifier.check_bingo(G)
    products = [ns.group.key() for ns, _, _ in built]
    assert len(products) == 374
    assert sorted(verified) == sorted(set(products))
    assert len(set(products)) < len(products)


def test_byte_identical_products_on_one_base_share_one_checked_table(monkeypatch):
    built, verified = _record_products(monkeypatch)
    builds = checked = distinct = 0
    for G in cons.corpus(32):
        del built[:], verified[:]
        verifier.verify_group(G, ("all",))
        builds += len(built)
        distinct += len({ns.group.key() for ns, _, _ in built})
        shared, tables = {}, set()
        for ns, before, after in built:
            P = ns.group
            # one table per bytes, whatever the base table it was built on
            assert shared.setdefault(P.key(), P) is P, G.label
            if id(P) in tables:
                assert after == before
                continue
            tables.add(id(P))
            assert verified[before:after] == [P.key()]
        checked += len(tables)
    # products built on a product share the base's table map, so each
    # distinct table is checked once per verification
    assert (builds, checked, distinct) == (1227, 329, 329)


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
    real = verifier.index_set
    monkeypatch.setattr(verifier, "index_set",
                        lambda T: real(T) if T is G else types.SimpleNamespace(sizes=(1, 2)))
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
    real = verifier.collapse

    def raising(T, H):                   # the step at p = 3 collapses a product
        if T is not G:
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


# The failure exits of the checks that walk the normal p-subgroups.


def test_go_fails_with_the_first_split_it_cannot_make(monkeypatch):
    monkeypatch.setattr(verifier, "_coprime_split_ok", lambda G, P, a_list: 0)
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
    sub, _ = core.subgroup_as_table(s3, a3)
    untwisted = cons.direct_product(sub, core.quotient_group(s3, a3).quotient)
    real = verifier.collapse
    monkeypatch.setattr(verifier, "collapse", lambda G, H: (
        types.SimpleNamespace(group=untwisted) if H.order == 3 else real(G, H)))
    witness = {"p": 3, "H": [0, 3, 4], "missing": [2, 3]}
    assert _key_records(verifier.check_bingo(s3)) == [
        ("bingo1", "FAIL", "class size of G missing from the product", witness, 2, 0),
        ("bingo2", "PASS", "", {}, 2, 0),
        ("bingo", "FAIL", "index sets differ", witness, 2, 0)]


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
